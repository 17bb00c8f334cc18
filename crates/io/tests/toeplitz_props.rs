//! RSS steering invariants the scale-out live runtime depends on:
//! determinism (a flow always lands on the same worker), symmetry under
//! the symmetric key (both directions of a connection land on the same
//! worker), and bounded skew (uniform flows spread across queues) — plus
//! the byte-table hasher's agreement with the specification's bit-serial
//! definition.

use proptest::prelude::*;

use nba_io::toeplitz::{queue_for_hash, Toeplitz, DEFAULT_RSS_KEY, SYMMETRIC_RSS_KEY};

#[path = "../src/toeplitz/bit_serial.rs"]
mod bit_serial;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The byte-table hash equals the bit-serial reference on any input up
    /// to the longest RSS tuple (IPv6 addresses + ports, 36 bytes) and
    /// beyond, under both shipped keys.
    #[test]
    fn byte_table_equals_bit_serial(
        input in proptest::collection::vec(any::<u8>(), 0..=44),
        symmetric in any::<bool>(),
    ) {
        let key = if symmetric { SYMMETRIC_RSS_KEY } else { DEFAULT_RSS_KEY };
        prop_assert_eq!(Toeplitz::with_key(key).hash(&input), bit_serial::hash(&key, &input));
    }

    /// Flow affinity: the same 5-tuple always maps to the same queue, for
    /// any queue count — the property that lets each worker own per-flow
    /// state without locks.
    #[test]
    fn same_tuple_same_queue(
        src in any::<u32>(),
        dst in any::<u32>(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        queues in 1u16..64,
    ) {
        let h = Toeplitz::with_key(DEFAULT_RSS_KEY);
        let a = queue_for_hash(h.hash_ipv4_l4(src, dst, sport, dport), queues);
        let b = queue_for_hash(h.hash_ipv4_l4(src, dst, sport, dport), queues);
        prop_assert_eq!(a, b);
        prop_assert!(a < queues);
    }

    /// The symmetric key hashes both directions of a connection
    /// identically (src/dst and ports swapped), v4 and v6 — so stateful
    /// elements see both halves of a conversation on one worker.
    #[test]
    fn symmetric_key_is_direction_invariant(
        src in any::<u32>(),
        dst in any::<u32>(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        src6 in any::<u128>(),
        dst6 in any::<u128>(),
        queues in 1u16..64,
    ) {
        let h = Toeplitz::with_key(SYMMETRIC_RSS_KEY);
        let fwd = h.hash_ipv4_l4(src, dst, sport, dport);
        let rev = h.hash_ipv4_l4(dst, src, dport, sport);
        prop_assert_eq!(fwd, rev, "v4 forward/reverse hashes differ");
        prop_assert_eq!(
            queue_for_hash(fwd, queues),
            queue_for_hash(rev, queues)
        );
        let fwd6 = h.hash_ipv6_l4(src6, dst6, sport, dport);
        let rev6 = h.hash_ipv6_l4(dst6, src6, dport, sport);
        prop_assert_eq!(fwd6, rev6, "v6 forward/reverse hashes differ");
        // 2-tuple hashing (non-TCP/UDP protocols) is symmetric too.
        prop_assert_eq!(h.hash_ipv4(src, dst), h.hash_ipv4(dst, src));
        prop_assert_eq!(h.hash_ipv6(src6, dst6), h.hash_ipv6(dst6, src6));
    }

    /// The default (asymmetric) key does discriminate directions for at
    /// least some tuples — guarding against a degenerate hash that makes
    /// the symmetry test above pass vacuously.
    #[test]
    fn default_key_not_trivially_symmetric(seed in any::<u64>()) {
        let h = Toeplitz::with_key(DEFAULT_RSS_KEY);
        // Derive a handful of tuples from the seed; at least one must
        // hash differently in the two directions.
        let mut any_diff = false;
        for i in 0..16u64 {
            let x = seed.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let src = (x >> 32) as u32;
            let dst = x as u32;
            let sport = (x >> 16) as u16;
            let dport = (x >> 48) as u16;
            if (src, sport) != (dst, dport)
                && h.hash_ipv4_l4(src, dst, sport, dport)
                    != h.hash_ipv4_l4(dst, src, dport, sport)
            {
                any_diff = true;
                break;
            }
        }
        prop_assert!(any_diff, "default key behaved symmetrically on 16 tuples");
    }

    /// Occupancy skew: steering many uniform-random flows across N queues
    /// must load every queue, and no queue may exceed 3x its fair share.
    /// (For 1024 flows over <=8 queues a Toeplitz hash behaves close to
    /// uniform; 3x is a loose documented bound, not a tail estimate.)
    #[test]
    fn uniform_flows_spread_within_bound(
        seed in any::<u64>(),
        queues in 2u16..=8,
    ) {
        let h = Toeplitz::with_key(DEFAULT_RSS_KEY);
        const FLOWS: u64 = 1024;
        let mut counts = vec![0u64; usize::from(queues)];
        for i in 0..FLOWS {
            let x = seed
                .wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .wrapping_mul(0xd134_2543_de82_ef95);
            let q = queue_for_hash(
                h.hash_ipv4_l4((x >> 32) as u32, x as u32, (x >> 16) as u16, (x >> 48) as u16),
                queues,
            );
            counts[usize::from(q)] += 1;
        }
        let fair = FLOWS / u64::from(queues);
        for (q, &c) in counts.iter().enumerate() {
            prop_assert!(c > 0, "queue {q} starved: {counts:?}");
            prop_assert!(c <= fair * 3, "queue {q} over 3x fair share: {counts:?}");
        }
    }
}
