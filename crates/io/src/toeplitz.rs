//! Receive-side scaling: the Toeplitz hash (Microsoft RSS specification).
//!
//! The NIC model hashes each packet's 5-tuple fields to pick an RX queue, so
//! all packets of a flow land on the same worker — the property NBA's
//! shared-nothing replicated pipelines rely on.

/// The de-facto standard 40-byte RSS key (Microsoft's verification key).
pub const DEFAULT_RSS_KEY: [u8; 40] = [
    0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2, 0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0,
    0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4, 0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30, 0xf2, 0x0c,
    0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
];

/// A symmetric RSS key (Woo &amp; Park, "Scalable TCP session monitoring with
/// Symmetric Receive-Side Scaling"): the 16-bit pattern `0x6d5a` repeated
/// across all 40 bytes. Because every hashed field (v4/v6 addresses, L4
/// ports) is 16-bit aligned in the input, a key with 16-bit period makes the
/// hash invariant under swapping source and destination — both directions of
/// a connection land on the same RX queue.
pub const SYMMETRIC_RSS_KEY: [u8; 40] = {
    let mut key = [0u8; 40];
    let mut i = 0;
    while i < 40 {
        key[i] = if i % 2 == 0 { 0x6d } else { 0x5a };
        i += 1;
    }
    key
};

#[cfg(test)]
mod bit_serial;

/// Input byte positions the 320-bit key reaches: byte `i` is hashed against
/// key bits `8i .. 8i + 39`, so from byte 40 on every window is past the
/// key and contributes nothing.
const KEY_REACH: usize = 40;

/// A Toeplitz hasher with a fixed key.
///
/// The hash is linear over XOR, so each input byte contributes a 32-bit
/// value that depends only on the byte and its position. Construction
/// tabulates those contributions for every position the key reaches, and
/// [`hash`](Toeplitz::hash) is one lookup and one XOR per input byte.
#[derive(Debug, Clone)]
pub struct Toeplitz {
    /// `table[i][b]`: what byte value `b` at input position `i` XORs into
    /// the hash.
    table: Box<[[u32; 256]]>,
}

impl Default for Toeplitz {
    fn default() -> Self {
        Toeplitz::with_key(DEFAULT_RSS_KEY)
    }
}

impl Toeplitz {
    /// Creates a hasher with a custom 40-byte key.
    pub fn with_key(key: [u8; 40]) -> Toeplitz {
        let mut table = vec![[0u32; 256]; KEY_REACH].into_boxed_slice();
        for (pos, row) in table.iter_mut().enumerate() {
            // Fill from the least significant bit up: once the values
            // below `high` are known, each `high | low` adds one bit's
            // 32-bit key window to `low`'s.
            for bit in (0..8).rev() {
                let window = key_window(&key, pos * 8 + bit);
                let high = 0x80 >> bit;
                for low in 0..high {
                    row[high | low] = row[low] ^ window;
                }
            }
        }
        Toeplitz { table }
    }

    /// Hashes an arbitrary big-endian input byte string.
    pub fn hash(&self, input: &[u8]) -> u32 {
        input
            .iter()
            .zip(self.table.iter())
            .fold(0, |hash, (&byte, row)| hash ^ row[usize::from(byte)])
    }

    /// Hashes an IPv4 2-tuple (source address, destination address).
    pub fn hash_ipv4(&self, src: u32, dst: u32) -> u32 {
        let mut input = [0u8; 8];
        input[0..4].copy_from_slice(&src.to_be_bytes());
        input[4..8].copy_from_slice(&dst.to_be_bytes());
        self.hash(&input)
    }

    /// Hashes an IPv4 4-tuple (addresses + L4 ports).
    pub fn hash_ipv4_l4(&self, src: u32, dst: u32, src_port: u16, dst_port: u16) -> u32 {
        let mut input = [0u8; 12];
        input[0..4].copy_from_slice(&src.to_be_bytes());
        input[4..8].copy_from_slice(&dst.to_be_bytes());
        input[8..10].copy_from_slice(&src_port.to_be_bytes());
        input[10..12].copy_from_slice(&dst_port.to_be_bytes());
        self.hash(&input)
    }

    /// Hashes an IPv6 2-tuple.
    pub fn hash_ipv6(&self, src: u128, dst: u128) -> u32 {
        let mut input = [0u8; 32];
        input[0..16].copy_from_slice(&src.to_be_bytes());
        input[16..32].copy_from_slice(&dst.to_be_bytes());
        self.hash(&input)
    }

    /// Hashes an IPv6 4-tuple.
    pub fn hash_ipv6_l4(&self, src: u128, dst: u128, src_port: u16, dst_port: u16) -> u32 {
        let mut input = [0u8; 36];
        input[0..16].copy_from_slice(&src.to_be_bytes());
        input[16..32].copy_from_slice(&dst.to_be_bytes());
        input[32..34].copy_from_slice(&src_port.to_be_bytes());
        input[34..36].copy_from_slice(&dst_port.to_be_bytes());
        self.hash(&input)
    }
}

/// The 32 key bits starting at bit `at` (bits past the key's end are zero):
/// the window a set input bit at offset `at` XORs into the hash.
fn key_window(key: &[u8; 40], at: usize) -> u32 {
    let byte = |i: usize| u64::from(key.get(i).copied().unwrap_or(0));
    let first = at / 8;
    let word = (0..5).fold(0u64, |w, i| w << 8 | byte(first + i));
    // `word` holds 40 key bits from the byte containing `at`; drop the
    // `at % 8` leading ones and keep the next 32.
    ((word << (at % 8)) >> 8) as u32
}

/// Maps a 32-bit RSS hash onto `queues` RX queues via the low-order bits of
/// an indirection table, the way Intel 82599 NICs do.
pub fn queue_for_hash(hash: u32, queues: u16) -> u16 {
    debug_assert!(queues > 0);
    // A 128-entry indirection table with round-robin queue assignment
    // reduces to a modulo for our purposes.
    (hash & 0x7f) as u16 % queues
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(a: u8, b: u8, c: u8, d: u8) -> u32 {
        u32::from_be_bytes([a, b, c, d])
    }

    // Microsoft RSS verification suite, IPv4.
    // Tuples are (src ip, src port, dst ip, dst port, l4 hash, ip-only hash).
    #[test]
    fn microsoft_ipv4_vectors() {
        let t = Toeplitz::default();
        let cases = [
            (
                ip(66, 9, 149, 187),
                2794,
                ip(161, 142, 100, 80),
                1766,
                0x51ccc178u32,
                0x323e8fc2u32,
            ),
            (
                ip(199, 92, 111, 2),
                14230,
                ip(65, 69, 140, 83),
                4739,
                0xc626b0ea,
                0xd718262a,
            ),
            (
                ip(24, 19, 198, 95),
                12898,
                ip(12, 22, 207, 184),
                38024,
                0x5c2b394a,
                0xd2d0a5de,
            ),
            (
                ip(38, 27, 205, 30),
                48228,
                ip(209, 142, 163, 6),
                2217,
                0xafc7327f,
                0x82989176,
            ),
            (
                ip(153, 39, 163, 191),
                44251,
                ip(202, 188, 127, 2),
                1303,
                0x10e828a2,
                0x5d1809c5,
            ),
        ];
        for (src, sport, dst, dport, l4, ip_only) in cases {
            assert_eq!(t.hash_ipv4_l4(src, dst, sport, dport), l4);
            assert_eq!(t.hash_ipv4(src, dst), ip_only);
        }
    }

    // Microsoft RSS verification suite, IPv6 (first entry).
    #[test]
    fn microsoft_ipv6_vector() {
        let t = Toeplitz::default();
        let src = 0x3ffe_2501_0200_1fff_0000_0000_0000_0007u128;
        let dst = 0x3ffe_2501_0200_0003_0000_0000_0000_0001u128;
        assert_eq!(t.hash_ipv6_l4(src, dst, 2794, 1766), 0x40207d3d);
        assert_eq!(t.hash_ipv6(src, dst), 0x2cc18cd5);
    }

    #[test]
    fn queue_mapping_covers_all_queues() {
        let t = Toeplitz::default();
        let queues = 7u16;
        let mut seen = vec![false; queues as usize];
        for i in 0..1000u32 {
            let h = t.hash_ipv4(0x0a000000 + i, 0xc0a80001);
            seen[queue_for_hash(h, queues) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "some queue never selected");
    }

    #[test]
    fn hash_is_deterministic_and_key_sensitive() {
        let t = Toeplitz::default();
        assert_eq!(t.hash(b"abcdef"), t.hash(b"abcdef"));
        let mut key = DEFAULT_RSS_KEY;
        key[0] ^= 0xff;
        let t2 = Toeplitz::with_key(key);
        assert_ne!(t.hash(b"abcdef"), t2.hash(b"abcdef"));
    }

    #[test]
    fn empty_input_hashes_to_zero() {
        assert_eq!(Toeplitz::default().hash(&[]), 0);
    }

    #[test]
    fn every_byte_at_every_position_matches_the_bit_serial_hash() {
        // Past the key's reach too: bytes from position 40 on add nothing.
        for key in [DEFAULT_RSS_KEY, SYMMETRIC_RSS_KEY] {
            let t = Toeplitz::with_key(key);
            let mut input = [0u8; KEY_REACH + 8];
            for pos in 0..input.len() {
                for byte in 0..=255 {
                    input[pos] = byte;
                    assert_eq!(
                        t.hash(&input[..=pos]),
                        bit_serial::hash(&key, &input[..=pos]),
                        "byte {byte:#04x} at {pos}"
                    );
                }
                input[pos] = 0;
            }
        }
    }
}
