//! Property tests of the cryptographic primitives.

use proptest::prelude::*;

use nba_crypto::{Aes128, Aes128Ctr, HmacSha1, Sha1};

/// CTR as SP 800-38A writes it: one counter block at a time through the
/// public block cipher. What the interleaved keystream must equal.
fn ctr_block_at_a_time(key: &[u8; 16], iv: &[u8; 16], data: &mut [u8]) {
    let cipher = Aes128::new(key);
    let mut counter = u128::from_be_bytes(*iv);
    for chunk in data.chunks_mut(16) {
        let mut keystream = counter.to_be_bytes();
        cipher.encrypt_block(&mut keystream);
        for (d, k) in chunk.iter_mut().zip(keystream) {
            *d ^= k;
        }
        counter = counter.wrapping_add(1);
    }
}

/// Every length from empty to 2 KiB: each count of whole four-block groups
/// followed by each possible tail (0-3 blocks, the last one partial or not).
#[test]
fn ctr_matches_block_at_a_time_at_every_length() {
    let key = [0x42u8; 16];
    // The low half of the counter carries into the high half two blocks in.
    let iv = (0x0001_0203_0405_0607_u128 << 64 | u128::from(u64::MAX - 1)).to_be_bytes();
    let ctr = Aes128Ctr::new(&key);
    let plain: Vec<u8> = (0..2048u32).map(|i| ((i * 31) >> 3) as u8).collect();
    for len in 0..=plain.len() {
        let mut fast = plain[..len].to_vec();
        ctr.apply_keystream(&iv, &mut fast);
        let mut slow = plain[..len].to_vec();
        ctr_block_at_a_time(&key, &iv, &mut slow);
        assert_eq!(fast, slow, "len = {len}");
    }
}

proptest! {
    /// The 128-bit counter wraps to zero wherever it falls: inside a
    /// four-block group, between groups, or in the tail.
    #[test]
    fn ctr_wraps_like_block_at_a_time(
        key in any::<[u8; 16]>(),
        below_max in 0u8..8,
        mut data in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let iv = (u128::MAX - u128::from(below_max)).to_be_bytes();
        let mut slow = data.clone();
        Aes128Ctr::new(&key).apply_keystream(&iv, &mut data);
        ctr_block_at_a_time(&key, &iv, &mut slow);
        prop_assert_eq!(data, slow);
    }

    /// CTR is an involution: applying the keystream twice restores the
    /// plaintext, for any key/IV/length (including partial blocks).
    #[test]
    fn ctr_round_trip(
        key in any::<[u8; 16]>(),
        iv in any::<[u8; 16]>(),
        mut data in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let original = data.clone();
        let ctr = Aes128Ctr::new(&key);
        ctr.apply_keystream(&iv, &mut data);
        if !original.is_empty() {
            // Keystream is effectively never the identity.
            prop_assert_ne!(&data, &original);
        }
        ctr.apply_keystream(&iv, &mut data);
        prop_assert_eq!(data, original);
    }

    /// Different IVs produce different ciphertexts (no keystream reuse).
    #[test]
    fn ctr_iv_separation(
        key in any::<[u8; 16]>(),
        iv1 in any::<[u8; 16]>(),
        iv2 in any::<[u8; 16]>(),
        data in proptest::collection::vec(any::<u8>(), 16..64),
    ) {
        prop_assume!(iv1 != iv2);
        let ctr = Aes128Ctr::new(&key);
        let mut a = data.clone();
        let mut b = data;
        ctr.apply_keystream(&iv1, &mut a);
        ctr.apply_keystream(&iv2, &mut b);
        prop_assert_ne!(a, b);
    }

    /// Streaming SHA-1 equals one-shot for any split.
    #[test]
    fn sha1_streaming_equals_oneshot(
        data in proptest::collection::vec(any::<u8>(), 0..400),
        splits in proptest::collection::vec(any::<usize>(), 0..5),
    ) {
        let whole = Sha1::digest(&data);
        let mut s = Sha1::new();
        let mut cuts: Vec<usize> = splits.iter().map(|&x| x % (data.len() + 1)).collect();
        cuts.sort_unstable();
        let mut prev = 0;
        for c in cuts {
            s.update(&data[prev..c]);
            prev = c;
        }
        s.update(&data[prev..]);
        prop_assert_eq!(s.finalize(), whole);
    }

    /// HMAC verification accepts the genuine tag and rejects any single-bit
    /// corruption of tag or message.
    #[test]
    fn hmac_detects_corruption(
        key in proptest::collection::vec(any::<u8>(), 1..80),
        mut msg in proptest::collection::vec(any::<u8>(), 1..200),
        flip_byte in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        let mac = HmacSha1::new(&key);
        let tag = mac.mac_truncated_96(&msg);
        prop_assert!(mac.verify_truncated_96(&msg, &tag));

        // Corrupt the message.
        let idx = flip_byte % msg.len();
        msg[idx] ^= 1 << flip_bit;
        prop_assert!(!mac.verify_truncated_96(&msg, &tag));
    }

    /// Distinct keys produce distinct MACs.
    #[test]
    fn hmac_key_separation(
        k1 in proptest::collection::vec(any::<u8>(), 1..40),
        k2 in proptest::collection::vec(any::<u8>(), 1..40),
        msg in proptest::collection::vec(any::<u8>(), 0..100),
    ) {
        prop_assume!(k1 != k2);
        prop_assert_ne!(
            HmacSha1::new(&k1).mac(&msg),
            HmacSha1::new(&k2).mac(&msg)
        );
    }
}
