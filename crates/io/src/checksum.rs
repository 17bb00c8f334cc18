//! The Internet checksum (RFC 1071) and incremental update (RFC 1624).
//!
//! Router elements that rewrite header fields (e.g. `DecIPTTL`) use the
//! incremental form so the cost stays constant instead of rescanning the
//! header — the same trick real fast-path code uses.

/// Sums `data` as 16-bit words with end-around carry, without folding.
///
/// The words are read in little-endian order, four bytes at a time: the
/// one's-complement sum is byte-order independent (RFC 1071 §2(B)), so the
/// folded sum is the big-endian one with its bytes swapped, and a 32-bit
/// word folds to the sum of its two halves because 2¹⁶ ≡ 1 (mod 2¹⁶ − 1).
fn sum_words(data: &[u8], mut acc: u64) -> u64 {
    let mut quads = data.chunks_exact(4);
    for q in &mut quads {
        acc += u64::from(u32::from_le_bytes([q[0], q[1], q[2], q[3]]));
    }
    let mut rest = quads.remainder();
    if let [a, b, tail @ ..] = rest {
        acc += u64::from(u16::from_le_bytes([*a, *b]));
        rest = tail;
    }
    if let [last] = rest {
        acc += u64::from(*last);
    }
    acc
}

/// Folds an accumulator into a 16-bit one's-complement sum.
fn fold(mut acc: u64) -> u16 {
    while acc >> 16 != 0 {
        acc = (acc & 0xffff) + (acc >> 16);
    }
    acc as u16
}

/// Computes the Internet checksum of `data` (RFC 1071).
///
/// The returned value is ready to be stored in a header checksum field; the
/// checksum field itself must be zero (or excluded) in `data`.
pub fn internet_checksum(data: &[u8]) -> u16 {
    !fold(sum_words(data, 0)).swap_bytes()
}

/// Computes the Internet checksum over several byte ranges (e.g. an L4
/// pseudo-header followed by the segment).
pub fn internet_checksum_parts(parts: &[&[u8]]) -> u16 {
    // Byte parity matters: an odd-length part shifts the byte alignment of
    // subsequent parts, so sum word-by-word over a virtual concatenation.
    let mut acc = 0u64;
    let mut carry_byte: Option<u8> = None;
    for part in parts {
        let mut rest: &[u8] = part;
        if let Some(hi) = carry_byte.take() {
            match rest.split_first() {
                Some((&lo, tail)) => {
                    acc += u64::from(u16::from_le_bytes([hi, lo]));
                    rest = tail;
                }
                None => {
                    carry_byte = Some(hi);
                    continue;
                }
            }
        }
        let even = rest.len() & !1;
        acc = sum_words(&rest[..even], acc);
        if rest.len() > even {
            carry_byte = Some(rest[even]);
        }
    }
    if let Some(hi) = carry_byte {
        acc += u64::from(hi);
    }
    !fold(acc).swap_bytes()
}

/// Verifies a checksummed region: returns `true` if the stored checksum
/// (included in `data`) is consistent.
#[inline]
pub fn verify(data: &[u8]) -> bool {
    fold(sum_words(data, 0)) == 0xffff
}

/// Incrementally updates checksum `old_check` after a 16-bit field changed
/// from `old` to `new` (RFC 1624, eqn. 3: `HC' = ~(~HC + ~m + m')`).
pub fn incremental_update(old_check: u16, old: u16, new: u16) -> u16 {
    // Three words sum to at most 0x2fffd, which two end-around carries
    // always fold: `fold` without its loop, so no branch to mispredict.
    let acc = u32::from(!old_check) + u32::from(!old) + u32::from(new);
    let acc = (acc & 0xffff) + (acc >> 16);
    !((acc & 0xffff) + (acc >> 16)) as u16
}

#[cfg(test)]
mod tests {
    use super::*;

    // The classic example from RFC 1071 §3.
    const RFC1071_DATA: [u8; 8] = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];

    #[test]
    fn rfc1071_example() {
        // The RFC computes the non-inverted sum 0xddf2.
        assert_eq!(internet_checksum(&RFC1071_DATA), !0xddf2);
    }

    #[test]
    fn verify_accepts_valid_and_rejects_corrupt() {
        // A real IPv4 header (from a capture), checksum field 0xb861.
        let hdr: [u8; 20] = [
            0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11, 0xb8, 0x61, 0xc0, 0xa8,
            0x00, 0x01, 0xc0, 0xa8, 0x00, 0xc7,
        ];
        assert!(verify(&hdr));
        let mut zeroed = hdr;
        zeroed[10] = 0;
        zeroed[11] = 0;
        assert_eq!(internet_checksum(&zeroed), 0xb861);
        let mut bad = hdr;
        bad[3] ^= 1;
        assert!(!verify(&bad));
    }

    #[test]
    fn odd_length_pads_with_zero() {
        let even = internet_checksum(&[0xab, 0xcd, 0xef, 0x00]);
        let odd = internet_checksum(&[0xab, 0xcd, 0xef]);
        assert_eq!(even, odd);
    }

    #[test]
    fn parts_match_concatenation() {
        let whole = [1u8, 2, 3, 4, 5, 6, 7];
        let concat = internet_checksum(&whole);
        assert_eq!(internet_checksum_parts(&[&whole[..3], &whole[3..]]), concat);
        assert_eq!(
            internet_checksum_parts(&[&whole[..1], &whole[1..2], &whole[2..]]),
            concat
        );
        assert_eq!(internet_checksum_parts(&[&whole, &[]]), concat);
    }

    #[test]
    fn incremental_matches_full_recompute() {
        let mut hdr: [u8; 20] = [
            0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11, 0x00, 0x00, 0xc0, 0xa8,
            0x00, 0x01, 0xc0, 0xa8, 0x00, 0xc7,
        ];
        let old_check = internet_checksum(&hdr);
        hdr[10..12].copy_from_slice(&old_check.to_be_bytes());

        // Decrement the TTL (byte 8); the 16-bit word is ttl<<8 | proto.
        let old_word = u16::from_be_bytes([hdr[8], hdr[9]]);
        hdr[8] -= 1;
        let new_word = u16::from_be_bytes([hdr[8], hdr[9]]);
        let updated = incremental_update(old_check, old_word, new_word);

        hdr[10] = 0;
        hdr[11] = 0;
        assert_eq!(updated, internet_checksum(&hdr));
    }

    /// RFC 1071 as written: big-endian 16-bit words, an odd last byte
    /// padded with zero, end-around carry.
    fn rfc1071(data: &[u8]) -> u16 {
        let mut acc = 0u32;
        for w in data.chunks(2) {
            acc += u32::from(u16::from_be_bytes([w[0], *w.get(1).unwrap_or(&0)]));
        }
        while acc >> 16 != 0 {
            acc = (acc & 0xffff) + (acc >> 16);
        }
        !(acc as u16)
    }

    #[test]
    fn word_sums_equal_rfc1071_as_written() {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut verified = 0;
        for len in 0..=80usize {
            for trial in 0..50 {
                // Every third buffer is all 0xfe/0xff, so the sums carry.
                let high = if trial % 3 == 0 { 0xfe } else { 0 };
                let mut d: Vec<u8> = (0..len).map(|_| next() as u8 | high).collect();
                if len >= 12 && len % 2 == 0 && trial % 2 == 0 {
                    // A region carrying its own checksum, as a header does.
                    d[10..12].fill(0);
                    let c = internet_checksum(&d);
                    d[10..12].copy_from_slice(&c.to_be_bytes());
                }
                let want = rfc1071(&d);
                assert_eq!(internet_checksum(&d), want, "{d:02x?}");
                let k = next() as usize % (len + 1);
                let j = next() as usize % (len + 1 - k);
                let parts = [&d[..k], &d[k..k + j], &d[k + j..]];
                assert_eq!(internet_checksum_parts(&parts), want, "{k} {j} {d:02x?}");
                assert_eq!(verify(&d), want == 0, "{d:02x?}");
                verified += usize::from(verify(&d));
            }
        }
        assert!(verified >= 800, "{verified} regions verified");
    }

    #[test]
    fn incremental_two_carries_equal_the_folding_loop() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut words = vec![0u16, 1, 0x7fff, 0x8000, 0xfffe, 0xffff];
        words.extend((0..26).map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u16
        }));
        for &c in &words {
            for &old in &words {
                for &new in &words {
                    let acc = u64::from(!c) + u64::from(!old) + u64::from(new);
                    assert_eq!(incremental_update(c, old, new), !fold(acc));
                }
            }
        }
    }

    #[test]
    fn incremental_is_inverse_of_itself() {
        let c = 0x1234u16;
        let step = incremental_update(c, 0xaaaa, 0xbbbb);
        assert_eq!(incremental_update(step, 0xbbbb, 0xaaaa), c);
    }
}
