//! AES-128 (FIPS-197) block encryption and CTR mode.
//!
//! The IPsec gateway needs AES-128-CTR; CTR only uses the forward cipher, so
//! only encryption is implemented. The paper's CPU path uses AES-NI through
//! OpenSSL — here the *functional* behaviour is this portable table-driven
//! implementation and the *cost* of AES-NI is a calibrated constant in the
//! cost model. Lookups indexed by key-dependent bytes are not constant-time.

/// The AES S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Round constants for key expansion.
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Number of AES-128 rounds.
const ROUNDS: usize = 10;
/// AES block size in bytes.
pub const BLOCK_LEN: usize = 16;
/// AES-128 key length in bytes.
pub const KEY_LEN: usize = 16;

/// Multiplies by x in GF(2^8) modulo the AES polynomial.
const fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

/// `TE[0][x]` is the MixColumns image of the column `(S[x], 0, 0, 0)` as a
/// big-endian word, i.e. `(2·S[x], S[x], S[x], 3·S[x])`; `TE[r]` is the same
/// for row `r` (`TE[0]` rotated right by `r` bytes). One table lookup per
/// state byte does SubBytes + MixColumns, the lookup's position does
/// ShiftRows.
const TE: [[u32; 256]; 4] = {
    let mut te = [[0u32; 256]; 4];
    let mut x = 0;
    while x < 256 {
        let s = SBOX[x];
        let s2 = xtime(s);
        let w = u32::from_be_bytes([s2, s, s, s2 ^ s]);
        let mut r = 0;
        while r < 4 {
            te[r][x] = w.rotate_right(8 * r as u32);
            r += 1;
        }
        x += 1;
    }
    te
};

/// The byte of `w` that starts at bit `shift`, as a table index.
#[inline(always)]
fn byte(w: u32, shift: u32) -> usize {
    ((w >> shift) & 0xff) as usize
}

/// SubBytes on each byte of `w`.
#[inline(always)]
fn sub_word(w: u32) -> u32 {
    u32::from_be_bytes(w.to_be_bytes().map(|b| SBOX[usize::from(b)]))
}

/// A block as its four big-endian column words.
#[inline(always)]
fn columns(block: u128) -> [u32; 4] {
    [
        (block >> 96) as u32,
        (block >> 64) as u32,
        (block >> 32) as u32,
        block as u32,
    ]
}

/// Inverse of [`columns`].
#[inline(always)]
fn block_of(s: [u32; 4]) -> u128 {
    u128::from(s[0]) << 96 | u128::from(s[1]) << 64 | u128::from(s[2]) << 32 | u128::from(s[3])
}

/// An expanded AES-128 key ready for encryption.
#[derive(Clone)]
pub struct Aes128 {
    /// Round key `r` is words `4r..4r + 4`, one big-endian word per column.
    round_keys: [u32; 4 * (ROUNDS + 1)],
}

impl Aes128 {
    /// Expands a 128-bit key (FIPS-197 §5.2).
    pub fn new(key: &[u8; KEY_LEN]) -> Aes128 {
        let mut w = [0u32; 4 * (ROUNDS + 1)];
        w[..4].copy_from_slice(&columns(u128::from_be_bytes(*key)));
        for i in 4..w.len() {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp = sub_word(temp.rotate_left(8)) ^ u32::from(RCON[i / 4 - 1]) << 24;
            }
            w[i] = w[i - 4] ^ temp;
        }
        Aes128 { round_keys: w }
    }

    /// Encrypts one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; BLOCK_LEN]) {
        let [s] = self.encrypt_columns([columns(u128::from_be_bytes(*block))]);
        *block = block_of(s).to_be_bytes();
    }

    /// Encrypts `N` independent blocks, each given as its column words. The
    /// blocks advance one round at a time together, so the `N` dependency
    /// chains overlap in the pipeline instead of running back to back.
    #[inline(always)]
    fn encrypt_columns<const N: usize>(&self, mut blocks: [[u32; 4]; N]) -> [[u32; 4]; N] {
        let rk = &self.round_keys;
        for s in &mut blocks {
            *s = [s[0] ^ rk[0], s[1] ^ rk[1], s[2] ^ rk[2], s[3] ^ rk[3]];
        }
        for round in 1..ROUNDS {
            let k = &rk[4 * round..4 * round + 4];
            for s in &mut blocks {
                // Output column c takes row r from input column c + r.
                let col = |c: usize| {
                    TE[0][byte(s[c], 24)]
                        ^ TE[1][byte(s[(c + 1) % 4], 16)]
                        ^ TE[2][byte(s[(c + 2) % 4], 8)]
                        ^ TE[3][byte(s[(c + 3) % 4], 0)]
                        ^ k[c]
                };
                *s = [col(0), col(1), col(2), col(3)];
            }
        }
        // The last round has no MixColumns: plain S-box bytes.
        let k = &rk[4 * ROUNDS..];
        for s in &mut blocks {
            let col = |c: usize| {
                u32::from_be_bytes([
                    SBOX[byte(s[c], 24)],
                    SBOX[byte(s[(c + 1) % 4], 16)],
                    SBOX[byte(s[(c + 2) % 4], 8)],
                    SBOX[byte(s[(c + 3) % 4], 0)],
                ]) ^ k[c]
            };
            *s = [col(0), col(1), col(2), col(3)];
        }
        blocks
    }
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.write_str("Aes128 { .. }")
    }
}

/// Counter blocks encrypted together by [`Aes128Ctr::apply_keystream`].
const LANES: usize = 4;

/// AES-128 in counter mode.
///
/// The counter block layout follows NIST SP 800-38A: the full 16-byte
/// initial counter block increments as a big-endian 128-bit integer.
#[derive(Debug, Clone)]
pub struct Aes128Ctr {
    cipher: Aes128,
}

impl Aes128Ctr {
    /// Creates a CTR-mode instance for `key`.
    pub fn new(key: &[u8; KEY_LEN]) -> Aes128Ctr {
        Aes128Ctr {
            cipher: Aes128::new(key),
        }
    }

    /// Encrypts or decrypts `data` in place (CTR is its own inverse) using
    /// the given initial counter block.
    pub fn apply_keystream(&self, iv: &[u8; BLOCK_LEN], data: &mut [u8]) {
        let mut counter = u128::from_be_bytes(*iv);
        let mut groups = data.chunks_exact_mut(LANES * BLOCK_LEN);
        for group in &mut groups {
            let keystream = self
                .cipher
                .encrypt_columns::<LANES>(std::array::from_fn(|lane| {
                    columns(counter.wrapping_add(lane as u128))
                }));
            for (chunk, ks) in group.chunks_exact_mut(BLOCK_LEN).zip(keystream) {
                let chunk: &mut [u8; BLOCK_LEN] = chunk.try_into().expect("exact chunk");
                *chunk = (u128::from_be_bytes(*chunk) ^ block_of(ks)).to_be_bytes();
            }
            counter = counter.wrapping_add(LANES as u128);
        }
        // Fewer than LANES blocks left, the last one possibly partial.
        for chunk in groups.into_remainder().chunks_mut(BLOCK_LEN) {
            let [ks] = self.cipher.encrypt_columns([columns(counter)]);
            for (d, k) in chunk.iter_mut().zip(block_of(ks).to_be_bytes()) {
                *d ^= k;
            }
            counter = counter.wrapping_add(1);
        }
    }
}

/// The byte-wise FIPS-197 round functions the table-driven cipher replaced,
/// kept as the independent reference the tests compare it against.
#[cfg(test)]
mod reference {
    use super::{xtime, BLOCK_LEN, KEY_LEN, RCON, ROUNDS, SBOX};

    pub fn encrypt_block(key: &[u8; KEY_LEN], block: &mut [u8; BLOCK_LEN]) {
        let round_keys = expand(key);
        let mut state = *block;
        add_round_key(&mut state, &round_keys[0]);
        for rk in &round_keys[1..ROUNDS] {
            sub_bytes(&mut state);
            shift_rows(&mut state);
            mix_columns(&mut state);
            add_round_key(&mut state, rk);
        }
        sub_bytes(&mut state);
        shift_rows(&mut state);
        add_round_key(&mut state, &round_keys[ROUNDS]);
        *block = state;
    }

    fn expand(key: &[u8; KEY_LEN]) -> [[u8; 16]; ROUNDS + 1] {
        let mut w = [[0u8; 4]; 4 * (ROUNDS + 1)];
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            w[i].copy_from_slice(chunk);
        }
        for i in 4..w.len() {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp.rotate_left(1);
                for b in &mut temp {
                    *b = SBOX[usize::from(*b)];
                }
                temp[0] ^= RCON[i / 4 - 1];
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; ROUNDS + 1];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            for c in 0..4 {
                rk[c * 4..c * 4 + 4].copy_from_slice(&w[r * 4 + c]);
            }
        }
        round_keys
    }

    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for (s, k) in state.iter_mut().zip(rk) {
            *s ^= k;
        }
    }

    fn sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = SBOX[usize::from(*b)];
        }
    }

    fn shift_rows(state: &mut [u8; 16]) {
        // State is column-major: byte (row r, column c) lives at c*4 + r.
        let s = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[c * 4 + r] = s[((c + r) % 4) * 4 + r];
            }
        }
    }

    fn mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [
                state[c * 4],
                state[c * 4 + 1],
                state[c * 4 + 2],
                state[c * 4 + 3],
            ];
            let t = col[0] ^ col[1] ^ col[2] ^ col[3];
            for r in 0..4 {
                state[c * 4 + r] = col[r] ^ t ^ xtime(col[r] ^ col[(r + 1) % 4]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn fips197_appendix_b() {
        let key: [u8; 16] = hex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap();
        let mut block: [u8; 16] = hex("3243f6a8885a308d313198a2e0370734").try_into().unwrap();
        Aes128::new(&key).encrypt_block(&mut block);
        assert_eq!(block.to_vec(), hex("3925841d02dc09fbdc118597196a0b32"));
    }

    #[test]
    fn fips197_appendix_c1() {
        let key: [u8; 16] = hex("000102030405060708090a0b0c0d0e0f").try_into().unwrap();
        let mut block: [u8; 16] = hex("00112233445566778899aabbccddeeff").try_into().unwrap();
        Aes128::new(&key).encrypt_block(&mut block);
        assert_eq!(block.to_vec(), hex("69c4e0d86a7b0430d8cdb78070b4c55a"));
    }

    // NIST SP 800-38A, F.5.1 CTR-AES128.Encrypt.
    #[test]
    fn sp800_38a_ctr() {
        let key: [u8; 16] = hex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap();
        let iv: [u8; 16] = hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff").try_into().unwrap();
        let mut data = hex(concat!(
            "6bc1bee22e409f96e93d7e117393172a",
            "ae2d8a571e03ac9c9eb76fac45af8e51",
            "30c81c46a35ce411e5fbc1191a0a52ef",
            "f69f2445df4f9b17ad2b417be66c3710",
        ));
        Aes128Ctr::new(&key).apply_keystream(&iv, &mut data);
        assert_eq!(
            data,
            hex(concat!(
                "874d6191b620e3261bef6864990db6ce",
                "9806f66b7970fdff8617187bb9fffdff",
                "5ae4df3edbd5d35e5b4f09020db03eab",
                "1e031dda2fbe03d1792170a0f3009cee",
            ))
        );
    }

    #[test]
    fn ctr_round_trips_partial_blocks() {
        let key = [7u8; 16];
        let iv = [9u8; 16];
        let ctr = Aes128Ctr::new(&key);
        let original: Vec<u8> = (0..100u8).collect();
        let mut data = original.clone();
        ctr.apply_keystream(&iv, &mut data);
        assert_ne!(data, original);
        ctr.apply_keystream(&iv, &mut data);
        assert_eq!(data, original);
    }

    #[test]
    fn ctr_counter_wraps() {
        let key = [1u8; 16];
        let iv = [0xffu8; 16];
        let mut data = [0u8; 48];
        // Must not panic at the u128 wrap boundary.
        Aes128Ctr::new(&key).apply_keystream(&iv, &mut data);
        let mut again = [0u8; 48];
        Aes128Ctr::new(&key).apply_keystream(&iv, &mut again);
        assert_eq!(data, again);
    }

    proptest! {
        #[test]
        fn encrypt_block_matches_the_bytewise_reference(
            key in any::<[u8; 16]>(),
            block in any::<[u8; 16]>(),
        ) {
            let mut fast = block;
            Aes128::new(&key).encrypt_block(&mut fast);
            let mut slow = block;
            reference::encrypt_block(&key, &mut slow);
            prop_assert_eq!(fast, slow);
        }
    }

    #[test]
    fn debug_hides_key_material() {
        let a = Aes128::new(&[3u8; 16]);
        assert_eq!(format!("{a:?}"), "Aes128 { .. }");
    }
}
