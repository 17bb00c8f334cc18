//! SHA-1 (FIPS 180-4).
//!
//! Used by the IPsec gateway's HMAC-SHA1 authentication. SHA-1 is broken for
//! collision resistance but remains what RFC 2404 specifies for ESP
//! authentication and what the paper's gateway computes.

/// SHA-1 digest length in bytes.
pub const DIGEST_LEN: usize = 20;
/// SHA-1 block length in bytes.
pub const BLOCK_LEN: usize = 64;

/// The chaining value after a whole number of blocks: everything a hasher
/// needs to pick up from there. HMAC keeps one per pass so a MAC starts from
/// the already-compressed key block.
#[derive(Clone, Copy)]
pub(crate) struct Midstate {
    h: [u32; 5],
    /// Bytes absorbed so far (a multiple of [`BLOCK_LEN`]).
    total: u64,
}

/// Streaming SHA-1 state.
#[derive(Debug, Clone)]
pub struct Sha1 {
    h: [u32; 5],
    /// Bytes buffered until a full block is available.
    buffer: [u8; BLOCK_LEN],
    buffered: usize,
    /// Total message length in bytes.
    total: u64,
}

impl Default for Sha1 {
    fn default() -> Self {
        Sha1::new()
    }
}

impl Sha1 {
    /// Creates a fresh hasher.
    pub fn new() -> Sha1 {
        Sha1::resume(Midstate {
            h: [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476, 0xc3d2e1f0],
            total: 0,
        })
    }

    /// A hasher that continues from `mid`.
    pub(crate) fn resume(mid: Midstate) -> Sha1 {
        Sha1 {
            h: mid.h,
            buffer: [0u8; BLOCK_LEN],
            buffered: 0,
            total: mid.total,
        }
    }

    /// The state to [`resume`](Sha1::resume) from.
    ///
    /// # Panics
    ///
    /// Panics if the bytes absorbed so far do not end on a block boundary.
    pub(crate) fn midstate(&self) -> Midstate {
        assert_eq!(self.buffered, 0, "midstate inside a block");
        Midstate {
            h: self.h,
            total: self.total,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.total = self.total.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buffered > 0 {
            let take = rest.len().min(BLOCK_LEN - self.buffered);
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&rest[..take]);
            self.buffered += take;
            rest = &rest[take..];
            if self.buffered < BLOCK_LEN {
                // Partial fill: nothing more to consume.
                return;
            }
            compress(&mut self.h, &self.buffer);
            self.buffered = 0;
        }
        // Full blocks go straight from the caller's slice.
        let mut chunks = rest.chunks_exact(BLOCK_LEN);
        for block in &mut chunks {
            compress(&mut self.h, block.try_into().expect("exact chunk"));
        }
        let tail = chunks.remainder();
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffered = tail.len();
    }

    /// Finishes and returns the digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        // Padding: 0x80, zeros up to the last 8 bytes of a block, then the
        // message length in bits. `buffered < BLOCK_LEN` always, so the 0x80
        // fits; the length needs a second block when fewer than 8 bytes
        // remain after it.
        const LEN_AT: usize = BLOCK_LEN - 8;
        self.buffer[self.buffered] = 0x80;
        self.buffer[self.buffered + 1..].fill(0);
        if self.buffered >= LEN_AT {
            compress(&mut self.h, &self.buffer);
            self.buffer = [0u8; BLOCK_LEN];
        }
        self.buffer[LEN_AT..].copy_from_slice(&self.total.wrapping_mul(8).to_be_bytes());
        compress(&mut self.h, &self.buffer);
        let mut out = [0u8; DIGEST_LEN];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.h) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// One-shot convenience digest.
    pub fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut s = Sha1::new();
        s.update(data);
        s.finalize()
    }
}

/// Message-schedule word `t` (FIPS 180-4 §6.1.3, the 16-word circular form):
/// `w` holds words `t - 16..t`, word `t` overwrites word `t - 16`.
#[inline(always)]
fn schedule(w: &mut [u32; 16], t: usize) -> u32 {
    if t >= 16 {
        w[t % 16] =
            (w[(t + 13) % 16] ^ w[(t + 8) % 16] ^ w[(t + 2) % 16] ^ w[t % 16]).rotate_left(1);
    }
    w[t % 16]
}

/// Five rounds `$t..$t + 5` with round function `$f` and constant `$k`. The
/// five working variables change roles from round to round instead of being
/// shuffled, so after five rounds every name is back where it started.
macro_rules! rounds5 {
    ($f:ident, $k:expr, $w:ident, $t:expr, $a:ident $b:ident $c:ident $d:ident $e:ident) => {
        rounds5!(@one $f, $k, $w, $t, $a $b $c $d $e);
        rounds5!(@one $f, $k, $w, $t + 1, $e $a $b $c $d);
        rounds5!(@one $f, $k, $w, $t + 2, $d $e $a $b $c);
        rounds5!(@one $f, $k, $w, $t + 3, $c $d $e $a $b);
        rounds5!(@one $f, $k, $w, $t + 4, $b $c $d $e $a);
    };
    (@one $f:ident, $k:expr, $w:ident, $t:expr, $a:ident $b:ident $c:ident $d:ident $e:ident) => {
        $e = $e
            .wrapping_add($a.rotate_left(5))
            .wrapping_add($f($b, $c, $d))
            .wrapping_add($k)
            .wrapping_add(schedule(&mut $w, $t));
        $b = $b.rotate_left(30);
    };
}

/// Twenty rounds `$t..$t + 20`: one of the four groups that share a round
/// function and constant.
macro_rules! rounds20 {
    ($f:ident, $k:expr, $w:ident, $t:expr, $($v:ident)+) => {
        rounds5!($f, $k, $w, $t, $($v)+);
        rounds5!($f, $k, $w, $t + 5, $($v)+);
        rounds5!($f, $k, $w, $t + 10, $($v)+);
        rounds5!($f, $k, $w, $t + 15, $($v)+);
    };
}

#[inline(always)]
fn ch(b: u32, c: u32, d: u32) -> u32 {
    d ^ (b & (c ^ d))
}

#[inline(always)]
fn parity(b: u32, c: u32, d: u32) -> u32 {
    b ^ c ^ d
}

#[inline(always)]
fn maj(b: u32, c: u32, d: u32) -> u32 {
    (b & c) | (d & (b | c))
}

/// The SHA-1 compression function over one block.
fn compress(h: &mut [u32; 5], block: &[u8; BLOCK_LEN]) {
    let mut w = [0u32; 16];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes(bytes.try_into().expect("exact chunk"));
    }
    let [mut a, mut b, mut c, mut d, mut e] = *h;
    rounds20!(ch, 0x5a827999u32, w, 0, a b c d e);
    rounds20!(parity, 0x6ed9eba1u32, w, 20, a b c d e);
    rounds20!(maj, 0x8f1bbcdcu32, w, 40, a b c d e);
    rounds20!(parity, 0xca62c1d6u32, w, 60, a b c d e);
    for (h, v) in h.iter_mut().zip([a, b, c, d, e]) {
        *h = h.wrapping_add(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn fips_180_vectors() {
        assert_eq!(
            hex(&Sha1::digest(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
        assert_eq!(
            hex(&Sha1::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
        assert_eq!(
            hex(&Sha1::digest(b"")),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709"
        );
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "a megabyte of SHA-1 takes minutes under the interpreter"
    )]
    fn million_a() {
        let mut s = Sha1::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            s.update(&chunk);
        }
        assert_eq!(
            hex(&s.finalize()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn streaming_matches_one_shot_at_all_split_points() {
        let data: Vec<u8> = (0..=255u8).cycle().take(300).collect();
        let whole = Sha1::digest(&data);
        for split in [0, 1, 55, 56, 63, 64, 65, 128, 299, 300] {
            let mut s = Sha1::new();
            s.update(&data[..split]);
            s.update(&data[split..]);
            assert_eq!(s.finalize(), whole, "split at {split}");
        }
    }

    #[test]
    fn one_shot_matches_byte_at_a_time_at_the_padding_boundaries() {
        // One-shot takes whole blocks from the slice and pads the tail in
        // place; a byte at a time goes through the buffer only. The lengths
        // sit on either side of where the padding spills into a second
        // block, one and two blocks in.
        let data: Vec<u8> = (0..=255u8).cycle().take(121).collect();
        for len in [0, 1, 55, 56, 57, 63, 64, 65, 119, 120, 121] {
            let mut s = Sha1::new();
            for byte in &data[..len] {
                s.update(std::slice::from_ref(byte));
            }
            assert_eq!(s.finalize(), Sha1::digest(&data[..len]), "len = {len}");
        }
    }

    #[test]
    fn padding_boundary_digests_are_the_known_ones() {
        // 55 bytes: the longest one-block message; 56: the shortest that
        // needs a second block; 64: a full block plus a padding-only block.
        for (len, want) in [
            (55, "c1c8bbdc22796e28c0e15163d20899b65621d65a"),
            (56, "c2db330f6083854c99d4b5bfb6e8f29f201be699"),
            (64, "0098ba824b5c16427bd7a1122a5a442a25ec644d"),
        ] {
            assert_eq!(hex(&Sha1::digest(&vec![b'a'; len])), want, "len = {len}");
        }
    }
}
