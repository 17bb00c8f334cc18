//! In-workspace stand-in for the `rand` crate.
//!
//! The build environment has no registry access, so the workspace ships a
//! minimal API-compatible subset: [`rngs::SmallRng`] (an xoshiro256++
//! generator), [`SeedableRng::seed_from_u64`], and the [`Rng`] methods the
//! codebase uses (`gen`, `gen_range`, `fill`, `gen_bool`).
//!
//! The bit streams differ from the real crate; everything in this workspace
//! seeds explicitly and only relies on self-consistent determinism, never on
//! a specific upstream stream.

#![forbid(unsafe_code)]

/// Sources of uniformly random 64-bit words.
pub trait RngCore {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let w = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&w[..chunk.len()]);
        }
    }
}

/// Deterministic construction from seeds.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types producible uniformly at random (the `Standard` distribution).
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_uint {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_uint!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for u128 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> u128 {
        (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())
    }
}

impl Standard for i128 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> i128 {
        u128::sample_standard(rng) as i128
    }
}

impl Standard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl<T: Standard, const N: usize> Standard for [T; N] {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> [T; N] {
        std::array::from_fn(|_| T::sample_standard(rng))
    }
}

/// Ranges usable with [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws a value uniformly from the range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Types uniformly sampleable from a range (integer primitives).
///
/// The blanket `SampleRange` impls below are generic over this trait so
/// that an unsuffixed literal range (`0..38`) unifies with the target
/// type demanded by context (e.g. a slice index) instead of falling back
/// to `i32`, matching real `rand` inference behaviour.
pub trait SampleUniform: Sized + Copy {
    /// Draws uniformly from `[lo, hi)`, or `[lo, hi]` when `inclusive`.
    fn sample_span<R: RngCore + ?Sized>(lo: Self, hi: Self, inclusive: bool, rng: &mut R) -> Self;
}

macro_rules! impl_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_span<R: RngCore + ?Sized>(
                lo: $t,
                hi: $t,
                inclusive: bool,
                rng: &mut R,
            ) -> $t {
                if inclusive {
                    assert!(lo <= hi, "cannot sample empty range");
                } else {
                    assert!(lo < hi, "cannot sample empty range");
                }
                let span = (hi as u128)
                    .wrapping_sub(lo as u128)
                    .wrapping_add(u128::from(inclusive));
                let x = rng.next_u64();
                // The same remainder every way: a mask for a power-of-two
                // span (flow tables), else a 64-bit division, the cheap
                // one; only the full inclusive u64 range needs 65 bits.
                let offset = match u64::try_from(span) {
                    Ok(span) if span.is_power_of_two() => x & (span - 1),
                    Ok(span) => x % span,
                    Err(_) => x,
                };
                lo.wrapping_add(offset as $t)
            }
        }
    )*};
}
impl_sample_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<T: SampleUniform> SampleRange<T> for std::ops::Range<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_span(self.start, self.end, false, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for std::ops::RangeInclusive<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        T::sample_span(lo, hi, true, rng)
    }
}

/// The user-facing convenience methods, blanket-implemented for any core.
pub trait Rng: RngCore {
    /// Draws a uniformly random value of an inferred type.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Draws uniformly from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        f64::sample_standard(self) < p
    }

    /// Fills `dest` with random bytes.
    fn fill(&mut self, dest: &mut [u8]) {
        self.fill_bytes(dest);
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Generator implementations.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// A small, fast, seedable generator (xoshiro256++).
    #[derive(Debug, Clone)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> SmallRng {
            let mut sm = seed;
            SmallRng {
                s: std::array::from_fn(|_| splitmix64(&mut sm)),
            }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        let mut c = SmallRng::seed_from_u64(8);
        let va: Vec<u32> = (0..8).map(|_| a.gen()).collect();
        let vb: Vec<u32> = (0..8).map(|_| b.gen()).collect();
        let vc: Vec<u32> = (0..8).map(|_| c.gen()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = SmallRng::seed_from_u64(1);
        for _ in 0..1000 {
            let x: u16 = r.gen_range(1024..u16::MAX);
            assert!((1024..u16::MAX).contains(&x));
            let y = r.gen_range(8usize..=24);
            assert!((8..=24).contains(&y));
        }
    }

    #[test]
    fn spans_reduce_to_the_plain_remainder() {
        // Power-of-two spans take a mask, others a division: the value is
        // `lo + x % span` either way, so every seeded stream is unchanged.
        for span in [
            1u64,
            2,
            3,
            7,
            64,
            100,
            4096,
            16_384,
            50_000,
            1 << 40,
            (1 << 40) + 1,
        ] {
            let mut a = SmallRng::seed_from_u64(span);
            let mut b = SmallRng::seed_from_u64(span);
            for _ in 0..256 {
                let got = a.gen_range(5..5 + span);
                assert_eq!(got, 5 + b.next_u64() % span, "span {span}");
            }
        }
        let mut a = SmallRng::seed_from_u64(9);
        let mut b = SmallRng::seed_from_u64(9);
        for _ in 0..256 {
            assert_eq!(a.gen_range(0usize..4096), (b.next_u64() % 4096) as usize);
            assert_eq!(a.gen_range(-8i32..=7), -8 + (b.next_u64() % 16) as i32);
            assert_eq!(a.gen_range(0..=u64::MAX), b.next_u64());
        }
    }

    #[test]
    fn f64_unit_interval() {
        let mut r = SmallRng::seed_from_u64(2);
        for _ in 0..1000 {
            let u: f64 = r.gen();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn fill_covers_buffer() {
        let mut r = SmallRng::seed_from_u64(3);
        let mut buf = [0u8; 33];
        r.fill(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
