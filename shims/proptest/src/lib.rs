//! In-workspace stand-in for the `proptest` crate.
//!
//! The build environment has no registry access, so the workspace ships a
//! minimal API-compatible subset: the [`proptest!`] macro, the
//! [`strategy::Strategy`] trait with ranges / tuples / `prop_map`,
//! [`collection::vec`], [`sample::select`], [`arbitrary::any`], a small
//! regex-literal string strategy, and the `prop_assert*` / [`prop_assume!`]
//! macros.
//!
//! Differences from the real crate: cases are generated from a fixed
//! deterministic seed per test (derived from file/line/name), and failing
//! cases are **not shrunk** — the failing input is printed as-is.

#![forbid(unsafe_code)]

pub mod test_runner {
    //! Case-driving machinery: config, RNG, and case errors.

    /// Per-test configuration (subset: case count).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of successful cases required.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        /// 64 cases, or as many as the `PROPTEST_CASES` environment
        /// variable asks for (as upstream reads it), so that one CI step
        /// can explore further than the default run.
        fn default() -> Self {
            // Lighter than upstream's 256: the workspace runs property
            // suites over simulation-heavy code in CI.
            let cases = std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(64);
            ProptestConfig { cases }
        }
    }

    impl ProptestConfig {
        /// A config requiring `cases` successful cases.
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    /// Why a single generated case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// `prop_assume!` rejected the inputs; generate a fresh case.
        Reject,
        /// An assertion failed; abort the test with this message.
        Fail(String),
    }

    /// The deterministic per-test generator (xoshiro256++).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    impl TestRng {
        /// Seeds a generator from the test's source location and name.
        pub fn for_test(file: &str, line: u32, name: &str) -> TestRng {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in file.bytes().chain(name.bytes()).chain(line.to_le_bytes()) {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            let mut sm = h;
            TestRng {
                s: std::array::from_fn(|_| splitmix64(&mut sm)),
            }
        }

        /// The next 64 uniformly random bits.
        pub fn next_u64(&mut self) -> u64 {
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

        /// A uniform value in `[0, bound)`; `bound` must be nonzero.
        pub fn below(&mut self, bound: u64) -> u64 {
            self.next_u64() % bound
        }

        /// A uniform `usize` in `[lo, hi]`.
        pub fn size_in(&mut self, lo: usize, hi: usize) -> usize {
            lo + self.below((hi - lo + 1) as u64) as usize
        }
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use crate::test_runner::TestRng;

    /// A recipe for generating values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Transforms generated values with `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    /// Always generates a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Strategies may be used by reference.
    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            (**self).generate(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as u128).wrapping_sub(self.start as u128);
                    self.start
                        .wrapping_add((u128::from(rng.next_u64()) % span) as $t)
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as u128).wrapping_sub(lo as u128) + 1;
                    lo.wrapping_add((u128::from(rng.next_u64()) % span) as $t)
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }
    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, F);

    /// String literals act as regex-subset strategies generating matching
    /// strings. Supported: char classes (`[a-z0-9_]`), `\PC` (any printable
    /// char), literal chars, each with an optional `{m,n}`, `{n}`, `?`, `*`
    /// or `+` repetition (unbounded repeats cap at 32).
    impl Strategy for &str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            generate_from_pattern(self, rng)
        }
    }

    enum Atom {
        Class(Vec<char>),
        Printable,
        Lit(char),
    }

    fn parse_class(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Vec<char> {
        let mut set = Vec::new();
        let mut prev: Option<char> = None;
        while let Some(c) = chars.next() {
            match c {
                ']' => break,
                '-' if prev.is_some() && chars.peek().is_some_and(|&n| n != ']') => {
                    let lo = prev.take().unwrap();
                    let hi = chars.next().unwrap();
                    for v in lo as u32..=hi as u32 {
                        if let Some(ch) = char::from_u32(v) {
                            set.push(ch);
                        }
                    }
                }
                _ => {
                    if let Some(p) = prev.replace(c) {
                        set.push(p);
                    }
                }
            }
        }
        if let Some(p) = prev {
            set.push(p);
        }
        assert!(!set.is_empty(), "empty character class in pattern");
        set
    }

    fn parse_reps(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> (usize, usize) {
        match chars.peek() {
            Some('{') => {
                chars.next();
                let mut body = String::new();
                for c in chars.by_ref() {
                    if c == '}' {
                        break;
                    }
                    body.push(c);
                }
                match body.split_once(',') {
                    Some((m, n)) => (
                        m.trim().parse().expect("bad repetition lower bound"),
                        n.trim().parse().expect("bad repetition upper bound"),
                    ),
                    None => {
                        let n = body.trim().parse().expect("bad repetition count");
                        (n, n)
                    }
                }
            }
            Some('?') => {
                chars.next();
                (0, 1)
            }
            Some('*') => {
                chars.next();
                (0, 32)
            }
            Some('+') => {
                chars.next();
                (1, 32)
            }
            _ => (1, 1),
        }
    }

    fn generate_from_pattern(pattern: &str, rng: &mut TestRng) -> String {
        let mut atoms: Vec<(Atom, usize, usize)> = Vec::new();
        let mut chars = pattern.chars().peekable();
        while let Some(c) = chars.next() {
            let atom = match c {
                '[' => Atom::Class(parse_class(&mut chars)),
                '\\' => match chars.next() {
                    Some('P') => {
                        // `\PC`: any non-control character (printable).
                        let _ = chars.next();
                        Atom::Printable
                    }
                    Some('d') => Atom::Class(('0'..='9').collect()),
                    Some('w') => Atom::Class(
                        ('a'..='z')
                            .chain('A'..='Z')
                            .chain('0'..='9')
                            .chain(['_'])
                            .collect(),
                    ),
                    Some(other) => Atom::Lit(other),
                    None => break,
                },
                _ => Atom::Lit(c),
            };
            let (lo, hi) = parse_reps(&mut chars);
            atoms.push((atom, lo, hi));
        }
        let mut out = String::new();
        for (atom, lo, hi) in &atoms {
            let n = rng.size_in(*lo, *hi);
            for _ in 0..n {
                match atom {
                    Atom::Lit(c) => out.push(*c),
                    Atom::Class(set) => {
                        out.push(set[rng.below(set.len() as u64) as usize]);
                    }
                    Atom::Printable => {
                        // Mostly ASCII printable, occasionally multibyte.
                        let c = match rng.below(20) {
                            0 => 'λ',
                            1 => '→',
                            _ => char::from_u32(0x20 + rng.below(0x5f) as u32).unwrap(),
                        };
                        out.push(c);
                    }
                }
            }
        }
        out
    }
}

pub mod arbitrary {
    //! `any::<T>()`: the canonical whole-domain strategy per type.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Types with a canonical whole-domain strategy.
    pub trait Arbitrary: Sized {
        /// Draws one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for u128 {
        fn arbitrary(rng: &mut TestRng) -> u128 {
            (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())
        }
    }

    impl Arbitrary for i128 {
        fn arbitrary(rng: &mut TestRng) -> i128 {
            u128::arbitrary(rng) as i128
        }
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl<T: Arbitrary, const N: usize> Arbitrary for [T; N] {
        fn arbitrary(rng: &mut TestRng) -> [T; N] {
            std::array::from_fn(|_| T::arbitrary(rng))
        }
    }

    /// The strategy returned by [`any`].
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Any<A>(std::marker::PhantomData<A>);

    /// The whole-domain strategy for `A`.
    pub fn any<A: Arbitrary>() -> Any<A> {
        Any(std::marker::PhantomData)
    }

    impl<A: Arbitrary> Strategy for Any<A> {
        type Value = A;
        fn generate(&self, rng: &mut TestRng) -> A {
            A::arbitrary(rng)
        }
    }
}

pub mod collection {
    //! Collection strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// A length specification: exact or a range.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        /// Inclusive upper bound.
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> SizeRange {
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// The strategy returned by [`vec`].
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    /// Generates `Vec`s of `elem`-generated values with a length drawn from
    /// `size`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = rng.size_in(self.size.lo, self.size.hi);
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

pub mod sample {
    //! Sampling strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// The strategy returned by [`select`].
    pub struct Select<T> {
        options: Vec<T>,
    }

    /// Picks uniformly from `options` (must be non-empty).
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select over empty options");
        Select { options }
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.options[rng.below(self.options.len() as u64) as usize].clone()
        }
    }
}

pub mod prelude {
    //! The glob-import surface: `use proptest::prelude::*;`.

    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Declares property tests: `fn name(pattern in strategy, ...) { body }`.
///
/// Each test generates inputs from its strategies and runs the body until
/// [`test_runner::ProptestConfig::cases`] cases pass. `prop_assume!`
/// rejections regenerate; `prop_assert*` failures abort with the message
/// (inputs are not shrunk).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!{ @cfg ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!{
            @cfg ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (@cfg ($cfg:expr)) => {};
    (@cfg ($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($p:pat in $s:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::test_runner::ProptestConfig = $cfg;
            let mut __rng =
                $crate::test_runner::TestRng::for_test(file!(), line!(), stringify!($name));
            let mut __passed: u32 = 0;
            let mut __rejected: u32 = 0;
            while __passed < __cfg.cases {
                let __outcome: ::core::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        let ($($p,)*) = ($(
                            $crate::strategy::Strategy::generate(&($s), &mut __rng),
                        )*);
                        $body
                        ::core::result::Result::Ok(())
                    })();
                match __outcome {
                    ::core::result::Result::Ok(()) => __passed += 1,
                    ::core::result::Result::Err(
                        $crate::test_runner::TestCaseError::Reject,
                    ) => {
                        __rejected += 1;
                        assert!(
                            __rejected <= __cfg.cases.saturating_mul(64).max(4096),
                            "prop_assume rejected too many cases"
                        );
                    }
                    ::core::result::Result::Err(
                        $crate::test_runner::TestCaseError::Fail(__msg),
                    ) => {
                        panic!("{}", __msg);
                    }
                }
            }
        }
        $crate::__proptest_fns!{ @cfg ($cfg) $($rest)* }
    };
}

/// Rejects the current case, generating a fresh one.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

/// Like `assert!` inside a property body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!(
                    "assertion failed: {} ({}:{})",
                    stringify!($cond),
                    file!(),
                    line!()
                ),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!("{} ({}:{})", format!($($fmt)+), file!(), line!()),
            ));
        }
    };
}

/// Like `assert_eq!` inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        if !(*__a == *__b) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!(
                    "assertion failed: left == right\n  left: {:?}\n right: {:?} ({}:{})",
                    __a,
                    __b,
                    file!(),
                    line!()
                ),
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (__a, __b) = (&$a, &$b);
        if !(*__a == *__b) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!(
                    "{}\n  left: {:?}\n right: {:?} ({}:{})",
                    format!($($fmt)+),
                    __a,
                    __b,
                    file!(),
                    line!()
                ),
            ));
        }
    }};
}

/// Like `assert_ne!` inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        if *__a == *__b {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!(
                    "assertion failed: left != right\n  both: {:?} ({}:{})",
                    __a,
                    file!(),
                    line!()
                ),
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (__a, __b) = (&$a, &$b);
        if *__a == *__b {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!(
                    "{}\n  both: {:?} ({}:{})",
                    format!($($fmt)+),
                    __a,
                    file!(),
                    line!()
                ),
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_and_vecs(
            x in 0usize..10,
            v in crate::collection::vec(any::<u8>(), 3..6),
            exact in crate::collection::vec(any::<u16>(), 4),
        ) {
            prop_assert!(x < 10);
            prop_assert!((3..6).contains(&v.len()));
            prop_assert_eq!(exact.len(), 4);
        }

        #[test]
        fn tuples_map_and_assume(
            pair in (0u8..5, 10u8..20).prop_map(|(a, b)| (a, b)),
            flag in any::<bool>(),
        ) {
            prop_assume!(pair.0 != 4);
            prop_assert!(pair.0 < 4 && pair.1 >= 10);
            prop_assert_ne!(u32::from(pair.1), 99u32, "flag was {}", flag);
        }

        #[test]
        fn string_patterns(
            lit in "[a-z]{1,8}",
            free in "\\PC{0,50}",
        ) {
            prop_assert!((1..=8).contains(&lit.chars().count()));
            prop_assert!(lit.chars().all(|c| c.is_ascii_lowercase()));
            prop_assert!(free.chars().count() <= 50);
            prop_assert!(free.chars().all(|c| !c.is_control()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn config_applies(sel in crate::sample::select(vec![1u8, 2, 3])) {
            prop_assert!((1..=3).contains(&sel));
        }
    }

    #[test]
    #[should_panic(expected = "assertion failed")]
    fn failures_propagate() {
        // No `#[test]` on the inner fn: a test item inside a fn body would
        // be unnameable to the harness (and trips `-D warnings`).
        proptest! {
            fn inner(x in 0u8..4) {
                prop_assert!(x > 100);
            }
        }
        inner();
    }
}
