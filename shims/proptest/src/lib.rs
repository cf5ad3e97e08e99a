//! Offline stand-in for the `proptest` crate.
//!
//! The build environment cannot reach crates.io, so the workspace vendors
//! the subset of proptest's API its property tests use: the [`Strategy`]
//! trait with `prop_map` / `prop_flat_map` / `boxed`, range and tuple
//! strategies, [`strategy::Just`], `prop::collection::vec`,
//! `prop::bool::weighted`, `any::<T>()`, the [`proptest!`] /
//! [`prop_oneof!`] / `prop_assert*!` macros, and a `cases`-only
//! [`test_runner::Config`].
//!
//! Semantics deliberately kept from the real crate:
//!
//! * each `#[test]` inside [`proptest!`] runs its body for `Config::cases`
//!   independently sampled inputs;
//! * sampling is **deterministic** — the RNG is seeded from the test's
//!   `module_path!() :: name` and the case index, so a failure reproduces
//!   exactly on re-run with no persistence files.
//!
//! Dropped (acceptable for an offline harness): input **shrinking** and
//! failure persistence. A failing case panics with the ordinary
//! `assert!` message; because sampling is deterministic it recurs on
//! every run until fixed.

/// Runner configuration; only `cases` is honoured.
pub mod test_runner {
    /// How many sampled inputs each property runs against.
    #[derive(Clone, Debug)]
    pub struct Config {
        /// Number of cases per property (default 256, like upstream).
        pub cases: u32,
    }

    impl Config {
        /// A config overriding only the case count.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 256 }
        }
    }

    /// The deterministic RNG driving strategy sampling (splitmix64).
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds the stream for one test case from the test's identity.
        pub fn for_case(test_name: &str, case: u32) -> Self {
            // FNV-1a over the name, mixed with the case index.
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in test_name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng {
                state: h ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, n)`; `n` must be non-zero.
        pub fn below(&mut self, n: u64) -> u64 {
            assert!(n > 0, "below(0)");
            self.next_u64() % n
        }

        /// Uniform value in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }
}

/// The [`Strategy`] trait and combinators.
pub mod strategy {
    use crate::test_runner::TestRng;

    /// A recipe for generating values of `Self::Value`.
    ///
    /// Unlike upstream there is no value tree: `generate` samples a value
    /// directly and nothing shrinks.
    pub trait Strategy {
        /// The type of value this strategy produces.
        type Value;

        /// Samples one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Generates a value, then generates from the strategy `f` builds
        /// out of it.
        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { inner: self, f }
        }

        /// Type-erases the strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// A type-erased strategy.
    pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (**self).generate(rng)
        }
    }

    /// Always produces a clone of the wrapped value.
    #[derive(Clone, Debug)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Clone, Debug)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    #[derive(Clone, Debug)]
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S, S2, F> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        S2: Strategy,
        F: Fn(S::Value) -> S2,
    {
        type Value = S2::Value;
        fn generate(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    /// Uniform choice among boxed alternatives ([`crate::prop_oneof!`]).
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// Builds a union; panics if `options` is empty.
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one option");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.options.len() as u64) as usize;
            self.options[i].generate(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    self.start + rng.below((self.end - self.start) as u64) as $t
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi - lo) as u64;
                    if span == u64::MAX {
                        return rng.next_u64() as $t;
                    }
                    lo + rng.below(span + 1) as $t
                }
            }
        )*};
    }
    int_range_strategy!(u8, u16, u32, u64, usize);

    macro_rules! tuple_strategy {
        ($($S:ident . $idx:tt),+) => {
            impl<$($S: Strategy),+> Strategy for ($($S,)+) {
                type Value = ($($S::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        };
    }
    tuple_strategy!(A.0);
    tuple_strategy!(A.0, B.1);
    tuple_strategy!(A.0, B.1, C.2);
    tuple_strategy!(A.0, B.1, C.2, D.3);
    tuple_strategy!(A.0, B.1, C.2, D.3, E.4);
    tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5);
}

/// `any::<T>()` support.
pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use core::marker::PhantomData;

    /// Types with a canonical whole-domain strategy.
    pub trait Arbitrary: Sized {
        /// Samples an unconstrained value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// The strategy returned by [`any`].
    #[derive(Clone, Debug)]
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The canonical strategy for `T`'s full domain.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Inclusive-exclusive length bounds for a collection strategy.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                lo: *r.start(),
                hi: *r.end() + 1,
            }
        }
    }

    /// Strategy producing `Vec`s of `element` samples.
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `Vec` strategy with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo
                + if span > 1 {
                    rng.below(span) as usize
                } else {
                    0
                };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Boolean strategies (`prop::bool::weighted`).
pub mod bool {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy producing `true` with a fixed probability.
    #[derive(Clone, Copy, Debug)]
    pub struct Weighted(f64);

    /// `true` with probability `p`.
    pub fn weighted(p: f64) -> Weighted {
        assert!(
            (0.0..=1.0).contains(&p),
            "weight must be in [0, 1], got {p}"
        );
        Weighted(p)
    }

    impl Strategy for Weighted {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.unit_f64() < self.0
        }
    }
}

/// The `prop::` namespace used inside tests (`prop::collection::vec`, …).
pub mod prop {
    pub use crate::bool;
    pub use crate::collection;
    pub use crate::strategy;
}

/// One-glob import mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::prop;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Asserts a condition inside a property (plain `assert!` here).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Asserts equality inside a property (plain `assert_eq!` here).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Asserts inequality inside a property (plain `assert_ne!` here).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Uniform choice among strategies yielding the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

/// Declares property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a test running `body` against `Config::cases` sampled inputs.
///
/// An optional leading `#![proptest_config(expr)]` overrides the config
/// for every test in the block.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::test_runner::Config::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::Config = $cfg;
            for case in 0..config.cases.max(1) {
                let mut rng = $crate::test_runner::TestRng::for_case(
                    concat!(module_path!(), "::", stringify!($name)),
                    case,
                );
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                { $body }
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn sampling_is_deterministic() {
        let strat = prop::collection::vec(0u32..100, 1..20);
        let mut a = crate::test_runner::TestRng::for_case("t", 3);
        let mut b = crate::test_runner::TestRng::for_case("t", 3);
        assert_eq!(strat.generate(&mut a), strat.generate(&mut b));
    }

    #[test]
    fn ranges_and_maps_compose() {
        let strat = (1usize..=4).prop_map(|n| n * 2);
        let mut rng = crate::test_runner::TestRng::for_case("m", 0);
        for _ in 0..100 {
            let v = strat.generate(&mut rng);
            assert!([2, 4, 6, 8].contains(&v));
        }
    }

    #[test]
    fn flat_map_threads_the_outer_value() {
        let strat = (2usize..5).prop_flat_map(|n| prop::collection::vec(Just(n), n));
        let mut rng = crate::test_runner::TestRng::for_case("fm", 1);
        for _ in 0..50 {
            let v = strat.generate(&mut rng);
            assert!(!v.is_empty() && v.iter().all(|&x| x == v.len()));
        }
    }

    #[test]
    fn oneof_picks_only_listed_options() {
        let strat = prop_oneof![Just(1u16), Just(2), Just(9)];
        let mut rng = crate::test_runner::TestRng::for_case("o", 0);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..200 {
            seen.insert(strat.generate(&mut rng));
        }
        assert!(seen.iter().all(|v| [1, 2, 9].contains(v)));
        assert_eq!(seen.len(), 3, "all options should appear");
    }

    #[test]
    fn weighted_bool_hits_both_sides() {
        let strat = prop::bool::weighted(0.25);
        let mut rng = crate::test_runner::TestRng::for_case("w", 0);
        let trues = (0..1000).filter(|_| strat.generate(&mut rng)).count();
        assert!((150..350).contains(&trues), "got {trues}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The macro itself: bindings, tuple patterns, trailing commas.
        #[test]
        fn macro_accepts_full_grammar(
            v in prop::collection::vec(any::<u64>(), 0..8),
            (a, b) in (0u32..10, 0u32..10),
        ) {
            prop_assert!(v.len() < 8);
            prop_assert!(a < 10 && b < 10);
            prop_assert_eq!(a + b, b + a);
            prop_assert_ne!(a, a + 1);
        }
    }
}
