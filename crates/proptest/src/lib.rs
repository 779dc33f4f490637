//! Minimal property-testing shim, API-compatible with the subset of the
//! `proptest` crate this workspace uses.
//!
//! The build environment has no crates.io access, so the real `proptest`
//! cannot be vendored; this crate re-implements the pieces the test suite
//! needs — [`Strategy`] over numeric ranges, [`collection::vec`],
//! `prop_map`, the [`proptest!`] macro and the `prop_assert*` macros —
//! on top of a small deterministic PRNG. There is **no shrinking**: a
//! failing case panics with the case index, and cases are reproducible
//! because every test derives its stream from a hash of its own name.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Deterministic generator driving test-case synthesis (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed ^ 0x5DEE_CE66_D199_EC15,
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Multiply-shift reduction; the negligible modulo bias is fine for
        // test-case generation.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// A value generator. Mirrors `proptest::strategy::Strategy` for the
/// operations the workspace uses (`prop_map` and range/vec strategies).
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<T, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> T,
    {
        Map { inner: self, f }
    }
}

/// Strategy adapter returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, T> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> T,
{
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! float_range_strategy {
    ($ty:ty) => {
        impl Strategy for Range<$ty> {
            type Value = $ty;

            fn generate(&self, rng: &mut TestRng) -> $ty {
                assert!(self.start < self.end, "empty range strategy");
                self.start + (self.end - self.start) * rng.unit_f64() as $ty
            }
        }

        impl Strategy for RangeInclusive<$ty> {
            type Value = $ty;

            fn generate(&self, rng: &mut TestRng) -> $ty {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                // Include the upper endpoint by widening one ulp-ish step.
                let x = lo + (hi - lo) * rng.unit_f64() as $ty;
                if rng.next_u64() % 1024 == 0 {
                    hi
                } else {
                    x
                }
            }
        }
    };
}

float_range_strategy!(f32);
float_range_strategy!(f64);

macro_rules! int_range_strategy {
    ($ty:ty) => {
        impl Strategy for Range<$ty> {
            type Value = $ty;

            fn generate(&self, rng: &mut TestRng) -> $ty {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $ty
            }
        }

        impl Strategy for RangeInclusive<$ty> {
            type Value = $ty;

            fn generate(&self, rng: &mut TestRng) -> $ty {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128 + 1) as u64;
                (lo as i128 + rng.below(span) as i128) as $ty
            }
        }
    };
}

int_range_strategy!(usize);
int_range_strategy!(u64);
int_range_strategy!(u32);
int_range_strategy!(i32);
int_range_strategy!(i64);

/// A constant strategy, for completeness (`Just` in real proptest).
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Length specification for [`vec()`]: either exact or a range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi_exclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self {
                lo: n,
                hi_exclusive: n + 1,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self {
                lo: r.start,
                hi_exclusive: r.end,
            }
        }
    }

    /// Strategy producing `Vec`s of values drawn from `element`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generates vectors whose length is drawn from `size` and whose
    /// elements are drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi_exclusive - self.size.lo) as u64;
            let len = self.size.lo + rng.below(span.max(1)) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Runner configuration (`proptest::test_runner::Config`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases each property runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// FNV-1a hash used to derive a per-test deterministic seed from its name.
pub fn fnv1a(name: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Asserts a condition inside a property, reporting the failing expression.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            panic!("prop_assert failed: {}", stringify!($cond));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            panic!("prop_assert failed: {}: {}", stringify!($cond), format!($($fmt)*));
        }
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            panic!(
                "prop_assert_eq failed: {} != {} ({:?} vs {:?})",
                stringify!($left),
                stringify!($right),
                l,
                r
            );
        }
    }};
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    ($cfg:expr; $( $(#[$meta:meta])* fn $name:ident ( $($arg:ident in $strat:expr),* $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::TestRng::new($crate::fnv1a(concat!(
                    module_path!(),
                    "::",
                    stringify!($name)
                )));
                for case in 0..config.cases {
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)*
                    let run = || $body;
                    let _ = case;
                    run();
                }
            }
        )*
    };
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running the body over `config.cases` generated
/// inputs. Supports the optional `#![proptest_config(...)]` header.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! { $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// The prelude, mirroring `proptest::prelude::*` for the names used here.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{prop_assert, prop_assert_eq, proptest};
    pub use crate::{Just, ProptestConfig, Strategy, TestRng};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::new(1);
        for _ in 0..1000 {
            let x = Strategy::generate(&(-2.0f32..3.0), &mut rng);
            assert!((-2.0..3.0).contains(&x));
            let n = Strategy::generate(&(1usize..10), &mut rng);
            assert!((1..10).contains(&n));
            let z = Strategy::generate(&(-128i32..127), &mut rng);
            assert!((-128..127).contains(&z));
        }
    }

    #[test]
    fn vec_strategy_respects_sizes() {
        let mut rng = TestRng::new(2);
        for _ in 0..200 {
            let v = Strategy::generate(&collection::vec(0.0f32..1.0, 3..7), &mut rng);
            assert!((3..7).contains(&v.len()));
        }
        let exact = Strategy::generate(&collection::vec(0.0f32..1.0, 5usize), &mut rng);
        assert_eq!(exact.len(), 5);
    }

    #[test]
    fn prop_map_applies() {
        let mut rng = TestRng::new(3);
        let doubled = (1usize..4).prop_map(|n| n * 2);
        for _ in 0..50 {
            let v = Strategy::generate(&doubled, &mut rng);
            assert!([2, 4, 6].contains(&v));
        }
    }

    proptest! {
        #[test]
        fn macro_generates_and_runs(x in 0.0f64..1.0, n in 1usize..5) {
            prop_assert!((0.0..1.0).contains(&x));
            prop_assert!((1..5).contains(&n));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(7))]

        #[test]
        fn macro_honors_config(seed in 0u64..1000) {
            prop_assert!(seed < 1000);
        }
    }
}
