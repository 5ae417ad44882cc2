//! Offline stand-in for `proptest`.
//!
//! The build container has no crates.io access, so this shim implements
//! the proptest API subset the workspace's property tests use —
//! `proptest!`, `prop_assert!`, `prop_assert_eq!`, `prop_oneof!`, `Just`,
//! range strategies, tuple strategies, `Strategy::prop_map` and
//! `prop::collection::vec` — as a deterministic random-case runner.
//!
//! Differences from the real crate: no shrinking (a failing case reports
//! its case index and seed instead of a minimised input) and a default of
//! 64 cases per property (override with `PROPTEST_CASES`; seeds derive
//! from the test name, override with `PROPTEST_SEED`). Every strategy
//! combinator keeps the same types and call syntax, so swapping the real
//! proptest back in is a manifest-only change.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A failed property-test assertion.
#[derive(Debug, Clone)]
pub struct TestCaseError(pub String);

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// A generator of random values for property tests.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut StdRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

/// The [`Strategy::prop_map`] combinator.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn sample(&self, rng: &mut StdRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(f64, f32, usize, u8, u16, u32, u64, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($(($($name:ident),+)),+ $(,)?) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn sample(&self, rng: &mut StdRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    )+};
}

impl_tuple_strategy!(
    (A),
    (A, B),
    (A, B, C),
    (A, B, C, D),
    (A, B, C, D, E),
    (A, B, C, D, E, F)
);

/// Object-safe sampling for [`Union`] arms (implementation detail made
/// public only because `Union`'s constructors name it).
pub trait DynStrategy<V> {
    fn sample_dyn(&self, rng: &mut StdRng) -> V;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn sample_dyn(&self, rng: &mut StdRng) -> S::Value {
        self.sample(rng)
    }
}

/// Weighted choice between strategies (the `prop_oneof!` output).
pub struct Union<V> {
    arms: Vec<(u32, Box<dyn DynStrategy<V>>)>,
    total: u64,
}

impl<V> Union<V> {
    /// Builds from weighted boxed arms.
    ///
    /// # Panics
    ///
    /// Panics when `arms` is empty or all weights are zero.
    pub fn new(arms: Vec<(u32, Box<dyn DynStrategy<V>>)>) -> Self {
        let total: u64 = arms.iter().map(|(w, _)| u64::from(*w)).sum();
        assert!(
            total > 0,
            "prop_oneof! needs at least one positively weighted arm"
        );
        Union { arms, total }
    }

    /// Boxes one arm (used by the `prop_oneof!` macro).
    pub fn arm<S: Strategy<Value = V> + 'static>(
        weight: u32,
        strategy: S,
    ) -> (u32, Box<dyn DynStrategy<V>>) {
        (weight, Box::new(strategy))
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn sample(&self, rng: &mut StdRng) -> V {
        let mut pick = rng.gen_range(0..self.total);
        for (w, arm) in &self.arms {
            let w = u64::from(*w);
            if pick < w {
                return arm.sample_dyn(rng);
            }
            pick -= w;
        }
        unreachable!("weights sum covers the sampled index")
    }
}

/// Strategy modules mirroring `proptest::prop`.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::{StdRng, Strategy};

        /// Lengths accepted by [`vec()`]: exact or a half-open range.
        pub trait IntoSizeRange {
            /// Draws a length.
            fn sample_len(&self, rng: &mut StdRng) -> usize;
        }

        impl IntoSizeRange for usize {
            fn sample_len(&self, _rng: &mut StdRng) -> usize {
                *self
            }
        }

        impl IntoSizeRange for std::ops::Range<usize> {
            fn sample_len(&self, rng: &mut StdRng) -> usize {
                use rand::Rng as _;
                rng.gen_range(self.clone())
            }
        }

        /// A `Vec` of values from `element`, with a length from `size`.
        pub fn vec<S: Strategy, L: IntoSizeRange>(element: S, size: L) -> VecStrategy<S, L> {
            VecStrategy { element, size }
        }

        /// The [`vec()`] strategy.
        pub struct VecStrategy<S, L> {
            element: S,
            size: L,
        }

        impl<S: Strategy, L: IntoSizeRange> Strategy for VecStrategy<S, L> {
            type Value = Vec<S::Value>;
            fn sample(&self, rng: &mut StdRng) -> Self::Value {
                let n = self.size.sample_len(rng);
                (0..n).map(|_| self.element.sample(rng)).collect()
            }
        }
    }
}

/// Number of cases per property (`PROPTEST_CASES`, default 64).
pub fn cases() -> usize {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// The base RNG seed for a named test (`PROPTEST_SEED` overrides).
pub fn base_seed(test_name: &str) -> u64 {
    if let Some(s) = std::env::var("PROPTEST_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        return s;
    }
    // FNV-1a over the test name: deterministic across runs and platforms.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Runs `body` over `cases()` sampled inputs, panicking with the case
/// index and seed on the first failure.
pub fn run_property<F>(test_name: &str, mut body: F)
where
    F: FnMut(&mut StdRng) -> Result<(), TestCaseError>,
{
    let seed = base_seed(test_name);
    for case in 0..cases() {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(case as u64));
        if let Err(e) = body(&mut rng) {
            panic!(
                "property '{test_name}' failed at case {case} (PROPTEST_SEED={}): {e}",
                seed.wrapping_add(case as u64)
            );
        }
    }
}

/// Declares property tests: `proptest! { #[test] fn name(x in strat) { … } }`.
#[macro_export]
macro_rules! proptest {
    ($( $(#[$meta:meta])* fn $name:ident( $($pat:pat in $strat:expr),+ $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::run_property(stringify!($name), |__rng| {
                    $(let $pat = $crate::Strategy::sample(&($strat), __rng);)+
                    $body
                    #[allow(unreachable_code)]
                    Ok(())
                });
            }
        )*
    };
}

/// `prop_assert!(cond)` / `prop_assert!(cond, "msg", args…)`.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError(format!(
                "assertion failed: {}", stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::TestCaseError(format!($($fmt)+)));
        }
    };
}

/// `prop_assert_eq!(left, right)` with an optional message.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return Err($crate::TestCaseError(format!(
                "assertion failed: {} == {} (left: {:?}, right: {:?})",
                stringify!($left), stringify!($right), l, r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return Err($crate::TestCaseError(format!($($fmt)+)));
        }
    }};
}

/// Weighted or uniform choice between strategies.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![ $( $crate::Union::arm($weight, $strat) ),+ ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![ $( $crate::Union::arm(1u32, $strat) ),+ ])
    };
}

/// Everything a property-test file needs, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::prop;
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
    pub use crate::{Just, Strategy, TestCaseError, Union};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_and_tuples_sample_in_bounds(
            x in 0.0f64..1.0,
            (a, b) in (0usize..4, -2i32..3),
            v in prop::collection::vec(0u64..10, 1..5),
        ) {
            prop_assert!((0.0..1.0).contains(&x));
            prop_assert!(a < 4);
            prop_assert!((-2..3).contains(&b));
            prop_assert!(!v.is_empty() && v.len() < 5);
            prop_assert!(v.iter().all(|&e| e < 10));
        }

        #[test]
        fn oneof_respects_arms(pick in prop_oneof![Just(1u8), Just(2u8), 3u8..5]) {
            prop_assert!((1..5).contains(&pick));
        }

        #[test]
        fn map_transforms(y in (0u32..10).prop_map(|v| v * 3)) {
            prop_assert_eq!(y % 3, 0);
            prop_assert!(y < 30);
        }
    }

    #[test]
    fn weighted_union_skews_sampling() {
        use rand::SeedableRng;
        let u = prop_oneof![9 => Just(true), 1 => Just(false)];
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let hits = (0..5000).filter(|_| u.sample(&mut rng)).count();
        assert!((hits as f64 / 5000.0 - 0.9).abs() < 0.03);
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failures_report_case_and_seed() {
        crate::run_property("always_fails", |_rng| {
            Err(crate::TestCaseError("boom".into()))
        });
    }
}
