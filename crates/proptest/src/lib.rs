//! Internal stand-in for the crates.io `proptest` crate.
//!
//! The build environment has no crates-registry access, so this crate
//! vendors the subset of the `proptest 1.x` surface the workspace's
//! property tests use: the [`proptest!`] macro, [`Strategy`] with
//! `prop_map` / `prop_flat_map` / `prop_filter`, [`any`], ranges and
//! tuples as strategies, [`collection::vec`], `prop_assert!` /
//! `prop_assert_eq!` / `prop_assume!`, and [`ProptestConfig`].
//!
//! Differences from upstream, by design:
//!
//! * **No shrinking.** A failing case panics with the sampled inputs;
//!   rerunning reproduces it exactly (seeds are derived from the test
//!   name, so runs are deterministic).
//! * Rejection (via `prop_assume!` or `prop_filter`) retries the case
//!   up to a bounded multiple of the case count.
//! * `PROPTEST_CASES` in the environment overrides the case count.
//!
//! [`Strategy`]: strategy::Strategy
//! [`any`]: arbitrary::any

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod strategy;

pub use rand;

/// Why a single test case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// The case failed an assertion.
    Fail(String),
    /// The case was rejected (`prop_assume!` / exhausted filter) and
    /// should not count toward the case budget.
    Reject(String),
}

impl TestCaseError {
    /// Builds a failure with a message.
    #[must_use]
    pub fn fail(msg: impl Into<String>) -> TestCaseError {
        TestCaseError::Fail(msg.into())
    }

    /// Builds a rejection with a reason.
    #[must_use]
    pub fn reject(reason: impl Into<String>) -> TestCaseError {
        TestCaseError::Reject(reason.into())
    }
}

/// Per-test configuration (mirror of `proptest::test_runner::Config`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of successful cases required for the test to pass.
    pub cases: u32,
    /// Maximum rejected cases before the test is considered unable to
    /// generate inputs (a test bug).
    pub max_global_rejects: u32,
}

impl ProptestConfig {
    /// A config running `cases` successful cases.
    #[must_use]
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig {
            cases,
            max_global_rejects: cases.saturating_mul(64).max(4096),
        }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig::with_cases(256)
    }
}

/// The case-loop driver used by the [`proptest!`] macro expansion.
pub mod test_runner {
    pub use super::{ProptestConfig, TestCaseError};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// FNV-1a — a stable, platform-independent seed from the test name.
    fn fnv1a(text: &str) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in text.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        hash
    }

    fn cases_override() -> Option<u32> {
        std::env::var("PROPTEST_CASES").ok()?.parse().ok()
    }

    /// Runs `body` until `config.cases` cases pass. Each call receives
    /// a fresh deterministic RNG state; `body` returns the sampled
    /// inputs (already rendered for display) plus the case outcome.
    ///
    /// # Panics
    ///
    /// Panics on the first failing case (printing its inputs), or when
    /// the rejection budget is exhausted.
    pub fn run<F>(config: &ProptestConfig, test_name: &str, mut body: F)
    where
        F: FnMut(&mut StdRng) -> (String, Result<(), TestCaseError>),
    {
        let cases = cases_override().unwrap_or(config.cases);
        let mut rng = StdRng::seed_from_u64(fnv1a(test_name));
        let mut passed = 0u32;
        let mut rejected = 0u32;
        while passed < cases {
            let (inputs, outcome) = body(&mut rng);
            match outcome {
                Ok(()) => passed += 1,
                Err(TestCaseError::Reject(reason)) => {
                    rejected += 1;
                    assert!(
                        rejected <= config.max_global_rejects,
                        "{test_name}: too many rejected cases \
                         ({rejected}; last reason: {reason})"
                    );
                }
                Err(TestCaseError::Fail(msg)) => {
                    panic!(
                        "{test_name}: case {n} failed\n  inputs: {inputs}\n  {msg}",
                        n = passed + 1
                    );
                }
            }
        }
    }
}

/// `any::<T>()` strategies (mirror of `proptest::arbitrary`).
pub mod arbitrary {
    use super::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary: Sized + core::fmt::Debug {
        /// Draws an arbitrary value, with a bias toward edge cases.
        fn arbitrary(rng: &mut StdRng) -> Self;
    }

    macro_rules! arb_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)]
                fn arbitrary(rng: &mut StdRng) -> $t {
                    // 1-in-8: draw from the edge set, like upstream's
                    // bias toward boundary values.
                    if rng.gen_range(0u32..8) == 0 {
                        const EDGES: [$t; 4] = [0, 1, <$t>::MAX, <$t>::MIN];
                        EDGES[rng.gen_range(0usize..EDGES.len())]
                    } else {
                        rng.gen::<$t>()
                    }
                }
            }
        )*};
    }
    arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut StdRng) -> bool {
            rng.gen::<bool>()
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut StdRng) -> f64 {
            // Finite values only: uniform sign/magnitude mix.
            let mantissa: f64 = rng.gen();
            let exp = rng.gen_range(-64i32..64);
            let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
            sign * mantissa * (2.0f64).powi(exp)
        }
    }

    /// Strategy returned by [`any`].
    #[derive(Debug, Clone, Copy)]
    pub struct Any<T>(core::marker::PhantomData<T>);

    /// A strategy for any value of `T`.
    #[must_use]
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(core::marker::PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn new_value(&self, rng: &mut StdRng) -> Result<T, String> {
            Ok(T::arbitrary(rng))
        }
    }
}

/// Collection strategies (mirror of `proptest::collection`).
pub mod collection {
    use super::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// Anything usable as a vector-length specification.
    pub trait IntoSizeRange {
        /// Draws a concrete length.
        fn sample_len(&self, rng: &mut StdRng) -> usize;
    }

    impl IntoSizeRange for usize {
        fn sample_len(&self, _rng: &mut StdRng) -> usize {
            *self
        }
    }

    impl IntoSizeRange for core::ops::Range<usize> {
        fn sample_len(&self, rng: &mut StdRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    impl IntoSizeRange for core::ops::RangeInclusive<usize> {
        fn sample_len(&self, rng: &mut StdRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    /// Strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    /// A strategy for vectors whose elements come from `element` and
    /// whose length comes from `len` (a `usize` or a range).
    pub fn vec<S: Strategy, L: IntoSizeRange>(element: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { element, len }
    }

    impl<S: Strategy, L: IntoSizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut StdRng) -> Result<Vec<S::Value>, String> {
            let n = self.len.sample_len(rng);
            (0..n).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

/// Everything a property test normally imports.
pub mod prelude {
    pub use super::arbitrary::{any, Arbitrary};
    pub use super::strategy::{Just, Strategy};
    pub use super::test_runner::{ProptestConfig, TestCaseError};
    pub use super::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Runs a block of property tests.
///
/// Mirrors `proptest::proptest!`: an optional
/// `#![proptest_config(expr)]` header followed by `#[test]` functions
/// whose arguments are drawn from strategies with `pat in strategy`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $cfg;
            $crate::__proptest_run!(__config, $name, ($($arg in $strat),+) $body);
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_run {
    ($config:ident, $name:ident, ($($arg:pat in $strat:expr),+) $body:block) => {{
        let __test_name = concat!(module_path!(), "::", stringify!($name));
        $crate::test_runner::run(&$config, __test_name, |__rng| {
            #[allow(unused_imports)]
            use $crate::strategy::Strategy as _;
            // Sample every argument (strategy construction is cheap
            // and deterministic, so exprs are re-evaluated per case).
            let __sampled = (|| -> Result<_, String> {
                Ok(($(($strat).new_value(__rng)?,)+))
            })();
            match __sampled {
                Err(reason) => (String::new(), Err($crate::TestCaseError::reject(reason))),
                Ok(__vals) => {
                    let __inputs = format!(
                        "{} = {:?}",
                        stringify!(($($arg),+)),
                        &__vals
                    );
                    let ($($arg,)+) = __vals;
                    let __outcome = (|| -> Result<(), $crate::TestCaseError> {
                        $body
                        #[allow(unreachable_code)]
                        Ok(())
                    })();
                    (__inputs, __outcome)
                }
            }
        });
    }};
}

/// `prop_assert!(cond)` / `prop_assert!(cond, "fmt", args...)`.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)));
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// `prop_assert_eq!(left, right)` with optional message.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}\n  {}",
            stringify!($left), stringify!($right), l, r, format!($($fmt)*)
        );
    }};
}

/// `prop_assert_ne!(left, right)` with optional message.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

/// `prop_assume!(cond)` — rejects the case without failing the test.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::reject(concat!(
                "assumption failed: ",
                stringify!($cond)
            )));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_in_bounds(x in 3usize..17, y in -5i64..=5, f in 0.25f64..0.75) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-5..=5).contains(&y));
            prop_assert!((0.25..0.75).contains(&f));
        }

        #[test]
        fn vec_lengths_respected(v in crate::collection::vec(0u32..10, 2..6)) {
            prop_assert!((2..6).contains(&v.len()));
            prop_assert!(v.iter().all(|&e| e < 10));
        }

        #[test]
        fn tuples_and_flat_map(
            (m, c) in (1usize..4, 3usize..9),
            n in (2usize..5).prop_flat_map(|k| crate::collection::vec(0u64..100, k..k + 1)),
        ) {
            prop_assert!(m < 4 && (3..9).contains(&c));
            prop_assert!((2..5).contains(&n.len()));
        }

        #[test]
        fn map_filter_assume(
            even in (0u32..1000).prop_map(|x| x * 2),
            odd in (0u32..1000).prop_filter("odd", |x| x % 2 == 1),
            any_v in any::<i64>(),
        ) {
            prop_assume!(any_v != 42);
            prop_assert_eq!(even % 2, 0);
            prop_assert_eq!(odd % 2, 1);
            prop_assert_ne!(any_v, 42);
        }

        #[test]
        fn just_clones(v in Just(vec![1, 2, 3])) {
            prop_assert_eq!(v, vec![1, 2, 3]);
        }
    }

    #[test]
    #[should_panic(expected = "failed")]
    fn failing_case_panics_with_inputs() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]
            #[allow(unused)]
            fn always_fails(x in 0u32..10) {
                prop_assert!(x > 100, "x was {}", x);
            }
        }
        always_fails();
    }
}
