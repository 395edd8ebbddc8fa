//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no network access, so this workspace-local
//! package provides the subset of proptest the test suites use — the
//! `proptest!` macro, `prop_assert!`/`prop_assert_eq!`, range and
//! collection strategies, and `ProptestConfig` — backed by the
//! deterministic [`eval_rng::ChaCha12Rng`]. Every test function draws its
//! cases from a stream seeded by the test's own name, so failures are
//! reproducible run-to-run and machine-to-machine (there is no persistence
//! file and no shrinking: a failing case reports the drawn values instead).

#![forbid(unsafe_code)]

use std::fmt;
use std::ops::Range;

pub use eval_rng::ChaCha12Rng as TestRng;

/// Runner configuration (the `cases` knob only).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each property is checked against.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// A failed property case (carries the formatted assertion message).
#[derive(Debug)]
pub struct TestCaseError(pub String);

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Seeds a per-test deterministic stream from the test path (FNV-1a).
pub fn rng_for(test_name: &str) -> TestRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    TestRng::seed_from_u64(h)
}

/// A source of random values of one type.
pub trait Strategy {
    /// The value type produced.
    type Value: fmt::Debug;
    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

range_strategy!(f64, usize, u64, u32, i64, i32);

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Length specification for [`vec`]: a fixed size or a half-open range.
    #[derive(Debug, Clone)]
    pub struct SizeRange(Range<usize>);

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange(n..n + 1)
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            SizeRange(r)
        }
    }

    /// Strategy producing `Vec`s of values drawn from `element`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Vectors with lengths drawn from `size` and elements from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let len = if self.size.0.len() <= 1 {
                self.size.0.start
            } else {
                rng.gen_range(self.size.0.clone())
            };
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Boolean strategies (`proptest::bool::ANY`).
pub mod bool {
    use super::{Strategy, TestRng};

    /// A fair coin.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// Draws `true`/`false` with equal probability.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn sample(&self, rng: &mut TestRng) -> bool {
            rng.gen::<bool>()
        }
    }
}

/// Everything a `proptest!` test module needs.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy, TestCaseError,
    };
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` that checks the body across `config.cases` sampled
/// argument tuples.
#[macro_export]
macro_rules! proptest {
    { #![proptest_config($cfg:expr)] $($rest:tt)* } => {
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
    { $($rest:tt)* } => {
        $crate::__proptest_impl!{ ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Internal expansion of [`proptest!`]; not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    { ($cfg:expr) } => {};
    { ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
      $($rest:tt)*
    } => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::rng_for(concat!(module_path!(), "::", stringify!($name)));
            for case in 0..config.cases {
                $(let $arg = $crate::Strategy::sample(&($strat), &mut rng);)+
                let described =
                    format!(concat!($(stringify!($arg), " = {:?}; "),+), $(&$arg),+);
                let run = || -> ::std::result::Result<(), $crate::TestCaseError> {
                    $body
                    Ok(())
                };
                if let Err(e) = run() {
                    panic!(
                        "property {} failed at case {}/{}: {}\n  with {}",
                        stringify!($name),
                        case + 1,
                        config.cases,
                        e,
                        described,
                    );
                }
            }
        }
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
}

/// `assert!` for property bodies: fails the case instead of panicking
/// directly, so the runner can report which case number failed.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError(
                format!("assertion failed: {}: {}", stringify!($cond), format!($($fmt)+)),
            ));
        }
    };
}

/// `assert_eq!` for property bodies.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (lhs, rhs) = (&$a, &$b);
        if !(lhs == rhs) {
            return ::std::result::Result::Err($crate::TestCaseError(format!(
                "assertion failed: {} == {} (left: {:?}, right: {:?})",
                stringify!($a),
                stringify!($b),
                lhs,
                rhs
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (lhs, rhs) = (&$a, &$b);
        if !(lhs == rhs) {
            return ::std::result::Result::Err($crate::TestCaseError(format!(
                "assertion failed: {} == {} (left: {:?}, right: {:?}): {}",
                stringify!($a),
                stringify!($b),
                lhs,
                rhs,
                format!($($fmt)+)
            )));
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_are_respected(x in 0.25f64..0.75, n in 3usize..9) {
            prop_assert!((0.25..0.75).contains(&x));
            prop_assert!((3..9).contains(&n), "n = {n}");
        }

        #[test]
        fn vectors_obey_length_specs(
            fixed in crate::collection::vec(0.0f64..1.0, 4),
            ranged in crate::collection::vec(0u64..10, 1..6),
        ) {
            prop_assert_eq!(fixed.len(), 4);
            prop_assert!(!ranged.is_empty() && ranged.len() < 6);
        }
    }

    #[test]
    fn bool_any_draws_both_values() {
        let mut rng = crate::rng_for("bool_any_draws_both_values");
        let draws: Vec<bool> = (0..64).map(|_| crate::bool::ANY.sample(&mut rng)).collect();
        assert!(draws.contains(&true) && draws.contains(&false), "{draws:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(7))]
        #[test]
        fn config_attribute_parses(x in 0i64..5) {
            prop_assert!(x < 5);
        }
    }

    #[test]
    fn streams_are_deterministic_per_test_name() {
        let mut a = crate::rng_for("a::b::c");
        let mut b = crate::rng_for("a::b::c");
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        let mut other = crate::rng_for("a::b::d");
        assert_ne!(a.gen::<u64>(), other.gen::<u64>());
    }
}
