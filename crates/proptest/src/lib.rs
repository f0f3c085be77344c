//! Minimal, dependency-free shim of the [proptest](https://crates.io/crates/proptest)
//! API, covering exactly the surface this workspace's property tests use:
//!
//! - range strategies (`0usize..8`, `-1e6f64..1e6`, …) over the integer
//!   types and `f64`;
//! - tuple strategies of 2 and 3 ranges;
//! - [`collection::vec`] and [`option::of`];
//! - the [`proptest!`] macro with an optional
//!   `#![proptest_config(ProptestConfig::with_cases(N))]` header;
//! - [`prop_assert!`], [`prop_assert_eq!`], [`prop_assume!`].
//!
//! Unlike the real proptest there is **no shrinking and no persisted failure
//! state**: every test derives its case stream from a fixed seed (an FNV-1a
//! hash of the test's name), so tier-1 runs are bit-reproducible across
//! machines and invocations — a failure message's case number reproduces the
//! exact same inputs every time. The build environment for this repository
//! is offline; swap the `path` dev-dependencies for the crates.io `proptest`
//! if real shrinking is ever needed.

#![warn(missing_docs)]

use std::ops::Range;

/// Outcome of a single generated case inside [`proptest!`].
#[derive(Debug)]
pub enum TestCaseError {
    /// The case was rejected by [`prop_assume!`]; it is skipped, not failed.
    Reject,
    /// An assertion failed with the contained message.
    Fail(String),
}

impl TestCaseError {
    /// Constructs a failure with the given message.
    pub fn fail(msg: String) -> Self {
        TestCaseError::Fail(msg)
    }
}

/// Number-of-cases configuration, mirroring `proptest::test_runner::Config`.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Cases generated per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// A config running `cases` generated cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Deterministic xorshift* generator seeded from the test name.
#[derive(Debug, Clone)]
pub struct TestRng(u64);

impl TestRng {
    /// Seeds the generator from an FNV-1a hash of `name` — fixed across
    /// runs, machines, and test-execution order.
    pub fn deterministic(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng(h | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A value generator, mirroring `proptest::strategy::Strategy`.
pub trait Strategy {
    /// The generated value type.
    type Value;
    /// Draws one value from the strategy.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! int_range_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let span = (self.end - self.start) as u64;
                assert!(span > 0, "empty range strategy");
                self.start + (rng.next_u64() % span) as $t
            }
        }
    )+};
}

int_range_strategy!(u8, u16, u32, u64, usize, i32, i64);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.generate(rng), self.1.generate(rng))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
    type Value = (A::Value, B::Value, C::Value);
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.generate(rng), self.1.generate(rng), self.2.generate(rng))
    }
}

/// Collection strategies, mirroring `proptest::collection`.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy yielding `Vec`s of `elem` with a length drawn from `size`.
    pub struct VecStrategy<S> {
        elem: S,
        size: Range<usize>,
    }

    /// `Vec` strategy over `elem` with lengths in `size`.
    pub fn vec<S: Strategy>(elem: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = self.size.generate(rng);
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// Option strategies, mirroring `proptest::option`.
pub mod option {
    use super::{Strategy, TestRng};

    /// Strategy yielding `None` half the time and `Some(inner)` otherwise.
    pub struct OptionStrategy<S>(S);

    /// `Option` strategy over `inner`.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            if rng.next_u64().is_multiple_of(2) {
                None
            } else {
                Some(self.0.generate(rng))
            }
        }
    }
}

/// The usual glob import, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assume, proptest, ProptestConfig, Strategy, TestCaseError,
    };
}

/// Declares deterministic property tests, mirroring `proptest::proptest!`.
///
/// Each `fn name(arg in strategy, ...) { body }` becomes a `#[test]` that
/// draws `cases` inputs from a [`TestRng`] seeded by the test's name and
/// runs the body on each; `prop_assert*` failures report the case index.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ config = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ config = $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Internal expansion of [`proptest!`]; not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = $cfg:expr; ) => {};
    (config = $cfg:expr;
     $(#[$meta:meta])*
     fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cases = { $cfg }.cases;
            let mut __rng = $crate::TestRng::deterministic(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..__cases {
                $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)+
                let __outcome: ::std::result::Result<(), $crate::TestCaseError> = (move || {
                    $body
                    Ok(())
                })();
                match __outcome {
                    Ok(()) => {}
                    Err($crate::TestCaseError::Reject) => continue,
                    Err($crate::TestCaseError::Fail(msg)) => {
                        panic!("case {} failed: {}", __case, msg)
                    }
                }
            }
        }
        $crate::__proptest_impl!{ config = $cfg; $($rest)* }
    };
}

/// Asserts a condition inside [`proptest!`], failing the current case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(
                format!("assertion failed: {}", stringify!($cond))));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Asserts equality inside [`proptest!`], failing the current case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        if a != b {
            return Err($crate::TestCaseError::fail(
                format!("assertion failed: {} == {} ({:?} vs {:?})",
                        stringify!($a), stringify!($b), a, b)));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        if a != b {
            return Err($crate::TestCaseError::fail(
                format!("{} ({:?} vs {:?})", format!($($fmt)+), a, b)));
        }
    }};
}

/// Skips the current case when its inputs don't satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err($crate::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn rng_is_deterministic_per_name() {
        let mut a = crate::TestRng::deterministic("x");
        let mut b = crate::TestRng::deterministic("x");
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::TestRng::deterministic("bounds");
        for _ in 0..1000 {
            let v = Strategy::generate(&(3usize..17), &mut rng);
            assert!((3..17).contains(&v));
            let f = Strategy::generate(&(-2.0f64..5.0), &mut rng);
            assert!((-2.0..5.0).contains(&f));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn vec_lengths_respected(xs in crate::collection::vec(0u64..10, 2..6)) {
            prop_assert!(xs.len() >= 2 && xs.len() < 6);
            prop_assert!(xs.iter().all(|&x| x < 10));
        }

        #[test]
        fn assume_rejects_without_failing(n in 0usize..10) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }
    }
}
