//! Offline stand-in for the [`proptest`](https://crates.io/crates/proptest)
//! property-testing crate.
//!
//! The build environment has no network access to crates.io, so this
//! workspace vendors the *small subset* of proptest's API its tests
//! actually use:
//!
//! - the [`proptest!`] macro over test functions whose arguments draw from
//!   **numeric range strategies** (`lo..hi` on integers and floats);
//! - `prop_assert!`, `prop_assert_eq!`, and `prop_assume!`;
//! - `#![proptest_config(ProptestConfig::with_cases(n))]`, plus
//!   [`ProptestConfig::with_env_cases`], the one reader of the
//!   `SUDC_PROPTEST_CASES` override.
//!
//! Differences from real proptest: inputs are sampled from a fixed-seed
//! deterministic RNG (derived from the test-function name), there is no
//! shrinking, and failures report the exact inputs so a case can be
//! reproduced by hand. That trade keeps the dependency surface at zero
//! while preserving the tests' semantics.

#![forbid(unsafe_code)]

/// Per-test configuration.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of accepted (non-rejected) cases to run.
    pub cases: u32,
}

impl ProptestConfig {
    /// Runs `cases` accepted cases per property.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }

    /// Runs `SUDC_PROPTEST_CASES` accepted cases per property, or
    /// `default` when the variable is unset — the one reader of the
    /// override, which lets CI run a reduced smoke pass.
    ///
    /// # Panics
    ///
    /// Panics naming the variable if it is set to anything but a positive
    /// integer.
    #[must_use]
    pub fn with_env_cases(default: u32) -> Self {
        Self::with_cases(env_cases(std::env::var(CASES_ENV).ok().as_deref(), default))
    }
}

/// Environment variable overriding every property's case count.
const CASES_ENV: &str = "SUDC_PROPTEST_CASES";

/// The case count for a raw `SUDC_PROPTEST_CASES` value (`None` when
/// unset).
fn env_cases(raw: Option<&str>, default: u32) -> u32 {
    let Some(raw) = raw else { return default };
    match raw.trim().parse() {
        Ok(cases) if cases > 0 => cases,
        _ => panic!("{CASES_ENV}={raw:?}: expected a positive case count"),
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// Why a single case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` failed; the case is discarded, not failed.
    Reject,
    /// `prop_assert!` failed with this message.
    Fail(String),
}

/// Result of one property case.
pub type TestCaseResult = Result<(), TestCaseError>;

/// A source of sampled values — the stand-in for proptest strategies.
pub trait Strategy {
    /// The value type this strategy produces.
    type Value;
    /// Draws one value.
    fn sample(&self, rng: &mut CaseRng) -> Self::Value;
}

macro_rules! int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut CaseRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128) - (self.start as i128);
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let offset = (rng.next_u64() % (span as u64)) as i128;
                (self.start as i128 + offset) as $t
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut CaseRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range strategy");
                let span = (end as i128) - (start as i128) + 1;
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let offset = (rng.next_u64() % (span as u64)) as i128;
                (start as i128 + offset) as $t
            }
        }
    )*};
}
int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut CaseRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                #[allow(clippy::cast_possible_truncation)]
                let u = rng.next_f64() as $t;
                self.start + u * (self.end - self.start)
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut CaseRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range strategy");
                #[allow(clippy::cast_possible_truncation)]
                let u = rng.next_f64() as $t;
                start + u * (end - start)
            }
        }
    )*};
}
float_strategy!(f32, f64);

/// Collection strategies (`proptest::collection` subset).
pub mod collection {
    use crate::{CaseRng, Strategy};

    /// Strategy producing `Vec`s with lengths drawn from a size range.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: core::ops::Range<usize>,
    }

    /// Vectors of `element` draws with length in `size`.
    pub fn vec<S: Strategy>(element: S, size: core::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut CaseRng) -> Self::Value {
            let len = Strategy::sample(&self.size, rng);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// The deterministic RNG cases draw from (SplitMix64).
#[derive(Debug, Clone)]
pub struct CaseRng {
    state: u64,
}

impl CaseRng {
    /// Seeds a generator; property runners derive the seed from the test
    /// name so each property gets a stable, independent sequence.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Seeds from a test name (FNV-1a hash).
    #[must_use]
    pub fn from_name(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Self::new(h)
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Runs one property to the configured number of accepted cases.
///
/// `body` returns `Ok(())`, `Err(Reject)` (assume failed — retried without
/// counting), or `Err(Fail)` (panics with the offending inputs rendered by
/// `describe`).
///
/// # Panics
///
/// Panics when a case fails or when rejection starves the run.
pub fn run_property(
    name: &str,
    config: &ProptestConfig,
    mut body: impl FnMut(&mut CaseRng) -> (String, TestCaseResult),
) {
    let mut rng = CaseRng::from_name(name);
    let mut accepted = 0u32;
    let mut rejected = 0u32;
    let max_rejects = config.cases.saturating_mul(16).max(256);
    while accepted < config.cases {
        let (inputs, outcome) = body(&mut rng);
        match outcome {
            Ok(()) => accepted += 1,
            Err(TestCaseError::Reject) => {
                rejected += 1;
                assert!(
                    rejected <= max_rejects,
                    "property {name}: too many prop_assume! rejections \
                     ({rejected} rejects for {accepted} accepted cases)"
                );
            }
            Err(TestCaseError::Fail(msg)) => {
                panic!("property {name} failed for inputs {{{inputs}}}: {msg}")
            }
        }
    }
}

/// Asserts a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        let holds: bool = $cond;
        if !holds {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        let holds: bool = $cond;
        if !holds {
            return Err($crate::TestCaseError::Fail(format!($($fmt)*)));
        }
    };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, "{a:?} != {b:?}");
    }};
}

/// Discards the current case unless the condition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::TestCaseError::Reject);
        }
    };
}

/// Declares property tests; see the crate docs for the supported subset.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_each! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_each! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_each {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config = $cfg;
            $crate::run_property(stringify!($name), &config, |rng| {
                $(let $arg = $crate::Strategy::sample(&($strategy), rng);)+
                let inputs = [
                    $(format!("{} = {:?}", stringify!($arg), $arg)),+
                ].join(", ");
                let outcome = (|| -> $crate::TestCaseResult {
                    $body
                    Ok(())
                })();
                (inputs, outcome)
            });
        }
        $crate::__proptest_each! { ($cfg) $($rest)* }
    };
}

/// The glob-importable prelude, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assume, proptest, ProptestConfig, Strategy,
        TestCaseError, TestCaseResult,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_respect_bounds(x in 3u32..17, y in -2.5..2.5f64) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-2.5..2.5).contains(&y));
        }

        #[test]
        fn assume_filters_cases(n in 0u32..100) {
            prop_assume!(n % 2 == 0);
            prop_assert!(n % 2 == 0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5))]

        #[test]
        fn config_attribute_parses(v in 0.0..1.0f64) {
            prop_assert!(v >= 0.0);
        }
    }

    #[test]
    fn case_override_defaults_when_unset_and_parses_when_set() {
        assert_eq!(crate::env_cases(None, 48), 48);
        assert_eq!(crate::env_cases(Some(" 8 "), 48), 8);
    }

    #[test]
    #[should_panic(expected = "SUDC_PROPTEST_CASES=\"lots\"")]
    fn unparsable_case_override_names_the_variable() {
        let _ = crate::env_cases(Some("lots"), 48);
    }

    #[test]
    #[should_panic(expected = "SUDC_PROPTEST_CASES=\"0\"")]
    fn zero_case_override_is_rejected() {
        let _ = crate::env_cases(Some("0"), 48);
    }

    #[test]
    fn sampling_is_deterministic_per_name() {
        let mut a = crate::CaseRng::from_name("prop");
        let mut b = crate::CaseRng::from_name("prop");
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    #[should_panic(expected = "failed for inputs")]
    fn failures_report_inputs() {
        crate::run_property("always_fails", &ProptestConfig::with_cases(3), |_rng| {
            (
                "x = 1".to_string(),
                Err(crate::TestCaseError::Fail("boom".to_string())),
            )
        });
    }
}
