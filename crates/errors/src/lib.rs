//! Workspace-wide structured validation errors.
//!
//! Every model crate in `space-udc` accepts caller-supplied scenario
//! parameters (powers, masses, tick lengths, seeds, …). A service built on
//! these models must hand structured diagnostics back to the caller instead
//! of aborting the process, so the workspace's fallible `try_*`
//! constructors and validators all speak one error type: [`SudcError`], a
//! non-empty list of [`Violation`]s, each carrying the *parameter path*,
//! the *offending value*, and the *allowed range*.
//!
//! Validation code builds errors through [`Diagnostics`], which collects
//! **every** violation found in one pass rather than stopping at the first
//! — a caller fixing a request wants the complete list:
//!
//! ```
//! use sudc_errors::Diagnostics;
//!
//! let mut d = Diagnostics::new("SimConfig");
//! d.positive("tick_seconds", f64::NAN);
//! d.unit_interval("imaging_duty", 1.5);
//! let err = d.finish().unwrap_err();
//! assert_eq!(err.violations().len(), 2);
//! assert!(err.to_string().contains("tick_seconds"));
//! assert!(err.to_string().contains("imaging_duty"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// One rejected parameter: where it lives, what it was, what was allowed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Parameter path, e.g. `SimConfig.tick_seconds` or
    /// `observations[3].driver`.
    pub path: String,
    /// The offending value, rendered.
    pub value: String,
    /// Human-readable description of the allowed range.
    pub allowed: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "`{}` = {} (allowed: {})",
            self.path, self.value, self.allowed
        )
    }
}

/// A structured validation failure: one or more [`Violation`]s.
///
/// Construct through [`Diagnostics`] (multi-check collection) or
/// [`SudcError::single`] (one known violation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SudcError {
    context: String,
    violations: Vec<Violation>,
}

impl SudcError {
    /// Builds an error from collected violations.
    ///
    /// An empty `violations` list is itself a logic error; it is reported
    /// as a single internal violation rather than silently accepted.
    #[must_use]
    pub fn new(context: impl Into<String>, mut violations: Vec<Violation>) -> Self {
        if violations.is_empty() {
            violations.push(Violation {
                path: "(internal)".to_string(),
                value: "SudcError with no violations".to_string(),
                allowed: "at least one recorded violation".to_string(),
            });
        }
        Self {
            context: context.into(),
            violations,
        }
    }

    /// Builds an error from one violation.
    #[must_use]
    pub fn single(
        context: impl Into<String>,
        path: impl Into<String>,
        value: impl fmt::Display,
        allowed: impl Into<String>,
    ) -> Self {
        Self::new(
            context,
            vec![Violation {
                path: path.into(),
                value: value.to_string(),
                allowed: allowed.into(),
            }],
        )
    }

    /// What was being validated (a type or function name).
    #[must_use]
    pub fn context(&self) -> &str {
        &self.context
    }

    /// Every violation found, in check order.
    #[must_use]
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Merges another error's violations into this one.
    #[must_use]
    pub fn merge(mut self, other: Self) -> Self {
        self.violations.extend(other.violations);
        self
    }
}

impl fmt::Display for SudcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid {}: ", self.context)?;
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                f.write_str("; ")?;
            }
            write!(f, "{v}")?;
        }
        Ok(())
    }
}

impl std::error::Error for SudcError {}

/// Collects violations across a whole validation pass.
///
/// Each `check` method records a violation when its condition fails and
/// keeps going, so one [`finish`](Diagnostics::finish) reports everything
/// wrong with the input at once.
#[derive(Debug, Clone)]
pub struct Diagnostics {
    context: String,
    violations: Vec<Violation>,
}

impl Diagnostics {
    /// Starts a validation pass for `context` (a type or function name).
    #[must_use]
    pub fn new(context: impl Into<String>) -> Self {
        Self {
            context: context.into(),
            violations: Vec::new(),
        }
    }

    /// Records a violation unconditionally.
    pub fn violation(
        &mut self,
        path: impl Into<String>,
        value: impl fmt::Display,
        allowed: impl Into<String>,
    ) {
        self.violations.push(Violation {
            path: path.into(),
            value: value.to_string(),
            allowed: allowed.into(),
        });
    }

    /// Records a violation unless `ok` holds. Returns `ok` so callers can
    /// gate dependent checks.
    pub fn ensure(
        &mut self,
        ok: bool,
        path: impl Into<String>,
        value: impl fmt::Display,
        allowed: impl Into<String>,
    ) -> bool {
        if !ok {
            self.violation(path, value, allowed);
        }
        ok
    }

    /// Requires `v` to be finite (neither NaN nor ±∞).
    pub fn finite(&mut self, path: impl Into<String>, v: f64) -> bool {
        self.ensure(v.is_finite(), path, v, "a finite number")
    }

    /// Requires `v` to be finite and strictly positive.
    pub fn positive(&mut self, path: impl Into<String>, v: f64) -> bool {
        self.ensure(v.is_finite() && v > 0.0, path, v, "positive and finite")
    }

    /// Requires `v` to be finite and non-negative.
    pub fn non_negative(&mut self, path: impl Into<String>, v: f64) -> bool {
        self.ensure(
            v.is_finite() && v >= 0.0,
            path,
            v,
            "non-negative and finite",
        )
    }

    /// Requires `v` to be finite and inside `[lo, hi]`.
    pub fn in_range(&mut self, path: impl Into<String>, v: f64, lo: f64, hi: f64) -> bool {
        self.ensure(
            v.is_finite() && v >= lo && v <= hi,
            path,
            v,
            format!("in [{lo}, {hi}]"),
        )
    }

    /// Requires `v` to be finite and inside `[0, 1]`.
    pub fn unit_interval(&mut self, path: impl Into<String>, v: f64) -> bool {
        self.in_range(path, v, 0.0, 1.0)
    }

    /// Requires an integer count to be at least one.
    pub fn positive_count(&mut self, path: impl Into<String>, n: u64) -> bool {
        self.ensure(n > 0, path, n, "at least 1")
    }

    /// Ends the pass: `Ok(())` if clean, the collected [`SudcError`]
    /// otherwise.
    ///
    /// # Errors
    ///
    /// Returns every recorded violation as one [`SudcError`].
    pub fn finish(self) -> Result<(), SudcError> {
        if self.violations.is_empty() {
            Ok(())
        } else {
            Err(SudcError::new(self.context, self.violations))
        }
    }

    /// Ends the pass, yielding `ok` when clean.
    ///
    /// # Errors
    ///
    /// Returns every recorded violation as one [`SudcError`].
    pub fn into_result<T>(self, ok: T) -> Result<T, SudcError> {
        self.finish().map(|()| ok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_pass_is_ok() {
        let mut d = Diagnostics::new("X");
        assert!(d.positive("a", 1.0));
        assert!(d.unit_interval("b", 0.5));
        assert!(d.finish().is_ok());
    }

    #[test]
    fn all_violations_are_collected() {
        let mut d = Diagnostics::new("SimConfig");
        assert!(!d.positive("tick_seconds", -1.0));
        assert!(!d.finite("mttf", f64::NAN));
        assert!(!d.positive_count("reps", 0));
        let err = d.finish().unwrap_err();
        assert_eq!(err.violations().len(), 3);
        assert_eq!(err.context(), "SimConfig");
        let msg = err.to_string();
        assert!(msg.contains("tick_seconds") && msg.contains("-1"));
        assert!(msg.contains("mttf") && msg.contains("NaN"));
        assert!(msg.contains("reps"));
    }

    #[test]
    fn numeric_checks_reject_non_finite() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut d = Diagnostics::new("t");
            assert!(!d.positive("p", bad));
            assert!(!d.non_negative("n", bad));
            assert!(!d.in_range("r", bad, 0.0, 1.0));
            assert_eq!(d.finish().unwrap_err().violations().len(), 3);
        }
    }

    #[test]
    fn boundary_values_are_accepted() {
        let mut d = Diagnostics::new("t");
        assert!(d.non_negative("z", 0.0));
        assert!(d.in_range("lo", 0.0, 0.0, 1.0));
        assert!(d.in_range("hi", 1.0, 0.0, 1.0));
        assert!(d.finish().is_ok());
    }

    #[test]
    fn single_and_merge() {
        let a = SudcError::single("Cer", "exponent", 3.0, "in [0, 2]");
        let b = SudcError::single("Cer", "reference", -1.0, "positive");
        let merged = a.merge(b);
        assert_eq!(merged.violations().len(), 2);
        assert!(merged.to_string().starts_with("invalid Cer:"));
    }

    #[test]
    fn empty_violation_list_is_reported_not_hidden() {
        let err = SudcError::new("X", vec![]);
        assert_eq!(err.violations().len(), 1);
        assert!(err.to_string().contains("internal"));
    }

    #[test]
    fn error_trait_and_send_sync() {
        fn assert_err<T: std::error::Error + Send + Sync>() {}
        assert_err::<SudcError>();
    }
}
