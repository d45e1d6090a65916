//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation as text rows.
//!
//! Each experiment is a pure function returning a formatted report, so the
//! `figures` binary, the benches, and the integration tests all exercise
//! exactly the same code:
//!
//! ```
//! let table = sudc_bench::experiments::table2();
//! assert!(table.contains("RTX 3090"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod format;
pub mod harness;

pub use experiments::{all_experiments, run_experiment};
