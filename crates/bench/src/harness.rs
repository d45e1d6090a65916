//! Shared plumbing for the `cargo bench -p sudc-bench` binaries and the
//! `figures` experiments: strict environment knobs, wall-clock timing,
//! the parallel-speedup guard and the BENCH report writer.
//!
//! Knobs are strict: an unset variable takes its default, but a set
//! variable that does not parse — `SUDC_SIM_SCALE_REPS=abc`, or a list
//! element such as the `x` in `SUDC_SIM_SCALE_FLEETS=1000,x` — panics
//! with a message naming the variable and the bad value instead of
//! silently benchmarking something else. The experiments' durations and
//! counts ([`env_positive`]) must also be positive.

use std::hint::black_box;
use std::str::FromStr;
use std::time::Instant;

use sudc_par::json::Json;

/// Reads the knob `name`, or `default` when it is unset.
///
/// # Panics
///
/// Panics if `name` is set but does not parse as a `T`.
#[must_use]
pub fn env_or<T: FromStr>(name: &str, default: T) -> T {
    std::env::var(name).map_or(default, |raw| parse_knob(name, &raw))
}

/// Reads the knob `name` that must be strictly positive (a duration or a
/// count), or `default` when it is unset.
///
/// # Panics
///
/// Panics naming the variable and value if `name` is set but does not
/// parse as a `T` or is not greater than zero (NaN included).
#[must_use]
pub fn env_positive<T: FromStr + PartialOrd + Default>(name: &str, default: T) -> T {
    std::env::var(name).map_or(default, |raw| parse_positive(name, &raw))
}

/// Reads the comma-separated list knob `name`, or parses `default` when
/// it is unset.
///
/// # Panics
///
/// Panics if any element does not parse as a `T` (an empty list is one
/// empty element).
#[must_use]
pub fn env_list<T: FromStr>(name: &str, default: &str) -> Vec<T> {
    let raw = std::env::var(name).unwrap_or_else(|_| default.to_string());
    parse_list(name, &raw)
}

/// Parses one knob value, naming `name` and `raw` on failure.
///
/// # Panics
///
/// Panics if `raw` does not parse as a `T`.
#[must_use]
pub fn parse_knob<T: FromStr>(name: &str, raw: &str) -> T {
    raw.trim().parse().unwrap_or_else(|_| {
        panic!(
            "{name}={raw:?}: {:?} is not a valid {}",
            raw.trim(),
            std::any::type_name::<T>()
        )
    })
}

/// Parses one strictly positive knob value, naming `name` and `raw` on
/// failure.
///
/// # Panics
///
/// Panics if `raw` does not parse as a `T` or is not greater than zero.
#[must_use]
pub fn parse_positive<T: FromStr + PartialOrd + Default>(name: &str, raw: &str) -> T {
    let value: T = parse_knob(name, raw);
    assert!(
        value > T::default(),
        "{name}={raw:?}: {:?} is not positive",
        raw.trim()
    );
    value
}

/// Parses a comma-separated knob value element by element.
///
/// # Panics
///
/// Panics naming `name` and the bad element if any element does not
/// parse as a `T`.
#[must_use]
pub fn parse_list<T: FromStr>(name: &str, raw: &str) -> Vec<T> {
    raw.split(',')
        .map(|item| {
            item.trim().parse().unwrap_or_else(|_| {
                panic!(
                    "{name}={raw:?}: element {:?} is not a valid {}",
                    item.trim(),
                    std::any::type_name::<T>()
                )
            })
        })
        .collect()
}

/// Minimum wall-clock milliseconds over `reps` runs — the standard
/// low-interference estimator: scheduler preemption and frequency
/// throttling only ever add time, so the minimum is the least-biased
/// sample of the true cost on a shared machine.
pub fn time_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// CPUs available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Serial-over-parallel speedup, or `None` ("not measured") when the
/// parallel run had one worker or the host one CPU: serial over serial
/// on one core measures noise, not scaling.
#[must_use]
pub fn speedup(serial_ms: f64, parallel_ms: f64, threads: usize, nproc: usize) -> Option<f64> {
    (threads > 1 && nproc > 1).then(|| serial_ms / parallel_ms)
}

/// A [`speedup`] for the console: `1.79x` or `not measured`.
#[must_use]
pub fn speedup_text(speedup: Option<f64>) -> String {
    speedup.map_or_else(|| "not measured".to_string(), |x| format!("{x:.2}x"))
}

/// A [`speedup`] for a BENCH report: the ratio, or `null`.
#[must_use]
pub fn speedup_json(speedup: Option<f64>) -> Json {
    speedup.map_or(Json::Null, Json::from)
}

/// Writes `report` to the path in the environment variable `out_var`,
/// defaulting to `file_name` at the repository root.
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn write_report(out_var: &str, file_name: &str, report: &Json) {
    let out = std::env::var(out_var).unwrap_or_else(|_| {
        format!(
            "{}/{file_name}",
            concat!(env!("CARGO_MANIFEST_DIR"), "/../..")
        )
    });
    std::fs::write(&out, report.to_string_pretty() + "\n")
        .unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!("\nwrote {out}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knobs_parse_trimmed_values() {
        assert_eq!(parse_knob::<usize>("SUDC_SIM_SCALE_REPS", " 7 "), 7);
        assert_eq!(parse_positive::<f64>("SUDC_SIM_DURATION_S", "600"), 600.0);
        assert_eq!(
            parse_list::<u32>("SUDC_SIM_SCALE_FLEETS", "1000, 10000"),
            [1000, 10000]
        );
    }

    #[test]
    #[should_panic(expected = "SUDC_SIM_SCALE_REPS=\"abc\"")]
    fn garbage_scalar_knob_names_the_variable_and_value() {
        let _: usize = parse_knob("SUDC_SIM_SCALE_REPS", "abc");
    }

    #[test]
    #[should_panic(expected = "SUDC_CHAOS_REPS=\"abc\"")]
    fn garbage_experiment_knob_names_the_variable_and_value() {
        let _: u32 = parse_positive("SUDC_CHAOS_REPS", "abc");
    }

    #[test]
    #[should_panic(expected = "SUDC_SIM_REPS=\"0\": \"0\" is not positive")]
    fn zero_experiment_count_is_rejected() {
        let _: u32 = parse_positive("SUDC_SIM_REPS", "0");
    }

    #[test]
    #[should_panic(expected = "SUDC_HEALTH_DURATION_S=\"NaN\"")]
    fn nan_experiment_duration_is_rejected() {
        let _: f64 = parse_positive("SUDC_HEALTH_DURATION_S", "NaN");
    }

    #[test]
    #[should_panic(expected = "SUDC_SIM_SCALE_FLEETS=\"1000,x\": element \"x\"")]
    fn garbage_list_element_names_the_variable_and_element() {
        let _: Vec<u32> = parse_list("SUDC_SIM_SCALE_FLEETS", "1000,x");
    }

    #[test]
    #[should_panic(expected = "SUDC_DSE_SCALE_WORKERS=\"\"")]
    fn empty_list_is_rejected() {
        let _: Vec<usize> = parse_list("SUDC_DSE_SCALE_WORKERS", "");
    }

    #[test]
    fn one_worker_or_one_cpu_speedup_is_not_measured() {
        assert_eq!(speedup(10.0, 5.0, 1, 8), None);
        assert_eq!(speedup(10.0, 5.0, 8, 1), None);
        assert_eq!(speedup(10.0, 5.0, 2, 2), Some(2.0));
        assert_eq!(speedup_text(None), "not measured");
        assert_eq!(speedup_json(None), Json::Null);
    }
}
