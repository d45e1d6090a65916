//! `stackbench compare --base a.json... --change b.json...`: judges each
//! (workload, end-to-end metric) of two sets of untraced runs, as written
//! by `--out`, against the metric's bound.
//!
//! Runs pair up in the order given, so alternate the two sides when
//! making them. The allowed worsening is the metric's bound, a share of
//! the base median; for `setup_s` it is at least `SETUP_FLOOR_S`. A
//! verdict is one of:
//! - `unresolved`: either side's spread (IQR over median) is wider than
//!   the allowed worsening, and not every change run beats every base run;
//! - `regressed`: the change median is worse than the base median by more
//!   than the allowed worsening;
//! - `improved`: the change wins at least nine tenths of the pairs and
//!   the medians differ by more than the base's IQR (or, under a wide
//!   spread, every change run beats every base run);
//! - `within-bound`: otherwise.

use std::collections::BTreeMap;

use sudc_par::json::Json;

use crate::json::{self, Access};
use crate::spec::{spec, Metric};
use crate::stats::{median, quartiles, relative_spread};

/// Smallest worsening of `setup_s` that counts, in seconds. Set-ups of
/// microseconds swing by tens of percent on host noise alone; what the
/// metric has to catch is work moved out of the timed passes, which is
/// on the scale of a pass.
pub const SETUP_FLOOR_S: f64 = 0.025;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    WithinBound,
    Regressed,
    Improved,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::WithinBound => "within-bound",
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
        }
    }
}

pub struct Judgement {
    /// Change-over-base worsening as a share of the base median;
    /// negative is better.
    pub worse: f64,
    /// The worsening allowed, as a share of the base median.
    pub allowed: f64,
    pub wins: usize,
    pub pairs: usize,
    pub verdict: Verdict,
}

pub fn judge(m: &Metric, base: &[f64], change: &[f64]) -> Judgement {
    let better = |c: f64, b: f64| if m.lower_is_better { c < b } else { c > b };
    let (mb, mc) = (median(base), median(change));
    let worse = if m.lower_is_better { mc - mb } else { mb - mc } / mb.abs();
    let allowed = if m.name == "setup_s" {
        m.bound.max(SETUP_FLOOR_S / mb.abs())
    } else {
        m.bound
    };
    let pairs = base.len().min(change.len());
    let wins = (0..pairs).filter(|&i| better(change[i], base[i])).count();
    let every_run_better = change.iter().all(|&c| base.iter().all(|&b| better(c, b)));
    let spread = relative_spread(base).max(relative_spread(change));
    let [q1, _, q3] = quartiles(base);
    let verdict = if spread > allowed {
        if every_run_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if worse > allowed {
        Verdict::Regressed
    } else if worse < 0.0 && wins * 10 >= pairs * 9 && (mc - mb).abs() > q3 - q1 {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    };
    Judgement {
        worse,
        allowed,
        wins,
        pairs,
        verdict,
    }
}

/// Untraced run records by workload, in the order given.
type Runs = BTreeMap<String, Vec<Json>>;

fn load(paths: &[&String]) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let record = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        if record.get("trace") == Some(&Json::Bool(true)) {
            eprintln!("compare: skipping traced run {path}");
            continue;
        }
        let workload = record
            .get("workload")
            .and_then(Access::as_str)
            .ok_or_else(|| format!("{path}: no workload"))?
            .to_string();
        runs.entry(workload).or_default().push(record);
    }
    Ok(runs)
}

fn values(records: &[Json], metric: &str) -> Result<Vec<f64>, String> {
    records
        .iter()
        .map(|r| {
            r.get("metrics")
                .and_then(|m| m.get(metric))
                .and_then(|m| m.get("value"))
                .and_then(Access::as_f64)
                .ok_or_else(|| format!("a run lacks metric {metric}"))
        })
        .collect()
}

pub fn main(args: &[String]) -> Result<(), String> {
    let (mut base, mut change) = (Vec::new(), Vec::new());
    let mut side = None;
    for a in args {
        match a.as_str() {
            "--base" => side = Some(&mut base),
            "--change" => side = Some(&mut change),
            _ => side
                .as_mut()
                .ok_or("compare: name files after --base or --change")?
                .push(a),
        }
    }
    let (base, change) = (load(&base)?, load(&change)?);
    if base.is_empty() || change.is_empty() {
        return Err("compare: both sides need at least one untraced run".to_string());
    }

    println!(
        "workload metric base_median [q1 q3] spread change_median [q1 q3] spread worse wins/pairs verdict"
    );
    let mut regressed = 0;
    for (workload, b_runs) in &base {
        let Some(c_runs) = change.get(workload) else {
            println!("{workload}: no change runs");
            continue;
        };
        for m in &spec()?.end_to_end {
            let (b, c) = (values(b_runs, &m.name)?, values(c_runs, &m.name)?);
            let j = judge(m, &b, &c);
            let ([bq1, _, bq3], [cq1, _, cq3]) = (quartiles(&b), quartiles(&c));
            println!(
                "{workload} {} {:.6} [{bq1:.6} {bq3:.6}] {:.1}% {:.6} [{cq1:.6} {cq3:.6}] {:.1}% \
                 {:+.2}% {}/{} {} (allowed {:.0}%)",
                m.name,
                median(&b),
                100.0 * relative_spread(&b),
                median(&c),
                100.0 * relative_spread(&c),
                100.0 * j.worse,
                j.wins,
                j.pairs,
                j.verdict.name(),
                100.0 * j.allowed,
            );
            regressed += usize::from(j.verdict == Verdict::Regressed);
        }
    }
    if regressed > 0 {
        return Err(format!("{regressed} metric(s) regressed"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static Metric {
        spec().unwrap().end_to_end(name).unwrap()
    }

    #[test]
    fn identical_sides_are_within_bound() {
        let runs = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98];
        let j = judge(metric("pass_p50_s"), &runs, &runs);
        assert_eq!(j.verdict, Verdict::WithinBound);
        assert_eq!(j.wins, 0);
    }

    #[test]
    fn a_slower_change_regresses_and_a_faster_one_improves() {
        let m = metric("pass_p50_s");
        let base = [1.00, 1.01, 0.99, 1.00, 1.01, 0.99, 1.00, 1.01, 0.99, 1.00];
        let slow: Vec<f64> = base.iter().map(|v| v * (1.0 + 2.0 * m.bound)).collect();
        assert_eq!(judge(m, &base, &slow).verdict, Verdict::Regressed);
        let fast: Vec<f64> = base.iter().map(|v| v * 0.9).collect();
        let j = judge(m, &base, &fast);
        assert_eq!((j.verdict, j.wins, j.pairs), (Verdict::Improved, 10, 10));
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let base = [1.0, 1.5, 0.7, 1.2];
        let change = [1.1, 0.8, 1.4, 1.0];
        assert_eq!(
            judge(metric("pass_p50_s"), &base, &change).verdict,
            Verdict::Unresolved
        );
    }

    #[test]
    fn higher_is_better_metrics_flip_the_sign() {
        let m = metric("items_per_s");
        let base = [100.0, 101.0, 99.0, 100.0];
        let fewer: Vec<f64> = base.iter().map(|v| v * (1.0 - 2.0 * m.bound)).collect();
        assert_eq!(judge(m, &base, &fewer).verdict, Verdict::Regressed);
    }

    #[test]
    fn setup_time_is_judged_against_an_absolute_floor() {
        let m = metric("setup_s");
        // Microsecond set-ups with a 50 % spread and a doubled median.
        let base = [40e-6, 45e-6, 80e-6, 50e-6, 42e-6, 85e-6];
        let doubled: Vec<f64> = base.iter().map(|v| v * 2.0).collect();
        assert_eq!(judge(m, &base, &doubled).verdict, Verdict::WithinBound);
        // Moving a 30 ms pass's worth of work into set-up counts.
        let moved: Vec<f64> = base.iter().map(|v| v + 0.030).collect();
        assert_eq!(judge(m, &base, &moved).verdict, Verdict::Regressed);
        // Above the floor the relative bound rules again.
        let slow = [1.0, 1.01, 0.99, 1.0];
        let slower: Vec<f64> = slow.iter().map(|v| v * (1.0 + 2.0 * m.bound)).collect();
        assert_eq!(judge(m, &slow, &slower).verdict, Verdict::Regressed);
    }
}
