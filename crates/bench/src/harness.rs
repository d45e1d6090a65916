//! Shared plumbing for the `cargo bench -p sudc-bench` binaries: strict
//! environment knobs, the one timer, the fleet point the sim-kernel
//! benches share, and the one BENCH report.
//!
//! Knobs are strict: an unset variable takes its default, but a set
//! variable that does not parse (`SUDC_BENCH_REPS=abc`, or the `x` in
//! `SUDC_BENCH_FLEETS=1000,x`) panics naming the variable and the bad
//! value instead of silently benchmarking something else.
//!
//! Every bench writes `BENCH_<bench>.json` through [`Report`]:
//! `{ bench, host: { nproc }, threads, points: [ { name, layer, n,
//! min_ms, p50_ms, p99_ms, gate } ] }`. `gate` is `null`, a paired
//! overhead against an off-switch point of the same run (`{ vs,
//! max_overhead, overhead, pass }`, where a `null` `max_overhead` is
//! ungated), or a throughput floor (`{ min_items_per_s, items_per_s,
//! pass }`).

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::Instant;

use sudc_par::json::Json;
use sudc_par::rng::Rng64;
use sudc_sim::{RunTrace, SimConfig, DEFAULT_SEED};
use sudc_units::Seconds;

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

/// Timing repetitions per point: `SUDC_BENCH_REPS`, or the bench's own
/// `default`.
///
/// # Panics
///
/// Panics if `SUDC_BENCH_REPS` is set but is not a positive integer.
#[must_use]
pub fn reps(default: usize) -> usize {
    env_positive("SUDC_BENCH_REPS", default)
}

/// Fleet sizes for the sim-kernel benches: `SUDC_BENCH_FLEETS`, or the
/// bench's own comma-separated `default`.
///
/// # Panics
///
/// Panics if `SUDC_BENCH_FLEETS` is set and an element is not a `u32`.
#[must_use]
pub fn fleets(default: &str) -> Vec<u32> {
    env_list("SUDC_BENCH_FLEETS", default)
}

/// CPUs available to this process.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Wall-clock order statistics of one timed quantity, in milliseconds.
///
/// The minimum is the low-interference estimate (preemption and
/// throttling only ever add time); the median is what a typical run
/// costs; the 99th percentile is nearest-rank, so with fewer than 100
/// repetitions it is the slowest sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Fastest sample.
    pub min_ms: f64,
    /// Median sample (nearest rank).
    pub p50_ms: f64,
    /// 99th-percentile sample (nearest rank).
    pub p99_ms: f64,
}

impl Timing {
    fn of(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Self {
            min_ms: samples[0],
            p50_ms: nearest_rank(&samples, 0.50),
            p99_ms: nearest_rank(&samples, 0.99),
        }
    }
}

/// Nearest-rank `q` quantile of non-empty ascending `sorted`.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    sorted[((q * sorted.len() as f64).ceil() as usize).max(1) - 1]
}

/// Wall-clock milliseconds of one call.
fn sample_ms<R>(f: &mut impl FnMut() -> R) -> f64 {
    let start = Instant::now();
    black_box(f());
    start.elapsed().as_secs_f64() * 1e3
}

/// Times `reps` calls of `f` (at least one).
pub fn time<R>(reps: usize, mut f: impl FnMut() -> R) -> Timing {
    Timing::of((0..reps.max(1)).map(|_| sample_ms(&mut f)).collect())
}

/// Two arms timed against each other, see [`time_pair`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Paired {
    /// The first arm (the off-switch).
    pub a: Timing,
    /// The second arm (the layer switched on).
    pub b: Timing,
    /// Median over the pairs of `b`'s time over `a`'s.
    pub ratio: f64,
}

/// Times `reps` pairs of calls of `a` and `b` in alternating order —
/// `(a, b)`, `(b, a)`, `(a, b)`, … — so that neither arm always runs
/// first: a cold cache or a host that just got busier then biases both
/// arms alike. Every overhead is measured this way.
pub fn time_pair<RA, RB>(
    reps: usize,
    mut a: impl FnMut() -> RA,
    mut b: impl FnMut() -> RB,
) -> Paired {
    let (mut a_ms, mut b_ms) = (Vec::new(), Vec::new());
    for pair in 0..reps.max(1) {
        if pair % 2 == 0 {
            a_ms.push(sample_ms(&mut a));
            b_ms.push(sample_ms(&mut b));
        } else {
            b_ms.push(sample_ms(&mut b));
            a_ms.push(sample_ms(&mut a));
        }
    }
    let mut ratios: Vec<f64> = a_ms.iter().zip(&b_ms).map(|(a, b)| b / a).collect();
    ratios.sort_by(f64::total_cmp);
    Paired {
        ratio: nearest_rank(&ratios, 0.50),
        a: Timing::of(a_ms),
        b: Timing::of(b_ms),
    }
}

/// Simulated satellite-seconds per fleet point: about 1.8 M events at
/// every fleet size, enough for per-satellite setup to amortize out of
/// the steady-state rate.
const FLEET_SAT_SECONDS: f64 = 18_000_000.0;

/// The nominal workload the sim, bus and health benches run at `fleet`
/// satellites: `SimConfig::try_scaled_fleet` for `max(60 s, budget /
/// fleet)` simulated seconds, and the default seed's first stream.
///
/// # Panics
///
/// Panics if `fleet` is zero.
#[must_use]
pub fn fleet_point(fleet: u32) -> (SimConfig, u64) {
    let duration_s = (FLEET_SAT_SECONDS / f64::from(fleet)).max(60.0);
    let cfg = SimConfig::try_scaled_fleet(fleet, Seconds::new(duration_s))
        .expect("fleet sizes are positive");
    (cfg, Rng64::stream(DEFAULT_SEED, 0).next_u64())
}

/// [`RunTrace::fingerprint`] of [`fleet_point`] at each default fleet
/// size. The traces are the pre-rebuild kernel's, which the current
/// kernel reproduced before that kernel was retired; the values were
/// re-computed once when the fingerprint stopped hashing the `events`
/// and `peak_event_queue` diagnostics, with nothing else changed. The
/// ignored test `fleet_fingerprints_match_the_kernel`
/// checks `sudc_sim::kernel::run` against all six and prints the
/// recomputed table on a mismatch.
const FLEET_FINGERPRINTS: [(u32, u64); 6] = [
    (64, 0xb696_97c0_3d21_803d),
    (1_000, 0x2b11_ea34_c70b_eab3),
    (10_000, 0xe8ac_006e_dca8_8a03),
    (100_000, 0x7909_df51_18a2_76d0),
    (300_000, 0x7f63_72f1_8923_8a14),
    (1_000_000, 0xfafe_d260_3c27_4803),
];

/// Asserts that `trace`, the kernel's run of [`fleet_point`]`(fleet)`,
/// has the committed fingerprint of that point.
///
/// # Panics
///
/// Panics if the fingerprint differs, or if `fleet` has no committed
/// fingerprint: an unchecked fleet is never timed.
pub fn check_fleet_fingerprint(fleet: u32, trace: &RunTrace) {
    let want = FLEET_FINGERPRINTS
        .iter()
        .find_map(|&(f, fp)| (f == fleet).then_some(fp))
        .unwrap_or_else(|| {
            panic!(
                "no committed fingerprint for {fleet} satellites; \
                 the checked fleets are {:?}",
                FLEET_FINGERPRINTS.map(|(f, _)| f)
            )
        });
    assert_eq!(
        trace.fingerprint(),
        want,
        "the kernel's trace drifted from the committed fingerprint at {fleet} satellites"
    );
}

/// One timed quantity of a [`Report`]: `n` items per call (events,
/// requests, schedules, …) through the workspace `layer` it exercises.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    name: String,
    layer: &'static str,
    n: u64,
    timing: Timing,
    gate: Json,
    pass: bool,
}

impl Point {
    /// An ungated point; `name` is unique within its report.
    #[must_use]
    pub fn new(name: impl Into<String>, layer: &'static str, n: u64, timing: Timing) -> Self {
        Self {
            name: name.into(),
            layer,
            n,
            timing,
            gate: Json::Null,
            pass: true,
        }
    }

    /// Gates the point on `paired.ratio − 1`, its overhead against the
    /// point `vs` (the off-switch, timed as `paired.a`), at most `max`;
    /// `max: None` reports the overhead ungated.
    #[must_use]
    pub fn vs(self, vs: &str, max: Option<f64>, paired: &Paired) -> Self {
        let overhead = paired.ratio - 1.0;
        let pass = max.is_none_or(|m| overhead <= m);
        let gate = Json::object()
            .with("vs", vs)
            .with("max_overhead", max.map_or(Json::Null, Json::from))
            .with("overhead", overhead)
            .with("pass", pass);
        Self { gate, pass, ..self }
    }

    /// Gates the point on at least `min` items per second at its
    /// minimum time.
    #[must_use]
    pub fn min_items_per_s(self, min: f64) -> Self {
        let items_per_s = self.n as f64 / (self.timing.min_ms / 1e3);
        let pass = items_per_s >= min;
        let gate = Json::object()
            .with("min_items_per_s", min)
            .with("items_per_s", items_per_s)
            .with("pass", pass);
        Self { gate, pass, ..self }
    }
}

/// One bench's points, written to `BENCH_<bench>.json` in the schema
/// of the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    bench: &'static str,
    threads: usize,
    points: Vec<Point>,
}

impl Report {
    /// An empty report for `bench`, at the ambient worker count.
    #[must_use]
    pub fn new(bench: &'static str) -> Self {
        Self {
            bench,
            threads: sudc_par::threads(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, point: Point) {
        self.points.push(point);
    }

    /// The report in the BENCH schema, and the names of the points whose
    /// gate failed.
    fn to_json(&self) -> (Json, Vec<&str>) {
        let mut failed = Vec::new();
        let points: Vec<Json> = self
            .points
            .iter()
            .map(|p| {
                if !p.pass {
                    failed.push(p.name.as_str());
                }
                Json::object()
                    .with("name", p.name.as_str())
                    .with("layer", p.layer)
                    .with("n", Json::try_from(p.n).expect("item count fits f64"))
                    .with("min_ms", p.timing.min_ms)
                    .with("p50_ms", p.timing.p50_ms)
                    .with("p99_ms", p.timing.p99_ms)
                    .with("gate", p.gate.clone())
            })
            .collect();
        let report = Json::object()
            .with("bench", self.bench)
            .with("host", Json::object().with("nproc", nproc()))
            .with("threads", self.threads)
            .with("points", points);
        (report, failed)
    }

    /// Writes `BENCH_<bench>.json` into `dir`, creating `dir` if it does
    /// not exist, and prints one line per point.
    ///
    /// # Errors
    ///
    /// After writing, returns a message naming every point whose gate
    /// failed.
    ///
    /// # Panics
    ///
    /// Panics if `dir` cannot be created, the file cannot be written or
    /// a point's `n` exceeds 2^53.
    pub fn write_to(&self, dir: &Path) -> Result<PathBuf, String> {
        let (report, failed) = self.to_json();
        let out = dir.join(format!("BENCH_{}.json", self.bench));
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("creating {}: {e}", dir.display()));
        std::fs::write(&out, report.to_string_pretty() + "\n")
            .unwrap_or_else(|e| panic!("writing {}: {e}", out.display()));
        println!(
            "BENCH {} ({} threads, nproc {})",
            self.bench,
            self.threads,
            nproc()
        );
        for p in &self.points {
            let t = p.timing;
            println!(
                "  {:<24} {:<11} n {:>10}  min {:>9.3} ms  p50 {:>9.3} ms  p99 {:>9.3} ms  {}",
                p.name,
                p.layer,
                p.n,
                t.min_ms,
                t.p50_ms,
                t.p99_ms,
                p.gate.to_string_compact()
            );
        }
        println!("wrote {}", out.display());
        if failed.is_empty() {
            Ok(out)
        } else {
            let failed = failed.join(", ");
            Err(format!("BENCH {}: gate failed at {failed}", self.bench))
        }
    }

    /// [`Report::write_to`] the directory `BENCH_OUT_DIR`, default the
    /// repository root.
    ///
    /// # Panics
    ///
    /// Panics after writing if any gate failed, naming every failing
    /// point, or if the file cannot be written.
    pub fn write(&self) {
        let dir = std::env::var("BENCH_OUT_DIR")
            .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../..").to_string());
        if let Err(failed) = self.write_to(Path::new(&dir)) {
            panic!("{failed}");
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;

    use super::*;

    #[test]
    fn knobs_parse_trimmed_values() {
        assert_eq!(parse_knob::<usize>("SUDC_BENCH_REPS", " 7 "), 7);
        assert_eq!(parse_positive::<usize>("SUDC_BENCH_REPS", " 600 "), 600);
        assert_eq!(
            parse_list::<u32>("SUDC_BENCH_FLEETS", "1000, 10000"),
            [1000, 10000]
        );
    }

    #[test]
    #[should_panic(expected = "SUDC_BENCH_REPS=\"abc\"")]
    fn garbage_scalar_knob_names_the_variable_and_value() {
        let _: usize = parse_knob("SUDC_BENCH_REPS", "abc");
    }

    #[test]
    #[should_panic(expected = "SUDC_BENCH_REPS=\"abc\"")]
    fn garbage_positive_knob_names_the_variable_and_value() {
        let _: usize = parse_positive("SUDC_BENCH_REPS", "abc");
    }

    #[test]
    #[should_panic(expected = "SUDC_BENCH_REPS=\"0\": \"0\" is not positive")]
    fn zero_positive_count_is_rejected() {
        let _: usize = parse_positive("SUDC_BENCH_REPS", "0");
    }

    #[test]
    #[should_panic(expected = "SUDC_BENCH_REPS=\"NaN\": \"NaN\" is not positive")]
    fn nan_positive_value_is_rejected() {
        let _: f64 = parse_positive("SUDC_BENCH_REPS", "NaN");
    }

    #[test]
    #[should_panic(expected = "SUDC_BENCH_FLEETS=\"1000,x\": element \"x\"")]
    fn garbage_list_element_names_the_variable_and_element() {
        let _: Vec<u32> = parse_list("SUDC_BENCH_FLEETS", "1000,x");
    }

    #[test]
    #[should_panic(expected = "SUDC_BENCH_FLEETS=\"\"")]
    fn empty_list_is_rejected() {
        let _: Vec<u32> = parse_list("SUDC_BENCH_FLEETS", "");
    }

    #[test]
    fn timing_reports_nearest_rank_order_statistics() {
        let t = Timing::of(vec![5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((t.min_ms, t.p50_ms, t.p99_ms), (1.0, 3.0, 5.0));
        let one = Timing::of(vec![7.0]);
        assert_eq!((one.min_ms, one.p50_ms, one.p99_ms), (7.0, 7.0, 7.0));
    }

    #[test]
    fn time_calls_once_per_rep_and_at_least_once() {
        let calls = RefCell::new(0);
        let _ = time(3, || *calls.borrow_mut() += 1);
        let _ = time(0, || *calls.borrow_mut() += 1);
        assert_eq!(*calls.borrow(), 4);
    }

    #[test]
    fn time_pair_alternates_which_arm_runs_first() {
        let order = RefCell::new(String::new());
        let _ = time_pair(
            5,
            || order.borrow_mut().push('a'),
            || order.borrow_mut().push('b'),
        );
        assert_eq!(*order.borrow(), "abbaabbaab");
    }

    fn paired(ratio: f64) -> Paired {
        let t = Timing::of(vec![1.0]);
        Paired { a: t, b: t, ratio }
    }

    #[test]
    fn report_has_the_one_schema_and_fails_after_writing() {
        let ms = |v| Timing::of(vec![v]);
        let mut report = Report::new("schema_test");
        report.push(Point::new("off", "sim", 100, ms(10.0)));
        report.push(Point::new("on_ok", "sim", 100, ms(10.5)).vs("off", Some(0.10), &paired(1.05)));
        report.push(Point::new("on_slow", "sim", 100, ms(13.0)).vs(
            "off",
            Some(0.10),
            &paired(1.30),
        ));
        report.push(Point::new("ungated", "bus", 100, ms(20.0)).vs("off", None, &paired(2.0)));
        // 1000 items in 1 ms is 1 M/s: below a 2 M/s floor.
        report.push(Point::new("too_slow", "router", 1000, ms(1.0)).min_items_per_s(2e6));
        report.push(Point::new("fast", "router", 1000, ms(1.0)).min_items_per_s(1e5));

        let (json, _) = report.to_json();
        let Json::Obj(top) = json.clone() else {
            panic!("the report is an object");
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["bench", "host", "threads", "points"]);
        let Json::Arr(points) = &top[3].1 else {
            panic!("points is an array");
        };
        let gate_keys = |gate: &Json| match gate {
            Json::Obj(g) => g.iter().map(|(k, _)| k.clone()).collect(),
            _ => Vec::new(),
        };
        let mut gate_shapes = Vec::new();
        for point in points {
            let Json::Obj(fields) = point else {
                panic!("a point is an object");
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                keys,
                ["name", "layer", "n", "min_ms", "p50_ms", "p99_ms", "gate"]
            );
            gate_shapes.push(gate_keys(&fields[6].1));
        }
        assert_eq!(gate_shapes[0], Vec::<String>::new());
        for overhead in &gate_shapes[1..4] {
            assert_eq!(overhead, &["vs", "max_overhead", "overhead", "pass"]);
        }
        for floor in &gate_shapes[4..] {
            assert_eq!(floor, &["min_items_per_s", "items_per_s", "pass"]);
        }

        let root = std::env::temp_dir().join(format!("sudc-bench-report-{}", std::process::id()));
        let dir = root.join("nested");
        let failed = report.write_to(&dir).unwrap_err();
        let written = std::fs::read_to_string(dir.join("BENCH_schema_test.json")).unwrap();
        std::fs::remove_dir_all(&root).unwrap();
        assert_eq!(written, json.to_string_pretty() + "\n");
        assert_eq!(
            failed,
            "BENCH schema_test: gate failed at on_slow, too_slow"
        );
    }

    #[test]
    #[should_panic(expected = "no committed fingerprint for 500 satellites")]
    fn a_fleet_without_a_fingerprint_is_refused() {
        let cfg = SimConfig::reference_operations(Seconds::new(60.0));
        check_fleet_fingerprint(500, &sudc_sim::run(&cfg, 1));
    }

    /// Checks the kernel against [`FLEET_FINGERPRINTS`] at all six
    /// fleets; on a mismatch the message is the recomputed table. The
    /// benches check only the fleets they time.
    #[test]
    #[ignore = "runs the kernel at up to 1 M satellites; use --release --ignored"]
    fn fleet_fingerprints_match_the_kernel() {
        let got: Vec<(u32, u64)> = FLEET_FINGERPRINTS
            .iter()
            .map(|&(fleet, _)| {
                let (cfg, seed) = fleet_point(fleet);
                (fleet, sudc_sim::kernel::run(&cfg, seed).fingerprint())
            })
            .collect();
        let hex: Vec<String> = got
            .iter()
            .map(|(f, fp)| format!("({f}, {fp:#018x})"))
            .collect();
        assert_eq!(got, FLEET_FINGERPRINTS, "recomputed: {}", hex.join(", "));
    }
}
