//! End-to-end and per-layer benchmark of the space-udc stack.
//!
//! ```text
//! stackbench --workload <name> --seed <u64> --seconds <s> --trace <0|1>
//!            [--out result.json] [--spans spans.json]
//! stackbench compare --base a.json... --change b.json...
//! ```
//!
//! A run sets its workload up several times, makes one untimed warm-up
//! pass, then makes closed-loop passes (each starts when the previous one
//! ends) until `--seconds` have passed. Every pass's outputs are checked.
//! Passes and set-ups are timed on the CPU clock and scaled by a speed
//! probe taken around each of them (see `host`), so that timings from a
//! shared host whose speed drifts stay comparable from run to run.
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` passes alternate untraced and traced for half the
//! time, off-switch measurements take the rest, and it carries the
//! per-layer metrics. The workloads and metrics are those the
//! repository's `BENCHMARK.json` declares. See README.md.

mod compare;
mod host;
mod json;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use sudc_par::json::Json;

use host::Speed;
use json::Access;
use spec::{spec, Spec};
use stats::{median, quartiles};
use trace::{self_times_ns, span_cost_s, Tracer};
use workloads::{
    Digest, DseSweep, Fleet10kFaults, Fleet1m, PipelineCombined, RouteOverload, Workload,
};

/// Threads the stack may use. The benchmark's hosts give it a few cores
/// shared with other tenants; a second thread would measure whether a
/// second core happened to be free.
const THREADS: usize = 1;
/// Set-up samples at the start of a run. An untraced run takes one more
/// before every pass, so the samples span the whole run; `setup_s` is
/// their median. A sample repeats the set-up for about `SETUP_SAMPLE_S`
/// and reports the mean, so a microsecond set-up is not lost in timer and
/// interrupt noise.
const SETUP_SAMPLES: usize = 5;
const SETUP_SAMPLE_S: f64 = 0.005;
/// Fewest timed passes of each kind, however long they take.
const MIN_UNTRACED: usize = 3;
const MIN_TRACED: usize = 2;
/// Repeats of each off-switch measurement in a traced run.
const ATTRIBUTION_REPS: usize = 3;

/// Expected outputs of the default seed, per workload.
const EXPECTED: &str = include_str!("../expected.json");

type Runner = fn(&RunArgs) -> Result<(), String>;

/// Every workload the binary can run; the declared ones must match.
const RUNNERS: [(&str, Runner); 5] = [
    ("pipeline_combined", run::<PipelineCombined>),
    ("route_overload", run::<RouteOverload>),
    ("fleet_1m", run::<Fleet1m>),
    ("fleet_10k_faults", run::<Fleet10kFaults>),
    ("dse_sweep", run::<DseSweep>),
];

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    spans: Option<String>,
}

fn usage(spec: &Spec) -> String {
    let mut text = "usage: stackbench --workload <name> --seed <u64> --seconds <s> --trace <0|1> \
                    [--out result.json] [--spans spans.json]\n       \
                    stackbench compare --base a.json... --change b.json...\nworkloads:"
        .to_string();
    for w in &spec.workloads {
        text += &format!("\n  {:<18} {}", w.name, w.why);
    }
    text
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: String::new(),
        seed: sudc_sim::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        out: None,
        spans: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => run.workload = value.clone(),
            "--seed" => run.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                run.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            "--out" => run.out = Some(value.clone()),
            "--spans" => run.spans = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(run)
}

fn run_workload(args: &RunArgs) -> Result<(), String> {
    if !spec()?.workloads.iter().any(|w| w.name == args.workload) {
        return Err(format!("undeclared workload {:?}", args.workload));
    }
    let (_, runner) = RUNNERS
        .iter()
        .find(|(name, _)| *name == args.workload)
        .ok_or_else(|| format!("no runner for workload {:?}", args.workload))?;
    runner(args)
}

fn main() {
    host::fix_mmap_threshold();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("--help" | "-h") | None => spec().and_then(|s| Err(usage(s))),
        Some(_) => parse_run(&args).and_then(|run| run_workload(&run)),
    };
    if let Err(e) = outcome {
        eprintln!("stackbench: {e}");
        std::process::exit(2);
    }
}

/// Checks one pass: the seed-independent invariants, equality with the
/// warm-up pass, and on the default seed the expected values.
fn check<W: Workload>(
    w: &W,
    out: &W::Output,
    warm: &mut Option<Digest>,
    expected: Option<&Json>,
) -> Result<(), String> {
    w.invariants(out)?;
    let digest = w.digest(out)?;
    match warm {
        Some(first) if *first != digest => {
            return Err("outputs differ from the warm-up pass".to_string())
        }
        Some(_) => {}
        None => *warm = Some(digest.clone()),
    }
    if let Some(exp) = expected {
        let members = exp.as_object().ok_or("expected values must be an object")?;
        if members.len() != digest.len() {
            return Err(format!(
                "expected {} checked values, the pass produced {}",
                members.len(),
                digest.len()
            ));
        }
        for (name, got) in &digest {
            let want = exp.get(name).and_then(Access::as_str);
            if want != Some(got.as_str()) {
                return Err(format!("{name}: expected {want:?}, got {got:?}"));
            }
        }
    }
    Ok(())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// CPU time of one set-up: the mean over `batch` set-ups, each dropped
/// before the next.
fn time_setup<W: Workload>(
    args: &RunArgs,
    batch: usize,
    tracer: &mut Tracer,
) -> Result<f64, String> {
    let start = host::cpu_s();
    for _ in 0..batch {
        drop(black_box(W::setup(args.seed, THREADS, tracer)?));
    }
    Ok((host::cpu_s() - start) / batch as f64)
}

/// The end-to-end metrics of an untraced run, in declaration order.
fn end_to_end_metrics(
    setup_s: &[f64],
    untraced: &[f64],
    items_per_s: &[f64],
    peak_rss_mib: f64,
) -> Vec<(&'static str, f64)> {
    vec![
        ("setup_s", median(setup_s)),
        ("pass_p50_s", median(untraced)),
        ("peak_rss_mib", peak_rss_mib),
        ("items_per_s", median(items_per_s)),
    ]
}

fn run<W: Workload>(args: &RunArgs) -> Result<(), String> {
    let spec = spec()?;
    let nproc = nproc();
    sudc_par::set_threads(THREADS);
    let pinned = host::pin_to_current_cpu();
    let expected_doc = json::parse(EXPECTED)?;
    let expected = if args.seed == sudc_sim::DEFAULT_SEED || !W::SEEDED {
        Some(
            expected_doc
                .get(&args.workload)
                .ok_or_else(|| format!("expected.json has no entry for {}", args.workload))?,
        )
    } else {
        None
    };

    let mut speed = Speed::new()?;
    let mut tracer = Tracer::new(args.trace);
    let start = host::cpu_s();
    let w = W::setup(args.seed, THREADS, &mut tracer)?;
    let batch = (SETUP_SAMPLE_S / (host::cpu_s() - start))
        .ceil()
        .clamp(1.0, 1e6) as usize;
    let mut setup_s = Vec::new();
    for _ in 0..SETUP_SAMPLES {
        speed.sample()?;
        setup_s.push(speed.mark(time_setup::<W>(args, batch, &mut tracer)?));
    }

    let mut warm = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut tally = |result: Result<(), String>, pass: u32| {
        attempted += 1;
        if let Err(e) = result {
            failed += 1;
            eprintln!("{} pass {pass}: check failed: {e}", args.workload);
        }
    };

    tracer.set_enabled(false);
    let out = w.pass(&mut tracer)?;
    tally(check(&w, &out, &mut warm, expected), 0);
    drop(out);

    // With tracing, passes alternate untraced and traced, and each traced
    // pass is paired with the untraced pass just before it; comparing
    // their scaled CPU times gives the tracing overhead. The second half
    // of the time goes to the off-switch measurements.
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    // Untraced passes: CPU seconds (to be scaled) and wall seconds.
    let mut untraced = Vec::new();
    let mut untraced_wall = Vec::new();
    let mut items = Vec::new();
    // Traced passes: wall seconds, as the spans are, and CPU seconds.
    let mut traced = Vec::new();
    let mut traced_cpu = Vec::new();
    let window = Instant::now();
    let mut pass: u32 = 1;
    let last = loop {
        let traced_pass = args.trace && pass.is_multiple_of(2);
        speed.sample()?;
        if !args.trace {
            setup_s.push(speed.mark(time_setup::<W>(args, batch, &mut tracer)?));
        }
        tracer.set_enabled(traced_pass);
        tracer.set_pass(pass);
        let open = tracer.begin("bench", "pass");
        let (wall, cpu) = (Instant::now(), host::cpu_s());
        let out = w.pass(&mut tracer)?;
        let (cpu, wall) = (host::cpu_s() - cpu, wall.elapsed().as_secs_f64());
        tracer.end(open);
        tally(check(&w, &out, &mut warm, expected), pass);
        if traced_pass {
            traced.push(wall);
            traced_cpu.push(speed.mark(cpu));
        } else {
            untraced.push(speed.mark(cpu));
            untraced_wall.push(wall);
            items.push(w.items(&out));
        }
        pass += 1;
        if window.elapsed().as_secs_f64() >= budget
            && untraced.len() >= MIN_UNTRACED
            && traced.len() >= if args.trace { MIN_TRACED } else { 0 }
        {
            break out;
        }
    };
    speed.sample()?;

    // Off-switch measurements run after the timed loop, on the last
    // pass's outputs, so they perturb no timed pass.
    let mut layer_runs: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    if args.trace {
        tracer.set_enabled(true);
        for _ in 0..ATTRIBUTION_REPS {
            for (name, v) in w.layer_values(&last, &mut tracer)? {
                layer_runs.entry(name).or_default().push(v);
            }
        }
    }
    drop(last);

    let setup_s = speed.scale_all(&setup_s);
    let pass_cpu: Vec<f64> = untraced.iter().map(|m| m.1).collect();
    let untraced = speed.scale_all(&untraced);
    let items_per_s: Vec<f64> = items.iter().zip(&untraced).map(|(n, t)| n / t).collect();
    let paired_overhead: Vec<f64> = speed
        .scale_all(&traced_cpu)
        .iter()
        .zip(&untraced)
        .map(|(t, u)| t / u - 1.0)
        .collect();
    let host = HostRecord {
        probe_p50_s: median(speed.samples()),
        wall_over_cpu: median(&untraced_wall) / median(&pass_cpu),
    };
    let (metrics, table) = if args.trace {
        (
            per_layer_metrics(spec, &tracer, &traced, &paired_overhead, &layer_runs, &host)?,
            &spec.per_layer,
        )
    } else {
        let rss = speed.peak_rss_mib()?;
        (
            end_to_end_metrics(&setup_s, &untraced, &items_per_s, rss),
            &spec.end_to_end,
        )
    };
    let mut metric_json = Json::object();
    for (name, value) in &metrics {
        let m = table
            .iter()
            .find(|m| m.name == *name)
            .ok_or_else(|| format!("metric {name} is not declared"))?;
        println!("{} {name} {value} {}", args.workload, m.unit);
        metric_json = metric_json.with(
            name,
            Json::object()
                .with("value", *value)
                .with("unit", m.unit.as_str()),
        );
    }
    let [q1, q2, q3] = quartiles(&untraced);
    println!(
        "{} pass_s quartiles {q1} {q2} {q3} over {} untraced passes",
        args.workload,
        untraced.len()
    );
    let correct = failed == 0;

    if let Some(path) = &args.out {
        let checks = warm
            .unwrap_or_default()
            .into_iter()
            .fold(Json::object(), |o, (k, v)| o.with(k, v));
        let record = Json::object()
            .with("workload", args.workload.as_str())
            .with("seed", args.seed.to_string())
            .with("trace", args.trace)
            .with("nproc", nproc)
            .with("threads", THREADS)
            .with("pinned_cpu", pinned.map_or(Json::Null, Json::from))
            .with("cpu", cpu_model())
            .with("correct", correct)
            .with("attempted", attempted as f64)
            .with("failed", failed as f64)
            .with("untraced_passes", untraced.len())
            .with("traced_passes", traced.len())
            .with("pass_quartiles_s", vec![q1, q2, q3])
            .with("untraced_pass_s", untraced.clone())
            .with("untraced_pass_cpu_s", pass_cpu)
            .with("untraced_pass_wall_s", untraced_wall)
            .with("setup_s", setup_s.clone())
            .with("probe_s", speed.samples().to_vec())
            .with("metrics", metric_json.clone())
            .with("checks", checks);
        std::fs::write(path, record.to_string_compact() + "\n")
            .map_err(|e| format!("{path}: {e}"))?;
    }
    if let Some(path) = &args.spans {
        std::fs::write(path, tracer.to_json().to_string_compact() + "\n")
            .map_err(|e| format!("{path}: {e}"))?;
    }

    println!(
        "{}",
        Json::object()
            .with("correct", correct)
            .with("attempted", attempted as f64)
            .with("failed", failed as f64)
            .with("metrics", metric_json)
            .to_string_compact()
    );
    Ok(())
}

/// What a run saw of its host, for the traced run's `host.*` metrics.
struct HostRecord {
    probe_p50_s: f64,
    wall_over_cpu: f64,
}

/// Per-layer metrics from the traced passes: layer self times from the
/// span tree, the workload's off-switch timings and counts, and the
/// trace's own overhead and coverage.
fn per_layer_metrics<'s>(
    spec: &'s Spec,
    tracer: &Tracer,
    traced: &[f64],
    paired_overhead: &[f64],
    layer_runs: &BTreeMap<&'static str, Vec<f64>>,
    host: &HostRecord,
) -> Result<Vec<(&'s str, f64)>, String> {
    let spans = tracer.spans();
    let self_ns = self_times_ns(spans);
    // Per traced pass: self seconds by layer, the pass span's own (glue)
    // self time under "bench".
    let mut by_pass: BTreeMap<u32, BTreeMap<&'static str, f64>> = BTreeMap::new();
    let mut setup_calls: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut pass_spans = 0usize;
    for (s, &own) in spans.iter().zip(&self_ns) {
        if s.attribution {
            continue;
        }
        if s.pass == 0 {
            if s.layer != "bench" {
                setup_calls
                    .entry(s.name)
                    .or_default()
                    .push(s.duration_ns() as f64 * 1e-9);
            }
            continue;
        }
        pass_spans += 1;
        *by_pass
            .entry(s.pass)
            .or_default()
            .entry(s.layer)
            .or_default() += own as f64 * 1e-9;
    }
    let layer_median = |layer: &str| -> f64 {
        let v: Vec<f64> = by_pass
            .values()
            .map(|m| m.get(layer).copied().unwrap_or(0.0))
            .collect();
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    };
    let run_median = |name: &str| layer_runs.get(name).map_or(0.0, |v| median(v));
    let setup_median = |name: &str| setup_calls.get(name).map_or(0.0, |v| median(v));

    let mut values: BTreeMap<&str, f64> = spec
        .per_layer
        .iter()
        .map(|m| (m.name.as_str(), 0.0))
        .collect();
    let mut set = |name: &str, v: f64| -> Result<(), String> {
        match values.get_mut(name) {
            Some(slot) => {
                *slot = v;
                Ok(())
            }
            None => Err(format!("per-layer metric {name} is not declared")),
        }
    };
    for name in layer_runs.keys() {
        set(name, run_median(name))?;
    }

    let layers: Vec<&'static str> = {
        let mut l: Vec<&'static str> = by_pass.values().flat_map(|m| m.keys().copied()).collect();
        l.sort_unstable();
        l.dedup();
        l
    };
    let route = layer_median("router");
    let kernel = layer_median("sim");
    let sweep = layer_median("accel");
    set("router.route_s", route)?;
    set("sim.kernel_s", kernel)?;
    set("bus.replay_s", layer_median("bus"))?;
    set("accel.sweep_s", sweep)?;
    set("core.pricing_s", setup_median("reference_pricing"))?;
    set("core.tco_s", setup_median("try_tco"))?;

    let per = |t: f64, n: f64| if n > 0.0 { t / n * 1e9 } else { 0.0 };
    let requests = [
        "router.placed",
        "router.deferred",
        "router.rejected",
        "router.shed",
    ]
    .iter()
    .map(|n| run_median(n))
    .sum::<f64>();
    set("router.ns_per_decision", per(route, requests))?;
    set("sim.ns_per_event", per(kernel, run_median("sim.events")))?;
    set(
        "accel.ns_per_schedule",
        per(sweep, run_median("accel.schedules_evaluated")),
    )?;

    let traced_p50 = median(traced);
    let glue = layer_median("bench");
    let accounted: f64 = layers.iter().map(|l| layer_median(l)).sum();
    let spans_per_pass = pass_spans as f64 / traced.len() as f64;
    set("trace.pass_p50_s", traced_p50)?;
    set("trace.overhead_frac", median(paired_overhead))?;
    set(
        "trace.span_cost_frac",
        spans_per_pass * span_cost_s() / traced_p50,
    )?;
    set("trace.glue_s", glue)?;
    set("trace.coverage", accounted / traced_p50)?;
    set("host.probe_s", host.probe_p50_s)?;
    set("host.wall_over_cpu", host.wall_over_cpu)?;

    Ok(spec
        .per_layer
        .iter()
        .map(|m| (m.name.as_str(), values[m.name.as_str()]))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_declared_workload_has_a_runner_and_back() {
        let declared: Vec<&str> = spec()
            .unwrap()
            .workloads
            .iter()
            .map(|w| w.name.as_str())
            .collect();
        let runners: Vec<&str> = RUNNERS.iter().map(|(name, _)| *name).collect();
        assert_eq!(declared, runners);
    }

    #[test]
    fn an_untraced_run_emits_exactly_the_declared_end_to_end_metrics() {
        let emitted: Vec<&str> = end_to_end_metrics(&[1.0], &[1.0], &[1.0], 1.0)
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        let declared: Vec<&str> = spec()
            .unwrap()
            .end_to_end
            .iter()
            .map(|m| m.name.as_str())
            .collect();
        assert_eq!(emitted, declared);
    }

    #[test]
    fn every_per_layer_metric_the_run_derives_is_declared() {
        // One traced pass with a span per layer, plus every off-switch
        // value a workload reports: any undeclared name is an error.
        let mut t = Tracer::new(true);
        t.set_pass(1);
        let pass = t.begin("bench", "pass");
        for layer in ["router", "sim", "bus", "accel"] {
            t.span(layer, "call", || ());
        }
        t.end(pass);
        let names = [
            "router.gen_s",
            "router.placed",
            "router.acceptance_rate",
            "sim.init_s",
            "sim.events",
            "bus.record_s",
            "health.detector_s",
            "chaos.faults_s",
            "accel.schedules_pruned",
            "accel.schedules_evaluated",
        ];
        let runs: BTreeMap<&'static str, Vec<f64>> =
            names.iter().map(|&n| (n, vec![1.0])).collect();
        let s = spec().unwrap();
        let host = HostRecord {
            probe_p50_s: 1.0,
            wall_over_cpu: 1.0,
        };
        let metrics = per_layer_metrics(s, &t, &[1.0], &[0.0], &runs, &host).unwrap();
        assert_eq!(metrics.len(), s.per_layer.len());
        assert!(metrics.iter().all(|(_, v)| v.is_finite()));

        let mut undeclared = runs.clone();
        undeclared.insert("router.made_up", vec![1.0]);
        assert!(per_layer_metrics(s, &t, &[1.0], &[0.0], &undeclared, &host).is_err());
    }
}
