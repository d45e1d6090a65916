//! Mapping-search DSE benchmark (`cargo bench -p sudc-bench --bench dse_scale`).
//!
//! Times the full per-layer mapping search (7 168 designs × 6 engines ×
//! schedule candidates over the Table III suite) serially and on the
//! `sudc-par` executor, plus a warm replay through the incremental
//! [`DseCache`]. Before any timing, the parallel sweep is asserted
//! bit-identical to the serial oracle at every requested worker count,
//! and the search's pruning and memoization are asserted to actually
//! fire — so the mappings/sec figure describes a correct, working search.
//!
//! Results land in `BENCH_dse.json` at the repository root (override with
//! `BENCH_DSE_OUT`): the host's `nproc` and the worker count, search-space
//! accounting, prune/memo rates, the three mean improvements,
//! serial/parallel wall time and schedules-evaluated/sec, and the
//! cache-replay cost. The parallel speedup is `null` ("not measured") when
//! the run has one worker or the host one CPU: serial over serial on one
//! core measures noise, not scaling.
//!
//! Knobs:
//! - `SUDC_DSE_SCALE_WORKERS`: comma-separated worker counts to verify
//!   against the serial oracle (default `1,2,8`);
//! - `SUDC_DSE_SCALE_STEP`: design-space subsampling stride (default 1 =
//!   the full space; CI smoke uses a larger stride);
//! - `SUDC_DSE_SCALE_REPS`: timing repetitions (default 3; the minimum is
//!   reported).

use std::hint::black_box;
use std::time::Instant;

use sudc_accel::design::design_space;
use sudc_accel::dse::{run_dse_serial, run_dse_threads, DseCache, SystemArchitecture};
use sudc_accel::energy::EnergyTable;
use sudc_accel::mapping::ENGINE_COUNT;
use sudc_par::json::Json;

fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

fn workers_from_env() -> Vec<usize> {
    let raw = std::env::var("SUDC_DSE_SCALE_WORKERS").unwrap_or_else(|_| "1,2,8".to_string());
    let workers: Vec<usize> = raw
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    assert!(
        !workers.is_empty(),
        "SUDC_DSE_SCALE_WORKERS parsed to nothing"
    );
    workers
}

/// Minimum wall-clock milliseconds over `reps` runs — the standard
/// low-interference estimator on a shared machine.
fn time_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let threads = sudc_par::threads();
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let workers = workers_from_env();
    let step: usize = env_or("SUDC_DSE_SCALE_STEP", 1);
    let reps: usize = env_or("SUDC_DSE_SCALE_REPS", 3);

    let table = EnergyTable::default();
    let space: Vec<_> = design_space().into_iter().step_by(step.max(1)).collect();
    println!(
        "mapping-search DSE benchmark ({} designs x {ENGINE_COUNT} engines, \
         {threads} threads, nproc {nproc})\n",
        space.len()
    );

    // --- correctness gates (before any timing) -------------------------
    let oracle = run_dse_serial(&space, &table);
    for &w in &workers {
        assert_eq!(
            run_dse_threads(w, &space, &table),
            oracle,
            "parallel sweep diverged from the serial oracle at {w} workers"
        );
    }
    let s = &oracle.stats;
    assert!(
        s.memo_hit_rate() > 0.0,
        "layer memo never hit: duplicate shapes must be served from cache"
    );
    assert!(
        s.prune_rate() > 0.0,
        "lower-bound prune never fired: the bound is vacuous"
    );
    let global = oracle.mean_improvement(SystemArchitecture::GlobalAccelerator);
    let per_network = oracle.mean_improvement(SystemArchitecture::PerNetworkAccelerator);
    let per_layer = oracle.mean_improvement(SystemArchitecture::PerLayerAccelerator);
    assert!(
        global < per_network && per_network < per_layer,
        "specialization must strictly order: {global} / {per_network} / {per_layer}"
    );

    // --- timing ---------------------------------------------------------
    let serial_ms = time_ms(reps, || run_dse_serial(&space, &table));
    let parallel_ms = time_ms(reps, || run_dse_threads(threads, &space, &table));
    let mut cache = DseCache::new();
    let cold = cache.run(&space, &table);
    let replay_ms = time_ms(reps, || {
        let warm = cache.run(&space, &table);
        assert_eq!(warm, cold, "cache replay must be bit-identical");
        warm
    });
    assert!(
        cache.hit_rate() > 0.0,
        "repeated identical sweeps must replay"
    );

    let evaluated = s.schedules_evaluated as f64;
    let mappings_per_sec = evaluated / (parallel_ms / 1e3);
    let speedup = (threads > 1 && nproc > 1).then(|| serial_ms / parallel_ms);
    let speedup_text = speedup.map_or_else(|| "not measured".to_string(), |x| format!("{x:.2}x"));
    println!(
        "schedules: {} evaluated, {} pruned (prune rate {:.1}%)",
        s.schedules_evaluated,
        s.schedules_pruned,
        100.0 * s.prune_rate()
    );
    println!(
        "layer memo: {} hits / {} searches (hit rate {:.1}%), {} unique shapes / {} layers",
        s.memo_hits,
        s.shape_searches,
        100.0 * s.memo_hit_rate(),
        s.unique_shapes,
        s.total_layers
    );
    println!(
        "improvements: global {global:.1}x, per-network {per_network:.1}x, per-layer {per_layer:.1}x"
    );
    println!(
        "serial {serial_ms:.0} ms, parallel {parallel_ms:.0} ms ({threads} threads, \
         speedup {speedup_text}, {mappings_per_sec:.0} mappings/s), warm replay {replay_ms:.3} ms"
    );

    let report = Json::object()
        .with("nproc", nproc)
        .with("threads", threads)
        .with("workers_verified", workers.clone())
        .with("space_step", step)
        .with("designs", space.len())
        .with("engines", ENGINE_COUNT)
        .with(
            "search",
            Json::object()
                .with(
                    "schedules_evaluated",
                    Json::try_from(s.schedules_evaluated).expect("count fits f64"),
                )
                .with(
                    "schedules_pruned",
                    Json::try_from(s.schedules_pruned).expect("count fits f64"),
                )
                .with("prune_rate", s.prune_rate())
                .with(
                    "shape_searches",
                    Json::try_from(s.shape_searches).expect("count fits f64"),
                )
                .with(
                    "memo_hits",
                    Json::try_from(s.memo_hits).expect("count fits f64"),
                )
                .with("memo_hit_rate", s.memo_hit_rate())
                .with("unique_shapes", s.unique_shapes)
                .with("total_layers", s.total_layers),
        )
        .with(
            "results",
            Json::object()
                .with("global_best", oracle.global_best.to_string())
                .with("global_engine", oracle.global_engine.to_string())
                .with("mean_improvement_global", global)
                .with("mean_improvement_per_network", per_network)
                .with("mean_improvement_per_layer", per_layer)
                .with("per_layer_over_global", per_layer / global),
        )
        .with(
            "timing",
            Json::object()
                .with("serial_ms", serial_ms)
                .with("parallel_ms", parallel_ms)
                .with("speedup", speedup.map_or(Json::Null, Json::from))
                .with("mappings_per_sec", mappings_per_sec)
                .with("cache_replay_ms", replay_ms),
        );
    let out = std::env::var("BENCH_DSE_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dse.json").to_string()
    });
    std::fs::write(&out, report.to_string_pretty() + "\n")
        .unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!("\nwrote {out}");
}
