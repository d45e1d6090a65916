//! Mapping-search DSE benchmark (`cargo bench -p sudc-bench --bench dse_scale`).
//!
//! Times the full per-layer mapping search (7 168 designs × 6 engines ×
//! schedule candidates over the Table III suite) serially and on the
//! `sudc-par` executor at the ambient worker count. Before any timing,
//! the sweep at 2 and 8 workers and at the worker count it is timed at
//! is asserted bit-identical to the one-worker sweep, the shape
//! memo is asserted to actually hit, and the schedule count is asserted
//! to be every candidate of every search exactly once — so the
//! schedules/s figure describes a correct, working search.
//!
//! Writes `BENCH_dse.json`: `serial` and `parallel` (`n` = schedules
//! evaluated). Knobs: `SUDC_DSE_SCALE_STEP` (design-space subsampling
//! stride, default 1 = the full space; CI's smoke uses 7, which still
//! visits every buffer size and PE group),
//! `SUDC_BENCH_REPS` (default 3).

use sudc_accel::design::design_space;
use sudc_accel::dse::{run_dse_threads, SystemArchitecture};
use sudc_accel::energy::EnergyTable;
use sudc_accel::mapping::{schedule_candidates, ENGINE_COUNT};
use sudc_accel::memo::LayerMemo;
use sudc_bench::harness::{env_or, reps, time, Point, Report};
use sudc_compute::networks::NetworkId;

fn main() {
    let threads = sudc_par::threads();
    let step: usize = env_or("SUDC_DSE_SCALE_STEP", 1);
    let reps = reps(3);
    let mut report = Report::new("dse");

    let table = EnergyTable::default();
    let space: Vec<_> = design_space().into_iter().step_by(step.max(1)).collect();

    // --- correctness gates (before any timing) -------------------------
    let oracle = run_dse_threads(1, &space, &table);
    let mut workers = vec![2, 8, threads];
    workers.sort_unstable();
    workers.dedup();
    for w in workers.into_iter().filter(|&w| w > 1) {
        assert_eq!(
            run_dse_threads(w, &space, &table),
            oracle,
            "parallel sweep diverged from the one-worker sweep at {w} workers"
        );
    }
    let s = &oracle.stats;
    assert!(
        s.memo_hit_rate() > 0.0,
        "layer memo never hit: duplicate shapes must be served from cache"
    );
    let networks: Vec<_> = NetworkId::all().iter().map(|id| id.network()).collect();
    let candidates: usize = LayerMemo::for_networks(&networks)
        .unique_layers()
        .iter()
        .map(|layer| schedule_candidates(layer).len())
        .sum();
    assert_eq!(
        s.schedules_evaluated,
        (space.len() * ENGINE_COUNT * candidates) as u64,
        "every schedule candidate must be costed exactly once"
    );
    let global = oracle.mean_improvement(SystemArchitecture::GlobalAccelerator);
    let per_network = oracle.mean_improvement(SystemArchitecture::PerNetworkAccelerator);
    let per_layer = oracle.mean_improvement(SystemArchitecture::PerLayerAccelerator);
    assert!(
        global < per_network && per_network < per_layer,
        "specialization must strictly order: {global} / {per_network} / {per_layer}"
    );

    // --- timing ---------------------------------------------------------
    let evaluated = s.schedules_evaluated;
    let serial = time(reps, || run_dse_threads(1, &space, &table));
    report.push(Point::new("serial", "accel", evaluated, serial));
    let parallel = time(reps, || run_dse_threads(threads, &space, &table));
    report.push(Point::new("parallel", "accel", evaluated, parallel));
    report.write();
}
