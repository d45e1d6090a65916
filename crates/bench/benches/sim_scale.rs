//! Simulation-kernel scaling benchmark (`cargo bench -p sudc-bench --bench sim_scale`).
//!
//! Weak-scales the operations simulator along the fleet axis
//! (64 → 1k → 10k → 100k → 300k → 1M satellites, [`fleet_point`]) and
//! times the kernel at every size. Before timing, each trace is checked
//! against the frozen pre-rebuild kernel's committed fingerprint, so the
//! timed run is a correct one. A sharded [`try_scale_study`] pass
//! exercises the `(fleet, rep)` grid across the `sudc-par` executor with
//! common random numbers.
//!
//! Writes `BENCH_sim.json`, one point per fleet (`n` = events). Knobs:
//! `SUDC_BENCH_FLEETS`, `SUDC_BENCH_REPS` (default 5).

use sudc_bench::harness::{
    check_fleet_fingerprint, fleet_point, fleets, reps, time, Point, Report,
};
use sudc_sim::{kernel, try_scale_study, DEFAULT_SEED};
use sudc_units::Seconds;

fn main() {
    let reps = reps(5);
    let mut report = Report::new("sim");
    for fleet in fleets("64,1000,10000,100000,300000,1000000") {
        let (cfg, seed) = fleet_point(fleet);
        let trace = kernel::run(&cfg, seed);
        check_fleet_fingerprint(fleet, &trace);
        let timing = time(reps, || kernel::run(&cfg, seed));
        report.push(Point::new(
            format!("kernel_{fleet}"),
            "sim",
            trace.events,
            timing,
        ));
    }

    // Sharded replication grid: every (fleet, rep) pair is one flat job
    // on the executor, seeds shared across fleet sizes (common random
    // numbers). Small sizes keep this pass quick at any thread count.
    let study = || {
        try_scale_study(Seconds::new(900.0), &[64, 128, 256], 2, DEFAULT_SEED)
            .expect("the study grid is non-empty with positive fleets and reps")
    };
    let events = study().iter().map(|p| p.events).sum();
    report.push(Point::new("scale_study", "sim", events, time(reps, study)));
    report.write();
}
