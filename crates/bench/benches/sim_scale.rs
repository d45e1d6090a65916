//! Simulation-kernel scaling benchmark (`cargo bench -p sudc-bench --bench sim_scale`).
//!
//! Weak-scales the operations simulator along the fleet axis
//! (64 → 1k → 10k → 100k → 300k → 1M satellites, [`fleet_point`]) and
//! times the kernel at every size. Before timing, each trace is checked
//! against its committed fingerprint, so the timed run is a correct one.
//!
//! Writes `BENCH_sim.json`, one point per fleet (`n` = events). Knobs:
//! `SUDC_BENCH_FLEETS`, `SUDC_BENCH_REPS` (default 5).

use sudc_bench::harness::{
    check_fleet_fingerprint, fleet_point, fleets, reps, time, Point, Report,
};
use sudc_sim::kernel;

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
    report.write();
}
