//! Data-plane benchmark (`cargo bench -p sudc-bench --bench bus_scale`).
//!
//! The sim kernel publishes its whole pipeline — captures, insights,
//! telemetry, fault events — through the `sudc-bus` topic endpoints.
//! This benchmark weak-scales the fleet (1k → 10k → 100k publishers,
//! [`fleet_point`]) and at every size times three points:
//!
//! - `passthrough`: the kernel with nothing attached (`n` = messages
//!   published, which is the log's record count), its trace checked
//!   against its committed fingerprint first;
//! - `record`: the same run serializing every topic sample to the
//!   compact binary log (`n` = log records), timed in alternating pairs
//!   with `passthrough` and its overhead reported ungated;
//! - `replay`: decoding the log and re-driving a fresh `RunTrace` fold,
//!   asserted equal to the live trace before timing.
//!
//! Writes `BENCH_bus.json`. Knobs: `SUDC_BENCH_FLEETS`,
//! `SUDC_BENCH_REPS` (default 5).

use sudc_bench::harness::{
    check_fleet_fingerprint, fleet_point, fleets, reps, time, time_pair, Point, Report,
};
use sudc_sim::{kernel, replay, run_recorded};

fn main() {
    let reps = reps(5);
    let mut report = Report::new("bus");
    for fleet in fleets("1000,10000,100000") {
        let (cfg, seed) = fleet_point(fleet);
        check_fleet_fingerprint(fleet, &kernel::run(&cfg, seed));
        let (trace, log) = run_recorded(&cfg, seed);
        assert_eq!(
            replay(&cfg, &log).expect("recorded log replays"),
            trace,
            "replayed log diverged from the live trace at {fleet} publishers"
        );

        let passthrough = format!("passthrough_{fleet}");
        let paired = time_pair(
            reps,
            || kernel::run(&cfg, seed),
            || run_recorded(&cfg, seed),
        );
        report.push(Point::new(&passthrough, "bus", log.records(), paired.a));
        report.push(
            Point::new(format!("record_{fleet}"), "bus", log.records(), paired.b).vs(
                &passthrough,
                None,
                &paired,
            ),
        );
        let timing = time(reps, || replay(&cfg, &log));
        report.push(Point::new(
            format!("replay_{fleet}"),
            "bus",
            log.records(),
            timing,
        ));
    }
    report.write();
}
