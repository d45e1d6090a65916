//! Health-plane overhead benchmark (`cargo bench -p sudc-bench --bench health_scale`).
//!
//! Measures what the failure detector costs when nothing is failing: the
//! same fleet-scaled nominal scenario ([`fleet_point`]) run as a
//! passthrough sim (`health: None`) and with the standard closed-loop
//! contract armed — every powered node heartbeating once per lease, the
//! detector scanning at the same cadence. Because the health plane
//! draws no randomness and no node ever misses a lease in the nominal
//! run, the two traces must agree on every pipeline counter; that is
//! asserted before timing (with the passthrough trace checked against
//! its committed fingerprint), so the wall-clock gap is
//! pure detector overhead.
//!
//! The two runs are timed in alternating pairs, and every fleet's
//! `health` point is gated on its paired overhead against its
//! `passthrough` point (`n` = events for both).
//!
//! Writes `BENCH_health.json`. Knobs: `SUDC_BENCH_FLEETS`,
//! `SUDC_BENCH_REPS` (default 5), `SUDC_HEALTH_SCALE_GATE` (the overhead
//! gate as a fraction, default 0.10).

use sudc_bench::harness::{
    check_fleet_fingerprint, env_or, fleet_point, fleets, reps, time_pair, Point, Report,
};
use sudc_health::HealthConfig;
use sudc_sim::kernel;

fn main() {
    let reps = reps(5);
    let gate: f64 = env_or("SUDC_HEALTH_SCALE_GATE", 0.10);
    let mut report = Report::new("health");
    for fleet in fleets("1000,10000,100000") {
        let (passthrough, seed) = fleet_point(fleet);
        let monitored = passthrough.with_health(HealthConfig::standard());

        let base = kernel::run(&passthrough, seed);
        check_fleet_fingerprint(fleet, &base);
        let armed = kernel::run(&monitored, seed);
        assert_eq!(
            armed.captured, base.captured,
            "{fleet} sats: captures moved"
        );
        assert_eq!(
            armed.delivered, base.delivered,
            "{fleet} sats: deliveries moved"
        );
        assert_eq!(
            armed.suspects, 0,
            "{fleet} sats: nominal run suspected a node"
        );
        assert!(armed.heartbeats > 0, "{fleet} sats: detector never scanned");

        let off = format!("passthrough_{fleet}");
        let paired = time_pair(
            reps,
            || kernel::run(&passthrough, seed),
            || kernel::run(&monitored, seed),
        );
        report.push(Point::new(&off, "sim", base.events, paired.a));
        report.push(
            Point::new(format!("health_{fleet}"), "health", armed.events, paired.b).vs(
                &off,
                Some(gate),
                &paired,
            ),
        );
    }
    report.write();
}
