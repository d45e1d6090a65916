//! Dependency-free benchmark harness (`cargo bench -p sudc-bench`).
//!
//! Times the parallel sweep engine against its serial oracles — the
//! availability and mission Monte-Carlos — plus the heavyweight
//! experiment generators, and writes `BENCH_sweeps.json`. Every
//! parallel/serial pair is also checked for bit-identical results, so
//! the bench doubles as an end-to-end equivalence test at the ambient
//! thread count. The full DSE's serial/parallel pair is `dse_scale`'s.
//! Knob: `SUDC_BENCH_REPS` (default 3).

use sudc_bench::experiments;
use sudc_bench::harness::{reps, time, Point, Report};
use sudc_reliability::availability::{NodePool, DEFAULT_MC_SEED};
use sudc_reliability::mission::{try_simulate, MissionConfig, SparingPolicy};

/// Monte-Carlo trial count for the availability benchmarks.
const MC_TRIALS: u32 = 200_000;

fn main() {
    let reps = reps(3);
    let mut report = Report::new("sweeps");
    let trials = u64::from(MC_TRIALS);

    // Availability Monte-Carlo (binomial node pool).
    let pool = NodePool::try_new(30, 10).expect("30 nodes cover the 10 required");
    let simulate_availability = || {
        pool.try_simulate_availability(1.0, MC_TRIALS, DEFAULT_MC_SEED)
            .expect("a positive trial count at a valid time")
    };
    let avail_ref = simulate_availability();
    let serial = time(reps, || {
        sudc_par::set_threads(1);
        let a = simulate_availability();
        sudc_par::set_threads(0);
        assert!(
            (a - avail_ref).abs() == 0.0,
            "MC diverged across thread counts"
        );
        a
    });
    report.push(Point::new(
        "availability_serial",
        "reliability",
        trials,
        serial,
    ));
    let parallel = time(reps, simulate_availability);
    report.push(Point::new(
        "availability_parallel",
        "reliability",
        trials,
        parallel,
    ));

    // Mission Monte-Carlo with cold sparing.
    let mission = MissionConfig {
        nodes: 30,
        required: 10,
        duration: 1.0,
        policy: SparingPolicy::Cold { dormant_aging: 0.1 },
    };
    let simulate = || {
        try_simulate(mission, MC_TRIALS, DEFAULT_MC_SEED).expect("a valid mission configuration")
    };
    let mission_ref = simulate();
    let serial = time(reps, || {
        sudc_par::set_threads(1);
        let m = simulate();
        sudc_par::set_threads(0);
        assert_eq!(m, mission_ref, "mission MC diverged across thread counts");
        m
    });
    report.push(Point::new("mission_serial", "reliability", trials, serial));
    let parallel = time(reps, simulate);
    report.push(Point::new(
        "mission_parallel",
        "reliability",
        trials,
        parallel,
    ));

    // The heavyweight experiment generators (each regenerates one figure).
    let mut figure = |name: &str, generate: fn() -> String| {
        report.push(Point::new(name, "figures", 1, time(reps, generate)));
    };
    figure("fig4_lifetime", experiments::fig4);
    figure("fig5_power", experiments::fig5);
    figure("fig17_dse", experiments::fig17);
    figure("fig19_collaborative", experiments::fig19);
    figure("fig24_availability", experiments::fig24);
    figure("extB_sparing", experiments::ext_sparing);
    figure("extC_tornado", experiments::ext_tornado);
    report.write();
}
