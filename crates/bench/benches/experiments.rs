//! Dependency-free benchmark harness (`cargo bench -p sudc-bench`).
//!
//! Times the parallel sweep engine against its serial oracles — the full
//! 7 168-design DSE and the availability/mission Monte-Carlos — plus the
//! heavyweight experiment generators, and writes the measurements to
//! `BENCH_sweeps.json` at the repository root (override the path with the
//! `BENCH_OUT` environment variable). Every parallel/serial pair is also
//! checked for bit-identical results, so the bench doubles as an
//! end-to-end equivalence test at the ambient thread count. The report
//! records the host's `nproc`; a pair's speedup is `null` ("not
//! measured") when the run has one worker or the host one CPU.

use std::hint::black_box;
use std::time::Instant;

use sudc_accel::design::design_space;
use sudc_accel::dse::{run_dse_serial, run_dse_threads};
use sudc_accel::energy::EnergyTable;
use sudc_bench::experiments;
use sudc_bench::harness::{nproc, speedup, speedup_json, speedup_text, write_report};
use sudc_par::json::Json;
use sudc_reliability::availability::{NodePool, DEFAULT_MC_SEED};
use sudc_reliability::mission::{try_simulate, MissionConfig, SparingPolicy};

/// Monte-Carlo trial count for the availability benchmarks.
const MC_TRIALS: u32 = 200_000;

/// Median wall-clock milliseconds over `reps` runs. Unlike the scaling
/// benches' minimum (the interference-free kernel cost), this reports
/// what a typical figure regeneration costs, interference included.
fn time_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// One serial-vs-parallel pair run at `threads` workers on `nproc` CPUs.
fn pair(name: &str, serial_ms: f64, parallel_ms: f64, threads: usize, nproc: usize) -> Json {
    let speedup = speedup(serial_ms, parallel_ms, threads, nproc);
    println!(
        "{name:<28} serial {serial_ms:>9.1} ms   parallel {parallel_ms:>9.1} ms   speedup {}",
        speedup_text(speedup)
    );
    Json::object()
        .with("name", name)
        .with("serial_ms", serial_ms)
        .with("parallel_ms", parallel_ms)
        .with("speedup", speedup_json(speedup))
}

/// One single-timing entry.
fn single(name: &str, ms: f64) -> Json {
    println!("{name:<28} {ms:>9.1} ms");
    Json::object().with("name", name).with("ms", ms)
}

fn main() {
    let threads = sudc_par::threads();
    let nproc = nproc();
    println!("sweep-engine benchmarks ({threads} threads, nproc {nproc})\n");

    let mut pairs: Vec<Json> = Vec::new();
    let mut singles: Vec<Json> = Vec::new();

    // Full 7,168-design DSE: parallel must match the serial oracle bit for
    // bit, and (on >= 4 cores) beat it by >= 2x.
    let space = design_space();
    let table = EnergyTable::default();
    let serial_out = run_dse_serial(&space, &table);
    let parallel_out = run_dse_threads(threads, &space, &table);
    assert_eq!(
        serial_out, parallel_out,
        "parallel DSE diverged from serial"
    );
    let dse_serial = time_ms(3, || run_dse_serial(&space, &table));
    let dse_parallel = time_ms(3, || run_dse_threads(threads, &space, &table));
    pairs.push(pair(
        "dse_full_7168",
        dse_serial,
        dse_parallel,
        threads,
        nproc,
    ));

    // Availability Monte-Carlo (binomial node pool).
    let pool = NodePool::try_new(30, 10).expect("30 nodes cover the 10 required");
    let simulate_availability = || {
        pool.try_simulate_availability(1.0, MC_TRIALS, DEFAULT_MC_SEED)
            .expect("a positive trial count at a valid time")
    };
    let avail_ref = simulate_availability();
    let avail_serial = time_ms(3, || {
        sudc_par::set_threads(1);
        let a = simulate_availability();
        sudc_par::set_threads(0);
        assert!(
            (a - avail_ref).abs() == 0.0,
            "MC diverged across thread counts"
        );
        a
    });
    let avail_parallel = time_ms(3, simulate_availability);
    pairs.push(pair(
        "monte_carlo_availability",
        avail_serial,
        avail_parallel,
        threads,
        nproc,
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
    let mission_serial = time_ms(3, || {
        sudc_par::set_threads(1);
        let m = simulate();
        sudc_par::set_threads(0);
        assert_eq!(m, mission_ref, "mission MC diverged across thread counts");
        m
    });
    let mission_parallel = time_ms(3, simulate);
    pairs.push(pair(
        "monte_carlo_mission",
        mission_serial,
        mission_parallel,
        threads,
        nproc,
    ));

    // The heavyweight experiment generators (each regenerates one figure).
    println!();
    singles.push(single("fig4_lifetime", time_ms(3, experiments::fig4)));
    singles.push(single("fig5_power", time_ms(3, experiments::fig5)));
    singles.push(single("fig17_dse", time_ms(3, experiments::fig17)));
    singles.push(single(
        "fig19_collaborative",
        time_ms(3, experiments::fig19),
    ));
    singles.push(single("fig24_availability", time_ms(3, experiments::fig24)));
    singles.push(single("extB_sparing", time_ms(3, experiments::ext_sparing)));
    singles.push(single("extC_tornado", time_ms(3, experiments::ext_tornado)));

    let report = Json::object()
        .with("nproc", nproc)
        .with("threads", threads)
        .with("mc_trials", MC_TRIALS)
        .with("sweeps", pairs)
        .with("experiments", singles);
    write_report("BENCH_OUT", "BENCH_sweeps.json", &report);
}
