//! Simulation-kernel scaling benchmark (`cargo bench -p sudc-bench --bench sim_scale`).
//!
//! Weak-scales the operations simulator along the fleet axis
//! (64 → 1k → 10k → 100k → 300k → 1M satellites via
//! `SimConfig::try_scaled_fleet`) and,
//! at every size, times the rebuilt kernel (timing-wheel scheduler,
//! slab/SoA hot path) against the frozen pre-rebuild kernel
//! (`sudc_sim::baseline`: `BinaryHeap` scheduler, per-batch allocation,
//! `retain` shedding). Both kernels are run on the *same* configuration
//! and seed and asserted trace-equal before any timing, so the speedup is
//! measured against a correct baseline, not a strawman. A sharded
//! [`try_scale_study`] pass exercises the `(fleet, rep)` grid across the
//! `sudc-par` executor with common random numbers.
//!
//! Results land in `BENCH_sim.json` at the repository root (override with
//! `BENCH_SIM_OUT`): per fleet size, events/sec and ns/event for both
//! kernels, the speedup, and the peak pending-event count.
//!
//! Knobs:
//! - `SUDC_SIM_SCALE_FLEETS`: comma-separated fleet sizes
//!   (default `64,1000,10000,100000,300000,1000000`);
//! - `SUDC_SIM_SCALE_SAT_SECONDS`: simulated satellite-seconds per point
//!   (default 18 000 000, ≈1.8 M events at every fleet size — large
//!   enough that per-satellite setup amortizes out of the steady-state
//!   rate); each fleet runs `max(60, budget / fleet)` simulated seconds;
//! - `SUDC_SIM_SCALE_REPS`: timing repetitions per kernel (default 5;
//!   the minimum is reported).

use sudc_bench::harness::{env_list, env_or, time_ms, write_report};
use sudc_par::json::Json;
use sudc_par::rng::Rng64;
use sudc_sim::{baseline, kernel, try_scale_study, SimConfig, DEFAULT_SEED};
use sudc_units::Seconds;

fn main() {
    let threads = sudc_par::threads();
    let fleets = env_list::<u32>(
        "SUDC_SIM_SCALE_FLEETS",
        "64,1000,10000,100000,300000,1000000",
    );
    let sat_seconds: f64 = env_or("SUDC_SIM_SCALE_SAT_SECONDS", 18_000_000.0);
    let reps: usize = env_or("SUDC_SIM_SCALE_REPS", 5);
    println!("sim kernel scaling benchmark ({threads} threads)\n");

    let mut points: Vec<Json> = Vec::new();
    for &fleet in &fleets {
        let duration_s = (sat_seconds / f64::from(fleet)).max(60.0);
        let cfg = SimConfig::try_scaled_fleet(fleet, Seconds::new(duration_s))
            .expect("fleet sizes are positive");
        let seed = Rng64::stream(DEFAULT_SEED, 0).next_u64();

        // Equivalence before timing: the rebuilt kernel must reproduce
        // the frozen baseline trace bit for bit on this exact workload.
        let trace = kernel::run(&cfg, seed);
        assert_eq!(
            trace,
            baseline::run(&cfg, seed),
            "rebuilt kernel diverged from the frozen baseline at {fleet} satellites"
        );
        let events = trace.events;
        let peak_queue = trace.peak_event_queue;

        // The frozen baseline needs multiple seconds per repetition at
        // the largest fleets; three samples bound the total runtime.
        let timing_reps = if fleet >= 300_000 { reps.min(3) } else { reps };
        let kernel_ms = time_ms(timing_reps, || kernel::run(&cfg, seed));
        let baseline_ms = time_ms(timing_reps, || baseline::run(&cfg, seed));

        let events_f = events as f64;
        let eps_kernel = events_f / (kernel_ms / 1e3);
        let eps_baseline = events_f / (baseline_ms / 1e3);
        let speedup = baseline_ms / kernel_ms;
        println!(
            "{fleet:>7} sats  {duration_s:>6.0} s sim  {events:>11} events  peak queue {peak_queue:>8}\n\
             {:>14} baseline {baseline_ms:>9.1} ms  ({:>7.0} ev/s, {:>7.1} ns/ev)\n\
             {:>14} kernel   {kernel_ms:>9.1} ms  ({:>7.0} ev/s, {:>7.1} ns/ev)  speedup {speedup:.2}x\n",
            "", eps_baseline, 1e6 * baseline_ms / events_f,
            "", eps_kernel, 1e6 * kernel_ms / events_f,
        );

        points.push(
            Json::object()
                .with("satellites", fleet)
                .with("duration_s", duration_s)
                .with(
                    "events",
                    Json::try_from(events).expect("event count fits f64"),
                )
                .with("peak_event_queue", peak_queue)
                .with("baseline_ms", baseline_ms)
                .with("kernel_ms", kernel_ms)
                .with("events_per_sec_baseline", eps_baseline)
                .with("events_per_sec", eps_kernel)
                .with("ns_per_event_baseline", 1e6 * baseline_ms / events_f)
                .with("ns_per_event", 1e6 * kernel_ms / events_f)
                .with("speedup", speedup),
        );
    }

    // Sharded replication grid: every (fleet, rep) pair is one flat job
    // on the executor, seeds shared across fleet sizes (common random
    // numbers). Small sizes keep this pass quick at any thread count.
    let study_fleets = [64u32, 128, 256];
    let study_reps = 2u32;
    let study_duration = Seconds::new(900.0);
    let study = try_scale_study(study_duration, &study_fleets, study_reps, DEFAULT_SEED)
        .expect("the study grid is non-empty with positive fleets and reps");
    let study_events: u64 = study.iter().map(|p| p.events).sum();
    let study_ms = time_ms(1, || {
        try_scale_study(study_duration, &study_fleets, study_reps, DEFAULT_SEED)
    });
    println!(
        "sharded scale study ({} jobs, {study_events} events): {study_ms:.1} ms",
        study_fleets.len() * study_reps as usize
    );

    let report = Json::object()
        .with("threads", threads)
        .with("sat_seconds_budget", sat_seconds)
        .with("fleets", points)
        .with(
            "scale_study",
            Json::object()
                .with("fleets", study_fleets.to_vec())
                .with("reps", study_reps)
                .with("duration_s", study_duration.value())
                .with(
                    "events",
                    Json::try_from(study_events).expect("event count fits f64"),
                )
                .with("ms", study_ms),
        );
    write_report("BENCH_SIM_OUT", "BENCH_sim.json", &report);
}
