//! Data-plane overhead benchmark (`cargo bench -p sudc-bench --bench bus_scale`).
//!
//! The sim kernel now publishes its whole pipeline — captures, insights,
//! telemetry, fault events — through the `sudc-bus` topic endpoints.
//! That passthrough is contractually free: this benchmark weak-scales
//! the fleet (1k → 10k → 100k publishers via `SimConfig::try_scaled_fleet`)
//! and, at every size, times the bus-wired kernel against the frozen
//! pre-bus kernel (`sudc_sim::baseline`) on the same configuration and
//! seed, asserting the traces equal before any timing. The run **fails**
//! if the passthrough overhead exceeds 10% (`SUDC_BUS_MAX_OVERHEAD`
//! overrides the gate); messages/sec comes from the per-topic publish
//! counters of the same run.
//!
//! A second pass prices the recording path: serialize every topic sample
//! to the compact binary log, then decode and re-drive it through a
//! fresh trace builder, asserting the replay reproduces the live trace
//! byte for byte.
//!
//! Results land in `BENCH_bus.json` at the repository root (override
//! with `BENCH_BUS_OUT`): per fleet size, messages/sec, both kernels'
//! wall-clock, the overhead ratio, and record/replay timing + log bytes.
//!
//! Knobs:
//! - `SUDC_BUS_SCALE_FLEETS`: comma-separated publisher fleet sizes
//!   (default `1000,10000,100000`);
//! - `SUDC_BUS_SCALE_SAT_SECONDS`: simulated satellite-seconds per point
//!   (default 6 000 000); each fleet runs `max(60, budget / fleet)`
//!   simulated seconds;
//! - `SUDC_BUS_SCALE_REPS`: timing repetitions (default 5, minimum kept);
//! - `SUDC_BUS_MAX_OVERHEAD`: passthrough overhead gate (default 0.10).

use sudc_bench::harness::{env_list, env_or, time_ms, write_report};
use sudc_par::json::Json;
use sudc_par::rng::Rng64;
use sudc_sim::{baseline, kernel, replay, run_on_bus, run_recorded, SimConfig, DEFAULT_SEED};
use sudc_units::Seconds;

fn main() {
    let threads = sudc_par::threads();
    let fleets = env_list::<u32>("SUDC_BUS_SCALE_FLEETS", "1000,10000,100000");
    let sat_seconds: f64 = env_or("SUDC_BUS_SCALE_SAT_SECONDS", 6_000_000.0);
    let reps: usize = env_or("SUDC_BUS_SCALE_REPS", 5);
    let max_overhead: f64 = env_or("SUDC_BUS_MAX_OVERHEAD", 0.10);
    println!("bus data-plane overhead benchmark ({threads} threads)\n");

    let mut points: Vec<Json> = Vec::new();
    let mut worst_overhead = f64::NEG_INFINITY;
    for &fleet in &fleets {
        let duration_s = (sat_seconds / f64::from(fleet)).max(60.0);
        let cfg = SimConfig::try_scaled_fleet(fleet, Seconds::new(duration_s))
            .expect("fleet sizes are positive");
        let seed = Rng64::stream(DEFAULT_SEED, 0).next_u64();

        // Equivalence before timing: the bus-wired kernel must reproduce
        // the frozen pre-bus trace bit for bit on this exact workload.
        let run = run_on_bus(&cfg, seed, false);
        assert_eq!(
            run.trace,
            baseline::run(&cfg, seed),
            "bus passthrough diverged from the frozen baseline at {fleet} publishers"
        );
        let messages = run.stats.total();

        let bus_ms = time_ms(reps, || kernel::run(&cfg, seed));
        let baseline_ms = time_ms(reps, || baseline::run(&cfg, seed));
        let overhead = bus_ms / baseline_ms - 1.0;
        worst_overhead = worst_overhead.max(overhead);
        let msgs_per_sec = messages as f64 / (bus_ms / 1e3);

        // Recording path: serialize the topic stream, then prove the log
        // re-drives to the identical trace.
        let (trace, log) = run_recorded(&cfg, seed);
        assert_eq!(
            replay(&cfg, &log).expect("recorded log replays"),
            trace,
            "replayed log diverged from the live trace at {fleet} publishers"
        );
        let record_ms = time_ms(reps.min(3), || run_recorded(&cfg, seed));
        let replay_ms = time_ms(reps.min(3), || replay(&cfg, &log));

        println!(
            "{fleet:>7} publishers  {duration_s:>6.0} s sim  {messages:>10} msgs  \
             ({msgs_per_sec:>9.0} msg/s)\n\
             {:>16} baseline {baseline_ms:>8.1} ms  bus {bus_ms:>8.1} ms  \
             overhead {:>6.2}%\n\
             {:>16} record   {record_ms:>8.1} ms  replay {replay_ms:>6.1} ms  \
             log {} B ({} records)\n",
            "",
            100.0 * overhead,
            "",
            log.byte_len(),
            log.records(),
        );

        points.push(
            Json::object()
                .with("publishers", fleet)
                .with("duration_s", duration_s)
                .with(
                    "messages",
                    Json::try_from(messages).expect("message count fits f64"),
                )
                .with("messages_per_sec", msgs_per_sec)
                .with("baseline_ms", baseline_ms)
                .with("bus_ms", bus_ms)
                .with("overhead", overhead)
                .with("record_ms", record_ms)
                .with("replay_ms", replay_ms)
                .with("log_bytes", log.byte_len())
                .with(
                    "log_records",
                    Json::try_from(log.records()).expect("record count fits f64"),
                ),
        );
    }

    let report = Json::object()
        .with("threads", threads)
        .with("sat_seconds_budget", sat_seconds)
        .with("max_overhead_gate", max_overhead)
        .with("worst_overhead", worst_overhead)
        .with("fleets", points);
    write_report("BENCH_BUS_OUT", "BENCH_bus.json", &report);

    assert!(
        worst_overhead <= max_overhead,
        "bus passthrough overhead {:.2}% exceeds the {:.0}% gate",
        100.0 * worst_overhead,
        100.0 * max_overhead,
    );
    println!(
        "passthrough overhead gate: worst {:.2}% <= {:.0}% ... ok",
        100.0 * worst_overhead,
        100.0 * max_overhead,
    );
}
