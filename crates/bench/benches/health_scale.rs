//! Health-plane overhead benchmark (`cargo bench -p sudc-bench --bench health_scale`).
//!
//! Measures what the failure detector costs when nothing is failing: the
//! same fleet-scaled nominal scenario run once as a passthrough sim
//! (`health: None`, the exact baseline) and once with the standard
//! closed-loop contract armed — every powered node heartbeating once per
//! lease, the detector scanning at the same cadence. Because the health
//! plane draws no randomness and no node ever misses a lease in the
//! nominal run, the two traces must agree on every pipeline counter;
//! that equivalence is asserted before any timing, and the wall-clock
//! gap is pure detector overhead.
//!
//! The run fails (non-zero exit) if the mean overhead across the swept
//! fleet sizes exceeds the gate — the detector must stay under 10% of
//! the passthrough kernel.
//!
//! Results land in `BENCH_health.json` at the repository root (override
//! with `BENCH_HEALTH_OUT`): per fleet size, wall-clock for both runs,
//! the overhead fraction, and the amortized detector cost per tick.
//!
//! Knobs:
//! - `SUDC_HEALTH_SCALE_FLEETS`: comma-separated fleet sizes
//!   (default `1000,10000,100000`);
//! - `SUDC_HEALTH_SCALE_SAT_SECONDS`: simulated satellite-seconds per
//!   point (default 9 000 000); each fleet runs
//!   `max(60, budget / fleet)` simulated seconds;
//! - `SUDC_HEALTH_SCALE_REPS`: timing repetitions (default 5; the
//!   minimum is reported);
//! - `SUDC_HEALTH_SCALE_GATE`: overhead gate as a fraction (default 0.10).

use sudc_bench::harness::{env_list, env_or, time_ms, write_report};
use sudc_health::HealthConfig;
use sudc_par::json::Json;
use sudc_par::rng::Rng64;
use sudc_sim::{kernel, SimConfig, DEFAULT_SEED};
use sudc_units::Seconds;

fn main() {
    let threads = sudc_par::threads();
    let fleets = env_list::<u32>("SUDC_HEALTH_SCALE_FLEETS", "1000,10000,100000");
    let sat_seconds: f64 = env_or("SUDC_HEALTH_SCALE_SAT_SECONDS", 9_000_000.0);
    let reps: usize = env_or("SUDC_HEALTH_SCALE_REPS", 5);
    let gate: f64 = env_or("SUDC_HEALTH_SCALE_GATE", 0.10);
    println!("health-plane overhead benchmark ({threads} threads)\n");

    let mut points: Vec<Json> = Vec::new();
    let mut overheads: Vec<f64> = Vec::new();
    for &fleet in &fleets {
        let duration_s = (sat_seconds / f64::from(fleet)).max(60.0);
        let passthrough = SimConfig::try_scaled_fleet(fleet, Seconds::new(duration_s))
            .expect("fleet sizes are positive");
        let monitored = passthrough.with_health(HealthConfig::standard());
        let seed = Rng64::stream(DEFAULT_SEED, 0).next_u64();

        // Equivalence before timing: with nothing failing, arming the
        // detector must not move a single pipeline counter.
        let base = kernel::run(&passthrough, seed);
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

        let ticks = duration_s / passthrough.tick_seconds;
        let base_ms = time_ms(reps, || kernel::run(&passthrough, seed));
        let armed_ms = time_ms(reps, || kernel::run(&monitored, seed));
        let overhead = (armed_ms - base_ms) / base_ms;
        let ns_per_tick = (armed_ms - base_ms).max(0.0) * 1e6 / ticks;
        overheads.push(overhead);
        println!(
            "{fleet:>7} sats  {duration_s:>6.0} s sim  {:>9} heartbeats\n\
             {:>14} passthrough {base_ms:>9.1} ms\n\
             {:>14} health      {armed_ms:>9.1} ms  overhead {:>6.2}%  ({ns_per_tick:.1} ns/tick)\n",
            armed.heartbeats,
            "",
            "",
            overhead * 100.0,
        );

        points.push(
            Json::object()
                .with("satellites", fleet)
                .with("duration_s", duration_s)
                .with(
                    "heartbeats",
                    Json::try_from(armed.heartbeats).expect("heartbeat count fits f64"),
                )
                .with("passthrough_ms", base_ms)
                .with("health_ms", armed_ms)
                .with("overhead_fraction", overhead)
                .with("ns_per_tick_overhead", ns_per_tick),
        );
    }

    let mean_overhead = overheads.iter().sum::<f64>() / overheads.len() as f64;
    println!(
        "mean overhead {:.2}% (gate {:.0}%)",
        mean_overhead * 100.0,
        gate * 100.0
    );

    let report = Json::object()
        .with("threads", threads)
        .with("sat_seconds_budget", sat_seconds)
        .with("gate", gate)
        .with("mean_overhead_fraction", mean_overhead)
        .with("fleets", points);
    write_report("BENCH_HEALTH_OUT", "BENCH_health.json", &report);

    assert!(
        mean_overhead <= gate,
        "health plane costs {:.2}% of the passthrough kernel (gate {:.0}%)",
        mean_overhead * 100.0,
        gate * 100.0
    );
}
