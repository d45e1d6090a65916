//! Request-router throughput benchmark
//! (`cargo bench -p sudc-bench --bench router_scale`).
//!
//! Routes a multi-million-request synthetic tasking stream through the
//! `sudc-router` placement engine at 1, 2, and 8 worker threads,
//! asserting the decision vectors byte-identical across thread counts
//! before any timing — the determinism contract is checked on the exact
//! workload being timed. Reported per thread count: sustained routed
//! requests/second and mean ns/decision, plus the placement mix.
//!
//! Results land in `BENCH_router.json` at the repository root (override
//! with `BENCH_ROUTER_OUT`).
//!
//! Knobs:
//! - `SUDC_ROUTER_SCALE_REQUESTS`: stream length (default 4 000 000);
//! - `SUDC_ROUTER_SCALE_REPS`: timing repetitions (default 5; the
//!   minimum wall time is reported);
//! - `SUDC_ROUTER_SCALE_JOBS`: comma-separated thread counts
//!   (default `1,2,8`).

use sudc_bench::harness::{env_list, env_or, time_ms, write_report};
use sudc_par::json::Json;
use sudc_par::set_threads;
use sudc_router::{Router, StreamConfig, Tier};
use sudc_sim::DEFAULT_SEED;

fn main() {
    let requests: u64 = env_or("SUDC_ROUTER_SCALE_REQUESTS", 4_000_000);
    let reps: usize = env_or("SUDC_ROUTER_SCALE_REPS", 5);
    let jobs = env_list::<usize>("SUDC_ROUTER_SCALE_JOBS", "1,2,8");
    println!("request router throughput benchmark ({requests} requests)\n");

    let router = Router::reference();
    let stream = StreamConfig::new(requests, DEFAULT_SEED, 1.4);

    // Determinism gate before timing: the decision vector at every
    // thread count must match the single-threaded reference bit for bit.
    set_threads(1);
    let reference = router.route_stream(&stream);
    for &j in &jobs {
        set_threads(j);
        let out = router.route_stream(&stream);
        assert_eq!(
            out, reference,
            "decisions diverged between 1 and {j} worker threads"
        );
    }

    let stats = &reference.stats;
    let placed_f = stats.placed as f64;
    println!(
        "placement mix: {:.1}% placed ({:.1}% sudc, {:.1}% onboard, {:.1}% ground, {:.1}% cloud), \
         {:.1}% deferred, {:.1}% rejected",
        100.0 * stats.acceptance_rate(),
        100.0 * stats.tier_counts[Tier::OrbitalSudc.index()] as f64 / placed_f,
        100.0 * stats.tier_counts[Tier::Onboard.index()] as f64 / placed_f,
        100.0 * stats.tier_counts[Tier::GroundEdge.index()] as f64 / placed_f,
        100.0 * stats.tier_counts[Tier::Cloud.index()] as f64 / placed_f,
        100.0 * stats.deferred as f64 / stats.requests as f64,
        100.0 * stats.rejected as f64 / stats.requests as f64,
    );

    let requests_f = requests as f64;
    let mut points: Vec<Json> = Vec::new();
    let mut best_rps = 0.0_f64;
    let mut best_ns = f64::INFINITY;
    for &j in &jobs {
        set_threads(j);
        let ms = time_ms(reps, || router.route_stream(&stream));
        let rps = requests_f / (ms / 1e3);
        let ns_per_decision = 1e6 * ms / requests_f;
        best_rps = best_rps.max(rps);
        best_ns = best_ns.min(ns_per_decision);
        println!(
            "jobs {j:>2}: {ms:>8.1} ms  ({:>10.0} req/s, {:>6.1} ns/decision)",
            rps, ns_per_decision
        );
        points.push(
            Json::object()
                .with("jobs", j)
                .with("ms", ms)
                .with("requests_per_sec", rps)
                .with("ns_per_decision", ns_per_decision),
        );
    }
    set_threads(0);

    assert!(
        best_rps >= 1_000_000.0,
        "router fell below 1M routed requests/sec ({best_rps:.0})"
    );
    assert!(
        best_ns < 1_000.0,
        "mean decision latency not sub-microsecond ({best_ns:.0} ns)"
    );

    let report = Json::object()
        .with(
            "requests",
            Json::try_from(requests).expect("request count fits f64"),
        )
        .with("seed", DEFAULT_SEED as f64)
        .with(
            "deterministic_across_jobs",
            jobs.iter().map(|&j| j as u32).collect::<Vec<u32>>(),
        )
        .with("best_requests_per_sec", best_rps)
        .with("best_ns_per_decision", best_ns)
        .with("acceptance_rate", stats.acceptance_rate())
        .with("mean_latency_s", stats.mean_latency_s())
        .with("mean_cost_usd", stats.mean_cost_usd())
        .with(
            "placed_by_tier",
            Tier::ALL.iter().fold(Json::object(), |o, t| {
                o.with(
                    t.name(),
                    Json::try_from(stats.tier_counts[t.index()]).expect("count fits f64"),
                )
            }),
        )
        .with("deferred", Json::try_from(stats.deferred).expect("fits"))
        .with("rejected", Json::try_from(stats.rejected).expect("fits"))
        .with("threads_points", points);
    write_report("BENCH_ROUTER_OUT", "BENCH_router.json", &report);
}
