//! Request-router throughput benchmark
//! (`cargo bench -p sudc-bench --bench router_scale`).
//!
//! Routes two multi-million-request synthetic tasking streams through the
//! `sudc-router` placement engine at 1, 2, and 8 worker threads:
//!
//! - `route_jobs{1,2,8}`: the reference-rate stream, which places every
//!   request on the SµDC;
//! - `overload_jobs{1,2,8}`: the same stream at 100x the arrival rate with
//!   a half-block admission queue, so every full block sheds and the
//!   reject, shed and overflow paths run (the path the `route_overload`
//!   workload of stackbench times).
//!
//! Before any timing, the decision vectors of each stream are asserted
//! byte-identical across thread counts — the determinism contract is
//! checked on the exact workloads being timed — and the overload stream's
//! stats must show requests kept off the SµDC, so its points cannot
//! silently time the all-placed path. Every point (`n` = requests) is
//! gated at ≥ 1 M routed requests/s, which is the same bound as < 1 µs
//! per decision.
//!
//! Writes `BENCH_router.json`. Knobs: `SUDC_ROUTER_SCALE_REQUESTS`
//! (stream length, default 4 000 000), `SUDC_BENCH_REPS` (default 5).

use sudc_bench::harness::{env_or, reps, time, Point, Report};
use sudc_par::set_threads;
use sudc_router::{Router, StreamConfig, Tier};
use sudc_sim::DEFAULT_SEED;

/// Worker counts routed, checked and timed.
const JOBS: [usize; 3] = [1, 2, 8];

fn main() {
    let requests: u64 = env_or("SUDC_ROUTER_SCALE_REQUESTS", 4_000_000);
    let reps = reps(5);
    let mut report = Report::new("router");
    let router = Router::reference();
    let stream = StreamConfig::new(requests, DEFAULT_SEED, 1.4);
    let mut overload = StreamConfig::new(requests, DEFAULT_SEED, 100.0 * 1.4);
    overload.queue_capacity = overload.block / 2;
    let streams = [("route", &stream), ("overload", &overload)];

    // Untimed: decisions equal at every worker count, on both streams.
    let [_, s] = streams.map(|(_, checked)| {
        set_threads(1);
        let reference = router.route_stream(checked);
        for j in JOBS {
            set_threads(j);
            assert_eq!(
                router.route_stream(checked),
                reference,
                "decisions diverged between 1 and {j} worker threads"
            );
        }
        reference.stats
    });
    let off_sudc = s.rejected + s.shed + s.deferred + s.tier_counts[Tier::Onboard.index()];
    assert!(
        off_sudc > 0,
        "the overload stream kept no request off the SµDC: {s:?}"
    );
    println!(
        "overload stream: {} placed ({} on the SµDC, {} onboard), {} deferred, {} rejected, {} shed",
        s.placed,
        s.tier_counts[Tier::OrbitalSudc.index()],
        s.tier_counts[Tier::Onboard.index()],
        s.deferred,
        s.rejected,
        s.shed
    );

    for (name, timed) in streams {
        for j in JOBS {
            set_threads(j);
            let timing = time(reps, || router.route_stream(timed));
            report.push(
                Point::new(format!("{name}_jobs{j}"), "router", requests, timing)
                    .min_items_per_s(1e6),
            );
        }
    }
    set_threads(0);
    report.write();
}
