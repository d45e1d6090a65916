//! Request-router throughput benchmark
//! (`cargo bench -p sudc-bench --bench router_scale`).
//!
//! Routes a multi-million-request synthetic tasking stream through the
//! `sudc-router` placement engine at 1, 2, and 8 worker threads,
//! asserting the decision vectors byte-identical across thread counts
//! before any timing — the determinism contract is checked on the exact
//! workload being timed, and on the same stream at 100x the arrival rate
//! with a half-block admission queue, so the shedding overload path is
//! assembled from several workers too. Every point (`n` = requests) is gated at
//! ≥ 1 M routed requests/s, which is the same bound as < 1 µs per
//! decision.
//!
//! Writes `BENCH_router.json`. Knobs: `SUDC_ROUTER_SCALE_REQUESTS`
//! (stream length, default 4 000 000), `SUDC_BENCH_REPS` (default 5).

use sudc_bench::harness::{env_or, reps, time, Point, Report};
use sudc_par::set_threads;
use sudc_router::{Router, StreamConfig};
use sudc_sim::DEFAULT_SEED;

/// Worker counts routed, checked and timed.
const JOBS: [usize; 3] = [1, 2, 8];

fn main() {
    let requests: u64 = env_or("SUDC_ROUTER_SCALE_REQUESTS", 4_000_000);
    let reps = reps(5);
    let mut report = Report::new("router");
    let router = Router::reference();
    let stream = StreamConfig::new(requests, DEFAULT_SEED, 1.4);

    // Untimed: the timed stream, and an overloaded one at 100x the rate
    // whose half-block admission queue sheds in every full block.
    let mut overload = StreamConfig::new(requests, DEFAULT_SEED, 100.0 * 1.4);
    overload.queue_capacity = overload.block / 2;
    for checked in [&stream, &overload] {
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
    }

    for j in JOBS {
        set_threads(j);
        let timing = time(reps, || router.route_stream(&stream));
        report.push(
            Point::new(format!("route_jobs{j}"), "router", requests, timing).min_items_per_s(1e6),
        );
    }
    set_threads(0);
    report.write();
}
