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
//! checked on the exact workloads being timed — and each stream's
//! decision digest is checked against its committed value at the CI
//! length (1 M requests) and the default length (4 M); at any other
//! length the digests are printed, not checked. The overload stream's
//! stats must show requests kept off the SµDC, so its points cannot
//! silently time the all-placed path. Every point (`n` = requests) is
//! gated at ≥ 1 M routed requests/s, which is the same bound as < 1 µs
//! per decision.
//!
//! Writes `BENCH_router.json`. Knobs: `SUDC_ROUTER_SCALE_REQUESTS`
//! (stream length, default 4 000 000), `SUDC_BENCH_REPS` (default 5).

use sudc_bench::harness::{env_or, reps, time, Point, Report};
use sudc_par::{set_threads, Fnv1a};
use sudc_router::{Router, RoutingOutcome, StreamConfig, Tier, Verdict};
use sudc_sim::DEFAULT_SEED;

/// Worker counts routed, checked and timed.
const JOBS: [usize; 3] = [1, 2, 8];

/// Committed [`decision_fnv`] of each stream at each checked length:
/// `(stream, requests, digest)`. Computed with the unpacked 32-byte
/// `Decision`, so they also pin the packed layout to the same bits.
const DECISION_FNVS: [(&str, u64, u64); 4] = [
    ("route", 1_000_000, 0xb59c_2a53_5f4d_e204),
    ("route", 4_000_000, 0xb123_b2f1_3e76_436f),
    ("overload", 1_000_000, 0x9a4a_ce03_f4a7_586c),
    ("overload", 4_000_000, 0x24e3_a937_551f_171e),
];

/// FNV-1a over each decision's id, verdict, tier, latency and cost (the
/// digest `tests/router_determinism.rs` pins): any drift anywhere in the
/// stream moves it.
fn decision_fnv(out: &RoutingOutcome) -> u64 {
    let mut h = Fnv1a::new();
    for d in &out.decisions {
        let (tag, tier) = match d.verdict {
            Verdict::Placed(t) => (0, t.index() as u64),
            Verdict::Deferred => (1, 0),
            Verdict::Rejected => (2, 0),
            Verdict::Shed => (3, 0),
        };
        for v in [d.id, tag, tier, d.latency_s.to_bits(), d.cost_usd.to_bits()] {
            h.write_u64(v);
        }
    }
    h.finish()
}

/// Checks `out`, the `stream` stream routed at `requests`, against its
/// committed digest, or prints the digest at an uncommitted length.
///
/// # Panics
///
/// Panics if the digest differs from the committed one.
fn check_decision_fnv(stream: &str, requests: u64, out: &RoutingOutcome) {
    let got = decision_fnv(out);
    match DECISION_FNVS
        .iter()
        .find_map(|&(s, n, fnv)| (s == stream && n == requests).then_some(fnv))
    {
        Some(want) => assert_eq!(
            got, want,
            "the {stream} stream's decisions drifted from the committed digest \
             at {requests} requests: {got:#018x} != {want:#018x}"
        ),
        None => println!(
            "{stream} stream at {requests} requests: decision FNV {got:#018x} (not checked)"
        ),
    }
}

fn main() {
    let requests: u64 = env_or("SUDC_ROUTER_SCALE_REQUESTS", 4_000_000);
    let reps = reps(5);
    let mut report = Report::new("router");
    let router = Router::reference();
    let stream = StreamConfig::new(requests, DEFAULT_SEED, 1.4);
    let mut overload = StreamConfig::new(requests, DEFAULT_SEED, 100.0 * 1.4);
    overload.queue_capacity = overload.block / 2;
    let streams = [("route", &stream), ("overload", &overload)];

    // Untimed: decisions equal at every worker count and to the
    // committed digest, on both streams.
    let [_, s] = streams.map(|(name, checked)| {
        set_threads(1);
        let reference = router.route_stream(checked);
        check_decision_fnv(name, requests, &reference);
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
