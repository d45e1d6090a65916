//! Acceptance tests for the placement engine: exact reproducibility of
//! routing decisions across worker counts, and stability of the
//! decision stream against a committed fingerprint.

use space_udc::par::Fnv1a;
use space_udc::router::{Router, RoutingOutcome, StreamConfig, Verdict};
use space_udc::sim::DEFAULT_SEED;

/// Routes the same reference stream at a given thread count.
fn routed(threads: usize, stream: &StreamConfig) -> RoutingOutcome {
    space_udc::par::set_threads(threads);
    let out = Router::reference().route_stream(stream);
    space_udc::par::set_threads(0);
    out
}

/// FNV-1a over the raw decision fields: any drift in a verdict, tier,
/// latency, or cost anywhere in the stream moves the digest.
fn fingerprint(out: &RoutingOutcome) -> u64 {
    let mut h = Fnv1a::new();
    for d in &out.decisions {
        h.write_u64(d.id);
        let (tag, tier) = match d.verdict {
            Verdict::Placed(t) => (0u64, t.index() as u64),
            Verdict::Deferred => (1, 0),
            Verdict::Rejected => (2, 0),
            Verdict::Shed => (3, 0),
        };
        h.write_u64(tag);
        h.write_u64(tier);
        h.write_u64(d.latency_s.to_bits());
        h.write_u64(d.cost_usd.to_bits());
    }
    h.finish()
}

#[test]
fn fixed_seed_routing_is_identical_at_1_2_and_8_threads() {
    // Enough requests for several 4096-request blocks, including a short
    // tail block, at the reference capture rate.
    let stream = StreamConfig::new(30_000, DEFAULT_SEED, 3.83);
    let one = routed(1, &stream);
    let two = routed(2, &stream);
    let eight = routed(8, &stream);
    assert_eq!(one, two, "1-thread and 2-thread decisions diverged");
    assert_eq!(one, eight, "1-thread and 8-thread decisions diverged");
    // And the run is non-trivial: every request decided exactly once.
    // (Within a block, decisions follow the admission queue's
    // priority-class drain order, not raw id order.)
    assert_eq!(one.decisions.len(), 30_000);
    let mut ids: Vec<u64> = one.decisions.iter().map(|d| d.id).collect();
    ids.sort_unstable();
    assert!(ids.iter().copied().eq(0..30_000));
}

#[test]
fn decision_stream_fingerprint_is_stable() {
    // Snapshot of the full decision stream for the documented seed. A
    // change here means placements moved for everyone: the committed
    // `results/router.txt` and `EXPERIMENTS.md` narratives are stale,
    // and downstream replay SLOs shift. Update all three together.
    let stream = StreamConfig::new(10_000, DEFAULT_SEED, 3.83);
    let out = routed(1, &stream);
    assert_eq!(
        fingerprint(&out),
        0x99d5_a665_978b_6969,
        "decision stream drifted for seed {DEFAULT_SEED:#x}"
    );
}

#[test]
fn stressed_stream_fingerprint_is_stable() {
    // Same gate at 10_000x load, where shedding, deferral, and rejection
    // paths all carry traffic — pins the overload semantics too.
    let stream = StreamConfig::new(10_000, DEFAULT_SEED, 3.83e4);
    let out = routed(1, &stream);
    let s = &out.stats;
    assert!(
        s.deferred + s.rejected + s.shed > 0,
        "overload produced no pressure"
    );
    assert_eq!(
        fingerprint(&out),
        0x9e07_b474_575e_667a,
        "stressed decision stream drifted for seed {DEFAULT_SEED:#x}"
    );
}
