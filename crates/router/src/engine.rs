//! The batch placement engine.
//!
//! [`Router::route_stream`] gives each worker a contiguous range of the
//! stream's blocks. Each block is generated, admitted, and scored
//! independently and its decisions are appended straight to the worker's
//! one output vector; worker 0's vector is sized for the whole stream and
//! becomes [`RoutingOutcome::decisions`], the others are appended in
//! order, and per-block stats merge in block order — so the outcome is
//! byte-identical at any thread count, and a single worker never copies
//! its decisions.
//!
//! That output vector is fresh memory on every call, so first-touch
//! page faults are a fixed share of each pass. A [`Decision`] is
//! therefore packed into 25 bytes (8-byte id, one-byte [`Verdict`], two
//! `f64`s) rather than padded to 32, and a 4 M-request stream faults in
//! 95 MiB instead of 122 MiB.
//!
//! Admission runs in closed form ([`admit_all`]): inside a block every
//! push precedes every pop, so the shed victims are the oldest pushes and
//! the drain order is the survivors stably partitioned by priority.
//! [`AdmissionQueue`](crate::request::AdmissionQueue) is the reference
//! model that closed form is tested against. Requests
//! are scored straight from the block's reused `Request` buffer in drain
//! order, and each decision is four table lookups (one per tier) plus a
//! handful of multiply-adds against the memoized
//! [`TierTerms`](crate::config::TierTerms).
//!
//! The per-request path calls nothing out of line: generation inlines
//! its draws and picks the deadline class from a table, the latitude bin
//! rounds without libm, and each tier is tested against a four-entry
//! capacity array, the winner kept by conditional moves. Besides the
//! verdict's (placed, deferred or rejected), two data-dependent branches
//! are left, and both are deliberate: one skips a tier that cannot hold
//! the payload, the other a tier that misses the deadline. Each resolves
//! before the select chain starts, so its mispredictions are cheap and
//! the verdict branch learns from its history. Folding them into the
//! selects measured slower, because everything after them then waits on
//! the whole chain: with both folded, the overload stream ran slower
//! than with the old branchy loop; with the deadline test alone folded,
//! a stream that places every request on the SµDC lost the whole gain.

use std::hint::select_unpredictable;

use sudc_errors::SudcError;
use sudc_par::{chunk_bounds, par_map_threads, threads};

use crate::config::{RouterConfig, APPS};
use crate::request::{admit_all, Priority, Request, StreamConfig};
use crate::tier::Tier;

/// Outcome of one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// Feasible; runs on the named tier.
    Placed(Tier),
    /// No tier meets the deadline now, but one comes within the defer
    /// horizon (e.g. the next ground pass) — retask next round.
    Deferred,
    /// No tier comes close; the request is refused.
    Rejected,
    /// Dropped at admission: the queue was full and this request was the
    /// globally oldest.
    Shed,
}

/// One placement decision: 25 bytes, packed.
///
/// Every routed request gets one, so a pass writes its whole
/// [`RoutingOutcome::decisions`] vector into fresh memory, and the first
/// touch of each page (a minor fault) is a large share of a pass on a
/// multi-million-request stream. Unpacked, 7 of each record's 32 bytes
/// would be padding after the one-byte [`Verdict`]; packed, the vector
/// is 22 % smaller and a pass faults in that many fewer pages.
///
/// Read fields by value (`{ d.id }`, `d.latency_s`), never by reference:
/// `&d.id` does not compile (E0793), because a packed field may be
/// unaligned.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C, packed)]
pub struct Decision {
    /// The request's stream id.
    pub id: u64,
    /// What happened.
    pub verdict: Verdict,
    /// Modeled capture-to-insight latency of the chosen (or best
    /// available) tier, seconds; zero for shed requests.
    pub latency_s: f64,
    /// Modeled cost of the chosen tier, USD; zero unless placed.
    pub cost_usd: f64,
}

const _: () = assert!(std::mem::size_of::<Decision>() == 25);

/// Aggregated counters over a routed stream. Mergeable, so per-block
/// stats fold deterministically in block order.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingStats {
    /// Requests generated.
    pub requests: u64,
    /// Requests placed on some tier.
    pub placed: u64,
    /// Requests deferred to a later scheduling round.
    pub deferred: u64,
    /// Requests rejected outright.
    pub rejected: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Placed requests per tier.
    pub tier_counts: [u64; Tier::COUNT],
    /// Placed requests per (application, tier).
    pub app_tier: [[u64; Tier::COUNT]; APPS],
    /// Placed requests per priority class.
    pub priority_placed: [u64; Priority::COUNT],
    /// Generated requests per priority class.
    pub priority_total: [u64; Priority::COUNT],
    /// Sum of placed latencies, seconds.
    pub latency_sum_s: f64,
    /// Sum of placed costs, USD.
    pub cost_sum_usd: f64,
    /// Raw payload routed through the ground segment, Gbit.
    pub ground_gbit: f64,
    /// Ground-segment budget the stream's time-span earned, Gbit.
    pub ground_budget_gbit: f64,
}

impl RoutingStats {
    fn zero() -> Self {
        Self {
            requests: 0,
            placed: 0,
            deferred: 0,
            rejected: 0,
            shed: 0,
            tier_counts: [0; Tier::COUNT],
            app_tier: [[0; Tier::COUNT]; APPS],
            priority_placed: [0; Priority::COUNT],
            priority_total: [0; Priority::COUNT],
            latency_sum_s: 0.0,
            cost_sum_usd: 0.0,
            ground_gbit: 0.0,
            ground_budget_gbit: 0.0,
        }
    }

    /// Folds `other` into `self` (order-sensitive only in float rounding,
    /// which is why the engine always merges in block order).
    pub fn merge(&mut self, other: &Self) {
        self.requests += other.requests;
        self.placed += other.placed;
        self.deferred += other.deferred;
        self.rejected += other.rejected;
        self.shed += other.shed;
        for t in 0..Tier::COUNT {
            self.tier_counts[t] += other.tier_counts[t];
        }
        for a in 0..APPS {
            for t in 0..Tier::COUNT {
                self.app_tier[a][t] += other.app_tier[a][t];
            }
        }
        for p in 0..Priority::COUNT {
            self.priority_placed[p] += other.priority_placed[p];
            self.priority_total[p] += other.priority_total[p];
        }
        self.latency_sum_s += other.latency_sum_s;
        self.cost_sum_usd += other.cost_sum_usd;
        self.ground_gbit += other.ground_gbit;
        self.ground_budget_gbit += other.ground_budget_gbit;
    }

    /// Fraction of generated requests placed.
    #[must_use]
    pub fn acceptance_rate(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        self.placed as f64 / self.requests as f64
    }

    /// Mean capture-to-insight latency over placed requests, seconds.
    #[must_use]
    pub fn mean_latency_s(&self) -> f64 {
        if self.placed == 0 {
            return 0.0;
        }
        self.latency_sum_s / self.placed as f64
    }

    /// Mean cost over placed requests, USD.
    #[must_use]
    pub fn mean_cost_usd(&self) -> f64 {
        if self.placed == 0 {
            return 0.0;
        }
        self.cost_sum_usd / self.placed as f64
    }

    /// Fraction of generated requests placed on the orbital SµDC — the
    /// capture share the sim replay feeds back through `sudc-sim`.
    #[must_use]
    pub fn sudc_share(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        self.tier_counts[Tier::OrbitalSudc.index()] as f64 / self.requests as f64
    }
}

/// A routed stream: every decision in stream order, plus aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingOutcome {
    /// One decision per generated request. Within a block, admission-shed
    /// victims appear first (in push order), then the survivors in drain
    /// (priority) order; blocks are concatenated in stream order. With
    /// deferral re-entry, requests still carried at the end of the stream
    /// follow as `Deferred`.
    pub decisions: Vec<Decision>,
    /// Aggregates over the whole stream.
    pub stats: RoutingStats,
}

/// Per-worker buffers reused across blocks: the generated block and its
/// drain order.
#[derive(Default)]
struct Scratch {
    requests: Vec<Request>,
    drain: Vec<u32>,
}

impl RoutingOutcome {
    /// The request ledger, checked in debug builds: one decision per
    /// generated request, and the counters agree with each other.
    fn debug_assert_ledger(&self, requests: u64) {
        let s = &self.stats;
        debug_assert_eq!(
            self.decisions.len() as u64,
            requests,
            "one decision per request"
        );
        debug_assert_eq!(s.requests, requests, "requests counted once");
        debug_assert_eq!(
            s.placed + s.deferred + s.rejected + s.shed,
            s.requests,
            "every request has one verdict"
        );
        debug_assert_eq!(
            s.tier_counts.iter().sum::<u64>(),
            s.placed,
            "placed per tier"
        );
        debug_assert_eq!(
            s.priority_total.iter().sum::<u64>(),
            s.requests,
            "requests per class"
        );
        debug_assert_eq!(
            s.priority_placed.iter().sum::<u64>(),
            s.placed,
            "placed per class"
        );
    }
}

/// The placement engine: a validated [`RouterConfig`] plus the scoring
/// loop.
#[derive(Debug, Clone, PartialEq)]
pub struct Router {
    cfg: RouterConfig,
}

impl Router {
    /// Builds an engine over a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns the configuration's validation diagnostics.
    pub fn try_new(cfg: RouterConfig) -> Result<Self, SudcError> {
        cfg.try_validate()?;
        Ok(Self { cfg })
    }

    /// The reference-priced engine.
    ///
    /// # Panics
    ///
    /// Panics if the reference design pipeline fails (never expected).
    #[must_use]
    pub fn reference() -> Self {
        RouterConfig::try_reference()
            .and_then(Self::try_new)
            .expect("the reference scenario prices to a valid router configuration")
    }

    /// The configuration the engine scores against.
    #[must_use]
    pub fn config(&self) -> &RouterConfig {
        &self.cfg
    }

    /// Routes the whole stream, sharding blocks across worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `stream` fails [`StreamConfig::try_validate`]; see
    /// [`Router::try_route_stream`].
    #[must_use]
    pub fn route_stream(&self, stream: &StreamConfig) -> RoutingOutcome {
        if let Err(e) = stream.try_validate() {
            panic!("{e}");
        }
        let out = if self.cfg.readmit_deferred {
            self.route_stream_readmit(stream)
        } else {
            self.route_stream_sharded(stream)
        };
        out.debug_assert_ledger(stream.requests);
        out
    }

    /// Each worker routes a contiguous range of blocks, appending its
    /// decisions to one vector. Worker 0's vector has room for the whole
    /// stream and becomes the output; the others are appended in order.
    /// Per-block stats merge in block order, so float sums do not depend
    /// on the thread count.
    fn route_stream_sharded(&self, stream: &StreamConfig) -> RoutingOutcome {
        let ranges = chunk_bounds(stream.blocks() as usize, threads());
        let per_worker = par_map_threads(ranges.len(), &ranges, |w, &(start, end)| {
            let blocks = start as u64..end as u64;
            let room = if w == 0 {
                stream.requests as usize
            } else {
                blocks.clone().map(|b| stream.block_len(b)).sum()
            };
            let mut decisions = Vec::with_capacity(room);
            let mut scratch = Scratch::default();
            let stats: Vec<RoutingStats> = blocks
                .map(|b| self.route_block(stream, b, &mut scratch, &[], None, &mut decisions))
                .collect();
            (decisions, stats)
        });
        let mut decisions = Vec::new();
        let mut stats = RoutingStats::zero();
        for (w, (worker_decisions, block_stats)) in per_worker.into_iter().enumerate() {
            if w == 0 {
                decisions = worker_decisions;
            } else {
                decisions.extend_from_slice(&worker_decisions);
            }
            for s in &block_stats {
                stats.merge(s);
            }
        }
        RoutingOutcome { decisions, stats }
    }

    /// Sequential routing with deferral re-entry: each block's first-time
    /// deferrals carry into the next block's admission, ahead of that
    /// block's own arrivals (they are the oldest work), and compete for
    /// the next block's capacity budget. A carried request that is
    /// deferred again takes its `Deferred` verdict for good; whatever is
    /// still carried when the stream ends is flushed as `Deferred`.
    fn route_stream_readmit(&self, stream: &StreamConfig) -> RoutingOutcome {
        let mut decisions = Vec::with_capacity(stream.requests as usize);
        let mut stats = RoutingStats::zero();
        let mut scratch = Scratch::default();
        let mut carry: Vec<(Request, f64)> = Vec::new();
        let mut next = Vec::new();
        for b in 0..stream.blocks() {
            next.clear();
            let decided_before = decisions.len();
            let block_stats = self.route_block(
                stream,
                b,
                &mut scratch,
                &carry,
                Some(&mut next),
                &mut decisions,
            );
            // Re-entry ledger, checked in debug builds: every push is
            // decided here or carried on, and only the block's own
            // arrivals (ids from `b * block`, see `generate_block_into`)
            // are carried, so a deferred request re-enters at most once.
            debug_assert_eq!(
                carry.len() + stream.block_len(b),
                decisions.len() - decided_before + next.len(),
                "block {b}: carried-in + arrivals = decided + carried-out"
            );
            debug_assert!(
                next.iter().all(|(r, _)| r.id >= b * stream.block as u64),
                "block {b}: a carried request was carried again"
            );
            stats.merge(&block_stats);
            std::mem::swap(&mut carry, &mut next);
        }
        for (r, reachable_latency) in carry {
            stats.deferred += 1;
            decisions.push(Decision {
                id: r.id,
                verdict: Verdict::Deferred,
                latency_s: reachable_latency,
                cost_usd: 0.0,
            });
        }
        RoutingOutcome { decisions, stats }
    }

    /// Fallible [`Router::route_stream`]: validates the configuration and
    /// the stream before routing.
    ///
    /// # Errors
    ///
    /// Returns the merged validation diagnostics of the configuration and
    /// the stream.
    pub fn try_route_stream(&self, stream: &StreamConfig) -> Result<RoutingOutcome, SudcError> {
        match (self.cfg.try_validate(), stream.try_validate()) {
            (Ok(()), Ok(())) => Ok(self.route_stream(stream)),
            (Err(a), Err(b)) => Err(a.merge(b)),
            (Err(a), Ok(())) => Err(a),
            (Ok(()), Err(b)) => Err(b),
        }
    }

    /// Generates, admits, and scores one block, appending its decisions
    /// to `decisions`. `carry` holds previous blocks' deferrals re-entering
    /// here (with the reachable latency recorded at deferral); when
    /// `next_carry` is set, this block's first-time deferrals are pushed
    /// there instead of deciding.
    fn route_block(
        &self,
        stream: &StreamConfig,
        b: u64,
        scratch: &mut Scratch,
        carry: &[(Request, f64)],
        mut next_carry: Option<&mut Vec<(Request, f64)>>,
        decisions: &mut Vec<Decision>,
    ) -> RoutingStats {
        let Scratch { requests, drain } = scratch;
        stream.generate_block_into(b, requests);
        let mut stats = RoutingStats::zero();
        stats.requests = requests.len() as u64;
        for r in requests.iter() {
            stats.priority_total[r.priority.index()] += 1;
        }

        // Admission in closed form: carried deferrals are pushed first —
        // they are the oldest work, and their origin block already counted
        // them in `requests` and `priority_total`, so only their final
        // verdict lands here. Push `k` is `carry[k]`, then the arrivals.
        let carried = carry.len();
        let push = |k: usize| {
            if k < carried {
                &carry[k].0
            } else {
                &requests[k - carried]
            }
        };
        let shed = admit_all(
            carried + requests.len(),
            stream.queue_capacity,
            |k| push(k).priority,
            drain,
        );
        stats.shed = shed as u64;
        decisions.extend((0..shed).map(|k| Decision {
            id: push(k).id,
            verdict: Verdict::Shed,
            latency_s: 0.0,
            cost_usd: 0.0,
        }));

        // The block's time-span earns a share of each bottleneck's
        // sustained rate: the ground segment's drain rate (shared by the
        // edge and cloud tiers, which ride the same downlink) and the
        // SµDC's compute-ingest rate.
        let span_s = requests.len() as f64 / stream.arrival_per_s;
        let mut ground_budget = self.cfg.ground_capacity_gbit_per_s * span_s;
        // The health plane's observed pool shrinks this block's compute
        // ingest: a degraded SµDC keeps its ground capacity but can
        // accept proportionally less orbital work.
        let mut sudc_budget =
            self.cfg.sudc_capacity_gbit_per_s * span_s * self.cfg.pool_fraction(b);
        stats.ground_budget_gbit = ground_budget;

        // Scoring in drain (priority) order: four memoized tier
        // evaluations per request, each against its tier's capacity.
        for &k in drain.iter() {
            let k = k as usize;
            let r = push(k);
            let terms = &self.cfg.terms[r.app as usize];
            let wait = self.cfg.lat_wait_s[RouterConfig::lat_bin(r.lat_deg)];
            let size = r.size_gbit * self.cfg.image_gbit;
            let deadline = r.deadline_s;
            // What each tier can still hold, in `Tier` order: the edge and
            // cloud tiers share the ground segment's budget.
            let capacity = [
                self.cfg.onboard_max_gbit,
                sudc_budget,
                ground_budget,
                ground_budget,
            ];

            // The cheapest feasible tier, then the fastest, then the first
            // in tier order (iteration order, so a later tier must be
            // strictly better). A closed or late tier is skipped by a
            // branch; the winner among the rest is kept by selects.
            let mut found = false;
            let (mut best_cost, mut best_latency, mut best_tier) = (0.0, 0.0, 0);
            // Best latency among tiers that could still *hold* the
            // request (capacity and size allow), deadline aside — the
            // defer-vs-reject signal.
            let mut reachable_latency = f64::INFINITY;
            // Indexed, not zipped, so LLVM unrolls the four tiers.
            for t in 0..Tier::COUNT {
                let term = &terms[t];
                let open = size <= capacity[t];
                if !open {
                    continue;
                }
                let latency = term.fixed_s + term.per_gbit_s * size + term.wait_scale * wait;
                reachable_latency = reachable_latency.min(latency);
                if latency > deadline {
                    continue;
                }
                let cost = term.fixed_usd + term.per_gbit_usd * size;
                let better =
                    !found | (cost < best_cost) | ((cost == best_cost) & (latency < best_latency));
                best_cost = select_f64(better, cost, best_cost);
                best_latency = select_f64(better, latency, best_latency);
                best_tier = select_unpredictable(better, t, best_tier);
                found = true;
            }

            let decision = if found {
                let tier = Tier::from_index(best_tier);
                match tier {
                    Tier::OrbitalSudc => sudc_budget -= size,
                    Tier::GroundEdge | Tier::Cloud => {
                        ground_budget -= size;
                        stats.ground_gbit += size;
                    }
                    Tier::Onboard => {}
                }
                stats.placed += 1;
                stats.tier_counts[best_tier] += 1;
                stats.app_tier[r.app as usize][best_tier] += 1;
                stats.priority_placed[r.priority.index()] += 1;
                stats.latency_sum_s += best_latency;
                stats.cost_sum_usd += best_cost;
                Decision {
                    id: r.id,
                    verdict: Verdict::Placed(tier),
                    latency_s: best_latency,
                    cost_usd: best_cost,
                }
            } else if reachable_latency <= deadline + self.cfg.defer_horizon_s {
                // First deferral with re-entry armed: no verdict yet — the
                // request rides into the next block's window. A carried
                // request (push `k < carried`) deferring again is decided
                // for good.
                if k >= carried {
                    if let Some(out) = next_carry.as_mut() {
                        out.push((*r, reachable_latency));
                        continue;
                    }
                }
                stats.deferred += 1;
                Decision {
                    id: r.id,
                    verdict: Verdict::Deferred,
                    latency_s: reachable_latency,
                    cost_usd: 0.0,
                }
            } else {
                stats.rejected += 1;
                Decision {
                    id: r.id,
                    verdict: Verdict::Rejected,
                    latency_s: reachable_latency,
                    cost_usd: 0.0,
                }
            };
            decisions.push(decision);
        }

        stats
    }
}

/// `if c { a } else { b }` as a select on the bit patterns. On the x86-64
/// baseline (SSE2) LLVM lowers a float select to a branch but an integer
/// one to a conditional move, and the scoring loop's conditions are
/// data-dependent.
#[inline(always)]
fn select_f64(c: bool, a: f64, b: f64) -> f64 {
    f64::from_bits(select_unpredictable(c, a.to_bits(), b.to_bits()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sudc_par::set_threads;

    fn small_stream() -> StreamConfig {
        let mut s = StreamConfig::new(20_000, 0x5bdc_2026, 1.4);
        s.block = 2048;
        s.queue_capacity = 2048;
        s
    }

    #[test]
    fn every_request_gets_exactly_one_decision() {
        let router = Router::reference();
        let out = router.route_stream(&small_stream());
        assert_eq!(out.decisions.len(), 20_000);
        let mut ids: Vec<u64> = out.decisions.iter().map(|d| d.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 20_000, "ids unique and complete");
        let s = &out.stats;
        assert_eq!(s.placed + s.deferred + s.rejected + s.shed, s.requests);
    }

    #[test]
    fn decisions_are_identical_across_thread_counts() {
        let router = Router::reference();
        let stream = small_stream();
        set_threads(1);
        let one = router.route_stream(&stream);
        set_threads(4);
        let four = router.route_stream(&stream);
        set_threads(0);
        assert_eq!(one, four);
    }

    #[test]
    fn placements_respect_deadlines() {
        let router = Router::reference();
        let stream = small_stream();
        let out = router.route_stream(&stream);
        // Rebuild the stream to cross-check deadlines by id.
        let mut deadline = std::collections::HashMap::new();
        for b in 0..stream.blocks() {
            for r in stream.generate_block(b) {
                deadline.insert(r.id, r.deadline_s);
            }
        }
        for d in &out.decisions {
            if let Verdict::Placed(_) = d.verdict {
                assert!(d.latency_s <= deadline[&{ d.id }] + 1e-9);
            }
        }
    }

    #[test]
    fn ground_traffic_stays_within_budget() {
        let router = Router::reference();
        let out = router.route_stream(&small_stream());
        assert!(out.stats.ground_gbit <= out.stats.ground_budget_gbit + 1e-6);
    }

    #[test]
    fn tiny_queue_sheds_and_still_accounts_for_everything() {
        let router = Router::reference();
        let mut stream = small_stream();
        stream.queue_capacity = 64;
        let out = router.route_stream(&stream);
        assert!(out.stats.shed > 0);
        assert_eq!(out.decisions.len(), stream.requests as usize);
        let s = &out.stats;
        assert_eq!(s.placed + s.deferred + s.rejected + s.shed, s.requests);
    }

    #[test]
    fn stressed_stream_overflows_to_other_tiers_and_defers() {
        let router = Router::reference();
        let mut stream = small_stream();
        // Orders of magnitude above the reference capture rate: block
        // time-spans shrink, capacity budgets dry up.
        stream.arrival_per_s = 1.4 * 1e4;
        let out = router.route_stream(&stream);
        let s = &out.stats;
        assert!(s.deferred + s.rejected > 0, "overload must show");
        assert!(
            s.tier_counts[Tier::Onboard.index()] > 0,
            "small payloads overflow onboard"
        );
        assert_eq!(s.placed + s.deferred + s.rejected + s.shed, s.requests);
    }

    #[test]
    fn deferral_reentry_improves_the_accepted_mix_at_equal_capacity() {
        // Same pricing tables, same per-block capacity budgets, same
        // stream — the only change is that a first deferral re-enters
        // the next block's window instead of bouncing straight back to
        // the requester.
        let baseline = Router::reference();
        let mut cfg = RouterConfig::try_reference().unwrap();
        cfg.readmit_deferred = true;
        let readmitting = Router::try_new(cfg).unwrap();

        let mut stream = small_stream();
        // Overloaded enough that the SµDC budget dries up mid-block and
        // standard-deadline requests land in the defer window (at extreme
        // overload everything is rejected outright instead — the defer
        // band needs a partially open ground segment).
        stream.arrival_per_s = 1.4 * 30.0;
        let before = baseline.route_stream(&stream);
        let after = readmitting.route_stream(&stream);

        assert!(before.stats.deferred > 0, "overload must defer");
        assert_eq!(after.stats.requests, before.stats.requests);
        assert!(
            (after.stats.ground_budget_gbit - before.stats.ground_budget_gbit).abs() < 1e-6,
            "equal capacity"
        );
        assert!(
            after.stats.placed > before.stats.placed,
            "re-entry must lift acceptance: {} -> {}",
            before.stats.placed,
            after.stats.placed
        );

        // Accounting stays exact: every generated request gets exactly
        // one final verdict, and the counters agree with the decisions.
        let s = &after.stats;
        assert_eq!(s.placed + s.deferred + s.rejected + s.shed, s.requests);
        let mut ids: Vec<u64> = after.decisions.iter().map(|d| d.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), stream.requests as usize);
    }

    #[test]
    fn reentry_is_a_noop_when_nothing_defers() {
        let baseline = Router::reference();
        let mut cfg = RouterConfig::try_reference().unwrap();
        cfg.readmit_deferred = true;
        let readmitting = Router::try_new(cfg).unwrap();
        let stream = small_stream();
        let before = baseline.route_stream(&stream);
        if before.stats.deferred == 0 {
            // The unstressed stream defers nothing, so the sequential
            // path must reproduce the sharded path decision for decision.
            assert_eq!(readmitting.route_stream(&stream), before);
        } else {
            // Stream drifted under config changes; the mix may only improve.
            let after = readmitting.route_stream(&stream);
            assert!(after.stats.placed >= before.stats.placed);
        }
    }

    #[test]
    fn degraded_pools_push_work_off_the_sudc_at_equal_demand() {
        // Same stream, same pricing, same ground capacity — only the
        // health plane's observed compute pool shrinks. The SµDC tier
        // must lose placements and the rest of the accounting must stay
        // exact.
        let full = Router::reference();
        let degraded = Router::try_new(
            RouterConfig::try_reference()
                .unwrap()
                .try_with_degraded_pools(&[0.25])
                .expect("valid fractions"),
        )
        .unwrap();
        let mut stream = small_stream();
        stream.arrival_per_s = 1.4 * 30.0; // budgets bind
        let before = full.route_stream(&stream);
        let after = degraded.route_stream(&stream);
        let sudc = Tier::OrbitalSudc.index();
        assert!(before.stats.tier_counts[sudc] > 0, "budget must bind");
        assert!(
            after.stats.tier_counts[sudc] < before.stats.tier_counts[sudc],
            "degraded pool must shed SµDC work: {} -> {}",
            before.stats.tier_counts[sudc],
            after.stats.tier_counts[sudc]
        );
        assert!(
            (after.stats.ground_budget_gbit - before.stats.ground_budget_gbit).abs() < 1e-6,
            "ground capacity untouched"
        );
        let s = &after.stats;
        assert_eq!(s.placed + s.deferred + s.rejected + s.shed, s.requests);

        // Degradation composes with deferral re-entry: the sequential
        // readmitting path over the same shrunken pool still accounts
        // exactly and can only improve the accepted mix.
        let mut cfg = RouterConfig::try_reference()
            .unwrap()
            .try_with_degraded_pools(&[0.25])
            .unwrap();
        cfg.readmit_deferred = true;
        let readmitted = Router::try_new(cfg).unwrap().route_stream(&stream);
        let s = &readmitted.stats;
        assert_eq!(s.placed + s.deferred + s.rejected + s.shed, s.requests);
        assert!(readmitted.stats.placed >= after.stats.placed);
    }

    #[test]
    fn health_observed_degradation_re_prices_the_stream() {
        // The full loop: a chaos campaign kills nodes, the health plane
        // detects them on the bus, the recorded verdict stream becomes a
        // pool timeline, and its per-block fractions re-price the
        // router's orbit-vs-ground placement.
        use sudc_chaos::Campaign;
        use sudc_health::{HealthConfig, PoolTimeline};
        use sudc_units::Seconds;

        let duration = Seconds::new(3600.0);
        let cfg = Campaign::independent(duration)
            .apply(&sudc_sim::SimConfig::reference_operations(duration))
            .with_health(HealthConfig::standard());
        let (trace, log) = sudc_sim::run_recorded(&cfg, 9);
        assert!(trace.detections > 0, "campaign must kill and be detected");
        let timeline = PoolTimeline::try_from_log(&log, cfg.required).unwrap();
        assert!(timeline.min_alive() < cfg.required);

        let mut stream = small_stream();
        stream.arrival_per_s = 1.4 * 30.0;
        let fractions = timeline.try_fractions(stream.blocks() as usize).unwrap();
        assert!(fractions.iter().any(|f| *f < 1.0));
        let degraded = Router::try_new(
            RouterConfig::try_reference()
                .unwrap()
                .try_with_degraded_pools(&fractions)
                .expect("observed fractions are valid"),
        )
        .unwrap();
        let before = Router::reference().route_stream(&stream);
        let after = degraded.route_stream(&stream);
        let sudc = Tier::OrbitalSudc.index();
        assert!(
            after.stats.tier_counts[sudc] <= before.stats.tier_counts[sudc],
            "a shrunken observed pool never gains SµDC work"
        );
        let s = &after.stats;
        assert_eq!(s.placed + s.deferred + s.rejected + s.shed, s.requests);
    }

    #[test]
    fn try_route_stream_reports_bad_config_and_stream_together() {
        let mut cfg = RouterConfig::try_reference().unwrap();
        cfg.deadline_slo_s = f64::NAN;
        let router = Router { cfg };
        let mut stream = small_stream();
        stream.requests = 0;
        let err = router.try_route_stream(&stream).unwrap_err();
        assert!(err.violations().len() >= 2);
    }
}
