//! Overprovisioned-node availability (paper §VII, Figs. 24 and 25).
//!
//! Node lifetimes are i.i.d. `Exp(λ)` with mean time to failure
//! `T = 1/λ`. With `n` installed nodes of which `k` are needed (the paper
//! uses `k = 10`, the power-limited active count), the system is fully
//! available at time `t` iff at least `k` nodes survive — a binomial tail
//! in the per-node survival probability `p(t) = e^(−t/T)`.

use sudc_errors::{Diagnostics, SudcError};
use sudc_par::rng::Rng64;

/// Default seed for the Monte-Carlo cross-validations (Figs. 24–25 and the
/// sparing simulator). Callers and tests that want "the reference run"
/// should pass this so reports are reproducible builds.
pub const DEFAULT_MC_SEED: u64 = 0x5bdc_2025;

/// Trials per RNG block. Trials are partitioned into fixed-size blocks,
/// each with an RNG stream derived from `(seed, block index)`, so the
/// estimate is **bit-identical at every thread count** — parallelism only
/// changes which thread runs a block, never the draws inside it.
const TRIAL_BLOCK: u32 = 1024;

/// Minimum RNG blocks a worker thread must receive before the Monte-Carlo
/// sweeps spawn threads at all: small studies (a few thousand trials) were
/// *slower* in parallel than serial because the spawn/join overhead
/// exceeded the work (`BENCH_sweeps.json` showed 0.99× on
/// `monte_carlo_availability`). Thread-count invariance is unaffected —
/// block RNG streams derive from the block index alone.
pub(crate) const MIN_BLOCKS_PER_THREAD: usize = 4;

/// A pool of `nodes` identical servers of which `required` must work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodePool {
    /// Installed node count `n` (spares included).
    pub nodes: u32,
    /// Nodes needed for full capability `k` (power-limited).
    pub required: u32,
}

impl NodePool {
    /// Creates a pool.
    ///
    /// # Errors
    ///
    /// Returns a structured error if `required` is zero or exceeds
    /// `nodes`.
    pub fn try_new(nodes: u32, required: u32) -> Result<Self, SudcError> {
        let mut d = Diagnostics::new("NodePool");
        if d.ensure(
            required > 0,
            "required",
            required,
            "at least one node must be required",
        ) {
            d.ensure(
                required <= nodes,
                "required",
                required,
                format_args!(
                    "at most nodes = {nodes} (cannot require {required} of only {nodes} nodes)"
                ),
            );
        }
        d.into_result(Self { nodes, required })
    }

    /// Per-node survival probability at time `t` (in units of the MTTF `T`).
    ///
    /// # Errors
    ///
    /// Returns a structured error if `t_over_mttf` is negative or
    /// non-finite.
    pub fn try_node_survival(t_over_mttf: f64) -> Result<f64, SudcError> {
        if !(t_over_mttf.is_finite() && t_over_mttf >= 0.0) {
            return Err(SudcError::single(
                "NodePool::node_survival",
                "t_over_mttf",
                t_over_mttf,
                "time must be finite and non-negative",
            ));
        }
        Ok((-t_over_mttf).exp())
    }

    /// Probability that at least `required` nodes are alive at time `t`
    /// (the paper's `P[Z_n(t) = 1]`, Fig. 24).
    ///
    /// # Errors
    ///
    /// Returns a structured error if `t_over_mttf` is negative or
    /// non-finite.
    pub fn try_availability(self, t_over_mttf: f64) -> Result<f64, SudcError> {
        let p = Self::try_node_survival(t_over_mttf)?;
        Ok(binomial_tail_at_least(self.nodes, self.required, p))
    }

    /// Expected usable capacity `E[min(required, alive)]` (Fig. 25).
    ///
    /// # Errors
    ///
    /// Returns a structured error if `t_over_mttf` is negative or
    /// non-finite.
    pub fn try_expected_capacity(self, t_over_mttf: f64) -> Result<f64, SudcError> {
        let p = Self::try_node_survival(t_over_mttf)?;
        let n = self.nodes;
        Ok((0..=n)
            .map(|j| f64::from(j.min(self.required)) * binomial_pmf(n, j, p))
            .sum())
    }

    /// Time (in MTTF units) at which availability first drops to
    /// `threshold`, found by bisection.
    ///
    /// # Errors
    ///
    /// Returns a structured error if `threshold` is not strictly inside
    /// `(0, 1)`.
    pub fn try_time_to_availability(self, threshold: f64) -> Result<f64, SudcError> {
        if !(threshold > 0.0 && threshold < 1.0) {
            return Err(SudcError::single(
                "NodePool::time_to_availability",
                "threshold",
                threshold,
                "the threshold must be in (0, 1)",
            ));
        }
        let (mut lo, mut hi) = (0.0, 50.0);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.try_availability(mid)? > threshold {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Ok(0.5 * (lo + hi))
    }

    /// Median time to system degradation (availability = 0.5).
    #[must_use]
    pub fn median_degradation_time(self) -> f64 {
        self.try_time_to_availability(0.5)
            .expect("0.5 lies inside (0, 1)")
    }

    /// Monte-Carlo estimate of availability at `t` (cross-validates the
    /// analytic binomial form, Fig. 24).
    ///
    /// Trials run in parallel on the workspace executor, partitioned into
    /// fixed-size blocks whose RNG streams derive only from `(seed, block
    /// index)` — the estimate is bit-identical at every thread count, and
    /// identical seeds give identical estimates across runs. A zero trial
    /// count and an invalid time are reported in one combined error.
    ///
    /// # Errors
    ///
    /// Returns a structured error if `trials` is zero or `t_over_mttf` is
    /// negative or non-finite.
    pub fn try_simulate_availability(
        self,
        t_over_mttf: f64,
        trials: u32,
        seed: u64,
    ) -> Result<f64, SudcError> {
        let mut d = Diagnostics::new("NodePool::simulate_availability");
        d.ensure(trials > 0, "trials", trials, "need at least one trial");
        d.non_negative("t_over_mttf", t_over_mttf);
        d.finish()?;
        let p = Self::try_node_survival(t_over_mttf)?;
        let blocks: Vec<(u64, u32)> = block_sizes(trials)
            .into_iter()
            .enumerate()
            .map(|(b, size)| (b as u64, size))
            .collect();
        let hits = sudc_par::par_reduce_min_chunk(
            &blocks,
            MIN_BLOCKS_PER_THREAD,
            || 0u64,
            |acc, _, &(block, size)| {
                let mut rng = Rng64::stream(seed, block);
                let mut hits = 0u64;
                for _ in 0..size {
                    let alive = (0..self.nodes).filter(|_| rng.next_f64() < p).count() as u32;
                    if alive >= self.required {
                        hits += 1;
                    }
                }
                acc + hits
            },
            |a, b| a + b,
        );
        Ok(hits as f64 / f64::from(trials))
    }
}

/// Splits `trials` into [`TRIAL_BLOCK`]-sized blocks (last one short).
pub(crate) fn block_sizes(trials: u32) -> Vec<u32> {
    let full = trials / TRIAL_BLOCK;
    let rest = trials % TRIAL_BLOCK;
    let mut sizes = vec![TRIAL_BLOCK; full as usize];
    if rest > 0 {
        sizes.push(rest);
    }
    sizes
}

/// Binomial PMF `P[X = j]`, computed in log space for stability.
#[must_use]
pub fn binomial_pmf(n: u32, j: u32, p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p must be a probability, got {p}");
    if j > n {
        return 0.0;
    }
    if p == 0.0 {
        return if j == 0 { 1.0 } else { 0.0 };
    }
    if p == 1.0 {
        return if j == n { 1.0 } else { 0.0 };
    }
    let ln = ln_choose(n, j) + f64::from(j) * p.ln() + f64::from(n - j) * (1.0 - p).ln();
    ln.exp()
}

/// Binomial upper tail `P[X >= k]`.
#[must_use]
pub fn binomial_tail_at_least(n: u32, k: u32, p: f64) -> f64 {
    (k..=n).map(|j| binomial_pmf(n, j, p)).sum::<f64>().min(1.0)
}

fn ln_choose(n: u32, j: u32) -> f64 {
    ln_factorial(n) - ln_factorial(j) - ln_factorial(n - j)
}

fn ln_factorial(n: u32) -> f64 {
    (2..=u64::from(n)).map(|i| (i as f64).ln()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_99_percent_degradation_times() {
        // Paper: "the time at which probability of system degradation
        // exceeds 99% ... 0.46, 1.43, and 1.89 for n = 10, 20, and 30".
        let t10 = NodePool::try_new(10, 10)
            .unwrap()
            .try_time_to_availability(0.01)
            .unwrap();
        let t20 = NodePool::try_new(20, 10)
            .unwrap()
            .try_time_to_availability(0.01)
            .unwrap();
        let t30 = NodePool::try_new(30, 10)
            .unwrap()
            .try_time_to_availability(0.01)
            .unwrap();
        assert!((t10 - 0.46).abs() < 0.02, "n=10: {t10}");
        assert!((t20 - 1.43).abs() < 0.05, "n=20: {t20}");
        assert!((t30 - 1.89).abs() < 0.06, "n=30: {t30}");
    }

    #[test]
    fn median_degradation_grows_superlinearly_with_overprovisioning() {
        // Doubling the pool (10 -> 20) must far more than double the median
        // time to degradation; tripling extends it further.
        let m10 = NodePool::try_new(10, 10).unwrap().median_degradation_time();
        let m20 = NodePool::try_new(20, 10).unwrap().median_degradation_time();
        let m30 = NodePool::try_new(30, 10).unwrap().median_degradation_time();
        assert!(m20 > 5.0 * m10, "m10={m10}, m20={m20}");
        assert!(m30 > m20);
        // Analytic anchors: ~0.069 T for n=10 (first of 10 failures),
        // ~0.74 T for n=20, ~1.15 T for n=30.
        assert!((m10 - 0.069).abs() < 0.005, "m10={m10}");
        assert!((m20 - 0.74).abs() < 0.03, "m20={m20}");
        assert!((m30 - 1.15).abs() < 0.04, "m30={m30}");
    }

    #[test]
    fn availability_at_time_zero_is_one() {
        for n in [10, 20, 30] {
            assert!(
                (NodePool::try_new(n, 10)
                    .unwrap()
                    .try_availability(0.0)
                    .unwrap()
                    - 1.0)
                    .abs()
                    < 1e-12
            );
        }
    }

    #[test]
    fn expected_capacity_starts_full_and_decays() {
        let pool = NodePool::try_new(20, 10).unwrap();
        assert!((pool.try_expected_capacity(0.0).unwrap() - 10.0).abs() < 1e-9);
        let early = pool.try_expected_capacity(0.5).unwrap();
        let late = pool.try_expected_capacity(2.0).unwrap();
        assert!(early > late);
        assert!(late > 0.0);
    }

    #[test]
    fn overprovisioning_raises_expected_capacity_at_all_times() {
        // Fig. 25: "at all times, overprovisioning provides significant
        // improvement in the expected computational power".
        let base = NodePool::try_new(10, 10).unwrap();
        let over = NodePool::try_new(30, 10).unwrap();
        for t in [0.1, 0.5, 1.0, 1.5, 2.0] {
            assert!(
                over.try_expected_capacity(t).unwrap() > base.try_expected_capacity(t).unwrap(),
                "t={t}"
            );
        }
    }

    #[test]
    fn monte_carlo_agrees_with_analytic() {
        let pool = NodePool::try_new(20, 10).unwrap();
        for t in [0.3, 0.8, 1.3] {
            let analytic = pool.try_availability(t).unwrap();
            let mc = pool
                .try_simulate_availability(t, 20_000, DEFAULT_MC_SEED)
                .unwrap();
            assert!(
                (analytic - mc).abs() < 0.02,
                "t={t}: analytic {analytic} vs MC {mc}"
            );
        }
    }

    #[test]
    fn monte_carlo_is_bit_identical_at_every_thread_count() {
        // The Fig. 24 cross-validation must not depend on the machine: the
        // per-block RNG streams derive only from (seed, block index).
        let pool = NodePool::try_new(20, 10).unwrap();
        let reference = pool.try_simulate_availability(0.8, 10_000, 7).unwrap();
        for workers in [1usize, 2, 3, 8] {
            sudc_par::set_threads(workers);
            let got = pool.try_simulate_availability(0.8, 10_000, 7).unwrap();
            sudc_par::set_threads(0);
            assert!(
                (got - reference).abs() == 0.0,
                "workers={workers}: {got} != {reference}"
            );
        }
    }

    #[test]
    fn monte_carlo_is_reproducible_per_seed_and_sensitive_to_it() {
        let pool = NodePool::try_new(30, 10).unwrap();
        let a = pool.try_simulate_availability(1.0, 5_000, 1).unwrap();
        let b = pool.try_simulate_availability(1.0, 5_000, 1).unwrap();
        let c = pool.try_simulate_availability(1.0, 5_000, 2).unwrap();
        assert_eq!(a, b, "same seed must reproduce exactly");
        assert_ne!(a, c, "different seeds must explore different trials");
    }

    #[test]
    fn trial_blocks_cover_all_trials() {
        for trials in [1u32, 1023, 1024, 1025, 20_000] {
            let total: u32 = block_sizes(trials).iter().sum();
            assert_eq!(total, trials);
        }
    }

    #[test]
    fn binomial_pmf_sums_to_one() {
        let total: f64 = (0..=25).map(|j| binomial_pmf(25, j, 0.37)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn binomial_edge_cases() {
        assert_eq!(binomial_pmf(10, 0, 0.0), 1.0);
        assert_eq!(binomial_pmf(10, 10, 1.0), 1.0);
        assert_eq!(binomial_pmf(10, 11, 0.5), 0.0);
        assert!((binomial_tail_at_least(10, 0, 0.3) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn impossible_pool_is_rejected() {
        let err = NodePool::try_new(5, 10).unwrap_err();
        assert!(err.to_string().contains("cannot require"), "{err}");
    }

    proptest! {
        #[test]
        fn availability_nonincreasing_in_time(
            t1 in 0.0..5.0f64,
            t2 in 0.0..5.0f64,
            n in 10u32..40,
        ) {
            let pool = NodePool::try_new(n, 10).unwrap();
            let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
            prop_assert!(pool.try_availability(hi).unwrap() <= pool.try_availability(lo).unwrap() + 1e-12);
        }

        #[test]
        fn more_spares_never_hurt(t in 0.0..3.0f64, n in 10u32..40) {
            let a = NodePool::try_new(n, 10).unwrap().try_availability(t).unwrap();
            let b = NodePool::try_new(n + 1, 10).unwrap().try_availability(t).unwrap();
            prop_assert!(b >= a - 1e-12);
        }

        #[test]
        fn capacity_bounded_by_required(t in 0.0..5.0f64, n in 10u32..40) {
            let c = NodePool::try_new(n, 10).unwrap().try_expected_capacity(t).unwrap();
            prop_assert!((0.0..=10.0 + 1e-12).contains(&c));
        }
    }
}
