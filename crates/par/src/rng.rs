//! Small, seedable, splittable pseudo-random generator for Monte-Carlo
//! models.
//!
//! The workspace's Monte-Carlo sweeps must be (a) reproducible from a
//! single documented seed and (b) partitionable across threads without the
//! result depending on the thread count. Both needs are met by deriving an
//! independent stream per fixed-size *trial block* with [`Rng64::stream`]:
//! block `b` of a simulation seeded with `s` always sees the same draws, no
//! matter which thread runs it.
//!
//! The generator is `xoshiro256**` (Blackman & Vigna) seeded through
//! SplitMix64 — the standard construction, dependency-free, passes BigCrush,
//! and is far better distributed than a bare LCG.

/// SplitMix64 step: the recommended seeder for xoshiro state.
#[must_use]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256** generator.
///
/// The generator is `Copy` so it can ride inside `Copy` values such as
/// scheduled events. A copy forks the stream: both copies go on to make
/// the same draws, so a caller that needs one stream must move each
/// generator along exactly one path (the sim kernel keeps each
/// satellite's generator in that satellite's single pending capture
/// event, and only that event's handler draws from it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rng64 {
    s: [u64; 4],
}

impl Rng64 {
    /// Creates a generator from a seed. Any seed (including 0) is valid.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        Self {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Derives the generator for an independent stream (e.g. one
    /// Monte-Carlo trial block). `Rng64::new(seed).stream(b)` is a pure
    /// function of `(seed, b)`, so work partitioned by block index is
    /// reproducible at any thread count.
    #[must_use]
    pub fn stream(seed: u64, index: u64) -> Self {
        // Mix the stream index through SplitMix64 so adjacent indices land
        // far apart in state space.
        let mut sm = seed ^ index.wrapping_mul(0xa076_1d64_78bd_642f);
        let mixed = splitmix64(&mut sm);
        Self::new(mixed ^ seed.rotate_left(17))
    }

    /// Next raw 64-bit output.
    #[must_use]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    #[must_use]
    pub fn next_f64(&mut self) -> f64 {
        unit_from_u64(self.next_u64())
    }

    /// Uniform draw in `[lo, hi)`. Validates the bounds before drawing
    /// (an invalid range draws nothing, keeping the stream intact).
    ///
    /// # Errors
    ///
    /// Returns a structured error if a bound is NaN/±∞ or `lo >= hi`.
    pub fn try_range(&mut self, lo: f64, hi: f64) -> Result<f64, sudc_errors::SudcError> {
        // Hot path first: building Diagnostics allocates, and this sits
        // inside every Monte-Carlo draw loop in the workspace.
        if lo.is_finite() && hi.is_finite() && lo < hi {
            return Ok(lo + self.next_f64() * (hi - lo));
        }
        let mut d = sudc_errors::Diagnostics::new("Rng64::try_range");
        let lo_ok = d.finite("lo", lo);
        let hi_ok = d.finite("hi", hi);
        if lo_ok && hi_ok {
            d.ensure(
                lo < hi,
                "lo..hi",
                format!("[{lo}, {hi})"),
                "a non-empty range (lo < hi)",
            );
        }
        d.finish()?;
        unreachable!("invalid range must produce a violation")
    }

    /// Uniform integer draw in `[0, bound)` via Lemire's multiply-shift
    /// (bias negligible for the bounds used here).
    ///
    /// Inlined across crates like the other draws: the zero-bound error
    /// is built out of line, so the hot path is one multiply.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is 0 (see [`Rng64::try_below`]).
    #[must_use]
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        match self.try_below(bound) {
            Ok(x) => x,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`Rng64::next_below`].
    ///
    /// # Errors
    ///
    /// Returns a structured error if `bound` is 0.
    #[inline]
    pub fn try_below(&mut self, bound: u64) -> Result<u64, sudc_errors::SudcError> {
        if bound == 0 {
            return Err(zero_bound_error());
        }
        Ok(((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64)
    }

    /// Standard-exponential draw (mean 1) by inversion, clamped away from
    /// `ln(0)`: [`Rng64::exp_from_u64`] of the next raw output.
    ///
    /// The draw is a fixed function of one `next_u64`, so a caller that
    /// rounds it to a coarse grid can tabulate the result instead of
    /// calling `ln` (the sim kernel's capture-gap table does, and falls
    /// back to [`Rng64::exp_from_u64`] near every step of the grid).
    #[must_use]
    pub fn next_exp(&mut self) -> f64 {
        Self::exp_from_u64(self.next_u64())
    }

    /// The standard-exponential variate [`Rng64::next_exp`] makes from
    /// the raw output `bits`: `-ln(w · 2^-53)` with
    /// `w = 2^53 - (bits >> 11)`, an integer in `[1, 2^53]` (the
    /// subtraction `1 - next_f64` is exact).
    #[must_use]
    pub fn exp_from_u64(bits: u64) -> f64 {
        -(1.0 - unit_from_u64(bits)).max(f64::MIN_POSITIVE).ln()
    }
}

/// The error [`Rng64::try_below`] returns for a zero bound, built out of
/// line so the draw itself stays small enough to inline.
#[cold]
#[inline(never)]
fn zero_bound_error() -> sudc_errors::SudcError {
    sudc_errors::SudcError::single("Rng64::next_below", "bound", 0, "a positive bound")
}

/// Top 53 bits scaled by 2^-53: the canonical double construction.
fn unit_from_u64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = Rng64::new(42);
        let mut b = Rng64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng64::new(1);
        let mut b = Rng64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn streams_are_independent_and_reproducible() {
        let mut s0 = Rng64::stream(7, 0);
        let mut s1 = Rng64::stream(7, 1);
        assert_ne!(s0.next_u64(), s1.next_u64());
        let mut again = Rng64::stream(7, 0);
        let mut reference = Rng64::stream(7, 0);
        for _ in 0..50 {
            assert_eq!(again.next_u64(), reference.next_u64());
        }
    }

    #[test]
    fn f64_draws_are_in_unit_interval_and_roughly_uniform() {
        let mut rng = Rng64::new(2024);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / f64::from(n);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn exponential_draws_have_unit_mean() {
        let mut rng = Rng64::new(9);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| rng.next_exp()).sum::<f64>() / f64::from(n);
        assert!((mean - 1.0).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn exponential_draws_are_the_mapping_of_one_raw_output() {
        let mut rng = Rng64::new(17);
        let mut twin = rng;
        for _ in 0..1000 {
            let want = Rng64::exp_from_u64(twin.next_u64());
            assert_eq!(rng.next_exp().to_bits(), want.to_bits());
        }
        assert_eq!(rng, twin, "one draw consumes one raw output");
        // The extremes: `w = 2^53` gives exactly 0, `w = 1` gives 53 ln 2.
        assert_eq!(Rng64::exp_from_u64(0).to_bits(), (-0.0f64).to_bits());
        let deepest = 53.0 * std::f64::consts::LN_2;
        assert!((Rng64::exp_from_u64(u64::MAX) - deepest).abs() < 1e-12);
    }

    #[test]
    fn bounded_draws_stay_in_bounds() {
        let mut rng = Rng64::new(5);
        for _ in 0..1000 {
            assert!(rng.next_below(7) < 7);
            let x = rng.try_range(-2.0, 3.0).unwrap();
            assert!((-2.0..3.0).contains(&x));
        }
    }

    #[test]
    fn invalid_draw_parameters_error_without_touching_the_stream() {
        let mut rng = Rng64::new(11);
        let mut twin = rng;
        assert!(rng.try_range(f64::NAN, 1.0).is_err());
        assert!(rng.try_range(0.0, f64::INFINITY).is_err());
        assert!(rng.try_range(3.0, 3.0).is_err());
        assert_eq!(
            rng.try_below(0).unwrap_err().to_string(),
            "invalid Rng64::next_below: `bound` = 0 (allowed: a positive bound)"
        );
        // Rejected draws consumed no randomness.
        assert_eq!(rng.next_u64(), twin.next_u64());
        let err = rng.try_range(2.0, -2.0).unwrap_err();
        assert!(err.to_string().contains("lo < hi"), "{err}");
    }
}
