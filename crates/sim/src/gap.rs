//! Exact table lookup for the capture-gap draw.
//!
//! Each capture schedules its successor `duration_ticks(next_exp() *
//! mean)` ticks later. [`Rng64::next_exp`] is `-ln(w · 2^-53)` with
//! `w = 2^53 - (next_u64() >> 11)`, an integer in `[1, 2^53]`, so the
//! gap is a non-increasing step function of `w`: it is `1 + #{k ≥ 1 :
//! W_k > w}` with `W_k = 2^53 · exp(-k / mean)`. [`GapTable`] tabulates
//! that function once per run and answers almost every draw without
//! calling `ln`, from the same single `next_u64`.
//!
//! The table keys on `w`'s octave (its leading-zero count) plus the next
//! [`SUB_BITS`] bits. Each bucket stores the gap below the thresholds
//! above it and the at most two thresholds that fall inside it (widened
//! by the guard band). The original expression stays as the exact path,
//! taken for
//!
//! - any `w` within [`GUARD`] of a threshold,
//! - a bucket holding more than two thresholds,
//! - `w` below the tabulated octaves (`w · 2^-53 < 2^-16`) and `w = 2^53`,
//! - every draw when the mean needs more than [`MAX_THRESHOLDS`]
//!   thresholds (or is not positive and finite).
//!
//! Why the guard band makes the table exact: the `exp`-computed
//! thresholds sit within tens of units of the true `W_k`, and libm's `ln`,
//! even off by many ULPs, moves the float expression's step only a few
//! hundred units from `W_k`. `GUARD` is about 10^6 units, so every `w`
//! the table answers is far from any step on both sides, and the answer
//! does not depend on libm being correctly rounded or monotone.

use sudc_par::rng::Rng64;

use crate::event::Tick;
use crate::kernel::duration_ticks;

/// `w` for a raw output of 0: `next_exp` is exactly 0 there.
const W_ONE: u64 = 1 << 53;
/// Leading zeros of the top tabulated octave, `[2^52, 2^53)`.
const TOP_LZ: u32 = 11;
/// Tabulated octaves, down to `[2^37, 2^38)`: `w · 2^-53 ≥ 2^-16`.
const OCTAVES: usize = 16;
/// Bits below the leading one that pick a bucket inside an octave.
const SUB_BITS: u32 = 6;
/// Smallest tabulated `w`.
const W_LOW: u64 = 1 << (63 - TOP_LZ - OCTAVES as u32 + 1);
/// Half-width of the band around each threshold that takes the exact path.
const GUARD: u64 = 1 << 20;
/// Largest threshold count tabulated. The tabulated range holds about
/// `16 ln 2 · mean` thresholds (about 1.1 k at the reference mean).
const MAX_THRESHOLDS: usize = 4096;

#[derive(Debug, Clone, Copy)]
struct Bucket {
    /// Gap for a `w` in this bucket below none of `thresholds`; 0 marks a
    /// bucket too dense to tabulate.
    base: Tick,
    /// Thresholds within the bucket or its guard band, 0 where unused (a
    /// tabulated `w` is never below, or near, 0).
    thresholds: [u64; 2],
}

/// The capture-gap draw for one mean interval, exact to the tick.
#[derive(Debug)]
pub(crate) struct GapTable {
    mean: f64,
    /// `OCTAVES << SUB_BITS` buckets, or none when the table is skipped.
    buckets: Vec<Bucket>,
}

impl GapTable {
    /// A table for gaps of mean `mean` ticks, built in O(thresholds +
    /// buckets). A mean that is not positive and finite, or that needs
    /// more than [`MAX_THRESHOLDS`] thresholds, gets no table: every draw
    /// takes the exact path.
    pub(crate) fn new(mean: f64) -> Self {
        if !(mean.is_finite() && mean > 0.0) {
            return Self::exact_only(mean);
        }
        let thresholds = thresholds(mean);
        if thresholds.len() > MAX_THRESHOLDS {
            return Self::exact_only(mean);
        }
        let mut buckets = vec![
            Bucket {
                base: 0,
                thresholds: [0; 2],
            };
            OCTAVES << SUB_BITS
        ];
        // Thresholds descend, and so do buckets walked from the top: the
        // count of thresholds above the current bucket only grows.
        let mut above = 0;
        for octave in 0..OCTAVES {
            let top_bit = 63 - TOP_LZ - octave as u32;
            let width = 1u64 << (top_bit - SUB_BITS);
            for sub in (0..1 << SUB_BITS).rev() {
                let lo = (1u64 << top_bit) + sub as u64 * width;
                let hi = lo + width;
                while thresholds.get(above).is_some_and(|&t| t >= hi + GUARD) {
                    above += 1;
                }
                let inside = thresholds[above..]
                    .iter()
                    .take_while(|&&t| t + GUARD >= lo)
                    .count();
                if inside <= 2 {
                    let bucket = &mut buckets[octave << SUB_BITS | sub];
                    bucket.base = 1 + above as Tick;
                    bucket.thresholds[..inside].copy_from_slice(&thresholds[above..above + inside]);
                }
            }
        }
        Self { mean, buckets }
    }

    /// No table: every draw takes the exact path.
    pub(crate) fn exact_only(mean: f64) -> Self {
        Self {
            mean,
            buckets: Vec::new(),
        }
    }

    /// The next capture gap: one `next_u64` from `rng`, and exactly
    /// `duration_ticks(rng.next_exp() * mean)`.
    #[inline]
    pub(crate) fn draw(&self, rng: &mut Rng64) -> Tick {
        self.gap(rng.next_u64())
    }

    /// The gap for the raw output `bits`.
    #[inline]
    fn gap(&self, bits: u64) -> Tick {
        self.lookup(bits).unwrap_or_else(|| self.exact(bits))
    }

    /// The table's answer for the raw output `bits`, or `None` where the
    /// exact path must decide.
    #[inline]
    fn lookup(&self, bits: u64) -> Option<Tick> {
        let w = W_ONE - (bits >> 11);
        let lz = w.leading_zeros();
        let octave = lz.wrapping_sub(TOP_LZ) as usize;
        if octave >= OCTAVES {
            return None;
        }
        let sub = (w >> (63 - lz - SUB_BITS)) as usize & ((1 << SUB_BITS) - 1);
        let b = self.buckets.get(octave << SUB_BITS | sub)?;
        let [t0, t1] = b.thresholds;
        let near = |t: u64| w.wrapping_sub(t).wrapping_add(GUARD) < 2 * GUARD;
        if (b.base == 0) | near(t0) | near(t1) {
            return None;
        }
        Some(b.base + Tick::from(w < t0) + Tick::from(w < t1))
    }

    /// The original expression.
    #[cold]
    #[inline(never)]
    fn exact(&self, bits: u64) -> Tick {
        duration_ticks(Rng64::exp_from_u64(bits) * self.mean)
    }
}

/// `ceil(2^53 · exp(-k / mean))` for `k = 1, 2, …` down to the guard band
/// below the tabulated range, descending; stops one past
/// [`MAX_THRESHOLDS`]. `mean` is positive and finite.
fn thresholds(mean: f64) -> Vec<u64> {
    let mut out = Vec::new();
    for k in 1.. {
        let t = (W_ONE as f64 * (-f64::from(k) / mean).exp()).ceil() as u64;
        if t + GUARD < W_LOW || out.len() > MAX_THRESHOLDS {
            break;
        }
        out.push(t);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use sudc_units::Seconds;

    /// A raw output whose `w` is `w` (low bits `low`, which the draw
    /// ignores).
    fn bits_for(w: u64, low: u64) -> u64 {
        ((W_ONE - w) << 11) | (low & 0x7ff)
    }

    fn exact(mean: f64, bits: u64) -> Tick {
        duration_ticks(Rng64::exp_from_u64(bits) * mean)
    }

    /// The reference mean; means from sparse (under one threshold per
    /// octave) to two thresholds per bucket; one with buckets too dense
    /// to tabulate; and one above the cap.
    fn means() -> [f64; 8] {
        let reference = SimConfig::reference_operations(Seconds::new(60.0)).frame_interval_ticks;
        [reference, 0.3, 1.0, 7.5, 55.0, 120.0, 250.0, 500.0]
    }

    #[test]
    fn the_reference_mean_is_tabulated_and_the_cap_skips_large_ones() {
        let [reference, .., dense, above_cap] = means();
        assert!((reference - 100.24).abs() < 0.01, "mean {reference}");
        let table = GapTable::new(reference);
        assert_eq!(table.buckets.len(), OCTAVES << SUB_BITS);
        assert!(table.buckets.iter().all(|b| b.base > 0));
        let dense = GapTable::new(dense);
        assert!(dense.buckets.iter().any(|b| b.base == 0));
        assert!(dense.buckets.iter().any(|b| b.base > 0));
        assert!(GapTable::new(above_cap).buckets.is_empty());
        assert!(GapTable::new(f64::NAN).buckets.is_empty());
        assert!(GapTable::new(0.0).buckets.is_empty());
    }

    #[test]
    fn table_matches_the_exact_draw_around_every_threshold() {
        let offsets = [0, 1, 2, GUARD - 1, GUARD + 1, 2 * GUARD];
        for mean in means() {
            let table = GapTable::new(mean);
            // Octave edges, both ends of the range, and every step of the
            // float expression down to an octave below the table, at and
            // around the step.
            let mut ws = vec![1, W_ONE];
            for p in 36..=53 {
                ws.extend([(1 << p) - 1, 1 << p, (1 << p) + 1]);
            }
            for k in 1.. {
                let step = W_ONE as f64 * (-f64::from(k) / mean).exp();
                if step < (W_LOW / 2) as f64 {
                    break;
                }
                let step = step as u64;
                for d in offsets {
                    ws.extend([step.saturating_add(d), step.saturating_sub(d)]);
                }
            }
            let mut tabulated = 0;
            for (i, &w) in ws.iter().enumerate() {
                let bits = bits_for(w.clamp(1, W_ONE), i as u64);
                let want = exact(mean, bits);
                assert_eq!(table.gap(bits), want, "mean {mean}, w {w}");
                if let Some(got) = table.lookup(bits) {
                    assert_eq!(got, want, "mean {mean}, w {w}");
                    tabulated += 1;
                }
            }
            // The table answered the points a guard band off each step.
            assert_eq!(tabulated > 0, !table.buckets.is_empty(), "mean {mean}");
        }
    }

    #[test]
    fn random_draws_match_next_exp_and_rarely_fall_back() {
        let reference = means()[0];
        for mean in means() {
            let table = GapTable::new(mean);
            let mut rng = Rng64::stream(0x5bdc_2026, mean.to_bits());
            let mut twin = rng;
            let mut fallbacks = 0u32;
            let draws = 200_000;
            for _ in 0..draws {
                let mut peek = rng;
                fallbacks += u32::from(table.lookup(peek.next_u64()).is_none());
                let got = table.draw(&mut rng);
                let want = duration_ticks(twin.next_exp() * mean);
                assert_eq!(got, want, "mean {mean}");
            }
            assert_eq!(rng, twin, "one raw output per draw");
            if mean == reference {
                // Well under 0.1 %: a table that always fell back would
                // still be exact, and this catches it.
                assert!(
                    fallbacks < draws / 1000,
                    "{fallbacks} of {draws} draws took the exact path"
                );
            }
        }
    }
}
