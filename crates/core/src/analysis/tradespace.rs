//! Two-dimensional trade-space exploration and Pareto fronts.
//!
//! The paper's architectural argument is ultimately a trade: for a target
//! workload throughput, what combination of compute power and payload
//! architecture minimizes TCO? This module sweeps that plane and extracts
//! the Pareto-efficient designs, making "extreme heterogeneity wins"
//! checkable rather than narrative.

use sudc_errors::SudcError;
use sudc_units::{Usd, Watts};

use crate::design::SuDcDesign;

/// One evaluated design point.
#[derive(Debug, Clone)]
pub struct TradePoint {
    /// Architecture label.
    pub architecture: String,
    /// Payload energy-efficiency factor over the GPU baseline.
    pub efficiency_factor: f64,
    /// Hardware price factor applied.
    pub price_factor: f64,
    /// Equivalent compute power (GPU-baseline-normalized throughput).
    pub equivalent_power: Watts,
    /// First-unit TCO.
    pub tco: Usd,
    /// Throughput per TCO dollar: equivalent watts per million dollars.
    pub watts_per_musd: f64,
}

/// Sweeps `(equivalent power) × (architecture)` and returns every point.
///
/// `architectures` supplies `(label, efficiency factor, price factor)`.
///
/// # Errors
///
/// Propagates [`SudcError`].
pub fn sweep(
    powers: &[Watts],
    architectures: &[(&str, f64, f64)],
) -> Result<Vec<TradePoint>, SudcError> {
    // Every grid point is an independent sizing: flatten and fan out on the
    // workspace executor, preserving (architecture, power) iteration order.
    let grid: Vec<(&str, f64, f64, Watts)> = architectures
        .iter()
        .flat_map(|&(label, eff, price)| powers.iter().map(move |&p| (label, eff, price, p)))
        .collect();
    sudc_par::par_try_map(&grid, |_, &(label, eff, price, power)| {
        let tco = SuDcDesign::builder()
            .compute_power(power)
            .efficiency_factor(eff)
            .hardware_price_factor(price)
            .isl_typical()
            .try_build()?
            .try_tco()?
            .total();
        Ok(TradePoint {
            architecture: label.to_string(),
            efficiency_factor: eff,
            price_factor: price,
            equivalent_power: power,
            tco,
            watts_per_musd: power.value() / tco.as_millions(),
        })
    })
}

/// Extracts the Pareto front: points not dominated in
/// (higher equivalent power, lower TCO).
#[must_use]
pub fn pareto_front(points: &[TradePoint]) -> Vec<&TradePoint> {
    let mut front: Vec<&TradePoint> = Vec::new();
    for candidate in points {
        let dominated = points.iter().any(|other| {
            other.equivalent_power >= candidate.equivalent_power && other.tco < candidate.tco
        });
        if !dominated {
            front.push(candidate);
        }
    }
    front.sort_by(|a, b| {
        a.equivalent_power
            .partial_cmp(&b.equivalent_power)
            .expect("finite powers")
    });
    front
}

/// The paper's three architectures with Fig. 17-class efficiency factors
/// and a 3× accelerator price premium.
#[must_use]
pub fn paper_architectures() -> [(&'static str, f64, f64); 3] {
    [
        ("Commodity GPU", 1.0, 1.0),
        ("Global accelerator", 57.8, 3.0),
        ("Per-layer accelerator", 116.0, 3.0),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn points() -> Vec<TradePoint> {
        let powers: Vec<Watts> = [0.5, 1.0, 2.0, 4.0, 8.0]
            .iter()
            .map(|&k| Watts::from_kilowatts(k))
            .collect();
        sweep(&powers, &paper_architectures()).unwrap()
    }

    #[test]
    fn accelerators_dominate_the_pareto_front() {
        let pts = points();
        let front = pareto_front(&pts);
        assert!(!front.is_empty());
        // Every front point at >= 1 kW equivalent power is an accelerator.
        for p in &front {
            if p.equivalent_power.value() >= 1000.0 {
                assert_ne!(
                    p.architecture, "Commodity GPU",
                    "GPU on the front at {}",
                    p.equivalent_power
                );
            }
        }
    }

    #[test]
    fn throughput_per_dollar_favors_heterogeneity() {
        let pts = points();
        let best_gpu = pts
            .iter()
            .filter(|p| p.architecture == "Commodity GPU")
            .map(|p| p.watts_per_musd)
            .fold(f64::NEG_INFINITY, f64::max);
        let best_hetero = pts
            .iter()
            .filter(|p| p.architecture == "Per-layer accelerator")
            .map(|p| p.watts_per_musd)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            best_hetero > 1.8 * best_gpu,
            "hetero {best_hetero} vs gpu {best_gpu}"
        );
    }

    #[test]
    fn front_is_sorted_and_undominated() {
        let pts = points();
        let front = pareto_front(&pts);
        for pair in front.windows(2) {
            assert!(pair[0].equivalent_power <= pair[1].equivalent_power);
            assert!(pair[0].tco <= pair[1].tco);
        }
    }

    #[test]
    fn sweep_covers_the_full_grid() {
        assert_eq!(points().len(), 15);
    }
}
