//! TCO and mass sweeps over lifetime and compute power (Figs. 4, 5, 6).
//!
//! Each sweep point is an independent design sizing, so the grids run on
//! the workspace executor ([`sudc_par`]); results keep input order and are
//! identical at every thread count.

use sudc_errors::SudcError;
use sudc_units::{Watts, Years};

use crate::analysis::default_tco;
use crate::design::SuDcDesign;
use crate::tco::TcoLine;

/// One lifetime series (Fig. 4): a SµDC size swept over lifetimes, with
/// TCO relative to the global baseline (first power, first lifetime).
#[derive(Debug, Clone)]
pub struct LifetimeSeries {
    /// Compute power of this series.
    pub power: Watts,
    /// `(lifetime, TCO / baseline TCO)` points.
    pub points: Vec<(Years, f64)>,
}

/// Fig. 4: TCO vs. lifetime for the given SµDC sizes, normalized to the
/// first size at the first lifetime.
///
/// # Errors
///
/// Propagates [`SudcError`].
///
/// # Panics
///
/// Panics if `powers` or `lifetimes` is empty.
pub fn tco_vs_lifetime(
    powers: &[Watts],
    lifetimes: &[Years],
) -> Result<Vec<LifetimeSeries>, SudcError> {
    assert!(!powers.is_empty() && !lifetimes.is_empty(), "empty sweep");
    let baseline = SuDcDesign::builder()
        .compute_power(powers[0])
        .lifetime(lifetimes[0])
        .try_build()?
        .try_tco()?
        .total();
    // Flatten the (power × lifetime) grid, size every design in parallel,
    // then regroup into one series per power.
    let grid: Vec<(Watts, Years)> = powers
        .iter()
        .flat_map(|&p| lifetimes.iter().map(move |&l| (p, l)))
        .collect();
    let ratios = sudc_par::par_try_map(&grid, |_, &(p, l)| {
        let tco = SuDcDesign::builder()
            .compute_power(p)
            .lifetime(l)
            .try_build()?
            .try_tco()?
            .total();
        Ok::<f64, SudcError>(tco / baseline)
    })?;
    Ok(powers
        .iter()
        .zip(ratios.chunks(lifetimes.len()))
        .map(|(&p, chunk)| LifetimeSeries {
            power: p,
            points: lifetimes
                .iter()
                .copied()
                .zip(chunk.iter().copied())
                .collect(),
        })
        .collect())
}

/// One point of the Fig. 5 power sweep.
#[derive(Debug, Clone)]
pub struct PowerPoint {
    /// Compute power.
    pub power: Watts,
    /// Total TCO relative to the first swept power.
    pub relative_tco: f64,
    /// Per-line TCO relative to the first swept power's *total*.
    pub breakdown: Vec<(TcoLine, f64)>,
}

/// Fig. 5: TCO (total and per subsystem) vs. compute power, normalized to
/// the total cost of the first power in the sweep.
///
/// # Errors
///
/// Propagates [`SudcError`].
///
/// # Panics
///
/// Panics if `powers` is empty.
pub fn tco_vs_power(powers: &[Watts]) -> Result<Vec<PowerPoint>, SudcError> {
    assert!(!powers.is_empty(), "empty sweep");
    let baseline = default_tco(powers[0])?.total();
    sudc_par::par_try_map(powers, |_, &p| {
        let report = default_tco(p)?;
        let breakdown = report
            .lines()
            .into_iter()
            .map(|(line, cost)| (line, cost / baseline))
            .collect();
        Ok(PowerPoint {
            power: p,
            relative_tco: report.total() / baseline,
            breakdown,
        })
    })
}

/// One point of the Fig. 6 mass sweep.
#[derive(Debug, Clone)]
pub struct MassPoint {
    /// Compute power.
    pub power: Watts,
    /// Wet mass relative to the first swept power.
    pub relative_mass: f64,
    /// Compute payload's share of wet mass.
    pub payload_mass_share: f64,
}

/// Fig. 6: satellite mass vs. compute power, normalized to the first power.
///
/// # Errors
///
/// Propagates [`SudcError`].
///
/// # Panics
///
/// Panics if `powers` is empty.
pub fn mass_vs_power(powers: &[Watts]) -> Result<Vec<MassPoint>, SudcError> {
    assert!(!powers.is_empty(), "empty sweep");
    let baseline = SuDcDesign::builder()
        .compute_power(powers[0])
        .try_build()?
        .size()?
        .wet_mass();
    sudc_par::par_try_map(powers, |_, &p| {
        let sized = SuDcDesign::builder().compute_power(p).try_build()?.size()?;
        Ok(MassPoint {
            power: p,
            relative_mass: sized.wet_mass() / baseline,
            payload_mass_share: sized.payload_mass / sized.wet_mass(),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sudc_sscm::subsystems::Subsystem;

    /// The paper's three reference SµDC sizes: 0.5, 4, and 10 kW.
    fn reference_powers() -> [Watts; 3] {
        [
            Watts::new(500.0),
            Watts::from_kilowatts(4.0),
            Watts::from_kilowatts(10.0),
        ]
    }

    #[test]
    fn tco_grows_sublinearly_with_power() {
        // Paper Fig. 5: "A 20x increase in power corresponds with < 4x
        // increase in total cost" (and over 3x from 0.5 to 10 kW).
        let points = tco_vs_power(&[Watts::new(500.0), Watts::from_kilowatts(10.0)]).unwrap();
        let ratio = points[1].relative_tco;
        assert!(ratio < 4.0, "20x power gave {ratio}x TCO");
        assert!(ratio > 2.0, "power must still matter, got {ratio}x");
    }

    #[test]
    fn compute_hardware_is_under_one_percent_of_tco() {
        // Paper: "the computer hardware cost of a SµDC is < 1% of TCO".
        for p in reference_powers() {
            let report = default_tco(p).unwrap();
            let share = report.share(TcoLine::Satellite(Subsystem::ComputePayload));
            assert!(share < 0.01, "{p}: payload share {share}");
        }
    }

    #[test]
    fn power_and_thermal_are_over_a_third_of_tco_at_4kw() {
        // Paper Fig. 3: power + thermal ~ 34% of cost.
        let report = default_tco(Watts::from_kilowatts(4.0)).unwrap();
        let share = report.power_and_thermal_share();
        assert!(share > 0.28 && share < 0.45, "power+thermal {share}");
    }

    #[test]
    fn tco_grows_superlinearly_with_long_lifetimes() {
        // Paper Fig. 4: "For long lifetime missions, the cost grows
        // superlinearly" - the increment from year 5 to 9 exceeds the
        // increment from year 1 to 5.
        let series = tco_vs_lifetime(
            &[Watts::from_kilowatts(4.0)],
            &[Years::new(1.0), Years::new(5.0), Years::new(9.0)],
        )
        .unwrap();
        let pts = &series[0].points;
        let d_early = pts[1].1 - pts[0].1;
        let d_late = pts[2].1 - pts[1].1;
        assert!(
            d_late > d_early,
            "lifetime growth must accelerate: {d_early} vs {d_late}"
        );
    }

    #[test]
    fn bigger_sudcs_cost_more_at_every_lifetime() {
        let series = tco_vs_lifetime(
            &[Watts::new(500.0), Watts::from_kilowatts(4.0)],
            &[Years::new(1.0), Years::new(5.0)],
        )
        .unwrap();
        for (small, big) in series[0].points.iter().zip(&series[1].points) {
            assert!(big.1 > small.1);
        }
    }

    #[test]
    fn mass_grows_sublinearly_and_payload_stays_small() {
        // Paper Fig. 6: total mass scales slowly with compute power and
        // compute is a few percent of total mass.
        let points = mass_vs_power(&reference_powers()).unwrap();
        let ratio_20x = points[2].relative_mass;
        assert!(ratio_20x < 15.0, "20x power gave {ratio_20x}x mass");
        for p in &points {
            assert!(
                p.payload_mass_share < 0.25,
                "payload mass share {}",
                p.payload_mass_share
            );
        }
    }

    #[test]
    fn breakdown_sums_to_total() {
        let points = tco_vs_power(&reference_powers()).unwrap();
        for p in &points {
            let sum: f64 = p.breakdown.iter().map(|(_, v)| v).sum();
            assert!((sum - p.relative_tco).abs() < 1e-9);
        }
    }
}
