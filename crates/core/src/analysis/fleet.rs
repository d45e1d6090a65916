//! Constellation-architecture analyses: collaborative compute (Figs. 19,
//! 21) and distributed vs. monolithic fleets (Figs. 22, 23).

use sudc_constellation::distributed::{fleet_cost, optimal_fleet, FleetPoint};
use sudc_constellation::EdgeFiltering;
use sudc_errors::SudcError;
use sudc_sscm::LearningCurve;
use sudc_units::Watts;

use crate::design::SuDcDesign;

/// Fig. 19: relative SµDC TCO vs. edge filtering rate. Baseline is the
/// unfiltered design at `baseline_power`.
///
/// # Errors
///
/// Propagates [`SudcError`].
pub fn collaborative_tco(
    baseline_power: Watts,
    filtering_rates: &[f64],
) -> Result<Vec<(f64, f64)>, SudcError> {
    let baseline = SuDcDesign::builder()
        .compute_power(baseline_power)
        .try_build()?
        .try_tco()?
        .total();
    filtering_rates
        .iter()
        .map(|&rate| {
            let filtering = EdgeFiltering::new(rate);
            let tco = SuDcDesign::builder()
                .compute_power(filtering.reduced_compute(baseline_power))
                .try_build()?
                .try_tco()?
                .total();
            Ok((rate, tco / baseline))
        })
        .collect()
}

/// One Fig. 21 row: collaborative-constellation benefit for one payload
/// architecture.
#[derive(Debug, Clone)]
pub struct CollaborativeRow {
    /// Architecture label.
    pub architecture: String,
    /// Energy-efficiency factor of the payload over the GPU baseline.
    pub efficiency_factor: f64,
    /// TCO without filtering, relative to the GPU unfiltered baseline.
    pub unfiltered_tco: f64,
    /// TCO with cloud filtering (≈ 2/3 data reduction), same normalization.
    pub filtered_tco: f64,
}

impl CollaborativeRow {
    /// The collaborative improvement factor (unfiltered / filtered).
    #[must_use]
    pub fn improvement(&self) -> f64 {
        self.unfiltered_tco / self.filtered_tco
    }
}

/// Fig. 21: TCO benefit of a collaborative constellation for GPU, global-
/// accelerator, and heterogeneous payloads, at cloud-filtering rates.
///
/// `architectures` supplies `(label, efficiency factor)` pairs — e.g. the
/// Fig. 17 outcomes (1.0, ~57.8, ~116).
///
/// # Errors
///
/// Propagates [`SudcError`].
pub fn collaborative_sensitivity(
    baseline_power: Watts,
    architectures: &[(&str, f64)],
) -> Result<Vec<CollaborativeRow>, SudcError> {
    let filtering = EdgeFiltering::cloud_filtering();
    let gpu_baseline = SuDcDesign::builder()
        .compute_power(baseline_power)
        .try_build()?
        .try_tco()?
        .total();
    architectures
        .iter()
        .map(|&(label, factor)| {
            let tco_at = |power: Watts| -> Result<f64, SudcError> {
                Ok(SuDcDesign::builder()
                    .compute_power(power)
                    .efficiency_factor(factor)
                    .try_build()?
                    .try_tco()?
                    .total()
                    / gpu_baseline)
            };
            Ok(CollaborativeRow {
                architecture: label.to_string(),
                efficiency_factor: factor,
                unfiltered_tco: tco_at(baseline_power)?,
                filtered_tco: tco_at(filtering.reduced_compute(baseline_power))?,
            })
        })
        .collect()
}

/// One Fig. 22 series: marginal satellite cost vs. cumulative units.
#[derive(Debug, Clone)]
pub struct MarginalCostSeries {
    /// SµDC size.
    pub power: Watts,
    /// `(unit index, marginal cost in $M)` points. Unit 1 includes NRE.
    pub points: Vec<(u32, f64)>,
}

/// Fig. 22: Wright's-law marginal cost for SµDC design points (`b = 0.75`).
///
/// # Errors
///
/// Propagates [`SudcError`].
pub fn marginal_cost_curve(
    powers: &[Watts],
    units: &[u32],
    curve: LearningCurve,
) -> Result<Vec<MarginalCostSeries>, SudcError> {
    powers
        .iter()
        .map(|&p| {
            let report = SuDcDesign::builder()
                .compute_power(p)
                .try_build()?
                .try_tco()?;
            let first_re = report.marginal_unit();
            let points = units
                .iter()
                .map(|&n| {
                    let cost = if n == 1 {
                        report.total()
                    } else {
                        curve.try_unit_cost(first_re, n)?
                    };
                    Ok((n, cost.as_millions()))
                })
                .collect::<Result<_, SudcError>>()?;
            Ok(MarginalCostSeries { power: p, points })
        })
        .collect()
}

/// One Fig. 23 series: fleet TCO vs. fleet size at one progress ratio.
#[derive(Debug, Clone)]
pub struct DistributedSeries {
    /// Wright's-law progress ratio.
    pub progress_ratio: f64,
    /// `(fleet size, total TCO relative to the monolith)` points.
    pub points: Vec<(u32, f64)>,
    /// The cost-minimizing fleet size.
    pub optimal_satellites: u32,
}

/// Fig. 23: total cost of reaching `target_power` with `k` SµDCs of
/// `target_power / k` each, across Wright's-law progress ratios. NRE is
/// paid once per design and amortized across the fleet.
///
/// # Errors
///
/// Propagates [`SudcError`].
///
/// # Panics
///
/// Panics if `fleet_sizes` is empty or contains zero.
pub fn distributed_tco(
    target_power: Watts,
    fleet_sizes: &[u32],
    progress_ratios: &[f64],
) -> Result<Vec<DistributedSeries>, SudcError> {
    assert!(!fleet_sizes.is_empty(), "no fleet sizes supplied");
    progress_ratios
        .iter()
        .map(|&b| {
            let learning = LearningCurve::try_new(b)?;
            let mut points = Vec::new();
            let mut fleet_points = Vec::new();
            let mut monolith = None;
            for &k in fleet_sizes {
                assert!(k > 0, "fleet size must be positive");
                let per_sat = target_power / f64::from(k);
                let report = SuDcDesign::builder()
                    .compute_power(per_sat)
                    .try_build()?
                    .try_tco()?;
                let launch_and_ops = report.launch_cost() + report.operations_cost();
                let total = fleet_cost(
                    k,
                    report.nre(),
                    report.estimate().recurring_unit(),
                    launch_and_ops,
                    learning,
                );
                if k == 1 {
                    monolith = Some(total);
                }
                fleet_points.push(FleetPoint {
                    satellites: k,
                    total_cost: total,
                });
            }
            let monolith = monolith.unwrap_or(fleet_points[0].total_cost);
            for fp in &fleet_points {
                points.push((fp.satellites, fp.total_cost / monolith));
            }
            Ok(DistributedSeries {
                progress_ratio: b,
                points,
                optimal_satellites: optimal_fleet(&fleet_points).satellites,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filtering_halves_compute_and_cuts_tco() {
        // Paper Fig. 19: decreasing cost with filtering rate; at f = 0.5 the
        // SµDC halves in size (TCO falls, but sublinearly).
        let curve = collaborative_tco(Watts::from_kilowatts(4.0), &[0.0, 0.25, 0.5, 0.75]).unwrap();
        assert!((curve[0].1 - 1.0).abs() < 1e-9);
        for pair in curve.windows(2) {
            assert!(pair[1].1 < pair[0].1, "TCO must fall with filtering");
        }
        let at_half = curve[2].1;
        assert!(at_half > 0.5 && at_half < 0.95, "f=0.5 TCO {at_half}");
    }

    #[test]
    fn collaborative_gains_match_paper_band() {
        // Paper §V: cloud filtering yields 1.74x (GPU), 1.33x (global
        // accelerator), 1.31x (heterogeneous) TCO improvements at 4 kW.
        let rows = collaborative_sensitivity(
            Watts::from_kilowatts(4.0),
            &[
                ("GPU", 1.0),
                ("Global accel", 57.8),
                ("Per-layer accel", 116.0),
            ],
        )
        .unwrap();
        let gpu = rows[0].improvement();
        let global = rows[1].improvement();
        let hetero = rows[2].improvement();
        assert!(gpu > 1.3 && gpu < 2.1, "GPU improvement {gpu}");
        assert!(global < gpu, "efficient archs benefit less");
        assert!(hetero <= global + 1e-9);
        assert!(hetero > 1.05, "still a real improvement: {hetero}");
    }

    #[test]
    fn hundredth_unit_costs_less_than_half() {
        // Paper Fig. 22: "By the time the 100th satellite is manufactured,
        // cost has decreased by over 50%."
        let series = marginal_cost_curve(
            &[Watts::from_kilowatts(4.0)],
            &[1, 2, 10, 100],
            LearningCurve::aerospace_default(),
        )
        .unwrap();
        let pts = &series[0].points;
        let second = pts[1].1;
        let hundredth = pts[3].1;
        assert!(hundredth < 0.5 * second, "{second} -> {hundredth}");
    }

    #[test]
    fn hundredth_10kw_is_cheaper_than_first_4kw() {
        // Paper Fig. 22: "the 100th 10 kW SµDC is cheaper than the first
        // 4 kW SµDC".
        let series = marginal_cost_curve(
            &[Watts::from_kilowatts(4.0), Watts::from_kilowatts(10.0)],
            &[1, 100],
            LearningCurve::aerospace_default(),
        )
        .unwrap();
        let first_4kw = series[0].points[0].1;
        let hundredth_10kw = series[1].points[1].1;
        assert!(
            hundredth_10kw < first_4kw,
            "100th 10kW {hundredth_10kw} vs 1st 4kW {first_4kw}"
        );
    }

    #[test]
    fn pessimistic_learning_favors_the_monolith() {
        // Paper Fig. 23: "For a pessimistic progress ratio (0.85), a
        // monolithic system minimizes TCO."
        let series = distributed_tco(
            Watts::from_kilowatts(32.0),
            &[1, 2, 3, 4, 6, 8, 12, 16],
            &[0.85],
        )
        .unwrap();
        assert_eq!(series[0].optimal_satellites, 1);
    }

    #[test]
    fn optimistic_learning_favors_distribution_by_over_ten_percent() {
        // Paper Fig. 23: "With an optimistic ratio (<= 0.65 ...), TCO is
        // minimized at greater than 4 SµDCs, and with TCO over 10% below a
        // monolithic system."
        let series = distributed_tco(
            Watts::from_kilowatts(32.0),
            &[1, 2, 3, 4, 6, 8, 12, 16],
            &[0.65],
        )
        .unwrap();
        let s = &series[0];
        assert!(
            s.optimal_satellites > 4,
            "optimal k {}",
            s.optimal_satellites
        );
        let best = s
            .points
            .iter()
            .map(|&(_, t)| t)
            .fold(f64::INFINITY, f64::min);
        assert!(best < 0.90, "best relative TCO {best}");
    }

    #[test]
    fn middling_learning_sits_between() {
        let series = distributed_tco(
            Watts::from_kilowatts(32.0),
            &[1, 2, 3, 4, 6, 8, 12, 16],
            &[0.75],
        )
        .unwrap();
        let s = &series[0];
        assert!(
            s.optimal_satellites >= 2,
            "optimal k {}",
            s.optimal_satellites
        );
    }
}
