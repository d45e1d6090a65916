//! Distributed vs. monolithic SµDC fleets (paper §VI-B, Fig. 23).
//!
//! To field a target aggregate compute power, should one build a single
//! large SµDC or `k` smaller ones? With Wright's-law learning, the `k`-way
//! fleet pays one NRE (amortized) and a *declining* recurring cost per
//! unit, while each unit is individually cheaper (sublinear CERs) — so
//! moderate distribution wins for all but pessimistic progress ratios.

use sudc_sscm::LearningCurve;
use sudc_units::Usd;

/// The cost of a `k`-way fleet given the per-design NRE and first-unit RE.
///
/// NRE is paid once (the `k` satellites share a design); the `i`-th unit's
/// recurring cost follows the learning curve; `per_unit_fixed` covers
/// launch + operations for each satellite (no learning on launch).
///
/// # Panics
///
/// Panics if `k` is zero.
#[must_use]
pub fn fleet_cost(
    k: u32,
    nre: Usd,
    first_unit_re: Usd,
    per_unit_fixed: Usd,
    curve: LearningCurve,
) -> Usd {
    assert!(k > 0, "fleet must contain at least one SµDC");
    nre + curve.cumulative_cost(first_unit_re, k) + per_unit_fixed * f64::from(k)
}

/// A point on the Fig. 23 curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetPoint {
    /// Number of SµDCs sharing the target power.
    pub satellites: u32,
    /// Total fleet cost.
    pub total_cost: Usd,
}

/// Finds the fleet size minimizing total cost among candidate points.
///
/// # Panics
///
/// Panics if `points` is empty or contains non-finite costs.
#[must_use]
pub fn optimal_fleet(points: &[FleetPoint]) -> FleetPoint {
    assert!(!points.is_empty(), "no fleet candidates supplied");
    *points
        .iter()
        .min_by(|a, b| {
            a.total_cost
                .partial_cmp(&b.total_cost)
                .expect("fleet costs must be comparable")
        })
        .expect("points is non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_unit_fleet_is_first_unit_cost() {
        let cost = fleet_cost(
            1,
            Usd::from_millions(10.0),
            Usd::from_millions(20.0),
            Usd::from_millions(5.0),
            LearningCurve::aerospace_default(),
        );
        assert_eq!(cost, Usd::from_millions(35.0));
    }

    #[test]
    fn learning_makes_fleets_sublinear() {
        let curve = LearningCurve::aerospace_default();
        let one = fleet_cost(1, Usd::ZERO, Usd::from_millions(10.0), Usd::ZERO, curve);
        let four = fleet_cost(4, Usd::ZERO, Usd::from_millions(10.0), Usd::ZERO, curve);
        assert!(four < one * 4.0);
        assert!(four > one);
    }

    #[test]
    fn no_learning_fleet_is_linear_in_re() {
        let curve = LearningCurve::try_new(1.0).unwrap();
        let three = fleet_cost(
            3,
            Usd::from_millions(8.0),
            Usd::from_millions(10.0),
            Usd::from_millions(2.0),
            curve,
        );
        assert_eq!(three, Usd::from_millions(8.0 + 30.0 + 6.0));
    }

    #[test]
    fn optimal_fleet_picks_the_minimum() {
        let points = vec![
            FleetPoint {
                satellites: 1,
                total_cost: Usd::from_millions(100.0),
            },
            FleetPoint {
                satellites: 4,
                total_cost: Usd::from_millions(88.0),
            },
            FleetPoint {
                satellites: 8,
                total_cost: Usd::from_millions(93.0),
            },
        ];
        assert_eq!(optimal_fleet(&points).satellites, 4);
    }

    #[test]
    #[should_panic(expected = "no fleet candidates")]
    fn empty_candidates_panic() {
        let _ = optimal_fleet(&[]);
    }
}
