//! Cost-estimate rollups.
//!
//! SSCM semantics (paper §II): "the total cost (modulo payload) of the
//! first satellite is equal to the sum of the NRE and RE costs of each CER,
//! while the total cost of each subsequent satellite is given by RE costs
//! alone."

use sudc_errors::{Diagnostics, SudcError};
use sudc_units::Usd;

use crate::subsystems::Subsystem;

/// One subsystem's estimated costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubsystemCost {
    /// Which subsystem.
    pub subsystem: Subsystem,
    /// Non-recurring cost (design, qualification, prototype, GSE).
    pub nre: Usd,
    /// Recurring cost (per flight unit).
    pub re: Usd,
}

impl SubsystemCost {
    /// NRE + RE.
    #[must_use]
    pub fn total(&self) -> Usd {
        self.nre + self.re
    }
}

/// A complete satellite cost estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct CostEstimate {
    items: Vec<SubsystemCost>,
}

impl CostEstimate {
    /// Builds an estimate from per-subsystem items, reporting *every*
    /// duplicated subsystem and non-finite cost line in one pass.
    ///
    /// # Errors
    ///
    /// Returns a structured error naming each offending item index.
    pub fn try_new(items: Vec<SubsystemCost>) -> Result<Self, SudcError> {
        let mut d = Diagnostics::new("CostEstimate");
        for (i, item) in items.iter().enumerate() {
            d.finite(format!("items[{i}].nre"), item.nre.value());
            d.finite(format!("items[{i}].re"), item.re.value());
            if items[..i].iter().any(|a| a.subsystem == item.subsystem) {
                d.violation(
                    format!("items[{i}].subsystem"),
                    item.subsystem,
                    "each subsystem at most once (duplicate subsystem in estimate)",
                );
            }
        }
        d.into_result(Self { items })
    }

    /// Per-subsystem line items.
    #[must_use]
    pub fn items(&self) -> &[SubsystemCost] {
        &self.items
    }

    /// Cost line for one subsystem, if present.
    #[must_use]
    pub fn cost_of(&self, subsystem: Subsystem) -> Option<SubsystemCost> {
        self.items
            .iter()
            .copied()
            .find(|i| i.subsystem == subsystem)
    }

    /// Total non-recurring cost.
    #[must_use]
    pub fn nre_total(&self) -> Usd {
        self.items.iter().map(|i| i.nre).sum()
    }

    /// Total recurring cost (the marginal satellite).
    #[must_use]
    pub fn recurring_unit(&self) -> Usd {
        self.items.iter().map(|i| i.re).sum()
    }

    /// Cost of the first satellite: NRE + RE.
    #[must_use]
    pub fn first_unit(&self) -> Usd {
        self.nre_total() + self.recurring_unit()
    }

    /// Cost of building `n` identical satellites with no learning effects
    /// (`NRE + n × RE`); see [`crate::wright`] for experience curves.
    ///
    /// # Errors
    ///
    /// Returns a structured error if `n` is zero.
    ///
    /// Kept without a non-test caller: `tests/panic_freedom.rs` checks that it
    /// rejects an empty fleet.
    pub fn try_fleet_cost(&self, n: u32) -> Result<Usd, SudcError> {
        if n == 0 {
            return Err(SudcError::single(
                "CostEstimate::fleet_cost",
                "n",
                n,
                "a fleet must contain at least one satellite",
            ));
        }
        Ok(self.nre_total() + self.recurring_unit() * f64::from(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sudc_units::Usd;

    fn sample() -> CostEstimate {
        CostEstimate::try_new(vec![
            SubsystemCost {
                subsystem: Subsystem::Structure,
                nre: Usd::from_millions(2.0),
                re: Usd::from_millions(1.0),
            },
            SubsystemCost {
                subsystem: Subsystem::Power,
                nre: Usd::from_millions(4.0),
                re: Usd::from_millions(3.0),
            },
        ])
        .unwrap()
    }

    #[test]
    fn totals_follow_sscm_semantics() {
        let est = sample();
        assert_eq!(est.nre_total(), Usd::from_millions(6.0));
        assert_eq!(est.recurring_unit(), Usd::from_millions(4.0));
        assert_eq!(est.first_unit(), Usd::from_millions(10.0));
    }

    #[test]
    fn fleet_cost_amortizes_nre() {
        let est = sample();
        assert_eq!(est.try_fleet_cost(1).unwrap(), est.first_unit());
        assert_eq!(
            est.try_fleet_cost(3).unwrap(),
            Usd::from_millions(6.0 + 12.0)
        );
    }

    #[test]
    fn missing_subsystem_has_no_cost() {
        assert!(sample().cost_of(Subsystem::Ttc).is_none());
    }

    #[test]
    fn duplicate_subsystem_is_rejected() {
        let item = SubsystemCost {
            subsystem: Subsystem::Cdh,
            nre: Usd::ZERO,
            re: Usd::ZERO,
        };
        let err = CostEstimate::try_new(vec![item, item]).unwrap_err();
        assert!(err.to_string().contains("duplicate subsystem"), "{err}");
    }

    #[test]
    fn zero_fleet_is_rejected() {
        let err = sample().try_fleet_cost(0).unwrap_err();
        assert!(err.to_string().contains("at least one satellite"), "{err}");
    }

    #[test]
    fn try_new_collects_every_duplicate() {
        let item = |s| SubsystemCost {
            subsystem: s,
            nre: Usd::ZERO,
            re: Usd::ZERO,
        };
        let err = CostEstimate::try_new(vec![
            item(Subsystem::Cdh),
            item(Subsystem::Cdh),
            item(Subsystem::Ttc),
            item(Subsystem::Ttc),
        ])
        .unwrap_err();
        assert_eq!(err.violations().len(), 2);
        assert_eq!(err.violations()[0].path, "items[1].subsystem");
        assert_eq!(err.violations()[1].path, "items[3].subsystem");
    }

    #[test]
    fn try_fleet_cost_matches_fleet_cost() {
        let est = sample();
        assert_eq!(
            est.try_fleet_cost(3).unwrap(),
            est.try_fleet_cost(3).unwrap()
        );
        let err = est.try_fleet_cost(0).unwrap_err();
        assert!(err.to_string().contains("at least one satellite"));
    }
}
