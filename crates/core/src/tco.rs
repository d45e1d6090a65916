//! Total-cost-of-ownership rollup for one SµDC.

use sudc_errors::{Diagnostics, SudcError};
use sudc_sscm::subsystems::Subsystem;
use sudc_sscm::CostEstimate;
use sudc_units::Usd;

/// Ground-segment / flight-operations cost per year of mission.
pub const OPS_COST_PER_YEAR: Usd = Usd::new(900000.0);

/// A TCO line item beyond the satellite CERs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TcoLine {
    /// A satellite subsystem (from the SSCM-SµDC estimate).
    Satellite(Subsystem),
    /// Launch (price per kg × wet mass + integration).
    Launch,
    /// Mission operations over the lifetime.
    Operations,
}

impl core::fmt::Display for TcoLine {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Satellite(s) => write!(f, "{s}"),
            Self::Launch => f.write_str("Launch"),
            Self::Operations => f.write_str("Operations"),
        }
    }
}

/// The complete TCO of one SµDC: satellite NRE + RE, launch, and operations.
#[derive(Debug, Clone, PartialEq)]
pub struct TcoReport {
    estimate: CostEstimate,
    launch: Usd,
    operations: Usd,
}

impl TcoReport {
    /// Assembles a report, rejecting non-finite or negative launch and
    /// operations costs, which would silently poison every share and total
    /// downstream.
    ///
    /// # Errors
    ///
    /// Returns a structured error naming each offending cost.
    pub fn try_new(
        estimate: CostEstimate,
        launch: Usd,
        operations: Usd,
    ) -> Result<Self, SudcError> {
        let mut d = Diagnostics::new("TcoReport");
        d.non_negative("launch", launch.value());
        d.non_negative("operations", operations.value());
        d.into_result(Self {
            estimate,
            launch,
            operations,
        })
    }

    /// The underlying SSCM-SµDC estimate.
    #[must_use]
    pub fn estimate(&self) -> &CostEstimate {
        &self.estimate
    }

    /// Launch cost.
    #[must_use]
    pub fn launch_cost(&self) -> Usd {
        self.launch
    }

    /// Lifetime operations cost.
    #[must_use]
    pub fn operations_cost(&self) -> Usd {
        self.operations
    }

    /// First-unit TCO: satellite NRE + RE + launch + operations.
    #[must_use]
    pub fn total(&self) -> Usd {
        self.estimate.first_unit() + self.launch + self.operations
    }

    /// Marginal TCO of a subsequent identical unit (RE + launch + ops; no
    /// learning effects — see `sudc_sscm::wright` for experience curves).
    #[must_use]
    pub fn marginal_unit(&self) -> Usd {
        self.estimate.recurring_unit() + self.launch + self.operations
    }

    /// Satellite non-recurring cost.
    #[must_use]
    pub fn nre(&self) -> Usd {
        self.estimate.nre_total()
    }

    /// All TCO lines with their first-unit costs.
    #[must_use]
    pub fn lines(&self) -> Vec<(TcoLine, Usd)> {
        let mut lines: Vec<(TcoLine, Usd)> = self
            .estimate
            .items()
            .iter()
            .map(|i| (TcoLine::Satellite(i.subsystem), i.total()))
            .collect();
        lines.push((TcoLine::Launch, self.launch));
        lines.push((TcoLine::Operations, self.operations));
        lines
    }

    /// Share of total TCO attributable to one line.
    #[must_use]
    pub fn share(&self, line: TcoLine) -> f64 {
        let cost = match line {
            TcoLine::Satellite(s) => self.estimate.cost_of(s).map_or(Usd::ZERO, |c| c.total()),
            TcoLine::Launch => self.launch,
            TcoLine::Operations => self.operations,
        };
        cost / self.total()
    }

    /// Combined share of the power and thermal subsystems — the paper's
    /// "over a third of TCO is in power and thermal management subsystems".
    #[must_use]
    pub fn power_and_thermal_share(&self) -> f64 {
        self.share(TcoLine::Satellite(Subsystem::Power))
            + self.share(TcoLine::Satellite(Subsystem::Thermal))
    }

    /// Exports the report as JSON: every line item in USD plus the rollups.
    ///
    /// Kept without a non-test caller: it is the report's export format,
    /// and `tests/json_fidelity.rs` checks that it never writes a `null`.
    #[must_use]
    pub fn to_json(&self) -> sudc_par::json::Json {
        let lines = self
            .lines()
            .into_iter()
            .fold(sudc_par::json::Json::object(), |obj, (line, cost)| {
                obj.with(&line.to_string(), cost.value())
            });
        sudc_par::json::Json::object()
            .with("lines_usd", lines)
            .with("nre_usd", self.nre().value())
            .with("marginal_unit_usd", self.marginal_unit().value())
            .with("total_usd", self.total().value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sudc_sscm::subsystems::SubsystemCers;
    use sudc_sscm::SscmInputs;

    fn report() -> TcoReport {
        let estimate = SubsystemCers::sudc_default()
            .try_estimate(&SscmInputs::reference())
            .unwrap();
        TcoReport::try_new(estimate, Usd::from_millions(2.5), Usd::from_millions(3.5)).unwrap()
    }

    #[test]
    fn total_sums_all_components() {
        let r = report();
        let expected = r.estimate().first_unit() + r.launch_cost() + r.operations_cost();
        assert_eq!(r.total(), expected);
    }

    #[test]
    fn marginal_unit_drops_nre() {
        let r = report();
        assert!((r.total() - r.marginal_unit() - r.nre()).abs() < Usd::new(1.0));
    }

    #[test]
    fn shares_sum_to_one() {
        let r = report();
        let total: f64 = r.lines().iter().map(|&(line, _)| r.share(line)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn lines_include_launch_and_ops() {
        let lines = report().lines();
        assert!(lines.iter().any(|(l, _)| *l == TcoLine::Launch));
        assert!(lines.iter().any(|(l, _)| *l == TcoLine::Operations));
        assert_eq!(lines.len(), 12);
    }

    #[test]
    fn display_names() {
        assert_eq!(TcoLine::Launch.to_string(), "Launch");
        assert_eq!(TcoLine::Satellite(Subsystem::Power).to_string(), "Power");
    }
}
