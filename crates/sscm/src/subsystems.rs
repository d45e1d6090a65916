//! Per-subsystem CERs and the satellite-level cost rollup.
//!
//! Mirrors SSCM's structure: every bus subsystem gets a non-recurring and a
//! recurring CER on one driver parameter; payload (compute) cost is a
//! pass-through (SSCM "does not attempt to estimate" payloads); program
//! management / systems engineering wraps the subtotal; and a lifetime
//! reliability factor inflates both NRE and RE for long missions ("NRE and
//! RE costs increase with lifetime, as additional reliability features are
//! required").

use sudc_errors::SudcError;
use sudc_units::{Usd, Years};

use crate::cer::Cer;
use crate::estimate::{CostEstimate, SubsystemCost};
use crate::inputs::SscmInputs;

/// Satellite cost elements reported by the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Subsystem {
    /// Bus structure and mechanisms.
    Structure,
    /// Thermal control (radiators, heat pump, loops).
    Thermal,
    /// Electrical power (arrays, batteries, distribution).
    Power,
    /// Attitude determination and control.
    Adcs,
    /// Propulsion (thrusters, tanks, feed system).
    Propulsion,
    /// Command & data handling, including the FSO terminal electronics.
    Cdh,
    /// Telemetry, tracking & command.
    Ttc,
    /// The compute payload (servers/accelerators) — pass-through cost.
    ComputePayload,
    /// Integration, assembly & test.
    IntegrationAndTest,
    /// Program management and systems engineering (wrap).
    ProgramManagement,
}

impl Subsystem {
    /// All subsystems, in report order.
    #[must_use]
    pub fn all() -> [Self; 10] {
        [
            Self::Structure,
            Self::Thermal,
            Self::Power,
            Self::Adcs,
            Self::Propulsion,
            Self::Cdh,
            Self::Ttc,
            Self::ComputePayload,
            Self::IntegrationAndTest,
            Self::ProgramManagement,
        ]
    }
}

impl core::fmt::Display for Subsystem {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            Self::Structure => "Structure",
            Self::Thermal => "Thermal",
            Self::Power => "Power",
            Self::Adcs => "ADCS",
            Self::Propulsion => "Propulsion",
            Self::Cdh => "C&DH",
            Self::Ttc => "TT&C",
            Self::ComputePayload => "Compute payload",
            Self::IntegrationAndTest => "IA&T",
            Self::ProgramManagement => "PM/SE",
        };
        f.write_str(s)
    }
}

/// A subsystem's NRE and RE CER pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CerPair {
    /// Non-recurring (design, qualification, prototype) CER.
    pub nre: Cer,
    /// Recurring (per-flight-unit) CER.
    pub re: Cer,
}

impl CerPair {
    /// NRE and RE scale differently: design/qualification cost is only
    /// weakly size-dependent, while unit manufacturing tracks hardware
    /// size — so each side of the pair carries its own exponent. Only
    /// called with the calibrated constants of [`SubsystemCers::sudc_default`].
    fn new(
        nre_millions: f64,
        nre_exponent: f64,
        re_millions: f64,
        re_exponent: f64,
        reference: f64,
    ) -> Self {
        let cer = |millions, exponent| {
            Cer::try_new(Usd::from_millions(millions), reference, exponent)
                .expect("calibrated CER coefficients are finite and in range")
        };
        Self {
            nre: cer(nre_millions, nre_exponent),
            re: cer(re_millions, re_exponent),
        }
    }
}

/// The full SSCM-SµDC CER set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubsystemCers {
    /// Structure: driven by structure mass.
    pub structure: CerPair,
    /// Thermal: driven by thermal subsystem mass.
    pub thermal: CerPair,
    /// Power: driven by BOL power.
    pub power: CerPair,
    /// ADCS: driven by pointing-weighted dry mass.
    pub adcs: CerPair,
    /// Propulsion: driven by wet mass.
    pub propulsion: CerPair,
    /// C&DH: driven by RF-equivalent data rate.
    pub cdh: CerPair,
    /// TT&C: driven by RF-equivalent data rate (weakly).
    pub ttc: CerPair,
    /// IA&T: driven by dry mass.
    pub iat: CerPair,
    /// Payload-integration NRE as a fraction of compute hardware cost.
    pub payload_nre_fraction: f64,
    /// Fixed payload software/integration NRE.
    pub payload_nre_base: Usd,
    /// PM/SE wrap on the NRE subtotal.
    pub program_nre_fraction: f64,
    /// PM/SE wrap on the RE subtotal.
    pub program_re_fraction: f64,
    /// Reference pointing requirement, arcsec.
    pub reference_pointing_arcsec: f64,
}

impl SubsystemCers {
    /// The calibrated SSCM-SµDC CER set (referenced to a 500 W SµDC,
    /// see [`SscmInputs::reference`]).
    #[must_use]
    pub fn sudc_default() -> Self {
        Self {
            structure: CerPair::new(1.98, 0.25, 1.12, 0.7, 85.0),
            thermal: CerPair::new(1.08, 0.3, 0.688, 0.75, 25.0),
            power: CerPair::new(4.05, 0.5, 2.75, 0.85, 1300.0),
            adcs: CerPair::new(2.88, 0.15, 2.0, 0.35, 420.0),
            propulsion: CerPair::new(1.62, 0.3, 1.0, 0.75, 460.0),
            cdh: CerPair::new(2.52, 0.25, 1.62, 0.35, 0.1),
            ttc: CerPair::new(1.17, 0.1, 0.75, 0.15, 0.1),
            iat: CerPair::new(2.34, 0.3, 1.38, 0.55, 420.0),
            payload_nre_fraction: 0.10,
            payload_nre_base: Usd::from_millions(0.15),
            program_nre_fraction: 0.15,
            program_re_fraction: 0.08,
            reference_pointing_arcsec: 60.0,
        }
    }

    /// Lifetime reliability factor applied to all NRE and RE costs.
    ///
    /// Longer missions demand more screening, redundancy, and qualification,
    /// and the marginal year gets *harder* (deeper derating, more sparing) —
    /// a convex response that is one driver of Fig. 4's superlinear
    /// TCO-vs-lifetime growth.
    #[must_use]
    pub fn lifetime_factor(lifetime: Years) -> f64 {
        let normalized = (lifetime.value() / 5.0).max(0.0);
        0.8 + 0.2 * normalized.powf(1.6)
    }

    /// Produces the per-subsystem cost estimate for a design, validating
    /// the inputs (reporting every offending field) before evaluating any
    /// CER.
    ///
    /// # Errors
    ///
    /// Returns the structured validation error from
    /// [`SscmInputs::try_validate`].
    pub fn try_estimate(&self, inputs: &SscmInputs) -> Result<CostEstimate, SudcError> {
        inputs.try_validate()?;
        let factor = Self::lifetime_factor(inputs.lifetime);
        let pointing_weight =
            (self.reference_pointing_arcsec / inputs.pointing_arcsec.max(1e-3)).powf(0.5);
        let adcs_driver = inputs.dry_mass.value() * pointing_weight;

        let mut items = vec![
            Self::item(
                Subsystem::Structure,
                self.structure,
                inputs.structure_mass.value(),
                factor,
            ),
            Self::item(
                Subsystem::Thermal,
                self.thermal,
                inputs.thermal_mass.value(),
                factor,
            ),
            Self::item(
                Subsystem::Power,
                self.power,
                inputs.bol_power.value(),
                factor,
            ),
            Self::item(Subsystem::Adcs, self.adcs, adcs_driver, factor),
            Self::item(
                Subsystem::Propulsion,
                self.propulsion,
                inputs.wet_mass().value(),
                factor,
            ),
            Self::item(
                Subsystem::Cdh,
                self.cdh,
                inputs.rf_equivalent_rate.value(),
                factor,
            ),
            Self::item(
                Subsystem::Ttc,
                self.ttc,
                inputs.rf_equivalent_rate.value(),
                factor,
            ),
            SubsystemCost {
                subsystem: Subsystem::ComputePayload,
                nre: (self.payload_nre_base
                    + inputs.compute_hardware_cost * self.payload_nre_fraction)
                    * factor,
                re: inputs.compute_hardware_cost,
            },
            Self::item(
                Subsystem::IntegrationAndTest,
                self.iat,
                inputs.dry_mass.value(),
                factor,
            ),
        ];

        let nre_subtotal: Usd = items.iter().map(|i| i.nre).sum();
        let re_subtotal: Usd = items.iter().map(|i| i.re).sum();
        items.push(SubsystemCost {
            subsystem: Subsystem::ProgramManagement,
            nre: nre_subtotal * self.program_nre_fraction,
            re: re_subtotal * self.program_re_fraction,
        });

        CostEstimate::try_new(items)
    }

    fn item(subsystem: Subsystem, pair: CerPair, driver: f64, factor: f64) -> SubsystemCost {
        SubsystemCost {
            subsystem,
            nre: pair.nre.evaluate(driver) * factor,
            re: pair.re.evaluate(driver) * factor,
        }
    }
}

impl Default for SubsystemCers {
    fn default() -> Self {
        Self::sudc_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sudc_units::{GigabitsPerSecond, Kilograms, Watts};

    fn reference_estimate() -> CostEstimate {
        SubsystemCers::sudc_default()
            .try_estimate(&SscmInputs::reference())
            .unwrap()
    }

    #[test]
    fn reference_satellite_costs_tens_of_millions() {
        let est = reference_estimate();
        let first = est.first_unit().as_millions();
        assert!(first > 15.0 && first < 60.0, "first unit {first} $M");
        assert!(est.recurring_unit() < est.first_unit());
    }

    #[test]
    fn every_subsystem_is_present_once() {
        let est = reference_estimate();
        for s in Subsystem::all() {
            assert!(est.cost_of(s).is_some(), "{s}");
        }
        assert_eq!(est.items().len(), 10);
    }

    #[test]
    fn more_bol_power_costs_more() {
        let cers = SubsystemCers::sudc_default();
        let mut hi = SscmInputs::reference();
        hi.bol_power = Watts::new(9000.0);
        let base = cers.try_estimate(&SscmInputs::reference()).unwrap();
        let scaled = cers.try_estimate(&hi).unwrap();
        assert!(scaled.first_unit() > base.first_unit());
        let power_ratio = scaled.cost_of(Subsystem::Power).unwrap().total()
            / base.cost_of(Subsystem::Power).unwrap().total();
        // Sublinear: 6.9x power -> NRE x2.6, RE x5.2, blended ~3.5x.
        assert!(
            power_ratio > 2.5 && power_ratio < 4.5,
            "ratio {power_ratio}"
        );
    }

    #[test]
    fn finer_pointing_costs_more() {
        let cers = SubsystemCers::sudc_default();
        let mut fine = SscmInputs::reference();
        fine.pointing_arcsec = 3.0; // 50 micro-minutes-of-angle class
        let base = cers.try_estimate(&SscmInputs::reference()).unwrap();
        let precise = cers.try_estimate(&fine).unwrap();
        assert!(
            precise.cost_of(Subsystem::Adcs).unwrap().total()
                > base.cost_of(Subsystem::Adcs).unwrap().total()
        );
    }

    #[test]
    fn lifetime_factor_grows_superlinearly_from_short_missions() {
        let f1 = SubsystemCers::lifetime_factor(Years::new(1.0));
        let f5 = SubsystemCers::lifetime_factor(Years::new(5.0));
        let f10 = SubsystemCers::lifetime_factor(Years::new(10.0));
        assert!(f1 < f5);
        assert!((f5 - 1.0).abs() < 1e-12);
        assert!(f10 > f5);
        // Convex: the 5->10 increment exceeds the 1->5 increment per year.
        assert!((f10 - f5) / 5.0 > (f5 - f1) / 4.0);
    }

    #[test]
    fn compute_hardware_cost_is_passed_through_re() {
        let cers = SubsystemCers::sudc_default();
        let mut rich = SscmInputs::reference();
        rich.compute_hardware_cost = Usd::from_millions(1.0);
        let est = cers.try_estimate(&rich).unwrap();
        let payload = est.cost_of(Subsystem::ComputePayload).unwrap();
        assert_eq!(payload.re, Usd::from_millions(1.0));
    }

    #[test]
    fn program_wrap_tracks_subtotals() {
        let est = reference_estimate();
        let pm = est.cost_of(Subsystem::ProgramManagement).unwrap();
        let nre_rest: sudc_units::Usd = est
            .items()
            .iter()
            .filter(|i| i.subsystem != Subsystem::ProgramManagement)
            .map(|i| i.nre)
            .sum();
        assert!((pm.nre - nre_rest * 0.15).abs() < Usd::new(1.0));
    }

    #[test]
    fn faster_isl_raises_cdh_cost_sublinearly() {
        let cers = SubsystemCers::sudc_default();
        let mut fast = SscmInputs::reference();
        fast.rf_equivalent_rate = GigabitsPerSecond::new(1.0);
        let base = cers.try_estimate(&SscmInputs::reference()).unwrap();
        let faster = cers.try_estimate(&fast).unwrap();
        let ratio = faster.cost_of(Subsystem::Cdh).unwrap().total()
            / base.cost_of(Subsystem::Cdh).unwrap().total();
        assert!(ratio > 1.5 && ratio < 3.0, "10x rate -> {ratio}x cost");
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let mut bad = SscmInputs::reference();
        bad.dry_mass = Kilograms::new(-5.0);
        let err = SubsystemCers::sudc_default()
            .try_estimate(&bad)
            .unwrap_err();
        assert!(err.to_string().contains("invalid SscmInputs"), "{err}");
        assert!(err.to_string().contains("dry_mass"), "{err}");
    }
}
