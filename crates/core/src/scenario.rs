//! Named end-to-end scenarios — the paper's working configurations as
//! ready-made designs.
//!
//! Scenarios give examples, benches, and downstream users a single source
//! of truth for "the paper's 4 kW SµDC" and its variants.

use sudc_comms::compression::Compression;
use sudc_compute::hardware;
use sudc_errors::SudcError;
use sudc_units::Watts;

use crate::design::{SuDcDesign, SuDcDesignBuilder};

/// The named configurations used across the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// 500 W entry-level SµDC (Figs. 4–8's smallest point).
    Small,
    /// The 4 kW reference SµDC (Fig. 2, §IV-A's working size).
    Reference,
    /// 10 kW upper design point.
    Large,
    /// 4 kW with A100 payloads (Fig. 9).
    ReferenceA100,
    /// 4 kW with H100 payloads (Fig. 9).
    ReferenceH100,
    /// 4 kW with a global-accelerator payload (Fig. 17/18a-informed).
    ReferenceAccelerated,
    /// 4 kW with neural compression on the ISL (Fig. 10's best algorithm).
    ReferenceCompressed,
}

impl Scenario {
    /// All scenarios.
    #[must_use]
    pub fn all() -> [Self; 7] {
        [
            Self::Small,
            Self::Reference,
            Self::Large,
            Self::ReferenceA100,
            Self::ReferenceH100,
            Self::ReferenceAccelerated,
            Self::ReferenceCompressed,
        ]
    }

    /// The compute power of this scenario.
    #[must_use]
    pub fn compute_power(self) -> Watts {
        match self {
            Self::Small => Watts::new(500.0),
            Self::Large => Watts::from_kilowatts(10.0),
            _ => Watts::from_kilowatts(4.0),
        }
    }

    /// A builder preconfigured for this scenario (callers may customize
    /// further before building).
    #[must_use]
    pub fn builder(self) -> SuDcDesignBuilder {
        let base = SuDcDesign::builder().compute_power(self.compute_power());
        match self {
            Self::Small | Self::Reference | Self::Large => base,
            Self::ReferenceA100 => base.hardware(hardware::a100()),
            Self::ReferenceH100 => base.hardware(hardware::h100()),
            Self::ReferenceAccelerated => base
                .efficiency_factor(57.8)
                .hardware_price_factor(3.0)
                .isl_typical(),
            Self::ReferenceCompressed => base.compression(Compression::NeuralQuasiLossless),
        }
    }

    /// Builds the scenario's design, reporting every invalid parameter
    /// (relevant when callers customize the [`Scenario::builder`] before
    /// building).
    ///
    /// # Errors
    ///
    /// Propagates the structured error from
    /// [`crate::design::SuDcDesignBuilder::try_build`].
    pub fn try_design(self) -> Result<SuDcDesign, SudcError> {
        self.builder().try_build()
    }
}

impl core::fmt::Display for Scenario {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            Self::Small => "500 W SµDC",
            Self::Reference => "4 kW SµDC",
            Self::Large => "10 kW SµDC",
            Self::ReferenceA100 => "4 kW SµDC (A100)",
            Self::ReferenceH100 => "4 kW SµDC (H100)",
            Self::ReferenceAccelerated => "4 kW SµDC (global accelerator)",
            Self::ReferenceCompressed => "4 kW SµDC (neural compression)",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scenario_designs_and_costs() {
        for scenario in Scenario::all() {
            let design = scenario
                .try_design()
                .unwrap_or_else(|e| panic!("{scenario}: {e}"));
            let tco = design
                .try_tco()
                .unwrap_or_else(|e| panic!("{scenario}: {e}"));
            assert!(tco.total().as_millions() > 5.0, "{scenario}");
        }
    }

    #[test]
    fn scenario_ordering_by_size() {
        let small = Scenario::Small
            .try_design()
            .unwrap()
            .try_tco()
            .unwrap()
            .total();
        let reference = Scenario::Reference
            .try_design()
            .unwrap()
            .try_tco()
            .unwrap()
            .total();
        let large = Scenario::Large
            .try_design()
            .unwrap()
            .try_tco()
            .unwrap()
            .total();
        assert!(small < reference && reference < large);
    }

    #[test]
    fn accelerated_scenario_is_cheapest_4kw_class() {
        let reference = Scenario::Reference
            .try_design()
            .unwrap()
            .try_tco()
            .unwrap()
            .total();
        let accel = Scenario::ReferenceAccelerated
            .try_design()
            .unwrap()
            .try_tco()
            .unwrap()
            .total();
        assert!(accel < reference * 0.6);
    }

    #[test]
    fn compression_scenario_trims_the_isl() {
        let plain = Scenario::Reference.try_design().unwrap().size().unwrap();
        let compressed = Scenario::ReferenceCompressed
            .try_design()
            .unwrap()
            .size()
            .unwrap();
        assert!(compressed.isl_rate < plain.isl_rate);
    }

    #[test]
    fn display_names_are_distinct() {
        let names: std::collections::HashSet<String> =
            Scenario::all().iter().map(ToString::to_string).collect();
        assert_eq!(names.len(), Scenario::all().len());
    }
}
