//! The SµDC design builder and sizing pipeline.

use sudc_comms::cdh::CdhDesign;
use sudc_comms::compression::Compression;
use sudc_comms::requirements::saturation_rate;
use sudc_comms::requirements::DEFAULT_BITS_PER_PIXEL;
use sudc_compute::hardware::{rtx_3090, HardwareSpec};
use sudc_compute::workloads;
use sudc_errors::{Diagnostics, SudcError};
use sudc_orbital::drag::{DragProfile, DvBudget};
use sudc_orbital::launch::LaunchPricing;
use sudc_orbital::rocket::Engine;
use sudc_orbital::CircularOrbit;
use sudc_power::PowerDesign;
use sudc_reliability::RedundancyScheme;
use sudc_sscm::subsystems::SubsystemCers;
use sudc_sscm::SscmInputs;
use sudc_thermal::ThermalDesign;
use sudc_units::{GigabitsPerSecond, Kilograms, SquareMeters, Usd, Watts, Years};

use crate::tco::{TcoReport, OPS_COST_PER_YEAR};

/// Fixed bus housekeeping power (ADCS, TT&C, flight avionics), W.
const BUS_HOUSEKEEPING_W: f64 = 120.0;

/// Server-payload packaged specific power, W/kg (paper: > 35 W/kg).
const PAYLOAD_SPECIFIC_POWER_W_PER_KG: f64 = 35.0;

/// Compute-hardware packaging/integration cost factor over chip list price.
const PAYLOAD_PACKAGING_FACTOR: f64 = 1.8;

/// Mass of a powered-off cold spare relative to an active server unit:
/// spares are bare boards sharing the chassis and cold plates of the active
/// payload (the paper: "adding additional, redundant chips to a system has
/// negligible impact on both TCO and satellite mass").
const SPARE_MASS_FACTOR: f64 = 0.1;

/// Structure mass fraction of dry mass.
const STRUCTURE_FRACTION: f64 = 0.18;

/// Pointing requirement every design is costed at (the SSCM-SµDC ADCS
/// cost input), arcsec.
const POINTING_ARCSEC: f64 = 60.0;

/// ADCS mass fraction of dry mass.
const ADCS_FRACTION: f64 = 0.05;

/// Propulsion dry-hardware mass fraction of dry mass.
const PROPULSION_FRACTION: f64 = 0.04;

/// Fixed TT&C and harness mass, kg.
const TTC_FIXED_MASS_KG: f64 = 12.0;

/// Geometric-mean energy efficiency of the Table III application suite —
/// the representative workload mix used by [`IslSizing::SaturateTypical`].
#[must_use]
pub fn typical_efficiency() -> sudc_units::KilopixelsPerJoule {
    let suite = workloads::suite();
    let log_mean =
        suite.iter().map(|w| w.efficiency.value().ln()).sum::<f64>() / suite.len() as f64;
    sudc_units::KilopixelsPerJoule::new(log_mean.exp())
}

/// How the ISL is provisioned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IslSizing {
    /// Explicit capacity.
    Fixed(GigabitsPerSecond),
    /// Size to saturate the payload on the most-lightweight (highest
    /// kpixel/J) application — the paper's conservative Fig. 7/8 policy.
    SaturateWorstCase,
    /// Size to saturate the payload on a representative application mix
    /// (geometric-mean efficiency of the Table III suite) — the paper's
    /// "in reality, ISL requirements ... will be much lower" observation.
    SaturateTypical,
}

/// A validated SµDC design specification.
///
/// Construct with [`SuDcDesign::builder`]; obtain costs with
/// [`SuDcDesign::try_tco`] and physical sizing with [`SuDcDesign::size`].
#[derive(Debug, Clone)]
pub struct SuDcDesign {
    /// Compute power available to applications (equivalent power for
    /// redundant configurations).
    pub compute_power: Watts,
    /// Processing hardware flown.
    pub hardware: HardwareSpec,
    /// Energy-efficiency factor relative to the RTX 3090 baseline
    /// (accelerator payloads deliver baseline work at `power / factor`).
    pub efficiency_factor: f64,
    /// Hardware-price factor applied on top of the catalog price
    /// (accelerator NRE recovery, Fig. 16-style price scaling).
    pub hardware_price_factor: f64,
    /// ISL provisioning policy.
    pub isl: IslSizing,
    /// Compression applied to ISL traffic.
    pub compression: Compression,
    /// FSO power-efficiency scalar over today (≥ 1).
    pub fso_efficiency_scalar: f64,
    /// Mission lifetime.
    pub lifetime: Years,
    /// Operating orbit.
    pub orbit: CircularOrbit,
    /// Payload redundancy scheme.
    pub redundancy: RedundancyScheme,
    /// Cold-spare servers carried (powered off).
    pub spares: u32,
    /// Pointing requirement, arcsec.
    pub pointing_arcsec: f64,
    /// Launch pricing.
    pub launch: LaunchPricing,
}

impl SuDcDesign {
    /// Starts a builder with the paper's defaults: RTX 3090 payload, five
    /// year lifetime, 550 km LEO, worst-case ISL sizing, no compression,
    /// no redundancy.
    #[must_use]
    pub fn builder() -> SuDcDesignBuilder {
        SuDcDesignBuilder::default()
    }

    /// Physically sizes the design (payload, thermal, power, masses, fuel).
    ///
    /// # Errors
    ///
    /// Returns a [`SudcError`] naming `hardware.TDP` or `hardware.price` if
    /// the hardware lacks that datum.
    pub fn size(&self) -> Result<SizedSuDc, SudcError> {
        let incomplete = |missing: &str| {
            SudcError::single(
                "SuDcDesign",
                format!("hardware.{missing}"),
                self.hardware.name,
                format!("hardware with {missing} data"),
            )
        };
        let tdp = self.hardware.tdp.ok_or_else(|| incomplete("TDP"))?;
        let unit_price = self.hardware.price.ok_or_else(|| incomplete("price"))?;

        // Physical payload power: redundancy overhead divided by the
        // architecture's energy-efficiency factor.
        let physical_power =
            self.redundancy.physical_power(self.compute_power) / self.efficiency_factor;

        // ISL: the link must carry the pixels the *equivalent* compute
        // consumes (efficiency changes power, not pixel demand).
        let raw_isl = match self.isl {
            IslSizing::Fixed(rate) => rate,
            IslSizing::SaturateWorstCase => {
                let lightest = workloads::most_lightweight();
                saturation_rate(
                    self.redundancy.physical_power(self.compute_power),
                    lightest.efficiency,
                    DEFAULT_BITS_PER_PIXEL,
                )
            }
            IslSizing::SaturateTypical => saturation_rate(
                self.redundancy.physical_power(self.compute_power),
                typical_efficiency(),
                DEFAULT_BITS_PER_PIXEL,
            ),
        };
        let isl_rate = self.compression.compressed_rate(raw_isl);
        let cdh = CdhDesign::size_with_fso_efficiency(isl_rate, self.fso_efficiency_scalar);

        // Thermal: all dissipated electrical power becomes heat.
        let heat_load = physical_power + cdh.power() + Watts::new(BUS_HOUSEKEEPING_W);
        let thermal = ThermalDesign::size_default(heat_load);

        // Power: EOL load adds the heat pump.
        let eol_load = heat_load + thermal.pump_power;
        let power = PowerDesign::size_default(eol_load, self.orbit, self.lifetime);

        // Payload mass & price (spares add mass and price, not power).
        let active_units = (physical_power.value() / tdp.value()).ceil() as u32;
        let payload_units = active_units + self.spares;
        let unit_mass = tdp.value() / PAYLOAD_SPECIFIC_POWER_W_PER_KG;
        let payload_mass = Kilograms::new(
            physical_power.value() / PAYLOAD_SPECIFIC_POWER_W_PER_KG
                + f64::from(self.spares) * unit_mass * SPARE_MASS_FACTOR,
        );
        let payload_price = unit_price
            * f64::from(payload_units)
            * PAYLOAD_PACKAGING_FACTOR
            * self.hardware_price_factor;

        // Dry-mass fixed point: structure/ADCS/propulsion scale with dry
        // mass, everything else is known.
        let fixed_mass = payload_mass.value()
            + thermal.mass().value()
            + power.mass().value()
            + cdh.mass().value()
            + TTC_FIXED_MASS_KG;
        let scaling = STRUCTURE_FRACTION + ADCS_FRACTION + PROPULSION_FRACTION;
        let dry_mass = Kilograms::new(fixed_mass / (1.0 - scaling));

        // Fuel for station-keeping + deorbit; drag area follows the array.
        let cross_section = SquareMeters::new(power.array_area().value() * 0.5 + 4.0);
        let profile = DragProfile::new(cross_section, dry_mass);
        let dv = DvBudget::for_mission(profile, self.orbit, self.lifetime);
        let fuel_mass = Engine::bipropellant().fuel_mass(dry_mass, dv.total());

        Ok(SizedSuDc {
            design: self.clone(),
            physical_compute_power: physical_power,
            isl_rate,
            cdh,
            thermal,
            power,
            payload_mass,
            payload_price,
            payload_units,
            dry_mass,
            fuel_mass,
            structure_mass: dry_mass * STRUCTURE_FRACTION,
        })
    }

    /// Sizes the design and produces its TCO report. Sizing failures and
    /// SSCM validation failures (e.g. a design whose payload price
    /// overflows to infinity) both surface as structured errors.
    ///
    /// # Errors
    ///
    /// Returns the [`SudcError`] from [`SuDcDesign::size`] or
    /// [`SizedSuDc::try_tco`].
    pub fn try_tco(&self) -> Result<TcoReport, SudcError> {
        self.size()?.try_tco()
    }
}

/// A physically sized SµDC, ready for costing.
#[derive(Debug, Clone)]
pub struct SizedSuDc {
    /// The specification this sizing realizes.
    pub design: SuDcDesign,
    /// Physical payload power drawn (after redundancy and efficiency).
    pub physical_compute_power: Watts,
    /// Provisioned ISL capacity (after compression).
    pub isl_rate: GigabitsPerSecond,
    /// C&DH subsystem (incl. FSO terminal).
    pub cdh: CdhDesign,
    /// Thermal subsystem.
    pub thermal: ThermalDesign,
    /// Electrical power subsystem.
    pub power: PowerDesign,
    /// Packaged compute payload mass (incl. spares).
    pub payload_mass: Kilograms,
    /// Compute hardware procurement cost (incl. spares & packaging).
    pub payload_price: Usd,
    /// Installed server units (active + spares).
    pub payload_units: u32,
    /// Dry mass.
    pub dry_mass: Kilograms,
    /// Propellant mass.
    pub fuel_mass: Kilograms,
    /// Structure subsystem mass.
    pub structure_mass: Kilograms,
}

impl SizedSuDc {
    /// Wet (launch) mass.
    #[must_use]
    pub fn wet_mass(&self) -> Kilograms {
        self.dry_mass + self.fuel_mass
    }

    /// The SSCM-SµDC driver parameters for this sizing.
    #[must_use]
    pub fn sscm_inputs(&self) -> SscmInputs {
        SscmInputs {
            lifetime: self.design.lifetime,
            bol_power: self.power.bol_array_power(),
            dry_mass: self.dry_mass,
            fuel_mass: self.fuel_mass,
            structure_mass: self.structure_mass,
            thermal_mass: self.thermal.mass(),
            power_mass: self.power.mass(),
            rf_equivalent_rate: self.cdh.rf_equivalent_rate,
            pointing_arcsec: self.design.pointing_arcsec,
            compute_hardware_cost: self.payload_price,
        }
    }

    /// Costs the sized satellite. SSCM input validation and the cost rollup
    /// both report structured errors.
    ///
    /// # Errors
    ///
    /// Returns the structured error from
    /// [`SubsystemCers::try_estimate`] or [`TcoReport::try_new`].
    pub fn try_tco(&self) -> Result<TcoReport, SudcError> {
        let estimate = SubsystemCers::sudc_default().try_estimate(&self.sscm_inputs())?;
        let launch_cost = self.design.launch.cost(self.wet_mass());
        let ops_cost = OPS_COST_PER_YEAR * self.design.lifetime.value();
        TcoReport::try_new(estimate, launch_cost, ops_cost)
    }

    /// Exports the physical sizing as JSON.
    ///
    /// Kept without a non-test caller: it is the sizing's export format,
    /// and `tests/json_fidelity.rs` checks that it never writes a `null`.
    #[must_use]
    pub fn to_json(&self) -> sudc_par::json::Json {
        sudc_par::json::Json::object()
            .with(
                "physical_compute_power_w",
                self.physical_compute_power.value(),
            )
            .with("isl_rate_gbps", self.isl_rate.value())
            .with("payload_mass_kg", self.payload_mass.value())
            .with("payload_price_usd", self.payload_price.value())
            .with("payload_units", self.payload_units)
            .with("dry_mass_kg", self.dry_mass.value())
            .with("fuel_mass_kg", self.fuel_mass.value())
            .with("wet_mass_kg", self.wet_mass().value())
            .with("structure_mass_kg", self.structure_mass.value())
    }
}

/// Builder for [`SuDcDesign`].
#[derive(Debug, Clone)]
pub struct SuDcDesignBuilder {
    compute_power: Option<Watts>,
    hardware: HardwareSpec,
    efficiency_factor: f64,
    hardware_price_factor: f64,
    isl: IslSizing,
    compression: Compression,
    fso_efficiency_scalar: f64,
    lifetime: Years,
    orbit: CircularOrbit,
    redundancy: RedundancyScheme,
    spares: u32,
    launch: LaunchPricing,
}

impl Default for SuDcDesignBuilder {
    fn default() -> Self {
        Self {
            compute_power: None,
            hardware: rtx_3090(),
            efficiency_factor: 1.0,
            hardware_price_factor: 1.0,
            isl: IslSizing::SaturateWorstCase,
            compression: Compression::None,
            fso_efficiency_scalar: 1.0,
            lifetime: Years::new(5.0),
            orbit: CircularOrbit::reference_leo(),
            redundancy: RedundancyScheme::None,
            spares: 0,
            launch: LaunchPricing::falcon9_rideshare(),
        }
    }
}

impl SuDcDesignBuilder {
    /// Sets the application-visible compute power budget (required).
    #[must_use]
    pub fn compute_power(mut self, power: Watts) -> Self {
        self.compute_power = Some(power);
        self
    }

    /// Selects the processing hardware (default: RTX 3090).
    #[must_use]
    pub fn hardware(mut self, hardware: HardwareSpec) -> Self {
        self.hardware = hardware;
        self
    }

    /// Sets the payload energy-efficiency factor over the RTX 3090
    /// baseline (e.g. ~57.8 for the global accelerator of Fig. 17).
    #[must_use]
    pub fn efficiency_factor(mut self, factor: f64) -> Self {
        self.efficiency_factor = factor;
        self
    }

    /// Scales the hardware price (Fig. 16's logarithmic price response).
    #[must_use]
    pub fn hardware_price_factor(mut self, factor: f64) -> Self {
        self.hardware_price_factor = factor;
        self
    }

    /// Provisions a fixed ISL capacity instead of worst-case saturation.
    #[must_use]
    pub fn isl_rate(mut self, rate: GigabitsPerSecond) -> Self {
        self.isl = IslSizing::Fixed(rate);
        self
    }

    /// Sizes the ISL for a representative application mix instead of the
    /// worst-case (most lightweight) application.
    #[must_use]
    pub fn isl_typical(mut self) -> Self {
        self.isl = IslSizing::SaturateTypical;
        self
    }

    /// Applies on-board compression to ISL traffic.
    #[must_use]
    pub fn compression(mut self, compression: Compression) -> Self {
        self.compression = compression;
        self
    }

    /// Assumes FSO power efficiency improved by this factor over today.
    #[must_use]
    pub fn fso_efficiency_scalar(mut self, scalar: f64) -> Self {
        self.fso_efficiency_scalar = scalar;
        self
    }

    /// Sets the mission lifetime (default: 5 years).
    #[must_use]
    pub fn lifetime(mut self, lifetime: Years) -> Self {
        self.lifetime = lifetime;
        self
    }

    /// Sets the operating orbit (default: 550 km LEO).
    ///
    /// Kept without a non-test caller: it is the one way to move the
    /// orbit the sizing costs (drag, fuel, eclipse), which
    /// `tests/pipeline.rs` checks through it.
    #[must_use]
    pub fn orbit(mut self, orbit: CircularOrbit) -> Self {
        self.orbit = orbit;
        self
    }

    /// Applies a payload redundancy scheme (Fig. 28).
    #[must_use]
    pub fn redundancy(mut self, scheme: RedundancyScheme) -> Self {
        self.redundancy = scheme;
        self
    }

    /// Carries cold-spare servers (near-zero-cost overprovisioning, §VII).
    #[must_use]
    pub fn spares(mut self, spares: u32) -> Self {
        self.spares = spares;
        self
    }

    /// Selects launch pricing.
    #[must_use]
    pub fn launch(mut self, pricing: LaunchPricing) -> Self {
        self.launch = pricing;
        self
    }

    /// Validates and produces the design, reporting *every* invalid
    /// parameter in one pass.
    ///
    /// # Errors
    ///
    /// Returns a [`SudcError`] with one violation per offending parameter.
    pub fn try_build(self) -> Result<SuDcDesign, SudcError> {
        let mut d = Diagnostics::new("SuDcDesign");
        match self.compute_power {
            None => d.violation(
                "compute_power",
                "unset",
                "a specified compute power (required)",
            ),
            Some(p) => {
                d.positive("compute_power", p.value());
            }
        }
        d.positive("efficiency_factor", self.efficiency_factor);
        d.positive("hardware_price_factor", self.hardware_price_factor);
        d.ensure(
            self.fso_efficiency_scalar >= 1.0 && self.fso_efficiency_scalar.is_finite(),
            "fso_efficiency_scalar",
            self.fso_efficiency_scalar,
            "a finite scalar >= 1",
        );
        d.positive("lifetime", self.lifetime.value());
        if let IslSizing::Fixed(rate) = self.isl {
            d.non_negative("isl_rate", rate.value());
        }
        let compute_power = self.compute_power.unwrap_or(Watts::new(0.0));
        d.into_result(SuDcDesign {
            compute_power,
            hardware: self.hardware,
            efficiency_factor: self.efficiency_factor,
            hardware_price_factor: self.hardware_price_factor,
            isl: self.isl,
            compression: self.compression,
            fso_efficiency_scalar: self.fso_efficiency_scalar,
            lifetime: self.lifetime,
            orbit: self.orbit,
            redundancy: self.redundancy,
            spares: self.spares,
            pointing_arcsec: POINTING_ARCSEC,
            launch: self.launch,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sudc_compute::hardware::{a100, kintex_ultrascale_xqr};

    fn four_kw() -> SuDcDesign {
        SuDcDesign::builder()
            .compute_power(Watts::from_kilowatts(4.0))
            .try_build()
            .unwrap()
    }

    #[test]
    fn builder_requires_compute_power() {
        let err = SuDcDesign::builder().try_build().unwrap_err();
        assert_eq!(err.violations()[0].path, "compute_power");
    }

    #[test]
    fn four_kw_design_sizes_plausibly() {
        let sized = four_kw().size().unwrap();
        // ~4 kW payload + CDH + pump -> EOL load ~5.5-6.5 kW.
        let eol = sized.power.eol_load.value();
        assert!(eol > 4500.0 && eol < 7000.0, "EOL load {eol}");
        // Dry mass in the small-sat (sub-1000 kg class, paper's SSCM scope).
        let dry = sized.dry_mass.value();
        assert!(dry > 400.0 && dry < 1100.0, "dry mass {dry} kg");
        // Fuel is a modest fraction of dry mass.
        assert!(sized.fuel_mass < sized.dry_mass * 0.3);
    }

    #[test]
    fn payload_mass_is_a_small_fraction_of_dry_mass() {
        let sized = four_kw().size().unwrap();
        let share = sized.payload_mass / sized.dry_mass;
        assert!(share < 0.25, "payload share {share}");
    }

    #[test]
    fn isl_autosizing_matches_worst_case_saturation() {
        let sized = four_kw().size().unwrap();
        // 4 kW x 2597 kpixel/J x 12 bit ~ 125 Gbit/s.
        assert!(sized.isl_rate.value() > 100.0 && sized.isl_rate.value() < 150.0);
    }

    #[test]
    fn compression_shrinks_the_provisioned_link() {
        let compressed = SuDcDesign::builder()
            .compute_power(Watts::from_kilowatts(4.0))
            .compression(Compression::NeuralQuasiLossless)
            .try_build()
            .unwrap()
            .size()
            .unwrap();
        let plain = four_kw().size().unwrap();
        assert!((plain.isl_rate.value() / compressed.isl_rate.value() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn redundancy_multiplies_physical_power() {
        let tmr = SuDcDesign::builder()
            .compute_power(Watts::from_kilowatts(1.0))
            .redundancy(RedundancyScheme::Tmr)
            .try_build()
            .unwrap()
            .size()
            .unwrap();
        assert!((tmr.physical_compute_power.value() - 3000.0).abs() < 1e-9);
    }

    #[test]
    fn efficiency_factor_shrinks_physical_power_not_isl() {
        let accel = SuDcDesign::builder()
            .compute_power(Watts::from_kilowatts(4.0))
            .efficiency_factor(57.8)
            .try_build()
            .unwrap()
            .size()
            .unwrap();
        let gpu = four_kw().size().unwrap();
        assert!(accel.physical_compute_power.value() < 100.0);
        assert_eq!(accel.isl_rate, gpu.isl_rate);
    }

    #[test]
    fn spares_increase_price_and_mass_only() {
        let base = four_kw().size().unwrap();
        let spared = SuDcDesign::builder()
            .compute_power(Watts::from_kilowatts(4.0))
            .spares(12)
            .try_build()
            .unwrap()
            .size()
            .unwrap();
        assert!(spared.payload_price > base.payload_price);
        assert!(spared.payload_mass > base.payload_mass);
        assert_eq!(spared.physical_compute_power, base.physical_compute_power);
    }

    #[test]
    fn a100_payload_is_supported() {
        let sized = SuDcDesign::builder()
            .compute_power(Watts::from_kilowatts(4.0))
            .hardware(a100())
            .try_build()
            .unwrap()
            .size()
            .unwrap();
        assert!(sized.payload_price > Usd::from_millions(0.2));
    }

    #[test]
    fn hardware_without_tdp_is_rejected_at_sizing() {
        let design = SuDcDesign::builder()
            .compute_power(Watts::new(100.0))
            .hardware(kintex_ultrascale_xqr())
            .try_build()
            .unwrap();
        let err = design.size().unwrap_err();
        assert_eq!(err.violations()[0].path, "hardware.TDP");
    }

    #[test]
    fn invalid_fso_scalar_is_rejected() {
        let err = SuDcDesign::builder()
            .compute_power(Watts::new(500.0))
            .fso_efficiency_scalar(0.2)
            .try_build()
            .unwrap_err();
        assert_eq!(err.violations()[0].path, "fso_efficiency_scalar");
    }

    #[test]
    fn cots_gpus_survive_leo_behind_heavy_shielding_but_not_geo() {
        // Paper §VIII: LEO + 400 mil shielding keeps COTS within tolerance.
        use sudc_orbital::radiation::{RadiationRegime, TidAssessment};
        let design = four_kw();
        let assess = |regime, shield_mils| {
            TidAssessment::try_assess(
                regime,
                shield_mils,
                design.lifetime,
                design.hardware.tid_tolerance,
            )
            .unwrap()
        };
        let shielded = assess(RadiationRegime::LeoNonPolar, 400.0);
        assert!(
            shielded.survives_with_margin(1.5),
            "margin {}",
            shielded.margin
        );
        assert!(assess(RadiationRegime::LeoNonPolar, 100.0).margin < shielded.margin);
        assert!(!assess(RadiationRegime::Geo, 200.0).survives_with_margin(1.0));
    }

    #[test]
    fn error_display_is_informative() {
        let err = SuDcDesign::builder().try_build().unwrap_err();
        assert!(err.to_string().contains("compute_power"));
    }

    #[test]
    fn try_build_reports_every_violation_at_once() {
        let err = SuDcDesign::builder()
            .compute_power(Watts::new(f64::NAN))
            .efficiency_factor(-1.0)
            .fso_efficiency_scalar(0.5)
            .lifetime(Years::new(0.0))
            .try_build()
            .unwrap_err();
        let paths: Vec<&str> = err.violations().iter().map(|v| v.path.as_str()).collect();
        assert_eq!(
            paths,
            [
                "compute_power",
                "efficiency_factor",
                "fso_efficiency_scalar",
                "lifetime"
            ]
        );
    }
}
