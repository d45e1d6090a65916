//! Design-choice ablations.
//!
//! `DESIGN.md` calls out the design decisions baked into the pipeline; this
//! module sweeps each one so its TCO impact is measurable:
//!
//! - radiator temperature setpoint (area vs. pump-power trade),
//! - launch pricing era,
//! - FSO power-efficiency improvements (Space-BACN-class terminals),
//! - solar-cell technology.

use sudc_comms::cdh::CdhDesign;
use sudc_errors::SudcError;
use sudc_orbital::launch::LaunchPricing;
use sudc_power::{PowerDesign, SolarCellTech};
use sudc_thermal::{HeatPump, ThermalDesign};
use sudc_units::{Kelvin, Usd, Watts};

use crate::design::SuDcDesign;

/// One radiator-setpoint ablation point.
#[derive(Debug, Clone)]
pub struct SetpointPoint {
    /// Radiator temperature.
    pub temperature: Kelvin,
    /// Radiator panel area.
    pub radiator_area_m2: f64,
    /// Heat-pump electrical power.
    pub pump_power: Watts,
    /// Total electrical load the power subsystem must carry.
    pub eol_load: Watts,
}

/// Sweeps the radiator setpoint for a fixed heat load, exposing the
/// area-vs-pump-power trade behind the default 45 °C choice.
///
/// # Panics
///
/// Panics if `setpoints` is empty.
#[must_use]
pub fn radiator_setpoint_sweep(heat_load: Watts, setpoints: &[Kelvin]) -> Vec<SetpointPoint> {
    assert!(!setpoints.is_empty(), "no setpoints supplied");
    setpoints
        .iter()
        .map(|&t| {
            let design = ThermalDesign::size(heat_load, t, HeatPump::spacecraft_default());
            SetpointPoint {
                temperature: t,
                radiator_area_m2: design.radiator_area().value(),
                pump_power: design.pump_power,
                eol_load: heat_load + design.pump_power,
            }
        })
        .collect()
}

/// TCO under different launch-pricing eras.
///
/// # Errors
///
/// Propagates [`SudcError`].
pub fn launch_pricing_ablation(
    compute_power: Watts,
) -> Result<Vec<(&'static str, Usd)>, SudcError> {
    let eras = [
        ("Falcon-9 rideshare", LaunchPricing::falcon9_rideshare()),
        ("next-gen heavy lift", LaunchPricing::next_gen_heavy()),
    ];
    eras.into_iter()
        .map(|(name, pricing)| {
            let tco = SuDcDesign::builder()
                .compute_power(compute_power)
                .launch(pricing)
                .try_build()?
                .try_tco()?
                .total();
            Ok((name, tco))
        })
        .collect()
}

/// TCO vs. FSO power-efficiency scalar (Space-BACN-class improvements),
/// relative to today's terminals.
///
/// # Errors
///
/// Propagates [`SudcError`].
pub fn fso_efficiency_ablation(
    compute_power: Watts,
    scalars: &[f64],
) -> Result<Vec<(f64, f64)>, SudcError> {
    let baseline = SuDcDesign::builder()
        .compute_power(compute_power)
        .try_build()?
        .try_tco()?
        .total();
    scalars
        .iter()
        .map(|&s| {
            let tco = SuDcDesign::builder()
                .compute_power(compute_power)
                .fso_efficiency_scalar(s)
                .try_build()?
                .try_tco()?
                .total();
            Ok((s, tco / baseline))
        })
        .collect()
}

/// Power-subsystem mass under the two solar-cell technologies, exposing
/// the GaAs-vs-silicon default.
#[must_use]
pub fn solar_tech_ablation(eol_load: Watts) -> Vec<(&'static str, f64)> {
    use sudc_orbital::CircularOrbit;
    use sudc_units::Years;
    [
        ("triple-junction GaAs", SolarCellTech::TripleJunctionGaAs),
        ("silicon", SolarCellTech::Silicon),
    ]
    .into_iter()
    .map(|(name, tech)| {
        let design = PowerDesign::size(
            eol_load,
            CircularOrbit::reference_leo(),
            Years::new(5.0),
            tech,
        );
        (name, design.mass().value())
    })
    .collect()
}

/// The C&DH power consumed at an ISL rate, today vs. a Space-BACN-class
/// future (a direct view of where the FSO ablation's savings come from).
#[must_use]
pub fn cdh_power_comparison(isl_gbps: f64) -> (Watts, Watts) {
    let rate = sudc_units::GigabitsPerSecond::new(isl_gbps);
    let today = CdhDesign::size(rate);
    let future = CdhDesign::size_with_fso_efficiency(rate, 10.0);
    (today.power(), future.power())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hotter_setpoints_shrink_the_radiator_but_burn_pump_power() {
        let points = radiator_setpoint_sweep(
            Watts::from_kilowatts(4.0),
            &[
                Kelvin::from_celsius(25.0),
                Kelvin::from_celsius(45.0),
                Kelvin::from_celsius(70.0),
            ],
        );
        assert!(points[2].radiator_area_m2 < points[0].radiator_area_m2);
        assert!(points[2].pump_power > points[0].pump_power);
    }

    #[test]
    fn setpoint_trade_has_an_interior_optimum_in_eol_load_plus_area() {
        // Composite figure of merit: power subsystem sized by eol_load and
        // radiator mass by area; the default 45 C sits near the knee.
        let temps: Vec<Kelvin> = (15..=95)
            .step_by(10)
            .map(|c| Kelvin::from_celsius(f64::from(c)))
            .collect();
        let points = radiator_setpoint_sweep(Watts::from_kilowatts(4.0), &temps);
        // EOL load strictly grows with setpoint; area strictly falls.
        for pair in points.windows(2) {
            assert!(pair[1].eol_load > pair[0].eol_load);
            assert!(pair[1].radiator_area_m2 < pair[0].radiator_area_m2);
        }
    }

    #[test]
    fn cheaper_launch_cuts_tco() {
        let rows = launch_pricing_ablation(Watts::from_kilowatts(4.0)).unwrap();
        assert!(rows[1].1 < rows[0].1, "next-gen should be cheaper");
    }

    #[test]
    fn fso_improvements_reduce_tco_monotonically() {
        let curve =
            fso_efficiency_ablation(Watts::from_kilowatts(4.0), &[1.0, 2.0, 5.0, 10.0]).unwrap();
        for pair in curve.windows(2) {
            assert!(pair[1].1 <= pair[0].1);
        }
        assert!(
            curve.last().unwrap().1 < 0.99,
            "10x FSO must save something"
        );
    }

    #[test]
    fn gaas_arrays_are_lighter() {
        let rows = solar_tech_ablation(Watts::from_kilowatts(4.0));
        assert!(rows[0].1 < rows[1].1);
    }

    #[test]
    fn future_fso_cuts_cdh_power() {
        let (today, future) = cdh_power_comparison(100.0);
        assert!(future < today);
    }
}
