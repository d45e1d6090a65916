//! Design-review report generation.
//!
//! Assembles a sized design, its TCO, and its key sensitivities into one
//! human-readable markdown document — the artifact a mission designer would
//! circulate for review.

use std::fmt::Write as _;

use sudc_errors::SudcError;
use sudc_sscm::sensitivity::try_tornado;
use sudc_sscm::subsystems::SubsystemCers;

use crate::design::SuDcDesign;

/// Renders a full design-review document for a design.
///
/// # Errors
///
/// Propagates [`SudcError`] from sizing.
///
/// # Panics
///
/// Never panics for designs that size successfully (string formatting is
/// infallible).
pub fn design_review(design: &SuDcDesign) -> Result<String, SudcError> {
    let sized = design.size()?;
    let report = sized.try_tco()?;
    let mut out = String::new();

    writeln!(out, "# SµDC design review").expect("write to string");
    writeln!(out).expect("write to string");
    writeln!(out, "## Configuration").expect("write to string");
    writeln!(
        out,
        "- compute power (equivalent): {:.2} kW on {}",
        design.compute_power.as_kilowatts(),
        design.hardware.name
    )
    .expect("write to string");
    writeln!(
        out,
        "- efficiency factor {:.1}x, redundancy {}, {} cold spares",
        design.efficiency_factor, design.redundancy, design.spares
    )
    .expect("write to string");
    writeln!(
        out,
        "- lifetime {} at {:.0} km altitude",
        design.lifetime,
        design.orbit.altitude().value() / 1e3
    )
    .expect("write to string");

    writeln!(out, "\n## Physical sizing").expect("write to string");
    writeln!(
        out,
        "- payload: {} units, {:.0} kg, drawing {:.0} W",
        sized.payload_units,
        sized.payload_mass.value(),
        sized.physical_compute_power.value()
    )
    .expect("write to string");
    writeln!(
        out,
        "- ISL: {:.1} Gbit/s ({} compression)",
        sized.isl_rate.value(),
        design.compression
    )
    .expect("write to string");
    writeln!(
        out,
        "- thermal: {:.1} m² radiator at {:.0} °C, {:.0} W pump",
        sized.thermal.radiator_area().value(),
        sized.thermal.radiator_temperature.as_celsius(),
        sized.thermal.pump_power.value()
    )
    .expect("write to string");
    writeln!(
        out,
        "- power: {:.1} kW BOL array, {:.0} kg subsystem",
        sized.power.bol_array_power().as_kilowatts(),
        sized.power.mass().value()
    )
    .expect("write to string");
    writeln!(
        out,
        "- mass: {:.0} kg dry + {:.0} kg fuel = {:.0} kg wet",
        sized.dry_mass.value(),
        sized.fuel_mass.value(),
        sized.wet_mass().value()
    )
    .expect("write to string");

    writeln!(out, "\n## Total cost of ownership").expect("write to string");
    writeln!(
        out,
        "- first unit {:.1} $M (NRE {:.1} $M); marginal unit {:.1} $M",
        report.total().as_millions(),
        report.nre().as_millions(),
        report.marginal_unit().as_millions()
    )
    .expect("write to string");
    writeln!(out, "\n| line | cost ($M) | share |").expect("write to string");
    writeln!(out, "|---|---|---|").expect("write to string");
    for (line, cost) in report.lines() {
        writeln!(
            out,
            "| {line} | {:.2} | {:.1}% |",
            cost.as_millions(),
            100.0 * report.share(line)
        )
        .expect("write to string");
    }

    writeln!(out, "\n## Cost-driver sensitivity (±30%)").expect("write to string");
    let bars = try_tornado(&SubsystemCers::sudc_default(), &sized.sscm_inputs(), 0.3)?;
    for bar in bars.iter().take(4) {
        writeln!(
            out,
            "- {}: {:.1}–{:.1} $M ({:.1}% swing)",
            bar.driver,
            bar.low.as_millions(),
            bar.high.as_millions(),
            100.0 * bar.relative_swing
        )
        .expect("write to string");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    #[test]
    fn review_covers_every_section() {
        let design = Scenario::Reference.try_design().unwrap();
        let doc = design_review(&design).unwrap();
        for section in [
            "# SµDC design review",
            "## Configuration",
            "## Physical sizing",
            "## Total cost of ownership",
            "## Cost-driver sensitivity",
        ] {
            assert!(doc.contains(section), "missing {section}");
        }
    }

    #[test]
    fn review_reports_the_tco_table() {
        let design = Scenario::Small.try_design().unwrap();
        let doc = design_review(&design).unwrap();
        assert!(doc.contains("| Power |"));
        assert!(doc.contains("| Launch |"));
        assert!(doc.matches('|').count() > 30, "table rows expected");
    }

    #[test]
    fn every_scenario_produces_a_review() {
        for scenario in Scenario::all() {
            let doc = design_review(&scenario.try_design().unwrap()).unwrap();
            assert!(doc.len() > 500, "{scenario}: short review");
        }
    }
}
