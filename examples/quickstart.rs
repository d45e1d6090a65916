//! Quickstart: design a 4 kW space microdatacenter and inspect its TCO.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use space_udc::core::design::SuDcDesign;
use space_udc::core::tco::TcoLine;
use space_udc::units::Watts;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 4 kW SµDC with the paper's defaults: RTX 3090 payload, five-year
    // lifetime, 550 km LEO, ISL sized to saturate the lightest workload.
    let design = SuDcDesign::builder()
        .compute_power(Watts::from_kilowatts(4.0))
        .try_build()?;

    let sized = design.size()?;
    println!("== 4 kW SµDC physical design ==");
    println!("  servers installed : {}", sized.payload_units);
    println!("  payload mass      : {:.0} kg", sized.payload_mass.value());
    println!("  ISL capacity      : {:.0} Gbit/s", sized.isl_rate.value());
    println!(
        "  radiator area     : {:.1} m²",
        sized.thermal.radiator_area().value()
    );
    println!(
        "  heat-pump power   : {:.0} W",
        sized.thermal.pump_power.value()
    );
    println!(
        "  BOL array power   : {:.1} kW",
        sized.power.bol_array_power().as_kilowatts()
    );
    println!(
        "  dry / wet mass    : {:.0} / {:.0} kg",
        sized.dry_mass.value(),
        sized.wet_mass().value()
    );

    let report = sized.try_tco()?;
    println!("\n== Total cost of ownership ==");
    println!(
        "  first unit        : {:.1} $M",
        report.total().as_millions()
    );
    println!(
        "  marginal unit     : {:.1} $M",
        report.marginal_unit().as_millions()
    );
    println!("\n  breakdown:");
    for (line, cost) in report.lines() {
        println!(
            "    {:16} {:6.2} $M  ({:4.1}%)",
            line.to_string(),
            cost.as_millions(),
            100.0 * report.share(line)
        );
    }

    // The paper's headline observations, straight from the model:
    println!("\n== Key insights ==");
    println!(
        "  power+thermal share : {:.1}% (paper: over a third)",
        100.0 * report.power_and_thermal_share()
    );
    println!(
        "  compute hw share    : {:.2}% (paper: < 1%)",
        100.0
            * report.share(TcoLine::Satellite(
                space_udc::sscm::Subsystem::ComputePayload
            ))
    );
    Ok(())
}
