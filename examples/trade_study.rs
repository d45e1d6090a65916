//! Trade study: sweep the power × architecture plane, print the Pareto
//! front, and emit a full design-review document for the winning design.
//!
//! ```text
//! cargo run --release --example trade_study
//! ```

use space_udc::core::analysis::tradespace::{paper_architectures, pareto_front, sweep};
use space_udc::core::report::design_review;
use space_udc::core::scenario::Scenario;
use space_udc::units::Watts;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let powers: Vec<Watts> = [0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0]
        .iter()
        .map(|&k| Watts::from_kilowatts(k))
        .collect();
    let points = sweep(&powers, &paper_architectures())?;

    println!("== Trade space: {} design points ==", points.len());
    println!(
        "{:>24} {:>8} {:>10} {:>12}",
        "architecture", "kW", "TCO ($M)", "W per $M"
    );
    for p in &points {
        println!(
            "{:>24} {:>8.1} {:>10.1} {:>12.1}",
            p.architecture,
            p.equivalent_power.as_kilowatts(),
            p.tco.as_millions(),
            p.watts_per_musd
        );
    }

    println!("\n== Pareto front (max equivalent power, min TCO) ==");
    for p in pareto_front(&points) {
        println!(
            "  {:>24} at {:>4.1} kW for {:>6.1} $M",
            p.architecture,
            p.equivalent_power.as_kilowatts(),
            p.tco.as_millions()
        );
    }

    println!("\n== Design review of the accelerated reference scenario ==\n");
    let design = Scenario::ReferenceAccelerated.try_design()?;
    println!("{}", design_review(&design)?);
    Ok(())
}
