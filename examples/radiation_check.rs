//! COTS-vs-rad-hard flight check: does commodity hardware survive a 5-year
//! LEO mission, and what would rad-hard redundancy cost instead?
//!
//! ```text
//! cargo run --example radiation_check
//! ```

use space_udc::compute::hardware;
use space_udc::core::analysis::reliability_cost;
use space_udc::orbital::radiation::{RadiationRegime, TidAssessment};
use space_udc::reliability::tid;
use space_udc::units::{Watts, Years};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let lifetime = Years::new(5.0);
    // The paper's CubeSat-heritage mitigation: 400 mil of aluminum drops the
    // LEO dose rate to ~0.2 krad/yr, putting even the GPUs' conservative
    // 2 krad lower qualification bound above the 5-year mission dose.
    println!("== TID survival, 5-year non-polar LEO, 400 mil Al shielding ==");
    for part in hardware::catalog() {
        let a = TidAssessment::try_assess(
            RadiationRegime::LeoNonPolar,
            400.0,
            lifetime,
            part.tid_tolerance,
        )?;
        println!(
            "  {:24} tolerance {:>7.2} krad  mission {:>5.2} krad  margin {:>6.1}x  {}",
            part.name,
            a.part_tolerance.value(),
            a.mission_dose.value(),
            a.margin,
            if a.survives_with_margin(1.0) {
                "OK"
            } else {
                "FAILS"
            },
        );
    }

    println!("\n== COTS TID tolerance trend with technology scaling ==");
    for r in tid::dataset() {
        println!(
            "  {:28} {:>5} nm  demonstrates {:>5.0} krad",
            r.name,
            r.node_nm,
            r.demonstrated_tolerance().value()
        );
    }

    println!("\n== TCO of redundancy schemes at 2 kW equivalent compute ==");
    let groups = reliability_cost::redundancy_tco(&[Watts::from_kilowatts(2.0)])?;
    for (scheme, tco) in &groups[0].rows {
        println!("  {:10} {:.3}x baseline TCO", scheme.to_string(), tco);
    }
    println!("\nConclusion: COTS + software hardening wins in LEO, as in the paper.");
    Ok(())
}
