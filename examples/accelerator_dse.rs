//! Extreme heterogeneity: run the full 7 168-point accelerator design-space
//! exploration and translate the energy-efficiency gains into SµDC TCO.
//!
//! ```text
//! cargo run --release --example accelerator_dse
//! ```

use space_udc::accel::dse::{run_full_dse, SystemArchitecture};
use space_udc::core::design::SuDcDesign;
use space_udc::units::Watts;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Sweeping the row-stationary accelerator design space...");
    let outcome = run_full_dse();
    println!(
        "  evaluated {} designs; global optimum: {}",
        outcome.designs_evaluated, outcome.global_best
    );

    println!("\n== Energy-efficiency improvement over RTX 3090 (geomean) ==");
    let archs = [
        SystemArchitecture::GlobalAccelerator,
        SystemArchitecture::PerNetworkAccelerator,
        SystemArchitecture::PerLayerAccelerator,
    ];
    for arch in archs {
        println!(
            "  {:26} {:6.1}x",
            arch.to_string(),
            outcome.mean_improvement(arch)
        );
    }

    println!("\n== Per-network best accelerators ==");
    for n in &outcome.networks {
        println!(
            "  {:18} {}  ({:5.1}x over GPU)",
            n.network.to_string(),
            n.best_config,
            n.improvement(SystemArchitecture::PerNetworkAccelerator)
        );
    }

    // Fold the efficiency gains back into the TCO model: an accelerator
    // payload delivers the same work at baseline_power / factor.
    println!("\n== TCO of a 4 kW-equivalent SµDC by payload architecture ==");
    // ISL sized for a representative application mix (the worst-case
    // lightest-app link would dominate once compute power shrinks).
    let four_kw = Watts::from_kilowatts(4.0);
    let gpu_tco = SuDcDesign::builder()
        .compute_power(four_kw)
        .isl_typical()
        .try_build()?
        .try_tco()?;
    println!(
        "  Commodity GPU            : {:.1} $M",
        gpu_tco.total().as_millions()
    );
    for arch in archs {
        let factor = outcome.mean_improvement(arch);
        // Accelerators trade FLOPs/$ for FLOPs/W: assume 3x pricier silicon.
        let tco = SuDcDesign::builder()
            .compute_power(four_kw)
            .efficiency_factor(factor)
            .hardware_price_factor(3.0)
            .isl_typical()
            .try_build()?
            .try_tco()?;
        println!(
            "  {:25}: {:.1} $M  ({:.0}% reduction)",
            arch.to_string(),
            tco.total().as_millions(),
            100.0 * (1.0 - tco.total() / gpu_tco.total())
        );
    }
    Ok(())
}
