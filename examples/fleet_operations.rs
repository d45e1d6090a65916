//! Fleet operations: pack the full concurrent application suite onto a
//! SµDC fleet, size the insight downlink, and project fleet availability
//! over the mission.
//!
//! ```text
//! cargo run --release --example fleet_operations
//! ```

use space_udc::comms::downlink::{InsightDownlink, InsightKind};
use space_udc::compute::workloads;
use space_udc::constellation::packing::pack_fleet;
use space_udc::constellation::EoConstellation;
use space_udc::reliability::availability::DEFAULT_MC_SEED;
use space_udc::reliability::mission::{try_simulate, MissionConfig, SparingPolicy};
use space_udc::units::Watts;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let constellation = EoConstellation::reference(64);
    let suite = workloads::suite();

    println!("== Packing the concurrent 10-application suite (4 kW SµDCs) ==");
    let packing = pack_fleet(&constellation, &suite, Watts::from_kilowatts(4.0));
    println!(
        "  fleet size: {} SµDCs at {:.0}% utilization",
        packing.sudcs,
        100.0 * packing.utilization()
    );
    for p in &packing.placements {
        println!(
            "  {:26} {:7.2} kW across SµDC(s) {:?}",
            p.workload,
            p.demand.as_kilowatts(),
            p.bins
        );
    }

    println!("\n== Insight downlink after in-space processing ==");
    let processed = constellation.pixel_rate();
    let products = [
        ("classification labels", InsightKind::Labels, 0.2),
        ("detections", InsightKind::Detections, 0.3),
        ("segmentation masks", InsightKind::Masks, 0.15),
    ];
    for (name, kind, fraction) in products {
        let d = InsightDownlink::new(kind, fraction);
        println!(
            "  {:24} {:9.4} Gbit/s  ({:>10.0}x less than raw)",
            name,
            d.required_rate(processed).value(),
            d.reduction_vs_raw()
        );
    }
    println!(
        "  (raw constellation output: {:.1} Gbit/s)",
        constellation.data_rate().value()
    );

    println!("\n== Fleet availability over a 5-year mission (cold spares) ==");
    for spares in [0u32, 5, 10, 20] {
        let outcome = try_simulate(
            MissionConfig {
                nodes: 10 + spares,
                required: 10,
                duration: 0.5, // 5 years at a 10-year server MTTF
                policy: SparingPolicy::Cold { dormant_aging: 0.1 },
            },
            20_000,
            DEFAULT_MC_SEED,
        )?;
        println!(
            "  {spares:>2} cold spares: P(full capability at EOL) = {:.3}, mean capacity {:.2}/10",
            outcome.full_capability_probability, outcome.mean_final_capacity
        );
    }
    Ok(())
}
