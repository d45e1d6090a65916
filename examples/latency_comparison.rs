//! Latency motivation: compare bent-pipe downlink processing against
//! in-space processing for every EO application, and price the batch
//! pipeline's latency/energy trade: the time to accumulate a batch
//! against the energy per image it buys.
//!
//! ```text
//! cargo run --example latency_comparison
//! ```

use space_udc::compute::gpu::GpuEnergyModel;
use space_udc::compute::workloads;
use space_udc::core::analysis::latency;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Bent-pipe vs in-space latency (3-station ground network) ==");
    for cmp in latency::latency_table(3)? {
        let bent = cmp.bent_pipe.map_or("downlink deficit".to_string(), |l| {
            format!("{:5.1} h", l.value() / 3600.0)
        });
        println!(
            "  {:26} bent-pipe {:18} in-space {:5.1} min  ({})",
            cmp.workload,
            bent,
            cmp.in_space.value() / 60.0,
            cmp.speedup()
                .map_or("bent pipe cannot keep up".into(), |s| format!(
                    "{s:.0}x faster"
                )),
        );
    }

    println!("\n== Batch size trade: Air Pollution at 6 images/min ==");
    let workload = workloads::by_name("Air Pollution").ok_or("unknown workload")?;
    let model = GpuEnergyModel::fit(&workload);
    let policies = [
        ("streaming (batch 1)", 1),
        (
            "energy-minimizing batch",
            model.energy_minimizing_batch(0.05),
        ),
    ];
    for (name, batch) in policies {
        let wait = GpuEnergyModel::batch_accumulation_time(batch, 6.0)?;
        println!(
            "  {:24} batch {:4}  accumulation {:6.1} min  energy/image {:6.2} J",
            name,
            batch,
            wait.value() / 60.0,
            model.energy_per_image(batch)?.value(),
        );
    }
    println!("\nBatching trades minutes of latency for a large energy saving —");
    println!("still orders of magnitude faster than waiting for a downlink window.");
    Ok(())
}
