//! Constellation planner: size the SµDC fleet for a 64-satellite EO
//! constellation across the paper's ten applications, then quantify the
//! collaborative-compute and distributed-fleet optimizations.
//!
//! ```text
//! cargo run --example constellation_planner
//! ```

use space_udc::compute::workloads;
use space_udc::constellation::{EdgeFiltering, EoConstellation};
use space_udc::core::analysis::fleet;
use space_udc::core::design::SuDcDesign;
use space_udc::units::Watts;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let constellation = EoConstellation::reference(64);
    let four_kw = Watts::from_kilowatts(4.0);

    println!("== SµDC demand for a 64-satellite EO constellation ==");
    println!(
        "  aggregate data rate: {:.1} Gbit/s",
        constellation.data_rate().value()
    );
    for w in workloads::suite() {
        let power = constellation.required_compute_power(&w);
        let count = constellation.required_sudcs(&w, four_kw);
        println!(
            "  {:26} needs {:6.2} kW  -> {} x 4 kW SµDC",
            w.name,
            power.as_kilowatts(),
            count
        );
    }

    // Collaborative compute: cloud filtering on the EO satellites discards
    // ~2/3 of frames before they cross the ISL.
    let filtering = EdgeFiltering::cloud_filtering();
    let baseline = SuDcDesign::builder()
        .compute_power(four_kw)
        .try_build()?
        .try_tco()?;
    let reduced = SuDcDesign::builder()
        .compute_power(filtering.reduced_compute(four_kw))
        .try_build()?
        .try_tco()?;
    println!("\n== Collaborative compute constellation (cloud filtering) ==");
    println!(
        "  baseline SµDC TCO : {:.1} $M",
        baseline.total().as_millions()
    );
    println!(
        "  filtered SµDC TCO : {:.1} $M",
        reduced.total().as_millions()
    );
    println!(
        "  improvement       : {:.2}x",
        baseline.total() / reduced.total()
    );

    // Distributed vs monolithic: reach 32 kW with k SµDCs under Wright's law.
    println!("\n== Distributed vs monolithic (32 kW target) ==");
    let series = fleet::distributed_tco(
        Watts::from_kilowatts(32.0),
        &[1, 2, 3, 4, 6, 8, 12, 16],
        &[0.65, 0.75, 0.85],
    )?;
    for s in &series {
        let best = s
            .points
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .expect("non-empty");
        println!(
            "  b = {:.2}: optimal fleet = {:2} SµDCs (relative TCO {:.3})",
            s.progress_ratio, s.optimal_satellites, best.1
        );
    }
    Ok(())
}
