//! Near-zero-cost overprovisioning: quantify how cold spares improve SµDC
//! availability (analytic + Monte-Carlo) and what they cost.
//!
//! ```text
//! cargo run --example overprovisioning
//! ```

use space_udc::core::design::SuDcDesign;
use space_udc::reliability::availability::{NodePool, DEFAULT_MC_SEED};
use space_udc::units::Watts;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Ten powered servers; overprovision with 0/10/20 cold spares.
    println!("== Availability vs overprovisioning (10 powered servers) ==");
    println!(
        "{:>6} {:>14} {:>18} {:>14}",
        "n", "median degr.", "99% degradation", "MC check @1T"
    );
    for n in [10u32, 15, 20, 30] {
        let pool = NodePool::try_new(n, 10)?;
        let median = pool.median_degradation_time();
        let p99 = pool.try_time_to_availability(0.01)?;
        let mc = pool.try_simulate_availability(1.0, 50_000, DEFAULT_MC_SEED)?;
        let analytic = pool.try_availability(1.0)?;
        println!("{n:>6} {median:>12.2} T {p99:>16.2} T {mc:>7.3}~{analytic:<.3}");
    }

    // What do the spares cost? Nearly nothing: they draw no power, so only
    // hardware price and a little mass move.
    println!("\n== TCO impact of carrying 20 cold spares (4 kW SµDC) ==");
    let base = SuDcDesign::builder()
        .compute_power(Watts::from_kilowatts(4.0))
        .try_build()?
        .try_tco()?;
    let spared = SuDcDesign::builder()
        .compute_power(Watts::from_kilowatts(4.0))
        .spares(20)
        .try_build()?
        .try_tco()?;
    println!("  without spares : {:.2} $M", base.total().as_millions());
    println!("  with 20 spares : {:.2} $M", spared.total().as_millions());
    println!(
        "  overhead       : {:.2}% of TCO",
        100.0 * (spared.total() / base.total() - 1.0)
    );
    Ok(())
}
