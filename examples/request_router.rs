//! Online request placement: price a live tasking stream across the
//! four execution tiers — onboard flight computer, orbital SµDC,
//! ground-station edge, terrestrial cloud — watch the placement mix
//! invert as offered load outruns the orbit's capacity pools, and
//! replay the routed load through the operations simulator.
//!
//! ```text
//! cargo run --release --example request_router
//! ```

use space_udc::chaos::Campaign;
use space_udc::compute::workloads::suite;
use space_udc::router::{RoutedLoad, Router, RoutingOutcome, StreamConfig, Tier};
use space_udc::sim::DEFAULT_SEED;
use space_udc::units::Seconds;

/// Reference EO capture rate of the 64-satellite fleet, requests/s.
const REFERENCE_ARRIVAL: f64 = 3.83;

fn print_mix(label: &str, out: &RoutingOutcome) {
    let s = &out.stats;
    let pct = |n: u64| 100.0 * n as f64 / s.requests as f64;
    println!("== {label} ==");
    println!(
        "  {} requests: {:.1}% placed, {:.1}% deferred, {:.1}% rejected, {:.1}% shed",
        s.requests,
        pct(s.placed),
        pct(s.deferred),
        pct(s.rejected),
        pct(s.shed)
    );
    for t in Tier::ALL {
        println!(
            "    {:>12}: {:>7} placed",
            t.name(),
            s.tier_counts[t.index()]
        );
    }
    println!(
        "  mean capture-to-insight latency {:.1} s, mean cost ${:.3}/request\n",
        s.mean_latency_s(),
        s.mean_cost_usd()
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let router = Router::reference();

    // What each tier charges per Gbit for the first workload: the SµDC's
    // amortized TCO-per-insight is the number to beat.
    let app = 0usize;
    println!(
        "Tier pricing for \"{}\" ($/Gbit of payload):",
        suite()[app].name
    );
    for t in Tier::ALL {
        let terms = &router.config().terms[app][t.index()];
        println!("  {:>12}: {:.3}", t.name(), terms.per_gbit_usd);
    }
    println!();

    // At the reference capture rate the SµDC wins nearly everything.
    let nominal = StreamConfig::new(200_000, DEFAULT_SEED, REFERENCE_ARRIVAL);
    let routed = router.route_stream(&nominal);
    print_mix("reference load (1x)", &routed);

    // At 10,000x the SµDC ingest and ground drain saturate: small
    // payloads overflow to the capturing satellites' flight computers
    // and the rest is rejected.
    let stressed = StreamConfig::new(200_000, DEFAULT_SEED, REFERENCE_ARRIVAL * 1e4);
    print_mix("stressed load (10000x)", &router.route_stream(&stressed));

    // Close the loop: the accepted placements become the simulator's
    // edge-filtering split, nominal and under a solar-storm campaign.
    let duration = Seconds::new(1800.0);
    let load = RoutedLoad::from_outcome(&routed);
    println!(
        "Replaying the 1x placements through sudc-sim ({:.0} s, SµDC share {:.0}%):",
        duration.value(),
        100.0 * load.sudc_share
    );
    let storm = Campaign::solar_storm(duration);
    for report in [
        load.try_replay(duration, 2, DEFAULT_SEED, None)?,
        load.try_replay(duration, 2, DEFAULT_SEED, Some(&storm))?,
    ] {
        println!(
            "  {:>12}: {:.1}% of insights inside the {:.0} s SLO, \
             availability {:.1}%, delivery p99 {:.0} s",
            report.campaign,
            100.0 * report.slo_attainment,
            report.slo_deadline_s,
            100.0 * report.mean_availability,
            report.mean_delivery_p99_s
        );
    }
    Ok(())
}
