//! Constellation operations simulation: play the paper's reference
//! scenario forward in time with the discrete-event simulator and watch
//! what the steady-state models cannot show — latency percentiles under
//! bursty imaging, backlog across downlink outages, and cold-spare
//! availability.
//!
//! ```text
//! cargo run --release --example constellation_sim
//! ```

use space_udc::reliability::availability::NodePool;
use space_udc::sim::{SimConfig, SimSummary, DEFAULT_SEED};
use space_udc::units::Seconds;

fn print_ops(name: &str, study: &SimSummary) {
    let trace = &study.traces()[0];
    println!("== {name} ==");
    println!(
        "  images: {} captured, {} filtered at the edge, {} processed, {} delivered",
        trace.captured, trace.filtered_out, trace.processed, trace.delivered
    );
    let proc = trace.processing_latency();
    let deliver = trace.delivery_latency();
    println!(
        "  processing latency: p50 {:.1} s, p95 {:.1} s, p99 {:.1} s",
        proc.p50, proc.p95, proc.p99
    );
    println!(
        "  delivery latency:   p50 {:.0} s, p99 {:.0} s (contact-window dominated)",
        deliver.p50, deliver.p99
    );
    println!(
        "  compute: {:.0}% utilized, mean dispatch queue {:.1} images (peak {})",
        100.0 * study.mean_utilization,
        study.mean_batch_queue,
        trace.max_batch_queue()
    );
    println!(
        "  downlink backlog: mean {:.0} insights (peak {}), {:.0} insights/h delivered\n",
        study.outcome.mean_downlink_backlog,
        trace.max_downlink_backlog(),
        study.outcome.delivered_per_hour
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let duration = Seconds::new(4.0 * 3600.0);
    let reps = 3;

    println!("Simulating 4 h of 64-satellite EO operations ({reps} replications)...\n");
    let baseline = SimSummary::try_study(
        &SimConfig::reference_operations(duration),
        reps,
        DEFAULT_SEED,
    )?;
    let collab = SimSummary::try_study(
        &SimConfig::collaborative_operations(duration),
        reps,
        DEFAULT_SEED,
    )?;
    print_ops("Baseline (no edge filtering)", &baseline);
    print_ops("Collaborative constellation (cloud filtering)", &collab);
    println!(
        "Filtering cuts the p99 processing latency {:.1}x and the mean dispatch queue {:.0}x.\n",
        baseline.processing.p99 / collab.processing.p99,
        baseline.mean_batch_queue / collab.mean_batch_queue
    );

    println!("== Cold-spare mission availability (20 nodes / 10 required, 1 MTTF) ==");
    let mission = SimSummary::try_study(
        &SimConfig::try_cold_spare_mission(20, 10, 0.1, 1.0)?,
        100,
        DEFAULT_SEED,
    )?;
    let analytic_hot = NodePool::try_new(20, 10)?.try_availability(1.0)?;
    println!(
        "  end-state full capability: {:.1}% simulated (cold spares, 10% dormant aging)",
        100.0 * mission.outcome.end_full_fraction
    );
    println!(
        "  analytic hot-pool bound:   {:.1}% (all 20 powered from day one)",
        100.0 * analytic_hot
    );
    println!(
        "  mean failures per mission: {:.1}, promotions: {:.1}",
        mission
            .traces()
            .iter()
            .map(|t| t.failures as f64)
            .sum::<f64>()
            / mission.traces().len() as f64,
        mission
            .traces()
            .iter()
            .map(|t| t.promotions as f64)
            .sum::<f64>()
            / mission.traces().len() as f64,
    );
    Ok(())
}
