//! JSON fidelity regressions: no experiment export may contain `null`.
//!
//! `Json::Num` renders non-finite values as `null`, so a `null` anywhere in
//! an exported document means a NaN/∞ leaked through the model — exactly
//! the class of bug the structured-error layer exists to catch. These tests
//! cover the export surfaces the `figures` experiments write: simulation
//! summaries (including short runs whose latency populations can be empty)
//! and the per-scenario design/TCO documents.

use space_udc::par::json::ToJson;
use space_udc::sim::{SimConfig, SimSummary, DEFAULT_SEED};
use space_udc::{core::Scenario, units::Seconds};

fn assert_no_null(doc: &str, what: &str) {
    assert!(
        !doc.contains("null"),
        "{what} contains a null (a NaN/∞ leaked into the export):\n{doc}"
    );
}

#[test]
fn short_run_sim_summary_has_no_nulls() {
    // Short enough that replications can finish with empty latency
    // populations — the case the p99 aggregation must not poison.
    let cfg = SimConfig::reference_operations(Seconds::new(120.0));
    let summary = SimSummary::try_study(&cfg, 2, DEFAULT_SEED).unwrap();
    assert_no_null(&summary.to_json().to_string_pretty(), "short sim summary");
}

#[test]
fn failure_study_sim_summary_has_no_nulls() {
    // Cold-spare missions run with the image pipeline off: every latency
    // population is empty by construction.
    let cfg = SimConfig::try_cold_spare_mission(8, 4, 0.1, 0.2).unwrap();
    let summary = SimSummary::try_study(&cfg, 3, DEFAULT_SEED).unwrap();
    let doc = summary.to_json().to_string_pretty();
    assert_no_null(&doc, "cold-spare sim summary");
    assert!((summary.processing.p99 - 0.0).abs() < f64::EPSILON);
}

#[test]
fn every_scenario_export_has_no_nulls() {
    for scenario in Scenario::all() {
        let design = scenario.try_design().expect("built-in scenario designs");
        let sized = design.size().expect("built-in scenario sizes");
        let tco = sized.try_tco().expect("built-in scenario costs");
        assert_no_null(
            &sized.to_json().to_string_pretty(),
            &format!("{scenario} sizing"),
        );
        assert_no_null(
            &tco.to_json().to_string_pretty(),
            &format!("{scenario} TCO report"),
        );
    }
}
