//! Extension experiments beyond the paper's figures: the latency
//! motivation quantified, cold-vs-hot sparing, cost-driver sensitivity,
//! and design-choice ablations.

use sudc_accel::dse::{run_dse, SystemArchitecture};
use sudc_accel::energy::EnergyTable;
use sudc_compute::precision::Precision;
use sudc_core::analysis::{ablation, latency};
use sudc_core::scenario::Scenario;
use sudc_reliability::availability::DEFAULT_MC_SEED;
use sudc_reliability::mission::{try_simulate, MissionConfig, SparingPolicy};
use sudc_sscm::sensitivity::try_tornado;
use sudc_sscm::subsystems::SubsystemCers;
use sudc_units::{Kelvin, Watts};

use crate::format::{percent, ratio, table};

/// Ext. A: bent-pipe vs. in-space processing latency for the Table III
/// suite (the paper's §I latency motivation, quantified).
#[must_use]
pub fn ext_latency() -> String {
    let rows: Vec<Vec<String>> = latency::latency_table(3)
        .expect("the reference imager has a positive frame rate")
        .into_iter()
        .map(|cmp| {
            vec![
                cmp.workload.to_string(),
                cmp.bent_pipe.map_or("deficit (unbounded)".into(), |l| {
                    format!("{:.1} h", l.value() / 3600.0)
                }),
                format!("{:.1} min", cmp.in_space.value() / 60.0),
                cmp.speedup().map_or("inf".into(), |s| format!("{s:.0}x")),
            ]
        })
        .collect();
    format!(
        "Ext. A: bent-pipe vs in-space latency (3-station ground network)\n{}",
        table(&["application", "bent pipe", "in space", "speedup"], &rows)
    )
}

/// Ext. B: cold vs. hot sparing (Monte-Carlo mission simulation).
#[must_use]
pub fn ext_sparing() -> String {
    let mut rows = Vec::new();
    for n in [15u32, 20, 30] {
        for (name, policy) in [
            ("hot", SparingPolicy::Hot),
            (
                "cold (10% aging)",
                SparingPolicy::Cold { dormant_aging: 0.1 },
            ),
        ] {
            let outcome = try_simulate(
                MissionConfig {
                    nodes: n,
                    required: 10,
                    duration: 1.0,
                    policy,
                },
                20_000,
                DEFAULT_MC_SEED,
            )
            .expect("every mission installs the 10 required nodes");
            rows.push(vec![
                format!("{n}"),
                name.to_string(),
                ratio(outcome.full_capability_probability),
                ratio(outcome.mean_full_capability_time),
            ]);
        }
    }
    format!(
        "Ext. B: sparing policy vs availability at t = 1 MTTF (10 powered nodes)\n{}",
        table(
            &[
                "nodes",
                "policy",
                "P(full capability)",
                "mean full-capability time"
            ],
            &rows
        )
    )
}

/// Ext. C: tornado sensitivity of the cost model's drivers (±30 %).
#[must_use]
pub fn ext_tornado() -> String {
    let sized = Scenario::Reference
        .try_design()
        .expect("reference scenario is valid")
        .size()
        .expect("reference scenario sizes");
    let bars = try_tornado(&SubsystemCers::sudc_default(), &sized.sscm_inputs(), 0.3)
        .expect("every ±30% perturbation of the reference inputs is valid");
    let rows: Vec<Vec<String>> = bars
        .iter()
        .map(|b| {
            vec![
                b.driver.to_string(),
                format!("{:.1}", b.low.as_millions()),
                format!("{:.1}", b.high.as_millions()),
                percent(b.relative_swing),
            ]
        })
        .collect();
    format!(
        "Ext. C: cost-driver sensitivity, 4 kW SµDC, ±30% perturbation\n{}",
        table(&["driver", "low ($M)", "high ($M)", "swing"], &rows)
    )
}

/// Ext. D: design-choice ablations (radiator setpoint, launch pricing,
/// FSO efficiency).
#[must_use]
pub fn ext_ablation() -> String {
    let mut out = String::from("Ext. D: design-choice ablations (4 kW SµDC)\n\n");

    let setpoints: Vec<Kelvin> = [15.0, 30.0, 45.0, 60.0, 80.0]
        .iter()
        .map(|&c| Kelvin::from_celsius(c))
        .collect();
    let sweep = ablation::radiator_setpoint_sweep(Watts::from_kilowatts(4.0), &setpoints);
    let rows: Vec<Vec<String>> = sweep
        .iter()
        .map(|p| {
            vec![
                format!("{:.0}", p.temperature.as_celsius()),
                format!("{:.2}", p.radiator_area_m2),
                format!("{:.0}", p.pump_power.value()),
                format!("{:.0}", p.eol_load.value()),
            ]
        })
        .collect();
    out.push_str(&table(
        &["setpoint (C)", "radiator (m^2)", "pump (W)", "EOL load (W)"],
        &rows,
    ));

    out.push('\n');
    let launch = ablation::launch_pricing_ablation(Watts::from_kilowatts(4.0))
        .expect("4 kW design is valid");
    let rows: Vec<Vec<String>> = launch
        .iter()
        .map(|(name, tco)| vec![(*name).to_string(), format!("{:.1}", tco.as_millions())])
        .collect();
    out.push_str(&table(&["launch era", "TCO ($M)"], &rows));

    out.push('\n');
    let fso = ablation::fso_efficiency_ablation(Watts::from_kilowatts(4.0), &[1.0, 2.0, 5.0, 10.0])
        .expect("4 kW design is valid");
    let rows: Vec<Vec<String>> = fso
        .iter()
        .map(|(s, tco)| vec![format!("{s}x"), ratio(*tco)])
        .collect();
    out.push_str(&table(&["FSO efficiency", "relative TCO"], &rows));
    out
}

/// Ext. E: the accelerator DSE swept across numeric precisions — how much
/// of the heterogeneity story is really a precision story.
#[must_use]
pub fn ext_precision() -> String {
    // A reduced (1/8) design space keeps the 4-precision sweep fast while
    // preserving the selection behaviour.
    let space: Vec<_> = sudc_accel::design::design_space()
        .into_iter()
        .step_by(8)
        .collect();
    let rows: Vec<Vec<String>> = Precision::all()
        .into_iter()
        .map(|precision| {
            let table = EnergyTable::default().for_precision(precision);
            let outcome = run_dse(&space, &table);
            vec![
                precision.to_string(),
                format!(
                    "{:.1}",
                    outcome.mean_improvement(SystemArchitecture::GlobalAccelerator)
                ),
                format!(
                    "{:.1}",
                    outcome.mean_improvement(SystemArchitecture::PerLayerAccelerator)
                ),
                format!("{:.4}", precision.accuracy_retention()),
            ]
        })
        .collect();
    format!(
        "Ext. E: DSE energy-efficiency gain vs numeric precision ({} designs)
{}",
        space.len(),
        table(
            &[
                "precision",
                "global gain",
                "per-layer gain",
                "accuracy retention"
            ],
            &rows
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_extension_reports_speedups() {
        let e = ext_latency();
        assert!(e.contains("in space"));
        assert!(e.contains('x') || e.contains("inf"));
    }

    #[test]
    fn sparing_extension_covers_both_policies() {
        let e = ext_sparing();
        assert!(e.contains("hot") && e.contains("cold"));
    }

    #[test]
    fn tornado_extension_ranks_drivers() {
        let e = ext_tornado();
        assert!(e.contains("BOL power"));
        assert!(e.contains("compute hardware"));
    }

    #[test]
    fn precision_extension_orders_gains() {
        let e = ext_precision();
        assert!(e.contains("INT8") && e.contains("FP32"));
    }

    #[test]
    fn ablation_extension_has_three_tables() {
        let e = ext_ablation();
        assert!(e.contains("setpoint"));
        assert!(e.contains("launch era"));
        assert!(e.contains("FSO efficiency"));
    }
}
