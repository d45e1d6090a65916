//! Figure 17: accelerator design-space exploration results, plus the
//! mapping-search diagnostics extension (`dse`).

use sudc_accel::dse::{run_full_dse, SystemArchitecture};
use sudc_router::{RouterConfig, Tier, APPS};

use crate::format::table;

/// Fig. 17: energy-efficiency improvements of accelerator architectures
/// over the commodity GPU baseline, from the full 7 168-design sweep.
#[must_use]
pub fn fig17() -> String {
    let outcome = run_full_dse();
    let mut rows: Vec<Vec<String>> = outcome
        .networks
        .iter()
        .map(|n| {
            vec![
                n.network.to_string(),
                format!(
                    "{:.1}",
                    n.improvement(SystemArchitecture::GlobalAccelerator)
                ),
                format!(
                    "{:.1}",
                    n.improvement(SystemArchitecture::PerNetworkAccelerator)
                ),
                format!(
                    "{:.1}",
                    n.improvement(SystemArchitecture::PerLayerAccelerator)
                ),
            ]
        })
        .collect();
    rows.push(vec![
        "MEAN".to_string(),
        format!(
            "{:.1}",
            outcome.mean_improvement(SystemArchitecture::GlobalAccelerator)
        ),
        format!(
            "{:.1}",
            outcome.mean_improvement(SystemArchitecture::PerNetworkAccelerator)
        ),
        format!(
            "{:.1}",
            outcome.mean_improvement(SystemArchitecture::PerLayerAccelerator)
        ),
    ]);
    format!(
        "Fig. 17: energy-efficiency improvement over RTX 3090 ({} designs; global best: {})\n{}",
        outcome.designs_evaluated,
        outcome.global_best,
        table(&["network", "global", "per-network", "per-layer"], &rows)
    )
}

/// Extension: mapping-search diagnostics for the full sweep — search-space
/// accounting, memoization effectiveness, per-layer engine winners, and
/// what the measured per-application improvements do to the router's
/// orbital pricing.
#[must_use]
pub fn ext_dse() -> String {
    let outcome = run_full_dse();

    let mut out = String::new();
    let s = &outcome.stats;
    out.push_str(&format!(
        "Per-layer mapping search over {} designs x {} engines (global best: {} [{}])\n",
        outcome.designs_evaluated,
        outcome.engines_evaluated,
        outcome.global_best,
        outcome.global_engine
    ));
    out.push_str(&format!(
        "  schedules: {} candidates costed, each exactly once\n",
        s.schedules_evaluated
    ));
    out.push_str(&format!(
        "  layer memo: {} shape searches, {} memo hits (memo hit rate {:.1}%), {} unique shapes / {} layers\n",
        s.shape_searches,
        s.memo_hits,
        100.0 * s.memo_hit_rate(),
        s.unique_shapes,
        s.total_layers
    ));

    let mut engine_counts = std::collections::BTreeMap::new();
    for n in &outcome.networks {
        for w in &n.per_layer_winners {
            *engine_counts.entry(w.engine.to_string()).or_insert(0u32) += 1;
        }
    }
    out.push_str("  per-layer engine winners:");
    for (engine, count) in &engine_counts {
        out.push_str(&format!(" {engine}={count}"));
    }
    out.push('\n');
    out.push_str(&format!(
        "  mean improvement over GPU: global {:.1}x, per-network {:.1}x, per-layer {:.1}x (per-layer/global {:.2}x)\n",
        outcome.mean_improvement(SystemArchitecture::GlobalAccelerator),
        outcome.mean_improvement(SystemArchitecture::PerNetworkAccelerator),
        outcome.mean_improvement(SystemArchitecture::PerLayerAccelerator),
        outcome.mean_improvement(SystemArchitecture::PerLayerAccelerator)
            / outcome.mean_improvement(SystemArchitecture::GlobalAccelerator)
    ));

    // Feed the measured per-application improvements back into the router's
    // orbital pricing: per-network accelerators at a 3x hardware premium.
    let mut improvement = [0.0_f64; APPS];
    for (slot, n) in improvement.iter_mut().zip(&outcome.networks) {
        *slot = n.improvement(SystemArchitecture::PerNetworkAccelerator);
    }
    let premium = 3.0;
    let reference = RouterConfig::try_reference().expect("reference scenario must price");
    let repriced = reference
        .clone()
        .try_with_accelerator_repricing(&improvement, premium)
        .expect("measured improvements must reprice");
    let orbital = Tier::OrbitalSudc.index();
    let rows: Vec<Vec<String>> = outcome
        .networks
        .iter()
        .enumerate()
        .map(|(a, n)| {
            vec![
                n.network.to_string(),
                format!("{:.1}", improvement[a]),
                format!("{:.4}", reference.terms[a][orbital].per_gbit_usd),
                format!("{:.4}", repriced.terms[a][orbital].per_gbit_usd),
            ]
        })
        .collect();
    out.push_str(&format!(
        "Router orbital re-pricing with per-network accelerators ({premium}x hardware premium):\n{}",
        table(
            &[
                "network",
                "improvement",
                "orbital $/Gbit (GPU)",
                "orbital $/Gbit (accel)"
            ],
            &rows
        )
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig17_reports_mean_and_design_count() {
        let f = fig17();
        assert!(f.contains("MEAN"));
        assert!(f.contains("7168"));
    }

    #[test]
    fn dse_extension_reports_search_diagnostics_and_repricing() {
        let e = ext_dse();
        assert!(e.contains("candidates costed"));
        assert!(e.contains("memo hit rate"));
        assert!(e.contains("orbital $/Gbit"));
    }
}
