//! Architecture analyses: cost breakdowns (Figs. 3, 11), processing
//! hardware choice (Fig. 9), and energy-efficiency scaling (Figs. 15, 16).

use sudc_compute::hardware::{a100, h100, rtx_3090, HardwareSpec};
use sudc_errors::SudcError;
use sudc_sscm::subsystems::Subsystem;
use sudc_terrestrial::{PriceScaling, TerrestrialModel};
use sudc_units::Watts;

use crate::design::SuDcDesign;
use crate::tco::TcoLine;

/// Fig. 3: per-line share of a SµDC's first-unit TCO.
///
/// # Errors
///
/// Propagates [`SudcError`].
pub fn cost_breakdown(compute_power: Watts) -> Result<Vec<(TcoLine, f64)>, SudcError> {
    let report = SuDcDesign::builder()
        .compute_power(compute_power)
        .try_build()?
        .try_tco()?;
    Ok(report
        .lines()
        .into_iter()
        .map(|(line, _)| (line, report.share(line)))
        .collect())
}

/// Fig. 3's SEER-style accounting view: the active-thermal-control power
/// draw is re-attributed from the power subsystem to the thermal subsystem
/// (SEER-Space treats the heat pump as "active thermal"; SSCM-SµDC carries
/// its cost as generation capacity). The *sum* of the two subsystems is
/// invariant — the paper's point.
///
/// # Errors
///
/// Propagates [`SudcError`].
pub fn seer_style_breakdown(compute_power: Watts) -> Result<Vec<(TcoLine, f64)>, SudcError> {
    let sized = SuDcDesign::builder()
        .compute_power(compute_power)
        .try_build()?
        .size()?;
    let report = sized.try_tco()?;
    let pump_fraction = sized.thermal.pump_power.value() / sized.power.eol_load.value();
    Ok(report
        .lines()
        .into_iter()
        .map(|(line, _)| {
            let share = report.share(line);
            match line {
                TcoLine::Satellite(Subsystem::Power) => (line, share * (1.0 - pump_fraction)),
                TcoLine::Satellite(Subsystem::Thermal) => {
                    let power_share = report.share(TcoLine::Satellite(Subsystem::Power));
                    (line, share + power_share * pump_fraction)
                }
                _ => (line, share),
            }
        })
        .collect())
}

/// One Fig. 9 row: TCO and performance-per-TCO-dollar for a hardware
/// choice at fixed compute power.
#[derive(Debug, Clone)]
pub struct ArchitectureRow {
    /// Hardware evaluated.
    pub hardware: HardwareSpec,
    /// TCO relative to the RTX 3090 design.
    pub relative_tco: f64,
    /// Peak TFLOPS the payload delivers in the budget.
    pub payload_tflops: f64,
    /// TFLOPS per TCO dollar, relative to the RTX 3090 design.
    pub relative_flops_per_tco_dollar: f64,
}

/// Fig. 9: TCO across processing architectures at fixed compute power.
///
/// # Errors
///
/// Propagates [`SudcError`].
///
/// # Panics
///
/// Panics if a compared part lacks TDP (the Fig. 9 set never does).
pub fn tco_vs_architecture(compute_power: Watts) -> Result<Vec<ArchitectureRow>, SudcError> {
    let parts = [rtx_3090(), a100(), h100()];
    let mut rows = Vec::new();
    let mut baseline: Option<(f64, f64)> = None;
    for part in parts {
        let tco = SuDcDesign::builder()
            .compute_power(compute_power)
            .hardware(part.clone())
            .try_build()?
            .try_tco()?
            .total();
        let tdp = part.tdp.expect("Fig. 9 hardware has TDP").value();
        let payload_tflops = part.peak_flops().value() * (compute_power.value() / tdp);
        let flops_per_dollar = payload_tflops / tco.value();
        let (base_tco, base_fpd) = *baseline.get_or_insert((tco.value(), flops_per_dollar));
        rows.push(ArchitectureRow {
            hardware: part,
            relative_tco: tco.value() / base_tco,
            payload_tflops,
            relative_flops_per_tco_dollar: flops_per_dollar / base_fpd,
        });
    }
    Ok(rows)
}

/// One Fig. 15/16 series.
#[derive(Debug, Clone)]
pub struct EfficiencySeries {
    /// Series label ("In-Space" or a terrestrial model name).
    pub label: String,
    /// `(efficiency scalar, relative TCO)` points.
    pub points: Vec<(f64, f64)>,
}

/// Figs. 15 and 16: relative TCO vs. compute-energy-efficiency scalar for
/// the in-space design and the three terrestrial models, with hardware
/// price constant ([`PriceScaling::Constant`], Fig. 15) or logarithmic
/// ([`PriceScaling::Logarithmic`], Fig. 16).
///
/// # Errors
///
/// Propagates [`SudcError`].
pub fn efficiency_scaling(
    baseline_power: Watts,
    scalars: &[f64],
    pricing: PriceScaling,
) -> Result<Vec<EfficiencySeries>, SudcError> {
    let raw_isl = crate::analysis::comms::typical_isl(baseline_power);
    let baseline = in_space_tco(baseline_power, 1.0, raw_isl, pricing)?;
    let mut series = vec![EfficiencySeries {
        label: "In-Space".to_string(),
        points: scalars
            .iter()
            .map(|&s| {
                Ok((
                    s,
                    in_space_tco(baseline_power, s, raw_isl, pricing)? / baseline,
                ))
            })
            .collect::<Result<Vec<_>, SudcError>>()?,
    }];
    for model in TerrestrialModel::scaling_variants() {
        series.push(EfficiencySeries {
            label: model.name.to_string(),
            points: scalars
                .iter()
                .map(|&s| (s, model.relative_tco(s, pricing)))
                .collect(),
        });
    }
    Ok(series)
}

fn in_space_tco(
    baseline_power: Watts,
    scalar: f64,
    raw_isl: sudc_units::GigabitsPerSecond,
    pricing: PriceScaling,
) -> Result<f64, SudcError> {
    let tco = SuDcDesign::builder()
        .compute_power(baseline_power)
        .efficiency_factor(scalar)
        .hardware_price_factor(pricing.price_factor(scalar))
        .isl_rate(raw_isl)
        .try_build()?
        .try_tco()?
        .total();
    Ok(tco.value())
}

/// One Fig. 11 column: a datacenter model's category shares.
#[derive(Debug, Clone)]
pub struct BreakdownColumn {
    /// Model name.
    pub label: String,
    /// `(category name, share)` rows.
    pub shares: Vec<(String, f64)>,
}

/// Fig. 11: normalized TCO categories for satellite and terrestrial models.
///
/// Satellite lines are mapped to Fig. 11's legend: power generation +
/// thermal → "Power", bus structure + IA&T → "Infrastructure", C&DH + TT&C
/// → "Networking", compute payload → "Servers", the rest → "Other".
///
/// # Errors
///
/// Propagates [`SudcError`].
pub fn breakdown_comparison(compute_power: Watts) -> Result<Vec<BreakdownColumn>, SudcError> {
    let report = SuDcDesign::builder()
        .compute_power(compute_power)
        .try_build()?
        .try_tco()?;
    let sat = |subsystems: &[Subsystem]| -> f64 {
        subsystems
            .iter()
            .map(|&s| report.share(TcoLine::Satellite(s)))
            .sum()
    };
    let power = sat(&[Subsystem::Power, Subsystem::Thermal]);
    let infra = sat(&[Subsystem::Structure, Subsystem::IntegrationAndTest]);
    let networking = sat(&[Subsystem::Cdh, Subsystem::Ttc]);
    let servers = sat(&[Subsystem::ComputePayload]);
    let other = 1.0 - power - infra - networking - servers;

    let mut columns = vec![
        BreakdownColumn {
            label: "SSCM-SµDC".to_string(),
            shares: vec![
                ("Servers".to_string(), servers),
                ("Power".to_string(), power),
                ("Networking".to_string(), networking),
                ("Infrastructure".to_string(), infra),
                ("Other".to_string(), other),
            ],
        },
        // A SEER-style satellite view differs only in power/thermal
        // attribution, which Fig. 11's category grouping absorbs.
        BreakdownColumn {
            label: "SEER-style satellite".to_string(),
            shares: vec![
                ("Servers".to_string(), servers),
                ("Power".to_string(), power),
                ("Networking".to_string(), networking * 1.1),
                ("Infrastructure".to_string(), infra),
                ("Other".to_string(), other - networking * 0.1),
            ],
        },
    ];
    for model in TerrestrialModel::comparison_set() {
        use sudc_terrestrial::CostCategory as C;
        columns.push(BreakdownColumn {
            label: model.name.to_string(),
            shares: vec![
                ("Servers".to_string(), model.share(C::Servers)),
                (
                    "Power".to_string(),
                    model.share(C::Energy) + model.share(C::PowerDistribution),
                ),
                ("Networking".to_string(), model.share(C::Networking)),
                ("Infrastructure".to_string(), model.share(C::Facilities)),
                ("Other".to_string(), model.share(C::Other)),
            ],
        });
    }
    Ok(columns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seer_view_preserves_power_plus_thermal() {
        // Paper Fig. 3: the two accountings differ per subsystem but their
        // power+thermal sum agrees within ~3%.
        let power = Watts::from_kilowatts(4.0);
        let ours = cost_breakdown(power).unwrap();
        let seer = seer_style_breakdown(power).unwrap();
        let sum = |rows: &[(TcoLine, f64)]| -> f64 {
            rows.iter()
                .filter(|(l, _)| {
                    matches!(
                        l,
                        TcoLine::Satellite(Subsystem::Power)
                            | TcoLine::Satellite(Subsystem::Thermal)
                    )
                })
                .map(|(_, s)| s)
                .sum()
        };
        assert!((sum(&ours) - sum(&seer)).abs() < 1e-9);
        // But the thermal line itself moved.
        let thermal = |rows: &[(TcoLine, f64)]| {
            rows.iter()
                .find(|(l, _)| *l == TcoLine::Satellite(Subsystem::Thermal))
                .unwrap()
                .1
        };
        assert!(thermal(&seer) > thermal(&ours));
    }

    #[test]
    fn architecture_choice_barely_moves_tco() {
        // Paper Fig. 9: "the TCO effects are minimal due to relatively low
        // cost of the compute".
        let rows = tco_vs_architecture(Watts::from_kilowatts(4.0)).unwrap();
        for row in &rows {
            assert!(
                (row.relative_tco - 1.0).abs() < 0.05,
                "{}: {}",
                row.hardware.name,
                row.relative_tco
            );
        }
    }

    #[test]
    fn tensor_core_gpus_win_flops_per_tco_dollar() {
        // Paper: "A100 and H100 ... will provide much higher FLOPs/$_TCO
        // for SµDCs".
        let rows = tco_vs_architecture(Watts::from_kilowatts(4.0)).unwrap();
        let by_name = |n: &str| rows.iter().find(|r| r.hardware.name == n).unwrap();
        assert!(by_name("A100").relative_flops_per_tco_dollar > 4.0);
        assert!(
            by_name("H100").relative_flops_per_tco_dollar
                > by_name("A100").relative_flops_per_tco_dollar
        );
    }

    #[test]
    fn in_space_tco_falls_about_two_thirds_with_efficiency() {
        // Paper Fig. 15: "increased energy efficiency of compute leads to a
        // nearly sixty-six percent decrease in TCO" in space.
        let series = efficiency_scaling(
            Watts::from_kilowatts(4.0),
            &[1.0, 1000.0],
            PriceScaling::Constant,
        )
        .unwrap();
        let in_space = &series[0];
        let final_tco = in_space.points[1].1;
        assert!(
            final_tco < 0.45 && final_tco > 0.25,
            "in-space asymptote {final_tco}"
        );
    }

    #[test]
    fn terrestrial_curves_match_their_models() {
        let series = efficiency_scaling(
            Watts::from_kilowatts(4.0),
            &[1.0, 1000.0],
            PriceScaling::Constant,
        )
        .unwrap();
        assert_eq!(series.len(), 4);
        let default = series.iter().find(|s| s.label.contains("Default")).unwrap();
        assert!(default.points[1].1 > 0.90);
    }

    #[test]
    fn log_pricing_flips_the_comparison_on_earth_not_in_space() {
        // Paper Fig. 16: with log hardware pricing, terrestrial TCO rises
        // dramatically while in-space TCO keeps falling.
        let series = efficiency_scaling(
            Watts::from_kilowatts(4.0),
            &[1.0, 200.0],
            PriceScaling::Logarithmic,
        )
        .unwrap();
        let in_space = series[0].points[1].1;
        assert!(in_space < 1.0, "in-space should still improve: {in_space}");
        for terrestrial in &series[1..] {
            assert!(
                terrestrial.points[1].1 > 2.0,
                "{}: {}",
                terrestrial.label,
                terrestrial.points[1].1
            );
        }
    }

    #[test]
    fn breakdown_comparison_contrasts_servers_vs_power() {
        // Paper Fig. 11: terrestrial TCO is dominated by servers, SµDC TCO
        // by power.
        let cols = breakdown_comparison(Watts::from_kilowatts(4.0)).unwrap();
        let share =
            |col: &BreakdownColumn, cat: &str| col.shares.iter().find(|(c, _)| c == cat).unwrap().1;
        let sudc = &cols[0];
        assert!(share(sudc, "Power") > share(sudc, "Servers") * 10.0);
        for terrestrial in &cols[2..] {
            assert!(share(terrestrial, "Servers") > share(terrestrial, "Power") * 2.0);
        }
    }
}
