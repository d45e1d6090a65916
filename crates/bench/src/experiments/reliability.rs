//! Figures 12, 24–28: thermal trade and reliability analyses.

use sudc_core::analysis::reliability_cost;
use sudc_reliability::availability::NodePool;
use sudc_reliability::softerror;
use sudc_reliability::tid;
use sudc_thermal::Radiator;
use sudc_units::{Kelvin, Watts};

use crate::format::{ratio, table};

/// Fig. 12: radiator area vs. temperature for 0.5/4/10 kW heat loads.
#[must_use]
pub fn fig12() -> String {
    let temps_c = [-10.0, 0.0, 10.0, 20.0, 30.0, 45.0, 60.0, 80.0, 100.0];
    let loads = [
        Watts::new(500.0),
        Watts::from_kilowatts(4.0),
        Watts::from_kilowatts(10.0),
    ];
    let rows: Vec<Vec<String>> = temps_c
        .iter()
        .map(|&c| {
            let t = Kelvin::from_celsius(c);
            let mut row = vec![format!("{c}")];
            for &load in &loads {
                row.push(format!("{:.2}", Radiator::required_area(load, t).value()));
            }
            row
        })
        .collect();
    format!(
        "Fig. 12: radiator area (m^2) vs temperature (double-sided, e=0.86)\n{}",
        table(&["temp (C)", "500 W", "4 kW", "10 kW"], &rows)
    )
}

/// A pool of `n` installed servers of which the paper's 10 are required.
fn pool(n: u32) -> NodePool {
    NodePool::try_new(n, 10).expect("every pool installs at least the 10 required servers")
}

/// Fig. 24: probability that at least 10 servers work vs. time, for
/// overprovisioning levels n = 10/15/20/30.
#[must_use]
pub fn fig24() -> String {
    let times = [0.0, 0.1, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0];
    let pools = [10u32, 15, 20, 30];
    let rows: Vec<Vec<String>> = times
        .iter()
        .map(|&t| {
            let mut row = vec![format!("{t}")];
            for &n in &pools {
                row.push(ratio(
                    pool(n)
                        .try_availability(t)
                        .expect("sample times are non-negative"),
                ));
            }
            row
        })
        .collect();
    let mut report = format!(
        "Fig. 24: P(at least 10 of n servers alive) vs time (units of MTTF)\n{}",
        table(&["t/T", "n=10", "n=15", "n=20", "n=30"], &rows)
    );
    report.push_str("\n99%-degradation times: ");
    for &n in &pools {
        report.push_str(&format!(
            "n={n}: {:.2}T  ",
            pool(n)
                .try_time_to_availability(0.01)
                .expect("0.01 lies inside (0, 1)")
        ));
    }
    report.push('\n');
    report
}

/// Fig. 25: expected number of usable servers (capped at 10) vs. time.
#[must_use]
pub fn fig25() -> String {
    let times = [0.0, 0.1, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0];
    let pools = [10u32, 15, 20, 30];
    let rows: Vec<Vec<String>> = times
        .iter()
        .map(|&t| {
            let mut row = vec![format!("{t}")];
            for &n in &pools {
                let capacity = pool(n)
                    .try_expected_capacity(t)
                    .expect("sample times are non-negative");
                row.push(format!("{capacity:.2}"));
            }
            row
        })
        .collect();
    format!(
        "Fig. 25: E[min(10, working servers)] vs time (units of MTTF)\n{}",
        table(&["t/T", "n=10", "n=15", "n=20", "n=30"], &rows)
    )
}

/// Fig. 26: COTS TID tolerance vs. technology node.
#[must_use]
pub fn fig26() -> String {
    let rows: Vec<Vec<String>> = tid::dataset()
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                format!("{}", r.node_nm),
                r.failure_dose
                    .map_or("no failure".into(), |d| format!("{}", d.value())),
                format!("{}", r.tested_to.value()),
            ]
        })
        .collect();
    format!(
        "Fig. 26: total ionizing dose before failure vs technology node\n{}",
        table(
            &[
                "processor",
                "node (nm)",
                "failure (krad)",
                "tested to (krad)"
            ],
            &rows
        )
    )
}

/// Fig. 27: soft-error impact on ImageNet classifiers (pessimistic bound).
#[must_use]
pub fn fig27() -> String {
    let fault_rates = [0.0, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8];
    let suite = softerror::imagenet_suite();
    let mut headers = vec!["fault rate".to_string()];
    for m in &suite {
        headers.push(m.network.to_string());
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = fault_rates
        .iter()
        .map(|&eps| {
            let mut row = vec![format!("{eps:.0e}")];
            for m in &suite {
                row.push(format!(
                    "{:.3}",
                    m.try_accuracy_under_faults(eps)
                        .expect("fault rates are probabilities")
                ));
            }
            row
        })
        .collect();
    format!(
        "Fig. 27: ImageNet top-1 accuracy vs per-bit fault rate (pessimistic)\n{}",
        table(&header_refs, &rows)
    )
}

/// Fig. 28: relative TCO of redundancy schemes at 0.5–4 kW equivalent power.
#[must_use]
pub fn fig28() -> String {
    let equivalents = [
        Watts::new(500.0),
        Watts::from_kilowatts(1.0),
        Watts::from_kilowatts(2.0),
        Watts::from_kilowatts(4.0),
    ];
    let groups = reliability_cost::redundancy_tco(&equivalents).expect("sweep is valid");
    let rows: Vec<Vec<String>> = groups
        .iter()
        .map(|g| {
            let mut row = vec![format!("{} kW", g.equivalent_power.as_kilowatts())];
            for (_, tco) in &g.rows {
                row.push(ratio(*tco));
            }
            row
        })
        .collect();
    let scheme_names: Vec<String> = groups[0].rows.iter().map(|(s, _)| s.to_string()).collect();
    let mut headers = vec!["equivalent".to_string()];
    headers.extend(scheme_names);
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    format!(
        "Fig. 28: relative TCO by redundancy scheme\n{}",
        table(&header_refs, &rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig12_reports_four_square_meters_for_4kw_at_45c() {
        let f = fig12();
        let line45 = f
            .lines()
            .find(|l| l.trim_start().starts_with("45"))
            .unwrap();
        assert!(line45.contains("4.0"), "{line45}");
    }

    #[test]
    fn fig24_reports_99_percent_times() {
        let f = fig24();
        assert!(f.contains("99%-degradation times"));
        assert!(f.contains("n=30"));
    }

    #[test]
    fn fig25_starts_at_full_capacity() {
        let f = fig25();
        let first = f.lines().nth(3).unwrap();
        assert!(first.contains("10.00"), "{first}");
    }

    #[test]
    fn fig26_contains_modern_nodes() {
        assert!(fig26().contains("14"));
    }

    #[test]
    fn fig27_has_all_classifiers() {
        let f = fig27();
        assert!(f.contains("ResNet-50") && f.contains("VGG-16"));
    }

    #[test]
    fn fig28_lists_schemes() {
        let f = fig28();
        for s in ["none", "software", "DMR", "TMR"] {
            assert!(f.contains(s), "missing {s}");
        }
    }
}
