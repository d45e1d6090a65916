//! Tables I–III.

use sudc_compute::{hardware, workloads};
use sudc_constellation::EoConstellation;
use sudc_core::design::SuDcDesign;
use sudc_units::Watts;

use crate::format::{self, table};

/// Table I: how each SSCM-SµDC input parameter is derived, shown with the
/// values our pipeline produces for a 4 kW SµDC.
#[must_use]
pub fn table1() -> String {
    let sized = SuDcDesign::builder()
        .compute_power(Watts::from_kilowatts(4.0))
        .try_build()
        .expect("4 kW design is valid")
        .size()
        .expect("4 kW design sizes");
    let inputs = sized.sscm_inputs();
    let rows = vec![
        vec![
            "Lifetime".into(),
            "mission requirement".into(),
            format!("{}", inputs.lifetime),
        ],
        vec![
            "BOL power".into(),
            "EOL load / (1-d)^L, eclipse oversizing".into(),
            format!("{:.0} W", inputs.bol_power.value()),
        ],
        vec![
            "Dry mass".into(),
            "fixed-point closure over subsystem masses".into(),
            format!("{:.0} kg", inputs.dry_mass.value()),
        ],
        vec![
            "Fuel mass".into(),
            "rocket equation over drag + deorbit dv".into(),
            format!("{:.1} kg", inputs.fuel_mass.value()),
        ],
        vec![
            "Structure mass".into(),
            "18% of dry mass".into(),
            format!("{:.0} kg", inputs.structure_mass.value()),
        ],
        vec![
            "Thermal mass".into(),
            "radiator area x areal mass + pump loop".into(),
            format!("{:.0} kg", inputs.thermal_mass.value()),
        ],
        vec![
            "Power mass".into(),
            "array + battery + distribution".into(),
            format!("{:.0} kg", inputs.power_mass.value()),
        ],
        vec![
            "C&DH rate driver".into(),
            "FSO rate / (FSO:X-band ratio)".into(),
            format!("{:.3} Gbit/s", inputs.rf_equivalent_rate.value()),
        ],
        vec![
            "Pointing".into(),
            "ADCS requirement".into(),
            format!("{} arcsec", inputs.pointing_arcsec),
        ],
        vec![
            "Compute hw cost".into(),
            "units x list price x packaging factor".into(),
            format::musd(inputs.compute_hardware_cost),
        ],
    ];
    format!(
        "Table I: SSCM-SuDC input derivations (4 kW reference design)\n{}",
        table(&["parameter", "derivation", "value"], &rows)
    )
}

/// Table II: the hardware catalog.
#[must_use]
pub fn table2() -> String {
    let rows: Vec<Vec<String>> = hardware::catalog()
        .into_iter()
        .map(|h| {
            vec![
                h.name.to_string(),
                format!("{}", h.tid_tolerance.value()),
                h.price
                    .map_or("N/A".into(), |p| format!("{:.0}", p.value())),
                h.tdp.map_or("N/A".into(), |t| format!("{:.0}", t.value())),
                format!("{}", h.fp32.value()),
                h.tf32.map_or("N/A".into(), |t| format!("{}", t.value())),
            ]
        })
        .collect();
    format!(
        "Table II: processing architectures\n{}",
        table(
            &[
                "System",
                "TID (krad(Si))",
                "Price ($)",
                "TDP (W)",
                "TFLOPs FP32",
                "TFLOPs TF32"
            ],
            &rows
        )
    )
}

/// Table III: application performance on the RTX 3090 plus the number of
/// 4 kW SµDCs needed for a 64-satellite EO constellation.
#[must_use]
pub fn table3() -> String {
    let constellation = EoConstellation::reference(64);
    let four_kw = Watts::from_kilowatts(4.0);
    let rows: Vec<Vec<String>> = workloads::suite()
        .iter()
        .map(|w| {
            vec![
                w.name.to_string(),
                format!("{:.0}", w.gpu_power.value()),
                format!("{:.0}", 100.0 * w.utilization),
                format!("{:.2}", w.inference_time.value()),
                format!("{:.0}", w.efficiency.value()),
                format!("{}", constellation.required_sudcs(w, four_kw)),
            ]
        })
        .collect();
    format!(
        "Table III: application performance on RTX 3090 (64-satellite constellation)\n{}",
        table(
            &[
                "App Name",
                "P(W)",
                "Util(%)",
                "Infer time (s)",
                "kpixel/J",
                "# SuDC"
            ],
            &rows
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_reports_all_drivers() {
        let t = table1();
        for key in [
            "BOL power",
            "Fuel mass",
            "C&DH rate driver",
            "Compute hw cost",
        ] {
            assert!(t.contains(key), "missing {key}");
        }
    }

    #[test]
    fn table2_matches_catalog() {
        let t = table2();
        assert!(t.contains("RTX 3090"));
        assert!(t.contains("Virtex-5QV"));
        assert!(t.contains("43989"));
    }

    #[test]
    fn table3_reproduces_sudc_column() {
        let t = table3();
        assert!(t.contains("Panoptic Segmentation"));
        let panoptic_line = t
            .lines()
            .find(|l| l.contains("Panoptic"))
            .expect("panoptic row");
        assert!(panoptic_line.trim_end().ends_with('4'));
    }
}
