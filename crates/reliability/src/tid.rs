//! Total-ionizing-dose tolerance vs. technology node (paper §VIII, Fig. 26).
//!
//! COTS TID tolerance has been *increasing* with technology scaling: thinner
//! gate oxides trap less charge. The dataset follows the radiation-test
//! reports the paper cites (NASA GSFC / REDW campaigns); parts reported
//! with "no failures" carry the highest dose actually tested.

use sudc_units::KradSi;

/// One radiation-test result for a commercial processor.
#[derive(Debug, Clone)]
pub struct TidRecord {
    /// Processor name.
    pub name: &'static str,
    /// Technology node, nm.
    pub node_nm: u32,
    /// Dose at failure, if the part failed during test.
    pub failure_dose: Option<KradSi>,
    /// Highest dose the campaign reached.
    pub tested_to: KradSi,
}

impl TidRecord {
    /// The dose the part is demonstrated to tolerate: the failure dose, or
    /// the full tested dose for parts that never failed.
    #[must_use]
    pub fn demonstrated_tolerance(&self) -> KradSi {
        self.failure_dose.unwrap_or(self.tested_to)
    }
}

/// The Fig. 26 dataset: COTS processors across three decades of scaling.
#[must_use]
pub fn dataset() -> Vec<TidRecord> {
    vec![
        TidRecord {
            name: "Intel 80386 (TRMM)",
            node_nm: 1000,
            failure_dose: Some(KradSi::new(9.0)),
            tested_to: KradSi::new(15.0),
        },
        TidRecord {
            name: "Intel 80486DX2-66",
            node_nm: 800,
            failure_dose: Some(KradSi::new(14.0)),
            tested_to: KradSi::new(20.0),
        },
        TidRecord {
            name: "Intel Pentium III",
            node_nm: 250,
            failure_dose: Some(KradSi::new(32.0)),
            tested_to: KradSi::new(50.0),
        },
        TidRecord {
            name: "AMD K7",
            node_nm: 180,
            failure_dose: Some(KradSi::new(38.0)),
            tested_to: KradSi::new(60.0),
        },
        TidRecord {
            name: "AMD Llano APU",
            node_nm: 32,
            failure_dose: None,
            tested_to: KradSi::new(100.0),
        },
        TidRecord {
            name: "Intel Broadwell (14 nm SoC)",
            node_nm: 14,
            failure_dose: None,
            tested_to: KradSi::new(200.0),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use sudc_orbital::radiation::{try_mission_dose, RadiationRegime};
    use sudc_units::Years;

    #[test]
    fn tolerance_improves_with_scaling() {
        // Fig. 26's trend: sort by node (descending = older first) and the
        // demonstrated tolerances must be nondecreasing.
        let mut records = dataset();
        records.sort_by_key(|r| core::cmp::Reverse(r.node_nm));
        for pair in records.windows(2) {
            assert!(
                pair[1].demonstrated_tolerance() >= pair[0].demonstrated_tolerance(),
                "{} -> {}",
                pair[0].name,
                pair[1].name
            );
        }
    }

    #[test]
    fn modern_nodes_tolerate_an_order_of_magnitude_beyond_leo_lifetime() {
        // Paper: "At 14 nm tech node, processors can tolerate an order of
        // magnitude more radiation than would be experienced during an LEO
        // satellite's lifetime."
        let lifetime_dose =
            try_mission_dose(RadiationRegime::LeoNonPolar, 200.0, Years::new(5.0)).unwrap();
        // The most advanced node in the dataset.
        let tolerance = dataset()
            .iter()
            .min_by_key(|r| r.node_nm)
            .unwrap()
            .demonstrated_tolerance();
        assert!(
            tolerance.value() >= 10.0 * lifetime_dose.value(),
            "tolerance {tolerance} vs mission {lifetime_dose}"
        );
    }

    #[test]
    fn no_failure_parts_report_tested_dose() {
        let llano = dataset()
            .into_iter()
            .find(|r| r.name.contains("Llano"))
            .unwrap();
        assert!(llano.failure_dose.is_none());
        assert_eq!(llano.demonstrated_tolerance(), llano.tested_to);
    }

    #[test]
    fn dataset_spans_three_decades_of_nodes() {
        let nodes: Vec<u32> = dataset().iter().map(|r| r.node_nm).collect();
        assert!(nodes.iter().any(|&n| n >= 800));
        assert!(nodes.iter().any(|&n| n <= 14));
    }
}
