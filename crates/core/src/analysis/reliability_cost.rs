//! Redundancy-scheme TCO comparison (paper §VIII, Fig. 28).

use sudc_errors::SudcError;
use sudc_reliability::RedundancyScheme;
use sudc_units::Watts;

use crate::design::SuDcDesign;

/// One Fig. 28 group: relative TCO of each scheme at one equivalent power.
#[derive(Debug, Clone)]
pub struct RedundancyGroup {
    /// Equivalent (protected) computing power.
    pub equivalent_power: Watts,
    /// `(scheme, TCO relative to the unprotected design at this power)`.
    pub rows: Vec<(RedundancyScheme, f64)>,
}

/// Fig. 28: relative TCO for TMR / DMR / software redundancy at several
/// equivalent computing powers.
///
/// # Errors
///
/// Propagates [`SudcError`].
pub fn redundancy_tco(equivalents: &[Watts]) -> Result<Vec<RedundancyGroup>, SudcError> {
    equivalents
        .iter()
        .map(|&power| {
            let baseline = SuDcDesign::builder()
                .compute_power(power)
                .try_build()?
                .try_tco()?
                .total();
            let rows = RedundancyScheme::all()
                .into_iter()
                .map(|scheme| {
                    let tco = SuDcDesign::builder()
                        .compute_power(power)
                        .redundancy(scheme)
                        .try_build()?
                        .try_tco()?
                        .total();
                    Ok((scheme, tco / baseline))
                })
                .collect::<Result<Vec<_>, SudcError>>()?;
            Ok(RedundancyGroup {
                equivalent_power: power,
                rows,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group_at(kw: f64) -> RedundancyGroup {
        redundancy_tco(&[Watts::from_kilowatts(kw)])
            .unwrap()
            .remove(0)
    }

    fn relative(group: &RedundancyGroup, scheme: RedundancyScheme) -> f64 {
        group
            .rows
            .iter()
            .find(|(s, _)| *s == scheme)
            .map(|(_, t)| *t)
            .unwrap()
    }

    #[test]
    fn hardware_redundancy_is_expensive() {
        // Paper: "impact of hardware redundancy-based solutions on SµDC TCO
        // can be high (again due to the impact also on power generation and
        // thermal subsystems)".
        let g = group_at(2.0);
        assert!(relative(&g, RedundancyScheme::Tmr) > 1.4);
        assert!(relative(&g, RedundancyScheme::Dmr) > 1.2);
        assert!(relative(&g, RedundancyScheme::Tmr) > relative(&g, RedundancyScheme::Dmr));
    }

    #[test]
    fn software_redundancy_is_cheap() {
        // Paper: "Software-based reliability solutions have small cost in
        // terms of TCO."
        let g = group_at(2.0);
        let sw = relative(&g, RedundancyScheme::Software);
        assert!(sw < 1.12, "software overhead TCO factor {sw}");
        assert!(sw > 1.0);
    }

    #[test]
    fn baseline_scheme_is_identity() {
        let g = group_at(1.0);
        assert!((relative(&g, RedundancyScheme::None) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ordering_holds_across_the_power_range() {
        // Fig. 28 spans 0.5 - 4 kW equivalent computing power.
        for kw in [0.5, 1.0, 2.0, 4.0] {
            let g = group_at(kw);
            let none = relative(&g, RedundancyScheme::None);
            let sw = relative(&g, RedundancyScheme::Software);
            let dmr = relative(&g, RedundancyScheme::Dmr);
            let tmr = relative(&g, RedundancyScheme::Tmr);
            assert!(none < sw && sw < dmr && dmr < tmr, "at {kw} kW");
        }
    }
}
