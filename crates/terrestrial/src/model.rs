//! Terrestrial TCO category breakdowns.

/// TCO cost categories, aligned with Fig. 11's legend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CostCategory {
    /// Server hardware (capex, amortized).
    Servers,
    /// Energy actually consumed (utility power).
    Energy,
    /// In-datacenter power-distribution and cooling hardware.
    PowerDistribution,
    /// Facilities / building ("Infrastructure" in Fig. 11).
    Facilities,
    /// Inter- and intra-datacenter networking.
    Networking,
    /// Staff, maintenance, other opex.
    Other,
}

impl core::fmt::Display for CostCategory {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            Self::Servers => "Servers",
            Self::Energy => "Energy",
            Self::PowerDistribution => "Power distribution",
            Self::Facilities => "Facilities",
            Self::Networking => "Networking",
            Self::Other => "Other",
        };
        f.write_str(s)
    }
}

/// A terrestrial datacenter TCO model: a named category breakdown plus the
/// set of categories that shrink as compute energy efficiency improves.
#[derive(Debug, Clone, PartialEq)]
pub struct TerrestrialModel {
    /// Model name (source attribution).
    pub name: &'static str,
    /// Category shares, summing to 1.
    pub shares: Vec<(CostCategory, f64)>,
    /// Categories that scale down with compute energy efficiency.
    pub efficiency_scaled: Vec<CostCategory>,
}

impl TerrestrialModel {
    /// Hardy et al.-style default: only utility energy scales with compute
    /// efficiency (Fig. 15 "On-Earth (Default)", asymptote ≈ 0.93).
    #[must_use]
    pub fn hardy_default() -> Self {
        Self {
            name: "On-Earth (Default)",
            shares: vec![
                (CostCategory::Servers, 0.62),
                (CostCategory::Energy, 0.07),
                (CostCategory::PowerDistribution, 0.08),
                (CostCategory::Facilities, 0.12),
                (CostCategory::Networking, 0.07),
                (CostCategory::Other, 0.04),
            ],
            efficiency_scaled: vec![CostCategory::Energy],
        }
    }

    /// High-performance configuration: energy and the power-distribution
    /// plant both scale (Fig. 15 "On-Earth (HPE)", asymptote ≈ 0.85).
    #[must_use]
    pub fn hardy_hpe() -> Self {
        Self {
            name: "On-Earth (HPE)",
            shares: vec![
                (CostCategory::Servers, 0.57),
                (CostCategory::Energy, 0.09),
                (CostCategory::PowerDistribution, 0.06),
                (CostCategory::Facilities, 0.13),
                (CostCategory::Networking, 0.09),
                (CostCategory::Other, 0.06),
            ],
            efficiency_scaled: vec![CostCategory::Energy, CostCategory::PowerDistribution],
        }
    }

    /// Low-power high-density configuration (Fig. 15 "On-Earth (LPO)",
    /// asymptote ≈ 0.76): the largest scalable share the paper reports.
    #[must_use]
    pub fn hardy_lpo() -> Self {
        Self {
            name: "On-Earth (LPO)",
            shares: vec![
                (CostCategory::Servers, 0.60),
                (CostCategory::Energy, 0.13),
                (CostCategory::PowerDistribution, 0.11),
                (CostCategory::Facilities, 0.08),
                (CostCategory::Networking, 0.05),
                (CostCategory::Other, 0.03),
            ],
            efficiency_scaled: vec![CostCategory::Energy, CostCategory::PowerDistribution],
        }
    }

    /// Barroso & Hölzle warehouse-scale breakdown (Fig. 11 comparator).
    #[must_use]
    pub fn barroso_holzle() -> Self {
        Self {
            name: "Warehouse-scale (Barroso)",
            shares: vec![
                (CostCategory::Servers, 0.57),
                (CostCategory::Energy, 0.10),
                (CostCategory::PowerDistribution, 0.08),
                (CostCategory::Facilities, 0.14),
                (CostCategory::Networking, 0.08),
                (CostCategory::Other, 0.03),
            ],
            efficiency_scaled: vec![CostCategory::Energy],
        }
    }

    /// Cui et al. technology-evaluation breakdown (Fig. 11 comparator).
    #[must_use]
    pub fn cui() -> Self {
        Self {
            name: "Technology-eval (Cui)",
            shares: vec![
                (CostCategory::Servers, 0.66),
                (CostCategory::Energy, 0.09),
                (CostCategory::PowerDistribution, 0.07),
                (CostCategory::Facilities, 0.09),
                (CostCategory::Networking, 0.06),
                (CostCategory::Other, 0.03),
            ],
            efficiency_scaled: vec![CostCategory::Energy],
        }
    }

    /// The three Fig. 15 scaling variants.
    #[must_use]
    pub fn scaling_variants() -> [Self; 3] {
        [Self::hardy_default(), Self::hardy_hpe(), Self::hardy_lpo()]
    }

    /// The Fig. 11 comparator set.
    #[must_use]
    pub fn comparison_set() -> [Self; 3] {
        [Self::hardy_default(), Self::barroso_holzle(), Self::cui()]
    }

    /// Share of one category.
    #[must_use]
    pub fn share(&self, category: CostCategory) -> f64 {
        self.shares
            .iter()
            .find(|(c, _)| *c == category)
            .map_or(0.0, |(_, s)| *s)
    }

    /// Sum of the shares that scale with compute energy efficiency.
    ///
    /// Kept without a non-test caller: one minus it is each model's Fig. 15
    /// asymptote (0.93 / 0.85 / 0.76), which the tests pin.
    #[must_use]
    pub fn scalable_share(&self) -> f64 {
        self.efficiency_scaled.iter().map(|&c| self.share(c)).sum()
    }

    /// Checks that shares sum to 1 within tolerance.
    ///
    /// Kept without a non-test caller: the tests check every shipped model
    /// with it, since every share the figures print assumes it.
    #[must_use]
    pub fn is_normalized(&self) -> bool {
        let sum: f64 = self.shares.iter().map(|(_, s)| s).sum();
        (sum - 1.0).abs() < 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_models() -> Vec<TerrestrialModel> {
        vec![
            TerrestrialModel::hardy_default(),
            TerrestrialModel::hardy_hpe(),
            TerrestrialModel::hardy_lpo(),
            TerrestrialModel::barroso_holzle(),
            TerrestrialModel::cui(),
        ]
    }

    #[test]
    fn all_models_are_normalized() {
        for m in all_models() {
            assert!(m.is_normalized(), "{} not normalized", m.name);
        }
    }

    #[test]
    fn server_share_is_57_to_72_percent() {
        // Paper: "server costs range from 57% to 72% of TCO".
        for m in all_models() {
            let s = m.share(CostCategory::Servers);
            assert!((0.57..=0.72).contains(&s), "{}: servers {s}", m.name);
        }
    }

    #[test]
    fn power_share_is_7_to_13_percent() {
        // Paper: "power costs are only 7% to 13% of TCO".
        for m in all_models() {
            let p = m.share(CostCategory::Energy);
            assert!((0.07..=0.13).contains(&p), "{}: energy {p}", m.name);
        }
    }

    #[test]
    fn scalable_shares_match_fig15_asymptotes() {
        // Asymptotic relative TCO = 1 - scalable share: 0.93 / 0.85 / 0.76.
        assert!((1.0 - TerrestrialModel::hardy_default().scalable_share() - 0.93).abs() < 0.005);
        assert!((1.0 - TerrestrialModel::hardy_hpe().scalable_share() - 0.85).abs() < 0.005);
        assert!((1.0 - TerrestrialModel::hardy_lpo().scalable_share() - 0.76).abs() < 0.005);
    }

    #[test]
    fn servers_dominate_terrestrial_tco() {
        for m in all_models() {
            let servers = m.share(CostCategory::Servers);
            for &(c, share) in &m.shares {
                if c != CostCategory::Servers {
                    assert!(servers > share, "{}: {c} {share}", m.name);
                }
            }
        }
    }

    #[test]
    fn missing_category_has_zero_share() {
        let m = TerrestrialModel {
            name: "test",
            shares: vec![(CostCategory::Servers, 1.0)],
            efficiency_scaled: vec![],
        };
        assert_eq!(m.share(CostCategory::Energy), 0.0);
        assert_eq!(m.scalable_share(), 0.0);
    }
}
