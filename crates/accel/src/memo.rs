//! Layer-shape memoization for the design-space sweep.
//!
//! The DSE's cost model depends only on a layer's *shape*, and CNN suites
//! repeat shapes heavily (every 3×3/stride-1 block of a ResNet stage is
//! identical, U-Net mirrors its encoder, …). Deduplicating shapes up front
//! means each `(config, engine)` design point evaluates its schedule
//! search once per distinct shape — the `(config, shape)`-keyed cache the
//! sweep reads through — which cuts the hot loop by the suite's
//! duplication factor (~2.3× for the Table III networks) in serial *and*
//! parallel runs. The memo also precomputes, per shape, everything the
//! mapping search re-reads on every config: the cost model's per-shape
//! terms, the deduplicated tiling factors with their geometry, and the
//! per-network multiplicity matrix that turns per-shape
//! log-efficiencies into geomean scores.

use std::collections::HashMap;

use sudc_compute::networks::{Layer, Network};

use crate::dataflow::{ShapeTerms, Tiling};
use crate::mapping::tilings;

/// Shape-deduplicated view of a network suite.
#[derive(Debug, Clone)]
pub struct LayerMemo {
    /// Distinct layer shapes, in first-appearance order.
    unique: Vec<Layer>,
    /// `slot[network][layer]` → index into `unique`.
    slot: Vec<Vec<usize>>,
    /// `mult[network][shape]` → how many layers of the network have the
    /// shape (as f64: it weights log-efficiency sums).
    mult: Vec<Vec<f64>>,
    /// Per-shape terms of the cost model.
    terms: Vec<ShapeTerms>,
    /// Tiling geometry of each deduplicated tiling factor, per shape.
    tilings: Vec<Vec<Tiling>>,
    /// Total (non-deduplicated) layer count across the suite.
    total_layers: usize,
}

impl LayerMemo {
    /// Builds the memo for a suite of networks.
    #[must_use]
    pub fn for_networks(networks: &[Network]) -> Self {
        let mut unique: Vec<Layer> = Vec::new();
        let mut index_of: HashMap<Layer, usize> = HashMap::new();
        let mut total_layers = 0;
        let slot: Vec<Vec<usize>> = networks
            .iter()
            .map(|net| {
                net.layers
                    .iter()
                    .map(|layer| {
                        total_layers += 1;
                        *index_of.entry(layer.clone()).or_insert_with(|| {
                            unique.push(layer.clone());
                            unique.len() - 1
                        })
                    })
                    .collect()
            })
            .collect();
        let mult = slot
            .iter()
            .map(|slots| {
                let mut row = vec![0.0; unique.len()];
                for &si in slots {
                    row[si] += 1.0;
                }
                row
            })
            .collect();
        let terms: Vec<ShapeTerms> = unique.iter().map(ShapeTerms::of).collect();
        let tilings = unique
            .iter()
            .zip(&terms)
            .map(|(layer, shape)| tilings(layer, shape))
            .collect();
        Self {
            unique,
            slot,
            mult,
            terms,
            tilings,
            total_layers,
        }
    }

    /// The distinct layer shapes.
    #[must_use]
    pub fn unique_layers(&self) -> &[Layer] {
        &self.unique
    }

    /// Total layer count before deduplication.
    #[must_use]
    pub fn total_layers(&self) -> usize {
        self.total_layers
    }

    /// Index into [`Self::unique_layers`] for layer `li` of network `ni`.
    #[must_use]
    pub fn slot(&self, ni: usize, li: usize) -> usize {
        self.slot[ni][li]
    }

    /// How many layers of network `ni` share shape `si`.
    #[must_use]
    pub fn multiplicity(&self, ni: usize, si: usize) -> f64 {
        self.mult[ni][si]
    }

    /// Cost-model terms of shape `si`.
    pub(crate) fn terms(&self, si: usize) -> &ShapeTerms {
        &self.terms[si]
    }

    /// Tiling geometry of shape `si`'s [`crate::mapping::tile_options`],
    /// precomputed once per sweep instead of once per search.
    pub(crate) fn tilings(&self, si: usize) -> &[Tiling] {
        &self.tilings[si]
    }

    /// Layer evaluations one full `config × engine` sweep of `configs`
    /// design points serves from the shape dedup instead of recomputing —
    /// the memo-hit count [`crate::dse::SweepStats`] reports.
    #[must_use]
    pub fn dedup_hits(&self, configs: usize, engines: usize) -> u64 {
        (self.total_layers - self.unique.len()) as u64 * configs as u64 * engines as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::tile_options;
    use sudc_compute::networks::NetworkId;

    fn suite() -> Vec<Network> {
        NetworkId::all().iter().map(|id| id.network()).collect()
    }

    #[test]
    fn suite_has_substantial_shape_duplication() {
        let memo = LayerMemo::for_networks(&suite());
        assert!(
            memo.unique_layers().len() * 3 < memo.total_layers() * 2,
            "expected >= 1.5x duplication, got {} unique of {}",
            memo.unique_layers().len(),
            memo.total_layers()
        );
        assert!(memo.dedup_hits(1, 1) > 0);
    }

    #[test]
    fn slots_point_at_identical_shapes() {
        let networks = suite();
        let memo = LayerMemo::for_networks(&networks);
        for (ni, net) in networks.iter().enumerate() {
            for (li, layer) in net.layers.iter().enumerate() {
                assert_eq!(&memo.unique_layers()[memo.slot(ni, li)], layer);
            }
        }
    }

    #[test]
    fn multiplicities_sum_to_network_sizes() {
        let networks = suite();
        let memo = LayerMemo::for_networks(&networks);
        for (ni, net) in networks.iter().enumerate() {
            let total: f64 = (0..memo.unique_layers().len())
                .map(|si| memo.multiplicity(ni, si))
                .sum();
            assert!((total - net.layers.len() as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn candidates_match_direct_enumeration() {
        let memo = LayerMemo::for_networks(&suite());
        for (si, layer) in memo.unique_layers().iter().enumerate() {
            let shape = ShapeTerms::of(layer);
            let direct = tile_options(layer)
                .into_iter()
                .map(|t| Tiling::new(&shape, t));
            assert!(memo.tilings(si).iter().copied().eq(direct));
        }
    }
}
