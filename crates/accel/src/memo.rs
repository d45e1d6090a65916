//! Layer-shape memoization for the design-space sweep.
//!
//! The DSE's cost model depends only on a layer's *shape*, and CNN suites
//! repeat shapes heavily (every 3×3/stride-1 block of a ResNet stage is
//! identical, U-Net mirrors its encoder, …). Deduplicating shapes up front
//! means each `(config, engine)` design point evaluates its schedule
//! search once per distinct shape, which cuts the hot loop by the suite's
//! duplication factor (~2.3× for the Table III networks) in serial *and*
//! parallel runs. The memo also precomputes, per shape, everything the
//! mapping search re-reads on every config: the cost model's per-shape
//! terms and the deduplicated tiling factors with their geometry. Per
//! network it keeps the sparse row of `(shape, multiplicity)` pairs that
//! turns per-shape log-efficiencies into geomean scores: a network uses
//! only a few of the suite's shapes (209 of the 10 × 167 pairs are
//! nonzero), so a geomean walks just those.

use std::collections::HashMap;

use sudc_compute::networks::{Layer, Network};

use crate::dataflow::{ShapeTerms, Tiling};
use crate::mapping::tilings;

/// Shape-deduplicated view of a network suite: the distinct shapes with
/// their cost-model terms and tilings, each layer's shape slot, and each
/// network's sparse `(shape, multiplicity)` row.
#[derive(Debug, Clone)]
pub struct LayerMemo {
    /// Distinct layer shapes, in first-appearance order.
    unique: Vec<Layer>,
    /// `slot[network][layer]` → index into `unique`.
    slot: Vec<Vec<usize>>,
    /// `shapes[network]` → the network's `(shape, multiplicity)` pairs
    /// with a nonzero multiplicity, in ascending shape order (as f64: it
    /// weights log-efficiency sums).
    shapes: Vec<Vec<(usize, f64)>>,
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
        let shapes = slot
            .iter()
            .map(|slots| {
                let mut row = vec![0.0; unique.len()];
                for &si in slots {
                    row[si] += 1.0;
                }
                row.into_iter()
                    .enumerate()
                    .filter(|&(_, m)| m > 0.0)
                    .collect()
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
            shapes,
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

    /// Network `ni`'s shapes with how many of its layers share each, in
    /// ascending shape order; shapes the network does not use are absent.
    pub(crate) fn network_shapes(&self, ni: usize) -> &[(usize, f64)] {
        &self.shapes[ni]
    }

    /// Network `ni`'s shape slots, one per layer, in layer order.
    pub(crate) fn network_slots(&self, ni: usize) -> &[usize] {
        &self.slot[ni]
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
    fn network_shapes_count_each_networks_layers() {
        let networks = suite();
        let memo = LayerMemo::for_networks(&networks);
        for (ni, net) in networks.iter().enumerate() {
            let row = memo.network_shapes(ni);
            assert!(row.windows(2).all(|w| w[0].0 < w[1].0), "{}", net.id);
            for &(si, m) in row {
                let count = (0..net.layers.len())
                    .filter(|&li| memo.slot(ni, li) == si)
                    .count();
                assert_eq!(m, count as f64, "{} shape {si}", net.id);
            }
            let total: f64 = row.iter().map(|&(_, m)| m).sum();
            assert_eq!(total, net.layers.len() as f64, "{}", net.id);
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
