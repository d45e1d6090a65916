//! The per-layer mapping space — loop orders × output-row tilings ×
//! spatial projections × dataflows — and the best-schedule search.
//!
//! Timeloop's advantage over a fixed-dataflow analytical model is mapping
//! choice. We split that choice along the hardware/software boundary:
//!
//! - an [`Engine`] (dataflow × spatial projection) is **silicon** — wired
//!   multicast trees and PE-local control. It is part of the design point:
//!   the DSE sweeps `config × engine`, and a global accelerator must commit
//!   to one engine for every layer it will ever run. This is what opens the
//!   Fig. 17 heterogeneity gap: no single engine is good at both
//!   spatially-rich convolutions and reuse-free dense layers.
//! - a [`Schedule`] (DRAM loop order × output-row tiling) is **software** —
//!   a compiler decision taken per layer on *any* engine. Every
//!   architecture, global included, gets the best schedule per layer, so
//!   the gap measures hardware specialization, not compiler quality.
//!
//! The schedule search is exhaustive over a tiny, shape-deduplicated
//! candidate list. The candidates are order-major with the same tiles
//! under each loop order, and the order enters a candidate's energy only
//! through its last two addends (DRAM and leakage). So the search costs
//! each distinct tile's prefix `mac + rf + noc + glb` once and adds each
//! order's `dram + leak` to it, walking the candidates in canonical order
//! with a strict `<`, so ties keep the earliest candidate. The sweep in
//! [`crate::dse`] and the standalone [`best_schedule`] share that one
//! kernel; the sweep feeds it terms it hoists further (per PE group, psum
//! size and buffer pair), and [`best_schedule`] computes them fresh.

use sudc_compute::networks::Layer;
use sudc_units::Joules;

use crate::dataflow::{Dataflow, DesignRates, DramTraffic, EngineTerms, ShapeTerms, Tiling};
use crate::design::AcceleratorConfig;
use crate::energy::EnergyTable;

/// How the layer's parallel dimensions project onto the physical PE grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpatialMap {
    /// Output channels (filters) along x, output rows along y — the
    /// canonical Eyeriss projection the pre-mapping model hardwired.
    FilterRow,
    /// The transpose: output rows along x, filters along y. Rescues
    /// layers whose channel/row extents match the grid the other way.
    RowFilter,
    /// Output channels across the whole flattened array, no row
    /// parallelism — the matrix-engine projection that keeps reuse-free
    /// dense and pointwise layers fully utilized.
    FilterGrid,
}

impl SpatialMap {
    /// All spatial projections, in canonical order.
    #[must_use]
    pub fn all() -> [Self; 3] {
        [Self::FilterRow, Self::RowFilter, Self::FilterGrid]
    }

    /// Effective parallelism `(m_par, row_par)` of a layer on a grid.
    /// Dimension quantization matters: a 28-wide axis running 64 filters
    /// needs `ceil(64/28) = 3` passes, so effective parallelism is
    /// `64/3 ≈ 21.3`.
    #[must_use]
    pub fn parallelism(self, config: AcceleratorConfig, out_c: f64, out_h: f64) -> (f64, f64) {
        let quantized = |dim: f64, pe: f64| dim / (dim / pe).ceil();
        match self {
            Self::FilterRow => (
                quantized(out_c, f64::from(config.pe_x)),
                quantized(out_h, f64::from(config.pe_y)),
            ),
            Self::RowFilter => (
                quantized(out_c, f64::from(config.pe_y)),
                quantized(out_h, f64::from(config.pe_x)),
            ),
            Self::FilterGrid => (quantized(out_c, f64::from(config.pes())), 1.0),
        }
    }
}

impl core::fmt::Display for SpatialMap {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            Self::FilterRow => "filter-row",
            Self::RowFilter => "row-filter",
            Self::FilterGrid => "filter-grid",
        })
    }
}

/// Which tensor the outermost DRAM loop holds resident: the other tensor
/// is the one that streams (and re-streams, once per pass of the resident
/// tensor's tiles, when it does not fit its buffer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoopOrder {
    /// Weights tile in the outer loop; the ifmap re-streams once per
    /// weight tile beyond the first.
    WeightsOuter,
    /// Ifmap tiles in the outer loop; weights re-stream once per ifmap
    /// tile beyond the first.
    IfmapOuter,
}

impl LoopOrder {
    /// Both loop orders, in canonical order.
    #[must_use]
    pub fn all() -> [Self; 2] {
        [Self::WeightsOuter, Self::IfmapOuter]
    }

    /// Index of this order in [`LoopOrder::all`].
    pub(crate) fn index(self) -> usize {
        match self {
            Self::WeightsOuter => 0,
            Self::IfmapOuter => 1,
        }
    }
}

/// A hardwired mapping engine: dataflow × spatial projection. Part of the
/// design point (swept by the DSE alongside [`AcceleratorConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Engine {
    /// Temporal reuse pattern wired into the PE control.
    pub dataflow: Dataflow,
    /// Physical projection wired into the multicast network.
    pub spatial: SpatialMap,
}

/// Number of engines in the hardware mapping space.
pub const ENGINE_COUNT: usize = 6;

impl Engine {
    /// All engines, in canonical (dataflow-major) order. The sweep's
    /// tie-break resolves to the lowest index in this order.
    #[must_use]
    pub fn all() -> [Self; ENGINE_COUNT] {
        let mut out = [Self {
            dataflow: Dataflow::RowStationary,
            spatial: SpatialMap::FilterRow,
        }; ENGINE_COUNT];
        let mut i = 0;
        for dataflow in Dataflow::all() {
            for spatial in SpatialMap::all() {
                out[i] = Self { dataflow, spatial };
                i += 1;
            }
        }
        out
    }

    /// The engine the pre-mapping model hardwired for a dataflow.
    #[must_use]
    pub fn canonical(dataflow: Dataflow) -> Self {
        Self {
            dataflow,
            spatial: SpatialMap::FilterRow,
        }
    }
}

impl core::fmt::Display for Engine {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let df = match self.dataflow {
            Dataflow::RowStationary => "RS",
            Dataflow::WeightStationary => "WS",
        };
        write!(f, "{df}/{}", self.spatial)
    }
}

/// Output-row tiling factors the scheduler may pick.
pub const OW_TILE_OPTIONS: [u32; 4] = [1, 2, 4, 8];

/// A software schedule: per-layer compiler decisions available on every
/// engine — the DRAM loop order and the output-row tiling factor (which
/// shrinks the psum working set at the price of extra weight re-fetch
/// under RS / ifmap halo re-reads under WS).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Schedule {
    /// Outermost DRAM loop.
    pub order: LoopOrder,
    /// Output-row tiling factor (1 = untiled, the canonical schedule).
    pub ow_tile: u32,
}

impl Schedule {
    /// All schedules in canonical (order-major, tile-ascending) order.
    ///
    /// Kept without a non-test caller: `tests/mapping_props.rs` draws the
    /// mappings its unfactored cost-model oracle checks from this list.
    #[must_use]
    pub fn all() -> [Self; 8] {
        let mut out = [Self {
            order: LoopOrder::WeightsOuter,
            ow_tile: 1,
        }; 8];
        let mut i = 0;
        for order in LoopOrder::all() {
            for ow_tile in OW_TILE_OPTIONS {
                out[i] = Self { order, ow_tile };
                i += 1;
            }
        }
        out
    }
}

impl core::fmt::Display for Schedule {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let order = match self.order {
            LoopOrder::WeightsOuter => "w-outer",
            LoopOrder::IfmapOuter => "i-outer",
        };
        write!(f, "{order}/t{}", self.ow_tile)
    }
}

/// One point of the full per-layer mapping space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Mapping {
    /// The hardwired engine.
    pub engine: Engine,
    /// The software schedule.
    pub schedule: Schedule,
}

impl core::fmt::Display for Mapping {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} {}", self.engine, self.schedule)
    }
}

/// Output-row tiling factors for a layer shape, deduplicated: factors
/// clamp at `out_w`, so factors beyond the first clamped one would
/// re-evaluate an identical mapping and are dropped (a dense layer keeps
/// only the untiled factor).
#[must_use]
pub fn tile_options(layer: &Layer) -> Vec<u32> {
    let out_w = f64::from(layer.output_w()).max(1.0);
    let mut out = Vec::with_capacity(OW_TILE_OPTIONS.len());
    for ow_tile in OW_TILE_OPTIONS {
        let t_eff = f64::from(ow_tile).min(out_w);
        if !out
            .last()
            .is_some_and(|&prev: &u32| f64::from(prev).min(out_w) >= t_eff)
        {
            out.push(ow_tile);
        }
    }
    out
}

/// Schedule candidates for a layer shape in canonical (order-major)
/// order: every loop order over the same [`tile_options`] (a dense layer
/// keeps only the two loop orders).
#[must_use]
pub fn schedule_candidates(layer: &Layer) -> Vec<Schedule> {
    let tiles = tile_options(layer);
    LoopOrder::all()
        .into_iter()
        .flat_map(|order| {
            tiles
                .iter()
                .map(move |&ow_tile| Schedule { order, ow_tile })
        })
        .collect()
}

/// Result of a best-schedule search on one `(config, engine, layer)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleChoice {
    /// The winning schedule (earliest in canonical order on ties).
    pub schedule: Schedule,
    /// Its layer energy, picojoules.
    pub picojoules: f64,
}

impl ScheduleChoice {
    /// The winning energy in joules.
    #[must_use]
    pub fn energy(&self) -> Joules {
        Joules::new(self.picojoules * 1e-12)
    }
}

/// Exhaustive search for the cheapest schedule of `layer` on `config`
/// under `engine`.
#[must_use]
pub fn best_schedule(
    config: AcceleratorConfig,
    table: &EnergyTable,
    layer: &Layer,
    engine: Engine,
) -> ScheduleChoice {
    let shape = ShapeTerms::of(layer);
    let glb_pj = table.glb_access_pj(f64::from(config.total_buffer_kib()));
    let rates = DesignRates::new(config, table, glb_pj);
    let dram = DramCost::new(table, &shape.dram(config));
    let terms = EngineTerms::new(config, &shape, engine);
    let mac_rf = rates.mac_energy(shape.macs) + rates.rf_energy(shape.rf_accesses());
    let mut prefix = [0.0; OW_TILE_OPTIONS.len()];
    let mut glb = [0.0; OW_TILE_OPTIONS.len()];
    let tiles = tilings(layer, &shape);
    for ((p, g), tiling) in prefix.iter_mut().zip(&mut glb).zip(&tiles) {
        let tile = terms.tile(tiling);
        *p = mac_rf + rates.noc_energy(tile.noc);
        *g = tile.glb_accesses(&shape, config);
    }
    let n = tiles.len();
    let (index, picojoules) = cheapest(&rates, &prefix[..n], &glb[..n], &dram, terms.cycles);
    ScheduleChoice {
        schedule: schedule_candidates(layer)[index],
        picojoules,
    }
}

/// The [`Tiling`] of each of a layer's [`tile_options`].
pub(crate) fn tilings(layer: &Layer, shape: &ShapeTerms) -> Vec<Tiling> {
    tile_options(layer)
        .into_iter()
        .map(|ow_tile| Tiling::new(shape, ow_tile))
        .collect()
}

/// DRAM energy and stall time of one shape, per loop order (indexed by
/// [`LoopOrder::index`]). It depends on the config only through its
/// `(ifmap_kib, weight_kib)` pair — engine-, tile-, PE-grid- and
/// psum-independent — so the sweep keeps one row of these for the
/// current pair.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DramCost {
    pub(crate) pj: [f64; 2],
    pub(crate) stall_cycles: [f64; 2],
}

impl DramCost {
    pub(crate) fn new(table: &EnergyTable, traffic: &DramTraffic) -> Self {
        let words = traffic.effective_words(table);
        Self {
            pj: words.map(|w| table.dram_energy(w)),
            stall_cycles: words.map(|w| table.dram_stall_cycles(w)),
        }
    }
}

/// The search kernel both [`best_schedule`] and the sweep in
/// [`crate::dse`] run: the cheapest candidate of one
/// `(config, shape, engine)`, as its index in [`schedule_candidates`]
/// order and its energy in picojoules.
///
/// Per tile of the shape's [`tile_options`], `prefix` holds the energy
/// prefix `mac + rf + noc` and `glb` the GLB accesses; `dram` is the
/// shape's DRAM costs and `cycles` the engine's issue cycles. Each tile's
/// `prefix + glb` is summed once, then each loop order's `dram + leak` is
/// added to it — the left-to-right order of
/// [`crate::dataflow::EnergyTerms::total`], so every candidate's energy
/// has the bits the unfactored formula gives. A strict `<` over the
/// candidates in canonical order keeps the first minimum.
#[inline]
pub(crate) fn cheapest(
    rates: &DesignRates<'_>,
    prefix: &[f64],
    glb: &[f64],
    dram: &DramCost,
    cycles: f64,
) -> (usize, f64) {
    let mut tile_pj = [0.0; OW_TILE_OPTIONS.len()];
    for ((pj, &p), &g) in tile_pj.iter_mut().zip(prefix).zip(glb) {
        *pj = p + rates.glb_energy(g);
    }
    let tile_pj = &tile_pj[..prefix.len()];
    let leak = dram
        .stall_cycles
        .map(|stall| rates.leak_energy(cycles, stall));
    let mut best = (0, tile_pj[0] + dram.pj[0] + leak[0]);
    for (o, (&dram_pj, &leak_pj)) in dram.pj.iter().zip(&leak).enumerate() {
        for (t, &pj) in tile_pj.iter().enumerate() {
            let picojoules = pj + dram_pj + leak_pj;
            // Strictly-less keeps the earliest candidate on ties.
            if picojoules < best.1 {
                best = (o * tile_pj.len() + t, picojoules);
            }
        }
    }
    best
}

/// Energy of one inference of `network` on `config` hardwired to `engine`,
/// best schedule per layer — how the DSE costs a committed design point on
/// a whole workload.
#[must_use]
pub fn engine_network_energy(
    config: AcceleratorConfig,
    engine: Engine,
    table: &EnergyTable,
    network: &sudc_compute::networks::Network,
) -> Joules {
    network
        .layers
        .iter()
        .map(|layer| best_schedule(config, table, layer, engine).energy())
        .sum()
}

/// Energy of `layer` with full mapping freedom (best engine × schedule) —
/// what a per-layer design gets to exploit.
///
/// Kept without a non-test caller: it is the full-freedom search that
/// `tests/mapping_props.rs` invariant 1 checks against both canonical
/// dataflows.
#[must_use]
pub fn best_mapping_energy(
    config: AcceleratorConfig,
    table: &EnergyTable,
    layer: &Layer,
) -> (Joules, Mapping) {
    let mut best: Option<(f64, Mapping)> = None;
    for engine in Engine::all() {
        let choice = best_schedule(config, table, layer, engine);
        if best.is_none_or(|(pj, _)| choice.picojoules < pj) {
            best = Some((
                choice.picojoules,
                Mapping {
                    engine,
                    schedule: choice.schedule,
                },
            ));
        }
    }
    let (pj, mapping) = best.expect("Engine::all is never empty");
    (Joules::new(pj * 1e-12), mapping)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_layers_collapse_the_tile_ladder() {
        let dense = Layer::dense(2048, 1000);
        let cands = schedule_candidates(&dense);
        assert_eq!(cands.len(), 2, "one per loop order");
        assert!(cands.iter().all(|s| s.ow_tile == 1));
        let conv = Layer::conv(56, 56, 64, 128, 3, 1);
        assert_eq!(schedule_candidates(&conv).len(), 8);
        let narrow = Layer::conv(4, 4, 256, 256, 3, 1);
        // out_w = 4: t = 8 clamps to 4 and is dropped.
        assert_eq!(schedule_candidates(&narrow).len(), 6);
    }

    #[test]
    fn filter_grid_keeps_dense_layers_utilized() {
        let config = AcceleratorConfig::reference();
        let dense = Layer::dense(2048, 1000);
        let out_c = f64::from(dense.out_channels);
        let (fr_m, fr_r) = SpatialMap::FilterRow.parallelism(config, out_c, 1.0);
        let (fg_m, fg_r) = SpatialMap::FilterGrid.parallelism(config, out_c, 1.0);
        let pes = f64::from(config.pes());
        assert!(fr_m * fr_r / pes < 0.1, "row projection starves dense");
        assert!(fg_m * fg_r / pes > 0.9, "grid projection fills the array");
    }

    #[test]
    fn best_mapping_is_at_least_as_good_as_any_engine() {
        let table = EnergyTable::default();
        let config = AcceleratorConfig::reference();
        let layer = Layer::conv(28, 28, 256, 256, 3, 1);
        let (best, _) = best_mapping_energy(config, &table, &layer);
        for engine in Engine::all() {
            assert!(best <= best_schedule(config, &table, &layer, engine).energy());
        }
    }
}
