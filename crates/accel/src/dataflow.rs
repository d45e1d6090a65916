//! Row-stationary dataflow access counting — the Timeloop role.
//!
//! For each layer we count, analytically, the actions at every level of the
//! storage hierarchy under a row-stationary mapping (Eyeriss):
//!
//! - **RF**: every MAC reads two operands and updates a partial sum in the
//!   PE register file;
//! - **Global buffers**: ifmap reads are multicast across the filters
//!   mapped in the x-dimension and reused across `K` kernel rows inside the
//!   RF; weight reads are reused across the output rows mapped in the
//!   y-dimension and across an output row (`OW`) inside the RF; partial
//!   sums spill at kernel granularity, inflated when the accumulation
//!   buffer cannot hold a full output-row working set;
//! - **DRAM**: each tensor moves at least once; whichever of the
//!   ifmap/weight tensors does not fit its buffer forces re-fetching of the
//!   other, and the model picks the cheaper loop order;
//! - **Leakage**: PEs burn static energy every cycle, and under-utilized
//!   arrays (layer shape smaller than the grid) stretch cycle counts —
//!   this is what makes *per-layer* accelerators beat a single global
//!   design.

use sudc_compute::networks::Layer;

use crate::design::AcceleratorConfig;
use crate::energy::EnergyTable;
use crate::mapping::{Engine, LoopOrder, Mapping, Schedule};

/// The temporal reuse pattern wired into the PE control.
///
/// Together with a spatial projection this forms a hardwired
/// [`Engine`]; the full mapping space (engine × software [`Schedule`])
/// lives in [`crate::mapping`]. [`count_accesses_with`] evaluates the
/// canonical engine of a dataflow — the two points the pre-search model
/// hardwired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataflow {
    /// Eyeriss-style row stationary: kernel rows held in PE register files,
    /// weights reused across an output row, ifmaps multicast across the
    /// filters mapped on the array.
    RowStationary,
    /// Weight stationary: weights pinned in the PE array; ifmap activations
    /// stream past and are broadcast across mapped filters. Favors layers
    /// with little weight reuse (1x1 convolutions, dense layers).
    WeightStationary,
}

impl Dataflow {
    /// Both mapping families.
    #[must_use]
    pub fn all() -> [Self; 2] {
        [Self::RowStationary, Self::WeightStationary]
    }
}

/// Bytes per activation/weight word (16-bit).
const WORD_BYTES: f64 = 2.0;
/// Bytes per partial sum (32-bit accumulator).
const PSUM_BYTES: f64 = 4.0;

/// Detailed action counts for one layer on one configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessCounts {
    /// Multiply-accumulates.
    pub macs: f64,
    /// PE register-file accesses.
    pub rf_accesses: f64,
    /// NoC word transfers.
    pub noc_transfers: f64,
    /// Global-buffer accesses (ifmap + weight + psum).
    pub glb_accesses: f64,
    /// DRAM word transfers.
    pub dram_words: f64,
    /// The portion of `dram_words` that is multi-pass re-fetch of a
    /// streaming tensor (as opposed to compulsory first-touch traffic).
    /// Re-fetch is strided re-streaming with poor row-buffer locality,
    /// so the energy table may charge it a premium per word.
    pub dram_refetch_words: f64,
    /// Execution cycles (one MAC per PE per cycle, utilization-limited).
    pub cycles: f64,
    /// Fraction of PEs doing useful work.
    pub utilization: f64,
}

/// Counts the storage-hierarchy actions for `layer` on `config` under a
/// specific dataflow's *canonical* mapping: the filter-row spatial
/// projection, no output-row tiling, and the cheaper DRAM loop order —
/// exactly the two points of the mapping space the pre-search model
/// hardwired (asserted bit-identical in the tests below).
///
/// Kept without a non-test caller: these two points are the fixed-dataflow
/// reference `tests/mapping_props.rs` invariant 1 holds the search to.
#[must_use]
pub fn count_accesses_with(
    config: AcceleratorConfig,
    layer: &Layer,
    dataflow: Dataflow,
) -> AccessCounts {
    let engine = Engine::canonical(dataflow);
    let at_order = |order| {
        count_accesses_mapped(
            config,
            layer,
            Mapping {
                engine,
                schedule: Schedule { order, ow_tile: 1 },
            },
        )
    };
    let wo = at_order(LoopOrder::WeightsOuter);
    let io = at_order(LoopOrder::IfmapOuter);
    // Loop order only moves DRAM traffic, so this reproduces the old
    // model's min-refetch term.
    if io.dram_words < wo.dram_words {
        io
    } else {
        wo
    }
}

/// Counts the storage-hierarchy actions for `layer` on `config` under an
/// arbitrary point of the mapping space — the generalization of
/// [`count_accesses_with`] the per-layer search sweeps.
///
/// Assembled from the factored cost model below — `ShapeTerms` →
/// `DramTraffic` / `EngineTerms` → `Tiling` → `TileTerms` — the same
/// pieces the sweep computes once per axis and reuses across candidates.
#[must_use]
pub fn count_accesses_mapped(
    config: AcceleratorConfig,
    layer: &Layer,
    mapping: Mapping,
) -> AccessCounts {
    let shape = ShapeTerms::of(layer);
    let engine = EngineTerms::new(config, &shape, mapping.engine);
    let tile = engine.tile(&Tiling::new(&shape, mapping.schedule.ow_tile));
    let dram = shape.dram(config);
    let o = mapping.schedule.order.index();
    AccessCounts {
        macs: shape.macs,
        rf_accesses: shape.rf_accesses(),
        noc_transfers: tile.noc,
        glb_accesses: tile.glb_accesses(&shape, config),
        dram_words: dram.words[o],
        dram_refetch_words: dram.refetch_words[o],
        cycles: engine.cycles,
        utilization: (engine.m_par * engine.row_par) / f64::from(config.pes()),
    }
}

/// The per-shape level of the cost model: every term that depends on the
/// layer alone, computed once per distinct shape (held by
/// [`crate::memo::LayerMemo`]) instead of once per schedule candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ShapeTerms {
    pub(crate) macs: f64,
    k: f64,
    out_w: f64,
    out_h: f64,
    out_c: f64,
    weights: f64,
    ifmap_bytes: f64,
    weight_bytes: f64,
    /// Every tensor once: `ifmap + weight + output` bytes.
    compulsory_bytes: f64,
    /// GLB psum accesses before spill: partial sums leave the RF once per
    /// kernel-row accumulation, `2·macs/k²`.
    psum_unspilled: f64,
}

impl ShapeTerms {
    pub(crate) fn of(layer: &Layer) -> Self {
        let macs = layer.macs() as f64;
        let k = f64::from(layer.kernel).max(1.0);
        let ifmap_bytes = layer.input_activations() as f64 * WORD_BYTES;
        let weight_bytes = layer.weights() as f64 * WORD_BYTES;
        let output_bytes = layer.output_activations() as f64 * WORD_BYTES;
        Self {
            macs,
            k,
            out_w: f64::from(layer.output_w()).max(1.0),
            out_h: f64::from(layer.output_h()).max(1.0),
            out_c: f64::from(layer.out_channels).max(1.0),
            weights: layer.weights() as f64,
            ifmap_bytes,
            weight_bytes,
            compulsory_bytes: ifmap_bytes + weight_bytes + output_bytes,
            psum_unspilled: 2.0 * macs / (k * k),
        }
    }

    /// RF traffic: two operand reads plus one accumulator update per MAC.
    pub(crate) fn rf_accesses(&self) -> f64 {
        3.0 * self.macs
    }

    /// DRAM traffic on `config`, per loop order: every tensor at least
    /// once; the outer loop's resident tensor forces re-fetching of the
    /// streaming one once per resident tile beyond the first.
    pub(crate) fn dram(&self, config: AcceleratorConfig) -> DramTraffic {
        let ifmap_passes = (self.ifmap_bytes / (f64::from(config.ifmap_kib) * 1024.0))
            .ceil()
            .max(1.0);
        let weight_passes = (self.weight_bytes / (f64::from(config.weight_kib) * 1024.0))
            .ceil()
            .max(1.0);
        // Indexed by `LoopOrder::index`.
        let refetch = [
            self.ifmap_bytes * (weight_passes - 1.0),
            self.weight_bytes * (ifmap_passes - 1.0),
        ];
        DramTraffic {
            words: refetch.map(|r| (self.compulsory_bytes + r) / WORD_BYTES),
            refetch_words: refetch.map(|r| r / WORD_BYTES),
        }
    }
}

/// The per-`(ifmap_kib, weight_kib, shape)` level: DRAM words per loop
/// order (indexed by `LoopOrder::index`). Engine-, tile-, PE-grid- and
/// psum-independent — the loop order alone decides which tensor
/// re-streams.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct DramTraffic {
    words: [f64; 2],
    /// The multi-pass re-fetch portion of `words`.
    refetch_words: [f64; 2],
}

impl DramTraffic {
    /// Effective words per loop order (re-fetch at the row-buffer premium).
    pub(crate) fn effective_words(&self, table: &EnergyTable) -> [f64; 2] {
        [0, 1].map(|o| table.dram_effective_words(self.words[o], self.refetch_words[o]))
    }
}

/// The per-`(pe_x, pe_y, shape, engine)` level: spatial parallelism,
/// cycles and the engine's tile-independent buffer stream. Only the PE
/// grid enters here, so the sweep builds it once per PE group and reuses
/// it across every buffer sizing of that grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct EngineTerms {
    dataflow: Dataflow,
    m_par: f64,
    row_par: f64,
    /// Utilization-limited MAC issue cycles.
    pub(crate) cycles: f64,
    /// The GLB stream no tiling changes: RS ifmap, WS weights.
    fixed_glb: f64,
    /// RS: `macs`; WS: `macs / m_par` — the numerator of the tile term.
    tile_numerator: f64,
}

impl EngineTerms {
    pub(crate) fn new(config: AcceleratorConfig, shape: &ShapeTerms, engine: Engine) -> Self {
        // Spatial projection: the engine decides how layer parallelism
        // lands on the grid. Dimension quantization matters: a 28-wide axis
        // running a 64-filter layer needs ceil(64/28) = 3 passes, so the
        // *effective* parallelism is 64/3 = 21.3 — mismatched shapes waste
        // cycles (and therefore leakage), which is what per-layer
        // specialization recovers.
        let (m_par, row_par) = engine.spatial.parallelism(config, shape.out_c, shape.out_h);
        let (fixed_glb, tile_numerator) = match engine.dataflow {
            // RS: ifmaps reused across k kernel rows in the RF and
            // multicast to m_par filters.
            Dataflow::RowStationary => (shape.macs / (m_par * shape.k), shape.macs),
            // WS: weights pinned in PEs stream from the buffer exactly
            // once — multi-pass re-fetch happens at the DRAM level, where
            // the loop order charges it.
            Dataflow::WeightStationary => (shape.weights, shape.macs / m_par),
        };
        Self {
            dataflow: engine.dataflow,
            m_par,
            row_par,
            cycles: shape.macs / (m_par * row_par),
            fixed_glb,
            tile_numerator,
        }
    }

    /// The buffer-side terms of one tiling on this engine.
    pub(crate) fn tile(&self, tiling: &Tiling) -> TileTerms {
        // The GLB stream the tiling grows.
        let tile_glb = match self.dataflow {
            // RS: weights reused along a tile of an output row and across
            // the row_par output rows mapped on the array.
            Dataflow::RowStationary => self.tile_numerator / (self.row_par * tiling.tile_w),
            // WS: ifmap activations stream once per kernel window, with
            // k-1 overlap columns re-read at every tile seam.
            Dataflow::WeightStationary => self.tile_numerator * tiling.halo,
        };
        TileTerms {
            // NoC transfers mirror buffer-to-array traffic: ifmap + weight
            // streams, in either order (f64 addition is commutative).
            noc: self.fixed_glb + tile_glb,
            psum_working_set: tiling.tile_w * self.m_par * PSUM_BYTES,
        }
    }
}

/// The per-`(pe_x, pe_y, shape, engine, tile)` level: NoC transfers and
/// the psum working set. The psum buffer size enters only through
/// [`TileTerms::glb_accesses`], so the sweep derives from these, once per
/// PE group, the NoC part of the energy prefix and, once per psum size,
/// the GLB accesses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TileTerms {
    /// NoC transfers: the ifmap and weight buffer streams.
    pub(crate) noc: f64,
    /// Psum bytes one output-row tile holds for every mapped filter.
    psum_working_set: f64,
}

impl TileTerms {
    /// GLB accesses on `config`: both operand streams plus the psum
    /// traffic, whose spill factor grows when the psum buffer cannot hold
    /// the working set.
    pub(crate) fn glb_accesses(&self, shape: &ShapeTerms, config: AcceleratorConfig) -> f64 {
        let psum_capacity = f64::from(config.psum_kib) * 1024.0;
        self.noc + shape.psum_unspilled * (self.psum_working_set / psum_capacity).max(1.0)
    }
}

/// The per-`(shape, tile factor)` level: output-row tiling geometry.
/// Processing each output row in `t` segments shrinks the psum working set
/// by `t` but forfeits cross-segment array-level reuse — weights re-fetch
/// per segment under RS, ifmap halo columns re-read under WS.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Tiling {
    /// Output-row tile width, `out_w / t`.
    tile_w: f64,
    /// WS ifmap re-read factor, `1 + (t-1)(k-1)/out_w`.
    halo: f64,
}

impl Tiling {
    pub(crate) fn new(shape: &ShapeTerms, ow_tile: u32) -> Self {
        let t_eff = f64::from(ow_tile).min(shape.out_w);
        Self {
            tile_w: shape.out_w / t_eff,
            halo: 1.0 + (t_eff - 1.0) * (shape.k - 1.0) / shape.out_w,
        }
    }
}

/// Energy of a set of access counts on a design, picojoules — the one
/// formula every energy path (canonical, mapped, sweep) shares. `glb_pj`
/// is the config's buffer access energy, hoisted out so the sweep
/// computes the square root once per config.
///
/// Kept without a non-test caller: the sweep sums the same terms in the
/// same order from hoisted rates, and `tests/mapping_props.rs` invariant 2
/// checks this formula bit for bit against its unfactored oracle.
///
/// # Examples
///
/// Pricing one layer under the canonical row-stationary mapping:
///
/// ```
/// use sudc_accel::dataflow::{count_accesses_with, picojoules_of, Dataflow};
/// use sudc_accel::design::AcceleratorConfig;
/// use sudc_accel::energy::EnergyTable;
/// use sudc_compute::networks::Layer;
///
/// let config = AcceleratorConfig::reference();
/// let table = EnergyTable::default();
/// let layer = Layer::conv(56, 56, 64, 128, 3, 1);
/// let counts = count_accesses_with(config, &layer, Dataflow::RowStationary);
/// let glb_pj = table.glb_access_pj(f64::from(config.total_buffer_kib()));
/// let pj = picojoules_of(config, &table, glb_pj, &counts);
/// assert!(pj > 0.0 && pj.is_finite());
/// ```
#[must_use]
pub fn picojoules_of(
    config: AcceleratorConfig,
    table: &EnergyTable,
    glb_pj: f64,
    c: &AccessCounts,
) -> f64 {
    energy_terms(config, table, glb_pj, c).total()
}

/// The six terms [`picojoules_of`] sums, picojoules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyTerms {
    /// Arithmetic.
    pub mac: f64,
    /// PE register files.
    pub rf: f64,
    /// On-chip network.
    pub noc: f64,
    /// Global buffers.
    pub glb: f64,
    /// DRAM, re-fetch at its premium.
    pub dram: f64,
    /// Static energy over the roofline wall-clock.
    pub leak: f64,
}

impl EnergyTerms {
    /// The layer energy: the terms summed left to right in field order.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.mac + self.rf + self.noc + self.glb + self.dram + self.leak
    }
}

/// Breaks the energy of a set of access counts on a design into its six
/// terms; `glb_pj` as for [`picojoules_of`].
#[must_use]
pub fn energy_terms(
    config: AcceleratorConfig,
    table: &EnergyTable,
    glb_pj: f64,
    c: &AccessCounts,
) -> EnergyTerms {
    let rates = DesignRates::new(config, table, glb_pj);
    let dram_eff = table.dram_effective_words(c.dram_words, c.dram_refetch_words);
    EnergyTerms {
        mac: rates.mac_energy(c.macs),
        rf: rates.rf_energy(c.rf_accesses),
        noc: rates.noc_energy(c.noc_transfers),
        glb: rates.glb_energy(c.glb_accesses),
        dram: table.dram_energy(dram_eff),
        leak: rates.leak_energy(c.cycles, table.dram_stall_cycles(dram_eff)),
    }
}

/// The per-config level of the energy formula: per-action energies with
/// the design's buffer size, wire length and leakage folded in.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DesignRates<'a> {
    table: &'a EnergyTable,
    glb_pj: f64,
    wire_scale: f64,
    leak_pj_per_cycle: f64,
}

impl<'a> DesignRates<'a> {
    pub(crate) fn new(config: AcceleratorConfig, table: &'a EnergyTable, glb_pj: f64) -> Self {
        Self {
            table,
            glb_pj,
            // NoC hop energy grows with array extent (wire length).
            wire_scale: f64::from(config.pe_x.max(config.pe_y)) / 16.0,
            leak_pj_per_cycle: table.leakage_pj_per_cycle(
                f64::from(config.pes()),
                f64::from(config.total_buffer_kib()),
            ),
        }
    }

    pub(crate) fn mac_energy(&self, macs: f64) -> f64 {
        macs * self.table.mac_pj
    }

    pub(crate) fn rf_energy(&self, rf_accesses: f64) -> f64 {
        rf_accesses * self.table.rf_pj
    }

    pub(crate) fn noc_energy(&self, noc_transfers: f64) -> f64 {
        noc_transfers * self.table.noc_pj * self.wire_scale
    }

    pub(crate) fn glb_energy(&self, glb_accesses: f64) -> f64 {
        glb_accesses * self.glb_pj
    }

    /// Roofline: a memory-bound layer stalls the array for the full DRAM
    /// transfer, and the whole design leaks for that long — re-fetch from
    /// an undersized buffer costs access energy *and* stall time.
    pub(crate) fn leak_energy(&self, cycles: f64, stall_cycles: f64) -> f64 {
        cycles.max(stall_cycles) * self.leak_pj_per_cycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sudc_compute::networks::NetworkId;

    #[test]
    fn energy_is_positive_for_all_layers_of_all_networks() {
        let cfg = AcceleratorConfig::reference();
        let table = EnergyTable::default();
        let glb_pj = table.glb_access_pj(f64::from(cfg.total_buffer_kib()));
        for id in NetworkId::all() {
            for layer in &id.network().layers {
                for df in Dataflow::all() {
                    let c = count_accesses_with(cfg, layer, df);
                    let pj = picojoules_of(cfg, &table, glb_pj, &c);
                    assert!(pj > 0.0 && pj.is_finite());
                }
            }
        }
    }

    #[test]
    fn utilization_is_a_fraction() {
        let cfg = AcceleratorConfig::reference();
        for layer in &NetworkId::UNet.network().layers {
            for df in Dataflow::all() {
                let c = count_accesses_with(cfg, layer, df);
                assert!(c.utilization > 0.0 && c.utilization <= 1.0);
            }
        }
    }

    #[test]
    fn small_layers_underutilize_big_arrays() {
        let big = AcceleratorConfig {
            pe_x: 28,
            pe_y: 32,
            ..AcceleratorConfig::reference()
        };
        // A 1x1x16-channel layer cannot fill 28 columns.
        let tiny = Layer::conv(32, 32, 128, 16, 1, 1);
        for df in Dataflow::all() {
            assert!(count_accesses_with(big, &tiny, df).utilization < 0.6);
        }
    }

    #[test]
    fn fc_layers_get_no_weight_reuse() {
        let cfg = AcceleratorConfig::reference();
        let fc = Layer::dense(2048, 1000);
        for df in Dataflow::all() {
            // Every weight must be fetched at least once from the buffer.
            let c = count_accesses_with(cfg, &fc, df);
            assert!(c.glb_accesses >= fc.weights() as f64);
        }
    }

    #[test]
    fn bigger_weight_buffer_reduces_dram_refetch() {
        let small = AcceleratorConfig {
            weight_kib: 16,
            ..AcceleratorConfig::reference()
        };
        let big = AcceleratorConfig {
            weight_kib: 128,
            ..AcceleratorConfig::reference()
        };
        // A weight-heavy layer that exceeds 16 KiB of weights.
        let layer = Layer::conv(14, 14, 512, 512, 3, 1);
        for df in Dataflow::all() {
            let c_small = count_accesses_with(small, &layer, df);
            let c_big = count_accesses_with(big, &layer, df);
            assert!(c_big.dram_words <= c_small.dram_words);
        }
    }

    #[test]
    fn weight_stationary_wins_on_pointwise_convolutions() {
        // 1x1 convs have no kernel-row reuse for RS to exploit, while WS
        // fetches each weight exactly once.
        let cfg = AcceleratorConfig::reference();
        let pointwise = Layer::conv(56, 56, 256, 64, 1, 1);
        let rs = count_accesses_with(cfg, &pointwise, Dataflow::RowStationary);
        let ws = count_accesses_with(cfg, &pointwise, Dataflow::WeightStationary);
        assert!(ws.glb_accesses < rs.glb_accesses);
    }

    #[test]
    fn row_stationary_wins_on_large_kernel_convolutions() {
        let cfg = AcceleratorConfig::reference();
        let spatial = Layer::conv(112, 112, 64, 64, 7, 1);
        let rs = count_accesses_with(cfg, &spatial, Dataflow::RowStationary);
        let ws = count_accesses_with(cfg, &spatial, Dataflow::WeightStationary);
        assert!(rs.glb_accesses < ws.glb_accesses);
    }

    /// The pre-mapping-search model, verbatim (including the
    /// algebraically-inert WS pass factor): the oracle proving the two
    /// canonical dataflows are *exact special cases* of the mapped model.
    fn legacy_counts(config: AcceleratorConfig, layer: &Layer, dataflow: Dataflow) -> AccessCounts {
        let macs = layer.macs() as f64;
        let k = f64::from(layer.kernel).max(1.0);
        let out_w = f64::from(layer.output_w()).max(1.0);
        let out_h = f64::from(layer.output_h()).max(1.0);
        let out_c = f64::from(layer.out_channels).max(1.0);
        let m_par = out_c / (out_c / f64::from(config.pe_x)).ceil();
        let row_par = out_h / (out_h / f64::from(config.pe_y)).ceil();
        let utilization = (m_par * row_par) / f64::from(config.pes());
        let rf_accesses = 3.0 * macs;
        let (glb_ifmap, glb_weight) = match dataflow {
            Dataflow::RowStationary => (macs / (m_par * k), macs / (row_par * out_w)),
            Dataflow::WeightStationary => {
                let weights = layer.weights() as f64;
                (
                    macs / m_par,
                    weights * (macs / (weights * out_w * out_h)).max(1.0),
                )
            }
        };
        let psum_working_set = out_w * m_par * PSUM_BYTES;
        let psum_capacity = f64::from(config.psum_kib) * 1024.0;
        let psum_spill = (psum_working_set / psum_capacity).max(1.0);
        let glb_psum = 2.0 * macs / (k * k) * psum_spill;
        let glb_accesses = glb_ifmap + glb_weight + glb_psum;
        let noc_transfers = glb_ifmap + glb_weight;
        let ifmap_bytes = layer.input_activations() as f64 * WORD_BYTES;
        let weight_bytes = layer.weights() as f64 * WORD_BYTES;
        let output_bytes = layer.output_activations() as f64 * WORD_BYTES;
        let ifmap_passes = (ifmap_bytes / (f64::from(config.ifmap_kib) * 1024.0))
            .ceil()
            .max(1.0);
        let weight_passes = (weight_bytes / (f64::from(config.weight_kib) * 1024.0))
            .ceil()
            .max(1.0);
        let refetch =
            (ifmap_bytes * (weight_passes - 1.0)).min(weight_bytes * (ifmap_passes - 1.0));
        let dram_bytes = ifmap_bytes + weight_bytes + output_bytes + refetch;
        let dram_words = dram_bytes / WORD_BYTES;
        let cycles = macs / (m_par * row_par);
        AccessCounts {
            macs,
            rf_accesses,
            noc_transfers,
            glb_accesses,
            dram_words,
            dram_refetch_words: refetch / WORD_BYTES,
            cycles,
            utilization,
        }
    }

    #[test]
    fn canonical_dataflows_are_exact_special_cases_of_the_mapped_model() {
        let configs = [
            AcceleratorConfig::reference(),
            AcceleratorConfig {
                pe_x: 28,
                pe_y: 4,
                ifmap_kib: 8,
                weight_kib: 8,
                psum_kib: 8,
            },
            AcceleratorConfig {
                pe_x: 4,
                pe_y: 32,
                ifmap_kib: 128,
                weight_kib: 128,
                psum_kib: 64,
            },
        ];
        for config in configs {
            for id in NetworkId::all() {
                for layer in &id.network().layers {
                    for df in Dataflow::all() {
                        let legacy = legacy_counts(config, layer, df);
                        let mapped = count_accesses_with(config, layer, df);
                        assert_eq!(mapped, legacy, "{df:?} on {layer:?} @ {config}");
                    }
                }
            }
        }
    }

    #[test]
    fn ws_glb_weight_is_exactly_one_pass_even_when_weights_exceed_the_buffer() {
        // 512×512×3×3 weights = 4.5 MiB ≫ any weight buffer in the space,
        // so the old "pass count" factor would be the natural place for
        // re-fetch inflation — but it was algebraically always 1.0
        // (macs = weights · out_w · out_h identically). The simplified
        // model pins GLB weight traffic to exactly one pass and charges
        // multi-pass re-fetch at the DRAM level via the loop order.
        let config = AcceleratorConfig {
            weight_kib: 8,
            ..AcceleratorConfig::reference()
        };
        let layer = Layer::conv(14, 14, 512, 512, 3, 1);
        assert!(layer.weights() as f64 * 2.0 > f64::from(config.weight_kib) * 1024.0);
        let ws = count_accesses_with(config, &layer, Dataflow::WeightStationary);
        let weights = layer.weights() as f64;
        // Canonical projection: m_par = quantized(out_c = 512, pe_x = 16).
        let m_par = 512.0 / (512.0_f64 / 16.0).ceil();
        // noc = glb_ifmap + glb_weight and glb_ifmap = macs / m_par here.
        let glb_weight = ws.noc_transfers - ws.macs / m_par;
        assert!(
            (glb_weight - weights).abs() <= 1e-6 * weights,
            "glb_weight {glb_weight} vs weights {weights}"
        );
        // The legacy expression agrees (its pass factor was inert).
        let legacy = legacy_counts(config, &layer, Dataflow::WeightStationary);
        assert_eq!(ws, legacy);
        // And the DRAM side *does* see the multi-pass cost.
        let compulsory =
            (layer.input_activations() + layer.weights() + layer.output_activations()) as f64;
        assert!(ws.dram_words > compulsory, "re-fetch must appear in DRAM");
    }

    #[test]
    fn output_row_tiling_trades_psum_spill_for_refetch() {
        // A wide layer with many mapped filters overflows a small psum
        // buffer; tiling the output row shrinks the working set (fewer
        // GLB psum spills) while inflating RS weight traffic.
        let config = AcceleratorConfig {
            psum_kib: 8,
            ..AcceleratorConfig::reference()
        };
        let layer = Layer::conv(112, 112, 64, 64, 3, 1);
        // Grid projection maps all 64 filters at once: the untiled psum
        // working set (112 · 64 · 4 B = 28 KiB) overflows the 8 KiB
        // buffer, while a 4-way tile (7 KiB) fits.
        let engine = Engine {
            dataflow: Dataflow::RowStationary,
            spatial: crate::mapping::SpatialMap::FilterGrid,
        };
        let at_tile = |t| {
            count_accesses_mapped(
                config,
                &layer,
                Mapping {
                    engine,
                    schedule: Schedule {
                        order: LoopOrder::WeightsOuter,
                        ow_tile: t,
                    },
                },
            )
        };
        let untiled = at_tile(1);
        let tiled = at_tile(4);
        assert!(tiled.noc_transfers > untiled.noc_transfers, "re-fetch cost");
        assert!(
            tiled.glb_accesses - tiled.noc_transfers < untiled.glb_accesses - untiled.noc_transfers,
            "psum spill benefit"
        );
        assert_eq!(tiled.cycles, untiled.cycles, "tiling is traffic-only");
    }
}
