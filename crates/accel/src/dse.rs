//! Design-space sweep, accelerator selection, and Fig. 17's
//! energy-efficiency improvements.
//!
//! Selection follows the paper exactly: "In order to determine the globally
//! optimal (energy minimizing) design, we use a geometric mean of each
//! design's energy efficiency on all neural network layers. Similarly, to
//! determine the per-network optimal design, we use geometric mean of each
//! design's energy efficiency on all layers of the network." Per-layer
//! designs simply take the best design for every individual layer.
//!
//! A *design point* here is an [`AcceleratorConfig`] × a hardwired mapping
//! [`Engine`] (dataflow × spatial projection): 7 168 configurations × 6
//! engines. Software [`Schedule`](crate::mapping::Schedule)s (loop order × output-row tiling) are
//! searched per layer on every design point — see [`crate::mapping`] —
//! through the shape-deduplicated [`LayerMemo`]. Each cost term is
//! computed at the level of the axes it depends on, and each level is
//! rebuilt only when its key changes in the space's order: the engine
//! geometry and the `mac + rf + noc` energy prefix per PE grid, the GLB
//! accesses per `(PE grid, psum size)`, and the DRAM costs per
//! `(ifmap, weight)` buffer pair. A config adds just its buffer access
//! energy and leakage rate, and each `(config, shape, engine)` only sums
//! and compares its schedule candidates. The sweep runs chunked across
//! the [`sudc_par`] executor and is bit-identical to its one-worker run
//! at any worker count: chunk results merge left-to-right with a
//! strictly-greater test on flat `(config, engine)` indices, so ties
//! resolve to the lowest index exactly as in one serial loop.
//!
//! Scores are natural logs of efficiency (MACs per joule), and a geomean
//! score is each network's multiplicity-weighted mean of them. Only the
//! winners matter, so an exact filter keeps `f64::ln` off the hot path:
//! a candidate is scored exactly (one `ln` per shape, each geomean summed
//! over the network's nonzero `(shape, multiplicity)` pairs in ascending
//! order) unless a cheap bound proves that it cannot beat or tie the
//! incumbent. Per shape, the bound compares raw efficiencies against the
//! incumbent's less a relative `LN_MARGIN`. Per network, the exponents
//! of the layers' efficiencies are summed and their mantissas multiplied,
//! which gives the log sum from one `ln`, within `LOG_SUM_BOUND` of the
//! exact score in geomean units; the global bound sums those. A candidate
//! is skipped only when it falls more than `LN_MARGIN` = 10⁻⁶ (10⁴ ×
//! the bound) below the incumbent's exact score. Exact ties and every
//! zero, subnormal, infinite or NaN efficiency take the exact path, and
//! the filter does not assume that libm's `ln` is monotone, only that it
//! is accurate to an ulp or so; so the outcome keeps every bit.
//!
//! The GPU baseline is derived from the Table III measurements: the
//! effective energy per useful MAC on the RTX 3090 is
//! `P / (peak_FP32 · utilization / 2)` scaled by a framework-overhead
//! factor (NVML wall-clock power includes memory, host synchronization,
//! and idle-SM draw that the utilization counter does not capture).

use std::collections::BTreeMap;

use sudc_compute::hardware::rtx_3090;
use sudc_compute::networks::{Network, NetworkId};
use sudc_compute::workloads::{self, Workload};
use sudc_errors::{Diagnostics, SudcError};
use sudc_units::Joules;

use crate::dataflow::{DesignRates, EngineTerms};
use crate::design::{design_space, AcceleratorConfig, PSUM_KIB_OPTIONS};
use crate::energy::EnergyTable;
use crate::mapping::{self, DramCost, Engine, LoopOrder, ENGINE_COUNT};
use crate::memo::LayerMemo;

/// Framework overhead on the GPU baseline: measured wall-power × time
/// divided by utilization-derived useful MACs understates per-MAC energy,
/// because cuDNN/TensorFlow inference also spends energy on memory traffic,
/// host sync, and idle SMs.
const GPU_FRAMEWORK_OVERHEAD: f64 = 4.8;

/// The compute system architectures compared in Figs. 17–18.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SystemArchitecture {
    /// Commodity GPU baseline (RTX 3090).
    CommodityGpu,
    /// One accelerator design shared by every workload (Fig. 18a).
    GlobalAccelerator,
    /// One accelerator design per network (Fig. 18b).
    PerNetworkAccelerator,
    /// One accelerator design per layer — extreme heterogeneity (Fig. 18c).
    PerLayerAccelerator,
}

impl core::fmt::Display for SystemArchitecture {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            Self::CommodityGpu => "Commodity GPU",
            Self::GlobalAccelerator => "Global Accelerator",
            Self::PerNetworkAccelerator => "Per-Network Accelerator",
            Self::PerLayerAccelerator => "Per-Layer Accelerator",
        };
        f.write_str(s)
    }
}

/// Effective GPU energy per MAC for a workload, joules.
#[must_use]
pub fn gpu_joules_per_mac(workload: &Workload) -> f64 {
    let gpu = rtx_3090();
    let peak_flops = gpu.fp32.value() * 1e12;
    let useful_mac_rate = peak_flops * workload.utilization / 2.0;
    workload.gpu_power.value() / useful_mac_rate * GPU_FRAMEWORK_OVERHEAD
}

/// [`gpu_joules_per_mac`] with validated inputs: a zero-utilization or
/// non-finite workload would otherwise flow `inf`/NaN into every geomean
/// downstream.
///
/// # Errors
/// Returns a [`SudcError`] naming each offending field.
///
/// Kept without a non-test caller: `tests/panic_freedom.rs` drives this
/// fallible form with hostile workloads.
pub fn try_gpu_joules_per_mac(workload: &Workload) -> Result<f64, SudcError> {
    let mut d = Diagnostics::new("Workload");
    if d.finite("utilization", workload.utilization) {
        d.in_range("utilization", workload.utilization, f64::MIN_POSITIVE, 1.0);
    }
    if d.finite("gpu_power_w", workload.gpu_power.value()) {
        d.positive("gpu_power_w", workload.gpu_power.value());
    }
    d.into_result(())?;
    Ok(gpu_joules_per_mac(workload))
}

/// GPU energy for one inference of the workload's network.
#[must_use]
pub fn gpu_network_energy(workload: &Workload, network: &Network) -> Joules {
    Joules::new(network.total_macs() as f64 * gpu_joules_per_mac(workload))
}

/// The winning design point and schedule for one layer of one network —
/// the per-shape winner table a per-layer architecture is built from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerWinner {
    /// The layer's best configuration.
    pub config: AcceleratorConfig,
    /// The layer's best hardwired engine.
    pub engine: Engine,
    /// The best software schedule on that design point.
    pub schedule: mapping::Schedule,
    /// Layer energy on the winning mapping.
    pub energy: Joules,
}

/// Per-network outcome of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkResult {
    /// The network evaluated.
    pub network: NetworkId,
    /// GPU baseline energy per inference.
    pub gpu_energy: Joules,
    /// Energy per inference on the global accelerator.
    pub global_energy: Joules,
    /// Energy per inference on this network's own best accelerator.
    pub per_network_energy: Joules,
    /// Energy per inference with the best accelerator per layer.
    pub per_layer_energy: Joules,
    /// This network's best configuration.
    pub best_config: AcceleratorConfig,
    /// This network's best hardwired engine.
    pub best_engine: Engine,
    /// Winning design point per layer (the persisted winner table).
    pub per_layer_winners: Vec<LayerWinner>,
}

impl NetworkResult {
    /// Energy-efficiency improvement over the GPU baseline for the given
    /// accelerator architecture.
    #[must_use]
    pub fn improvement(&self, arch: SystemArchitecture) -> f64 {
        let accel = match arch {
            SystemArchitecture::CommodityGpu => return 1.0,
            SystemArchitecture::GlobalAccelerator => self.global_energy,
            SystemArchitecture::PerNetworkAccelerator => self.per_network_energy,
            SystemArchitecture::PerLayerAccelerator => self.per_layer_energy,
        };
        self.gpu_energy / accel
    }
}

/// Aggregate counters from one sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepStats {
    /// Schedule candidates costed: every candidate of every
    /// `(design point, shape)` search, exactly once.
    pub schedules_evaluated: u64,
    /// Schedule candidates skipped without costing. Always 0: the search
    /// costs every candidate. Kept so reports that read it stay stable.
    pub schedules_pruned: u64,
    /// Per-`(design point, shape)` schedule searches performed.
    pub shape_searches: u64,
    /// Layer evaluations served by the shape memo instead of
    /// recomputation (duplicate shapes across the suite).
    pub memo_hits: u64,
    /// Distinct layer shapes in the suite.
    pub unique_shapes: usize,
    /// Total layers across the suite before deduplication.
    pub total_layers: usize,
}

impl SweepStats {
    /// Fraction of schedule candidates skipped without costing. Always 0,
    /// like [`Self::schedules_pruned`].
    #[must_use]
    pub fn prune_rate(&self) -> f64 {
        let total = self.schedules_evaluated + self.schedules_pruned;
        if total == 0 {
            0.0
        } else {
            self.schedules_pruned as f64 / total as f64
        }
    }

    /// Fraction of per-layer lookups served by the shape memo.
    #[must_use]
    pub fn memo_hit_rate(&self) -> f64 {
        let lookups = self.memo_hits + self.shape_searches;
        if lookups == 0 {
            0.0
        } else {
            self.memo_hits as f64 / lookups as f64
        }
    }
}

/// Complete outcome of the `7 168 configs × 6 engines` sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct DseOutcome {
    /// The globally optimal configuration (geomean over all layers of all
    /// nets).
    pub global_best: AcceleratorConfig,
    /// The globally optimal hardwired engine.
    pub global_engine: Engine,
    /// Per-network results, keyed in `NetworkId::all()` order.
    pub networks: Vec<NetworkResult>,
    /// Number of configurations evaluated.
    pub designs_evaluated: usize,
    /// Number of hardwired engines evaluated per configuration.
    pub engines_evaluated: usize,
    /// Search counters (candidates costed, memoization).
    pub stats: SweepStats,
}

impl DseOutcome {
    /// Mean energy-efficiency improvement over the GPU baseline across all
    /// networks (Fig. 17's headline numbers): the arithmetic mean of the
    /// per-network improvement factors, matching the figure's per-workload
    /// bars. (Design *selection* inside the sweep uses geometric means —
    /// this is only the reporting aggregate.)
    #[must_use]
    pub fn mean_improvement(&self, arch: SystemArchitecture) -> f64 {
        let sum: f64 = self.networks.iter().map(|n| n.improvement(arch)).sum();
        sum / self.networks.len() as f64
    }
}

/// Runs the sweep over the full 7 168-configuration space with the default
/// same-node energy table.
#[must_use]
pub fn run_full_dse() -> DseOutcome {
    run_dse(&design_space(), &EnergyTable::default())
}

/// Per-thread sweep accumulator: scores paired with *flat design-point
/// indices* (`config_index · ENGINE_COUNT + engine_index`) so the
/// cross-chunk merge can express the serial tie-break (lowest index wins).
struct BestSoFar {
    global: (f64, usize),
    per_network: Vec<(f64, usize)>,
    /// Best per unique shape — the per-layer architecture reads through
    /// the memo's slots.
    per_shape: Vec<(f64, usize)>,
    /// Per shape, the [`shape_floor`] of its incumbent's efficiency; 0
    /// until it has one.
    shape_floors: Vec<f64>,
    /// The cost terms of the PE grid this accumulator last swept.
    group: GroupTable,
    /// The DRAM costs of the `(ifmap_kib, weight_kib)` pair this
    /// accumulator last swept.
    dram: DramRow,
    /// Per-config scratch, `shape × engine`, carried in the accumulator so
    /// the fold never allocates: the efficiencies (MACs per joule), then
    /// the biased exponent and the mantissa of each, from [`split`].
    ratios: Vec<f64>,
    exponents: Vec<f64>,
    mantissas: Vec<f64>,
}

impl BestSoFar {
    fn new(networks: &[Network], shapes: usize) -> Self {
        Self {
            global: (f64::NEG_INFINITY, 0),
            per_network: vec![(f64::NEG_INFINITY, 0); networks.len()],
            per_shape: vec![(f64::NEG_INFINITY, 0); shapes],
            shape_floors: vec![0.0; shapes],
            group: GroupTable::default(),
            dram: DramRow::default(),
            ratios: vec![0.0; shapes * ENGINE_COUNT],
            exponents: vec![0.0; shapes * ENGINE_COUNT],
            mantissas: vec![0.0; shapes * ENGINE_COUNT],
        }
    }

    /// Folds `b`, a later chunk's accumulator, into `self`.
    fn merge(mut self, b: Self) -> Self {
        self.global = better(self.global, b.global);
        for (av, bv) in self.per_network.iter_mut().zip(b.per_network) {
            *av = better(*av, bv);
        }
        let shapes = self.per_shape.iter_mut().zip(&mut self.shape_floors);
        for ((av, af), (bv, bf)) in shapes.zip(b.per_shape.into_iter().zip(b.shape_floors)) {
            // The strict `better`, keeping each floor with its incumbent.
            if bv.0 > av.0 {
                (*av, *af) = (bv, bf);
            }
        }
        self
    }
}

/// Bound, in geomean (natural-log) units, on how far an
/// [`approx_log_sum`] divided by its term count can stray from the exact
/// geomean score: `f64::ln` per term, weighted and summed in order. Both
/// sides round a few times per term, by at most an ulp of `|ln r| ≤ 745`
/// (about 1e-13), so the two sums part by about 1e-11 for 127 terms of
/// that size.
const LOG_SUM_BOUND: f64 = 1e-10;

/// How far, in geomean units, a candidate's approximate score must fall
/// below the incumbent's exact score to be skipped without its exact
/// `ln`s: 1e-6, four orders of magnitude past [`LOG_SUM_BOUND`].
const LN_MARGIN: f64 = 10_000.0 * LOG_SUM_BOUND;

/// `r` as its biased exponent `e` and mantissa `m ∈ [1, 2)`, with
/// `r = 2^(e − 1023) · m` — or a NaN mantissa unless `r` is positive,
/// normal and finite, so that every product it enters is NaN.
#[inline]
fn split(r: f64) -> (f64, f64) {
    const MANTISSA: u64 = (1 << 52) - 1;
    let bits = r.to_bits();
    let mantissa = if (f64::MIN_POSITIVE..=f64::MAX).contains(&r) {
        f64::from_bits(bits & MANTISSA | 1f64.to_bits())
    } else {
        f64::NAN
    };
    (f64::from((bits >> 52) as u32), mantissa)
}

/// `Σ ln r` over `terms` efficiencies, from the sum of their [`split`]
/// exponents and the product of their mantissas: one `ln` in place of
/// one per term, within [`LOG_SUM_BOUND`] × `terms` of the exact sum. A
/// NaN mantissa makes it NaN, and a product that overflows (past 1 023
/// terms) makes it `+∞`; [`ruled_out`] rules out neither.
#[inline]
fn approx_log_sum(exponents: f64, mantissas: f64, terms: f64) -> f64 {
    (exponents - 1023.0 * terms) * core::f64::consts::LN_2 + mantissas.ln()
}

/// Whether a candidate whose approximate geomean score is `approx`
/// cannot beat or tie the incumbent's exact score `best`, and so skips
/// the exact path: true only when `approx` is more than [`LN_MARGIN`]
/// below `best`, which [`LOG_SUM_BOUND`] proves the exact score is too.
/// Ties and a NaN `approx` are never ruled out.
#[inline]
fn ruled_out(approx: f64, best: f64) -> bool {
    approx < best - LN_MARGIN
}

/// The efficiency below which a shape's candidate cannot beat or tie an
/// incumbent of efficiency `r`: `ln(r · (1 − LN_MARGIN)) < ln r −
/// LN_MARGIN`, a gap no error of `f64::ln` within a few ulps of the true
/// log can close. It asks nothing of `f64::ln`'s monotonicity.
#[inline]
fn shape_floor(r: f64) -> f64 {
    r * (1.0 - LN_MARGIN)
}

/// Whether every efficiency of a shape's row is positive, normal and
/// below `floor` (its incumbent's [`shape_floor`]), so that none can beat
/// or tie the incumbent. Zero, subnormal, infinite and NaN efficiencies
/// fail it, so their row takes the exact path.
#[inline]
fn below_floor(row: &[f64], floor: f64) -> bool {
    row.iter().all(|&r| r >= f64::MIN_POSITIVE && r < floor)
}

/// GLB-access tables one [`GroupTable`] holds at once: one per psum size
/// of the design space, so the full sweep builds each exactly once per PE
/// group. A space with more psum sizes in one group evicts the oldest.
const GLB_TABLES: usize = PSUM_KIB_OPTIONS.len();

/// The per-PE-group level of the cost model, for every `(shape, engine)`
/// of the suite and every distinct tile of each. Each accumulator
/// rebuilds it when its chunk crosses into a new grid, so chunk
/// boundaries cannot change it; the design space's order makes that once
/// per 256 configs.
#[derive(Default)]
struct GroupTable {
    /// The `(pe_x, pe_y)` the table was built for.
    key: Option<(u32, u32)>,
    /// Issue cycles per `(shape, engine)`, shape-major.
    cycles: Vec<f64>,
    /// The candidate energy's `mac + rf + noc` prefix, picojoules, per
    /// `(shape, engine, tile)`: shape-major, then engine, then the shape's
    /// [`LayerMemo::tilings`] order.
    prefix: Vec<f64>,
    /// GLB accesses per `(shape, engine, tile)`, in `prefix` order, keyed
    /// on the psum size they were built for (it sets the psum spill);
    /// at most [`GLB_TABLES`], oldest first.
    glb: Vec<(u32, Vec<f64>)>,
}

impl GroupTable {
    /// Makes the table describe `config`'s PE grid; `rates` are
    /// `config`'s, of which only the table's MAC and RF energies and the
    /// grid's NoC rate enter.
    fn refresh(&mut self, config: AcceleratorConfig, rates: &DesignRates<'_>, memo: &LayerMemo) {
        let key = (config.pe_x, config.pe_y);
        if self.key == Some(key) {
            return;
        }
        self.key = Some(key);
        self.cycles.clear();
        self.prefix.clear();
        self.glb.clear();
        for si in 0..memo.unique_layers().len() {
            let shape = memo.terms(si);
            let mac_rf = rates.mac_energy(shape.macs) + rates.rf_energy(shape.rf_accesses());
            for engine in Engine::all() {
                let terms = EngineTerms::new(config, shape, engine);
                self.cycles.push(terms.cycles);
                self.prefix.extend(
                    memo.tilings(si)
                        .iter()
                        .map(|tiling| mac_rf + rates.noc_energy(terms.tile(tiling).noc)),
                );
            }
        }
    }

    /// `(cycles, prefix, glb)` for `config`, whose PE grid the table
    /// describes: the GLB accesses of `config`'s psum size are built on
    /// first use.
    fn with_psum(
        &mut self,
        config: AcceleratorConfig,
        memo: &LayerMemo,
    ) -> (&[f64], &[f64], &[f64]) {
        let at = match self.glb.iter().position(|(kib, _)| *kib == config.psum_kib) {
            Some(at) => at,
            None => {
                if self.glb.len() == GLB_TABLES {
                    self.glb.remove(0);
                }
                let mut glb = Vec::with_capacity(self.prefix.len());
                for si in 0..memo.unique_layers().len() {
                    let shape = memo.terms(si);
                    for engine in Engine::all() {
                        let terms = EngineTerms::new(config, shape, engine);
                        glb.extend(
                            memo.tilings(si)
                                .iter()
                                .map(|tiling| terms.tile(tiling).glb_accesses(shape, config)),
                        );
                    }
                }
                self.glb.push((config.psum_kib, glb));
                self.glb.len() - 1
            }
        };
        (&self.cycles, &self.prefix, &self.glb[at].1)
    }
}

/// The per-`(ifmap_kib, weight_kib)` level: each shape's [`DramCost`].
/// One row, refilled when the pair changes — every fourth config in the
/// design space's order.
#[derive(Default)]
struct DramRow {
    /// The `(ifmap_kib, weight_kib)` the row was filled for.
    key: Option<(u32, u32)>,
    /// Per shape.
    costs: Vec<DramCost>,
}

impl DramRow {
    /// Makes the row describe `config`'s buffer pair.
    fn refresh(&mut self, config: AcceleratorConfig, memo: &LayerMemo, table: &EnergyTable) {
        let key = (config.ifmap_kib, config.weight_kib);
        if self.key == Some(key) {
            return;
        }
        self.key = Some(key);
        self.costs.clear();
        self.costs.extend(
            (0..memo.unique_layers().len())
                .map(|si| DramCost::new(table, &memo.terms(si).dram(config))),
        );
    }
}

/// Keeps `a` unless `b` is *strictly* better. Chunks merge left to right in
/// index order, so this reproduces the serial loop's first-wins `>` test and
/// ties resolve to the lowest flat design-point index.
fn better(a: (f64, usize), b: (f64, usize)) -> (f64, usize) {
    if b.0 > a.0 {
        b
    } else {
        a
    }
}

/// Per-config fold body: the single implementation every chunk executes
/// (one chunk at one worker), so their arithmetic is identical by
/// construction.
fn sweep_config(
    best: &mut BestSoFar,
    idx: usize,
    config: AcceleratorConfig,
    memo: &LayerMemo,
    networks: &[Network],
    table: &EnergyTable,
) {
    let glb_pj = table.glb_access_pj(f64::from(config.total_buffer_kib()));
    let rates = DesignRates::new(config, table, glb_pj);
    best.group.refresh(config, &rates, memo);
    best.dram.refresh(config, memo, table);

    // Phase 1: best-schedule search per (shape, engine); efficiencies
    // land in the scratch table keyed on (shape, engine). Each cost term
    // comes from the level of the axes it depends on: the prefix and
    // cycles per PE group, the GLB accesses per (PE group, psum size),
    // DRAM per (ifmap, weight) pair, and the GLB and leakage rates per
    // config. Only the candidate sums and their minimum run per
    // (config, shape, engine), in `mapping::cheapest`, the kernel
    // `best_schedule` runs on the same terms computed fresh.
    let (cycles, prefix, glb) = best.group.with_psum(config, memo);
    let mut start = 0;
    for si in 0..memo.unique_layers().len() {
        let macs = memo.terms(si).macs;
        let dram = &best.dram.costs[si];
        let n = memo.tilings(si).len();
        for ei in 0..ENGINE_COUNT {
            let se = si * ENGINE_COUNT + ei;
            let tiles = start..start + n;
            start += n;
            let (_, picojoules) = mapping::cheapest(
                &rates,
                &prefix[tiles.clone()],
                &glb[tiles],
                dram,
                cycles[se],
            );
            best.ratios[se] = macs / (picojoules * 1e-12);
        }
    }

    // Phase 2: score every engine as a full design point through the
    // exact filter. A candidate the filter cannot rule out takes the
    // exact path: `f64::ln` per shape, each geomean summed in ascending
    // shape order, one independent sum per engine, networks in order for
    // the global sum, then the strict `better`. Each accumulator sees the
    // engines in index order, so the flat tie-break matches the serial
    // nesting.
    let BestSoFar {
        global,
        per_network,
        per_shape,
        shape_floors,
        ratios,
        exponents,
        mantissas,
        ..
    } = best;
    let flat = |ei: usize| idx * ENGINE_COUNT + ei;
    let rows = ratios.chunks_exact(ENGINE_COUNT);
    for ((slot, floor), row) in per_shape.iter_mut().zip(shape_floors).zip(rows) {
        if below_floor(row, *floor) {
            continue;
        }
        for (ei, &r) in row.iter().enumerate() {
            let score = r.ln();
            // The strict `better`, moving the floor with the incumbent.
            if score > slot.0 {
                (*slot, *floor) = ((score, flat(ei)), shape_floor(r));
            }
        }
    }

    // The geomeans filter on `approx_log_sum`s over each network's
    // layers.
    for ((e, m), &r) in exponents.iter_mut().zip(mantissas.iter_mut()).zip(&*ratios) {
        (*e, *m) = split(r);
    }
    let exact_net_sum = |ni: usize, ei: usize| {
        memo.network_shapes(ni).iter().fold(0.0, |sum, &(si, m)| {
            sum + m * ratios[si * ENGINE_COUNT + ei].ln()
        })
    };
    let mut global_approx = [0.0; ENGINE_COUNT];
    for (ni, net) in networks.iter().enumerate() {
        let mut exponent_sum = [0.0; ENGINE_COUNT];
        let mut mantissa_product = [1.0; ENGINE_COUNT];
        for &si in memo.network_slots(ni) {
            let row = si * ENGINE_COUNT..(si + 1) * ENGINE_COUNT;
            for ((sum, product), (&e, &m)) in exponent_sum
                .iter_mut()
                .zip(&mut mantissa_product)
                .zip(exponents[row.clone()].iter().zip(&mantissas[row]))
            {
                *sum += e;
                *product *= m;
            }
        }
        let layers = net.layers.len() as f64;
        for ei in 0..ENGINE_COUNT {
            let approx = approx_log_sum(exponent_sum[ei], mantissa_product[ei], layers);
            if !ruled_out(approx / layers, per_network[ni].0) {
                let net_geo = exact_net_sum(ni, ei) / layers;
                per_network[ni] = better(per_network[ni], (net_geo, flat(ei)));
            }
            global_approx[ei] += approx;
        }
    }
    let layers = memo.total_layers() as f64;
    for (ei, &approx) in global_approx.iter().enumerate() {
        if !ruled_out(approx / layers, global.0) {
            let sum = (0..networks.len()).fold(0.0, |sum, ni| sum + exact_net_sum(ni, ei));
            *global = better(*global, (sum / layers, flat(ei)));
        }
    }
}

/// Runs the sweep over an arbitrary configuration space, in parallel.
///
/// The space is partitioned into contiguous chunks across the workspace
/// executor's threads ([`sudc_par::threads`]); each thread folds its chunk
/// in index order, searching schedules once per distinct shape
/// ([`LayerMemo`]), and chunk results merge in index order with a
/// strictly-greater test. The outcome is bit-identical to the one-worker
/// sweep at every thread count.
///
/// # Panics
///
/// Panics if `space` is empty.
#[must_use]
pub fn run_dse(space: &[AcceleratorConfig], table: &EnergyTable) -> DseOutcome {
    run_dse_threads(sudc_par::threads(), space, table)
}

/// [`run_dse`] with an explicit worker count (1 = serial execution order).
///
/// # Panics
///
/// Panics if `space` is empty.
#[must_use]
pub fn run_dse_threads(
    workers: usize,
    space: &[AcceleratorConfig],
    table: &EnergyTable,
) -> DseOutcome {
    assert!(!space.is_empty(), "design space must be non-empty");

    let networks: Vec<Network> = NetworkId::all().iter().map(|id| id.network()).collect();
    let memo = LayerMemo::for_networks(&networks);

    let best = sudc_par::par_reduce_threads(
        workers,
        space,
        || BestSoFar::new(&networks, memo.unique_layers().len()),
        |mut best, idx, &config| {
            sweep_config(&mut best, idx, config, &memo, &networks, table);
            best
        },
        BestSoFar::merge,
    );

    assemble_outcome(space, table, &networks, &memo, &best)
}

/// Validated sweep: rejects an empty space, malformed configurations
/// (e.g. a zero psum buffer, whose spill factor would be infinite), and a
/// non-finite energy table before any arithmetic runs.
///
/// # Errors
/// Returns a [`SudcError`] collecting every violation.
///
/// Kept without a non-test caller: `tests/panic_freedom.rs` checks that it
/// rejects exactly the malformed sweeps.
pub fn try_run_dse(
    space: &[AcceleratorConfig],
    table: &EnergyTable,
) -> Result<DseOutcome, SudcError> {
    let mut d = Diagnostics::new("DSE");
    d.positive_count("space.len", space.len() as u64);
    d.finish()?;
    table.try_validate()?;
    let mut diags = Diagnostics::new("DSE");
    for (i, config) in space.iter().enumerate() {
        if let Err(e) = config.try_validate() {
            for v in e.violations() {
                diags.violation(
                    format!("space[{i}].{}", v.path),
                    v.value.clone(),
                    v.allowed.clone(),
                );
            }
        }
    }
    diags.finish()?;
    Ok(run_dse(space, table))
}

fn unflatten(flat: usize) -> (usize, Engine) {
    (flat / ENGINE_COUNT, Engine::all()[flat % ENGINE_COUNT])
}

/// Builds the [`DseOutcome`] from winning flat indices, after the merge,
/// so outputs at every worker count are structurally identical.
/// Winning schedules are *recomputed* here (deterministically, via the
/// same search kernel) rather than carried through the fold, keeping the
/// accumulator small.
fn assemble_outcome(
    space: &[AcceleratorConfig],
    table: &EnergyTable,
    networks: &[Network],
    memo: &LayerMemo,
    best: &BestSoFar,
) -> DseOutcome {
    let workload_by_network: BTreeMap<NetworkId, Workload> = workloads::suite()
        .into_iter()
        .map(|w| (w.network, w))
        .collect();

    let (gc, global_engine) = unflatten(best.global.1);
    let global_best = space[gc];

    let winner_for = |flat: usize, layer| {
        let (ci, engine) = unflatten(flat);
        let config = space[ci];
        let choice = mapping::best_schedule(config, table, layer, engine);
        LayerWinner {
            config,
            engine,
            schedule: choice.schedule,
            energy: choice.energy(),
        }
    };

    let results = networks
        .iter()
        .enumerate()
        .map(|(ni, net)| {
            let workload = &workload_by_network[&net.id];
            let (nc, best_engine) = unflatten(best.per_network[ni].1);
            let per_network_best = space[nc];
            let per_layer_winners: Vec<LayerWinner> = net
                .layers
                .iter()
                .enumerate()
                .map(|(li, layer)| winner_for(best.per_shape[memo.slot(ni, li)].1, layer))
                .collect();
            let per_layer_energy: Joules = per_layer_winners.iter().map(|w| w.energy).sum();
            NetworkResult {
                network: net.id,
                gpu_energy: gpu_network_energy(workload, net),
                global_energy: mapping::engine_network_energy(
                    global_best,
                    global_engine,
                    table,
                    net,
                ),
                per_network_energy: mapping::engine_network_energy(
                    per_network_best,
                    best_engine,
                    table,
                    net,
                ),
                per_layer_energy,
                best_config: per_network_best,
                best_engine,
                per_layer_winners,
            }
        })
        .collect();

    let shape_searches =
        space.len() as u64 * ENGINE_COUNT as u64 * memo.unique_layers().len() as u64;
    let candidates: u64 = (0..memo.unique_layers().len())
        .map(|si| (LoopOrder::all().len() * memo.tilings(si).len()) as u64)
        .sum();
    DseOutcome {
        global_best,
        global_engine,
        networks: results,
        designs_evaluated: space.len(),
        engines_evaluated: ENGINE_COUNT,
        stats: SweepStats {
            schedules_evaluated: space.len() as u64 * ENGINE_COUNT as u64 * candidates,
            schedules_pruned: 0,
            shape_searches,
            memo_hits: memo.dedup_hits(space.len(), ENGINE_COUNT),
            unique_shapes: memo.unique_layers().len(),
            total_layers: memo.total_layers(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reduced space keeps unit tests fast; the full 7 168-config sweep
    /// runs in the integration tests and benches.
    fn small_space() -> Vec<AcceleratorConfig> {
        design_space().into_iter().step_by(37).collect()
    }

    #[test]
    fn architectures_are_ordered_by_specialization() {
        let out = run_dse(&small_space(), &EnergyTable::default());
        let global = out.mean_improvement(SystemArchitecture::GlobalAccelerator);
        let per_net = out.mean_improvement(SystemArchitecture::PerNetworkAccelerator);
        let per_layer = out.mean_improvement(SystemArchitecture::PerLayerAccelerator);
        assert!(global > 1.0, "global {global}");
        assert!(per_net >= global, "per-net {per_net} < global {global}");
        assert!(
            per_layer >= per_net,
            "per-layer {per_layer} < per-net {per_net}"
        );
    }

    #[test]
    fn gpu_baseline_improvement_is_identity() {
        let out = run_dse(&small_space(), &EnergyTable::default());
        assert!((out.mean_improvement(SystemArchitecture::CommodityGpu) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn per_layer_energy_never_exceeds_per_network() {
        let out = run_dse(&small_space(), &EnergyTable::default());
        for n in &out.networks {
            assert!(
                n.per_layer_energy <= n.per_network_energy,
                "{}: per-layer must dominate",
                n.network
            );
            // Note: per-network geomean selection does not guarantee lower
            // *total* energy than the global design on every network, so
            // only the per-layer bound is asserted against both.
            assert!(n.per_layer_energy <= n.global_energy, "{}", n.network);
        }
    }

    #[test]
    fn per_layer_winners_sum_to_per_layer_energy() {
        let out = run_dse(&small_space(), &EnergyTable::default());
        for n in &out.networks {
            let sum: Joules = n.per_layer_winners.iter().map(|w| w.energy).sum();
            assert_eq!(sum, n.per_layer_energy, "{}", n.network);
            assert!(!n.per_layer_winners.is_empty());
        }
    }

    #[test]
    fn every_network_has_a_result() {
        let out = run_dse(&small_space(), &EnergyTable::default());
        assert_eq!(out.networks.len(), 10);
        for id in NetworkId::all() {
            assert!(out.networks.iter().any(|n| n.network == id), "{id}");
        }
    }

    /// Three PE groups of 11, 12 and 11 configs that revisit every
    /// hoisted level of the sweep. Inside each group every psum size
    /// recurs, and the `(ifmap, weight)` pair changes and later comes back
    /// after another pair, so the DRAM row is refilled for a pair it held
    /// before; the first two groups also change one buffer of the pair
    /// alone (the weight, then the ifmap). The last group cycles through
    /// five psum sizes (128 KiB is off the design space's grid), one more
    /// than [`GLB_TABLES`], so a GLB table is evicted and rebuilt.
    /// Consecutive groups differ in `pe_y`, then in `pe_x`, and chunk
    /// boundaries fall inside a group at 2, 3 and 8 workers.
    fn pe_group_space() -> Vec<AcceleratorConfig> {
        type Visit = ((u32, u32), &'static [u32]);
        let groups: [((u32, u32), &[Visit]); 3] = [
            (
                (4, 8),
                &[
                    ((16, 48), &[8, 16, 32, 64]),
                    ((16, 8), &[64, 16, 8]),
                    ((16, 48), &[32, 8, 64, 16]),
                ],
            ),
            (
                (4, 16),
                &[
                    ((8, 128), &[16, 8, 64, 32]),
                    ((32, 128), &[8, 32]),
                    ((96, 24), &[64, 16]),
                    ((8, 128), &[32, 64, 8, 16]),
                ],
            ),
            (
                (8, 16),
                &[
                    ((64, 16), &[8, 16, 32, 64, 128]),
                    ((24, 96), &[8, 32]),
                    ((64, 16), &[16, 64, 128, 8]),
                ],
            ),
        ];
        let mut space = Vec::new();
        for ((pe_x, pe_y), visits) in groups {
            for &((ifmap_kib, weight_kib), psums) in visits {
                space.extend(psums.iter().map(|&psum_kib| AcceleratorConfig {
                    pe_x,
                    pe_y,
                    ifmap_kib,
                    weight_kib,
                    psum_kib,
                }));
            }
        }
        space
    }

    #[test]
    fn pe_group_space_revisits_every_hoisted_level() {
        let space = pe_group_space();
        let mut groups: Vec<&[AcceleratorConfig]> = space
            .chunk_by(|a, b| (a.pe_x, a.pe_y) == (b.pe_x, b.pe_y))
            .collect();
        assert_eq!(groups.len(), 3);
        for group in &groups {
            for c in *group {
                let recurs = group.iter().filter(|d| d.psum_kib == c.psum_kib).count();
                assert!(recurs >= 2, "{c}: psum size does not recur");
            }
            let pairs: Vec<_> = group
                .chunk_by(|a, b| (a.ifmap_kib, a.weight_kib) == (b.ifmap_kib, b.weight_kib))
                .map(|run| (run[0].ifmap_kib, run[0].weight_kib))
                .collect();
            let distinct: std::collections::BTreeSet<_> = pairs.iter().collect();
            assert!(distinct.len() < pairs.len(), "no pair comes back");
        }
        let last = groups.pop().unwrap();
        let psums: std::collections::BTreeSet<_> = last.iter().map(|c| c.psum_kib).collect();
        assert!(psums.len() > GLB_TABLES, "no GLB table is evicted");
    }

    #[test]
    fn sweep_stats_are_populated() {
        let space = small_space();
        let out = run_dse(&space, &EnergyTable::default());
        let networks: Vec<Network> = NetworkId::all().iter().map(|id| id.network()).collect();
        let memo = LayerMemo::for_networks(&networks);
        let candidates: usize = memo
            .unique_layers()
            .iter()
            .map(|l| mapping::schedule_candidates(l).len())
            .sum();
        let costed_once = (space.len() * ENGINE_COUNT * candidates) as u64;
        assert_eq!(out.stats.schedules_evaluated, costed_once);
        assert_eq!(out.stats.schedules_pruned, 0);
        assert_eq!(out.stats.prune_rate(), 0.0);
        assert!(out.stats.memo_hit_rate() > 0.0);
        assert_eq!(out.engines_evaluated, ENGINE_COUNT);
        assert_eq!(out.designs_evaluated, space.len());
    }

    /// The efficiency of every `(shape, engine)` on `config`, from the
    /// standalone [`mapping::best_schedule`] search, shape-major.
    fn best_schedule_ratios(
        config: AcceleratorConfig,
        table: &EnergyTable,
        memo: &LayerMemo,
    ) -> Vec<f64> {
        let mut ratios = Vec::with_capacity(memo.unique_layers().len() * ENGINE_COUNT);
        for layer in memo.unique_layers() {
            for engine in Engine::all() {
                let pj = mapping::best_schedule(config, table, layer, engine).picojoules;
                ratios.push(layer.macs() as f64 / (pj * 1e-12));
            }
        }
        ratios
    }

    #[test]
    fn group_table_path_matches_best_schedule_bit_for_bit() {
        let table = EnergyTable::default();
        let networks: Vec<Network> = NetworkId::all().iter().map(|id| id.network()).collect();
        let memo = LayerMemo::for_networks(&networks);
        let mut best = BestSoFar::new(&networks, memo.unique_layers().len());
        for (idx, config) in pe_group_space().into_iter().enumerate() {
            sweep_config(&mut best, idx, config, &memo, &networks, &table);
            let oracle = best_schedule_ratios(config, &table, &memo);
            for (se, (got, want)) in best.ratios.iter().zip(&oracle).enumerate() {
                let (si, engine) = (se / ENGINE_COUNT, Engine::all()[se % ENGINE_COUNT]);
                assert_eq!(got.to_bits(), want.to_bits(), "{config} {engine} {si}");
            }
        }
    }

    /// The whole sweep without any of its hoisting or filtering: every
    /// score from [`mapping::best_schedule`] and `f64::ln`, every geomean
    /// over each network's dense row of shape multiplicities, assembled
    /// like the real sweep.
    fn best_schedule_outcome(space: &[AcceleratorConfig], table: &EnergyTable) -> DseOutcome {
        let networks: Vec<Network> = NetworkId::all().iter().map(|id| id.network()).collect();
        let memo = LayerMemo::for_networks(&networks);
        let best = oracle_incumbents(space, table, &networks, &memo);
        assemble_outcome(space, table, &networks, &memo, &best)
    }

    /// The winners of [`best_schedule_outcome`], with their exact scores.
    fn oracle_incumbents(
        space: &[AcceleratorConfig],
        table: &EnergyTable,
        networks: &[Network],
        memo: &LayerMemo,
    ) -> BestSoFar {
        let shapes = memo.unique_layers().len();
        let mult: Vec<Vec<f64>> = networks
            .iter()
            .enumerate()
            .map(|(ni, net)| {
                let mut row = vec![0.0; shapes];
                for li in 0..net.layers.len() {
                    row[memo.slot(ni, li)] += 1.0;
                }
                row
            })
            .collect();
        let mut best = BestSoFar::new(networks, shapes);
        for (idx, &config) in space.iter().enumerate() {
            let scores: Vec<f64> = best_schedule_ratios(config, table, memo)
                .into_iter()
                .map(f64::ln)
                .collect();
            for ei in 0..ENGINE_COUNT {
                let flat = idx * ENGINE_COUNT + ei;
                for si in 0..shapes {
                    let score = scores[si * ENGINE_COUNT + ei];
                    best.per_shape[si] = better(best.per_shape[si], (score, flat));
                }
                let mut global_log_sum = 0.0;
                for (ni, net) in networks.iter().enumerate() {
                    let mut net_log_sum = 0.0;
                    for si in 0..shapes {
                        let m = mult[ni][si];
                        if m > 0.0 {
                            net_log_sum += m * scores[si * ENGINE_COUNT + ei];
                        }
                    }
                    let net_geo = net_log_sum / net.layers.len() as f64;
                    best.per_network[ni] = better(best.per_network[ni], (net_geo, flat));
                    global_log_sum += net_log_sum;
                }
                let global_geo = global_log_sum / memo.total_layers() as f64;
                best.global = better(best.global, (global_geo, flat));
            }
        }
        best
    }

    #[test]
    fn filtered_incumbents_carry_the_exact_scores() {
        // The outcome holds only the winners; their scores, which the
        // filter compares against, must be the exact ones too.
        let table = EnergyTable::default();
        let networks: Vec<Network> = NetworkId::all().iter().map(|id| id.network()).collect();
        let memo = LayerMemo::for_networks(&networks);
        let space = pe_group_space();
        let mut best = BestSoFar::new(&networks, memo.unique_layers().len());
        for (idx, &config) in space.iter().enumerate() {
            sweep_config(&mut best, idx, config, &memo, &networks, &table);
        }
        let oracle = oracle_incumbents(&space, &table, &networks, &memo);
        let bits = |b: &BestSoFar| {
            let all = [b.global].into_iter().chain(b.per_network.iter().copied());
            all.chain(b.per_shape.iter().copied())
                .map(|(score, flat)| (score.to_bits(), flat))
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&best), bits(&oracle));
    }

    #[test]
    fn gpu_joules_per_mac_reflects_utilization() {
        let traffic = workloads::by_name("Traffic Monitoring").unwrap();
        let flood = workloads::by_name("Flood Detection").unwrap();
        // The nearly idle GPU wastes far more energy per useful MAC.
        assert!(gpu_joules_per_mac(&traffic) > 3.0 * gpu_joules_per_mac(&flood));
    }

    #[test]
    fn hostile_workload_is_rejected_not_propagated() {
        let mut w = workloads::by_name("Flood Detection").unwrap();
        w.utilization = 0.0;
        let err = try_gpu_joules_per_mac(&w).unwrap_err();
        assert!(err.violations()[0].path.contains("utilization"));
        assert!(gpu_joules_per_mac(&w).is_infinite(), "unchecked path: inf");
    }

    #[test]
    #[should_panic(expected = "design space must be non-empty")]
    fn empty_space_panics() {
        let _ = run_dse(&[], &EnergyTable::default());
    }

    #[test]
    fn try_run_dse_rejects_empty_and_malformed_spaces() {
        assert!(try_run_dse(&[], &EnergyTable::default()).is_err());
        let bad = AcceleratorConfig {
            psum_kib: 0,
            ..AcceleratorConfig::reference()
        };
        let err = try_run_dse(&[bad], &EnergyTable::default()).unwrap_err();
        assert!(err.violations()[0].path.contains("psum_kib"));
        let ok = try_run_dse(&[AcceleratorConfig::reference()], &EnergyTable::default());
        assert!(ok.is_ok());
    }

    #[test]
    fn sweep_matches_the_best_schedule_oracle_at_any_worker_count() {
        let space = pe_group_space();
        let table = EnergyTable::default();
        let oracle = best_schedule_outcome(&space, &table);
        let group = |i: usize| (space[i].pe_x, space[i].pe_y);
        for workers in [1usize, 2, 3, 8] {
            let bounds = sudc_par::chunk_bounds(space.len(), workers);
            let mid_group = bounds
                .iter()
                .skip(1)
                .any(|&(s, _)| group(s - 1) == group(s));
            assert!(
                workers == 1 || mid_group,
                "no chunk splits a group at {workers}"
            );
            let got = run_dse_threads(workers, &space, &table);
            assert_eq!(got, oracle, "workers={workers}");
        }
    }

    /// The exact side of [`approx_log_sum`]: `f64::ln` per value, weighted
    /// by its multiplicity and summed in order, as a geomean sums.
    fn exact_log_sum(terms: &[(f64, f64)]) -> f64 {
        terms.iter().fold(0.0, |sum, &(r, m)| sum + m * r.ln())
    }

    /// [`approx_log_sum`] over the same terms, each repeated by its
    /// multiplicity, as the sweep walks a network's layers.
    fn approx_of(terms: &[(f64, f64)]) -> f64 {
        let (mut exponents, mut mantissas, mut count) = (0.0, 1.0, 0.0);
        for &(r, m) in terms {
            let (e, mantissa) = split(r);
            for _ in 0..m as usize {
                exponents += e;
                mantissas *= mantissa;
                count += 1.0;
            }
        }
        approx_log_sum(exponents, mantissas, count)
    }

    #[test]
    fn approximate_log_sums_stay_within_their_bound() {
        const {
            assert!(
                LN_MARGIN >= 100.0 * LOG_SUM_BOUND,
                "margin under 100x the bound"
            )
        };
        let check = |terms: &[(f64, f64)]| {
            let count: f64 = terms.iter().map(|&(_, m)| m).sum();
            let err = (approx_of(terms) - exact_log_sum(terms)).abs() / count;
            assert!(err <= LOG_SUM_BOUND, "{terms:?}: error {err:e}");
        };
        // One term at both edges of the mantissa range and its midpoint,
        // at every normal exponent.
        let below_two = f64::from_bits(2f64.to_bits() - 1);
        for exponent in -1022..=1023 {
            for mantissa in [1.0, 1.5, below_two] {
                check(&[(mantissa * 2f64.powi(exponent), 1.0)]);
            }
        }
        // Up to 127 terms of up to 8 repeats each (at most 1 016 layers,
        // short of the 1 023 that could overflow the mantissa product),
        // spread over every normal exponent or crowded at either end.
        let mut rng = sudc_par::rng::Rng64::new(31);
        for case in 0..2_000 {
            let n = 1 + (rng.next_u64() % 127) as usize;
            let terms: Vec<(f64, f64)> = (0..n)
                .map(|_| {
                    let exponent = match case % 3 {
                        0 => (rng.next_u64() % 2046) as i32 - 1022,
                        1 => 1023 - (rng.next_u64() % 4) as i32,
                        _ => (rng.next_u64() % 4) as i32 - 1022,
                    };
                    let r = (1.0 + rng.next_f64()) * 2f64.powi(exponent);
                    (r, (1 + rng.next_u64() % 8) as f64)
                })
                .collect();
            check(&terms);
        }
    }

    #[test]
    fn ties_take_the_exact_path() {
        for s in [-745.0, -1.0, 0.0, 25.0, 709.0] {
            assert!(!ruled_out(s, s), "an exact tie at {s} is skipped");
            let near = s - LN_MARGIN / 2.0;
            assert!(!ruled_out(near, s), "a near-tie at {s} is skipped");
        }
        for r in [f64::MIN_POSITIVE, 1.0, 3.2e11, f64::MAX] {
            assert!(
                !below_floor(&[r], shape_floor(r)),
                "{r} ties and is skipped"
            );
        }
        // Every config twice in a row, then the whole space again: each
        // later copy ties its first exactly and must lose to it.
        let base = pe_group_space();
        let mut space: Vec<AcceleratorConfig> = base.iter().flat_map(|&c| [c, c]).collect();
        space.extend(&base);
        let table = EnergyTable::default();
        let oracle = best_schedule_outcome(&space, &table);
        for workers in [1usize, 2, 3, 8] {
            let got = run_dse_threads(workers, &space, &table);
            assert_eq!(got, oracle, "workers={workers}");
        }
    }

    #[test]
    fn non_normal_efficiencies_take_the_exact_path() {
        let subnormal = f64::MIN_POSITIVE / 2.0;
        let hostile = [
            0.0,
            -0.0,
            5e-324,
            subnormal,
            f64::INFINITY,
            -f64::INFINITY,
            f64::NAN,
            -1.0,
        ];
        for r in hostile {
            for floor in [1e300, f64::MAX, f64::INFINITY] {
                assert!(!below_floor(&[1.0, r], floor), "{r} skipped below {floor}");
            }
            let (e, m) = split(r);
            assert!(m.is_nan(), "{r} splits to a mantissa {m}");
            let (e1, m1) = split(3.2e11);
            let approx = approx_log_sum(e + e1, m * m1, 2.0);
            for best in [f64::NEG_INFINITY, -745.0, 25.0, 1e300, f64::INFINITY] {
                assert!(!ruled_out(approx / 2.0, best), "{r} skipped against {best}");
            }
        }
        for r in [f64::MIN_POSITIVE, 1.0, f64::MAX] {
            assert!(!split(r).1.is_nan(), "{r} is positive, normal and finite");
        }
        // A free design makes every efficiency infinite.
        let free = EnergyTable {
            mac_pj: 0.0,
            rf_pj: 0.0,
            noc_pj: 0.0,
            glb_base_pj: 0.0,
            dram_pj: 0.0,
            static_pe_pj: 0.0,
            static_sram_pj_per_kib: 0.0,
            system_static_pj: 0.0,
            ..EnergyTable::default()
        };
        let space = &pe_group_space()[..6];
        let networks: Vec<Network> = NetworkId::all().iter().map(|id| id.network()).collect();
        let memo = LayerMemo::for_networks(&networks);
        let ratios = best_schedule_ratios(space[0], &free, &memo);
        assert!(ratios.iter().all(|r| *r == f64::INFINITY));
        let oracle = best_schedule_outcome(space, &free);
        for workers in [1usize, 3] {
            assert_eq!(
                run_dse_threads(workers, space, &free),
                oracle,
                "workers={workers}"
            );
        }
    }

    /// FNV-1a 64 of the full 7 168-config sweep's `{:?}` dump (108 749
    /// bytes). The only check that sees the full space's bits: stackbench
    /// rounds its digest to 0.1, and the oracle test above sweeps 34
    /// configs.
    const FULL_SWEEP_DIGEST: u64 = 0x87ac_526c_0a50_174c;

    #[test]
    #[cfg_attr(debug_assertions, ignore = "full sweep; runs in the release Test step")]
    fn full_sweep_outcome_is_pinned() {
        let space = design_space();
        let table = EnergyTable::default();
        for workers in [1usize, 3] {
            let dump = format!("{:?}", run_dse_threads(workers, &space, &table));
            let mut h = sudc_par::Fnv1a::new();
            h.write_bytes(dump.as_bytes());
            assert_eq!(
                (h.finish(), dump.len()),
                (FULL_SWEEP_DIGEST, 108_749),
                "workers={workers}: {:016x}",
                h.finish()
            );
        }
    }

    #[test]
    fn single_config_space_selects_that_config_everywhere() {
        let space = vec![AcceleratorConfig::reference()];
        let out = run_dse(&space, &EnergyTable::default());
        assert_eq!(out.global_best, space[0]);
        for n in &out.networks {
            assert_eq!(n.best_config, space[0]);
            for w in &n.per_layer_winners {
                assert_eq!(w.config, space[0]);
            }
        }
    }
}
