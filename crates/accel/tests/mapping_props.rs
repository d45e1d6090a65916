//! Property tests for the per-layer mapping search.
//!
//! Two invariants hold the search to the pre-search model and to the
//! unfactored cost formula:
//!
//! 1. **Search dominates the fixed dataflows.** The canonical RS and WS
//!    mappings are exact points of the searched space, so the best searched
//!    mapping can never cost more than either — on any layer of any
//!    Table III network, at any design point.
//! 2. **The factored cost model is the unfactored one.** The search costs
//!    each term once at the level of the axis it depends on (shape,
//!    `(config, shape)`, PE group and engine, tile), and sums each tile's
//!    `mac + rf + noc + glb` prefix once for both loop orders. The
//!    unfactored formula is kept below, verbatim, as an oracle: access
//!    counts, energies and search winners must match it bit for bit.
//!
//! Case counts honour `SUDC_PROPTEST_CASES` (see `.github/workflows/ci.yml`).

use proptest::prelude::*;
use sudc_accel::dataflow::{
    count_accesses_mapped, count_accesses_with, picojoules_of, AccessCounts, Dataflow,
};
use sudc_accel::design::{design_space, AcceleratorConfig};
use sudc_accel::energy::EnergyTable;
use sudc_accel::mapping::{best_schedule, schedule_candidates, LoopOrder};
use sudc_accel::{Engine, Mapping, Schedule};
use sudc_compute::networks::{Layer, NetworkId};

/// Bytes per activation/weight word (16-bit).
const WORD_BYTES: f64 = 2.0;
/// Bytes per partial sum (32-bit accumulator).
const PSUM_BYTES: f64 = 4.0;

/// The unfactored access counting, verbatim: every term recomputed per
/// call.
fn oracle_counts(config: AcceleratorConfig, layer: &Layer, mapping: Mapping) -> AccessCounts {
    let macs = layer.macs() as f64;
    let k = f64::from(layer.kernel).max(1.0);
    let out_w = f64::from(layer.output_w()).max(1.0);
    let out_h = f64::from(layer.output_h()).max(1.0);
    let out_c = f64::from(layer.out_channels).max(1.0);
    let (m_par, row_par) = mapping.engine.spatial.parallelism(config, out_c, out_h);
    let utilization = (m_par * row_par) / f64::from(config.pes());
    let rf_accesses = 3.0 * macs;
    let t_eff = f64::from(mapping.schedule.ow_tile).min(out_w);
    let tile_w = out_w / t_eff;
    let (glb_ifmap, glb_weight) = match mapping.engine.dataflow {
        Dataflow::RowStationary => (macs / (m_par * k), macs / (row_par * tile_w)),
        Dataflow::WeightStationary => {
            let weights = layer.weights() as f64;
            let halo = 1.0 + (t_eff - 1.0) * (k - 1.0) / out_w;
            ((macs / m_par) * halo, weights)
        }
    };
    let psum_working_set = tile_w * m_par * PSUM_BYTES;
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
    let refetch = match mapping.schedule.order {
        LoopOrder::WeightsOuter => ifmap_bytes * (weight_passes - 1.0),
        LoopOrder::IfmapOuter => weight_bytes * (ifmap_passes - 1.0),
    };
    let dram_bytes = ifmap_bytes + weight_bytes + output_bytes + refetch;
    let dram_words = dram_bytes / WORD_BYTES;
    let dram_refetch_words = refetch / WORD_BYTES;
    let cycles = macs / (m_par * row_par);
    AccessCounts {
        macs,
        rf_accesses,
        noc_transfers,
        glb_accesses,
        dram_words,
        dram_refetch_words,
        cycles,
        utilization,
    }
}

/// The unfactored energy formula, verbatim.
fn oracle_picojoules(
    config: AcceleratorConfig,
    table: &EnergyTable,
    glb_pj: f64,
    c: &AccessCounts,
) -> f64 {
    let wire_scale = f64::from(config.pe_x.max(config.pe_y)) / 16.0;
    let dram_eff = table.dram_effective_words(c.dram_words, c.dram_refetch_words);
    let wall_cycles = c.cycles.max(dram_eff / table.dram_words_per_cycle);
    c.macs * table.mac_pj
        + c.rf_accesses * table.rf_pj
        + c.noc_transfers * table.noc_pj * wire_scale
        + c.glb_accesses * glb_pj
        + dram_eff * table.dram_pj
        + wall_cycles
            * table.leakage_pj_per_cycle(
                f64::from(config.pes()),
                f64::from(config.total_buffer_kib()),
            )
}

/// Bit patterns of every field, so `-0.0`/`0.0` or NaN payloads cannot hide
/// a difference behind `PartialEq`.
fn count_bits(c: &AccessCounts) -> [u64; 8] {
    [
        c.macs,
        c.rf_accesses,
        c.noc_transfers,
        c.glb_accesses,
        c.dram_words,
        c.dram_refetch_words,
        c.cycles,
        c.utilization,
    ]
    .map(f64::to_bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_env_cases(32))]

    /// Invariant 1: on every layer of every Table III network, the searched
    /// best mapping is at least as cheap as both canonical dataflows (the
    /// two points the pre-search model hardwired).
    #[test]
    fn searched_best_dominates_both_fixed_dataflows(
        config_idx in 0usize..7168, net_idx in 0usize..10,
    ) {
        let table = EnergyTable::default();
        let space = design_space();
        let config = space[config_idx % space.len()];
        let network = NetworkId::all()[net_idx % NetworkId::all().len()].network();
        let glb_pj = table.glb_access_pj(f64::from(config.total_buffer_kib()));
        for layer in &network.layers {
            let (best, _) = sudc_accel::mapping::best_mapping_energy(config, &table, layer);
            for dataflow in Dataflow::all() {
                let c = count_accesses_with(config, layer, dataflow);
                let fixed = picojoules_of(config, &table, glb_pj, &c) * 1e-12;
                prop_assert!(
                    best.value() <= fixed,
                    "search lost to fixed {dataflow:?} on {config}: {} > {fixed}",
                    best.value()
                );
            }
        }
    }

    /// Invariant 2: on every layer of a sampled network, the factored
    /// counts and energy of a sampled mapping equal the oracle's bit for
    /// bit, and the search (which costs candidates from hoisted pieces)
    /// picks the oracle's winner with the oracle's energy bits.
    #[test]
    fn factored_cost_model_matches_the_unfactored_oracle(
        config_idx in 0usize..7168, net_idx in 0usize..10,
        engine_idx in 0usize..6, schedule_idx in 0usize..8,
    ) {
        let table = EnergyTable::default();
        let space = design_space();
        let config = space[config_idx % space.len()];
        let network = NetworkId::all()[net_idx % NetworkId::all().len()].network();
        let engine = Engine::all()[engine_idx];
        let mapping = Mapping { engine, schedule: Schedule::all()[schedule_idx] };
        let glb_pj = table.glb_access_pj(f64::from(config.total_buffer_kib()));
        for layer in &network.layers {
            let oracle = oracle_counts(config, layer, mapping);
            let factored = count_accesses_mapped(config, layer, mapping);
            prop_assert_eq!(count_bits(&factored), count_bits(&oracle));
            prop_assert_eq!(
                picojoules_of(config, &table, glb_pj, &factored).to_bits(),
                oracle_picojoules(config, &table, glb_pj, &oracle).to_bits()
            );

            let mut best: Option<(Schedule, f64)> = None;
            for schedule in schedule_candidates(layer) {
                let c = oracle_counts(config, layer, Mapping { engine, schedule });
                let pj = oracle_picojoules(config, &table, glb_pj, &c);
                if best.is_none_or(|(_, b)| pj < b) {
                    best = Some((schedule, pj));
                }
            }
            let (schedule, pj) = best.expect("candidates are never empty");
            let searched = best_schedule(config, &table, layer, engine);
            prop_assert_eq!(searched.schedule, schedule);
            prop_assert_eq!(searched.picojoules.to_bits(), pj.to_bits());
        }
    }
}
