//! Integration tests for the toolkit's extension results (EXPERIMENTS.md's
//! "Extensions" table).

use space_udc::accel::dse::{run_dse, SystemArchitecture};
use space_udc::accel::energy::EnergyTable;
use space_udc::compute::precision::Precision;
use space_udc::compute::workloads;
use space_udc::constellation::packing::pack_fleet;
use space_udc::constellation::EoConstellation;
use space_udc::core::analysis::tradespace::{paper_architectures, pareto_front, sweep};
use space_udc::reliability::availability::DEFAULT_MC_SEED;
use space_udc::reliability::mission::{try_simulate, MissionConfig, SparingPolicy};
use space_udc::reliability::weibull::WeibullLifetime;
use space_udc::units::Watts;

/// Ext: the concurrent ten-application suite packs into far fewer SµDCs
/// than per-application sizing suggests.
#[test]
fn concurrent_packing_beats_per_app_sizing() {
    let constellation = EoConstellation::reference(64);
    let suite = workloads::suite();
    let packing = pack_fleet(&constellation, &suite, Watts::from_kilowatts(4.0));
    let per_app_total: u32 = suite.iter().map(|w| w.sudcs_for_64_sats).sum();
    // Strictly fewer than half, without integer-division truncation on the
    // right-hand side (13 / 2 == 6 would reject a genuine 6-vs-13 packing).
    assert!(packing.sudcs * 2 < per_app_total as usize);
    assert!(packing.utilization() > 0.8);
}

/// Ext: precision scaling of the DSE — lower precision means larger
/// accelerator gains, monotonically.
#[test]
fn dse_gains_grow_as_precision_drops() {
    let space: Vec<_> = space_udc::accel::design::design_space()
        .into_iter()
        .step_by(64)
        .collect();
    let gains: Vec<f64> = Precision::all()
        .into_iter()
        .map(|p| {
            run_dse(&space, &EnergyTable::default().for_precision(p))
                .mean_improvement(SystemArchitecture::GlobalAccelerator)
        })
        .collect();
    // Precision::all() is ordered FP32, TF32, FP16, INT8.
    for pair in gains.windows(2) {
        assert!(pair[1] > pair[0], "gains {gains:?}");
    }
}

/// Ext: cold sparing strictly dominates hot sparing over the full
/// overprovisioning range.
#[test]
fn cold_sparing_dominates_hot_sparing() {
    for nodes in [15u32, 20, 30] {
        let hot = try_simulate(
            MissionConfig {
                nodes,
                required: 10,
                duration: 1.0,
                policy: SparingPolicy::Hot,
            },
            15_000,
            DEFAULT_MC_SEED,
        )
        .unwrap();
        let cold = try_simulate(
            MissionConfig {
                nodes,
                required: 10,
                duration: 1.0,
                policy: SparingPolicy::Cold { dormant_aging: 0.1 },
            },
            15_000,
            DEFAULT_MC_SEED,
        )
        .unwrap();
        assert!(
            cold.full_capability_probability >= hot.full_capability_probability,
            "n={nodes}"
        );
    }
}

/// Ext: the overprovisioning conclusion survives non-exponential lifetimes.
#[test]
fn overprovisioning_robust_to_lifetime_shape() {
    for shape in [0.7, 1.0, 2.0, 4.0] {
        let w = WeibullLifetime::try_with_unit_mean(shape).unwrap();
        for t in [0.25, 0.5, 1.0] {
            assert!(
                w.try_availability(30, 10, t).unwrap() > w.try_availability(10, 10, t).unwrap(),
                "shape {shape}, t {t}"
            );
        }
    }
}

/// Ext: on the power × architecture Pareto front, heterogeneous payloads
/// deliver the most throughput per TCO dollar.
#[test]
fn pareto_front_is_accelerated() {
    let powers: Vec<Watts> = [1.0, 4.0, 10.0]
        .iter()
        .map(|&k| Watts::from_kilowatts(k))
        .collect();
    let points = sweep(&powers, &paper_architectures()).unwrap();
    let front = pareto_front(&points);
    let best = front
        .iter()
        .max_by(|a, b| {
            a.watts_per_musd
                .partial_cmp(&b.watts_per_musd)
                .expect("finite")
        })
        .unwrap();
    assert!(
        best.architecture.contains("accelerator"),
        "{}",
        best.architecture
    );
}

/// Ext: beta-angle eclipse modeling — a dawn-dusk constellation would
/// shrink the power subsystem relative to the worst case the TCO model
/// conservatively assumes.
#[test]
fn dawn_dusk_orbits_reduce_the_eclipse_penalty() {
    use space_udc::orbital::CircularOrbit;
    let orbit = CircularOrbit::reference_leo();
    let worst = orbit.eclipse_fraction();
    let mid_beta = orbit.eclipse_fraction_at_beta(40f64.to_radians());
    let dawn_dusk = orbit.eclipse_fraction_at_beta(80f64.to_radians());
    assert!(worst > mid_beta && mid_beta > dawn_dusk);
    assert_eq!(dawn_dusk, 0.0);
}
