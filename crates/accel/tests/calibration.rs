#[test]
#[ignore]
fn calibration_breakdown() {
    use sudc_accel::dataflow::{count_accesses_mapped, energy_terms};
    use sudc_accel::mapping::best_schedule;
    use sudc_accel::{AcceleratorConfig, Mapping};

    let table = sudc_accel::energy::EnergyTable::default();
    let out = sudc_accel::dse::run_full_dse();

    let terms = |config: AcceleratorConfig, mapping: Mapping, layer: &_| -> [f64; 6] {
        let glb_pj = table.glb_access_pj(f64::from(config.total_buffer_kib()));
        let c = count_accesses_mapped(config, layer, mapping);
        let t = energy_terms(config, &table, glb_pj, &c);
        [t.mac, t.rf, t.noc, t.glb, t.dram, t.leak]
    };

    let names = ["mac", "rf", "noc", "glb", "dram", "leak"];
    for n in &out.networks {
        let mut glob = [0.0; 6];
        let mut per_layer = [0.0; 6];
        let net = n.network.network();
        for (layer, w) in net.layers.iter().zip(&n.per_layer_winners) {
            let gcfg = out.global_best;
            let gch = best_schedule(gcfg, &table, layer, out.global_engine);
            let gmap = Mapping {
                engine: out.global_engine,
                schedule: gch.schedule,
            };
            for (a, t) in glob.iter_mut().zip(terms(gcfg, gmap, layer)) {
                *a += t;
            }
            let bmap = Mapping {
                engine: w.engine,
                schedule: w.schedule,
            };
            for (a, t) in per_layer.iter_mut().zip(terms(w.config, bmap, layer)) {
                *a += t;
            }
        }
        let gt: f64 = glob.iter().sum();
        let pt: f64 = per_layer.iter().sum();
        println!("== {:20} ratio {:.3}", n.network.to_string(), gt / pt);
        for i in 0..6 {
            println!(
                "  {:6} glob {:10.4} mJ {:5.1}%   best {:10.4} mJ {:5.1}%",
                names[i],
                glob[i] * 1e-9,
                100.0 * glob[i] / gt,
                per_layer[i] * 1e-9,
                100.0 * per_layer[i] / pt
            );
        }
    }
}

#[test]
#[ignore]
fn calibration_print() {
    let out = sudc_accel::dse::run_full_dse();
    use sudc_accel::dse::SystemArchitecture as SA;
    println!("global best: {} [{}]", out.global_best, out.global_engine);
    let mut engine_counts = std::collections::BTreeMap::new();
    for n in &out.networks {
        for w in &n.per_layer_winners {
            *engine_counts.entry(w.engine.to_string()).or_insert(0u32) += 1;
        }
    }
    println!("per-layer engine winners: {engine_counts:?}");
    println!(
        "global   improvement: {:.1}x",
        out.mean_improvement(SA::GlobalAccelerator)
    );
    println!(
        "per-net  improvement: {:.1}x",
        out.mean_improvement(SA::PerNetworkAccelerator)
    );
    println!(
        "per-layer improvement: {:.1}x",
        out.mean_improvement(SA::PerLayerAccelerator)
    );
    for n in &out.networks {
        println!("  {:20} gpu {:.3} J  glob {:.4} J  pernet {:.4} J  perlayer {:.4} J  (impr {:.0}/{:.0}/{:.0})",
            n.network.to_string(), n.gpu_energy.value(), n.global_energy.value(),
            n.per_network_energy.value(), n.per_layer_energy.value(),
            n.improvement(SA::GlobalAccelerator), n.improvement(SA::PerNetworkAccelerator),
            n.improvement(SA::PerLayerAccelerator));
    }
}
