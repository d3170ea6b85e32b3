//! The paper's central experiment in miniature: how the leader count `l`
//! shapes allreduce latency, simulated and analytic side by side.
//!
//! Run with: `cargo run --release --example leader_sweep`

use dpml::core::algorithms::{Algorithm, FlatAlg};
use dpml::core::run::{run, Exec, Scenario};
use dpml::fabric::presets::cluster_b;
use dpml::model::{best_leader_count, CostParams};

fn main() {
    let preset = cluster_b();
    let spec = preset.default_spec(16).expect("cluster spec");
    println!(
        "leader sweep on {} ({} ranks)\n",
        preset.fabric.name,
        spec.world_size()
    );

    for bytes in [512u64, 16 * 1024, 512 * 1024] {
        println!("message size: {bytes} bytes");
        println!(
            "{:>8} {:>14} {:>14}",
            "leaders", "simulated (us)", "model Eq.7 (us)"
        );
        let mut best = (0u32, f64::INFINITY);
        for l in [1u32, 2, 4, 8, 16] {
            let alg = Algorithm::Dpml {
                leaders: l,
                inner: FlatAlg::RecursiveDoubling,
            };
            let sim = run(&Scenario::new(&preset, &spec, alg, bytes), &Exec::default())
                .expect("verified run")
                .latency_us;
            let model =
                CostParams::from_fabric(&preset.fabric, &spec, l, bytes, 1).t_allreduce() * 1e6;
            println!("{l:>8} {sim:>14.1} {model:>14.1}");
            if sim < best.1 {
                best = (l, sim);
            }
        }
        let cp = CostParams::from_fabric(&preset.fabric, &spec, 1, bytes, 1);
        println!(
            "  → simulated best: l={}, model (Section 5) predicts: l={}\n",
            best.0,
            best_leader_count(&cp)
        );
    }
}
