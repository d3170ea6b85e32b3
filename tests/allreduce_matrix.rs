//! Cross-crate integration: every algorithm, on every cluster preset, over
//! a matrix of shapes and sizes — each run simulated and *proven* correct
//! by the engine's symbolic coverage verification.

use dpml::core::algorithms::{Algorithm, FlatAlg};
use dpml::core::run::{run, Exec, Scenario};
use dpml::fabric::presets::{all_presets, cluster_a, cluster_b};

fn algorithms_for(sharp: bool, ppn: u32) -> Vec<Algorithm> {
    let mut algs = vec![
        Algorithm::RecursiveDoubling,
        Algorithm::Rabenseifner,
        Algorithm::Ring,
        Algorithm::BinomialReduceBcast,
        Algorithm::SingleLeader {
            inner: FlatAlg::RecursiveDoubling,
        },
        Algorithm::SingleLeader {
            inner: FlatAlg::Rabenseifner,
        },
        Algorithm::Dpml {
            leaders: 1,
            inner: FlatAlg::RecursiveDoubling,
        },
        Algorithm::Dpml {
            leaders: 2.min(ppn),
            inner: FlatAlg::Rabenseifner,
        },
        Algorithm::Dpml {
            leaders: 4.min(ppn),
            inner: FlatAlg::Ring,
        },
        Algorithm::DpmlPipelined {
            leaders: 2.min(ppn),
            chunks: 3,
        },
    ];
    if sharp {
        algs.push(Algorithm::SharpNodeLeader);
        algs.push(Algorithm::SharpSocketLeader);
    }
    algs
}

#[test]
fn every_algorithm_verifies_on_every_preset() {
    for preset in all_presets() {
        let spec = preset.spec(4, 4).expect("4x4 spec");
        for alg in algorithms_for(preset.fabric.has_sharp(), spec.ppn) {
            let rep = run(&Scenario::new(&preset, &spec, alg, 6000), &Exec::default())
                .unwrap_or_else(|e| panic!("{} {}: {e}", preset.id, alg.name()));
            assert!(rep.latency_us > 0.0);
        }
    }
}

#[test]
fn awkward_shapes_verify() {
    // Non-power-of-two nodes, odd ppn, vector not divisible by anything.
    let preset = cluster_b();
    for (nodes, ppn) in [(3u32, 5u32), (5, 3), (7, 1), (1, 7), (6, 6)] {
        let spec = preset.spec(nodes, ppn).expect("spec");
        for alg in algorithms_for(false, ppn) {
            run(&Scenario::new(&preset, &spec, alg, 997), &Exec::default())
                .unwrap_or_else(|e| panic!("{nodes}x{ppn} {}: {e}", alg.name()));
        }
    }
}

#[test]
fn tiny_vectors_verify() {
    let preset = cluster_b();
    let spec = preset.spec(4, 8).expect("spec");
    for bytes in [1u64, 2, 3, 7, 8] {
        for alg in algorithms_for(false, 8) {
            run(&Scenario::new(&preset, &spec, alg, bytes), &Exec::default())
                .unwrap_or_else(|e| panic!("{bytes}B {}: {e}", alg.name()));
        }
    }
}

#[test]
fn sharp_designs_verify_across_shapes() {
    let preset = cluster_a();
    for (nodes, ppn) in [(2u32, 1u32), (16, 1), (4, 4), (8, 28), (3, 5)] {
        let spec = preset.spec(nodes, ppn).expect("spec");
        for alg in [Algorithm::SharpNodeLeader, Algorithm::SharpSocketLeader] {
            run(&Scenario::new(&preset, &spec, alg, 512), &Exec::default())
                .unwrap_or_else(|e| panic!("{nodes}x{ppn} {}: {e}", alg.name()));
        }
    }
}

#[test]
fn paper_scale_shapes_verify() {
    // The exact shapes behind Figs. 4 and 7 (at reduced node counts the
    // figures' harnesses override).
    let a = cluster_a();
    let spec = a.default_spec(16).expect("16x28");
    run(
        &Scenario::new(
            &a,
            &spec,
            Algorithm::Dpml {
                leaders: 16,
                inner: FlatAlg::RecursiveDoubling,
            },
            512 * 1024,
        ),
        &Exec::default(),
    )
    .expect("fig4 point");

    let d = dpml::fabric::presets::cluster_d();
    let spec = d.default_spec(8).expect("8x32");
    run(
        &Scenario::new(
            &d,
            &spec,
            Algorithm::DpmlPipelined {
                leaders: 16,
                chunks: 8,
            },
            1 << 20,
        ),
        &Exec::default(),
    )
    .expect("fig7 point");
}
