//! Property-based schedule validation: arbitrary (cluster shape, leader
//! count, message size, algorithm) tuples must compile, simulate without
//! deadlock, and pass coverage verification. This is the broadest net for
//! schedule bugs (missing waits, wrong partitions, tag collisions).

use dpml_core::algorithms::{Algorithm, FlatAlg};
use dpml_core::run::{run, Exec, Scenario};
use dpml_fabric::presets::{cluster_a, cluster_b, cluster_d};
use proptest::prelude::*;

/// Deterministic algorithm pick from small integers (keeps shrinking
/// simple and cases readable).
fn pick_algorithm(alg_pick: usize, flat_pick: usize, leaders: u32, chunks: u32) -> Algorithm {
    let inner = match flat_pick % 3 {
        0 => FlatAlg::RecursiveDoubling,
        1 => FlatAlg::Rabenseifner,
        _ => FlatAlg::Ring,
    };
    match alg_pick % 7 {
        0 => Algorithm::RecursiveDoubling,
        1 => Algorithm::Rabenseifner,
        2 => Algorithm::Ring,
        3 => Algorithm::BinomialReduceBcast,
        4 => Algorithm::SingleLeader { inner },
        5 => Algorithm::Dpml { leaders, inner },
        _ => Algorithm::DpmlPipelined { leaders, chunks },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_schedule_verifies_on_ib(
        nodes in 1u32..7,
        ppn in 1u32..7,
        bytes in 1u64..20_000,
        alg_pick in 0usize..7,
        flat_pick in 0usize..3,
        l_seed in 0u32..8,
        k in 1u32..6,
    ) {
        let preset = cluster_b();
        let spec = preset.spec(nodes, ppn).expect("spec");
        let alg = pick_algorithm(alg_pick, flat_pick, 1 + l_seed % ppn, k);
        let rep = run(&Scenario::new(&preset, &spec, alg, bytes), &Exec::default())
            .unwrap_or_else(|e| panic!("{nodes}x{ppn} {bytes}B {}: {e}", alg.name()));
        prop_assert!(rep.latency_us > 0.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_shapes_all_algorithms_knl(
        nodes in 1u32..5,
        ppn in 1u32..9,
        bytes in 1u64..10_000,
        alg_pick in 0usize..7,
        l_seed in 0u32..8,
        k in 1u32..5,
    ) {
        let preset = cluster_d();
        let spec = preset.spec(nodes, ppn).expect("spec");
        let leaders = 1 + l_seed % ppn;
        let alg = match alg_pick {
            0 => Algorithm::RecursiveDoubling,
            1 => Algorithm::Rabenseifner,
            2 => Algorithm::Ring,
            3 => Algorithm::BinomialReduceBcast,
            4 => Algorithm::SingleLeader { inner: FlatAlg::Rabenseifner },
            5 => Algorithm::Dpml { leaders, inner: FlatAlg::RecursiveDoubling },
            _ => Algorithm::DpmlPipelined { leaders, chunks: k },
        };
        run(&Scenario::new(&preset, &spec, alg, bytes), &Exec::default())
            .unwrap_or_else(|e| panic!("{nodes}x{ppn} {bytes}B {}: {e}", alg.name()));
    }

    #[test]
    fn random_sharp_shapes(
        nodes in 1u32..6,
        ppn in 1u32..9,
        bytes in 1u64..4_000,
        socket_level in proptest::bool::ANY,
    ) {
        let preset = cluster_a();
        let spec = preset.spec(nodes, ppn).expect("spec");
        let alg = if socket_level {
            Algorithm::SharpSocketLeader
        } else {
            Algorithm::SharpNodeLeader
        };
        run(&Scenario::new(&preset, &spec, alg, bytes), &Exec::default())
            .unwrap_or_else(|e| panic!("{nodes}x{ppn} {bytes}B {}: {e}", alg.name()));
    }
}
