//! Repeatability and serialization: identical configurations must produce
//! bit-identical reports (the engine is deterministic by construction), and
//! every public result type must round-trip through serde for the bench
//! harness result files.

use dpml::core::algorithms::{Algorithm, FlatAlg};
use dpml::core::run::{run, Exec, Scenario};
use dpml::engine::RunReport;
use dpml::fabric::presets::{cluster_a, cluster_c};

fn run_once(alg: Algorithm, bytes: u64) -> dpml::core::run::AllreduceReport {
    let p = cluster_c();
    let spec = p.spec(4, 8).unwrap();
    run(&Scenario::new(&p, &spec, alg, bytes), &Exec::default()).unwrap()
}

#[test]
fn repeated_runs_are_bit_identical() {
    for alg in [
        Algorithm::Ring,
        Algorithm::Dpml {
            leaders: 4,
            inner: FlatAlg::Rabenseifner,
        },
        Algorithm::DpmlPipelined {
            leaders: 8,
            chunks: 4,
        },
    ] {
        let a = run_once(alg, 100_000);
        let b = run_once(alg, 100_000);
        assert_eq!(a.latency_us, b.latency_us, "{}", alg.name());
        assert_eq!(a.report, b.report, "{}", alg.name());
    }
}

#[test]
fn sharp_runs_are_deterministic_too() {
    let p = cluster_a();
    let spec = p.spec(8, 28).unwrap();
    let scenario = Scenario::new(&p, &spec, Algorithm::SharpSocketLeader, 1024);
    let a = run(&scenario, &Exec::default()).unwrap();
    let b = run(&scenario, &Exec::default()).unwrap();
    assert_eq!(a.report, b.report);
}

#[test]
fn run_report_serde_round_trip() {
    let rep = run_once(Algorithm::Ring, 4096);
    let json = serde_json::to_string(&rep.report).expect("serialize");
    let back: RunReport = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(rep.report, back);
}

#[test]
fn fabric_serde_round_trip() {
    // `Preset::id` is a &'static str (not deserializable from owned JSON);
    // the speed model itself must round-trip for result files.
    for preset in dpml::fabric::presets::all_presets() {
        let json = serde_json::to_string(&preset.fabric).expect("serialize");
        let back: dpml::fabric::Fabric = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(preset.fabric, back);
    }
}

#[test]
fn algorithm_serde_round_trip() {
    let algs = vec![
        Algorithm::RecursiveDoubling,
        Algorithm::Dpml {
            leaders: 16,
            inner: FlatAlg::Ring,
        },
        Algorithm::DpmlPipelined {
            leaders: 8,
            chunks: 4,
        },
        Algorithm::SharpSocketLeader,
    ];
    let json = serde_json::to_string(&algs).expect("serialize");
    let back: Vec<Algorithm> = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(algs, back);
}

#[test]
fn world_program_serde_round_trip() {
    use dpml::topology::{ClusterSpec, RankMap};
    let spec = ClusterSpec::new(2, 1, 4, 2).unwrap();
    let map = RankMap::block(&spec);
    let w = Algorithm::Ring.build(&map, 1000).unwrap();
    let json = serde_json::to_string(&w).expect("serialize");
    let back: dpml::engine::WorldProgram = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(w, back);
}

#[test]
fn parallel_sweep_matches_serial_byte_for_byte() {
    // The scenario-parallel sweep runner must leak no thread-schedule
    // dependence into results: the same seeded faulty matrix run through
    // the parallel runner twice and through the single-threaded reference
    // must serialize to byte-identical JSON. Each scenario gets its RNG
    // stream from (base_seed, index) only, and results collect in input
    // order regardless of completion order.
    use dpml::core::integrity::{run_allreduce_verified, IntegrityPolicy};
    use dpml::faults::{DataFaults, FaultPlan};
    use dpml_bench::{sweep_seeded, sweep_serial};

    let preset = cluster_c();
    let spec = preset.spec(2, 4).unwrap();
    let algs = [
        Algorithm::Ring,
        Algorithm::Dpml {
            leaders: 2,
            inner: FlatAlg::RecursiveDoubling,
        },
        Algorithm::DpmlPipelined {
            leaders: 2,
            chunks: 2,
        },
    ];
    // Six scenarios: each algorithm twice, under different derived streams.
    let scenarios: Vec<Algorithm> = algs.iter().cycle().take(6).copied().collect();
    let run = |alg: Algorithm, seed: u64| {
        let plan = FaultPlan {
            seed,
            data: DataFaults {
                max_retransmits: 64,
                ..DataFaults::wire(0.02, 0.01)
            },
            ..FaultPlan::canonical(seed, 0.5)
        };
        let rep = run_allreduce_verified(
            &preset,
            &spec,
            alg,
            16_384,
            &plan,
            IntegrityPolicy::default(),
        )
        .expect("verified faulty run");
        serde_json::to_string(&rep).expect("serialize")
    };
    let par1 = sweep_seeded(0xD5, scenarios.clone(), run);
    let par2 = sweep_seeded(0xD5, scenarios.clone(), run);
    let serial = sweep_serial(0xD5, scenarios, run);
    assert_eq!(par1, par2, "two parallel sweeps diverged");
    assert_eq!(par1, serial, "parallel sweep differs from serial reference");
}
