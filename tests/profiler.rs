//! Critical-path profiler integration: attribution must tile the makespan
//! exactly, phase tagging must cover every span the allreduce matrix
//! emits, and the Zone A/B/C classifier must reproduce the Figure 1
//! regimes of the paper's Section 4.2.

use dpml::core::algorithms::{Algorithm, FlatAlg};
use dpml::core::profile::profile_allreduce;
use dpml::core::run::Scenario;
use dpml::engine::Zone;
use dpml::fabric::presets::{all_presets, cluster_c};
use dpml_bench::microbench::{multi_pair_critical_path, PairPlacement};

fn algorithms_for(sharp: bool, ppn: u32) -> Vec<Algorithm> {
    let mut algs = vec![
        Algorithm::RecursiveDoubling,
        Algorithm::Rabenseifner,
        Algorithm::Ring,
        Algorithm::BinomialReduceBcast,
        Algorithm::SingleLeader {
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

/// The attributed critical path must sum to the makespan to 1e-9 s for
/// every algorithm on every preset.
#[test]
fn attribution_tiles_the_makespan_for_every_algorithm() {
    for preset in all_presets() {
        let spec = preset.spec(4, 4).expect("4x4 spec");
        for alg in algorithms_for(preset.fabric.has_sharp(), spec.ppn) {
            let run = profile_allreduce(&Scenario::new(&preset, &spec, alg, 6000))
                .unwrap_or_else(|e| panic!("{} {}: {e}", preset.id, alg.name()));
            let makespan = run.report.makespan().seconds();
            assert!(
                (run.critical.total() - makespan).abs() < 1e-9,
                "{} {}: critical {} != makespan {}",
                preset.id,
                alg.name(),
                run.critical.total(),
                makespan
            );
        }
    }
}

/// Every span the allreduce matrix emits must carry a real phase label.
#[test]
fn no_unknown_phase_spans_across_the_matrix() {
    for preset in all_presets() {
        let spec = preset.spec(4, 4).expect("4x4 spec");
        for alg in algorithms_for(preset.fabric.has_sharp(), spec.ppn) {
            for bytes in [64u64, 65_536] {
                let run = profile_allreduce(&Scenario::new(&preset, &spec, alg, bytes))
                    .unwrap_or_else(|e| panic!("{} {}: {e}", preset.id, alg.name()));
                let trace = run.report.trace.as_ref().expect("traced");
                let unknown = trace
                    .spans
                    .iter()
                    .filter(|s| s.phase == dpml::engine::Phase::Unknown)
                    .count();
                assert_eq!(
                    unknown,
                    0,
                    "{} {} {}B: {unknown} untagged spans",
                    preset.id,
                    alg.name(),
                    bytes
                );
            }
        }
    }
}

/// Small allreduces are latency-bound (Zone A); the critical path agrees.
#[test]
fn small_allreduce_is_latency_bound() {
    for preset in all_presets() {
        let spec = preset.spec(8, preset.default_ppn).expect("spec");
        let alg = Algorithm::Dpml {
            leaders: 4,
            inner: FlatAlg::RecursiveDoubling,
        };
        let run = profile_allreduce(&Scenario::new(&preset, &spec, alg, 64)).expect("profiled");
        assert_eq!(
            run.zone(),
            Zone::LatencyBound,
            "{}: 64B dpml-l4 classified {}",
            preset.id,
            run.profile.zone
        );
    }
}

/// The Figure 1(c) multi-pair workload transitions latency → msg-rate →
/// bandwidth, consistent with the recorded relative-throughput collapse in
/// `results/fig1_throughput.json` (28 pairs scale ~28x through 64B and
/// collapse to ~1.2x by 4KB).
#[test]
fn fig1_zones_transition_with_size_and_window() {
    let p = cluster_c();
    // Single small ping: pure latency regime (Zone A).
    let ping = multi_pair_critical_path(&p, PairPlacement::InterNode, 28, 64, 1);
    assert_eq!(ping.zone(), Zone::LatencyBound);
    // Windowed small messages: per-message costs bound the message rate
    // (Zone B) — the regime where Figure 1 still scales linearly.
    for bytes in [1u64, 16, 64] {
        let cp = multi_pair_critical_path(&p, PairPlacement::InterNode, 28, bytes, 64);
        assert_eq!(cp.zone(), Zone::MsgRateBound, "{bytes}B window 64");
    }
    // Large messages: the shared NIC saturates (Zone C) — the sizes where
    // fig1_throughput.json records the collapse to ~1x.
    for bytes in [4096u64, 65_536, 1 << 20] {
        let cp = multi_pair_critical_path(&p, PairPlacement::InterNode, 28, bytes, 64);
        assert_eq!(cp.zone(), Zone::BandwidthBound, "{bytes}B window 64");
    }
}

/// Phase attribution on the critical path also tiles the makespan: the
/// per-phase critical times sum to the total.
#[test]
fn phase_attribution_sums_to_makespan() {
    let p = cluster_c();
    let spec = p.spec(8, 8).expect("spec");
    let alg = Algorithm::Dpml {
        leaders: 4,
        inner: FlatAlg::RecursiveDoubling,
    };
    let run = profile_allreduce(&Scenario::new(&p, &spec, alg, 65_536)).expect("profiled");
    let phase_sum: f64 = run.profile.phases.iter().map(|r| r.critical_s).sum();
    let makespan = run.report.makespan().seconds();
    assert!(
        (phase_sum - makespan).abs() < 1e-9,
        "phase sum {phase_sum} != makespan {makespan}"
    );
}
