//! End-to-end fault injection through the public facade: a zero plan is
//! bit-identical to the fault-free path, and the recovery ladder's SHArP
//! rungs (denial → fallback, flaky → retry) complete verified collectives.

use dpml::chaos::run_case;
use dpml::core::algorithms::{Algorithm, FlatAlg};
use dpml::core::integrity::{run_allreduce_verified, IntegrityPolicy, LadderRung};
use dpml::core::run::{run, Exec, Scenario};
use dpml::fabric::presets::{cluster_a, cluster_c};
use dpml::faults::{mutate, DataFaults, FaultPlan, Mutator, ProcessFaults, SharpFaults};

#[test]
fn zero_intensity_plan_is_bit_identical_across_algorithms() {
    let p = cluster_c();
    let spec = p.spec(4, 8).expect("4x8 spec");
    for (alg, bytes) in [
        (Algorithm::RecursiveDoubling, 4 * 1024),
        (
            Algorithm::Dpml {
                leaders: 4,
                inner: FlatAlg::RecursiveDoubling,
            },
            128 * 1024,
        ),
        (
            Algorithm::DpmlPipelined {
                leaders: 4,
                chunks: 4,
            },
            1 << 20,
        ),
    ] {
        let scenario = Scenario::new(&p, &spec, alg, bytes);
        let clean = run(&scenario, &Exec::default()).expect("clean run");
        let faulted = run(&scenario, &Exec::faulted(&FaultPlan::zero(), 0)).expect("zero-plan run");
        assert_eq!(
            clean.latency_us.to_bits(),
            faulted.latency_us.to_bits(),
            "{}: zero plan moved the clock",
            alg.name()
        );
        assert_eq!(
            clean.report,
            faulted.report,
            "{}: zero plan changed the report",
            alg.name()
        );
        // The canonical scenario at intensity zero must behave the same.
        let canon = run(
            &scenario,
            &Exec::faulted(&FaultPlan::canonical(123, 0.0), 0),
        )
        .expect("canonical(0) run");
        assert_eq!(clean.latency_us.to_bits(), canon.latency_us.to_bits());
        // An armed fail-stop detector with zero scheduled crashes is
        // free: virtual time and data both stay bit-identical.
        let armed = FaultPlan {
            process: ProcessFaults {
                crashes: Vec::new(),
                lost_nodes: Vec::new(),
                detection_timeout: 1e-3,
            },
            ..FaultPlan::zero()
        };
        let watched = run(&scenario, &Exec::faulted(&armed, 0)).expect("zero-crash run");
        assert_eq!(
            clean.latency_us.to_bits(),
            watched.latency_us.to_bits(),
            "{}: zero-crash process plan moved the clock",
            alg.name()
        );
        assert_eq!(
            clean.report,
            watched.report,
            "{}: zero-crash process plan changed the report",
            alg.name()
        );
    }
}

#[test]
fn noise_slows_but_never_corrupts() {
    let p = cluster_c();
    let spec = p.spec(4, 8).expect("4x8 spec");
    let alg = Algorithm::Dpml {
        leaders: 8,
        inner: FlatAlg::RecursiveDoubling,
    };
    let scenario = Scenario::new(&p, &spec, alg, 64 * 1024);
    let clean = run(&scenario, &Exec::default()).expect("clean run");
    let plan = FaultPlan::canonical(11, 1.0);
    let noisy = run(&scenario, &Exec::faulted(&plan, 0)).expect("noisy run");
    // run verifies internally; re-verify here to make the
    // e2e claim explicit.
    noisy
        .report
        .verify_allreduce()
        .expect("noisy run still correct");
    assert!(
        noisy.latency_us > clean.latency_us,
        "full-intensity faults must cost time: {} vs {}",
        noisy.latency_us,
        clean.latency_us
    );
}

#[test]
fn sharp_denial_degrades_to_verified_host_run() {
    let p = cluster_a();
    let spec = p.spec(4, 4).expect("4x4 spec");
    let plan = FaultPlan {
        sharp: SharpFaults {
            deny_groups: true,
            ..Default::default()
        },
        ..FaultPlan::zero()
    };
    let rep = run_allreduce_verified(
        &p,
        &spec,
        Algorithm::SharpSocketLeader,
        256,
        &plan,
        IntegrityPolicy::default(),
    )
    .expect("degraded run completes");
    assert_eq!(rep.rungs(), [LadderRung::SharpFallback]);
    assert_eq!(rep.algorithm, Algorithm::SharpSocketLeader.name());
    assert_eq!(
        rep.completed_with,
        Algorithm::SingleLeader {
            inner: FlatAlg::RecursiveDoubling
        }
        .name()
    );
    assert_eq!(rep.report.stats.sharp_ops, 0);
    assert_eq!(rep.report.stats.sharp_fallbacks, 1);
    rep.report
        .verify_allreduce()
        .expect("fallback run verifies");
}

#[test]
fn flaky_sharp_retries_and_accounts_time() {
    let p = cluster_a();
    let spec = p.spec(4, 4).expect("4x4 spec");
    let plan = FaultPlan {
        sharp: SharpFaults {
            flaky_attempts: 1,
            op_timeout: 5e-5,
            ..Default::default()
        },
        ..FaultPlan::zero()
    };
    let rep = run_allreduce_verified(
        &p,
        &spec,
        Algorithm::SharpNodeLeader,
        512,
        &plan,
        IntegrityPolicy::default(),
    )
    .expect("flaky run completes");
    assert_eq!(rep.rungs(), [LadderRung::SharpRetry]);
    assert_eq!(rep.completed_with, rep.algorithm);
    assert_eq!(rep.report.stats.sharp_retries, 1);
    // One failed attempt burns the 50us op timeout plus 10us backoff.
    assert_eq!(
        rep.total_latency_us.to_bits(),
        (5e-5 * 1e6 + 10.0 + rep.report.latency_us()).to_bits()
    );
}

#[test]
fn wire_corruption_detected_and_retransmitted() {
    let p = cluster_c();
    let spec = p.spec(4, 8).expect("4x8 spec");
    let alg = Algorithm::Dpml {
        leaders: 4,
        inner: FlatAlg::RecursiveDoubling,
    };
    let scenario = Scenario::new(&p, &spec, alg, 256 * 1024);
    let clean = run(&scenario, &Exec::default()).expect("clean run");
    let plan = FaultPlan {
        seed: 17,
        data: DataFaults {
            max_retransmits: 64,
            ..DataFaults::wire(0.1, 0.05)
        },
        ..FaultPlan::zero()
    };
    let faulted = run(&scenario, &Exec::faulted(&plan, 0)).expect("faulted run completes");
    faulted
        .report
        .verify_allreduce()
        .expect("retransmitted run still correct");
    let st = &faulted.report.stats;
    assert!(st.retransmits > 0, "a 10%/5% wire must retransmit");
    assert!(st.corruptions_detected > 0, "CRC must catch corrupt frames");
    assert!(
        st.undetected_risk > 0.0 && st.undetected_risk < 1e-6,
        "residual risk is detections * 2^-32, got {}",
        st.undetected_risk
    );
    assert!(
        faulted.latency_us > clean.latency_us,
        "retransmits must cost time: {} vs {}",
        faulted.latency_us,
        clean.latency_us
    );
}

#[test]
fn same_seed_same_timing_different_seed_differs() {
    let p = cluster_c();
    let spec = p.spec(2, 8).expect("2x8 spec");
    let alg = Algorithm::Dpml {
        leaders: 2,
        inner: FlatAlg::RecursiveDoubling,
    };
    let scenario = Scenario::new(&p, &spec, alg, 32 * 1024);
    let seeded = |seed| {
        run(
            &scenario,
            &Exec::faulted(&FaultPlan::canonical(seed, 0.8), 0),
        )
    };
    let a = seeded(1).expect("seed 1");
    let b = seeded(1).expect("seed 1 again");
    assert_eq!(
        a.latency_us.to_bits(),
        b.latency_us.to_bits(),
        "same seed must replay exactly"
    );
    let c = seeded(2).expect("seed 2");
    assert_ne!(
        a.latency_us.to_bits(),
        c.latency_us.to_bits(),
        "different seed, different noise"
    );
}

/// Chaos-campaign-style draws (1–3 seeded mutations of the zero plan) on
/// a SHArP design, DPML and a flat baseline. Every case runs through the
/// one recovery ladder, so a host fallback or a cold restart followed by
/// a wire fault ends in the integrity rungs: no outcome escapes as a raw
/// `retry-exhausted`, and none is a correctness violation.
#[test]
fn campaign_draws_never_escape_as_retry_exhausted() {
    let menu: Vec<dpml::chaos::Scenario> = [("a", "sharp-node"), ("b", "dpml:2"), ("b", "rd")]
        .into_iter()
        .flat_map(|(preset, alg)| {
            [4096u64, 65536].map(|bytes| dpml::chaos::Scenario {
                preset: preset.into(),
                nodes: 2,
                ppn: 2,
                alg: alg.into(),
                bytes,
            })
        })
        .collect();
    let mut m = Mutator::new(0xc4a0_5eed);
    for draw in 0..300 {
        let sc = &menu[m.below(menu.len())];
        let mut plan = FaultPlan::zero();
        plan.seed = m.next_u64();
        for _ in 0..1 + m.below(3) {
            plan = mutate(&plan, sc.nodes, sc.ppn, &mut m);
        }
        let out = run_case(sc, &plan);
        let case = format!("draw {draw}: {} under {plan:?}", sc.id());
        assert_ne!(out.class, "err:retry-exhausted", "{case}");
        assert!(out.violation.is_none(), "{case}: {:?}", out.violation);
    }
}
