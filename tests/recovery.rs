//! End-to-end fail-stop recovery: crash every DPML leader, one at a
//! time, at three points of the collective's timeline and prove the
//! healed continuation (a) leaves every survivor with the same fully
//! reduced vector as the fault-free run and (b) strictly beats a cold
//! restart on end-to-end latency. Also pins the zero-crash invariant:
//! a `ProcessFaults` plan that never fires is bit-identical to the
//! fault-free path.

use dpml::core::algorithms::{Algorithm, FlatAlg};
use dpml::core::heal::{run_dpml_failstop, FailstopOutcome};
use dpml::core::run::{run, Exec, Scenario};
use dpml::engine::RankSet;
use dpml::fabric::presets::cluster_a;
use dpml::faults::{FaultPlan, ProcessFaults};

const LEADERS: u32 = 2;
const BYTES: u64 = 1 << 20; // 1 MiB, the paper's flagship message size
const INNER: FlatAlg = FlatAlg::RecursiveDoubling;

/// Crash points as fractions of the fault-free makespan: shortly after
/// the phase-1 deposits, mid-phase-3, and late in phase 4.
const CRASH_FRACS: [f64; 3] = [0.35, 0.6, 0.85];

fn crash_plan(rank: u32, at_secs: f64) -> FaultPlan {
    FaultPlan {
        process: ProcessFaults::single(rank, at_secs),
        ..FaultPlan::zero()
    }
}

#[test]
fn every_leader_heals_at_three_crash_times_with_identical_data() {
    let p = cluster_a();
    let spec = p.spec(4, 4).expect("4x4 spec");
    let alg = Algorithm::Dpml {
        leaders: LEADERS,
        inner: INNER,
    };
    let clean =
        run(&Scenario::new(&p, &spec, alg, BYTES), &Exec::default()).expect("fault-free run");
    let world = spec.num_nodes * spec.ppn;
    let full = RankSet::full(world);
    // Sanity: the baseline we compare against is itself a complete
    // allreduce on every rank.
    for cov in &clean.report.result_coverage {
        assert!(cov.covers_exactly(0, BYTES, &full));
    }

    // Under `PerNode(l)` leaders sit at locals `j * ppn / l`: with
    // ppn = 4 and l = 2 that is locals {0, 2} on every node.
    let leader_ranks: Vec<u32> = (0..spec.num_nodes)
        .flat_map(|n| (0..LEADERS).map(move |j| n * spec.ppn + j * spec.ppn / LEADERS))
        .collect();
    assert_eq!(leader_ranks.len(), (spec.num_nodes * LEADERS) as usize);

    for &victim in &leader_ranks {
        for frac in CRASH_FRACS {
            let plan = crash_plan(victim, frac * clean.latency_us * 1e-6);
            let out = run_dpml_failstop(&p, &spec, LEADERS, INNER, BYTES, &plan)
                .expect("fail-stop run completes");
            let FailstopOutcome::Healed { report, recovery } = out else {
                panic!("rank {victim} at {frac}: expected a heal, got {out:?}");
            };

            // (a) Bit-identical reduced data: in the symbolic engine a
            // result buffer is correct iff it covers the whole vector
            // with exactly the full contribution set, so matching the
            // fault-free coverage is matching the reduced bytes.
            for (r, cov) in report.report.result_coverage.iter().enumerate() {
                if r as u32 == victim {
                    continue;
                }
                assert!(
                    cov.covers_exactly(0, BYTES, &full),
                    "rank {victim} at {frac}: survivor {r} diverged from the fault-free result"
                );
            }
            report
                .report
                .verify_allreduce_excluding(&[victim])
                .expect("healed run verifies");

            // (b) Healing strictly beats restarting from scratch.
            assert!(
                recovery.healed_latency_us < recovery.cold_restart_latency_us,
                "rank {victim} at {frac}: healed {} must beat cold restart {}",
                recovery.healed_latency_us,
                recovery.cold_restart_latency_us
            );
            assert_eq!(recovery.dead_ranks, vec![victim]);

            // Killing a leader always forces a re-election on its node
            // for its leader index.
            let (node, local) = (victim / spec.ppn, victim % spec.ppn);
            let j = local * LEADERS / spec.ppn;
            assert_eq!(
                recovery.reelections,
                vec![(node, j, recovery.reelections[0].2)],
                "rank {victim}: exactly one re-election on node {node}, index {j}"
            );
            assert_ne!(
                recovery.reelections[0].2, local,
                "replacement must differ from the dead local rank"
            );
            // Everyone in the healed leader comm of the lost partition
            // re-plans, as do the dead node's survivors.
            assert!(recovery.replanned_ranks.len() >= spec.num_nodes as usize);
            assert!(!recovery.replanned_ranks.contains(&victim));
        }
    }
}

#[test]
fn zero_crash_process_plan_is_bit_identical() {
    let p = cluster_a();
    let spec = p.spec(4, 4).expect("4x4 spec");
    let clean = run(
        &Scenario::new(
            &p,
            &spec,
            Algorithm::Dpml {
                leaders: LEADERS,
                inner: INNER,
            },
            BYTES,
        ),
        &Exec::default(),
    )
    .expect("fault-free run");
    // A plan whose process-fault table is present but empty must not
    // perturb virtual time or data by a single bit.
    let plan = FaultPlan {
        process: ProcessFaults::default(),
        ..FaultPlan::zero()
    };
    let out = run_dpml_failstop(&p, &spec, LEADERS, INNER, BYTES, &plan).expect("zero-crash run");
    let FailstopOutcome::Clean { report } = out else {
        panic!("zero-crash plan must be clean, got {out:?}");
    };
    assert_eq!(
        clean.latency_us.to_bits(),
        report.latency_us.to_bits(),
        "zero-crash plan moved the clock"
    );
    assert_eq!(
        clean.report, report.report,
        "zero-crash plan changed the data"
    );
}
