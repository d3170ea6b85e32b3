//! Fail-stop crashes under DPML: detect the dead rank, then restart the
//! collective from scratch.
//!
//! A crash surfaces from the engine as [`SimError::RankDead`]. The failure
//! detector fires the plan's detection timeout after the crash, and the
//! collective then re-runs from the start with the process faults
//! scrubbed; the plan's noise, link and data faults still apply. The
//! end-to-end latency is the detection time plus that clean re-run.
//!
//! Restarting is the whole policy: a continuation that re-reduces only
//! the lost partition from the shared-memory deposits gains a median of
//! at most 1.08× over it where it applies, and prevents no failures
//! (EXPERIMENTS.md, "Recovery").

use crate::algorithms::{Algorithm, FlatAlg};
use crate::run::{run, AllreduceReport, Exec, RunError, Scenario};
use dpml_engine::SimError;
use dpml_fabric::Preset;
use dpml_faults::{FaultPlan, ProcessFaults};
use dpml_topology::ClusterSpec;
use serde::{Deserialize, Serialize};

/// Accounting for one fail-stop recovery.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// Ranks that died, ascending.
    pub dead_ranks: Vec<u32>,
    /// When the failure detector fired: crash time plus the plan's
    /// detection timeout, microseconds from collective start.
    pub detected_at_us: f64,
    /// End-to-end latency: detection + a full re-run without the
    /// process faults, microseconds.
    pub cold_restart_latency_us: f64,
}

/// What a fail-stop run of DPML came to.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum FailstopOutcome {
    /// No rank died; the report is bit-identical to an unfaulted run
    /// under the same non-process faults.
    Clean {
        /// The verified run.
        report: AllreduceReport,
    },
    /// A rank died; the collective re-ran from scratch after the
    /// detection timeout.
    ColdRestart {
        /// The verified restarted run.
        report: AllreduceReport,
        /// Recovery accounting.
        recovery: RecoveryReport,
    },
}

impl FailstopOutcome {
    /// The verified report of whichever schedule completed.
    pub fn report(&self) -> &AllreduceReport {
        match self {
            FailstopOutcome::Clean { report } | FailstopOutcome::ColdRestart { report, .. } => {
                report
            }
        }
    }

    /// End-to-end latency including detection and recovery, microseconds.
    pub fn total_latency_us(&self) -> f64 {
        match self {
            FailstopOutcome::Clean { report } => report.latency_us,
            FailstopOutcome::ColdRestart { recovery, .. } => recovery.cold_restart_latency_us,
        }
    }
}

/// Run a DPML allreduce under `plan`, restarting it from scratch after a
/// fail-stop crash. Every path that returns `Ok` is verified: all ranks
/// end with the full reduction over the whole vector.
pub fn run_dpml_failstop(
    preset: &Preset,
    spec: &ClusterSpec,
    leaders: u32,
    inner: FlatAlg,
    bytes: u64,
    plan: &FaultPlan,
) -> Result<FailstopOutcome, RunError> {
    let scenario = Scenario::new(preset, spec, Algorithm::Dpml { leaders, inner }, bytes);
    let (rank, time, pending_ops) = match run(&scenario, &Exec::faulted(plan, 0)) {
        Ok(report) => return Ok(FailstopOutcome::Clean { report }),
        Err(RunError::Sim(SimError::RankDead {
            rank,
            time,
            pending_ops,
        })) => (rank, time, pending_ops),
        Err(e) => return Err(e),
    };
    // The restart sees the plan's noise and link faults but no further
    // process deaths.
    let scrubbed = FaultPlan {
        process: ProcessFaults::default(),
        ..plan.clone()
    };
    let report = run(&scenario, &Exec::faulted(&scrubbed, 0))?;
    let detected_at_us = (time + plan.process.detection_timeout) * 1e6;

    // The ledger records one "crashed" entry per dead rank.
    let mut dead_ranks: Vec<u32> = pending_ops
        .iter()
        .filter(|op| op.what.starts_with("crashed"))
        .map(|op| op.rank)
        .chain([rank])
        .collect();
    dead_ranks.sort_unstable();
    dead_ranks.dedup();

    Ok(FailstopOutcome::ColdRestart {
        recovery: RecoveryReport {
            dead_ranks,
            detected_at_us,
            cold_restart_latency_us: detected_at_us + report.latency_us,
        },
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpml_fabric::presets::cluster_a;

    fn spec_4x4(preset: &Preset) -> ClusterSpec {
        preset.spec(4, 4).unwrap()
    }

    #[test]
    fn zero_crash_plan_is_clean_and_bit_identical() {
        let p = cluster_a();
        let spec = spec_4x4(&p);
        let alg = Algorithm::Dpml {
            leaders: 2,
            inner: FlatAlg::RecursiveDoubling,
        };
        let clean = run(&Scenario::new(&p, &spec, alg, 64 * 1024), &Exec::default()).unwrap();
        let out = run_dpml_failstop(
            &p,
            &spec,
            2,
            FlatAlg::RecursiveDoubling,
            64 * 1024,
            &FaultPlan::zero(),
        )
        .unwrap();
        let FailstopOutcome::Clean { report } = out else {
            panic!("expected clean outcome");
        };
        assert_eq!(clean.latency_us.to_bits(), report.latency_us.to_bits());
        assert_eq!(clean.report, report.report);
    }

    /// Every crash restarts, and the total is exactly detection plus the
    /// clean run: at time zero, mid-run on a leader, and on a lost node.
    #[test]
    fn crashes_cold_restart_after_detection() {
        let p = cluster_a();
        let spec = spec_4x4(&p);
        let bytes = 1 << 18;
        let alg = Algorithm::Dpml {
            leaders: 2,
            inner: FlatAlg::RecursiveDoubling,
        };
        let clean_us = run(&Scenario::new(&p, &spec, alg, bytes), &Exec::default())
            .unwrap()
            .latency_us;
        let mid_s = 0.6 * clean_us * 1e-6;
        let lost_node = ProcessFaults {
            lost_nodes: vec![2],
            ..ProcessFaults::default()
        };
        // Rank 6 = node 1, local 2: leader index 1 under PerNode(2).
        let crash = |at| ProcessFaults::single(6, at);
        for (what, process, crash_s, dead) in [
            ("crash at time zero", crash(0.0), 0.0, vec![6]),
            ("mid-run leader crash", crash(mid_s), mid_s, vec![6]),
            ("whole-node loss", lost_node, 0.0, vec![8, 9, 10, 11]),
        ] {
            let detected_at_us = (crash_s + process.detection_timeout) * 1e6;
            let plan = FaultPlan {
                process,
                ..FaultPlan::zero()
            };
            let out =
                run_dpml_failstop(&p, &spec, 2, FlatAlg::RecursiveDoubling, bytes, &plan).unwrap();
            let FailstopOutcome::ColdRestart { report, recovery } = out else {
                panic!("{what}: expected a cold restart, got {out:?}");
            };
            assert_eq!(recovery.dead_ranks, dead, "{what}");
            assert_eq!(
                recovery.detected_at_us.to_bits(),
                detected_at_us.to_bits(),
                "{what}"
            );
            assert_eq!(
                report.latency_us.to_bits(),
                clean_us.to_bits(),
                "{what}: the restart is the clean run"
            );
            assert_eq!(
                recovery.cold_restart_latency_us.to_bits(),
                (detected_at_us + clean_us).to_bits(),
                "{what}"
            );
        }
    }
}
