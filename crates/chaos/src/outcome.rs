//! Case execution and outcome-coverage classification.
//!
//! A chaos *case* is a scenario (cluster preset, geometry, algorithm,
//! message size) plus a [`FaultPlan`]. Running a case drives it through
//! whichever recovery machinery owns its fault classes:
//!
//! * fail-stop process faults on a DPML schedule → the fail-stop runner
//!   (`dpml_core::failstop`): cold-restart / clean;
//! * SHArP designs → the resilience ladder (`dpml_core::resilience`):
//!   retry / fallback;
//! * everything else → the self-verifying integrity ladder
//!   (`dpml_core::integrity`): retransmit → shm redo → partition
//!   re-reduce → restart → structured error.
//!
//! The outcome is classified into **coverage cells** — strings like
//! `class:cold-restart`, `rung:retransmit`, `pair:ok|restart` — which the
//! campaign engine treats as the territory to be explored. A case also
//! yields a *signature* (its triage key) and a *digest* (a bit-exact
//! fingerprint including latency bits and recovery counters) that the
//! regression corpus replays against.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

use dpml_core::resilience::FaultPolicy;
use dpml_core::run::RunError;
use dpml_core::{
    run_allreduce_resilient, run_allreduce_verified, run_dpml_failstop, Algorithm, FailstopOutcome,
    IntegrityErrorKind, IntegrityPolicy, VerifiedError,
};
use dpml_engine::report::RunStats;
use dpml_fabric::presets::Preset;
use dpml_faults::{fnv1a64, FaultPlan};
use serde::{Deserialize, Serialize};

/// The geometry half of a chaos case.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Scenario {
    /// Cluster preset id (`a`..`d`).
    pub preset: String,
    /// Nodes.
    pub nodes: u32,
    /// Ranks per node.
    pub ppn: u32,
    /// Algorithm, in [`Algorithm::parse`] grammar.
    pub alg: String,
    /// Message size, bytes.
    pub bytes: u64,
}

impl Scenario {
    /// Compact human-readable id.
    pub fn id(&self) -> String {
        format!(
            "{}/{}x{}/{}/{}B",
            self.preset, self.nodes, self.ppn, self.alg, self.bytes
        )
    }

    /// Total ranks.
    pub fn world(&self) -> u32 {
        self.nodes * self.ppn
    }

    /// The algorithm family (grammar head), for coverage cells.
    fn alg_family(&self) -> &str {
        self.alg.split(':').next().unwrap_or(&self.alg)
    }
}

/// What one case execution came to.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CaseOutcome {
    /// Outcome class: `ok`, `cold-restart`, `sharp-fallback`,
    /// `err:<label>`, `invalid:<what>`, or `panic`.
    pub class: String,
    /// Triage key: the class (panics fold in a message prefix). The
    /// shrinker preserves this while minimizing a case.
    pub signature: String,
    /// Coverage cells this outcome lights up.
    pub cells: BTreeSet<String>,
    /// Bit-exact fingerprint of the outcome: scenario id, class,
    /// latency bits, and every recovery counter. Replays must match it
    /// exactly.
    pub digest: String,
    /// Set when the outcome is a correctness violation (panic, silent
    /// wrong bytes, engine hang) rather than a structured degradation.
    pub violation: Option<String>,
    /// End-to-end latency of whatever completed, microseconds (0 on
    /// error outcomes).
    pub latency_us: f64,
}

/// Everything the classifier needs from one executed case.
struct Classified {
    class: String,
    rungs: Vec<&'static str>,
    latency_us: f64,
    /// Extra digest material: counters, error strings.
    detail: String,
    violation: Option<String>,
}

fn stats_rungs(stats: &RunStats) -> Vec<&'static str> {
    let mut rungs = Vec::new();
    if stats.retransmits > 0 {
        rungs.push("retransmit");
    }
    if stats.shm_crc_fails > 0 {
        rungs.push("shm-redo");
    }
    if stats.sharp_retries > 0 {
        rungs.push("sharp-retry");
    }
    if stats.sharp_fallbacks > 0 {
        rungs.push("sharp-fallback");
    }
    rungs
}

fn stats_detail(stats: &RunStats) -> String {
    format!(
        "rtx={} crc={} shm={} sr={} sf={}",
        stats.retransmits,
        stats.corruptions_detected,
        stats.shm_crc_fails,
        stats.sharp_retries,
        stats.sharp_fallbacks
    )
}

/// Classify an infrastructure error. Engine hangs (deadlock, tripped
/// budgets) and verification failures are violations: the machinery
/// exists precisely to turn faults into structured degradation, never
/// into a hang or a wrong answer.
fn classify_run_error(e: &RunError) -> Classified {
    let (class, violation) = match e {
        RunError::Sim(se) => {
            let class = format!("err:{}", se.label());
            let violation = matches!(
                se,
                dpml_engine::sim::SimError::Deadlock { .. }
                    | dpml_engine::sim::SimError::EventBudgetExceeded(_)
                    | dpml_engine::sim::SimError::TimeBudgetExceeded(_)
            )
            .then(|| format!("engine hang: {se}"));
            (class, violation)
        }
        RunError::Verify(v) => (
            "err:verify-mismatch".to_string(),
            Some(format!("wrong bytes: {v}")),
        ),
        RunError::Topology(_) | RunError::Build(_) => ("invalid:build".to_string(), None),
        RunError::NoSharpOnFabric => ("err:no-sharp-fabric".to_string(), None),
    };
    Classified {
        class,
        rungs: Vec::new(),
        latency_us: 0.0,
        detail: format!("{e}"),
        violation,
    }
}

fn run_case_inner(sc: &Scenario, plan: &FaultPlan) -> Classified {
    let Some(preset) = Preset::by_id(&sc.preset) else {
        return Classified {
            class: "invalid:preset".into(),
            rungs: Vec::new(),
            latency_us: 0.0,
            detail: sc.preset.clone(),
            violation: None,
        };
    };
    let alg = match Algorithm::parse(&sc.alg) {
        Ok(a) => a,
        Err(e) => {
            return Classified {
                class: "invalid:alg".into(),
                rungs: Vec::new(),
                latency_us: 0.0,
                detail: e,
                violation: None,
            }
        }
    };
    let spec = match preset.spec(sc.nodes, sc.ppn) {
        Ok(s) => s,
        Err(e) => {
            return Classified {
                class: "invalid:shape".into(),
                rungs: Vec::new(),
                latency_us: 0.0,
                detail: e.to_string(),
                violation: None,
            }
        }
    };

    // Fail-stop faults on a DPML schedule go through the fail-stop
    // runner; everything else surfaces them as structured `rank-dead`
    // errors below.
    if let Algorithm::Dpml { leaders, inner } = alg {
        if !plan.process.is_zero() {
            return match run_dpml_failstop(&preset, &spec, leaders, inner, sc.bytes, plan) {
                Ok(out) => {
                    let stats = &out.report().report.stats;
                    let mut rungs = stats_rungs(stats);
                    let (class, dead) = match &out {
                        FailstopOutcome::Clean { .. } => ("ok", String::new()),
                        FailstopOutcome::ColdRestart { recovery, .. } => {
                            rungs.push("cold-restart");
                            ("cold-restart", format!("dead={:?}", recovery.dead_ranks))
                        }
                    };
                    Classified {
                        class: class.into(),
                        rungs,
                        latency_us: out.total_latency_us(),
                        detail: format!("{} {dead}", stats_detail(stats)),
                        violation: None,
                    }
                }
                Err(e) => classify_run_error(&e),
            };
        }
    }

    if alg.needs_sharp() {
        return match run_allreduce_resilient(
            &preset,
            &spec,
            alg,
            sc.bytes,
            plan,
            FaultPolicy::default(),
        ) {
            Ok(rep) => {
                let mut rungs = stats_rungs(&rep.report.report.stats);
                let class = if rep.fell_back {
                    if !rungs.contains(&"sharp-fallback") {
                        rungs.push("sharp-fallback");
                    }
                    "sharp-fallback"
                } else {
                    "ok"
                };
                Classified {
                    class: class.into(),
                    rungs,
                    latency_us: rep.latency_us,
                    detail: format!(
                        "{} with={} retries={}",
                        stats_detail(&rep.report.report.stats),
                        rep.completed_with,
                        rep.sharp_retries
                    ),
                    violation: None,
                }
            }
            Err(e) => classify_run_error(&e),
        };
    }

    match run_allreduce_verified(
        &preset,
        &spec,
        alg,
        sc.bytes,
        plan,
        IntegrityPolicy::default(),
    ) {
        Ok(rep) => {
            let mut rungs = stats_rungs(&rep.report.stats);
            for rung in rep.rungs() {
                let label = rung.label();
                if !rungs.contains(&label) {
                    rungs.push(label);
                }
            }
            Classified {
                class: "ok".into(),
                rungs,
                latency_us: rep.total_latency_us,
                detail: format!(
                    "{} restarts={} passes={}",
                    stats_detail(&rep.report.stats),
                    rep.restarts,
                    rep.recovery.as_ref().map(|r| r.passes).unwrap_or(0)
                ),
                violation: None,
            }
        }
        Err(VerifiedError::Integrity(e)) => {
            let violation = (e.kind == IntegrityErrorKind::VerifyMismatch)
                .then(|| format!("silent wrong bytes: {e}"));
            Classified {
                class: format!("err:{}", e.kind.label()),
                rungs: Vec::new(),
                latency_us: 0.0,
                detail: format!("attempts={} {}", e.attempts, e.detail),
                violation,
            }
        }
        Err(VerifiedError::Run(e)) => classify_run_error(&e),
    }
}

/// Execute one case and classify its outcome. Panics anywhere inside
/// the stack are caught and reported as a `panic` outcome (a violation)
/// instead of tearing down the campaign.
pub fn run_case(sc: &Scenario, plan: &FaultPlan) -> CaseOutcome {
    let classified = match catch_unwind(AssertUnwindSafe(|| run_case_inner(sc, plan))) {
        Ok(c) => c,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".into());
            Classified {
                class: "panic".into(),
                rungs: Vec::new(),
                latency_us: 0.0,
                detail: msg.clone(),
                violation: Some(format!("panic: {msg}")),
            }
        }
    };

    let mut cells = BTreeSet::new();
    cells.insert(format!("class:{}", classified.class));
    cells.insert(format!("alg:{}|{}", sc.alg_family(), classified.class));
    for rung in &classified.rungs {
        cells.insert(format!("rung:{rung}"));
        cells.insert(format!("pair:{}|{rung}", classified.class));
    }
    // Compound-behavior cells: which recovery mechanisms fired *together*
    // in one run, and how many distinct ones. These are the cells that
    // reward stacked fault plans — single mutations rarely light them.
    let mut distinct: Vec<&str> = classified.rungs.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    for (i, a) in distinct.iter().enumerate() {
        for b in &distinct[i + 1..] {
            cells.insert(format!("rungs:{a}+{b}"));
        }
    }
    if distinct.len() >= 2 {
        cells.insert(format!("depth:{}", distinct.len().min(5)));
    }

    let canonical = format!(
        "{}|{}|lat={:016x}|{}",
        sc.id(),
        classified.class,
        classified.latency_us.to_bits(),
        classified.detail
    );
    CaseOutcome {
        signature: classified.class.clone(),
        class: classified.class,
        cells,
        digest: format!("{:016x}", fnv1a64(canonical.as_bytes())),
        violation: classified.violation,
        latency_us: classified.latency_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sc(alg: &str) -> Scenario {
        Scenario {
            preset: "b".into(),
            nodes: 2,
            ppn: 2,
            alg: alg.into(),
            bytes: 4096,
        }
    }

    #[test]
    fn zero_plan_is_ok_and_deterministic() {
        let out1 = run_case(&sc("ring"), &FaultPlan::zero());
        let out2 = run_case(&sc("ring"), &FaultPlan::zero());
        assert_eq!(out1.class, "ok");
        assert!(out1.violation.is_none());
        assert_eq!(out1.digest, out2.digest, "same case must digest equal");
        assert!(out1.cells.contains("class:ok"));
    }

    #[test]
    fn corruption_lights_the_retransmit_rung() {
        let mut plan = FaultPlan::zero();
        plan.seed = 7;
        plan.data.corruption_rate = 0.5;
        let out = run_case(&sc("ring"), &plan);
        assert_eq!(out.class, "ok", "ladder must absorb light corruption");
        assert!(
            out.cells.contains("rung:retransmit"),
            "cells: {:?}",
            out.cells
        );
    }

    #[test]
    fn zero_retry_budget_surfaces_a_structured_error() {
        let mut plan = FaultPlan::zero();
        plan.seed = 7;
        plan.data.corruption_rate = 1.0;
        plan.data.max_retransmits = 0;
        let out = run_case(&sc("ring"), &plan);
        assert!(
            out.class.starts_with("err:"),
            "every delivery fails with no budget: {}",
            out.class
        );
        assert!(out.violation.is_none(), "structured, not a violation");
    }

    #[test]
    fn dpml_crash_cold_restarts() {
        // Crash mid-collective: halfway through the clean run's latency.
        let clean = run_case(&sc("dpml:2"), &FaultPlan::zero());
        assert_eq!(clean.class, "ok");
        let mut plan = FaultPlan::zero();
        plan.seed = 3;
        plan.process.crashes.push(dpml_faults::ProcessFault {
            rank: 1,
            crash_at: 0.5 * clean.latency_us * 1e-6,
        });
        plan.process.detection_timeout = 1e-4;
        let out = run_case(&sc("dpml:2"), &plan);
        assert_eq!(out.class, "cold-restart", "crash on DPML must recover");
        assert!(out.cells.contains("rung:cold-restart"));
    }

    #[test]
    fn invalid_scenario_is_not_a_violation() {
        let out = run_case(
            &Scenario {
                preset: "zz".into(),
                nodes: 2,
                ppn: 2,
                alg: "ring".into(),
                bytes: 1024,
            },
            &FaultPlan::zero(),
        );
        assert_eq!(out.class, "invalid:preset");
        assert!(out.violation.is_none());
    }
}
