//! The coverage-guided campaign loop.
//!
//! A campaign spends a fixed budget of case executions searching the
//! fault space. Plans are bred by seeded mutation
//! (`dpml_faults::mutate`); the search is *guided* by the
//! outcome-coverage map: any case that lights up a coverage cell nobody
//! has seen yet joins the breeding pool, and most of the budget is
//! spent mutating pool members instead of sampling fresh plans. Compound
//! fault interleavings — a crash inside a corruption burst on a
//! degraded link — are reachable by stacking mutations on an already
//! interesting parent, which blind sampling at the same budget almost
//! never assembles. `guided: false` runs the identical fresh-plan
//! sampler without the pool, which is the control the bench compares
//! against (`results/chaos.json`).
//!
//! Everything is deterministic in `CampaignConfig::seed`: the scenario
//! picks, the mutation walk, and therefore the full coverage history.

use crate::outcome::{run_case, Scenario};
use dpml_engine::flight::{self, PostmortemBundle};
use dpml_faults::{mutate, FaultPlan, Mutator};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::path::PathBuf;

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Seed for the whole search.
    pub seed: u64,
    /// Case executions to spend.
    pub budget: u32,
    /// Coverage-guided (true) or blind sampling of the same plan
    /// distribution (false).
    pub guided: bool,
    /// Scenario menu the sampler draws from.
    pub scenarios: Vec<Scenario>,
    /// When set, every violation dumps a flight-recorder post-mortem
    /// bundle here (the triggering case plus the engine trace tail), and
    /// the [`Violation`] carries the bundle path for `chaos mine` to
    /// link from its reproducer.
    pub postmortem_dir: Option<PathBuf>,
    /// Cap on bundles written per directory (crash-loop guard).
    pub max_postmortems: usize,
}

impl CampaignConfig {
    /// The default chaos geometry: small worlds across the recovery
    /// paths — DPML (fail-stop restart), a flat baseline (integrity
    /// ladder), and a SHArP design on the one fabric that has SHArP
    /// (resilience ladder).
    fn default_menu() -> Vec<Scenario> {
        let mut menu = Vec::new();
        for (preset, alg) in [
            ("b", "dpml:2"),
            ("b", "ring"),
            ("b", "rd"),
            ("a", "sharp-node"),
        ] {
            for bytes in [4096u64, 65536] {
                menu.push(Scenario {
                    preset: preset.into(),
                    nodes: 2,
                    ppn: 2,
                    alg: alg.into(),
                    bytes,
                });
            }
        }
        menu
    }

    /// A guided campaign over the default menu.
    pub fn new(seed: u64, budget: u32) -> Self {
        CampaignConfig {
            seed,
            budget,
            guided: true,
            scenarios: Self::default_menu(),
            postmortem_dir: None,
            max_postmortems: 16,
        }
    }
}

/// One point of the coverage-per-budget curve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CurvePoint {
    /// Cases executed so far.
    pub runs: u32,
    /// Distinct coverage cells reached by then.
    pub cells: usize,
}

/// A correctness violation found by a campaign, with the case that
/// triggered it (the shrinker's input).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Violation {
    /// The scenario under which it fired.
    pub scenario: Scenario,
    /// The offending plan.
    pub plan: FaultPlan,
    /// Outcome signature (triage key).
    pub signature: String,
    /// What went wrong.
    pub detail: String,
    /// Path of the post-mortem bundle dumped for this violation, when
    /// the campaign ran with a `postmortem_dir` (and the cap allowed
    /// another bundle).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub bundle: Option<String>,
}

/// What a campaign found.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Cases executed (== budget).
    pub executed: u32,
    /// Every coverage cell reached.
    pub cells: BTreeSet<String>,
    /// Coverage growth over the budget.
    pub curve: Vec<CurvePoint>,
    /// Violations found (empty on a healthy tree).
    pub violations: Vec<Violation>,
    /// The breeding pool: cases that discovered at least one new cell,
    /// with the cells they discovered (candidate corpus entries).
    pub discoveries: Vec<(Scenario, FaultPlan, Vec<String>)>,
}

/// Sample a fresh case: a menu scenario and 1–3 mutations applied to
/// the zero plan. Both campaign modes draw fresh cases from exactly
/// this distribution; the guided mode differs only in *also* breeding
/// from the discovery pool.
fn fresh_sample(scenarios: &[Scenario], m: &mut Mutator) -> (Scenario, FaultPlan) {
    let sc = scenarios[m.below(scenarios.len())].clone();
    let mut plan = FaultPlan::zero();
    plan.seed = m.next_u64();
    let edits = 1 + m.below(3) as u32;
    for _ in 0..edits {
        plan = mutate(&plan, sc.nodes, sc.ppn, m);
    }
    (sc, plan)
}

/// Dump one violation as a post-mortem bundle; returns the path as a
/// string, or `None` when the cap is reached or the write fails (a
/// chaos search must not abort because a diagnostic could not be
/// written — the violation itself is still reported).
fn dump_violation_bundle(
    dir: &std::path::Path,
    max_bundles: usize,
    v: &Violation,
    case_index: u32,
) -> Option<String> {
    let context = serde_json::json!({
        "scenario": serde_json::to_value(&v.scenario).ok()?,
        "plan": serde_json::to_value(&v.plan).ok()?,
        "signature": v.signature.clone(),
        "case_index": case_index,
    });
    let bundle = PostmortemBundle::capture("chaos_violation", v.detail.clone()).with_job(context);
    match bundle.save(dir, max_bundles) {
        Ok(Some(path)) => Some(path.display().to_string()),
        Ok(None) => None,
        Err(e) => {
            eprintln!("chaos: failed to write post-mortem bundle: {e}");
            None
        }
    }
}

/// Run one campaign to completion.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    assert!(!cfg.scenarios.is_empty(), "campaign needs a scenario menu");
    let mut m = Mutator::new(cfg.seed);
    let mut cells: BTreeSet<String> = BTreeSet::new();
    let mut curve = Vec::new();
    let mut violations = Vec::new();
    let mut discoveries: Vec<(Scenario, FaultPlan, Vec<String>)> = Vec::new();

    let checkpoint = (cfg.budget / 16).max(1);
    for i in 0..cfg.budget {
        let (sc, plan) = if cfg.guided && !discoveries.is_empty() && m.below(4) != 0 {
            // Breed: stack 1–2 more mutations onto a discovery.
            let (sc, parent, _) = &discoveries[m.below(discoveries.len())];
            let sc = sc.clone();
            let mut plan = parent.clone();
            for _ in 0..(1 + m.below(2)) {
                plan = mutate(&plan, sc.nodes, sc.ppn, &mut m);
            }
            (sc, plan)
        } else {
            fresh_sample(&cfg.scenarios, &mut m)
        };

        let out = run_case(&sc, &plan);
        let new: Vec<String> = out
            .cells
            .iter()
            .filter(|c| !cells.contains(*c))
            .cloned()
            .collect();
        if !new.is_empty() {
            cells.extend(new.iter().cloned());
            discoveries.push((sc.clone(), plan.clone(), new));
        }
        if let Some(detail) = out.violation {
            flight::global().record(
                "chaos.violation",
                None,
                format!("case={} sig={} {}", sc.id(), out.signature, detail),
            );
            let mut v = Violation {
                scenario: sc,
                plan,
                signature: out.signature,
                detail,
                bundle: None,
            };
            if let Some(dir) = &cfg.postmortem_dir {
                v.bundle = dump_violation_bundle(dir, cfg.max_postmortems, &v, i);
            }
            violations.push(v);
        }
        if (i + 1) % checkpoint == 0 || i + 1 == cfg.budget {
            curve.push(CurvePoint {
                runs: i + 1,
                cells: cells.len(),
            });
        }
    }

    CampaignReport {
        executed: cfg.budget,
        cells,
        curve,
        violations,
        discoveries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_is_deterministic_in_its_seed() {
        let cfg = CampaignConfig::new(42, 12);
        let a = run_campaign(&cfg);
        let b = run_campaign(&cfg);
        assert_eq!(a.cells, b.cells);
        assert_eq!(
            serde_json::to_string(&a.curve).unwrap(),
            serde_json::to_string(&b.curve).unwrap()
        );
    }

    #[test]
    fn violation_bundle_carries_case_context() {
        let (sc, plan) = crate::shrink::known_bad_case(3);
        let v = Violation {
            scenario: sc,
            plan,
            signature: "sig-test".into(),
            detail: "synthetic violation".into(),
            bundle: None,
        };
        let dir =
            std::env::temp_dir().join(format!("dpml-chaos-bundle-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dump_violation_bundle(&dir, 4, &v, 7).expect("bundle written");
        let bundle = PostmortemBundle::load(std::path::Path::new(&path)).unwrap();
        assert_eq!(bundle.reason, "chaos_violation");
        assert_eq!(bundle.notes, "synthetic violation");
        let job = bundle.job.expect("case context");
        assert_eq!(
            job.get("signature").and_then(|v| v.as_str()),
            Some("sig-test")
        );
        assert_eq!(job.get("case_index").and_then(|v| v.as_u64()), Some(7));
        assert!(job.get("scenario").is_some(), "scenario context present");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn coverage_grows_monotonically() {
        let report = run_campaign(&CampaignConfig::new(7, 24));
        let mut last = 0usize;
        for p in &report.curve {
            assert!(p.cells >= last);
            last = p.cells;
        }
        assert!(last >= 2, "a two-dozen-case campaign finds several cells");
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }
}
