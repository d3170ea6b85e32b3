//! One-call convenience wrapper: compile, simulate, verify.

use crate::algorithms::Algorithm;
use dpml_engine::{RunReport, SimConfig, Simulator};
use dpml_fabric::Preset;
use dpml_sharp::SharpFabric;
use dpml_topology::{ClusterSpec, Placement, RankMap};
use serde::{Deserialize, Serialize};

/// Engine abort budgets shared by the run entry points. `Default` is an
/// unbudgeted run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RunOpts {
    /// Abort with `EventBudgetExceeded` after this many events.
    pub event_budget: Option<u64>,
    /// Abort with `TimeBudgetExceeded` past this virtual time (seconds).
    pub time_budget_s: Option<f64>,
}

/// The outcome of one verified allreduce simulation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AllreduceReport {
    /// Algorithm name.
    pub algorithm: String,
    /// Message size in bytes.
    pub bytes: u64,
    /// Completion latency in microseconds.
    pub latency_us: f64,
    /// The full engine report.
    pub report: RunReport,
}

/// Error from [`run_allreduce`].
#[derive(Debug)]
pub enum RunError {
    /// The cluster/switch description itself was invalid.
    Topology(dpml_topology::TopologyError),
    /// Schedule compilation failed.
    Build(crate::algorithms::BuildError),
    /// Simulation failed (deadlock, missing oracle, ...).
    Sim(dpml_engine::sim::SimError),
    /// The simulated collective produced a wrong result.
    Verify(dpml_engine::VerifyError),
    /// A SHArP design was requested on a fabric without SHArP.
    NoSharpOnFabric,
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Topology(e) => write!(f, "topology: {e}"),
            RunError::Build(e) => write!(f, "build: {e}"),
            RunError::Sim(e) => write!(f, "simulation: {e}"),
            RunError::Verify(e) => write!(f, "verification: {e}"),
            RunError::NoSharpOnFabric => write!(f, "SHArP design on a fabric without SHArP"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<dpml_topology::TopologyError> for RunError {
    fn from(e: dpml_topology::TopologyError) -> Self {
        RunError::Topology(e)
    }
}

impl From<crate::algorithms::BuildError> for RunError {
    fn from(e: crate::algorithms::BuildError) -> Self {
        RunError::Build(e)
    }
}

impl From<dpml_engine::sim::SimError> for RunError {
    fn from(e: dpml_engine::sim::SimError) -> Self {
        RunError::Sim(e)
    }
}

impl From<dpml_engine::VerifyError> for RunError {
    fn from(e: dpml_engine::VerifyError) -> Self {
        RunError::Verify(e)
    }
}

/// Compile `alg` for `bytes` on the given cluster, simulate it, verify the
/// result, and report the latency. Uses the paper's block rank placement.
pub fn run_allreduce(
    preset: &Preset,
    spec: &ClusterSpec,
    alg: Algorithm,
    bytes: u64,
) -> Result<AllreduceReport, RunError> {
    run_allreduce_placed(preset, spec, Placement::Block, alg, bytes)
}

/// Run a batch of independent `(algorithm, bytes)` scenarios across
/// worker threads. Each scenario is a closed world (own `SimConfig`, own
/// schedule), so results are byte-identical to running [`run_allreduce`]
/// serially — and they return in input order regardless of completion
/// order (DESIGN.md §11). This is the parallel entry point behind the
/// CLI `sweep` subcommand; the bench binaries use the more general
/// `dpml_bench::sweep` runner.
pub fn run_allreduce_batch(
    preset: &Preset,
    spec: &ClusterSpec,
    scenarios: Vec<(Algorithm, u64)>,
) -> Vec<Result<AllreduceReport, RunError>> {
    run_allreduce_batch_with(preset, spec, &scenarios, &RunOpts::default())
}

/// [`run_allreduce_with`] over a scenario chunk on the scenario-parallel
/// runner (order-preserving). Checkpointed sweeps (and through them
/// `dpml-serve`) run each chunk through this, keeping their
/// cancel/deadline checkpoints at the chunk boundaries.
pub fn run_allreduce_batch_with(
    preset: &Preset,
    spec: &ClusterSpec,
    scenarios: &[(Algorithm, u64)],
    opts: &RunOpts,
) -> Vec<Result<AllreduceReport, RunError>> {
    use rayon::prelude::*;
    scenarios
        .to_vec()
        .into_par_iter()
        .map(|(alg, bytes)| run_allreduce_with(preset, spec, alg, bytes, opts))
        .collect()
}

/// [`run_allreduce`] under engine budgets: the simulation aborts with
/// [`RunError::Sim`] (`EventBudgetExceeded` / `TimeBudgetExceeded`)
/// instead of running to completion once either budget is exhausted.
/// `dpml-serve` maps job deadlines onto these budgets so a runaway
/// scenario cannot pin a worker forever.
pub fn run_allreduce_with(
    preset: &Preset,
    spec: &ClusterSpec,
    alg: Algorithm,
    bytes: u64,
    opts: &RunOpts,
) -> Result<AllreduceReport, RunError> {
    run_opted(preset, spec, Placement::Block, alg, bytes, opts)
}

/// [`run_allreduce`] with an explicit rank placement (block vs cyclic) —
/// used by the placement ablation: flat algorithms degrade badly under
/// cyclic placement while DPML's node-aware structure does not.
pub fn run_allreduce_placed(
    preset: &Preset,
    spec: &ClusterSpec,
    placement: Placement,
    alg: Algorithm,
    bytes: u64,
) -> Result<AllreduceReport, RunError> {
    run_opted(preset, spec, placement, alg, bytes, &RunOpts::default())
}

fn run_opted(
    preset: &Preset,
    spec: &ClusterSpec,
    placement: Placement,
    alg: Algorithm,
    bytes: u64,
    opts: &RunOpts,
) -> Result<AllreduceReport, RunError> {
    let map = match placement {
        Placement::Block => RankMap::block(spec),
        Placement::Cyclic => RankMap::cyclic(spec),
    };
    let cfg = SimConfig::new(map.clone(), preset.fabric.clone(), preset.switch)?;
    let world = alg.build(&map, bytes)?;
    fn opted<'a>(mut sim: Simulator<'a>, opts: &RunOpts) -> Simulator<'a> {
        if let Some(events) = opts.event_budget {
            sim = sim.with_event_budget(events);
        }
        if let Some(s) = opts.time_budget_s {
            sim = sim.with_time_budget(s);
        }
        sim
    }
    let report = if alg.needs_sharp() {
        let params = preset.fabric.sharp.ok_or(RunError::NoSharpOnFabric)?;
        let oracle = SharpFabric::new(params, cfg.tree.clone(), map);
        opted(Simulator::new(&cfg).with_sharp(&oracle), opts).run(&world)?
    } else {
        opted(Simulator::new(&cfg), opts).run(&world)?
    };
    report.verify_allreduce()?;
    Ok(AllreduceReport {
        algorithm: alg.name(),
        bytes,
        latency_us: report.latency_us(),
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::FlatAlg;
    use dpml_fabric::presets::{cluster_a, cluster_b};

    #[test]
    fn runs_and_verifies() {
        let p = cluster_b();
        let spec = p.spec(4, 4).unwrap();
        let rep = run_allreduce(
            &p,
            &spec,
            Algorithm::Dpml {
                leaders: 4,
                inner: FlatAlg::RecursiveDoubling,
            },
            65536,
        )
        .unwrap();
        assert!(rep.latency_us > 0.0);
        assert_eq!(rep.algorithm, "dpml-l4");
    }

    #[test]
    fn sharp_on_non_sharp_fabric_is_an_error() {
        let p = cluster_b();
        let spec = p.spec(4, 4).unwrap();
        let err = run_allreduce(&p, &spec, Algorithm::SharpNodeLeader, 256).unwrap_err();
        assert!(matches!(err, RunError::NoSharpOnFabric));
    }

    #[test]
    fn sharp_runs_on_cluster_a() {
        let p = cluster_a();
        let spec = p.spec(4, 4).unwrap();
        let rep = run_allreduce(&p, &spec, Algorithm::SharpSocketLeader, 256).unwrap();
        assert_eq!(rep.report.stats.sharp_ops, 1);
    }

    #[test]
    fn budgeted_run_matches_unbudgeted_and_trips_on_tiny_budgets() {
        let p = cluster_b();
        let spec = p.spec(4, 4).unwrap();
        let alg = Algorithm::Dpml {
            leaders: 4,
            inner: FlatAlg::RecursiveDoubling,
        };
        let budgeted = |event_budget, time_budget_s| {
            let opts = RunOpts {
                event_budget,
                time_budget_s,
            };
            run_allreduce_with(&p, &spec, alg, 65536, &opts)
        };
        let plain = run_allreduce(&p, &spec, alg, 65536).unwrap();
        let roomy = budgeted(Some(10_000_000), Some(10.0)).unwrap();
        assert_eq!(plain.latency_us.to_bits(), roomy.latency_us.to_bits());

        let err = budgeted(Some(3), None).unwrap_err();
        assert!(matches!(
            err,
            RunError::Sim(dpml_engine::sim::SimError::EventBudgetExceeded(_))
        ));
        let err = budgeted(None, Some(1e-9)).unwrap_err();
        assert!(matches!(
            err,
            RunError::Sim(dpml_engine::sim::SimError::TimeBudgetExceeded(_))
        ));
    }

    #[test]
    fn build_error_propagates() {
        let p = cluster_b();
        let spec = p.spec(4, 4).unwrap();
        let err = run_allreduce(
            &p,
            &spec,
            Algorithm::Dpml {
                leaders: 9,
                inner: FlatAlg::Ring,
            },
            1024,
        )
        .unwrap_err();
        assert!(matches!(err, RunError::Build(_)));
    }
}
