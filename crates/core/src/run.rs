//! The one run path: compile a [`Scenario`], [`simulate`] it under an
//! [`Exec`], verify the result.

use crate::algorithms::Algorithm;
use dpml_engine::{RunReport, SimConfig, Simulator, WorldProgram};
use dpml_fabric::Preset;
use dpml_faults::FaultPlan;
use dpml_sharp::SharpFabric;
use dpml_topology::{ClusterSpec, Placement, RankMap};
use serde::{Deserialize, Serialize};

/// What runs: one allreduce of `bytes` with `alg` on a cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario<'a> {
    /// Cluster speed model.
    pub preset: &'a Preset,
    /// Cluster shape.
    pub spec: &'a ClusterSpec,
    /// Rank placement: block in the paper, cyclic for the ablation.
    pub placement: Placement,
    /// The schedule to compile.
    pub alg: Algorithm,
    /// Message size in bytes.
    pub bytes: u64,
}

impl<'a> Scenario<'a> {
    /// A scenario with the paper's block rank placement.
    pub fn new(preset: &'a Preset, spec: &'a ClusterSpec, alg: Algorithm, bytes: u64) -> Self {
        Scenario {
            preset,
            spec,
            placement: Placement::Block,
            alg,
            bytes,
        }
    }
}

/// How it runs. `Exec::default()` is a plain run: no budgets, no faults,
/// no trace.
///
/// The fault plan lives here, beside the attempt that indexes it, because
/// the resilience and integrity ladders vary both from one try to the
/// next while the scenario stays fixed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Exec<'a> {
    /// Abort with `EventBudgetExceeded` after this many events.
    pub event_budget: Option<u64>,
    /// Abort with `TimeBudgetExceeded` past this virtual time (seconds).
    pub time_budget_s: Option<f64>,
    /// Inject this fault plan; `None` runs the engine unfaulted.
    pub faults: Option<&'a FaultPlan>,
    /// Which retry attempt this run is (see
    /// [`dpml_faults::SharpFaults::flaky_attempts`]).
    pub fault_attempt: u32,
    /// Record the execution timeline into `RunReport::trace`.
    pub trace: bool,
}

impl<'a> Exec<'a> {
    /// Attempt `fault_attempt` under `plan`, otherwise a plain run.
    pub fn faulted(plan: &'a FaultPlan, fault_attempt: u32) -> Self {
        Exec {
            faults: Some(plan),
            fault_attempt,
            ..Exec::default()
        }
    }
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

/// Error from [`run`] and [`simulate`].
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

/// Place the ranks, compile the schedule, [`simulate`] it under `exec`,
/// verify the result, and report the latency.
pub fn run(scenario: &Scenario, exec: &Exec) -> Result<AllreduceReport, RunError> {
    let Scenario {
        preset,
        spec,
        placement,
        alg,
        bytes,
    } = *scenario;
    let map = match placement {
        Placement::Block => RankMap::block(spec),
        Placement::Cyclic => RankMap::cyclic(spec),
    };
    let world = alg.build(&map, bytes)?;
    let report = simulate(preset, &map, &world, exec)?;
    report.verify_allreduce()?;
    Ok(AllreduceReport {
        algorithm: alg.name(),
        bytes,
        latency_us: report.latency_us(),
        report,
    })
}

/// Execute a compiled world on the cluster. A world with SHArP groups gets
/// the fabric's SHArP oracle, or [`RunError::NoSharpOnFabric`] when the
/// fabric has none. The result is not verified: custom worlds (apps,
/// integrity continuations) verify by their own rules.
pub fn simulate(
    preset: &Preset,
    map: &RankMap,
    world: &WorldProgram,
    exec: &Exec,
) -> Result<RunReport, RunError> {
    let cfg = SimConfig::new(map.clone(), preset.fabric.clone(), preset.switch)?;
    let oracle = if world.sharp_groups.is_empty() {
        None
    } else {
        let params = preset.fabric.sharp.ok_or(RunError::NoSharpOnFabric)?;
        Some(SharpFabric::new(params, cfg.tree.clone(), map.clone()))
    };
    let mut sim = Simulator::new(&cfg).with_fault_attempt(exec.fault_attempt);
    if let Some(oracle) = &oracle {
        sim = sim.with_sharp(oracle);
    }
    if let Some(events) = exec.event_budget {
        sim = sim.with_event_budget(events);
    }
    if let Some(s) = exec.time_budget_s {
        sim = sim.with_time_budget(s);
    }
    if let Some(plan) = exec.faults {
        sim = sim.with_faults(plan);
    }
    if exec.trace {
        sim = sim.with_trace();
    }
    Ok(sim.run(world)?)
}

/// [`run`] over independent `(algorithm, bytes)` scenarios on worker
/// threads. Each scenario is a closed world, so the results are
/// byte-identical to a serial loop and return in input order
/// (DESIGN.md §11). Behind the CLI `sweep` and checkpointed sweeps.
pub fn run_batch(
    preset: &Preset,
    spec: &ClusterSpec,
    scenarios: &[(Algorithm, u64)],
    exec: &Exec,
) -> Vec<Result<AllreduceReport, RunError>> {
    use rayon::prelude::*;
    scenarios
        .to_vec()
        .into_par_iter()
        .map(|(alg, bytes)| run(&Scenario::new(preset, spec, alg, bytes), exec))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::FlatAlg;
    use dpml_engine::sim::SimError;
    use dpml_fabric::presets::{cluster_a, cluster_b};

    const DPML4: Algorithm = Algorithm::Dpml {
        leaders: 4,
        inner: FlatAlg::RecursiveDoubling,
    };

    #[test]
    fn runs_and_verifies() {
        let p = cluster_b();
        let spec = p.spec(4, 4).unwrap();
        let rep = run(&Scenario::new(&p, &spec, DPML4, 65536), &Exec::default()).unwrap();
        assert!(rep.latency_us > 0.0);
        assert_eq!(rep.algorithm, "dpml-l4");
    }

    #[test]
    fn sharp_on_non_sharp_fabric_is_an_error() {
        let p = cluster_b();
        let spec = p.spec(4, 4).unwrap();
        let scenario = Scenario::new(&p, &spec, Algorithm::SharpNodeLeader, 256);
        let err = run(&scenario, &Exec::default()).unwrap_err();
        assert!(matches!(err, RunError::NoSharpOnFabric));
    }

    #[test]
    fn sharp_runs_on_cluster_a() {
        let p = cluster_a();
        let spec = p.spec(4, 4).unwrap();
        let scenario = Scenario::new(&p, &spec, Algorithm::SharpSocketLeader, 256);
        let rep = run(&scenario, &Exec::default()).unwrap();
        assert_eq!(rep.report.stats.sharp_ops, 1);
    }

    #[test]
    fn budgeted_run_matches_unbudgeted_and_trips_on_tiny_budgets() {
        let p = cluster_b();
        let spec = p.spec(4, 4).unwrap();
        let scenario = Scenario::new(&p, &spec, DPML4, 65536);
        let budgeted = |event_budget, time_budget_s| {
            let exec = Exec {
                event_budget,
                time_budget_s,
                ..Exec::default()
            };
            run(&scenario, &exec)
        };
        let plain = run(&scenario, &Exec::default()).unwrap();
        let roomy = budgeted(Some(10_000_000), Some(10.0)).unwrap();
        assert_eq!(plain.latency_us.to_bits(), roomy.latency_us.to_bits());

        let err = budgeted(Some(3), None).unwrap_err();
        assert!(matches!(
            err,
            RunError::Sim(SimError::EventBudgetExceeded(_))
        ));
        let err = budgeted(None, Some(1e-9)).unwrap_err();
        assert!(matches!(
            err,
            RunError::Sim(SimError::TimeBudgetExceeded(_))
        ));
    }

    #[test]
    fn build_error_propagates() {
        let p = cluster_b();
        let spec = p.spec(4, 4).unwrap();
        let alg = Algorithm::Dpml {
            leaders: 9,
            inner: FlatAlg::Ring,
        };
        let err = run(&Scenario::new(&p, &spec, alg, 1024), &Exec::default()).unwrap_err();
        assert!(matches!(err, RunError::Build(_)));
    }

    #[test]
    fn cyclic_placement_reaches_the_engine() {
        let p = cluster_b();
        let spec = p.spec(4, 4).unwrap();
        let placed = |alg, placement| {
            let scenario = Scenario {
                placement,
                ..Scenario::new(&p, &spec, alg, 65536)
            };
            run(&scenario, &Exec::default()).unwrap().latency_us
        };
        // `run` verifies, so each call also checks the cyclic result.
        placed(DPML4, Placement::Cyclic);
        let block = placed(Algorithm::Ring, Placement::Block);
        let cyclic = placed(Algorithm::Ring, Placement::Cyclic);
        assert_ne!(block.to_bits(), cyclic.to_bits());
    }

    #[test]
    fn batch_matches_serial_runs_in_input_order() {
        let p = cluster_b();
        let spec = p.spec(2, 4).unwrap();
        let scenarios = [(Algorithm::Ring, 4096), (DPML4, 64), (Algorithm::Ring, 64)];
        let batch = run_batch(&p, &spec, &scenarios, &Exec::default());
        for (&(alg, bytes), got) in scenarios.iter().zip(&batch) {
            let serial = run(&Scenario::new(&p, &spec, alg, bytes), &Exec::default()).unwrap();
            assert_eq!(got.as_ref().unwrap().report, serial.report);
        }
    }
}
