//! Generic application profile: compute steps interleaved with allreduces.

use dpml_core::algorithms::{Algorithm, BuildError};
use dpml_core::run::{simulate, Exec, RunError};
use dpml_engine::program::{ByteRange, ProgramBuilder, WorldProgram};
use dpml_fabric::Preset;
use dpml_topology::{ClusterSpec, RankMap};
use serde::{Deserialize, Serialize};

/// One step of an application's communication profile.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AppStep {
    /// Local computation on every rank, seconds.
    Compute(f64),
    /// A blocking allreduce of `bytes`.
    Allreduce(u64),
}

/// An application's per-rank step sequence (identical across ranks — both
/// proxy apps are bulk-synchronous).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppProfile {
    /// Application name for reports.
    pub name: String,
    /// The step sequence.
    pub steps: Vec<AppStep>,
}

impl AppProfile {
    /// Total local compute time per rank, seconds.
    pub fn compute_seconds(&self) -> f64 {
        self.steps
            .iter()
            .map(|s| if let AppStep::Compute(t) = s { *t } else { 0.0 })
            .sum()
    }

    /// Number of allreduce calls.
    pub fn allreduce_calls(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, AppStep::Allreduce(_)))
            .count()
    }

    /// Largest allreduce size, bytes.
    pub fn max_allreduce_bytes(&self) -> u64 {
        self.steps
            .iter()
            .filter_map(|s| {
                if let AppStep::Allreduce(b) = s {
                    Some(*b)
                } else {
                    None
                }
            })
            .max()
            .unwrap_or(0)
    }
}

/// Result of simulating an application profile.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AppReport {
    /// End-to-end virtual time, microseconds.
    pub total_us: f64,
    /// Per-rank local compute time, microseconds.
    pub compute_us: f64,
    /// Time attributable to communication (total − compute), microseconds.
    pub comm_us: f64,
    /// Number of allreduce calls simulated.
    pub allreduce_calls: usize,
}

/// Compile an application profile into a world program, dispatching each
/// allreduce through `choose` (size → algorithm).
pub fn build_app(
    map: &RankMap,
    profile: &AppProfile,
    choose: &dyn Fn(u64) -> Algorithm,
) -> Result<WorldProgram, BuildError> {
    let max_bytes = profile.max_allreduce_bytes().max(1);
    let mut w = WorldProgram::new(map.world_size(), max_bytes);
    let mut b = ProgramBuilder::new();
    for step in &profile.steps {
        match *step {
            AppStep::Compute(secs) => {
                for r in map.all_ranks() {
                    let prog = w.rank(r);
                    prog.set_phase(dpml_engine::Phase::App);
                    prog.compute(secs);
                }
            }
            AppStep::Allreduce(bytes) => {
                let alg = choose(bytes);
                alg.emit(&mut w, &mut b, map, ByteRange::whole(bytes.min(max_bytes)))?;
            }
        }
    }
    Ok(w)
}

/// Simulate an application profile on a cluster with a per-size algorithm
/// choice.
pub fn run_app(
    preset: &Preset,
    spec: &ClusterSpec,
    profile: &AppProfile,
    choose: &dyn Fn(u64) -> Algorithm,
) -> Result<AppReport, RunError> {
    let map = RankMap::block(spec);
    let world = build_app(&map, profile, choose)?;
    let report = simulate(preset, &map, &world, &Exec::default())?;
    let total_us = report.latency_us();
    let compute_us = profile.compute_seconds() * 1e6;
    Ok(AppReport {
        total_us,
        compute_us,
        comm_us: (total_us - compute_us).max(0.0),
        allreduce_calls: profile.allreduce_calls(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpml_core::algorithms::FlatAlg;
    use dpml_fabric::presets::cluster_b;

    fn profile() -> AppProfile {
        AppProfile {
            name: "test".into(),
            steps: vec![
                AppStep::Compute(10e-6),
                AppStep::Allreduce(8),
                AppStep::Compute(10e-6),
                AppStep::Allreduce(4096),
            ],
        }
    }

    #[test]
    fn profile_accessors() {
        let p = profile();
        assert!((p.compute_seconds() - 20e-6).abs() < 1e-12);
        assert_eq!(p.allreduce_calls(), 2);
        assert_eq!(p.max_allreduce_bytes(), 4096);
    }

    #[test]
    fn app_runs_and_accounts_time() {
        let preset = cluster_b();
        let spec = preset.spec(4, 4).unwrap();
        let rep = run_app(&preset, &spec, &profile(), &|_bytes| {
            Algorithm::SingleLeader {
                inner: FlatAlg::RecursiveDoubling,
            }
        })
        .unwrap();
        assert!(rep.total_us > rep.compute_us);
        assert!(rep.comm_us > 0.0);
        assert_eq!(rep.allreduce_calls, 2);
    }

    #[test]
    fn size_dispatch_reaches_choose() {
        let preset = cluster_b();
        let spec = preset.spec(2, 4).unwrap();
        let seen = std::cell::RefCell::new(Vec::new());
        let _ = run_app(&preset, &spec, &profile(), &|bytes| {
            seen.borrow_mut().push(bytes);
            Algorithm::RecursiveDoubling
        })
        .unwrap();
        assert_eq!(*seen.borrow(), vec![8, 4096]);
    }

    #[test]
    fn compute_only_profile() {
        let preset = cluster_b();
        let spec = preset.spec(2, 2).unwrap();
        let p = AppProfile {
            name: "idle".into(),
            steps: vec![AppStep::Compute(5e-6)],
        };
        let rep = run_app(&preset, &spec, &p, &|_| Algorithm::RecursiveDoubling).unwrap();
        assert!((rep.total_us - 5.0).abs() < 0.5);
        assert_eq!(rep.allreduce_calls, 0);
    }

    #[test]
    fn sharp_design_on_fabric_without_sharp_is_an_error() {
        let preset = cluster_b();
        let spec = preset.spec(2, 4).unwrap();
        let err = run_app(&preset, &spec, &profile(), &|_| Algorithm::SharpNodeLeader).unwrap_err();
        assert!(matches!(err, RunError::NoSharpOnFabric));
    }
}
