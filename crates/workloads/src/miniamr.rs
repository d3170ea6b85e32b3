//! miniAMR-like adaptive-mesh-refinement skeleton (paper Section 6.6).
//!
//! miniAMR interleaves 3D stencil sweeps with periodic *mesh refinement*
//! steps. Refinement is globally coordinated: every rank contributes its
//! block refinement flags/counts to allreduces whose payload grows with the
//! **global** block count — so unlike HPCG's DDOT, the message size scales
//! with the job and lands squarely in DPML's medium/large sweet spot. The
//! paper cranks the refinement frequency up until refinement is >98% of
//! runtime, making Fig. 11(b) effectively a medium/large-message allreduce
//! benchmark; we expose the same knob.

use crate::app::{AppProfile, AppStep};
use serde::{Deserialize, Serialize};

/// miniAMR skeleton parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MiniAmrConfig {
    /// Refinement steps to run.
    pub refinements: u32,
    /// Stencil sweeps between refinements (the paper's configuration makes
    /// refinement dominate, i.e. this is small).
    pub sweeps_per_refinement: u32,
    /// Blocks owned per rank.
    pub blocks_per_rank: u32,
    /// Cells per block edge (stencil work per sweep ∝ blocks × edge³).
    pub block_edge: u32,
    /// Sustained per-core compute rate, flops/second.
    pub core_flops: f64,
}

impl Default for MiniAmrConfig {
    fn default() -> Self {
        MiniAmrConfig {
            refinements: 20,
            sweeps_per_refinement: 1,
            blocks_per_rank: 8,
            block_edge: 16,
            core_flops: 3.0e9,
        }
    }
}

impl MiniAmrConfig {
    /// Refinement allreduce payload for a job of `world_size` ranks:
    /// one 4-byte tag per global block.
    pub fn refinement_bytes(&self, world_size: u32) -> u64 {
        4 * self.blocks_per_rank as u64 * world_size as u64
    }

    /// Stencil compute time per sweep, seconds (7-point stencil).
    fn sweep_seconds(&self) -> f64 {
        let cells = self.blocks_per_rank as f64 * (self.block_edge as f64).powi(3);
        cells * 8.0 / self.core_flops
    }

    /// The communication profile for a job of `world_size` ranks.
    pub fn profile(&self, world_size: u32) -> AppProfile {
        let bytes = self.refinement_bytes(world_size).max(8);
        let sweep = self.sweep_seconds();
        let mut steps = Vec::new();
        for _ in 0..self.refinements {
            for _ in 0..self.sweeps_per_refinement {
                steps.push(AppStep::Compute(sweep));
            }
            // Refinement: a small consensus allreduce plus the big
            // per-block tag exchange.
            steps.push(AppStep::Allreduce(8));
            steps.push(AppStep::Allreduce(bytes));
        }
        AppProfile {
            name: "miniamr-refine".into(),
            steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::run_app;
    use dpml_core::algorithms::Algorithm;
    use dpml_core::selector::Library;
    use dpml_fabric::presets::cluster_c;

    #[test]
    fn refinement_size_grows_with_job() {
        let cfg = MiniAmrConfig::default();
        assert_eq!(cfg.refinement_bytes(56), 4 * 8 * 56);
        assert!(cfg.refinement_bytes(1792) > cfg.refinement_bytes(56));
    }

    #[test]
    fn profile_shape() {
        let cfg = MiniAmrConfig {
            refinements: 5,
            ..Default::default()
        };
        let p = cfg.profile(448);
        assert_eq!(p.allreduce_calls(), 10);
        assert_eq!(p.max_allreduce_bytes(), 4 * 8 * 448);
    }

    #[test]
    fn dpml_beats_mvapich2_on_refinement() {
        // Fig. 11(b): refinement allreduces are medium/large → DPML wins.
        let preset = cluster_c();
        let spec = preset.spec(8, 28).unwrap();
        let cfg = MiniAmrConfig {
            refinements: 5,
            ..Default::default()
        };
        let profile = cfg.profile(spec.world_size());
        let mva = run_app(&preset, &spec, &profile, &|bytes| {
            Library::Mvapich2.choose(&preset, &spec, bytes)
        })
        .unwrap();
        let dpml = run_app(&preset, &spec, &profile, &|bytes| {
            Library::DpmlTuned.choose(&preset, &spec, bytes)
        })
        .unwrap();
        assert!(
            dpml.comm_us < mva.comm_us,
            "dpml {} vs mvapich2 {}",
            dpml.comm_us,
            mva.comm_us
        );
        // And the tuned dispatch actually picked DPML for the big call.
        let big = cfg.refinement_bytes(spec.world_size());
        assert!(matches!(
            Library::DpmlTuned.choose(&preset, &spec, big),
            Algorithm::Dpml { .. } | Algorithm::DpmlPipelined { .. }
        ));
    }
}
