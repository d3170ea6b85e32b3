//! # dpml — Data Partitioning-based Multi-Leader reduction collectives
//!
//! A from-scratch Rust reproduction of *"Scalable Reduction Collectives with
//! Data Partitioning-based Multi-Leader Design"* (Bayatpour et al., SC '17).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`topology`] — cluster shapes, rank maps, switch trees, leader policies
//! * [`fabric`] — hardware speed models and calibrated Cluster A–D presets
//! * [`model`] — the paper's analytic cost model (Section 5, Eqs. 1–7)
//! * [`engine`] — flow-level discrete-event cluster simulator, and an
//!   untimed interpreter that checks every schedule's arithmetic
//! * [`sharp`] — in-network (SHArP) aggregation model
//! * [`core`] — the collective algorithms: DPML, DPML-Pipelined, SHArP
//!   leader designs, and the baselines (recursive doubling, Rabenseifner,
//!   ring, single-leader hierarchical) plus library selectors
//! * [`shm`] — a real-threads shared-memory runtime executing DPML's
//!   intra-node phases with actual data (the integrity figure's
//!   real-bytes pass), plus the CRC32C and live metrics the daemon uses
//! * [`faults`] — deterministic fault-injection plans (OS noise,
//!   link degradation, SHArP resource faults) executed by the engine
//! * [`workloads`] — HPCG-like and miniAMR-like application skeletons
//! * [`serve`] — a fault-isolated simulation daemon: bounded queues,
//!   deadlines, deterministic retries, crash-safe job journaling, and a
//!   content-addressed result cache (DESIGN.md §12)
//! * [`chaos`] — coverage-guided chaos campaigns: outcome-coverage
//!   search over fault plans, delta-debugging failure shrinking, and a
//!   replayable regression corpus (DESIGN.md §13)
//!
//! See `examples/quickstart.rs` for a five-minute tour.

pub use dpml_chaos as chaos;
pub use dpml_core as core;
pub use dpml_engine as engine;
pub use dpml_fabric as fabric;
pub use dpml_faults as faults;
pub use dpml_model as model;
pub use dpml_serve as serve;
pub use dpml_sharp as sharp;
pub use dpml_shm as shm;
pub use dpml_topology as topology;
pub use dpml_workloads as workloads;

/// Convenience prelude importing the most common types.
pub mod prelude {
    pub use dpml_core::algorithms::Algorithm;
    pub use dpml_core::integrity::{run_allreduce_verified, IntegrityPolicy, IntegrityReport};
    pub use dpml_core::run::{run, AllreduceReport, Exec, Scenario};
    pub use dpml_fabric::presets::{cluster_a, cluster_b, cluster_c, cluster_d};
    pub use dpml_fabric::Fabric;
    pub use dpml_faults::FaultPlan;
    pub use dpml_topology::{ClusterSpec, LeaderPolicy, RankMap};
}
