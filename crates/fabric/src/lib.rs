//! Hardware speed models for the DPML reproduction.
//!
//! The paper's evaluation (Section 6.1) spans four clusters combining two
//! CPU generations (Xeon Haswell/Broadwell, Xeon Phi KNL) with two fabrics
//! (Mellanox EDR InfiniBand, Intel Omni-Path). This crate captures the
//! handful of hardware parameters that the paper's observations (Section 3,
//! Figure 1) actually depend on:
//!
//! * per-process injection overhead and per-NIC aggregate message rate
//!   (→ Zone A: small-message throughput scales with concurrency),
//! * per-flow vs. per-NIC bandwidth caps (→ Zone C: whether concurrency
//!   helps large messages — it does on IB where a single flow cannot
//!   saturate the NIC, it does not on Omni-Path where it can),
//! * shared-memory copy latency/bandwidth and the node memory-bus ceiling
//!   (→ Figure 1(a): intra-node concurrency scales nearly linearly),
//! * per-core reduction throughput (→ why a single leader is compute-bound
//!   and distributing reductions over `l` leaders helps).
//!
//! The presets in [`presets`] are calibrated so that the *shape* of every
//! figure in the paper is reproduced by the simulator; absolute values are
//! plausible for the named hardware but not authoritative.

pub mod compute;
pub mod memory;
pub mod network;
pub mod presets;
pub mod sharp_params;

pub use compute::ComputeModel;
pub use memory::MemoryModel;
pub use network::NicModel;
pub use presets::Preset;
pub use sharp_params::SharpParams;

use serde::{Deserialize, Serialize};

/// The complete speed model of one cluster: NIC, memory system, CPU, and
/// optional in-network aggregation (SHArP) capability.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fabric {
    /// Human-readable name ("Cluster A (Xeon + IB w/ SHArP)", ...).
    pub name: String,
    /// Network interface model.
    pub nic: NicModel,
    /// Intra-node memory system model.
    pub mem: MemoryModel,
    /// CPU reduction-throughput model.
    pub compute: ComputeModel,
    /// In-network aggregation capability, if the fabric supports it
    /// (only Mellanox IB with SHArP-capable switches — Cluster A).
    pub sharp: Option<SharpParams>,
}

impl Fabric {
    /// True when the fabric supports SHArP offload.
    #[inline]
    pub fn has_sharp(&self) -> bool {
        self.sharp.is_some()
    }
}
