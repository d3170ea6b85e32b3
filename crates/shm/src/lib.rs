//! Real-threads shared-memory runtime.
//!
//! Everything else in this workspace *models* time; this crate runs the
//! intra-node part of DPML (phases 1, 2 and 4 of the paper's Figure 2) on
//! OS threads with real vectors. It carries real bytes, so the integrity
//! figure's poisoned-publish pass checksums and repairs actual payloads.
//! The numerics of every compiled schedule are checked elsewhere, by the
//! engine's untimed interpreter (`dpml_engine::exec`).
//!
//! Threads within a [`intranode::NodeRuntime`] are "ranks on one node" and
//! communicate through [`region::SharedSlots`] (true shared memory guarded
//! by [`barrier::SpinBarrier`]). The crate also holds the CRC32C and the
//! lock-free [`metrics`] that `dpml-serve` uses.

pub mod barrier;
pub mod integrity;
pub mod intranode;
pub mod kernels;
pub mod metrics;
pub mod region;

pub use barrier::SpinBarrier;
pub use integrity::{crc32c, crc32c_bytes, PoisonPlan};
pub use intranode::NodeRuntime;
pub use metrics::{Counter, Histogram, MetricsSnapshot};
pub use region::SharedSlots;
