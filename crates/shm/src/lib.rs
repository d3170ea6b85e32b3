//! Real-threads shared-memory runtime.
//!
//! Everything else in this workspace *models* time; this crate actually
//! runs the DPML data movement on OS threads with real vectors, so that
//! every algorithm's arithmetic is validated bit-for-bit against a serial
//! reference (the simulator validates schedules symbolically; this crate
//! validates the kernels and the phase structure numerically, including
//! the intra-node phases 1/2/4 of the paper's Figure 2).
//!
//! Threads within a [`intranode::NodeRuntime`] are "ranks on one node" and
//! communicate through [`region::SharedSlots`] (true shared memory guarded
//! by [`barrier::SpinBarrier`]); a [`cluster::ThreadCluster`] groups
//! threads into virtual nodes whose leaders exchange messages over
//! channels, executing the full four-phase DPML allreduce end to end.

pub mod barrier;
pub mod cluster;
pub mod integrity;
pub mod intranode;
pub mod kernels;
pub mod mailbox;
pub mod metrics;
pub mod region;

pub use barrier::SpinBarrier;
pub use cluster::ThreadCluster;
pub use integrity::{crc32c, crc32c_bytes, PoisonPlan};
pub use intranode::{IntraAlgo, NodeRuntime};
pub use metrics::{Counter, Histogram, MetricsSnapshot};
pub use region::SharedSlots;
