//! Flow-level discrete-event cluster simulator.
//!
//! The engine executes *rank programs* — per-process sequences of
//! communication, copy, reduction, and synchronization instructions
//! ([`program::Instr`]) — over a modeled cluster ([`dpml_fabric::Fabric`] +
//! [`dpml_topology`]) and reports virtual-time completion plus a full
//! correctness verification of the collective's data movement.
//!
//! ## Timing model
//!
//! * Point-to-point messages pay sender injection overhead (CPU), queue
//!   through a per-NIC message-rate server, then drain as **fluid flows**
//!   whose rates are max-min fair-shared over the sender NIC, receiver NIC
//!   and per-flow caps ([`resources::FluidSystem`]), and finally pay wire
//!   latency proportional to switch hops.
//! * Shared-memory copies and reductions are fluid flows on the node's
//!   memory bus with per-process ceilings.
//! * SHArP operations gate on group arrival, queue on the fabric-wide
//!   concurrency limit, and take a duration provided by a [`SharpOracle`]
//!   implementation (see `dpml-sharp`).
//!
//! ## Correctness model
//!
//! Every buffer carries a [`coverage::CoverageMap`]: which (rank,
//! byte-range) contributions it currently holds. Sends snapshot coverage,
//! receives overwrite it, `Reduce` unions it (charging compute time).
//! [`report::RunReport::verify_allreduce`] then proves that the schedule
//! delivered every contribution to every rank exactly where it should —
//! so a simulated collective cannot be "fast but wrong". A union is
//! idempotent, so a contribution folded twice still passes; the untimed
//! interpreter in [`exec`] computes exact values and catches it.

pub mod coverage;
pub mod critical;
pub mod exec;
pub mod flight;
pub mod program;
pub mod queue;
pub mod report;
pub mod resources;
pub mod sim;
pub mod time;
pub mod trace;

pub use coverage::{CoverageMap, RankSet};
pub use critical::{CostKind, CriticalPath, Segment, Zone};
pub use flight::{FlightEvent, FlightRecorder, PostmortemBundle};
pub use program::{BufKey, ByteRange, Instr, Program, ProgramBuilder, ReqId, Tag, WorldProgram};
pub use report::{ResourceUsage, RunReport, RunStats, VerifyError};
pub use sim::{PendingOp, SharpOracle, SimConfig, SimError, Simulator};
pub use time::SimTime;
pub use trace::{MsgTrace, Phase, Release, Span, SpanKind, Trace};
