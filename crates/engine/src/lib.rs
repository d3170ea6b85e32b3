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
//! The engine keeps no buffer values: it computes *when*. [`exec`], an
//! untimed interpreter of the same program, computes *what*: every
//! buffer is a [`coverage::CoverageMap`], per byte range a checksum of
//! the rank contributions it holds. Sends snapshot coverage, receives
//! overwrite it, `Reduce` adds it. [`sim::Simulator::run`] runs it once
//! after the timed pass to fill [`report::RunReport::result_coverage`],
//! and [`report::RunReport::verify_allreduce`] then proves that the
//! schedule delivered every contribution to every rank exactly once — so
//! a simulated collective cannot be "fast but wrong". Because the result
//! no longer follows the timed order, the interpreter also checks that no
//! order could compute another: a race on a shared buffer, or a touch of
//! a receive's bytes before its `WaitAll`, fails the run
//! ([`sim::SimError::Race`]).
//!
//! ## One stepper, two hosts
//!
//! The engine and [`exec`] do not each interpret [`program::Instr`]: both
//! are hosts of one crate-private instruction stepper. It owns every
//! rank's program counter, request states and status, FIFO message
//! matching per (destination, source, tag), and the barrier and SHArP
//! rendezvous (each id has at most one open occurrence; the last member
//! to arrive closes it). The engine owns what the effects cost; the
//! interpreter owns what they compute and the race check.

pub mod coverage;
pub mod critical;
pub mod exec;
pub mod flight;
pub mod program;
pub mod queue;
mod race;
pub mod report;
pub mod resources;
pub mod sim;
mod stepper;
pub mod time;
pub mod trace;

pub use coverage::{Contrib, CoverageMap};
pub use critical::{CostKind, CriticalPath, Segment, Zone};
pub use flight::{FlightEvent, FlightRecorder, PostmortemBundle};
pub use program::{BufKey, ByteRange, Instr, Program, ProgramBuilder, ReqId, Tag, WorldProgram};
pub use report::{ResourceUsage, RunReport, RunStats, VerifyError};
pub use sim::{PendingOp, SharpOracle, SimConfig, SimError, Simulator};
pub use time::SimTime;
pub use trace::{MsgTrace, Phase, Release, Span, SpanKind, Trace};
