//! The paper's contribution: Data Partitioning-based Multi-Leader (DPML)
//! reduction collectives, plus every baseline it is evaluated against.
//!
//! Algorithms are *schedule compilers*: given a cluster shape and a message
//! size they emit per-rank instruction programs
//! ([`dpml_engine::WorldProgram`]) which the discrete-event engine executes,
//! times, and verifies. Three of the nine variants —
//! [`Algorithm::RecursiveDoubling`], [`Algorithm::Dpml`] and
//! [`Algorithm::DpmlPipelined`] — also have hand-written real-threads
//! copies in `dpml-shm`, used for numerical validation; the other six are
//! checked only symbolically, by the engine's coverage verification.
//!
//! | Algorithm | Paper role |
//! |---|---|
//! | [`Algorithm::RecursiveDoubling`] | flat baseline, Eq. (1) |
//! | [`Algorithm::Rabenseifner`] | flat reduce-scatter + allgather baseline |
//! | [`Algorithm::Ring`] | flat bandwidth-optimal baseline |
//! | [`Algorithm::BinomialReduceBcast`] | flat latency baseline |
//! | [`Algorithm::SingleLeader`] | classic shared-memory hierarchical design (Section 2.1) |
//! | [`Algorithm::Dpml`] | the proposed design, Section 4.1 / Figure 2 |
//! | [`Algorithm::DpmlPipelined`] | Section 4.2, Omni-Path Zone-C pipelining |
//! | [`Algorithm::SharpNodeLeader`] | Section 4.3 node-level SHArP design |
//! | [`Algorithm::SharpSocketLeader`] | Section 4.3 socket-level SHArP design |
//!
//! [`selector::Library`] emulates the per-message-size algorithm dispatch of
//! MVAPICH2 and Intel MPI (the paper's comparison baselines) and the tuned
//! DPML configuration tables of Section 6.4.

pub mod algorithms;
pub mod checkpoint;
pub mod failstop;
pub mod integrity;
pub mod profile;
pub mod resilience;
pub mod run;
pub mod selector;
pub mod tuner;

pub use algorithms::{Algorithm, BuildError, FlatAlg};
pub use checkpoint::{
    run_allreduce_checkpointed, ChunkControl, ScenarioCell, SweepCheckpoint, SweepEnd,
    CHECKPOINT_SCHEMA,
};
pub use failstop::{run_dpml_failstop, FailstopOutcome, RecoveryReport};
pub use integrity::{
    run_allreduce_verified, IntegrityError, IntegrityErrorKind, IntegrityPolicy, IntegrityReport,
    LadderRung, PartitionRecovery, VerifiedError,
};
pub use profile::{profile_allreduce, CostBreakdown, PhaseBreakdown, ProfileReport, ProfiledRun};
pub use resilience::{run_allreduce_resilient, FaultPolicy, ResilientReport};
pub use run::{run, run_batch, simulate, AllreduceReport, Exec, RunError, Scenario};
pub use selector::Library;
