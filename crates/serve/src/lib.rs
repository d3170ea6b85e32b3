//! `dpml-serve`: a fault-isolated simulation service.
//!
//! The rest of the workspace answers one question at a time; this crate
//! keeps answering them for as long as the process lives. It wraps the
//! deterministic simulator in a long-running TCP daemon built around six
//! robustness mechanisms (DESIGN.md §12):
//!
//! * **bounded admission** — a fixed-capacity queue with load shedding
//!   and per-client in-flight caps ([`server`]),
//! * **fault isolation** — jobs run under `catch_unwind` on dedicated
//!   workers that are respawned after a panic ([`server`]),
//! * **deadlines & cancellation** — wall deadlines map onto the engine's
//!   event/time budgets, with cooperative cancel checkpoints ([`job`]),
//! * **deterministic retries** — transient failures back off on a
//!   seeded, capped-exponential, jittered [`dpml_faults::RetryPlan`],
//! * **crash-safe journaling** — CRC32C-framed admit/start/finish
//!   records, replayed (and tail-truncated) on startup ([`journal`]),
//! * **content-addressed caching** — determinism makes every result
//!   infinitely cacheable by scenario digest ([`cache`]),
//! * **continuous telemetry** — every metric is one variant of a typed
//!   catalogue ([`telemetry::Metric`]); a background ticker keeps the
//!   previous snapshot, the `watch` verb streams rate frames derived
//!   against it, the `metrics` verb emits Prometheus-style text, and the
//!   flight recorder dumps post-mortem bundles on panics and deadline
//!   kills (DESIGN.md §14).
//!
//! The wire format is length-prefixed JSON ([`protocol`]); [`client`]
//! is the blocking client used by the CLI, the load generator, and the
//! tests. [`top`] renders `watch` frames as the `dpml top` dashboard.

pub mod cache;
pub mod checkpoint;
pub mod client;
pub mod frame;
pub mod job;
pub mod journal;
pub mod protocol;
pub mod server;
pub mod telemetry;
pub mod top;

pub use cache::ResultCache;
pub use checkpoint::{load_from_bytes, CheckpointLoad, CheckpointStore};
pub use client::{Client, ClientError, Submission};
pub use job::{JobCtx, JobError, JobKind, JobOutcome, JobResult, JobSpec, ScenarioResult};
pub use journal::{CompactionStats, Journal, Record, Replay};
pub use protocol::{Request, Response, WatchFrame};
pub use server::{start, ServeConfig, ServerHandle};
pub use telemetry::Metric;
