//! Job specifications, content digests, and execution.
//!
//! A job names a preset, a cluster shape, and a set of `(algorithm, size)`
//! scenarios. Because the simulator is deterministic, the scenario set
//! fully determines the result — the digest over those fields is the key
//! into the content-addressed result cache. Deadline and chaos knobs are
//! *execution* parameters and are deliberately excluded from the digest:
//! a job that survives injected panics produces the same result as a
//! clean run, and should hit the same cache line.

use dpml_core::algorithms::Algorithm;
use dpml_core::checkpoint::{run_allreduce_checkpointed, ChunkControl, SweepCheckpoint, SweepEnd};
use dpml_core::profile::profile_allreduce;
use dpml_core::RunOpts;
use dpml_fabric::Preset;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Engine event budget granted per millisecond of remaining wall-clock
/// deadline: a job with 100 ms left gets a 5M-event budget per scenario,
/// so a runaway schedule trips `EventBudgetExceeded` in bounded time
/// instead of pinning a worker.
pub const EVENTS_PER_DEADLINE_MS: u64 = 50_000;

/// Virtual-time guard applied to every budgeted scenario (seconds). No
/// real collective comes within orders of magnitude of this; it exists so
/// a hung schedule under chaos cannot spin the event loop forever even
/// without a client deadline.
pub const VIRTUAL_TIME_GUARD_S: f64 = 10.0;

/// Scenarios per cooperative checkpoint in the sweep loop: between
/// chunks the worker polls the cancel flag and the wall-clock deadline;
/// within a chunk the scenarios run concurrently on the
/// scenario-parallel runner.
pub const SWEEP_CHUNK: usize = 8;

/// What the job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobKind {
    /// One verified allreduce (first algorithm × first size).
    Simulate,
    /// The full `algorithms × sizes` grid, scenario-parallel per chunk.
    Sweep,
    /// Critical-path profile of the first scenario.
    Profile,
}

/// A job specification as submitted on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Simulate, sweep, or profile.
    pub kind: JobKind,
    /// Cluster preset id (`a`..`d`).
    pub preset: String,
    /// Nodes in the simulated cluster.
    pub nodes: u32,
    /// Processes per node.
    pub ppn: u32,
    /// Algorithm specs in the CLI grammar (see [`Algorithm::parse`]).
    pub algorithms: Vec<String>,
    /// Message sizes in bytes.
    pub sizes: Vec<u64>,
    /// Wall-clock deadline in milliseconds; 0 = none. Mapped onto engine
    /// event/time budgets and checked at sweep checkpoints.
    #[serde(default)]
    pub deadline_ms: u64,
    /// Chaos knob: panic this many times before executing cleanly
    /// (exercises the catch_unwind / respawn / retry path end to end).
    #[serde(default)]
    pub panic_attempts: u32,
}

impl JobSpec {
    /// Validate the spec without running anything: preset exists,
    /// algorithms parse, shape and sizes are non-degenerate.
    pub fn validate(&self) -> Result<(), String> {
        let preset =
            Preset::by_id(&self.preset).ok_or(format!("unknown preset `{}`", self.preset))?;
        preset
            .spec(self.nodes, self.ppn)
            .map_err(|e| format!("bad cluster shape: {e}"))?;
        if self.algorithms.is_empty() {
            return Err("at least one algorithm required".into());
        }
        if self.sizes.is_empty() {
            return Err("at least one message size required".into());
        }
        if self.sizes.contains(&0) {
            return Err("message sizes must be nonzero".into());
        }
        for a in &self.algorithms {
            Algorithm::parse(a)?;
        }
        Ok(())
    }

    /// The `(algorithm, bytes)` grid this job covers. `Simulate` and
    /// `Profile` use only the first algorithm × first size.
    pub fn scenarios(&self) -> Result<Vec<(Algorithm, u64)>, String> {
        let algs: Vec<Algorithm> = self
            .algorithms
            .iter()
            .map(|a| Algorithm::parse(a))
            .collect::<Result<_, _>>()?;
        match self.kind {
            JobKind::Simulate | JobKind::Profile => {
                let alg = *algs.first().ok_or("no algorithm")?;
                let bytes = *self.sizes.first().ok_or("no size")?;
                Ok(vec![(alg, bytes)])
            }
            JobKind::Sweep => {
                let mut out = Vec::with_capacity(algs.len() * self.sizes.len());
                for &a in &algs {
                    for &s in &self.sizes {
                        out.push((a, s));
                    }
                }
                Ok(out)
            }
        }
    }

    /// Content digest over the result-determining fields only (kind,
    /// preset, shape, scenario grid) — the cache key. FNV-1a over a
    /// canonical rendering, folded with the CRC32C of the same bytes so
    /// the two independent hash families cover each other's collisions.
    pub fn digest(&self) -> String {
        let mut canon = String::new();
        canon.push_str(match self.kind {
            JobKind::Simulate => "simulate",
            JobKind::Sweep => "sweep",
            JobKind::Profile => "profile",
        });
        canon.push_str(&format!(
            "|{}|{}x{}|",
            self.preset.to_ascii_lowercase(),
            self.nodes,
            self.ppn
        ));
        for a in &self.algorithms {
            canon.push_str(a);
            canon.push(',');
        }
        canon.push('|');
        for s in &self.sizes {
            canon.push_str(&format!("{s},"));
        }
        let bytes = canon.as_bytes();
        let fnv = dpml_faults::fnv1a64(bytes);
        let crc = dpml_shm::crc32c_bytes(bytes);
        format!("{fnv:016x}{crc:08x}")
    }
}

/// One scenario's outcome inside a job result. Sweeps report partial
/// results: a failed cell carries its error here instead of failing the
/// whole job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioResult {
    /// Algorithm display name.
    pub algorithm: String,
    /// Message size, bytes.
    pub bytes: u64,
    /// Completion latency in microseconds (0 when `error` is set).
    pub latency_us: f64,
    /// Failure description for this cell, if it failed.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub error: Option<String>,
}

/// A completed job's payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobResult {
    /// Content digest of the scenario set (the cache key).
    pub digest: String,
    /// Per-scenario outcomes, in grid order.
    pub scenarios: Vec<ScenarioResult>,
    /// Number of scenarios that failed (partial-result sweeps).
    pub failed: u32,
    /// Zone classification, for `Profile` jobs.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub zone: Option<String>,
    /// Discrete engine events processed across all scenarios — the
    /// daemon's `engine.events` throughput counter feeds on this.
    /// Defaults to 0 when replaying pre-telemetry journals.
    #[serde(default)]
    pub sim_events: u64,
}

/// Structured terminal failure of a job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JobError {
    /// The spec failed validation.
    Invalid {
        /// What was wrong.
        message: String,
    },
    /// The job panicked on every attempt; the retry budget is spent.
    Panicked {
        /// Attempts made (initial + retries).
        attempts: u32,
        /// Panic payload of the last attempt.
        message: String,
    },
    /// The wall-clock deadline passed (or its engine budget tripped).
    DeadlineExceeded {
        /// Milliseconds from admission to the deadline trip.
        after_ms: u64,
    },
    /// The client cancelled the job.
    Canceled,
    /// Deterministic, non-transient failure (bad scenario, verify error).
    Failed {
        /// Failure description.
        message: String,
    },
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Invalid { message } => write!(f, "invalid: {message}"),
            JobError::Panicked { attempts, message } => {
                write!(f, "panicked after {attempts} attempts: {message}")
            }
            JobError::DeadlineExceeded { after_ms } => {
                write!(f, "deadline exceeded after {after_ms} ms")
            }
            JobError::Canceled => write!(f, "canceled"),
            JobError::Failed { message } => write!(f, "failed: {message}"),
        }
    }
}

/// Terminal outcome: a result or a structured error.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JobOutcome {
    /// The job produced a result (possibly with failed cells).
    Done(JobResult),
    /// The job failed as a whole.
    Error(JobError),
}

impl JobOutcome {
    /// True for `Done`.
    pub fn is_done(&self) -> bool {
        matches!(self, JobOutcome::Done(_))
    }
}

/// Observer for freshly advanced sweep checkpoints — the scheduler
/// installs one that persists snapshots to the durable checkpoint store.
pub type CheckpointSink = Box<dyn Fn(&SweepCheckpoint) + Send + Sync>;

/// Execution context threaded from the scheduler into [`execute`]:
/// cooperative cancellation, the admission-relative deadline, and the
/// durability hooks (resume checkpoint in, snapshot sink out).
pub struct JobCtx {
    /// Set by the `cancel` verb; polled at sweep checkpoints.
    pub cancel: AtomicBool,
    /// When the job was admitted (deadline epoch).
    pub admitted: Instant,
    /// Checkpoint to resume the next attempt from, installed by the
    /// scheduler after loading (and verifying) durable state.
    resume: Mutex<Option<SweepCheckpoint>>,
    /// Where freshly advanced checkpoints go (chunk-boundary callback).
    sink: Mutex<Option<CheckpointSink>>,
    /// Scenarios actually simulated by the current/last attempt —
    /// the "rework" half of the resume-savings accounting.
    pub executed_scenarios: AtomicU64,
    /// Scenarios restored from the resume checkpoint instead of being
    /// re-simulated — the "saved" half.
    pub resumed_scenarios: AtomicU64,
}

impl JobCtx {
    /// Fresh context admitted now.
    pub fn new() -> Self {
        JobCtx {
            cancel: AtomicBool::new(false),
            admitted: Instant::now(),
            resume: Mutex::new(None),
            sink: Mutex::new(None),
            executed_scenarios: AtomicU64::new(0),
            resumed_scenarios: AtomicU64::new(0),
        }
    }

    /// Milliseconds left before `deadline_ms`, or `None` when no deadline.
    /// `Some(0)` means the deadline has passed.
    pub fn remaining_ms(&self, deadline_ms: u64) -> Option<u64> {
        if deadline_ms == 0 {
            return None;
        }
        let elapsed = self.admitted.elapsed().as_millis() as u64;
        Some(deadline_ms.saturating_sub(elapsed))
    }

    /// Install a checkpoint for the next [`execute`] call to resume
    /// from. It is re-verified against the spec inside `execute`; an
    /// inconsistent checkpoint degrades to a cold start, never an error.
    pub fn set_resume(&self, ckpt: SweepCheckpoint) {
        *self.resume.lock().expect("ctx resume lock") = Some(ckpt);
    }

    /// Install the chunk-boundary checkpoint observer.
    pub fn set_checkpoint_sink(&self, sink: CheckpointSink) {
        *self.sink.lock().expect("ctx sink lock") = Some(sink);
    }

    fn take_resume(&self) -> Option<SweepCheckpoint> {
        self.resume.lock().expect("ctx resume lock").take()
    }

    fn emit_checkpoint(&self, ckpt: &SweepCheckpoint) {
        if let Some(sink) = self.sink.lock().expect("ctx sink lock").as_ref() {
            sink(ckpt);
        }
    }
}

impl Default for JobCtx {
    fn default() -> Self {
        JobCtx::new()
    }
}

/// Map the remaining wall-clock deadline onto engine budgets.
pub fn budgets_for(remaining_ms: Option<u64>) -> RunOpts {
    RunOpts {
        event_budget: remaining_ms.map(|ms| ms.saturating_mul(EVENTS_PER_DEADLINE_MS).max(1)),
        time_budget_s: Some(VIRTUAL_TIME_GUARD_S),
    }
}

/// Run a job to completion on the calling thread. Panics propagate to
/// the caller — the worker wraps this in `catch_unwind` so an injected
/// or genuine panic becomes a respawn + retry, never a dead server.
///
/// `attempt` is 0-based; chaos specs with `panic_attempts > attempt`
/// panic immediately, which makes the retry path deterministic.
pub fn execute(spec: &JobSpec, ctx: &JobCtx, attempt: u32) -> JobOutcome {
    if attempt < spec.panic_attempts {
        panic!("chaos: injected panic on attempt {attempt}");
    }
    if let Err(message) = spec.validate() {
        return JobOutcome::Error(JobError::Invalid { message });
    }
    let preset = Preset::by_id(&spec.preset).expect("validated preset");
    let cluster = preset.spec(spec.nodes, spec.ppn).expect("validated shape");
    let scenarios = match spec.scenarios() {
        Ok(s) => s,
        Err(message) => return JobOutcome::Error(JobError::Invalid { message }),
    };

    if spec.kind == JobKind::Profile {
        let (alg, bytes) = scenarios[0];
        return match profile_allreduce(&preset, &cluster, alg, bytes) {
            Ok(run) => JobOutcome::Done(JobResult {
                digest: spec.digest(),
                scenarios: vec![ScenarioResult {
                    algorithm: alg.name(),
                    bytes,
                    latency_us: run.profile.latency_us,
                    error: None,
                }],
                failed: 0,
                zone: Some(run.profile.zone.clone()),
                sim_events: run.report.stats.events,
            }),
            Err(e) => JobOutcome::Error(JobError::Failed {
                message: e.to_string(),
            }),
        };
    }

    // Simulate and sweep share the core checkpointed loop
    // (`dpml_core::checkpoint::run_allreduce_checkpointed`): between
    // chunks the control closure honors cancellation and the wall-clock
    // deadline, and every advanced checkpoint is offered to the sink the
    // scheduler installed (which persists it to the durable store).
    // Inside a chunk the scenarios run on the scenario-parallel runner,
    // each carrying an engine budget derived from the remaining
    // deadline, so even a single scenario cannot overrun it by more
    // than the budget-check granularity. Because every scenario is a
    // closed deterministic world, an attempt resumed from a durable
    // checkpoint produces cells — and therefore a `JobResult` —
    // byte-identical to an uninterrupted run.
    let digest = spec.digest();
    let total = scenarios.len() as u32;
    ctx.executed_scenarios.store(0, Ordering::Relaxed);
    ctx.resumed_scenarios.store(0, Ordering::Relaxed);
    let mut ckpt = match ctx.take_resume() {
        // Defense in depth: the scheduler verified the checkpoint when
        // loading it, but an inconsistent one must degrade to a cold
        // start here, never to a wrong result.
        Some(ck) if ck.verify(&digest, total, SWEEP_CHUNK as u32).is_ok() => {
            ctx.resumed_scenarios
                .store(ck.next_index as u64, Ordering::Relaxed);
            ck
        }
        _ => SweepCheckpoint::new(digest, total, SWEEP_CHUNK as u32),
    };
    let resumed_at = ckpt.next_index;
    let mut stop_reason: Option<JobError> = None;
    let mut trip_scan = 0usize;
    let mut progressed = resumed_at;
    let end = run_allreduce_checkpointed(
        &preset,
        &cluster,
        &scenarios,
        &mut ckpt,
        |ck| {
            if ctx.cancel.load(Ordering::Acquire) {
                stop_reason = Some(JobError::Canceled);
                return ChunkControl::Stop;
            }
            // A budget trip in an already-completed chunk is the
            // deadline firing inside the engine: stop executing further
            // chunks (the post-scan below converts it into the error).
            if spec.deadline_ms > 0 && ck.cells[trip_scan..].iter().any(|c| c.budget_tripped) {
                return ChunkControl::Stop;
            }
            trip_scan = ck.cells.len();
            let remaining = ctx.remaining_ms(spec.deadline_ms);
            if remaining == Some(0) {
                stop_reason = Some(JobError::DeadlineExceeded {
                    after_ms: spec.deadline_ms,
                });
                return ChunkControl::Stop;
            }
            ChunkControl::Proceed(budgets_for(remaining))
        },
        |ck| {
            ctx.executed_scenarios
                .fetch_add(u64::from(ck.next_index - progressed), Ordering::Relaxed);
            progressed = ck.next_index;
            ctx.emit_checkpoint(ck);
        },
    );
    // Convert cells into the job-level outcome, in scenario order, with
    // the same precedence the chunk loop historically applied: a budget
    // trip under a deadline fails the whole job as a deadline miss; any
    // failure of a `Simulate`'s single scenario fails the job; sweep
    // failures stay cell-local (partial results).
    let mut results = Vec::with_capacity(ckpt.cells.len());
    let mut failed = 0u32;
    let mut sim_events = 0u64;
    for cell in &ckpt.cells {
        if cell.budget_tripped && spec.deadline_ms > 0 {
            // The per-scenario budget is the deadline's proxy inside
            // the engine: treat a trip as the deadline.
            return JobOutcome::Error(JobError::DeadlineExceeded {
                after_ms: ctx.admitted.elapsed().as_millis() as u64,
            });
        }
        match &cell.error {
            None => {
                sim_events += cell.sim_events;
                results.push(ScenarioResult {
                    algorithm: cell.algorithm.clone(),
                    bytes: cell.bytes,
                    latency_us: cell.latency_us,
                    error: None,
                });
            }
            Some(message) if spec.kind == JobKind::Simulate => {
                return JobOutcome::Error(JobError::Failed {
                    message: message.clone(),
                });
            }
            Some(message) => {
                failed += 1;
                results.push(ScenarioResult {
                    algorithm: cell.algorithm.clone(),
                    bytes: cell.bytes,
                    latency_us: 0.0,
                    error: Some(message.clone()),
                });
            }
        }
    }
    if let Some(err) = stop_reason {
        return JobOutcome::Error(err);
    }
    debug_assert_eq!(end, SweepEnd::Completed);
    // A deadline is a promise about when the answer arrives, not just
    // whether work got done: completing late is still a miss.
    if ctx.remaining_ms(spec.deadline_ms) == Some(0) {
        return JobOutcome::Error(JobError::DeadlineExceeded {
            after_ms: ctx.admitted.elapsed().as_millis() as u64,
        });
    }
    JobOutcome::Done(JobResult {
        digest: ckpt.digest,
        scenarios: results,
        failed,
        zone: None,
        sim_events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim_spec() -> JobSpec {
        JobSpec {
            kind: JobKind::Simulate,
            preset: "b".into(),
            nodes: 4,
            ppn: 4,
            algorithms: vec!["dpml:4".into()],
            sizes: vec![65536],
            deadline_ms: 0,
            panic_attempts: 0,
        }
    }

    #[test]
    fn digest_ignores_execution_knobs_but_not_scenario_fields() {
        let base = sim_spec();
        let mut with_deadline = base.clone();
        with_deadline.deadline_ms = 500;
        with_deadline.panic_attempts = 2;
        assert_eq!(base.digest(), with_deadline.digest());

        let mut other_size = base.clone();
        other_size.sizes = vec![65537];
        assert_ne!(base.digest(), other_size.digest());
        let mut other_preset = base.clone();
        other_preset.preset = "c".into();
        assert_ne!(base.digest(), other_preset.digest());
        let mut other_kind = base.clone();
        other_kind.kind = JobKind::Sweep;
        assert_ne!(base.digest(), other_kind.digest());
    }

    #[test]
    fn validate_catches_bad_specs() {
        let mut s = sim_spec();
        s.preset = "z".into();
        assert!(s.validate().is_err());
        let mut s = sim_spec();
        s.algorithms = vec!["bogus".into()];
        assert!(s.validate().is_err());
        let mut s = sim_spec();
        s.sizes = vec![0];
        assert!(s.validate().is_err());
        let mut s = sim_spec();
        s.ppn = 10_000;
        assert!(s.validate().is_err());
        assert!(sim_spec().validate().is_ok());
    }

    #[test]
    fn execute_simulate_produces_a_latency() {
        let out = execute(&sim_spec(), &JobCtx::new(), 0);
        let JobOutcome::Done(res) = out else {
            panic!("expected Done, got {out:?}");
        };
        assert_eq!(res.scenarios.len(), 1);
        assert!(res.scenarios[0].latency_us > 0.0);
        assert_eq!(res.failed, 0);
    }

    #[test]
    fn execute_sweep_reports_partial_results() {
        let mut s = sim_spec();
        s.kind = JobKind::Sweep;
        // dpml:9 over-subscribes ppn=4 → that column fails, others pass.
        s.algorithms = vec!["dpml:4".into(), "dpml:9".into()];
        s.sizes = vec![4096, 65536];
        let out = execute(&s, &JobCtx::new(), 0);
        let JobOutcome::Done(res) = out else {
            panic!("expected Done, got {out:?}");
        };
        assert_eq!(res.scenarios.len(), 4);
        assert_eq!(res.failed, 2);
        assert!(res.scenarios[0].error.is_none());
        assert!(res.scenarios[2].error.is_some());
    }

    #[test]
    fn execute_profile_reports_a_zone() {
        let mut s = sim_spec();
        s.kind = JobKind::Profile;
        let out = execute(&s, &JobCtx::new(), 0);
        let JobOutcome::Done(res) = out else {
            panic!("expected Done, got {out:?}");
        };
        assert!(res.zone.is_some());
    }

    #[test]
    fn chaos_panics_until_attempt_reached() {
        let mut s = sim_spec();
        s.panic_attempts = 2;
        let ctx = JobCtx::new();
        for attempt in 0..2 {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                execute(&s, &ctx, attempt)
            }));
            assert!(r.is_err(), "attempt {attempt} should panic");
        }
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| execute(&s, &ctx, 2)));
        assert!(r.unwrap().is_done());
    }

    #[test]
    fn cancel_flag_short_circuits() {
        let ctx = JobCtx::new();
        ctx.cancel.store(true, Ordering::Release);
        let out = execute(&sim_spec(), &ctx, 0);
        assert_eq!(out, JobOutcome::Error(JobError::Canceled));
    }

    #[test]
    fn expired_deadline_is_reported() {
        let mut s = sim_spec();
        s.deadline_ms = 1;
        let ctx = JobCtx::new();
        std::thread::sleep(std::time::Duration::from_millis(5));
        let out = execute(&s, &ctx, 0);
        assert!(matches!(
            out,
            JobOutcome::Error(JobError::DeadlineExceeded { .. })
        ));
    }

    #[test]
    fn budget_mapping_scales_with_remaining_deadline() {
        assert_eq!(budgets_for(None).event_budget, None);
        assert_eq!(
            budgets_for(Some(100)).event_budget,
            Some(100 * EVENTS_PER_DEADLINE_MS)
        );
        // A just-expired deadline still gets a positive (tiny) budget so
        // the engine error path, not an assert, reports it.
        assert_eq!(budgets_for(Some(0)).event_budget, Some(1));
    }
}
