//! The daemon: admission → bounded queue → isolated workers → journal →
//! cache, with graceful drain.
//!
//! Robustness invariants, in the order a job meets them:
//!
//! 1. **Bounded admission** — the scheduler never holds more than
//!    `queue_capacity` jobs (queued + retry-pending + running); excess
//!    submits are shed immediately with a `retry_after_ms` hint, and each
//!    client connection is capped at `client_inflight_cap` jobs.
//! 2. **Journal before queue** — a job is visible to workers only after
//!    its `Admit` record is on disk, so a kill can lose an unacknowledged
//!    submit but never an acknowledged one.
//! 3. **Fault isolation** — workers run jobs under `catch_unwind`; a
//!    panicking job retires its worker (a fresh one is respawned) and is
//!    retried on a seeded, capped-exponential, jittered schedule from
//!    [`dpml_faults::RetryPlan`]. When the retry budget is spent the
//!    client gets a structured [`JobError::Panicked`], not a dead server.
//! 4. **Deadlines** — wall-clock deadlines become engine budgets inside
//!    [`crate::job::execute`]; `cancel` flips a cooperative flag that the
//!    sweep loop polls between chunks.
//! 5. **Drain** — `Shutdown` stops admission; workers finish (or retry
//!    to completion) everything already admitted, the journal is synced,
//!    and [`ServerHandle::wait`] returns 0.

use crate::cache::ResultCache;
use crate::checkpoint::CheckpointStore;
use crate::job::{execute, JobCtx, JobError, JobKind, JobOutcome, JobSpec, SWEEP_CHUNK};
use crate::journal::{Journal, Record, Replay};
use crate::protocol::{self, reject, Request, Response, WatchFrame};
use crate::telemetry::{Metric, Metrics};
use dpml_engine::flight::{self, PostmortemBundle};
use dpml_fabric::Preset;
use dpml_faults::{RetryPlan, StorageFaultCounts, StorageFaultPlan, StorageFaults};
use dpml_shm::metrics::{rates_between, TimedSnapshot};
use dpml_shm::MetricsSnapshot;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Exponential-backoff doubling cap for job retries.
const RETRY_CAP_DOUBLINGS: u32 = 4;

/// Jitter fraction on retry delays (decorrelates retry storms after a
/// mass worker failure while staying seeded-deterministic).
const RETRY_JITTER: f64 = 0.25;

/// Floor on the `watch` verb's frame interval: a hostile client must not
/// turn the daemon into a snapshot treadmill.
const MIN_WATCH_INTERVAL_MS: u64 = 10;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Max jobs admitted at once (queued + awaiting retry + running).
    pub queue_capacity: usize,
    /// Max in-flight jobs per client connection.
    pub client_inflight_cap: usize,
    /// Journal file path.
    pub journal_path: PathBuf,
    /// Result-cache capacity (entries).
    pub cache_capacity: usize,
    /// Retry budget for transient (panic) failures.
    pub max_retries: u32,
    /// Base retry delay, milliseconds.
    pub retry_base_ms: f64,
    /// Seed for the deterministic retry jitter.
    pub retry_seed: u64,
    /// Preset whose watchdog limits pace the scheduler's stall checks.
    pub watchdog_preset: String,
    /// Background telemetry sample interval, milliseconds (0 disables
    /// the ticker; `watch` subscriptions still sample on their own).
    pub sample_interval_ms: u64,
    /// Where post-mortem bundles are dumped on panic/deadline failures;
    /// `None` disables dumping (the in-memory flight ring still records).
    pub postmortem_dir: Option<PathBuf>,
    /// Cap on bundle files kept in `postmortem_dir` — a crash loop must
    /// not fill the disk.
    pub max_postmortems: usize,
    /// Chunk boundaries between persisted sweep checkpoints (0 disables
    /// checkpointing; 1 persists every boundary).
    pub checkpoint_interval: u64,
    /// Checkpoint directory; `None` derives `<journal_path>.ckpt/`.
    pub checkpoint_dir: Option<PathBuf>,
    /// Journal byte budget: exceeding it triggers compaction (0 = never
    /// compact).
    pub journal_max_bytes: u64,
    /// Keep finished jobs' checkpoint files instead of deleting them
    /// (chaos campaigns audit them post-drain).
    pub retain_checkpoints: bool,
    /// Seeded storage-fault injection on the journal + checkpoint write
    /// paths (chaos campaigns only; `None` in production).
    pub storage_faults: Option<StorageFaultPlan>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_capacity: 64,
            client_inflight_cap: 16,
            journal_path: PathBuf::from("serve.journal"),
            cache_capacity: 1024,
            max_retries: 4,
            retry_base_ms: 5.0,
            retry_seed: 0xd931_05ab_5c1e_77f0,
            watchdog_preset: "b".into(),
            sample_interval_ms: 500,
            postmortem_dir: None,
            max_postmortems: 16,
            checkpoint_interval: 1,
            checkpoint_dir: None,
            journal_max_bytes: 0,
            retain_checkpoints: false,
            storage_faults: None,
        }
    }
}

/// One admitted job moving through the scheduler.
struct Job {
    id: u64,
    digest: String,
    spec: JobSpec,
    attempt: u32,
    ctx: Arc<JobCtx>,
    /// Submitting connection; `None` for journal-replayed jobs.
    client: Option<Arc<ClientConn>>,
}

/// Per-connection state shared between the reader thread and workers.
struct ClientConn {
    writer: Mutex<TcpStream>,
    inflight: AtomicUsize,
}

impl ClientConn {
    /// Push a response; errors (client gone) are the caller's to count.
    fn push(&self, resp: &Response) -> std::io::Result<()> {
        let mut w = self.writer.lock().expect("client writer poisoned");
        protocol::send(&mut *w, resp)
    }
}

/// A retry waiting for its backoff to elapse. Min-heap by due time.
struct RetryEntry {
    due: Instant,
    job: Job,
}

impl PartialEq for RetryEntry {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due
    }
}
impl Eq for RetryEntry {}
impl PartialOrd for RetryEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for RetryEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.due.cmp(&self.due) // reversed: earliest due on top
    }
}

/// Where a tracked job currently is (for `cancel`).
enum Phase {
    Queued,
    Running,
}

struct Tracked {
    ctx: Arc<JobCtx>,
    phase: Phase,
}

/// Scheduler state under one lock.
struct Sched {
    queue: VecDeque<Job>,
    retries: BinaryHeap<RetryEntry>,
    running: usize,
    tracked: HashMap<u64, Tracked>,
    draining: bool,
}

impl Sched {
    fn admitted(&self) -> usize {
        self.queue.len() + self.retries.len() + self.running
    }
    fn drained(&self) -> bool {
        self.draining && self.admitted() == 0
    }
}

/// Shared daemon state.
pub struct ServerState {
    cfg: ServeConfig,
    sched: Mutex<Sched>,
    work_cv: Condvar,
    idle_cv: Condvar,
    journal: Journal,
    checkpoints: Arc<CheckpointStore>,
    storage_faults: Option<Arc<StorageFaults>>,
    /// Single-flight guard: at most one compaction at a time.
    compacting: AtomicBool,
    cache: ResultCache,
    metrics: Arc<Metrics>,
    /// The previous telemetry sample (ticker or `watch`), the older end
    /// of the next rate window.
    prev_sample: Mutex<Option<TimedSnapshot>>,
    next_id: AtomicU64,
    accept_done: AtomicBool,
    /// Scheduler stall-check cadence, from the preset watchdog limits.
    poll: Duration,
}

impl ServerState {
    fn alloc_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Append a record, publish the journal's byte level, and trigger
    /// compaction when the byte budget is exceeded. Returns whether the
    /// append landed (failures are counted, not fatal — the job-level
    /// invariants decide what an unjournaled record means).
    fn journal_append(&self, record: &Record) -> bool {
        let ok = self.journal.append(record).is_ok();
        if !ok {
            self.metrics.inc(Metric::JournalError);
        }
        if let Ok(pos) = self.journal.position() {
            self.metrics.set(Metric::JournalBytes, pos);
        }
        ok
    }

    /// Compact the journal if it outgrew `journal_max_bytes`. Single-
    /// flight; safe to call from any thread after an append.
    fn maybe_compact(&self) {
        let budget = self.cfg.journal_max_bytes;
        if budget == 0 {
            return;
        }
        let over = self.journal.position().map(|p| p > budget).unwrap_or(false);
        if !over {
            return;
        }
        if self
            .compacting
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return; // someone else is already compacting
        }
        let result = self
            .journal
            .compact(|records| compaction_keep(records, budget));
        self.compacting.store(false, Ordering::Release);
        match result {
            Ok(stats) => {
                self.metrics.inc(Metric::JournalCompactions);
                self.metrics.set(Metric::JournalBytes, stats.after_bytes);
                flight::global().record(
                    "journal.compact",
                    None,
                    format!(
                        "bytes {} -> {} records {} -> {}",
                        stats.before_bytes,
                        stats.after_bytes,
                        stats.records_before,
                        stats.records_after
                    ),
                );
            }
            Err(e) => {
                self.metrics.inc(Metric::JournalError);
                flight::global().record("journal.compact", None, format!("failed: {e}"));
            }
        }
    }

    /// Injected storage-fault tallies, when fault injection is active
    /// (chaos campaigns read these to emit coverage cells).
    pub fn storage_fault_counts(&self) -> Option<StorageFaultCounts> {
        self.storage_faults.as_ref().map(|f| f.counts())
    }

    /// Every metric, with the scheduler gauges read now.
    pub fn stats(&self) -> MetricsSnapshot {
        self.refresh_sched_gauges();
        self.metrics.snapshot()
    }

    /// Publish queue / running / retry-backoff depths and the drain flag,
    /// read under the scheduler lock.
    fn refresh_sched_gauges(&self) {
        let s = self.sched.lock().expect("sched lock poisoned");
        self.metrics.set(Metric::QueueDepth, s.queue.len() as u64);
        self.metrics.set(Metric::Running, s.running as u64);
        self.metrics.set(Metric::Retrying, s.retries.len() as u64);
        self.metrics.set(Metric::Draining, u64::from(s.draining));
    }

    /// Take one timestamped snapshot, keep it as the previous sample, and
    /// return `(previous, this one)` (the ticker and `watch` streams both
    /// call this).
    pub fn sample(&self) -> (Option<TimedSnapshot>, TimedSnapshot) {
        let newer = TimedSnapshot {
            t_ms: flight::now_ms(),
            snap: self.stats(),
        };
        let older = self
            .prev_sample
            .lock()
            .expect("sample lock poisoned")
            .replace(newer.clone());
        (older, newer)
    }

    /// Build one `watch` frame: sample now, derive rates against the
    /// previous sample.
    fn watch_frame(&self, seq: u64) -> WatchFrame {
        let (older, newer) = self.sample();
        WatchFrame {
            seq,
            t_ms: newer.t_ms,
            rates: older
                .map(|older| rates_between(&older, &newer))
                .unwrap_or_default(),
            stats: newer.snap,
        }
    }

    /// Prometheus-style text exposition of the whole catalogue (the
    /// `metrics` verb's payload).
    pub fn exposition(&self) -> String {
        self.refresh_sched_gauges();
        self.metrics.exposition()
    }

    /// Capped-jittered load-shed hint from the shared [`RetryPlan`]
    /// machinery: the backoff "attempt" scales with how far over
    /// capacity the queue is, and `salt` decorrelates concurrent
    /// shedded clients while staying seeded-deterministic.
    fn shed_hint(&self, depth: usize, salt: u64) -> u64 {
        let attempt = if self.cfg.queue_capacity == 0 {
            RETRY_CAP_DOUBLINGS
        } else {
            ((depth * RETRY_CAP_DOUBLINGS as usize) / self.cfg.queue_capacity.max(1)) as u32
        }
        .min(RETRY_CAP_DOUBLINGS);
        let plan = RetryPlan::capped_exponential(
            self.cfg.retry_base_ms,
            RETRY_CAP_DOUBLINGS,
            // Budget covers every attempt index we might ask for.
            RETRY_CAP_DOUBLINGS + 1,
        )
        .with_jitter(RETRY_JITTER, self.cfg.retry_seed ^ salt);
        plan.delay(attempt)
            .map(|ms| (ms.ceil() as u64).max(1))
            .unwrap_or_else(|| self.cfg.retry_base_ms.ceil() as u64)
    }

    /// Count a shed and leave a flight-recorder trace of it.
    fn note_shed(&self, reason: &str, hint_ms: u64) {
        self.metrics.inc(Metric::Shed);
        flight::global().record(
            "job.shed",
            None,
            format!("{reason} retry_after_ms={hint_ms}"),
        );
    }

    /// Dump a post-mortem bundle (flight tail + metrics + job context +
    /// journal position) if a dump directory is configured.
    fn postmortem(&self, reason: &str, job: &Job, notes: &str) {
        let Some(dir) = &self.cfg.postmortem_dir else {
            return;
        };
        let mut bundle = PostmortemBundle::capture(reason, notes).with_job(serde_json::json!({
            "id": job.id,
            "digest": job.digest.clone(),
            "attempt": job.attempt,
            "spec": serde_json::to_value(&job.spec).ok(),
        }));
        if let Ok(metrics) = serde_json::to_value(&self.stats()) {
            bundle = bundle.with_metrics(metrics);
        }
        if let Ok(pos) = self.journal.position() {
            bundle = bundle.with_journal_position(pos);
        }
        match bundle.save(dir, self.cfg.max_postmortems) {
            Ok(Some(_)) => self.metrics.inc(Metric::Postmortem),
            Ok(None) => {} // at cap: skip silently, the ring still has it
            Err(_) => {
                self.metrics.inc(Metric::PostmortemError);
            }
        }
    }

    /// Stop admission and wake everyone; returns jobs still admitted.
    fn begin_drain(&self) -> u64 {
        let mut s = self.sched.lock().expect("sched lock poisoned");
        s.draining = true;
        let pending = s.admitted() as u64;
        self.work_cv.notify_all();
        self.idle_cv.notify_all();
        pending
    }

    /// SIGTERM-grade drain: stop admitting, let *running* jobs finish,
    /// and requeue everything still waiting (queued or in retry backoff)
    /// to the journal instead of executing it — their `Admit` records
    /// stay unfinished on disk, so the next daemon start replays them
    /// exactly once. Returns `(running, requeued)`.
    pub fn begin_terminate(&self) -> (u64, u64) {
        let mut s = self.sched.lock().expect("sched lock poisoned");
        s.draining = true;
        let mut requeued = 0u64;
        while let Some(job) = s.queue.pop_front() {
            s.tracked.remove(&job.id);
            requeued += 1;
        }
        while let Some(entry) = s.retries.pop() {
            s.tracked.remove(&entry.job.id);
            requeued += 1;
        }
        let running = s.running as u64;
        drop(s);
        self.metrics.add(Metric::Requeued, requeued);
        self.work_cv.notify_all();
        self.idle_cv.notify_all();
        (running, requeued)
    }

    /// Handle one decoded request. Returns the responses to write in
    /// order, plus an optional dequeued-by-cancel job to conclude
    /// *after* the ack is on the wire (so the client never sees the
    /// canceled job's `Finished` push before its `CancelAck`).
    fn handle(
        self: &Arc<Self>,
        client: &Arc<ClientConn>,
        req: Request,
    ) -> (Vec<Response>, Option<Job>) {
        match req {
            Request::Submit { spec } => (self.handle_submit(client, spec), None),
            Request::Cancel { id } => {
                let (resp, dequeued) = self.handle_cancel(id);
                (vec![resp], dequeued)
            }
            Request::Stats => (
                vec![Response::StatsReply {
                    stats: self.stats(),
                }],
                None,
            ),
            Request::Metrics => (
                vec![Response::MetricsText {
                    text: self.exposition(),
                }],
                None,
            ),
            // Multi-frame streaming is driven by the connection loop;
            // reaching here means a single frame was requested inline.
            Request::Watch { .. } => (
                vec![Response::Frame {
                    frame: self.watch_frame(0),
                }],
                None,
            ),
            Request::Shutdown => {
                let pending = self.begin_drain();
                (vec![Response::ShutdownAck { pending }], None)
            }
            Request::Ping => (vec![Response::Pong], None),
        }
    }

    fn handle_submit(self: &Arc<Self>, client: &Arc<ClientConn>, spec: JobSpec) -> Vec<Response> {
        self.metrics.inc(Metric::Submitted);
        if let Err(message) = spec.validate() {
            self.metrics.inc(Metric::RejectedInvalid);
            return vec![Response::Rejected {
                reason: reject::INVALID.into(),
                message,
                retry_after_ms: 0,
            }];
        }
        let digest = spec.digest();

        // Content-addressed fast path: determinism makes a repeat query
        // a lookup. No queue slot, no journal records, no worker.
        if let Some(hit) = self.cache.get(&digest) {
            self.metrics.inc(Metric::CacheHit);
            let id = self.alloc_id();
            return vec![
                Response::Accepted {
                    id,
                    digest,
                    cached: true,
                },
                Response::Finished {
                    id,
                    outcome: JobOutcome::Done((*hit).clone()),
                },
            ];
        }
        self.metrics.inc(Metric::CacheMiss);

        if client.inflight.load(Ordering::Acquire) >= self.cfg.client_inflight_cap {
            self.metrics.inc(Metric::RejectedClientCap);
            // Per-client sheds back off from attempt 0 of the shared
            // retry plan — a real capped-jittered hint, never 0.
            let salt = self.metrics.get(Metric::Shed);
            let hint = self.shed_hint(0, salt);
            self.note_shed(reject::CLIENT_CAP, hint);
            return vec![Response::Rejected {
                reason: reject::CLIENT_CAP.into(),
                message: format!(
                    "client already has {} jobs in flight",
                    self.cfg.client_inflight_cap
                ),
                retry_after_ms: hint,
            }];
        }

        let mut s = self.sched.lock().expect("sched lock poisoned");
        if s.draining {
            self.metrics.inc(Metric::RejectedDraining);
            self.note_shed(reject::DRAINING, 0);
            return vec![Response::Rejected {
                reason: reject::DRAINING.into(),
                message: "daemon is draining".into(),
                // Draining is terminal for this daemon instance: 0 means
                // "don't retry here", not "retry immediately".
                retry_after_ms: 0,
            }];
        }
        if s.admitted() >= self.cfg.queue_capacity {
            let depth = s.admitted();
            drop(s);
            self.metrics.inc(Metric::RejectedOverload);
            // Load-shedding hint from the shared retry plan: backoff
            // attempt scales with queue depth, capped and jittered so a
            // thundering herd of shedded clients decorrelates.
            let salt = self.metrics.get(Metric::Shed);
            let hint = self.shed_hint(depth, salt);
            self.note_shed(reject::OVERLOADED, hint);
            return vec![Response::Rejected {
                reason: reject::OVERLOADED.into(),
                message: format!(
                    "{depth} jobs admitted (capacity {})",
                    self.cfg.queue_capacity
                ),
                retry_after_ms: hint,
            }];
        }

        let id = self.alloc_id();
        // Journal *before* the job becomes visible: an acknowledged job
        // survives a kill because its Admit record is already on disk.
        if let Err(e) = self.journal.append(&Record::Admit {
            id,
            digest: digest.clone(),
            spec: spec.clone(),
        }) {
            drop(s);
            self.metrics.inc(Metric::JournalError);
            return vec![Response::Rejected {
                reason: reject::OVERLOADED.into(),
                message: format!("journal append failed: {e}"),
                retry_after_ms: 50,
            }];
        }
        // Ack *before* the job becomes visible to workers: a fast worker
        // must not race its `Finished` push ahead of this `Accepted`.
        // (Writing under the sched lock is fine at this request rate.)
        let acked = client
            .push(&Response::Accepted {
                id,
                digest: digest.clone(),
                cached: false,
            })
            .is_ok();
        if !acked {
            // Client vanished between submit and ack. The Admit record
            // is on disk, so the job still runs — its result is cached
            // and journaled; only the pushes are lost.
            self.metrics.inc(Metric::PushFail);
        }
        let digest_for_flight = digest.clone();
        let ctx = Arc::new(JobCtx::new());
        s.tracked.insert(
            id,
            Tracked {
                ctx: Arc::clone(&ctx),
                phase: Phase::Queued,
            },
        );
        s.queue.push_back(Job {
            id,
            digest,
            spec,
            attempt: 0,
            ctx,
            client: acked.then(|| Arc::clone(client)),
        });
        if acked {
            client.inflight.fetch_add(1, Ordering::AcqRel);
        }
        self.metrics.inc(Metric::Accepted);
        flight::global().record("job.admit", Some(id), format!("digest={digest_for_flight}"));
        self.work_cv.notify_one();
        drop(s);
        if let Ok(pos) = self.journal.position() {
            self.metrics.set(Metric::JournalBytes, pos);
        }
        self.maybe_compact();
        vec![]
    }

    fn handle_cancel(self: &Arc<Self>, id: u64) -> (Response, Option<Job>) {
        let mut s = self.sched.lock().expect("sched lock poisoned");
        let Some(tracked) = s.tracked.get(&id) else {
            return (
                Response::CancelAck {
                    id,
                    state: "unknown".into(),
                },
                None,
            );
        };
        match tracked.phase {
            Phase::Running => {
                // Cooperative: the sweep loop polls this between chunks.
                tracked.ctx.cancel.store(true, Ordering::Release);
                flight::global().record("job.cancel", Some(id), "signaled");
                (
                    Response::CancelAck {
                        id,
                        state: "signaled".into(),
                    },
                    None,
                )
            }
            Phase::Queued => {
                let job = remove_queued(&mut s, id);
                flight::global().record("job.cancel", Some(id), "dequeued");
                (
                    Response::CancelAck {
                        id,
                        state: "dequeued".into(),
                    },
                    job,
                )
            }
        }
    }

    /// Blocking worker fetch; `None` means drained — the worker exits.
    fn next_job(&self) -> Option<Job> {
        let mut s = self.sched.lock().expect("sched lock poisoned");
        loop {
            let now = Instant::now();
            let due = s
                .retries
                .peek()
                .map(|e| e.due.saturating_duration_since(now));
            if due == Some(Duration::ZERO) {
                let entry = s.retries.pop().expect("peeked");
                s.running += 1;
                if let Some(t) = s.tracked.get_mut(&entry.job.id) {
                    t.phase = Phase::Running;
                }
                return Some(entry.job);
            }
            if let Some(job) = s.queue.pop_front() {
                s.running += 1;
                if let Some(t) = s.tracked.get_mut(&job.id) {
                    t.phase = Phase::Running;
                }
                return Some(job);
            }
            if s.draining && s.retries.is_empty() {
                self.idle_cv.notify_all();
                return None;
            }
            let wait = due
                .unwrap_or(self.poll)
                .min(self.poll)
                .max(Duration::from_millis(1));
            let (guard, _) = self
                .work_cv
                .wait_timeout(s, wait)
                .expect("sched lock poisoned");
            s = guard;
        }
    }

    /// Record a terminal outcome: cache, journal, client push, metrics.
    /// `was_running` jobs release their scheduler slot here — *after*
    /// the Finish record is journaled, so a drain can never observe an
    /// idle scheduler while a terminal record is still in flight.
    fn conclude(&self, job: Job, outcome: JobOutcome, started: Option<Instant>, was_running: bool) {
        match &outcome {
            JobOutcome::Done(res) => {
                self.cache.insert(job.digest.clone(), Arc::new(res.clone()));
                self.metrics.inc(Metric::CompletedOk);
                // Engine throughput feed: discrete events this job's
                // scenarios processed → the dashboard's events/s rate.
                self.metrics.add(Metric::EngineEvents, res.sim_events);
                flight::global().record(
                    "job.finish",
                    Some(job.id),
                    format!(
                        "ok scenarios={} events={}",
                        res.scenarios.len(),
                        res.sim_events
                    ),
                );
            }
            JobOutcome::Error(JobError::Canceled) => {
                self.metrics.inc(Metric::Canceled);
                flight::global().record("job.finish", Some(job.id), "canceled");
            }
            JobOutcome::Error(JobError::DeadlineExceeded { after_ms }) => {
                self.metrics.inc(Metric::DeadlineExceeded);
                flight::global().record(
                    "job.finish",
                    Some(job.id),
                    format!("deadline_exceeded after_ms={after_ms}"),
                );
                self.postmortem(
                    "deadline_kill",
                    &job,
                    &format!("deadline exceeded after {after_ms} ms"),
                );
            }
            JobOutcome::Error(e) => {
                self.metrics.inc(Metric::Failed);
                flight::global().record("job.finish", Some(job.id), format!("failed: {e}"));
            }
        }
        self.journal_append(&Record::Finish {
            id: job.id,
            outcome: outcome.clone(),
        });
        // The Finish record supersedes the job's checkpoint file.
        self.checkpoints.remove(job.id);
        // Resume-savings accounting: scenarios this job actually
        // simulated vs scenarios restored from a durable checkpoint.
        self.metrics.add(
            Metric::ScenariosExecuted,
            job.ctx.executed_scenarios.load(Ordering::Relaxed),
        );
        self.metrics.add(
            Metric::ScenariosResumed,
            job.ctx.resumed_scenarios.load(Ordering::Relaxed),
        );
        if let Some(started) = started {
            self.metrics
                .job_ms
                .record(started.elapsed().as_millis() as u64);
        }
        if let Some(client) = &job.client {
            client.inflight.fetch_sub(1, Ordering::AcqRel);
            if client
                .push(&Response::Finished {
                    id: job.id,
                    outcome,
                })
                .is_err()
            {
                // Client disconnected mid-job: the result is journaled
                // and cached; only the push is lost.
                self.metrics.inc(Metric::PushFail);
            }
        }
        {
            let mut s = self.sched.lock().expect("sched lock poisoned");
            if was_running {
                s.running -= 1;
            }
            s.tracked.remove(&job.id);
            if s.drained() {
                self.idle_cv.notify_all();
                self.work_cv.notify_all();
            }
        }
        // Outside the scheduler lock: compaction replays the whole file.
        self.maybe_compact();
    }

    /// A worker's `catch_unwind` tripped: retry on the seeded backoff
    /// schedule, or fail the job when the budget is spent.
    fn after_panic(&self, mut job: Job, message: String, started: Instant) {
        self.metrics.inc(Metric::WorkerPanic);
        flight::global().record(
            "job.panic",
            Some(job.id),
            format!("attempt={} msg={message}", job.attempt),
        );
        self.postmortem("worker_panic", &job, &message);
        let plan = RetryPlan::capped_exponential(
            self.cfg.retry_base_ms,
            RETRY_CAP_DOUBLINGS,
            self.cfg.max_retries,
        )
        .with_jitter(RETRY_JITTER, self.cfg.retry_seed ^ job.id);
        match plan.delay(job.attempt) {
            Some(delay_ms) => {
                self.metrics.inc(Metric::Retried);
                flight::global().record(
                    "job.retry",
                    Some(job.id),
                    format!("attempt={} delay_ms={delay_ms:.1}", job.attempt + 1),
                );
                let due = Instant::now() + Duration::from_micros((delay_ms * 1000.0) as u64);
                job.attempt += 1;
                let mut s = self.sched.lock().expect("sched lock poisoned");
                s.running -= 1;
                if let Some(t) = s.tracked.get_mut(&job.id) {
                    t.phase = Phase::Queued;
                }
                s.retries.push(RetryEntry { due, job });
                self.work_cv.notify_one();
            }
            None => {
                let attempts = job.attempt + 1;
                self.conclude(
                    job,
                    JobOutcome::Error(JobError::Panicked { attempts, message }),
                    Some(started),
                    true,
                );
            }
        }
    }
}

/// Choose the records that survive a compaction.
///
/// The live tail is sacred: every `Admit`/`Start` of a job that has no
/// `Finish` yet is kept, so `Replay::pending` is identical before and
/// after the rewrite. Finished jobs are cache-warmth, not correctness:
/// the newest `Admit`+`Finish` pairs are retained until they fill about
/// half the byte budget, and the rest are dropped — counted into the
/// leading [`Record::Compact`] marker (cumulative with prior markers) so
/// exactly-once audits still balance. The marker also carries the
/// highest id ever journaled, preserving the id-allocator floor.
fn compaction_keep(records: &[Record], budget: u64) -> Vec<Record> {
    use std::collections::HashSet;
    let max_id = records.iter().map(Record::id).max().unwrap_or(0);
    let prior_dropped = records
        .iter()
        .rev()
        .find_map(|r| match r {
            Record::Compact { dropped_jobs, .. } => Some(*dropped_jobs),
            _ => None,
        })
        .unwrap_or(0);
    let finished: HashSet<u64> = records
        .iter()
        .filter_map(|r| match r {
            Record::Finish { id, .. } => Some(*id),
            _ => None,
        })
        .collect();

    // Live records, in original append order.
    let live: Vec<Record> = records
        .iter()
        .filter(|r| match r {
            Record::Admit { id, .. } | Record::Start { id, .. } => !finished.contains(id),
            _ => false,
        })
        .cloned()
        .collect();

    // Cache-warm tail: newest finished Admit+Finish pairs under ~half
    // the budget (the other half is headroom for the live tail to grow
    // before the next compaction trips).
    let frame_bytes = |r: &Record| -> u64 {
        serde_json::to_string(r)
            .map(|s| s.len() as u64 + 8)
            .unwrap_or(0)
    };
    let admit_of = |id: u64| -> Option<&Record> {
        records
            .iter()
            .find(|r| matches!(r, Record::Admit { id: aid, .. } if *aid == id))
    };
    let mut warm: Vec<Record> = Vec::new();
    let mut warm_bytes = 0u64;
    let mut dropped_now = 0u64;
    let mut seen: HashSet<u64> = HashSet::new();
    for r in records.iter().rev() {
        let Record::Finish { id, .. } = r else {
            continue;
        };
        if !seen.insert(*id) {
            continue; // duplicate Finish: keep only the newest
        }
        let Some(admit) = admit_of(*id) else {
            dropped_now += 1; // orphan Finish (admit lost earlier): drop
            continue;
        };
        let pair = frame_bytes(admit) + frame_bytes(r);
        if warm_bytes + pair <= budget / 2 {
            warm_bytes += pair;
            // Reverse-order push; the final reverse restores Admit
            // before Finish and oldest-first across pairs.
            warm.push(r.clone());
            warm.push(admit.clone());
        } else {
            dropped_now += 1;
        }
    }
    warm.reverse();

    let mut out = Vec::with_capacity(1 + warm.len() + live.len());
    out.push(Record::Compact {
        max_id,
        dropped_jobs: prior_dropped + dropped_now,
    });
    out.extend(warm);
    out.extend(live);
    out
}

/// Remove a queued job (queue or retry heap) by id.
fn remove_queued(s: &mut Sched, id: u64) -> Option<Job> {
    s.tracked.remove(&id);
    if let Some(pos) = s.queue.iter().position(|j| j.id == id) {
        return s.queue.remove(pos);
    }
    let mut kept = BinaryHeap::with_capacity(s.retries.len());
    let mut found = None;
    for entry in s.retries.drain() {
        if entry.job.id == id {
            found = Some(entry.job);
        } else {
            kept.push(entry);
        }
    }
    s.retries = kept;
    found
}

/// Render a panic payload for [`JobError::Panicked`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

thread_local! {
    /// True while this worker thread is inside a job's `catch_unwind`.
    static IN_JOB: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Install a panic hook (once per process) that stays quiet for panics
/// caught inside a job — they become structured [`JobError::Panicked`]
/// results, so the default message + backtrace on stderr is pure noise.
/// Panics anywhere else still reach the previous hook untouched.
fn install_quiet_job_panic_hook() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !IN_JOB.with(|f| f.get()) {
                prev(info);
            }
        }));
    });
}

/// Spawn worker `idx`. On a caught panic the worker handles the retry
/// bookkeeping, spawns its own replacement, and retires — unwinding
/// leaves no reused thread state behind.
fn spawn_worker(state: Arc<ServerState>, idx: usize) {
    std::thread::Builder::new()
        .name(format!("dpml-serve-worker-{idx}"))
        .spawn(move || loop {
            let Some(job) = state.next_job() else {
                return;
            };
            state.journal_append(&Record::Start {
                id: job.id,
                attempt: job.attempt,
            });
            flight::global().record(
                "job.start",
                Some(job.id),
                format!("attempt={} worker={idx}", job.attempt),
            );
            // Durability hooks: resume sweep progress from the durable
            // checkpoint store (the fallback ladder lives in `load`) and
            // persist freshly advanced checkpoints at chunk boundaries.
            if matches!(job.spec.kind, JobKind::Sweep | JobKind::Simulate) {
                if let Ok(scenarios) = job.spec.scenarios() {
                    let total = scenarios.len() as u32;
                    if let Some(load) =
                        state
                            .checkpoints
                            .load(job.id, &job.digest, total, SWEEP_CHUNK as u32)
                    {
                        state.metrics.inc(Metric::Resumes);
                        state
                            .metrics
                            .add(Metric::CheckpointFallbacks, u64::from(load.fallbacks));
                        flight::global().record(
                            "job.resume",
                            Some(job.id),
                            format!(
                                "from_index={} of {total} fallbacks={}",
                                load.ckpt.next_index, load.fallbacks
                            ),
                        );
                        job.ctx.set_resume(load.ckpt);
                    }
                    if state.checkpoints.enabled() {
                        let store = Arc::clone(&state.checkpoints);
                        let metrics = Arc::clone(&state.metrics);
                        let id = job.id;
                        job.ctx.set_checkpoint_sink(Box::new(move |ck| {
                            let ordinal = u64::from(ck.next_index.div_ceil(ck.chunk));
                            if store.due(ordinal, ck.complete()) {
                                metrics.inc(match store.save(id, ck) {
                                    Ok(()) => Metric::CheckpointsWritten,
                                    Err(_) => Metric::CheckpointErrors,
                                });
                            }
                        }));
                    }
                }
            }
            let started = Instant::now();
            let spec = job.spec.clone();
            let ctx = Arc::clone(&job.ctx);
            let attempt = job.attempt;
            IN_JOB.with(|f| f.set(true));
            let outcome = catch_unwind(AssertUnwindSafe(|| execute(&spec, &ctx, attempt)));
            IN_JOB.with(|f| f.set(false));
            match outcome {
                Ok(out) => {
                    state.conclude(job, out, Some(started), true);
                }
                Err(payload) => {
                    let msg = panic_message(payload);
                    state.after_panic(job, msg, started);
                    spawn_worker(Arc::clone(&state), idx);
                    return;
                }
            }
        })
        .expect("spawn serve worker");
}

/// A running daemon.
pub struct ServerHandle {
    /// The bound address (resolves `:0` to the real port).
    pub addr: SocketAddr,
    state: Arc<ServerState>,
    accept: std::thread::JoinHandle<()>,
}

impl ServerHandle {
    /// Programmatic drain (same as the `Shutdown` verb).
    pub fn shutdown(&self) {
        self.state.begin_drain();
    }

    /// Graceful-termination drain (what the CLI maps SIGTERM/SIGINT to):
    /// running jobs finish, waiting jobs are journal-requeued for the
    /// next start. Follow with [`ServerHandle::wait`], which syncs the
    /// journal and returns 0 on a clean exit.
    pub fn terminate(&self) -> (u64, u64) {
        self.state.begin_terminate()
    }

    /// Shared state, for in-process inspection (tests, stats).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Block until drain completes; returns the process exit code (0 on
    /// a clean drain with the journal synced).
    pub fn wait(self) -> i32 {
        {
            let mut s = self.state.sched.lock().expect("sched lock poisoned");
            while !s.drained() {
                let (guard, _) = self
                    .state
                    .idle_cv
                    .wait_timeout(s, Duration::from_millis(100))
                    .expect("sched lock poisoned");
                s = guard;
            }
        }
        self.state.accept_done.store(true, Ordering::Release);
        let _ = self.accept.join();
        if self.state.journal.sync().is_err() {
            return 1;
        }
        0
    }
}

/// The scheduler's condvar poll interval: the recv half of the preset's
/// watchdog limits, so a stuck queue is re-examined on the same cadence
/// the preset considers "hung". An unknown preset polls every 100 ms.
fn poll_interval(preset_id: &str) -> Duration {
    Preset::by_id(preset_id)
        .map(|p| Duration::from_millis(p.watchdog.recv_ms))
        .unwrap_or(Duration::from_millis(100))
}

/// Bind, replay the journal (re-queueing every admitted-but-unfinished
/// job exactly once and warming the cache from finished results), and
/// start workers plus the accept loop.
pub fn start(cfg: ServeConfig) -> std::io::Result<ServerHandle> {
    install_quiet_job_panic_hook();
    let storage_faults = cfg
        .storage_faults
        .clone()
        .filter(|p| !p.is_quiet())
        .map(|p| Arc::new(StorageFaults::new(p)));
    let (journal, replay) = Journal::open_with(&cfg.journal_path, storage_faults.clone())?;
    let checkpoint_dir = cfg.checkpoint_dir.clone().unwrap_or_else(|| {
        let mut s = cfg.journal_path.as_os_str().to_os_string();
        s.push(".ckpt");
        PathBuf::from(s)
    });
    let checkpoints = Arc::new(
        CheckpointStore::new(checkpoint_dir, cfg.checkpoint_interval)
            .with_retain(cfg.retain_checkpoints)
            .with_faults(storage_faults.clone()),
    );
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let poll = poll_interval(&cfg.watchdog_preset);
    let cache = ResultCache::new(cfg.cache_capacity);
    let next_id = replay.max_id() + 1;
    let workers = cfg.workers.max(1);

    let state = Arc::new(ServerState {
        cfg,
        sched: Mutex::new(Sched {
            queue: VecDeque::new(),
            retries: BinaryHeap::new(),
            running: 0,
            tracked: HashMap::new(),
            draining: false,
        }),
        work_cv: Condvar::new(),
        idle_cv: Condvar::new(),
        journal,
        checkpoints,
        storage_faults,
        compacting: AtomicBool::new(false),
        cache,
        metrics: Arc::default(),
        prev_sample: Mutex::new(None),
        next_id: AtomicU64::new(next_id),
        accept_done: AtomicBool::new(false),
        poll,
    });

    seed_from_replay(&state, replay);

    for idx in 0..workers {
        spawn_worker(Arc::clone(&state), idx);
    }

    // Background telemetry ticker: one registry snapshot per interval
    // into the time-series ring, so `watch` clients and post-mortem
    // bundles see recent history even when nobody is streaming. Exits
    // within one interval of the accept loop shutting down.
    if state.cfg.sample_interval_ms > 0 {
        let tick_state = Arc::clone(&state);
        let _ = std::thread::Builder::new()
            .name("dpml-serve-ticker".into())
            .spawn(move || {
                let interval = Duration::from_millis(tick_state.cfg.sample_interval_ms.max(10));
                while !tick_state.accept_done.load(Ordering::Acquire) {
                    tick_state.sample();
                    std::thread::sleep(interval);
                }
            });
    }

    let accept_state = Arc::clone(&state);
    let accept = std::thread::Builder::new()
        .name("dpml-serve-accept".into())
        .spawn(move || accept_loop(accept_state, listener))
        .expect("spawn accept loop");

    Ok(ServerHandle {
        addr,
        state,
        accept,
    })
}

/// Apply a journal replay to fresh state: warm the cache from finished
/// results, re-queue pending jobs (no new Admit records — they are
/// already admitted on disk).
fn seed_from_replay(state: &Arc<ServerState>, replay: Replay) {
    // Durability telemetry from the replay itself: what the journal went
    // through before this start.
    if replay.torn_tail {
        state.metrics.inc(Metric::JournalTornTail);
        flight::global().record(
            "journal.torn_tail",
            None,
            format!("truncated to {} valid bytes", replay.valid_len),
        );
    }
    state.metrics.add(
        Metric::JournalCorruptFrames,
        u64::from(replay.corrupt_frames),
    );
    state.metrics.set(Metric::JournalBytes, replay.valid_len);
    state
        .metrics
        .set(Metric::JournalDroppedJobs, replay.dropped_jobs());
    for (_, outcome) in replay.finished() {
        if let JobOutcome::Done(res) = outcome {
            state.cache.insert(res.digest.clone(), Arc::new(res));
        }
    }
    let pending = replay.pending();
    if pending.is_empty() {
        return;
    }
    let mut s = state.sched.lock().expect("sched lock poisoned");
    for (id, digest, spec) in pending {
        state.metrics.inc(Metric::Replayed);
        let ctx = Arc::new(JobCtx::new());
        s.tracked.insert(
            id,
            Tracked {
                ctx: Arc::clone(&ctx),
                phase: Phase::Queued,
            },
        );
        s.queue.push_back(Job {
            id,
            digest,
            spec,
            attempt: 0,
            ctx,
            client: None,
        });
    }
    state.work_cv.notify_all();
}

fn accept_loop(state: Arc<ServerState>, listener: TcpListener) {
    loop {
        if state.accept_done.load(Ordering::Acquire) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let state = Arc::clone(&state);
                let _ = std::thread::Builder::new()
                    .name("dpml-serve-conn".into())
                    .spawn(move || conn_loop(state, stream));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => {
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// Stream `frames` telemetry frames (0 = until drain) at `interval_ms`
/// to one client. Returns false when the client vanished mid-stream.
fn stream_watch(
    state: &Arc<ServerState>,
    client: &Arc<ClientConn>,
    interval_ms: u64,
    frames: u32,
) -> bool {
    let interval = Duration::from_millis(interval_ms.max(MIN_WATCH_INTERVAL_MS));
    let mut seq = 0u64;
    loop {
        let frame = state.watch_frame(seq);
        if client.push(&Response::Frame { frame }).is_err() {
            state.metrics.inc(Metric::PushFail);
            return false;
        }
        seq += 1;
        if frames != 0 && seq >= u64::from(frames) {
            return true;
        }
        if state.accept_done.load(Ordering::Acquire) {
            // The daemon is gone; an unbounded subscription ends here.
            return true;
        }
        std::thread::sleep(interval);
    }
}

fn conn_loop(state: Arc<ServerState>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let client = Arc::new(ClientConn {
        writer: Mutex::new(writer),
        inflight: AtomicUsize::new(0),
    });
    let mut reader = stream;
    loop {
        match protocol::recv::<_, Request>(&mut reader) {
            Ok(Some(Request::Watch {
                interval_ms,
                frames,
            })) => {
                // Stream frames inline on this connection, then fall
                // back to normal request handling.
                if !stream_watch(&state, &client, interval_ms, frames) {
                    return; // client gone mid-stream
                }
            }
            Ok(Some(req)) => {
                let (responses, dequeued) = state.handle(&client, req);
                let mut client_gone = false;
                for resp in responses {
                    if client.push(&resp).is_err() {
                        client_gone = true;
                        break;
                    }
                }
                // A job dequeued by cancel concludes after its ack is on
                // the wire — and even if the client vanished mid-write.
                if let Some(job) = dequeued {
                    state.conclude(job, JobOutcome::Error(JobError::Canceled), None, false);
                }
                if client_gone {
                    return; // running jobs run on
                }
            }
            Ok(None) => return, // clean disconnect
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                let _ = client.push(&Response::ProtocolError {
                    message: e.to_string(),
                });
                return;
            }
            Err(_) => return, // torn frame / reset: jobs run on
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpml_fabric::presets::{cluster_b, cluster_d};

    #[test]
    fn preset_limits_flow_into_the_poll_interval() {
        let b = poll_interval("b");
        assert_eq!(b, Duration::from_millis(cluster_b().watchdog.recv_ms));
        // Cluster D's slow cores get a looser limit than B's Xeons.
        let d = poll_interval("D");
        assert_eq!(d, Duration::from_millis(cluster_d().watchdog.recv_ms));
        assert!(d > b);
        assert_eq!(poll_interval("no-such-preset"), Duration::from_millis(100));
    }
}
