//! Flight recorder: an always-on, bounded, process-wide ring of recent
//! engine and daemon events, plus the schema-versioned post-mortem
//! bundle dumped when something goes wrong.
//!
//! The recorder answers the question a point-in-time `stats` snapshot
//! cannot: *what was the system doing in the moments before a panic,
//! deadline kill, integrity failure, or chaos violation?* Producers call
//! [`FlightRecorder::record`] at run boundaries and job-lifecycle edges
//! (admit/start/retry/cancel/finish) — never inside the simulator's hot
//! event loop, so a run costs one record (plus at most eight span
//! records when traced), not one per event; `tests/cost_gate.rs` holds
//! the engine to exactly that count. On failure,
//! [`PostmortemBundle::capture`] freezes the tail of the ring together
//! with caller-supplied context (job spec, metrics snapshot, journal
//! position) and [`PostmortemBundle::save`] writes it as a JSON file an
//! operator — or a `dpml chaos mine` reproducer — can link to.
//!
//! The ring is process-wide ([`global`]) because its consumers span
//! crate layers: `dpml-engine` emits `sim.end`/`sim.span` events,
//! `dpml-serve` emits `job.*` events, and `dpml-chaos` snapshots the
//! combined tail when a campaign case violates an invariant.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

/// Version stamped into every [`PostmortemBundle`]; bump on any
/// backwards-incompatible change to the bundle layout.
pub const BUNDLE_SCHEMA: u32 = 1;

/// Default capacity of the global ring. Sized so a busy daemon keeps a
/// few seconds of job-lifecycle history without unbounded growth.
pub const DEFAULT_CAPACITY: usize = 2048;

/// How many trailing events a bundle freezes by default.
pub const DEFAULT_TAIL: usize = 256;

/// One recorded event. Deliberately flat — a wall-clock stamp, a
/// dot-separated kind (`sim.end`, `job.admit`, `job.panic`, ...), an
/// optional job id linking engine spans to daemon lifecycle, and a
/// human-readable detail string — so producers in different crates never
/// need a shared context type.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlightEvent {
    /// Milliseconds since the unix epoch.
    pub t_ms: u64,
    /// Event kind, e.g. `sim.end`, `sim.span`, `job.start`, `job.retry`.
    pub kind: String,
    /// Daemon job id, when the event belongs to a job's lifecycle.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub job: Option<u64>,
    /// Free-form context (`events=1234 makespan_us=56`, span summary, ...).
    pub detail: String,
}

/// Wall-clock now in unix milliseconds (0 if the clock is before 1970).
pub fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// A bounded ring of [`FlightEvent`]s. All methods take `&self`; the
/// ring is internally locked and safe to share across threads.
#[derive(Debug)]
pub struct FlightRecorder {
    cap: usize,
    ring: Mutex<VecDeque<FlightEvent>>,
    recorded: AtomicU64,
}

impl FlightRecorder {
    /// New recorder holding at most `cap` events. The ring is allocated
    /// up front, so recording never grows it.
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        FlightRecorder {
            cap,
            ring: Mutex::new(VecDeque::with_capacity(cap)),
            recorded: AtomicU64::new(0),
        }
    }

    /// Record an event stamped with the current wall clock.
    pub fn record(&self, kind: &str, job: Option<u64>, detail: impl Into<String>) {
        self.record_at(now_ms(), kind, job, detail);
    }

    /// Record an event with an explicit timestamp (tests, replays).
    fn record_at(&self, t_ms: u64, kind: &str, job: Option<u64>, detail: impl Into<String>) {
        let ev = FlightEvent {
            t_ms,
            kind: kind.to_string(),
            job,
            detail: detail.into(),
        };
        let mut g = self.ring.lock().expect("flight ring poisoned");
        if g.len() == self.cap {
            g.pop_front();
        }
        g.push_back(ev);
        self.recorded.fetch_add(1, Ordering::Relaxed);
    }

    /// The most recent `n` events, oldest first.
    pub fn tail(&self, n: usize) -> Vec<FlightEvent> {
        let g = self.ring.lock().expect("flight ring poisoned");
        let skip = g.len().saturating_sub(n);
        g.iter().skip(skip).cloned().collect()
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring.lock().expect("flight ring poisoned").len()
    }

    /// True when nothing has been recorded (or everything cleared).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum events held before the oldest is dropped.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Lifetime count of recorded events (including ones since evicted).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Drop all held events (test isolation).
    pub fn clear(&self) {
        self.ring.lock().expect("flight ring poisoned").clear();
    }
}

/// The process-wide recorder every layer records into.
pub fn global() -> &'static FlightRecorder {
    static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();
    GLOBAL.get_or_init(|| FlightRecorder::new(DEFAULT_CAPACITY))
}

/// A frozen post-mortem: the flight-ring tail plus whatever context the
/// failing layer could attach. All context fields are schemaless JSON so
/// the bundle type lives below every producer in the crate graph.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PostmortemBundle {
    /// Bundle layout version ([`BUNDLE_SCHEMA`]).
    pub schema: u32,
    /// Why the bundle was dumped: `worker_panic`, `deadline_kill`,
    /// `integrity_failure`, `chaos_violation`, ...
    pub reason: String,
    /// Capture time, unix milliseconds.
    pub t_ms: u64,
    /// Trailing flight events, oldest first.
    pub trace_tail: Vec<FlightEvent>,
    /// Job context (spec, id, attempt) when a job was involved.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub job: Option<serde_json::Value>,
    /// Metrics snapshot at capture time.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub metrics: Option<serde_json::Value>,
    /// Byte offset of the daemon journal at capture time.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub journal_position: Option<u64>,
    /// Free-form notes (panic payload, violated invariant, ...).
    pub notes: String,
}

impl PostmortemBundle {
    /// Freeze the global ring's tail into a bundle. Context fields start
    /// empty; set them before [`save`](Self::save).
    pub fn capture(reason: &str, notes: impl Into<String>) -> Self {
        PostmortemBundle {
            schema: BUNDLE_SCHEMA,
            reason: reason.to_string(),
            t_ms: now_ms(),
            trace_tail: global().tail(DEFAULT_TAIL),
            job: None,
            metrics: None,
            journal_position: None,
            notes: notes.into(),
        }
    }

    /// Attach job context (builder style).
    pub fn with_job(mut self, job: serde_json::Value) -> Self {
        self.job = Some(job);
        self
    }

    /// Attach a metrics snapshot (builder style).
    pub fn with_metrics(mut self, metrics: serde_json::Value) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Attach the journal byte offset (builder style).
    pub fn with_journal_position(mut self, pos: u64) -> Self {
        self.journal_position = Some(pos);
        self
    }

    /// Write the bundle as pretty JSON under `dir`, creating it if
    /// needed. The filename is `postmortem_<reason>_<t_ms>_<seq>.json`;
    /// a process-wide sequence number keeps same-millisecond dumps from
    /// colliding. Returns the written path.
    ///
    /// `max_bundles` caps how many bundle files `dir` may hold: when at
    /// or over the cap, the dump is skipped and `Ok(None)` is returned,
    /// so a crash loop cannot fill the disk.
    pub fn save(&self, dir: &Path, max_bundles: usize) -> io::Result<Option<PathBuf>> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::fs::create_dir_all(dir)?;
        let existing = std::fs::read_dir(dir)?
            .filter_map(|e| e.ok())
            .filter(|e| {
                let name = e.file_name();
                let name = name.to_string_lossy();
                name.starts_with("postmortem_") && name.ends_with(".json")
            })
            .count();
        if existing >= max_bundles {
            return Ok(None);
        }
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let safe_reason: String = self
            .reason
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        let path = dir.join(format!(
            "postmortem_{}_{}_{}.json",
            safe_reason, self.t_ms, seq
        ));
        let json = serde_json::to_string_pretty(self).map_err(io::Error::other)?;
        std::fs::write(&path, json)?;
        Ok(Some(path))
    }

    /// Read a bundle back from disk, verifying the schema version.
    pub fn load(path: &Path) -> io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        let bundle: PostmortemBundle = serde_json::from_str(&text).map_err(io::Error::other)?;
        if bundle.schema != BUNDLE_SCHEMA {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "postmortem schema {} != supported {}",
                    bundle.schema, BUNDLE_SCHEMA
                ),
            ));
        }
        Ok(bundle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_bounds_and_orders_events() {
        let rec = FlightRecorder::new(4);
        for i in 0..10u64 {
            rec.record_at(i, "sim.end", None, format!("run {i}"));
        }
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.recorded(), 10);
        let tail = rec.tail(2);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].t_ms, 8);
        assert_eq!(tail[1].t_ms, 9);
        assert_eq!(rec.tail(100).len(), 4);
    }

    #[test]
    fn bundle_save_load_roundtrip_and_cap() {
        let dir = std::env::temp_dir().join(format!("dpml_flight_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let bundle = PostmortemBundle {
            schema: BUNDLE_SCHEMA,
            reason: "worker_panic".into(),
            t_ms: 42,
            trace_tail: vec![FlightEvent {
                t_ms: 41,
                kind: "job.start".into(),
                job: Some(3),
                detail: "attempt=1".into(),
            }],
            job: Some(serde_json::json!({"id": 3})),
            metrics: None,
            journal_position: Some(128),
            notes: "boom".into(),
        };
        let p1 = bundle.save(&dir, 2).unwrap().expect("first dump fits");
        let p2 = bundle.save(&dir, 2).unwrap().expect("second dump fits");
        assert_ne!(p1, p2);
        assert!(bundle.save(&dir, 2).unwrap().is_none(), "cap reached");
        let back = PostmortemBundle::load(&p1).unwrap();
        assert_eq!(back.reason, "worker_panic");
        assert_eq!(back.journal_position, Some(128));
        assert_eq!(back.trace_tail.len(), 1);
        assert_eq!(back.trace_tail[0].job, Some(3));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bundle_load_rejects_wrong_schema() {
        let dir = std::env::temp_dir().join(format!("dpml_flight_schema_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("postmortem_bad_0_0.json");
        std::fs::write(
            &path,
            r#"{"schema": 999, "reason": "x", "t_ms": 0, "trace_tail": [], "notes": ""}"#,
        )
        .unwrap();
        assert!(PostmortemBundle::load(&path).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
