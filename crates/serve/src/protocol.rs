//! Wire protocol: length-prefixed JSON frames over TCP.
//!
//! Every message is `[4-byte LE length][JSON payload]`. The framing is
//! deliberately minimal — the robustness properties (admission control,
//! deadlines, journaling) live in the server, not the wire format — but
//! the frame length is bounded so a corrupt or hostile peer cannot make
//! the daemon allocate unbounded memory.

use crate::job::{JobOutcome, JobSpec};
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};

/// The durable-frame bound doubles as the wire bound: a larger length is
/// treated as protocol corruption, not an allocation request.
pub use crate::frame::MAX_FRAME;

/// Rejection classes returned by [`Response::Rejected`].
pub mod reject {
    /// Job queue at capacity — retry after the hinted delay.
    pub const OVERLOADED: &str = "overloaded";
    /// This client already has its maximum jobs in flight.
    pub const CLIENT_CAP: &str = "client-cap";
    /// The daemon is draining and no longer admits work.
    pub const DRAINING: &str = "draining";
    /// The job spec failed validation (bad preset/algorithm/sizes).
    pub const INVALID: &str = "invalid";
}

/// A client request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Submit a job for execution (or a cache lookup).
    Submit {
        /// What to run.
        spec: JobSpec,
    },
    /// Cancel a queued or running job by id.
    Cancel {
        /// Id from the earlier `Accepted`.
        id: u64,
    },
    /// Snapshot the server's live counters.
    Stats,
    /// Subscribe to a stream of periodic [`WatchFrame`]s. The server
    /// pushes one [`Response::Frame`] per interval until `frames` frames
    /// have been sent (0 = until disconnect or drain), then resumes
    /// normal request handling on the connection.
    Watch {
        /// Milliseconds between frames (clamped to ≥ 10 server-side).
        interval_ms: u64,
        /// Frames to stream; 0 streams until disconnect/drain.
        frames: u32,
    },
    /// One-shot Prometheus-style text exposition of the registry.
    Metrics,
    /// Stop admission, finish in-flight work, exit 0.
    Shutdown,
    /// Liveness probe.
    Ping,
}

/// Live counter snapshot returned by the `stats` verb.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServeStats {
    /// `(name, value)` for every counter, sorted by name.
    pub counters: Vec<CounterStat>,
    /// Histogram summaries, sorted by name.
    pub histograms: Vec<HistogramStat>,
}

/// One counter in [`ServeStats`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterStat {
    /// Registered name (`serve.*`).
    pub name: String,
    /// Current value.
    pub value: u64,
}

/// One histogram summary in [`ServeStats`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramStat {
    /// Registered name.
    pub name: String,
    /// Samples recorded.
    pub count: u64,
    /// Mean sample.
    pub mean: f64,
    /// Approximate p50 (within-bucket interpolation; error < 2×).
    pub p50: u64,
    /// Approximate p99 (within-bucket interpolation; error < 2×).
    pub p99: u64,
}

/// One streamed telemetry frame (the `watch` verb's payload).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WatchFrame {
    /// Frame sequence number within this subscription, from 0.
    pub seq: u64,
    /// Server wall clock at sample time, unix milliseconds.
    pub t_ms: u64,
    /// Jobs queued (not yet running, not in retry backoff).
    pub queue_depth: u64,
    /// Jobs currently executing on workers.
    pub running: u64,
    /// Jobs waiting out a retry backoff.
    pub retrying: u64,
    /// True once drain has begun.
    pub draining: bool,
    /// Cumulative counters/histograms, as in the `stats` verb.
    pub stats: ServeStats,
    /// Per-counter rates over the window since the previous sample.
    /// Empty on the first frame after daemon start (no window yet).
    pub rates: Vec<RateStat>,
    /// Windowed histogram quantiles over the same window.
    pub windows: Vec<WindowStat>,
    /// Window length the rates were derived over, milliseconds.
    pub window_ms: u64,
}

/// One counter's per-second rate in a [`WatchFrame`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RateStat {
    /// Counter name.
    pub name: String,
    /// Increase over the window.
    pub delta: u64,
    /// Increase per second.
    pub per_sec: f64,
}

/// One histogram's windowed quantiles in a [`WatchFrame`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowStat {
    /// Histogram name.
    pub name: String,
    /// Samples recorded during the window.
    pub count: u64,
    /// Interpolated median over the window.
    pub p50: u64,
    /// Interpolated 99th percentile over the window.
    pub p99: u64,
}

impl WatchFrame {
    /// Per-second rate of a counter by name, if present in this frame.
    pub fn rate(&self, name: &str) -> Option<f64> {
        self.rates
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.per_sec)
    }
}

impl ServeStats {
    /// Counter value by name, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }
}

/// A server reply. `Submit` answers with `Accepted` (or `Rejected`)
/// immediately; the matching `Finished` is pushed on the same connection
/// when the job completes. Cache hits skip the queue: `Accepted` with
/// `cached: true` is followed at once by the `Finished`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// The job was admitted (or served from cache).
    Accepted {
        /// Server-assigned job id.
        id: u64,
        /// Content digest of the job's scenario set.
        digest: String,
        /// True when the result came from the content-addressed cache.
        cached: bool,
    },
    /// Terminal outcome of an admitted job.
    Finished {
        /// Id from the earlier `Accepted`.
        id: u64,
        /// Result or structured error.
        outcome: JobOutcome,
    },
    /// The job was not admitted.
    Rejected {
        /// One of the [`reject`] constants.
        reason: String,
        /// Human-readable detail.
        message: String,
        /// Load-shedding hint: when to retry (0 = don't).
        retry_after_ms: u64,
    },
    /// Reply to `Cancel`.
    CancelAck {
        /// The cancelled id.
        id: u64,
        /// `"dequeued"`, `"signaled"`, or `"unknown"`.
        state: String,
    },
    /// Reply to `Stats`.
    StatsReply {
        /// Snapshot of the server metrics registry.
        stats: ServeStats,
    },
    /// One telemetry frame of a `Watch` subscription.
    Frame {
        /// The sampled frame.
        frame: WatchFrame,
    },
    /// Reply to `Metrics`: Prometheus-style text exposition.
    MetricsText {
        /// The exposition body (`# TYPE` lines + samples).
        text: String,
    },
    /// Reply to `Shutdown`: drain has begun.
    ShutdownAck {
        /// Jobs still queued or running at drain start.
        pending: u64,
    },
    /// Reply to `Ping`.
    Pong,
    /// The request frame could not be decoded.
    ProtocolError {
        /// What went wrong.
        message: String,
    },
}

/// Write one length-prefixed frame.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one frame. `Ok(None)` on clean EOF before the header; an EOF in
/// the middle of a frame is an error (the peer died mid-message).
pub fn read_frame<R: Read>(r: &mut R) -> std::io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    match r.read_exact(&mut header) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds {MAX_FRAME}"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Serialize `msg` and write it as one frame.
pub fn send<W: Write, T: Serialize>(w: &mut W, msg: &T) -> std::io::Result<()> {
    let json = serde_json::to_string(msg)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    write_frame(w, json.as_bytes())
}

/// Read one frame and deserialize it. `Ok(None)` on clean EOF.
pub fn recv<R: Read, T: serde::Deserialize>(r: &mut R) -> std::io::Result<Option<T>> {
    let Some(payload) = read_frame(r)? else {
        return Ok(None);
    };
    let text = String::from_utf8(payload)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let msg = serde_json::from_str(&text)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    Ok(Some(msg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobKind;

    fn spec() -> JobSpec {
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
    fn request_round_trips_through_frames() {
        let mut buf = Vec::new();
        let reqs = vec![
            Request::Submit { spec: spec() },
            Request::Cancel { id: 7 },
            Request::Stats,
            Request::Shutdown,
            Request::Ping,
        ];
        for r in &reqs {
            send(&mut buf, r).unwrap();
        }
        let mut cursor = std::io::Cursor::new(buf);
        for expect in &reqs {
            let got: Request = recv(&mut cursor).unwrap().unwrap();
            assert_eq!(&got, expect);
        }
        assert!(recv::<_, Request>(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn response_round_trips() {
        let resps = vec![
            Response::Accepted {
                id: 1,
                digest: "deadbeef".into(),
                cached: false,
            },
            Response::Rejected {
                reason: reject::OVERLOADED.into(),
                message: "queue full".into(),
                retry_after_ms: 25,
            },
            Response::Pong,
        ];
        for r in &resps {
            let mut buf = Vec::new();
            send(&mut buf, r).unwrap();
            let mut cursor = std::io::Cursor::new(buf);
            let got: Response = recv(&mut cursor).unwrap().unwrap();
            assert_eq!(&got, r);
        }
    }

    #[test]
    fn oversized_frame_is_rejected_not_allocated() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        let err = read_frame(&mut std::io::Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn torn_frame_is_an_error_not_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(buf.len() - 2);
        let err = read_frame(&mut std::io::Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }
}
