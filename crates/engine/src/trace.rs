//! Execution timelines: what every rank was doing, when — and why.
//!
//! Enable with [`crate::Simulator::with_trace`]; the report then carries a
//! [`Trace`] with one span per completed operation (copies, reductions,
//! compute, blocking waits, SHArP ops) and one per message (injection →
//! delivery). Every span carries the algorithm [`Phase`] that emitted the
//! underlying instruction, and blocking spans record the [`Release`] event
//! that unblocked them — the dependency edge the critical-path analysis in
//! [`crate::critical`] walks backwards. Export to the Chrome tracing format
//! (`chrome://tracing` / Perfetto) with [`Trace::to_chrome_json`] to see
//! DPML's four phases laid out across ranks.

use serde::{Deserialize, Serialize};

/// Which algorithm phase an instruction belongs to.
///
/// Emitters in `dpml-core` tag every instruction with the DPML phase that
/// produced it ([`crate::Program::set_phase`]); the engine stamps the tag
/// onto every [`Span`] and [`MsgTrace`] so a run decomposes into the
/// paper's Section 5 phase analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Phase {
    /// Phase 1: non-leaders deposit contributions into node shared memory.
    ShmGather,
    /// Phase 2: leaders reduce their partition of the shared deposits.
    LeaderReduce,
    /// Phase 3: inter-leader (inter-node) exchange of partial results.
    InterLeader,
    /// Phase 4: leaders publish and all ranks copy out the final result.
    Broadcast,
    /// In-network (SHArP) offloaded reduction.
    Sharp,
    /// Application compute interleaved with the collective.
    App,
    /// Not tagged by the emitter (should not appear for built-in
    /// algorithms; the profiler tests assert exhaustive tagging).
    #[default]
    Unknown,
}

impl Phase {
    /// Every phase, in display order.
    pub const ALL: [Phase; 7] = [
        Phase::ShmGather,
        Phase::LeaderReduce,
        Phase::InterLeader,
        Phase::Broadcast,
        Phase::Sharp,
        Phase::App,
        Phase::Unknown,
    ];

    /// Display name for trace viewers and tables.
    pub fn name(&self) -> &'static str {
        match self {
            Phase::ShmGather => "shm-gather",
            Phase::LeaderReduce => "leader-reduce",
            Phase::InterLeader => "inter-leader",
            Phase::Broadcast => "broadcast",
            Phase::Sharp => "sharp",
            Phase::App => "app",
            Phase::Unknown => "unknown",
        }
    }
}

/// The event that released a blocking span (what the op was waiting *for*).
///
/// Recorded by the engine on [`Span`]s of kind `Wait`/`Barrier`/`Sharp`;
/// the critical-path walk follows these edges backwards across ranks.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Release {
    /// A local fluid flow (shared-memory copy or reduction stream) drained.
    Local,
    /// Completion of message `Trace::messages[idx]` (receive delivery, or
    /// rendezvous-send completion on the sender side).
    Msg {
        /// Index into [`Trace::messages`].
        idx: usize,
    },
    /// Barrier release: `rank` was the last member to arrive, at `at`.
    Barrier {
        /// Last-arriving rank.
        rank: u32,
        /// Its arrival time, seconds.
        at: f64,
    },
    /// SHArP completion: `rank` was the last member to join, at `at`.
    Sharp {
        /// Last-joining rank.
        rank: u32,
        /// Its join time, seconds.
        at: f64,
    },
}

/// What a span was spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpanKind {
    /// Sender-side injection of a message (overhead + shm copy-in).
    SendInject,
    /// Shared-memory copy.
    Copy,
    /// Local reduction.
    Reduce,
    /// Application compute.
    Compute,
    /// Blocked in a wait (recv/send completion).
    Wait,
    /// Blocked in a barrier.
    Barrier,
    /// Blocked in a (blocking) SHArP operation.
    Sharp,
}

impl SpanKind {
    /// Display name for trace viewers.
    pub fn name(&self) -> &'static str {
        match self {
            SpanKind::SendInject => "send",
            SpanKind::Copy => "copy",
            SpanKind::Reduce => "reduce",
            SpanKind::Compute => "compute",
            SpanKind::Wait => "wait",
            SpanKind::Barrier => "barrier",
            SpanKind::Sharp => "sharp",
        }
    }
}

/// One operation span on one rank's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// Rank the span belongs to.
    pub rank: u32,
    /// Operation kind.
    pub kind: SpanKind,
    /// Start, seconds of virtual time.
    pub start: f64,
    /// End, seconds of virtual time.
    pub end: f64,
    /// Bytes involved (0 for compute/waits).
    pub bytes: u64,
    /// Algorithm phase that emitted the instruction.
    #[serde(default)]
    pub phase: Phase,
    /// For blocking spans: the event that unblocked them.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub release: Option<Release>,
}

/// One message's life: injection at the sender to delivery at the receiver.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MsgTrace {
    /// Sender rank.
    pub src: u32,
    /// Receiver rank.
    pub dst: u32,
    /// Payload bytes.
    pub bytes: u64,
    /// Injection time, seconds.
    pub injected: f64,
    /// Delivery time, seconds.
    pub delivered: f64,
    /// True for intra-node (shared-memory) transfers.
    pub intra_node: bool,
    /// Algorithm phase of the originating `ISend`.
    #[serde(default)]
    pub phase: Phase,
    /// When the sender finished injection overhead and handed the message
    /// to the NIC / memory system, seconds.
    #[serde(default)]
    pub posted: f64,
    /// When the message cleared the NIC message-rate server and its fluid
    /// flow started draining, seconds (equals `injected` for intra-node).
    #[serde(default)]
    pub wire_start: f64,
    /// Wire/propagation latency paid after the flow drained, seconds.
    #[serde(default)]
    pub net_latency: f64,
    /// Retransmissions this message needed before delivering intact
    /// (injected data faults; 0 on a clean wire).
    #[serde(default)]
    pub attempts: u32,
    /// First injection time, seconds. `posted` reflects the final
    /// (successful) attempt; the gap `first_posted → posted` is the retry
    /// window the critical-path walk attributes to `retransmit`.
    #[serde(default)]
    pub first_posted: f64,
}

/// A complete execution timeline.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Per-rank operation spans, in completion order.
    pub spans: Vec<Span>,
    /// Message lifetimes, in delivery order.
    pub messages: Vec<MsgTrace>,
}

impl Trace {
    /// Total time attributed to a kind across all ranks, seconds.
    pub fn total_time(&self, kind: SpanKind) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Total span time attributed to a phase across all ranks, seconds.
    pub fn total_phase_time(&self, phase: Phase) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.phase == phase)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Export as Chrome tracing JSON (load in `chrome://tracing` or
    /// Perfetto; one "thread" per rank, microsecond timestamps). Spans
    /// carry their phase as the category and `bytes`/`phase` in `args`;
    /// messages become flow arrows from sender injection to delivery.
    pub fn to_chrome_json(&self) -> String {
        let mut events = Vec::with_capacity(self.spans.len());
        for s in &self.spans {
            events.push(serde_json::json!({
                "ph": "X",
                "name": s.kind.name(),
                "cat": s.phase.name(),
                "pid": 0,
                "tid": s.rank,
                "ts": s.start * 1e6,
                "dur": (s.end - s.start) * 1e6,
                "args": { "bytes": s.bytes, "phase": s.phase.name() },
            }));
        }
        for (i, m) in self.messages.iter().enumerate() {
            // Flow events: arrow from sender to receiver.
            events.push(serde_json::json!({
                "ph": "s", "id": i, "name": "msg", "cat": "msg",
                "pid": 0, "tid": m.src, "ts": m.injected * 1e6,
                "args": { "bytes": m.bytes, "phase": m.phase.name() },
            }));
            events.push(serde_json::json!({
                "ph": "f", "id": i, "name": "msg", "cat": "msg", "bp": "e",
                "pid": 0, "tid": m.dst, "ts": m.delivered * 1e6,
                "args": { "bytes": m.bytes, "phase": m.phase.name() },
            }));
        }
        serde_json::json!({ "traceEvents": events }).to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(rank: u32, kind: SpanKind, start: f64, end: f64, bytes: u64, phase: Phase) -> Span {
        Span {
            rank,
            kind,
            start,
            end,
            bytes,
            phase,
            release: None,
        }
    }

    fn sample() -> Trace {
        Trace {
            spans: vec![
                span(0, SpanKind::Copy, 0.0, 1e-6, 100, Phase::ShmGather),
                span(0, SpanKind::Reduce, 1e-6, 3e-6, 200, Phase::LeaderReduce),
                span(1, SpanKind::Copy, 0.0, 2e-6, 100, Phase::ShmGather),
            ],
            messages: vec![MsgTrace {
                src: 0,
                dst: 1,
                bytes: 64,
                injected: 1e-6,
                delivered: 2e-6,
                intra_node: false,
                phase: Phase::InterLeader,
                posted: 1e-6,
                wire_start: 1.2e-6,
                net_latency: 1e-7,
                attempts: 0,
                first_posted: 1e-6,
            }],
        }
    }

    #[test]
    fn totals_by_kind() {
        let t = sample();
        assert!((t.total_time(SpanKind::Copy) - 3e-6).abs() < 1e-18);
        assert!((t.total_time(SpanKind::Reduce) - 2e-6).abs() < 1e-18);
        assert_eq!(t.total_time(SpanKind::Compute), 0.0);
    }

    #[test]
    fn totals_by_phase() {
        let t = sample();
        assert!((t.total_phase_time(Phase::ShmGather) - 3e-6).abs() < 1e-18);
        assert!((t.total_phase_time(Phase::LeaderReduce) - 2e-6).abs() < 1e-18);
        assert_eq!(t.total_phase_time(Phase::Unknown), 0.0);
    }

    #[test]
    fn chrome_export_is_valid_json() {
        let json = sample().to_chrome_json();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let events = v["traceEvents"].as_array().unwrap();
        assert_eq!(events.len(), 3 + 2);
        // Spans carry phase in args; flow arrows carry bytes.
        assert_eq!(events[0]["args"]["phase"].as_str(), Some("shm-gather"));
        assert_eq!(events[3]["ph"].as_str(), Some("s"));
        assert_eq!(events[3]["args"]["bytes"].as_u64(), Some(64));
    }

    #[test]
    fn phase_serde_defaults_to_unknown() {
        // Old traces without phase fields still deserialize.
        let json = r#"{"rank":0,"kind":"Copy","start":0.0,"end":1.0,"bytes":8}"#;
        let s: Span = serde_json::from_str(json).unwrap();
        assert_eq!(s.phase, Phase::Unknown);
        assert_eq!(s.release, None);
    }
}
