//! Simulation results and collective-correctness verification.

use crate::coverage::{Contrib, CoverageMap};
use crate::time::SimTime;
use crate::trace::Trace;
use serde::{Deserialize, Serialize};

/// A failed verification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum VerifyError {
    /// The rank's result buffer does not hold every contribution exactly
    /// once over the whole vector: one is missing, extra or folded twice.
    WrongResult {
        /// Which rank.
        rank: u32,
        /// Bytes it covers with the correct full set.
        correct_bytes: u64,
        /// Vector length expected.
        expected_bytes: u64,
    },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::WrongResult {
                rank,
                correct_bytes,
                expected_bytes,
            } => write!(
                f,
                "rank {rank}: result holds a fully-reduced value over only \
                 {correct_bytes}/{expected_bytes} bytes"
            ),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Aggregate statistics from one simulated run.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct RunStats {
    /// Point-to-point messages sent (inter- and intra-node).
    pub messages: u64,
    /// Of which crossed the network (inter-node).
    pub inter_node_messages: u64,
    /// Total payload bytes sent inter-node.
    pub inter_node_bytes: u64,
    /// Shared-memory copy operations.
    pub copies: u64,
    /// Local reduction operations.
    pub reduces: u64,
    /// SHArP operations completed.
    pub sharp_ops: u64,
    /// Discrete events processed.
    pub events: u64,
    /// Peak concurrent fluid flows.
    pub peak_flows: usize,
    /// SHArP attempts retried after an injected op timeout (filled by the
    /// recovery ladder in `dpml-core`, not the engine).
    #[serde(default)]
    pub sharp_retries: u64,
    /// Completions that fell back from SHArP to a host-based schedule
    /// (filled by the recovery ladder in `dpml-core`).
    #[serde(default)]
    pub sharp_fallbacks: u64,
    /// Wire retransmissions driven by injected drops/corruption (ack
    /// timeout or CRC NACK; see `dpml_faults::DataFaults`).
    #[serde(default)]
    pub retransmits: u64,
    /// Payload deliveries that failed the receiver's CRC32C check.
    #[serde(default)]
    pub corruptions_detected: u64,
    /// Shared-memory publishes that failed their checksum and were redone.
    #[serde(default)]
    pub shm_crc_fails: u64,
    /// Expected number of corruptions the CRC32C check let through
    /// (`corruptions_detected * 2^-32`): the residual silent-data-
    /// corruption exposure of the run.
    #[serde(default)]
    pub undetected_risk: f64,
}

/// Occupancy of one modeled resource (NIC, link, memory bus) over a run.
/// Collected only for traced runs (see [`crate::Simulator::with_trace`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResourceUsage {
    /// Resource name, e.g. `node3.tx`, `node0.mem`, `leaf1.up`.
    pub name: String,
    /// Capacity, bytes/second.
    pub capacity: f64,
    /// Total bytes the resource served.
    pub bytes: f64,
    /// Mean utilization over the makespan, 0..=1.
    pub mean_util: f64,
    /// Peak instantaneous load fraction, 0..=1.
    pub peak_util: f64,
}

/// The result of simulating a [`crate::program::WorldProgram`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Per-rank completion times.
    pub finish_times: Vec<SimTime>,
    /// Per-rank final coverage of the conventional result buffer.
    pub result_coverage: Vec<CoverageMap>,
    /// Vector length in bytes.
    pub vector_bytes: u64,
    /// Run statistics.
    pub stats: RunStats,
    /// Execution timeline, when requested via
    /// [`crate::Simulator::with_trace`].
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub trace: Option<Trace>,
    /// Per-NIC / per-link / per-memory-bus occupancy, when tracing.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub resources: Vec<ResourceUsage>,
}

impl RunReport {
    /// The collective's completion time: when the last rank finished.
    pub fn makespan(&self) -> SimTime {
        self.finish_times
            .iter()
            .copied()
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Makespan in microseconds (the unit of every figure in the paper).
    pub fn latency_us(&self) -> f64 {
        self.makespan().micros()
    }

    /// Verify an allreduce: see [`verify_allreduce`].
    pub fn verify_allreduce(&self) -> Result<(), VerifyError> {
        verify_allreduce(&self.result_coverage, self.vector_bytes)
    }
}

/// Verify an allreduce over `n` bytes from `results`, one result buffer
/// per rank: each must hold every rank's contribution exactly once over
/// the whole vector.
pub fn verify_allreduce(results: &[CoverageMap], n: u64) -> Result<(), VerifyError> {
    let full = Contrib::full(results.len() as u32);
    for (r, cov) in results.iter().enumerate() {
        if !cov.covers_exactly(0, n, full) {
            let correct = cov
                .segments()
                .filter(|(_, _, sum)| *sum == full)
                .map(|(s, e, _)| e - s)
                .sum();
            return Err(VerifyError::WrongResult {
                rank: r as u32,
                correct_bytes: correct,
                expected_bytes: n,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(p: u32, n: u64, good: bool) -> RunReport {
        let cov = (0..p)
            .map(|r| {
                if good || r != 1 {
                    CoverageMap::ranks(0..p, 0, n)
                } else {
                    CoverageMap::singleton(r, 0, n)
                }
            })
            .collect();
        RunReport {
            finish_times: (0..p).map(|i| SimTime::new(i as f64 * 1e-6)).collect(),
            result_coverage: cov,
            vector_bytes: n,
            stats: RunStats::default(),
            trace: None,
            resources: Vec::new(),
        }
    }

    #[test]
    fn makespan_is_max_finish() {
        let r = report(4, 64, true);
        assert_eq!(r.makespan(), SimTime::new(3e-6));
        assert!((r.latency_us() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn verify_passes_for_complete_allreduce() {
        assert!(report(4, 64, true).verify_allreduce().is_ok());
    }

    #[test]
    fn verify_fails_for_incomplete_rank() {
        let err = report(4, 64, false).verify_allreduce().unwrap_err();
        match err {
            VerifyError::WrongResult {
                rank,
                correct_bytes,
                expected_bytes,
            } => {
                assert_eq!(rank, 1);
                assert_eq!(correct_bytes, 0);
                assert_eq!(expected_bytes, 64);
            }
        }
    }

    #[test]
    fn empty_report_makespan_zero() {
        let r = RunReport {
            finish_times: vec![],
            result_coverage: vec![],
            vector_bytes: 0,
            stats: RunStats::default(),
            trace: None,
            resources: Vec::new(),
        };
        assert_eq!(r.makespan(), SimTime::ZERO);
    }
}
