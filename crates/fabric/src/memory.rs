//! Intra-node memory system model.
//!
//! Shared-memory copies (DPML phases 1 and 4) are modeled as fluid flows on
//! the node's memory bus: each copy has a per-process bandwidth ceiling and
//! all concurrent copies on a node share `node_mem_bw` max-min fairly.
//! Because `node_mem_bw` is large relative to the per-process ceiling, the
//! intra-node relative throughput scales nearly linearly with the number of
//! concurrent pairs — the paper's Figure 1(a) observation that motivates
//! shallow, wide intra-node hierarchies.
//!
//! Cross-socket transfers (relevant to the SHArP node-level vs socket-level
//! leader comparison, Section 4.3) pay extra latency and a bandwidth
//! derating for traversing the inter-socket link (QPI/UPI).

use serde::{Deserialize, Serialize};

/// Memory system speed parameters for one node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryModel {
    /// Startup latency of one shared-memory copy (`a'` in the cost model),
    /// seconds. Covers synchronization flag checks and cache warmup.
    pub copy_latency: f64,
    /// Sustained single-process copy bandwidth (`1/b'`), bytes/second.
    pub per_proc_copy_bw: f64,
    /// Aggregate node memory bandwidth shared by all concurrent copies and
    /// reductions, bytes/second.
    pub node_mem_bw: f64,
    /// Extra latency when source and destination ranks sit on different
    /// sockets, seconds.
    pub cross_socket_latency: f64,
    /// Multiplier (< 1) applied to `per_proc_copy_bw` for cross-socket
    /// copies.
    pub cross_socket_bw_factor: f64,
}

impl MemoryModel {
    /// Sanity-check parameter consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.copy_latency < 0.0 || self.cross_socket_latency < 0.0 {
            return Err("latencies must be non-negative".into());
        }
        if self.per_proc_copy_bw <= 0.0 || self.node_mem_bw <= 0.0 {
            return Err("bandwidths must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.cross_socket_bw_factor) {
            return Err("cross_socket_bw_factor must be in (0, 1]".into());
        }
        if self.cross_socket_bw_factor == 0.0 {
            return Err("cross_socket_bw_factor must be positive".into());
        }
        Ok(())
    }

    /// Effective single-copy bandwidth, accounting for socket locality.
    #[inline]
    pub fn copy_bw(&self, cross_socket: bool) -> f64 {
        if cross_socket {
            self.per_proc_copy_bw * self.cross_socket_bw_factor
        } else {
            self.per_proc_copy_bw
        }
    }

    /// Effective copy startup latency, accounting for socket locality.
    #[inline]
    pub fn copy_latency(&self, cross_socket: bool) -> f64 {
        if cross_socket {
            self.copy_latency + self.cross_socket_latency
        } else {
            self.copy_latency
        }
    }

    /// Uncontended time to copy `bytes` (closed form for analytic checks).
    pub fn isolated_copy_time(&self, bytes: u64, cross_socket: bool) -> f64 {
        self.copy_latency(cross_socket) + bytes as f64 / self.copy_bw(cross_socket)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> MemoryModel {
        MemoryModel {
            copy_latency: 150e-9,
            per_proc_copy_bw: 5.0e9,
            node_mem_bw: 60.0e9,
            cross_socket_latency: 250e-9,
            cross_socket_bw_factor: 0.6,
        }
    }

    #[test]
    fn validates_good_params() {
        assert!(mem().validate().is_ok());
    }

    #[test]
    fn rejects_bad_socket_factor() {
        let mut m = mem();
        m.cross_socket_bw_factor = 0.0;
        assert!(m.validate().is_err());
        m.cross_socket_bw_factor = 1.5;
        assert!(m.validate().is_err());
    }

    #[test]
    fn cross_socket_is_slower() {
        let m = mem();
        assert!(m.isolated_copy_time(65536, true) > m.isolated_copy_time(65536, false));
        assert!(m.copy_latency(true) > m.copy_latency(false));
        assert!(m.copy_bw(true) < m.copy_bw(false));
    }

    #[test]
    fn isolated_copy_time_formula() {
        let m = mem();
        let t = m.isolated_copy_time(5_000_000_000, false);
        assert!((t - (150e-9 + 1.0)).abs() < 1e-9);
    }
}
