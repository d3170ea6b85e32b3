//! Cluster shape: nodes, sockets, cores, and processes per node.

use crate::ids::{LocalRank, SocketId};
use crate::TopologyError;
use serde::{Deserialize, Serialize};

/// The static shape of a cluster: how many nodes it has and how each node is
/// organized internally.
///
/// This mirrors the four evaluation clusters of the paper (Section 6.1):
/// dual-socket 14-core Xeons at 28 ppn (Clusters A–C) and single-socket
/// 68-core KNL at up to 64 ppn (Cluster D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Number of compute nodes (`h` in the cost model).
    pub num_nodes: u32,
    /// CPU sockets per node.
    pub sockets_per_node: u32,
    /// Physical cores per socket.
    pub cores_per_socket: u32,
    /// Processes launched per node (`ppn`). Full subscription means
    /// `ppn == sockets_per_node * cores_per_socket`.
    pub ppn: u32,
}

impl ClusterSpec {
    /// Create a cluster spec, validating all dimensions.
    pub fn new(
        num_nodes: u32,
        sockets_per_node: u32,
        cores_per_socket: u32,
        ppn: u32,
    ) -> Result<Self, TopologyError> {
        if num_nodes == 0 {
            return Err(TopologyError::ZeroDimension("num_nodes"));
        }
        if sockets_per_node == 0 {
            return Err(TopologyError::ZeroDimension("sockets_per_node"));
        }
        if cores_per_socket == 0 {
            return Err(TopologyError::ZeroDimension("cores_per_socket"));
        }
        if ppn == 0 {
            return Err(TopologyError::ZeroDimension("ppn"));
        }
        let cores = sockets_per_node * cores_per_socket;
        if ppn > cores {
            return Err(TopologyError::Oversubscribed { ppn, cores });
        }
        Ok(ClusterSpec {
            num_nodes,
            sockets_per_node,
            cores_per_socket,
            ppn,
        })
    }

    /// Total number of processes in the job (`p = h * ppn`).
    #[inline]
    pub fn world_size(&self) -> u32 {
        self.num_nodes * self.ppn
    }

    /// Total cores per node.
    #[inline]
    fn cores_per_node(&self) -> u32 {
        self.sockets_per_node * self.cores_per_socket
    }

    /// Which socket a local rank runs on.
    ///
    /// Uses the block binding common on HPC systems (and assumed by the
    /// paper's socket-leader design): the first `ppn / sockets` local ranks
    /// are bound to socket 0, the next group to socket 1, and so on. When
    /// `ppn` does not divide evenly the earlier sockets get the extra ranks.
    pub fn socket_of(&self, local: LocalRank) -> SocketId {
        debug_assert!(local.0 < self.ppn, "local rank out of range");
        let s = self.sockets_per_node;
        let base = self.ppn / s;
        let extra = self.ppn % s;
        // First `extra` sockets host (base + 1) ranks each.
        let boundary = extra * (base + 1);
        if local.0 < boundary {
            SocketId(local.0 / (base + 1))
        } else {
            match (local.0 - boundary).checked_div(base) {
                Some(q) => SocketId(extra + q),
                // base == 0: more sockets than ranks, one rank per socket.
                None => SocketId(local.0),
            }
        }
    }

    /// Local ranks bound to a given socket, in increasing order.
    pub fn ranks_on_socket(&self, socket: SocketId) -> Vec<LocalRank> {
        (0..self.ppn)
            .map(LocalRank)
            .filter(|&lr| self.socket_of(lr) == socket)
            .collect()
    }

    /// True when every core hosts exactly one process.
    #[inline]
    pub fn is_fully_subscribed(&self) -> bool {
        self.ppn == self.cores_per_node()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_zero_dimensions() {
        assert!(ClusterSpec::new(0, 2, 14, 28).is_err());
        assert!(ClusterSpec::new(4, 0, 14, 28).is_err());
        assert!(ClusterSpec::new(4, 2, 0, 28).is_err());
        assert!(ClusterSpec::new(4, 2, 14, 0).is_err());
    }

    #[test]
    fn rejects_oversubscription() {
        let err = ClusterSpec::new(4, 2, 14, 29).unwrap_err();
        assert_eq!(err, TopologyError::Oversubscribed { ppn: 29, cores: 28 });
    }

    #[test]
    fn world_size_is_nodes_times_ppn() {
        let c = ClusterSpec::new(64, 2, 14, 28).unwrap();
        assert_eq!(c.world_size(), 1792);
        assert!(c.is_fully_subscribed());
    }

    #[test]
    fn socket_binding_is_block() {
        let c = ClusterSpec::new(1, 2, 14, 28).unwrap();
        assert_eq!(c.socket_of(LocalRank(0)), SocketId(0));
        assert_eq!(c.socket_of(LocalRank(13)), SocketId(0));
        assert_eq!(c.socket_of(LocalRank(14)), SocketId(1));
        assert_eq!(c.socket_of(LocalRank(27)), SocketId(1));
    }

    #[test]
    fn socket_binding_uneven_ppn() {
        // 5 ranks over 2 sockets: 3 on socket 0, 2 on socket 1.
        let c = ClusterSpec::new(1, 2, 14, 5).unwrap();
        let s: Vec<u32> = (0..5).map(|i| c.socket_of(LocalRank(i)).0).collect();
        assert_eq!(s, vec![0, 0, 0, 1, 1]);
    }

    #[test]
    fn socket_binding_single_rank_per_node() {
        let c = ClusterSpec::new(16, 2, 14, 1).unwrap();
        assert_eq!(c.socket_of(LocalRank(0)), SocketId(0));
    }

    #[test]
    fn ranks_on_socket_partitions_everyone() {
        let c = ClusterSpec::new(1, 2, 14, 27).unwrap();
        let s0 = c.ranks_on_socket(SocketId(0));
        let s1 = c.ranks_on_socket(SocketId(1));
        assert_eq!(s0.len() + s1.len(), 27);
        // Uneven split gives the extra rank to socket 0.
        assert_eq!(s0.len(), 14);
        assert_eq!(s1.len(), 13);
    }

    #[test]
    fn knl_single_socket() {
        let c = ClusterSpec::new(32, 1, 68, 32).unwrap();
        assert_eq!(c.world_size(), 1024);
        assert_eq!(c.socket_of(LocalRank(31)), SocketId(0));
        assert!(!c.is_fully_subscribed());
    }
}
