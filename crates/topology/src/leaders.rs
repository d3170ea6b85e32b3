//! Leader selection for hierarchical and multi-leader collectives.
//!
//! The DPML design (paper Section 4.1) designates `l` processes per node as
//! leaders which share reduction work and drive concurrent inter-node
//! transfers. The SHArP designs (Section 4.3) instead use one leader per node
//! or one per socket. This module encodes those policies.

use crate::cluster::ClusterSpec;
use crate::ids::{LocalRank, NodeId, Rank, SocketId};
use crate::rank_map::RankMap;
use crate::TopologyError;
use serde::{Deserialize, Serialize};

/// A policy choosing which local ranks act as leaders on each node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LeaderPolicy {
    /// `l` leaders per node, spread evenly across the local ranks (and hence
    /// across sockets under block binding). DPML with `l = 1` degenerates to
    /// the classic single-leader hierarchical design.
    PerNode(u32),
    /// Exactly one leader per node (local rank 0) — the SHArP
    /// "node-level leader" design.
    NodeLevel,
    /// One leader per socket (the first local rank bound to each socket) —
    /// the SHArP "socket-level leader" design, which avoids cross-socket
    /// gather/broadcast traffic and keeps the SHArP group small.
    SocketLevel,
}

impl LeaderPolicy {
    /// Number of leaders this policy yields per node.
    pub fn leaders_per_node(&self, spec: &ClusterSpec) -> u32 {
        match *self {
            LeaderPolicy::PerNode(l) => l,
            LeaderPolicy::NodeLevel => 1,
            LeaderPolicy::SocketLevel => spec.sockets_per_node.min(spec.ppn),
        }
    }

    /// Validate the policy against a cluster spec.
    pub fn validate(&self, spec: &ClusterSpec) -> Result<(), TopologyError> {
        let l = self.leaders_per_node(spec);
        if l == 0 {
            return Err(TopologyError::ZeroDimension("leaders"));
        }
        if l > spec.ppn {
            return Err(TopologyError::TooManyLeaders {
                leaders: l,
                ppn: spec.ppn,
            });
        }
        Ok(())
    }

    /// The local ranks acting as leaders on any node (identical across
    /// nodes), ordered by leader index.
    fn local_leaders(&self, spec: &ClusterSpec) -> Vec<LocalRank> {
        match *self {
            LeaderPolicy::PerNode(l) => {
                let l = l.min(spec.ppn).max(1);
                // Spread leaders evenly: leader j is local rank
                // floor(j * ppn / l). With block socket binding this also
                // spreads leaders across sockets.
                (0..l).map(|j| LocalRank(j * spec.ppn / l)).collect()
            }
            LeaderPolicy::NodeLevel => vec![LocalRank(0)],
            LeaderPolicy::SocketLevel => {
                let mut out = Vec::new();
                for s in 0..spec.sockets_per_node {
                    if let Some(&first) = spec.ranks_on_socket(SocketId(s)).first() {
                        out.push(first);
                    }
                }
                out
            }
        }
    }

    /// The global leader ranks on a given node.
    pub fn leaders_of_node(&self, spec: &ClusterSpec, node: NodeId) -> Vec<Rank> {
        let map = RankMap::block(spec);
        self.local_leaders(spec)
            .into_iter()
            .map(|l| map.rank_at(node, l))
            .collect()
    }

    /// Build the full leader set for a rank map.
    pub fn build(&self, map: &RankMap) -> Result<LeaderSet, TopologyError> {
        self.validate(map.spec())?;
        Ok(LeaderSet {
            locals: self.local_leaders(map.spec()),
            map: map.clone(),
        })
    }
}

/// The resolved set of leaders for a job: which local ranks lead, and the
/// "leader communicators" connecting same-index leaders across nodes.
#[derive(Debug, Clone)]
pub struct LeaderSet {
    locals: Vec<LocalRank>,
    map: RankMap,
}

impl LeaderSet {
    /// Number of leaders per node (`l`).
    #[inline]
    pub fn leaders_per_node(&self) -> u32 {
        self.locals.len() as u32
    }

    /// Leader index of a rank, if it is a leader.
    pub fn leader_index(&self, rank: Rank) -> Option<u32> {
        let local = self.map.local_of(rank);
        self.locals
            .iter()
            .position(|&l| l == local)
            .map(|i| i as u32)
    }

    /// The global rank of leader `j` on `node`.
    pub fn leader_rank(&self, node: NodeId, j: u32) -> Rank {
        self.map.rank_at(node, self.locals[j as usize])
    }

    /// The "leader communicator" for leader index `j`: the global ranks of
    /// the `j`-th leader on every node, ordered by node. These are the
    /// participants of the purely inter-node allreduce in DPML phase 3.
    pub fn leader_comm(&self, j: u32) -> Vec<Rank> {
        (0..self.map.spec().num_nodes)
            .map(|n| self.leader_rank(NodeId(n), j))
            .collect()
    }

    /// For a given node, map each local rank to the leader index responsible
    /// for it in single-leader-per-group designs (e.g. socket-level SHArP:
    /// each rank is served by its socket's leader). Under `PerNode`, ranks
    /// are assigned to the leader with the same or nearest-lower local rank.
    pub fn leader_for_local(&self, spec: &ClusterSpec, local: LocalRank) -> u32 {
        // Find the last leader whose local rank is <= local; wrap to 0.
        let mut best = 0u32;
        for (j, &ll) in self.locals.iter().enumerate() {
            if ll.0 <= local.0 {
                best = j as u32;
            }
        }
        let _ = spec;
        best
    }

    /// The rank map this leader set was built over.
    #[inline]
    pub fn rank_map(&self) -> &RankMap {
        &self.map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec28() -> ClusterSpec {
        ClusterSpec::new(16, 2, 14, 28).unwrap()
    }

    #[test]
    fn per_node_leaders_are_strided() {
        let spec = spec28();
        let locals = LeaderPolicy::PerNode(4).local_leaders(&spec);
        assert_eq!(
            locals,
            vec![LocalRank(0), LocalRank(7), LocalRank(14), LocalRank(21)]
        );
    }

    #[test]
    fn per_node_leaders_spread_across_sockets() {
        let spec = spec28();
        let locals = LeaderPolicy::PerNode(2).local_leaders(&spec);
        assert_eq!(spec.socket_of(locals[0]), SocketId(0));
        assert_eq!(spec.socket_of(locals[1]), SocketId(1));
    }

    #[test]
    fn node_level_is_rank_zero() {
        let spec = spec28();
        assert_eq!(
            LeaderPolicy::NodeLevel.local_leaders(&spec),
            vec![LocalRank(0)]
        );
    }

    #[test]
    fn socket_level_has_one_per_socket() {
        let spec = spec28();
        let locals = LeaderPolicy::SocketLevel.local_leaders(&spec);
        assert_eq!(locals, vec![LocalRank(0), LocalRank(14)]);
    }

    #[test]
    fn socket_level_single_ppn_collapses_to_one() {
        let spec = ClusterSpec::new(16, 2, 14, 1).unwrap();
        let locals = LeaderPolicy::SocketLevel.local_leaders(&spec);
        assert_eq!(locals, vec![LocalRank(0)]);
        assert_eq!(LeaderPolicy::SocketLevel.leaders_per_node(&spec), 1);
    }

    #[test]
    fn too_many_leaders_rejected() {
        let spec = ClusterSpec::new(2, 1, 4, 4).unwrap();
        assert!(LeaderPolicy::PerNode(5).validate(&spec).is_err());
        assert!(LeaderPolicy::PerNode(4).validate(&spec).is_ok());
    }

    #[test]
    fn leader_comm_spans_all_nodes() {
        let spec = spec28();
        let map = RankMap::block(&spec);
        let set = LeaderPolicy::PerNode(4).build(&map).unwrap();
        let comm = set.leader_comm(2);
        assert_eq!(comm.len(), 16);
        for (n, r) in comm.iter().enumerate() {
            assert_eq!(map.node_of(*r), NodeId(n as u32));
            assert_eq!(set.leader_index(*r), Some(2));
        }
    }

    #[test]
    fn leader_index_none_for_non_leaders() {
        let spec = spec28();
        let map = RankMap::block(&spec);
        let set = LeaderPolicy::PerNode(4).build(&map).unwrap();
        assert_eq!(set.leader_index(Rank(1)), None);
        assert!(set.leader_index(Rank(0)).is_some());
        assert!(set.leader_index(Rank(7)).is_some());
    }

    #[test]
    fn leaders_per_node_all_leaders() {
        let spec = ClusterSpec::new(4, 2, 4, 8).unwrap();
        let map = RankMap::block(&spec);
        let set = LeaderPolicy::PerNode(8).build(&map).unwrap();
        assert_eq!(set.leaders_per_node(), 8);
        for r in map.ranks_on_node(NodeId(1)) {
            assert!(set.leader_index(r).is_some());
        }
    }

    #[test]
    fn leader_for_local_picks_nearest_lower() {
        let spec = spec28();
        let map = RankMap::block(&spec);
        let set = LeaderPolicy::SocketLevel.build(&map).unwrap();
        assert_eq!(set.leader_for_local(&spec, LocalRank(3)), 0);
        assert_eq!(set.leader_for_local(&spec, LocalRank(14)), 1);
        assert_eq!(set.leader_for_local(&spec, LocalRank(27)), 1);
    }
}
