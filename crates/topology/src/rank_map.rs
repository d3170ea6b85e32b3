//! Mapping of global ranks onto (node, local rank) pairs.

use crate::cluster::ClusterSpec;
use crate::ids::{LocalRank, NodeId, Rank, SocketId};
use serde::{Deserialize, Serialize};

/// How consecutive global ranks are laid out across nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Placement {
    /// Ranks `0..ppn` on node 0, `ppn..2*ppn` on node 1, ... (the default
    /// `mpirun` block mapping; all paper experiments use this).
    Block,
    /// Rank `r` on node `r % num_nodes` (round-robin / cyclic mapping).
    Cyclic,
}

/// A concrete rank-to-node mapping for a cluster.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RankMap {
    spec: ClusterSpec,
    placement: Placement,
}

impl RankMap {
    /// Block placement (the paper's configuration).
    pub fn block(spec: &ClusterSpec) -> Self {
        RankMap {
            spec: *spec,
            placement: Placement::Block,
        }
    }

    /// Cyclic placement.
    pub fn cyclic(spec: &ClusterSpec) -> Self {
        RankMap {
            spec: *spec,
            placement: Placement::Cyclic,
        }
    }

    /// The cluster this map is defined over.
    #[inline]
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// The placement policy in use.
    #[inline]
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// Total number of ranks.
    #[inline]
    pub fn world_size(&self) -> u32 {
        self.spec.world_size()
    }

    /// The node hosting a global rank.
    #[inline]
    pub fn node_of(&self, rank: Rank) -> NodeId {
        debug_assert!(rank.0 < self.world_size());
        match self.placement {
            Placement::Block => NodeId(rank.0 / self.spec.ppn),
            Placement::Cyclic => NodeId(rank.0 % self.spec.num_nodes),
        }
    }

    /// The local rank of a global rank within its node.
    #[inline]
    pub fn local_of(&self, rank: Rank) -> LocalRank {
        debug_assert!(rank.0 < self.world_size());
        match self.placement {
            Placement::Block => LocalRank(rank.0 % self.spec.ppn),
            Placement::Cyclic => LocalRank(rank.0 / self.spec.num_nodes),
        }
    }

    /// The socket hosting a global rank.
    #[inline]
    pub fn socket_of(&self, rank: Rank) -> SocketId {
        self.spec.socket_of(self.local_of(rank))
    }

    /// The global rank at `(node, local)`.
    #[inline]
    pub fn rank_at(&self, node: NodeId, local: LocalRank) -> Rank {
        debug_assert!(node.0 < self.spec.num_nodes);
        debug_assert!(local.0 < self.spec.ppn);
        match self.placement {
            Placement::Block => Rank(node.0 * self.spec.ppn + local.0),
            Placement::Cyclic => Rank(local.0 * self.spec.num_nodes + node.0),
        }
    }

    /// All global ranks on a node, ordered by local rank.
    pub fn ranks_on_node(&self, node: NodeId) -> Vec<Rank> {
        (0..self.spec.ppn)
            .map(|l| self.rank_at(node, LocalRank(l)))
            .collect()
    }

    /// True if two ranks share a node.
    #[inline]
    fn same_node(&self, a: Rank, b: Rank) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// True if two ranks share both node and socket.
    #[inline]
    pub fn same_socket(&self, a: Rank, b: Rank) -> bool {
        self.same_node(a, b) && self.socket_of(a) == self.socket_of(b)
    }

    /// Iterator over all ranks in the world.
    pub fn all_ranks(&self) -> impl Iterator<Item = Rank> {
        (0..self.world_size()).map(Rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ClusterSpec {
        ClusterSpec::new(4, 2, 4, 8).unwrap()
    }

    #[test]
    fn block_mapping_round_trips() {
        let m = RankMap::block(&spec());
        for r in m.all_ranks() {
            let (n, l) = (m.node_of(r), m.local_of(r));
            assert_eq!(m.rank_at(n, l), r);
        }
    }

    #[test]
    fn cyclic_mapping_round_trips() {
        let m = RankMap::cyclic(&spec());
        for r in m.all_ranks() {
            let (n, l) = (m.node_of(r), m.local_of(r));
            assert_eq!(m.rank_at(n, l), r);
        }
    }

    #[test]
    fn block_packs_consecutive_ranks() {
        let m = RankMap::block(&spec());
        assert_eq!(m.node_of(Rank(0)), NodeId(0));
        assert_eq!(m.node_of(Rank(7)), NodeId(0));
        assert_eq!(m.node_of(Rank(8)), NodeId(1));
        assert!(m.same_node(Rank(0), Rank(7)));
        assert!(!m.same_node(Rank(7), Rank(8)));
    }

    #[test]
    fn cyclic_spreads_consecutive_ranks() {
        let m = RankMap::cyclic(&spec());
        assert_eq!(m.node_of(Rank(0)), NodeId(0));
        assert_eq!(m.node_of(Rank(1)), NodeId(1));
        assert_eq!(m.node_of(Rank(4)), NodeId(0));
        assert_eq!(m.local_of(Rank(4)), LocalRank(1));
    }

    #[test]
    fn ranks_on_node_has_ppn_entries() {
        let m = RankMap::block(&spec());
        let rs = m.ranks_on_node(NodeId(2));
        assert_eq!(rs.len(), 8);
        assert_eq!(rs[0], Rank(16));
        assert_eq!(rs[7], Rank(23));
    }

    #[test]
    fn same_socket_respects_block_binding() {
        let m = RankMap::block(&spec());
        // ppn=8 over 2 sockets: locals 0..4 socket 0, 4..8 socket 1.
        assert!(m.same_socket(Rank(0), Rank(3)));
        assert!(!m.same_socket(Rank(3), Rank(4)));
    }

    #[test]
    fn every_node_partition_is_disjoint_and_complete() {
        let m = RankMap::cyclic(&spec());
        let mut seen = vec![false; m.world_size() as usize];
        for n in 0..4u32 {
            for r in m.ranks_on_node(NodeId(n)) {
                assert!(!seen[r.index()], "rank {r} appears twice");
                seen[r.index()] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
