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
            overrides: Vec::new(),
        })
    }
}

/// The resolved set of leaders for a job: which local ranks lead, and the
/// "leader communicators" connecting same-index leaders across nodes.
#[derive(Debug, Clone)]
pub struct LeaderSet {
    locals: Vec<LocalRank>,
    map: RankMap,
    /// Per-node re-elections from [`LeaderSet::heal`]: `(node, leader
    /// index, replacement local rank)`. Empty on a freshly built set;
    /// healing breaks the cross-node symmetry of `locals`, so lookups
    /// consult these first. Later entries win.
    overrides: Vec<(NodeId, u32, LocalRank)>,
}

impl LeaderSet {
    /// Number of leaders per node (`l`).
    #[inline]
    pub fn leaders_per_node(&self) -> u32 {
        self.locals.len() as u32
    }

    /// Leader index of a rank, if it is a leader. A rank displaced by
    /// [`LeaderSet::heal`] is no longer a leader; a rank serving two
    /// indices after redistribution reports the lowest.
    pub fn leader_index(&self, rank: Rank) -> Option<u32> {
        if self.overrides.is_empty() {
            // Fast path: symmetric set, same locals on every node.
            let local = self.map.local_of(rank);
            return self
                .locals
                .iter()
                .position(|&l| l == local)
                .map(|i| i as u32);
        }
        let node = self.map.node_of(rank);
        (0..self.leaders_per_node()).find(|&j| self.leader_rank(node, j) == rank)
    }

    /// The global rank of leader `j` on `node`, honoring any re-election
    /// overrides for that node.
    pub fn leader_rank(&self, node: NodeId, j: u32) -> Rank {
        let local = self
            .overrides
            .iter()
            .rev()
            .find(|(n, jj, _)| *n == node && *jj == j)
            .map(|(_, _, l)| *l)
            .unwrap_or(self.locals[j as usize]);
        self.map.rank_at(node, local)
    }

    /// Re-elect leaders after fail-stop deaths: for each dead rank that
    /// held a leader index, promote the first surviving local rank on its
    /// node that is not already serving an index; if every survivor is
    /// already a leader, redistribute the index onto one of them (double
    /// duty). The original set is untouched — healing returns a new set
    /// whose `leader_comm` / `leader_rank` views route around the dead.
    ///
    /// Panics if a dead leader's node has no surviving ranks at all:
    /// whole-node loss also loses the node's shared-memory state, which no
    /// leader re-election can recover — callers must treat that case as a
    /// cold restart before asking for a heal.
    pub fn heal(&self, dead: &[Rank]) -> LeaderSet {
        let mut healed = self.clone();
        let ppn = self.map.spec().ppn;
        for &d in dead {
            let Some(j) = healed.leader_index(d) else {
                continue; // non-leader deaths need no re-election
            };
            let node = healed.map.node_of(d);
            let serving: Vec<LocalRank> = (0..healed.leaders_per_node())
                .map(|jj| healed.map.local_of(healed.leader_rank(node, jj)))
                .collect();
            let alive = |l: LocalRank| !dead.contains(&healed.map.rank_at(node, l));
            let replacement = (0..ppn)
                .map(LocalRank)
                .find(|&l| alive(l) && !serving.contains(&l))
                .or_else(|| (0..ppn).map(LocalRank).find(|&l| alive(l)));
            let Some(l) = replacement else {
                panic!(
                    "node {} has no survivors to take over leader index {j} \
                     (whole-node loss requires a cold restart, not a heal)",
                    node.0
                );
            };
            healed.overrides.push((node, j, l));
        }
        healed
    }

    /// The re-elections applied by [`LeaderSet::heal`], in order:
    /// `(node, leader index, replacement local rank)`.
    #[inline]
    pub fn replacements(&self) -> &[(NodeId, u32, LocalRank)] {
        &self.overrides
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
    fn heal_promotes_surviving_non_leader() {
        let spec = ClusterSpec::new(4, 2, 4, 8).unwrap();
        let map = RankMap::block(&spec);
        let set = LeaderPolicy::PerNode(2).build(&map).unwrap();
        // Leaders on node 1 are locals 0 and 4 → ranks 8 and 12.
        let dead = Rank(12);
        assert_eq!(set.leader_index(dead), Some(1));
        let healed = set.heal(&[dead]);
        // The dead rank is no longer a leader; someone on node 1 took
        // index 1; other nodes are untouched.
        assert_eq!(healed.leader_index(dead), None);
        let new_leader = healed.leader_rank(NodeId(1), 1);
        assert_ne!(new_leader, dead);
        assert_eq!(map.node_of(new_leader), NodeId(1));
        assert_eq!(healed.leader_index(new_leader), Some(1));
        assert_eq!(set.leader_index(new_leader), None, "promotion, not reuse");
        for n in [0u32, 2, 3] {
            assert_eq!(
                healed.leader_rank(NodeId(n), 1),
                set.leader_rank(NodeId(n), 1)
            );
        }
        // The healed leader comm for index 1 spans all nodes and routes
        // around the dead rank.
        let comm = healed.leader_comm(1);
        assert_eq!(comm.len(), 4);
        assert!(!comm.contains(&dead));
        assert_eq!(healed.replacements().len(), 1);
        // The original set is unchanged.
        assert_eq!(set.leader_rank(NodeId(1), 1), dead);
    }

    #[test]
    fn heal_redistributes_when_all_survivors_lead() {
        // ppn == leaders: every local is a leader, so a death forces
        // double duty on a surviving leader of the same node.
        let spec = ClusterSpec::new(2, 1, 2, 2).unwrap();
        let map = RankMap::block(&spec);
        let set = LeaderPolicy::PerNode(2).build(&map).unwrap();
        let dead = Rank(1); // node 0, leader index 1
        let healed = set.heal(&[dead]);
        let replacement = healed.leader_rank(NodeId(0), 1);
        assert_eq!(replacement, Rank(0), "surviving leader takes index 1");
        // Rank 0 now serves both indices; leader_index reports the lowest.
        assert_eq!(healed.leader_index(Rank(0)), Some(0));
        assert_eq!(healed.leader_index(dead), None);
        assert!(healed.leader_comm(1).iter().all(|r| *r != dead));
    }

    #[test]
    fn heal_ignores_non_leader_deaths() {
        let spec = spec28();
        let map = RankMap::block(&spec);
        let set = LeaderPolicy::PerNode(4).build(&map).unwrap();
        let healed = set.heal(&[Rank(1)]); // local 1 is not a leader
        assert!(healed.replacements().is_empty());
        for j in 0..4 {
            assert_eq!(
                healed.leader_rank(NodeId(0), j),
                set.leader_rank(NodeId(0), j)
            );
        }
    }

    #[test]
    #[should_panic(expected = "no survivors")]
    fn heal_panics_on_whole_node_loss() {
        let spec = ClusterSpec::new(2, 1, 2, 2).unwrap();
        let map = RankMap::block(&spec);
        let set = LeaderPolicy::PerNode(1).build(&map).unwrap();
        let _ = set.heal(&[Rank(0), Rank(1)]); // all of node 0
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
