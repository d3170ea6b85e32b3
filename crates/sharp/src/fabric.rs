//! SHArP operation timing over a concrete switch tree.

use dpml_engine::SharpOracle;
use dpml_fabric::SharpParams;
use dpml_topology::{NodeId, Rank, RankMap, SwitchTree};

/// A SHArP-capable fabric: topology + aggregation parameters.
///
/// Operation latency model for a group spanning `members`:
///
/// ```text
/// t(bytes) = post_overhead * chunks            // host posts each chunk
///          + 2 * depth * per_hop_latency       // up the tree and back down
///          + bytes / agg_bw                    // streaming aggregation
/// ```
///
/// where `depth` is the aggregation-tree height above the hosts (1 when all
/// members share one leaf switch, 2 when a core switch must root the tree)
/// and `chunks = ceil(bytes / max_payload)`.
#[derive(Debug, Clone)]
pub struct SharpFabric {
    params: SharpParams,
    tree: SwitchTree,
    map: RankMap,
}

impl SharpFabric {
    /// Build from the cluster's switch tree and rank placement.
    pub fn new(params: SharpParams, tree: SwitchTree, map: RankMap) -> Self {
        SharpFabric { params, tree, map }
    }

    /// The aggregation parameters.
    pub fn params(&self) -> &SharpParams {
        &self.params
    }

    /// Aggregation-tree depth (levels above the hosts) for a member set.
    fn tree_depth(&self, members: &[Rank]) -> u32 {
        let nodes: Vec<NodeId> = members.iter().map(|&r| self.map.node_of(r)).collect();
        let (root, leaves) = self
            .tree
            .aggregation_tree(&nodes)
            .expect("members on fabric");
        if leaves.is_empty() {
            // Single leaf switch: hosts → leaf → hosts.
            1
        } else {
            // Hosts → leaf → core root → back.
            let _ = root;
            2
        }
    }

    /// Number of chunks an operation of `bytes` must be split into.
    pub fn chunks(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            1
        } else {
            bytes.div_ceil(self.params.max_payload)
        }
    }

    /// Closed-form operation latency (also used by the analytic harness).
    pub fn latency(&self, members: &[Rank], bytes: u64) -> f64 {
        let depth = self.tree_depth(members) as f64;
        let chunks = self.chunks(bytes) as f64;
        self.params.post_overhead * chunks
            + 2.0 * depth * self.params.per_hop_latency
            + bytes as f64 / self.params.agg_bw
    }
}

impl SharpOracle for SharpFabric {
    fn op_time(&self, members: &[Rank], bytes: u64) -> f64 {
        self.latency(members, bytes)
    }

    fn max_concurrent_ops(&self) -> u32 {
        self.params.max_concurrent_ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpml_topology::{ClusterSpec, SwitchTreeSpec};

    fn fabric(nodes: u32) -> SharpFabric {
        let spec = ClusterSpec::new(nodes, 2, 14, 28).unwrap();
        let map = RankMap::block(&spec);
        let tree = SwitchTree::build(
            nodes,
            SwitchTreeSpec {
                nodes_per_leaf: 8,
                num_core: 2,
                oversub_num: 1,
                oversub_den: 1,
            },
        )
        .unwrap();
        SharpFabric::new(SharpParams::switch_ib2(), tree, map)
    }

    fn leaders(_f: &SharpFabric, count: u32) -> Vec<Rank> {
        (0..count).map(|n| Rank(n * 28)).collect()
    }

    #[test]
    fn depth_one_within_leaf() {
        let f = fabric(16);
        let members = leaders(&f, 8); // nodes 0..8 share leaf 0
        assert_eq!(f.tree_depth(&members), 1);
    }

    #[test]
    fn depth_two_across_leaves() {
        let f = fabric(16);
        let members = leaders(&f, 16); // nodes 0..16 span two leaves
        assert_eq!(f.tree_depth(&members), 2);
    }

    #[test]
    fn chunking() {
        let f = fabric(4);
        assert_eq!(f.chunks(0), 1);
        assert_eq!(f.chunks(1024), 1);
        assert_eq!(f.chunks(1025), 2);
        assert_eq!(f.chunks(64 * 1024), 64);
    }

    #[test]
    fn latency_grows_with_size_and_depth() {
        let f = fabric(16);
        let small_near = f.latency(&leaders(&f, 4), 8);
        let small_far = f.latency(&leaders(&f, 16), 8);
        let big_far = f.latency(&leaders(&f, 16), 16 * 1024);
        assert!(small_near < small_far);
        assert!(small_far < big_far);
    }

    #[test]
    fn small_messages_beat_host_round_trips() {
        // The design premise (Fig. 8): a SHArP op on a 16-node group is
        // much cheaper than lg(16) = 4 host round trips at ~1.4us each.
        let f = fabric(16);
        let t = f.latency(&leaders(&f, 16), 64);
        assert!(t < 4.0 * 1.4e-6, "sharp latency {t}");
    }

    #[test]
    fn large_messages_lose_to_host_bandwidth() {
        // At 1MB the aggregation bw (1.2 GB/s) is far below what hosts
        // achieve; SHArP must look bad (the 4KB crossover of Fig. 8).
        let f = fabric(16);
        let n: u64 = 1 << 20;
        let t = f.latency(&leaders(&f, 16), n);
        let host_step = n as f64 / 3.0e9; // one RD step at per-flow bw
        assert!(t > 2.5 * host_step, "sharp {t} vs host {}", 2.5 * host_step);
    }

    #[test]
    fn oracle_exposes_concurrency_limit() {
        let f = fabric(4);
        assert_eq!(
            f.max_concurrent_ops(),
            SharpParams::switch_ib2().max_concurrent_ops
        );
        let members = leaders(&f, 4);
        assert!(f.op_time(&members, 128) > 0.0);
    }
}
