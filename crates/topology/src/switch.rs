//! Switch fabric: a two-level fat tree of leaf and core switches.
//!
//! Cluster D of the paper is "a fat tree topology of eight core switches and
//! 320 leaf switches with 5/4 oversubscription"; Clusters A–C use similar
//! two-level EDR/Omni-Path fabrics. The SHArP aggregation trees of
//! `dpml-sharp` are built on top of this structure (interior vertices of the
//! reduction tree are switches).

use crate::ids::{NodeId, SwitchId};
use crate::TopologyError;
use serde::{Deserialize, Serialize};

/// Parameters of a two-level fat tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SwitchTreeSpec {
    /// Compute nodes attached to each leaf switch.
    pub nodes_per_leaf: u32,
    /// Number of core (spine) switches.
    pub num_core: u32,
    /// Downlinks : uplinks ratio numerator (e.g. 5 for 5/4 oversubscription).
    pub oversub_num: u32,
    /// Oversubscription denominator (e.g. 4 for 5/4).
    pub oversub_den: u32,
}

impl Default for SwitchTreeSpec {
    fn default() -> Self {
        // A non-blocking two-level tree: common for the mid-size IB clusters.
        SwitchTreeSpec {
            nodes_per_leaf: 24,
            num_core: 2,
            oversub_num: 1,
            oversub_den: 1,
        }
    }
}

impl SwitchTreeSpec {
    /// The paper's Cluster D fabric: 5/4 oversubscribed Omni-Path fat tree.
    pub fn opa_oversubscribed() -> Self {
        SwitchTreeSpec {
            nodes_per_leaf: 20,
            num_core: 8,
            oversub_num: 5,
            oversub_den: 4,
        }
    }

    /// Fraction of full bisection bandwidth available across the core
    /// (1.0 for non-blocking, 0.8 for 5/4 oversubscription).
    pub fn core_bandwidth_fraction(&self) -> f64 {
        self.oversub_den as f64 / self.oversub_num as f64
    }
}

/// A concrete two-level switch tree for a cluster of `num_nodes` nodes.
///
/// Switch ids: leaves are `0..num_leaves`, cores are
/// `num_leaves..num_leaves+num_core`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SwitchTree {
    spec: SwitchTreeSpec,
    num_nodes: u32,
    num_leaves: u32,
}

impl SwitchTree {
    /// Build the tree for `num_nodes` nodes.
    pub fn build(num_nodes: u32, spec: SwitchTreeSpec) -> Result<Self, TopologyError> {
        if num_nodes == 0 {
            return Err(TopologyError::ZeroDimension("num_nodes"));
        }
        if spec.nodes_per_leaf == 0 {
            return Err(TopologyError::ZeroDimension("nodes_per_leaf"));
        }
        if spec.num_core == 0 {
            return Err(TopologyError::ZeroDimension("num_core"));
        }
        if spec.oversub_num == 0 || spec.oversub_den == 0 {
            return Err(TopologyError::ZeroDimension("oversubscription"));
        }
        let num_leaves = num_nodes.div_ceil(spec.nodes_per_leaf);
        Ok(SwitchTree {
            spec,
            num_nodes,
            num_leaves,
        })
    }

    /// The fat-tree parameters.
    #[inline]
    pub fn spec(&self) -> &SwitchTreeSpec {
        &self.spec
    }

    /// Number of leaf switches.
    #[inline]
    pub fn num_leaves(&self) -> u32 {
        self.num_leaves
    }

    /// Number of core switches.
    #[inline]
    pub fn num_core(&self) -> u32 {
        self.spec.num_core
    }

    /// The leaf switch a node is cabled to.
    pub fn leaf_of(&self, node: NodeId) -> Result<SwitchId, TopologyError> {
        if node.0 >= self.num_nodes {
            return Err(TopologyError::OutOfRange {
                what: "node",
                index: node.0 as u64,
                limit: self.num_nodes as u64,
            });
        }
        Ok(SwitchId(node.0 / self.spec.nodes_per_leaf))
    }

    /// Number of switch-to-switch / node-to-switch hops on the path between
    /// two nodes: 0 (same node), 2 (same leaf: node→leaf→node), or
    /// 4 (different leaves: node→leaf→core→leaf→node).
    pub fn hop_count(&self, a: NodeId, b: NodeId) -> Result<u32, TopologyError> {
        if a == b {
            return Ok(0);
        }
        let la = self.leaf_of(a)?;
        let lb = self.leaf_of(b)?;
        Ok(if la == lb { 2 } else { 4 })
    }

    /// The ordered switch path between two distinct nodes (for SHArP tree
    /// construction). Core switch selection hashes the leaf pair for a
    /// deterministic spread.
    pub fn path(&self, a: NodeId, b: NodeId) -> Result<Vec<SwitchId>, TopologyError> {
        let la = self.leaf_of(a)?;
        let lb = self.leaf_of(b)?;
        if a == b {
            return Ok(vec![]);
        }
        if la == lb {
            return Ok(vec![la]);
        }
        let core = SwitchId(self.num_leaves + (la.0 ^ lb.0) % self.spec.num_core);
        Ok(vec![la, core, lb])
    }

    /// The canonical SHArP-style aggregation tree over a set of member
    /// nodes: every involved leaf switch, parented by one core switch root.
    /// Returns `(root, leaves)`; when all members share a single leaf the
    /// root is that leaf and `leaves` is empty.
    pub fn aggregation_tree(
        &self,
        members: &[NodeId],
    ) -> Result<(SwitchId, Vec<SwitchId>), TopologyError> {
        let mut leaves: Vec<SwitchId> = Vec::new();
        for &n in members {
            let l = self.leaf_of(n)?;
            if !leaves.contains(&l) {
                leaves.push(l);
            }
        }
        leaves.sort();
        if leaves.len() <= 1 {
            let root = leaves.first().copied().unwrap_or(SwitchId(0));
            return Ok((root, vec![]));
        }
        let root = SwitchId(self.num_leaves + leaves[0].0 % self.spec.num_core);
        Ok((root, leaves))
    }

    /// Number of nodes in the fabric.
    #[inline]
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree() -> SwitchTree {
        SwitchTree::build(160, SwitchTreeSpec::opa_oversubscribed()).unwrap()
    }

    #[test]
    fn leaf_count_rounds_up() {
        let t = tree();
        assert_eq!(t.num_leaves(), 8); // 160 / 20
        let t2 = SwitchTree::build(161, SwitchTreeSpec::opa_oversubscribed()).unwrap();
        assert_eq!(t2.num_leaves(), 9);
    }

    #[test]
    fn hop_counts() {
        let t = tree();
        assert_eq!(t.hop_count(NodeId(0), NodeId(0)).unwrap(), 0);
        assert_eq!(t.hop_count(NodeId(0), NodeId(19)).unwrap(), 2); // same leaf
        assert_eq!(t.hop_count(NodeId(0), NodeId(20)).unwrap(), 4); // cross leaf
    }

    #[test]
    fn path_same_leaf_is_single_switch() {
        let t = tree();
        assert_eq!(t.path(NodeId(1), NodeId(2)).unwrap(), vec![SwitchId(0)]);
    }

    #[test]
    fn path_cross_leaf_goes_through_core() {
        let t = tree();
        let p = t.path(NodeId(0), NodeId(25)).unwrap();
        assert_eq!(p.len(), 3);
        assert!(p[0].0 < t.num_leaves);
        assert!(p[1].0 >= t.num_leaves, "middle hop is a core switch");
        assert!(p[2].0 < t.num_leaves);
    }

    #[test]
    fn out_of_range_node_is_error() {
        let t = tree();
        assert!(t.leaf_of(NodeId(160)).is_err());
    }

    #[test]
    fn aggregation_tree_single_leaf() {
        let t = tree();
        let (root, leaves) = t.aggregation_tree(&[NodeId(0), NodeId(5)]).unwrap();
        assert_eq!(root, SwitchId(0));
        assert!(leaves.is_empty());
    }

    #[test]
    fn aggregation_tree_multi_leaf() {
        let t = tree();
        let members: Vec<NodeId> = (0..160).step_by(10).map(NodeId).collect();
        let (root, leaves) = t.aggregation_tree(&members).unwrap();
        assert!(root.0 >= t.num_leaves, "root is a core switch");
        assert_eq!(leaves.len(), 8);
    }

    #[test]
    fn oversubscription_fraction() {
        assert!(
            (SwitchTreeSpec::opa_oversubscribed().core_bandwidth_fraction() - 0.8).abs() < 1e-12
        );
        assert!((SwitchTreeSpec::default().core_bandwidth_fraction() - 1.0).abs() < 1e-12);
    }
}
