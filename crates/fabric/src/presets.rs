//! Calibrated presets for the paper's four evaluation clusters (Fig. 3).
//!
//! | Preset | CPU | Fabric | SHArP | Paper role |
//! |---|---|---|---|---|
//! | A | 2×14c Haswell 2.4GHz | EDR IB | yes | 40 nodes; all SHArP results |
//! | B | 2×14c Broadwell 2.4GHz | EDR IB | no | 648 nodes; IB leader sweeps |
//! | C | 2×14c Haswell 2.3GHz | Omni-Path | no | 752 nodes; OPA leader sweeps |
//! | D | 68c KNL 1.4GHz | Omni-Path | no | 508 nodes; many-core + scale |
//!
//! Calibration rationale (see DESIGN.md §1): IB is modeled with a per-flow
//! bandwidth well below the NIC aggregate (a single verbs QP driven by one
//! core does not saturate EDR through MPI), so concurrent leaders keep
//! helping at large sizes (Fig. 1(b)). Omni-Path is modeled with per-flow
//! bandwidth ≈ NIC aggregate (PSM2 single-flow saturates the link), so
//! large-message concurrency is useless (Zone C, Fig. 1(c)) and the win must
//! come from message-size reduction and pipelining. KNL cores are several
//! times slower at injection, copying, and reducing, widening DPML's edge.

use crate::compute::ComputeModel;
use crate::memory::MemoryModel;
use crate::network::NicModel;
use crate::sharp_params::SharpParams;
use crate::Fabric;
use dpml_topology::{ClusterSpec, SwitchTreeSpec, TopologyError};
use serde::{Deserialize, Serialize};

/// Wall-clock deadlines for the real-threads runtime's blocking
/// primitives (spin barriers, mailbox receives), in milliseconds.
///
/// These were hardcoded per call site; carrying them on the preset lets
/// the serve daemon tighten them per job deadline (a job with 200ms left
/// must not spin a barrier for 2s) while slow fabrics (KNL) keep more
/// headroom. Converted to `dpml_shm::WatchdogConfig` by runtimes that
/// host real threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WatchdogLimits {
    /// Spin-barrier arrival deadline, milliseconds.
    pub barrier_ms: u64,
    /// Mailbox matched-receive deadline, milliseconds.
    pub recv_ms: u64,
}

impl Default for WatchdogLimits {
    fn default() -> Self {
        // Matches dpml_shm::watchdog::DEFAULT_WATCHDOG_MS (the crates do
        // not depend on each other; the shm test suite pins the value).
        WatchdogLimits {
            barrier_ms: 2_000,
            recv_ms: 2_000,
        }
    }
}

impl WatchdogLimits {
    /// Limits for a fabric whose cores are several times slower than a
    /// Xeon (KNL): everything legitimately takes longer, so the hang
    /// detector must too.
    fn slow_cores() -> Self {
        WatchdogLimits {
            barrier_ms: 6_000,
            recv_ms: 6_000,
        }
    }
}

/// A named cluster preset: speed model plus default shape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Preset {
    /// Short id: "A", "B", "C", or "D".
    pub id: &'static str,
    /// The speed model.
    pub fabric: Fabric,
    /// Sockets per node.
    pub sockets_per_node: u32,
    /// Cores per socket.
    pub cores_per_socket: u32,
    /// Nodes available on the physical system (upper bound for sweeps).
    pub max_nodes: u32,
    /// Full-subscription ppn used in the paper (28 for A–C, 64 cap on D).
    pub default_ppn: u32,
    /// Fat-tree description.
    pub switch: SwitchTreeSpec,
    /// Real-threads watchdog deadlines (absent in presets serialized
    /// before they were configurable).
    #[serde(default)]
    pub watchdog: WatchdogLimits,
}

impl Preset {
    /// A cluster spec with this preset's node shape.
    pub fn spec(&self, num_nodes: u32, ppn: u32) -> Result<ClusterSpec, TopologyError> {
        ClusterSpec::new(num_nodes, self.sockets_per_node, self.cores_per_socket, ppn)
    }

    /// The full-subscription spec the paper uses for this cluster.
    pub fn default_spec(&self, num_nodes: u32) -> Result<ClusterSpec, TopologyError> {
        self.spec(num_nodes, self.default_ppn)
    }

    /// Look a preset up by its (case-insensitive) id.
    pub fn by_id(id: &str) -> Option<Preset> {
        match id.to_ascii_lowercase().as_str() {
            "a" => Some(cluster_a()),
            "b" => Some(cluster_b()),
            "c" => Some(cluster_c()),
            "d" => Some(cluster_d()),
            _ => None,
        }
    }
}

fn xeon_memory() -> MemoryModel {
    MemoryModel {
        copy_latency: 150e-9,
        per_proc_copy_bw: 5.0e9,
        node_mem_bw: 60.0e9,
        cross_socket_latency: 250e-9,
        cross_socket_bw_factor: 0.6,
    }
}

fn xeon_compute() -> ComputeModel {
    ComputeModel {
        per_core_reduce_bw: 3.0e9,
        reduce_latency: 50e-9,
    }
}

fn edr_ib() -> NicModel {
    NicModel {
        base_latency: 1.0e-6,
        per_hop_latency: 100e-9,
        proc_overhead: 0.40e-6,
        per_flow_bw: 3.0e9,
        node_bw: 12.0e9,
        node_msg_rate: 150e6,
        eager_threshold: 8192,
    }
}

fn omni_path_xeon() -> NicModel {
    NicModel {
        base_latency: 0.9e-6,
        per_hop_latency: 100e-9,
        proc_overhead: 0.25e-6,
        per_flow_bw: 10.5e9,
        node_bw: 12.3e9,
        node_msg_rate: 160e6,
        eager_threshold: 8192,
    }
}

fn omni_path_knl() -> NicModel {
    NicModel {
        base_latency: 1.5e-6,
        per_hop_latency: 100e-9,
        proc_overhead: 1.2e-6,
        per_flow_bw: 4.0e9,
        node_bw: 12.3e9,
        node_msg_rate: 160e6,
        eager_threshold: 8192,
    }
}

/// Cluster A: Xeon Haswell 2×14 @ 2.4 GHz, EDR InfiniBand, SHArP-capable.
pub fn cluster_a() -> Preset {
    Preset {
        id: "A",
        fabric: Fabric {
            name: "Cluster A (Xeon + IB w/ SHArP)".into(),
            nic: edr_ib(),
            mem: xeon_memory(),
            compute: xeon_compute(),
            sharp: Some(SharpParams::switch_ib2()),
        },
        sockets_per_node: 2,
        cores_per_socket: 14,
        max_nodes: 40,
        default_ppn: 28,
        switch: SwitchTreeSpec {
            nodes_per_leaf: 20,
            num_core: 2,
            oversub_num: 1,
            oversub_den: 1,
        },
        watchdog: WatchdogLimits::default(),
    }
}

/// Cluster B: Xeon Broadwell 2×14 @ 2.4 GHz, EDR InfiniBand, no SHArP.
pub fn cluster_b() -> Preset {
    Preset {
        id: "B",
        fabric: Fabric {
            name: "Cluster B (Xeon + IB w/o SHArP)".into(),
            nic: edr_ib(),
            mem: xeon_memory(),
            compute: xeon_compute(),
            sharp: None,
        },
        sockets_per_node: 2,
        cores_per_socket: 14,
        max_nodes: 648,
        default_ppn: 28,
        switch: SwitchTreeSpec {
            nodes_per_leaf: 24,
            num_core: 8,
            oversub_num: 1,
            oversub_den: 1,
        },
        watchdog: WatchdogLimits::default(),
    }
}

/// Cluster C: Xeon Haswell 2×14 @ 2.3 GHz, Omni-Path, no SHArP.
pub fn cluster_c() -> Preset {
    Preset {
        id: "C",
        fabric: Fabric {
            name: "Cluster C (Xeon + Omni-Path)".into(),
            nic: omni_path_xeon(),
            mem: xeon_memory(),
            compute: xeon_compute(),
            sharp: None,
        },
        sockets_per_node: 2,
        cores_per_socket: 14,
        max_nodes: 752,
        default_ppn: 28,
        switch: SwitchTreeSpec {
            nodes_per_leaf: 24,
            num_core: 8,
            oversub_num: 1,
            oversub_den: 1,
        },
        watchdog: WatchdogLimits::default(),
    }
}

/// Cluster D: KNL 68c @ 1.4 GHz (cache mode), Omni-Path, 5/4 oversubscribed
/// fat tree. The paper caps ppn at 64 to avoid oversubscribing cores.
pub fn cluster_d() -> Preset {
    Preset {
        id: "D",
        fabric: Fabric {
            name: "Cluster D (KNL + Omni-Path)".into(),
            nic: omni_path_knl(),
            mem: MemoryModel {
                copy_latency: 400e-9,
                per_proc_copy_bw: 1.8e9,
                node_mem_bw: 90.0e9, // MCDRAM in cache mode
                cross_socket_latency: 0.0,
                cross_socket_bw_factor: 1.0, // single socket
            },
            compute: ComputeModel {
                per_core_reduce_bw: 1.0e9,
                reduce_latency: 150e-9,
            },
            sharp: None,
        },
        sockets_per_node: 1,
        cores_per_socket: 68,
        max_nodes: 508,
        default_ppn: 32,
        switch: SwitchTreeSpec::opa_oversubscribed(),
        watchdog: WatchdogLimits::slow_cores(),
    }
}

/// All four presets, in paper order.
pub fn all_presets() -> Vec<Preset> {
    vec![cluster_a(), cluster_b(), cluster_c(), cluster_d()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_validate() {
        for p in all_presets() {
            p.fabric
                .nic
                .validate()
                .unwrap_or_else(|e| panic!("{}: nic: {e}", p.id));
            p.fabric
                .mem
                .validate()
                .unwrap_or_else(|e| panic!("{}: mem: {e}", p.id));
            p.fabric
                .compute
                .validate()
                .unwrap_or_else(|e| panic!("{}: compute: {e}", p.id));
            if let Some(s) = &p.fabric.sharp {
                s.validate()
                    .unwrap_or_else(|e| panic!("{}: sharp: {e}", p.id));
            }
        }
    }

    #[test]
    fn only_cluster_a_has_sharp() {
        assert!(cluster_a().fabric.has_sharp());
        assert!(!cluster_b().fabric.has_sharp());
        assert!(!cluster_c().fabric.has_sharp());
        assert!(!cluster_d().fabric.has_sharp());
    }

    #[test]
    fn ib_benefits_from_concurrency_at_large_sizes_opa_does_not() {
        // The core calibration property behind Fig. 1(b) vs 1(c).
        assert!(cluster_b().fabric.nic.bw_saturation_flows() >= 3.0);
        assert!(cluster_c().fabric.nic.bw_saturation_flows() < 1.3);
    }

    #[test]
    fn knl_is_slower_per_core_than_xeon() {
        let d = cluster_d().fabric;
        let c = cluster_c().fabric;
        assert!(d.compute.per_core_reduce_bw < c.compute.per_core_reduce_bw);
        assert!(d.nic.proc_overhead > c.nic.proc_overhead);
        assert!(d.mem.per_proc_copy_bw < c.mem.per_proc_copy_bw);
    }

    #[test]
    fn paper_shapes_are_constructible() {
        // Fig. 4: 16 nodes x 28 ppn on A; Fig. 5/6: 64 x 28 on B/C;
        // Fig. 7: 32 x 32 on D; Fig. 10: 160 x 64 on D.
        assert_eq!(cluster_a().default_spec(16).unwrap().world_size(), 448);
        assert_eq!(cluster_b().default_spec(64).unwrap().world_size(), 1792);
        assert_eq!(cluster_c().default_spec(64).unwrap().world_size(), 1792);
        assert_eq!(cluster_d().default_spec(32).unwrap().world_size(), 1024);
        assert_eq!(cluster_d().spec(160, 64).unwrap().world_size(), 10240);
    }

    #[test]
    fn watchdog_limits_scale_with_core_speed_and_round_trip() {
        // KNL's cores are several times slower; its hang detector must
        // have proportionally more headroom than the Xeon clusters'.
        for p in [cluster_a(), cluster_b(), cluster_c()] {
            assert_eq!(p.watchdog, WatchdogLimits::default(), "{}", p.id);
        }
        let d = cluster_d();
        assert!(d.watchdog.barrier_ms > cluster_a().watchdog.barrier_ms);
        assert!(d.watchdog.recv_ms > cluster_a().watchdog.recv_ms);
        // Limits round-trip through JSON (what a serve config carries;
        // the full Preset is serialize-only under the vendored serde).
        let json = serde_json::to_string(&d.watchdog).unwrap();
        let q: WatchdogLimits = serde_json::from_str(&json).unwrap();
        assert_eq!(q, d.watchdog);
    }

    #[test]
    fn by_id_lookup() {
        assert_eq!(Preset::by_id("a").unwrap().id, "A");
        assert_eq!(Preset::by_id("D").unwrap().id, "D");
        assert!(Preset::by_id("x").is_none());
    }

    #[test]
    fn presets_clone_and_compare() {
        let p = cluster_d();
        let q = p.clone();
        assert_eq!(p, q);
        assert_ne!(cluster_a(), cluster_b());
    }
}
