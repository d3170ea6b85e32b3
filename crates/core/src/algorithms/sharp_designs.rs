//! SHArP-offloaded allreduce designs — paper Section 4.3.
//!
//! Both designs gather locally to a small number of leader processes, run a
//! *single* in-network aggregation over all leaders, and broadcast locally:
//!
//! * **Node-level leader**: one leader per node. Simple, but on dual-socket
//!   nodes half the ranks pay the inter-socket penalty during both gather
//!   and broadcast.
//! * **Socket-level leader**: one leader per socket. Gather/broadcast stay
//!   socket-local; the SHArP group doubles in size (2h members) but remains
//!   far below the fabric's concurrency limits.
//!
//! Beside them sits the design the section rejects,
//! [`emit_sharp_per_dpml_leader`]: SHArP driven by *every* DPML leader (one
//! group and one concurrent operation per partition). The paper rules it
//! out because "SHArP can support only a small number of concurrent
//! operations and SHArP communicators"; with the modeled Switch-IB 2 limits
//! the schedule serializes on the switch and loses — `ablate_sharp_groups`
//! quantifies it.

use crate::algorithms::BuildError;
use dpml_engine::program::{
    BufKey, ByteRange, ProgramBuilder, WorldProgram, BUF_INPUT, BUF_RESULT,
};
use dpml_engine::Phase;
use dpml_topology::{LeaderPolicy, NodeId, RankMap};

/// Emit a SHArP-offloaded allreduce with the given leader policy
/// (`NodeLevel` or `SocketLevel`).
pub fn emit_sharp_leader(
    w: &mut WorldProgram,
    b: &mut ProgramBuilder,
    map: &RankMap,
    range: ByteRange,
    policy: LeaderPolicy,
) -> Result<(), BuildError> {
    let spec = *map.spec();
    let ppn = spec.ppn;
    let whole = range;
    let set = policy
        .build(map)
        .expect("node/socket leader policies always fit");
    let l = set.leaders_per_node();

    // One SHArP group containing every leader of every node.
    let group = b.fresh_group();
    let mut group_members = Vec::with_capacity((spec.num_nodes * l) as usize);
    for node in 0..spec.num_nodes {
        for j in 0..l {
            group_members.push(set.leader_rank(NodeId(node), j));
        }
    }
    w.register_sharp_group(group, group_members);

    // Shared slots: gather slot per local rank + bcast slot per leader.
    let gather_base = b.fresh_shared(ppn);
    let bcast_base = b.fresh_shared(l);

    for node in 0..spec.num_nodes {
        let node = NodeId(node);
        let members = map.ranks_on_node(node);
        let gather_done = b.fresh_barrier();
        let publish_done = b.fresh_barrier();
        w.register_barrier(gather_done, members.clone());
        w.register_barrier(publish_done, members.clone());

        for &r in &members {
            let local = map.local_of(r);
            let my_leader_j = set.leader_for_local(&spec, local);
            let leader_rank = set.leader_rank(node, my_leader_j);
            let cross = map.socket_of(leader_rank) != map.socket_of(r);
            let prog = w.rank(r);
            // Gather: deposit into own slot of the responsible leader's
            // region.
            prog.set_phase(Phase::ShmGather);
            prog.copy(
                BUF_INPUT,
                BufKey::Shared(gather_base + local.0),
                whole,
                cross,
            );
            prog.barrier(gather_done);
            if let Some(j) = set.leader_index(r) {
                // Leader folds the slots of the ranks it serves.
                let served: Vec<u32> = (0..ppn)
                    .filter(|&i| set.leader_for_local(&spec, dpml_topology::LocalRank(i)) == j)
                    .collect();
                let first = served[0];
                let prog = w.rank(r);
                prog.set_phase(Phase::LeaderReduce);
                prog.copy(
                    BufKey::Shared(gather_base + first),
                    BUF_RESULT,
                    whole,
                    false,
                );
                if served.len() > 1 {
                    let srcs: Vec<BufKey> = served[1..]
                        .iter()
                        .map(|&i| BufKey::Shared(gather_base + i))
                        .collect();
                    prog.reduce(srcs, BUF_RESULT, whole);
                }
                // In-network aggregation across all leaders everywhere.
                prog.set_phase(Phase::Sharp);
                prog.sharp(group, BUF_RESULT, BUF_RESULT, whole);
                // Publish for the local broadcast.
                prog.set_phase(Phase::Broadcast);
                prog.copy(BUF_RESULT, BufKey::Shared(bcast_base + j), whole, false);
            }
            let prog = w.rank(r);
            prog.set_phase(Phase::Broadcast);
            prog.barrier(publish_done);
            if set.leader_index(r).is_none() {
                let cross2 = map.socket_of(leader_rank) != map.socket_of(r);
                prog.copy(
                    BufKey::Shared(bcast_base + my_leader_j),
                    BUF_RESULT,
                    whole,
                    cross2,
                );
            }
        }
    }
    Ok(())
}

/// The design Section 4.3 rules out: every DPML leader drives its own SHArP
/// group/operation for its partition. Correct, but the switch's small
/// concurrent-operation budget serializes the `l` aggregations.
pub fn emit_sharp_per_dpml_leader(
    w: &mut WorldProgram,
    b: &mut ProgramBuilder,
    map: &RankMap,
    range: ByteRange,
    leaders: u32,
) -> Result<(), BuildError> {
    let spec = *map.spec();
    let ppn = spec.ppn;
    if leaders == 0 || leaders > ppn {
        return Err(BuildError::TooManyLeaders { leaders, ppn });
    }
    let set = LeaderPolicy::PerNode(leaders)
        .build(map)
        .map_err(|_| BuildError::TooManyLeaders { leaders, ppn })?;
    let l = set.leaders_per_node();
    let parts: Vec<ByteRange> = (0..l).map(|j| range.subrange(l, j)).collect();

    // One SHArP group per leader index.
    let mut groups = Vec::with_capacity(l as usize);
    for j in 0..l {
        let g = b.fresh_group();
        w.register_sharp_group(g, set.leader_comm(j));
        groups.push(g);
    }

    let slot_base = b.fresh_shared(l * ppn);
    let slot = |j: u32, i: u32| BufKey::Shared(slot_base + j * ppn + i);
    let bcast_base = b.fresh_shared(l);
    for node in 0..spec.num_nodes {
        let node = NodeId(node);
        let members = map.ranks_on_node(node);
        let gather_done = b.fresh_barrier();
        let publish_done = b.fresh_barrier();
        w.register_barrier(gather_done, members.clone());
        w.register_barrier(publish_done, members.clone());
        for (i, &r) in members.iter().enumerate() {
            let my_socket = map.socket_of(r);
            let my_leader = set.leader_index(r);
            let prog = w.rank(r);
            prog.set_phase(Phase::ShmGather);
            for j in 0..l {
                if parts[j as usize].is_empty() {
                    continue;
                }
                let cross = map.socket_of(set.leader_rank(node, j)) != my_socket;
                prog.copy(BUF_INPUT, slot(j, i as u32), parts[j as usize], cross);
            }
            prog.barrier(gather_done);
            if let Some(j) = my_leader {
                let part = parts[j as usize];
                if !part.is_empty() {
                    prog.set_phase(Phase::LeaderReduce);
                    prog.copy(slot(j, 0), BUF_RESULT, part, false);
                    if ppn > 1 {
                        let srcs: Vec<BufKey> = (1..ppn).map(|i2| slot(j, i2)).collect();
                        prog.reduce(srcs, BUF_RESULT, part);
                    }
                    // Offload the inter-node stage to the switch.
                    prog.set_phase(Phase::Sharp);
                    prog.sharp(groups[j as usize], BUF_RESULT, BUF_RESULT, part);
                    prog.set_phase(Phase::Broadcast);
                    prog.copy(BUF_RESULT, BufKey::Shared(bcast_base + j), part, false);
                }
            }
            let prog = w.rank(r);
            prog.set_phase(Phase::Broadcast);
            prog.barrier(publish_done);
            for j in 0..l {
                if Some(j) == my_leader || parts[j as usize].is_empty() {
                    continue;
                }
                let cross = map.socket_of(set.leader_rank(node, j)) != my_socket;
                prog.copy(
                    BufKey::Shared(bcast_base + j),
                    BUF_RESULT,
                    parts[j as usize],
                    cross,
                );
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpml_engine::{SimConfig, Simulator};
    use dpml_fabric::presets::cluster_a;
    use dpml_sharp::SharpFabric;
    use dpml_topology::ClusterSpec;

    /// Emit an `n`-byte schedule on cluster A at `nodes x ppn`, run it
    /// with the SHArP oracle and verify the allreduce.
    fn run_emitted(
        nodes: u32,
        ppn: u32,
        n: u64,
        emit: impl FnOnce(&mut WorldProgram, &mut ProgramBuilder, &RankMap, ByteRange),
    ) -> dpml_engine::RunReport {
        let preset = cluster_a();
        let spec = ClusterSpec::new(nodes, 2, 14, ppn).unwrap();
        let map = RankMap::block(&spec);
        let cfg = SimConfig::new(map.clone(), preset.fabric.clone(), preset.switch).unwrap();
        let oracle = SharpFabric::new(
            preset.fabric.sharp.expect("cluster A has SHArP"),
            cfg.tree.clone(),
            map.clone(),
        );
        let mut w = WorldProgram::new(map.world_size(), n);
        let mut b = ProgramBuilder::new();
        emit(&mut w, &mut b, &map, ByteRange::whole(n));
        let rep = Simulator::new(&cfg).with_sharp(&oracle).run(&w).unwrap();
        rep.verify_allreduce().unwrap();
        rep
    }

    fn run(nodes: u32, ppn: u32, n: u64, policy: LeaderPolicy) -> dpml_engine::RunReport {
        run_emitted(nodes, ppn, n, |w, b, map, range| {
            emit_sharp_leader(w, b, map, range, policy).unwrap()
        })
    }

    #[test]
    fn node_leader_correct() {
        let rep = run(4, 4, 1024, LeaderPolicy::NodeLevel);
        assert_eq!(rep.stats.sharp_ops, 1);
        assert_eq!(rep.stats.inter_node_messages, 0);
    }

    #[test]
    fn socket_leader_correct() {
        let rep = run(4, 8, 1024, LeaderPolicy::SocketLevel);
        assert_eq!(rep.stats.sharp_ops, 1);
    }

    #[test]
    fn single_ppn_designs_equivalent() {
        // With one process per node the two designs are the same schedule
        // (paper Section 6.3).
        let a = run(8, 1, 256, LeaderPolicy::NodeLevel);
        let b = run(8, 1, 256, LeaderPolicy::SocketLevel);
        assert_eq!(a.makespan(), b.makespan());
    }

    #[test]
    fn socket_leader_beats_node_leader_at_full_subscription() {
        // The cross-socket gather/broadcast penalty (Section 4.3).
        let node = run(8, 28, 2048, LeaderPolicy::NodeLevel);
        let socket = run(8, 28, 2048, LeaderPolicy::SocketLevel);
        assert!(
            socket.makespan() < node.makespan(),
            "socket {} vs node {}",
            socket.latency_us(),
            node.latency_us()
        );
    }

    #[test]
    fn odd_ppn_socket_leader() {
        run(3, 5, 500, LeaderPolicy::SocketLevel);
    }

    #[test]
    fn sharp_per_dpml_leader_is_correct_but_serializes() {
        let run_l = |l: u32| {
            let rep = run_emitted(8, 28, 2048, |w, b, map, range| {
                emit_sharp_per_dpml_leader(w, b, map, range, l).unwrap()
            });
            assert_eq!(rep.stats.sharp_ops, l as u64);
            rep.latency_us()
        };
        let t2 = run_l(2);
        let t16 = run_l(16);
        // 16 ops over a 2-op switch budget serialize: per-unit-data time
        // must degrade relative to 2 leaders despite 8x smaller partitions.
        assert!(
            t16 > 0.6 * t2,
            "expected switch serialization to erase the partitioning win: l2={t2} l16={t16}"
        );
    }
}
