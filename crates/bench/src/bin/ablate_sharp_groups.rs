//! Ablation — why not drive SHArP from every DPML leader? (paper
//! Section 4.3; DESIGN.md §4 item 5).
//!
//! Runs the rejected design (`emit_sharp_per_dpml_leader`: one SHArP group
//! and operation per partition) against the paper's node-/socket-level
//! designs, and sweeps the switch's concurrent-operation budget to show
//! the serialization. Also demonstrates the *group* limit: allocating one
//! group per leader trips `GroupRegistry` beyond 8 leaders.
//!
//! Usage: `ablate_sharp_groups [--nodes N]`

use dpml_bench::{arg_num, fmt_bytes, fmt_us, save_results, Table};
use dpml_core::algorithms::sharp_designs::emit_sharp_per_dpml_leader;
use dpml_core::algorithms::Algorithm;
use dpml_core::run::{run, simulate, Exec, Scenario};
use dpml_engine::program::{ByteRange, ProgramBuilder, WorldProgram};
use dpml_fabric::presets::cluster_a;
use dpml_fabric::SharpParams;
use dpml_sharp::GroupRegistry;
use dpml_topology::RankMap;
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    design: String,
    bytes: u64,
    max_concurrent_ops: u32,
    latency_us: f64,
}

fn run_per_leader(nodes: u32, leaders: u32, bytes: u64, max_ops: u32) -> f64 {
    let mut preset = cluster_a();
    preset
        .fabric
        .sharp
        .as_mut()
        .expect("sharp")
        .max_concurrent_ops = max_ops;
    let spec = preset.spec(nodes, 28).expect("spec");
    let map = RankMap::block(&spec);
    let mut w = WorldProgram::new(map.world_size(), bytes);
    let mut b = ProgramBuilder::new();
    emit_sharp_per_dpml_leader(&mut w, &mut b, &map, ByteRange::whole(bytes), leaders)
        .expect("build");
    let rep = simulate(&preset, &map, &w, &Exec::default()).expect("run");
    rep.verify_allreduce().expect("verified");
    rep.latency_us()
}

fn main() {
    let nodes = arg_num("--nodes", 16u32);
    let preset = cluster_a();
    let spec = preset.spec(nodes, 28).expect("spec");
    let mut points = Vec::new();

    println!(
        "SHArP design ablation on {} ({nodes} nodes x 28 ppn)",
        preset.fabric.name
    );

    // 1. Group-limit demonstration.
    let params = SharpParams::switch_ib2();
    let mut reg = GroupRegistry::new(params.max_groups);
    let mut created = 0u32;
    for j in 0..16u32 {
        match reg.create(j, vec![dpml_topology::Rank(j)]) {
            Ok(()) => created += 1,
            Err(e) => {
                println!("\ngroup limit: created {created} of 16 per-leader groups, then: {e}");
                break;
            }
        }
    }

    // 2. Per-leader SHArP vs the paper's designs (fabric default: 2 ops).
    println!("\nPer-leader SHArP vs node-/socket-level designs (switch budget = 2 ops):");
    let mut table = Table::new([
        "size",
        "socket-ldr (us)",
        "node-ldr (us)",
        "per-leader l=4",
        "per-leader l=8",
    ]);
    for bytes in [256u64, 1024, 4096] {
        let socket = run(
            &Scenario::new(&preset, &spec, Algorithm::SharpSocketLeader, bytes),
            &Exec::default(),
        )
        .expect("socket")
        .latency_us;
        let node = run(
            &Scenario::new(&preset, &spec, Algorithm::SharpNodeLeader, bytes),
            &Exec::default(),
        )
        .expect("node")
        .latency_us;
        let l4 = run_per_leader(nodes, 4, bytes, 2);
        let l8 = run_per_leader(nodes, 8, bytes, 2);
        table.row([
            fmt_bytes(bytes),
            fmt_us(socket),
            fmt_us(node),
            fmt_us(l4),
            fmt_us(l8),
        ]);
        for (design, us) in [
            ("socket-leader".to_string(), socket),
            ("node-leader".to_string(), node),
            ("per-leader-l4".to_string(), l4),
            ("per-leader-l8".to_string(), l8),
        ] {
            points.push(Point {
                design,
                bytes,
                max_concurrent_ops: 2,
                latency_us: us,
            });
        }
    }
    table.print();

    // 3. Sweep the switch's concurrency budget for the per-leader design.
    println!("\nPer-leader (l=8, 1KB) vs switch concurrent-operation budget:");
    let mut table = Table::new(["max ops", "latency (us)"]);
    for max_ops in [1u32, 2, 4, 8] {
        let us = run_per_leader(nodes, 8, 1024, max_ops);
        table.row([max_ops.to_string(), fmt_us(us)]);
        points.push(Point {
            design: "per-leader-l8".into(),
            bytes: 1024,
            max_concurrent_ops: max_ops,
            latency_us: us,
        });
    }
    table.print();

    let path = save_results("ablate_sharp_groups", &points).expect("write results");
    println!("\nsaved {} points to {}", points.len(), path.display());
}
