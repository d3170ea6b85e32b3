//! Ablations: which modelling mechanisms and design choices the paper's
//! results rest on (DESIGN.md §4).

use super::{argmin, dpml, say, Output, Report};
use crate::microbench::{multi_pair_bw, PairPlacement::InterNode};
use crate::{fmt_bytes, fmt_us, latency_us, Table};
use dpml_core::algorithms::sharp_designs::emit_sharp_per_dpml_leader;
use dpml_core::algorithms::Algorithm;
use dpml_core::run::{run, simulate, Exec, Scenario};
use dpml_engine::program::{ByteRange, ProgramBuilder, WorldProgram};
use dpml_fabric::presets::{cluster_a, cluster_b, cluster_c, cluster_d};
use dpml_fabric::SharpParams;
use dpml_sharp::GroupRegistry;
use dpml_topology::{Placement, Rank, RankMap};
use serde::Serialize;

/// Why the engine models max-min fair sharing and injection overhead at
/// all (DESIGN.md §4, items 1–2).
///
/// Reruns the Figure 1(c) Omni-Path multi-pair experiment under three
/// engine configurations:
///
/// * `full`      — the calibrated model (per-flow cap + injection overhead)
/// * `no-cap`    — per-flow bandwidth raised to the NIC aggregate
///   (every flow can saturate the link alone)
/// * `no-inject` — injection overhead and NIC message-rate made negligible
///
/// Without the per-flow cap, Zone C keeps "benefiting" from concurrency it
/// should not; without injection costs, Zone A's linear scaling becomes
/// infinite. Either way the leader-count tradeoff the paper exploits
/// disappears — demonstrating the two mechanisms are load-bearing.
pub(super) fn fairness() -> Output {
    #[derive(Serialize)]
    struct Point {
        variant: &'static str,
        pairs: u32,
        bytes: u64,
        relative: f64,
    }

    let full = cluster_c();
    let mut no_cap = cluster_c();
    no_cap.fabric.nic.per_flow_bw = no_cap.fabric.nic.node_bw;
    let mut no_inject = cluster_c();
    no_inject.fabric.nic.proc_overhead = 1e-12;
    no_inject.fabric.nic.node_msg_rate = 1e15;

    let pair_counts = [1u32, 4, 16, 28];
    let mut r = Report::default();
    let mut points = Vec::new();
    for (name, preset) in [("full", full), ("no-cap", no_cap), ("no-inject", no_inject)] {
        say!(r, "\nvariant: {name}");
        let mut table = Table::new(
            std::iter::once("size".to_string())
                .chain(pair_counts.iter().map(|p| format!("{p} pairs"))),
        );
        for bytes in [64u64, 4 * 1024, 64 * 1024, 1 << 20] {
            let base = multi_pair_bw(&preset, InterNode, 1, bytes, 64);
            let mut cells = vec![fmt_bytes(bytes)];
            for pc in pair_counts {
                let rel = multi_pair_bw(&preset, InterNode, pc, bytes, 64) / base;
                cells.push(format!("{rel:.2}"));
                points.push(Point {
                    variant: name,
                    pairs: pc,
                    bytes,
                    relative: rel,
                });
            }
            table.row(cells);
        }
        r.table(&table);
    }
    let path = r.json("ablate_fairness", &points);
    say!(r, "\nsaved {} points to {path}", points.len());
    r.into_txt("ablate_fairness.txt")
}

/// Pipelining depth `k` in DPML-Pipelined (paper Section 4.2, Eq. 5;
/// DESIGN.md §4 item 4).
///
/// Sweeps `k` for large messages at 16 nodes on the two Omni-Path
/// clusters (where per-leader partitions remain in Zone C and pipelining
/// should help) and on the IB cluster (where it should not).
pub(super) fn pipeline() -> Output {
    #[derive(Serialize)]
    struct Point {
        cluster: &'static str,
        bytes: u64,
        k: u32,
        latency_us: f64,
    }

    let nodes = 16u32;
    let ks = [1u32, 2, 4, 8, 16];
    let mut r = Report::default();
    let mut points = Vec::new();
    for preset in [cluster_b(), cluster_c(), cluster_d()] {
        let spec = preset.default_spec(nodes).expect("spec");
        let leaders = 16u32.min(spec.ppn);
        let (fabric, ppn) = (&preset.fabric.name, spec.ppn);
        say!(
            r,
            "\nDPML-Pipelined sweep on {fabric} ({nodes} nodes x {ppn} ppn, l={leaders})"
        );
        let mut table = Table::new(
            std::iter::once("size".to_string())
                .chain(ks.iter().map(|k| format!("k={k} (us)")))
                .chain(["best k".to_string()]),
        );
        for bytes in [256 * 1024u64, 1 << 20, 4 << 20] {
            let mut cells = vec![fmt_bytes(bytes)];
            let alg = |chunks| Algorithm::DpmlPipelined { leaders, chunks };
            let lat = ks.map(|k| (k, latency_us(&preset, &spec, alg(k), bytes)));
            for (k, us) in lat {
                cells.push(fmt_us(us));
                let cluster = preset.id;
                points.push(Point {
                    cluster,
                    bytes,
                    k,
                    latency_us: us,
                });
            }
            cells.push(argmin(lat).to_string());
            table.row(cells);
        }
        r.table(&table);
    }
    let path = r.json("ablate_pipeline", &points);
    say!(r, "\nsaved {} points to {path}", points.len());
    r.into_txt("ablate_pipeline.txt")
}

/// Why not drive SHArP from every DPML leader? (paper Section 4.3;
/// DESIGN.md §4 item 5).
///
/// Runs the rejected design (`emit_sharp_per_dpml_leader`: one SHArP group
/// and operation per partition) against the paper's node-/socket-level
/// designs on Cluster A, 16 nodes, and sweeps the switch's
/// concurrent-operation budget to show the serialization. Also
/// demonstrates the *group* limit: allocating one group per leader trips
/// `GroupRegistry` beyond 8 leaders.
pub(super) fn sharp_groups() -> Output {
    #[derive(Serialize)]
    struct Point {
        design: String,
        bytes: u64,
        max_concurrent_ops: u32,
        latency_us: f64,
    }

    let nodes = 16u32;
    let preset = cluster_a();
    let spec = preset.spec(nodes, 28).expect("spec");
    let per_leader = |leaders: u32, bytes: u64, max_ops: u32| -> f64 {
        let mut preset = cluster_a();
        preset
            .fabric
            .sharp
            .as_mut()
            .expect("sharp")
            .max_concurrent_ops = max_ops;
        let map = RankMap::block(&spec);
        let mut w = WorldProgram::new(map.world_size(), bytes);
        let mut b = ProgramBuilder::new();
        emit_sharp_per_dpml_leader(&mut w, &mut b, &map, ByteRange::whole(bytes), leaders)
            .expect("build");
        let rep = simulate(&preset, &map, &w, &Exec::default()).expect("run");
        rep.verify_allreduce().expect("verified");
        rep.latency_us()
    };
    let mut r = Report::default();
    let mut points = Vec::new();

    let fabric = &preset.fabric.name;
    say!(
        r,
        "SHArP design ablation on {fabric} ({nodes} nodes x 28 ppn)"
    );

    // 1. Group-limit demonstration.
    let mut reg = GroupRegistry::new(SharpParams::switch_ib2().max_groups);
    let mut created = 0u32;
    for j in 0..16u32 {
        match reg.create(j, vec![Rank(j)]) {
            Ok(()) => created += 1,
            Err(e) => {
                say!(
                    r,
                    "\ngroup limit: created {created} of 16 per-leader groups, then: {e}"
                );
                break;
            }
        }
    }

    // 2. Per-leader SHArP vs the paper's designs (fabric default: 2 ops).
    say!(
        r,
        "\nPer-leader SHArP vs node-/socket-level designs (switch budget = 2 ops):"
    );
    let mut table = Table::new([
        "size",
        "socket-ldr (us)",
        "node-ldr (us)",
        "per-leader l=4",
        "per-leader l=8",
    ]);
    for bytes in [256u64, 1024, 4096] {
        let socket = latency_us(&preset, &spec, Algorithm::SharpSocketLeader, bytes);
        let node = latency_us(&preset, &spec, Algorithm::SharpNodeLeader, bytes);
        let l4 = per_leader(4, bytes, 2);
        let l8 = per_leader(8, bytes, 2);
        table.row([
            fmt_bytes(bytes),
            fmt_us(socket),
            fmt_us(node),
            fmt_us(l4),
            fmt_us(l8),
        ]);
        for (design, us) in [
            ("socket-leader", socket),
            ("node-leader", node),
            ("per-leader-l4", l4),
            ("per-leader-l8", l8),
        ] {
            points.push(Point {
                design: design.into(),
                bytes,
                max_concurrent_ops: 2,
                latency_us: us,
            });
        }
    }
    r.table(&table);

    // 3. Sweep the switch's concurrency budget for the per-leader design.
    say!(
        r,
        "\nPer-leader (l=8, 1KB) vs switch concurrent-operation budget:"
    );
    let mut table = Table::new(["max ops", "latency (us)"]);
    for max_ops in [1u32, 2, 4, 8] {
        let us = per_leader(8, 1024, max_ops);
        table.row([max_ops.to_string(), fmt_us(us)]);
        points.push(Point {
            design: "per-leader-l8".into(),
            bytes: 1024,
            max_concurrent_ops: max_ops,
            latency_us: us,
        });
    }
    r.table(&table);

    let path = r.json("ablate_sharp_groups", &points);
    say!(r, "\nsaved {} points to {path}", points.len());
    r.into_txt("ablate_sharp_groups.txt")
}

/// Rank placement sensitivity.
///
/// Flat algorithms assume "nearby ranks are cheap": under cyclic placement
/// (rank `r` on node `r mod h`) their low-distance exchanges all cross the
/// network and latency degrades. DPML discovers node boundaries from the
/// rank map, so its schedule is placement-robust — an emergent benefit of
/// the hierarchical structure worth quantifying (Cluster B, 8 nodes).
pub(super) fn placement() -> Output {
    #[derive(Serialize)]
    struct Point {
        algorithm: String,
        placement: &'static str,
        bytes: u64,
        latency_us: f64,
    }

    let preset = cluster_b();
    let nodes = 8u32;
    let spec = preset.default_spec(nodes).expect("spec");
    let algs = [
        Algorithm::RecursiveDoubling,
        Algorithm::Rabenseifner,
        dpml(8),
    ];
    let mut r = Report::default();
    let (fabric, ppn) = (&preset.fabric.name, spec.ppn);
    say!(
        r,
        "placement ablation on {fabric} ({nodes} nodes x {ppn} ppn)"
    );
    let mut points = Vec::new();
    let mut table = Table::new([
        "algorithm",
        "size",
        "block (us)",
        "cyclic (us)",
        "cyclic penalty",
    ]);
    for alg in algs {
        for bytes in [4 * 1024u64, 256 * 1024] {
            let block = Scenario::new(&preset, &spec, alg, bytes);
            let cyclic = Scenario {
                placement: Placement::Cyclic,
                ..block
            };
            let [block, cyclic] = [block, cyclic]
                .map(|s| run(&s, &Exec::default()).expect("placement run").latency_us);
            table.row([
                alg.name(),
                fmt_bytes(bytes),
                fmt_us(block),
                fmt_us(cyclic),
                format!("{:.2}x", cyclic / block),
            ]);
            for (placement, latency_us) in [("block", block), ("cyclic", cyclic)] {
                points.push(Point {
                    algorithm: alg.name(),
                    placement,
                    bytes,
                    latency_us,
                });
            }
        }
    }
    r.table(&table);
    let path = r.json("ablate_placement", &points);
    say!(r, "\nsaved {} points to {path}", points.len());
    r.into_stdout()
}
