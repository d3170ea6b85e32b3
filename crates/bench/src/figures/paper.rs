//! The paper's Figures 1 and 4–11, the Section 5 cost-model check and the
//! critical-path profile of Figure 1's zones.

use super::{argmin, dpml, say, Output, Report};
use crate::microbench::PairPlacement::{InterNode, IntraNode};
use crate::microbench::{multi_pair_bw, multi_pair_critical_path};
use crate::{fmt_bytes, fmt_us, latency_us, paper_sizes, sweep, SizeBand, Table};
use dpml_core::algorithms::{Algorithm, FlatAlg};
use dpml_core::profile::{profile_allreduce, ProfileReport};
use dpml_core::run::Scenario;
use dpml_core::selector::Library;
use dpml_fabric::presets::{all_presets, cluster_a, cluster_b, cluster_c, cluster_d};
use dpml_fabric::Preset;
use dpml_model::{best_leader_count, CostParams};
use dpml_workloads::app::run_app;
use dpml_workloads::{HpcgConfig, MiniAmrConfig};
use serde::Serialize;

/// The host-based scheme and the paper's two SHArP designs (Figs. 8, 11a).
const SHARP_DESIGNS: [(&str, Algorithm); 3] = [
    (
        "host-based",
        Algorithm::SingleLeader {
            inner: FlatAlg::RecursiveDoubling,
        },
    ),
    ("node-leader", Algorithm::SharpNodeLeader),
    ("socket-leader", Algorithm::SharpSocketLeader),
];

/// `<fabric> (<nodes> nodes x <ppn> ppn = <procs> procs)`, as figure
/// headers print a run's shape.
fn shape(preset: &Preset, nodes: u32, ppn: u32) -> String {
    let (fabric, procs) = (&preset.fabric.name, nodes * ppn);
    format!("{fabric} ({nodes} nodes x {ppn} ppn = {procs} procs)")
}

/// Nodes of each cluster's full-subscription runs in Figures 4–7 and 9.
fn default_nodes(preset: &Preset) -> u32 {
    match preset.id {
        "A" => 16,
        "B" | "C" => 64,
        _ => 32,
    }
}

/// Figure 1 — relative multi-pair throughput (`osu_mbw_mr` equivalent).
///
/// Four panels: (a) intra-node shared memory, (b) inter-node EDR IB,
/// (c) inter-node Omni-Path on Xeon, (d) inter-node Omni-Path on KNL.
/// For each pair count and message size we time a 64-message window from
/// every sender and report aggregate throughput relative to one pair.
/// The Zone A/B/C structure of the paper's Section 4.2 should be visible
/// in panel (c): linear scaling for small sizes, collapse to ~1 for large.
pub(super) fn fig1() -> Output {
    #[derive(Serialize)]
    struct Point {
        panel: &'static str,
        pairs: u32,
        bytes: u64,
        throughput_mbps: f64,
        relative: f64,
    }

    let mut r = Report::default();
    let mut points = Vec::new();
    let panels = [
        ("a:intra-node", cluster_c(), IntraNode, 14),
        ("b:xeon-ib", cluster_b(), InterNode, 28),
        ("c:xeon-opa", cluster_c(), InterNode, 28),
        ("d:knl-opa", cluster_d(), InterNode, 32),
    ];
    for (name, preset, placement, most_pairs) in panels {
        let pair_counts = [1u32, 2, 4, 8, most_pairs];
        let mut table = Table::new(
            std::iter::once("size".to_string())
                .chain(pair_counts.iter().map(|p| format!("{p} pair(s)"))),
        );
        let fabric = &preset.fabric.name;
        say!(
            r,
            "\nFigure 1({name}) — {fabric}; relative throughput vs 1 pair"
        );
        for bytes in (0..=20).step_by(2).map(|e| 1u64 << e) {
            let base = multi_pair_bw(&preset, placement, 1, bytes, 64);
            let mut cells = vec![fmt_bytes(bytes)];
            for &pc in &pair_counts {
                let bw = multi_pair_bw(&preset, placement, pc, bytes, 64);
                let rel = bw / base;
                cells.push(format!("{rel:.2}"));
                points.push(Point {
                    panel: name,
                    pairs: pc,
                    bytes,
                    throughput_mbps: bw / 1e6,
                    relative: rel,
                });
            }
            table.row(cells);
        }
        r.table(&table);
    }
    let path = r.json("fig1_throughput", &points);
    say!(r, "\nsaved {} points to {path}", points.len());
    r.into_txt("fig1.txt")
}

/// Figures 4–7 — impact of the number of leaders on MPI_Allreduce latency,
/// at full subscription: 16 nodes on Cluster A (Fig. 4), 64 on B and C
/// (Figs. 5–6), 32 on D (Fig. 7).
pub(super) fn leader_sweep(fig: u32, preset: Preset) -> Output {
    #[derive(Serialize)]
    struct Point {
        cluster: &'static str,
        nodes: u32,
        ppn: u32,
        leaders: u32,
        bytes: u64,
        latency_us: f64,
    }

    let nodes = default_nodes(&preset);
    let spec = preset.default_spec(nodes).expect("cluster spec");
    let leader_counts = [1u32, 2, 4, 8, 16];
    let mut r = Report::default();
    let shape = shape(&preset, nodes, spec.ppn);
    say!(r, "Figure {fig} — leader sweep on {shape}");

    // Fan the (band, size, leaders) matrix out over the scenario-parallel
    // sweep runner; each point is an independent simulation and results
    // return in input order, so panels render exactly as a serial loop's.
    let mut points = Vec::new();
    for band in SizeBand::all() {
        let band_sizes = band.sizes();
        let mut table = Table::new(
            std::iter::once("size".to_string())
                .chain(leader_counts.iter().map(|l| format!("l={l} (us)")))
                .chain(["best".to_string()]),
        );
        say!(r, "\npanel: {}", band.label());
        let mut scenarios = Vec::new();
        for &bytes in &band_sizes {
            for &l in &leader_counts {
                scenarios.push((bytes, l.min(spec.ppn)));
            }
        }
        let band_points: Vec<Point> = sweep(scenarios, |(bytes, l)| Point {
            cluster: preset.id,
            nodes,
            ppn: spec.ppn,
            leaders: l,
            bytes,
            latency_us: latency_us(&preset, &spec, dpml(l), bytes),
        });
        let rows = band_points.chunks(leader_counts.len());
        for (&bytes, row) in band_sizes.iter().zip(rows) {
            let mut cells = vec![fmt_bytes(bytes)];
            cells.extend(row.iter().map(|p| fmt_us(p.latency_us)));
            let best = argmin(row.iter().map(|p| (p.leaders, p.latency_us)));
            cells.push(format!("l={best}"));
            table.row(cells);
        }
        points.extend(band_points);
        r.table(&table);
    }
    let id = preset.id.to_lowercase();
    let path = r.json(&format!("fig{fig}_leader_sweep_{id}"), &points);
    say!(r, "\nsaved {} points to {path}", points.len());
    r.into_txt(&format!("fig4_7_{id}.txt"))
}

/// Figure 8 — SHArP-based designs vs the host-based scheme, 16 nodes on
/// Cluster A, at 1/4/28 processes per node, small messages (≤ 4KB where
/// the paper shows the host-based design overtaking SHArP).
pub(super) fn fig8() -> Output {
    #[derive(Serialize)]
    struct Point {
        ppn: u32,
        design: &'static str,
        bytes: u64,
        latency_us: f64,
    }

    let preset = cluster_a();
    let nodes = 16u32;
    let sizes: Vec<u64> = (2..=12).map(|e| 1u64 << e).collect(); // 4B .. 4KB
    let mut points = Vec::new();
    let mut r = Report::default();
    say!(
        r,
        "Figure 8 — SHArP designs on {} ({nodes} nodes)",
        preset.fabric.name
    );
    for ppn in [1u32, 4, 28] {
        let spec = preset.spec(nodes, ppn).expect("spec");
        let mut table = Table::new([
            "size",
            "host (us)",
            "node-ldr (us)",
            "socket-ldr (us)",
            "best",
        ]);
        say!(r, "\nppn = {ppn} ({} procs)", spec.world_size());
        for &bytes in &sizes {
            let mut cells = vec![fmt_bytes(bytes)];
            let lat =
                SHARP_DESIGNS.map(|(name, alg)| (name, latency_us(&preset, &spec, alg, bytes)));
            for (design, us) in lat {
                cells.push(fmt_us(us));
                points.push(Point {
                    ppn,
                    design,
                    bytes,
                    latency_us: us,
                });
            }
            cells.push(argmin(lat).to_string());
            table.row(cells);
        }
        r.table(&table);
    }
    let path = r.json("fig8_sharp", &points);
    say!(r, "\nsaved {} points to {path}", points.len());
    r.into_txt("fig8.txt")
}

/// Figure 9 — the proposed (tuned) DPML design vs MVAPICH2 and Intel MPI
/// on all four clusters. Intel MPI is omitted on Clusters A and B, as in
/// the paper ("Intel MPI was not available on Cluster A and B").
pub(super) fn fig9() -> Output {
    #[derive(Serialize)]
    struct Point {
        cluster: &'static str,
        library: &'static str,
        bytes: u64,
        latency_us: f64,
    }

    let mut points = Vec::new();
    let mut r = Report::default();
    for preset in all_presets() {
        let nodes = default_nodes(&preset);
        let spec = preset.default_spec(nodes).expect("spec");
        let libs: Vec<Library> = if preset.id == "A" || preset.id == "B" {
            vec![Library::Mvapich2, Library::DpmlTuned]
        } else {
            vec![Library::Mvapich2, Library::IntelMpi, Library::DpmlTuned]
        };
        say!(r, "\nFigure 9 — {}", shape(&preset, nodes, spec.ppn));
        let mut header: Vec<String> = vec!["size".into()];
        header.extend(libs.iter().map(|l| format!("{} (us)", l.name())));
        header.push("DPML speedup".into());
        let mut table = Table::new(header);
        for bytes in paper_sizes() {
            let mut cells = vec![fmt_bytes(bytes)];
            let mut best_other = f64::INFINITY;
            let mut dpml = f64::INFINITY;
            for lib in &libs {
                let alg = lib.choose(&preset, &spec, bytes);
                let us = latency_us(&preset, &spec, alg, bytes);
                cells.push(fmt_us(us));
                if *lib == Library::DpmlTuned {
                    dpml = us;
                } else {
                    best_other = best_other.min(us);
                }
                points.push(Point {
                    cluster: preset.id,
                    library: lib.name(),
                    bytes,
                    latency_us: us,
                });
            }
            cells.push(format!("{:.2}x", best_other / dpml));
            table.row(cells);
        }
        r.table(&table);
    }
    let path = r.json("fig9_libraries", &points);
    say!(r, "\nsaved {} points to {path}", points.len());
    r.into_txt("fig9.txt")
}

/// Figure 10 — large-scale comparison: 10,240 processes on 160 nodes of
/// Cluster D (KNL + Omni-Path), DPML vs MVAPICH2 vs Intel MPI.
pub(super) fn fig10() -> Output {
    #[derive(Serialize)]
    struct Point {
        library: &'static str,
        bytes: u64,
        latency_us: f64,
    }

    let preset = cluster_d();
    let (nodes, ppn) = (160u32, 64u32);
    let spec = preset.spec(nodes, ppn).expect("spec");
    let sizes = paper_sizes();
    let mut r = Report::default();
    say!(r, "Figure 10 — scale run on {}", shape(&preset, nodes, ppn));
    let libs = [Library::Mvapich2, Library::IntelMpi, Library::DpmlTuned];
    let mut table = Table::new([
        "size",
        "MVAPICH2 (us)",
        "Intel MPI (us)",
        "DPML (us)",
        "vs MVAPICH2",
        "vs Intel",
    ]);
    // Each (size, library) point simulates an independent world; fan them
    // out over the scenario-parallel sweep runner. Results return in input
    // order, so table rows and serialized points match the serial loop.
    let mut scenarios = Vec::new();
    for &bytes in &sizes {
        for &lib in &libs {
            scenarios.push((bytes, lib));
        }
    }
    let points: Vec<Point> = sweep(scenarios, |(bytes, lib)| {
        let alg = lib.choose(&preset, &spec, bytes);
        Point {
            library: lib.name(),
            bytes,
            latency_us: latency_us(&preset, &spec, alg, bytes),
        }
    });
    for (&bytes, row) in sizes.iter().zip(points.chunks(libs.len())) {
        let lat: Vec<f64> = row.iter().map(|p| p.latency_us).collect();
        table.row([
            fmt_bytes(bytes),
            fmt_us(lat[0]),
            fmt_us(lat[1]),
            fmt_us(lat[2]),
            format!("{:.2}x", lat[0] / lat[2]),
            format!("{:.2}x", lat[1] / lat[2]),
        ]);
    }
    r.table(&table);
    let path = r.json("fig10_scale", &points);
    say!(r, "\nsaved {} points to {path}", points.len());
    r.into_txt("fig10.txt")
}

/// Figure 11 — application-level evaluation.
///
/// (a) HPCG DDOT time with 56/224/448 processes (28 ppn) on Cluster A:
///     host-based vs SHArP node-leader vs SHArP socket-leader.
/// (b) miniAMR mesh-refinement time on Clusters C and D: MVAPICH2 vs
///     Intel MPI vs tuned DPML.
pub(super) fn fig11() -> Output {
    #[derive(Serialize)]
    struct Point {
        app: &'static str,
        cluster: &'static str,
        procs: u32,
        scheme: String,
        comm_us: f64,
        total_us: f64,
    }

    let mut points = Vec::new();
    let mut r = Report::default();

    let preset = cluster_a();
    let cfg = HpcgConfig {
        iterations: 20,
        ..Default::default()
    };
    let (fabric, iters) = (&preset.fabric.name, cfg.iterations);
    say!(
        r,
        "Figure 11(a) — HPCG DDOT on {fabric} ({iters} CG iterations)"
    );
    let mut table = Table::new([
        "procs",
        "host ddot (us)",
        "node-ldr (us)",
        "socket-ldr (us)",
        "best impr",
    ]);
    for nodes in [2u32, 8, 16] {
        let spec = preset.spec(nodes, 28).expect("spec");
        let profile = cfg.profile();
        let mut comm = Vec::new();
        for (name, alg) in SHARP_DESIGNS {
            let rep = run_app(&preset, &spec, &profile, &|_| alg).expect("hpcg run");
            comm.push(rep.comm_us);
            points.push(Point {
                app: "hpcg",
                cluster: preset.id,
                procs: spec.world_size(),
                scheme: name.to_string(),
                comm_us: rep.comm_us,
                total_us: rep.total_us,
            });
        }
        let best = comm[1].min(comm[2]);
        table.row([
            spec.world_size().to_string(),
            fmt_us(comm[0]),
            fmt_us(comm[1]),
            fmt_us(comm[2]),
            format!("{:.0}%", (comm[0] - best) / comm[0] * 100.0),
        ]);
    }
    r.table(&table);

    for preset in [cluster_c(), cluster_d()] {
        let spec = preset.default_spec(16).expect("spec");
        let cfg = MiniAmrConfig {
            refinements: 10,
            ..Default::default()
        };
        let profile = cfg.profile(spec.world_size());
        say!(
            r,
            "\nFigure 11(b) — miniAMR refinement on {} ({} procs, {} refinements, {}B tags)",
            preset.fabric.name,
            spec.world_size(),
            cfg.refinements,
            cfg.refinement_bytes(spec.world_size()),
        );
        let mut table = Table::new(["library", "refine time (us)", "vs MVAPICH2"]);
        let mut base = 0.0;
        for lib in [Library::Mvapich2, Library::IntelMpi, Library::DpmlTuned] {
            let rep = run_app(&preset, &spec, &profile, &|bytes| {
                lib.choose(&preset, &spec, bytes)
            })
            .expect("miniamr run");
            if lib == Library::Mvapich2 {
                base = rep.comm_us;
            }
            table.row([
                lib.name().to_string(),
                fmt_us(rep.comm_us),
                format!("{:.2}x", base / rep.comm_us),
            ]);
            points.push(Point {
                app: "miniamr",
                cluster: preset.id,
                procs: spec.world_size(),
                scheme: lib.name().to_string(),
                comm_us: rep.comm_us,
                total_us: rep.total_us,
            });
        }
        r.table(&table);
    }
    let path = r.json("fig11_apps", &points);
    say!(r, "\nsaved {} points to {path}", points.len());
    r.into_txt("fig11.txt")
}

/// Cost-model validation — paper Section 5 (Table 1, Eqs. 1–7).
///
/// Compares the analytic DPML cost (Eq. 7) against the discrete-event
/// simulation on Cluster B, 16 nodes, and puts the model's predicted-best
/// leader count next to the simulated-best. The analytic model ignores
/// contention and message-rate queueing, so agreement is expected within
/// a modest factor for medium/large messages and to diverge for tiny ones
/// (documented in EXPERIMENTS.md).
pub(super) fn model_check() -> Output {
    #[derive(Serialize)]
    struct Row {
        bytes: u64,
        leaders: u32,
        model_us: f64,
        sim_us: f64,
        ratio: f64,
    }

    let preset = cluster_b();
    let nodes = 16u32;
    let spec = preset.default_spec(nodes).expect("spec");
    let dpml_us = |leaders, bytes| latency_us(&preset, &spec, dpml(leaders), bytes);
    let sizes = [4096u64, 65536, 512 * 1024, 1 << 20];
    let mut r = Report::default();
    let (fabric, ppn) = (&preset.fabric.name, spec.ppn);
    say!(
        r,
        "Cost-model check on {fabric} ({nodes} nodes x {ppn} ppn)"
    );

    let mut rows = Vec::new();
    let mut table = Table::new(["size", "l", "model (us)", "sim (us)", "sim/model"]);
    for bytes in sizes {
        for leaders in [1u32, 4, 16] {
            let cp = CostParams::from_fabric(&preset.fabric, &spec, leaders, bytes, 1);
            let model_us = cp.t_allreduce() * 1e6;
            let sim_us = dpml_us(leaders, bytes);
            table.row([
                fmt_bytes(bytes),
                leaders.to_string(),
                format!("{model_us:.1}"),
                format!("{sim_us:.1}"),
                format!("{:.2}", sim_us / model_us),
            ]);
            rows.push(Row {
                bytes,
                leaders,
                model_us,
                sim_us,
                ratio: sim_us / model_us,
            });
        }
    }
    r.table(&table);

    say!(r, "\nPredicted vs simulated best leader count:");
    let mut table = Table::new(["size", "model best l", "sim best l"]);
    for bytes in sizes {
        let cp = CostParams::from_fabric(&preset.fabric, &spec, 1, bytes, 1);
        let model_best = best_leader_count(&cp);
        let sim_best = argmin([1u32, 2, 4, 8, 16].map(|l| (l, dpml_us(l, bytes))));
        table.row([
            fmt_bytes(bytes),
            model_best.to_string(),
            sim_best.to_string(),
        ]);
    }
    r.table(&table);

    let path = r.json("model_check", &rows);
    say!(r, "\nsaved {} rows to {path}", rows.len());
    r.into_txt("model_check.txt")
}

/// Critical-path profile artifact (`results/profile.json`).
///
/// Two sections:
///
/// 1. **Allreduce attribution** — `dpml profile` equivalents for every
///    cluster preset at small/medium/large sizes: per-phase critical-path
///    share, dominant cost, and zone classification.
/// 2. **Figure 1 zone sweep** — the multi-pair microbenchmark on Omni-Path
///    (panel c, 28 pairs), classified by the critical-path walker at
///    windows 1 and 64; the paper's Zone A → B → C transition of Section
///    4.2 should appear as the message size grows.
pub(super) fn profile() -> Output {
    #[derive(Serialize)]
    struct ClusterProfile {
        cluster: String,
        profile: ProfileReport,
    }

    #[derive(Serialize)]
    struct ZonePoint {
        panel: &'static str,
        pairs: u32,
        window: u32,
        bytes: u64,
        zone: String,
        dominant: String,
    }

    #[derive(Serialize)]
    struct Artifact {
        allreduce: Vec<ClusterProfile>,
        fig1_zones: Vec<ZonePoint>,
    }

    let mut r = Report::default();
    let mut artifact = Artifact {
        allreduce: Vec::new(),
        fig1_zones: Vec::new(),
    };

    say!(r, "Allreduce critical-path attribution (dpml-l4, 8 nodes):");
    let mut table = Table::new([
        "cluster",
        "size",
        "latency",
        "zone",
        "dominant",
        "top phase",
    ]);
    for preset in all_presets() {
        let spec = preset.spec(8, preset.default_ppn).expect("preset spec");
        for bytes in [256u64, 65_536, 1 << 20] {
            let run = profile_allreduce(&Scenario::new(&preset, &spec, dpml(4), bytes))
                .expect("profiled run");
            let top_phase = run
                .profile
                .phases
                .iter()
                .max_by(|a, b| a.critical_s.total_cmp(&b.critical_s))
                .map(|p| p.phase.clone())
                .unwrap_or_default();
            table.row(vec![
                preset.id.to_lowercase(),
                fmt_bytes(bytes),
                format!("{:.1}us", run.profile.latency_us),
                run.profile.zone.clone(),
                run.profile.dominant.clone(),
                top_phase,
            ]);
            artifact.allreduce.push(ClusterProfile {
                cluster: preset.id.to_lowercase(),
                profile: run.profile,
            });
        }
    }
    r.table(&table);

    let (window, pairs) = (64u32, 28u32);
    let preset = cluster_c();
    let fabric = &preset.fabric.name;
    say!(
        r,
        "\nFigure 1(c) zone classification — {fabric} inter-node, {pairs} pairs:"
    );
    // A single ping (window 1) is the latency regime; a deep window of
    // small messages is rate-limited; large messages saturate the shared
    // NIC either way — latency → msg-rate → bandwidth across the sweep.
    let mut table = Table::new([
        "size".to_string(),
        "zone (window 1)".to_string(),
        format!("zone (window {window})"),
    ]);
    for e in 0..=22 {
        let bytes = 1u64 << e;
        let mut cells = vec![fmt_bytes(bytes)];
        for w in [1, window] {
            let cp = multi_pair_critical_path(&preset, InterNode, pairs, bytes, w);
            let zone = cp.zone().name().to_string();
            cells.push(zone.clone());
            artifact.fig1_zones.push(ZonePoint {
                panel: "c:xeon-opa",
                pairs,
                window: w,
                bytes,
                zone,
                dominant: cp.dominant().name().to_string(),
            });
        }
        table.row(cells);
    }
    r.table(&table);

    let path = r.json("profile", &artifact);
    let (profiles, zones) = (artifact.allreduce.len(), artifact.fig1_zones.len());
    say!(
        r,
        "\nsaved {profiles} allreduce profiles and {zones} zone points to {path}"
    );
    r.into_stdout()
}
