//! Critical-path profile artifact (`results/profile.json`).
//!
//! Two sections:
//!
//! 1. **Allreduce attribution** — `dpml profile` equivalents for every
//!    cluster preset at small/medium/large sizes: per-phase critical-path
//!    share, dominant cost, and zone classification.
//! 2. **Figure 1 zone sweep** — the multi-pair microbenchmark on Omni-Path
//!    (panel c), classified by the critical-path walker; the paper's
//!    Zone A → B → C transition of Section 4.2 should appear as the
//!    message size grows.
//!
//! Usage: `profile [--window N] [--pairs N]`

use dpml_bench::microbench::{multi_pair_critical_path, PairPlacement};
use dpml_bench::{fmt_bytes, save_results, Table};
use dpml_core::algorithms::{Algorithm, FlatAlg};
use dpml_core::profile::{profile_allreduce, ProfileReport};
use dpml_core::run::Scenario;
use serde::Serialize;

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

fn allreduce_section(out: &mut Vec<ClusterProfile>) {
    let sizes = [256u64, 65_536, 1 << 20];
    println!("Allreduce critical-path attribution (dpml-l4, 8 nodes):");
    let mut table = Table::new(
        [
            "cluster",
            "size",
            "latency",
            "zone",
            "dominant",
            "top phase",
        ]
        .map(String::from),
    );
    for preset in dpml_fabric::presets::all_presets() {
        let spec = preset.spec(8, preset.default_ppn).expect("preset spec");
        let alg = Algorithm::Dpml {
            leaders: 4,
            inner: FlatAlg::RecursiveDoubling,
        };
        for &bytes in &sizes {
            let run = profile_allreduce(&Scenario::new(&preset, &spec, alg, bytes))
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
            out.push(ClusterProfile {
                cluster: preset.id.to_lowercase(),
                profile: run.profile,
            });
        }
    }
    table.print();
}

fn fig1_zone_section(window: u32, pairs: u32, out: &mut Vec<ZonePoint>) {
    let preset = dpml_fabric::presets::cluster_c();
    println!(
        "\nFigure 1(c) zone classification — {} inter-node, {pairs} pairs:",
        preset.fabric.name
    );
    // A single ping (window 1) is the latency regime; a deep window of
    // small messages is rate-limited; large messages saturate the shared
    // NIC either way — latency → msg-rate → bandwidth across the sweep.
    let mut table = Table::new(
        [
            "size",
            "zone (window 1)",
            format!("zone (window {window})").as_str(),
        ]
        .map(String::from),
    );
    for e in 0..=22 {
        let bytes = 1u64 << e;
        let mut cells = vec![fmt_bytes(bytes)];
        for w in [1, window] {
            let cp = multi_pair_critical_path(&preset, PairPlacement::InterNode, pairs, bytes, w);
            let zone = cp.zone().name().to_string();
            cells.push(zone.clone());
            out.push(ZonePoint {
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
    table.print();
}

fn main() {
    let window = dpml_bench::arg_num("--window", 64u32);
    let pairs = dpml_bench::arg_num("--pairs", 28u32);
    let mut artifact = Artifact {
        allreduce: Vec::new(),
        fig1_zones: Vec::new(),
    };
    allreduce_section(&mut artifact.allreduce);
    fig1_zone_section(window, pairs, &mut artifact.fig1_zones);
    let path = save_results("profile", &artifact).expect("write results");
    println!(
        "\nsaved {} allreduce profiles and {} zone points to {}",
        artifact.allreduce.len(),
        artifact.fig1_zones.len(),
        path.display()
    );
}
