//! Golden-equivalence suite: locks the engine's observable behavior down
//! to the bit so the hot path can be rebuilt without moving a single
//! result (DESIGN.md §11).
//!
//! A 64-case matrix (4 clusters × 8 host-based algorithms × 2 sizes, on a
//! 4×4 cluster shape) runs traced through [`profile_allreduce`]; each case
//! is digested into the exact f64 bit patterns of its makespan, per-rank
//! finish times, per-resource utilization, and critical-path attribution
//! vector, plus every integer `RunStats` counter. The digests live in
//! `tests/golden/engine_v1.json` and were recorded from the pre-fast-path
//! engine; this test asserts the current engine reproduces every one
//! bit-exactly.
//!
//! Intentional behavior changes regenerate the file with
//! `GOLDEN_BLESS=1 cargo test --test golden_equivalence` — the diff then
//! shows exactly which cases moved, which is itself review signal.

use dpml_core::algorithms::{Algorithm, FlatAlg};
use dpml_core::profile::profile_allreduce;
use dpml_core::run::Scenario;
use dpml_engine::CostKind;
use dpml_fabric::{presets, Preset};
use serde::{Deserialize, Serialize};

const GOLDEN_PATH: &str = "tests/golden/engine_v1.json";
const NODES: u32 = 4;
const PPN: u32 = 4;
const SIZES: [u64; 2] = [4096, 262144];

fn clusters() -> Vec<(&'static str, Preset)> {
    vec![
        ("a", presets::cluster_a()),
        ("b", presets::cluster_b()),
        ("c", presets::cluster_c()),
        ("d", presets::cluster_d()),
    ]
}

/// Eight host-based algorithms. SHArP designs are excluded so the same
/// matrix runs on all four clusters; SHArP timing is pinned instead by
/// `figures --check` over `fig8_sharp.json`, `fig11_apps.json` and
/// `ablate_sharp_groups.json`, and by the engine's `sharp_*` unit tests.
fn algorithms() -> Vec<Algorithm> {
    vec![
        Algorithm::RecursiveDoubling,
        Algorithm::Rabenseifner,
        Algorithm::Ring,
        Algorithm::BinomialReduceBcast,
        Algorithm::SingleLeader {
            inner: FlatAlg::RecursiveDoubling,
        },
        Algorithm::Dpml {
            leaders: 2,
            inner: FlatAlg::RecursiveDoubling,
        },
        Algorithm::Dpml {
            leaders: 4,
            inner: FlatAlg::Ring,
        },
        Algorithm::DpmlPipelined {
            leaders: 2,
            chunks: 4,
        },
    ]
}

/// `f64` as its exact bit pattern — immune to decimal round-trip noise.
fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ResourceDigest {
    name: String,
    bytes_bits: String,
    mean_util_bits: String,
    peak_util_bits: String,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CaseDigest {
    cluster: String,
    algorithm: String,
    nodes: u32,
    ppn: u32,
    bytes: u64,
    makespan_bits: String,
    finish_time_bits: Vec<String>,
    messages: u64,
    inter_node_messages: u64,
    inter_node_bytes: u64,
    copies: u64,
    reduces: u64,
    sharp_ops: u64,
    events: u64,
    peak_flows: u64,
    resources: Vec<ResourceDigest>,
    /// Critical-path attribution, one f64 bit pattern per
    /// [`CostKind::ALL`] entry in order.
    critical_bits: Vec<String>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Goldens {
    version: u32,
    note: String,
    cases: Vec<CaseDigest>,
}

fn digest_case(tag: &str, preset: &Preset, alg: Algorithm, bytes: u64) -> CaseDigest {
    let spec = preset.spec(NODES, PPN).expect("golden cluster shape");
    let run = profile_allreduce(&Scenario::new(preset, &spec, alg, bytes))
        .unwrap_or_else(|e| panic!("golden case {tag}/{}/{bytes}: {e}", alg.name()));
    let report = &run.report;
    CaseDigest {
        cluster: tag.to_string(),
        algorithm: alg.name(),
        nodes: NODES,
        ppn: PPN,
        bytes,
        makespan_bits: bits(report.makespan().seconds()),
        finish_time_bits: report
            .finish_times
            .iter()
            .map(|t| bits(t.seconds()))
            .collect(),
        messages: report.stats.messages,
        inter_node_messages: report.stats.inter_node_messages,
        inter_node_bytes: report.stats.inter_node_bytes,
        copies: report.stats.copies,
        reduces: report.stats.reduces,
        sharp_ops: report.stats.sharp_ops,
        events: report.stats.events,
        peak_flows: report.stats.peak_flows as u64,
        resources: report
            .resources
            .iter()
            .map(|r| ResourceDigest {
                name: r.name.clone(),
                bytes_bits: bits(r.bytes),
                mean_util_bits: bits(r.mean_util),
                peak_util_bits: bits(r.peak_util),
            })
            .collect(),
        critical_bits: CostKind::ALL
            .iter()
            .map(|&k| bits(run.critical.total_of(k)))
            .collect(),
    }
}

fn compute_goldens() -> Goldens {
    let mut cases = Vec::new();
    for (tag, preset) in clusters() {
        for alg in algorithms() {
            for &bytes in &SIZES {
                cases.push(digest_case(tag, &preset, alg, bytes));
            }
        }
    }
    Goldens {
        version: 1,
        note: "Engine behavior digests (bit-exact f64 patterns). Regenerate only for \
               intentional behavior changes: GOLDEN_BLESS=1 cargo test --test golden_equivalence"
            .to_string(),
        cases,
    }
}

#[test]
fn engine_reproduces_golden_digests_bit_exactly() {
    let computed = compute_goldens();
    assert_eq!(computed.cases.len(), 64, "the golden matrix is 4×8×2");

    if std::env::var("GOLDEN_BLESS").as_deref() == Ok("1") {
        std::fs::create_dir_all("tests/golden").unwrap();
        let json = serde_json::to_string_pretty(&computed).unwrap();
        std::fs::write(GOLDEN_PATH, json + "\n").unwrap();
        eprintln!("blessed {} cases into {GOLDEN_PATH}", computed.cases.len());
        return;
    }

    let raw = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_else(|e| {
        panic!(
            "{GOLDEN_PATH} missing ({e}); record it with \
             GOLDEN_BLESS=1 cargo test --test golden_equivalence"
        )
    });
    let golden: Goldens = serde_json::from_str(&raw).expect("parse golden file");
    assert_eq!(golden.version, 1);
    assert_eq!(
        golden.cases.len(),
        computed.cases.len(),
        "golden case count changed; re-bless if intentional"
    );

    let mut mismatches = Vec::new();
    for (want, got) in golden.cases.iter().zip(&computed.cases) {
        let key = (&want.cluster, &want.algorithm, want.bytes);
        assert_eq!(
            key,
            (&got.cluster, &got.algorithm, got.bytes),
            "golden matrix order changed; re-bless if intentional"
        );
        if want != got {
            mismatches.push(format!(
                "cluster {} {} @ {}B:\n  golden: {:?}\n  got:    {:?}",
                want.cluster, want.algorithm, want.bytes, want, got
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of {} golden cases diverged (bit-exact check):\n{}",
        mismatches.len(),
        golden.cases.len(),
        mismatches.join("\n")
    );
}
