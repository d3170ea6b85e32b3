//! Integrity sweep — what does end-to-end data integrity cost, and does
//! anything slip through? (DESIGN.md §10; EXPERIMENTS.md `integrity` row.)
//!
//! Sweeps the wire corruption rate against the full collective matrix on
//! Cluster B, running every point through the self-verifying allreduce
//! ([`dpml_core::integrity::run_allreduce_verified`]) across several
//! seeds. Every run must end in one of exactly two states: a result
//! **bit-identical to the fault-free baseline**, or a structured
//! [`IntegrityError`](dpml_core::integrity::IntegrityError) — a silent
//! escape (corrupt data returned as success, or a verification mismatch)
//! fails the binary with a nonzero exit so CI can gate on it.
//!
//! Two more sections pin the claims down:
//!
//! * the corruption-rate-zero column measures the pure verification
//!   overhead (per-rank result checksum), which must stay under 5% of
//!   the unverified baseline, and
//! * a real-bytes pass poisons the threaded shared-memory runtime's
//!   publish path ([`dpml_shm::PoisonPlan`]) and requires the recovered
//!   result to equal the clean run exactly.
//!
//! Usage: `integrity [--nodes N] [--bytes B] [--seeds K] [--budget R]
//! [--canonical]` — `--canonical` layers the data faults on top of
//! `FaultPlan::canonical(seed, 0.5)` (OS noise, brownout, link flap),
//! the nightly chaos-soak configuration.

use dpml_bench::{arg_flag, arg_num, fmt_bytes, fmt_us, save_results, sweep, Table};
use dpml_core::algorithms::{Algorithm, FlatAlg};
use dpml_core::integrity::{
    run_allreduce_verified, IntegrityErrorKind, IntegrityPolicy, VerifiedError,
};
use dpml_fabric::presets::cluster_b;
use dpml_faults::{DataFaults, FaultPlan};
use dpml_shm::kernels::SumOp;
use dpml_shm::{IntraAlgo, NodeRuntime, PoisonPlan};
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    algorithm: String,
    bytes: u64,
    corruption_rate: f64,
    drop_rate: f64,
    seed: u64,
    outcome: String,
    total_latency_us: f64,
    overhead_fraction: f64,
    retransmits: u64,
    corruptions_detected: u64,
    undetected_risk: f64,
    restarts: u32,
    recovered_partition: Option<u32>,
}

#[derive(Serialize)]
struct OverheadPoint {
    algorithm: String,
    base_latency_us: f64,
    verify_overhead_us: f64,
    overhead_fraction: f64,
}

#[derive(Serialize)]
struct ShmPoint {
    ppn: usize,
    leaders: usize,
    seed: u64,
    crc_fails: u64,
    retransmits: u64,
    bit_identical: bool,
}

#[derive(Serialize)]
struct Coverage {
    runs: usize,
    verified_ok: usize,
    structured_errors: usize,
    silent_escapes: usize,
    detection_coverage: f64,
}

#[derive(Serialize)]
struct Results {
    nodes: u32,
    ppn: u32,
    bytes: u64,
    seeds: u64,
    retry_budget: u32,
    coverage: Coverage,
    overhead_at_zero: Vec<OverheadPoint>,
    sweep: Vec<Point>,
    shm_poison: Vec<ShmPoint>,
}

const RATES: [f64; 6] = [0.0, 0.005, 0.01, 0.02, 0.05, 0.1];

fn matrix() -> Vec<Algorithm> {
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

fn main() {
    let nodes = arg_num("--nodes", 4u32);
    let bytes = arg_num("--bytes", 65_536u64);
    let seeds = arg_num("--seeds", 3u64);
    let budget = arg_num("--budget", 64u32);
    let canonical = arg_flag("--canonical");
    let preset = cluster_b();
    let spec = preset.spec(nodes, 4).expect("spec");
    let policy = IntegrityPolicy::default();

    println!(
        "integrity sweep on {} ({nodes} nodes x {} ppn), {} per point, {} seeds, budget {budget}{}",
        preset.fabric.name,
        spec.ppn,
        fmt_bytes(bytes),
        seeds,
        if canonical {
            ", on top of canonical(0.5) noise/link faults"
        } else {
            ""
        }
    );

    // Each (algorithm, rate, seed) point is a closed world: its own fault
    // plan and RNG stream, nothing shared. Run the matrix through the
    // scenario-parallel sweep runner; results come back in input order, so
    // the table, counters, and serialized JSON are identical to the old
    // serial triple loop.
    let mut scenarios = Vec::new();
    for alg in matrix() {
        for rate in RATES {
            for seed in 1..=seeds {
                scenarios.push((alg, rate, seed));
            }
        }
    }
    let outcomes = sweep(scenarios, |(alg, rate, seed)| {
        let base = if canonical {
            FaultPlan::canonical(seed, 0.5)
        } else {
            FaultPlan::zero()
        };
        let plan = FaultPlan {
            seed,
            data: DataFaults {
                max_retransmits: budget,
                ..DataFaults::wire(rate, rate / 2.0)
            },
            ..base
        };
        match run_allreduce_verified(&preset, &spec, alg, bytes, &plan, policy) {
            Ok(rep) => {
                let overhead = (rate == 0.0 && seed == 1).then(|| OverheadPoint {
                    algorithm: rep.algorithm.clone(),
                    base_latency_us: rep.base_latency_us,
                    verify_overhead_us: rep.verify_overhead_us,
                    overhead_fraction: rep.overhead_fraction(),
                });
                let point = Point {
                    algorithm: rep.algorithm.clone(),
                    bytes,
                    corruption_rate: rate,
                    drop_rate: rate / 2.0,
                    seed,
                    outcome: "bit-identical".into(),
                    total_latency_us: rep.total_latency_us,
                    overhead_fraction: rep.overhead_fraction(),
                    retransmits: rep.retransmits(),
                    corruptions_detected: rep.corruptions_detected(),
                    undetected_risk: rep.undetected_risk(),
                    restarts: rep.restarts,
                    recovered_partition: rep.recovery.as_ref().map(|r| r.partition),
                };
                (overhead, point)
            }
            Err(VerifiedError::Integrity(e)) => {
                // A VerifyMismatch means the ladder let corrupt
                // data reach the finish line — that IS an escape.
                let escaped = e.kind == IntegrityErrorKind::VerifyMismatch;
                let name = if escaped {
                    "ESCAPE"
                } else {
                    "structured-error"
                };
                let point = Point {
                    algorithm: alg.name(),
                    bytes,
                    corruption_rate: rate,
                    drop_rate: rate / 2.0,
                    seed,
                    outcome: name.into(),
                    total_latency_us: f64::NAN,
                    overhead_fraction: f64::NAN,
                    retransmits: 0,
                    corruptions_detected: 0,
                    undetected_risk: 0.0,
                    restarts: 0,
                    recovered_partition: None,
                };
                (None, point)
            }
            Err(VerifiedError::Run(e)) => {
                panic!(
                    "{} rate {rate} seed {seed}: harness failure: {e}",
                    alg.name()
                )
            }
        }
    });

    let mut sweep_points = Vec::new();
    let mut overhead_at_zero = Vec::new();
    let mut verified_ok = 0usize;
    let mut structured_errors = 0usize;
    let mut silent_escapes = 0usize;
    let mut table = Table::new([
        "algorithm",
        "rate",
        "seed",
        "outcome",
        "total",
        "overhead",
        "rtx",
        "detected",
    ]);
    for (overhead, point) in outcomes {
        match point.outcome.as_str() {
            "bit-identical" => verified_ok += 1,
            "ESCAPE" => silent_escapes += 1,
            _ => structured_errors += 1,
        }
        overhead_at_zero.extend(overhead);
        table.row([
            point.algorithm.clone(),
            format!("{:.3}", point.corruption_rate),
            point.seed.to_string(),
            point.outcome.clone(),
            if point.total_latency_us.is_nan() {
                "-".into()
            } else {
                fmt_us(point.total_latency_us)
            },
            if point.overhead_fraction.is_nan() {
                "-".into()
            } else {
                format!("{:.1}%", 100.0 * point.overhead_fraction)
            },
            point.retransmits.to_string(),
            point.corruptions_detected.to_string(),
        ]);
        sweep_points.push(point);
    }
    table.print();

    // Real-bytes detection: poison every shared-memory publish of the
    // threaded runtime and demand exact recovery.
    println!("\nreal-threads publish poisoning (ppn 4, 2 leaders, rate 1.0):");
    let mut shm_poison = Vec::new();
    use dpml_shm::metrics::{SHM_CRC_FAIL, SHM_RETRANSMIT};
    for seed in 1..=seeds {
        let rt = NodeRuntime::new(4);
        let inputs: Vec<Vec<f64>> = (0..4)
            .map(|r| {
                (0..1024)
                    .map(|i| ((seed as usize * 31 + r * 7 + i) % 97) as f64 * 0.25 - 3.0)
                    .collect()
            })
            .collect();
        let algo = IntraAlgo::MultiLeader { leaders: 2 };
        let clean = rt.allreduce(&inputs, algo);
        let before = [SHM_CRC_FAIL.get(), SHM_RETRANSMIT.get()];
        let poisoned =
            rt.allreduce_op_checked(SumOp, &inputs, algo, Some(PoisonPlan { seed, rate: 1.0 }));
        let bit_identical = poisoned == clean;
        if !bit_identical {
            silent_escapes += 1;
        }
        let p = ShmPoint {
            ppn: 4,
            leaders: 2,
            seed,
            crc_fails: SHM_CRC_FAIL.get() - before[0],
            retransmits: SHM_RETRANSMIT.get() - before[1],
            bit_identical,
        };
        println!(
            "  seed {seed}: {} detections, {} redos, recovered {}",
            p.crc_fails,
            p.retransmits,
            if bit_identical {
                "bit-identically"
            } else {
                "WRONG"
            }
        );
        shm_poison.push(p);
    }

    let runs = sweep_points.len() + shm_poison.len();
    let coverage = Coverage {
        runs,
        verified_ok,
        structured_errors,
        silent_escapes,
        detection_coverage: (runs - silent_escapes) as f64 / runs as f64,
    };
    println!(
        "\ncoverage: {} runs, {} bit-identical, {} structured errors, {} escapes ({:.1}% detection)",
        coverage.runs,
        coverage.verified_ok,
        coverage.structured_errors,
        coverage.silent_escapes,
        100.0 * coverage.detection_coverage
    );
    println!("\nverification overhead at corruption rate 0:");
    let mut worst_overhead = 0.0f64;
    for o in &overhead_at_zero {
        println!(
            "  {:<18} base {:>10} + verify {:>8.2}us = {:.2}%",
            o.algorithm,
            fmt_us(o.base_latency_us),
            o.verify_overhead_us,
            100.0 * o.overhead_fraction
        );
        worst_overhead = worst_overhead.max(o.overhead_fraction);
    }

    let escapes = coverage.silent_escapes;
    let results = Results {
        nodes,
        ppn: spec.ppn,
        bytes,
        seeds,
        retry_budget: budget,
        coverage,
        overhead_at_zero,
        sweep: sweep_points,
        shm_poison,
    };
    let path = save_results("integrity", &results).expect("write results");
    println!("\nwrote {}", path.display());

    if escapes > 0 {
        eprintln!("FAIL: {escapes} silent-corruption escape(s)");
        std::process::exit(1);
    }
    if worst_overhead > 0.05 {
        eprintln!(
            "FAIL: verification overhead {:.2}% exceeds 5%",
            100.0 * worst_overhead
        );
        std::process::exit(1);
    }
}
