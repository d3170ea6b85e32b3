//! Beyond the paper: degradation under injected faults and end-to-end
//! data integrity (DESIGN.md §7 and §10).

use super::{dpml, say, Output, Report};
use crate::{fmt_bytes, fmt_us, sweep, Table};
use dpml_core::algorithms::{Algorithm, FlatAlg};
use dpml_core::integrity::{
    run_allreduce_verified, IntegrityErrorKind, IntegrityPolicy, IntegrityReport, VerifiedError,
};
use dpml_fabric::presets::{cluster_a, cluster_b};
use dpml_faults::{DataFaults, FaultPlan, SharpFaults};
use dpml_shm::metrics::{SHM_CRC_FAIL, SHM_RETRANSMIT};
use dpml_shm::{NodeRuntime, PoisonPlan};
use serde::Serialize;

/// Resilience sweep — how gracefully does each design degrade under
/// injected faults?
///
/// Runs the canonical fault scenario ([`FaultPlan::canonical`], seed 7:
/// OS noise, a fabric-wide brownout, and a deep flap on node 0) at
/// increasing intensity against recursive doubling, DPML, and the SHArP
/// socket-leader design on Cluster A, 8 nodes, reporting the slowdown
/// relative to each algorithm's own fault-free baseline. A second section
/// exercises the ladder's SHArP rungs: group denial and flaky
/// operations, showing the fallback completing (and verifying) on a
/// host-based schedule. Every point runs through the one recovery ladder
/// ([`run_allreduce_verified`]), so each latency includes the per-rank
/// result checksum.
pub(super) fn resilience() -> Output {
    #[derive(Serialize)]
    struct Point {
        algorithm: String,
        bytes: u64,
        intensity: f64,
        latency_us: f64,
        slowdown: f64,
        sharp_retries: u64,
        fell_back: bool,
        completed_with: String,
    }

    #[derive(Serialize)]
    struct Degradation {
        scenario: String,
        algorithm: String,
        bytes: u64,
        latency_us: f64,
        sharp_retries: u64,
        fell_back: bool,
        completed_with: String,
    }

    #[derive(Serialize)]
    struct Results {
        nodes: u32,
        ppn: u32,
        seed: u64,
        sweep: Vec<Point>,
        degradation: Vec<Degradation>,
    }

    let (nodes, seed) = (8u32, 7u64);
    let preset = cluster_a();
    let spec = preset.spec(nodes, 28).expect("spec");

    // Each design at a size it is actually dispatched for (Section 6.4):
    // SHArP for the latency zone, recursive doubling small/medium, DPML
    // medium/large.
    let cases = [
        (Algorithm::RecursiveDoubling, 16 * 1024),
        (dpml(8), 256 * 1024),
        (Algorithm::SharpSocketLeader, 256),
    ];

    let verified = |alg, bytes, plan: &FaultPlan| {
        run_allreduce_verified(&preset, &spec, alg, bytes, plan, IntegrityPolicy::default())
    };
    let sharp_rungs = |rep: &IntegrityReport| {
        let stats = &rep.report.stats;
        (stats.sharp_retries, stats.sharp_fallbacks > 0)
    };

    let mut r = Report::default();
    let (fabric, ppn) = (&preset.fabric.name, spec.ppn);
    say!(
        r,
        "resilience sweep on {fabric} ({nodes} nodes x {ppn} ppn), seed {seed}"
    );

    let mut sweep = Vec::new();
    let mut table = Table::new([
        "algorithm",
        "bytes",
        "intensity",
        "latency",
        "slowdown",
        "note",
    ]);
    for (alg, bytes) in cases {
        let mut baseline_us = None;
        for intensity in [0.0, 0.25, 0.5, 1.0] {
            let rep = verified(alg, bytes, &FaultPlan::canonical(seed, intensity))
                .expect("faulted run completes");
            let base = *baseline_us.get_or_insert(rep.total_latency_us);
            let slowdown = rep.total_latency_us / base;
            let (sharp_retries, fell_back) = sharp_rungs(&rep);
            let note = if fell_back {
                format!("fell back to {}", rep.completed_with)
            } else if sharp_retries > 0 {
                format!("{sharp_retries} retries")
            } else {
                String::new()
            };
            table.row([
                rep.algorithm.clone(),
                fmt_bytes(bytes),
                format!("{intensity:.2}"),
                fmt_us(rep.total_latency_us),
                format!("{slowdown:.2}x"),
                note,
            ]);
            sweep.push(Point {
                algorithm: rep.algorithm,
                bytes,
                intensity,
                latency_us: rep.total_latency_us,
                slowdown,
                sharp_retries,
                fell_back,
                completed_with: rep.completed_with,
            });
        }
    }
    r.table(&table);

    // The SHArP rungs: denial falls straight back to a host schedule; a
    // flaky fabric retries then succeeds. Both verify.
    say!(r, "\nSHArP degradation ladder (socket-leader, 256B):");
    let mut degradation = Vec::new();
    let mut ladder = Table::new(["scenario", "latency", "retries", "completed with"]);
    let scenarios: [(&str, SharpFaults); 2] = [
        (
            "group denial",
            SharpFaults {
                deny_groups: true,
                ..Default::default()
            },
        ),
        (
            "flaky ops (2 failures)",
            SharpFaults {
                flaky_attempts: 2,
                op_timeout: 1e-4,
                ..Default::default()
            },
        ),
    ];
    for (name, sharp) in scenarios {
        let plan = FaultPlan {
            sharp,
            ..FaultPlan::zero()
        };
        let rep =
            verified(Algorithm::SharpSocketLeader, 256, &plan).expect("degraded run completes");
        let (sharp_retries, fell_back) = sharp_rungs(&rep);
        ladder.row([
            name.to_string(),
            fmt_us(rep.total_latency_us),
            sharp_retries.to_string(),
            rep.completed_with.clone(),
        ]);
        degradation.push(Degradation {
            scenario: name.to_string(),
            algorithm: rep.algorithm,
            bytes: 256,
            latency_us: rep.total_latency_us,
            sharp_retries,
            fell_back,
            completed_with: rep.completed_with,
        });
    }
    r.table(&ladder);

    let results = Results {
        nodes,
        ppn: spec.ppn,
        seed,
        sweep,
        degradation,
    };
    let path = r.json("resilience", &results);
    say!(r, "\nwrote {path}");
    r.into_stdout()
}

/// Integrity sweep — what does end-to-end data integrity cost, and does
/// anything slip through?
///
/// Sweeps the wire corruption rate against the full collective matrix on
/// Cluster B (4 nodes × 4 ppn, 64 KiB, seeds 1–3, retransmit budget 64),
/// running every point through the self-verifying allreduce
/// ([`run_allreduce_verified`]). Every run must end in one of exactly two
/// states: a result **bit-identical to the fault-free baseline**, or a
/// structured [`IntegrityError`](dpml_core::integrity::IntegrityError). A
/// silent escape (corrupt data returned as success, or a verification
/// mismatch) fails the entry's gate.
///
/// Two more sections pin the claims down:
///
/// * the corruption-rate-zero column measures the pure verification
///   overhead (per-rank result checksum), which must stay under 5% of
///   the unverified baseline, and
/// * a real-bytes pass poisons the threaded shared-memory runtime's
///   publish path ([`PoisonPlan`]) and requires the recovered result to
///   equal the clean run exactly.
pub(super) fn integrity() -> Output {
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

    let (nodes, bytes, seeds, budget) = (4u32, 65_536u64, 3u64, 64u32);
    let preset = cluster_b();
    let spec = preset.spec(nodes, 4).expect("spec");
    let policy = IntegrityPolicy::default();
    let matrix = [
        Algorithm::RecursiveDoubling,
        Algorithm::Rabenseifner,
        Algorithm::Ring,
        Algorithm::BinomialReduceBcast,
        Algorithm::SingleLeader {
            inner: FlatAlg::RecursiveDoubling,
        },
        dpml(2),
        Algorithm::Dpml {
            leaders: 4,
            inner: FlatAlg::Ring,
        },
        Algorithm::DpmlPipelined {
            leaders: 2,
            chunks: 4,
        },
    ];

    let mut r = Report::default();
    let (fabric, ppn, size) = (&preset.fabric.name, spec.ppn, fmt_bytes(bytes));
    say!(
        r,
        "integrity sweep on {fabric} ({nodes} nodes x {ppn} ppn), {size} per point, {seeds} seeds, budget {budget}"
    );

    // Each (algorithm, rate, seed) point is a closed world: its own fault
    // plan and RNG stream, nothing shared. Run the matrix through the
    // scenario-parallel sweep runner; results come back in input order, so
    // the table, counters, and serialized JSON match a serial triple loop.
    let mut scenarios = Vec::new();
    for alg in matrix {
        for rate in [0.0, 0.005, 0.01, 0.02, 0.05, 0.1] {
            for seed in 1..=seeds {
                scenarios.push((alg, rate, seed));
            }
        }
    }
    let outcomes = sweep(scenarios, |(alg, rate, seed)| {
        let plan = FaultPlan {
            seed,
            data: DataFaults {
                max_retransmits: budget,
                ..DataFaults::wire(rate, rate / 2.0)
            },
            ..FaultPlan::zero()
        };
        let failed = Point {
            algorithm: alg.name(),
            bytes,
            corruption_rate: rate,
            drop_rate: rate / 2.0,
            seed,
            outcome: "structured-error".into(),
            total_latency_us: f64::NAN,
            overhead_fraction: f64::NAN,
            retransmits: 0,
            corruptions_detected: 0,
            undetected_risk: 0.0,
            restarts: 0,
            recovered_partition: None,
        };
        let rep = match run_allreduce_verified(&preset, &spec, alg, bytes, &plan, policy) {
            Ok(rep) => rep,
            // A VerifyMismatch means the ladder let corrupt data reach
            // the finish line — that IS an escape.
            Err(VerifiedError::Integrity(e)) if e.kind == IntegrityErrorKind::VerifyMismatch => {
                return (
                    None,
                    Point {
                        outcome: "ESCAPE".into(),
                        ..failed
                    },
                );
            }
            Err(VerifiedError::Integrity(_)) => return (None, failed),
            Err(VerifiedError::Run(e)) => {
                panic!(
                    "{} rate {rate} seed {seed}: harness failure: {e}",
                    alg.name()
                )
            }
        };
        let overhead = (rate == 0.0 && seed == 1).then(|| OverheadPoint {
            algorithm: rep.algorithm.clone(),
            base_latency_us: rep.base_latency_us,
            verify_overhead_us: rep.verify_overhead_us,
            overhead_fraction: rep.overhead_fraction(),
        });
        let point = Point {
            algorithm: rep.algorithm.clone(),
            outcome: "bit-identical".into(),
            total_latency_us: rep.total_latency_us,
            overhead_fraction: rep.overhead_fraction(),
            retransmits: rep.retransmits(),
            corruptions_detected: rep.corruptions_detected(),
            undetected_risk: rep.undetected_risk(),
            restarts: rep.restarts,
            recovered_partition: rep.recovery.as_ref().map(|r| r.partition),
            ..failed
        };
        (overhead, point)
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
    r.table(&table);

    // Real-bytes detection: poison every shared-memory publish of the
    // threaded runtime and demand exact recovery.
    say!(
        r,
        "\nreal-threads publish poisoning (ppn 4, 2 leaders, rate 1.0):"
    );
    let mut shm_poison = Vec::new();
    for seed in 1..=seeds {
        let rt = NodeRuntime::new(4);
        let inputs: Vec<Vec<f64>> = (0..4)
            .map(|r| {
                (0..1024)
                    .map(|i| ((seed as usize * 31 + r * 7 + i) % 97) as f64 * 0.25 - 3.0)
                    .collect()
            })
            .collect();
        let clean = rt.allreduce(&inputs, 2);
        let before = [SHM_CRC_FAIL.get(), SHM_RETRANSMIT.get()];
        let poisoned = rt.allreduce_checked(&inputs, 2, Some(PoisonPlan { seed, rate: 1.0 }));
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
        let (crc, redo) = (p.crc_fails, p.retransmits);
        let how = if bit_identical {
            "bit-identically"
        } else {
            "WRONG"
        };
        say!(
            r,
            "  seed {seed}: {crc} detections, {redo} redos, recovered {how}"
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
    say!(
        r,
        "\ncoverage: {} runs, {} bit-identical, {} structured errors, {} escapes ({:.1}% detection)",
        coverage.runs,
        coverage.verified_ok,
        coverage.structured_errors,
        coverage.silent_escapes,
        100.0 * coverage.detection_coverage
    );
    say!(r, "\nverification overhead at corruption rate 0:");
    let mut worst_overhead = 0.0f64;
    for o in &overhead_at_zero {
        say!(
            r,
            "  {:<18} base {:>10} + verify {:>8.2}us = {:.2}%",
            o.algorithm,
            fmt_us(o.base_latency_us),
            o.verify_overhead_us,
            100.0 * o.overhead_fraction
        );
        worst_overhead = worst_overhead.max(o.overhead_fraction);
    }

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
    let path = r.json("integrity", &results);
    say!(r, "\nwrote {path}");

    let mut out = r.into_stdout();
    if silent_escapes > 0 {
        out.failure = Some(format!("{silent_escapes} silent-corruption escape(s)"));
    } else if worst_overhead > 0.05 {
        out.failure = Some(format!(
            "verification overhead {:.2}% exceeds 5%",
            100.0 * worst_overhead
        ));
    }
    out
}
