//! `dpml` — command-line front end to the simulator and algorithm library.
//!
//! ```text
//! dpml info
//! dpml simulate --cluster c --nodes 16 --alg dpml:16 --bytes 64K
//! dpml profile  --cluster a --nodes 8  --alg dpml:4  --bytes 64K [--sweep]
//! dpml sweep    --cluster b --nodes 16 --alg dpml:16 [--alg rd ...]
//! dpml compare  --cluster d --nodes 8  --bytes 512K
//! dpml tune     --cluster c --nodes 8  [--out tuned.json]
//! dpml app      --app hpcg|miniamr --cluster a --nodes 8
//! dpml faults   --cluster a --nodes 8 --alg sharp-socket --bytes 256 --intensity 0.5
//! dpml recover  --cluster a --nodes 4 --leaders 2 --bytes 1M --crash-rank 6 --crash-at-us 800
//! dpml integrity --cluster b --nodes 4 --alg dpml:4 --bytes 256K --corruption 0.05 --drop 0.02
//! dpml serve    --addr 127.0.0.1:7077 --workers 4 --journal serve.journal
//! dpml top      --addr 127.0.0.1:7077 --interval 1000 # live telemetry dashboard
//! dpml metrics  --addr 127.0.0.1:7077                 # Prometheus-style exposition
//! dpml chaos    campaign --seed 7 --budget 256        # coverage-guided search
//! dpml chaos    mine --dir tests/corpus               # shrink + commit reproducers
//! dpml chaos    replay --dir tests/corpus             # bit-exact corpus replay
//! ```
//!
//! Exit codes (stable, for scripts and CI):
//!
//! | code | class     | meaning                                            |
//! |------|-----------|----------------------------------------------------|
//! | 0    | ok        | command succeeded                                  |
//! | 1    | internal  | I/O or other unexpected failure                    |
//! | 2    | usage     | bad flags, sizes, algorithm specs, unknown command |
//! | 3    | build     | topology or schedule construction failed           |
//! | 4    | sim       | the discrete-event simulation itself failed        |
//! | 5    | integrity | result verification failed or the integrity ladder |
//! |      |           | exhausted its budget (no trustworthy result)       |
//! | 6    | partial   | sweep finished but some scenarios failed; the      |
//! |      |           | table above the summary holds the partial results  |

use dpml::chaos::{
    replay_dir, run_campaign, run_serve_campaign, shrink_case, CampaignConfig, Reproducer,
    ServeCampaignConfig,
};
use dpml::core::algorithms::{Algorithm, FlatAlg};
use dpml::core::heal::{run_dpml_failstop, FailstopOutcome};
use dpml::core::integrity::{run_allreduce_verified, IntegrityPolicy, VerifiedError};
use dpml::core::profile::profile_allreduce;
use dpml::core::resilience::{run_allreduce_resilient, FaultPolicy};
use dpml::core::run::{run_allreduce, RunError};
use dpml::core::selector::Library;
use dpml::core::tuner::{default_candidates, tune};
use dpml::fabric::presets::{all_presets, Preset};
use dpml::faults::{DataFaults, FaultPlan, ProcessFaults, SharpFaults};
use dpml::serve::{start, ServeConfig};
use dpml::topology::ClusterSpec;
use dpml::workloads::app::{run_app, AppError};
use dpml::workloads::{HpcgConfig, MiniAmrConfig};

/// A classified CLI failure. Each class maps to a distinct, documented
/// exit code (see the module docs) so scripts can branch on *why* a
/// command failed without parsing stderr.
enum CliError {
    /// I/O or other unexpected failure (exit 1).
    Internal(String),
    /// Bad flags, sizes, algorithm specs, unknown command (exit 2).
    Usage(String),
    /// Topology or schedule construction failed (exit 3).
    Build(String),
    /// The simulation itself failed — deadlock, budget, oracle (exit 4).
    Sim(String),
    /// Verification or data-integrity failure (exit 5).
    Integrity(String),
    /// A sweep completed but some scenarios failed (exit 6).
    Partial { failed: usize, total: usize },
}

impl CliError {
    fn io(e: impl std::fmt::Display) -> Self {
        CliError::Internal(e.to_string())
    }

    fn class(&self) -> &'static str {
        match self {
            CliError::Internal(_) => "internal",
            CliError::Usage(_) => "usage",
            CliError::Build(_) => "build",
            CliError::Sim(_) => "sim",
            CliError::Integrity(_) => "integrity",
            CliError::Partial { .. } => "partial",
        }
    }

    fn code(&self) -> i32 {
        match self {
            CliError::Internal(_) => 1,
            CliError::Usage(_) => 2,
            CliError::Build(_) => 3,
            CliError::Sim(_) => 4,
            CliError::Integrity(_) => 5,
            CliError::Partial { .. } => 6,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Internal(m)
            | CliError::Usage(m)
            | CliError::Build(m)
            | CliError::Sim(m)
            | CliError::Integrity(m) => write!(f, "{m}"),
            CliError::Partial { failed, total } => write!(
                f,
                "sweep completed with {failed} of {total} scenarios failed \
                 (partial results above)"
            ),
        }
    }
}

/// Bare-string errors come from flag/spec parsing — usage class.
impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Usage(msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> Self {
        CliError::Usage(msg.into())
    }
}

impl From<RunError> for CliError {
    fn from(e: RunError) -> Self {
        match &e {
            RunError::Topology(_) | RunError::Build(_) | RunError::NoSharpOnFabric => {
                CliError::Build(e.to_string())
            }
            RunError::Sim(_) => CliError::Sim(e.to_string()),
            RunError::Verify(_) => CliError::Integrity(e.to_string()),
        }
    }
}

impl From<AppError> for CliError {
    fn from(e: AppError) -> Self {
        match &e {
            AppError::Topology(_) | AppError::Build(_) => CliError::Build(e.to_string()),
            AppError::Sim(_) => CliError::Sim(e.to_string()),
        }
    }
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn arg_values(args: &[String], flag: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < args.len() {
        if args[i] == flag {
            out.push(args[i + 1].clone());
            i += 1;
        }
        i += 1;
    }
    out
}

/// Parse sizes like `64`, `4K`, `2M`.
fn parse_bytes(s: &str) -> Result<u64, String> {
    let s = s.trim();
    let (num, mult) = match s.chars().last() {
        Some('K') | Some('k') => (&s[..s.len() - 1], 1024u64),
        Some('M') | Some('m') => (&s[..s.len() - 1], 1 << 20),
        _ => (s, 1),
    };
    num.parse::<u64>()
        .map(|v| v * mult)
        .map_err(|e| format!("bad size `{s}`: {e}"))
}

/// Parse algorithm specs via the canonical grammar in
/// [`Algorithm::parse`] (shared with the serve protocol):
/// `rd | rabenseifner | ring | binomial | single-leader[:rd|rab|ring]
///  | dpml:<l>[:rd|rab|ring] | dpml-pipelined:<l>:<k>
///  | sharp-node | sharp-socket`.
fn parse_algorithm(s: &str) -> Result<Algorithm, String> {
    Algorithm::parse(s)
}

fn cluster_and_spec(args: &[String]) -> Result<(Preset, ClusterSpec), String> {
    let id = arg_value(args, "--cluster").unwrap_or_else(|| "c".into());
    let preset = Preset::by_id(&id).ok_or(format!("unknown cluster `{id}` (a|b|c|d)"))?;
    let nodes: u32 = arg_value(args, "--nodes")
        .map(|v| v.parse().map_err(|e| format!("bad --nodes: {e}")))
        .transpose()?
        .unwrap_or(8);
    let ppn: u32 = arg_value(args, "--ppn")
        .map(|v| v.parse().map_err(|e| format!("bad --ppn: {e}")))
        .transpose()?
        .unwrap_or(preset.default_ppn);
    let spec = preset.spec(nodes, ppn).map_err(|e| e.to_string())?;
    Ok((preset, spec))
}

fn cmd_info() {
    println!("cluster presets (--cluster):");
    for p in all_presets() {
        println!(
            "  {}  {}  ({} sockets x {} cores, default ppn {}, up to {} nodes)",
            p.id.to_lowercase(),
            p.fabric.name,
            p.sockets_per_node,
            p.cores_per_socket,
            p.default_ppn,
            p.max_nodes
        );
    }
    println!("\nalgorithms (--alg):");
    for a in [
        "rd",
        "rabenseifner",
        "ring",
        "binomial",
        "single-leader[:rd|rab|ring]",
        "dpml:<leaders>[:rd|rab|ring]",
        "dpml-pipelined:<leaders>:<chunks>",
        "sharp-node (cluster a only)",
        "sharp-socket (cluster a only)",
    ] {
        println!("  {a}");
    }
    println!("\nsizes accept K/M suffixes: 64, 4K, 2M");
}

fn cmd_simulate(args: &[String]) -> Result<(), CliError> {
    let (preset, spec) = cluster_and_spec(args)?;
    let alg = parse_algorithm(&arg_value(args, "--alg").ok_or("--alg required".to_string())?)?;
    let bytes = parse_bytes(&arg_value(args, "--bytes").ok_or("--bytes required".to_string())?)?;
    let rep = run_allreduce(&preset, &spec, alg, bytes)?;
    println!(
        "{} on {} ({} x {} = {} ranks), {} bytes:",
        alg.name(),
        preset.fabric.name,
        spec.num_nodes,
        spec.ppn,
        spec.world_size(),
        bytes
    );
    println!(
        "  latency          {:>12.2} us (verified correct)",
        rep.latency_us
    );
    let st = rep.report.stats;
    println!("  messages         {:>12}", st.messages);
    println!(
        "  inter-node       {:>12} msgs, {} bytes",
        st.inter_node_messages, st.inter_node_bytes
    );
    println!("  shm copies       {:>12}", st.copies);
    println!("  reductions       {:>12}", st.reduces);
    println!(
        "  sharp ops        {:>12} ({} retries, {} fallbacks)",
        st.sharp_ops, st.sharp_retries, st.sharp_fallbacks
    );
    println!("  sim events       {:>12}", st.events);
    Ok(())
}

fn cmd_profile(args: &[String]) -> Result<(), CliError> {
    let (preset, spec) = cluster_and_spec(args)?;
    let alg = parse_algorithm(&arg_value(args, "--alg").unwrap_or_else(|| "dpml:4".into()))?;

    if args.iter().any(|a| a == "--sweep") {
        // Zone-transition sweep: one profiled run per size, Figure 1 regimes.
        println!(
            "{} zone sweep on {} ({} x {} = {} ranks):",
            alg.name(),
            preset.fabric.name,
            spec.num_nodes,
            spec.ppn,
            spec.world_size()
        );
        println!(
            "{:>10} {:>12} {:>16} {:>14}",
            "size", "latency", "zone", "dominant"
        );
        let mut bytes = 4u64;
        while bytes <= 4 << 20 {
            let run = profile_allreduce(&preset, &spec, alg, bytes)?;
            println!(
                "{:>10} {:>10.2}us {:>16} {:>14}",
                bytes, run.profile.latency_us, run.profile.zone, run.profile.dominant
            );
            bytes *= 4;
        }
        return Ok(());
    }

    let bytes = parse_bytes(&arg_value(args, "--bytes").unwrap_or_else(|| "64K".into()))?;
    let run = profile_allreduce(&preset, &spec, alg, bytes)?;
    let prof = &run.profile;
    println!(
        "{} on {} ({} x {} = {} ranks), {} bytes:",
        prof.algorithm,
        preset.fabric.name,
        spec.num_nodes,
        spec.ppn,
        spec.world_size(),
        bytes
    );
    println!(
        "  latency {:.2} us   zone {}   dominant cost: {}",
        prof.latency_us, prof.zone, prof.dominant
    );

    println!("\n  phase            busy(us)  critical(us)  critical%");
    let makespan = prof.latency_us.max(f64::MIN_POSITIVE);
    for row in &prof.phases {
        println!(
            "  {:<16} {:>8.2}  {:>12.2}  {:>8.1}%",
            row.phase,
            row.busy_s * 1e6,
            row.critical_s * 1e6,
            100.0 * row.critical_s * 1e6 / makespan
        );
    }
    println!("\n  cost             critical(us)  critical%");
    for row in &prof.costs {
        println!(
            "  {:<16} {:>12.2}  {:>8.1}%",
            row.kind,
            row.critical_s * 1e6,
            100.0 * row.critical_s * 1e6 / makespan
        );
    }
    let mut busiest: Vec<_> = prof.resources.iter().collect();
    busiest.sort_by(|a, b| b.mean_util.total_cmp(&a.mean_util));
    if !busiest.is_empty() {
        println!("\n  resource          mean util  peak util        bytes");
        for r in busiest.iter().take(6) {
            println!(
                "  {:<16} {:>9.1}%  {:>8.1}%  {:>11.0}",
                r.name,
                100.0 * r.mean_util,
                100.0 * r.peak_util,
                r.bytes
            );
        }
    }

    std::fs::create_dir_all("results").map_err(CliError::io)?;
    let json_path = format!("results/profile_{}_{}.json", prof.algorithm, bytes);
    let json = serde_json::to_string_pretty(prof).map_err(CliError::io)?;
    std::fs::write(&json_path, json).map_err(CliError::io)?;
    let trace = run.report.trace.as_ref().expect("profiled run is traced");
    let trace_path = "results/dpml_timeline.json";
    std::fs::write(trace_path, trace.to_chrome_json()).map_err(CliError::io)?;
    println!("\n  profile written to {json_path}");
    println!("  Perfetto trace written to {trace_path} (open at https://ui.perfetto.dev)");
    Ok(())
}

fn cmd_sweep(args: &[String]) -> Result<(), CliError> {
    let (preset, spec) = cluster_and_spec(args)?;
    let alg_specs = arg_values(args, "--alg");
    if alg_specs.is_empty() {
        return Err("at least one --alg required".into());
    }
    let algs: Vec<Algorithm> = alg_specs
        .iter()
        .map(|s| parse_algorithm(s))
        .collect::<Result<_, _>>()?;
    println!(
        "sweep on {} ({} x {} = {} ranks)",
        preset.fabric.name,
        spec.num_nodes,
        spec.ppn,
        spec.world_size()
    );
    print!("{:>8}", "size");
    for a in &algs {
        print!("  {:>16}", a.name());
    }
    println!();
    // Fan the (size, algorithm) matrix out across worker threads; results
    // return in input order, so the table matches a serial sweep exactly.
    let mut sizes = Vec::new();
    let mut bytes = 4u64;
    while bytes <= 1 << 20 {
        sizes.push(bytes);
        bytes *= 4;
    }
    let mut scenarios = Vec::new();
    for &bytes in &sizes {
        for &a in &algs {
            scenarios.push((a, bytes));
        }
    }
    let reports = dpml_core::run::run_allreduce_batch(&preset, &spec, scenarios);
    let mut failures: Vec<(u64, String, String)> = Vec::new();
    for (i, &bytes) in sizes.iter().enumerate() {
        print!("{bytes:>8}");
        for (j, a) in algs.iter().enumerate() {
            match &reports[i * algs.len() + j] {
                Ok(rep) => print!("  {:>14.1}us", rep.latency_us),
                Err(e) => {
                    print!("  {:>16}", "-");
                    failures.push((bytes, a.name(), e.to_string()));
                }
            }
        }
        println!();
    }
    // Partial results stay on stdout above; the failure summary and the
    // distinct exit code let scripts tell "all clean" from "holes".
    if failures.is_empty() {
        Ok(())
    } else {
        let total = sizes.len() * algs.len();
        println!("\n{} of {} scenarios failed:", failures.len(), total);
        for (bytes, name, why) in &failures {
            println!("  {name} @ {bytes}B: {why}");
        }
        Err(CliError::Partial {
            failed: failures.len(),
            total,
        })
    }
}

fn cmd_compare(args: &[String]) -> Result<(), CliError> {
    let (preset, spec) = cluster_and_spec(args)?;
    let bytes = parse_bytes(&arg_value(args, "--bytes").ok_or("--bytes required")?)?;
    println!(
        "library comparison on {} ({} ranks) at {} bytes:",
        preset.fabric.name,
        spec.world_size(),
        bytes
    );
    for lib in [Library::Mvapich2, Library::IntelMpi, Library::DpmlTuned] {
        let alg = lib.choose(&preset, &spec, bytes);
        let rep = run_allreduce(&preset, &spec, alg, bytes)?;
        println!(
            "  {:<16} -> {:<16} {:>12.2} us",
            lib.name(),
            alg.name(),
            rep.latency_us
        );
    }
    Ok(())
}

fn cmd_tune(args: &[String]) -> Result<(), CliError> {
    let (preset, spec) = cluster_and_spec(args)?;
    let sizes: Vec<u64> = (2..=20).map(|e| 1u64 << e).collect();
    let cands = default_candidates(&preset, &spec);
    println!(
        "tuning {} candidates over {} sizes on {} ({} ranks)...",
        cands.len(),
        sizes.len(),
        preset.fabric.name,
        spec.world_size()
    );
    let table = tune(&preset, &spec, &sizes, &cands);
    println!("{:>10}  {:<18} {:>12}", "<= size", "algorithm", "latency");
    for e in &table.entries {
        println!(
            "{:>10}  {:<18} {:>10.2}us",
            e.max_bytes,
            e.algorithm.name(),
            e.latency_us
        );
    }
    if let Some(out) = arg_value(args, "--out") {
        let json = serde_json::to_string_pretty(&table).map_err(CliError::io)?;
        std::fs::write(&out, json).map_err(CliError::io)?;
        println!("table written to {out}");
    }
    Ok(())
}

fn cmd_app(args: &[String]) -> Result<(), CliError> {
    let (preset, spec) = cluster_and_spec(args)?;
    let app = arg_value(args, "--app").ok_or("--app hpcg|miniamr required")?;
    match app.as_str() {
        "hpcg" => {
            let cfg = HpcgConfig {
                iterations: 20,
                ..Default::default()
            };
            let profile = cfg.profile();
            println!(
                "HPCG skeleton on {} ({} ranks):",
                preset.fabric.name,
                spec.world_size()
            );
            let designs: Vec<(&str, Algorithm)> = if preset.fabric.has_sharp() {
                vec![
                    (
                        "host-based",
                        Algorithm::SingleLeader {
                            inner: FlatAlg::RecursiveDoubling,
                        },
                    ),
                    ("sharp-node", Algorithm::SharpNodeLeader),
                    ("sharp-socket", Algorithm::SharpSocketLeader),
                ]
            } else {
                vec![(
                    "host-based",
                    Algorithm::SingleLeader {
                        inner: FlatAlg::RecursiveDoubling,
                    },
                )]
            };
            for (name, alg) in designs {
                let rep = run_app(&preset, &spec, &profile, &|_| alg)?;
                println!(
                    "  {:<12} total {:>10.1}us  ddot {:>9.1}us",
                    name, rep.total_us, rep.comm_us
                );
            }
        }
        "miniamr" => {
            let cfg = MiniAmrConfig {
                refinements: 10,
                ..Default::default()
            };
            let profile = cfg.profile(spec.world_size());
            println!(
                "miniAMR skeleton on {} ({} ranks, {}B refinement tags):",
                preset.fabric.name,
                spec.world_size(),
                cfg.refinement_bytes(spec.world_size())
            );
            for lib in [Library::Mvapich2, Library::IntelMpi, Library::DpmlTuned] {
                let rep = run_app(&preset, &spec, &profile, &|b| lib.choose(&preset, &spec, b))?;
                println!("  {:<16} refine comm {:>10.1}us", lib.name(), rep.comm_us);
            }
        }
        other => return Err(CliError::Usage(format!("unknown app `{other}`"))),
    }
    Ok(())
}

fn cmd_faults(args: &[String]) -> Result<(), CliError> {
    let (preset, spec) = cluster_and_spec(args)?;
    let alg = parse_algorithm(&arg_value(args, "--alg").ok_or("--alg required")?)?;
    let bytes = parse_bytes(&arg_value(args, "--bytes").ok_or("--bytes required")?)?;
    let intensity: f64 = arg_value(args, "--intensity")
        .map(|v| v.parse().map_err(|e| format!("bad --intensity: {e}")))
        .transpose()?
        .unwrap_or(0.5);
    if !(0.0..=1.0).contains(&intensity) {
        return Err("--intensity must be in [0, 1]".into());
    }
    let seed: u64 = arg_value(args, "--seed")
        .map(|v| v.parse().map_err(|e| format!("bad --seed: {e}")))
        .transpose()?
        .unwrap_or(7);
    let flaky: u32 = arg_value(args, "--flaky-sharp")
        .map(|v| v.parse().map_err(|e| format!("bad --flaky-sharp: {e}")))
        .transpose()?
        .unwrap_or(0);
    let mut plan = FaultPlan::canonical(seed, intensity);
    if args.iter().any(|a| a == "--deny-sharp") {
        plan.sharp = SharpFaults {
            deny_groups: true,
            ..Default::default()
        };
    } else if flaky > 0 {
        plan.sharp = SharpFaults {
            flaky_attempts: flaky,
            op_timeout: 1e-4,
            ..Default::default()
        };
    }

    let policy = FaultPolicy::default();
    let clean = run_allreduce_resilient(&preset, &spec, alg, bytes, &FaultPlan::zero(), policy)?;
    let faulted = run_allreduce_resilient(&preset, &spec, alg, bytes, &plan, policy)?;

    println!(
        "{} on {} ({} x {} = {} ranks), {} bytes, fault intensity {:.2}, seed {}:",
        alg.name(),
        preset.fabric.name,
        spec.num_nodes,
        spec.ppn,
        spec.world_size(),
        bytes,
        intensity,
        seed
    );
    println!("  fault-free       {:>12.2} us", clean.latency_us);
    println!(
        "  faulted          {:>12.2} us ({:.2}x, verified correct)",
        faulted.latency_us,
        faulted.latency_us / clean.latency_us
    );
    if faulted.sharp_retries > 0 {
        println!("  sharp retries    {:>12}", faulted.sharp_retries);
    }
    if faulted.fell_back {
        println!("  fell back to     {:>12}", faulted.completed_with);
    }
    Ok(())
}

fn cmd_recover(args: &[String]) -> Result<(), CliError> {
    let (preset, spec) = cluster_and_spec(args)?;
    let leaders: u32 = arg_value(args, "--leaders")
        .map(|v| v.parse().map_err(|e| format!("bad --leaders: {e}")))
        .transpose()?
        .unwrap_or(2);
    let bytes = parse_bytes(&arg_value(args, "--bytes").unwrap_or_else(|| "1M".into()))?;
    let crash_rank: u32 = arg_value(args, "--crash-rank")
        .map(|v| v.parse().map_err(|e| format!("bad --crash-rank: {e}")))
        .transpose()?
        .unwrap_or(0);
    if crash_rank >= spec.world_size() {
        return Err(CliError::Usage(format!(
            "--crash-rank {crash_rank} out of range (world size {})",
            spec.world_size()
        )));
    }
    let alg = Algorithm::Dpml {
        leaders,
        inner: FlatAlg::RecursiveDoubling,
    };
    let clean = run_allreduce(&preset, &spec, alg, bytes)?;
    // Default crash time: 60% through the fault-free run (mid-phase-3).
    let crash_at = arg_value(args, "--crash-at-us")
        .map(|v| {
            v.parse::<f64>()
                .map_err(|e| format!("bad --crash-at-us: {e}"))
        })
        .transpose()?
        .unwrap_or(0.6 * clean.latency_us)
        * 1e-6;
    let detect = arg_value(args, "--detect-us")
        .map(|v| {
            v.parse::<f64>()
                .map_err(|e| format!("bad --detect-us: {e}"))
        })
        .transpose()?;
    let mut process = ProcessFaults::single(crash_rank, crash_at);
    if let Some(d) = detect {
        process.detection_timeout = d * 1e-6;
    }
    let plan = FaultPlan {
        process,
        ..FaultPlan::zero()
    };
    let out = run_dpml_failstop(
        &preset,
        &spec,
        leaders,
        FlatAlg::RecursiveDoubling,
        bytes,
        &plan,
    )?;

    println!(
        "dpml-l{leaders} on {} ({} x {} = {} ranks), {} bytes; rank {} crashes at {:.1}us:",
        preset.fabric.name,
        spec.num_nodes,
        spec.ppn,
        spec.world_size(),
        bytes,
        crash_rank,
        crash_at * 1e6
    );
    println!("  fault-free       {:>12.2} us", clean.latency_us);
    match out {
        FailstopOutcome::Clean { .. } => {
            println!("  outcome          no rank died (crash fell after completion)");
        }
        FailstopOutcome::Healed { report, recovery } => {
            println!("  outcome          healed (survivors verified correct)");
            println!("  detected at      {:>12.2} us", recovery.detected_at_us);
            println!("  continuation     {:>12.2} us", report.latency_us);
            println!("  healed total     {:>12.2} us", recovery.healed_latency_us);
            println!(
                "  cold restart     {:>12.2} us ({:.2}x the healed path)",
                recovery.cold_restart_latency_us,
                recovery.cold_restart_latency_us / recovery.healed_latency_us
            );
            println!(
                "  replanned        {:>12} ranks",
                recovery.replanned_ranks.len()
            );
            for (node, j, local) in &recovery.reelections {
                println!("  re-elected       node {node} leader {j} -> local rank {local}");
            }
        }
        FailstopOutcome::ColdRestart {
            recovery, reason, ..
        } => {
            println!("  outcome          cold restart ({reason})");
            println!(
                "  restart total    {:>12.2} us",
                recovery.cold_restart_latency_us
            );
        }
    }
    Ok(())
}

fn cmd_integrity(args: &[String]) -> Result<(), CliError> {
    let (preset, spec) = cluster_and_spec(args)?;
    let alg = parse_algorithm(&arg_value(args, "--alg").unwrap_or_else(|| "dpml:4".into()))?;
    let bytes = parse_bytes(&arg_value(args, "--bytes").unwrap_or_else(|| "256K".into()))?;
    let rate = |flag: &str, default: f64| -> Result<f64, CliError> {
        let v: f64 = arg_value(args, flag)
            .map(|v| v.parse().map_err(|e| format!("bad {flag}: {e}")))
            .transpose()?
            .unwrap_or(default);
        if !(0.0..=1.0).contains(&v) {
            return Err(CliError::Usage(format!("{flag} must be in [0, 1]")));
        }
        Ok(v)
    };
    let corruption = rate("--corruption", 0.05)?;
    let drop = rate("--drop", 0.02)?;
    let shm_flip = rate("--shm-flip", 0.0)?;
    let seed: u64 = arg_value(args, "--seed")
        .map(|v| v.parse().map_err(|e| format!("bad --seed: {e}")))
        .transpose()?
        .unwrap_or(7);
    let budget: u32 = arg_value(args, "--budget")
        .map(|v| v.parse().map_err(|e| format!("bad --budget: {e}")))
        .transpose()?
        .unwrap_or(8);

    let plan = FaultPlan {
        seed,
        data: DataFaults {
            max_retransmits: budget,
            shm_flip_rate: shm_flip,
            ..DataFaults::wire(corruption, drop)
        },
        ..FaultPlan::zero()
    };
    println!(
        "{} on {} ({} x {} = {} ranks), {} bytes; corruption {:.3}, drop {:.3}, \
         shm flip {:.3}, retry budget {budget}, seed {seed}:",
        alg.name(),
        preset.fabric.name,
        spec.num_nodes,
        spec.ppn,
        spec.world_size(),
        bytes,
        corruption,
        drop,
        shm_flip
    );
    match run_allreduce_verified(
        &preset,
        &spec,
        alg,
        bytes,
        &plan,
        IntegrityPolicy::default(),
    ) {
        Ok(rep) => {
            println!(
                "  fault-free       {:>12.2} us (unverified baseline)",
                rep.base_latency_us
            );
            println!(
                "  self-verifying   {:>12.2} us (+{:.2} us checksum overhead)",
                rep.clean_latency_us, rep.verify_overhead_us
            );
            println!(
                "  under faults     {:>12.2} us ({:.2}x, bit-identical to baseline)",
                rep.total_latency_us,
                rep.total_latency_us / rep.base_latency_us
            );
            println!("  retransmits      {:>12}", rep.retransmits());
            println!("  crc detections   {:>12}", rep.corruptions_detected());
            if rep.shm_crc_fails() > 0 {
                println!("  shm redo copies  {:>12}", rep.shm_crc_fails());
            }
            println!("  undetected risk  {:>15.2e}", rep.undetected_risk());
            if rep.restarts > 0 {
                println!("  full restarts    {:>12}", rep.restarts);
            }
            if let Some(rec) = &rep.recovery {
                println!(
                    "  recovered        partition {} in {} pass(es); detected {:.2} us, \
                     replan {:.2} us",
                    rec.partition, rec.passes, rec.detected_at_us, rec.replan_us
                );
            }
            Ok(())
        }
        Err(VerifiedError::Integrity(e)) => {
            println!("  outcome          structured integrity failure (no corrupt data returned)");
            println!("  {e}");
            // The collective reported honestly instead of returning
            // corrupt data — still a failure for the caller: exit 5.
            Err(CliError::Integrity(e.to_string()))
        }
        Err(VerifiedError::Run(e)) => Err(e.into()),
    }
}

fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let mut cfg = ServeConfig {
        addr: arg_value(args, "--addr").unwrap_or_else(|| "127.0.0.1:7077".into()),
        ..ServeConfig::default()
    };
    let usize_flag = |flag: &str, default: usize| -> Result<usize, CliError> {
        arg_value(args, flag)
            .map(|v| v.parse().map_err(|e| format!("bad {flag}: {e}")))
            .transpose()
            .map_err(CliError::from)
            .map(|v| v.unwrap_or(default))
    };
    cfg.workers = usize_flag("--workers", cfg.workers)?.max(1);
    cfg.queue_capacity = usize_flag("--queue", cfg.queue_capacity)?.max(1);
    cfg.client_inflight_cap = usize_flag("--client-cap", cfg.client_inflight_cap)?.max(1);
    cfg.cache_capacity = usize_flag("--cache", cfg.cache_capacity)?;
    cfg.max_retries = usize_flag("--max-retries", cfg.max_retries as usize)? as u32;
    if let Some(p) = arg_value(args, "--journal") {
        cfg.journal_path = p.into();
    }
    if let Some(id) = arg_value(args, "--watchdog-preset") {
        Preset::by_id(&id).ok_or(format!("unknown watchdog preset `{id}` (a|b|c|d)"))?;
        cfg.watchdog_preset = id;
    }
    if let Some(ms) = arg_value(args, "--sample-interval") {
        cfg.sample_interval_ms = ms
            .parse()
            .map_err(|e| format!("bad --sample-interval: {e}"))?;
    }
    cfg.postmortem_dir = arg_value(args, "--postmortem-dir").map(Into::into);
    cfg.max_postmortems = usize_flag("--max-postmortems", cfg.max_postmortems)?;
    cfg.checkpoint_interval =
        usize_flag("--checkpoint-interval", cfg.checkpoint_interval as usize)? as u64;
    cfg.checkpoint_dir = arg_value(args, "--checkpoint-dir").map(Into::into);
    if let Some(b) = arg_value(args, "--journal-max-bytes") {
        cfg.journal_max_bytes =
            parse_bytes(&b).map_err(|e| format!("bad --journal-max-bytes: {e}"))?;
    }

    let handle = start(cfg.clone()).map_err(CliError::io)?;
    println!(
        "dpml-serve listening on {} ({} workers, queue {}, journal {})",
        handle.addr,
        cfg.workers,
        cfg.queue_capacity,
        cfg.journal_path.display()
    );
    println!("send the `shutdown` verb to drain; exit 0 means a clean drain");
    install_terminate_monitor(&handle);
    // Blocks until a client sends Shutdown (or SIGTERM/SIGINT arrives)
    // and the admitted work drains.
    let code = handle.wait();
    if code == 0 {
        Ok(())
    } else {
        Err(CliError::Internal(format!("drain exited with code {code}")))
    }
}

/// Connect a telemetry client to a running daemon.
fn telemetry_client(args: &[String]) -> Result<dpml::serve::Client, CliError> {
    let addr = arg_value(args, "--addr").unwrap_or_else(|| "127.0.0.1:7077".into());
    let client = dpml::serve::Client::connect(&addr)
        .map_err(|e| CliError::Internal(format!("connect {addr}: {e}")))?;
    client
        .set_timeout(Some(std::time::Duration::from_secs(60)))
        .map_err(CliError::io)?;
    Ok(client)
}

fn cmd_top(args: &[String]) -> Result<(), CliError> {
    let interval_ms: u64 = arg_value(args, "--interval")
        .map(|v| v.parse().map_err(|e| format!("bad --interval: {e}")))
        .transpose()?
        .unwrap_or(1000);
    let frames: u32 = arg_value(args, "--frames")
        .map(|v| v.parse().map_err(|e| format!("bad --frames: {e}")))
        .transpose()?
        .unwrap_or(0); // 0 = until the daemon drains or we are killed
    let addr = arg_value(args, "--addr").unwrap_or_else(|| "127.0.0.1:7077".into());
    let mut client = telemetry_client(args)?;
    client
        .watch_start(interval_ms, frames)
        .map_err(|e| CliError::Internal(e.to_string()))?;
    let mut dash = dpml::serve::top::Dashboard::new();
    let mut seen = 0u32;
    loop {
        match client.next_frame() {
            Ok(Some(frame)) => {
                // Clear and home with plain ANSI; the renderer owns the rest.
                print!("\x1b[2J\x1b[H{}", dash.render(&addr, &frame));
                use std::io::Write as _;
                std::io::stdout().flush().map_err(CliError::io)?;
                seen += 1;
                if frames > 0 && seen >= frames {
                    return Ok(()); // bounded watch: server stops after N too
                }
            }
            Ok(None) => return Ok(()), // daemon drained: clean exit
            Err(e) => return Err(CliError::Internal(format!("watch stream: {e}"))),
        }
    }
}

fn cmd_metrics(args: &[String]) -> Result<(), CliError> {
    let mut client = telemetry_client(args)?;
    let text = client
        .metrics()
        .map_err(|e| CliError::Internal(e.to_string()))?;
    print!("{text}");
    Ok(())
}

/// Map SIGTERM/SIGINT to a graceful terminate: stop admitting, finish
/// running jobs, journal-requeue everything still waiting, flush, exit 0.
/// Signal-handler rules allow almost nothing, so the handler only flips
/// an atomic; a monitor thread does the real work.
#[cfg(unix)]
fn install_terminate_monitor(handle: &dpml::serve::ServerHandle) {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERM_REQUESTED: AtomicBool = AtomicBool::new(false);
    extern "C" fn on_term(_sig: i32) {
        TERM_REQUESTED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_term as *const () as usize);
        signal(SIGINT, on_term as *const () as usize);
    }

    let state = std::sync::Arc::clone(handle.state());
    std::thread::Builder::new()
        .name("dpml-serve-term".into())
        .spawn(move || loop {
            if TERM_REQUESTED.load(Ordering::SeqCst) {
                let (running, requeued) = state.begin_terminate();
                eprintln!(
                    "dpml-serve: termination signal — finishing {running} running job(s), \
                     {requeued} requeued to the journal for the next start"
                );
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        })
        .expect("spawn terminate monitor");
}

#[cfg(not(unix))]
fn install_terminate_monitor(_handle: &dpml::serve::ServerHandle) {}

fn cmd_chaos(args: &[String]) -> Result<(), CliError> {
    let verb = args.first().map(String::as_str).unwrap_or("campaign");
    let rest = if args.is_empty() { args } else { &args[1..] };
    let seed: u64 = arg_value(rest, "--seed")
        .map(|v| v.parse().map_err(|e| format!("bad --seed: {e}")))
        .transpose()?
        .unwrap_or(0xc4a0_5eed);
    match verb {
        "campaign" => {
            let budget: u32 = arg_value(rest, "--budget")
                .map(|v| v.parse().map_err(|e| format!("bad --budget: {e}")))
                .transpose()?
                .unwrap_or(128);
            let mut cfg = CampaignConfig::new(seed, budget);
            cfg.guided = !rest.iter().any(|a| a == "--random");
            cfg.postmortem_dir = arg_value(rest, "--postmortem-dir").map(Into::into);
            let mode = if cfg.guided { "guided" } else { "random" };
            println!("chaos campaign: seed {seed:#x}, budget {budget}, {mode}");
            let report = run_campaign(&cfg);
            println!(
                "  coverage        {} cells from {} runs ({} discoveries)",
                report.cells.len(),
                report.executed,
                report.discoveries.len()
            );
            for p in &report.curve {
                println!("    after {:>5} runs: {:>3} cells", p.runs, p.cells);
            }
            if report.violations.is_empty() {
                println!("  violations      none");
                Ok(())
            } else {
                for v in &report.violations {
                    println!(
                        "  VIOLATION       {} on {}: {}",
                        v.signature,
                        v.scenario.id(),
                        v.detail
                    );
                    if let Some(bundle) = &v.bundle {
                        println!("    post-mortem   {bundle}");
                    }
                }
                Err(CliError::Integrity(format!(
                    "campaign found {} violation(s); shrink with `dpml chaos mine`",
                    report.violations.len()
                )))
            }
        }
        "serve" => {
            let iterations: u32 = arg_value(rest, "--iterations")
                .map(|v| v.parse().map_err(|e| format!("bad --iterations: {e}")))
                .transpose()?
                .unwrap_or(3);
            let report = run_serve_campaign(&ServeCampaignConfig::new(seed, iterations));
            println!(
                "serve chaos: {} daemon lifecycles, {} jobs, {} kill points audited",
                report.iterations, report.jobs_submitted, report.kill_points
            );
            println!("  coverage        {} cells", report.cells.len());
            for c in &report.cells {
                println!("    {c}");
            }
            if report.violations.is_empty() {
                println!("  violations      none (exactly-once held at every kill point)");
                Ok(())
            } else {
                for v in &report.violations {
                    println!("  VIOLATION       {v}");
                }
                Err(CliError::Integrity(format!(
                    "serve campaign found {} violation(s)",
                    report.violations.len()
                )))
            }
        }
        "shrink" => {
            let (sc, plan) = dpml::chaos::shrink::known_bad_case(seed);
            let before = dpml::faults::mutate::fault_count(&plan);
            let out = shrink_case(&sc, &plan, 400);
            println!(
                "shrink demo: {} faults -> {} in {} evals (signature {})",
                before, out.final_faults, out.evals, out.signature
            );
            println!(
                "  minimized to    {} with plan {}",
                out.scenario.id(),
                serde_json::to_string(&out.plan).map_err(CliError::io)?
            );
            Ok(())
        }
        "mine" => {
            let dir = std::path::PathBuf::from(
                arg_value(rest, "--dir").unwrap_or_else(|| "tests/corpus".into()),
            );
            let budget: u32 = arg_value(rest, "--budget")
                .map(|v| v.parse().map_err(|e| format!("bad --budget: {e}")))
                .transpose()?
                .unwrap_or(128);
            let max: usize = arg_value(rest, "--max")
                .map(|v| v.parse().map_err(|e| format!("bad --max: {e}")))
                .transpose()?
                .unwrap_or(8);
            let mut cfg = CampaignConfig::new(seed, budget);
            cfg.postmortem_dir = arg_value(rest, "--postmortem-dir").map(Into::into);
            let report = run_campaign(&cfg);
            // Reproducer candidates: violations first (carrying their
            // post-mortem bundle link, if one was dumped), then
            // structured failures among the discoveries — one per
            // signature.
            let mut candidates: Vec<(dpml::chaos::Scenario, FaultPlan, Option<String>)> = report
                .violations
                .iter()
                .map(|v| (v.scenario.clone(), v.plan.clone(), v.bundle.clone()))
                .collect();
            candidates.extend(
                report
                    .discoveries
                    .iter()
                    .map(|(sc, plan, _)| (sc.clone(), plan.clone(), None)),
            );
            let mut seen = std::collections::BTreeSet::new();
            let mut saved = 0usize;
            for (sc, plan, bundle) in candidates {
                if saved >= max {
                    break;
                }
                let out = dpml::chaos::run_case(&sc, &plan);
                let interesting = out.violation.is_some() || out.class.starts_with("err:");
                if !interesting || !seen.insert(out.signature.clone()) {
                    continue;
                }
                let shrunk = shrink_case(&sc, &plan, 200);
                let rep = Reproducer::capture(
                    &shrunk.scenario,
                    &shrunk.plan,
                    &format!(
                        "mined: campaign seed {seed:#x} budget {budget}; \
                         shrunk {} -> {} faults in {} evals",
                        shrunk.initial_faults, shrunk.final_faults, shrunk.evals
                    ),
                )
                .with_bundle(bundle);
                let path = rep.save(&dir).map_err(CliError::io)?;
                println!("saved {} ({})", path.display(), rep.signature);
                saved += 1;
            }
            println!("mined {saved} reproducer(s) into {}", dir.display());
            Ok(())
        }
        "replay" => {
            let dir = std::path::PathBuf::from(
                arg_value(rest, "--dir").unwrap_or_else(|| "tests/corpus".into()),
            );
            let (replayed, failures) = replay_dir(&dir).map_err(CliError::Internal)?;
            if failures.is_empty() {
                println!("corpus replay: {replayed} reproducer(s), all bit-exact");
                Ok(())
            } else {
                for (path, why) in &failures {
                    println!("DRIFT {}: {why}", path.display());
                }
                Err(CliError::Integrity(format!(
                    "{} of {replayed} corpus reproducer(s) drifted",
                    failures.len()
                )))
            }
        }
        other => Err(CliError::Usage(format!(
            "unknown chaos verb `{other}`; try campaign|serve|shrink|mine|replay"
        ))),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    let rest = if args.is_empty() {
        &args[..]
    } else {
        &args[1..]
    };
    let result = match cmd {
        "info" => {
            cmd_info();
            Ok(())
        }
        "simulate" => cmd_simulate(rest),
        "profile" => cmd_profile(rest),
        "sweep" => cmd_sweep(rest),
        "compare" => cmd_compare(rest),
        "tune" => cmd_tune(rest),
        "app" => cmd_app(rest),
        "faults" => cmd_faults(rest),
        "recover" => cmd_recover(rest),
        "integrity" => cmd_integrity(rest),
        "serve" => cmd_serve(rest),
        "top" => cmd_top(rest),
        "metrics" => cmd_metrics(rest),
        "chaos" => cmd_chaos(rest),
        "help" | "--help" | "-h" => {
            println!(
                "usage: dpml <info|simulate|profile|sweep|compare|tune|app|faults|recover|integrity|serve|top|metrics|chaos> [options]\n\
                 try: dpml info\n     \
                 dpml simulate --cluster c --nodes 16 --alg dpml:16 --bytes 64K\n     \
                 dpml profile --cluster a --nodes 8 --alg dpml:4 --bytes 64K [--sweep]\n     \
                 dpml compare --cluster d --nodes 8 --bytes 512K\n     \
                 dpml tune --cluster b --nodes 8 --out tuned.json\n     \
                 dpml app --app miniamr --cluster c --nodes 8\n     \
                 dpml faults --cluster a --nodes 8 --alg sharp-socket --bytes 256 \
                 --intensity 0.5 [--deny-sharp|--flaky-sharp N]\n     \
                 dpml recover --cluster a --nodes 4 --leaders 2 --bytes 1M \
                 --crash-rank 6 [--crash-at-us T] [--detect-us T]\n     \
                 dpml integrity --cluster b --nodes 4 --alg dpml:4 --bytes 256K \
                 --corruption 0.05 --drop 0.02 [--shm-flip R] [--budget N] [--seed S]\n     \
                 dpml serve [--addr H:P] [--workers N] [--queue N] [--client-cap N] \
                 [--journal PATH] [--journal-max-bytes B] [--checkpoint-interval N] \
                 [--checkpoint-dir DIR] [--cache N] [--max-retries N] \
                 [--watchdog-preset a|b|c|d] [--sample-interval MS] [--postmortem-dir DIR] \
                 [--max-postmortems N]\n     \
                 dpml top [--addr H:P] [--interval MS] [--frames N]\n     \
                 dpml metrics [--addr H:P]\n     \
                 dpml chaos campaign [--seed S] [--budget N] [--random] [--postmortem-dir DIR]\n     \
                 dpml chaos serve [--seed S] [--iterations N]\n     \
                 dpml chaos mine [--dir tests/corpus] [--seed S] [--budget N] [--max N] \
                 [--postmortem-dir DIR]\n     \
                 dpml chaos replay [--dir tests/corpus]\n\
                 exit codes: 0 ok, 1 internal, 2 usage, 3 build, 4 sim, 5 integrity, 6 partial sweep"
            );
            Ok(())
        }
        other => Err(CliError::Usage(format!(
            "unknown command `{other}`; try `dpml help`"
        ))),
    };
    if let Err(e) = result {
        eprintln!("error[{}]: {e}", e.class());
        std::process::exit(e.code());
    }
}
