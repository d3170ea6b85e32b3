//! `chaos_bench` — coverage-guided vs. random chaos campaigns, the
//! shrinker acceptance demo, and the consolidated nightly soak.
//!
//! Default mode (CI, `results/chaos.json`):
//!
//! 1. Runs a **guided** campaign and a **random** campaign at the same
//!    budget over the same scenario menu and plan distribution, and
//!    records both coverage-per-budget curves. Exits nonzero unless the
//!    guided campaign reaches *strictly more* outcome-coverage cells —
//!    the acceptance test for the search being worth its salt.
//! 2. Shrinks the seeded known-bad plan and exits nonzero unless the
//!    minimized reproducer has ≤ 3 faults.
//! 3. Runs a serve-daemon campaign (worker panics + kill-point audit)
//!    and exits nonzero on any exactly-once violation.
//!
//! `--nightly --wall-secs N` replaces the three separate nightly soak
//! steps (integrity matrix, ignored sweeps, serve load-gen) with one
//! budgeted campaign loop: rounds of guided simulator campaigns plus
//! serve campaigns under fresh seeds until the wall-clock budget is
//! spent. Coverage accumulates across rounds; any violation anywhere
//! fails the run.

use dpml_bench::save_results;
use dpml_chaos::shrink::known_bad_case;
use dpml_chaos::{
    run_campaign, run_serve_campaign, shrink_case, CampaignConfig, CampaignReport, CurvePoint,
    ServeCampaignConfig,
};
use dpml_faults::fault_count;
use serde::Serialize;
use std::collections::BTreeSet;
use std::time::Instant;

#[derive(Serialize)]
struct ModeReport {
    cells: usize,
    curve: Vec<CurvePoint>,
    violations: usize,
}

#[derive(Serialize)]
struct ShrinkReport {
    initial_faults: usize,
    final_faults: usize,
    evals: u32,
    signature: String,
}

#[derive(Serialize)]
struct ServeReport {
    iterations: u32,
    jobs: u32,
    kill_points: u32,
    cells: usize,
    violations: usize,
}

#[derive(Serialize)]
struct ChaosResults {
    seed: u64,
    budget: u32,
    guided: ModeReport,
    random: ModeReport,
    /// Guided-minus-random cell advantage at full budget.
    coverage_advantage: i64,
    shrink: ShrinkReport,
    serve: ServeReport,
    /// Union of every cell either campaign mode reached.
    all_cells: Vec<String>,
}

fn mode_report(r: &CampaignReport) -> ModeReport {
    ModeReport {
        cells: r.cells.len(),
        curve: r.curve.clone(),
        violations: r.violations.len(),
    }
}

fn arg<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn print_curve(tag: &str, r: &CampaignReport) {
    println!(
        "{tag}: {} cells, {} violations",
        r.cells.len(),
        r.violations.len()
    );
    for p in &r.curve {
        println!("  {:>5} runs  {:>3} cells", p.runs, p.cells);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut failed = false;

    if args.iter().any(|a| a == "--nightly") {
        let wall_secs: u64 = arg(&args, "--wall-secs", 900);
        let seed: u64 = arg(&args, "--seed", 0x50a4);
        let started = Instant::now();
        let mut cells: BTreeSet<String> = BTreeSet::new();
        let mut violations = 0usize;
        let mut round = 0u64;
        // Each round costs roughly a minute; stop when the next round
        // would overrun the budget.
        while started.elapsed().as_secs() < wall_secs {
            let report = run_campaign(&CampaignConfig::new(seed ^ round, 192));
            cells.extend(report.cells.iter().cloned());
            for v in &report.violations {
                eprintln!(
                    "VIOLATION (round {round}): {} on {}: {}",
                    v.signature,
                    v.scenario.id(),
                    v.detail
                );
            }
            violations += report.violations.len();
            let serve = run_serve_campaign(&ServeCampaignConfig::new(seed ^ round, 2));
            cells.extend(serve.cells.iter().cloned());
            for v in &serve.violations {
                eprintln!("VIOLATION (round {round}, serve): {v}");
            }
            violations += serve.violations.len();
            round += 1;
            println!(
                "round {round}: {} cells total, {} violations, {}s elapsed",
                cells.len(),
                violations,
                started.elapsed().as_secs()
            );
        }
        println!(
            "nightly soak: {round} rounds, {} cells, {} violations",
            cells.len(),
            violations
        );
        #[derive(Serialize)]
        struct SoakResults {
            seed: u64,
            wall_secs: u64,
            rounds: u64,
            cells: usize,
            violations: usize,
            all_cells: Vec<String>,
        }
        let soak = SoakResults {
            seed,
            wall_secs,
            rounds: round,
            cells: cells.len(),
            violations,
            all_cells: cells.into_iter().collect(),
        };
        match save_results("chaos_soak", &soak) {
            Ok(path) => println!("results -> {}", path.display()),
            Err(e) => {
                eprintln!("FAIL: could not save soak results: {e}");
                std::process::exit(1);
            }
        }
        if violations > 0 {
            std::process::exit(1);
        }
        return;
    }

    let budget: u32 = arg(&args, "--budget", 192);
    let seed: u64 = arg(&args, "--seed", 0xc4a0_5eed);

    // 1. Guided vs. random at the same budget.
    let mut cfg = CampaignConfig::new(seed, budget);
    let guided = run_campaign(&cfg);
    cfg.guided = false;
    let random = run_campaign(&cfg);
    print_curve("guided", &guided);
    print_curve("random", &random);
    let advantage = guided.cells.len() as i64 - random.cells.len() as i64;
    println!("coverage advantage (guided - random): {advantage:+}");
    if advantage <= 0 {
        eprintln!("FAIL: guided search must reach strictly more coverage than random sampling");
        failed = true;
    }
    if !guided.violations.is_empty() || !random.violations.is_empty() {
        for v in guided.violations.iter().chain(&random.violations) {
            eprintln!(
                "VIOLATION: {} on {}: {}",
                v.signature,
                v.scenario.id(),
                v.detail
            );
        }
        failed = true;
    }

    // 2. Shrinker acceptance: the seeded known-bad plan minimizes to ≤3.
    let (sc, plan) = known_bad_case(seed);
    let before = fault_count(&plan);
    let shrunk = shrink_case(&sc, &plan, 400);
    println!(
        "shrink: {} -> {} faults in {} evals ({})",
        before, shrunk.final_faults, shrunk.evals, shrunk.signature
    );
    if shrunk.final_faults > 3 {
        eprintln!("FAIL: shrinker left {} faults (> 3)", shrunk.final_faults);
        failed = true;
    }

    // 3. Serve campaign: kill-point audit must hold exactly-once.
    let serve = run_serve_campaign(&ServeCampaignConfig::new(seed, 2));
    println!(
        "serve: {} lifecycles, {} kill points, {} cells, {} violations",
        serve.iterations,
        serve.kill_points,
        serve.cells.len(),
        serve.violations.len()
    );
    for v in &serve.violations {
        eprintln!("VIOLATION (serve): {v}");
        failed = true;
    }

    let mut all_cells: BTreeSet<String> = guided.cells.clone();
    all_cells.extend(random.cells.iter().cloned());
    all_cells.extend(serve.cells.iter().cloned());
    let results = ChaosResults {
        seed,
        budget,
        guided: mode_report(&guided),
        random: mode_report(&random),
        coverage_advantage: advantage,
        shrink: ShrinkReport {
            initial_faults: before,
            final_faults: shrunk.final_faults,
            evals: shrunk.evals,
            signature: shrunk.signature,
        },
        serve: ServeReport {
            iterations: serve.iterations,
            jobs: serve.jobs_submitted,
            kill_points: serve.kill_points,
            cells: serve.cells.len(),
            violations: serve.violations.len(),
        },
        all_cells: all_cells.into_iter().collect(),
    };
    match save_results("chaos", &results) {
        Ok(path) => println!("results -> {}", path.display()),
        Err(e) => {
            eprintln!("FAIL: could not save results: {e}");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
