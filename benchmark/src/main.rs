//! Repository benchmark: four workloads over the DPML simulator and its
//! serve daemon, with output checks, end-to-end metrics, and a traced
//! per-layer run.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--workload sweep|scale|faults|serve] [--seed N] [--seconds S] \
//!     [--trace [0|1]] [--quick] [--dpml PATH]
//! ```
//!
//! Each metric prints by name with its unit. The last line of standard
//! output is one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`: end-to-end metrics untraced, per-layer metrics with
//! `--trace`. Without `--workload` every workload runs in a child process
//! of its own. The exit code is nonzero when any output check fails.
//! README.md documents the workloads, metrics and bounds.

mod report;
mod serve;
mod sim;
mod stats;
mod trace;

use report::{result_json, Metric};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const WORKLOADS: [&str; 4] = ["sweep", "scale", "faults", "serve"];
/// Measured seconds per run unless `--seconds` or `--quick` says otherwise.
const DEFAULT_SECONDS: u64 = 20;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    /// Time budget of the measured phase, whole seconds.
    seconds: u64,
    trace: bool,
    dpml: Option<PathBuf>,
}

const USAGE: &str = "usage: dpml-benchmark [--workload sweep|scale|faults|serve] [--seed N] \
                     [--seconds S] [--trace [0|1]] [--quick] [--dpml PATH]";

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut out = Args {
            workload: None,
            seed: 1,
            seconds: DEFAULT_SECONDS,
            trace: false,
            dpml: None,
        };
        let mut it = args.iter().peekable();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let w = value()?;
                    if !WORKLOADS.contains(&w.as_str()) {
                        return Err(format!("unknown workload `{w}`"));
                    }
                    out.workload = Some(w.clone());
                }
                "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if out.seconds == 0 {
                        return Err("--seconds must be at least 1".into());
                    }
                }
                // `--trace 0|1` as harnesses pass it, or a bare `--trace`.
                "--trace" => {
                    out.trace = match it.next_if(|v| *v == "0" || *v == "1") {
                        Some(v) => v == "1",
                        None => true,
                    }
                }
                "--quick" => out.seconds = 1,
                "--dpml" => out.dpml = Some(PathBuf::from(value()?)),
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(out)
    }

    /// The arguments a child process gets to run `workload`.
    fn for_child(&self, workload: &str) -> Vec<String> {
        let mut v = vec![
            "--workload".to_string(),
            workload.to_string(),
            "--seed".to_string(),
            self.seed.to_string(),
            "--seconds".to_string(),
            self.seconds.to_string(),
            "--trace".to_string(),
            if self.trace { "1" } else { "0" }.to_string(),
        ];
        if let Some(dpml) = &self.dpml {
            v.push("--dpml".to_string());
            v.push(dpml.display().to_string());
        }
        v
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let code = match &args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    };
    std::process::exit(code);
}

/// Run one workload in this process and print its result line.
fn run_one(workload: &str, args: &Args) -> i32 {
    println!(
        "[{workload}] seed {}, {} s, {}, {} cores",
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "untraced" },
        rayon::current_num_threads()
    );
    let outcome = run_workload(workload, args);
    match outcome {
        Ok(out) => {
            out.print(workload);
            println!("{}", out.result_json(args.trace));
            i32::from(!out.correct())
        }
        Err(e) => {
            eprintln!("error: {workload}: {e}");
            1
        }
    }
}

fn run_workload(workload: &str, args: &Args) -> Result<report::Outcome, String> {
    let work_dir = work_dir();
    let trace_path = args
        .trace
        .then(|| work_dir.join(format!("trace-{workload}.jsonl")));
    if workload == "serve" {
        let dpml = match &args.dpml {
            Some(p) => p.clone(),
            None => build_dpml()?,
        };
        return serve::run(&serve::Opts {
            dpml,
            seed: args.seed,
            seconds: args.seconds,
            trace_path,
            work_dir,
        });
    }
    let kind = sim::Kind::parse(workload).ok_or(format!("unknown workload `{workload}`"))?;
    sim::run(
        kind,
        &sim::Opts {
            seed: args.seed,
            seconds: args.seconds,
            trace_path,
        },
    )
}

/// Every workload, each in a child process of its own, then one combined
/// result line with metrics named `<workload>.<metric>`.
fn run_all(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics = Vec::new();
    for w in WORKLOADS {
        match run_child(&exe, &args.for_child(w)) {
            Ok(line) => {
                let v: serde_json::Value =
                    serde_json::from_str(&line).unwrap_or(serde_json::Value::Null);
                correct &= v["correct"].as_bool() == Some(true);
                attempted += v["attempted"].as_u64().unwrap_or(0);
                failed += v["failed"].as_u64().unwrap_or(0);
                for (name, m) in v["metrics"].as_object().into_iter().flat_map(|m| m.iter()) {
                    let value = m["value"].as_f64().unwrap_or(f64::NAN);
                    let unit = m["unit"].as_str().unwrap_or_default();
                    metrics.push(Metric::new(format!("{w}.{name}"), value, unit));
                }
            }
            Err(e) => {
                eprintln!("error: {w}: {e}");
                correct = false;
            }
        }
    }
    println!("{}", result_json(correct, attempted, failed, &metrics));
    i32::from(!correct)
}

/// Run the benchmark on one workload in a child process, echo its output,
/// and return its result line.
fn run_child(exe: &Path, args: &[String]) -> Result<String, String> {
    let mut child = Command::new(exe)
        .args(args)
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| e.to_string())?;
    let mut last = String::new();
    for line in BufReader::new(child.stdout.take().expect("stdout is piped")).lines() {
        let Ok(line) = line else { break };
        println!("{line}");
        last = line;
    }
    let status = child.wait().map_err(|e| e.to_string())?;
    if last.starts_with('{') {
        Ok(last)
    } else {
        Err(format!("exited with {status} and no result line"))
    }
}

/// Where runs leave traces and journals: `benchmark/` under the cargo
/// target directory of the checkout.
fn work_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
        .join("benchmark")
}

/// Build the repository's `dpml` binary from source and return its path.
fn build_dpml() -> Result<PathBuf, String> {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../Cargo.toml");
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .args(["build", "--release", "--offline", "--bin", "dpml"])
        .arg("--manifest-path")
        .arg(&manifest)
        .arg("--message-format=json-render-diagnostics")
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!("building dpml failed: {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| serde_json::from_str::<serde_json::Value>(l).ok())
        .filter(|v| v["target"]["name"].as_str() == Some("dpml"))
        .find_map(|v| v["executable"].as_str().map(PathBuf::from))
        .ok_or_else(|| "cargo reported no dpml executable".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn scripted_and_hand_written_command_lines_parse() {
        let a = parse("--workload sweep --seed 7 --seconds 10 --trace 0").unwrap();
        assert_eq!(a.workload.as_deref(), Some("sweep"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, false));
        assert!(parse("--workload serve --trace 1").unwrap().trace);
        let bare = parse("--trace --workload scale --quick").unwrap();
        assert!(bare.trace);
        assert_eq!(bare.seconds, 1);
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--seconds 2.5").is_err());
        assert!(parse("--seed").is_err());
    }

    #[test]
    fn children_get_the_same_settings() {
        let a = parse("--seed 3 --seconds 2 --trace").unwrap();
        let child = parse(&a.for_child("faults").join(" ")).unwrap();
        assert_eq!(
            child,
            Args {
                workload: Some("faults".into()),
                ..a
            }
        );
    }
}
