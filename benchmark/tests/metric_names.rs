//! A `--quick` run of every workload prints exactly the metric names that
//! `BENCHMARK.json` declares: the end-to-end ones untraced, the per-layer
//! ones traced.

use serde_json::Value;
use std::process::Command;

fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    spec[section]
        .as_array()
        .expect("a metric list")
        .iter()
        .map(|m| m["name"].as_str().expect("a metric name").to_string())
        .collect()
}

fn printed(workload: &str, trace: &str) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_dpml-benchmark"))
        .args(["--workload", workload, "--quick", "--trace", trace])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let result: Value =
        serde_json::from_str(stdout.lines().last().expect("a result line")).expect("JSON result");
    assert_eq!(
        result["correct"].as_bool(),
        Some(true),
        "{workload}: {stdout}"
    );
    assert_eq!(result["failed"].as_u64(), Some(0), "{workload}: {stdout}");
    result["metrics"]
        .as_object()
        .expect("a metrics object")
        .iter()
        .map(|(name, m)| {
            assert!(
                m["value"].as_f64().is_some_and(f64::is_finite),
                "{workload}: {name}"
            );
            name.clone()
        })
        .collect()
}

#[test]
fn quick_runs_print_exactly_the_declared_metrics() {
    for workload in ["sweep", "scale", "faults", "serve"] {
        assert_eq!(printed(workload, "0"), declared("end_to_end"), "{workload}");
        assert_eq!(printed(workload, "1"), declared("per_layer"), "{workload}");
    }
}
