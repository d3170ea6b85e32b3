//! Metrics, the per-workload outcome, and the result line.

use crate::sim::{Chain, CHAIN_LAYERS};
use crate::stats;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (scenarios, verified runs or requests).
    pub attempted: u64,
    /// Of which failed.
    pub failed: u64,
    /// Output checks that did not hold; empty when the run is correct.
    pub check_failures: Vec<String>,
    /// FNV digest of the simulated latencies of the reference inputs, in
    /// input order: equal digests mean identical simulated output.
    pub digest: u64,
    /// Measured with tracing off (`--trace 0`).
    pub end_to_end: Vec<Metric>,
    /// Measured by the traced run (`--trace 1`).
    pub per_layer: Vec<Metric>,
    /// Further breakdown, printed but not part of the result line.
    pub details: Vec<Metric>,
}

impl Outcome {
    pub fn new(digest: u64) -> Self {
        Outcome {
            digest,
            ..Outcome::default()
        }
    }

    /// Record a failed output check.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.check_failures.push(why.into());
    }

    /// Every operation succeeded and every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.check_failures.is_empty()
    }

    /// Print every metric by name with its unit, then the check results.
    pub fn print(&self, workload: &str) {
        let width = self
            .end_to_end
            .iter()
            .chain(&self.per_layer)
            .chain(&self.details)
            .map(|m| m.name.len())
            .max()
            .unwrap_or(0);
        for (title, metrics) in [
            ("end to end", &self.end_to_end),
            ("per layer", &self.per_layer),
            ("breakdown", &self.details),
        ] {
            if metrics.is_empty() {
                continue;
            }
            println!("[{workload}] {title}:");
            for m in metrics {
                println!("  {:width$}  {} {}", m.name, m.value, m.unit);
            }
        }
        println!(
            "[{workload}] output_digest {:016x}; {} attempted, {} failed, error_rate {}",
            self.digest,
            self.attempted,
            self.failed,
            stats::ratio(self.failed as f64, self.attempted as f64)
        );
        for why in &self.check_failures {
            println!("[{workload}] CHECK FAILED: {why}");
        }
    }

    /// The result line: end-to-end metrics untraced, per-layer traced.
    pub fn result_json(&self, traced: bool) -> String {
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        result_json(self.correct(), self.attempted, self.failed, metrics)
    }
}

/// `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

/// JSON has no infinity: a latency that failed (+∞) prints as the largest
/// finite double, which fails any bound.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{:e}", f64::MAX)
    }
}

/// The per-layer metrics every workload reports (README.md lists what
/// each should move).
#[derive(Debug, Default)]
pub struct LayerReport {
    /// Simulator-path chains: the traced scenarios themselves (`sweep`,
    /// `scale`) or probes on the workload's inputs (`faults`, `serve`).
    pub chains: Vec<Chain>,
    /// Share of the workload's wall time spent compiling schedules.
    pub build_share: f64,
    /// Busy worker time over worker capacity in the measured phase.
    pub busy_ratio: f64,
    /// Operations that succeeded on their first attempt, over all.
    pub first_attempt_ratio: f64,
    pub restarts: u64,
    pub partition_recoveries: u64,
    pub retransmits: u64,
    pub corruptions_detected: u64,
    /// Operation wall time that no layer span covers, over the total.
    pub unattributed_share: f64,
    /// Traced wall over untraced wall for the same work, minus one.
    pub overhead: f64,
}

impl LayerReport {
    pub fn metrics(&self) -> Vec<Metric> {
        let n = self.chains.len() as f64;
        let mean_s = |i: usize| {
            stats::ratio(
                self.chains.iter().map(|c| c.layer(i).as_secs_f64()).sum(),
                n,
            )
        };
        let events: u64 = self.chains.iter().map(|c| c.events).sum();
        let run_s: f64 = self.chains.iter().map(|c| c.layer(2).as_secs_f64()).sum();
        let [config, build, run, verify] = CHAIN_LAYERS;
        vec![
            Metric::new(format!("{config}_s"), mean_s(0), "s"),
            Metric::new(format!("{build}_s"), mean_s(1), "s"),
            Metric::new("core.build_share", self.build_share, "ratio"),
            Metric::new(
                "core.instrs",
                stats::mean(self.chains.iter().map(|c| c.instrs as f64)),
                "count",
            ),
            Metric::new(format!("{run}_s"), mean_s(2), "s"),
            Metric::new("engine.events", stats::ratio(events as f64, n), "count"),
            Metric::new(
                "engine.ns_per_event",
                stats::ratio(run_s * 1e9, events as f64),
                "ns",
            ),
            Metric::new(
                "engine.peak_flows",
                self.chains.iter().map(|c| c.peak_flows).max().unwrap_or(0) as f64,
                "count",
            ),
            Metric::new(format!("{verify}_s"), mean_s(3), "s"),
            Metric::new("runner.busy_ratio", self.busy_ratio, "ratio"),
            Metric::new(
                "integrity.first_attempt_ratio",
                self.first_attempt_ratio,
                "ratio",
            ),
            Metric::new("integrity.restarts", self.restarts as f64, "count"),
            Metric::new(
                "integrity.partition_recoveries",
                self.partition_recoveries as f64,
                "count",
            ),
            Metric::new("faults.retransmits", self.retransmits as f64, "count"),
            Metric::new(
                "faults.corruptions_detected",
                self.corruptions_detected as f64,
                "count",
            ),
            Metric::new("trace.unattributed_share", self.unattributed_share, "ratio"),
            Metric::new("trace.overhead", self.overhead, "ratio"),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_json(
            true,
            3,
            0,
            &[
                Metric::new("p50_ms", 1.25, "ms"),
                Metric::new("tail_ms", f64::INFINITY, "ms"),
            ],
        );
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v["metrics"]["p50_ms"]["value"].as_f64(), Some(1.25));
        assert_eq!(v["metrics"]["tail_ms"]["value"].as_f64(), Some(f64::MAX));
        assert_eq!(v["metrics"]["tail_ms"]["unit"].as_str(), Some("ms"));
    }
}
