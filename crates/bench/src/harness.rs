//! Shared runner for the figure registry + tiny CLI helpers for `serve_bench`.

use dpml_core::algorithms::Algorithm;
use dpml_core::run::{run, Exec, Scenario};
use dpml_fabric::Preset;
use dpml_topology::ClusterSpec;

/// Run one verified allreduce and return its latency in microseconds.
/// Panics with context on any failure — figure harnesses should be loud.
pub fn latency_us(preset: &Preset, spec: &ClusterSpec, alg: Algorithm, bytes: u64) -> f64 {
    run(&Scenario::new(preset, spec, alg, bytes), &Exec::default())
        .unwrap_or_else(|e| {
            panic!(
                "cluster {} {}x{} {} @ {} bytes: {e}",
                preset.id,
                spec.num_nodes,
                spec.ppn,
                alg.name(),
                bytes
            )
        })
        .latency_us
}

/// Fetch `--flag value` from argv; `None` when absent.
pub fn arg_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// True when `--flag` is present.
pub fn arg_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

/// Parse `--flag value` as a number with a default.
pub fn arg_num<T: std::str::FromStr>(flag: &str, default: T) -> T
where
    T::Err: std::fmt::Debug,
{
    arg_value(flag)
        .map(|v| v.parse().expect("numeric flag"))
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpml_core::algorithms::{Algorithm, FlatAlg};
    use dpml_fabric::presets::cluster_b;

    #[test]
    fn latency_helper_runs() {
        let p = cluster_b();
        let spec = p.spec(2, 2).unwrap();
        let us = latency_us(
            &p,
            &spec,
            Algorithm::Dpml {
                leaders: 2,
                inner: FlatAlg::RecursiveDoubling,
            },
            4096,
        );
        assert!(us > 0.0);
    }

    #[test]
    fn absent_args_default() {
        assert_eq!(arg_value("--definitely-not-set"), None);
        assert!(!arg_flag("--definitely-not-set"));
        assert_eq!(arg_num("--definitely-not-set", 7u32), 7);
    }
}
