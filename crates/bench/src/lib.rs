//! Benchmark harnesses: the [`figures`] registry behind every committed
//! artifact under `results/` (run by the `figures` binary), plus the
//! table formatting, message-size sweeps, parallel runner and result
//! persistence it and the `chaos_bench`/`serve_bench` binaries share (see
//! DESIGN.md §3 for the experiment index and EXPERIMENTS.md for recorded
//! outputs).

pub mod figures;
pub mod harness;
pub mod microbench;
pub mod results;
pub mod runner;
pub mod sweep;
pub mod table;

pub use harness::{arg_flag, arg_num, arg_value, latency_us};
pub use results::{save_results, save_results_in};
pub use runner::{scenario_seed, sweep, sweep_seeded, sweep_serial};
pub use sweep::{paper_sizes, SizeBand};
pub use table::{fmt_bytes, fmt_us, Table};
