//! Benchmark harness support: table formatting, message-size sweeps, and
//! result persistence shared by the `fig*`/`ablate*` binaries that
//! regenerate the paper's tables and figures (see DESIGN.md §3 for the
//! experiment index and EXPERIMENTS.md for recorded outputs).

pub mod harness;
pub mod microbench;
pub mod results;
pub mod runner;
pub mod sweep;
pub mod table;

pub use harness::{arg_flag, arg_num, arg_value, latency_us};
pub use microbench::{multi_pair_bw, multi_pair_critical_path, relative_throughput, PairPlacement};
pub use results::{save_results, save_results_in};
pub use runner::{scenario_seed, sweep, sweep_seeded, sweep_serial};
pub use sweep::{paper_sizes, quick_sizes, SizeBand};
pub use table::{fmt_bytes, fmt_us, Table};
