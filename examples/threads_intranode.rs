//! DPML on real threads: run the intra-node multi-leader allreduce
//! (phases 1/2/4 of the paper's Figure 2) with genuine shared memory on
//! this machine, validate it against a serial reference, and time the
//! leader counts.
//!
//! Run with: `cargo run --release --example threads_intranode`

use dpml::shm::kernels::assert_close;
use dpml::shm::NodeRuntime;
use std::time::Instant;

fn main() {
    // Use real core count when available; keep at least 4 rank-threads so
    // the multi-leader structure is exercised even on small machines
    // (oversubscribed threads are still a valid correctness demo — the
    // wall-clock leader trend only shows on a real multicore).
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(8);
    let ppn = cores.clamp(4, 8);
    let elems = 1 << 20; // 8 MB of f64 per rank
    let inputs: Vec<Vec<f64>> = (0..ppn)
        .map(|r| {
            (0..elems)
                .map(|i| ((r * 2654435761 + i) % 1000) as f64 / 8.0)
                .collect()
        })
        .collect();
    let rt = NodeRuntime::new(ppn);
    let reference = rt.serial(&inputs);

    println!(
        "intra-node allreduce on {ppn} threads, {} MB vector:",
        elems * 8 / (1 << 20)
    );
    let mut counts = vec![1usize, 2, 4, ppn];
    counts.dedup();
    for leaders in counts {
        let start = Instant::now();
        let results = rt.allreduce(&inputs, leaders);
        let wall = start.elapsed();
        for r in &results {
            assert_close(r, &reference[0], 1e-9);
        }
        println!(
            "  leaders = {leaders:<2}  {:>8.2?}  (verified against serial sum)",
            wall
        );
    }
}
