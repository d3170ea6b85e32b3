//! Five-minute tour: simulate a DPML allreduce against the classic designs
//! on a modeled 16-node Xeon + Omni-Path cluster.
//!
//! Run with: `cargo run --release --example quickstart`

use dpml::core::algorithms::FlatAlg;
use dpml::prelude::*;

fn main() {
    // A cluster model: 16 nodes x 2 sockets x 14 cores, Omni-Path fabric
    // (the paper's Cluster C hardware).
    let preset = cluster_c();
    let spec = preset.default_spec(16).expect("16 nodes of 28 ranks");
    println!(
        "cluster: {} — {} nodes x {} ppn = {} ranks\n",
        preset.fabric.name,
        spec.num_nodes,
        spec.ppn,
        spec.world_size()
    );

    let candidates = [
        Algorithm::RecursiveDoubling,
        Algorithm::Rabenseifner,
        Algorithm::SingleLeader {
            inner: FlatAlg::RecursiveDoubling,
        },
        Algorithm::Dpml {
            leaders: 4,
            inner: FlatAlg::RecursiveDoubling,
        },
        Algorithm::Dpml {
            leaders: 16,
            inner: FlatAlg::RecursiveDoubling,
        },
        Algorithm::DpmlPipelined {
            leaders: 16,
            chunks: 8,
        },
    ];

    println!(
        "{:<22} {:>12} {:>12} {:>12}",
        "algorithm", "4KB (us)", "64KB (us)", "1MB (us)"
    );
    for alg in candidates {
        print!("{:<22}", alg.name());
        for bytes in [4 * 1024u64, 64 * 1024, 1 << 20] {
            // Every run is verified: the simulator proves each rank ended
            // with every rank's contribution over the whole vector.
            let scenario = Scenario::new(&preset, &spec, alg, bytes);
            let rep = run(&scenario, &Exec::default()).expect("verified allreduce");
            print!(" {:>12.1}", rep.latency_us);
        }
        println!();
    }

    println!(
        "\nDPML parallelizes the intra-node reduction across leaders and the\n\
         inter-node transfer across concurrent flows — the win grows with\n\
         message size, exactly the trend of the paper's Figures 4-7."
    );
}
