//! `cargo bench` entry point that exercises thinned versions of every
//! figure-regeneration path (the full sweeps live in the `fig*` binaries —
//! see DESIGN.md §3). Criterion measures harness wall time; the virtual
//! latencies themselves are printed by the binaries and recorded in
//! EXPERIMENTS.md.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dpml_bench::latency_us;
use dpml_core::algorithms::{Algorithm, FlatAlg};
use dpml_core::selector::Library;
use dpml_fabric::presets::{cluster_a, cluster_b, cluster_c};
use dpml_workloads::app::run_app;
use dpml_workloads::HpcgConfig;
use std::hint::black_box;

fn bench_leader_sweep_path(c: &mut Criterion) {
    let preset = cluster_b();
    let spec = preset.spec(8, 28).unwrap();
    let mut g = c.benchmark_group("fig4_7_path");
    g.sample_size(10);
    for leaders in [1u32, 16] {
        g.bench_with_input(BenchmarkId::new("dpml_64k", leaders), &leaders, |b, &l| {
            b.iter(|| {
                black_box(latency_us(
                    &preset,
                    &spec,
                    Algorithm::Dpml {
                        leaders: l,
                        inner: FlatAlg::RecursiveDoubling,
                    },
                    64 * 1024,
                ))
            });
        });
    }
    g.finish();
}

fn bench_library_dispatch_path(c: &mut Criterion) {
    let preset = cluster_c();
    let spec = preset.spec(8, 28).unwrap();
    let mut g = c.benchmark_group("fig9_path");
    g.sample_size(10);
    for lib in [Library::Mvapich2, Library::DpmlTuned] {
        g.bench_with_input(BenchmarkId::new("lib_64k", lib.name()), &lib, |b, lib| {
            b.iter(|| {
                let alg = lib.choose(&preset, &spec, 64 * 1024);
                black_box(latency_us(&preset, &spec, alg, 64 * 1024))
            });
        });
    }
    g.finish();
}

fn bench_sharp_path(c: &mut Criterion) {
    let preset = cluster_a();
    let spec = preset.spec(8, 28).unwrap();
    let mut g = c.benchmark_group("fig8_path");
    g.sample_size(10);
    g.bench_function("sharp_socket_256b", |b| {
        b.iter(|| {
            black_box(latency_us(
                &preset,
                &spec,
                Algorithm::SharpSocketLeader,
                256,
            ))
        });
    });
    g.finish();
}

fn bench_app_path(c: &mut Criterion) {
    let preset = cluster_a();
    let spec = preset.spec(2, 28).unwrap();
    let cfg = HpcgConfig {
        iterations: 5,
        ..Default::default()
    };
    let profile = cfg.profile();
    let mut g = c.benchmark_group("fig11_path");
    g.sample_size(10);
    g.bench_function("hpcg_5it_sharp", |b| {
        b.iter(|| {
            black_box(run_app(&preset, &spec, &profile, &|_| Algorithm::SharpSocketLeader).unwrap())
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_leader_sweep_path,
    bench_library_dispatch_path,
    bench_sharp_path,
    bench_app_path
);
criterion_main!(benches);
