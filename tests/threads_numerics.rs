//! Numerical validation. Compiled schedules run under the untimed
//! interpreter (`dpml_engine::exec`), whose coverage must hold every
//! contribution exactly once and whose race check must find nothing; the
//! real-threads intra-node runtime must match a serial sum within
//! reassociation tolerance.

use dpml::core::algorithms::{Algorithm, FlatAlg};
use dpml::core::run::{simulate, Exec, RunError};
use dpml::engine::exec::{self, ExecError};
use dpml::engine::report::verify_allreduce;
use dpml::engine::{CoverageMap, Instr, SimError, VerifyError, WorldProgram};
use dpml::fabric::presets::{all_presets, cluster_b, Preset};
use dpml::shm::kernels::{assert_close, serial_reference};
use dpml::shm::NodeRuntime;
use dpml::topology::RankMap;
use proptest::prelude::*;

const INNERS: [FlatAlg; 3] = [
    FlatAlg::RecursiveDoubling,
    FlatAlg::Rabenseifner,
    FlatAlg::Ring,
];

fn gen_inputs(p: usize, n: usize, seed: u64) -> Vec<Vec<f64>> {
    (0..p)
        .map(|r| {
            (0..n)
                .map(|i| {
                    let x = seed
                        .wrapping_mul(0x9E3779B97F4A7C15)
                        .wrapping_add((r * n + i) as u64)
                        .wrapping_mul(0xBF58476D1CE4E5B9);
                    ((x >> 40) as f64) / 256.0 - 32_768.0
                })
                .collect()
        })
        .collect()
}

/// Cluster B block map of `nodes × ppn`.
fn map(nodes: u32, ppn: u32) -> RankMap {
    RankMap::block(&cluster_b().spec(nodes, ppn).expect("spec"))
}

/// Compile `alg` and interpret it.
fn results(alg: Algorithm, map: &RankMap, bytes: u64) -> Result<Vec<CoverageMap>, ExecError> {
    let world = alg.build(map, bytes).expect("build");
    exec::run(&world, map)
}

/// Compile `alg`, interpret it and verify the allreduce.
fn check(alg: Algorithm, map: &RankMap, bytes: u64) -> Result<(), String> {
    let results = results(alg, map, bytes).map_err(|e| e.to_string())?;
    verify_allreduce(&results, bytes).map_err(|e| e.to_string())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn cluster_dpml_matches_serial(
        nodes in 1u32..5,
        ppn in 1u32..5,
        n in 1u64..200,
        l_seed in 0u32..4,
        inner in 0usize..3,
    ) {
        let alg = Algorithm::Dpml { leaders: 1 + l_seed % ppn, inner: INNERS[inner] };
        prop_assert_eq!(check(alg, &map(nodes, ppn), n), Ok(()));
    }

    #[test]
    fn cluster_rd_matches_serial(
        nodes in 1u32..5,
        ppn in 1u32..4,
        n in 1u64..150,
    ) {
        prop_assert_eq!(check(Algorithm::RecursiveDoubling, &map(nodes, ppn), n), Ok(()));
    }

    #[test]
    fn intranode_multi_leader_matches_reference(
        ppn in 1usize..7,
        n in 0usize..300,
        l_seed in 0usize..6,
        seed in 0u64..10_000,
    ) {
        let l = 1 + l_seed % ppn;
        let rt = NodeRuntime::new(ppn);
        let inputs = gen_inputs(ppn, n, seed);
        let got = rt.allreduce(&inputs, l);
        let expect = serial_reference(&inputs);
        for g in &got {
            assert_close(g, &expect, 1e-9);
        }
    }
}

#[test]
fn dpml_and_flat_rd_agree_exactly_shaped() {
    // A shape big enough to exercise the non-power-of-two fold (6 nodes)
    // and uneven partitions (n % l != 0).
    let m = map(6, 3);
    let dpml = Algorithm::Dpml {
        leaders: 3,
        inner: FlatAlg::RecursiveDoubling,
    };
    let a = results(dpml, &m, 1013).unwrap();
    let b = results(Algorithm::RecursiveDoubling, &m, 1013).unwrap();
    verify_allreduce(&a, 1013).unwrap();
    assert_eq!(a, b, "coverage sums are exact, so the two must agree");
}

/// Every variant this geometry admits: each `FlatAlg` inner for
/// single-leader and DPML, `leaders ∈ {1, 2, 4, ppn}`, and pipelined
/// `chunks ∈ {3, 4}`.
fn host_variants(ppn: u32) -> Vec<Algorithm> {
    let mut leaders: Vec<u32> = [1, 2, 4, ppn].into_iter().filter(|&l| l <= ppn).collect();
    leaders.sort_unstable();
    leaders.dedup();
    let mut algs = vec![
        Algorithm::RecursiveDoubling,
        Algorithm::Rabenseifner,
        Algorithm::Ring,
        Algorithm::BinomialReduceBcast,
    ];
    for inner in INNERS {
        algs.push(Algorithm::SingleLeader { inner });
        algs.extend(
            leaders
                .iter()
                .map(|&leaders| Algorithm::Dpml { leaders, inner }),
        );
    }
    for chunks in [3, 4] {
        algs.extend(
            leaders
                .iter()
                .map(|&leaders| Algorithm::DpmlPipelined { leaders, chunks }),
        );
    }
    algs
}

/// On every preset that can run `alg`, the engine runs the point and its
/// untimed pass finds no race and verifies the result; returns the number
/// of (preset, program) points.
fn differential(presets: &[Preset], nodes: u32, ppn: u32, alg: Algorithm, bytes: u64) -> usize {
    let mut points = 0;
    for preset in presets
        .iter()
        .filter(|p| !alg.needs_sharp() || p.fabric.has_sharp())
    {
        let m = RankMap::block(&preset.spec(nodes, ppn).expect("spec"));
        let world = alg.build(&m, bytes).expect("build");
        let at = || format!("{} {nodes}x{ppn} {} {bytes}B", preset.id, alg.name());
        simulate(preset, &m, &world, &Exec::default())
            .unwrap_or_else(|e| panic!("{}: {e}", at()))
            .verify_allreduce()
            .unwrap_or_else(|e| panic!("{}: {e}", at()));
        points += 1;
    }
    points
}

#[test]
fn every_variant_is_exact_and_race_free_on_the_matrix() {
    // `tests/allreduce_matrix.rs`'s geometries; SHArP designs also at its
    // SHArP-only shapes.
    let presets = all_presets();
    let shapes = [(4u32, 4u32), (3, 5), (5, 3), (7, 1), (1, 7), (6, 6), (4, 8)];
    let sharp_shapes = [(2u32, 1u32), (16, 1), (8, 28)];
    let sizes = [1u64, 2, 3, 7, 8, 997, 6000];
    let sharp = [Algorithm::SharpNodeLeader, Algorithm::SharpSocketLeader];
    let mut points = 0;
    for (nodes, ppn) in shapes {
        let big = ((nodes, ppn) == (4, 4)).then_some(65_536);
        for alg in host_variants(ppn).into_iter().chain(sharp) {
            for bytes in sizes.into_iter().chain(big) {
                points += differential(&presets, nodes, ppn, alg, bytes);
            }
        }
    }
    for (nodes, ppn) in sharp_shapes {
        for alg in sharp {
            for bytes in sizes {
                points += differential(&presets, nodes, ppn, alg, bytes);
            }
        }
    }
    assert!(points > 4_000, "matrix shrank to {points} points");
}

/// One mutant per `Reduce` with a non-empty range: the first source
/// folded twice (`dup`), or the whole instruction repeated.
fn reduce_mutants(world: &WorldProgram, dup: bool) -> Vec<WorldProgram> {
    let mut out = Vec::new();
    for (r, prog) in world.programs.iter().enumerate() {
        for (pc, instr) in prog.instrs.iter().enumerate() {
            let Instr::Reduce { srcs, dst, range } = instr else {
                continue;
            };
            if range.is_empty() {
                continue;
            }
            let mut w = world.clone();
            let instrs = &mut w.programs[r].instrs;
            if dup {
                let mut srcs = srcs.clone();
                srcs.push(srcs[0]);
                instrs[pc] = Instr::Reduce {
                    srcs,
                    dst: *dst,
                    range: *range,
                };
            } else {
                instrs.insert(pc + 1, instr.clone());
            }
            out.push(w);
        }
    }
    out
}

#[test]
fn double_folds_fail_verification() {
    let preset = cluster_b();
    let m = map(3, 4);
    let algs = [
        Algorithm::Dpml {
            leaders: 2,
            inner: FlatAlg::RecursiveDoubling,
        },
        Algorithm::Ring,
        Algorithm::SingleLeader {
            inner: FlatAlg::Rabenseifner,
        },
        Algorithm::DpmlPipelined {
            leaders: 4,
            chunks: 3,
        },
    ];
    let mut mutants = 0;
    for alg in algs {
        let world = alg.build(&m, 997).expect("build");
        for dup in [true, false] {
            for (i, mutant) in reduce_mutants(&world, dup).iter().enumerate() {
                let at = || format!("{} mutant {i} (dup {dup})", alg.name());
                // Coverage sums count multiplicity, so both the untimed
                // pass and the engine's report reject every mutant.
                let got = exec::run(mutant, &m).expect("no race");
                assert!(
                    matches!(
                        verify_allreduce(&got, 997),
                        Err(VerifyError::WrongResult { .. })
                    ),
                    "{}: exec accepted a double fold",
                    at()
                );
                let rep = simulate(&preset, &m, mutant, &Exec::default()).expect("sim");
                assert!(
                    matches!(rep.verify_allreduce(), Err(VerifyError::WrongResult { .. })),
                    "{}: coverage accepted a double fold",
                    at()
                );
                mutants += 1;
            }
        }
    }
    assert!(mutants >= 24, "only {mutants} mutants");
}

/// `world` without each rank's first barrier: DPML's `gather_done`, so a
/// leader may fold a slot before its writer deposits it.
fn without_first_barrier(world: &WorldProgram) -> WorldProgram {
    let mut w = world.clone();
    for prog in &mut w.programs {
        let instrs = &mut prog.instrs;
        let pc = instrs
            .iter()
            .position(|i| matches!(i, Instr::Barrier { .. }))
            .expect("a barrier");
        instrs.remove(pc);
    }
    w
}

/// `world` with rank 0's first `Reduce` after a `WaitAll` moved before
/// it, so it folds a receive buffer that may not have been written yet.
fn reduce_before_wait(world: &WorldProgram) -> WorldProgram {
    let mut w = world.clone();
    let instrs = &mut w.programs[0].instrs;
    let pc = instrs
        .windows(2)
        .position(|p| matches!(p, [Instr::WaitAll { .. }, Instr::Reduce { .. }]))
        .expect("a reduce after a wait");
    instrs.swap(pc, pc + 1);
    w
}

#[test]
fn racy_mutants_fail_with_a_race() {
    let preset = cluster_b();
    let m = map(3, 4);
    let dpml = Algorithm::Dpml {
        leaders: 2,
        inner: FlatAlg::RecursiveDoubling,
    };
    let world = dpml.build(&m, 997).expect("build");
    for mutant in [without_first_barrier(&world), reduce_before_wait(&world)] {
        assert!(
            matches!(exec::run(&mutant, &m), Err(ExecError::Race(_))),
            "exec missed the race"
        );
        let err = simulate(&preset, &m, &mutant, &Exec::default()).unwrap_err();
        let RunError::Sim(err) = err else {
            panic!("engine: {err}");
        };
        assert!(matches!(err, SimError::Race(_)), "engine: {err}");
        assert_eq!(err.label(), "race");
    }
}
