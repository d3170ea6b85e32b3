//! Scenario-parallel sweep runner.
//!
//! Every figure-registry entry and bench walks a matrix of independent sweep
//! points (cluster × algorithm × size × seed). Each point is a closed
//! world — its own `SimConfig`, its own fault plan, its own RNG stream —
//! so the points can run on worker threads with **zero** cross-talk. The
//! only determinism hazards are (a) sharing one RNG across points and
//! (b) collecting results in completion order; this module forecloses
//! both:
//!
//! * every scenario derives its own RNG seed from `(base_seed, index)`
//!   via an splitmix64-style mix ([`scenario_seed`]), so the stream a
//!   point sees does not depend on which thread ran it or when;
//! * results come back in *input* order ([`rayon`]'s `collect` here is
//!   order-preserving), so serialized output is byte-identical to a
//!   serial run — `tests/determinism_and_serde.rs` locks this in.
//!
//! Use [`sweep`] for closures that carry their own seeds, or
//! [`sweep_seeded`] to have the runner hand each scenario its derived
//! stream seed. [`sweep_serial`] is the single-threaded reference
//! implementation the determinism test compares against.

use rayon::prelude::*;

/// Derive the RNG stream seed for scenario `idx` of a sweep rooted at
/// `base`. splitmix64 finalizer over `base + idx·φ64`: consecutive
/// indices land in statistically independent streams, and the mapping
/// depends only on `(base, idx)` — never on thread schedule.
pub fn scenario_seed(base: u64, idx: u64) -> u64 {
    let mut z = base
        .wrapping_add(idx.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Run independent scenarios across worker threads; results are returned
/// in input order regardless of completion order.
pub fn sweep<C, R, F>(scenarios: Vec<C>, run: F) -> Vec<R>
where
    C: Send,
    R: Send,
    F: Fn(C) -> R + Sync,
{
    scenarios.into_par_iter().map(run).collect()
}

/// Like [`sweep`], but hands each scenario its derived per-stream seed
/// `scenario_seed(base_seed, idx)` alongside the config.
pub fn sweep_seeded<C, R, F>(base_seed: u64, scenarios: Vec<C>, run: F) -> Vec<R>
where
    C: Send,
    R: Send,
    F: Fn(C, u64) -> R + Sync,
{
    let indexed: Vec<(u64, C)> = scenarios
        .into_iter()
        .enumerate()
        .map(|(i, c)| (scenario_seed(base_seed, i as u64), c))
        .collect();
    indexed
        .into_par_iter()
        .map(|(seed, c)| run(c, seed))
        .collect()
}

/// Single-threaded reference: identical contract to [`sweep_seeded`],
/// used by the determinism test to prove the parallel runner leaks no
/// thread-schedule dependence into results.
pub fn sweep_serial<C, R, F>(base_seed: u64, scenarios: Vec<C>, run: F) -> Vec<R>
where
    F: Fn(C, u64) -> R,
{
    scenarios
        .into_iter()
        .enumerate()
        .map(|(i, c)| run(c, scenario_seed(base_seed, i as u64)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_stable_and_distinct() {
        let s: Vec<u64> = (0..64).map(|i| scenario_seed(42, i)).collect();
        let again: Vec<u64> = (0..64).map(|i| scenario_seed(42, i)).collect();
        assert_eq!(s, again);
        let mut uniq = s.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), s.len(), "seed collision in first 64 streams");
    }

    #[test]
    fn parallel_matches_serial_in_order() {
        let configs: Vec<u64> = (0..100).collect();
        let par = sweep_seeded(7, configs.clone(), |c, seed| (c, seed, c * 2));
        let ser = sweep_serial(7, configs, |c, seed| (c, seed, c * 2));
        assert_eq!(par, ser);
    }

    #[test]
    fn sweep_preserves_input_order() {
        let out = sweep((0..257u32).collect(), |i| i * i);
        assert_eq!(out, (0..257u32).map(|i| i * i).collect::<Vec<_>>());
    }
}
