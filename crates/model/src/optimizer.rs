//! Leader-count optimization driven by the analytic model.
//!
//! Section 6.4 of the paper notes that the optimal number of leaders depends
//! on message size, process count, and hardware; the authors tuned
//! empirically. The analytic model gives a first-order prediction of the
//! same tables: minimize Eq. (7) over candidate leader counts.

use crate::cost::CostParams;
use serde::{Deserialize, Serialize};

/// One row of a leader sweep: leader count and modeled latency.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LeaderPoint {
    /// Leader count evaluated.
    pub leaders: u32,
    /// Modeled allreduce time, seconds.
    pub time: f64,
}

/// Candidate leader counts: powers of two up to `ppn`, always including 1.
fn candidate_leader_counts(ppn: u32) -> Vec<u32> {
    let mut out = Vec::new();
    let mut l = 1u32;
    while l <= ppn {
        out.push(l);
        l *= 2;
    }
    out
}

/// Evaluate Eq. (7) for every candidate leader count.
pub fn leader_sweep(base: &CostParams) -> Vec<LeaderPoint> {
    candidate_leader_counts(base.ppn())
        .into_iter()
        .map(|l| LeaderPoint {
            leaders: l,
            time: base.with_leaders(l).t_allreduce(),
        })
        .collect()
}

/// The leader count minimizing modeled latency for this configuration.
pub fn best_leader_count(base: &CostParams) -> u32 {
    leader_sweep(base)
        .into_iter()
        .min_by(|a, b| a.time.total_cmp(&b.time))
        .map(|p| p.leaders)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(n: u64) -> CostParams {
        CostParams {
            p: 1792,
            h: 64,
            l: 1,
            n,
            a: 1.4e-6,
            b: 1.0 / 3.0e9,
            a_shm: 150e-9,
            b_shm: 1.0 / 5.0e9,
            c: 1.0 / 3.0e9,
            k: 1,
        }
    }

    #[test]
    fn candidates_are_powers_of_two_capped_at_ppn() {
        assert_eq!(candidate_leader_counts(28), vec![1, 2, 4, 8, 16]);
        assert_eq!(candidate_leader_counts(64), vec![1, 2, 4, 8, 16, 32, 64]);
        assert_eq!(candidate_leader_counts(1), vec![1]);
    }

    #[test]
    fn small_messages_prefer_few_leaders() {
        // Section 6.2: below ~1KB more leaders do not help (and can hurt,
        // since each copy pays a' per leader).
        let best = best_leader_count(&base(64));
        assert!(best <= 2, "best={best}");
    }

    #[test]
    fn large_messages_prefer_many_leaders() {
        let best = best_leader_count(&base(512 * 1024));
        assert!(best >= 8, "best={best}");
    }

    #[test]
    fn sweep_is_complete_and_ordered() {
        let sweep = leader_sweep(&base(4096));
        assert_eq!(sweep.len(), 5);
        assert!(sweep.windows(2).all(|w| w[0].leaders < w[1].leaders));
        assert!(sweep.iter().all(|p| p.time.is_finite() && p.time > 0.0));
    }

    #[test]
    fn best_is_argmin_of_sweep() {
        let b = base(32 * 1024);
        let best = best_leader_count(&b);
        let sweep = leader_sweep(&b);
        let min = sweep
            .iter()
            .min_by(|x, y| x.time.total_cmp(&y.time))
            .unwrap();
        assert_eq!(best, min.leaders);
    }
}
