//! Reusable retry/backoff schedules.
//!
//! Every retry loop in this workspace wants the same shape: a capped
//! exponential delay ladder, a hard attempt budget, and — when many
//! clients might retry in lockstep — jitter that is *deterministic* in a
//! seed, so a replayed scenario backs off identically. [`RetryPlan`]
//! packages that shape once. The engine's wire-retransmit protocol
//! ([`crate::DataFaults::retransmit_delay`]) and the `dpml-serve` job
//! scheduler both derive their delays from it.
//!
//! Two streams are deliberately separated:
//!
//! * the **envelope** ([`RetryPlan::envelope`]) is the jitter-free capped
//!   exponential `base · 2^min(attempt, cap_doublings)` — monotone
//!   non-decreasing and eventually constant;
//! * the **jittered delay** ([`RetryPlan::delay`]) stretches the envelope
//!   by `1 + jitter · u01(seed, attempt)`, so it always lands in
//!   `[envelope, envelope · (1 + jitter)]`.
//!
//! With `jitter == 0.0` the delay *is* the envelope, bit for bit — the
//! wire protocol relies on that to keep golden-locked simulations
//! unchanged.

use crate::{splitmix64, u01};
use serde::{Deserialize, Serialize};

/// Salt separating retry-jitter draws from the noise and data-fault draw
/// streams (all are splitmix64 over `(seed, counter)`).
pub const RETRY_JITTER_SALT: u64 = 0x7e7a_11ab_acc0_ff5e;

/// A deterministic capped-exponential retry schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPlan {
    /// Attempt budget: how many *retries* may follow the initial try.
    /// `0` means fail fast — no delay is ever produced.
    pub max_retries: u32,
    /// Delay before the first retry, seconds.
    pub base_delay: f64,
    /// Delays stop doubling after this many doublings (the cap is
    /// `base_delay * 2^cap_doublings`).
    pub cap_doublings: u32,
    /// Jitter amplitude in `[0, 1]`: each retry's delay is stretched by
    /// an independent factor in `[1, 1 + jitter]`. `0.0` = no jitter and
    /// no hash draws at all.
    pub jitter: f64,
    /// Seed for the jitter stream (unused when `jitter == 0.0`).
    pub seed: u64,
}

impl RetryPlan {
    /// Jitter-free plan: `base · 2^min(k, cap)` for up to `max_retries`
    /// retries. This is the wire protocol's shape.
    pub const fn capped_exponential(base_delay: f64, cap_doublings: u32, max_retries: u32) -> Self {
        RetryPlan {
            max_retries,
            base_delay,
            cap_doublings,
            jitter: 0.0,
            seed: 0,
        }
    }

    /// The same plan with seeded jitter — what a fleet of clients should
    /// use so synchronized failures do not retry in lockstep.
    pub fn with_jitter(mut self, jitter: f64, seed: u64) -> Self {
        self.jitter = jitter;
        self.seed = seed;
        self
    }

    /// The jitter-free delay envelope for retry `attempt` (0-based):
    /// `base_delay * 2^min(attempt, cap_doublings)`. Ignores the budget.
    #[inline]
    pub fn envelope(&self, attempt: u32) -> f64 {
        // 2^k as an exact f64 product; `cap_doublings` beyond 52 would
        // overflow the `1u64 << k` shift, so split into exp2.
        let k = attempt.min(self.cap_doublings);
        self.base_delay * f64::exp2(k as f64)
    }

    /// The jitter factor applied to retry `attempt`: exactly `1.0` when
    /// `jitter == 0.0` (no draw happens), else `1 + jitter · u01` with
    /// the draw keyed by `(seed, attempt)` only — never by wall clock or
    /// call order, so a replay reproduces the schedule bit for bit.
    #[inline]
    fn jitter_factor(&self, attempt: u32) -> f64 {
        if self.jitter == 0.0 {
            return 1.0;
        }
        1.0 + self.jitter * u01(splitmix64(self.seed ^ RETRY_JITTER_SALT), 0, attempt as u64)
    }

    /// Delay before retry `attempt` (0-based), or `None` once the budget
    /// is exhausted (`attempt >= max_retries`).
    #[inline]
    pub fn delay(&self, attempt: u32) -> Option<f64> {
        if attempt >= self.max_retries {
            return None;
        }
        Some(self.envelope(attempt) * self.jitter_factor(attempt))
    }

    /// Every delay in the schedule, in order. Empty when the budget is
    /// zero.
    pub fn delays(&self) -> Vec<f64> {
        (0..self.max_retries)
            .map(|a| self.delay(a).expect("attempt < max_retries"))
            .collect()
    }

    /// Worst-case total time spent backing off across the whole budget.
    pub fn total_backoff(&self) -> f64 {
        self.delays().iter().sum()
    }

    /// Reject plans whose numbers would poison a scheduler (NaN/negative
    /// delays, jitter outside `[0, 1]`).
    pub fn validate(&self) -> Result<(), crate::PlanError> {
        if !self.base_delay.is_finite() || self.base_delay < 0.0 {
            return Err(crate::PlanError::new(format!(
                "retry base_delay must be finite and >= 0, got {}",
                self.base_delay
            )));
        }
        if !self.jitter.is_finite() || !(0.0..=1.0).contains(&self.jitter) {
            return Err(crate::PlanError::new(format!(
                "retry jitter must be in [0, 1], got {}",
                self.jitter
            )));
        }
        if self.cap_doublings > 52 {
            return Err(crate::PlanError::new(format!(
                "retry cap_doublings must be <= 52, got {}",
                self.cap_doublings
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_doubles_then_caps() {
        let p = RetryPlan::capped_exponential(1e-6, 4, 100);
        assert_eq!(p.envelope(0), 1e-6);
        assert_eq!(p.envelope(1), 2e-6);
        assert_eq!(p.envelope(4), 16e-6);
        assert_eq!(p.envelope(5), 16e-6);
        assert_eq!(p.envelope(40), 16e-6);
    }

    #[test]
    fn zero_budget_fails_fast() {
        let p = RetryPlan::capped_exponential(1e-3, 4, 0);
        assert_eq!(p.delay(0), None);
        assert!(p.delays().is_empty());
        assert_eq!(p.total_backoff(), 0.0);
    }

    #[test]
    fn budget_exhausts_exactly_at_max_retries() {
        let p = RetryPlan::capped_exponential(1e-6, 4, 3);
        assert!(p.delay(2).is_some());
        assert_eq!(p.delay(3), None);
        assert_eq!(p.delays().len(), 3);
    }

    #[test]
    fn zero_jitter_is_bitwise_envelope() {
        let p = RetryPlan::capped_exponential(3.7e-5, 4, 16);
        for a in 0..16 {
            assert_eq!(p.delay(a).unwrap().to_bits(), p.envelope(a).to_bits());
        }
    }

    #[test]
    fn jitter_bounded_and_reproducible() {
        let p = RetryPlan::capped_exponential(1e-4, 6, 32).with_jitter(0.5, 99);
        let q = RetryPlan::capped_exponential(1e-4, 6, 32).with_jitter(0.5, 99);
        for a in 0..32 {
            let d = p.delay(a).unwrap();
            let env = p.envelope(a);
            assert!(d >= env && d <= env * 1.5, "attempt {a}: {d} vs {env}");
            assert_eq!(d.to_bits(), q.delay(a).unwrap().to_bits(), "replay");
        }
        let r = p.with_jitter(0.5, 100);
        assert!(
            (0..32).any(|a| r.delay(a) != p.delay(a)),
            "different seeds must differ somewhere"
        );
    }

    #[test]
    fn validate_rejects_poison() {
        let mut p = RetryPlan::capped_exponential(f64::NAN, 4, 8);
        assert!(p.validate().is_err());
        p.base_delay = -1.0;
        assert!(p.validate().is_err());
        p.base_delay = 1e-6;
        p.jitter = 1.5;
        assert!(p.validate().is_err());
        p.jitter = 0.25;
        p.cap_doublings = 60;
        assert!(p.validate().is_err());
        p.cap_doublings = 4;
        assert!(p.validate().is_ok());
    }
}
