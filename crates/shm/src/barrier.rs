//! A sense-reversing spin barrier.
//!
//! Collective phases are microseconds long, so parking threads in the
//! kernel (as `std::sync::Barrier` may) costs more than the phase itself.
//! This is the classic centralized sense-reversing barrier from the
//! concurrency literature (cf. *Rust Atomics and Locks*, ch. 9): arrivals
//! decrement a counter; the last arrival resets it and flips the global
//! sense; everyone else spins on the sense word with `Acquire` loads.

use crate::metrics::BARRIER_WAIT_NS;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// A reusable spin barrier for a fixed set of threads.
#[derive(Debug)]
pub struct SpinBarrier {
    count: AtomicUsize,
    sense: AtomicBool,
    total: usize,
}

impl SpinBarrier {
    /// Barrier for `total` threads.
    pub fn new(total: usize) -> Self {
        assert!(total >= 1, "barrier needs at least one thread");
        SpinBarrier {
            count: AtomicUsize::new(total),
            sense: AtomicBool::new(false),
            total,
        }
    }

    /// Block until all `total` threads have called `wait`.
    ///
    /// Each thread must pass its own `local_sense` state, initialized to
    /// `false` and flipped by this call; see [`BarrierToken`] for a safe
    /// wrapper.
    pub fn wait(&self, local_sense: &mut bool) {
        let start = std::time::Instant::now();
        *local_sense = !*local_sense;
        if self.count.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last arrival: reset and release everyone.
            self.count.store(self.total, Ordering::Relaxed);
            self.sense.store(*local_sense, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.sense.load(Ordering::Acquire) != *local_sense {
                spins += 1;
                if spins < 64 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
        BARRIER_WAIT_NS.record(start.elapsed().as_nanos() as u64);
    }
}

/// Per-thread barrier participation state.
#[derive(Debug, Default)]
pub struct BarrierToken {
    sense: bool,
}

impl BarrierToken {
    /// Fresh token (one per thread, per barrier).
    pub fn new() -> Self {
        BarrierToken::default()
    }

    /// Wait on `barrier`.
    pub fn wait(&mut self, barrier: &SpinBarrier) {
        barrier.wait(&mut self.sense);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn single_thread_barrier_is_noop() {
        let b = SpinBarrier::new(1);
        let mut t = BarrierToken::new();
        t.wait(&b);
        t.wait(&b);
    }

    #[test]
    fn barrier_separates_phases() {
        // Each thread increments a phase counter; after each barrier every
        // thread must observe all increments of the previous phase.
        const THREADS: usize = 8;
        const PHASES: usize = 50;
        let barrier = Arc::new(SpinBarrier::new(THREADS));
        let counters: Arc<Vec<AtomicU64>> =
            Arc::new((0..PHASES).map(|_| AtomicU64::new(0)).collect());
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                let counters = Arc::clone(&counters);
                std::thread::spawn(move || {
                    let mut tok = BarrierToken::new();
                    for ph in 0..PHASES {
                        counters[ph].fetch_add(1, Ordering::Relaxed);
                        tok.wait(&barrier);
                        assert_eq!(
                            counters[ph].load(Ordering::Relaxed),
                            THREADS as u64,
                            "phase {ph} not complete after barrier"
                        );
                        tok.wait(&barrier);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_threads_rejected() {
        let _ = SpinBarrier::new(0);
    }
}
