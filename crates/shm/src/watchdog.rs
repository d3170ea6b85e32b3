//! Hang detection for the real-threads runtime.
//!
//! The spin barrier and mailboxes block forever by design — that is the
//! correct behaviour for a healthy run, and exactly the wrong one when a
//! peer thread dies or a schedule is mis-compiled: the test suite (or a
//! bench) then hangs instead of failing. This module gives every blocking
//! primitive a deadline variant that converts a would-be hang into a
//! structured [`ShmTimeout`], carrying enough context (who was awaited,
//! for how long) to diagnose the stall.
//!
//! A timed-out [`SpinBarrier`] is *poisoned*: the giving-up thread has
//! already decremented the arrival counter, so the barrier must not be
//! reused after an `Err` — tear the runtime down instead. That trade-off
//! is deliberate: the watchdog exists to turn a deadlock into an error
//! report, not to resume the collective.

use crate::barrier::SpinBarrier;
use crate::mailbox::Mailbox;
use std::time::{Duration, Instant};

/// Deadlines for the blocking shared-memory primitives.
///
/// Historically every call site hardcoded its own `Duration`; runtimes
/// that host many jobs (the `dpml-serve` daemon) need the timeouts to
/// come from configuration — a fabric preset carries default limits
/// (`dpml_fabric::WatchdogLimits`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Deadline for a [`SpinBarrier`] arrival.
    pub barrier: Duration,
    /// Deadline for a [`Mailbox`] matched receive.
    pub recv: Duration,
}

/// Default barrier/receive deadline: generous enough that a healthy run
/// under heavy CI load never trips it, small enough that a wedged worker
/// is reported within a human attention span.
pub const DEFAULT_WATCHDOG_MS: u64 = 2_000;

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig::from_millis(DEFAULT_WATCHDOG_MS, DEFAULT_WATCHDOG_MS)
    }
}

impl WatchdogConfig {
    /// Config from millisecond limits (the representation fabric presets
    /// carry, kept integral so presets stay serializable and comparable).
    const fn from_millis(barrier_ms: u64, recv_ms: u64) -> Self {
        WatchdogConfig {
            barrier: Duration::from_millis(barrier_ms),
            recv: Duration::from_millis(recv_ms),
        }
    }
}

/// A blocking shared-memory primitive exceeded its deadline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShmTimeout {
    /// Not all threads reached the barrier in time. The barrier is
    /// poisoned; the runtime owning it must be torn down.
    Barrier {
        /// How long the thread spun before giving up.
        waited: Duration,
    },
    /// No message matching `(from, tag)` arrived in time.
    Recv {
        /// Awaited sender's global rank.
        from: usize,
        /// Awaited match tag.
        tag: u64,
        /// How long the receiver waited.
        waited: Duration,
    },
}

impl std::fmt::Display for ShmTimeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShmTimeout::Barrier { waited } => {
                write!(
                    f,
                    "barrier not reached by all threads within {waited:?} (poisoned)"
                )
            }
            ShmTimeout::Recv { from, tag, waited } => {
                write!(f, "no message from rank {from} tag {tag} within {waited:?}")
            }
        }
    }
}

impl std::error::Error for ShmTimeout {}

impl SpinBarrier {
    /// [`SpinBarrier::wait`] with a deadline: returns
    /// [`ShmTimeout::Barrier`] if the other threads do not arrive within
    /// `timeout`, instead of spinning forever.
    ///
    /// On `Err` the barrier is poisoned (this thread's arrival was
    /// recorded but never completed) and must not be waited on again.
    pub fn wait_timeout(
        &self,
        local_sense: &mut bool,
        timeout: Duration,
    ) -> Result<(), ShmTimeout> {
        let deadline = Instant::now() + timeout;
        self.wait_with(local_sense, |spins| {
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
            // Checking the clock every iteration would put an `Instant::now`
            // syscall in the hot spin path; amortize it.
            if spins % 1024 == 0 && Instant::now() >= deadline {
                Err(ShmTimeout::Barrier { waited: timeout })
            } else {
                Ok(())
            }
        })
    }
}

impl Mailbox {
    /// [`Mailbox::recv_from`] with a deadline: returns
    /// [`ShmTimeout::Recv`] if no matching message arrives within
    /// `timeout`. Non-matching arrivals are still buffered, so a later
    /// receive (timed or not) observes them in order.
    fn recv_from_timeout(
        &mut self,
        from: usize,
        tag: u64,
        timeout: Duration,
    ) -> Result<Vec<f64>, ShmTimeout> {
        let deadline = Instant::now() + timeout;
        if let Some(m) = self.take_pending(from, tag) {
            return Ok(m.data);
        }
        loop {
            match self.recv_deadline(deadline) {
                Some(m) => {
                    if m.from == from && m.tag == tag {
                        return Ok(m.data);
                    }
                    self.buffer(m);
                }
                None => {
                    return Err(ShmTimeout::Recv {
                        from,
                        tag,
                        waited: timeout,
                    })
                }
            }
        }
    }
}

/// Deadline-guarded exchange helper used by the cluster runtime's leader
/// phase: send to `peer` and await its reply, with a watchdog on the
/// receive so a dead peer yields an error instead of a hang.
pub fn exchange_with_deadline(
    net: &crate::mailbox::Network,
    mbox: &mut Mailbox,
    me: usize,
    peer: usize,
    tag: u64,
    data: Vec<f64>,
    timeout: Duration,
) -> Result<Vec<f64>, ShmTimeout> {
    net.send(me, peer, tag, data);
    mbox.recv_from_timeout(peer, tag, timeout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mailbox::Network;
    use std::sync::Arc;

    // These tests are deterministic, not timing-sensitive: the timeout
    // paths have *no* competing thread that could race the deadline (the
    // awaited event can never occur), and the success paths use deadlines
    // orders of magnitude above any plausible scheduling delay.

    #[test]
    fn config_defaults_and_millis() {
        let cfg = WatchdogConfig::default();
        assert_eq!(cfg.barrier, Duration::from_millis(DEFAULT_WATCHDOG_MS));
        assert_eq!(cfg.recv, Duration::from_millis(DEFAULT_WATCHDOG_MS));
        let custom = WatchdogConfig::from_millis(500, 1500);
        assert_eq!(custom.barrier, Duration::from_millis(500));
        assert_eq!(custom.recv, Duration::from_millis(1500));
    }

    #[test]
    fn lone_thread_barrier_times_out() {
        let b = SpinBarrier::new(2);
        let mut sense = false;
        let err = b
            .wait_timeout(&mut sense, Duration::from_millis(50))
            .unwrap_err();
        assert_eq!(
            err,
            ShmTimeout::Barrier {
                waited: Duration::from_millis(50)
            }
        );
        assert!(err.to_string().contains("poisoned"));
    }

    #[test]
    fn complete_barrier_passes_watchdog() {
        let b = Arc::new(SpinBarrier::new(2));
        let b2 = Arc::clone(&b);
        let h = std::thread::spawn(move || {
            let mut sense = false;
            b2.wait_timeout(&mut sense, Duration::from_secs(30))
        });
        let mut sense = false;
        b.wait_timeout(&mut sense, Duration::from_secs(30)).unwrap();
        h.join().unwrap().unwrap();
    }

    #[test]
    fn missing_message_times_out_with_context() {
        let (_net, mut boxes) = Network::new(2);
        let err = boxes[0]
            .recv_from_timeout(1, 42, Duration::from_millis(50))
            .unwrap_err();
        assert_eq!(
            err,
            ShmTimeout::Recv {
                from: 1,
                tag: 42,
                waited: Duration::from_millis(50)
            }
        );
    }

    #[test]
    fn wrong_sender_is_buffered_not_consumed() {
        let (net, mut boxes) = Network::new(3);
        // Rank 2's message must not satisfy a wait on rank 1, but must
        // survive the timeout for a later receive.
        net.send(2, 0, 7, vec![2.0]);
        let err = boxes[0]
            .recv_from_timeout(1, 7, Duration::from_millis(50))
            .unwrap_err();
        assert!(matches!(
            err,
            ShmTimeout::Recv {
                from: 1,
                tag: 7,
                ..
            }
        ));
        assert_eq!(boxes[0].buffered(), 1);
        assert_eq!(
            boxes[0]
                .recv_from_timeout(2, 7, Duration::from_secs(5))
                .unwrap(),
            vec![2.0]
        );
    }

    #[test]
    fn in_flight_message_beats_deadline() {
        let (net, mut boxes) = Network::new(2);
        let h = std::thread::spawn(move || net.send(1, 0, 0, vec![3.5]));
        let got = boxes[0]
            .recv_from_timeout(1, 0, Duration::from_secs(30))
            .unwrap();
        assert_eq!(got, vec![3.5]);
        h.join().unwrap();
    }

    #[test]
    fn exchange_detects_dead_peer() {
        let (net, mut boxes) = Network::new(2);
        // Peer 1 never answers: the exchange must surface a Recv timeout
        // naming it.
        let err = exchange_with_deadline(
            &net,
            &mut boxes[0],
            0,
            1,
            9,
            vec![1.0],
            Duration::from_millis(50),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            ShmTimeout::Recv {
                from: 1,
                tag: 9,
                ..
            }
        ));
    }
}
