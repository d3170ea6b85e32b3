//! The daemon's metric catalogue and its Prometheus-style exposition.
//!
//! Every metric is one [`Metric`] variant, declared once with its dotted
//! name and [`Kind`], so a typo is a compile error and nothing looks a
//! metric up by string at run time. [`Metrics`] holds one atomic slot per
//! variant plus the one histogram. [`Metrics::exposition`] (the `metrics`
//! verb) walks the whole catalogue, so every metric is exported from
//! daemon start: each sample after a `# TYPE` line, names mapped
//! `serve.job_ms` → `dpml_serve_job_ms`, counters suffixed `_total`, and
//! the histogram as a summary (`quantile` 0.5 and 0.99, `_sum`, `_count`).

use dpml_shm::metrics::{CounterSample, MetricsSnapshot};
use dpml_shm::{Counter, Histogram};
use std::fmt::Write as _;

/// How a metric behaves and is exported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Only ever increases; exported as `<name>_total`.
    Counter,
    /// A level that may fall.
    Gauge,
    /// Samples summarized by quantiles, sum and count.
    Histogram,
}

macro_rules! catalogue {
    ($($variant:ident = $name:literal, $kind:ident, $doc:literal;)+) => {
        /// One metric the daemon exports.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Metric {
            $(#[doc = $doc] $variant,)+
        }

        impl Metric {
            /// The whole catalogue, sorted by name.
            pub const ALL: [Metric; [$($name),+].len()] = [$(Metric::$variant),+];

            /// Dotted name, e.g. `serve.submitted`.
            pub const fn name(self) -> &'static str {
                match self {
                    $(Metric::$variant => $name,)+
                }
            }

            /// How the metric behaves and is exported.
            pub const fn kind(self) -> Kind {
                match self {
                    $(Metric::$variant => Kind::$kind,)+
                }
            }
        }
    };
}

catalogue! {
    EngineEvents = "engine.events", Counter, "Simulated events of finished jobs.";
    Accepted = "serve.accepted", Counter, "Submits admitted to the queue.";
    CacheHit = "serve.cache_hit", Counter, "Submits answered from the result cache.";
    CacheMiss = "serve.cache_miss", Counter, "Valid submits the cache could not answer.";
    Canceled = "serve.canceled", Counter, "Jobs finished as canceled.";
    CheckpointErrors = "serve.checkpoint_errors", Counter, "Failed checkpoint writes.";
    CheckpointFallbacks = "serve.checkpoint_fallbacks", Counter, "Unusable checkpoints skipped.";
    CheckpointsWritten = "serve.checkpoints_written", Counter, "Sweep checkpoints persisted.";
    CompletedOk = "serve.completed_ok", Counter, "Jobs finished with a result.";
    DeadlineExceeded = "serve.deadline_exceeded", Counter, "Jobs killed by their deadline.";
    Draining = "serve.draining", Gauge, "1 once drain has begun.";
    Failed = "serve.failed", Counter, "Jobs finished with any other error.";
    JobMs = "serve.job_ms", Histogram, "Wall time from job start to finish, ms.";
    JournalBytes = "serve.journal_bytes", Gauge, "Journal size on disk.";
    JournalCompactions = "serve.journal_compactions", Counter, "Journal compactions.";
    JournalCorruptFrames = "serve.journal_corrupt_frames", Counter, "Bad frames at replay.";
    JournalDroppedJobs = "serve.journal_dropped_jobs", Gauge, "Finished jobs compacted away.";
    JournalError = "serve.journal_error", Counter, "Failed journal appends/compactions.";
    JournalTornTail = "serve.journal_torn_tail", Counter, "Torn journal tails truncated.";
    Postmortem = "serve.postmortem", Counter, "Post-mortem bundles written.";
    PostmortemError = "serve.postmortem_error", Counter, "Failed post-mortem writes.";
    PushFail = "serve.push_fail", Counter, "Replies lost to a vanished client.";
    QueueDepth = "serve.queue_depth", Gauge, "Jobs queued, not yet running.";
    RejectedClientCap = "serve.rejected_client_cap", Counter, "Submits over the client cap.";
    RejectedDraining = "serve.rejected_draining", Counter, "Submits refused while draining.";
    RejectedInvalid = "serve.rejected_invalid", Counter, "Submits that failed validation.";
    RejectedOverload = "serve.rejected_overload", Counter, "Submits shed by a full queue.";
    Replayed = "serve.replayed", Counter, "Pending jobs re-queued from the journal.";
    Requeued = "serve.requeued", Counter, "Waiting jobs left to the journal on terminate.";
    Resumes = "serve.resumes", Counter, "Jobs resumed from a checkpoint.";
    Retried = "serve.retried", Counter, "Panicked attempts scheduled for retry.";
    Retrying = "serve.retrying", Gauge, "Jobs waiting out a retry backoff.";
    Running = "serve.running", Gauge, "Jobs executing on workers.";
    ScenariosExecuted = "serve.scenarios_executed", Counter, "Scenarios simulated.";
    ScenariosResumed = "serve.scenarios_resumed", Counter, "Scenarios restored from checkpoints.";
    Shed = "serve.shed", Counter, "Submits shed with a retry hint.";
    Submitted = "serve.submitted", Counter, "Submit requests received.";
    WorkerPanic = "serve.worker_panic", Counter, "Job attempts that panicked.";
}

impl AsRef<str> for Metric {
    fn as_ref(&self) -> &str {
        self.name()
    }
}

/// `serve.cache_hit` → `dpml_serve_cache_hit`: the exposition namespace.
pub fn metric_name(name: &str) -> String {
    let sanitized = name.replace(|c: char| !c.is_ascii_alphanumeric(), "_");
    format!("dpml_{sanitized}")
}

/// Live values of the whole catalogue.
#[derive(Debug)]
pub struct Metrics {
    /// One slot per [`Metric`], indexed by variant (the histogram's slot
    /// is unused).
    values: [Counter; Metric::ALL.len()],
    /// The catalogue's one histogram, [`Metric::JobMs`].
    pub job_ms: Histogram,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            values: [const { Counter::new() }; Metric::ALL.len()],
            job_ms: Histogram::new(),
        }
    }
}

impl Metrics {
    /// Increment a counter by one.
    pub fn inc(&self, m: Metric) {
        self.add(m, 1);
    }

    /// Add `n` to a counter.
    pub fn add(&self, m: Metric, n: u64) {
        self.values[m as usize].add(n);
    }

    /// Set a gauge.
    pub fn set(&self, m: Metric, v: u64) {
        self.values[m as usize].set(v);
    }

    /// Current value of a counter or gauge.
    pub fn get(&self, m: Metric) -> u64 {
        self.values[m as usize].get()
    }

    /// Every metric, in catalogue order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for m in Metric::ALL {
            match m.kind() {
                Kind::Histogram => snap.histograms.push(self.job_ms.sample(m.name())),
                _ => snap.counters.push(CounterSample {
                    name: m.name().into(),
                    value: self.get(m),
                }),
            }
        }
        snap
    }

    /// Prometheus-style text exposition of every metric.
    pub fn exposition(&self) -> String {
        let mut out = String::new();
        for m in Metric::ALL {
            let n = metric_name(m.name());
            let _ = match m.kind() {
                Kind::Counter => {
                    writeln!(out, "# TYPE {n}_total counter\n{n}_total {}", self.get(m))
                }
                Kind::Gauge => writeln!(out, "# TYPE {n} gauge\n{n} {}", self.get(m)),
                Kind::Histogram => {
                    let h = self.job_ms.sample(m.name());
                    writeln!(
                        out,
                        "# TYPE {n} summary\n{n}{{quantile=\"0.5\"}} {}\n\
                         {n}{{quantile=\"0.99\"}} {}\n{n}_sum {}\n{n}_count {}",
                        h.p50, h.p99, h.sum, h.count
                    )
                }
            };
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_is_sorted_unique_and_indexable() {
        let names: Vec<&str> = Metric::ALL.iter().map(|m| m.name()).collect();
        assert!(names.windows(2).all(|w| w[0] < w[1]), "{names:?}");
        for (i, m) in Metric::ALL.iter().enumerate() {
            assert_eq!(*m as usize, i, "{m:?} indexes its own slot");
        }
        let histograms = Metric::ALL.iter().filter(|m| m.kind() == Kind::Histogram);
        assert_eq!(histograms.count(), 1, "one histogram slot");
    }

    #[test]
    fn exposition_covers_counters_histograms_and_gauges() {
        assert_eq!(metric_name("a-b.c"), "dpml_a_b_c");
        let m = Metrics::default();
        m.add(Metric::CacheHit, 3);
        m.set(Metric::QueueDepth, 2);
        m.job_ms.record(10);
        let text = m.exposition();
        assert!(text.contains("# TYPE dpml_serve_queue_depth gauge\ndpml_serve_queue_depth 2\n"));
        assert!(text
            .contains("# TYPE dpml_serve_cache_hit_total counter\ndpml_serve_cache_hit_total 3\n"));
        assert!(text.contains("# TYPE dpml_serve_job_ms summary\ndpml_serve_job_ms{quantile="));
        assert!(text.contains("dpml_serve_job_ms_sum 10\ndpml_serve_job_ms_count 1\n"));
        // Untouched metrics are exported at zero.
        assert!(text.contains("dpml_serve_worker_panic_total 0\n"));
        assert_eq!(m.snapshot().counter(Metric::CacheHit), Some(3));
    }
}
