//! Live metrics for the real-threads runtime.
//!
//! The simulator side of this workspace reports virtual time; the thread
//! runtime here runs real data movement, and these are its observability
//! primitives: lock-free [`Counter`]s and log2-bucketed [`Histogram`]s.
//! Both are `const`-constructible, so a fixed set of metrics is a set of
//! `static`s and a hot path touches a single relaxed atomic per event,
//! with no lookup. A [`MetricsSnapshot`] reads a consistent-enough view at
//! any time without stopping the threads.
//!
//! The runtime's five metrics are the statics below, and [`snapshot`]
//! is their one name table:
//!
//! * `barrier.wait_ns` — spin-barrier wait time per arrival (histogram),
//! * `shm.copy_bytes` — bytes moved through shared-memory slots,
//! * `shm.crc_fail` — partition publishes that failed their CRC32C check
//!   (see [`crate::integrity`]),
//! * `shm.reduce_ops` — element reduction operations performed,
//! * `shm.retransmit` — partition re-reductions after a checksum failure.
//!
//! For continuous telemetry (`dpml-serve`'s `watch` verb and `dpml top`),
//! [`rates_between`] derives per-second counter rates and windowed
//! histogram quantiles from the *deltas* between two [`TimedSnapshot`]s,
//! so a dashboard shows "what happened in the last sample interval", not
//! since process start.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 buckets: values up to `2^63` land in the last bucket.
const BUCKETS: usize = 64;

/// Spin-barrier wait per arrival, nanoseconds.
pub static BARRIER_WAIT_NS: Histogram = Histogram::new();
/// Bytes moved through shared-memory slots.
pub static SHM_COPY_BYTES: Counter = Counter::new();
/// Payloads and publishes that failed their CRC32C check.
pub static SHM_CRC_FAIL: Counter = Counter::new();
/// Element reduction operations performed.
pub static SHM_REDUCE_OPS: Counter = Counter::new();
/// Clean-copy recoveries and partition re-reductions.
pub static SHM_RETRANSMIT: Counter = Counter::new();

/// The runtime's metrics under their names, sorted by name.
static COUNTERS: [(&str, &Counter); 4] = [
    ("shm.copy_bytes", &SHM_COPY_BYTES),
    ("shm.crc_fail", &SHM_CRC_FAIL),
    ("shm.reduce_ops", &SHM_REDUCE_OPS),
    ("shm.retransmit", &SHM_RETRANSMIT),
];
static HISTOGRAMS: [(&str, &Histogram); 1] = [("barrier.wait_ns", &BARRIER_WAIT_NS)];

/// Snapshot of the runtime's process-wide metrics.
pub fn snapshot() -> MetricsSnapshot {
    MetricsSnapshot::of(&COUNTERS, &HISTOGRAMS)
}

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// New counter at zero.
    pub const fn new() -> Self {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Add `n` to the counter.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Set to an absolute value — for gauges that publish a measured
    /// level (journal bytes on disk) rather than accumulate deltas.
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }
}

/// A log2-bucketed histogram of `u64` samples (value `v` lands in bucket
/// `⌊log2 v⌋ + 1`; zero in bucket 0), plus exact count and sum.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Bucket index for a value.
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// Inclusive lower bound of a bucket.
fn bucket_floor(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Width of a bucket: bucket `i >= 1` covers `[2^(i-1), 2^i)`.
fn bucket_width(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        bucket_floor(i)
    }
}

/// Quantile `q` over raw bucket counts (shared by live histograms and
/// the time-series delta path), linearly interpolated within the bucket
/// holding the `q`-th sample (the Prometheus `histogram_quantile`
/// convention): assuming samples are uniform in the bucket, the value is
/// `floor + width * rank / count`. It always lies within that sample's
/// bucket `[2^(i-1), 2^i]`, so the relative error is < 2× in either
/// direction, and exact when in-bucket samples are uniformly spread.
fn quantile_from_counts(counts: &[u64; BUCKETS], q: f64) -> u64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0;
    }
    let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        seen += c;
        if seen >= target {
            let rank = target - (seen - c); // 1-based rank within the bucket
            let v = bucket_floor(i) as f64 + bucket_width(i) as f64 * (rank as f64 / c as f64);
            // Stay inside the bucket's closed upper edge.
            return (v as u64).min(bucket_floor(i) + bucket_width(i));
        }
    }
    bucket_floor(BUCKETS - 1)
}

impl Histogram {
    /// New empty histogram.
    pub const fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        let c = self.count();
        if c == 0 {
            0.0
        } else {
            self.sum() as f64 / c as f64
        }
    }

    /// Approximate quantile `q` in `0.0..=1.0`, interpolated within its
    /// log2 bucket (error < 2×; see `quantile_from_counts`).
    pub fn quantile(&self, q: f64) -> u64 {
        quantile_from_counts(&self.bucket_counts(), q)
    }

    /// Raw per-bucket counts (a relaxed-atomic snapshot).
    fn bucket_counts(&self) -> [u64; BUCKETS] {
        let mut out = [0u64; BUCKETS];
        for (o, b) in out.iter_mut().zip(self.buckets.iter()) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }

    /// Point-in-time summary of this histogram under `name`.
    pub fn sample(&self, name: &str) -> HistogramSample {
        let counts = self.bucket_counts();
        HistogramSample {
            name: name.to_string(),
            count: self.count(),
            sum: self.sum(),
            mean: self.mean(),
            p50: quantile_from_counts(&counts, 0.5),
            p99: quantile_from_counts(&counts, 0.99),
            buckets: counts
                .iter()
                .enumerate()
                .filter_map(|(i, &c)| (c > 0).then_some((i as u32, c)))
                .collect(),
        }
    }
}

/// Point-in-time value of one counter (or gauge).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSample {
    /// Metric name.
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
}

/// Point-in-time summary of one histogram.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSample {
    /// Metric name.
    pub name: String,
    /// Samples recorded.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Mean sample.
    pub mean: f64,
    /// Approximate median (interpolated within its log2 bucket).
    pub p50: u64,
    /// Approximate 99th percentile (interpolated within its log2 bucket).
    pub p99: u64,
    /// Non-empty raw buckets as `(bucket_index, count)` pairs, so the
    /// time-series layer can compute quantiles over *deltas* between two
    /// snapshots. Empty when deserializing older snapshots.
    #[serde(default)]
    pub buckets: Vec<(u32, u64)>,
}

/// A consistent-enough view of a set of metrics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counters and gauges, in their table's order.
    pub counters: Vec<CounterSample>,
    /// Histograms, in their table's order.
    pub histograms: Vec<HistogramSample>,
}

impl MetricsSnapshot {
    /// Snapshot a table of named counters and histograms.
    pub fn of(counters: &[(&str, &Counter)], histograms: &[(&str, &Histogram)]) -> Self {
        MetricsSnapshot {
            counters: counters
                .iter()
                .map(|(name, c)| CounterSample {
                    name: name.to_string(),
                    value: c.get(),
                })
                .collect(),
            histograms: histograms.iter().map(|(name, h)| h.sample(name)).collect(),
        }
    }

    /// Value of a counter by name, if present.
    pub fn counter(&self, name: impl AsRef<str>) -> Option<u64> {
        let name = name.as_ref();
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Histogram summary by name, if present.
    pub fn histogram(&self, name: impl AsRef<str>) -> Option<&HistogramSample> {
        let name = name.as_ref();
        self.histograms.iter().find(|h| h.name == name)
    }
}

/// A [`MetricsSnapshot`] stamped with wall-clock time (unix epoch ms).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimedSnapshot {
    /// Sample time, milliseconds since the unix epoch.
    pub t_ms: u64,
    /// Metric values at that time.
    pub snap: MetricsSnapshot,
}

/// Per-second rate of one counter over a window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RateSample {
    /// Counter name.
    pub name: String,
    /// Increase over the window.
    pub delta: u64,
    /// Increase per second.
    pub per_sec: f64,
}

/// Windowed histogram summary: quantiles over only the samples recorded
/// *during* the window (bucket-count deltas), not since process start.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowedHistogram {
    /// Histogram name.
    pub name: String,
    /// Samples recorded during the window.
    pub count: u64,
    /// Interpolated median of the window's samples.
    pub p50: u64,
    /// Interpolated 99th percentile of the window's samples.
    pub p99: u64,
}

/// Derived rates and windowed quantiles between two snapshots. The
/// default (empty, `dt_ms` 0) stands for "no window yet".
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RateReport {
    /// Window length in milliseconds.
    pub dt_ms: u64,
    /// Per-counter rates, in the newer snapshot's order.
    pub rates: Vec<RateSample>,
    /// Per-histogram windowed summaries, in the newer snapshot's order.
    pub windows: Vec<WindowedHistogram>,
}

impl RateReport {
    /// Per-second rate of a counter by name, if present.
    pub fn per_sec(&self, name: impl AsRef<str>) -> Option<f64> {
        let name = name.as_ref();
        self.rates
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.per_sec)
    }

    /// Windowed histogram summary by name, if present.
    pub fn window(&self, name: impl AsRef<str>) -> Option<&WindowedHistogram> {
        let name = name.as_ref();
        self.windows.iter().find(|w| w.name == name)
    }
}

/// Derive per-second counter rates and windowed histogram quantiles from
/// the deltas between two snapshots. Counters absent from `older` are
/// treated as starting at zero; decreases (a gauge that fell between
/// samples) saturate to zero rather than reporting negative rates. The
/// window length is floored at 1 ms so a zero/backwards clock cannot
/// divide by zero.
pub fn rates_between(older: &TimedSnapshot, newer: &TimedSnapshot) -> RateReport {
    let dt_ms = newer.t_ms.saturating_sub(older.t_ms).max(1);
    let secs = dt_ms as f64 / 1000.0;
    let rates = newer
        .snap
        .counters
        .iter()
        .map(|c| {
            let before = older.snap.counter(&c.name).unwrap_or(0);
            let delta = c.value.saturating_sub(before);
            RateSample {
                name: c.name.clone(),
                delta,
                per_sec: delta as f64 / secs,
            }
        })
        .collect();
    let windows = newer
        .snap
        .histograms
        .iter()
        .map(|h| {
            let mut counts = [0u64; BUCKETS];
            for &(i, c) in &h.buckets {
                if (i as usize) < BUCKETS {
                    counts[i as usize] = c;
                }
            }
            if let Some(prev) = older.snap.histogram(&h.name) {
                for &(i, c) in &prev.buckets {
                    if (i as usize) < BUCKETS {
                        counts[i as usize] = counts[i as usize].saturating_sub(c);
                    }
                }
            }
            WindowedHistogram {
                name: h.name.clone(),
                count: counts.iter().sum(),
                p50: quantile_from_counts(&counts, 0.5),
                p99: quantile_from_counts(&counts, 0.99),
            }
        })
        .collect();
    RateReport {
        dt_ms,
        rates,
        windows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_across_threads() {
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.add(3);
                    }
                });
            }
        });
        assert_eq!(c.get(), 24_000);
    }

    #[test]
    fn runtime_table_names_every_static_once_in_order() {
        let snap = snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names.len(), 4);
        assert!(names.windows(2).all(|w| w[0] < w[1]), "{names:?}");
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.counter("nope"), None);
    }

    #[test]
    fn histogram_buckets_by_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_floor(1), 1);
        assert_eq!(bucket_floor(3), 4);
    }

    #[test]
    fn histogram_summary_statistics() {
        let h = Histogram::new();
        for v in [1u64, 2, 4, 8, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 115);
        assert!((h.mean() - 23.0).abs() < 1e-12);
        // A lone sample in its bucket interpolates to the bucket's upper
        // edge — still within [2^(i-1), 2^i], i.e. within 2× of the true
        // sample in either direction.
        assert_eq!(h.quantile(0.5), 8);
        assert_eq!(h.quantile(0.99), 128);
    }

    #[test]
    fn interpolated_quantile_tracks_in_bucket_rank() {
        // 25 samples each of 4,5,6,7 — all in bucket [4, 8).
        let h = Histogram::new();
        for v in [4u64, 5, 6, 7] {
            for _ in 0..25 {
                h.record(v);
            }
        }
        // target rank 50 of 100 in a 100-sample bucket: 4 + 4*(50/100).
        assert_eq!(h.quantile(0.5), 6);
        // target rank 99: 4 + 4*0.99 = 7.96 → 7.
        assert_eq!(h.quantile(0.99), 7);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.99), 0);
        assert!(h.sample("h").buckets.is_empty());
    }

    #[test]
    fn quantile_edge_cases_empty_and_clamped_q() {
        let h = Histogram::new();
        // Empty: every quantile is 0, including the ends.
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile(q), 0);
        }
        // Out-of-range q is clamped to [0, 1], never a panic or garbage.
        h.record(10);
        assert_eq!(h.quantile(-3.0), h.quantile(0.0));
        assert_eq!(h.quantile(7.5), h.quantile(1.0));
    }

    #[test]
    fn quantile_single_bucket_stays_inside_it() {
        // All mass in one bucket [8, 16): interpolation walks the bucket
        // but never leaves its closed range.
        let h = Histogram::new();
        for v in 8..16u64 {
            h.record(v);
        }
        assert!(h.quantile(0.0) >= 8);
        assert!(h.quantile(0.5) > 8, "mid-bucket rank must move the value");
        assert_eq!(h.quantile(1.0), 16, "closed upper edge of [8, 16)");
    }

    #[test]
    fn quantile_all_mass_in_top_bucket_saturates_safely() {
        // u64::MAX lands in bucket 63 ([2^62, 2^63]); `floor + width`
        // is exactly 2^63, so the interpolated edge must not overflow.
        let h = Histogram::new();
        for _ in 0..4 {
            h.record(u64::MAX);
        }
        assert_eq!(h.quantile(1.0), 1u64 << 63);
        let mid = h.quantile(0.5);
        assert!((1u64 << 62..=1u64 << 63).contains(&mid));
    }

    #[test]
    fn rates_between_derives_per_second_deltas() {
        let (c, h) = (Counter::new(), Histogram::new());
        let snap = || MetricsSnapshot::of(&[("req", &c)], &[("lat", &h)]);
        c.add(10);
        h.record(1);
        h.record(1);
        let older = TimedSnapshot {
            t_ms: 1_000,
            snap: snap(),
        };
        c.add(30);
        for _ in 0..4 {
            h.record(64);
        }
        let newer = TimedSnapshot {
            t_ms: 3_000,
            snap: snap(),
        };
        let report = rates_between(&older, &newer);
        assert_eq!(report.dt_ms, 2_000);
        assert_eq!(report.per_sec("req"), Some(15.0));
        // The window sees only the four new samples of 64: quantiles come
        // from bucket deltas, not the cumulative histogram.
        let w = report.window("lat").unwrap();
        assert_eq!(w.count, 4);
        assert_eq!(w.p50, 96); // 64 + 64*(2/4)
        assert_eq!(w.p99, 128);
    }

    #[test]
    fn rates_between_saturates_when_a_gauge_falls() {
        let level = Counter::new();
        level.set(10);
        let older = TimedSnapshot {
            t_ms: 0,
            snap: MetricsSnapshot::of(&[("level", &level)], &[]),
        };
        level.set(3);
        let newer = TimedSnapshot {
            t_ms: 1_000,
            snap: MetricsSnapshot::of(&[("level", &level)], &[]),
        };
        // 3 < 10: the level fell mid-window; report zero, not negative.
        assert_eq!(rates_between(&older, &newer).per_sec("level"), Some(0.0));
    }

    #[test]
    fn rates_between_treats_new_counters_as_zero_based() {
        let late = Counter::new();
        let older = TimedSnapshot {
            t_ms: 0,
            snap: MetricsSnapshot::default(),
        };
        late.add(8);
        let newer = TimedSnapshot {
            t_ms: 4_000,
            snap: MetricsSnapshot::of(&[("late", &late)], &[]),
        };
        assert_eq!(rates_between(&older, &newer).per_sec("late"), Some(2.0));
    }

    #[test]
    fn snapshot_serde_roundtrip_preserves_buckets() {
        let (c, h) = (Counter::new(), Histogram::new());
        c.add(7);
        h.record(100);
        let snap = MetricsSnapshot::of(&[("a", &c)], &[("b", &h)]);
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.histogram("b").unwrap().buckets, vec![(7, 1)]);
    }
}
