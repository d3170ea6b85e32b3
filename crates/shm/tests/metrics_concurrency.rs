//! Concurrency coverage for `dpml_shm::metrics`: snapshots taken while
//! writers are hot, and windowed rates from a sampler that keeps only its
//! previous snapshot.

use dpml_shm::metrics::{rates_between, MetricsSnapshot, TimedSnapshot};
use dpml_shm::{Counter, Histogram};

const WRITERS: usize = 8;
const INCREMENTS: u64 = 20_000;

/// Snapshots taken mid-flight must be internally plausible (counter never
/// exceeds the eventual total, histogram count matches recorded samples
/// seen so far) and monotone across successive snapshots.
#[test]
fn snapshot_while_recording_is_monotone_and_bounded() {
    let (hot, lat) = (Counter::new(), Histogram::new());
    let snapshot = || MetricsSnapshot::of(&[("hot", &hot)], &[("lat", &lat)]);
    let total = WRITERS as u64 * INCREMENTS;
    std::thread::scope(|s| {
        for _ in 0..WRITERS {
            s.spawn(|| {
                for i in 0..INCREMENTS {
                    hot.inc();
                    lat.record(i % 1024);
                }
            });
        }
        s.spawn(|| {
            let mut last = 0u64;
            loop {
                let snap = snapshot();
                let v = snap.counter("hot").unwrap_or(0);
                assert!(v >= last, "counter went backwards: {last} -> {v}");
                assert!(v <= total, "counter overshot: {v} > {total}");
                let h = snap.histogram("lat").expect("histogram in table");
                assert!(h.count <= total);
                let bucket_sum: u64 = h.buckets.iter().map(|&(_, c)| c).sum();
                assert!(bucket_sum <= total);
                last = v;
                if v == total {
                    break;
                }
                std::thread::yield_now();
            }
        });
    });
    assert_eq!(snapshot().counter("hot"), Some(total));
}

/// End-to-end: a sampler that swaps its previous snapshot for a fresh one
/// while a writer records produces sane windowed rates.
#[test]
fn previous_sample_plus_rates_under_load() {
    let work = Counter::new();
    let sample = |t_ms| TimedSnapshot {
        t_ms,
        snap: MetricsSnapshot::of(&[("work", &work)], &[]),
    };
    let first = sample(0);
    let mut prev = first.clone();
    let mut window = None;
    std::thread::scope(|s| {
        s.spawn(|| {
            for _ in 0..50_000 {
                work.inc();
            }
        });
        let mut t_ms = 0u64;
        while prev.snap.counter("work").unwrap_or(0) < 50_000 {
            t_ms += 100; // synthetic clock: deterministic dt windows
            let newer = sample(t_ms);
            window = Some(rates_between(&prev, &newer));
            prev = newer;
            std::thread::yield_now();
        }
    });
    let report = window.expect("at least one window");
    assert_eq!(report.dt_ms, 100);
    assert!(report.per_sec("work").unwrap() >= 0.0);
    // Whole-run cross-check against the first/last window.
    let whole = rates_between(&first, &sample(prev.t_ms + 100));
    assert_eq!(
        whole
            .rates
            .iter()
            .find(|r| r.name == "work")
            .map(|r| r.delta),
        Some(50_000)
    );
}
