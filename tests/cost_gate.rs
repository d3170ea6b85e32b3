//! Deterministic cost gate for the engine's hot path.
//!
//! Wall-clock gates cannot tell a regression from host drift, so this
//! test gates on quantities that do not drift: the exact instruction and
//! event counts of each point, heap allocation calls and bytes per run
//! (counted by a wrapping `GlobalAlloc`), and the number of
//! flight-recorder records a run makes. One extra allocation per event
//! moves the allocation count by about 30%; an unchanged tree moves it by
//! a call or two out of thousands, well inside the 1% bound. The bound
//! is two-sided: a count that falls more than 1% below its baseline
//! fails too, so an improvement is re-committed rather than left to hide
//! a later regression under the stale baseline.
//!
//! The counters and the flight ring are process-wide, so this file holds
//! exactly one `#[test]`: no other test can allocate or record beside it.
//!
//! When an intended change moves a count, rerun with `--nocapture`, check
//! that the printed figures are the ones the change explains, and commit
//! them as the new baseline. A Rust toolchain upgrade can move the
//! allocation counts too (std's growth policies are not a stable API);
//! re-commit them the same way.

use dpml_core::algorithms::Algorithm;
use dpml_core::run::{run, Exec, Scenario};
use dpml_engine::flight;
use dpml_fabric::Preset;
use dpml_topology::RankMap;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// `System`, counting every allocation call (`realloc` included) and the
/// bytes each one asks for.
struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allowed drift of allocation calls and bytes from the baseline, either
/// way.
const SLACK: f64 = 0.01;

/// Spans a traced run copies into the flight ring, at most.
const SPAN_TAIL: u64 = 8;

/// The gated points, all 8×8: cluster, algorithm spec, message bytes, and
/// the committed baseline of compiled instructions, events, allocation
/// calls and allocated bytes per run, the untimed pass that fills the
/// result coverage included. Ring is the engine's flow and the
/// interpreter's coverage-map worst case.
const POINTS: [(&str, &str, u64, u64, u64, u64, u64); 4] = [
    ("b", "ring", 64 << 10, 28_288, 44_523, 99_063, 11_667_648),
    ("b", "ring", 1 << 20, 28_288, 44_373, 106_196, 14_683_452),
    ("a", "dpml:4:ring", 1 << 20, 2_272, 4_210, 10_423, 1_096_647),
    (
        "d",
        "dpml-pipelined:2:4",
        64 << 10,
        1_184,
        2_033,
        5_787,
        608_048,
    ),
];

/// What one run cost: compiled instructions, events, allocation calls,
/// allocated bytes, flight records, and timeline spans.
fn measure(cluster: &str, alg: &str, bytes: u64, trace: bool) -> [u64; 6] {
    let preset = Preset::by_id(cluster).expect("preset");
    let spec = preset.spec(8, 8).expect("8x8 shape");
    let alg = Algorithm::parse(alg).expect("algorithm spec");
    let world = alg.build(&RankMap::block(&spec), bytes).expect("build");
    let exec = Exec {
        trace,
        ..Exec::default()
    };
    let (calls, allocated) = (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    let records = flight::global().recorded();
    let rep = run(&Scenario::new(&preset, &spec, alg, bytes), &exec).expect("run");
    [
        world.total_instrs() as u64,
        rep.report.stats.events,
        CALLS.load(Ordering::Relaxed) - calls,
        BYTES.load(Ordering::Relaxed) - allocated,
        flight::global().recorded() - records,
        rep.report
            .trace
            .as_ref()
            .map_or(0, |t| t.spans.len() as u64),
    ]
}

#[test]
fn hot_path_costs_match_the_committed_baseline() {
    // Warm-up: first-use initialisation (the flight ring, lazy statics)
    // belongs to the process, not to a run.
    let (cluster, alg, bytes, ..) = POINTS[0];
    measure(cluster, alg, bytes, false);

    let mut failures = Vec::new();
    for (cluster, alg, bytes, instrs, events, allocs, alloc_bytes) in POINTS {
        let name = format!("{cluster}/{alg}/8x8/{bytes}");
        let [ins, ev, calls, allocated, records, _] = measure(cluster, alg, bytes, false);
        let pct = |m: u64, b: u64| (m as f64 / b as f64 - 1.0) * 100.0;
        println!(
            "{name:<36} instrs {ins:>6}  events {ev:>6}  allocs {calls:>7} ({:+.2}%)  bytes {allocated:>9} ({:+.2}%)",
            pct(calls, allocs),
            pct(allocated, alloc_bytes),
        );
        for (what, m, b) in [("instructions", ins, instrs), ("events", ev, events)] {
            if m != b {
                failures.push(format!("{name}: {m} {what}, baseline {b}"));
            }
        }
        for (what, m, b) in [
            ("allocations", calls, allocs),
            ("bytes allocated", allocated, alloc_bytes),
        ] {
            if (pct(m, b) / 100.0).abs() > SLACK {
                failures.push(format!(
                    "{name}: {m} {what} per run, baseline {b} ({:+.2}%){}",
                    pct(m, b),
                    if m < b {
                        "; below baseline: re-commit the printed figures as the new baseline"
                    } else {
                        ""
                    }
                ));
            }
        }
        if records != 1 {
            failures.push(format!(
                "{name}: untraced run made {records} flight records, expected 1"
            ));
        }

        // The recorder works per run, not per event: a traced run adds
        // only the tail of its timeline.
        let [.., records, spans] = measure(cluster, alg, bytes, true);
        let expected = 1 + spans.min(SPAN_TAIL);
        if spans == 0 || records != expected {
            failures.push(format!(
                "{name}: traced run made {records} flight records for {spans} spans, expected {expected}"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "cost gate:\n  {}",
        failures.join("\n  ")
    );
}
