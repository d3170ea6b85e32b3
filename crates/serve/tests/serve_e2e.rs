//! End-to-end daemon tests: a real TCP server, real worker threads,
//! real journal files — exercising admission, caching, chaos panics,
//! retries, cancellation, deadlines, and graceful drain.

use dpml_serve::journal;
use dpml_serve::{
    start, Client, JobError, JobKind, JobOutcome, JobSpec, Metric, Record, ServeConfig, Submission,
};
use std::path::PathBuf;
use std::time::Duration;

fn temp_journal(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!(
        "dpml-serve-e2e-{}-{name}.journal",
        std::process::id()
    ));
    std::fs::remove_file(&p).ok();
    p
}

fn base_cfg(name: &str) -> ServeConfig {
    ServeConfig {
        journal_path: temp_journal(name),
        ..ServeConfig::default()
    }
}

fn sim_spec(bytes: u64) -> JobSpec {
    JobSpec {
        kind: JobKind::Simulate,
        preset: "b".into(),
        nodes: 4,
        ppn: 4,
        algorithms: vec!["dpml:4".into()],
        sizes: vec![bytes],
        deadline_ms: 0,
        panic_attempts: 0,
    }
}

/// A sweep heavy enough to hold a worker for a noticeable time.
fn slow_spec() -> JobSpec {
    JobSpec {
        kind: JobKind::Sweep,
        preset: "b".into(),
        nodes: 8,
        ppn: 8,
        algorithms: vec!["dpml:8".into(), "ring".into(), "rab".into()],
        sizes: vec![1 << 20, 2 << 20, 4 << 20],
        deadline_ms: 0,
        panic_attempts: 0,
    }
}

fn connect(addr: std::net::SocketAddr) -> Client {
    let c = Client::connect(addr).expect("connect");
    c.set_timeout(Some(Duration::from_secs(60))).unwrap();
    c
}

#[test]
fn simulate_roundtrip_then_cache_hit() {
    let cfg = base_cfg("cache");
    let journal_path = cfg.journal_path.clone();
    let handle = start(cfg).unwrap();
    let mut c = connect(handle.addr);

    let spec = sim_spec(65536);
    let first = c.submit_and_wait(&spec).unwrap();
    let Submission::Finished {
        cached, outcome, ..
    } = first
    else {
        panic!("rejected: {first:?}");
    };
    assert!(!cached);
    let JobOutcome::Done(res) = outcome else {
        panic!("job failed");
    };
    assert_eq!(res.scenarios.len(), 1);
    assert!(res.scenarios[0].latency_us > 0.0);

    // Same scenario again: served from the content-addressed cache.
    let second = c.submit_and_wait(&spec).unwrap();
    let Submission::Finished {
        cached, outcome, ..
    } = second
    else {
        panic!("rejected on repeat");
    };
    assert!(cached, "repeat query must hit the cache");
    assert!(outcome.is_done());

    let stats = c.stats().unwrap();
    assert_eq!(stats.counter(Metric::CacheHit), Some(1));
    assert_eq!(stats.counter(Metric::CompletedOk), Some(1));

    c.shutdown().unwrap();
    assert_eq!(handle.wait(), 0);

    // The journal holds exactly one admit and one finish: the cache hit
    // never touched the queue.
    let replay = journal::replay_file(&journal_path).unwrap();
    let admits = replay
        .records
        .iter()
        .filter(|r| matches!(r, Record::Admit { .. }))
        .count();
    let finishes = replay
        .records
        .iter()
        .filter(|r| matches!(r, Record::Finish { .. }))
        .count();
    assert_eq!((admits, finishes), (1, 1));
    assert!(replay.pending().is_empty());
    std::fs::remove_file(&journal_path).ok();
}

#[test]
fn chaos_panics_are_retried_to_success() {
    let mut cfg = base_cfg("chaos-retry");
    cfg.retry_base_ms = 1.0; // keep the test fast
    let journal_path = cfg.journal_path.clone();
    let handle = start(cfg).unwrap();
    let mut c = connect(handle.addr);

    let mut spec = sim_spec(4096);
    spec.panic_attempts = 2;
    let sub = c.submit_and_wait(&spec).unwrap();
    let Submission::Finished { outcome, .. } = sub else {
        panic!("rejected: {sub:?}");
    };
    assert!(
        outcome.is_done(),
        "job must survive injected panics: {outcome:?}"
    );

    let stats = c.stats().unwrap();
    assert_eq!(stats.counter(Metric::WorkerPanic), Some(2));
    assert_eq!(stats.counter(Metric::Retried), Some(2));
    assert_eq!(stats.counter(Metric::CompletedOk), Some(1));

    c.shutdown().unwrap();
    assert_eq!(handle.wait(), 0);
    std::fs::remove_file(&journal_path).ok();
}

#[test]
fn exhausted_retry_budget_is_a_structured_error() {
    let mut cfg = base_cfg("chaos-exhaust");
    cfg.max_retries = 2;
    cfg.retry_base_ms = 1.0;
    let journal_path = cfg.journal_path.clone();
    let handle = start(cfg).unwrap();
    let mut c = connect(handle.addr);

    let mut spec = sim_spec(8192);
    spec.panic_attempts = 10; // always panics
    let sub = c.submit_and_wait(&spec).unwrap();
    let Submission::Finished { outcome, .. } = sub else {
        panic!("rejected: {sub:?}");
    };
    let JobOutcome::Error(JobError::Panicked { attempts, .. }) = outcome else {
        panic!("expected Panicked, got {outcome:?}");
    };
    assert_eq!(attempts, 3); // initial + 2 retries

    // The daemon survived every panic: it still answers.
    c.ping().unwrap();
    c.shutdown().unwrap();
    assert_eq!(handle.wait(), 0);
    std::fs::remove_file(&journal_path).ok();
}

#[test]
fn bounded_queue_sheds_and_client_cap_binds() {
    let mut cfg = base_cfg("overload");
    cfg.workers = 1;
    cfg.queue_capacity = 2;
    cfg.client_inflight_cap = 8;
    let journal_path = cfg.journal_path.clone();
    let handle = start(cfg).unwrap();
    let mut c = connect(handle.addr);

    // Distinct specs so the cache cannot absorb the load.
    let specs: Vec<JobSpec> = (0..3).map(|i| sim_spec(100_000 + i)).collect();
    let mut slow = slow_spec();
    slow.sizes = vec![4 << 20];
    // Occupy the single worker, then fill the queue.
    let r0 = c.submit(&slow).unwrap();
    assert!(matches!(r0, dpml_serve::Response::Accepted { .. }));
    let r1 = c.submit(&specs[0]).unwrap();
    assert!(matches!(r1, dpml_serve::Response::Accepted { .. }));
    // Queue (running + queued = 2) is now at capacity.
    let r2 = c.submit(&specs[1]).unwrap();
    let dpml_serve::Response::Rejected {
        reason,
        retry_after_ms,
        ..
    } = r2
    else {
        panic!("expected overload rejection, got {r2:?}");
    };
    assert_eq!(reason, "overloaded");
    assert!(retry_after_ms > 0, "shed must carry a retry hint");

    // Drain the two accepted jobs' Finished pushes.
    let mut finished = 0;
    while finished < 2 {
        match c.read_response().unwrap() {
            Some(dpml_serve::Response::Finished { .. }) => finished += 1,
            Some(other) => panic!("unexpected {other:?}"),
            None => panic!("server closed early"),
        }
    }

    c.shutdown().unwrap();
    assert_eq!(handle.wait(), 0);
    std::fs::remove_file(&journal_path).ok();
}

#[test]
fn per_client_inflight_cap() {
    let mut cfg = base_cfg("client-cap");
    cfg.workers = 1;
    cfg.client_inflight_cap = 1;
    let journal_path = cfg.journal_path.clone();
    let handle = start(cfg).unwrap();
    let mut c = connect(handle.addr);

    let r0 = c.submit(&slow_spec()).unwrap();
    assert!(matches!(r0, dpml_serve::Response::Accepted { .. }));
    let r1 = c.submit(&sim_spec(123_456)).unwrap();
    let dpml_serve::Response::Rejected { reason, .. } = r1 else {
        panic!("expected client-cap rejection, got {r1:?}");
    };
    assert_eq!(reason, "client-cap");

    // A second connection is not capped by the first one's jobs.
    let mut c2 = connect(handle.addr);
    let r2 = c2.submit(&sim_spec(123_457)).unwrap();
    assert!(matches!(r2, dpml_serve::Response::Accepted { .. }));

    // Collect both Finished pushes, then drain.
    assert!(matches!(
        c.read_response().unwrap(),
        Some(dpml_serve::Response::Finished { .. })
    ));
    assert!(matches!(
        c2.read_response().unwrap(),
        Some(dpml_serve::Response::Finished { .. })
    ));
    c.shutdown().unwrap();
    assert_eq!(handle.wait(), 0);
    std::fs::remove_file(&journal_path).ok();
}

#[test]
fn invalid_specs_are_rejected_without_execution() {
    let cfg = base_cfg("invalid");
    let journal_path = cfg.journal_path.clone();
    let handle = start(cfg).unwrap();
    let mut c = connect(handle.addr);

    let mut bad = sim_spec(1024);
    bad.algorithms = vec!["no-such-algorithm".into()];
    let sub = c.submit_and_wait(&bad).unwrap();
    let Submission::Rejected { reason, .. } = sub else {
        panic!("expected rejection, got {sub:?}");
    };
    assert_eq!(reason, "invalid");

    c.shutdown().unwrap();
    assert_eq!(handle.wait(), 0);
    std::fs::remove_file(&journal_path).ok();
}

#[test]
fn cancel_dequeues_a_queued_job() {
    let mut cfg = base_cfg("cancel");
    cfg.workers = 1;
    let journal_path = cfg.journal_path.clone();
    let handle = start(cfg).unwrap();
    let mut c = connect(handle.addr);

    // Worker busy with the slow job; the next submit stays queued.
    let r0 = c.submit(&slow_spec()).unwrap();
    assert!(matches!(r0, dpml_serve::Response::Accepted { .. }));
    let r1 = c.submit(&sim_spec(777_777)).unwrap();
    let dpml_serve::Response::Accepted { id: queued_id, .. } = r1 else {
        panic!("expected acceptance, got {r1:?}");
    };

    let state = c.cancel(queued_id).unwrap();
    assert_eq!(state, "dequeued");

    // The canceled job's terminal push is JobError::Canceled; the slow
    // job still completes. Order: canceled push is immediate.
    let mut saw_canceled = false;
    let mut saw_done = false;
    for _ in 0..2 {
        match c.read_response().unwrap() {
            Some(dpml_serve::Response::Finished { id, outcome }) => {
                if id == queued_id {
                    assert_eq!(outcome, JobOutcome::Error(JobError::Canceled));
                    saw_canceled = true;
                } else {
                    assert!(outcome.is_done());
                    saw_done = true;
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    assert!(saw_canceled && saw_done);

    // Cancelling an unknown id is answered, not an error.
    assert_eq!(c.cancel(999_999).unwrap(), "unknown");

    c.shutdown().unwrap();
    assert_eq!(handle.wait(), 0);
    std::fs::remove_file(&journal_path).ok();
}

#[test]
fn deadline_trips_via_engine_budget() {
    let cfg = base_cfg("deadline");
    let journal_path = cfg.journal_path.clone();
    let handle = start(cfg).unwrap();
    let mut c = connect(handle.addr);

    let mut spec = slow_spec();
    spec.sizes = vec![32 << 20];
    spec.deadline_ms = 1;
    let sub = c.submit_and_wait(&spec).unwrap();
    let Submission::Finished { outcome, .. } = sub else {
        panic!("rejected: {sub:?}");
    };
    assert!(
        matches!(
            outcome,
            JobOutcome::Error(JobError::DeadlineExceeded { .. })
        ),
        "expected a deadline error, got {outcome:?}"
    );

    c.shutdown().unwrap();
    assert_eq!(handle.wait(), 0);
    std::fs::remove_file(&journal_path).ok();
}

#[test]
fn drain_rejects_new_work_but_finishes_admitted_work() {
    let mut cfg = base_cfg("drain");
    cfg.workers = 1;
    let journal_path = cfg.journal_path.clone();
    let handle = start(cfg).unwrap();
    let mut c = connect(handle.addr);

    let r0 = c.submit(&slow_spec()).unwrap();
    let dpml_serve::Response::Accepted { id: slow_id, .. } = r0 else {
        panic!("expected acceptance");
    };

    let pending = c.shutdown().unwrap();
    assert_eq!(pending, 1);

    // Admission is closed...
    let r1 = c.submit(&sim_spec(888_888)).unwrap();
    let dpml_serve::Response::Rejected { reason, .. } = r1 else {
        panic!("expected draining rejection, got {r1:?}");
    };
    assert_eq!(reason, "draining");

    // ...but the admitted job still completes before exit.
    match c.read_response().unwrap() {
        Some(dpml_serve::Response::Finished { id, outcome }) => {
            assert_eq!(id, slow_id);
            assert!(outcome.is_done());
        }
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(handle.wait(), 0);

    let replay = journal::replay_file(&journal_path).unwrap();
    assert!(
        replay.pending().is_empty(),
        "clean drain leaves no pending jobs"
    );
    std::fs::remove_file(&journal_path).ok();
}

#[test]
fn startup_replay_requeues_and_finishes_admitted_jobs() {
    let journal_path = temp_journal("replay");

    // Simulate a daemon killed after admitting two jobs and finishing
    // neither: write the journal directly, then boot a server on it.
    {
        let (j, _) = dpml_serve::Journal::open(&journal_path).unwrap();
        for (id, bytes) in [(1u64, 55_555u64), (2, 66_666)] {
            let spec = sim_spec(bytes);
            j.append(&Record::Admit {
                id,
                digest: spec.digest(),
                spec,
            })
            .unwrap();
        }
        j.append(&Record::Start { id: 1, attempt: 0 }).unwrap();
    }

    let cfg = ServeConfig {
        journal_path: journal_path.clone(),
        ..ServeConfig::default()
    };
    let handle = start(cfg).unwrap();
    let mut c = connect(handle.addr);

    // Both replayed jobs run to completion; drain waits for them.
    c.shutdown().unwrap();
    assert_eq!(handle.wait(), 0);

    let replay = journal::replay_file(&journal_path).unwrap();
    assert!(replay.pending().is_empty(), "replayed jobs must finish");
    let finishes: Vec<u64> = replay
        .records
        .iter()
        .filter_map(|r| match r {
            Record::Finish { id, .. } => Some(*id),
            _ => None,
        })
        .collect();
    let mut sorted = finishes.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(
        sorted,
        vec![1, 2],
        "each admitted job finishes exactly once"
    );
    assert_eq!(finishes.len(), 2, "no duplicated finishes");
    std::fs::remove_file(&journal_path).ok();
}

#[test]
fn graceful_terminate_requeues_waiting_jobs_and_exits_clean() {
    let mut cfg = base_cfg("terminate");
    cfg.workers = 1;
    let journal_path = cfg.journal_path.clone();
    let handle = start(cfg).unwrap();
    let mut c = connect(handle.addr);

    // One slow job to occupy the single worker, then two more that stay
    // queued behind it.
    let mut ids = Vec::new();
    for spec in [slow_spec(), sim_spec(4096), sim_spec(8192)] {
        let r = c.submit(&spec).unwrap();
        let dpml_serve::Response::Accepted { id, .. } = r else {
            panic!("expected acceptance, got {r:?}");
        };
        ids.push(id);
    }
    // SIGTERM-grade drain immediately after admission: at most one job
    // can be running on the single worker, so at least two must be
    // requeued (journal-requeue, not executed).
    let (_running, requeued) = handle.terminate();
    assert!(
        requeued >= 2,
        "the two queued jobs must be requeued, got {requeued}"
    );
    assert_eq!(handle.wait(), 0, "terminate drain exits clean");

    let replay = journal::replay_file(&journal_path).unwrap();
    let pending: Vec<u64> = replay.pending().iter().map(|(id, _, _)| *id).collect();
    assert_eq!(
        pending.len() as u64,
        requeued,
        "every requeued job is pending in the journal, exactly once"
    );
    for id in &pending {
        assert!(ids.contains(id));
    }

    // A fresh daemon on the same journal replays and finishes them.
    let cfg = ServeConfig {
        workers: 2,
        journal_path: journal_path.clone(),
        ..ServeConfig::default()
    };
    let handle = start(cfg).unwrap();
    let mut c = connect(handle.addr);
    c.shutdown().unwrap();
    assert_eq!(handle.wait(), 0);

    let replay = journal::replay_file(&journal_path).unwrap();
    assert!(
        replay.pending().is_empty(),
        "requeued jobs must finish after restart"
    );
    let mut finishes: Vec<u64> = replay
        .records
        .iter()
        .filter_map(|r| match r {
            Record::Finish { id, .. } => Some(*id),
            _ => None,
        })
        .collect();
    finishes.sort_unstable();
    let deduped = finishes.len();
    finishes.dedup();
    assert_eq!(finishes.len(), deduped, "no duplicated finishes");
    assert_eq!(finishes, ids, "every admitted job finished exactly once");
    std::fs::remove_file(&journal_path).ok();
}
