//! Journal compaction under a byte budget, end to end.
//!
//! A daemon given `journal_max_bytes` must keep its journal at or below
//! the budget across a workload that would otherwise grow it far past,
//! without ever losing a pending job or reusing a job id — the
//! `Record::Compact` marker carries the id-allocator floor and the
//! cumulative dropped-finished-jobs count across segment rewrites.

use dpml_serve::job::{JobKind, JobSpec};
use dpml_serve::journal::{replay_file, Journal, Record};
use dpml_serve::{start, Client, Metric, ServeConfig};
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const BUDGET: u64 = 4096;

fn spec(bytes: u64) -> JobSpec {
    JobSpec {
        kind: JobKind::Simulate,
        preset: "b".into(),
        nodes: 2,
        ppn: 2,
        algorithms: vec!["ring".into()],
        sizes: vec![bytes],
        deadline_ms: 0,
        panic_attempts: 0,
    }
}

fn temp(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!(
        "dpml-compact-{}-{name}.journal",
        std::process::id()
    ));
    std::fs::remove_file(&p).ok();
    p
}

#[test]
fn budget_is_enforced_and_accounting_balances() {
    let path = temp("budget");
    let total_jobs = 24u64;
    let max_seen_id;
    {
        let cfg = ServeConfig {
            journal_path: path.clone(),
            journal_max_bytes: BUDGET,
            ..ServeConfig::default()
        };
        let handle = start(cfg).unwrap();
        let state = Arc::clone(handle.state());
        let mut c = Client::connect(handle.addr).unwrap();
        c.set_timeout(Some(Duration::from_secs(60))).unwrap();
        let mut ids = Vec::new();
        let mut levels = Vec::new();
        // Distinct sizes → distinct digests → every job misses the cache
        // and takes the full Admit/Start/Finish journal path.
        for i in 0..total_jobs {
            match c.submit_and_wait(&spec(4096 + i * 8)).unwrap() {
                dpml_serve::Submission::Finished { id, .. } => ids.push(id),
                other => panic!("job {i} not finished: {other:?}"),
            }
            levels.push(state.stats().counter(Metric::JournalBytes).unwrap());
        }
        max_seen_id = ids.iter().copied().max().unwrap();
        // The journal size is a level, not a running total: exported as
        // a gauge, and compaction makes it fall.
        let text = c.metrics().unwrap();
        assert!(
            text.contains("# TYPE dpml_serve_journal_bytes gauge\n"),
            "{text}"
        );
        assert!(
            levels.windows(2).any(|w| w[1] < w[0]),
            "journal_bytes never fell across compactions: {levels:?}"
        );
        c.shutdown().unwrap();
        assert_eq!(handle.wait(), 0);

        let stats = state.stats();
        let compactions = stats.counter(Metric::JournalCompactions).unwrap_or(0);
        assert!(
            compactions >= 1,
            "the workload must have tripped at least one compaction"
        );
    }

    let len = std::fs::metadata(&path).unwrap().len();
    assert!(
        len <= BUDGET,
        "drained journal is {len} bytes, budget {BUDGET}"
    );

    let replay = replay_file(&path).unwrap();
    assert!(!replay.torn_tail);
    assert_eq!(replay.corrupt_frames, 0);
    assert!(replay.pending().is_empty());
    assert!(
        matches!(replay.records.first(), Some(Record::Compact { .. })),
        "a compacted segment opens with its marker"
    );
    // Exactly-once accounting across the rewrite: finished jobs still in
    // the journal plus the marker's cumulative dropped count equals
    // every job ever admitted.
    let surviving: HashSet<u64> = replay
        .records
        .iter()
        .filter_map(|r| match r {
            Record::Finish { id, .. } => Some(*id),
            _ => None,
        })
        .collect();
    assert_eq!(
        surviving.len() as u64 + replay.dropped_jobs(),
        total_jobs,
        "surviving finishes + dropped = admitted ever"
    );
    // The id-allocator floor survives even though the records that
    // carried the high ids may be gone.
    assert_eq!(replay.max_id(), max_seen_id);

    // A restarted daemon must allocate strictly above the floor.
    let cfg = ServeConfig {
        journal_path: path.clone(),
        journal_max_bytes: BUDGET,
        ..ServeConfig::default()
    };
    let handle = start(cfg).unwrap();
    let mut c = Client::connect(handle.addr).unwrap();
    c.set_timeout(Some(Duration::from_secs(60))).unwrap();
    let dpml_serve::Submission::Finished { id: new_id, .. } =
        c.submit_and_wait(&spec(999_424)).unwrap()
    else {
        panic!("post-restart submit not finished");
    };
    assert!(
        new_id > max_seen_id,
        "id {new_id} reused at or below the compaction floor {max_seen_id}"
    );
    c.shutdown().unwrap();
    assert_eq!(handle.wait(), 0);
    std::fs::remove_file(&path).ok();
}

#[test]
fn compaction_preserves_the_pending_tail() {
    // Build a journal by hand: many finished jobs (compactable) plus
    // pending jobs whose Admit/Start records are the live tail.
    let path = temp("pending");
    let (j, _) = Journal::open(&path).unwrap();
    for id in 1..=40u64 {
        let s = spec(2048 + id);
        j.append(&Record::Admit {
            id,
            digest: s.digest(),
            spec: s,
        })
        .unwrap();
        j.append(&Record::Start { id, attempt: 0 }).unwrap();
        if id <= 37 {
            j.append(&Record::Finish {
                id,
                outcome: dpml_serve::JobOutcome::Error(dpml_serve::JobError::Canceled),
            })
            .unwrap();
        }
    }
    let before = replay_file(&path).unwrap();
    let pending_before: Vec<u64> = before.pending().iter().map(|(id, _, _)| *id).collect();
    assert_eq!(pending_before, vec![38, 40 - 1, 40]);

    // Boot a daemon on it with a small budget: seeding + the pending
    // jobs' own lifecycles push it over, compaction fires, and the
    // pending set must ride through intact until the jobs conclude.
    let cfg = ServeConfig {
        journal_path: path.clone(),
        journal_max_bytes: BUDGET,
        ..ServeConfig::default()
    };
    let handle = start(cfg).unwrap();
    handle.shutdown();
    assert_eq!(handle.wait(), 0);

    let after = replay_file(&path).unwrap();
    assert!(
        after.pending().is_empty(),
        "survivors finished exactly once"
    );
    let finished: HashSet<u64> = after
        .records
        .iter()
        .filter_map(|r| match r {
            Record::Finish { id, .. } => Some(*id),
            _ => None,
        })
        .collect();
    for id in pending_before {
        assert!(
            finished.contains(&id),
            "pending job {id} lost across compaction"
        );
    }
    assert_eq!(
        finished.len() as u64 + after.dropped_jobs(),
        40,
        "accounting balances after seeding + compaction"
    );
    std::fs::remove_file(&path).ok();
}
