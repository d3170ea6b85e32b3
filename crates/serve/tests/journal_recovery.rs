//! Journal recovery under randomized kill points.
//!
//! Satellite 4 of the serve PR: kill the daemon at arbitrary byte
//! offsets mid-append (producing truncated or torn tails) and assert
//! that replay re-queues every admitted-but-unfinished job exactly
//! once — never zero times (lost), never twice (duplicated).

use dpml_faults::splitmix64;
use dpml_serve::frame::encode_frame;
use dpml_serve::journal::{replay_bytes, Journal, Record};
use dpml_serve::{start, Client, JobKind, JobOutcome, JobSpec, ServeConfig};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Duration;

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
        "dpml-recovery-{}-{name}.journal",
        std::process::id()
    ));
    std::fs::remove_file(&p).ok();
    p
}

/// A journal mixing lifecycle states: finished, started-not-finished,
/// admitted-only, and a retried job.
fn build_journal(path: &PathBuf) -> Vec<u8> {
    let (j, _) = Journal::open(path).unwrap();
    for id in 1..=6u64 {
        let s = spec(1000 + id);
        j.append(&Record::Admit {
            id,
            digest: s.digest(),
            spec: s,
        })
        .unwrap();
    }
    j.append(&Record::Start { id: 1, attempt: 0 }).unwrap();
    j.append(&Record::Finish {
        id: 1,
        outcome: dpml_serve::JobOutcome::Error(dpml_serve::JobError::Canceled),
    })
    .unwrap();
    j.append(&Record::Start { id: 2, attempt: 0 }).unwrap();
    j.append(&Record::Start { id: 2, attempt: 1 }).unwrap(); // retried
    j.append(&Record::Start { id: 3, attempt: 0 }).unwrap();
    j.append(&Record::Finish {
        id: 3,
        outcome: dpml_serve::JobOutcome::Error(dpml_serve::JobError::Canceled),
    })
    .unwrap();
    drop(j);
    std::fs::read(path).unwrap()
}

/// Ground truth from a byte prefix: which admits / finishes survive a
/// cut at `len`, computed record-by-record, independent of the reader
/// under test.
fn expected_at(full_records: &[(Record, u64)], len: u64) -> (Vec<u64>, Vec<u64>) {
    let mut admits = Vec::new();
    let mut finishes = Vec::new();
    for (rec, end) in full_records {
        if *end <= len {
            match rec {
                Record::Admit { id, .. } => admits.push(*id),
                Record::Finish { id, .. } => finishes.push(*id),
                Record::Start { .. } | Record::Compact { .. } => {}
            }
        }
    }
    (admits, finishes)
}

/// Record boundaries (end offset of each record) straight from the
/// framing, for the ground-truth model.
fn record_ends(bytes: &[u8]) -> Vec<(Record, u64)> {
    let replay = replay_bytes(bytes);
    assert!(!replay.torn_tail);
    let mut out = Vec::new();
    let mut off = 0u64;
    let mut idx = 0;
    while idx < replay.records.len() {
        let len = u32::from_le_bytes(bytes[off as usize..off as usize + 4].try_into().unwrap());
        off += 8 + u64::from(len);
        out.push((replay.records[idx].clone(), off));
        idx += 1;
    }
    out
}

#[test]
fn replay_at_every_randomized_truncation_requeues_exactly_once() {
    let path = temp("randomized");
    let full = build_journal(&path);
    std::fs::remove_file(&path).ok();
    let boundaries = record_ends(&full);

    // 64 seeded-random kill offsets plus every record boundary and its
    // neighbors (the interesting edges: header split, CRC split, ±1).
    let mut cuts: Vec<u64> = Vec::new();
    let mut x = 0x5eed_cafe_f00d_1234u64;
    for _ in 0..64 {
        x = splitmix64(x);
        cuts.push(x % (full.len() as u64 + 1));
    }
    for (_, end) in &boundaries {
        for delta in [-1i64, 0, 1, 4, 7] {
            let c = end.saturating_add_signed(delta).min(full.len() as u64);
            cuts.push(c);
        }
    }
    cuts.push(0);
    cuts.push(full.len() as u64);

    for cut in cuts {
        let prefix = &full[..cut as usize];
        let replay = replay_bytes(prefix);
        let (admits, finishes) = expected_at(&boundaries, cut);

        // The reader recovers exactly the intact prefix.
        let got_admits: Vec<u64> = replay
            .records
            .iter()
            .filter_map(|r| match r {
                Record::Admit { id, .. } => Some(*id),
                _ => None,
            })
            .collect();
        assert_eq!(got_admits, admits, "cut at {cut}");
        assert_eq!(
            replay.torn_tail,
            cut != boundaries.last().map(|(_, e)| *e).unwrap_or(0)
                && cut != 0
                && !boundaries.iter().any(|(_, e)| *e == cut),
            "torn-tail flag at cut {cut}"
        );

        // Every admitted-but-unfinished job is re-queued exactly once.
        let pending = replay.pending();
        let mut counts: HashMap<u64, usize> = HashMap::new();
        for (id, _, _) in &pending {
            *counts.entry(*id).or_default() += 1;
        }
        for id in &admits {
            let expected = usize::from(!finishes.contains(id));
            assert_eq!(
                counts.get(id).copied().unwrap_or(0),
                expected,
                "job {id} at cut {cut}: lost or duplicated"
            );
        }
        // And nothing is invented.
        assert_eq!(counts.values().sum::<usize>(), pending.len());
    }
}

#[test]
fn reopen_after_random_truncation_appends_cleanly() {
    let path = temp("reopen");
    let full = build_journal(&path);
    let mut x = 0x000a_bad1_dea0_u64;
    for _ in 0..12 {
        x = splitmix64(x);
        let cut = (x % (full.len() as u64 + 1)) as usize;
        std::fs::write(&path, &full[..cut]).unwrap();
        let (j, replay) = Journal::open(&path).unwrap();
        let before = replay.records.len();
        j.append(&Record::Start {
            id: 999,
            attempt: 0,
        })
        .unwrap();
        drop(j);
        let after = dpml_serve::journal::replay_file(&path).unwrap();
        assert!(
            !after.torn_tail,
            "cut {cut}: append after truncation must heal"
        );
        assert_eq!(after.records.len(), before + 1, "cut {cut}");
        assert_eq!(
            after.records.last(),
            Some(&Record::Start {
                id: 999,
                attempt: 0
            }),
            "cut {cut}"
        );
    }
    std::fs::remove_file(&path).ok();
}

/// Full-stack version: boot a daemon on a truncated journal and verify
/// the drain leaves every surviving admitted job finished exactly once.
#[test]
fn daemon_restart_on_truncated_journal_finishes_survivors() {
    let path = temp("daemon");
    let full = build_journal(&path);
    let boundaries = record_ends(&full);

    let mut x = 0x0123_4567_89abu64;
    for round in 0..4 {
        x = splitmix64(x);
        let cut = (x % (full.len() as u64 + 1)) as usize;
        std::fs::write(&path, &full[..cut]).unwrap();
        let (admits, finishes) = expected_at(&boundaries, cut as u64);

        let cfg = ServeConfig {
            journal_path: path.clone(),
            ..ServeConfig::default()
        };
        let handle = start(cfg).unwrap();
        let mut c = Client::connect(handle.addr).unwrap();
        c.set_timeout(Some(Duration::from_secs(60))).unwrap();
        c.shutdown().unwrap();
        assert_eq!(handle.wait(), 0, "round {round} cut {cut}");

        let after = dpml_serve::journal::replay_file(&path).unwrap();
        assert!(after.pending().is_empty(), "round {round} cut {cut}");
        let mut finish_counts: HashMap<u64, usize> = HashMap::new();
        for r in &after.records {
            if let Record::Finish { id, .. } = r {
                *finish_counts.entry(*id).or_default() += 1;
            }
        }
        // Already-finished jobs keep their single Finish (not re-run);
        // surviving pending jobs gain exactly one. Either way: one.
        let _ = &finishes;
        for id in &admits {
            assert_eq!(
                finish_counts.get(id).copied().unwrap_or(0),
                1,
                "round {round} cut {cut}: job {id} must finish exactly once"
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

/// Admit records exactly as earlier daemons wrote them: every `JobSpec`
/// carried a `parallelism` field (`"Serial"`, `{"Intra":n}` or `"Auto"`)
/// that was left out of the digest. The field no longer exists; serde
/// skips the unknown key, so these jobs must re-queue under the digests
/// they were admitted with and finish exactly once.
const LEGACY_ADMITS: [(u64, &str, &str); 3] = [
    (
        1,
        "29e097bbef4bbe09ccb2a8bb",
        r#"{"Admit":{"id":1,"digest":"29e097bbef4bbe09ccb2a8bb","spec":{"kind":"Simulate","preset":"b","nodes":2,"ppn":2,"algorithms":["ring"],"sizes":[1001],"deadline_ms":0,"panic_attempts":0,"parallelism":{"Intra":4}}}}"#,
    ),
    (
        2,
        "90b1b80eb02f606cefa7e50c",
        r#"{"Admit":{"id":2,"digest":"90b1b80eb02f606cefa7e50c","spec":{"kind":"Sweep","preset":"b","nodes":2,"ppn":2,"algorithms":["ring","dpml:2"],"sizes":[1024,4096],"deadline_ms":0,"panic_attempts":0,"parallelism":"Auto"}}}"#,
    ),
    (
        3,
        "4ee6ce35cfd9dfee19681579",
        r#"{"Admit":{"id":3,"digest":"4ee6ce35cfd9dfee19681579","spec":{"kind":"Profile","preset":"b","nodes":2,"ppn":2,"algorithms":["dpml:2"],"sizes":[65536],"deadline_ms":0,"panic_attempts":0,"parallelism":"Serial"}}}"#,
    ),
];

#[test]
fn legacy_admits_carrying_parallelism_requeue_under_the_same_digests() {
    let path = temp("legacy");
    let mut bytes = Vec::new();
    for (_, _, json) in LEGACY_ADMITS {
        bytes.extend(encode_frame(json.as_bytes()));
    }
    bytes.extend(encode_frame(br#"{"Start":{"id":1,"attempt":0}}"#));
    std::fs::write(&path, &bytes).unwrap();

    let replay = replay_bytes(&bytes);
    assert_eq!(replay.corrupt_frames, 0, "every legacy record must parse");
    assert!(!replay.torn_tail);
    let pending = replay.pending();
    assert_eq!(pending.len(), LEGACY_ADMITS.len());
    for ((id, digest, spec), (want_id, want_digest, _)) in pending.iter().zip(LEGACY_ADMITS) {
        assert_eq!((*id, digest.as_str()), (want_id, want_digest));
        assert_eq!(spec.digest(), want_digest, "job {id}: digest moved");
    }

    // Boot a daemon on the legacy journal: the drain must finish every
    // job exactly once (0 lost, 0 duplicated), under its original digest.
    let handle = start(ServeConfig {
        journal_path: path.clone(),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut c = Client::connect(handle.addr).unwrap();
    c.set_timeout(Some(Duration::from_secs(60))).unwrap();
    c.shutdown().unwrap();
    assert_eq!(handle.wait(), 0);

    let after = dpml_serve::journal::replay_file(&path).unwrap();
    assert!(after.pending().is_empty());
    let finished = after.finished();
    for (id, digest, _) in LEGACY_ADMITS {
        let outcomes: Vec<&JobOutcome> = finished
            .iter()
            .filter(|(fid, _)| *fid == id)
            .map(|(_, o)| o)
            .collect();
        assert_eq!(outcomes.len(), 1, "job {id} must finish exactly once");
        let JobOutcome::Done(res) = outcomes[0] else {
            panic!("job {id}: expected Done, got {:?}", outcomes[0]);
        };
        assert_eq!(
            res.digest, digest,
            "job {id}: result filed under a new digest"
        );
    }
    std::fs::remove_file(&path).ok();
}
