//! End-to-end checkpoint/resume: the durability tentpole's safety bar.
//!
//! A sweep resumed from ANY persisted checkpoint must produce a
//! `JobResult` *byte-identical* (as serialized JSON) to an uninterrupted
//! run, while strictly re-simulating fewer scenarios than a cold
//! restart. The daemon-level tests stage a crash by hand — an `Admit`
//! record without a `Finish` plus a checkpoint file on disk — and boot a
//! fresh daemon on the wreckage.

use dpml_serve::job::{execute, JobCtx, JobKind, JobOutcome, JobSpec, SWEEP_CHUNK};
use dpml_serve::journal::{replay_file, Journal, Record};
use dpml_serve::protocol::ServeStats;
use dpml_serve::{start, CheckpointStore, ServeConfig};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// 20 scenarios → chunk boundaries at 8, 16, 20 with `SWEEP_CHUNK = 8`.
fn sweep_spec() -> JobSpec {
    JobSpec {
        kind: JobKind::Sweep,
        preset: "b".into(),
        nodes: 2,
        ppn: 2,
        algorithms: vec!["ring".into(), "rd".into()],
        sizes: (1..=10).map(|i| i * 4096).collect(),
        deadline_ms: 0,
        panic_attempts: 0,
    }
}

fn temp(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("dpml-resume-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    std::fs::remove_file(&p).ok();
    p
}

/// Run `spec` uninterrupted, capturing every chunk-boundary checkpoint.
fn run_capturing(spec: &JobSpec) -> (String, Vec<dpml_core::SweepCheckpoint>) {
    let ctx = JobCtx::new();
    let captured = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&captured);
    ctx.set_checkpoint_sink(Box::new(move |ck| {
        sink.lock().unwrap().push(ck.clone());
    }));
    let out = execute(spec, &ctx, 0);
    let JobOutcome::Done(res) = out else {
        panic!("uninterrupted run failed: {out:?}");
    };
    let baseline = serde_json::to_string(&res).unwrap();
    let ckpts = captured.lock().unwrap().clone();
    (baseline, ckpts)
}

fn counter(stats: &ServeStats, name: &str) -> u64 {
    stats
        .counters
        .iter()
        .find(|c| c.name == name)
        .map(|c| c.value)
        .unwrap_or(0)
}

#[test]
fn resume_from_every_checkpoint_is_byte_identical_with_less_rework() {
    let spec = sweep_spec();
    let total = spec.scenarios().unwrap().len() as u64;
    let (baseline, ckpts) = run_capturing(&spec);
    assert_eq!(
        ckpts.len(),
        total.div_ceil(SWEEP_CHUNK as u64) as usize,
        "one checkpoint per chunk boundary"
    );

    for ck in &ckpts {
        let resumed_at = u64::from(ck.next_index);
        let ctx = JobCtx::new();
        ctx.set_resume(ck.clone());
        let out = execute(&spec, &ctx, 0);
        let JobOutcome::Done(res) = out else {
            panic!("resume from index {resumed_at} failed: {out:?}");
        };
        assert_eq!(
            serde_json::to_string(&res).unwrap(),
            baseline,
            "resume from index {resumed_at} must be byte-identical"
        );
        let executed = ctx
            .executed_scenarios
            .load(std::sync::atomic::Ordering::Relaxed);
        let resumed = ctx
            .resumed_scenarios
            .load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(resumed, resumed_at);
        assert_eq!(
            executed,
            total - resumed_at,
            "rework is exactly the remainder"
        );
        if resumed_at > 0 {
            assert!(executed < total, "rework must be strictly less than cold");
        }
    }
}

#[test]
fn inconsistent_resume_checkpoint_degrades_to_cold_start() {
    let spec = sweep_spec();
    let (baseline, ckpts) = run_capturing(&spec);
    // A checkpoint from a different chunking must not poison the run.
    let mut evil = ckpts[0].clone();
    evil.chunk += 1;
    let ctx = JobCtx::new();
    ctx.set_resume(evil);
    let JobOutcome::Done(res) = execute(&spec, &ctx, 0) else {
        panic!("cold-start degradation failed");
    };
    assert_eq!(serde_json::to_string(&res).unwrap(), baseline);
    assert_eq!(
        ctx.resumed_scenarios
            .load(std::sync::atomic::Ordering::Relaxed),
        0,
        "nothing restored from an inconsistent checkpoint"
    );
}

/// Stage a crash: journal holds an unfinished `Admit`, the checkpoint
/// store holds mid-sweep progress. Boot a daemon, drain it, and compare
/// the journaled result byte-for-byte with the uninterrupted baseline.
fn staged_crash_resume(name: &str, corrupt_newest: bool) {
    let spec = sweep_spec();
    let (baseline, ckpts) = run_capturing(&spec);
    let mid = ckpts[ckpts.len() / 2].clone();

    let journal_path = temp(&format!("{name}.journal"));
    let ckpt_dir = temp(&format!("{name}.ckpt"));
    {
        let (j, _) = Journal::open(&journal_path).unwrap();
        j.append(&Record::Admit {
            id: 1,
            digest: spec.digest(),
            spec: spec.clone(),
        })
        .unwrap();
    }
    let store = CheckpointStore::new(&ckpt_dir, 1);
    store.save(1, &mid).unwrap();
    if corrupt_newest {
        // Append a newer, bit-rotted frame: the fallback ladder must
        // descend to `mid` instead of cold-starting or mis-resuming.
        let newer = ckpts[ckpts.len() - 1].clone();
        store.save(1, &newer).unwrap();
        let path = store.path_for(1);
        let mut bytes = std::fs::read(&path).unwrap();
        let len = bytes.len();
        bytes[len - 3] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
    }

    let cfg = ServeConfig {
        journal_path: journal_path.clone(),
        checkpoint_dir: Some(ckpt_dir.clone()),
        ..ServeConfig::default()
    };
    let handle = start(cfg).unwrap();
    let state = Arc::clone(handle.state());
    handle.shutdown();
    assert_eq!(handle.wait(), 0);

    let stats = state.stats();
    assert_eq!(counter(&stats, "serve.resumes"), 1, "one resumed job");
    assert_eq!(
        counter(&stats, "serve.scenarios_resumed"),
        u64::from(mid.next_index),
        "restored exactly the checkpointed prefix"
    );
    let total = spec.scenarios().unwrap().len() as u64;
    assert_eq!(
        counter(&stats, "serve.scenarios_executed"),
        total - u64::from(mid.next_index),
        "rework is exactly the remainder"
    );
    if corrupt_newest {
        assert!(
            counter(&stats, "serve.checkpoint_fallbacks") >= 1,
            "the corrupted newest frame is a descended rung"
        );
    }

    let replay = replay_file(&journal_path).unwrap();
    assert!(replay.pending().is_empty(), "the job finished exactly once");
    let finished = replay.finished();
    let (id, outcome) = finished.last().expect("a Finish record");
    assert_eq!(*id, 1);
    let JobOutcome::Done(res) = outcome else {
        panic!("resumed job failed: {outcome:?}");
    };
    assert_eq!(
        serde_json::to_string(res).unwrap(),
        baseline,
        "daemon resume must be byte-identical to the uninterrupted run"
    );

    std::fs::remove_file(&journal_path).ok();
    std::fs::remove_dir_all(&ckpt_dir).ok();
}

#[test]
fn daemon_resumes_staged_crash_byte_identically() {
    staged_crash_resume("clean", false);
}

#[test]
fn daemon_descends_fallback_ladder_on_corrupt_newest_frame() {
    staged_crash_resume("ladder", true);
}
