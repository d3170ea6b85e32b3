//! Chaos campaigns against the `dpml-serve` daemon.
//!
//! Each iteration boots a real in-process daemon on a fresh journal,
//! throws a seeded job mix at it — panicking workers, invalid specs,
//! tight deadlines, duplicate digests (cache hits), cancellations —
//! drains it, and then audits *crash consistency* without ever sending
//! a real SIGKILL: because the journal is append-only and
//! prefix-consistent, **every byte prefix of the final journal is
//! exactly the file a SIGKILL at that moment would have left behind**.
//! So the campaign replays seeded prefix cuts (including cuts inside a
//! frame's length/CRC trailer) and checks the recovery invariants at
//! each kill point:
//!
//! * every `Finish` has a matching `Admit`, and at most one per id
//!   (exactly-once accounting);
//! * a daemon restarted on the cut journal heals the torn tail,
//!   requeues exactly the unfinished jobs, and completes each exactly
//!   once — no lost jobs, no duplicated jobs.
//!
//! Coverage cells are the serve counters that actually fired
//! (`serve:completed_ok`, `serve:retried`, `serve:canceled`, …) plus
//! recovery-path markers (`serve:torn-tail`, `serve:replayed`,
//! `serve:clean-exit`). Wall-clock scheduling makes individual counter
//! *values* nondeterministic, so — unlike the simulator campaign — the
//! serve campaign asserts invariants, not bit-exact digests.

use dpml_faults::{Mutator, StorageFaultPlan};
use dpml_serve::job::SWEEP_CHUNK;
use dpml_serve::journal::{replay_bytes, replay_file};
use dpml_serve::{
    load_from_bytes, start, Client, JobKind, JobSpec, Record, Request, Response, ServeConfig,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashSet};
use std::path::PathBuf;
use std::time::Duration;

/// Serve-campaign parameters.
#[derive(Debug, Clone)]
pub struct ServeCampaignConfig {
    /// Seed for the job mix and the kill-point choices.
    pub seed: u64,
    /// Daemon lifecycles to run.
    pub iterations: u32,
    /// Prefix cuts audited per iteration (beyond the always-audited
    /// full journal and the one restarted cut).
    pub cuts_per_iteration: u32,
    /// Enable the storage-fault ladder (seeded ENOSPC / short / torn /
    /// bit-flip injection on the journal + checkpoint write paths) on a
    /// seeded subset of iterations.
    pub storage_faults: bool,
    /// Journal byte budget applied on a seeded subset of iterations so
    /// compaction windows become kill-point coverage (0 = never).
    pub journal_max_bytes: u64,
}

impl ServeCampaignConfig {
    pub fn new(seed: u64, iterations: u32) -> Self {
        ServeCampaignConfig {
            seed,
            iterations,
            cuts_per_iteration: 8,
            storage_faults: true,
            journal_max_bytes: 6144,
        }
    }
}

/// What a serve campaign observed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeCampaignReport {
    /// Daemon lifecycles completed.
    pub iterations: u32,
    /// Jobs submitted across all iterations.
    pub jobs_submitted: u32,
    /// Kill points audited (prefix cuts + restarts).
    pub kill_points: u32,
    /// Coverage cells reached.
    pub cells: BTreeSet<String>,
    /// Invariant violations (empty on a healthy daemon).
    pub violations: Vec<String>,
}

fn temp_journal(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "dpml-chaos-serve-{}-{tag}.journal",
        std::process::id()
    ))
}

/// One seeded job spec. Mostly small valid sims/sweeps with occasional
/// worker panics; sometimes an invalid spec (admission reject), a
/// duplicate of an earlier spec (cache-hit path), or a sweep with a
/// too-tight deadline.
fn gen_spec(m: &mut Mutator, prior: &mut Vec<JobSpec>) -> JobSpec {
    if !prior.is_empty() && m.chance(1, 5) {
        let dup = prior[m.below(prior.len())].clone();
        return dup;
    }
    let algs = ["ring", "dpml:2", "rd", "binomial"];
    let mut spec = JobSpec {
        kind: if m.chance(1, 3) {
            JobKind::Sweep
        } else {
            JobKind::Simulate
        },
        preset: "b".into(),
        nodes: 2,
        ppn: 2,
        algorithms: vec![algs[m.below(algs.len())].into()],
        sizes: vec![*m.pick(&[4096u64, 16384])],
        deadline_ms: 0,
        panic_attempts: m.below(3) as u32,
    };
    if spec.kind == JobKind::Sweep {
        // Multi-chunk grids so sweeps cross checkpoint boundaries and
        // leave durable progress behind for the resume path to find.
        spec.algorithms = vec!["ring".into(), "rd".into()];
        let n = 5 + m.below(6) as u64;
        spec.sizes = (0..n).map(|i| 2048 + 1024 * i).collect();
    }
    if m.chance(1, 6) {
        // Fails validation at admission: exercises the reject path.
        spec.preset = "no-such-preset".into();
    } else if m.chance(1, 6) {
        // A sweep that cannot meet a 1 ms deadline: exercises the
        // deadline ladder and the cancel checkpoints between chunks.
        spec.kind = JobKind::Sweep;
        spec.nodes = 4;
        spec.ppn = 4;
        spec.sizes = vec![1 << 18, 1 << 19, 1 << 20];
        spec.deadline_ms = 1;
    }
    prior.push(spec.clone());
    spec
}

/// Read responses until one matches `want`, skipping interleaved
/// `Finished` pushes for pipelined jobs (the daemon pushes terminal
/// outcomes on the same connection, so a reply to *this* request is
/// not necessarily the next frame). `None` on disconnect/timeout.
fn pump_until(client: &mut Client, mut want: impl FnMut(&Response) -> bool) -> Option<Response> {
    loop {
        match client.read_response() {
            Ok(Some(resp)) if want(&resp) => return Some(resp),
            Ok(Some(Response::Finished { .. })) => continue,
            Ok(Some(_)) | Ok(None) | Err(_) => return None,
        }
    }
}

/// Structural audit of a journal state: ids admit at most once, start
/// and finish only after admit, finish at most once.
///
/// `lossy` relaxes the "only after admit" half: under injected bit
/// flips a silently corrupt `Admit` frame is *skipped* at replay (by
/// design — resync, not a wall), which makes later records of that job
/// look orphaned. The exactly-once halves (no duplicate admit, no
/// duplicate finish) hold even then.
fn audit_records(records: &[Record], lossy: bool) -> Result<(), String> {
    let mut admitted: HashSet<u64> = HashSet::new();
    let mut finished: HashSet<u64> = HashSet::new();
    for r in records {
        match r {
            Record::Admit { id, .. } => {
                if !admitted.insert(*id) {
                    return Err(format!("job {id} admitted twice"));
                }
            }
            Record::Start { id, .. } => {
                if !lossy && !admitted.contains(id) {
                    return Err(format!("job {id} started without admit"));
                }
            }
            Record::Finish { id, .. } => {
                if !lossy && !admitted.contains(id) {
                    return Err(format!("job {id} finished without admit"));
                }
                if !finished.insert(*id) {
                    return Err(format!("job {id} finished twice"));
                }
            }
            // A compaction marker carries accounting, not a lifecycle
            // transition; nothing to check per-record here (segment-
            // level accounting is audited via `Replay::dropped_jobs`).
            Record::Compact { .. } => {}
        }
    }
    Ok(())
}

/// Run the serve campaign.
pub fn run_serve_campaign(cfg: &ServeCampaignConfig) -> ServeCampaignReport {
    let mut m = Mutator::new(cfg.seed ^ 0x5e72_7665);
    let mut cells: BTreeSet<String> = BTreeSet::new();
    let mut violations: Vec<String> = Vec::new();
    let mut jobs_submitted = 0u32;
    let mut kill_points = 0u32;

    for iter in 0..cfg.iterations {
        let tag = format!("{:x}-{iter}", cfg.seed);
        let journal_path = temp_journal(&tag);
        std::fs::remove_file(&journal_path).ok();
        let ckpt_dir = std::env::temp_dir().join(format!(
            "dpml-chaos-serve-{}-{tag}.ckpt",
            std::process::id()
        ));
        std::fs::remove_dir_all(&ckpt_dir).ok();
        // Seeded iteration shape: some lifecycles run under a journal
        // byte budget (compaction windows become crash states), some
        // under the storage-fault ladder, some under both.
        let budgeted = cfg.journal_max_bytes > 0 && m.chance(1, 2);
        // Every other iteration runs the storage-fault ladder, so even a
        // 2-iteration CI campaign exercises the faulty write paths.
        let faulty = cfg.storage_faults && (iter % 2 == 1 || m.chance(1, 3));
        let fault_plan = faulty.then(|| StorageFaultPlan {
            seed: cfg.seed ^ u64::from(iter).wrapping_mul(0x9e37),
            enospc_rate: 0.05,
            torn_write_rate: 0.05,
            short_write_rate: 0.05,
            bit_flip_rate: 0.05,
        });
        let serve_cfg = ServeConfig {
            journal_path: journal_path.clone(),
            workers: 2,
            max_retries: 3,
            retry_base_ms: 0.2,
            journal_max_bytes: if budgeted { cfg.journal_max_bytes } else { 0 },
            checkpoint_dir: Some(ckpt_dir.clone()),
            // Keep finished jobs' checkpoint files: phase 4 audits their
            // byte prefixes through the fallback ladder.
            retain_checkpoints: true,
            storage_faults: fault_plan,
            ..ServeConfig::default()
        };
        let handle = match start(serve_cfg) {
            Ok(h) => h,
            Err(e) => {
                violations.push(format!("iter {iter}: daemon failed to start: {e}"));
                continue;
            }
        };
        let mut client = match Client::connect(handle.addr) {
            Ok(c) => c,
            Err(e) => {
                violations.push(format!("iter {iter}: connect failed: {e}"));
                handle.shutdown();
                handle.wait();
                continue;
            }
        };
        client.set_timeout(Some(Duration::from_secs(120))).ok();

        // Phase 1: the seeded job mix, with some cancels sprinkled in.
        let n_jobs = 5 + m.below(4) as u32;
        let mut prior: Vec<JobSpec> = Vec::new();
        let mut accepted_ids: Vec<u64> = Vec::new();
        for _ in 0..n_jobs {
            let spec = gen_spec(&mut m, &mut prior);
            jobs_submitted += 1;
            if let Err(e) = client.send(&Request::Submit { spec }) {
                violations.push(format!("iter {iter}: submit failed: {e}"));
                continue;
            }
            match pump_until(&mut client, |r| {
                matches!(r, Response::Accepted { .. } | Response::Rejected { .. })
            }) {
                Some(Response::Accepted { id, .. }) => {
                    accepted_ids.push(id);
                    if m.chance(1, 4)
                        && client.send(&Request::Cancel { id }).is_ok()
                        && pump_until(&mut client, |r| matches!(r, Response::CancelAck { .. }))
                            .is_none()
                    {
                        violations.push(format!("iter {iter}: cancel of {id} unanswered"));
                    }
                }
                Some(Response::Rejected { .. }) => {
                    cells.insert("serve:rejected".into());
                }
                _ => {
                    violations.push(format!("iter {iter}: submit went unanswered"));
                }
            }
        }

        // Phase 2: drain, then harvest counters as coverage cells. The
        // stats snapshot comes *after* the drain completes so coverage
        // reflects terminal outcomes, not a mid-flight race.
        if client.send(&Request::Shutdown).is_ok() {
            pump_until(&mut client, |r| matches!(r, Response::ShutdownAck { .. }));
        }
        drop(client);
        let state = std::sync::Arc::clone(handle.state());
        let code = handle.wait();
        let stats = state.stats();
        let counter = |name: &str| {
            stats
                .counters
                .iter()
                .find(|c| c.name == name)
                .map(|c| c.value)
                .unwrap_or(0)
        };
        for c in &stats.counters {
            if c.value > 0 {
                cells.insert(format!("serve:{}", c.name.trim_start_matches("serve.")));
            }
        }
        // Durability coverage, under the names the roadmap tracks.
        if counter("serve.journal_compactions") > 0 {
            cells.insert("serve:journal-compaction".into());
        }
        if counter("serve.checkpoints_written") > 0 {
            cells.insert("serve:checkpointed".into());
        }
        if counter("serve.resumes") > 0 {
            cells.insert("serve:resumed".into());
        }
        if counter("serve.checkpoint_fallbacks") > 0 {
            cells.insert("serve:ckpt-fallback".into());
        }
        // Storage-fault ladder coverage from the injector's own tallies.
        if let Some(counts) = state.storage_fault_counts() {
            if counts.enospc > 0 {
                cells.insert("storage:enospc".into());
            }
            if counts.torn > 0 {
                cells.insert("storage:torn-write".into());
            }
            if counts.short > 0 {
                cells.insert("storage:short-write".into());
            }
            if counts.bit_flips > 0 {
                cells.insert("storage:bit-flip".into());
            }
        }
        if code != 0 {
            violations.push(format!("iter {iter}: drained daemon exited {code}"));
        } else {
            cells.insert("serve:clean-exit".into());
        }

        // Phase 3: every prefix of the journal is a SIGKILL crash
        // state. Audit seeded kill points, then restart the daemon on
        // one of them and require exactly-once completion.
        let bytes = match std::fs::read(&journal_path) {
            Ok(b) => b,
            Err(e) => {
                violations.push(format!("iter {iter}: journal unreadable: {e}"));
                continue;
            }
        };
        let full = replay_bytes(&bytes);
        if let Err(why) = audit_records(&full.records, faulty) {
            violations.push(format!("iter {iter}: full journal: {why}"));
        }
        // Under injected storage faults a lost Finish (ENOSPC / torn
        // append) legitimately leaves the job pending on disk — that is
        // the journal being honest about what it could not record.
        if !faulty && !full.pending().is_empty() {
            violations.push(format!(
                "iter {iter}: drained daemon left {} pending jobs",
                full.pending().len()
            ));
        }
        for _ in 0..cfg.cuts_per_iteration {
            let cut = m.below(bytes.len() + 1);
            let replay = replay_bytes(&bytes[..cut]);
            kill_points += 1;
            if replay.torn_tail {
                cells.insert("serve:torn-tail".into());
            }
            if let Err(why) = audit_records(&replay.records, faulty) {
                violations.push(format!("iter {iter}: cut@{cut}: {why}"));
            }
        }

        // Phase 4: checkpoint files are crash states too. Every byte
        // prefix of a retained `job-<id>.ckpt` must drive the fallback
        // ladder, never a panic or an over-long resume.
        if let Ok(entries) = std::fs::read_dir(&ckpt_dir) {
            for entry in entries.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                let Some(id) = name
                    .strip_prefix("job-")
                    .and_then(|s| s.strip_suffix(".ckpt"))
                    .and_then(|s| s.parse::<u64>().ok())
                else {
                    continue;
                };
                let Some((digest, total)) = full.records.iter().find_map(|r| match r {
                    Record::Admit {
                        id: aid,
                        digest,
                        spec,
                    } if *aid == id => spec
                        .scenarios()
                        .ok()
                        .map(|s| (digest.clone(), s.len() as u32)),
                    _ => None,
                }) else {
                    continue;
                };
                let Ok(ck_bytes) = std::fs::read(entry.path()) else {
                    continue;
                };
                for _ in 0..cfg.cuts_per_iteration.min(4) {
                    let cut = m.below(ck_bytes.len() + 1);
                    kill_points += 1;
                    if let Some(load) =
                        load_from_bytes(&ck_bytes[..cut], &digest, total, SWEEP_CHUNK as u32)
                    {
                        if load.ckpt.next_index > total {
                            violations.push(format!(
                                "iter {iter}: ckpt {id} cut@{cut}: resume index {} past total {total}",
                                load.ckpt.next_index
                            ));
                        }
                        if load.fallbacks > 0 {
                            cells.insert("serve:ckpt-fallback".into());
                        }
                    }
                }
                cells.insert("serve:ckpt-prefix".into());
            }
        }

        // Restart on one seeded cut: the daemon must heal the tail,
        // requeue exactly the unfinished jobs, and finish each once.
        let cut = m.below(bytes.len() + 1);
        let cut_path = temp_journal(&format!("{tag}-cut"));
        if std::fs::write(&cut_path, &bytes[..cut]).is_ok() {
            kill_points += 1;
            let expect = replay_bytes(&bytes[..cut]);
            let expected_pending: Vec<u64> =
                expect.pending().iter().map(|(id, _, _)| *id).collect();
            let serve_cfg = ServeConfig {
                journal_path: cut_path.clone(),
                workers: 2,
                max_retries: 3,
                retry_base_ms: 0.2,
                // Fault-free restart sharing the dead daemon's checkpoint
                // directory: re-queued sweeps resume mid-grid instead of
                // cold-starting.
                checkpoint_dir: Some(ckpt_dir.clone()),
                ..ServeConfig::default()
            };
            match start(serve_cfg) {
                Ok(handle) => {
                    if !expected_pending.is_empty() {
                        cells.insert("serve:replayed".into());
                    }
                    if let Ok(mut c) = Client::connect(handle.addr) {
                        c.set_timeout(Some(Duration::from_secs(120))).ok();
                        c.shutdown().ok();
                    }
                    let restart_state = std::sync::Arc::clone(handle.state());
                    let code = handle.wait();
                    let restart_stats = restart_state.stats();
                    let rc = |name: &str| {
                        restart_stats
                            .counters
                            .iter()
                            .find(|c| c.name == name)
                            .map(|c| c.value)
                            .unwrap_or(0)
                    };
                    if rc("serve.resumes") > 0 {
                        cells.insert("serve:resumed".into());
                    }
                    if rc("serve.checkpoint_fallbacks") > 0 {
                        cells.insert("serve:ckpt-fallback".into());
                    }
                    if code != 0 {
                        violations.push(format!("iter {iter}: restarted daemon exited {code}"));
                    }
                    match replay_file(&cut_path) {
                        Ok(after) => {
                            if let Err(why) = audit_records(&after.records, faulty) {
                                violations.push(format!("iter {iter}: after restart: {why}"));
                            }
                            let still: Vec<u64> =
                                after.pending().iter().map(|(id, _, _)| *id).collect();
                            if !still.is_empty() {
                                violations.push(format!(
                                    "iter {iter}: restart lost jobs {still:?} (expected requeue of {expected_pending:?})"
                                ));
                            }
                        }
                        Err(e) => violations
                            .push(format!("iter {iter}: post-restart journal unreadable: {e}")),
                    }
                }
                Err(e) => {
                    violations.push(format!("iter {iter}: restart on cut journal failed: {e}"))
                }
            }
        }
        std::fs::remove_file(&journal_path).ok();
        std::fs::remove_file(&cut_path).ok();
        std::fs::remove_dir_all(&ckpt_dir).ok();
    }

    ServeCampaignReport {
        iterations: cfg.iterations,
        jobs_submitted,
        kill_points,
        cells,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_campaign_holds_exactly_once_invariants() {
        let report = run_serve_campaign(&ServeCampaignConfig::new(0xcafe, 2));
        assert!(
            report.violations.is_empty(),
            "violations: {:#?}",
            report.violations
        );
        assert!(report.jobs_submitted >= 10);
        assert!(report.kill_points >= 18);
        assert!(
            report.cells.contains("serve:clean-exit"),
            "cells: {:?}",
            report.cells
        );
        assert!(report.cells.len() >= 4, "cells: {:?}", report.cells);
    }
}
