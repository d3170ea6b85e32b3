//! Load generator for the `dpml-serve` daemon (DESIGN.md §12;
//! EXPERIMENTS.md `serve` row).
//!
//! Two phases, both ending in a journal audit that fails the binary if
//! any admitted job was lost (zero finishes) or duplicated (more than
//! one finish):
//!
//! 1. **Throughput** — several client threads drive a mixed hot/cold
//!    request stream at an in-process daemon: the hot pool repeats a
//!    handful of scenario digests (cache hits after first touch), the
//!    cold stream is all-distinct. Records client-observed req/s and
//!    p50/p99 latency, the cache hit rate, and load-shed counts
//!    (`Rejected` submits are retried honoring `retry_after_ms`).
//! 2. **Chaos** (`--chaos`) — three injected failure modes on top of
//!    the same audit:
//!    * jobs with `panic_attempts > 0` panic their workers, forcing the
//!      catch-unwind + respawn + seeded-backoff retry path;
//!    * clients submit and vanish mid-job (the daemon must finish and
//!      journal the orphan, counting only a push failure);
//!    * a *separate daemon process* (re-exec of this binary with the
//!      hidden `--daemon` flag) is SIGKILLed mid-journal with jobs in
//!      flight, then restarted on the same journal — replay must
//!      re-queue every admitted-but-unfinished job exactly once and
//!      drain it to a clean exit 0;
//!    * a **durability round**: the subprocess daemon runs with a
//!      journal byte budget and a checkpoint store, is SIGKILLed the
//!      moment the first sweep checkpoint lands on disk, and the
//!      restarted daemon must *resume* from the persisted checkpoints
//!      (not cold-restart), compact the journal back under its budget,
//!      and balance the exactly-once ledger across the `Record::Compact`
//!      marker (surviving finishes + dropped-by-compaction = admitted).
//!
//! Usage: `serve_bench [--quick] [--chaos] [--clients N] [--requests N]`
//! Writes `results/serve.json`.

use dpml_bench::{arg_flag, arg_num, save_results};
use dpml_engine::flight::PostmortemBundle;
use dpml_serve::journal::replay_file;
use dpml_serve::journal::Record;
use dpml_serve::{start, Client, JobKind, JobSpec, Metric, ServeConfig, Submission};
use serde::Serialize;
use std::collections::HashMap;
use std::io::Write as _;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

#[derive(Serialize)]
struct ThroughputReport {
    clients: usize,
    requests: usize,
    duration_s: f64,
    req_per_s: f64,
    p50_ms: f64,
    p99_ms: f64,
    cache_hits: u64,
    cache_hit_rate: f64,
    shed_then_retried: u64,
    server_job_ms_p99: u64,
}

#[derive(Serialize)]
struct ChaosReport {
    panics_injected: u64,
    worker_panics: u64,
    retries: u64,
    orphaned_clients: usize,
    push_failures: u64,
    daemon_kills: usize,
    killed_jobs_admitted: usize,
    replayed_after_kill: u64,
    /// Post-mortem bundles the panicking workers dumped (capped).
    postmortem_bundles: usize,
}

#[derive(Serialize)]
struct AuditReport {
    jobs_admitted: usize,
    jobs_lost: usize,
    jobs_duplicated: usize,
}

#[derive(Serialize)]
struct DurabilityReport {
    journal_budget: u64,
    jobs: usize,
    resumes: u64,
    scenarios_resumed: u64,
    checkpoints_written: u64,
    compactions: u64,
    dropped_by_compaction: u64,
    final_journal_bytes: u64,
}

#[derive(Serialize)]
struct ServeBenchReport {
    quick: bool,
    throughput: ThroughputReport,
    chaos: Option<ChaosReport>,
    durability: Option<DurabilityReport>,
    audit: AuditReport,
}

fn temp_path(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("dpml-serve-bench-{}-{name}", std::process::id()));
    std::fs::remove_file(&p).ok();
    p
}

/// A fast scenario; `salt` varies the size so distinct salts are
/// distinct cache digests.
fn cold_spec(salt: u64) -> JobSpec {
    JobSpec {
        kind: JobKind::Simulate,
        preset: "b".into(),
        nodes: 2,
        ppn: 2,
        algorithms: vec!["ring".into()],
        sizes: vec![1024 + 8 * (salt % 4096)],
        deadline_ms: 0,
        panic_attempts: 0,
    }
}

/// The hot pool: a few digests repeated by every client.
fn hot_spec(slot: u64) -> JobSpec {
    JobSpec {
        kind: JobKind::Simulate,
        preset: "b".into(),
        nodes: 2,
        ppn: 2,
        algorithms: vec!["rd".into()],
        sizes: vec![4096 + 1024 * (slot % 8)],
        deadline_ms: 0,
        panic_attempts: 0,
    }
}

/// Long enough (~100ms+) that orphaning a client leaves the job running.
fn slow_spec(salt: u64) -> JobSpec {
    JobSpec {
        kind: JobKind::Sweep,
        preset: "b".into(),
        nodes: 8,
        ppn: 8,
        algorithms: vec!["rd".into(), "ring".into(), "rab".into()],
        sizes: vec![1 << 20, 2 << 20, (3 << 20) + salt * 4096, 4 << 20],
        deadline_ms: 0,
        panic_attempts: 0,
    }
}

/// Heavy enough (seconds, even in release) that a SIGKILL lands while
/// most of the batch is still queued or running.
fn heavy_spec(salt: u64) -> JobSpec {
    JobSpec {
        kind: JobKind::Sweep,
        preset: "b".into(),
        nodes: 16,
        ppn: 8,
        algorithms: vec!["rd".into(), "ring".into(), "rab".into()],
        sizes: vec![4 << 20, 8 << 20, (12 << 20) + salt * 4096, 16 << 20],
        deadline_ms: 0,
        panic_attempts: 0,
    }
}

/// Many-chunk sweep for the durability round: 48 scenarios → sweep
/// checkpoints at indices 8, 16, … 40 with `SWEEP_CHUNK = 8`, each
/// chunk cheap enough that the first checkpoint lands within ~100 ms.
fn durable_spec(salt: u64) -> JobSpec {
    JobSpec {
        kind: JobKind::Sweep,
        preset: "b".into(),
        nodes: 8,
        ppn: 8,
        algorithms: vec!["rd".into(), "ring".into(), "rab".into()],
        sizes: (0..16)
            .map(|i| (1 << 20) + (i << 18) + salt * 4096)
            .collect(),
        deadline_ms: 0,
        panic_attempts: 0,
    }
}

/// Count finishes per admitted job in a journal; zero = lost, >1 =
/// duplicated. The drained daemon must leave neither.
fn audit_journal(path: &Path) -> AuditReport {
    let replay = replay_file(path).expect("journal readable");
    assert!(
        replay.pending().is_empty(),
        "journal audit: {} jobs still pending after drain",
        replay.pending().len()
    );
    let mut finishes: HashMap<u64, usize> = HashMap::new();
    let mut admits = Vec::new();
    for r in &replay.records {
        match r {
            Record::Admit { id, .. } => admits.push(*id),
            Record::Finish { id, .. } => *finishes.entry(*id).or_default() += 1,
            Record::Start { .. } | Record::Compact { .. } => {}
        }
    }
    let lost = admits
        .iter()
        .filter(|id| finishes.get(id).copied().unwrap_or(0) == 0)
        .count();
    let duplicated = admits
        .iter()
        .filter(|id| finishes.get(id).copied().unwrap_or(0) > 1)
        .count();
    AuditReport {
        jobs_admitted: admits.len(),
        jobs_lost: lost,
        jobs_duplicated: duplicated,
    }
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

/// Submit with bounded client-side retries honoring the server's
/// `retry_after_ms` hint. Returns (submission, shed_count).
fn submit_patiently(
    client: &mut Client,
    spec: &JobSpec,
) -> Result<(Submission, u64), dpml_serve::ClientError> {
    let mut shed = 0u64;
    loop {
        match client.submit_and_wait(spec)? {
            Submission::Rejected { retry_after_ms, .. } if retry_after_ms > 0 && shed < 50 => {
                shed += 1;
                std::thread::sleep(Duration::from_millis(retry_after_ms));
            }
            done => return Ok((done, shed)),
        }
    }
}

fn throughput_phase(
    addr: SocketAddr,
    clients: usize,
    requests_per_client: usize,
) -> (ThroughputReport, u64) {
    let t0 = Instant::now();
    let mut handles = Vec::new();
    for c in 0..clients {
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            client
                .set_timeout(Some(Duration::from_secs(120)))
                .expect("timeout");
            let mut latencies_ms = Vec::with_capacity(requests_per_client);
            let mut hits = 0u64;
            let mut shed = 0u64;
            for r in 0..requests_per_client {
                let salt = (c * requests_per_client + r) as u64;
                // 1-in-4 requests replay the hot pool; the rest are cold.
                let spec = if r % 4 == 0 {
                    hot_spec(salt)
                } else {
                    cold_spec(salt)
                };
                let t = Instant::now();
                let (sub, s) = submit_patiently(&mut client, &spec).expect("submit");
                latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
                shed += s;
                match sub {
                    Submission::Finished {
                        cached, outcome, ..
                    } => {
                        assert!(outcome.is_done(), "throughput job failed: {outcome:?}");
                        if cached {
                            hits += 1;
                        }
                    }
                    Submission::Rejected { reason, .. } => {
                        panic!("unretryable rejection: {reason}")
                    }
                }
            }
            (latencies_ms, hits, shed)
        }));
    }
    let mut all_ms = Vec::new();
    let mut hits = 0u64;
    let mut shed = 0u64;
    for h in handles {
        let (ms, h_hits, h_shed) = h.join().expect("client thread");
        all_ms.extend(ms);
        hits += h_hits;
        shed += h_shed;
    }
    let duration_s = t0.elapsed().as_secs_f64();
    all_ms.sort_by(|a, b| a.total_cmp(b));
    let total = clients * requests_per_client;
    (
        ThroughputReport {
            clients,
            requests: total,
            duration_s,
            req_per_s: total as f64 / duration_s,
            p50_ms: percentile(&all_ms, 0.50),
            p99_ms: percentile(&all_ms, 0.99),
            cache_hits: hits,
            cache_hit_rate: hits as f64 / total as f64,
            shed_then_retried: shed,
            server_job_ms_p99: 0, // filled from stats by the caller
        },
        shed,
    )
}

/// Spawn this binary as a detached daemon process; returns the child and
/// its bound address (written by the child to `addr_file`).
// Every caller either kills+waits the child or waits for a clean exit;
// clippy can't see across the kill_restart_round control flow.
#[allow(clippy::zombie_processes)]
fn spawn_daemon(journal: &Path, addr_file: &Path, extra: &[&str]) -> (Child, SocketAddr) {
    std::fs::remove_file(addr_file).ok();
    let child = Command::new(std::env::current_exe().expect("current exe"))
        .args([
            "--daemon",
            "--journal",
            journal.to_str().expect("utf8 path"),
            "--addr-file",
            addr_file.to_str().expect("utf8 path"),
        ])
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn daemon child");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(s) = std::fs::read_to_string(addr_file) {
            if let Ok(addr) = s.trim().parse::<SocketAddr>() {
                return (child, addr);
            }
        }
        assert!(
            Instant::now() < deadline,
            "daemon child never published its address"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Hidden child mode: run a real daemon until a client drains it. The
/// durability round passes the journal budget and checkpoint store
/// through so the subprocess exercises the production config surface.
fn daemon_main() -> ! {
    let journal = dpml_bench::arg_value("--journal").expect("--journal required");
    let addr_file = dpml_bench::arg_value("--addr-file").expect("--addr-file required");
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        journal_path: PathBuf::from(journal),
        journal_max_bytes: arg_num("--journal-max-bytes", 0u64),
        checkpoint_interval: arg_num("--checkpoint-interval", 1u64),
        checkpoint_dir: dpml_bench::arg_value("--checkpoint-dir").map(PathBuf::from),
        ..ServeConfig::default()
    };
    let handle = start(cfg).expect("daemon start");
    // Publish the bound port atomically-enough: write then rename.
    let tmp = format!("{addr_file}.tmp");
    let mut f = std::fs::File::create(&tmp).expect("addr file");
    writeln!(f, "{}", handle.addr).expect("addr write");
    drop(f);
    std::fs::rename(&tmp, &addr_file).expect("addr publish");
    std::process::exit(handle.wait());
}

/// Kill-and-restart: submit in-flight work to a subprocess daemon,
/// SIGKILL it mid-journal, restart on the same journal, drain, and
/// count what replay recovered.
fn kill_restart_round(journal: &Path, addr_file: &Path, jobs: usize, round: u64) -> (usize, u64) {
    let (mut child, addr) = spawn_daemon(journal, addr_file, &[]);
    let mut client = Client::connect(addr).expect("connect to child daemon");
    client
        .set_timeout(Some(Duration::from_secs(120)))
        .expect("timeout");
    let mut admitted = 0usize;
    for i in 0..jobs {
        // Pipelined submits: collect the Accepted ack and leave the jobs
        // running so the kill lands mid-work. A Finished push for an
        // earlier job may interleave on the wire — skip those.
        client
            .send(&dpml_serve::Request::Submit {
                // Salts unique across rounds: a repeated digest would be
                // served from the journal-warmed cache without a new
                // Admit record, which is not what this phase measures.
                spec: heavy_spec(round * 1000 + i as u64),
            })
            .expect("submit");
        loop {
            match client.read_response().expect("ack").expect("ack eof") {
                dpml_serve::Response::Accepted { cached, .. } => {
                    assert!(!cached, "kill-round specs must be cache-cold");
                    admitted += 1;
                    break;
                }
                dpml_serve::Response::Finished { .. } => continue,
                other => panic!("kill round submit: {other:?}"),
            }
        }
    }
    // Let the workers get their teeth in, then kill without ceremony.
    std::thread::sleep(Duration::from_millis(100));
    child.kill().expect("kill daemon");
    child.wait().expect("reap daemon");
    drop(client);

    // Restart on the same journal; replay must re-queue the survivors.
    let (mut child, addr) = spawn_daemon(journal, addr_file, &[]);
    let mut client = Client::connect(addr).expect("reconnect after restart");
    client
        .set_timeout(Some(Duration::from_secs(300)))
        .expect("timeout");
    let replayed = client
        .stats()
        .expect("stats after restart")
        .counter(Metric::Replayed)
        .unwrap_or(0);
    client.shutdown().expect("drain after restart");
    let status = child.wait().expect("reap restarted daemon");
    assert!(
        status.success(),
        "restarted daemon must drain to exit 0, got {status:?}"
    );
    (admitted, replayed)
}

/// Durability round: a budgeted, checkpointing subprocess daemon is
/// SIGKILLed the instant its first sweep checkpoint lands on disk, then
/// restarted on the same journal + checkpoint store. The restart must
/// *resume* from the persisted progress (not cold-start), keep the
/// journal under its byte budget via compaction, and balance the
/// exactly-once ledger across `Record::Compact` markers: surviving
/// finishes + dropped-by-compaction = every job ever admitted.
fn durability_round(quick: bool) -> DurabilityReport {
    let journal = temp_path("durable.journal");
    let ckpt_dir = temp_path("durable.ckpt");
    std::fs::remove_dir_all(&ckpt_dir).ok();
    let addr_file = temp_path("durable.addr");
    let budget: u64 = 4096;
    let jobs = if quick { 3 } else { 5 };
    let budget_s = budget.to_string();
    let flags = [
        "--journal-max-bytes",
        budget_s.as_str(),
        "--checkpoint-interval",
        "1",
        "--checkpoint-dir",
        ckpt_dir.to_str().expect("utf8 path"),
    ];

    let (mut child, addr) = spawn_daemon(&journal, &addr_file, &flags);
    let mut client = Client::connect(addr).expect("connect durable daemon");
    client
        .set_timeout(Some(Duration::from_secs(120)))
        .expect("timeout");
    for i in 0..jobs {
        client
            .send(&dpml_serve::Request::Submit {
                spec: durable_spec(i as u64),
            })
            .expect("durable submit");
        loop {
            match client.read_response().expect("ack").expect("ack eof") {
                dpml_serve::Response::Accepted { cached, .. } => {
                    assert!(!cached, "durability specs must be cache-cold");
                    break;
                }
                dpml_serve::Response::Finished { .. } => continue,
                other => panic!("durability submit: {other:?}"),
            }
        }
    }
    // Kill the moment the first checkpoint file appears: the job that
    // wrote it is 8 scenarios into 48, so the restart has real progress
    // to restore and real work left to do.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let have_ckpt = std::fs::read_dir(&ckpt_dir)
            .map(|d| d.filter_map(|e| e.ok()).next().is_some())
            .unwrap_or(false);
        if have_ckpt {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "durable daemon never wrote a checkpoint"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    child.kill().expect("kill durable daemon");
    child.wait().expect("reap durable daemon");
    drop(client);

    // Restart with the same budget + store. Poll the journal from the
    // outside (compaction renames are atomic; torn tails are tolerated
    // by the reader) until every admitted job is accounted for — either
    // a surviving Finish or the Compact marker's dropped count.
    let (mut child, addr) = spawn_daemon(&journal, &addr_file, &flags);
    let mut client = Client::connect(addr).expect("reconnect durable daemon");
    client
        .set_timeout(Some(Duration::from_secs(300)))
        .expect("timeout");
    let deadline = Instant::now() + Duration::from_secs(300);
    let (stats, dropped) = loop {
        let replay = replay_file(&journal).expect("journal readable");
        let finished: std::collections::HashSet<u64> = replay
            .records
            .iter()
            .filter_map(|r| match r {
                Record::Finish { id, .. } => Some(*id),
                _ => None,
            })
            .collect();
        let dropped = replay.dropped_jobs();
        let drained = replay.pending().is_empty() && finished.len() as u64 + dropped == jobs as u64;
        if drained {
            let stats = client.stats().expect("durable stats");
            if stats.counter(Metric::JournalCompactions).unwrap_or(0) >= 1 {
                break (stats, dropped);
            }
        }
        assert!(
            Instant::now() < deadline,
            "durable restart never drained + compacted"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    let resumes = stats.counter(Metric::Resumes).unwrap_or(0);
    let scenarios_resumed = stats.counter(Metric::ScenariosResumed).unwrap_or(0);
    let checkpoints_written = stats.counter(Metric::CheckpointsWritten).unwrap_or(0);
    let compactions = stats.counter(Metric::JournalCompactions).unwrap_or(0);
    assert!(
        resumes >= 1,
        "restart must resume from the persisted checkpoint, not cold-start"
    );
    assert!(
        scenarios_resumed >= 1,
        "a resume must restore at least one scenario of progress"
    );
    assert!(
        checkpoints_written >= 1,
        "the restarted daemon must keep checkpointing"
    );
    client.shutdown().expect("durable drain");
    let status = child.wait().expect("reap restarted durable daemon");
    assert!(
        status.success(),
        "restarted durable daemon must drain to exit 0, got {status:?}"
    );

    let final_bytes = std::fs::metadata(&journal).expect("journal metadata").len();
    assert!(
        final_bytes <= budget,
        "drained journal is {final_bytes} bytes, budget {budget}"
    );
    // Finished jobs' checkpoints are garbage-collected on conclude.
    let leftover = std::fs::read_dir(&ckpt_dir)
        .map(|d| d.filter_map(|e| e.ok()).count())
        .unwrap_or(0);
    assert_eq!(leftover, 0, "checkpoint files must be removed on finish");

    std::fs::remove_file(&journal).ok();
    std::fs::remove_dir_all(&ckpt_dir).ok();
    std::fs::remove_file(&addr_file).ok();
    DurabilityReport {
        journal_budget: budget,
        jobs,
        resumes,
        scenarios_resumed,
        checkpoints_written,
        compactions,
        dropped_by_compaction: dropped,
        final_journal_bytes: final_bytes,
    }
}

fn main() {
    if arg_flag("--daemon") {
        daemon_main();
    }
    let quick = arg_flag("--quick");
    let chaos = arg_flag("--chaos");
    let clients: usize = arg_num("--clients", if quick { 2 } else { 4 });
    let requests: usize = arg_num("--requests", if quick { 24 } else { 80 });

    // ---- Phase 1: throughput against an in-process daemon ----
    let journal = temp_path("throughput.journal");
    let handle = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        queue_capacity: 32,
        journal_path: journal.clone(),
        ..ServeConfig::default()
    })
    .expect("daemon start");
    let addr = handle.addr;
    println!("serve_bench: throughput phase — {clients} clients x {requests} requests at {addr}");
    let (mut throughput, _) = throughput_phase(addr, clients, requests);

    let mut ctl = Client::connect(addr).expect("control connection");
    ctl.set_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let stats = ctl.stats().expect("stats");
    throughput.server_job_ms_p99 = stats.histogram(Metric::JobMs).map_or(0, |h| h.p99);
    ctl.shutdown().expect("drain");
    assert_eq!(handle.wait(), 0, "throughput daemon must drain to exit 0");
    let mut audit = audit_journal(&journal);
    println!(
        "  {:.0} req/s, p50 {:.2} ms, p99 {:.2} ms, cache hit rate {:.1}%, shed {}",
        throughput.req_per_s,
        throughput.p50_ms,
        throughput.p99_ms,
        100.0 * throughput.cache_hit_rate,
        throughput.shed_then_retried
    );
    std::fs::remove_file(&journal).ok();

    // ---- Phase 2: chaos ----
    let chaos_report = if chaos {
        let journal = temp_path("chaos.journal");
        let postmortem_dir = std::env::temp_dir().join(format!(
            "dpml-serve-bench-{}-postmortem",
            std::process::id()
        ));
        std::fs::remove_dir_all(&postmortem_dir).ok();
        let max_postmortems = 8usize;
        let handle = start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_capacity: 32,
            retry_base_ms: 1.0,
            journal_path: journal.clone(),
            postmortem_dir: Some(postmortem_dir.clone()),
            max_postmortems,
            ..ServeConfig::default()
        })
        .expect("chaos daemon start");
        let addr = handle.addr;
        let panic_jobs: u64 = if quick { 4 } else { 12 };
        println!("serve_bench: chaos phase — panics, orphans, daemon kills");

        // (a) Worker panics: every job panics twice before succeeding.
        let mut client = Client::connect(addr).expect("connect");
        client
            .set_timeout(Some(Duration::from_secs(120)))
            .expect("timeout");
        let mut injected = 0u64;
        for i in 0..panic_jobs {
            let spec = JobSpec {
                panic_attempts: 2,
                ..cold_spec(0x9000 + i)
            };
            injected += 2;
            let (sub, _) = submit_patiently(&mut client, &spec).expect("panic job");
            match sub {
                Submission::Finished { outcome, .. } => {
                    assert!(outcome.is_done(), "panic job must retry to success")
                }
                Submission::Rejected { reason, .. } => panic!("panic job shed: {reason}"),
            }
        }

        // (b) Orphaned clients: submit a slow job and hang up.
        let orphans = if quick { 2 } else { 4 };
        for i in 0..orphans {
            let mut orphan = Client::connect(addr).expect("orphan connect");
            match orphan
                .submit(&slow_spec(0x700 + i as u64))
                .expect("orphan submit")
            {
                dpml_serve::Response::Accepted { .. } => {}
                other => panic!("orphan submit: {other:?}"),
            }
            drop(orphan); // vanish mid-job
        }

        let stats = client.stats().expect("chaos stats");
        let worker_panics = stats.counter(Metric::WorkerPanic).unwrap_or(0);
        let retries = stats.counter(Metric::Retried).unwrap_or(0);
        client.shutdown().expect("chaos drain");
        let state = handle.state().clone();
        assert_eq!(handle.wait(), 0, "chaos daemon must drain to exit 0");
        let chaos_audit = audit_journal(&journal);
        // Read push failures after the drain: the orphans' Finished
        // pushes only fail once their jobs complete.
        let push_failures = state.stats().counter(Metric::PushFail).unwrap_or(0);
        audit.jobs_admitted += chaos_audit.jobs_admitted;
        audit.jobs_lost += chaos_audit.jobs_lost;
        audit.jobs_duplicated += chaos_audit.jobs_duplicated;

        // Every worker panic dumps a post-mortem bundle, up to the cap;
        // each bundle must parse as the current schema with the panic's
        // job context attached.
        let bundles: Vec<PathBuf> = std::fs::read_dir(&postmortem_dir)
            .expect("panicking workers must create the post-mortem dir")
            .map(|e| e.expect("read bundle entry").path())
            .collect();
        let expected = (worker_panics as usize).min(max_postmortems);
        assert_eq!(
            bundles.len(),
            expected,
            "expected {expected} post-mortem bundles (panics {worker_panics}, cap {max_postmortems})"
        );
        for path in &bundles {
            let bundle = PostmortemBundle::load(path)
                .unwrap_or_else(|e| panic!("unreadable bundle {}: {e}", path.display()));
            assert_eq!(bundle.reason, "worker_panic", "{}", path.display());
            assert!(bundle.job.is_some(), "bundle lacks job context");
            assert!(bundle.metrics.is_some(), "bundle lacks metrics snapshot");
        }
        let postmortem_bundles = bundles.len();
        std::fs::remove_dir_all(&postmortem_dir).ok();
        std::fs::remove_file(&journal).ok();

        // (c) Kill-and-restart mid-journal, in a separate process.
        let kill_journal = temp_path("kill.journal");
        let addr_file = temp_path("kill.addr");
        let rounds = if quick { 1 } else { 2 };
        let mut kills = 0usize;
        let mut killed_admitted = 0usize;
        let mut replayed = 0u64;
        for round in 0..rounds {
            let (adm, rep) =
                kill_restart_round(&kill_journal, &addr_file, if quick { 3 } else { 5 }, round);
            kills += 1;
            killed_admitted += adm;
            replayed += rep;
        }
        let kill_audit = audit_journal(&kill_journal);
        assert_eq!(
            kill_audit.jobs_admitted, killed_admitted,
            "every acked submit must survive the kill in the journal"
        );
        audit.jobs_admitted += kill_audit.jobs_admitted;
        audit.jobs_lost += kill_audit.jobs_lost;
        audit.jobs_duplicated += kill_audit.jobs_duplicated;
        std::fs::remove_file(&kill_journal).ok();
        std::fs::remove_file(&addr_file).ok();

        Some(ChaosReport {
            panics_injected: injected,
            worker_panics,
            retries,
            orphaned_clients: orphans,
            push_failures,
            daemon_kills: kills,
            killed_jobs_admitted: killed_admitted,
            replayed_after_kill: replayed,
            postmortem_bundles,
        })
    } else {
        None
    };

    // ---- Phase 3: durability (budgeted journal + checkpoint resume) ----
    let durability = if chaos {
        println!("serve_bench: durability phase — checkpoint resume + journal compaction");
        let d = durability_round(quick);
        println!(
            "  durability: {} jobs, {} resumed ({} scenarios restored), {} checkpoints, \
             {} compactions, journal {}B <= {}B",
            d.jobs,
            d.resumes,
            d.scenarios_resumed,
            d.checkpoints_written,
            d.compactions,
            d.final_journal_bytes,
            d.journal_budget
        );
        Some(d)
    } else {
        None
    };

    let report = ServeBenchReport {
        quick,
        throughput,
        chaos: chaos_report,
        durability,
        audit,
    };
    let ok = report.audit.jobs_lost == 0 && report.audit.jobs_duplicated == 0;
    println!(
        "  audit: {} jobs admitted, {} lost, {} duplicated",
        report.audit.jobs_admitted, report.audit.jobs_lost, report.audit.jobs_duplicated
    );
    if let Some(c) = &report.chaos {
        println!(
            "  chaos: {} panics ({} retries), {} orphans, {} daemon kills, {} jobs replayed, \
             {} post-mortem bundle(s)",
            c.worker_panics,
            c.retries,
            c.orphaned_clients,
            c.daemon_kills,
            c.replayed_after_kill,
            c.postmortem_bundles
        );
    }
    let path = save_results("serve", &report).expect("write results/serve.json");
    println!("  report written to {}", path.display());
    if !ok {
        eprintln!("serve_bench: LOST OR DUPLICATED JOBS — failing");
        std::process::exit(1);
    }
}
