//! The `serve` workload: the real `dpml serve` daemon under an open-loop
//! and a closed-loop request stream, spoken as raw JSON frames.
//!
//! One connection carries every request; one thread sends and one
//! receives. Three phases run in order: `low` and `high` send on a fixed
//! schedule (open loop) and time each request from when it was due, so a
//! stalled reply also charges the requests queued behind it; `max` keeps
//! the per-client cap of jobs in flight (closed loop) and measures
//! completions per second. The daemon then drains, its journal is
//! audited, and it is restarted on that journal three times to time
//! replay. A run is several such daemon lifetimes on the same request
//! stream, and reports the median over them.

use crate::report::{LayerReport, Metric, Outcome};
use crate::sim::{self, Chain};
use crate::stats::{self, Fnv, Quantile, Rng};
use crate::trace::{Span, Trace};
use dpml_core::Algorithm;
use dpml_fabric::Preset;
use dpml_serve::journal::{replay_file, Record};
use dpml_serve::protocol::{read_frame, write_frame};
use dpml_serve::{JobOutcome, Journal, Request, Response, ResultCache};
use serde_json::Value;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{BufRead, BufReader};
use std::net::{Shutdown, TcpStream};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Jobs one connection may have in flight: the daemon's default
/// per-client cap. The sender holds a request back rather than have it
/// rejected; its latency still counts from when it was due.
const INFLIGHT_CAP: usize = 16;
/// Daemon lifetimes per run, each on an equal share of the time budget
/// and the same request stream; the end-to-end metrics are medians over
/// them, so one slow daemon instance does not move the result.
const SESSIONS: usize = 3;
/// Open-loop phases: rate in requests per second and share of a
/// session's budget. The daemon completes about 2,000 req/s on two cores
/// with this generator beside it. `low` loads it to a quarter of that, so
/// its latency is service time rather than queueing and it carries the
/// end-to-end median; `high` loads it to half, below the knee where p99
/// climbs.
const LOW: (f64, f64) = (500.0, 0.45);
const HIGH: (f64, f64) = (1000.0, 0.2);
/// Closed-loop requests per second of a session's budget: about the
/// remaining third of it at that capacity.
const MAX_REQUESTS_PER_S: f64 = 800.0;
/// Restarts on each lifetime's journal; `setup_s` is the median over all
/// of them.
const RESTARTS: usize = 3;
/// How long a request may wait for its reply before it counts as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);
const EXIT_TIMEOUT: Duration = Duration::from_secs(60);

/// Algorithms of the request stream, all on cluster B.
const ALGS: [&str; 5] = ["rd", "rab", "dpml:4", "ring", "single-leader"];
/// Nodes × processes per node of every job.
const SHAPE: (u32, u32) = (4, 4);
const HOT_POOL: usize = 32;
/// Requests the traced run re-executes in-process to time each layer.
const PROBE_SIMULATES: usize = 400;
const PROBE_SWEEPS: usize = 16;

/// How the workload is run.
pub struct Opts {
    /// The `dpml` binary to serve with.
    pub dpml: PathBuf,
    pub seed: u64,
    pub seconds: u64,
    /// Where the traced run writes its spans; `None` runs untraced.
    pub trace_path: Option<PathBuf>,
    /// Where each daemon lifetime keeps its journal; removed afterwards.
    pub work_dir: PathBuf,
}

/// Run the sessions, check every reply and journal, and report.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let seconds = opts.seconds as f64 / SESSIONS as f64;
    let sessions = (0..SESSIONS)
        .map(|i| session(opts, seconds, i))
        .collect::<Result<Vec<_>, _>>()?;
    let mut out = Outcome::new(sessions[0].digest());
    for s in &sessions {
        s.check(&mut out);
    }
    if sessions.iter().any(|s| s.digest() != out.digest) {
        out.fail("sessions on the same request stream returned different results");
    }
    out.end_to_end = end_to_end(&sessions);
    out.details = details(&sessions);
    if let Some(path) = &opts.trace_path {
        // The client records the same timestamps traced or not; tracing
        // costs the time to assemble and write the spans afterwards.
        let start = Instant::now();
        let mut trace = sessions[0].spans();
        let assembled = start.elapsed();
        let probes = Probes::run(opts, &sessions[0], &mut trace)?;
        let start = Instant::now();
        trace
            .write_jsonl(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let tracing = (assembled + start.elapsed()).as_secs_f64();
        out.per_layer = layers(&sessions, &probes, tracing).metrics();
        out.details.extend(probes.details());
    }
    Ok(out)
}

/// Which part of the mix a request comes from.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Class {
    /// A `Simulate` job no earlier request asked for.
    Cold,
    /// One of the hot pool's `Simulate` jobs; cached after first touch.
    Hot(usize),
    /// A two-algorithm by four-size `Sweep`: one checkpoint chunk.
    Sweep,
}

/// One request of the stream.
#[derive(Debug, Clone)]
struct Req {
    class: Class,
    /// `(algorithm, bytes)` in the daemon's grid order.
    scenarios: Vec<(&'static str, u64)>,
    /// The `Submit` frame.
    json: String,
}

impl Req {
    fn new(class: Class, algs: &[&'static str], sizes: &[u64]) -> Req {
        let kind = if class == Class::Sweep {
            "Sweep"
        } else {
            "Simulate"
        };
        let quoted: Vec<String> = algs.iter().map(|a| format!("\"{a}\"")).collect();
        let sizes_text: Vec<String> = sizes.iter().map(u64::to_string).collect();
        let json = format!(
            "{{\"Submit\":{{\"spec\":{{\"kind\":\"{kind}\",\"preset\":\"b\",\"nodes\":{},\"ppn\":{},\
             \"algorithms\":[{}],\"sizes\":[{}]}}}}}}",
            SHAPE.0,
            SHAPE.1,
            quoted.join(","),
            sizes_text.join(",")
        );
        let scenarios = algs
            .iter()
            .flat_map(|&a| sizes.iter().map(move |&s| (a, s)))
            .collect();
        Req {
            class,
            scenarios,
            json,
        }
    }
}

/// The seeded request stream: 75% cold `Simulate` (a distinct size in
/// 1–64 KiB), 20% from a hot pool of 32 (4–128 KiB), 5% `Sweep`.
struct Generator {
    rng: Rng,
    hot: Vec<Req>,
    seen: HashSet<(&'static str, u64)>,
    sweeps: HashSet<String>,
}

impl Generator {
    fn new(seed: u64) -> Generator {
        let mut g = Generator {
            rng: Rng::new(seed, 0x5e7e),
            hot: Vec::new(),
            seen: HashSet::new(),
            sweeps: HashSet::new(),
        };
        while g.hot.len() < HOT_POOL {
            let alg = ALGS[g.rng.below(ALGS.len())];
            let bytes = g.rng.range(4 << 10, 128 << 10);
            if g.seen.insert((alg, bytes)) {
                g.hot
                    .push(Req::new(Class::Hot(g.hot.len()), &[alg], &[bytes]));
            }
        }
        g
    }

    fn next(&mut self) -> Req {
        match self.rng.below(100) {
            0..=74 => loop {
                let alg = ALGS[self.rng.below(ALGS.len())];
                let bytes = self.rng.range(1 << 10, 64 << 10);
                if self.seen.insert((alg, bytes)) {
                    return Req::new(Class::Cold, &[alg], &[bytes]);
                }
            },
            75..=94 => self.hot[self.rng.below(HOT_POOL)].clone(),
            _ => loop {
                let first = self.rng.below(ALGS.len());
                let second = (first + 1 + self.rng.below(ALGS.len() - 1)) % ALGS.len();
                let mut sizes = [0u64; 4];
                for s in &mut sizes {
                    *s = self.rng.range(1 << 10, 64 << 10);
                }
                sizes.sort_unstable();
                let req = Req::new(Class::Sweep, &[ALGS[first], ALGS[second]], &sizes);
                if self.sweeps.insert(req.json.clone()) {
                    return req;
                }
            },
        }
    }
}

/// A `dpml serve` child process. Dropping it kills and reaps the
/// process if it is still running.
struct Daemon {
    child: Child,
    /// Keeps reading the daemon's standard output so it never blocks.
    drain: Option<JoinHandle<()>>,
    addr: String,
    workers: usize,
    /// From spawn to the "listening" line: process start plus replay.
    ready_s: f64,
}

impl Daemon {
    fn spawn(dpml: &Path, journal: &Path) -> Result<Daemon, String> {
        let start = Instant::now();
        let mut child = Command::new(dpml)
            .args(["serve", "--addr", "127.0.0.1:0", "--journal"])
            .arg(journal)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", dpml.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut daemon = Daemon {
            child,
            drain: None,
            addr: String::new(),
            workers: 0,
            ready_s: 0.0,
        };
        let mut line = String::new();
        let listening = loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) => return Err("dpml serve exited before listening".into()),
                Ok(_) => {}
                Err(e) => return Err(format!("dpml serve output: {e}")),
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                break rest.to_string();
            }
        };
        daemon.ready_s = start.elapsed().as_secs_f64();
        // "<addr> (<workers> workers, queue <n>, journal <path>)"
        let mut words = listening.split_whitespace();
        daemon.addr = words.next().unwrap_or_default().to_string();
        daemon.workers = words
            .next()
            .and_then(|w| w.trim_start_matches('(').parse().ok())
            .ok_or_else(|| format!("unexpected listening line: {listening}"))?;
        daemon.drain = Some(std::thread::spawn(move || {
            let _ = std::io::copy(&mut stdout, &mut std::io::sink());
        }));
        Ok(daemon)
    }

    fn peak_rss_mb(&self) -> Result<f64, String> {
        stats::peak_rss_mb(Some(self.child.id())).map_err(|e| format!("daemon memory: {e}"))
    }

    /// Wait for the daemon to exit on its own; it must exit 0.
    fn wait(mut self) -> Result<(), String> {
        let deadline = Instant::now() + EXIT_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("dpml serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(None) => return Err("dpml serve did not exit after draining".into()),
                Err(e) => return Err(format!("waiting for dpml serve: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// One request's life as the client saw it.
#[derive(Debug, Clone)]
struct Slot {
    /// When the schedule said to send it.
    due: Instant,
    sent: Instant,
    acked: Option<Instant>,
    finished: Option<Instant>,
    cached: bool,
    /// Rejection or non-`Done` outcome.
    failure: Option<String>,
    /// The `Done` payload.
    done: Option<Value>,
}

impl Slot {
    /// Due to `Finished`, in ms; +∞ for a rejection, a non-`Done`
    /// outcome or a missing reply.
    fn latency_ms(&self) -> f64 {
        match (self.finished, &self.done) {
            (Some(t), Some(_)) => ms(t - self.due),
            _ => f64::INFINITY,
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Client state shared by the sender and the receiver thread.
#[derive(Debug, Default)]
struct State {
    slots: Vec<Slot>,
    /// Submits whose `Accepted`/`Rejected` has not arrived; the daemon
    /// answers submits on a connection in order.
    awaiting_ack: VecDeque<usize>,
    by_id: HashMap<u64, usize>,
    inflight: usize,
    /// Replies to control requests (`Stats`, `Shutdown`).
    replies: VecDeque<Value>,
    /// Frames that did not parse or matched no request.
    protocol_errors: usize,
    closed: bool,
}

impl State {
    fn on_reply(&mut self, now: Instant, reply: Option<Value>) {
        let Some(reply) = reply else {
            self.protocol_errors += 1;
            return;
        };
        let tag = reply
            .as_object()
            .and_then(|m| m.first())
            .map(|(k, _)| k.to_string());
        match tag.as_deref() {
            Some("Accepted") => {
                let body = &reply["Accepted"];
                match (self.awaiting_ack.pop_front(), body["id"].as_u64()) {
                    (Some(i), Some(id)) => {
                        self.slots[i].acked = Some(now);
                        self.slots[i].cached = body["cached"].as_bool() == Some(true);
                        self.by_id.insert(id, i);
                    }
                    _ => self.protocol_errors += 1,
                }
            }
            Some("Rejected") => match self.awaiting_ack.pop_front() {
                Some(i) => {
                    self.slots[i].failure = Some(format!("rejected: {}", reply["Rejected"]));
                    self.inflight -= 1;
                }
                None => self.protocol_errors += 1,
            },
            Some("Finished") => {
                let body = &reply["Finished"];
                match body["id"].as_u64().and_then(|id| self.by_id.remove(&id)) {
                    Some(i) => {
                        let slot = &mut self.slots[i];
                        slot.finished = Some(now);
                        match body["outcome"].get("Done") {
                            Some(done) => slot.done = Some(done.clone()),
                            None => slot.failure = Some(format!("outcome {}", body["outcome"])),
                        }
                        self.inflight -= 1;
                    }
                    None => self.protocol_errors += 1,
                }
            }
            _ => self.replies.push_back(reply),
        }
    }
}

#[derive(Debug, Default)]
struct Shared {
    state: Mutex<State>,
    changed: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("client state lock: a client thread panicked")
    }

    /// Wait until `done` holds or the connection closes; false on timeout.
    fn wait_for(&self, timeout: Duration, done: impl Fn(&State) -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        let mut st = self.lock();
        while !done(&st) && !st.closed {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            st = self
                .changed
                .wait_timeout(st, left)
                .expect("client state lock: a client thread panicked")
                .0;
        }
        done(&st)
    }
}

/// The client's connection: the calling thread sends, a second thread
/// receives.
struct Client {
    stream: TcpStream,
    shared: Arc<Shared>,
    receiver: Option<JoinHandle<()>>,
    cap: usize,
}

impl Client {
    fn connect(addr: &str, cap: usize) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let mut reader = stream.try_clone().map_err(|e| e.to_string())?;
        let shared = Arc::new(Shared::default());
        let rx = Arc::clone(&shared);
        let receiver = std::thread::spawn(move || {
            while let Ok(Some(frame)) = read_frame(&mut reader) {
                let now = Instant::now();
                let reply = std::str::from_utf8(&frame)
                    .ok()
                    .and_then(|text| serde_json::from_str::<Value>(text).ok());
                rx.lock().on_reply(now, reply);
                rx.changed.notify_all();
            }
            rx.lock().closed = true;
            rx.changed.notify_all();
        });
        Ok(Client {
            stream,
            shared,
            receiver: Some(receiver),
            cap,
        })
    }

    /// Send a `Submit` once fewer than `cap` jobs are in flight. `due` is
    /// when the schedule wanted it sent; `None` means now (closed loop).
    fn submit(&mut self, due: Option<Instant>, json: &str) -> Result<(), String> {
        let cap = self.cap;
        if !self.shared.wait_for(REPLY_TIMEOUT, |st| st.inflight < cap) {
            return Err("no reply from dpml serve within the timeout".into());
        }
        {
            let mut st = self.shared.lock();
            let sent = Instant::now();
            let i = st.slots.len();
            st.slots.push(Slot {
                due: due.unwrap_or(sent),
                sent,
                acked: None,
                finished: None,
                cached: false,
                failure: None,
                done: None,
            });
            st.awaiting_ack.push_back(i);
            st.inflight += 1;
        }
        write_frame(&mut self.stream, json.as_bytes()).map_err(|e| format!("send: {e}"))
    }

    /// Wait until every submitted job has its final reply.
    fn wait_idle(&self) -> bool {
        self.shared.wait_for(REPLY_TIMEOUT, |st| st.inflight == 0)
    }

    /// Send a control request and wait for its reply.
    fn request(&mut self, json: &str) -> Result<Value, String> {
        write_frame(&mut self.stream, json.as_bytes()).map_err(|e| format!("send: {e}"))?;
        if !self
            .shared
            .wait_for(REPLY_TIMEOUT, |st| !st.replies.is_empty())
        {
            return Err(format!("no reply to {json}"));
        }
        Ok(self
            .shared
            .lock()
            .replies
            .pop_front()
            .expect("waited for a reply"))
    }

    /// Close the connection and hand back what the client saw.
    fn finish(mut self) -> State {
        self.close();
        std::mem::take(&mut *self.shared.lock())
    }

    fn close(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(receiver) = self.receiver.take() {
            let _ = receiver.join();
        }
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        self.close();
    }
}

/// Send `n` requests on a fixed schedule at `rate` per second.
fn open_loop(
    conn: &mut Client,
    rate: f64,
    n: usize,
    mut next: impl FnMut() -> String,
) -> Result<(), String> {
    let start = Instant::now();
    for i in 0..n {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        conn.submit(Some(due), &next())?;
    }
    Ok(())
}

/// What the journal says happened.
#[derive(Debug, Default)]
struct Audit {
    admitted: usize,
    lost: usize,
    duplicated: usize,
    replay_s: f64,
    bytes: u64,
}

fn audit(journal: &Path) -> Result<Audit, String> {
    let start = Instant::now();
    let replay = replay_file(journal).map_err(|e| format!("journal replay: {e}"))?;
    let replay_s = start.elapsed().as_secs_f64();
    let (mut admits, mut finishes) = (HashMap::new(), HashMap::new());
    for record in &replay.records {
        match record {
            Record::Admit { id, .. } => *admits.entry(*id).or_insert(0usize) += 1,
            Record::Finish { id, .. } => *finishes.entry(*id).or_insert(0usize) += 1,
            _ => {}
        }
    }
    Ok(Audit {
        admitted: admits.len(),
        lost: admits
            .keys()
            .filter(|id| !finishes.contains_key(id))
            .count(),
        duplicated: admits
            .values()
            .chain(finishes.values())
            .filter(|&&n| n > 1)
            .count(),
        replay_s,
        bytes: std::fs::metadata(journal).map_err(|e| e.to_string())?.len(),
    })
}

/// Restart the daemon on `journal`, time its replay, and drain it.
fn restart(dpml: &Path, journal: &Path) -> Result<f64, String> {
    let daemon = Daemon::spawn(dpml, journal)?;
    let mut conn =
        TcpStream::connect(&daemon.addr).map_err(|e| format!("connect {}: {e}", daemon.addr))?;
    write_frame(&mut conn, b"\"Shutdown\"").map_err(|e| e.to_string())?;
    let ack = read_frame(&mut conn).map_err(|e| e.to_string())?;
    if !ack.is_some_and(|a| a.starts_with(b"{\"ShutdownAck\"")) {
        return Err("restarted daemon did not acknowledge Shutdown".into());
    }
    let ready = daemon.ready_s;
    daemon.wait()?;
    Ok(ready)
}

/// Everything one daemon lifetime produced.
struct SessionData {
    reqs: Vec<Req>,
    client: State,
    /// Slot ranges of `low`, `high` and `max`.
    phases: [Range<usize>; 3],
    /// Wall time of each phase, seconds.
    walls: [f64; 3],
    stats: Value,
    rss_mb: f64,
    workers: usize,
    audit: Audit,
    /// Spawn to "listening", for each restart on the phases' journal.
    restart_s: Vec<f64>,
    /// Daemon misbehaviour found along the way.
    problems: Vec<String>,
}

const PHASES: [&str; 3] = ["low", "high", "max"];

/// Start a daemon on a fresh journal, run the three phases on `seconds`
/// of budget, drain it, audit the journal, and restart on it
/// [`RESTARTS`] times.
fn session(opts: &Opts, seconds: f64, index: usize) -> Result<SessionData, String> {
    let dir = opts
        .work_dir
        .join(format!("serve-{}-{index}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let journal = dir.join("serve.journal");
    let daemon = Daemon::spawn(&opts.dpml, &journal)?;
    let mut conn = Client::connect(&daemon.addr, INFLIGHT_CAP)?;
    let mut gen = Generator::new(opts.seed);
    let mut reqs = Vec::new();
    let mut next = || {
        let req = gen.next();
        let json = req.json.clone();
        reqs.push(req);
        json
    };
    let mut problems = Vec::new();
    let mut phases: [Range<usize>; 3] = Default::default();
    let mut walls = [0.0; 3];
    for (i, phase) in PHASES.iter().enumerate() {
        let first = conn.shared.lock().slots.len();
        let start = Instant::now();
        match i {
            0 | 1 => {
                let (rate, share) = if i == 0 { LOW } else { HIGH };
                let n = (rate * share * seconds).round().max(1.0) as usize;
                open_loop(&mut conn, rate, n, &mut next)?;
            }
            _ => {
                let n = (MAX_REQUESTS_PER_S * seconds).round().max(1.0) as usize;
                for _ in 0..n {
                    conn.submit(None, &next())?;
                }
            }
        }
        if !conn.wait_idle() {
            problems.push(format!("{phase}: replies missing after {REPLY_TIMEOUT:?}"));
        }
        walls[i] = start.elapsed().as_secs_f64();
        phases[i] = first..conn.shared.lock().slots.len();
    }
    let stats = conn.request("\"Stats\"")?;
    let rss_mb = daemon.peak_rss_mb()?;
    let workers = daemon.workers;
    conn.request("\"Shutdown\"")?;
    if let Err(e) = daemon.wait() {
        problems.push(e);
    }
    let client = conn.finish();
    let audit = audit(&journal)?;
    let restart_s = (0..RESTARTS)
        .map(|_| restart(&opts.dpml, &journal))
        .collect::<Result<_, _>>()?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(SessionData {
        reqs,
        client,
        phases,
        walls,
        stats: stats["StatsReply"]["stats"].clone(),
        rss_mb,
        workers,
        audit,
        restart_s,
        problems,
    })
}

impl SessionData {
    fn slots(&self, phase: usize) -> &[Slot] {
        &self.client.slots[self.phases[phase].clone()]
    }

    fn latencies(&self, phase: usize) -> Vec<f64> {
        self.slots(phase).iter().map(Slot::latency_ms).collect()
    }

    /// Median and tail latency of phase `phase`.
    fn quantiles(&self, phase: usize) -> (Quantile, Quantile) {
        stats::median_and_tail(&self.latencies(phase))
    }

    /// Completions per second of the closed-loop phase.
    fn max_rate(&self) -> f64 {
        self.slots(2).len() as f64 / self.walls[2]
    }

    fn counter(&self, name: &str) -> u64 {
        self.stats["counters"]
            .as_array()
            .and_then(|cs| cs.iter().find(|c| c["name"].as_str() == Some(name)))
            .and_then(|c| c["value"].as_u64())
            .unwrap_or(0)
    }

    fn histogram(&self, name: &str, field: &str) -> f64 {
        self.stats["histograms"]
            .as_array()
            .and_then(|hs| hs.iter().find(|h| h["name"].as_str() == Some(name)))
            .and_then(|h| h[field].as_f64())
            .unwrap_or(0.0)
    }

    /// FNV over every reply's simulated latencies, in request order.
    fn digest(&self) -> u64 {
        let mut fnv = Fnv::default();
        for slot in &self.client.slots {
            match slot.done.as_ref().and_then(|d| d["scenarios"].as_array()) {
                Some(cells) => cells.iter().for_each(|c| {
                    fnv.write_u64(c["latency_us"].as_f64().unwrap_or(-1.0).to_bits())
                }),
                None => fnv.write_u64(u64::MAX),
            }
        }
        fnv.finish()
    }

    fn check(&self, out: &mut Outcome) {
        let slots = &self.client.slots;
        out.attempted += slots.len() as u64;
        let mut hot_first: HashMap<usize, String> = HashMap::new();
        let mut hot_mismatches = 0;
        for (req, slot) in self.reqs.iter().zip(slots) {
            let cells = slot.done.as_ref().and_then(|d| d["scenarios"].as_array());
            let ok = slot
                .done
                .as_ref()
                .is_some_and(|d| d["failed"].as_u64() == Some(0))
                && cells.is_some_and(|c| {
                    c.len() == req.scenarios.len() && c.iter().all(|s| s.get("error").is_none())
                });
            if !ok {
                out.failed += 1;
                if out.failed <= 5 {
                    let why = slot
                        .failure
                        .as_deref()
                        .unwrap_or("no Done reply with every cell");
                    out.fail(format!("request {}: {why}", req.json));
                }
            }
            if let (Class::Hot(h), Some(done)) = (req.class, &slot.done) {
                let text = done.to_string();
                match hot_first.get(&h) {
                    Some(first) if *first != text => hot_mismatches += 1,
                    Some(_) => {}
                    None => {
                        hot_first.insert(h, text);
                    }
                }
            }
        }
        if hot_mismatches > 0 {
            out.fail(format!(
                "{hot_mismatches} hot replies differ from their first result"
            ));
        }
        if self.client.protocol_errors > 0 {
            out.fail(format!(
                "{} unmatched or malformed frames",
                self.client.protocol_errors
            ));
        }
        let fresh = slots
            .iter()
            .filter(|s| s.acked.is_some() && !s.cached)
            .count();
        let a = &self.audit;
        if a.lost > 0 || a.duplicated > 0 || a.admitted != fresh {
            out.fail(format!(
                "journal audit: {} admitted for {fresh} fresh jobs, {} lost, {} duplicated",
                a.admitted, a.lost, a.duplicated
            ));
        }
        for p in &self.problems {
            out.fail(p.clone());
        }
    }

    /// One root span per request with its client-side stages.
    fn spans(&self) -> Trace {
        let origin = self
            .client
            .slots
            .first()
            .map_or_else(Instant::now, |s| s.due);
        let mut trace = Trace::new(origin);
        for (i, s) in self.client.slots.iter().enumerate() {
            let (Some(acked), Some(finished)) = (s.acked, s.finished) else {
                continue;
            };
            let id = i as u64;
            trace.append(vec![
                Span::new("serve.request", id, None, s.due, finished),
                Span::new("gen.late", id, Some(0), s.due, s.sent),
                Span::new("serve.admit", id, Some(0), s.sent, acked),
                Span::new("serve.complete", id, Some(0), acked, finished),
            ]);
        }
        trace
    }
}

/// `f`'s samples of every session, pooled.
fn pooled(sessions: &[SessionData], f: impl Fn(&SessionData) -> Vec<f64>) -> Vec<f64> {
    sessions.iter().flat_map(f).collect()
}

/// The median over sessions of `f`.
fn median_of(sessions: &[SessionData], f: impl Fn(&SessionData) -> f64) -> f64 {
    stats::median(&sessions.iter().map(f).collect::<Vec<_>>())
}

fn end_to_end(sessions: &[SessionData]) -> Vec<Metric> {
    vec![
        Metric::new(
            "ops_per_s",
            median_of(sessions, SessionData::max_rate),
            "1/s",
        ),
        Metric::new(
            "p50_ms",
            median_of(sessions, |s| s.quantiles(0).0.value),
            "ms",
        ),
        Metric::new(
            "setup_s",
            stats::median(&pooled(sessions, |s| s.restart_s.clone())),
            "s",
        ),
        Metric::new("peak_rss_mb", median_of(sessions, |s| s.rss_mb), "MB"),
    ]
}

/// The client- and daemon-side breakdown of the request path, pooled
/// over sessions.
fn details(sessions: &[SessionData]) -> Vec<Metric> {
    let pooled = |f: &dyn Fn(&SessionData) -> Vec<f64>| pooled(sessions, f);
    let mut d = vec![Metric::new(
        "tail_ms",
        median_of(sessions, |s| s.quantiles(0).1.value),
        "ms",
    )];
    for (i, phase) in PHASES.iter().enumerate() {
        let (p50, tail) = stats::median_and_tail(&pooled(&|s| s.latencies(i)));
        d.push(Metric::new(format!("{phase}.p50_ms"), p50.value, "ms"));
        d.push(Metric::new(format!("{phase}.p99_ms"), tail.value, "ms"));
        d.push(Metric::new(
            format!("{phase}.samples"),
            p50.n as f64,
            "count",
        ));
        let late = pooled(&|s| s.slots(i).iter().map(|x| ms(x.sent - x.due)).collect());
        d.push(Metric::new(
            format!("gen.late_ms.max.{phase}"),
            late.iter().copied().fold(0.0, f64::max),
            "ms",
        ));
    }

    let admit = pooled(&|s| {
        s.slots(1)
            .iter()
            .filter_map(|x| x.acked.map(|a| ms(a - x.sent)))
            .collect()
    });
    let complete = pooled(&|s| {
        s.slots(1)
            .iter()
            .filter(|x| !x.cached)
            .filter_map(|x| Some(ms(x.finished? - x.acked?)))
            .collect()
    });
    let (a50, a99) = stats::median_and_tail(&admit);
    let (c50, c99) = stats::median_and_tail(&complete);
    let job50 = median_of(sessions, |s| s.histogram("serve.job_ms", "p50"));
    let slots = || sessions.iter().flat_map(|s| &s.client.slots);
    let acked = slots().filter(|s| s.acked.is_some()).count();
    let cached = slots().filter(|s| s.cached).count();
    let admitted: usize = sessions.iter().map(|s| s.audit.admitted).sum();
    let bytes: u64 = sessions.iter().map(|s| s.audit.bytes).sum();
    d.extend([
        Metric::new("serve.admit_ms.p50", a50.value, "ms"),
        Metric::new("serve.admit_ms.p99", a99.value, "ms"),
        Metric::new("serve.complete_ms.p50", c50.value, "ms"),
        Metric::new("serve.complete_ms.p99", c99.value, "ms"),
        Metric::new("serve.job_ms.p50", job50, "ms"),
        Metric::new(
            "serve.job_ms.p99",
            median_of(sessions, |s| s.histogram("serve.job_ms", "p99")),
            "ms",
        ),
        Metric::new("serve.queue_wait_ms.p50", c50.value - job50, "ms"),
        Metric::new(
            "serve.cache_hit_ratio",
            stats::ratio(cached as f64, acked as f64),
            "ratio",
        ),
        Metric::new(
            "serve.shed",
            sessions
                .iter()
                .map(|s| s.counter("serve.shed"))
                .sum::<u64>() as f64,
            "count",
        ),
        Metric::new(
            "journal.replay_s",
            median_of(sessions, |s| s.audit.replay_s),
            "s",
        ),
        Metric::new(
            "serve.journal_bytes_per_job",
            stats::ratio(bytes as f64, admitted as f64),
            "B",
        ),
        Metric::new(
            "serve.journal_jobs",
            stats::ratio(admitted as f64, sessions.len() as f64),
            "count",
        ),
    ]);
    d
}

/// The per-layer report: simulator layers from the probes, worker
/// utilisation and retries from the daemon, and the unattributed part of
/// the `low` median.
fn layers(sessions: &[SessionData], probes: &Probes, tracing_s: f64) -> LayerReport {
    let (build, total) = probes.chains.iter().fold((0.0, 0.0), |(b, t), c| {
        (b + c.layer(1).as_secs_f64(), t + c.total().as_secs_f64())
    });
    // Engine work the `max` phase asked of the daemon's workers,
    // estimated from the probes' cost per job, over worker capacity.
    let (mut work_ms, mut capacity_ms) = (0.0, 0.0);
    for s in sessions {
        work_ms += s
            .reqs
            .iter()
            .zip(&s.client.slots)
            .skip(s.phases[2].start)
            .filter(|(_, slot)| slot.done.is_some() && !slot.cached)
            .map(|(r, _)| match r.class {
                Class::Sweep => probes.execute_sweep_ms,
                _ => probes.execute_simulate_ms,
            })
            .sum::<f64>();
        capacity_ms += s.workers as f64 * s.walls[2] * 1e3;
    }
    let sum = |name| sessions.iter().map(|s| s.counter(name)).sum::<u64>() as f64;
    let low_p50 = median_of(sessions, |s| s.quantiles(0).0.value);
    let session_s: f64 = sessions.iter().flat_map(|s| s.walls).sum();
    LayerReport {
        chains: probes.chains.clone(),
        build_share: stats::ratio(build, total),
        busy_ratio: stats::ratio(work_ms, capacity_ms),
        first_attempt_ratio: 1.0 - stats::ratio(sum("serve.retried"), sum("serve.accepted")),
        unattributed_share: stats::ratio(low_p50 - probes.path_ms(), low_p50),
        overhead: tracing_s / session_s,
        ..LayerReport::default()
    }
}

/// Per-layer costs of the request path, measured by re-running part of
/// the workload's own request stream in-process.
#[derive(Debug, Default)]
struct Probes {
    /// Decode one `Submit` frame and encode one `Finished` reply.
    frame_us: f64,
    validate_us: f64,
    digest_us: f64,
    /// One journal record; a cold job writes three.
    append_us: f64,
    cache_get_us: f64,
    execute_simulate_ms: f64,
    execute_sweep_ms: f64,
    chains: Vec<Chain>,
}

impl Probes {
    fn run(opts: &Opts, data: &SessionData, trace: &mut Trace) -> Result<Probes, String> {
        let high = data.phases[1].clone();
        let mut picked: Vec<usize> = high
            .filter(|&i| data.reqs[i].class != Class::Sweep && data.client.slots[i].done.is_some())
            .take(PROBE_SIMULATES)
            .collect();
        picked.extend(
            (0..data.reqs.len())
                .filter(|&i| {
                    data.reqs[i].class == Class::Sweep && data.client.slots[i].done.is_some()
                })
                .take(PROBE_SWEEPS),
        );
        let dir = opts
            .work_dir
            .join(format!("serve-{}-probe", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (journal, _) =
            Journal::open(dir.join("probe.journal")).map_err(|e| format!("probe journal: {e}"))?;
        let cache = ResultCache::new(1024);
        let preset = Preset::by_id("b").ok_or("no preset `b`")?;
        let mut p = Probes::default();
        let (mut frame, mut validate, mut digest, mut append, mut get) = (0.0, 0.0, 0.0, 0.0, 0.0);
        let (mut simulate, mut sweep) = (Vec::new(), Vec::new());
        for &i in &picked {
            let req = &data.reqs[i];
            let done = data.client.slots[i]
                .done
                .as_ref()
                .expect("picked replies are Done");
            let id = i as u64;
            let reply = format!("{{\"Finished\":{{\"id\":{i},\"outcome\":{{\"Done\":{done}}}}}}}");
            let t0 = Instant::now();
            let request: Request = serde_json::from_str(&req.json).map_err(|e| e.to_string())?;
            let t1 = Instant::now();
            let Request::Submit { spec } = request else {
                return Err("probe: not a Submit".into());
            };
            let response: Response = serde_json::from_str(&reply).map_err(|e| e.to_string())?;
            let t2 = Instant::now();
            std::hint::black_box(serde_json::to_string(&response).map_err(|e| e.to_string())?);
            let t3 = Instant::now();
            spec.validate()?;
            let t4 = Instant::now();
            let key = spec.digest();
            let t5 = Instant::now();
            let Response::Finished { outcome, .. } = response else {
                return Err("probe: not a Finished reply".into());
            };
            let JobOutcome::Done(result) = outcome.clone() else {
                return Err("probe: not a Done outcome".into());
            };
            let records = [
                Record::Admit {
                    id,
                    digest: key.clone(),
                    spec,
                },
                Record::Start { id, attempt: 0 },
                Record::Finish { id, outcome },
            ];
            let t6 = Instant::now();
            for r in &records {
                journal
                    .append(r)
                    .map_err(|e| format!("probe journal: {e}"))?;
            }
            let t7 = Instant::now();
            cache.insert(key.clone(), Arc::new(result));
            let t8 = Instant::now();
            std::hint::black_box(cache.get(&key));
            let t9 = Instant::now();
            frame += ms(t1 - t0 + (t3 - t2)) * 1e3;
            validate += ms(t4 - t3) * 1e3;
            digest += ms(t5 - t4) * 1e3;
            append += ms(t7 - t6) * 1e3 / records.len() as f64;
            get += ms(t9 - t8) * 1e3;
            trace.append(vec![Span::new("protocol.decode", id, None, t0, t1)]);
            trace.append(vec![Span::new("protocol.encode", id, None, t2, t3)]);
            trace.append(vec![Span::new("job.validate", id, None, t3, t4)]);
            trace.append(vec![Span::new("job.digest", id, None, t4, t5)]);
            trace.append(vec![Span::new("journal.append", id, None, t6, t7)]);
            trace.append(vec![Span::new("cache.get", id, None, t8, t9)]);
            let mut execute = 0.0;
            for &(alg, bytes) in &req.scenarios {
                let alg = Algorithm::parse(alg)?;
                let start = Instant::now();
                let c = sim::chain(&preset, SHAPE.0, SHAPE.1, alg, bytes)?;
                execute += ms(c.total());
                trace.append(c.spans("probe", id, start, Instant::now()));
                p.chains.push(c);
            }
            match req.class {
                Class::Sweep => sweep.push(execute),
                _ => simulate.push(execute),
            }
        }
        drop(journal);
        let _ = std::fs::remove_dir_all(&dir);
        let n = picked.len() as f64;
        p.frame_us = stats::ratio(frame, n);
        p.validate_us = stats::ratio(validate, n);
        p.digest_us = stats::ratio(digest, n);
        p.append_us = stats::ratio(append, n);
        p.cache_get_us = stats::ratio(get, n);
        p.execute_simulate_ms = stats::mean(simulate);
        p.execute_sweep_ms = stats::mean(sweep);
        Ok(p)
    }

    /// Modelled daemon time of a cold `Simulate` along the request path:
    /// decode, validate, digest, cache lookup, three journal records,
    /// execution and encode, in ms.
    fn path_ms(&self) -> f64 {
        (self.frame_us
            + self.validate_us
            + self.digest_us
            + self.cache_get_us
            + 3.0 * self.append_us)
            / 1e3
            + self.execute_simulate_ms
    }

    fn details(&self) -> Vec<Metric> {
        vec![
            Metric::new("protocol.frame_us", self.frame_us, "us"),
            Metric::new("job.validate_us", self.validate_us, "us"),
            Metric::new("job.digest_us", self.digest_us, "us"),
            Metric::new("journal.append_us", self.append_us, "us"),
            Metric::new("cache.get_us", self.cache_get_us, "us"),
            Metric::new("job.execute_ms.simulate", self.execute_simulate_ms, "ms"),
            Metric::new("job.execute_ms.sweep", self.execute_sweep_ms, "ms"),
            Metric::new("serve.path_ms", self.path_ms(), "ms"),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A stand-in daemon that answers every submit at once, except that
    /// it holds request `stall`'s reply for `hold` and rejects `reject`.
    fn fake_daemon(stall: usize, hold: Duration, reject: usize) -> (String, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut i = 0;
            while let Ok(Some(_)) = read_frame(&mut s) {
                if i == reject {
                    let r = "{\"Rejected\":{\"reason\":\"overloaded\",\"message\":\"\",\"retry_after_ms\":1}}";
                    write_frame(&mut s, r.as_bytes()).unwrap();
                } else {
                    let a = format!(
                        "{{\"Accepted\":{{\"id\":{i},\"digest\":\"d\",\"cached\":false}}}}"
                    );
                    write_frame(&mut s, a.as_bytes()).unwrap();
                    if i == stall {
                        std::thread::sleep(hold);
                    }
                    let f = format!(
                        "{{\"Finished\":{{\"id\":{i},\"outcome\":{{\"Done\":{{\"failed\":0}}}}}}}}"
                    );
                    write_frame(&mut s, f.as_bytes()).unwrap();
                }
                i += 1;
            }
        });
        (addr, server)
    }

    #[test]
    fn open_loop_times_from_due_and_a_stall_delays_the_requests_behind_it() {
        let hold = Duration::from_millis(100);
        let (addr, server) = fake_daemon(2, hold, 6);
        // One job in flight at a time, so a held reply blocks the sender.
        let mut conn = Client::connect(&addr, 1).unwrap();
        open_loop(&mut conn, 1000.0, 8, || "\"Submit\"".to_string()).unwrap();
        assert!(conn.wait_idle());
        let slots = conn.finish().slots;
        server.join().unwrap();

        // The schedule is fixed when the phase starts: 1 ms apart.
        for (k, s) in slots.iter().enumerate() {
            let offset = (s.due - slots[0].due).as_secs_f64();
            assert!(
                (offset - k as f64 * 1e-3).abs() < 1e-9,
                "due time of request {k}"
            );
        }
        let stall_end = slots[2].finished.unwrap();
        assert!(slots[2].latency_ms() >= ms(hold));
        for (k, s) in slots.iter().enumerate().skip(3) {
            assert!(
                s.sent >= stall_end,
                "request {k} went out before the stall cleared"
            );
            if k != 6 {
                // Charged from its due time, not from when it could be sent.
                assert!(s.latency_ms() >= ms(stall_end - s.due), "request {k}");
                assert!(s.latency_ms() > ms(hold) - 10.0, "request {k}");
            }
        }
        assert!(slots[0].latency_ms() < ms(hold));
        // A rejection misses every latency limit.
        assert_eq!(slots[6].latency_ms(), f64::INFINITY);
        assert!(slots[6].failure.as_deref().unwrap().starts_with("rejected"));
    }

    #[test]
    fn request_stream_is_seeded_and_mixed() {
        let take = |seed| -> Vec<Req> {
            let mut g = Generator::new(seed);
            (0..2000).map(|_| g.next()).collect()
        };
        let (a, b) = (take(1), take(1));
        assert!(a.iter().zip(&b).all(|(x, y)| x.json == y.json));
        assert_ne!(a[0].json, take(2)[0].json);
        let cold = a.iter().filter(|r| r.class == Class::Cold).count();
        let sweeps = a.iter().filter(|r| r.class == Class::Sweep).count();
        assert!((1400..1600).contains(&cold), "{cold} cold of 2000");
        assert!((50..150).contains(&sweeps), "{sweeps} sweeps of 2000");
        let distinct: HashSet<&str> = a
            .iter()
            .filter(|r| !matches!(r.class, Class::Hot(_)))
            .map(|r| r.json.as_str())
            .collect();
        assert_eq!(
            distinct.len(),
            cold + sweeps,
            "cold and sweep jobs never repeat"
        );
        assert!(a
            .iter()
            .all(|r| r.scenarios.len() == if r.class == Class::Sweep { 8 } else { 1 }));
    }
}
