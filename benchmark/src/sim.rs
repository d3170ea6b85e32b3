//! The simulator workloads: `sweep`, `scale` and `faults`.
//!
//! A scenario makes the public layer calls that `run_allreduce` makes, in
//! the same order — `RankMap::block` + `SimConfig::new`, then
//! `Algorithm::build`, `Simulator::run` and `RunReport::verify_allreduce`
//! — so each layer is timed from outside. On `faults` the scenario is one
//! `integrity::run_allreduce_verified` call, whose layers are internal;
//! probes time them separately.

use crate::report::{LayerReport, Metric, Outcome};
use crate::stats::{self, Fnv, Rng};
use crate::trace::{Span, Trace};
use dpml_core::{run_allreduce_verified, Algorithm, IntegrityErrorKind, IntegrityPolicy, Library};
use dpml_core::{IntegrityReport, VerifiedError};
use dpml_engine::{SimConfig, Simulator};
use dpml_fabric::Preset;
use dpml_faults::{DataFaults, FaultPlan};
use dpml_topology::RankMap;
use rayon::prelude::*;
use std::cmp::Reverse;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A simulator workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Clusters A–D at 16×16, seven algorithms, two sizes each, in
    /// parallel: the engine's throughput case.
    Sweep,
    /// The Figure 10 geometry (cluster D, 160×64 = 10,240 ranks) with each
    /// library's own choice of algorithm, one scenario at a time.
    Scale,
    /// Cluster A 8×28 under wire faults through the integrity ladder, in
    /// parallel; every schedule repeats.
    Faults,
}

impl Kind {
    /// The workload named on the command line.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "sweep" => Some(Kind::Sweep),
            "scale" => Some(Kind::Scale),
            "faults" => Some(Kind::Faults),
            _ => None,
        }
    }
}

/// `sweep` algorithms, most expensive first so the parallel runner starts
/// the long `ring` scenarios before the short ones.
const SWEEP_ALGS: [&str; 7] = [
    "ring",
    "dpml:8:ring",
    "dpml:16",
    "rab",
    "rd",
    "dpml-pipelined:2:4",
    "single-leader",
];
/// `sweep` size bands: one size from each per (cluster, algorithm, pass).
const SWEEP_BANDS: [(u64, u64); 2] = [(32 << 10, 96 << 10), (768 << 10, 1280 << 10)];

/// `scale` size bands: 4–64 B, 512 B–2 KiB, 8–32 KiB, 128–512 KiB.
const SCALE_BANDS: [(u64, u64); 4] = [
    (4, 64),
    (512, 2 << 10),
    (8 << 10, 32 << 10),
    (128 << 10, 512 << 10),
];
const SCALE_LIBRARIES: [Library; 3] = [Library::Mvapich2, Library::IntelMpi, Library::DpmlTuned];

/// `faults` algorithms, most expensive first.
const FAULT_ALGS: [&str; 6] = [
    "rab",
    "rd",
    "dpml:8",
    "dpml:4:ring",
    "dpml-pipelined:2:4",
    "single-leader",
];
/// Message sizes per `faults` run; each (algorithm, size) schedule then
/// repeats once per corruption rate in every pass.
const FAULT_SIZES: usize = 16;
const FAULT_SIZE_RANGE: (u64, u64) = (32 << 10, 256 << 10);
const CORRUPTION_RATES: [f64; 2] = [0.01, 0.05];
/// Deep enough that every transfer gets through: no operation fails.
const FAULT_RETRY_BUDGET: u32 = 64;
/// Set-ups timed for `setup_s`, [`SETUP_GAP`] apart; the median is
/// reported. Spaced out, they sample the host over about a second rather
/// than one instant, so a burst of host slowness moves only a few.
const SETUP_REPS: usize = 25;
const SETUP_GAP: Duration = Duration::from_millis(40);

/// One scenario of a run.
struct Scenario {
    id: u64,
    /// Index into [`Workload::presets`].
    cluster: usize,
    nodes: u32,
    ppn: u32,
    alg: Algorithm,
    bytes: u64,
    /// `faults` only: the injected plan and the schedule's index into the
    /// probe list.
    faults: Option<(FaultPlan, usize)>,
}

/// Timestamps and counts of one simulator-path chain.
#[derive(Debug, Clone)]
pub struct Chain {
    /// Before `RankMap::block`, then after `SimConfig::new`,
    /// `Algorithm::build`, `Simulator::run` and `verify_allreduce`.
    stamps: [Instant; 5],
    /// Simulated completion time, microseconds.
    pub latency_us: f64,
    /// Engine events processed.
    pub events: u64,
    /// Peak concurrent fluid flows.
    pub peak_flows: usize,
    /// Instructions in the compiled schedule.
    pub instrs: usize,
}

/// The layers of [`Chain`], in call order.
pub const CHAIN_LAYERS: [&str; 4] = [
    "topology.config",
    "core.build",
    "engine.run",
    "engine.verify",
];

impl Chain {
    /// Wall time of layer `i` of [`CHAIN_LAYERS`].
    pub fn layer(&self, i: usize) -> Duration {
        self.stamps[i + 1] - self.stamps[i]
    }

    /// Wall time of the whole chain.
    pub fn total(&self) -> Duration {
        self.stamps[4] - self.stamps[0]
    }

    /// A root span named `root` over `[start, end]`, timed by the caller
    /// around the call to [`chain`], with one child per layer; whatever
    /// the caller does between the layer calls stays unattributed.
    pub fn spans(&self, root: &'static str, id: u64, start: Instant, end: Instant) -> Vec<Span> {
        let mut spans = vec![Span::new(root, id, None, start, end)];
        for (i, name) in CHAIN_LAYERS.iter().enumerate() {
            spans.push(Span::new(
                name,
                id,
                Some(0),
                self.stamps[i],
                self.stamps[i + 1],
            ));
        }
        spans
    }
}

/// The rank placement and simulator configuration of `nodes`×`ppn` ranks
/// of `preset`: the `topology.config` layer.
fn config(preset: &Preset, nodes: u32, ppn: u32) -> Result<(RankMap, SimConfig), String> {
    let spec = preset
        .spec(nodes, ppn)
        .map_err(|e| format!("topology: {e}"))?;
    let map = RankMap::block(&spec);
    let cfg = SimConfig::new(map.clone(), preset.fabric.clone(), preset.switch)
        .map_err(|e| format!("topology: {e}"))?;
    Ok((map, cfg))
}

/// Compile, simulate and verify one allreduce on `nodes`×`ppn` ranks of
/// `preset`, timing each layer.
pub fn chain(
    preset: &Preset,
    nodes: u32,
    ppn: u32,
    alg: Algorithm,
    bytes: u64,
) -> Result<Chain, String> {
    if alg.needs_sharp() {
        return Err(format!("{}: SHArP designs are not benchmarked", alg.name()));
    }
    let t0 = Instant::now();
    let (map, cfg) = config(preset, nodes, ppn)?;
    let t1 = Instant::now();
    let world = alg.build(&map, bytes).map_err(|e| format!("build: {e}"))?;
    let t2 = Instant::now();
    let report = Simulator::new(&cfg)
        .run(&world)
        .map_err(|e| format!("simulation: {e}"))?;
    let t3 = Instant::now();
    report
        .verify_allreduce()
        .map_err(|e| format!("verification: {e}"))?;
    let t4 = Instant::now();
    Ok(Chain {
        stamps: [t0, t1, t2, t3, t4],
        latency_us: report.latency_us(),
        events: report.stats.events,
        peak_flows: report.stats.peak_flows,
        instrs: world.total_instrs(),
    })
}

/// What one scenario produced.
struct Done {
    /// Wall time of the scenario.
    wall: Duration,
    /// Simulated latency's bits for the digest; all ones on failure.
    latency_bits: u64,
    /// The simulator-path chain (`sweep`, `scale`).
    chain: Option<Chain>,
    /// The verified run (`faults`).
    verified: Option<Verified>,
    error: Option<String>,
    /// An integrity run that ended in `VerifyMismatch`: a wrong result
    /// got past the ladder to its final check.
    escape: bool,
    spans: Vec<Span>,
}

impl Done {
    /// Wall time in ms; +∞ for a failed scenario.
    fn latency_ms(&self) -> f64 {
        match self.error {
            None => self.wall.as_secs_f64() * 1e3,
            Some(_) => f64::INFINITY,
        }
    }
}

/// One `run_allreduce_verified` call.
struct Verified {
    report: IntegrityReport,
    wall: Duration,
    /// Index of its (algorithm, size) schedule in the probe list.
    schedule: usize,
}

/// A simulator workload bound to its seed.
pub struct Workload {
    kind: Kind,
    seed: u64,
    presets: Vec<Preset>,
    /// `faults` only: the sizes every pass reuses.
    fault_sizes: Vec<u64>,
}

impl Workload {
    /// Look up the presets and draw the per-seed inputs.
    pub fn new(kind: Kind, seed: u64) -> Result<Workload, String> {
        let ids: &[&str] = match kind {
            Kind::Sweep => &["a", "b", "c", "d"],
            Kind::Scale => &["d"],
            Kind::Faults => &["a"],
        };
        let presets = ids
            .iter()
            .map(|id| Preset::by_id(id).ok_or(format!("no preset `{id}`")))
            .collect::<Result<_, _>>()?;
        let mut fault_sizes = Vec::new();
        if kind == Kind::Faults {
            let (lo, hi) = FAULT_SIZE_RANGE;
            fault_sizes = Rng::new(seed, u64::MAX).stratified(lo, hi, FAULT_SIZES as u64);
            fault_sizes.reverse();
        }
        Ok(Workload {
            kind,
            seed,
            presets,
            fault_sizes,
        })
    }

    /// Passes in a run of `seconds`, at least one. A pass takes about
    /// 2.7 s (`sweep`), 7.4 s (`scale`) or 3.6 s (`faults`) on two cores,
    /// so a run measures close to `seconds` there. A traced run makes half
    /// as many passes and runs each scenario twice.
    fn passes(&self, seconds: u64, traced: bool) -> u64 {
        let per_second = match self.kind {
            Kind::Sweep => 0.37,
            Kind::Scale => 0.135,
            Kind::Faults => 0.28,
        };
        let passes = (seconds as f64 * per_second).round().max(1.0) as u64;
        if traced {
            passes.div_ceil(2)
        } else {
            passes
        }
    }

    /// Every scenario of `passes` passes as one list, most expensive first
    /// so the parallel runner never ends on a long scenario. Each
    /// (cluster, algorithm or library, band) draws its sizes stratified
    /// over the band, one per pass, and `faults` draws a fresh fault seed
    /// per pass, so `sweep` and `scale` never repeat a scenario.
    fn scenarios(&self, passes: u64) -> Result<Vec<Scenario>, String> {
        let mut rng = Rng::new(self.seed, 0);
        let parse = |a: &str| Algorithm::parse(a).map_err(|e| format!("{a}: {e}"));
        let mut all = Vec::new();
        let mut push = |rank, cluster, (nodes, ppn), alg, bytes, faults| {
            let scenario = Scenario {
                id: 0,
                cluster,
                nodes,
                ppn,
                alg,
                bytes,
                faults,
            };
            all.push((rank, scenario));
        };
        match self.kind {
            Kind::Sweep => {
                for cluster in 0..self.presets.len() {
                    for (rank, a) in SWEEP_ALGS.iter().enumerate() {
                        let alg = parse(a)?;
                        for (lo, hi) in SWEEP_BANDS {
                            for bytes in rng.stratified(lo, hi, passes) {
                                push(rank, cluster, (16, 16), alg, bytes, None);
                            }
                        }
                    }
                }
            }
            Kind::Scale => {
                let (preset, shape) = (&self.presets[0], (160, 64));
                let spec = preset
                    .spec(shape.0, shape.1)
                    .map_err(|e| format!("topology: {e}"))?;
                for (lo, hi) in SCALE_BANDS {
                    for lib in SCALE_LIBRARIES {
                        for bytes in rng.stratified(lo, hi, passes) {
                            push(0, 0, shape, lib.choose(preset, &spec, bytes), bytes, None);
                        }
                    }
                }
            }
            Kind::Faults => {
                let fault_seeds: Vec<u64> = (0..passes).map(|_| rng.next_u64()).collect();
                for rate in CORRUPTION_RATES {
                    for (rank, a) in FAULT_ALGS.iter().enumerate() {
                        let alg = parse(a)?;
                        for (i, &bytes) in self.fault_sizes.iter().enumerate() {
                            for &fault_seed in &fault_seeds {
                                let plan = FaultPlan {
                                    data: DataFaults {
                                        max_retransmits: FAULT_RETRY_BUDGET,
                                        ..DataFaults::wire(rate, rate / 2.0)
                                    },
                                    ..FaultPlan::canonical(fault_seed, 0.5)
                                };
                                let schedule = rank * FAULT_SIZES + i;
                                push(rank, 0, (8, 28), alg, bytes, Some((plan, schedule)));
                            }
                        }
                    }
                }
            }
        }
        all.sort_by_key(|(rank, s)| (*rank, Reverse(s.bytes)));
        Ok(all
            .into_iter()
            .enumerate()
            .map(|(id, (_, s))| Scenario { id: id as u64, ..s })
            .collect())
    }

    fn parallel(&self) -> bool {
        self.kind != Kind::Scale
    }

    /// Run one scenario.
    fn exec(&self, s: &Scenario, traced: bool) -> Done {
        let preset = &self.presets[s.cluster];
        let t0 = Instant::now();
        let Some((plan, schedule)) = &s.faults else {
            return match chain(preset, s.nodes, s.ppn, s.alg, s.bytes) {
                Ok(c) => {
                    let end = Instant::now();
                    Done {
                        wall: end - t0,
                        latency_bits: c.latency_us.to_bits(),
                        spans: match traced {
                            true => c.spans("scenario", s.id, t0, end),
                            false => Vec::new(),
                        },
                        chain: Some(c),
                        verified: None,
                        error: None,
                        escape: false,
                    }
                }
                Err(e) => failed(t0, e, false),
            };
        };
        let spec = match preset.spec(s.nodes, s.ppn) {
            Ok(spec) => spec,
            Err(e) => return failed(t0, format!("topology: {e}"), false),
        };
        let t1 = Instant::now();
        let result = run_allreduce_verified(
            preset,
            &spec,
            s.alg,
            s.bytes,
            plan,
            IntegrityPolicy::default(),
        );
        let t2 = Instant::now();
        match result {
            Ok(report) => {
                let mut spans = Vec::new();
                if traced {
                    spans.push(Span::new("scenario", s.id, None, t0, t2));
                    spans.push(Span::new("integrity.verified", s.id, Some(0), t1, t2));
                }
                Done {
                    wall: t2 - t0,
                    latency_bits: report.total_latency_us.to_bits(),
                    chain: None,
                    verified: Some(Verified {
                        report,
                        wall: t2 - t1,
                        schedule: *schedule,
                    }),
                    error: None,
                    escape: false,
                    spans,
                }
            }
            Err(e) => {
                let escape = matches!(
                    &e,
                    VerifiedError::Integrity(i) if i.kind == IntegrityErrorKind::VerifyMismatch
                );
                failed(t0, format!("integrity: {e}"), escape)
            }
        }
    }

    /// Run every scenario, in parallel over every core unless the workload
    /// is serial; results come back in scenario order. A traced run runs
    /// each scenario a second time with spans on, right after or right
    /// before the untraced copy, so the two see the same conditions.
    fn run_all(&self, scenarios: &[Scenario], traced: bool) -> Vec<(Done, Option<Done>)> {
        let one = |s: &Scenario| match (traced, s.id % 2) {
            (false, _) => (self.exec(s, false), None),
            (true, 0) => {
                let plain = self.exec(s, false);
                (plain, Some(self.exec(s, true)))
            }
            (true, _) => {
                let marked = self.exec(s, true);
                (self.exec(s, false), Some(marked))
            }
        };
        if self.parallel() {
            scenarios.par_iter().map(one).collect()
        } else {
            scenarios.iter().map(one).collect()
        }
    }

    /// `faults` probes: one extra chain per distinct schedule, outside the
    /// timed passes, sizing what schedule reuse could save.
    fn probes(&self, trace: &mut Trace) -> Result<Vec<Chain>, String> {
        let mut chains = Vec::new();
        for a in FAULT_ALGS {
            let alg = Algorithm::parse(a)?;
            for &bytes in &self.fault_sizes {
                let start = Instant::now();
                let c = chain(&self.presets[0], 8, 28, alg, bytes)?;
                trace.append(c.spans("probe", chains.len() as u64, start, Instant::now()));
                chains.push(c);
            }
        }
        Ok(chains)
    }
}

fn failed(t0: Instant, error: String, escape: bool) -> Done {
    Done {
        wall: t0.elapsed(),
        latency_bits: u64::MAX,
        chain: None,
        verified: None,
        error: Some(error),
        escape,
        spans: Vec::new(),
    }
}

/// Median over [`SETUP_REPS`] repetitions of the set-up a simulator user
/// pays before the first scenario: the preset lookups, the per-seed
/// draws, the scenario list (`Library::choose` on `scale`, the fault
/// plans on `faults`) and the topology and configuration of each cluster.
fn setup_s(kind: Kind, seed: u64, passes: u64) -> Result<f64, String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        std::thread::sleep(SETUP_GAP);
        let start = Instant::now();
        let w = Workload::new(kind, seed)?;
        let scenarios = w.scenarios(passes)?;
        for (cluster, preset) in w.presets.iter().enumerate() {
            if let Some(s) = scenarios.iter().find(|s| s.cluster == cluster) {
                std::hint::black_box(config(preset, s.nodes, s.ppn)?);
            }
        }
        std::hint::black_box(scenarios);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok(stats::median(&times))
}

/// How a simulator workload is run.
pub struct Opts {
    pub seed: u64,
    pub seconds: u64,
    /// Where the traced run writes its spans; `None` runs untraced.
    pub trace_path: Option<PathBuf>,
}

/// Run the workload's scenarios, check every result, and report.
pub fn run(kind: Kind, opts: &Opts) -> Result<Outcome, String> {
    let w = Workload::new(kind, opts.seed)?;
    let traced = opts.trace_path.is_some();
    let passes = w.passes(opts.seconds, traced);
    let setup_s = setup_s(kind, opts.seed, passes)?;
    let scenarios = w.scenarios(passes)?;
    let start = Instant::now();
    let (plain, marked): (Vec<Done>, Vec<Option<Done>>) =
        w.run_all(&scenarios, traced).into_iter().unzip();
    let wall = start.elapsed().as_secs_f64();
    let mut marked: Vec<Done> = marked.into_iter().flatten().collect();

    let mut digest = Fnv::default();
    plain.iter().for_each(|d| digest.write_u64(d.latency_bits));
    let mut out = Outcome::new(digest.finish());
    out.attempted = (plain.len() + marked.len()) as u64;
    for d in plain.iter().chain(&marked) {
        if let Some(e) = &d.error {
            out.failed += 1;
            if out.failed <= 5 {
                out.fail(format!("scenario failed: {e}"));
            }
        }
    }
    let escapes = plain.iter().chain(&marked).filter(|d| d.escape).count();
    if escapes > 0 {
        out.fail(format!("{escapes} integrity runs ended in VerifyMismatch"));
    }

    let latencies: Vec<f64> = plain.iter().map(Done::latency_ms).collect();
    let (p50, tail) = stats::median_and_tail(&latencies);
    if !traced {
        out.end_to_end = vec![
            Metric::new("ops_per_s", plain.len() as f64 / wall, "1/s"),
            Metric::new("p50_ms", p50.value, "ms"),
            Metric::new("setup_s", setup_s, "s"),
            Metric::new(
                "peak_rss_mb",
                stats::peak_rss_mb(None).map_err(|e| e.to_string())?,
                "MB",
            ),
        ];
    }
    out.details = vec![
        Metric::new("tail_ms", tail.value, "ms"),
        Metric::new("tail_percentile", tail.q * 100.0, "%"),
        Metric::new("samples", plain.len() as f64, "count"),
        Metric::new("passes", passes as f64, "count"),
        Metric::new("measured_s", wall, "s"),
    ];
    if kind != Kind::Faults {
        let events: u64 = plain
            .iter()
            .chain(&marked)
            .filter_map(|d| d.chain.as_ref())
            .map(|c| c.events)
            .sum();
        out.details
            .push(Metric::new("events_per_s", events as f64 / wall, "1/s"));
    }

    let Some(path) = &opts.trace_path else {
        return Ok(out);
    };
    let seconds = |v: &[Done]| v.iter().map(|d| d.wall.as_secs_f64()).sum::<f64>();
    let (plain_s, marked_s) = (seconds(&plain), seconds(&marked));
    let mut trace = Trace::new(start);
    for d in &mut marked {
        trace.append(std::mem::take(&mut d.spans));
    }
    let (scenario_wall, unattributed) = trace.total("scenario");
    let cores = rayon::current_num_threads() as f64;
    let mut layers = LayerReport {
        chains: marked.iter().filter_map(|d| d.chain.clone()).collect(),
        busy_ratio: (plain_s + marked_s) / (cores * wall),
        first_attempt_ratio: stats::ratio(
            marked.iter().filter(|d| d.error.is_none()).count() as f64,
            marked.len() as f64,
        ),
        unattributed_share: stats::ratio(unattributed.as_secs_f64(), scenario_wall.as_secs_f64()),
        overhead: marked_s / plain_s - 1.0,
        ..LayerReport::default()
    };
    if kind == Kind::Faults {
        integrity_layers(&w, &marked, &mut trace, &mut layers, &mut out)?;
    } else {
        let build: f64 = layers.chains.iter().map(|c| c.layer(1).as_secs_f64()).sum();
        layers.build_share = stats::ratio(build, scenario_wall.as_secs_f64());
    }
    out.per_layer = layers.metrics();
    trace
        .write_jsonl(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(out)
}

/// Fill the integrity-path layers of `faults` from its verified runs and
/// the per-schedule probes.
fn integrity_layers(
    w: &Workload,
    marked: &[Done],
    trace: &mut Trace,
    layers: &mut LayerReport,
    out: &mut Outcome,
) -> Result<(), String> {
    let probes = w.probes(trace)?;
    let (mut build, mut verified, mut first_attempt) = (0.0, 0.0, 0usize);
    let mut reps = vec![0u64; probes.len()];
    for Verified {
        report,
        wall,
        schedule,
    } in marked.iter().filter_map(|d| d.verified.as_ref())
    {
        let schedule = *schedule;
        reps[schedule] += 1;
        // Every verified call compiles its schedule once; a compile-once
        // memo would save all but the first of each schedule's builds.
        build += probes[schedule].layer(1).as_secs_f64();
        verified += wall.as_secs_f64();
        first_attempt += usize::from(report.restarts == 0 && report.recovery.is_none());
        layers.restarts += u64::from(report.restarts);
        layers.partition_recoveries += u64::from(report.recovery.is_some());
        layers.retransmits += report.retransmits();
        layers.corruptions_detected += report.corruptions_detected();
    }
    layers.build_share = stats::ratio(build, verified);
    layers.first_attempt_ratio = stats::ratio(first_attempt as f64, marked.len() as f64);
    layers.chains = probes;
    out.details.push(Metric::new(
        "integrity.verified_s",
        stats::ratio(verified, marked.len() as f64),
        "s",
    ));
    out.details.push(Metric::new(
        "core.schedule_repeats",
        stats::mean(reps.iter().map(|&r| r as f64)),
        "count",
    ));
    Ok(())
}
