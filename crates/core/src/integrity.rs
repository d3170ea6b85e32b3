//! Self-verifying allreduce: end-to-end integrity under injected
//! silent-corruption faults.
//!
//! The engine's transport already detects corrupted or dropped wire
//! payloads and retransmits them ([`dpml_faults::DataFaults`]); this
//! module adds the layers above it so a collective under data faults
//! either returns a result **bit-identical to a fault-free run** or a
//! structured [`IntegrityError`] — never silently wrong data and never a
//! hang. The degradation ladder, cheapest rung first:
//!
//! 1. **Wire CRC + retransmit** (engine): corrupted payloads are NACKed,
//!    dropped ones hit the sender's ack timeout; both retransmit with
//!    capped exponential backoff up to the plan's retry budget.
//! 2. **Checksum-on-publish redo** (engine): a shared-memory deposit that
//!    fails its publish checksum is re-copied from the source buffer.
//! 3. **Partition re-reduce** (this module): when an inter-leader
//!    transfer of a DPML run exhausts its budget, only the affected
//!    partition — `1/l` of the vector — is re-reduced from the intact
//!    phase-1 shared-memory deposits (`build_continuation`).
//! 4. **Full restart** (this module): algorithms without DPML's durable
//!    deposits re-run from scratch, up to [`IntegrityPolicy::max_restarts`].
//! 5. **[`IntegrityError`]**: every budget exhausted. The caller gets a
//!    structured failure, not a wrong answer.
//!
//! Verification itself is not free: every rank checksums its final
//! result vector before declaring completion, modeled as an appended
//! compute of `verify_base_us + bytes / verify_bw` per rank. The same
//! instructions are appended to the fault-free baseline, so the
//! faulted-vs-clean comparison stays apples-to-apples and
//! [`IntegrityReport::verify_overhead_us`] isolates the pure cost of
//! checking (the overhead measured at corruption rate zero).
//!
//! Process (fail-stop) faults are the province of
//! [`crate::failstop::run_dpml_failstop`]; a plan carrying them surfaces
//! `RankDead` as a plain [`RunError`] here.

use crate::algorithms::flat::emit_flat_range;
use crate::algorithms::{Algorithm, FlatAlg};
use crate::run::{simulate, Exec, RunError};
use dpml_engine::program::{BufKey, ByteRange, ProgramBuilder, BUF_RESULT};
use dpml_engine::{CoverageMap, Phase, RunReport, SimError, WorldProgram};
use dpml_fabric::Preset;
use dpml_faults::{DataFaults, FaultPlan, ProcessFaults};
use dpml_topology::{ClusterSpec, LeaderPolicy, LeaderSet, NodeId, Rank, RankMap};
use serde::{Deserialize, Serialize};

/// Fixed virtual-time cost of re-planning a partition re-reduce (failure
/// broadcast + agreement on the partition), microseconds.
const REPLAN_BASE_US: f64 = 5.0;
/// Per-rank cost of re-generating and distributing a replanned program,
/// microseconds.
const REPLAN_PER_RANK_US: f64 = 0.5;

/// Knobs for the self-verifying runner.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IntegrityPolicy {
    /// Checksum scan bandwidth, bytes/second (hardware CRC32C streams
    /// near memory bandwidth).
    pub verify_bw: f64,
    /// Fixed per-rank verification setup cost, microseconds.
    pub verify_base_us: f64,
    /// Full re-runs allowed after a retry-budget exhaustion on an
    /// algorithm without partition-scoped recovery.
    pub max_restarts: u32,
    /// Partition re-reduction passes allowed for a DPML run before the
    /// recovery itself is declared failed.
    pub max_recovery_passes: u32,
}

impl Default for IntegrityPolicy {
    fn default() -> Self {
        IntegrityPolicy {
            verify_bw: 1.0e11,
            verify_base_us: 0.3,
            max_restarts: 2,
            max_recovery_passes: 3,
        }
    }
}

impl IntegrityPolicy {
    /// Virtual-time cost of one rank checksumming `bytes` of result.
    fn verify_secs(&self, bytes: u64) -> f64 {
        self.verify_base_us * 1e-6 + bytes as f64 / self.verify_bw
    }
}

/// One rung of the degradation ladder, as exported for outcome-coverage
/// accounting (the chaos campaign engine keys its coverage map on which
/// rungs a run actually exercised).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum LadderRung {
    /// Rung 1: a receiver-side CRC failure or dropped message was
    /// re-delivered over the wire.
    WireRetransmit,
    /// Rung 2: a shared-memory publish failed its checksum and was
    /// redone from clean state.
    ShmRedo,
    /// Rung 3: one partition was re-reduced from surviving deposits.
    PartitionRereduce,
    /// Rung 4: the whole collective restarted with a reseeded plan.
    FullRestart,
}

impl LadderRung {
    /// Stable kebab-case coverage label. Renaming one invalidates the
    /// committed chaos regression corpus.
    pub fn label(&self) -> &'static str {
        match self {
            LadderRung::WireRetransmit => "retransmit",
            LadderRung::ShmRedo => "shm-redo",
            LadderRung::PartitionRereduce => "partition-rereduce",
            LadderRung::FullRestart => "restart",
        }
    }
}

/// Why a self-verifying run gave up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IntegrityErrorKind {
    /// Wire retry budget and restart budget both exhausted.
    BudgetExhausted,
    /// Partition-scoped recovery kept exhausting its own retry budget.
    RecoveryFailed,
    /// A completed run failed end-to-end verification or diverged from
    /// the fault-free baseline (an escape the ladder exists to prevent;
    /// reaching this kind is a bug in the protocol, not in the caller).
    VerifyMismatch,
}

impl IntegrityErrorKind {
    /// Stable kebab-case coverage label (see [`LadderRung::label`]).
    pub fn label(&self) -> &'static str {
        match self {
            IntegrityErrorKind::BudgetExhausted => "integrity-budget-exhausted",
            IntegrityErrorKind::RecoveryFailed => "integrity-recovery-failed",
            IntegrityErrorKind::VerifyMismatch => "integrity-verify-mismatch",
        }
    }
}

/// Structured failure of a self-verifying allreduce: the collective did
/// not complete with a trustworthy result, and says so instead of
/// returning corrupt data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IntegrityError {
    /// Which rung of the ladder gave out.
    pub kind: IntegrityErrorKind,
    /// Delivery attempts the losing transfer made.
    pub attempts: u32,
    /// Human-readable diagnosis.
    pub detail: String,
}

impl std::fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.kind {
            IntegrityErrorKind::BudgetExhausted => "retry budget exhausted",
            IntegrityErrorKind::RecoveryFailed => "partition recovery failed",
            IntegrityErrorKind::VerifyMismatch => "verification mismatch",
        };
        write!(f, "integrity: {kind}: {}", self.detail)
    }
}

impl std::error::Error for IntegrityError {}

/// Error from [`run_allreduce_verified`]: either ordinary infrastructure
/// failure or a structured integrity give-up.
#[derive(Debug)]
pub enum VerifiedError {
    /// Topology/build/simulation error unrelated to data integrity.
    Run(RunError),
    /// The degradation ladder ran out of rungs.
    Integrity(IntegrityError),
}

impl std::fmt::Display for VerifiedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifiedError::Run(e) => write!(f, "{e}"),
            VerifiedError::Integrity(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for VerifiedError {}

impl From<RunError> for VerifiedError {
    fn from(e: RunError) -> Self {
        VerifiedError::Run(e)
    }
}

impl From<IntegrityError> for VerifiedError {
    fn from(e: IntegrityError) -> Self {
        VerifiedError::Integrity(e)
    }
}

impl From<crate::algorithms::BuildError> for VerifiedError {
    fn from(e: crate::algorithms::BuildError) -> Self {
        VerifiedError::Run(RunError::Build(e))
    }
}

impl From<dpml_topology::TopologyError> for VerifiedError {
    fn from(e: dpml_topology::TopologyError) -> Self {
        VerifiedError::Run(RunError::Topology(e))
    }
}

/// Accounting for one partition-scoped recovery (ladder rung 3).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PartitionRecovery {
    /// Leader/partition index that was re-reduced.
    pub partition: u32,
    /// Recovery passes run (the last one succeeded).
    pub passes: u32,
    /// When the exhausted transfer surfaced, microseconds from start.
    pub detected_at_us: f64,
    /// Re-planning cost charged before the continuation ran.
    pub replan_us: f64,
}

/// A verified allreduce: the result is bit-identical to a fault-free
/// run's, and the report says what the integrity machinery paid for it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IntegrityReport {
    /// Requested algorithm name.
    pub algorithm: String,
    /// Vector size in bytes.
    pub bytes: u64,
    /// The engine report of the run (or continuation) that completed.
    pub report: RunReport,
    /// Fault-free latency *without* verification, microseconds.
    pub base_latency_us: f64,
    /// Fault-free latency *with* verification, microseconds.
    pub clean_latency_us: f64,
    /// Pure cost of self-verification (`clean - base`), microseconds —
    /// the overhead a corruption-rate-zero sweep point measures.
    pub verify_overhead_us: f64,
    /// End-to-end latency including aborted attempts, detection,
    /// re-planning, and recovery, microseconds.
    pub total_latency_us: f64,
    /// Full restarts taken (ladder rung 4).
    pub restarts: u32,
    /// Partition-scoped recovery taken, if any (ladder rung 3).
    pub recovery: Option<PartitionRecovery>,
}

impl IntegrityReport {
    /// Wire retransmissions of the completing run.
    pub fn retransmits(&self) -> u64 {
        self.report.stats.retransmits
    }

    /// Deliveries the receiver-side CRC rejected.
    pub fn corruptions_detected(&self) -> u64 {
        self.report.stats.corruptions_detected
    }

    /// Shared-memory publishes redone after a checksum failure.
    pub fn shm_crc_fails(&self) -> u64 {
        self.report.stats.shm_crc_fails
    }

    /// Residual silent-corruption exposure (`detected * 2^-32`).
    pub fn undetected_risk(&self) -> f64 {
        self.report.stats.undetected_risk
    }

    /// Which degradation-ladder rungs this run exercised, ascending —
    /// the coverage export consumed by the chaos campaign engine.
    pub fn rungs(&self) -> Vec<LadderRung> {
        let mut out = Vec::new();
        if self.retransmits() > 0 {
            out.push(LadderRung::WireRetransmit);
        }
        if self.shm_crc_fails() > 0 {
            out.push(LadderRung::ShmRedo);
        }
        if self.recovery.is_some() {
            out.push(LadderRung::PartitionRereduce);
        }
        if self.restarts > 0 {
            out.push(LadderRung::FullRestart);
        }
        out
    }

    /// Slowdown of the end-to-end verified run over the unverified
    /// fault-free baseline, as a fraction (0.03 = 3%).
    pub fn overhead_fraction(&self) -> f64 {
        if self.base_latency_us == 0.0 {
            0.0
        } else {
            self.total_latency_us / self.base_latency_us - 1.0
        }
    }
}

/// Run `alg` under `plan` with the full integrity ladder. On success the
/// result provably holds every rank's contribution over the whole vector
/// and matches the fault-free baseline segment-for-segment; on failure
/// the error is structured, never a silently wrong answer.
pub fn run_allreduce_verified(
    preset: &Preset,
    spec: &ClusterSpec,
    alg: Algorithm,
    bytes: u64,
    plan: &FaultPlan,
    policy: IntegrityPolicy,
) -> Result<IntegrityReport, VerifiedError> {
    let map = RankMap::block(spec);
    let vs = policy.verify_secs(bytes);

    let base_world = alg.build(&map, bytes)?;
    let mut world = base_world.clone();
    append_verify(&mut world, vs);

    // Fault-free baselines keep the plan's noise and link faults (they
    // perturb timing, never data) but scrub everything the ladder heals.
    let scrubbed = FaultPlan {
        data: DataFaults::default(),
        process: ProcessFaults::default(),
        ..plan.clone()
    };
    let base = simulate(preset, &map, &base_world, &Exec::faulted(&scrubbed, 0))?;
    let clean = simulate(preset, &map, &world, &Exec::faulted(&scrubbed, 0))?;
    clean.verify_allreduce().map_err(RunError::Verify)?;
    let baselines = Baselines {
        base_latency_us: base.latency_us(),
        clean_latency_us: clean.latency_us(),
    };

    let mut penalty_us = 0.0;
    let mut restarts = 0u32;
    loop {
        let attempt_plan = reseed(plan, restarts);
        let exec = Exec::faulted(&attempt_plan, restarts);
        match simulate(preset, &map, &world, &exec) {
            Ok(report) => {
                let total = penalty_us + report.latency_us();
                return finish(alg, bytes, report, &clean, baselines, total, restarts, None);
            }
            Err(RunError::Sim(SimError::RetryBudgetExhausted {
                src,
                dst,
                attempts,
                at,
            })) => {
                // DPML's phase-1 deposits are durable in node shared
                // memory, so an exhausted *inter-node* transfer (always
                // phase 3, between leaders of one partition) only loses
                // that partition. Shm exhaustion (`src == dst`) means the
                // deposits themselves never landed: restart.
                if let Algorithm::Dpml { leaders, inner } = alg {
                    if src != dst {
                        return recover_partition(
                            preset, &map, leaders, inner, alg, bytes, plan, &policy, vs, &clean,
                            baselines, penalty_us, restarts, dst, attempts, at,
                        );
                    }
                }
                if restarts >= policy.max_restarts {
                    return Err(IntegrityError {
                        kind: IntegrityErrorKind::BudgetExhausted,
                        attempts,
                        detail: format!(
                            "transfer {src} -> {dst} unrecoverable after {attempts} delivery \
                             attempts and {restarts} full restarts"
                        ),
                    }
                    .into());
                }
                penalty_us += at * 1e6;
                restarts += 1;
            }
            Err(other) => return Err(other.into()),
        }
    }
}

#[derive(Clone, Copy)]
struct Baselines {
    base_latency_us: f64,
    clean_latency_us: f64,
}

/// Ladder rung 3: re-reduce one partition from the intact shared-memory
/// deposits. The continuation runs under reseeded data faults (the wire
/// is as hostile as before) and may itself need several passes.
#[allow(clippy::too_many_arguments)]
fn recover_partition(
    preset: &Preset,
    map: &RankMap,
    leaders: u32,
    inner: FlatAlg,
    alg: Algorithm,
    bytes: u64,
    plan: &FaultPlan,
    policy: &IntegrityPolicy,
    verify_secs: f64,
    clean: &RunReport,
    baselines: Baselines,
    penalty_us: f64,
    restarts: u32,
    dst: u32,
    attempts: u32,
    at: f64,
) -> Result<IntegrityReport, VerifiedError> {
    let set = LeaderPolicy::PerNode(leaders)
        .build(map)
        .map_err(RunError::from)?;
    let Some(j) = set.leader_index(Rank(dst)) else {
        return Err(IntegrityError {
            kind: IntegrityErrorKind::RecoveryFailed,
            attempts,
            detail: format!("receiver rank {dst} is not a leader; cannot scope recovery"),
        }
        .into());
    };
    let cont = partition_continuation(map, &set, j, bytes, inner, verify_secs);

    let detected_at_us = at * 1e6;
    let replan_us = REPLAN_BASE_US + REPLAN_PER_RANK_US * set.leader_comm(j).len() as f64;
    let mut rec_penalty_us = 0.0;
    for pass in 0..policy.max_recovery_passes {
        let pass_plan = reseed(plan, RECOVERY_ROUND_BASE + pass);
        match simulate(preset, map, &cont, &Exec::faulted(&pass_plan, pass)) {
            Ok(report) => {
                let total =
                    penalty_us + detected_at_us + replan_us + rec_penalty_us + report.latency_us();
                let recovery = PartitionRecovery {
                    partition: j,
                    passes: pass + 1,
                    detected_at_us,
                    replan_us,
                };
                return finish(
                    alg,
                    bytes,
                    report,
                    clean,
                    baselines,
                    total,
                    restarts,
                    Some(recovery),
                );
            }
            Err(RunError::Sim(SimError::RetryBudgetExhausted { at, .. })) => {
                rec_penalty_us += at * 1e6;
            }
            Err(other) => return Err(other.into()),
        }
    }
    Err(IntegrityError {
        kind: IntegrityErrorKind::RecoveryFailed,
        attempts,
        detail: format!(
            "partition {j} re-reduction still exhausting its retry budget after {} passes",
            policy.max_recovery_passes
        ),
    }
    .into())
}

/// The self-verifying world that re-reduces partition `j` alone.
fn partition_continuation(
    map: &RankMap,
    set: &LeaderSet,
    j: u32,
    bytes: u64,
    inner: FlatAlg,
    verify_secs: f64,
) -> WorldProgram {
    let mut cont = build_continuation(map, set, bytes, j, inner);
    append_verify(&mut cont, verify_secs);
    cont
}

/// Coverage of a fully-reduced range: every rank's contribution.
fn full_cov(p: u32, start: u64, end: u64) -> CoverageMap {
    let mut m = CoverageMap::empty();
    for r in 0..p {
        m.union_merge(&CoverageMap::singleton(r, start, end), start, end);
    }
    m
}

/// Build the continuation world that resumes a DPML run whose partition
/// `j` lost an inter-leader transfer, from the shared-memory state every
/// node holds at that point:
/// * the gather slots of partition `j` hold each local rank's phase-1
///   deposit;
/// * the publish slots of every other partition hold its full
///   reduction.
///
/// The leaders of partition `j` re-fold the deposits, repeat the
/// inter-node allreduce over `1/l` of the vector, and publish; then every
/// rank copies the whole vector out of the publish slots.
fn build_continuation(
    map: &RankMap,
    set: &LeaderSet,
    bytes: u64,
    j: u32,
    inner: FlatAlg,
) -> WorldProgram {
    let spec = *map.spec();
    let ppn = spec.ppn;
    let l = set.leaders_per_node();
    let p = map.world_size();
    let parts: Vec<ByteRange> = (0..l)
        .map(|i| ByteRange::whole(bytes).subrange(l, i))
        .collect();
    let part = parts[j as usize];
    debug_assert!(!part.is_empty(), "an exhausted transfer carried bytes");
    let mut w = WorldProgram::new(p, bytes);
    let mut b = ProgramBuilder::new();

    let slot_base = b.fresh_shared(l * ppn);
    let slot = |i: u32| BufKey::Shared(slot_base + j * ppn + i);
    let bcast_base = b.fresh_shared(l);

    for (jj, other) in (0..l).zip(&parts) {
        if other.is_empty() {
            continue;
        }
        if jj == j {
            for node in 0..spec.num_nodes {
                let members = map.ranks_on_node(NodeId(node));
                for (i, &r) in members.iter().enumerate() {
                    w.preset_shared(
                        node,
                        slot_base + j * ppn + i as u32,
                        CoverageMap::singleton(r.0, part.start, part.end),
                    );
                }
            }
        } else {
            let cov = full_cov(p, other.start, other.end);
            for node in 0..spec.num_nodes {
                w.preset_shared(node, bcast_base + jj, cov.clone());
            }
        }
    }

    // Phase 2': the leaders of partition `j` re-fold the deposits.
    for node in 0..spec.num_nodes {
        let prog = w.rank(set.leader_rank(NodeId(node), j));
        prog.copy(slot(0), BUF_RESULT, part, false);
        if ppn > 1 {
            let srcs: Vec<BufKey> = (1..ppn).map(slot).collect();
            prog.reduce(srcs, BUF_RESULT, part);
        }
    }

    // Phase 3': partition `j` alone repeats the inter-node allreduce.
    emit_flat_range(&mut w, &mut b, &set.leader_comm(j), BUF_RESULT, part, inner);

    // Phase 4': publish the re-reduced partition, then every rank copies
    // the whole vector out of the publish slots.
    for node in 0..spec.num_nodes {
        let node = NodeId(node);
        let members = map.ranks_on_node(node);
        let publish_done = b.fresh_barrier();
        w.register_barrier(publish_done, members.clone());
        let publisher = set.leader_rank(node, j);
        for &r in &members {
            let my_socket = map.socket_of(r);
            let prog = w.rank(r);
            if r == publisher {
                prog.copy(BUF_RESULT, BufKey::Shared(bcast_base + j), part, false);
            }
            prog.barrier(publish_done);
            for (jj, other) in (0..l).zip(&parts) {
                let leader = set.leader_rank(node, jj);
                if other.is_empty() || (jj == j && leader == r) {
                    continue;
                }
                let cross = map.socket_of(leader) != my_socket;
                prog.copy(BufKey::Shared(bcast_base + jj), BUF_RESULT, *other, cross);
            }
        }
    }
    w
}

/// Gatekeeper every success path funnels through: the completed run must
/// verify end-to-end *and* match the fault-free baseline's result
/// coverage segment-for-segment before the caller sees a report.
#[allow(clippy::too_many_arguments)]
fn finish(
    alg: Algorithm,
    bytes: u64,
    report: RunReport,
    clean: &RunReport,
    baselines: Baselines,
    total_latency_us: f64,
    restarts: u32,
    recovery: Option<PartitionRecovery>,
) -> Result<IntegrityReport, VerifiedError> {
    if let Err(e) = report.verify_allreduce() {
        return Err(IntegrityError {
            kind: IntegrityErrorKind::VerifyMismatch,
            attempts: 0,
            detail: format!("end-to-end verification failed: {e}"),
        }
        .into());
    }
    if !results_match(&report, clean) {
        return Err(IntegrityError {
            kind: IntegrityErrorKind::VerifyMismatch,
            attempts: 0,
            detail: "result coverage diverged from the fault-free baseline".into(),
        }
        .into());
    }
    Ok(IntegrityReport {
        algorithm: alg.name(),
        bytes,
        report,
        base_latency_us: baselines.base_latency_us,
        clean_latency_us: baselines.clean_latency_us,
        verify_overhead_us: baselines.clean_latency_us - baselines.base_latency_us,
        total_latency_us,
        restarts,
        recovery,
    })
}

/// Restart rounds and recovery passes must see fresh fault draws, or a
/// re-run would hit the identical failure forever. Keep round 0 the
/// original plan so a clean first attempt stays bit-identical to
/// [`crate::run::run`] under the same plan.
fn reseed(plan: &FaultPlan, round: u32) -> FaultPlan {
    if round == 0 {
        return plan.clone();
    }
    FaultPlan {
        seed: plan.seed ^ u64::from(round).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        ..plan.clone()
    }
}

/// Offset separating recovery-pass reseeds from restart reseeds.
const RECOVERY_ROUND_BASE: u32 = 64;

/// Append the per-rank result-checksum compute that makes the schedule
/// self-verifying. Applied identically to baselines and faulted worlds.
fn append_verify(world: &mut WorldProgram, secs: f64) {
    for prog in &mut world.programs {
        prog.set_phase(Phase::App);
        prog.compute(secs);
    }
}

/// Semantic per-rank result equality: same segment boundaries, same
/// contributor sets. (Structural `==` on [`dpml_engine::CoverageMap`]
/// would also compare `RankSet` word-vector lengths, which delivery
/// order can legitimately vary.)
fn results_match(a: &RunReport, b: &RunReport) -> bool {
    a.result_coverage.len() == b.result_coverage.len()
        && a.result_coverage
            .iter()
            .zip(&b.result_coverage)
            .all(|(x, y)| {
                let xs: Vec<_> = x.segments().collect();
                let ys: Vec<_> = y.segments().collect();
                xs.len() == ys.len()
                    && xs
                        .iter()
                        .zip(&ys)
                        .all(|((s1, e1, r1), (s2, e2, r2))| s1 == s2 && e1 == e2 && r1.set_eq(r2))
            })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpml_fabric::presets::cluster_b;

    fn dpml2() -> Algorithm {
        Algorithm::Dpml {
            leaders: 2,
            inner: FlatAlg::RecursiveDoubling,
        }
    }

    fn wire_plan(seed: u64, corruption: f64, drop: f64, budget: u32) -> FaultPlan {
        FaultPlan {
            seed,
            data: DataFaults {
                max_retransmits: budget,
                ..DataFaults::wire(corruption, drop)
            },
            ..FaultPlan::zero()
        }
    }

    #[test]
    fn zero_plan_adds_only_verification_overhead() {
        let p = cluster_b();
        let spec = p.spec(4, 4).unwrap();
        let rep = run_allreduce_verified(
            &p,
            &spec,
            dpml2(),
            1 << 18,
            &FaultPlan::zero(),
            IntegrityPolicy::default(),
        )
        .unwrap();
        assert_eq!(rep.restarts, 0);
        assert!(rep.recovery.is_none());
        assert_eq!(rep.retransmits(), 0);
        assert_eq!(rep.corruptions_detected(), 0);
        assert_eq!(rep.undetected_risk(), 0.0);
        // No faults: the run IS the verified baseline.
        assert_eq!(
            rep.total_latency_us.to_bits(),
            rep.clean_latency_us.to_bits()
        );
        assert!(rep.verify_overhead_us > 0.0);
        assert!(
            rep.overhead_fraction() < 0.05,
            "verification must stay under a few percent, got {:.3}",
            rep.overhead_fraction()
        );
    }

    #[test]
    fn corruption_retransmits_and_result_matches_baseline() {
        let p = cluster_b();
        let spec = p.spec(4, 4).unwrap();
        // Hostile wire, deep budget: detection + retransmit must fully
        // absorb the faults without restarts or recovery.
        let plan = wire_plan(3, 0.2, 0.1, 64);
        let rep = run_allreduce_verified(
            &p,
            &spec,
            dpml2(),
            1 << 18,
            &plan,
            IntegrityPolicy::default(),
        )
        .unwrap();
        assert!(rep.retransmits() > 0);
        assert!(rep.corruptions_detected() > 0);
        assert!(rep.undetected_risk() > 0.0 && rep.undetected_risk() < 1e-6);
        assert!(rep.total_latency_us > rep.clean_latency_us);

        // Determinism: the same plan replays bit-identically.
        let again = run_allreduce_verified(
            &p,
            &spec,
            dpml2(),
            1 << 18,
            &plan,
            IntegrityPolicy::default(),
        )
        .unwrap();
        assert_eq!(
            rep.total_latency_us.to_bits(),
            again.total_latency_us.to_bits()
        );
        assert_eq!(rep.retransmits(), again.retransmits());
    }

    #[test]
    fn exhausted_interleader_budget_recovers_one_partition() {
        let p = cluster_b();
        let spec = p.spec(4, 4).unwrap();
        // Shallow budget so a phase-3 transfer exhausts it (seed 9 hits
        // partition 1); the reseeded recovery passes then get the
        // partition through.
        let plan = wire_plan(9, 0.25, 0.1, 2);
        let rep = run_allreduce_verified(
            &p,
            &spec,
            dpml2(),
            1 << 18,
            &plan,
            IntegrityPolicy {
                max_recovery_passes: 8,
                ..IntegrityPolicy::default()
            },
        )
        .unwrap();
        let rec = rep.recovery.as_ref().expect("expected partition recovery");
        assert_eq!(rec.partition, 1);
        assert_eq!(rec.passes, 2);
        assert!(rec.detected_at_us > 0.0);
        assert!(
            rep.total_latency_us > rec.detected_at_us + rec.replan_us,
            "end-to-end latency must include detection and re-planning"
        );
    }

    /// Pins rung 3 to the bit: the benchmark's retry budget never fires
    /// it, and neither the corpus nor the integrity figure reaches it.
    #[test]
    fn partition_rereduce_continuation_is_pinned() {
        let p = cluster_b();
        let spec = p.spec(4, 4).unwrap();
        let policy = IntegrityPolicy {
            max_recovery_passes: 8,
            ..IntegrityPolicy::default()
        };
        let rep = run_allreduce_verified(
            &p,
            &spec,
            dpml2(),
            1 << 18,
            &wire_plan(9, 0.25, 0.1, 2),
            policy,
        )
        .unwrap();
        assert_eq!(rep.recovery.as_ref().map(|r| r.partition), Some(1));
        let map = RankMap::block(&spec);
        let set = LeaderPolicy::PerNode(2).build(&map).unwrap();
        let cont = partition_continuation(
            &map,
            &set,
            1,
            1 << 18,
            FlatAlg::RecursiveDoubling,
            policy.verify_secs(1 << 18),
        );
        assert_eq!(cont.total_instrs(), 104);
        assert_eq!(rep.total_latency_us.to_bits(), 4653409975645272828);
    }

    #[test]
    fn hopeless_wire_degrades_to_structured_error() {
        let p = cluster_b();
        let spec = p.spec(4, 4).unwrap();
        // Every delivery corrupt: no rung of the ladder can help.
        let plan = wire_plan(1, 1.0, 0.0, 2);
        let err = run_allreduce_verified(
            &p,
            &spec,
            dpml2(),
            1 << 16,
            &plan,
            IntegrityPolicy::default(),
        )
        .unwrap_err();
        let VerifiedError::Integrity(e) = err else {
            panic!("expected an integrity error, got {err:?}");
        };
        assert_eq!(e.kind, IntegrityErrorKind::RecoveryFailed);
        assert!(
            e.attempts >= 3,
            "budget 2 means 3 attempts, got {}",
            e.attempts
        );

        // A flat algorithm has no durable deposits: restart path, then
        // BudgetExhausted.
        let err = run_allreduce_verified(
            &p,
            &spec,
            Algorithm::Ring,
            1 << 16,
            &plan,
            IntegrityPolicy::default(),
        )
        .unwrap_err();
        let VerifiedError::Integrity(e) = err else {
            panic!("expected an integrity error, got {err:?}");
        };
        assert_eq!(e.kind, IntegrityErrorKind::BudgetExhausted);
    }

    #[test]
    fn flat_algorithm_restarts_until_a_quiet_run() {
        let p = cluster_b();
        let spec = p.spec(2, 4).unwrap();
        // Shallow budget on a moderately hostile wire: the ring run dies
        // sometimes and restarts reseed until an attempt survives.
        let plan = wire_plan(2, 0.35, 0.1, 2);
        let rep = run_allreduce_verified(
            &p,
            &spec,
            Algorithm::Ring,
            1 << 16,
            &plan,
            IntegrityPolicy {
                max_restarts: 20,
                ..IntegrityPolicy::default()
            },
        )
        .unwrap();
        assert!(
            rep.recovery.is_none(),
            "flat algorithms never partition-recover"
        );
        assert!(rep.total_latency_us >= rep.report.latency_us());
    }
}
