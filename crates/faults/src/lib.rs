//! Deterministic, seeded fault-injection plans for the cluster simulator.
//!
//! Real clusters are never the pristine machines a paper's evaluation runs
//! on: cores take OS-noise interrupts, links flap or run degraded, and the
//! switch refuses SHArP group allocations under pressure. A [`FaultPlan`]
//! describes those perturbations declaratively; the engine executes them
//! (see `dpml-engine::Simulator::with_faults`) and `dpml-core` layers
//! retry/fallback policy on top.
//!
//! Design rules:
//!
//! * **Deterministic.** All jitter derives from `(seed, rank, draw
//!   counter)` through a splitmix64 hash — the same plan replays the same
//!   run, bit for bit, which keeps fault experiments diffable.
//! * **Pay for what you use.** A zero plan ([`FaultPlan::zero`] or
//!   [`FaultPlan::canonical`] at intensity `0.0`) perturbs *nothing*: every
//!   noise factor is exactly `1.0` and no link events are scheduled, so
//!   simulated latencies are bit-identical to a fault-free run.

use serde::{Deserialize, Serialize};

pub mod mutate;
pub mod retry;
pub mod storage;
pub use mutate::{
    clamp_to_world, fault_count, mutate, narrow_candidates, shrink_candidates, Mutator,
};
pub use retry::{RetryPlan, RETRY_JITTER_SALT};
pub use storage::{StorageFaultCounts, StorageFaultPlan, StorageFaults, WriteFault};

/// Smallest message-rate factor honored by the engine: a slower NIC still
/// serves its queue in finite time (a zero rate would schedule an event at
/// `t = +inf`, which virtual time rejects). Use [`LinkFault::bw_factor`]
/// `= 0.0` to model a fully severed link instead.
pub const MIN_MSG_RATE_FACTOR: f64 = 1e-3;

/// splitmix64: the canonical 64-bit finalizer-style mixer. Public so tests
/// and harnesses can reproduce the engine's draws.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a 64-bit over raw bytes: the stable, dependency-free content hash
/// behind serve job digests, checkpoint cursor chains and chaos outcome
/// digests.
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Hash `(seed, rank, counter)` to a uniform f64 in `[0, 1)`.
#[inline]
pub fn u01(seed: u64, rank: u32, counter: u64) -> f64 {
    let h = splitmix64(seed ^ splitmix64((rank as u64) << 32 | 0x5bf0_3635).wrapping_add(counter));
    // 53 mantissa bits -> [0, 1).
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Per-core OS noise and straggler model.
///
/// Every local occupancy (compute step, copy/reduce startup, shared-memory
/// injection) is stretched by an independent factor
/// `1 + intensity * u01(seed, rank, draw)`; a designated straggler rank is
/// additionally slowed by a constant multiplier on every draw.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct NoiseModel {
    /// Jitter amplitude: `0.0` = silent (factors are exactly `1.0`),
    /// `1.0` = every local occupancy stretched by up to 2x.
    pub intensity: f64,
    /// Optional constant-factor straggler.
    pub straggler: Option<Straggler>,
}

/// One persistently slow rank (a throttled or oversubscribed core).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Straggler {
    /// Global rank to slow down.
    pub rank: u32,
    /// Multiplier (>= 1.0) applied to all its local occupancies.
    pub slowdown: f64,
}

impl NoiseModel {
    /// The stretch factor for rank `rank`'s `counter`-th draw.
    ///
    /// Exactly `1.0` when `intensity == 0` and the rank is not a straggler
    /// — the zero plan must not move a single bit of timing.
    #[inline]
    pub fn factor(&self, seed: u64, rank: u32, counter: u64) -> f64 {
        let straggle = match self.straggler {
            Some(s) if s.rank == rank => s.slowdown,
            _ => 1.0,
        };
        if self.intensity == 0.0 {
            return straggle;
        }
        (1.0 + self.intensity * u01(seed, rank, counter)) * straggle
    }

    /// True when this model perturbs nothing.
    pub fn is_zero(&self) -> bool {
        self.intensity == 0.0 && self.straggler.is_none()
    }
}

/// A link/NIC degradation window.
///
/// While active (`start <= t < end`), the node's NIC tx/rx capacities are
/// scaled by `bw_factor` and its message-rate server by
/// `msg_rate_factor`. Overlapping windows compound multiplicatively.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkFault {
    /// Affected node, or `None` for every node (fabric-wide brownout).
    pub node: Option<u32>,
    /// Window start, seconds of virtual time.
    pub start: f64,
    /// Window end, seconds; `None` = never restored.
    pub end: Option<f64>,
    /// NIC bandwidth multiplier in `[0, 1]`; `0.0` severs the link.
    pub bw_factor: f64,
    /// Message-rate multiplier in `(0, 1]` (clamped up to
    /// [`MIN_MSG_RATE_FACTOR`] by the engine).
    pub msg_rate_factor: f64,
}

impl LinkFault {
    /// Whether the window is active at virtual time `t` for `node`.
    #[inline]
    pub fn active(&self, node: u32, t: f64) -> bool {
        (self.node.is_none() || self.node == Some(node))
            && t >= self.start
            && self.end.is_none_or(|e| t < e)
    }
}

/// SHArP resource faults (Section 4.3's designs assume the switch always
/// grants a group and finishes every op; real SHArP daemons do neither).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct SharpFaults {
    /// The switch refuses group allocation outright: every `Sharp`
    /// instruction fails immediately with `SimError::SharpDenied`.
    pub deny_groups: bool,
    /// The first `flaky_attempts` run attempts hang every SHArP op; the
    /// engine's op watchdog converts the hang into
    /// `SimError::SharpTimeout` after [`SharpFaults::op_timeout`].
    pub flaky_attempts: u32,
    /// Virtual seconds the op watchdog waits before declaring a hung op
    /// timed out (only used on flaky attempts).
    pub op_timeout: f64,
}

impl SharpFaults {
    /// True when SHArP is unperturbed.
    pub fn is_zero(&self) -> bool {
        !self.deny_groups && self.flaky_attempts == 0
    }
}

/// One fail-stop process crash: the rank executes normally until
/// `crash_at` seconds of virtual time, then dies instantly — in-flight
/// sends, receives, and local reductions involving it are aborted, never
/// retried.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProcessFault {
    /// Global rank that dies.
    pub rank: u32,
    /// Virtual crash time, seconds (`>= 0`).
    pub crash_at: f64,
}

/// Fail-stop faults: individual process crashes plus permanent node loss.
///
/// Unlike the slowdown faults above, these are not absorbed by waiting —
/// the engine surfaces a structured `RankDead` outcome and `dpml-core`'s
/// healing planner decides whether the collective can be completed by the
/// survivors (see `dpml-core::heal`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProcessFaults {
    /// Individual rank crashes, each at its own virtual time.
    pub crashes: Vec<ProcessFault>,
    /// Nodes lost outright: every rank bound to the node is dead from
    /// `t = 0` and the node's shared memory is gone (no healing possible
    /// from its gather slots).
    pub lost_nodes: Vec<u32>,
    /// Virtual seconds survivors take to notice a peer's death (heartbeat
    /// timeout). Accounted into `RecoveryReport::detected_at_us`.
    pub detection_timeout: f64,
}

/// Default heartbeat timeout: 100us of virtual time.
pub const DEFAULT_DETECTION_TIMEOUT: f64 = 100e-6;

impl Default for ProcessFaults {
    fn default() -> Self {
        ProcessFaults {
            crashes: Vec::new(),
            lost_nodes: Vec::new(),
            detection_timeout: DEFAULT_DETECTION_TIMEOUT,
        }
    }
}

impl ProcessFaults {
    /// True when no process ever dies (the detection timeout is then
    /// irrelevant: a zero-crash plan must stay bit-identical to fault-free).
    pub fn is_zero(&self) -> bool {
        self.crashes.is_empty() && self.lost_nodes.is_empty()
    }

    /// A single crash at `crash_at` with the default detection timeout.
    pub fn single(rank: u32, crash_at: f64) -> Self {
        ProcessFaults {
            crashes: vec![ProcessFault { rank, crash_at }],
            ..Default::default()
        }
    }

    /// Derive `count` seeded crashes among ranks `0..p`: victims and crash
    /// times are hashed from `seed` so a scenario replays exactly. Crash
    /// times fall in `[window.0, window.1)`.
    ///
    /// An inverted or NaN window would silently produce crash times
    /// outside the caller's intent (or NaN times that poison the event
    /// queue), so it is rejected up front as a [`PlanError`] — the same
    /// check [`FaultPlan::validate`] applies to stored windows.
    pub fn seeded(seed: u64, p: u32, count: u32, window: (f64, f64)) -> Result<Self, PlanError> {
        if p == 0 {
            return Err(PlanError::new("seeded crashes need a world size > 0"));
        }
        validate_window("process crash window", window.0, window.1)?;
        let mut crashes = Vec::new();
        for i in 0..count.min(p) {
            let victim = (u01(seed, i, 0x0dead) * p as f64) as u32 % p;
            // Linear-probe away from already-chosen victims so `count`
            // distinct ranks die.
            let mut rank = victim;
            while crashes.iter().any(|c: &ProcessFault| c.rank == rank) {
                rank = (rank + 1) % p;
            }
            let t = window.0 + u01(seed, i, 0xbeef) * (window.1 - window.0);
            crashes.push(ProcessFault { rank, crash_at: t });
        }
        Ok(ProcessFaults {
            crashes,
            ..Default::default()
        })
    }
}

/// Reject inverted, NaN, infinite, or negative `[start, end)` windows.
fn validate_window(what: &str, start: f64, end: f64) -> Result<(), PlanError> {
    if !start.is_finite() || !end.is_finite() {
        return Err(PlanError::new(format!(
            "{what} must be finite, got [{start}, {end})"
        )));
    }
    if start < 0.0 {
        return Err(PlanError::new(format!(
            "{what} must start at >= 0, got [{start}, {end})"
        )));
    }
    if end < start {
        return Err(PlanError::new(format!(
            "{what} is inverted: [{start}, {end})"
        )));
    }
    Ok(())
}

/// Salt separating wire-corruption draws from the noise-model draw stream
/// (both are keyed by `(seed, rank, counter)`; without a salt, data draw
/// `k` would equal noise draw `k` bit-for-bit).
pub const DATA_DRAW_SALT: u64 = 0x5eed_da7a_c0de_c0de;

/// What the fabric did to one wire message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFault {
    /// Arrived intact.
    Delivered,
    /// Arrived with a payload the receiver's CRC32C check rejects.
    Corrupted,
    /// Silently dropped; only the sender's retransmission timeout notices.
    Dropped,
}

/// Silent-data-corruption faults: wire corruption/drops plus
/// shared-memory bit flips.
///
/// Unlike every other fault class, these do not merely cost time — an
/// unhandled data fault produces a *wrong answer*. The engine pairs this
/// model with a CRC32C-checked transport (detect at the receiver, NACK or
/// time out, retransmit with capped exponential backoff) and the
/// shared-memory runtime with checksum-on-publish, so a plan with data
/// faults either completes bit-identical to a fault-free run or surfaces
/// a structured error once [`DataFaults::max_retransmits`] is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DataFaults {
    /// Per-message probability an inter-node payload arrives corrupted
    /// (always detected by the receiver's CRC check).
    pub corruption_rate: f64,
    /// Per-message probability the fabric drops the message outright
    /// (detected only by the sender's retransmission timeout).
    pub drop_rate: f64,
    /// Per-publish probability a shared-memory deposit is bit-flipped
    /// before its readers consume it.
    pub shm_flip_rate: f64,
    /// Optional burst window `[start, end)` in virtual seconds: the rates
    /// apply only inside it. `None` = faults active for the whole run.
    pub burst: Option<(f64, f64)>,
    /// Per-message retry budget before the engine gives up with
    /// `RetryBudgetExhausted` (never a wrong delivery).
    pub max_retransmits: u32,
    /// Sender retransmission timeout for silent drops, seconds. Doubles
    /// per attempt, capped at 16x.
    pub ack_timeout: f64,
    /// Base backoff after a receiver-detected corruption NACK, seconds.
    /// Doubles per attempt, capped at 16x.
    pub backoff: f64,
}

/// Default drop RTO: 20us of virtual time (a few wire round trips).
pub const DEFAULT_ACK_TIMEOUT: f64 = 20e-6;
/// Default post-NACK backoff: 2us of virtual time.
pub const DEFAULT_NACK_BACKOFF: f64 = 2e-6;
/// Default per-message retry budget.
pub const DEFAULT_RETRY_BUDGET: u32 = 8;
/// Exponential-backoff cap: delays stop doubling after 4 attempts.
const BACKOFF_CAP_DOUBLINGS: u32 = 4;

impl Default for DataFaults {
    fn default() -> Self {
        DataFaults {
            corruption_rate: 0.0,
            drop_rate: 0.0,
            shm_flip_rate: 0.0,
            burst: None,
            max_retransmits: DEFAULT_RETRY_BUDGET,
            ack_timeout: DEFAULT_ACK_TIMEOUT,
            backoff: DEFAULT_NACK_BACKOFF,
        }
    }
}

impl DataFaults {
    /// True when no data fault can ever fire (the protocol knobs are then
    /// irrelevant: the engine must not draw a single hash).
    pub fn is_zero(&self) -> bool {
        self.corruption_rate == 0.0 && self.drop_rate == 0.0 && self.shm_flip_rate == 0.0
    }

    /// Wire faults at the given rates, default protocol knobs.
    pub fn wire(corruption_rate: f64, drop_rate: f64) -> Self {
        DataFaults {
            corruption_rate,
            drop_rate,
            ..Default::default()
        }
    }

    /// Whether the rates apply at virtual time `t`.
    #[inline]
    pub fn active(&self, t: f64) -> bool {
        match self.burst {
            None => true,
            Some((s, e)) => t >= s && t < e,
        }
    }

    /// Classify rank `rank`'s `counter`-th wire message arriving at `t`.
    /// One uniform draw decides: `[0, drop)` → dropped, `[drop, drop +
    /// corruption)` → corrupted, rest delivered.
    #[inline]
    pub fn wire_outcome(&self, seed: u64, rank: u32, counter: u64, t: f64) -> WireFault {
        if !self.active(t) {
            return WireFault::Delivered;
        }
        let u = u01(seed ^ DATA_DRAW_SALT, rank, counter);
        if u < self.drop_rate {
            WireFault::Dropped
        } else if u < self.drop_rate + self.corruption_rate {
            WireFault::Corrupted
        } else {
            WireFault::Delivered
        }
    }

    /// Whether rank `rank`'s `counter`-th shared-memory publish at `t` is
    /// bit-flipped.
    #[inline]
    pub fn flips_shm(&self, seed: u64, rank: u32, counter: u64, t: f64) -> bool {
        self.active(t) && u01(seed ^ DATA_DRAW_SALT, rank, counter) < self.shm_flip_rate
    }

    /// The wire protocol's retry schedule as a reusable [`RetryPlan`]:
    /// the NACK backoff base when the receiver detects corruption, the
    /// full RTO base for silent drops; jitter-free (the simulator's
    /// virtual clock needs no decorrelation, and golden-locked runs must
    /// not move), budgeted by [`DataFaults::max_retransmits`].
    #[inline]
    pub fn retry_plan(&self, detected: bool) -> RetryPlan {
        let base = if detected {
            self.backoff
        } else {
            self.ack_timeout
        };
        RetryPlan::capped_exponential(base, BACKOFF_CAP_DOUBLINGS, self.max_retransmits)
    }

    /// Delay before retransmission attempt `attempt` (0-based): the NACK
    /// backoff when the receiver detected the corruption, the full RTO
    /// when the drop was silent; doubling per attempt, capped — the
    /// envelope of [`DataFaults::retry_plan`].
    #[inline]
    pub fn retransmit_delay(&self, attempt: u32, detected: bool) -> f64 {
        self.retry_plan(detected).envelope(attempt)
    }
}

/// A complete, deterministic fault scenario.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultPlan {
    /// Seed for all jitter draws.
    pub seed: u64,
    /// Per-core OS noise / straggler model.
    pub noise: NoiseModel,
    /// Link/NIC degradation windows.
    pub links: Vec<LinkFault>,
    /// SHArP resource faults.
    pub sharp: SharpFaults,
    /// Fail-stop process faults.
    pub process: ProcessFaults,
    /// Silent-data-corruption faults (wire + shared memory).
    pub data: DataFaults,
}

impl FaultPlan {
    /// The empty plan: injects nothing, perturbs nothing.
    pub fn zero() -> Self {
        FaultPlan {
            seed: 0,
            noise: NoiseModel::default(),
            links: Vec::new(),
            sharp: SharpFaults::default(),
            process: ProcessFaults::default(),
            data: DataFaults::default(),
        }
    }

    /// The canonical intensity-parameterized scenario used by the
    /// `resilience` bench and the `dpml faults` CLI: OS noise at
    /// `intensity`, a fabric-wide brownout to `1 - intensity/2` of nominal
    /// bandwidth and message rate, a deep flap on node 0 between 10us
    /// and 50us, and light wire data faults (corruption at
    /// `0.02 * intensity`, drops at `0.01 * intensity`) that the engine's
    /// checked transport absorbs via retransmission. At `intensity == 0`
    /// this is exactly [`FaultPlan::zero`] (no link events, no data-fault
    /// draws at all), so baselines stay bit-identical.
    pub fn canonical(seed: u64, intensity: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&intensity),
            "intensity must be in [0, 1]"
        );
        let mut links = Vec::new();
        let mut data = DataFaults::default();
        if intensity > 0.0 {
            links.push(LinkFault {
                node: None,
                start: 0.0,
                end: None,
                bw_factor: 1.0 - 0.5 * intensity,
                msg_rate_factor: 1.0 - 0.5 * intensity,
            });
            links.push(LinkFault {
                node: Some(0),
                start: 10e-6,
                end: Some(50e-6),
                bw_factor: (1.0 - intensity).max(0.05),
                msg_rate_factor: (1.0 - intensity).max(0.05),
            });
            data = DataFaults::wire(0.02 * intensity, 0.01 * intensity);
        }
        FaultPlan {
            seed,
            noise: NoiseModel {
                intensity,
                straggler: None,
            },
            links,
            sharp: SharpFaults::default(),
            process: ProcessFaults::default(),
            data,
        }
    }

    /// True when executing the plan is a no-op.
    pub fn is_zero(&self) -> bool {
        self.noise.is_zero()
            && self.links.is_empty()
            && self.sharp.is_zero()
            && self.process.is_zero()
            && self.data.is_zero()
    }

    /// Check every numeric field for values that would poison the engine
    /// (NaN noise factors, events at negative or infinite virtual times,
    /// capacities outside `[0, 1]`). Called automatically on
    /// deserialization so a hand-edited scenario file fails loudly at load
    /// time, not as a NaN latency three layers down.
    pub fn validate(&self) -> Result<(), PlanError> {
        if !self.noise.intensity.is_finite() || self.noise.intensity < 0.0 {
            return Err(PlanError::new(format!(
                "noise.intensity must be finite and >= 0, got {}",
                self.noise.intensity
            )));
        }
        if let Some(s) = self.noise.straggler {
            if !s.slowdown.is_finite() || s.slowdown < 1.0 {
                return Err(PlanError::new(format!(
                    "straggler.slowdown must be finite and >= 1, got {} (rank {})",
                    s.slowdown, s.rank
                )));
            }
        }
        for (i, l) in self.links.iter().enumerate() {
            if !l.start.is_finite() || l.start < 0.0 {
                return Err(PlanError::new(format!(
                    "links[{i}].start must be finite and >= 0, got {}",
                    l.start
                )));
            }
            if let Some(e) = l.end {
                if !e.is_finite() || e < l.start {
                    return Err(PlanError::new(format!(
                        "links[{i}] has negative duration: start {} end {e}",
                        l.start
                    )));
                }
            }
            if !(0.0..=1.0).contains(&l.bw_factor) {
                return Err(PlanError::new(format!(
                    "links[{i}].bw_factor must be in [0, 1], got {}",
                    l.bw_factor
                )));
            }
            if !(0.0..=1.0).contains(&l.msg_rate_factor) {
                return Err(PlanError::new(format!(
                    "links[{i}].msg_rate_factor must be in [0, 1], got {}",
                    l.msg_rate_factor
                )));
            }
        }
        if !self.sharp.op_timeout.is_finite() || self.sharp.op_timeout < 0.0 {
            return Err(PlanError::new(format!(
                "sharp.op_timeout must be finite and >= 0, got {}",
                self.sharp.op_timeout
            )));
        }
        for (i, c) in self.process.crashes.iter().enumerate() {
            if !c.crash_at.is_finite() || c.crash_at < 0.0 {
                return Err(PlanError::new(format!(
                    "process.crashes[{i}]: crash time must be finite and >= 0, \
                     got {} (rank {})",
                    c.crash_at, c.rank
                )));
            }
        }
        if !self.process.detection_timeout.is_finite() || self.process.detection_timeout < 0.0 {
            return Err(PlanError::new(format!(
                "process.detection_timeout must be finite and >= 0, got {}",
                self.process.detection_timeout
            )));
        }
        for (name, rate) in [
            ("data.corruption_rate", self.data.corruption_rate),
            ("data.drop_rate", self.data.drop_rate),
            ("data.shm_flip_rate", self.data.shm_flip_rate),
        ] {
            if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                return Err(PlanError::new(format!(
                    "{name} must be a probability in [0, 1], got {rate}"
                )));
            }
        }
        if self.data.corruption_rate + self.data.drop_rate > 1.0 {
            return Err(PlanError::new(format!(
                "data.corruption_rate + data.drop_rate must not exceed 1, \
                 got {} + {}",
                self.data.corruption_rate, self.data.drop_rate
            )));
        }
        if let Some((s, e)) = self.data.burst {
            validate_window("data.burst window", s, e)?;
        }
        for (name, delay) in [
            ("data.ack_timeout", self.data.ack_timeout),
            ("data.backoff", self.data.backoff),
        ] {
            if !delay.is_finite() || delay < 0.0 {
                return Err(PlanError::new(format!(
                    "{name} must be finite and >= 0, got {delay}"
                )));
            }
        }
        Ok(())
    }
}

/// A fault plan failed validation. Carries a human-readable description of
/// the first offending field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError(String);

impl PlanError {
    fn new(msg: impl Into<String>) -> Self {
        PlanError(msg.into())
    }
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid fault plan: {}", self.0)
    }
}

impl std::error::Error for PlanError {}

/// Field-for-field mirror of [`FaultPlan`] used only to derive the raw
/// decoder; the public `Deserialize` below layers [`FaultPlan::validate`]
/// on top. (The derive macro has no validation hook, so the plan's impl is
/// written by hand.)
#[derive(Deserialize)]
struct RawFaultPlan {
    seed: u64,
    noise: NoiseModel,
    links: Vec<LinkFault>,
    sharp: SharpFaults,
    /// Absent in plans serialized before fail-stop faults existed.
    #[serde(default)]
    process: ProcessFaults,
    /// Absent in plans serialized before data faults existed.
    #[serde(default)]
    data: DataFaults,
}

impl Deserialize for FaultPlan {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let raw = RawFaultPlan::from_value(v)?;
        let plan = FaultPlan {
            seed: raw.seed,
            noise: raw.noise,
            links: raw.links,
            sharp: raw.sharp,
            process: raw.process,
            data: raw.data,
        };
        plan.validate()
            .map_err(|e| serde::Error::custom(e.to_string()))?;
        Ok(plan)
    }
}

/// The engine-facing schedule derived from a plan's link windows: event
/// boundary times and the aggregate (bandwidth, message-rate) factors for
/// a node at a point in virtual time.
#[derive(Debug, Clone)]
pub struct FaultClock<'a> {
    plan: &'a FaultPlan,
}

impl<'a> FaultClock<'a> {
    /// View a plan as a clock.
    pub fn new(plan: &'a FaultPlan) -> Self {
        FaultClock { plan }
    }

    /// All degrade/restore boundary times, sorted and deduplicated. The
    /// engine schedules one capacity-refresh event per boundary; between
    /// boundaries factors are constant.
    pub fn boundaries(&self) -> Vec<f64> {
        let mut ts: Vec<f64> = Vec::new();
        for l in &self.plan.links {
            if l.start.is_finite() && l.start >= 0.0 {
                ts.push(l.start);
            }
            if let Some(e) = l.end {
                if e.is_finite() && e >= 0.0 {
                    ts.push(e);
                }
            }
        }
        ts.sort_by(f64::total_cmp);
        ts.dedup();
        ts
    }

    /// Aggregate `(bw_factor, msg_rate_factor)` for `node` at time `t`.
    /// Overlapping windows compound; the message-rate factor is clamped to
    /// [`MIN_MSG_RATE_FACTOR`] so NIC service stays finite.
    pub fn factors_at(&self, node: u32, t: f64) -> (f64, f64) {
        let mut bw = 1.0;
        let mut mr = 1.0;
        for l in &self.plan.links {
            if l.active(node, t) {
                bw *= l.bw_factor.clamp(0.0, 1.0);
                mr *= l.msg_rate_factor.clamp(0.0, 1.0);
            }
        }
        (bw, mr.max(MIN_MSG_RATE_FACTOR))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn zero_plan_is_silent() {
        let p = FaultPlan::zero();
        assert!(p.is_zero());
        assert_eq!(p.noise.factor(1, 0, 0), 1.0);
        assert!(FaultClock::new(&p).boundaries().is_empty());
        assert_eq!(FaultClock::new(&p).factors_at(3, 1.0), (1.0, 1.0));
    }

    #[test]
    fn canonical_zero_intensity_equals_zero_plan_behavior() {
        let p = FaultPlan::canonical(42, 0.0);
        assert!(p.is_zero());
        // Factors must be bit-exactly 1.0 for every (rank, draw).
        for r in 0..64 {
            for c in 0..16 {
                assert_eq!(p.noise.factor(p.seed, r, c).to_bits(), 1.0f64.to_bits());
            }
        }
    }

    #[test]
    fn noise_is_deterministic_and_bounded() {
        let n = NoiseModel {
            intensity: 0.5,
            straggler: None,
        };
        for r in 0..32 {
            for c in 0..32 {
                let a = n.factor(7, r, c);
                let b = n.factor(7, r, c);
                assert_eq!(a, b);
                assert!((1.0..1.5).contains(&a), "factor {a}");
            }
        }
        // Different draws differ (overwhelmingly likely for a good mixer).
        assert_ne!(n.factor(7, 0, 0), n.factor(7, 0, 1));
        assert_ne!(n.factor(7, 0, 0), n.factor(8, 0, 0));
    }

    #[test]
    fn straggler_multiplies() {
        let n = NoiseModel {
            intensity: 0.0,
            straggler: Some(Straggler {
                rank: 3,
                slowdown: 4.0,
            }),
        };
        assert_eq!(n.factor(0, 3, 0), 4.0);
        assert_eq!(n.factor(0, 2, 0), 1.0);
        let with_noise = NoiseModel {
            intensity: 0.5,
            ..n
        };
        assert!(with_noise.factor(0, 3, 0) >= 4.0);
    }

    #[test]
    fn link_windows_activate_and_restore() {
        let f = LinkFault {
            node: Some(1),
            start: 2.0,
            end: Some(5.0),
            bw_factor: 0.5,
            msg_rate_factor: 0.5,
        };
        assert!(!f.active(1, 1.9));
        assert!(f.active(1, 2.0));
        assert!(f.active(1, 4.999));
        assert!(!f.active(1, 5.0)); // boundary restores
        assert!(!f.active(0, 3.0)); // other node untouched
        let all = LinkFault { node: None, ..f };
        assert!(all.active(0, 3.0) && all.active(7, 3.0));
    }

    #[test]
    fn clock_compounds_overlaps_and_clamps() {
        let plan = FaultPlan {
            seed: 0,
            noise: NoiseModel::default(),
            links: vec![
                LinkFault {
                    node: None,
                    start: 0.0,
                    end: None,
                    bw_factor: 0.5,
                    msg_rate_factor: 0.5,
                },
                LinkFault {
                    node: Some(0),
                    start: 1.0,
                    end: Some(2.0),
                    bw_factor: 0.0,
                    msg_rate_factor: 0.0,
                },
            ],
            sharp: SharpFaults::default(),
            process: ProcessFaults::default(),
            data: DataFaults::default(),
        };
        let clk = FaultClock::new(&plan);
        assert_eq!(clk.boundaries(), vec![0.0, 1.0, 2.0]);
        assert_eq!(clk.factors_at(0, 0.5), (0.5, 0.5));
        let (bw, mr) = clk.factors_at(0, 1.5);
        assert_eq!(bw, 0.0);
        assert_eq!(mr, MIN_MSG_RATE_FACTOR); // clamped, never zero
        assert_eq!(clk.factors_at(1, 1.5), (0.5, 0.5)); // node 1 sees only the brownout
        assert_eq!(clk.factors_at(0, 2.5), (0.5, 0.5)); // flap restored
    }

    #[test]
    fn canonical_scales_with_intensity() {
        let lo = FaultPlan::canonical(1, 0.2);
        let hi = FaultPlan::canonical(1, 0.9);
        let (bw_lo, _) = FaultClock::new(&lo).factors_at(5, 0.0);
        let (bw_hi, _) = FaultClock::new(&hi).factors_at(5, 0.0);
        assert!(bw_hi < bw_lo && bw_lo < 1.0);
    }

    #[test]
    #[should_panic(expected = "intensity")]
    fn canonical_rejects_out_of_range() {
        let _ = FaultPlan::canonical(0, 1.5);
    }

    #[test]
    fn plans_round_trip_serde() {
        let p = FaultPlan {
            seed: 9,
            noise: NoiseModel {
                intensity: 0.3,
                straggler: Some(Straggler {
                    rank: 2,
                    slowdown: 3.0,
                }),
            },
            links: vec![LinkFault {
                node: Some(1),
                start: 1e-6,
                end: None,
                bw_factor: 0.7,
                msg_rate_factor: 0.9,
            }],
            sharp: SharpFaults {
                deny_groups: true,
                flaky_attempts: 2,
                op_timeout: 1e-4,
            },
            process: ProcessFaults {
                crashes: vec![ProcessFault {
                    rank: 5,
                    crash_at: 3e-4,
                }],
                lost_nodes: vec![2],
                detection_timeout: 5e-5,
            },
            data: DataFaults {
                corruption_rate: 0.05,
                drop_rate: 0.01,
                shm_flip_rate: 0.002,
                burst: Some((1e-5, 4e-5)),
                max_retransmits: 3,
                ack_timeout: 1e-5,
                backoff: 1e-6,
            },
        };
        let json = serde_json::to_string(&p).unwrap();
        let q: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn legacy_plans_without_process_field_still_load() {
        // Plans serialized before fail-stop faults existed lack "process";
        // those before data faults existed also lack "data"; they must
        // deserialize to a zero-crash, zero-corruption plan.
        let p = FaultPlan::canonical(3, 0.4);
        let mut json = serde_json::to_string(&p).unwrap();
        // Strip the newer fields by re-serializing only the legacy keys.
        json = json.replace(
            &format!(
                ",\"process\":{}",
                serde_json::to_string(&p.process).unwrap()
            ),
            "",
        );
        json = json.replace(
            &format!(",\"data\":{}", serde_json::to_string(&p.data).unwrap()),
            "",
        );
        assert!(!json.contains("process"), "failed to strip: {json}");
        assert!(!json.contains("\"data\""), "failed to strip: {json}");
        let q: FaultPlan = serde_json::from_str(&json).unwrap();
        assert!(q.process.is_zero());
        assert!(q.data.is_zero());
        assert_eq!(q.links, p.links);
    }

    #[test]
    fn deserialization_rejects_invalid_plans() {
        let cases: Vec<(FaultPlan, &str)> = vec![
            (
                FaultPlan {
                    noise: NoiseModel {
                        intensity: -0.5,
                        straggler: None,
                    },
                    ..FaultPlan::zero()
                },
                "intensity",
            ),
            (
                FaultPlan {
                    noise: NoiseModel {
                        intensity: f64::NAN,
                        straggler: None,
                    },
                    ..FaultPlan::zero()
                },
                "intensity",
            ),
            (
                FaultPlan {
                    noise: NoiseModel {
                        intensity: 0.0,
                        straggler: Some(Straggler {
                            rank: 1,
                            slowdown: 0.5,
                        }),
                    },
                    ..FaultPlan::zero()
                },
                "slowdown",
            ),
            (
                FaultPlan {
                    links: vec![LinkFault {
                        node: None,
                        start: 2.0,
                        end: Some(1.0),
                        bw_factor: 0.5,
                        msg_rate_factor: 0.5,
                    }],
                    ..FaultPlan::zero()
                },
                "negative duration",
            ),
            (
                FaultPlan {
                    links: vec![LinkFault {
                        node: None,
                        start: -1.0,
                        end: None,
                        bw_factor: 0.5,
                        msg_rate_factor: 0.5,
                    }],
                    ..FaultPlan::zero()
                },
                "start",
            ),
            (
                FaultPlan {
                    links: vec![LinkFault {
                        node: None,
                        start: 0.0,
                        end: None,
                        bw_factor: 1.5,
                        msg_rate_factor: 0.5,
                    }],
                    ..FaultPlan::zero()
                },
                "bw_factor",
            ),
            (
                FaultPlan {
                    process: ProcessFaults::single(3, -1e-6),
                    ..FaultPlan::zero()
                },
                "crash time",
            ),
            (
                FaultPlan {
                    data: DataFaults {
                        corruption_rate: 1.5,
                        ..Default::default()
                    },
                    ..FaultPlan::zero()
                },
                "corruption_rate",
            ),
            (
                FaultPlan {
                    data: DataFaults {
                        drop_rate: f64::NAN,
                        ..Default::default()
                    },
                    ..FaultPlan::zero()
                },
                "drop_rate",
            ),
            (
                FaultPlan {
                    data: DataFaults {
                        corruption_rate: 0.7,
                        drop_rate: 0.7,
                        ..Default::default()
                    },
                    ..FaultPlan::zero()
                },
                "must not exceed 1",
            ),
            (
                FaultPlan {
                    data: DataFaults {
                        corruption_rate: 0.1,
                        burst: Some((5e-5, 1e-5)),
                        ..Default::default()
                    },
                    ..FaultPlan::zero()
                },
                "inverted",
            ),
            (
                FaultPlan {
                    data: DataFaults {
                        corruption_rate: 0.1,
                        burst: Some((f64::NAN, 1e-5)),
                        ..Default::default()
                    },
                    ..FaultPlan::zero()
                },
                "finite",
            ),
            (
                FaultPlan {
                    data: DataFaults {
                        drop_rate: 0.1,
                        ack_timeout: f64::INFINITY,
                        ..Default::default()
                    },
                    ..FaultPlan::zero()
                },
                "ack_timeout",
            ),
        ];
        for (plan, needle) in cases {
            // The in-memory validator names the offending field...
            let err = plan.validate().unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "expected {needle:?} in {err}"
            );
            // ...and deserialization runs it, so a crafted file is
            // rejected instead of poisoning the engine with NaN factors.
            let json = serde_json::to_string(&plan).unwrap();
            let res: Result<FaultPlan, _> = serde_json::from_str(&json);
            let derr = res.expect_err("invalid plan must not deserialize");
            assert!(
                format!("{derr:?}").contains(needle),
                "expected {needle:?} in {derr:?}"
            );
        }
    }

    #[test]
    fn zero_crash_process_plan_is_zero() {
        let mut p = FaultPlan::zero();
        assert!(p.process.is_zero() && p.is_zero());
        p.process.detection_timeout = 1e-3; // timeout alone injects nothing
        assert!(p.is_zero());
        p.process = ProcessFaults::single(0, 1e-5);
        assert!(!p.is_zero());
        p.process = ProcessFaults {
            lost_nodes: vec![1],
            ..Default::default()
        };
        assert!(!p.is_zero());
    }

    #[test]
    fn seeded_crashes_are_deterministic_and_distinct() {
        let a = ProcessFaults::seeded(9, 16, 4, (1e-5, 9e-5)).unwrap();
        let b = ProcessFaults::seeded(9, 16, 4, (1e-5, 9e-5)).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.crashes.len(), 4);
        for (i, c) in a.crashes.iter().enumerate() {
            assert!(c.rank < 16);
            assert!((1e-5..9e-5).contains(&c.crash_at));
            assert!(
                a.crashes[..i].iter().all(|d| d.rank != c.rank),
                "victims must be distinct"
            );
        }
        let c = ProcessFaults::seeded(10, 16, 4, (1e-5, 9e-5)).unwrap();
        assert_ne!(a, c, "different seed, different victims/times");
        FaultPlan {
            process: a,
            ..FaultPlan::zero()
        }
        .validate()
        .expect("seeded crashes are always valid");
    }

    #[test]
    fn seeded_rejects_inverted_and_nan_windows() {
        // Inverted: would silently flip the caller's intended interval.
        let err = ProcessFaults::seeded(1, 8, 2, (5e-5, 1e-5)).unwrap_err();
        assert!(err.to_string().contains("inverted"), "got: {err}");
        // NaN in either bound poisons every derived crash time.
        for w in [(f64::NAN, 1e-5), (1e-5, f64::NAN)] {
            let err = ProcessFaults::seeded(1, 8, 2, w).unwrap_err();
            assert!(err.to_string().contains("finite"), "got: {err}");
        }
        // Negative start would schedule crashes before t=0.
        let err = ProcessFaults::seeded(1, 8, 2, (-1e-5, 1e-5)).unwrap_err();
        assert!(err.to_string().contains(">= 0"), "got: {err}");
        // Empty world has no victims to pick.
        assert!(ProcessFaults::seeded(1, 0, 2, (0.0, 1e-5)).is_err());
        // A degenerate (equal-bounds) window is fine: all crashes at t.
        let p = ProcessFaults::seeded(1, 8, 2, (1e-5, 1e-5)).unwrap();
        assert!(p.crashes.iter().all(|c| c.crash_at == 1e-5));
    }

    #[test]
    fn data_faults_zero_draws_nothing_and_defaults_are_zero() {
        let d = DataFaults::default();
        assert!(d.is_zero());
        assert!(FaultPlan::zero().data.is_zero());
        assert!(FaultPlan::canonical(5, 0.0).data.is_zero());
        assert!(!FaultPlan::canonical(5, 0.5).data.is_zero());
        // Zero rates classify every message as delivered even mid-burst.
        let z = DataFaults {
            burst: Some((0.0, 1.0)),
            ..DataFaults::default()
        };
        for c in 0..64 {
            assert_eq!(z.wire_outcome(7, 3, c, 0.5), WireFault::Delivered);
            assert!(!z.flips_shm(7, 3, c, 0.5));
        }
    }

    #[test]
    fn wire_outcomes_are_deterministic_and_rate_shaped() {
        let d = DataFaults {
            corruption_rate: 0.2,
            drop_rate: 0.1,
            ..Default::default()
        };
        let (mut drops, mut corrupts) = (0u32, 0u32);
        let n = 4096;
        for c in 0..n {
            let a = d.wire_outcome(42, 1, c, 0.0);
            assert_eq!(a, d.wire_outcome(42, 1, c, 0.0), "replay must match");
            match a {
                WireFault::Dropped => drops += 1,
                WireFault::Corrupted => corrupts += 1,
                WireFault::Delivered => {}
            }
        }
        let (dr, cr) = (drops as f64 / n as f64, corrupts as f64 / n as f64);
        assert!((dr - 0.1).abs() < 0.02, "drop rate {dr}");
        assert!((cr - 0.2).abs() < 0.03, "corruption rate {cr}");
        // The data stream is salted away from the noise stream.
        let noise = u01(42, 1, 0);
        let data = u01(42 ^ DATA_DRAW_SALT, 1, 0);
        assert_ne!(noise.to_bits(), data.to_bits());
    }

    #[test]
    fn burst_window_gates_the_rates() {
        let d = DataFaults {
            corruption_rate: 1.0,
            burst: Some((1e-5, 2e-5)),
            ..Default::default()
        };
        assert_eq!(d.wire_outcome(0, 0, 0, 0.0), WireFault::Delivered);
        assert_eq!(d.wire_outcome(0, 0, 0, 1.5e-5), WireFault::Corrupted);
        assert_eq!(d.wire_outcome(0, 0, 0, 2e-5), WireFault::Delivered);
    }

    #[test]
    fn retransmit_delay_doubles_and_caps() {
        let d = DataFaults {
            ack_timeout: 8e-6,
            backoff: 1e-6,
            ..Default::default()
        };
        // Detected corruption: NACK backoff; silent drop: full RTO.
        assert_eq!(d.retransmit_delay(0, true), 1e-6);
        assert_eq!(d.retransmit_delay(0, false), 8e-6);
        assert_eq!(d.retransmit_delay(2, true), 4e-6);
        // Caps at 16x after 4 doublings.
        assert_eq!(d.retransmit_delay(4, true), 16e-6);
        assert_eq!(d.retransmit_delay(11, true), 16e-6);
    }

    #[test]
    fn u01_is_uniformish() {
        let mut sum = 0.0;
        let n = 4096;
        for c in 0..n {
            let v = u01(123, 7, c);
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }
}
