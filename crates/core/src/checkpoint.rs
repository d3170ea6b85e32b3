//! Deterministic progress checkpoints for chunked sweep execution.
//!
//! A sweep is a list of `(algorithm, bytes)` scenarios, each a closed
//! deterministic world: its result depends only on the scenario and the
//! preset, never on which worker ran it or what ran before it
//! (DESIGN.md §11). That determinism makes partial progress *resumable*:
//! if a process records the per-scenario cells it has already produced,
//! a successor process can splice those cells in front of the remaining
//! scenarios and the final result is byte-identical to an uninterrupted
//! run.
//!
//! [`SweepCheckpoint`] is that record. It is deliberately *semantic* —
//! schema-versioned JSON keyed by the job's scenario digest — while the
//! durable layer above (`dpml-serve`) adds CRC32C framing for torn-write
//! detection. The two integrity layers catch different failures: the
//! frame CRC catches bytes that never landed; the checkpoint's
//! **splitmix64 cursor chain** catches frames that are valid JSON but
//! inconsistent with the execution history (a cell edited, dropped, or
//! reordered, or a checkpoint from a different chunking). The cursor
//! starts at a digest-derived seed and absorbs the canonical encoding of
//! every completed chunk; [`SweepCheckpoint::verify`] replays the chain
//! from the stored cells and rejects any checkpoint whose cursor does
//! not reproduce.

use crate::run::{run_batch, AllreduceReport, Exec, RunError};
use dpml_fabric::Preset;
use dpml_faults::{fnv1a64, splitmix64};
use dpml_topology::ClusterSpec;
use serde::{Deserialize, Serialize};

/// Version stamp for the checkpoint wire format. Bump on any field
/// change; loaders reject other schemas (falling back to cold start).
pub const CHECKPOINT_SCHEMA: u32 = 1;

/// The completed outcome of one scenario, as captured at a chunk
/// boundary. This is the unit of resumable progress: enough to rebuild
/// the serve-level scenario result (and its accounting) without
/// re-simulating, plus a structured flag for budget trips so the policy
/// layer can re-map them onto deadline semantics without string
/// matching.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioCell {
    /// Algorithm name (`Algorithm::name`).
    pub algorithm: String,
    /// Message size in bytes.
    pub bytes: u64,
    /// Completion latency in microseconds; `0.0` for failed scenarios.
    pub latency_us: f64,
    /// Error rendering for failed scenarios.
    pub error: Option<String>,
    /// Engine events simulated by this scenario (0 on failure).
    pub sim_events: u64,
    /// True when the failure was an engine event/time budget trip —
    /// the deadline's proxy inside the engine.
    pub budget_tripped: bool,
}

impl ScenarioCell {
    /// Build a cell from one batch-runner result.
    fn from_result(
        algorithm: String,
        bytes: u64,
        result: &Result<AllreduceReport, RunError>,
    ) -> Self {
        match result {
            Ok(rep) => ScenarioCell {
                algorithm,
                bytes,
                latency_us: rep.latency_us,
                error: None,
                sim_events: rep.report.stats.events,
                budget_tripped: false,
            },
            Err(e) => {
                let budget_tripped = matches!(
                    e,
                    RunError::Sim(
                        dpml_engine::sim::SimError::EventBudgetExceeded(_)
                            | dpml_engine::sim::SimError::TimeBudgetExceeded(_)
                    )
                );
                ScenarioCell {
                    algorithm,
                    bytes,
                    latency_us: 0.0,
                    error: Some(e.to_string()),
                    sim_events: 0,
                    budget_tripped,
                }
            }
        }
    }

    /// Canonical byte encoding absorbed by the cursor chain. Floats are
    /// encoded as raw bit patterns so the chain is exact, not
    /// approximately-equal.
    fn canonical(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.algorithm.as_bytes());
        out.push(b'|');
        out.extend_from_slice(&self.bytes.to_le_bytes());
        out.extend_from_slice(&self.latency_us.to_bits().to_le_bytes());
        out.extend_from_slice(&self.sim_events.to_le_bytes());
        out.push(self.budget_tripped as u8);
        match &self.error {
            Some(e) => {
                out.push(1);
                out.extend_from_slice(e.as_bytes());
            }
            None => out.push(0),
        }
        out.push(b';');
    }
}

/// Seed of the cursor chain for a sweep with the given scenario digest.
fn initial_cursor(digest: &str) -> u64 {
    splitmix64(fnv1a64(digest.as_bytes()))
}

/// Durable progress of one chunked sweep: which prefix of the scenario
/// list is done, the cells it produced, and the cursor chaining them to
/// the job digest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepCheckpoint {
    /// Wire-format version ([`CHECKPOINT_SCHEMA`]).
    pub schema: u32,
    /// Scenario digest of the owning job spec — a checkpoint never
    /// resumes a job it was not cut from.
    pub digest: String,
    /// Total scenarios in the sweep.
    pub scenario_count: u32,
    /// Chunk size the sweep is being executed with. Resume requires the
    /// same chunking so the cursor chain groups identically.
    pub chunk: u32,
    /// Scenarios completed so far (`cells.len()`); execution resumes at
    /// this index.
    pub next_index: u32,
    /// splitmix64 chain over the canonical encoding of every completed
    /// chunk, seeded from the digest.
    pub cursor: u64,
    /// Failed-cell count among `cells` (excluding budget trips, which
    /// the policy layer converts into whole-job outcomes).
    pub failed: u32,
    /// Completed per-scenario outcomes, in scenario order.
    pub cells: Vec<ScenarioCell>,
}

impl SweepCheckpoint {
    /// Fresh checkpoint at the start of a sweep.
    pub fn new(digest: String, scenario_count: u32, chunk: u32) -> Self {
        let cursor = initial_cursor(&digest);
        SweepCheckpoint {
            schema: CHECKPOINT_SCHEMA,
            digest,
            scenario_count,
            chunk: chunk.max(1),
            next_index: 0,
            cursor,
            failed: 0,
            cells: Vec::new(),
        }
    }

    /// True once every scenario has a cell.
    pub fn complete(&self) -> bool {
        self.next_index >= self.scenario_count
    }

    /// Absorb one completed chunk of cells: append them, advance the
    /// index, and fold their canonical encoding into the cursor.
    pub fn advance(&mut self, chunk_cells: Vec<ScenarioCell>) {
        let mut canon = Vec::with_capacity(chunk_cells.len() * 48);
        for cell in &chunk_cells {
            if cell.error.is_some() {
                self.failed += 1;
            }
            cell.canonical(&mut canon);
        }
        self.cursor = splitmix64(self.cursor ^ fnv1a64(&canon));
        self.next_index += chunk_cells.len() as u32;
        self.cells.extend(chunk_cells);
    }

    /// Validate this checkpoint against the job it claims to resume and
    /// against its own execution history.
    ///
    /// Checks, in order: schema version, digest / scenario-count /
    /// chunking identity, internal cell accounting, and finally a full
    /// replay of the cursor chain over the stored cells. A checkpoint
    /// that passes is safe to resume from: splicing its cells in front
    /// of the remaining scenarios reproduces the uninterrupted result.
    pub fn verify(&self, digest: &str, scenario_count: u32, chunk: u32) -> Result<(), String> {
        if self.schema != CHECKPOINT_SCHEMA {
            return Err(format!(
                "schema {} != supported {CHECKPOINT_SCHEMA}",
                self.schema
            ));
        }
        if self.digest != digest {
            return Err(format!("digest {} != job digest {digest}", self.digest));
        }
        if self.scenario_count != scenario_count {
            return Err(format!(
                "scenario count {} != job's {scenario_count}",
                self.scenario_count
            ));
        }
        if self.chunk != chunk.max(1) {
            return Err(format!("chunk {} != executor chunk {chunk}", self.chunk));
        }
        if self.cells.len() != self.next_index as usize {
            return Err(format!(
                "{} cells but next_index {}",
                self.cells.len(),
                self.next_index
            ));
        }
        if self.next_index > self.scenario_count {
            return Err(format!(
                "next_index {} beyond scenario count {}",
                self.next_index, self.scenario_count
            ));
        }
        let failed = self.cells.iter().filter(|c| c.error.is_some()).count() as u32;
        if failed != self.failed {
            return Err(format!("failed {} but {} error cells", self.failed, failed));
        }
        let mut cursor = initial_cursor(&self.digest);
        for chunk_cells in self.cells.chunks(self.chunk as usize) {
            let mut canon = Vec::with_capacity(chunk_cells.len() * 48);
            for cell in chunk_cells {
                cell.canonical(&mut canon);
            }
            cursor = splitmix64(cursor ^ fnv1a64(&canon));
        }
        if cursor != self.cursor {
            return Err(format!(
                "cursor chain replay {cursor:#018x} != stored {:#018x}",
                self.cursor
            ));
        }
        Ok(())
    }
}

/// Per-chunk decision from the policy layer: keep going (with engine
/// budgets for this chunk) or stop here. Stopping loses nothing — the
/// checkpoint already holds every completed cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChunkControl {
    /// Run the next chunk under the given engine budgets.
    Proceed(Exec<'static>),
    /// Stop before the next chunk (cancellation, deadline, shutdown).
    Stop,
}

/// How a checkpointed sweep ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepEnd {
    /// Every scenario has a cell; `ckpt.complete()` is true.
    Completed,
    /// The controller said [`ChunkControl::Stop`]; `ckpt` holds all
    /// progress made so far.
    Stopped,
}

/// Execute a sweep chunk-by-chunk, resuming from (and advancing) `ckpt`.
///
/// `scenarios` must be the full scenario list of the job `ckpt` belongs
/// to — execution starts at `ckpt.next_index`, so a fresh checkpoint
/// runs everything and a restored one only the remainder. Before every
/// chunk `control` is consulted (cancellation / deadline / budget
/// policy); after every chunk `on_checkpoint` observes the advanced
/// checkpoint and may persist it. Within a chunk, scenarios run on the
/// scenario-parallel runner in input order, so the produced cells are
/// identical to a serial, uninterrupted execution.
pub fn run_allreduce_checkpointed(
    preset: &Preset,
    spec: &ClusterSpec,
    scenarios: &[(crate::algorithms::Algorithm, u64)],
    ckpt: &mut SweepCheckpoint,
    mut control: impl FnMut(&SweepCheckpoint) -> ChunkControl,
    mut on_checkpoint: impl FnMut(&SweepCheckpoint),
) -> SweepEnd {
    assert_eq!(
        scenarios.len(),
        ckpt.scenario_count as usize,
        "checkpoint scenario count must match the scenario list"
    );
    let chunk = ckpt.chunk.max(1) as usize;
    while (ckpt.next_index as usize) < scenarios.len() {
        let exec = match control(ckpt) {
            ChunkControl::Stop => return SweepEnd::Stopped,
            ChunkControl::Proceed(exec) => exec,
        };
        let start = ckpt.next_index as usize;
        let end = (start + chunk).min(scenarios.len());
        let batch = &scenarios[start..end];
        let results = run_batch(preset, spec, batch, &exec);
        let cells = batch
            .iter()
            .zip(results.iter())
            .map(|(&(alg, bytes), res)| ScenarioCell::from_result(alg.name(), bytes, res))
            .collect();
        ckpt.advance(cells);
        on_checkpoint(ckpt);
    }
    SweepEnd::Completed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{Algorithm, FlatAlg};
    use dpml_fabric::presets::cluster_b;

    fn scenarios() -> Vec<(Algorithm, u64)> {
        let algs = [
            Algorithm::Ring,
            Algorithm::RecursiveDoubling,
            Algorithm::Dpml {
                leaders: 4,
                inner: FlatAlg::Ring,
            },
        ];
        let sizes = [1024u64, 65536];
        let mut out = Vec::new();
        for &alg in &algs {
            for &b in &sizes {
                out.push((alg, b));
            }
        }
        out
    }

    fn run_full(chunk: u32, stop_after: Option<u32>) -> (SweepCheckpoint, SweepEnd) {
        let p = cluster_b();
        let spec = p.spec(4, 4).unwrap();
        let scen = scenarios();
        let mut ckpt = SweepCheckpoint::new("digest-x".into(), scen.len() as u32, chunk);
        let end = run_allreduce_checkpointed(
            &p,
            &spec,
            &scen,
            &mut ckpt,
            |ck| match stop_after {
                Some(n) if ck.next_index >= n => ChunkControl::Stop,
                _ => ChunkControl::Proceed(Exec {
                    event_budget: None,
                    time_budget_s: Some(10.0),
                    ..Exec::default()
                }),
            },
            |_| {},
        );
        (ckpt, end)
    }

    #[test]
    fn completes_and_verifies() {
        let (ckpt, end) = run_full(2, None);
        assert_eq!(end, SweepEnd::Completed);
        assert!(ckpt.complete());
        assert_eq!(ckpt.cells.len(), 6);
        assert_eq!(ckpt.failed, 0);
        ckpt.verify("digest-x", 6, 2).unwrap();
    }

    #[test]
    fn resume_from_any_boundary_is_bit_identical() {
        let (full, _) = run_full(2, None);
        for stop in [2u32, 4] {
            let (mut partial, end) = run_full(2, Some(stop));
            assert_eq!(end, SweepEnd::Stopped);
            assert_eq!(partial.next_index, stop);
            partial.verify("digest-x", 6, 2).unwrap();

            // Resume in a "new process": only the remainder runs.
            let p = cluster_b();
            let spec = p.spec(4, 4).unwrap();
            let scen = scenarios();
            let mut executed = 0u32;
            let end = run_allreduce_checkpointed(
                &p,
                &spec,
                &scen,
                &mut partial,
                |_| {
                    ChunkControl::Proceed(Exec {
                        event_budget: None,
                        time_budget_s: Some(10.0),
                        ..Exec::default()
                    })
                },
                |_| executed += 1,
            );
            assert_eq!(end, SweepEnd::Completed);
            assert_eq!(executed, (6 - stop).div_ceil(2));
            assert_eq!(partial.cursor, full.cursor, "cursor chain must converge");
            assert_eq!(partial.cells, full.cells, "cells must be bit-identical");
            let a = serde_json::to_string(&partial).unwrap();
            let b = serde_json::to_string(&full).unwrap();
            assert_eq!(a, b, "checkpoint JSON must be byte-identical");
        }
    }

    #[test]
    fn verify_rejects_tampering() {
        let (full, _) = run_full(2, None);
        full.verify("digest-x", 6, 2).unwrap();
        assert!(full.verify("digest-y", 6, 2).is_err(), "wrong digest");
        assert!(full.verify("digest-x", 7, 2).is_err(), "wrong count");
        assert!(full.verify("digest-x", 6, 3).is_err(), "wrong chunking");

        let mut edited = full.clone();
        edited.cells[1].latency_us += 1.0;
        assert!(edited.verify("digest-x", 6, 2).is_err(), "edited cell");

        let mut dropped = full.clone();
        dropped.cells.pop();
        assert!(dropped.verify("digest-x", 6, 2).is_err(), "dropped cell");

        let mut swapped = full.clone();
        swapped.cells.swap(0, 1);
        assert!(swapped.verify("digest-x", 6, 2).is_err(), "reordered cells");

        let mut schema = full.clone();
        schema.schema = CHECKPOINT_SCHEMA + 1;
        assert!(schema.verify("digest-x", 6, 2).is_err(), "future schema");

        let mut failed = full.clone();
        failed.failed += 1;
        assert!(failed.verify("digest-x", 6, 2).is_err(), "failed miscount");
    }

    #[test]
    fn budget_trip_is_structured() {
        let p = cluster_b();
        let spec = p.spec(4, 4).unwrap();
        let scen = vec![(Algorithm::Ring, 65536u64)];
        let mut ckpt = SweepCheckpoint::new("d".into(), 1, 8);
        let end = run_allreduce_checkpointed(
            &p,
            &spec,
            &scen,
            &mut ckpt,
            |_| {
                ChunkControl::Proceed(Exec {
                    event_budget: Some(3),
                    time_budget_s: None,
                    ..Exec::default()
                })
            },
            |_| {},
        );
        assert_eq!(end, SweepEnd::Completed);
        assert!(ckpt.cells[0].budget_tripped);
        assert!(ckpt.cells[0].error.is_some());
        assert_eq!(ckpt.failed, 1);
        ckpt.verify("d", 1, 8).unwrap();
    }
}
