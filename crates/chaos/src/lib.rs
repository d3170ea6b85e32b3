//! # dpml-chaos — coverage-guided chaos campaigns
//!
//! The fixed-seed soak loops of earlier PRs sample the fault space
//! blindly: they can neither say *which* fault interleavings were
//! exercised nor hand back a small reproducer when something breaks.
//! This crate replaces blind sampling with a search (DESIGN.md §13):
//!
//! * [`outcome`] — runs one `(scenario, fault plan)` case through the
//!   full recovery machinery (integrity ladder, fail-stop restart, SHArP
//!   resilience) and classifies what happened into **outcome-coverage
//!   cells**: which degradation-ladder rungs fired, which `SimError`
//!   variants surfaced, which recovery paths ran.
//! * [`campaign`] — a seeded search loop that mutates `FaultPlan`s
//!   (via `dpml_faults::mutate`) and preferentially explores plans that
//!   lit up new coverage cells, so a fixed run budget buys maximal
//!   behavioral diversity. A `--random` mode samples the same plan
//!   distribution without guidance, for apples-to-apples comparison.
//! * [`shrink`] — a delta-debugging shrinker that minimizes a failing
//!   case (drop faults, narrow windows, shrink the scenario geometry)
//!   while preserving its failure signature.
//! * [`corpus`] — a replayable regression corpus: minimal reproducers
//!   with their expected bit-exact outcome digests, committed under
//!   `tests/corpus/` and replayed by tier-1 CI.
//! * [`serve_chaos`] — a campaign mode for the `dpml-serve` daemon:
//!   worker-panic chaos plus kill-at-every-journal-prefix crash
//!   modeling, auditing exactly-once job accounting.
//!
//! Everything is deterministic in its seed: campaigns, mutations,
//! shrinks, and replays never consult the wall clock or ambient entropy.

pub mod campaign;
pub mod corpus;
pub mod outcome;
pub mod serve_chaos;
pub mod shrink;

pub use campaign::{run_campaign, CampaignConfig, CampaignReport, CurvePoint, Violation};
pub use corpus::{load_dir, replay_dir, Reproducer, SCHEMA_VERSION};
pub use outcome::{run_case, CaseOutcome, Scenario};
pub use serve_chaos::{run_serve_campaign, ServeCampaignConfig, ServeCampaignReport};
pub use shrink::{shrink_case, ShrinkResult};
