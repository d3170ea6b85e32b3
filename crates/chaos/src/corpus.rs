//! The replayable regression corpus.
//!
//! A [`Reproducer`] is a minimal shrunk case plus the outcome it is
//! expected to produce: the failure-signature class for triage and the
//! bit-exact outcome digest for replay. Reproducers are committed as
//! pretty-printed JSON under `tests/corpus/` and replayed by a tier-1
//! test (`tests/corpus_replay.rs`) and a CI job — so once a chaos
//! campaign has found and shrunk a failure, the exact interleaving is
//! pinned forever.
//!
//! Replay is strict: the class must match **and** the digest must match
//! bit-for-bit (the digest folds in the latency's `f64::to_bits`, so
//! even a timing drift in the simulator trips it). A schema version
//! guards against silently replaying a corpus written by an
//! incompatible format.

use crate::outcome::{run_case, Scenario};
use dpml_faults::FaultPlan;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Bump when the reproducer format or outcome classification changes
/// incompatibly; replay refuses mismatched schemas instead of reporting
/// bogus drift.
pub const SCHEMA_VERSION: u32 = 1;

/// A committed, minimal, deterministic reproducer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Reproducer {
    /// Corpus schema version ([`SCHEMA_VERSION`]).
    pub schema: u32,
    /// Triage key: the outcome class this case must reproduce.
    pub signature: String,
    /// The (minimized) scenario.
    pub scenario: Scenario,
    /// The (minimized) fault plan.
    pub plan: FaultPlan,
    /// Expected outcome class (== `signature`; kept explicit so a human
    /// reading the JSON sees what the case does).
    pub expected_class: String,
    /// Expected bit-exact outcome digest (16 hex digits).
    pub expected_digest: String,
    /// Free-form provenance: campaign seed, shrink stats, date.
    pub notes: String,
    /// Path of the post-mortem bundle dumped when the campaign caught
    /// the original (un-shrunk) violation, when one was written. Older
    /// corpus entries predate the field and deserialize as `None`.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub bundle: Option<String>,
}

impl Reproducer {
    /// Build a reproducer from a case by running it once.
    pub fn capture(scenario: &Scenario, plan: &FaultPlan, notes: &str) -> Reproducer {
        let out = run_case(scenario, plan);
        Reproducer {
            schema: SCHEMA_VERSION,
            signature: out.signature.clone(),
            scenario: scenario.clone(),
            plan: plan.clone(),
            expected_class: out.class,
            expected_digest: out.digest,
            notes: notes.to_string(),
            bundle: None,
        }
    }

    /// Link the post-mortem bundle the original violation dumped.
    pub fn with_bundle(mut self, bundle: Option<String>) -> Self {
        self.bundle = bundle;
        self
    }

    /// File stem for this reproducer: its signature, sanitized, plus a
    /// short digest tag for uniqueness within a signature.
    fn file_stem(&self) -> String {
        let sig: String = self
            .signature
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        let tag: String = self.expected_digest.chars().take(8).collect();
        format!("{sig}-{tag}")
    }

    /// Serialize and write to `dir/<file_stem>.json`; returns the path.
    pub fn save(&self, dir: &Path) -> io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.file_stem()));
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        fs::write(&path, json)?;
        Ok(path)
    }

    /// Re-run the case and compare against the recorded expectation.
    /// `Ok(())` on a bit-exact match, `Err(why)` otherwise.
    pub fn check(&self) -> Result<(), String> {
        if self.schema != SCHEMA_VERSION {
            return Err(format!(
                "schema {} (replayer speaks {})",
                self.schema, SCHEMA_VERSION
            ));
        }
        let out = run_case(&self.scenario, &self.plan);
        if out.class != self.expected_class {
            return Err(format!(
                "class drifted: expected {}, got {}",
                self.expected_class, out.class
            ));
        }
        if out.digest != self.expected_digest {
            return Err(format!(
                "digest drifted: expected {}, got {}",
                self.expected_digest, out.digest
            ));
        }
        Ok(())
    }
}

/// Load one reproducer from a JSON file.
pub fn load(path: &Path) -> Result<Reproducer, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {}", path.display(), e))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {:?}", path.display(), e))
}

/// Load every `*.json` reproducer in a directory, sorted by file name
/// (so replay order — and any report built from it — is stable).
pub fn load_dir(dir: &Path) -> Result<Vec<(PathBuf, Reproducer)>, String> {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| format!("{}: {}", dir.display(), e))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    let mut out = Vec::with_capacity(paths.len());
    for p in paths {
        let rep = load(&p)?;
        out.push((p, rep));
    }
    Ok(out)
}

/// Replay every reproducer in a directory. Returns `(replayed, failures)`
/// where each failure is `(path, why)`. An unreadable directory is an
/// error; an empty one replays zero cases successfully.
pub fn replay_dir(dir: &Path) -> Result<(usize, Vec<(PathBuf, String)>), String> {
    let entries = load_dir(dir)?;
    let mut failures = Vec::new();
    let replayed = entries.len();
    for (path, rep) in entries {
        if let Err(why) = rep.check() {
            failures.push((path, why));
        }
    }
    Ok((replayed, failures))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shrink::known_bad_case;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dpml-corpus-{}-{}", tag, std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn reproducer_roundtrips_and_replays_bit_exact() {
        let (sc, plan) = known_bad_case(99);
        let rep = Reproducer::capture(&sc, &plan, "unit test");
        let dir = tmpdir("roundtrip");
        let path = rep.save(&dir).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back.expected_digest, rep.expected_digest);
        assert_eq!(back.signature, rep.signature);
        back.check().expect("bit-exact replay");
        let (n, failures) = replay_dir(&dir).unwrap();
        assert_eq!(n, 1);
        assert!(failures.is_empty(), "{:?}", failures);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bundle_link_roundtrips_and_defaults_for_old_corpus() {
        let (sc, plan) = known_bad_case(11);
        let rep = Reproducer::capture(&sc, &plan, "linked").with_bundle(Some(
            "results/postmortem/postmortem_chaos_violation_1_0.json".into(),
        ));
        let dir = tmpdir("bundle-link");
        let path = rep.save(&dir).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back.bundle.as_deref(), rep.bundle.as_deref());

        // A pre-field corpus entry (no `bundle` key on disk — `None`
        // skips serialization, matching files written before the field
        // existed) still loads, defaulting to `None`.
        let old_text = serde_json::to_string(&Reproducer::capture(&sc, &plan, "old")).unwrap();
        assert!(!old_text.contains("\"bundle\""));
        let old: Reproducer = serde_json::from_str(&old_text).unwrap();
        assert!(old.bundle.is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn drifted_expectation_is_reported() {
        let (sc, plan) = known_bad_case(7);
        let mut rep = Reproducer::capture(&sc, &plan, "");
        rep.expected_digest = "0000000000000000".into();
        let why = rep.check().unwrap_err();
        assert!(why.contains("digest drifted"), "{}", why);
        rep.expected_class = "ok".into();
        let why = rep.check().unwrap_err();
        assert!(why.contains("class drifted"), "{}", why);
    }

    #[test]
    fn wrong_schema_is_refused() {
        let (sc, plan) = known_bad_case(7);
        let mut rep = Reproducer::capture(&sc, &plan, "");
        rep.schema = SCHEMA_VERSION + 1;
        assert!(rep.check().unwrap_err().contains("schema"));
    }
}
