//! The registry of every artifact under `results/`: the paper's figures,
//! the Section 5 cost-model check, the ablations and the fault, recovery,
//! profile and integrity sweeps.
//!
//! Each [`Figure`] runs at fixed parameters and returns its artifacts as
//! bytes; the `figures` binary writes them to `results/` or, with
//! `--check`, byte-compares them with the committed copies
//! ([`compare`]). Every entry is deterministic, so an unchanged tree
//! reproduces `results/` exactly. The few files under `results/` that
//! depend on the host come from elsewhere ([`OUTSIDE`]).

mod ablations;
mod faults;
mod paper;

use crate::Table;
use dpml_core::algorithms::{Algorithm, FlatAlg};
use dpml_fabric::presets::{cluster_a, cluster_b, cluster_c, cluster_d};
use serde::Serialize;
use std::collections::BTreeSet;
use std::io;
use std::path::Path;

/// One file under `results/`: its name and its exact bytes.
#[derive(Debug)]
pub struct Artifact {
    pub name: String,
    pub bytes: Vec<u8>,
}

/// What one entry produces.
#[derive(Debug, Default)]
pub struct Output {
    /// The files to write, in the order of [`Figure::files`].
    pub artifacts: Vec<Artifact>,
    /// Tables of entries whose text is not itself an artifact.
    pub stdout: String,
    /// The entry's own gate failed (integrity: a silent escape or too
    /// much verification overhead). The artifacts are still written.
    pub failure: Option<String>,
}

/// One registry entry.
pub struct Figure {
    /// The name `figures --only` selects.
    pub id: &'static str,
    /// The file names under `results/` this entry writes, in the order
    /// `run` returns them.
    pub files: &'static [&'static str],
    pub run: fn() -> Output,
}

const fn entry(id: &'static str, files: &'static [&'static str], run: fn() -> Output) -> Figure {
    Figure { id, files, run }
}

/// Every entry, in the order `figures` runs them.
#[rustfmt::skip]
pub const ALL: &[Figure] = &[
    entry("fig1", &["fig1_throughput.json", "fig1.txt"], paper::fig1),
    entry("fig4", &["fig4_leader_sweep_a.json", "fig4_7_a.txt"], || paper::leader_sweep(4, cluster_a())),
    entry("fig5", &["fig5_leader_sweep_b.json", "fig4_7_b.txt"], || paper::leader_sweep(5, cluster_b())),
    entry("fig6", &["fig6_leader_sweep_c.json", "fig4_7_c.txt"], || paper::leader_sweep(6, cluster_c())),
    entry("fig7", &["fig7_leader_sweep_d.json", "fig4_7_d.txt"], || paper::leader_sweep(7, cluster_d())),
    entry("fig8", &["fig8_sharp.json", "fig8.txt"], paper::fig8),
    entry("fig9", &["fig9_libraries.json", "fig9.txt"], paper::fig9),
    entry("fig10", &["fig10_scale.json", "fig10.txt"], paper::fig10),
    entry("fig11", &["fig11_apps.json", "fig11.txt"], paper::fig11),
    entry("model_check", &["model_check.json", "model_check.txt"], paper::model_check),
    entry("ablate_fairness", &["ablate_fairness.json", "ablate_fairness.txt"], ablations::fairness),
    entry("ablate_pipeline", &["ablate_pipeline.json", "ablate_pipeline.txt"], ablations::pipeline),
    entry("ablate_sharp_groups", &["ablate_sharp_groups.json", "ablate_sharp_groups.txt"], ablations::sharp_groups),
    entry("ablate_placement", &["ablate_placement.json"], ablations::placement),
    entry("recovery", &["recovery.json"], faults::recovery),
    entry("resilience", &["resilience.json"], faults::resilience),
    entry("profile", &["profile.json"], paper::profile),
    entry("integrity", &["integrity.json"], faults::integrity),
];

/// Files under `results/` that no entry writes, with their producer and
/// why they stay outside the registry.
#[rustfmt::skip]
pub const OUTSIDE: &[(&str, &str)] = &[
    ("serve.json", "serve_bench: wall-clock latencies of a live daemon"),
    ("chaos.json", "chaos_bench: its serve-audit cells vary between runs"),
    ("profile_dpml-l4_65536.json", "dpml profile --cluster a --nodes 8 --alg dpml:4 --bytes 64K"),
    ("dpml_timeline.json", "dpml profile --cluster a --nodes 8 --alg dpml:4 --bytes 64K"),
];

/// The entry named `id`.
pub fn find(id: &str) -> Option<&'static Figure> {
    ALL.iter().find(|f| f.id == id)
}

/// Every file name some producer owns: the entries' and [`OUTSIDE`].
pub fn owned_files() -> BTreeSet<&'static str> {
    let entries = ALL.iter().flat_map(|f| f.files.iter().copied());
    entries
        .chain(OUTSIDE.iter().map(|(name, _)| *name))
        .collect()
}

/// Byte-compare the files of `fresh` with those of `committed`. Returns
/// one line per mismatch, naming the file: each fresh file that differs
/// or is not committed, then each committed file `owned` lacks.
pub fn compare(fresh: &Path, committed: &Path, owned: &BTreeSet<&str>) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    for name in file_names(fresh)? {
        match std::fs::read(committed.join(&name)) {
            Ok(old) if old == std::fs::read(fresh.join(&name))? => {}
            Ok(_) => out.push(format!("{name}: differs from the committed file")),
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                out.push(format!("{name}: written but not committed"))
            }
            Err(e) => return Err(e),
        }
    }
    let extra = file_names(committed)?
        .into_iter()
        .filter(|n| !owned.contains(n.as_str()));
    out.extend(extra.map(|n| format!("{n}: committed but written by nothing")));
    Ok(out)
}

/// Sorted names of the regular files directly in `dir`.
fn file_names(dir: &Path) -> io::Result<BTreeSet<String>> {
    let mut names = BTreeSet::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            names.insert(entry.file_name().to_string_lossy().into_owned());
        }
    }
    Ok(names)
}

/// DPML with `leaders` leaders per node, recursive doubling among them.
fn dpml(leaders: u32) -> Algorithm {
    Algorithm::Dpml {
        leaders,
        inner: FlatAlg::RecursiveDoubling,
    }
}

/// The label of the lowest latency; the first one on a tie.
fn argmin<T: Copy>(labelled: impl IntoIterator<Item = (T, f64)>) -> T {
    let best = labelled.into_iter().min_by(|a, b| a.1.total_cmp(&b.1));
    best.expect("at least one candidate").0
}

/// Builds one entry's output: the text its tables render to and the
/// files it saves.
#[derive(Default)]
struct Report {
    text: String,
    artifacts: Vec<Artifact>,
}

/// Append one formatted line to a [`Report`]'s text, as `println!` would
/// to stdout.
macro_rules! say {
    ($r:expr, $($arg:tt)*) => {{
        $r.text.push_str(&format!($($arg)*));
        $r.text.push('\n');
    }};
}
use say;

impl Report {
    fn table(&mut self, table: &Table) {
        self.text.push_str(&table.render());
    }

    /// Save `value` as pretty JSON to `<stem>.json`; returns the path the
    /// saved-to line names.
    fn json<T: Serialize>(&mut self, stem: &str, value: &T) -> String {
        let name = format!("{stem}.json");
        let json = serde_json::to_string_pretty(value).expect("serializable results");
        self.artifacts.push(Artifact {
            name: name.clone(),
            bytes: json.into_bytes(),
        });
        format!("results/{name}")
    }

    /// The text itself is the artifact `name`.
    fn into_txt(mut self, name: &str) -> Output {
        self.artifacts.push(Artifact {
            name: name.into(),
            bytes: self.text.into_bytes(),
        });
        Output {
            artifacts: self.artifacts,
            ..Output::default()
        }
    }

    /// The text goes to stdout only.
    fn into_stdout(self) -> Output {
        Output {
            artifacts: self.artifacts,
            stdout: self.text,
            failure: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn ids_and_files_are_unique() {
        let ids: BTreeSet<_> = ALL.iter().map(|f| f.id).collect();
        assert_eq!(ids.len(), ALL.len(), "duplicate id");
        let files: Vec<&str> = ALL.iter().flat_map(|f| f.files.iter().copied()).collect();
        let unique: BTreeSet<&str> = files.iter().copied().collect();
        assert_eq!(unique.len(), files.len(), "two entries write one file");
        for (name, _) in OUTSIDE {
            assert!(
                !unique.contains(name),
                "{name} is both an entry's and outside"
            );
        }
        assert_eq!(
            find("fig7").map(|f| f.files[0]),
            Some("fig7_leader_sweep_d.json")
        );
        assert!(find("fig4_7").is_none());
    }

    #[test]
    fn every_committed_result_has_exactly_one_producer() {
        let results = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let committed = file_names(&results).unwrap();
        let owned = owned_files();
        let orphans: Vec<_> = committed
            .iter()
            .filter(|n| !owned.contains(n.as_str()))
            .collect();
        assert!(orphans.is_empty(), "no producer for {orphans:?}");
        let absent: Vec<_> = owned.iter().filter(|n| !committed.contains(**n)).collect();
        assert!(absent.is_empty(), "not committed: {absent:?}");
    }

    #[test]
    fn compare_names_changed_missing_and_extra_files() {
        let root = std::env::temp_dir().join(format!("dpml-figures-cmp-{}", std::process::id()));
        let (fresh, committed) = (root.join("fresh"), root.join("committed"));
        std::fs::create_dir_all(&fresh).unwrap();
        std::fs::create_dir_all(&committed).unwrap();
        for (dir, name, body) in [
            (&fresh, "same.json", "[1]"),
            (&committed, "same.json", "[1]"),
            (&fresh, "moved.txt", "1.00\n"),
            (&committed, "moved.txt", "1.01\n"),
            (&fresh, "new.json", "{}"),
            (&committed, "stale.json", "{}"),
        ] {
            std::fs::write(dir.join(name), body).unwrap();
        }
        let owned = BTreeSet::from(["same.json", "moved.txt", "new.json"]);
        let got = compare(&fresh, &committed, &owned).unwrap();
        std::fs::remove_dir_all(&root).ok();
        assert_eq!(
            got,
            [
                "moved.txt: differs from the committed file",
                "new.json: written but not committed",
                "stale.json: committed but written by nothing",
            ]
        );
    }
}
