//! Regenerate every artifact of the figure registry
//! ([`dpml_bench::figures::ALL`]): the paper's figures, the cost-model
//! check, the ablations and the fault, profile and integrity sweeps.
//!
//! Usage: `figures [--only ID] [--check]`
//!
//! * no option: run every entry and write its files to `results/` of the
//!   working directory;
//! * `--only ID`: run one entry;
//! * `--check`: write into a fresh directory under the system temp dir
//!   instead, byte-compare with `results/`, and exit 1 naming every file
//!   that differs, is not committed, or is committed but owned by nothing.
//!
//! Exits 1 also when an entry's own gate fails (integrity), and 2 on a
//! usage error.

use dpml_bench::figures::{compare, find, owned_files, Figure, ALL};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let (mut figs, mut check): (Vec<&Figure>, _) = (ALL.iter().collect(), false);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let only = (arg == "--only").then(|| args.next().and_then(|id| find(&id)));
        match only {
            Some(Some(fig)) => figs = vec![fig],
            None if arg == "--check" => check = true,
            _ => {
                let ids = ALL.iter().map(|f| f.id).collect::<Vec<_>>().join(" ");
                eprintln!("usage: figures [--only ID] [--check]; IDs: {ids}");
                return ExitCode::from(2);
            }
        }
    }
    let dir = match check {
        true => std::env::temp_dir().join(format!("dpml-figures-{}", std::process::id())),
        false => "results".into(),
    };
    match run(&figs, &dir, check) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run `figs`, writing their files into `dir`; with `check`, `dir` starts
/// empty and is compared with `results/` after, and removed if it matches.
/// False when a gate failed or a file mismatched.
fn run(figs: &[&Figure], dir: &Path, check: bool) -> std::io::Result<bool> {
    if check && dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)?;
    let mut ok = true;
    for fig in figs {
        let start = Instant::now();
        let out = (fig.run)();
        let names: Vec<&str> = out.artifacts.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(names, fig.files, "{} vs the registry", fig.id);
        for a in &out.artifacts {
            std::fs::write(dir.join(&a.name), &a.bytes)?;
        }
        if !check {
            print!("{}", out.stdout);
        }
        let secs = start.elapsed().as_secs_f64();
        eprintln!("{:<20} {secs:>6.1}s  {}", fig.id, names.join(" "));
        if let Some(why) = out.failure {
            eprintln!("FAIL: {}: {why}", fig.id);
            ok = false;
        }
    }
    if check {
        let mismatches = compare(dir, Path::new("results"), &owned_files())?;
        for m in &mismatches {
            println!("MISMATCH {m}");
        }
        if mismatches.is_empty() {
            let files: usize = figs.iter().map(|f| f.files.len()).sum();
            println!("{files} files match results/");
            std::fs::remove_dir_all(dir)?;
        } else {
            println!("fresh files kept in {}", dir.display());
            ok = false;
        }
    }
    Ok(ok)
}
