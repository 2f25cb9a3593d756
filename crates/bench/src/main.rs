//! `drs-bench` — the one executable of the reproduction.
//!
//! ```text
//! drs-bench list              the report and artifact tables
//! drs-bench report <name>     print one paper table/figure (stdout is the
//!                             table; its PASS/FAIL lines go to stderr)
//! drs-bench repro [name…]     run the reports (default: all) at full size,
//!                             then one PASS/FAIL line per paper claim
//! drs-bench regen [name…]     regenerate the committed BENCH_*.json files
//!                             (default: all), rewriting any whose bytes moved
//! drs-bench live              real daemons over loopback UDP vs the DES
//! ```
//!
//! The only positional arguments are names from
//! [`drs_bench::reports::REPORTS`] and [`drs_bench::artifacts::ARTIFACTS`];
//! an unknown one lists the known names and exits 2. `report`, `repro`,
//! `regen` and `live` exit 1 when a check fails or a byte moved, so CI
//! needs no flag and no `diff`.
//!
//! Run: `cargo run --release -p drs-bench -- <subcommand>`

#![forbid(unsafe_code)]

use std::process::ExitCode;
use std::time::Instant;

use drs_bench::artifacts::{self, Artifact, ARTIFACTS};
use drs_bench::reports::{self, Check, Report, REPORTS};

const USAGE: &str = "usage: drs-bench list | report <name> | repro [name…] | regen [name…] | live";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, names) = match args.split_first() {
        Some((command, names)) => (command.as_str(), names),
        None => ("", &[][..]),
    };
    let done = match (command, names) {
        ("list", []) => Ok(list()),
        ("report", [name]) => reports::find(name).map(report),
        ("repro", names) => select(REPORTS, reports::find, names).map(|r| repro(&r)),
        ("regen", names) => select(ARTIFACTS, artifacts::find, names).map(|a| regen(&a)),
        ("live", []) => Ok(drs_bench::live::run()),
        _ => Err(USAGE.to_string()),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("{why}");
            ExitCode::from(2)
        }
    }
}

/// The named entries of `table`, in command-line order; all of it when no
/// name is given.
fn select<T>(
    table: &'static [T],
    find: fn(&str) -> Result<&'static T, String>,
    names: &[String],
) -> Result<Vec<&'static T>, String> {
    if names.is_empty() {
        return Ok(table.iter().collect());
    }
    names.iter().map(|name| find(name)).collect()
}

fn list() -> bool {
    println!("reports (drs-bench report <name>, drs-bench repro [name…]):");
    for r in REPORTS {
        println!("  {:<22} {}", r.name, r.claim);
    }
    println!();
    println!("artifacts (drs-bench regen [name…]):");
    for a in ARTIFACTS {
        println!("  {:<22} {}", a.name, a.file);
    }
    true
}

fn verdict_line(entry: &Report, check: &Check) -> String {
    let verdict = if check.ok { "PASS" } else { "FAIL" };
    format!("  {verdict}  {}: {}", entry.name, check.detail)
}

/// One report: its tables on stdout, its verdicts on stderr.
fn report(entry: &Report) -> bool {
    let checks = (entry.run)();
    for check in &checks {
        eprintln!("{}", verdict_line(entry, check));
    }
    checks.iter().all(|c| c.ok)
}

/// The reports in full, then one PASS/FAIL line per claim they checked.
fn repro(selected: &[&Report]) -> bool {
    let mut verdicts = Vec::new();
    let mut failed = 0;
    for entry in selected {
        println!("#### {} — {}", entry.name, entry.claim);
        for check in (entry.run)() {
            verdicts.push(verdict_line(entry, &check));
            failed += usize::from(!check.ok);
        }
        println!();
    }
    println!("reproduction verdicts (every report above, at full size)");
    println!();
    for line in &verdicts {
        println!("{line}");
    }
    println!();
    println!("{} passed, {failed} failed", verdicts.len() - failed);
    failed == 0
}

/// One status line per artifact: size, elapsed, and `unchanged` or
/// `CHANGED` (with the first differing line). Where an artifact has a run mode it is generated
/// serially and in parallel and the two must agree.
fn regen(selected: &[&Artifact]) -> bool {
    let mut unchanged = true;
    for artifact in selected {
        let started = Instant::now();
        let fresh = artifact.generate();
        let status = match artifact.check(&fresh) {
            Ok(()) => "unchanged".to_string(),
            Err(why) => {
                std::fs::write(artifact.path(), &fresh).expect("rewrite committed artifact");
                unchanged = false;
                format!("CHANGED\n{why}")
            }
        };
        println!(
            "{:<8} {:<30} {:>7} B {:>9.2?}  {status}",
            artifact.name,
            artifact.file,
            fresh.len(),
            started.elapsed(),
        );
    }
    unchanged
}
