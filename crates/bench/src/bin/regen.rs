//! Regenerates the committed `BENCH_*.json` artifacts — every entry of
//! [`drs_bench::artifacts::ARTIFACTS`], or just the ones named on the
//! command line — and rewrites in place any file whose bytes moved.
//!
//! One status line per artifact: size, elapsed, the effective
//! `DRS_SIM_THREADS`, and `unchanged` or `CHANGED` (with the first
//! differing line). Where an artifact has a run mode it is generated
//! serially and in parallel and the two must agree. Exits non-zero if
//! any byte moved, so CI needs no flag and no `diff`.
//!
//! Run: `cargo run --release -p drs-bench --bin regen [-- name…]`

use std::time::Instant;

use drs_bench::artifacts::{find, Artifact, ARTIFACTS};
use drs_sim::world::threads_from_env;

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let selected: Vec<&Artifact> = if names.is_empty() {
        ARTIFACTS.iter().collect()
    } else {
        names
            .iter()
            .map(|name| {
                find(name).unwrap_or_else(|| {
                    let known: Vec<&str> = ARTIFACTS.iter().map(|a| a.name).collect();
                    eprintln!("unknown artifact `{name}`; known: {}", known.join(" "));
                    std::process::exit(2);
                })
            })
            .collect()
    };

    let threads = threads_from_env();
    let mut moved = 0;
    for artifact in selected {
        let started = Instant::now();
        let fresh = artifact.generate();
        let status = match artifact.check(&fresh) {
            Ok(()) => "unchanged".to_string(),
            Err(why) => {
                std::fs::write(artifact.path(), &fresh).expect("rewrite committed artifact");
                moved += 1;
                format!("CHANGED\n{why}")
            }
        };
        println!(
            "{:<8} {:<30} {:>7} B {:>9.2?}  threads={threads}  {status}",
            artifact.name,
            artifact.file,
            fresh.len(),
            started.elapsed(),
        );
    }
    if moved > 0 {
        std::process::exit(1);
    }
}
