//! Suite mode: every workload in turn, each in its own child process (so
//! `peak_rss_mb` is attributable to it), results collected into
//! `benchmark/out/results.json` and, with `--trace`, the children's span
//! files merged into `benchmark/out/trace.json`. `--agree` runs two sets
//! back to back and compares them against the regression bounds.

use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

use crate::harness::Opts;
use crate::metrics::{END_TO_END, WORKLOADS};
use crate::OUT_DIR;

/// What one child reported.
struct Outcome {
    workload: &'static str,
    ok: bool,
    digest: String,
    /// `(kind, name, value, unit)` with kind `e2e` or `layer`.
    metrics: Vec<(String, String, f64, String)>,
    /// The child's final JSON line.
    result: String,
}

fn run_child(workload: &'static str, opts: &Opts) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let mut outcome = Outcome {
        workload,
        ok: output.status.success(),
        digest: String::new(),
        metrics: Vec::new(),
        result: String::new(),
    };
    for line in stdout.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            [kind @ ("e2e" | "layer"), name, value, unit] => {
                let value = value
                    .parse()
                    .map_err(|e| format!("{workload}: {line}: {e}"))?;
                outcome
                    .metrics
                    .push((kind.to_string(), name.to_string(), value, unit.to_string()));
            }
            ["result_digest", _, digest] => outcome.digest = digest.to_string(),
            _ if line.starts_with('{') => outcome.result = line.to_string(),
            _ => {}
        }
    }
    if outcome.result.is_empty() {
        return Err(format!("the {workload} child printed no result"));
    }
    Ok(outcome)
}

fn run_set(opts: &Opts) -> Result<Vec<Outcome>, String> {
    WORKLOADS.iter().map(|w| run_child(w, opts)).collect()
}

fn results_json(opts: &Opts, set: &[Outcome]) -> String {
    let mut out = format!(
        "{{\n  \"seed\": {},\n  \"seconds\": {},\n  \"threads_available\": {},\n  \"workloads\": [\n",
        opts.seed,
        opts.seconds,
        std::thread::available_parallelism().map_or(1, usize::from),
    );
    for (i, o) in set.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"result_digest\": \"{}\", \"metrics\": {{",
            o.workload, o.digest
        );
        for (k, (_, name, value, unit)) in o.metrics.iter().enumerate() {
            let sep = if k == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        let sep = if i + 1 == set.len() { "" } else { "," };
        let _ = writeln!(out, "}}, \"result\": {}}}{sep}", o.result);
    }
    out.push_str("  ],\n  \"claim\": null\n}\n");
    out
}

/// Concatenates the children's span files into one object keyed by
/// workload.
fn merge_traces() -> std::io::Result<()> {
    let mut out = String::from("{\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let spans = std::fs::read_to_string(format!("{OUT_DIR}/trace.{w}.json"))?;
        let sep = if i + 1 == WORKLOADS.len() { "" } else { "," };
        let _ = writeln!(out, "\"{w}\": {spans}{sep}");
    }
    out.push_str("}\n");
    std::fs::write(format!("{OUT_DIR}/trace.json"), out)
}

/// Compares two sets of the same code: every end-to-end metric of the
/// second within its bound of the first, every digest identical.
fn disagreements(first: &[Outcome], second: &[Outcome]) -> Vec<String> {
    let mut out = Vec::new();
    for (a, b) in first.iter().zip(second) {
        if a.digest != b.digest {
            out.push(format!(
                "{}: result_digest {} then {}",
                a.workload, a.digest, b.digest
            ));
        }
        for (metric, bound) in &END_TO_END {
            let name = metric.name;
            let find = |o: &Outcome| {
                o.metrics
                    .iter()
                    .find(|m| m.0 == "e2e" && m.1 == name)
                    .map(|m| m.2)
            };
            let (Some(x), Some(y)) = (find(a), find(b)) else {
                out.push(format!("{}: {name} missing", a.workload));
                continue;
            };
            println!(
                "agree {} {name}: {x} then {y} ({:+.1} %, bound {:.0} %)",
                a.workload,
                (y / x - 1.0) * 100.0,
                bound * 100.0
            );
            if y > x * (1.0 + bound) {
                out.push(format!("{}: {name} went from {x} to {y}", a.workload));
            }
        }
    }
    out
}

pub fn run(opts: &Opts, agree: bool) -> ExitCode {
    let sets = if agree { 2 } else { 1 };
    let mut all = Vec::new();
    for _ in 0..sets {
        match run_set(opts) {
            Ok(set) => all.push(set),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut ok = all.iter().flatten().all(|o| o.ok);
    let last = all.last().expect("at least one set ran");
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(format!("{OUT_DIR}/results.json"), results_json(opts, last)))
        .and_then(|()| if opts.trace { merge_traces() } else { Ok(()) });
    if let Err(e) = written {
        eprintln!("cannot write under {OUT_DIR}: {e}");
        ok = false;
    }
    if agree {
        let bad = disagreements(&all[0], &all[1]);
        for b in &bad {
            println!("DISAGREE {b}");
        }
        ok &= bad.is_empty();
    }
    println!(
        "suite: {} workloads, {}; results in {OUT_DIR}/results.json",
        last.len(),
        if ok { "all checks passed" } else { "FAILED" }
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
