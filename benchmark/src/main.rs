//! Wall-clock benchmark of the DRS reproduction.
//!
//! `drs-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload in this process and prints, as its last line, one
//! JSON object with the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). Without `--workload` it runs the whole suite,
//! one child process per workload (see `suite`). Start it through
//! `benchmark/run.sh`, which builds it, sets the allocator environment
//! and makes the repository root the working directory.

mod analytic;
mod check;
mod flight32;
mod fluid;
mod harness;
mod layers;
mod metrics;
mod paper90;
mod reference;
mod regen;
mod scenario;
mod shard1024;
mod suite;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use harness::{median, quartiles, Layers, Opts, Rep, Workload};
use reference::Reference;
use trace::Trace;

/// Directory (under the repository root, the working directory) that
/// receives span files and the suite's result files.
pub const OUT_DIR: &str = "benchmark/out";

/// Default for `--seconds`; equals `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;

fn usage() -> ExitCode {
    eprintln!(
        "usage: run.sh [--workload <name>] [--seed <u64>] [--seconds <s>] [--trace [0|1]] [--agree]\n\
         workloads: {}",
        metrics::WORKLOADS.join(" ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut opts = Opts {
        workload: String::new(),
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut agree = false;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{arg} needs {what}"));
        let parsed = match arg.as_str() {
            "--workload" => value("a name").map(|v| opts.workload = v),
            "--seed" => value("a number")
                .and_then(|v| v.parse().map_err(|e| format!("--seed {v}: {e}")))
                .map(|v| opts.seed = v),
            "--seconds" => value("a number")
                .and_then(|v| v.parse().map_err(|e| format!("--seconds {v}: {e}")))
                .map(|v| opts.seconds = v),
            // `--trace` alone means on; the driver passes `--trace 0|1`.
            "--trace" => {
                opts.trace = args.next_if(|v| v == "0").is_none();
                args.next_if(|v| v == "1");
                Ok(())
            }
            "--agree" => {
                agree = true;
                Ok(())
            }
            _ => Err(format!("unknown argument {arg}")),
        };
        if let Err(e) = parsed {
            eprintln!("{e}");
            return usage();
        }
    }
    if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
        eprintln!("--seconds must be positive");
        return usage();
    }
    if opts.workload.is_empty() {
        return suite::run(&opts, agree);
    }
    let workload: Box<dyn Workload> = match opts.workload.as_str() {
        "paper90_pair" => Box::new(paper90::Paper90::new(false, opts.seed)),
        "paper90_batch" => Box::new(paper90::Paper90::new(true, opts.seed)),
        "flight32" => Box::new(flight32::Flight32::new(opts.seed)),
        "shard1024" => Box::new(shard1024::Shard1024::new(opts.seed)),
        "fluid_million" => Box::new(fluid::FluidMillion::new(opts.seed)),
        "analytic_count" => Box::new(analytic::AnalyticCount::new(opts.seed)),
        "artifact_regen" => {
            println!(
                "note: artifact_regen ignores --seed (committed artifacts fix BENCH_SEED = 42)"
            );
            Box::new(regen::ArtifactRegen)
        }
        other => {
            eprintln!("unknown workload {other}");
            return usage();
        }
    };
    run_workload(&opts, workload)
}

/// A `kB` field of `/proc/self/status`, in MB: `VmRSS` is the resident
/// set now, `VmHWM` its high-water mark since this program was exec'd.
/// (`ru_maxrss` is the same mark but survives `exec`, so under `run.sh`
/// it would never read less than the shell's own peak.)
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with(field))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run_workload(opts: &Opts, mut workload: Box<dyn Workload>) -> ExitCode {
    println!(
        "workload {} seed {} seconds {} trace {} threads_available {}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        std::thread::available_parallelism().map_or(1, usize::from),
    );
    let mut tr = Trace::default();
    let mut layers = Layers::default();
    let warm_reps = workload.warm_reps();
    let mut all: Vec<Rep> = Vec::new();
    let mut failed = 0u64;
    let mut record = |label: &str, rep: &Rep| {
        println!(
            "  rep {label}: setup {:.9} s, run+harvest {:.6} s, cpu_user {:.6} s, cpu_sys {:.6} s, host_factor {:.4}, minor_faults {}, digest {:#018x}",
            rep.setup_s, rep.wall_s, rep.cpu_user_s, rep.cpu_sys_s, rep.host_factor, rep.minor_faults, rep.digest
        );
        for e in &rep.errors {
            println!("  CHECK FAILED: {e}");
        }
        failed += u64::from(!rep.errors.is_empty());
    };

    // Every untraced repetition sits between two reference rounds; their
    // mean over the nominal round is how much slower than the reference
    // machine the host ran meanwhile (see `reference`).
    let mut reference = Reference::default();
    let mut round_before = reference.round();
    let mut next_rep = |tr: &mut Trace, layers: &mut Layers| {
        let mut rep = workload.rep(tr, false, layers);
        let round_after = reference.round();
        rep.host_factor = (round_before + round_after) / 2.0 / reference::NOMINAL_ROUND_S;
        round_before = round_after;
        rep
    };
    for i in 0..warm_reps {
        let rep = next_rep(&mut tr, &mut layers);
        record(&format!("warm{i}"), &rep);
        all.push(rep);
        tr.clear();
    }
    // Fill the measuring window; three repetitions at least, so a median
    // exists even when one repetition outlasts the window.
    let window = Instant::now();
    while all.len() - warm_reps < 3 || window.elapsed().as_secs_f64() < opts.seconds {
        let rep = next_rep(&mut tr, &mut layers);
        record(&format!("timed{}", all.len() - warm_reps), &rep);
        all.push(rep);
        tr.clear();
    }
    let peak_rss_mb = status_mb("VmHWM:");
    let timed = &all[warm_reps..];
    let column = |f: fn(&Rep) -> f64| timed.iter().map(f).collect::<Vec<f64>>();
    // As measured, for comparisons with other raw timings of this process.
    let walls = column(|r| r.wall_s);
    let wall_raw_s = median(&walls);
    let host_factor = median(&column(|r| r.host_factor));
    let e2e = [
        median(&column(|r| r.wall_s / r.host_factor)),
        median(&column(|r| r.setup_s / r.host_factor)),
        median(&column(|r| r.cpu_user_s / r.host_factor)),
        peak_rss_mb,
    ];

    let mut attempted = all.len() as u64;
    if opts.trace {
        let rep = workload.rep(&mut tr, true, &mut layers);
        record("traced", &rep);
        let coverage = tr.child_coverage("run");
        layers.set("harness.run_span_coverage", coverage);
        layers.set("harness.trace_overhead_ratio", rep.wall_s / wall_raw_s);
        let mut errors = workload.layers(&mut tr, wall_raw_s, &mut layers);
        if coverage < 0.9 {
            errors.push(format!(
                "run phase only {:.1} % covered by child spans",
                coverage * 100.0
            ));
        }
        for e in &errors {
            println!("  CHECK FAILED: {e}");
        }
        attempted += 2;
        failed += u64::from(!errors.is_empty());
        all.push(rep);

        let cold = &all[0];
        let (q1, q3) = quartiles(&walls);
        layers.set("harness.cold_run_s", cold.wall_s);
        layers.set("harness.cold_minor_faults", cold.minor_faults as f64);
        layers.set(
            "harness.wall_max_s",
            walls.iter().copied().fold(0.0, f64::max),
        );
        layers.set("harness.wall_iqr_s", q3 - q1);
        layers.set("harness.heap_retained", status_mb("VmRSS:"));
        layers.set("harness.timed_reps", walls.len() as f64);
        layers.set("harness.wall_raw_s", wall_raw_s);
        layers.set("harness.host_factor", host_factor);

        let path = format!("{OUT_DIR}/trace.{}.json", opts.workload);
        let written = std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, tr.to_json(&opts.workload)));
        match written {
            Ok(()) => println!("spans: {} written to {path}", tr.spans.len()),
            Err(e) => {
                println!("  CHECK FAILED: cannot write {path}: {e}");
                failed += 1;
            }
        }
    }

    // One digest per process: every repetition, sliced or not, must have
    // produced the same simulated results.
    let digest = all[0].digest;
    if all.iter().any(|r| r.digest != digest) {
        println!("  CHECK FAILED: result_digest differs between repetitions");
        failed += 1;
    }

    // (kind, name, value, unit) for everything this run reports; the JSON
    // result carries the end-to-end rows or, in a traced run, the layers.
    let mut rows: Vec<(&str, &str, f64, &str)> = metrics::END_TO_END
        .iter()
        .zip(e2e)
        .map(|((m, _), value)| ("e2e", m.name, value, m.unit))
        .collect();
    if opts.trace {
        rows.extend(
            metrics::PER_LAYER
                .iter()
                .map(|m| ("layer", m.name, layers.get(m.name).unwrap_or(0.0), m.unit)),
        );
    }
    for (kind, name, value, unit) in &rows {
        println!("{kind} {name} {value} {unit}");
    }
    println!("result_digest {} {digest:#018x}", opts.workload);

    // The digest and span-file checks are not repetitions of their own.
    let failed = failed.min(attempted);
    let in_result = if opts.trace { "layer" } else { "e2e" };
    let metrics: Vec<String> = rows
        .iter()
        .filter(|row| row.0 == in_result)
        .map(|(_, name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
