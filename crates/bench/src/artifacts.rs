//! The one table of committed artifacts.
//!
//! [`ARTIFACTS`] is the only place that knows which `BENCH_*.json` files
//! the repo commits, how each is regenerated and serialized, and which of
//! them run under a harness [`RunMode`]. `drs-bench regen`, the byte-pin
//! tests and CI all iterate or select from it by name, so a new artifact
//! costs its generator module and one table line.

use std::path::PathBuf;

use drs_analytic::sweep::{run_sweep, SweepConfig};
use drs_harness::RunMode;

use crate::{
    flight, kernel, knet, obs_artifact, sim_artifact, topology_zoo, workload, BENCH_JSON,
    BENCH_SEED, FLIGHT_BENCH_JSON, KERNEL_BENCH_JSON, KNET_BENCH_JSON, OBS_BENCH_JSON,
    SIM_BENCH_JSON, TOPOLOGY_BENCH_JSON, WORKLOAD_BENCH_JSON,
};

/// How an artifact's committed text is produced.
#[derive(Clone, Copy)]
pub enum Generator {
    /// Fans trials out through the harness; [`RunMode::Serial`] and
    /// [`RunMode::Parallel`] must produce identical bytes.
    Moded(fn(RunMode) -> String),
    /// No run mode. (The sharded-driver artifacts among these take their
    /// worker count from `DRS_SIM_THREADS` and must not depend on it.)
    Plain(fn() -> String),
}

/// One committed artifact.
pub struct Artifact {
    /// Short name: the `drs-bench regen` positional and the key of [`find`].
    pub name: &'static str,
    /// Committed file name, relative to the repository root.
    pub file: &'static str,
    /// Regenerates the file's text under [`BENCH_SEED`].
    pub generator: Generator,
}

/// Every committed artifact (schemas in EXPERIMENTS.md).
pub const ARTIFACTS: &[Artifact] = &[
    Artifact {
        name: "sweep",
        file: BENCH_JSON,
        generator: Generator::Plain(|| run_sweep(&SweepConfig::bench_grid(BENCH_SEED)).to_json()),
    },
    Artifact {
        name: "sim",
        file: SIM_BENCH_JSON,
        generator: Generator::Moded(|mode| sim_artifact::bench_artifact(mode).to_json()),
    },
    Artifact {
        name: "knet",
        file: KNET_BENCH_JSON,
        generator: Generator::Moded(|mode| knet::bench_artifact(BENCH_SEED, mode).to_json()),
    },
    Artifact {
        name: "topology",
        file: TOPOLOGY_BENCH_JSON,
        generator: Generator::Moded(|mode| {
            topology_zoo::bench_artifact(BENCH_SEED, mode).to_json()
        }),
    },
    Artifact {
        name: "obs",
        file: OBS_BENCH_JSON,
        generator: Generator::Moded(|mode| obs_artifact::obs_bench_artifact(mode).to_json()),
    },
    Artifact {
        name: "kernel",
        file: KERNEL_BENCH_JSON,
        generator: Generator::Plain(|| {
            kernel::kernel_artifact(&kernel::run_grid(), &kernel::run_scaling_grid())
                .to_json_with_schema(kernel::KERNEL_SCHEMA)
        }),
    },
    Artifact {
        name: "flight",
        file: FLIGHT_BENCH_JSON,
        generator: Generator::Plain(|| {
            flight::flight_bench_artifact().to_json_with_schema(flight::FLIGHT_SCHEMA)
        }),
    },
    Artifact {
        name: "workload",
        file: WORKLOAD_BENCH_JSON,
        generator: Generator::Plain(|| {
            workload::workload_bench_artifact().to_json_with_schema(workload::WORKLOAD_SCHEMA)
        }),
    },
];

/// The table entry called `name`.
///
/// # Errors
/// Names the unknown artifact and lists the known ones.
pub fn find(name: &str) -> Result<&'static Artifact, String> {
    crate::lookup(ARTIFACTS, |a| a.name, "artifact", name)
}

impl Artifact {
    /// Where the committed file lives in this checkout.
    #[must_use]
    pub fn path(&self) -> PathBuf {
        [env!("CARGO_MANIFEST_DIR"), "..", "..", self.file]
            .iter()
            .collect()
    }

    /// The committed file's text.
    ///
    /// # Errors
    /// Propagates the underlying I/O error.
    pub fn committed(&self) -> std::io::Result<String> {
        std::fs::read_to_string(self.path())
    }

    /// Regenerates the artifact's text once, under `mode` where the
    /// artifact has one.
    #[must_use]
    pub fn render(&self, mode: RunMode) -> String {
        match self.generator {
            Generator::Plain(generate) => generate(),
            Generator::Moded(generate) => generate(mode),
        }
    }

    /// Regenerates the artifact's text — under both run modes where one
    /// exists.
    ///
    /// # Panics
    /// Panics if the serial and parallel runs differ in any byte.
    #[must_use]
    pub fn generate(&self) -> String {
        let fresh = self.render(RunMode::Parallel);
        if let Generator::Moded(_) = self.generator {
            if let Some(diff) = first_difference(&fresh, &self.render(RunMode::Serial)) {
                panic!(
                    "{}: parallel (-) and serial (+) runs differ{diff}",
                    self.name
                );
            }
        }
        fresh
    }

    /// Compares `fresh` with the committed file.
    ///
    /// # Errors
    /// Names the artifact, the first differing line and the command that
    /// rewrites the file, or says why the file could not be read.
    pub fn check(&self, fresh: &str) -> Result<(), String> {
        let committed = self
            .committed()
            .map_err(|e| format!("{} (`{}`): cannot read: {e}", self.file, self.name))?;
        match first_difference(&committed, fresh) {
            None => Ok(()),
            Some(diff) => Err(format!(
                "{} (`{}`): committed (-) and regenerated (+) text differ{diff}\n  \
                 if intended: cargo run --release -p drs-bench -- regen {}",
                self.file, self.name, self.name
            )),
        }
    }
}

/// Regenerates artifact `name` and compares it with the committed file —
/// the byte-pin every test goes through.
///
/// # Panics
/// Panics with [`Artifact::check`]'s message if any byte moved, or if the
/// table has no such entry.
pub fn pin(name: &str) {
    let artifact = find(name).unwrap_or_else(|why| panic!("{why}"));
    if let Err(why) = artifact.check(&artifact.generate()) {
        panic!("{why}");
    }
}

/// ` at line N:\n  - old\n  + new` for the first line where the texts
/// part; `None` when they are equal.
fn first_difference(old: &str, new: &str) -> Option<String> {
    if old == new {
        return None;
    }
    let (mut a, mut b) = (old.lines(), new.lines());
    let mut line = 1;
    loop {
        let (x, y) = (a.next(), b.next());
        if x != y || x.is_none() {
            let show = |l: Option<&str>| l.unwrap_or("<end of file>").to_string();
            return Some(format!(
                " at line {line}:\n  - {}\n  + {}",
                show(x),
                show(y)
            ));
        }
        line += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_files_are_unique_and_findable() {
        for (i, a) in ARTIFACTS.iter().enumerate() {
            assert_eq!(find(a.name).unwrap().file, a.file);
            for b in &ARTIFACTS[i + 1..] {
                assert_ne!(a.name, b.name);
                assert_ne!(a.file, b.file);
            }
        }
        let why = find("absent").err().expect("no such entry");
        assert!(why.starts_with("unknown artifact `absent`; known: sweep sim "));
    }

    #[test]
    fn first_difference_reports_the_line_or_the_shorter_side() {
        assert_eq!(first_difference("a\nb\n", "a\nb\n"), None);
        assert_eq!(
            first_difference("a\nb\nc\n", "a\nB\nc\n").unwrap(),
            " at line 2:\n  - b\n  + B"
        );
        assert_eq!(
            first_difference("a\n", "a\nb\n").unwrap(),
            " at line 2:\n  - <end of file>\n  + b"
        );
        // Same lines, different trailing newline: still a difference.
        assert!(first_difference("a\n", "a").is_some());
    }

    #[test]
    fn drift_message_names_artifact_line_and_command() {
        let sweep = find("sweep").unwrap();
        let committed = sweep.committed().unwrap();
        assert_eq!(sweep.check(&committed), Ok(()));
        let why = sweep
            .check(&committed.replacen("\"seed\": 42", "\"seed\": 43", 1))
            .unwrap_err();
        assert!(
            why.starts_with("BENCH_survivability.json (`sweep`)"),
            "{why}"
        );
        assert!(why.contains(" at line 3:\n  -   \"seed\": 42,\n  +   \"seed\": 43,"));
        assert!(why.ends_with("-p drs-bench -- regen sweep"), "{why}");
    }
}
