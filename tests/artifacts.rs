//! Integration: the table-driven byte pin. Every entry of
//! [`drs_bench::artifacts::ARTIFACTS`] must regenerate its committed
//! `BENCH_*.json` byte for byte — serially and in parallel where the
//! artifact has a run mode — and every row that carries a simulation
//! cross-check must show the DES agreeing with the predicate on every
//! trial.
//!
//! An artifact with a semantic suite of its own (`tests/<name>_artifact.rs`)
//! is pinned there, by name through the same table, in the process that
//! already generates it for its semantic assertions; this file pins every
//! other entry, so each artifact is generated by exactly one test process
//! and a new table line is pinned in Tier-1 without a new test.
//!
//! A failure names the artifact, the first differing line and the one
//! command that rewrites the file: `cargo run --release -p drs-bench --bin
//! regen -- <name>`. CI runs the same `regen`.

use std::path::Path;

use drs::obs::par;
use drs_bench::artifacts::{find, Artifact, ARTIFACTS};

/// The source of `artifact`'s own suite, if it has one.
fn own_suite(artifact: &Artifact) -> Option<String> {
    let file = format!("tests/{}_artifact.rs", artifact.name);
    std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(file)).ok()
}

/// The raw text of field `name` in a one-line JSON row.
fn field<'a>(row: &'a str, name: &str) -> Option<&'a str> {
    let tag = format!("\"{name}\": ");
    let value = &row[row.find(&tag)? + tag.len()..];
    Some(&value[..value.find([',', '}'])?])
}

/// One message per row of `text` whose `agree` tally is not its `trials`.
fn cross_check_failures(artifact: &Artifact, text: &str) -> Vec<String> {
    text.lines()
        .filter(|row| field(row, "agree").is_some_and(|a| Some(a) != field(row, "trials")))
        .map(|row| {
            format!(
                "{}: simulation and predicate disagree in {row}",
                artifact.name
            )
        })
        .collect()
}

#[test]
fn every_artifact_regenerates_byte_for_byte_in_every_mode() {
    let here: Vec<&Artifact> = ARTIFACTS
        .iter()
        .filter(|a| own_suite(a).is_none())
        .collect();
    assert!(!here.is_empty(), "no table entry left to pin here");
    let failures: Vec<String> = par::map(here.len(), |i| {
        let fresh = here[i].generate();
        let mut failures = cross_check_failures(here[i], &fresh);
        failures.extend(here[i].check(&fresh).err());
        failures
    })
    .concat();
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

#[test]
fn every_delegated_artifact_is_pinned_by_name_in_its_own_suite() {
    for artifact in ARTIFACTS {
        let Some(suite) = own_suite(artifact) else {
            continue;
        };
        let name = artifact.name;
        assert!(
            suite.contains("fn committed_artifact_regenerates_byte_for_byte()")
                && (suite.contains(&format!("pin(\"{name}\")"))
                    || suite.contains(&format!("find(\"{name}\")"))),
            "tests/{name}_artifact.rs exists but does not pin `{name}` through the table"
        );
    }
}

#[test]
fn cross_check_reader_sees_a_disagreeing_row() {
    let knet = find("knet").expect("table entry");
    let committed = knet.committed().expect("committed file");
    assert!(committed.lines().any(|row| field(row, "agree").is_some()));
    assert_eq!(cross_check_failures(knet, &committed), Vec::<String>::new());
    let broken = committed.replacen("\"agree\": 12", "\"agree\": 11", 1);
    assert_eq!(cross_check_failures(knet, &broken).len(), 1);
}
