//! The one table of reports.
//!
//! [`REPORTS`] is the only place that knows which of the paper's tables,
//! figures and claims the repo regenerates. Each entry's `run` prints the
//! regenerated rows at full size and returns one [`Check`] per claim it
//! verified on the way — the verdict the table already shows
//! (`REPRODUCED`, a mismatch count, an outage ordering), as a value.
//! `drs-bench report <name>` prints one report; `drs-bench repro` runs
//! them all and prints a PASS/FAIL line per check, so every claim is
//! checked by exactly one piece of code: the report that prints it. A
//! new report costs its module and one table line.

use crate::flight::flight_verdict;
use crate::kernel;
use crate::workload::{million_verdict, slo_verdict};

mod ablation;
mod deployment_study;
mod e2e;
mod failover_timeline;
mod fig1;
mod fig2;
mod fig3;
mod milestones;
mod proactive_vs_reactive;

/// One claim a report checked while printing its tables.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// Whether the run bore the claim out.
    pub ok: bool,
    /// What was measured, as `drs-bench repro` prints it after the
    /// report's name.
    pub detail: String,
}

/// How a report's own table words a verdict on a quoted paper sentence.
fn reproduced(ok: bool) -> &'static str {
    if ok {
        "REPRODUCED"
    } else {
        "NOT reproduced"
    }
}

/// One regenerated table, figure or claim.
pub struct Report {
    /// Short name: the `drs-bench report`/`repro` positional and the key
    /// of [`find`].
    pub name: &'static str,
    /// What the report reproduces, in one line.
    pub claim: &'static str,
    /// Prints the report's tables and returns its checks (none for a pure
    /// outcome table).
    pub run: fn() -> Vec<Check>,
}

/// Every report (DESIGN.md §6 indexes them by paper artefact).
pub const REPORTS: &[Report] = &[
    Report {
        name: "fig1",
        claim: "Figure 1: response time vs cluster size per bandwidth budget; \
                ninety hosts in under 1 s at 10 %",
        run: fig1::run,
    },
    Report {
        name: "fig2",
        claim: "Figure 2: P[Success] converges to 1 as N grows, f = 2..10, N <= 64",
        run: fig2::run,
    },
    Report {
        name: "fig3",
        claim: "Figure 3: the validation simulation converges to Equation 1; \
                deviation < 0.02 at 1,000 iterations",
        run: fig3::run,
    },
    Report {
        name: "milestones",
        claim: "Equation 1 milestones: P[S] surpasses 0.99 at 18/32/45 nodes for f = 2/3/4",
        run: milestones::run,
    },
    Report {
        name: "proactive_vs_reactive",
        claim: "proactive DRS repairs before applications notice; reactive routing does not",
        run: proactive_vs_reactive::run,
    },
    Report {
        name: "deployment_study",
        claim: "13 % of one year's hardware failures across 100 servers were network related",
        run: deployment_study::run,
    },
    Report {
        name: "e2e",
        claim:
            "the packet-level DRS achieves exactly the connectivity Equation 1's predicate promises",
        run: e2e::run,
    },
    Report {
        name: "ablation",
        claim: "outcome tables for the daemon's design choices (DESIGN.md §7)",
        run: ablation::run,
    },
    Report {
        name: "failover_timeline",
        claim: "second-by-second view of one hub failure and repair",
        run: failover_timeline::run,
    },
    Report {
        name: "kernel",
        claim:
            "the batched monitor sends the per-pair driver's probes on O(N) timer events per cycle",
        run: kernel_claim,
    },
    Report {
        name: "flight",
        claim: "flight-recorder causal chains reproduce the daemons' failover histograms",
        run: flight_claim,
    },
    Report {
        name: "workload",
        claim:
            "a million sessions cost one kernel event per transition; failover SLOs are conserved",
        run: workload_claims,
    },
];

/// The table entry called `name`.
///
/// # Errors
/// Names the unknown report and lists the known ones.
pub fn find(name: &str) -> Result<&'static Report, String> {
    crate::lookup(REPORTS, |r| r.name, "report", name)
}

/// The batched monitor cycle sends the identical probe sequence while
/// scheduling O(N) timer events per cycle, against the per-pair driver's
/// O(K·N²).
fn kernel_claim() -> Vec<Check> {
    let (n, planes) = (16, 2);
    let per_pair = kernel::run_cell(n, planes, false);
    let batched = kernel::run_cell(n, planes, true);
    let pair_timers = (usize::from(planes) * n * (n - 1)) as f64;
    vec![Check {
        ok: per_pair.probes_sent == batched.probes_sent
            && batched.timer_events_per_cycle() <= 4.0 * n as f64
            && per_pair.timer_events_per_cycle() >= pair_timers,
        detail: format!(
            "{:.1} vs {:.1} timer events/cycle, same {} probes",
            per_pair.timer_events_per_cycle(),
            batched.timer_events_per_cycle(),
            batched.probes_sent
        ),
    }]
}

/// Every reconstructed failover chain is complete (no orphaned cause
/// refs) and its timestamp-only decomposition reproduces the daemon's
/// failover-latency histogram samples exactly, 100 % matched.
fn flight_claim() -> Vec<Check> {
    let fv = flight_verdict();
    vec![Check {
        ok: fv.all_matched(),
        detail: format!("{fv:?}"),
    }]
}

/// A million-session closed-loop population costs the kernel exactly one
/// event per session transition — a pure integer identity — inside a
/// fixed event budget with the byte ledger balanced; and through a hub
/// failover the session SLOs are real: stalls open and resume, every
/// reroute the engine credits is one the daemons observed, and offered ==
/// delivered + shortfall + dropped + in_flight exactly.
fn workload_claims() -> Vec<Check> {
    let mv = million_verdict();
    let sv = slo_verdict();
    vec![
        Check {
            ok: mv.holds(),
            detail: format!("{mv:?}"),
        },
        Check {
            ok: sv.holds(),
            detail: format!("{sv:?}"),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_findable_and_every_entry_states_its_claim() {
        for (i, r) in REPORTS.iter().enumerate() {
            assert_eq!(find(r.name).expect("own name").claim, r.claim);
            assert!(!r.claim.is_empty(), "{}", r.name);
            for other in &REPORTS[i + 1..] {
                assert_ne!(r.name, other.name);
            }
        }
        let why = find("absent").err().expect("no such entry");
        assert!(
            why.starts_with("unknown report `absent`; known: fig1 fig2 fig3 milestones "),
            "{why}"
        );
    }
}
