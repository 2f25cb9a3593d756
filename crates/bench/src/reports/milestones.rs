//! Regenerates the paper's **milestone claims** (text of §4/§6):
//! the cluster sizes at which P\[Success\] surpasses 0.99 for each failure
//! count, and the q^f multiple-failure decay argument. The crossings are
//! additionally verified by **symmetry-reduced exact enumeration** (the
//! orbit counter, via the sweep engine) — ground truth at cluster sizes the
//! raw subset walk could never reach — on the committed benchmark grid,
//! whose independent counting methods must also agree cell for cell.

use drs_analytic::exact::p_success;
use drs_analytic::qmodel::{
    geometric_failure_weight, unconditional_survivability, FailureWeighting,
};
use drs_analytic::sweep::{run_sweep, SweepConfig};
use drs_analytic::thresholds::milestone_table;

use super::Check;
use crate::{fmt_p, row, section, BENCH_SEED};

/// The paper's crossings: `(f, N*)` with P\[S\] first above 0.99 at `N*`.
const PAPER_CROSSINGS: [(u64, u64); 3] = [(2, 18), (3, 32), (4, 45)];

pub(super) fn run() -> Vec<Check> {
    println!("DRS survivability milestones (Equation 1, exact)");

    section("P[S] > 0.99 crossings");
    row(
        &[
            "f".into(),
            "N*".into(),
            "P[S](N*)".into(),
            "P[S](N*-1)".into(),
        ],
        &[3, 5, 10, 11],
    );
    let table = milestone_table(2..=10, 0.99);
    for m in &table {
        row(
            &[
                m.failures.to_string(),
                m.n_crossing.to_string(),
                fmt_p(m.p_at_crossing),
                fmt_p(m.p_before),
            ],
            &[3, 5, 10, 11],
        );
    }
    println!();
    println!("paper: f=2 -> 18, f=3 -> 32, f=4 -> 45");

    section("orbit-exact verification at the crossings (independent of Eq. 1)");
    // Exhaustive ground truth by orbit counting: every failure set of the
    // C(2N+2, f) space accounted for, in integer arithmetic. The cells
    // come from the full benchmark grid (`BENCH_survivability.json`),
    // where Equation 1, orbit counting and raw enumeration must agree
    // count-for-count wherever they overlap.
    let sweep = run_sweep(&SweepConfig::bench_grid(BENCH_SEED));
    let mut crossings_exact = true;
    for (f, n_star) in PAPER_CROSSINGS {
        let at = sweep.get(n_star, f, "orbit").expect("cell present");
        let (s, t) = (at.successes.unwrap(), at.total.unwrap());
        let before = sweep.get(n_star - 1, f, "orbit").expect("cell present");
        let (sb, tb) = (before.successes.unwrap(), before.total.unwrap());
        let verdict = s * 100 > t * 99 && sb * 100 <= tb * 99;
        crossings_exact &= verdict;
        println!(
            "  f={f}: F({n_star},{f}) = {s} of {t} sets survive ({}) — crossing {}",
            fmt_p(at.p_success),
            if verdict {
                "verified exactly"
            } else {
                "VIOLATED"
            },
        );
    }
    let disagreements = sweep.disagreements();

    section("limit behaviour: P[S] -> 1 as N grows (f fixed)");
    for f in [2u64, 5, 10] {
        let cells: Vec<String> = [16u64, 64, 256, 1024]
            .iter()
            .map(|&n| format!("N={n}: {}", fmt_p(p_success(n.min(500), f))))
            .collect();
        println!("  f={f}: {}", cells.join("   "));
    }

    section("cluster-wide (all-pairs) survivability — extension beyond the paper");
    {
        use drs_analytic::allpairs::{expected_disconnected_pairs, p_all_pairs};
        println!("   N    f   P[pair]   P[all pairs]   E[broken pairs]");
        for &(n, f) in &[(18u64, 2u64), (32, 3), (45, 4), (64, 6)] {
            println!(
                "  {:>3}  {:>2}   {}   {:>12}   {:>15.2}",
                n,
                f,
                fmt_p(p_success(n, f)),
                fmt_p(p_all_pairs(n, f)),
                expected_disconnected_pairs(n, f),
            );
        }
        println!("  (the pair milestones do NOT imply whole-cluster 0.99: all-pairs");
        println!("   survivability is strictly harder and converges ~N-times slower)");
    }

    section("q^f decay: multiple simultaneous failures are exponentially rare");
    let q = 0.05;
    for f in 2..=6u64 {
        let w = geometric_failure_weight(q, f, 30);
        println!("  P[{f} failures] ~ q^{f} = {:.2e}  (q = {q})", w);
    }

    section("unconditional survivability (Equation 1 mixed over q^f weights)");
    for &q in &[0.01, 0.05, 0.10] {
        for &n in &[8u64, 16, 32] {
            let geo = unconditional_survivability(n, q, FailureWeighting::Geometric);
            let bin = unconditional_survivability(n, q, FailureWeighting::Binomial);
            println!(
                "  q={q:.2} N={n:>2}: geometric {}, binomial {}",
                fmt_p(geo),
                fmt_p(bin)
            );
        }
    }

    let crossings: Vec<u64> = table.iter().take(3).map(|m| m.n_crossing).collect();
    let worst_limit = (2..=10).map(|f| p_success(500, f)).fold(1.0, f64::min);
    vec![
        Check {
            ok: crossings == PAPER_CROSSINGS.map(|(_, n_star)| n_star),
            detail: format!("P[S] > 0.99 first at N = {crossings:?} for f = 2/3/4"),
        },
        Check {
            ok: disagreements.is_empty(),
            detail: format!(
                "orbit == Equation 1, enumeration == orbit, parallel == sequential: \
                 {disagreements:?} over {} cells",
                sweep.cells.len()
            ),
        },
        Check {
            ok: crossings_exact,
            detail: "crossings by orbit-exact integer counting: s*100 > t*99 at N*, not at N*-1"
                .to_string(),
        },
        Check {
            ok: worst_limit > 0.998,
            detail: format!("P[S] -> 1: min {worst_limit:.5} over f = 2..10 at N = 500"),
        },
    ]
}
