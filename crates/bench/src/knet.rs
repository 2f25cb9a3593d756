//! The K-plane survivability sweep: the end-to-end DES-vs-analytic
//! cross-check of [`crate::e2e`], generalized over the redundancy degree.
//!
//! Every cell is a `(K, n, f)` triple. The analytic side counts the exact
//! pair-survivability over the generalized universe of `K·N + K`
//! components ([`drs_analytic::enumerate::enumerate_pair_success_k`]);
//! the simulation side is [`crate::trial::run_trial`]: deterministically
//! unranked failure sets replayed against a live K-plane DRS cluster,
//! delivery checked against the generalized connectivity predicate. At
//! `K = 2` this is exactly the paper's cluster; `K ∈ {3, 4}` is the
//! "beyond the paper" family the refactor opened up.
//!
//! Like the other committed benchmarks, nothing on this path draws a
//! random number: failure sets come from combinadic unranking of the
//! trial seed, so the committed `BENCH_knet_survivability.json` is
//! byte-reproducible on any machine and thread count.

use drs_analytic::enumerate::enumerate_pair_success_k;
use drs_harness::{coord_seed, stream_seed, Experiment, RunMode};
use drs_obs::artifact::write;

use crate::trial::{Trial, TrialBases};

/// Schema tag written into every K-plane sweep artifact.
pub const SCHEMA: &str = "drs-bench-knet-survivability/v1";

/// The redundancy degrees the committed sweep covers. `2` is the paper's
/// cluster; `3` and `4` exercise the generalized layer.
pub const KNET_PLANES: [u8; 3] = [2, 3, 4];

/// The `(n, f)` cells swept at every redundancy degree.
pub const KNET_GRID: [(usize, usize); 3] = [(5, 2), (6, 2), (6, 3)];

/// Simulation replications per `(K, n, f)` cell.
pub const KNET_TRIALS_PER_CELL: usize = 12;

/// One artifact row: a `(K, n, f)` cell with its exact count and its
/// simulation cross-check tallies.
#[derive(Debug, Clone, PartialEq)]
pub struct KnetCellResult {
    /// Redundancy degree.
    pub planes: u8,
    /// Cluster size.
    pub n: usize,
    /// Simultaneous component failures.
    pub f: usize,
    /// Exact count of surviving failure subsets (pair `0 -> 1`).
    pub successes: u128,
    /// `C(K·n + K, f)` — the size of the failure universe.
    pub total: u128,
    /// `successes / total`.
    pub p_exact: f64,
    /// Simulation trials run.
    pub trials: u64,
    /// Trials whose application message was delivered.
    pub delivered: u64,
    /// Trials where simulation and predicate agreed.
    pub agree: u64,
    /// The cell's derived master seed.
    pub seed: u64,
}

/// The whole K-plane sweep artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct KnetArtifact {
    /// The benchmark master seed the cell seeds derive from.
    pub seed: u64,
    /// Cells in `KNET_PLANES × KNET_GRID` order.
    pub cells: Vec<KnetCellResult>,
}

impl KnetArtifact {
    /// The cell for `(planes, n, f)`, if swept.
    #[must_use]
    pub fn get(&self, planes: u8, n: usize, f: usize) -> Option<&KnetCellResult> {
        self.cells
            .iter()
            .find(|c| c.planes == planes && c.n == n && c.f == f)
    }

    /// Serializes to the `drs-bench-knet-survivability/v1` schema: one
    /// flat `cells` row per cell, `u128` counts as quoted decimals,
    /// streamed from the cells by [`drs_obs::artifact::write`].
    #[must_use]
    pub fn to_json(&self) -> String {
        // A cell line is at most ~175 B (the committed grid).
        write(SCHEMA, self.seed, 128 + 256 * self.cells.len(), |top| {
            top.list("cells", &self.cells, |o, c| {
                o.field("k", u64::from(c.planes))
                    .field("n", c.n as u64)
                    .field("f", c.f as u64)
                    .field("p_exact", c.p_exact)
                    .field("successes", c.successes)
                    .field("total", c.total)
                    .field("trials", c.trials)
                    .field("delivered", c.delivered)
                    .field("agree", c.agree)
                    .field("seed", c.seed);
            });
        })
    }
}

/// The derived master seed of one `(K, n, f)` cell: one SplitMix64 stream
/// per redundancy degree, then the same coordinate mixing the analytic and
/// simulation sweeps use — so any single cell reproduces in isolation.
#[must_use]
pub fn knet_cell_seed(master: u64, planes: u8, n: usize, f: usize) -> u64 {
    coord_seed(stream_seed(master, u64::from(planes)), n as u64, f as u64)
}

/// Runs one `(K, n, f)` cell's simulation trials under `master_seed`,
/// each on a fork of the `(n, K)` base in `bases`; trial order is stable
/// across run modes.
#[must_use]
pub fn run_cell(
    bases: &mut TrialBases,
    n: usize,
    planes: u8,
    f: usize,
    trials: usize,
    master_seed: u64,
    mode: RunMode,
) -> Vec<Trial> {
    let exp = Experiment::replications(&format!("knet/k{planes}_n{n}_f{f}"), master_seed, trials);
    let base = bases.get(n, planes);
    exp.run(mode, |ctx, ()| base.run(f, ctx.seed))
}

/// Folds one cell: exact enumeration over the generalized universe plus
/// the simulation tallies.
#[must_use]
pub fn cell_result(
    n: usize,
    planes: u8,
    f: usize,
    master_seed: u64,
    rows: &[Trial],
) -> KnetCellResult {
    let (successes, total) = enumerate_pair_success_k(n, planes, f);
    KnetCellResult {
        planes,
        n,
        f,
        successes,
        total,
        p_exact: successes as f64 / total as f64,
        trials: rows.len() as u64,
        delivered: rows.iter().filter(|t| t.delivered).count() as u64,
        agree: rows.iter().filter(|t| t.agrees()).count() as u64,
        seed: master_seed,
    }
}

/// Builds the full K-plane sweep artifact under `mode`.
///
/// [`RunMode::Serial`] and [`RunMode::Parallel`] produce identical
/// artifacts; `regen` asserts this on every run before writing the file.
#[must_use]
pub fn bench_artifact(master_seed: u64, mode: RunMode) -> KnetArtifact {
    let mut cells = Vec::with_capacity(KNET_PLANES.len() * KNET_GRID.len());
    let mut bases = TrialBases::default();
    for &planes in &KNET_PLANES {
        for &(n, f) in &KNET_GRID {
            let seed = knet_cell_seed(master_seed, planes, n, f);
            let rows = run_cell(&mut bases, n, planes, f, KNET_TRIALS_PER_CELL, seed, mode);
            cells.push(cell_result(n, planes, f, seed, &rows));
        }
    }
    KnetArtifact {
        seed: master_seed,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trial::run_trial;

    #[test]
    fn three_plane_trials_agree_with_the_predicate() {
        let rows = run_cell(
            &mut TrialBases::default(),
            5,
            3,
            2,
            6,
            42,
            RunMode::Parallel,
        );
        assert_eq!(rows.len(), 6);
        for t in &rows {
            assert!(t.agrees(), "seed {} disagreed: {t:?}", t.seed);
        }
    }

    #[test]
    fn cell_runs_are_mode_independent() {
        let mut bases = TrialBases::default();
        let serial = run_cell(&mut bases, 5, 3, 2, 4, 7, RunMode::Serial);
        let parallel = run_cell(&mut bases, 5, 3, 2, 4, 7, RunMode::Parallel);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn two_plane_cell_matches_the_legacy_universe() {
        // At K=2 the generalized enumeration is the paper's C(2n+2, f)
        // universe exactly.
        let cell = cell_result(5, 2, 2, 1, &[]);
        let (s, t) = drs_analytic::enumerate::enumerate_pair_success(5, 2);
        assert_eq!((cell.successes, cell.total), (s, t));
    }

    #[test]
    fn json_shape_is_stable_and_deterministic() {
        let artifact = KnetArtifact {
            seed: 42,
            cells: vec![cell_result(5, 3, 2, 77, &[run_trial(5, 3, 2, 0)])],
        };
        let json = artifact.to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("  ]\n}\n"));
        assert!(json.contains(&format!("\"schema\": \"{SCHEMA}\"")));
        assert!(json.contains("\"k\": 3"));
        assert!(json.contains("\"total\": \""));
        assert_eq!(json, artifact.to_json());
    }

    #[test]
    fn cell_seeds_are_distinct_across_planes() {
        let s2 = knet_cell_seed(42, 2, 6, 2);
        let s3 = knet_cell_seed(42, 3, 6, 2);
        let s4 = knet_cell_seed(42, 4, 6, 2);
        assert_ne!(s2, s3);
        assert_ne!(s3, s4);
        assert_ne!(s2, s4);
    }
}
