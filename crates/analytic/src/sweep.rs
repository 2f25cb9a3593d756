//! The survivability sweep engine: fan an `(N, f)` grid of evaluation
//! cells across worker threads and collect machine-readable results.
//!
//! Every experiment binary used to hand-roll its own nested loops over
//! cluster sizes, failure counts and evaluation methods. This module gives
//! them one engine: a [`SweepConfig`] names the cells (each an `(N, f)`
//! pair plus a [`Method`]), [`run_sweep`] evaluates them in parallel with a
//! deterministic per-cell seed derived by SplitMix64 mixing, and
//! [`SweepResult::to_json`] serializes the whole run to the
//! `BENCH_survivability.json` schema (documented in EXPERIMENTS.md) so the
//! bench trajectory is tracked PR-over-PR.
//!
//! Determinism: for a fixed `(config, master seed)` the result — including
//! its JSON form — is byte-identical regardless of thread count or
//! scheduling. Cells carry their exact `u128` counts (as decimal strings
//! in JSON: the values exceed what consumers can hold in a double); every
//! method counts, so a sweep involves no random draw at all.

use drs_obs::artifact::write;
use drs_obs::par;

use crate::binom::shared_table;
use crate::connectivity::{KPlane, Question};
use crate::enumerate::{count_parallel, enumerate_pair_success};
use crate::exact::{component_count, p_success_f64, success_count};
use crate::orbit::orbit_pair_success;

/// How one `(N, f)` cell is evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Equation 1 closed form (`u128`-exact where possible, log-space
    /// `f64` beyond).
    Exact,
    /// Symmetry-reduced orbit counting ([`crate::orbit`]).
    Orbit,
    /// Raw sequential subset enumeration with delta updates.
    Enumerate,
    /// Block-split parallel subset enumeration.
    EnumerateParallel,
}

impl Method {
    /// Stable label used in JSON and table output.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Method::Exact => "exact",
            Method::Orbit => "orbit",
            Method::Enumerate => "enumerate",
            Method::EnumerateParallel => "enumerate_parallel",
        }
    }
}

/// One cell of a sweep grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellSpec {
    /// Cluster size.
    pub n: u64,
    /// Simultaneous component failures.
    pub f: u64,
    /// Evaluation method.
    pub method: Method,
}

/// The result of one evaluated cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Cluster size.
    pub n: u64,
    /// Simultaneous component failures.
    pub f: u64,
    /// Evaluation method ([`Method::label`]).
    pub method: &'static str,
    /// The survivability value the cell produced.
    pub p_success: f64,
    /// Exact success count; `None` for closed-form cells outside the
    /// `u128` range.
    pub successes: Option<u128>,
    /// Exact combination count.
    pub total: Option<u128>,
    /// The derived per-cell seed ([`cell_seed`]), recorded in the
    /// artifact; no counting method draws from it.
    pub seed: u64,
}

/// A sweep to run: a master seed plus the grid of cells.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    /// Master seed; per-cell seeds are derived from it.
    pub seed: u64,
    /// Cells, evaluated in parallel, reported in this order.
    pub cells: Vec<CellSpec>,
}

impl SweepConfig {
    /// An empty sweep with a master seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SweepConfig {
            seed,
            cells: Vec::new(),
        }
    }

    /// Adds one cell.
    pub fn push(&mut self, n: u64, f: u64, method: Method) {
        self.cells.push(CellSpec { n, f, method });
    }

    /// Adds a rectangular grid of cells (skipping infeasible `f > 2N + 2`
    /// corners), one per `(n, f)` pair.
    pub fn push_grid(
        &mut self,
        ns: impl IntoIterator<Item = u64> + Clone,
        fs: impl IntoIterator<Item = u64>,
        method: Method,
    ) {
        for f in fs {
            for n in ns.clone() {
                if f <= component_count(n) {
                    self.push(n, f, method);
                }
            }
        }
    }

    /// The committed benchmark grid: the paper's Figure 2 axes evaluated
    /// by the closed form, cross-checked by orbit counting at every cell
    /// and by raw/parallel enumeration where the subset walk is feasible,
    /// plus the three milestone crossings. Counting methods only, so the
    /// emitted artifact involves no random draw.
    #[must_use]
    pub fn bench_grid(seed: u64) -> Self {
        let mut cfg = SweepConfig::new(seed);
        let ns = [4u64, 8, 16, 18, 24, 32, 45, 64];
        cfg.push_grid(ns, 2..=10, Method::Exact);
        cfg.push_grid(ns, 2..=10, Method::Orbit);
        cfg.push_grid([2u64, 4, 6, 8], [2u64, 4, 6, 8], Method::Enumerate);
        cfg.push(8, 6, Method::EnumerateParallel);
        for (f, n_star) in [(2u64, 18u64), (3, 32), (4, 45)] {
            cfg.push(n_star - 1, f, Method::Orbit);
        }
        cfg
    }
}

/// The per-cell seed: SplitMix64-style mixing of the master seed with the
/// cell coordinates, so cells are independent and any subset of the grid
/// reproduces the full run's values.
///
/// Delegates to [`drs_harness::coord_seed`], the workspace-wide seed
/// discipline; the harness pins the exact constants this function has
/// always used, so the committed `BENCH_survivability.json` is unchanged.
#[must_use]
pub fn cell_seed(master: u64, n: u64, f: u64) -> u64 {
    drs_harness::coord_seed(master, n, f)
}

/// A completed sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// Master seed the sweep ran under.
    pub seed: u64,
    /// Cell results, in [`SweepConfig::cells`] order.
    pub cells: Vec<CellResult>,
}

impl SweepResult {
    /// The first cell matching `(n, f, method label)`, if any.
    #[must_use]
    pub fn get(&self, n: u64, f: u64, method: &str) -> Option<&CellResult> {
        self.cells
            .iter()
            .find(|c| c.n == n && c.f == f && c.method == method)
    }

    /// All cells produced by `method`, in grid order.
    pub fn by_method<'a>(&'a self, method: &'a str) -> impl Iterator<Item = &'a CellResult> {
        self.cells.iter().filter(move |c| c.method == method)
    }

    /// The cross-check between independent counting methods: every cell
    /// whose `(successes, total)` differs from the cell it must equal —
    /// `orbit` against `exact` (where Equation 1 fits `u128`), `enumerate`
    /// against `orbit`, `enumerate_parallel` against `enumerate` — one
    /// description per mismatch. Empty on a healthy sweep.
    #[must_use]
    pub fn disagreements(&self) -> Vec<String> {
        let pairs = [
            ("orbit", "exact"),
            ("enumerate", "orbit"),
            ("enumerate_parallel", "enumerate"),
        ];
        let mut out = Vec::new();
        for (method, reference) in pairs {
            for c in self.by_method(method) {
                let Some(r) = self.get(c.n, c.f, reference) else {
                    continue;
                };
                if r.successes.is_some() && (c.successes, c.total) != (r.successes, r.total) {
                    out.push(format!("{method} vs {reference} at N={} f={}", c.n, c.f));
                }
            }
        }
        out
    }

    /// Serializes to the `BENCH_survivability.json` schema: one flat
    /// `cells` row per cell, `u128` counts as quoted decimals (exact
    /// counts routinely exceed 2^53 and would be silently rounded by
    /// double-based JSON parsers), streamed from the cells by
    /// [`drs_obs::artifact::write`].
    #[must_use]
    pub fn to_json(&self) -> String {
        // A cell line is at most ~165 B (the committed grid).
        let capacity = 128 + 192 * self.cells.len();
        write("drs-bench-survivability/v1", self.seed, capacity, |top| {
            top.list("cells", &self.cells, |o, c| {
                o.field("n", c.n)
                    .field("f", c.f)
                    .field("method", c.method)
                    .field("p_success", c.p_success)
                    .field("successes", c.successes)
                    .field("total", c.total)
                    .field("seed", c.seed);
            });
        })
    }
}

/// `successes / total` with the empty space mapping to 0.0 rather than
/// NaN: [`SweepConfig::push`] (unlike [`SweepConfig::push_grid`]) does not
/// validate feasibility, and an `f > 2N + 2` cell counts over zero
/// subsets — `NaN` would be an invalid JSON token in the artifact.
fn ratio(successes: u128, total: u128) -> f64 {
    if total == 0 {
        0.0
    } else {
        successes as f64 / total as f64
    }
}

/// Evaluates one cell.
#[must_use]
pub fn run_cell(master_seed: u64, spec: &CellSpec) -> CellResult {
    let CellSpec { n, f, method } = *spec;
    let seed = cell_seed(master_seed, n, f);
    let (p, successes, total) = match method {
        Method::Exact => {
            if let Some(total) = shared_table().get(component_count(n), f) {
                let s = success_count(n, f);
                (ratio(s, total), Some(s), Some(total))
            } else {
                (p_success_f64(n, f), None, None)
            }
        }
        Method::Orbit => {
            let (s, t) = orbit_pair_success(n, f).expect("orbit count overflows u128");
            (ratio(s, t), Some(s), Some(t))
        }
        Method::Enumerate => {
            let (s, t) = enumerate_pair_success(n as usize, f as usize);
            (ratio(s, t), Some(s), Some(t))
        }
        Method::EnumerateParallel => {
            let (s, t) = count_parallel(&KPlane::new(n as usize, 2, Question::Pair), f as usize);
            (ratio(s, t), Some(s), Some(t))
        }
    };
    CellResult {
        n,
        f,
        method: method.label(),
        p_success: p,
        successes,
        total,
        seed,
    }
}

/// Runs every cell of the sweep across [`par`] workers. Results come back
/// in grid order; the run is deterministic for a fixed config.
#[must_use]
pub fn run_sweep(cfg: &SweepConfig) -> SweepResult {
    SweepResult {
        seed: cfg.seed,
        cells: par::map(cfg.cells.len(), |i| run_cell(cfg.seed, &cfg.cells[i])),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_runs() {
        let cfg = SweepConfig::bench_grid(42);
        let a = run_sweep(&cfg);
        let b = run_sweep(&cfg);
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn methods_agree_on_shared_cells() {
        let mut r = run_sweep(&SweepConfig::bench_grid(42));
        assert_eq!(r.disagreements(), Vec::<String>::new());
        // The check is live: all three method pairs overlap on the grid,
        // and a single moved count is reported against its reference.
        assert!(r.get(8, 6, "enumerate_parallel").is_some());
        assert!(r.get(8, 6, "enumerate").is_some() && r.get(8, 6, "orbit").is_some());
        let orbit = r
            .cells
            .iter_mut()
            .find(|c| (c.n, c.f, c.method) == (18, 2, "orbit"))
            .expect("milestone cell");
        orbit.successes = orbit.successes.map(|s| s + 1);
        assert_eq!(r.disagreements(), ["orbit vs exact at N=18 f=2"]);
    }

    #[test]
    fn milestone_cells_bracket_the_crossing() {
        let r = run_sweep(&SweepConfig::bench_grid(42));
        for (f, n_star) in [(2u64, 18u64), (3, 32), (4, 45)] {
            let at = r.get(n_star, f, "orbit").unwrap();
            let before = r.get(n_star - 1, f, "orbit").unwrap();
            // Integer cross-multiplication: s/t > 99/100 at N*, not at N*-1.
            let (s, t) = (at.successes.unwrap(), at.total.unwrap());
            assert!(s * 100 > t * 99, "f={f} at N={n_star}");
            let (s, t) = (before.successes.unwrap(), before.total.unwrap());
            assert!(s * 100 <= t * 99, "f={f} at N={}", n_star - 1);
        }
    }

    #[test]
    fn json_is_well_formed_and_complete() {
        let mut cfg = SweepConfig::new(1);
        cfg.push(4, 2, Method::Exact);
        cfg.push(4, 2, Method::Orbit);
        let json = run_sweep(&cfg).to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        assert!(json.contains("\"schema\": \"drs-bench-survivability/v1\""));
        assert!(json.contains("\"method\": \"exact\""));
        assert!(json.contains("\"method\": \"orbit\""));
        // Counts are strings, probabilities are numbers.
        assert!(json.contains("\"successes\": \""));
        assert!(!json.contains("NaN") && !json.contains("inf"));
        // Exactly one cell separator comma between the two cell objects.
        assert_eq!(json.matches("},\n").count(), 1);
    }

    #[test]
    fn infeasible_direct_push_yields_zero_not_nan() {
        // push (unlike push_grid) does not validate f ≤ 2N + 2; such a
        // cell counts over an empty space and must come back as p = 0
        // with valid JSON, not 0/0 = NaN.
        let mut cfg = SweepConfig::new(3);
        cfg.push(2, 20, Method::Orbit);
        cfg.push(2, 20, Method::Exact);
        cfg.push(2, 20, Method::Enumerate);
        cfg.push(2, 20, Method::EnumerateParallel);
        let r = run_sweep(&cfg);
        for c in &r.cells {
            assert_eq!(c.p_success, 0.0, "n={} f={} {}", c.n, c.f, c.method);
            assert_eq!(c.successes, Some(0));
            assert_eq!(c.total, Some(0));
        }
        let json = r.to_json();
        assert!(!json.contains("NaN") && !json.contains("inf"));
    }

    #[test]
    fn cell_seed_mixes_coordinates() {
        let s = cell_seed(42, 8, 3);
        assert_ne!(s, cell_seed(42, 8, 4));
        assert_ne!(s, cell_seed(42, 9, 3));
        assert_ne!(s, cell_seed(43, 8, 3));
        assert_eq!(s, cell_seed(42, 8, 3));
    }

    #[test]
    fn grid_skips_infeasible_corners() {
        let mut cfg = SweepConfig::new(0);
        cfg.push_grid([2u64, 20], [6u64, 50], Method::Exact);
        // f=50 exceeds both 2·2+2 and 2·20+2: only the f=6 row survives.
        assert_eq!(cfg.cells.len(), 2);
        assert!(cfg.cells.iter().all(|c| c.f <= component_count(c.n)));
    }
}
