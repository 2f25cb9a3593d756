//! The counting core over arbitrary [`Topology`] graphs.
//!
//! [`crate::enumerate`] and [`crate::montecarlo`] hold the one subset walk
//! and the one Monte-Carlo loop; their named entry points plug in the
//! bitmask [`KPlane`] model of the `K·N + K` component universe. This
//! module plugs in the other model, [`GraphModel`], for **any** topology
//! from [`drs_topology`]: the universe is the graph's switches-then-links
//! component ordering, and the predicate is a [`Reachability`] policy
//! evaluated by [`ReachEngine`]'s search over the live subgraph —
//! [`Reachability::Transitive`] for multi-hop fabrics (Fat-Tree, BCube,
//! DCell), [`Reachability::OneHostRelay`] for the DRS protocol semantics.
//!
//! Most failure sets never reach the search. It returns a
//! [`Certificate`] — the live path it found, or the failed cut that
//! closed an endpoint off — and that proof also decides every other
//! failure set that misses the path or contains the cut. [`GraphModel`]
//! keeps the last four of each and tests them first, two four-word
//! operations per certificate: the walk of `fat_tree(4)` at `f = 4` runs
//! 4 272 searches for 814 385 subsets, `kplane(16, 2)` at `f = 7` 925 for
//! 5 379 616, and independent Monte-Carlo draws still skip nine in ten.
//!
//! The two predicates are deliberately separate implementations, and each
//! is the other's oracle: on the degenerate
//! [`drs_topology::generators::kplane`] topology the universe ordering is
//! bit-compatible with the K-plane layout, so with
//! [`Reachability::OneHostRelay`] the graph model must reproduce
//! [`crate::enumerate::enumerate_pair_success_k`] count-for-count and
//! [`crate::montecarlo::MonteCarlo`] draw-for-draw — the tests pin both.
//! Walking speed no longer separates them: on the same 34-component
//! universe (`n = 16`, `K = 2`, `f = 7`, one thread of a 2-vCPU VM) the
//! graph model walks ≈ 110 M subsets/s against the bitmask predicate's
//! ≈ 100 M, and draws ≈ 9.2 M samples/s against ≈ 23 M (before the
//! certificates the graph model read 12 M and 6 M; before the one word per
//! plane the bitmask model read ≈ 55 M and 15 M). What does separate them
//! is that only the search can answer for a graph that is not K parallel
//! planes, and only the bitmask model answers the all-pairs question.
//!
//! [`KPlane`]: crate::connectivity::KPlane

use drs_topology::limits::validate_components;
use drs_topology::{Certificate, ComponentSet, ReachEngine, Reachability, Topology};

use crate::components::FailureModel;
use crate::enumerate::{count, count_parallel};
use crate::montecarlo::Estimator;

/// Certificates kept per kind. A fabric offers a pair only so many
/// component-disjoint routes and only so many places to close one off
/// cheaply (its own link or edge switch, at either end): on `fat_tree(4)`
/// the full-search count is flat past four of each.
const CACHED: usize = 4;

/// The last [`CACHED`] certificates of one kind, replaced round-robin.
#[derive(Clone, Copy, Default)]
struct Recent {
    sets: [ComponentSet; CACHED],
    /// How many were ever pushed; the newest sits at `pushed - 1 mod CACHED`.
    pushed: usize,
}

impl Recent {
    fn push(&mut self, set: ComponentSet) {
        self.sets[self.pushed % CACHED] = set;
        self.pushed += 1;
    }

    #[inline]
    fn any(&self, hit: impl Fn(&ComponentSet) -> bool) -> bool {
        self.sets[..self.pushed.min(CACHED)].iter().any(hit)
    }
}

/// The graph [`FailureModel`]: can hosts `s` and `t` of a topology still
/// communicate under a [`Reachability`] policy?
///
/// Unlike the K-plane cluster, a general topology is not
/// component-transitive — different host pairs can have different counts —
/// so the pair is explicit.
///
/// The model remembers the last few [`Certificate`]s its searches
/// returned and answers from them first: a failure set that misses a
/// remembered path holds, one that contains a remembered cut does not,
/// and only a set neither decides costs a search. Certificates are facts
/// about the topology, so they outlive [`FailureModel::reset`] and travel
/// with `Clone`, and what `holds` returns never depends on them.
#[derive(Clone)]
pub struct GraphModel<'a> {
    eng: ReachEngine<'a>,
    pub(crate) failed: ComponentSet,
    s: usize,
    t: usize,
    policy: Reachability,
    paths: Recent,
    cuts: Recent,
}

impl<'a> GraphModel<'a> {
    /// The fully-operational `topo`, asked whether `s` reaches `t` under
    /// `policy`.
    ///
    /// # Panics
    /// Panics if the universe exceeds the shared 256-component capacity
    /// (with the common [`drs_topology::limits`] wording), or if `(s, t)`
    /// is not a distinct host pair.
    #[must_use]
    pub fn new(topo: &'a Topology, s: usize, t: usize, policy: Reachability) -> Self {
        if let Err(e) = validate_components(topo.component_count()) {
            panic!("{e}");
        }
        assert!(
            topo.is_host(s) && topo.is_host(t) && s != t,
            "({s},{t}) is not a distinct host pair"
        );
        GraphModel {
            eng: ReachEngine::new(topo),
            failed: ComponentSet::new(),
            s,
            t,
            policy,
            paths: Recent::default(),
            cuts: Recent::default(),
        }
    }

    /// How many [`FailureModel::holds`] calls no remembered certificate
    /// decided — a deterministic count of the full searches run, each of
    /// which pushed the one certificate it returned.
    #[cfg(test)]
    pub(crate) fn searches(&self) -> usize {
        self.paths.pushed + self.cuts.pushed
    }

    /// The full search behind a [`FailureModel::holds`] nothing remembered
    /// could decide; remembers what it proved.
    #[cold]
    fn search(&mut self) -> bool {
        match self.eng.certify(&self.failed, self.s, self.t, self.policy) {
            Certificate::Path(path) => {
                self.paths.push(path);
                true
            }
            Certificate::Cut(cut) => {
                self.cuts.push(cut);
                false
            }
        }
    }
}

impl FailureModel for GraphModel<'_> {
    fn universe(&self) -> usize {
        self.eng.topology().component_count()
    }

    #[inline]
    fn fail(&mut self, idx: usize) {
        self.failed.insert(idx);
    }

    #[inline]
    fn restore(&mut self, idx: usize) {
        self.failed.remove(idx);
    }

    #[inline]
    fn reset(&mut self) {
        self.failed = ComponentSet::new();
    }

    #[inline]
    fn holds(&mut self) -> bool {
        if self.paths.any(|path| path.is_disjoint(&self.failed)) {
            return true;
        }
        if self.cuts.any(|cut| cut.is_subset(&self.failed)) {
            return false;
        }
        self.search()
    }
}

/// Counts, over all `f`-subsets of the topology's component universe, how
/// many leave hosts `s` and `t` connected under `policy`. Returns
/// `(successes, total)`.
///
/// # Panics
/// As [`GraphModel::new`].
#[must_use]
pub fn enumerate_pair_success_topo(
    topo: &Topology,
    f: usize,
    s: usize,
    t: usize,
    policy: Reachability,
) -> (u128, u128) {
    count(GraphModel::new(topo, s, t, policy), f)
}

/// [`enumerate_pair_success_topo`] through
/// [`crate::enumerate::count_parallel`]. Bit-identical counts to the
/// sequential walk.
#[must_use]
pub fn enumerate_pair_success_topo_parallel(
    topo: &Topology,
    f: usize,
    s: usize,
    t: usize,
    policy: Reachability,
) -> (u128, u128) {
    count_parallel(&GraphModel::new(topo, s, t, policy), f)
}

/// Monte-Carlo estimator of pair survivability over an arbitrary topology
/// — the [`crate::montecarlo::MonteCarlo`] sibling for universes too large
/// to enumerate.
pub type TopoMonteCarlo<'a> = Estimator<GraphModel<'a>>;

impl<'a> TopoMonteCarlo<'a> {
    /// Creates an estimator for exactly `f` failed components out of the
    /// topology's universe, testing hosts `s`–`t` under `policy`.
    ///
    /// # Panics
    /// Panics if the universe exceeds the shared 256-component capacity,
    /// if `f` exceeds the universe, or if `(s, t)` is not a distinct host
    /// pair.
    #[must_use]
    pub fn new(
        topo: &'a Topology,
        f: usize,
        s: usize,
        t: usize,
        policy: Reachability,
        seed: u64,
    ) -> Self {
        Estimator::over(GraphModel::new(topo, s, t, policy), f, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::enumerate_pair_success_k;
    use crate::montecarlo::{MonteCarlo, BLOCK};
    use crate::orbit::orbit_pair_success;
    use drs_topology::generators::{bcube, fat_tree, kplane};

    #[test]
    fn kplane_topology_reproduces_the_k_engine_counts() {
        // The degenerate topology + OneHostRelay IS the K-plane model:
        // identical universe ordering, identical predicate, identical
        // counts — across K, not just the paper's 2.
        for planes in 2u8..=4 {
            for n in 2..=4usize {
                let topo = kplane(n, planes as usize);
                for f in 0..=4usize {
                    assert_eq!(
                        enumerate_pair_success_topo(&topo, f, 0, 1, Reachability::OneHostRelay),
                        enumerate_pair_success_k(n, planes, f),
                        "K={planes} n={n} f={f}"
                    );
                }
            }
        }
    }

    #[test]
    fn kplane_topology_matches_the_orbit_closed_form() {
        let topo = kplane(6, 2);
        for f in 0..=6u64 {
            let (s, t) =
                enumerate_pair_success_topo(&topo, f as usize, 0, 1, Reachability::OneHostRelay);
            assert_eq!(Some((s, t)), orbit_pair_success(6, f), "f={f}");
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let topo = fat_tree(2);
        for f in 0..=3usize {
            for policy in [Reachability::Transitive, Reachability::OneHostRelay] {
                assert_eq!(
                    enumerate_pair_success_topo_parallel(&topo, f, 0, 1, policy),
                    enumerate_pair_success_topo(&topo, f, 0, 1, policy),
                    "f={f} policy={policy:?}"
                );
            }
        }
    }

    #[test]
    fn kplane_estimate_is_draw_identical_to_the_k_estimator() {
        // Same universe size, same rejection sampler, same seed: the
        // topology estimator must reproduce the K-plane estimator's counts
        // exactly (not statistically), across the blocks of a long run.
        let iterations = BLOCK + 20_000;
        for (n, planes, f) in [(8usize, 2u8, 3usize), (5, 3, 4)] {
            let topo = kplane(n, planes as usize);
            let a = TopoMonteCarlo::new(&topo, f, 0, 1, Reachability::OneHostRelay, 42)
                .estimate(iterations);
            let b = MonteCarlo::new_k(n, planes, f, 42).estimate(iterations);
            assert_eq!(a, b, "n={n} K={planes} f={f}");
        }
    }

    #[test]
    fn one_block_graph_estimate_draws_from_the_seed_alone() {
        // The count from before the estimator split its samples into
        // blocks, on the benchmark's fat-tree cell.
        let topo = fat_tree(4);
        let mc = TopoMonteCarlo::new(&topo, 4, 0, 15, Reachability::Transitive, 7);
        assert_eq!(mc.estimate(BLOCK).successes, 99_596);
    }

    /// A model walked through `&mut`, so the test still has it — cache,
    /// counter and all — when the walk is over.
    struct Kept<'m, 'a>(&'m mut GraphModel<'a>);

    impl FailureModel for Kept<'_, '_> {
        fn universe(&self) -> usize {
            self.0.universe()
        }
        fn fail(&mut self, idx: usize) {
            self.0.fail(idx);
        }
        fn restore(&mut self, idx: usize) {
            self.0.restore(idx);
        }
        fn reset(&mut self) {
            self.0.reset();
        }
        fn holds(&mut self) -> bool {
            self.0.holds()
        }
    }

    /// Walks every `f`-subset on `model` itself; returns the subset count.
    fn walk_keeping(model: &mut GraphModel<'_>, f: usize) -> u128 {
        let (_, subsets) = count(Kept(model), f);
        model.reset();
        subsets
    }

    #[test]
    fn counts_do_not_depend_on_what_the_cache_holds() {
        // Fresh model, a model that first walked a different `f` (and so
        // carries that walk's certificates), and the block-parallel walk
        // (one clone per block, each starting mid-space).
        let fat = fat_tree(4);
        let planes = kplane(6, 3);
        let cells = [
            (&fat, 0, fat.hosts() - 1, Reachability::Transitive, 3),
            (&planes, 0, 1, Reachability::OneHostRelay, 4),
            (&planes, 0, 1, Reachability::Transitive, 4),
        ];
        for (topo, s, t, policy, max_f) in cells {
            for f in 0..=max_f {
                let fresh = count(GraphModel::new(topo, s, t, policy), f);
                let mut warm = GraphModel::new(topo, s, t, policy);
                assert!(walk_keeping(&mut warm, (f + 2) % 5) > 0 && warm.searches() > 0);
                assert_eq!(count(warm.clone(), f), fresh, "{topo} {policy:?} f={f}");
                assert_eq!(count_parallel(&warm, f), fresh, "{topo} {policy:?} f={f}");
                assert_eq!(
                    enumerate_pair_success_topo_parallel(topo, f, s, t, policy),
                    fresh
                );
            }
        }
    }

    #[test]
    fn estimate_does_not_depend_on_what_the_cache_holds() {
        // Each run clones the estimator's model, so repeating a run proves
        // nothing; an estimator built over a model that already walked the
        // 2-subsets starts every run with that walk's certificates.
        let topo = fat_tree(4);
        let far = topo.hosts() - 1;
        let cold = TopoMonteCarlo::new(&topo, 5, 0, far, Reachability::Transitive, 9);
        let mut model = GraphModel::new(&topo, 0, far, Reachability::Transitive);
        assert!(walk_keeping(&mut model, 2) > 0 && model.searches() > 0);
        let warm = Estimator::over(model, 5, 9);
        assert_eq!(warm.estimate(30_000), cold.estimate(30_000));
    }

    /// Walks every `f`-subset and returns `(subsets, full searches)`.
    fn searches_of_walk(
        topo: &Topology,
        f: usize,
        t: usize,
        policy: Reachability,
    ) -> (u128, usize) {
        let mut model = GraphModel::new(topo, 0, t, policy);
        (walk_keeping(&mut model, f), model.searches())
    }

    #[test]
    fn certificates_decide_all_but_a_few_percent_of_failure_sets() {
        // The clock-free guard of PR 21's gain (`analytic_count` wall_s
        // -30 % or better): on the benchmark's own cells the share of
        // `holds` calls that fall through to a full search — 100 % before
        // that PR — stays a few percent. Measured: 0.52 %, 0.017 %, 9.8 %
        // (the last over the draws `TopoMonteCarlo` makes from this seed).
        let fat = fat_tree(4);
        let far = fat.hosts() - 1;
        let (subsets, searches) = searches_of_walk(&fat, 4, far, Reachability::Transitive);
        assert!(
            searches as u128 * 100 <= subsets * 2,
            "{searches} of {subsets}"
        );

        let planes = kplane(16, 2);
        let (subsets, searches) = searches_of_walk(&planes, 7, 1, Reachability::OneHostRelay);
        assert!(
            searches as u128 * 100 <= subsets * 5,
            "{searches} of {subsets}"
        );

        let samples = 1usize << 16;
        let mut model = GraphModel::new(&fat, 0, far, Reachability::Transitive);
        let mut rng = drs_obs::rng::Rng::seed_from_u64(42);
        for _ in 0..samples {
            model.failed = crate::montecarlo::sample_failures(model.universe(), 4, &mut rng);
            let _ = model.holds();
        }
        let searches = model.searches();
        assert!(searches * 100 <= samples * 15, "{searches} of {samples}");
    }

    #[test]
    fn estimate_is_deterministic_and_sane() {
        let topo = bcube(4, 1);
        let mc = TopoMonteCarlo::new(&topo, 3, 0, 15, Reachability::Transitive, 7);
        let a = mc.estimate(50_000);
        assert_eq!(a, mc.estimate(50_000));
        // Exhaustive cross-check: C(40, 3) = 9880 subsets.
        let (s, t) = enumerate_pair_success_topo(&topo, 3, 0, 15, Reachability::Transitive);
        let exact = s as f64 / t as f64;
        assert!(
            (a.p_hat - exact).abs() < 5.0 * a.std_error.max(1e-4),
            "{} vs {exact}",
            a.p_hat
        );
    }

    #[test]
    fn fat_tree_pairs_are_not_interchangeable() {
        // Same-edge-switch hosts survive strictly more subsets than
        // cross-pod hosts: the per-pair generality is load-bearing.
        let topo = fat_tree(4);
        let f = 2;
        let (same_edge, _) = enumerate_pair_success_topo(&topo, f, 0, 1, Reachability::Transitive);
        let (cross_pod, _) =
            enumerate_pair_success_topo(&topo, f, 0, topo.hosts() - 1, Reachability::Transitive);
        assert!(
            same_edge > cross_pod,
            "{same_edge} should exceed {cross_pod}"
        );
    }

    #[test]
    #[should_panic(expected = "exceeds the 256-component index space")]
    fn oversized_universe_rejected_with_the_shared_error() {
        // Fat-Tree(8): 128 hosts, 80 switches, 384 links — 464 components.
        let topo = fat_tree(8);
        let _ = enumerate_pair_success_topo(&topo, 1, 0, 1, Reachability::Transitive);
    }
}
