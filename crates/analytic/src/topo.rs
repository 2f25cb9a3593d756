//! The counting core over arbitrary [`Topology`] graphs.
//!
//! [`crate::enumerate`] and [`crate::montecarlo`] hold the one subset walk
//! and the one Monte-Carlo loop; their named entry points plug in the
//! bitmask [`KPlane`] model of the `K·N + K` component universe. This
//! module plugs in the other model, [`GraphModel`], for **any** topology
//! from [`drs_topology`]: the universe is the graph's switches-then-links
//! component ordering, and the predicate is a [`Reachability`] policy
//! evaluated by union-find over the live subgraph —
//! [`Reachability::Transitive`] for multi-hop fabrics (Fat-Tree, BCube,
//! DCell), [`Reachability::OneHostRelay`] for the DRS protocol semantics.
//!
//! The two predicates are deliberately separate implementations, and each
//! is the other's oracle: on the degenerate
//! [`drs_topology::generators::kplane`] topology the universe ordering is
//! bit-compatible with the K-plane layout, so with
//! [`Reachability::OneHostRelay`] the graph model must reproduce
//! [`crate::enumerate::enumerate_pair_success_k`] count-for-count and
//! [`crate::montecarlo::MonteCarlo`] draw-for-draw — the tests pin both.
//! Neither could stand in for the other: the bitmask predicate walks the
//! same 34-component universe about four times faster (39.8 M against
//! 9.6 M subsets/s, 10.8 M against 2.7 M samples/s), and only union-find
//! can answer for a graph that is not K parallel planes.
//!
//! [`KPlane`]: crate::connectivity::KPlane

use drs_topology::limits::validate_components;
use drs_topology::{ComponentSet, ReachEngine, Reachability, Topology};

use crate::components::FailureModel;
use crate::enumerate::{count, count_parallel};
use crate::montecarlo::Estimator;

/// The union-find [`FailureModel`]: can hosts `s` and `t` of a topology
/// still communicate under a [`Reachability`] policy?
///
/// Unlike the K-plane cluster, a general topology is not
/// component-transitive — different host pairs can have different counts —
/// so the pair is explicit.
#[derive(Clone)]
pub struct GraphModel<'a> {
    eng: ReachEngine<'a>,
    pub(crate) failed: ComponentSet,
    s: usize,
    t: usize,
    policy: Reachability,
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
        self.eng
            .pair_connected(&self.failed, self.s, self.t, self.policy)
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
/// to enumerate (e.g. Fat-Tree cells in the topology-zoo artifact).
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
    use crate::montecarlo::MonteCarlo;
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
    fn kplane_monte_carlo_is_draw_identical_to_the_k_estimator() {
        // Same universe size, same rejection sampler, same seed: the
        // topology estimator must reproduce the K-plane estimator's counts
        // exactly (not statistically).
        for (n, planes, f) in [(8usize, 2u8, 3usize), (5, 3, 4)] {
            let topo = kplane(n, planes as usize);
            let a = TopoMonteCarlo::new(&topo, f, 0, 1, Reachability::OneHostRelay, 42)
                .estimate(20_000);
            let b = MonteCarlo::new_k(n, planes, f, 42).estimate(20_000);
            assert_eq!(a, b, "n={n} K={planes} f={f}");
        }
    }

    #[test]
    fn parallel_estimate_is_deterministic_and_sane() {
        let topo = bcube(4, 1);
        let mc = TopoMonteCarlo::new(&topo, 3, 0, 15, Reachability::Transitive, 7);
        let a = mc.estimate_parallel(50_000);
        assert_eq!(a, mc.estimate_parallel(50_000));
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
