//! `analytic_count`: no simulator at all — the subset-walk enumerators
//! (K = 2, K-plane, all-pairs, and the graph engine under both
//! reachability notions), both Monte-Carlo estimators, the orbit counter
//! over a wide grid, and the committed sweep grid.
//!
//! Pure CPU combinatorics over a few megabytes: the predicted-no-change
//! workload for every kernel change, and the one a rayon replacement or
//! an engine de-duplication must hold. Under the offline rayon stand-in
//! every "parallel" section here runs on one thread.

use drs_analytic::allpairs::all_pairs_success_count;
use drs_analytic::binom::binom;
use drs_analytic::enumerate::{
    enumerate_all_pairs_success, enumerate_pair_success, enumerate_pair_success_k,
};
use drs_analytic::{
    enumerate_pair_success_topo, enumerate_pair_success_topo_parallel, orbit_pair_success,
    p_success, run_sweep, success_count, MonteCarlo, SweepConfig, TopoMonteCarlo,
};
use drs_harness::stream_seed;
use drs_topology::{generators, Reachability, Topology};

use crate::check::{check_counts, check_estimate, Digest};
use crate::harness::{Layers, Rep, RepTimer, Workload};
use crate::trace::Trace;

const MC_SAMPLES: u64 = 1 << 22;
const TOPO_MC_SAMPLES: u64 = 1 << 20;
const ORBIT_MAX_N: u64 = 400;
const ORBIT_MAX_F: u64 = 20;

pub struct AnalyticCount {
    seed: u64,
}

impl AnalyticCount {
    #[must_use]
    pub fn new(seed: u64) -> Self {
        AnalyticCount { seed }
    }
}

struct Inputs {
    kplane: Topology,
    fat_tree: Topology,
    grid: SweepConfig,
}

/// `C(m, f)`, which every full enumeration must visit exactly.
fn subsets(m: u64, f: u64) -> u128 {
    binom(m, f).expect("benchmark universes fit u128")
}

impl Workload for AnalyticCount {
    fn warm_reps(&self) -> usize {
        1
    }

    fn rep(&mut self, tr: &mut Trace, traced: bool, layers: &mut Layers) -> Rep {
        let mut t = RepTimer::start();
        let inputs = t.setup(tr, |tr| {
            let (kplane, fat_tree) = tr.span("topology.generate", |_| {
                (generators::kplane(16, 2), generators::fat_tree(4))
            });
            Inputs {
                kplane,
                fat_tree,
                grid: SweepConfig::bench_grid(self.seed),
            }
        });
        let far_host = inputs.fat_tree.hosts() - 1;
        let mc = MonteCarlo::new(63, 10, stream_seed(self.seed, 1));
        let topo_mc = TopoMonteCarlo::new(
            &inputs.fat_tree,
            4,
            0,
            far_host,
            Reachability::Transitive,
            stream_seed(self.seed, 2),
        );

        let (k2, k3, all, onehost, transitive, mc_est, topo_est, orbit, sweep) =
            t.run(tr, "run", |tr| {
                (
                    tr.span("enumerate", |_| enumerate_pair_success(16, 8)),
                    tr.span("enumerate_k", |_| enumerate_pair_success_k(10, 3, 8)),
                    tr.span("allpairs", |_| enumerate_all_pairs_success(12, 6)),
                    tr.span("topo.onehost", |_| {
                        enumerate_pair_success_topo(
                            &inputs.kplane,
                            7,
                            0,
                            1,
                            Reachability::OneHostRelay,
                        )
                    }),
                    tr.span("topo.transitive", |_| {
                        enumerate_pair_success_topo(
                            &inputs.fat_tree,
                            4,
                            0,
                            far_host,
                            Reachability::Transitive,
                        )
                    }),
                    tr.span("mc", |_| mc.estimate(MC_SAMPLES)),
                    tr.span("topo_mc", |_| topo_mc.estimate(TOPO_MC_SAMPLES)),
                    tr.span("orbit", |_| {
                        // The few cells whose total overflows u128 (large n
                        // with f near 20) count as (0, 0).
                        let mut cells = Vec::new();
                        for n in 2..=ORBIT_MAX_N {
                            for f in 0..=ORBIT_MAX_F {
                                cells.push(orbit_pair_success(n, f).unwrap_or_default());
                            }
                        }
                        cells
                    }),
                    tr.span("sweep.bench_grid", |_| run_sweep(&inputs.grid)),
                )
            });

        let mut d = Digest::default();
        t.run(tr, "harvest", |_| {
            for (s, total) in [k2, k3, all, onehost, transitive]
                .into_iter()
                .chain(orbit.iter().copied())
            {
                d.u128(s);
                d.u128(total);
            }
            d.u64(mc_est.successes);
            d.u64(topo_est.successes);
            d.bytes(sweep.to_json().as_bytes());
        });

        let mut errors = Vec::new();
        let e = &mut errors;
        check_counts(
            "enumerate(16,8)",
            k2,
            (success_count(16, 8), subsets(34, 8)),
            e,
        );
        check_counts(
            "enumerate(16,8) vs orbit",
            k2,
            orbit_pair_success(16, 8).expect("fits"),
            e,
        );
        if k3.1 != subsets(33, 8) || k3.0 > k3.1 {
            e.push(format!("enumerate_k(10,3,8) visited {} subsets", k3.1));
        }
        check_counts(
            "all-pairs(12,6)",
            all,
            (all_pairs_success_count(12, 6), subsets(26, 6)),
            e,
        );
        check_counts(
            "topo one-host-relay kplane(16,2) f=7",
            onehost,
            (success_count(16, 7), subsets(34, 7)),
            e,
        );
        if transitive.1 != subsets(inputs.fat_tree.component_count() as u64, 4) {
            e.push(format!(
                "topo transitive fat_tree(4) visited {} subsets",
                transitive.1
            ));
        }
        check_estimate("mc(63,10)", &mc_est, p_success(63, 10), e);
        check_estimate(
            "topo_mc fat_tree(4) f=4",
            &topo_est,
            transitive.0 as f64 / transitive.1 as f64,
            e,
        );
        let mut cell = orbit.iter();
        for n in 2..=ORBIT_MAX_N {
            for f in 0..=ORBIT_MAX_F {
                let got = *cell.next().expect("one cell per (n, f)");
                if binom(2 * n + 2, f).is_some() && got.0 != success_count(n, f) {
                    e.push(format!("orbit({n},{f}) = {} != closed form", got.0));
                }
            }
        }
        for o in sweep.by_method("orbit") {
            let exact = sweep.get(o.n, o.f, "exact");
            if exact.is_some_and(|x| x.successes.is_some() && x.successes != o.successes) {
                e.push(format!("sweep: orbit != exact at n={} f={}", o.n, o.f));
            }
        }
        for en in sweep.by_method("enumerate") {
            if sweep
                .get(en.n, en.f, "orbit")
                .is_some_and(|o| o.successes != en.successes)
            {
                e.push(format!(
                    "sweep: enumerate != orbit at n={} f={}",
                    en.n, en.f
                ));
            }
        }

        if traced {
            let rate = |span: &str, work: u128| work as f64 / tr.total_s(span);
            layers.set("topology.gen_s", tr.total_s("topology.generate"));
            layers.set("analytic.enumerate.subsets_per_s", rate("enumerate", k2.1));
            layers.set(
                "analytic.enumerate_k.subsets_per_s",
                rate("enumerate_k", k3.1),
            );
            layers.set("analytic.allpairs.subsets_per_s", rate("allpairs", all.1));
            layers.set(
                "analytic.topo.onehost.subsets_per_s",
                rate("topo.onehost", onehost.1),
            );
            layers.set(
                "analytic.topo.transitive.subsets_per_s",
                rate("topo.transitive", transitive.1),
            );
            layers.set(
                "analytic.mc.samples_per_s",
                rate("mc", u128::from(MC_SAMPLES)),
            );
            layers.set(
                "analytic.topo_mc.samples_per_s",
                rate("topo_mc", u128::from(TOPO_MC_SAMPLES)),
            );
            layers.set(
                "analytic.orbit.cells_per_s",
                rate("orbit", orbit.len() as u128),
            );
            layers.set(
                "analytic.sweep.bench_grid_s",
                tr.total_s("sweep.bench_grid"),
            );
        }
        t.finish(d.finish(), errors)
    }

    fn layers(
        &mut self,
        tr: &mut Trace,
        _untraced_wall_s: f64,
        _layers: &mut Layers,
    ) -> Vec<String> {
        // Cross-engine checks too slow for every repetition: the K-plane
        // walk against the graph engine on the same universe, and the
        // graph engine's whole walk against its block-wise walk.
        let mut errors = Vec::new();
        tr.span("check.cross_engine", |_| {
            let kplane3 = generators::kplane(10, 3);
            check_counts(
                "enumerate_k(10,3,8) vs graph engine",
                enumerate_pair_success_k(10, 3, 8),
                enumerate_pair_success_topo(&kplane3, 8, 0, 1, Reachability::OneHostRelay),
                &mut errors,
            );
            let fat_tree = generators::fat_tree(4);
            let far_host = fat_tree.hosts() - 1;
            check_counts(
                "graph engine whole walk vs block walk, fat_tree(4) f=4",
                enumerate_pair_success_topo(&fat_tree, 4, 0, far_host, Reachability::Transitive),
                enumerate_pair_success_topo_parallel(
                    &fat_tree,
                    4,
                    0,
                    far_host,
                    Reachability::Transitive,
                ),
                &mut errors,
            );
        });
        errors
    }
}
