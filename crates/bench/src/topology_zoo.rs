//! The topology-zoo survivability-vs-cost frontier: the K-plane cluster
//! next to the datacenter fabrics (Fat-Tree, BCube, DCell) on one grid.
//!
//! Every cell is a `(topology, f)` pair. The analytic side computes
//! `P[pair survives f component failures]` over the topology's explicit
//! component universe by walking every failure subset
//! ([`drs_analytic::topo::enumerate_pair_success_topo`]): each committed
//! probability is an exact count, the largest cell (`fat_tree(k=4)`,
//! `f = 4`) a walk of `C(68, 4) = 814 385` subsets. The simulation side replays
//! deterministically unranked failure sets against a live packet-level
//! world built from the same graph ([`drs_sim::topology::TopologySpec`])
//! and checks what the DES observes against the reachability predicate:
//!
//! * **K-plane rows** run the real DRS daemon cluster through
//!   [`crate::trial::run_trial`] and the one-hop-gateway predicate — the
//!   paper's protocol on the paper's (generalized) hardware.
//! * **Zoo rows** run a one-shot flooding protocol ([`FloodProtocol`])
//!   over the graph world and compare delivery against transitive
//!   graph reachability — the DES analogue of graph connectivity on
//!   fabrics where one-hop host relaying is not the routing model.
//!
//! Each row also carries the topology's equipment bill
//! ([`drs_analytic::cost::equipment`]), making the artifact a survivability-vs-cost
//! frontier rather than a survivability table.
//!
//! Failure sets come from combinadic unranking of trial seeds, so the
//! committed `BENCH_topology.json` is byte-reproducible on any machine
//! and thread count.

use drs_analytic::cost::equipment::{cost_units, EquipmentCount};
use drs_analytic::enumerate::enumerate_pair_success_k;
use drs_analytic::topo::enumerate_pair_success_topo;
use drs_harness::{coord_seed, stream_seed, Experiment, RunMode};
use drs_obs::artifact::write;
use drs_sim::topology::TopologySpec;
use drs_sim::world::{Ctx, Protocol, World};
use drs_sim::{NetId, NodeId, SimDuration, SimTime};
use drs_topology::{generators, pair_connected, ComponentSet, Reachability, Topology};

use crate::trial::{unrank_for_seed, Trial, TrialBases};

/// Schema tag written into every topology-zoo artifact.
pub const SCHEMA: &str = "drs-bench-topology/v2";

/// Simultaneous component failures swept per topology.
pub const ZOO_FAILURES: [usize; 4] = [1, 2, 3, 4];

/// Simulation replications per `(topology, f)` cell.
pub const ZOO_TRIALS_PER_CELL: usize = 6;

/// One zoo member: its graph plus, for K-plane entries, the `(n, K)`
/// parameters that route its simulation trials through the DRS-daemon
/// cluster path instead of the graph-world flood.
#[derive(Debug, Clone)]
pub struct ZooEntry {
    /// The topology graph.
    pub topo: Topology,
    /// `Some((n, planes))` when this entry is a K-plane cluster.
    pub kplane: Option<(usize, u8)>,
}

impl ZooEntry {
    /// `"name(params)"`, e.g. `"fat_tree(k=4)"` — the artifact row label.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}({})", self.topo.name(), self.topo.params())
    }

    /// The host pair whose survivability the cell measures: `(0, 1)` on
    /// K-plane rows (matching the K-plane sweep), `(0, hosts - 1)` on zoo
    /// rows so the pair spans the fabric.
    #[must_use]
    pub fn pair(&self) -> (usize, usize) {
        if self.kplane.is_some() {
            (0, 1)
        } else {
            (0, self.topo.hosts() - 1)
        }
    }
}

/// The committed zoo, frontier order: the paper's cluster and its `K = 3`
/// sibling, then the three datacenter fabrics at comparable host counts.
#[must_use]
pub fn zoo() -> Vec<ZooEntry> {
    vec![
        ZooEntry {
            topo: generators::kplane(16, 2),
            kplane: Some((16, 2)),
        },
        ZooEntry {
            topo: generators::kplane(16, 3),
            kplane: Some((16, 3)),
        },
        ZooEntry {
            topo: generators::fat_tree(4),
            kplane: None,
        },
        ZooEntry {
            topo: generators::bcube(4, 1),
            kplane: None,
        },
        ZooEntry {
            topo: generators::dcell(4, 1),
            kplane: None,
        },
    ]
}

/// One artifact row: a `(topology, f)` cell with its equipment bill, its
/// exact survival probability, and its DES cross-check tallies.
#[derive(Debug, Clone, PartialEq)]
pub struct ZooCellResult {
    /// Row label, `"name(params)"`.
    pub topology: String,
    /// Host count.
    pub hosts: usize,
    /// Switch count.
    pub switches: usize,
    /// Link count.
    pub links: usize,
    /// Failure-component universe size `m = switches + links`.
    pub components: usize,
    /// Equipment bill at the default prices ([`drs_analytic::cost::equipment`]).
    pub cost_units: f64,
    /// Simultaneous component failures.
    pub f: usize,
    /// The `(src, dst)` host pair measured.
    pub pair: (usize, usize),
    /// Failure subsets the pair survives.
    pub successes: u128,
    /// `C(m, f)`: every failure subset.
    pub total: u128,
    /// `successes / total`.
    pub p: f64,
    /// Simulation trials run.
    pub trials: u64,
    /// Trials the packet-level world delivered/flooded through.
    pub delivered: u64,
    /// Trials where simulation and predicate agreed.
    pub agree: u64,
    /// The cell's derived master seed.
    pub seed: u64,
}

/// The whole topology-zoo artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct ZooArtifact {
    /// The benchmark master seed the cell seeds derive from.
    pub seed: u64,
    /// Cells in `zoo() × ZOO_FAILURES` order.
    pub cells: Vec<ZooCellResult>,
}

impl ZooArtifact {
    /// The cell for `(topology label, f)`, if swept.
    #[must_use]
    pub fn get(&self, topology: &str, f: usize) -> Option<&ZooCellResult> {
        self.cells
            .iter()
            .find(|c| c.topology == topology && c.f == f)
    }

    /// Serializes to the `drs-bench-topology/v2` schema: one flat
    /// `cells` row per cell, `u128` counts as quoted decimals, streamed
    /// from the cells by [`drs_obs::artifact::write`].
    #[must_use]
    pub fn to_json(&self) -> String {
        // A cell line is at most ~285 B (the committed grid).
        write(SCHEMA, self.seed, 128 + 384 * self.cells.len(), |top| {
            top.list("cells", &self.cells, |o, c| {
                o.field("topology", c.topology.as_str())
                    .field("hosts", c.hosts as u64)
                    .field("switches", c.switches as u64)
                    .field("links", c.links as u64)
                    .field("components", c.components as u64)
                    .field("cost_units", c.cost_units)
                    .field("f", c.f as u64)
                    .field("src", c.pair.0 as u64)
                    .field("dst", c.pair.1 as u64)
                    .field("successes", c.successes)
                    .field("total", c.total)
                    .field("p", c.p)
                    .field("trials", c.trials)
                    .field("delivered", c.delivered)
                    .field("agree", c.agree)
                    .field("seed", c.seed);
            });
        })
    }
}

/// The derived master seed of one `(topology, f)` cell: one SplitMix64
/// stream per zoo position, then the same coordinate mixing the other
/// sweeps use — so any single cell reproduces in isolation.
#[must_use]
pub fn zoo_cell_seed(master: u64, topo_index: usize, components: usize, f: usize) -> u64 {
    coord_seed(
        stream_seed(master, topo_index as u64),
        components as u64,
        f as u64,
    )
}

/// A one-shot flooding protocol over a topology world: the origin
/// broadcasts a token on every live NIC shortly after start, and every
/// node (hosts and switch nodes alike) rebroadcasts once on first
/// receipt — the DES analogue of transitive reachability.
#[derive(Debug, Clone)]
pub struct FloodProtocol {
    origin: NodeId,
    /// Whether the token reached this node.
    pub seen: bool,
}

impl FloodProtocol {
    /// A flood sourced at `origin`.
    #[must_use]
    pub fn new(origin: NodeId) -> Self {
        FloodProtocol {
            origin,
            seen: false,
        }
    }

    fn flood_out(ctx: &mut Ctx<'_, u8>) {
        for s in 0..ctx.planes() {
            let net = NetId(s);
            if ctx.nic_is_up(net) {
                ctx.broadcast_control(net, 1);
            }
        }
    }
}

impl Protocol for FloodProtocol {
    type Msg = u8;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u8>) {
        if ctx.self_id() == self.origin {
            // Start after the faults at t = 0 have taken effect.
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, u8>, _token: u64) {
        self.seen = true;
        Self::flood_out(ctx);
    }

    fn on_control(&mut self, ctx: &mut Ctx<'_, u8>, _from: NodeId, _net: NetId, _msg: &u8) {
        if !self.seen {
            self.seen = true;
            Self::flood_out(ctx);
        }
    }
}

/// Runs one zoo trial on a graph world: unrank the failure set, predict
/// transitive connectivity with the reachability engine, then flood the
/// packet-level world built from the same graph and check the token
/// reached the destination host.
#[must_use]
pub fn run_flood_trial(topo: &Topology, f: usize, seed: u64) -> Trial {
    let failed = unrank_for_seed(topo.component_count(), f, seed);
    let set = ComponentSet::from_indices(&failed);
    let dst = topo.hosts() - 1;
    let predicted = pair_connected(topo, &set, 0, dst, Reachability::Transitive);

    let tspec = TopologySpec::new(topo.clone()).seed(seed);
    let mut world = World::from_topology(&tspec, |_| FloodProtocol::new(NodeId(0)));
    world.schedule_faults(tspec.fault_plan(SimTime(0), &failed));
    world.run_for(SimDuration::from_secs(1));
    let delivered = world.protocol(NodeId(dst as u32)).seen;

    Trial {
        seed,
        predicted,
        delivered,
        events: Vec::new(),
    }
}

/// Runs one cell's simulation trials under `master_seed`; trial order is
/// stable across run modes. K-plane entries go through the DRS-daemon
/// cluster ([`crate::trial::run_trial`]), forked from its base in
/// `bases`; zoo entries flood the graph world.
#[must_use]
pub fn run_cell(
    bases: &mut TrialBases,
    entry: &ZooEntry,
    f: usize,
    trials: usize,
    master_seed: u64,
    mode: RunMode,
) -> Vec<Trial> {
    let exp = Experiment::replications(&format!("zoo/{}_f{f}", entry.label()), master_seed, trials);
    match entry.kplane {
        Some((n, planes)) => {
            let base = bases.get(n, planes);
            exp.run(mode, |ctx, ()| base.run(f, ctx.seed))
        }
        None => exp.run(mode, |ctx, ()| run_flood_trial(&entry.topo, f, ctx.seed)),
    }
}

/// Counts one cell exactly: `(successes, total)` over every `f`-subset
/// of the entry's components, under the one-hop-gateway policy on
/// K-plane entries and transitive reachability on the fabrics.
///
/// On K-plane entries the graph count is asserted equal to the
/// generalized K-engine's ([`enumerate_pair_success_k`]) — the committed
/// proof that the degenerate topology *is* the K-plane model.
#[must_use]
pub fn cell_probability(entry: &ZooEntry, f: usize) -> (u128, u128) {
    let (src, dst) = entry.pair();
    let policy = match entry.kplane {
        Some(_) => Reachability::OneHostRelay,
        None => Reachability::Transitive,
    };
    let counts = enumerate_pair_success_topo(&entry.topo, f, src, dst, policy);
    if let Some((n, planes)) = entry.kplane {
        assert_eq!(
            counts,
            enumerate_pair_success_k(n, planes, f),
            "{}: graph one-hop enumeration diverged from the K-engine at f={f}",
            entry.label()
        );
    }
    counts
}

/// Folds one cell: equipment bill, exact probability, and the simulation
/// tallies.
#[must_use]
pub fn cell_result(entry: &ZooEntry, f: usize, master_seed: u64, rows: &[Trial]) -> ZooCellResult {
    let count = EquipmentCount::of(&entry.topo);
    let (successes, total) = cell_probability(entry, f);
    ZooCellResult {
        topology: entry.label(),
        hosts: count.hosts,
        switches: count.switches,
        links: count.links,
        components: entry.topo.component_count(),
        cost_units: cost_units(&entry.topo),
        f,
        pair: entry.pair(),
        successes,
        total,
        p: successes as f64 / total as f64,
        trials: rows.len() as u64,
        delivered: rows.iter().filter(|t| t.delivered).count() as u64,
        agree: rows.iter().filter(|t| t.agrees()).count() as u64,
        seed: master_seed,
    }
}

/// Builds the full topology-zoo artifact under `mode`.
///
/// [`RunMode::Serial`] and [`RunMode::Parallel`] produce identical
/// artifacts; `regen` asserts this on every run before writing the file.
#[must_use]
pub fn bench_artifact(master_seed: u64, mode: RunMode) -> ZooArtifact {
    let entries = zoo();
    let mut cells = Vec::with_capacity(entries.len() * ZOO_FAILURES.len());
    let mut bases = TrialBases::default();
    for (i, entry) in entries.iter().enumerate() {
        for &f in &ZOO_FAILURES {
            let seed = zoo_cell_seed(master_seed, i, entry.topo.component_count(), f);
            let rows = run_cell(&mut bases, entry, f, ZOO_TRIALS_PER_CELL, seed, mode);
            cells.push(cell_result(entry, f, seed, &rows));
        }
    }
    ZooArtifact {
        seed: master_seed,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_grid_shape_and_labels() {
        let entries = zoo();
        assert_eq!(entries.len(), 5);
        let labels: Vec<String> = entries.iter().map(ZooEntry::label).collect();
        assert_eq!(
            labels,
            [
                "kplane(n=16,k=2)",
                "kplane(n=16,k=3)",
                "fat_tree(k=4)",
                "bcube(n=4,l=1)",
                "dcell(n=4,l=1)"
            ]
        );
        assert!(entries[0].kplane.is_some() && entries[1].kplane.is_some());
        assert!(entries[2..].iter().all(|e| e.kplane.is_none()));
        // Every entry's universe fits the shared component space.
        for e in &entries {
            assert!(e.topo.component_count() <= 256);
        }
    }

    #[test]
    fn flood_trials_agree_with_the_union_find_predicate() {
        let topo = generators::bcube(4, 1);
        for seed in [0u64, 1, 17, 4242] {
            let t = run_flood_trial(&topo, 2, seed);
            assert!(t.agrees(), "seed {seed} disagreed: {t:?}");
        }
    }

    #[test]
    fn flood_cells_are_mode_independent() {
        let entry = ZooEntry {
            topo: generators::dcell(4, 1),
            kplane: None,
        };
        let mut bases = TrialBases::default();
        let serial = run_cell(&mut bases, &entry, 2, 4, 7, RunMode::Serial);
        let parallel = run_cell(&mut bases, &entry, 2, 4, 7, RunMode::Parallel);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn kplane_cell_probability_matches_the_k_engine() {
        let entry = ZooEntry {
            topo: generators::kplane(5, 2),
            kplane: Some((5, 2)),
        };
        assert_eq!(
            cell_probability(&entry, 2),
            enumerate_pair_success_k(5, 2, 2)
        );
    }

    #[test]
    fn json_shape_is_stable_and_deterministic() {
        let entry = ZooEntry {
            topo: generators::bcube(4, 1),
            kplane: None,
        };
        let rows = vec![run_flood_trial(&entry.topo, 2, 3)];
        let artifact = ZooArtifact {
            seed: 42,
            cells: vec![cell_result(&entry, 2, 77, &rows)],
        };
        let json = artifact.to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("  ]\n}\n"));
        assert!(json.contains(&format!("\"schema\": \"{SCHEMA}\"")));
        assert!(json.contains("\"topology\": \"bcube(n=4,l=1)\""));
        assert!(!json.contains("\"method\""));
        assert!(json.contains("\"total\": \""));
        assert_eq!(json, artifact.to_json());
    }

    #[test]
    fn cell_seeds_are_distinct_across_the_grid() {
        let entries = zoo();
        let mut seeds = Vec::new();
        for (i, e) in entries.iter().enumerate() {
            for &f in &ZOO_FAILURES {
                seeds.push(zoo_cell_seed(42, i, e.topo.component_count(), f));
            }
        }
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len());
    }
}
