//! The topology graph layer, end to end: build a datacenter fabric as an
//! explicit graph, price its hardware, count its exact survivability two
//! ways, and run a packet-level world on it — the API tour behind
//! `BENCH_topology.json`.
//!
//! Run: `cargo run --release --example topology_zoo`

use drs::analytic::cost::equipment::{cost_units, EquipmentCount};
use drs::analytic::topo::enumerate_pair_success_topo;
use drs::sim::world::{Ctx, Protocol, World};
use drs::sim::{NetId, NodeId, SimDuration, SimTime, TopologySpec};
use drs::topology::{generators, pair_connected, ComponentSet, Reachability};

/// A one-shot flood: the origin broadcasts a token on every live NIC,
/// every node rebroadcasts once — the DES analogue of reachability.
struct Flood {
    seen: bool,
}

impl Flood {
    fn out(ctx: &mut Ctx<'_, u8>) {
        for s in 0..ctx.planes() {
            if ctx.nic_is_up(NetId(s)) {
                ctx.broadcast_control(NetId(s), 1);
            }
        }
    }
}

impl Protocol for Flood {
    type Msg = u8;
    fn on_start(&mut self, ctx: &mut Ctx<'_, u8>) {
        if ctx.self_id() == NodeId(0) {
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, u8>, _: u64) {
        self.seen = true;
        Self::out(ctx);
    }
    fn on_control(&mut self, ctx: &mut Ctx<'_, u8>, _: NodeId, _: NetId, _: &u8) {
        if !self.seen {
            self.seen = true;
            Self::out(ctx);
        }
    }
}

fn main() {
    println!("the topology zoo: one graph layer, four fabrics");
    println!();

    // 1. Every fabric is an explicit graph with a deterministic
    //    component universe: switches first, then links.
    for topo in [
        generators::kplane(16, 2),
        generators::kplane(16, 3),
        generators::fat_tree(4),
        generators::bcube(4, 1),
        generators::dcell(4, 1),
    ] {
        let eq = EquipmentCount::of(&topo);
        println!(
            "  {topo}  ->  {} components, {} cost units ({} switch ports, {} NIC ports)",
            topo.component_count(),
            cost_units(&topo),
            eq.switch_ports,
            eq.nic_ports,
        );
    }

    // 2. Exact survivability over the full component universe, under the
    //    reachability policy that matches the routing model: plain
    //    transitive connectivity for switched fabrics, the DRS one-hop
    //    gateway rule for the K-plane cluster.
    let topo = generators::dcell(4, 1);
    let (src, dst) = (0, topo.hosts() - 1);
    println!();
    println!("P[{src} reaches {dst} | f failed components] on {topo}:");
    for f in 1..=4 {
        let (s, t) = enumerate_pair_success_topo(&topo, f, src, dst, Reachability::Transitive);
        println!("  f={f}: {s}/{t} = {:.4}", s as f64 / t as f64);
    }

    // 3. Single failure sets answer "what breaks us": DCell(4,1) rides
    //    out any one switch because every host has a cross link.
    let one_switch = ComponentSet::from_indices(&[0]);
    assert!(pair_connected(
        &topo,
        &one_switch,
        src,
        dst,
        Reachability::Transitive
    ));
    println!("  losing one mini-switch never partitions DCell(4,1)");

    // 4. The same graph drives the packet-level simulator: one shared
    //    segment per link, NIC membership masks, switch/link faults.
    let tspec = TopologySpec::new(topo.clone()).seed(7);
    let mut world = World::from_topology(&tspec, |_| Flood { seen: false });
    let failed = [0usize]; // the cell-0 mini-switch, as a fault plan
    world.schedule_faults(tspec.fault_plan(SimTime(0), &failed));
    world.run_for(SimDuration::from_secs(1));
    let reached = (0..topo.hosts())
        .filter(|&h| world.protocol(NodeId(h as u32)).seen)
        .count();
    println!();
    println!(
        "packet-level flood on the same graph, switch 0 down: {reached}/{} hosts reached",
        topo.hosts()
    );
    let set = ComponentSet::from_indices(&failed);
    for h in 1..topo.hosts() {
        assert_eq!(
            world.protocol(NodeId(h as u32)).seen,
            pair_connected(&topo, &set, 0, h, Reachability::Transitive),
            "host {h}: DES and the graph predicate disagree"
        );
    }
    println!("every host matches the graph predicate, host for host");
}
