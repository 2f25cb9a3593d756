//! An OSPF-style link-state daemon (after RFC 2328), adapted to the
//! dual-network cluster.
//!
//! Each router broadcasts **hello** packets on both networks every
//! `hello_interval` (RFC: 10 s) and declares a neighbour adjacency dead
//! after `dead_interval` (RFC: 40 s) of silence. Adjacency changes
//! trigger origination of a new **link-state advertisement** describing
//! the router's live adjacencies, flooded cluster-wide; every router
//! recomputes routes from its link-state database (on this two-segment
//! topology the shortest-path tree degenerates to: direct if adjacent,
//! else via the lowest-id adjacent router that advertises adjacency to
//! the target).
//!
//! Like RIP it is *reactive*: failures are discovered only by hello
//! silence, so recovery takes the dead interval plus a flood — faster
//! than RIP's 180 s route timeout, still far behind DRS's probe cycle.

use std::collections::HashMap;

use drs_sim::world::{Ctx, Protocol};
use drs_sim::{NetId, NodeId, Route, SimDuration, SimTime};

const TICK_TOKEN: u64 = 1;

/// OSPF daemon tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OspfConfig {
    /// Hello broadcast period (RFC 2328: 10 s).
    pub hello_interval: SimDuration,
    /// Silence before an adjacency is torn down (RFC 2328: 40 s).
    pub dead_interval: SimDuration,
}

impl Default for OspfConfig {
    fn default() -> Self {
        OspfConfig {
            hello_interval: SimDuration::from_secs(10),
            dead_interval: SimDuration::from_secs(40),
        }
    }
}

impl OspfConfig {
    /// Divides both timers by `k`, preserving the RFC 1:4 ratio.
    #[must_use]
    pub fn scaled_down(self, k: u64) -> Self {
        assert!(k >= 1);
        OspfConfig {
            hello_interval: self.hello_interval.div(k),
            dead_interval: self.dead_interval.div(k),
        }
    }
}

/// OSPF control messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OspfMsg {
    /// Periodic neighbour-liveness broadcast.
    Hello,
    /// A router's link-state advertisement: its live adjacencies.
    Lsa {
        /// Originating router.
        origin: NodeId,
        /// Monotone per-origin sequence (newer wins).
        seq: u64,
        /// The origin's live `(neighbour, network)` adjacencies.
        adjacencies: Vec<(NodeId, NetId)>,
    },
}

/// One host's OSPF-style daemon.
#[derive(Debug, Clone)]
pub struct OspfDaemon {
    id: NodeId,
    cfg: OspfConfig,
    /// `(peer, net) → last hello heard`.
    last_heard: HashMap<(NodeId, NetId), SimTime>,
    /// Link-state database: `origin → (seq, adjacencies)`.
    lsdb: HashMap<NodeId, (u64, Vec<(NodeId, NetId)>)>,
    own_seq: u64,
    own_adjacencies: Vec<(NodeId, NetId)>,
    /// LSAs this daemon originated.
    pub lsas_originated: u64,
    /// LSAs flooded onward for other routers.
    pub lsas_flooded: u64,
    /// Hello broadcasts sent.
    pub hellos_sent: u64,
}

impl OspfDaemon {
    /// An OSPF daemon for host `id`.
    #[must_use]
    pub fn new(id: NodeId, cfg: OspfConfig) -> Self {
        OspfDaemon {
            id,
            cfg,
            last_heard: HashMap::new(),
            lsdb: HashMap::new(),
            own_seq: 0,
            own_adjacencies: Vec::new(),
            lsas_originated: 0,
            lsas_flooded: 0,
            hellos_sent: 0,
        }
    }

    /// The daemon's current live adjacency list (sorted, deduped).
    fn live_adjacencies(&self, now: SimTime) -> Vec<(NodeId, NetId)> {
        let mut adj: Vec<(NodeId, NetId)> = self
            .last_heard
            .iter()
            .filter(|(_, &heard)| now.since(heard) <= self.cfg.dead_interval)
            .map(|(&k, _)| k)
            .collect();
        adj.sort_by_key(|&(p, net)| (p.0, net.idx()));
        adj
    }

    fn lsa_wire_bytes(adjacencies: usize) -> u32 {
        48 + 12 * adjacencies as u32
    }

    fn originate_if_changed(&mut self, ctx: &mut Ctx<'_, OspfMsg>) {
        let adj = self.live_adjacencies(ctx.now());
        if adj == self.own_adjacencies {
            return;
        }
        self.own_adjacencies = adj.clone();
        self.own_seq += 1;
        self.lsas_originated += 1;
        self.lsdb.insert(self.id, (self.own_seq, adj.clone()));
        let msg = OspfMsg::Lsa {
            origin: self.id,
            seq: self.own_seq,
            adjacencies: adj.clone(),
        };
        let wire = Self::lsa_wire_bytes(adj.len());
        ctx.broadcast_control_sized(NetId::A, msg.clone(), wire);
        ctx.broadcast_control_sized(NetId::B, msg, wire);
    }

    /// Recomputes the kernel route table from adjacencies + LSDB.
    fn recompute_routes(&mut self, ctx: &mut Ctx<'_, OspfMsg>) {
        let now = ctx.now();
        let adj = self.live_adjacencies(now);
        let adjacent_on = |dst: NodeId, net: NetId| adj.contains(&(dst, net));
        let n = ctx.n_nodes() as u32;
        for d in 0..n {
            let dst = NodeId(d);
            if dst == self.id {
                continue;
            }
            let route = if adjacent_on(dst, NetId::A) {
                Some(Route::Direct(NetId::A))
            } else if adjacent_on(dst, NetId::B) {
                Some(Route::Direct(NetId::B))
            } else {
                // Two-hop: lowest-id neighbour whose LSA claims adjacency
                // to the destination.
                adj.iter()
                    .filter(|&&(g, _)| {
                        g != dst
                            && self
                                .lsdb
                                .get(&g)
                                .is_some_and(|(_, ga)| ga.iter().any(|&(p, _)| p == dst))
                    })
                    .min_by_key(|&&(g, net)| (g.0, net.idx()))
                    .map(|&(g, net)| Route::Via { gateway: g, net })
            };
            match route {
                Some(r) => ctx.set_route(dst, r),
                None => {
                    ctx.del_route(dst);
                }
            }
        }
    }
}

impl Protocol for OspfDaemon {
    type Msg = OspfMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, OspfMsg>) {
        // Like RIP: trust nothing until the protocol has learned it.
        let peers: Vec<NodeId> = (0..ctx.n_nodes() as u32)
            .map(NodeId)
            .filter(|&p| p != self.id)
            .collect();
        for p in peers {
            ctx.del_route(p);
        }
        ctx.broadcast_control_sized(NetId::A, OspfMsg::Hello, 44);
        ctx.broadcast_control_sized(NetId::B, OspfMsg::Hello, 44);
        self.hellos_sent += 1;
        ctx.set_timer(self.cfg.hello_interval, TICK_TOKEN);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, OspfMsg>, token: u64) {
        debug_assert_eq!(token, TICK_TOKEN);
        ctx.broadcast_control_sized(NetId::A, OspfMsg::Hello, 44);
        ctx.broadcast_control_sized(NetId::B, OspfMsg::Hello, 44);
        self.hellos_sent += 1;
        // Dead-interval sweep may tear adjacencies down.
        self.originate_if_changed(ctx);
        self.recompute_routes(ctx);
        ctx.set_timer(self.cfg.hello_interval, TICK_TOKEN);
    }

    fn on_control(&mut self, ctx: &mut Ctx<'_, OspfMsg>, from: NodeId, net: NetId, msg: &OspfMsg) {
        match msg {
            OspfMsg::Hello => {
                let is_new = self
                    .last_heard
                    .insert((from, net), ctx.now())
                    .establishes_adjacency(ctx.now(), self.cfg.dead_interval);
                if is_new {
                    self.originate_if_changed(ctx);
                    self.recompute_routes(ctx);
                }
            }
            OspfMsg::Lsa {
                origin,
                seq,
                adjacencies,
            } => {
                if *origin == self.id {
                    return; // our own flood echoed back
                }
                let newer = self.lsdb.get(origin).is_none_or(|(s, _)| *s < *seq);
                if newer {
                    self.lsdb.insert(*origin, (*seq, adjacencies.clone()));
                    // Re-flood once per new LSA (both networks).
                    self.lsas_flooded += 1;
                    let wire = Self::lsa_wire_bytes(adjacencies.len());
                    let fwd = OspfMsg::Lsa {
                        origin: *origin,
                        seq: *seq,
                        adjacencies: adjacencies.clone(),
                    };
                    ctx.broadcast_control_sized(NetId::A, fwd.clone(), wire);
                    ctx.broadcast_control_sized(NetId::B, fwd, wire);
                    self.recompute_routes(ctx);
                }
            }
        }
    }
}

/// Tiny private extension for hello-driven adjacency refresh bookkeeping.
trait HelloInsert {
    fn establishes_adjacency(self, now: SimTime, dead: SimDuration) -> bool;
}

impl HelloInsert for Option<SimTime> {
    /// True when the previous hello was absent or already past the dead
    /// interval — i.e. this hello (re)establishes the adjacency.
    fn establishes_adjacency(self, now: SimTime, dead: SimDuration) -> bool {
        match self {
            None => true,
            Some(prev) => now.since(prev) > dead,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drs_sim::fault::{FaultPlan, SimComponent};
    use drs_sim::scenario::ClusterSpec;
    use drs_sim::world::{FlowOutcome, World};

    fn ospf_world(n: usize, seed: u64, cfg: OspfConfig) -> World<OspfDaemon> {
        World::new(ClusterSpec::new(n).seed(seed), move |id| {
            OspfDaemon::new(id, cfg)
        })
    }

    /// 10 s / 40 s compressed 20:1 to 0.5 s / 2 s.
    fn fast_cfg() -> OspfConfig {
        OspfConfig::default().scaled_down(20)
    }

    #[test]
    fn converges_to_direct_routes() {
        let mut w = ospf_world(5, 1, fast_cfg());
        w.run_for(SimDuration::from_secs(3));
        for i in 0..5u32 {
            for j in 0..5u32 {
                if i != j {
                    assert!(
                        matches!(
                            w.host(NodeId(i)).routes.get(NodeId(j)),
                            Some(Route::Direct(_))
                        ),
                        "n{i}->n{j}"
                    );
                }
            }
        }
    }

    #[test]
    fn lsa_flooding_fills_every_lsdb() {
        let mut w = ospf_world(6, 2, fast_cfg());
        w.run_for(SimDuration::from_secs(3));
        for i in 0..6u32 {
            let d = w.protocol(NodeId(i));
            assert!(d.lsdb.len() >= 5, "n{i} lsdb has {} entries", d.lsdb.len());
        }
    }

    #[test]
    fn nic_failure_heals_after_dead_interval() {
        let cfg = fast_cfg(); // hello 0.5 s, dead 2 s
        let mut w = ospf_world(4, 3, cfg);
        w.run_for(SimDuration::from_secs(3));
        let t0 = w.now();
        w.schedule_faults(FaultPlan::new().fail_at(t0, SimComponent::Nic(NodeId(1), NetId::A)));

        // Before the dead interval: stale route.
        w.run_for(SimDuration::from_millis(1500));
        assert_eq!(
            w.host(NodeId(0)).routes.get(NodeId(1)),
            Some(Route::Direct(NetId::A)),
            "OSPF has not noticed yet"
        );
        // After dead interval + hello: healed via net B.
        w.run_for(SimDuration::from_secs(3));
        assert_eq!(
            w.host(NodeId(0)).routes.get(NodeId(1)),
            Some(Route::Direct(NetId::B))
        );
    }

    #[test]
    fn crossed_failure_heals_via_lsdb_gateway() {
        let cfg = fast_cfg();
        let mut w = ospf_world(5, 4, cfg);
        w.run_for(SimDuration::from_secs(3));
        let t0 = w.now();
        w.schedule_faults(
            FaultPlan::new()
                .fail_at(t0, SimComponent::Nic(NodeId(0), NetId::B))
                .fail_at(t0, SimComponent::Nic(NodeId(1), NetId::A)),
        );
        w.run_for(SimDuration::from_secs(6));
        match w.host(NodeId(0)).routes.get(NodeId(1)) {
            Some(Route::Via { gateway, net }) => {
                assert_eq!(net, NetId::A, "node 0 can only transmit on A");
                assert_eq!(gateway, NodeId(2), "lowest-id adjacent gateway");
            }
            other => panic!("expected gateway route, got {other:?}"),
        }
        let flow = w.send_app(w.now(), NodeId(0), NodeId(1), 128);
        w.run_for(SimDuration::from_secs(30));
        assert!(matches!(
            w.flow_outcome(flow),
            Some(FlowOutcome::Delivered(_))
        ));
    }

    #[test]
    fn recovery_is_slower_than_dead_interval_floor() {
        // A flow in flight during the failure must wait out at least the
        // dead interval — the reactive signature.
        let cfg = fast_cfg();
        let mut w = ospf_world(4, 5, cfg);
        w.run_for(SimDuration::from_secs(3));
        let t0 = w.now();
        w.schedule_faults(FaultPlan::new().fail_at(t0, SimComponent::Nic(NodeId(1), NetId::A)));
        let flow = w.send_app(
            t0 + SimDuration::from_millis(100),
            NodeId(0),
            NodeId(1),
            128,
        );
        w.run_for(SimDuration::from_secs(60));
        match w.flow_outcome(flow) {
            Some(FlowOutcome::Delivered(rtt)) => {
                assert!(
                    rtt >= cfg.dead_interval,
                    "cannot beat the dead interval: {rtt}"
                );
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn hello_and_lsa_overhead_is_bounded() {
        // Steady state: hellos every interval; LSAs only at startup (one
        // adjacency-change wave), none afterwards.
        let mut w = ospf_world(6, 6, fast_cfg());
        w.run_for(SimDuration::from_secs(10));
        let d = w.protocol(NodeId(0));
        // Startup: each newly heard adjacency can trigger an origination,
        // so at most one per (peer, net) pair.
        let originated_early = d.lsas_originated;
        assert!(
            originated_early <= 10,
            "startup waves only: {originated_early}"
        );
        let before = w.protocol(NodeId(0)).lsas_originated;
        w.run_for(SimDuration::from_secs(10));
        assert_eq!(
            w.protocol(NodeId(0)).lsas_originated,
            before,
            "no LSA churn in steady state"
        );
    }

    #[test]
    fn deterministic() {
        let run = |seed| {
            let mut w = ospf_world(4, seed, fast_cfg());
            w.schedule_faults(FaultPlan::new().fail_at(
                SimTime(2_000_000_000),
                SimComponent::Nic(NodeId(2), NetId::A),
            ));
            w.run_for(SimDuration::from_secs(10));
            (0..4u32)
                .map(|i| {
                    let d = w.protocol(NodeId(i));
                    (d.hellos_sent, d.lsas_originated, d.lsas_flooded)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
    }
}
