//! A RIP-style distance-vector daemon (after RFC 1058), adapted to the
//! dual-network cluster.
//!
//! Each host advertises its full distance table on both networks every
//! `update_interval` (RFC: 30 s). Routes are learned from neighbours'
//! advertisements at `metric + 1` and expire after `route_timeout`
//! (RFC: 180 s) of silence. There is no probing and no failure
//! notification: a dead link is discovered only because advertisements
//! stop arriving — so recovery takes *route_timeout + up to one update
//! interval*, the "specified timeout period" the paper contrasts DRS
//! against.
//!
//! Split horizon is implemented (routes are not advertised back onto the
//! interface they were learned from), as is the RIP infinity metric (16).

use std::collections::HashMap;

use drs_sim::world::{Ctx, Protocol};
use drs_sim::{NetId, NodeId, Route, SimDuration, SimTime};

/// The RIP infinity metric: unreachable.
pub const INFINITY: u8 = 16;

const TICK_TOKEN: u64 = 1;

/// RIP daemon tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RipConfig {
    /// Advertisement period (RFC 1058: 30 s).
    pub update_interval: SimDuration,
    /// Silence before a learned route is invalidated (RFC 1058: 180 s).
    pub route_timeout: SimDuration,
}

impl Default for RipConfig {
    fn default() -> Self {
        RipConfig {
            update_interval: SimDuration::from_secs(30),
            route_timeout: SimDuration::from_secs(180),
        }
    }
}

impl RipConfig {
    /// Scales both intervals by dividing them by `k` — used by tests to
    /// compress RIP's minutes into simulated seconds while preserving the
    /// 1:6 update/timeout ratio.
    #[must_use]
    pub fn scaled_down(self, k: u64) -> Self {
        assert!(k >= 1);
        RipConfig {
            update_interval: self.update_interval.div(k),
            route_timeout: self.route_timeout.div(k),
        }
    }
}

/// A RIP advertisement: `(destination, metric)` pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RipMsg {
    /// The advertised routes.
    pub entries: Vec<(NodeId, u8)>,
}

#[derive(Debug, Clone, Copy)]
struct RipEntry {
    metric: u8,
    via: NodeId,
    net: NetId,
    last_heard: SimTime,
}

/// One host's RIP daemon.
#[derive(Debug, Clone)]
pub struct RipDaemon {
    id: NodeId,
    cfg: RipConfig,
    table: HashMap<NodeId, RipEntry>,
    /// Advertisements sent (for overhead accounting in experiments).
    pub adverts_sent: u64,
    /// Route invalidations due to timeout.
    pub timeouts: u64,
}

impl RipDaemon {
    /// A RIP daemon for host `id`.
    #[must_use]
    pub fn new(id: NodeId, cfg: RipConfig) -> Self {
        RipDaemon {
            id,
            cfg,
            table: HashMap::new(),
            adverts_sent: 0,
            timeouts: 0,
        }
    }

    /// The daemon's current metric to `dst` (INFINITY when unknown).
    #[must_use]
    pub fn metric(&self, dst: NodeId) -> u8 {
        if dst == self.id {
            0
        } else {
            self.table.get(&dst).map_or(INFINITY, |e| e.metric)
        }
    }

    /// On-wire size of an advertisement: RIP header (24 B UDP+RIP) plus a
    /// 20-byte route entry each, per RFC 1058's packet format.
    fn advert_wire_bytes(entries: usize) -> u32 {
        24 + 20 * entries as u32
    }

    fn advertise(&mut self, ctx: &mut Ctx<'_, RipMsg>) {
        for net in NetId::planes(ctx.planes()) {
            // Split horizon: omit routes learned on this interface.
            let mut entries = vec![(self.id, 0u8)];
            entries.extend(self.table.iter().filter_map(|(&dst, e)| {
                (e.net != net && e.metric < INFINITY).then_some((dst, e.metric))
            }));
            let wire = Self::advert_wire_bytes(entries.len());
            ctx.broadcast_control_sized(net, RipMsg { entries }, wire);
        }
        self.adverts_sent += 1;
    }

    fn expire_stale(&mut self, ctx: &mut Ctx<'_, RipMsg>) {
        let now = ctx.now();
        let timeout = self.cfg.route_timeout;
        let expired: Vec<NodeId> = self
            .table
            .iter()
            .filter(|(_, e)| now.since(e.last_heard) > timeout && e.metric < INFINITY)
            .map(|(&d, _)| d)
            .collect();
        for dst in expired {
            self.table.get_mut(&dst).expect("present").metric = INFINITY;
            self.timeouts += 1;
            ctx.del_route(dst);
        }
    }

    fn kernel_route_for(entry: &RipEntry, dst: NodeId) -> Route {
        if entry.via == dst {
            Route::Direct(entry.net)
        } else {
            Route::Via {
                gateway: entry.via,
                net: entry.net,
            }
        }
    }
}

impl Protocol for RipDaemon {
    type Msg = RipMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, RipMsg>) {
        // RIP trusts nothing until it hears advertisements: clear the
        // kernel's static defaults and start the periodic announcer.
        let peers: Vec<NodeId> = (0..ctx.n_nodes() as u32)
            .map(NodeId)
            .filter(|&p| p != self.id)
            .collect();
        for p in peers {
            ctx.del_route(p);
        }
        self.advertise(ctx);
        ctx.set_timer(self.cfg.update_interval, TICK_TOKEN);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, RipMsg>, token: u64) {
        debug_assert_eq!(token, TICK_TOKEN);
        self.expire_stale(ctx);
        self.advertise(ctx);
        ctx.set_timer(self.cfg.update_interval, TICK_TOKEN);
    }

    fn on_control(&mut self, ctx: &mut Ctx<'_, RipMsg>, from: NodeId, net: NetId, msg: &RipMsg) {
        let now = ctx.now();
        for &(dst, metric) in &msg.entries {
            if dst == self.id {
                continue;
            }
            let candidate = metric.saturating_add(1).min(INFINITY);
            let current = self.table.get(&dst).copied();
            let accept = match current {
                None => candidate < INFINITY,
                Some(e) => {
                    candidate < e.metric
                        // Same source refreshes (or worsens) its own route.
                        || (e.via == from && e.net == net)
                        // An expired entry takes any finite replacement.
                        || (e.metric >= INFINITY && candidate < INFINITY)
                }
            };
            if !accept {
                continue;
            }
            let entry = RipEntry {
                metric: candidate,
                via: from,
                net,
                last_heard: now,
            };
            self.table.insert(dst, entry);
            if candidate < INFINITY {
                ctx.set_route(dst, Self::kernel_route_for(&entry, dst));
            } else {
                ctx.del_route(dst);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drs_sim::fault::{FaultPlan, SimComponent};
    use drs_sim::scenario::ClusterSpec;
    use drs_sim::world::World;

    fn rip_world(n: usize, seed: u64, cfg: RipConfig) -> World<RipDaemon> {
        World::new(ClusterSpec::new(n).seed(seed), move |id| {
            RipDaemon::new(id, cfg)
        })
    }

    /// 30 s / 180 s compressed 30:1 to 1 s / 6 s.
    fn fast_cfg() -> RipConfig {
        RipConfig::default().scaled_down(30)
    }

    #[test]
    fn converges_to_all_pairs_direct_routes() {
        let mut w = rip_world(5, 1, fast_cfg());
        w.run_for(SimDuration::from_secs(5));
        for i in 0..5u32 {
            for j in 0..5u32 {
                if i != j {
                    let r = w.host(NodeId(i)).routes.get(NodeId(j));
                    assert!(
                        matches!(r, Some(Route::Direct(_))),
                        "n{i}->n{j}: {r:?} (all hosts are one hop apart)"
                    );
                    assert_eq!(w.protocol(NodeId(i)).metric(NodeId(j)), 1);
                }
            }
        }
    }

    #[test]
    fn advert_size_grows_with_table() {
        assert_eq!(RipDaemon::advert_wire_bytes(1), 44);
        assert_eq!(RipDaemon::advert_wire_bytes(10), 224);
    }

    #[test]
    fn failure_heals_only_after_timeout() {
        let cfg = fast_cfg(); // update 1 s, timeout 6 s
        let mut w = rip_world(4, 2, cfg);
        w.run_for(SimDuration::from_secs(5)); // converge
        let t0 = w.now();
        w.schedule_faults(FaultPlan::new().fail_at(t0, SimComponent::Nic(NodeId(1), NetId::A)));

        // Well before the timeout the stale route is still installed.
        w.run_for(SimDuration::from_secs(3));
        assert_eq!(
            w.host(NodeId(0)).routes.get(NodeId(1)),
            Some(Route::Direct(NetId::A)),
            "RIP has not noticed yet"
        );

        // After timeout + one update interval it has healed via net B.
        w.run_for(SimDuration::from_secs(7));
        assert_eq!(
            w.host(NodeId(0)).routes.get(NodeId(1)),
            Some(Route::Direct(NetId::B))
        );
        assert!(w.protocol(NodeId(0)).timeouts >= 1);
    }

    #[test]
    fn application_sees_long_outage_under_rip() {
        let cfg = fast_cfg();
        let mut w = rip_world(4, 3, cfg);
        w.run_for(SimDuration::from_secs(5));
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
            Some(drs_sim::world::FlowOutcome::Delivered(rtt)) => {
                assert!(
                    rtt > SimDuration::from_secs(5),
                    "flow must wait out the RIP timeout, took {rtt}"
                );
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn deterministic() {
        let run = |seed| {
            let mut w = rip_world(4, seed, fast_cfg());
            w.run_for(SimDuration::from_secs(10));
            (0..4u32)
                .map(|i| w.protocol(NodeId(i)).adverts_sent)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
    }
}
