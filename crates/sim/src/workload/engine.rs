//! The fluid accounting engine: exact per-session byte integrals at
//! O(classes · hops) work per transition, however many sessions ride the
//! pairs it touches.
//!
//! # Model
//!
//! A session is a constant-rate fluid demand `r_c` (bytes/s, from its
//! class) between a `(src, dst)` host pair. The path it rides is the
//! deterministic walk of the hosts' route tables (the same
//! `next_hop`-to-final-destination forwarding the packet kernel uses),
//! and every hop crosses exactly one network plane. Each plane is a
//! shared medium of capacity `C_p = bandwidth_bps / 8` bytes/s; when the
//! total demand crossing a plane exceeds `C_p`, sessions receive the
//! integer **max-min fair share** `min(r_c, λ_p)` where the water level
//! `λ_p` is computed by water-filling over the per-class crossing
//! counts. A session's delivered rate is `min(r_c, λ_b)` at its
//! **bottleneck** plane `b = argmin λ_p` over the planes it crosses.
//!
//! # Why this is O(transitions)
//!
//! Between transitions every rate is constant, so delivered/shortfall
//! byte integrals advance analytically. Every session of one
//! `(pair, class)` — a *lane* — shares the same bottleneck and the same
//! stalls while it is open, so no per-session state ever moves:
//!
//! - each `(plane, class)` *container* keeps a cumulative delivered and
//!   shortfall integral, advanced by `min(r_c, λ_p) · dt` and the rest of
//!   `r_c · dt`;
//! - each lane keeps the delivered integral `G` and shortfall integral
//!   `S` of one session that never closes. Before the pair's bottleneck
//!   or the water levels change, `G` and `S` take the bottleneck
//!   container's growth since the lane's snapshot; when a stalled pair
//!   resumes, `S` takes `r_c · (t − stall_since)`;
//! - a session stores its lane's `(G, S)` at its open and reads
//!   `good = G − G₀`, `short = S − S₀` at its close: the sum of the
//!   container deltas over exactly the intervals it was open, so every
//!   ledger is the exact integer a per-session integrator gives (the
//!   brute-force differential test checks it).
//!
//! A transition therefore costs the local lane update, one `O(K · C)`
//! water-fill recompute, and a re-bucket sweep limited to the (normally
//! empty) set of member-bearing pairs whose path crosses ≥ 2 distinct
//! planes. A stall, resume, reroute or re-bucket costs O(C · hops) for
//! its pair, whether one session rides it or ten thousand; a session's
//! record is touched at its own open and close only.
//!
//! Finding a session at its close is an array index, not a hash: every
//! host hands out dense local ids (`WorkloadCore::next_local`), so the
//! engine keeps one window per host over that counter — slab index by
//! `local - base` — and retires the closed prefix, so memory follows the
//! span of ids still open.
//!
//! # Stall semantics
//!
//! When a pair with sessions attached loses liveness (no route, a hop's
//! NIC down, or a hub down), its lanes are settled, their crossings
//! leave the planes and the pair enters a **stall window**: `G` stands
//! still and the whole demand accrues as shortfall until the daemons
//! repair the route and the pair resumes. The resume bills the window to
//! `S`, rejoins the planes and snapshots the new bottleneck; a session
//! that closes inside the window reads `S` plus the window so far.
//! Arrivals on a non-live pair are **dropped** (their whole offered
//! volume becomes `dropped_unit`). The
//! [`DrsIo::notify_reroute`](drs_core::io::DrsIo::notify_reroute)
//! transition is counted 1:1 against the daemons' `reroute_complete`
//! histogram as a cross-check; resumption itself is driven by the
//! observed route installs, not by the notification.
//!
//! # Units
//!
//! All byte ledgers are exact integers in **unit = bytes/s · ns**, i.e.
//! `bytes × 10⁹`, accumulated in `u128`. The conservation identity
//! `offered == delivered + shortfall + dropped + in_flight` holds
//! *exactly* (bit-for-bit) at any settled instant — it is a property
//! test and a `drs-bench repro` verdict, not an approximation.

use std::collections::VecDeque;

use drs_core::{NodeId, Route, SimTime};
use drs_obs::{Fnv1a, Histogram};

use crate::fault::HubSchedule;

use self::slab::Slab;
use super::{Transition, TransitionRecord, WorkloadSpec};

/// Ledger unit per byte: ledgers hold bytes/s · ns.
pub const UNIT_PER_BYTE: u128 = 1_000_000_000;

/// Session-level SLO counters and histograms, maintained by the
/// [`FluidEngine`]. Byte quantities are in ledger units
/// ([`UNIT_PER_BYTE`] per byte) and exact.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadStats {
    /// Sessions opened (including dropped arrivals).
    pub opened: u64,
    /// Sessions that ran and closed.
    pub closed: u64,
    /// Arrivals dropped because their pair had no live path.
    pub dropped_arrivals: u64,
    /// Sessions currently active.
    pub active: u64,
    /// Open + close transitions processed — the right-hand side of the
    /// `kernel workload events == transitions` identity.
    pub transitions: u64,
    /// Route installs/removals observed.
    pub route_transitions: u64,
    /// NIC state flips observed.
    pub nic_transitions: u64,
    /// Hub state flips applied from the out-of-band schedule.
    pub hub_transitions: u64,
    /// Daemon reroute-complete notifications (== the daemons'
    /// `reroute_complete` sample count).
    pub reroute_notifications: u64,
    /// Stall windows entered (a live, member-bearing pair lost its path).
    pub stall_windows: u64,
    /// Stall windows that ended with members still attached.
    pub resumed_windows: u64,
    /// Total demand of all arrivals, unit = bytes/s · ns.
    pub offered_unit: u128,
    /// Goodput actually delivered by closed sessions.
    pub delivered_unit: u128,
    /// Demand closed sessions could not deliver (congestion + stalls).
    pub shortfall_unit: u128,
    /// Demand of dropped arrivals.
    pub dropped_unit: u128,
    /// Per-closed-session goodput, bytes.
    pub goodput_bytes: Histogram,
    /// Per-session service interruption at resume, ns.
    pub interruption: Histogram,
    /// Sessions stalled per failover window.
    pub stalled_per_failover: Histogram,
    /// Arrivals dropped per stall window.
    pub dropped_per_stall: Histogram,
}

/// Exact conservation snapshot: every offered unit is delivered,
/// short-fallen, dropped, or still in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConservationReport {
    /// Total offered demand, ledger units.
    pub offered_unit: u128,
    /// Delivered by closed sessions.
    pub delivered_unit: u128,
    /// Shortfall of closed sessions.
    pub shortfall_unit: u128,
    /// Dropped at arrival.
    pub dropped_unit: u128,
    /// Committed to sessions still open (elapsed + remaining demand).
    pub in_flight_unit: u128,
}

impl ConservationReport {
    /// `true` iff the ledger balances exactly.
    #[must_use]
    pub fn holds(&self) -> bool {
        self.offered_unit
            == self.delivered_unit + self.shortfall_unit + self.dropped_unit + self.in_flight_unit
    }
}

/// One open session. What it has delivered and missed so far is not
/// stored: it is its lane's growth since the open (module docs).
#[derive(Debug, Clone, Copy)]
struct Session {
    /// The lane's delivered integral `G` at the open, ledger units.
    good0: u128,
    /// The lane's shortfall integral `S` at the open, ledger units.
    short0: u128,
    open_ns: u64,
    close_ns: u64,
    pair: u32,
    class: u8,
}

// Bytes per open session: `fluid_million` holds ≈ 1 M of them. Nothing
// in the record changes after the open — the delivered and shortfall so
// far live per lane — so it is two lane readings, two instants and the
// lane's address; the rate is the class's.
const _: () = assert!(std::mem::size_of::<Session>() <= 64);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Hop {
    a: u32,
    b: u32,
    plane: u8,
}

#[derive(Debug, Clone, Default)]
struct Pair {
    hops: Vec<Hop>,
    /// Bitmask of planes crossed.
    plane_mask: u64,
    stall_since: u64,
    dropped_in_window: u64,
    /// Open sessions on this pair, all classes.
    members: u32,
    has_path: bool,
    live: bool,
    /// Plane index whose containers the lanes snapshot.
    bottleneck: u8,
    /// Whether the pair is on the engine's `multiplane` watch list.
    watched: bool,
}

// Bytes per host pair, n² of them: the per-class state lives in the
// engine's flat `lanes` table and the path behind a `Vec`, so a pair is
// its path, its stall window and a member count whatever the class count.
const _: () = assert!(std::mem::size_of::<Pair>() <= 56);

/// The integrals every session of one `(pair, class)` shares while it is
/// open (module docs). Row `pid · classes + class` of
/// [`FluidEngine::lanes`].
#[derive(Debug, Clone, Copy, Default)]
struct Lane {
    /// Open sessions of this class on the pair.
    members: u32,
    /// `G`: one session's delivered integral up to the last settle.
    good: u128,
    /// `S`: one session's shortfall integral up to the last settle.
    short: u128,
    /// The bottleneck container's delivered integral at the snapshot.
    snap_good: u128,
    /// The bottleneck container's shortfall integral at the snapshot.
    snap_short: u128,
}

/// Sentinel slab index for arrivals dropped at open.
const DROPPED: u32 = u32::MAX;
/// Sentinel slab index for a session that has closed.
const RETIRED: u32 = u32::MAX - 1;

/// One host's sessions by local id: `slots[local - base]` is the slab
/// index (or [`DROPPED`], or [`RETIRED`] once closed). Local ids are a
/// dense per-host counter, so opens append and the closed prefix pops.
#[derive(Debug, Default)]
struct IdWindow {
    base: u64,
    slots: VecDeque<u32>,
}

impl IdWindow {
    fn open(&mut self, local: u64, idx: u32) {
        assert_eq!(
            local,
            self.base + self.slots.len() as u64,
            "local session ids are dense per host"
        );
        self.slots.push_back(idx);
    }

    /// Retires `local` and returns what it held; `None` when it was never
    /// opened or has already closed.
    fn close(&mut self, local: u64) -> Option<u32> {
        let at = usize::try_from(local.checked_sub(self.base)?).ok()?;
        let idx = std::mem::replace(self.slots.get_mut(at)?, RETIRED);
        while self.slots.front() == Some(&RETIRED) {
            self.slots.pop_front();
            self.base += 1;
        }
        (idx != RETIRED).then_some(idx)
    }
}

mod slab {
    use super::Session;

    /// The open sessions' records, reused through a free list. The
    /// fields are private to this module, so every touch of a record goes
    /// through [`Slab::insert`], [`Slab::remove`] or [`Slab::iter`]; test
    /// builds count the touches.
    #[derive(Debug, Default)]
    pub(super) struct Slab {
        records: Vec<Session>,
        alive: Vec<bool>,
        free: Vec<u32>,
        #[cfg(test)]
        pub(super) touches: std::cell::Cell<u64>,
    }

    impl Slab {
        pub(super) fn with_capacity(n: usize) -> Self {
            Slab {
                records: Vec::with_capacity(n),
                alive: Vec::with_capacity(n),
                ..Slab::default()
            }
        }

        fn touch(&self) {
            #[cfg(test)]
            self.touches.set(self.touches.get() + 1);
        }

        /// Stores an opening session; returns its index.
        pub(super) fn insert(&mut self, s: Session) -> u32 {
            self.touch();
            match self.free.pop() {
                Some(i) => {
                    self.records[i as usize] = s;
                    self.alive[i as usize] = true;
                    i
                }
                None => {
                    self.records.push(s);
                    self.alive.push(true);
                    (self.records.len() - 1) as u32
                }
            }
        }

        /// Frees a closing session's slot; returns its record.
        pub(super) fn remove(&mut self, idx: u32) -> Session {
            self.touch();
            self.alive[idx as usize] = false;
            self.free.push(idx);
            self.records[idx as usize]
        }

        /// The open sessions with their indices, in index order.
        pub(super) fn iter(&self) -> impl Iterator<Item = (u32, &Session)> {
            self.records
                .iter()
                .zip(&self.alive)
                .enumerate()
                .filter(|(_, (_, &alive))| alive)
                .map(|(i, (s, _))| {
                    self.touch();
                    (i as u32, s)
                })
        }
    }
}

/// Integer max-min water level of one plane of capacity `cap` crossed by
/// `crossings[c]` sessions of class `c` (demand `rates[c]`): classes
/// ascending by rate (`order`); a class is satisfied whole if granting
/// every remaining crossing its rate still fits, otherwise the level is
/// the floor split of what remains. `u64::MAX` when nothing is cut.
fn water_level(cap: u64, crossings: &[u64], rates: &[u64], order: &[u8]) -> u64 {
    let total: u128 = crossings
        .iter()
        .zip(rates)
        .map(|(&m, &r)| u128::from(m) * u128::from(r))
        .sum();
    if total <= u128::from(cap) {
        return u64::MAX;
    }
    let mut remaining = cap;
    let mut left: u64 = crossings.iter().sum();
    for &c in order {
        let m = crossings[c as usize];
        if m == 0 {
            continue;
        }
        let r = rates[c as usize];
        if u128::from(r) * u128::from(left) <= u128::from(remaining) {
            remaining -= r * m;
            left -= m;
        } else {
            return remaining / left;
        }
    }
    u64::MAX
}

/// The driver-level fluid engine. Constructed by
/// `World::enable_workload`; fed the transition log at the end of
/// every `run_until`.
pub struct FluidEngine {
    n: usize,
    planes: usize,
    ttl: u8,
    n_classes: usize,
    /// Per-plane capacity, bytes/s.
    capacity: Vec<u64>,
    /// Per-class demand, bytes/s.
    rates: Vec<u64>,
    /// Class indices sorted by ascending rate (water-fill order).
    class_order: Vec<u8>,
    /// Route mirror, `n × n` (row = src).
    routes: Vec<Option<Route>>,
    /// NIC state mirror, `n × planes`.
    nic_up: Vec<bool>,
    /// Hub state mirror, per plane, after the first `hubs_applied`
    /// toggles of the world's hub schedule.
    hub_up: Vec<bool>,
    /// The engine's cursor into the world's hub schedule (which the
    /// driver passes in): how many of its toggles are applied.
    hubs_applied: usize,
    /// Crossing multiplicity per `(plane, class)` container.
    crossings: Vec<u64>,
    /// Water level per plane, bytes/s (`u64::MAX` = unconstrained).
    lambda: Vec<u64>,
    /// Cumulative delivered integral per container, ledger units.
    cum_good: Vec<u128>,
    /// Cumulative shortfall integral per container, ledger units.
    cum_short: Vec<u128>,
    /// Ledgers are integrated up to this instant, ns.
    accrued_ns: u64,
    /// `n × n` pair table (diagonal unused).
    pairs: Vec<Pair>,
    /// `n × n × classes` lane table, row `pid · n_classes + class`.
    lanes: Vec<Lane>,
    /// Member-bearing pairs whose path crosses ≥ 2 distinct planes —
    /// the only pairs whose bottleneck can move when `lambda` changes.
    multiplane: Vec<u32>,
    slab: Slab,
    /// Per host, local id → slab index.
    index: Vec<IdWindow>,
    /// Scratch: pairs whose lanes need a fresh snapshot after the next
    /// water-fill recompute.
    resnap: Vec<u32>,
    stats: WorkloadStats,
    /// Every close's `(good, short)`, in close order.
    #[cfg(test)]
    closes: Vec<(u128, u128)>,
}

impl FluidEngine {
    /// Builds an engine over a mirror of the cluster's state. `routes`
    /// is the row-major `n × n` snapshot of the hosts' kernel route
    /// tables at enable time; NICs and hubs start up.
    pub(crate) fn new(
        spec: &WorkloadSpec,
        n: usize,
        planes: u8,
        ttl: u8,
        bandwidth_bps: u64,
        routes: Vec<Option<Route>>,
    ) -> Self {
        assert!(planes >= 1 && planes as usize <= 64, "plane mask is u64");
        assert_eq!(routes.len(), n * n);
        let planes = planes as usize;
        let n_classes = spec.classes.len();
        let rates: Vec<u64> = spec
            .classes
            .iter()
            .map(|c| (c.rate_bps / 8).max(1))
            .collect();
        let mut class_order: Vec<u8> = (0..n_classes as u8).collect();
        class_order.sort_by_key(|&c| (rates[c as usize], c));
        // Sizing only: the slab and the windows grow past it if needed.
        let expected = usize::try_from(spec.expected_active(n))
            .unwrap_or(0)
            .min(1 << 21);
        let mut eng = FluidEngine {
            n,
            planes,
            ttl,
            n_classes,
            capacity: vec![(bandwidth_bps / 8).max(1); planes],
            rates,
            class_order,
            routes,
            nic_up: vec![true; n * planes],
            hub_up: vec![true; planes],
            hubs_applied: 0,
            crossings: vec![0; planes * n_classes],
            lambda: vec![u64::MAX; planes],
            cum_good: vec![0; planes * n_classes],
            cum_short: vec![0; planes * n_classes],
            accrued_ns: 0,
            pairs: vec![Pair::default(); n * n],
            lanes: vec![Lane::default(); n * n * n_classes],
            multiplane: Vec::new(),
            slab: Slab::with_capacity(expected),
            index: (0..n)
                .map(|_| IdWindow {
                    base: 0,
                    slots: VecDeque::with_capacity(expected / n.max(1)),
                })
                .collect(),
            resnap: Vec::new(),
            stats: WorkloadStats::default(),
            #[cfg(test)]
            closes: Vec::new(),
        };
        for src in 0..n {
            for dst in 0..n {
                if src != dst {
                    eng.install_path(src * n + dst);
                }
            }
        }
        eng
    }

    /// Session-level statistics (exact up to the last settled instant).
    #[must_use]
    pub fn stats(&self) -> &WorkloadStats {
        &self.stats
    }

    /// Applies one transition, after every toggle of `hubs` due by its
    /// instant; records must arrive in `(at, seq)` order. Leaves the
    /// ledgers settled at the record's instant.
    pub(crate) fn apply(&mut self, rec: &TransitionRecord, hubs: &HubSchedule) {
        let t = rec.at.0;
        self.apply_hubs_through(hubs, rec.at);
        self.accrue_to(t);
        match rec.kind {
            Transition::Open {
                host,
                local,
                dst,
                class,
                holding_ns,
            } => self.on_open(t, host, local, dst, class, holding_ns),
            Transition::Close { host, local } => self.on_close(t, host, local),
            Transition::Nic { node, net, up } => {
                self.stats.nic_transitions += 1;
                let i = node.idx() * self.planes + net.idx();
                if self.nic_up[i] != up {
                    self.nic_up[i] = up;
                    self.refresh_liveness_all(t);
                }
            }
            Transition::RouteSet { host, dst, route } => self.on_route(t, host, dst, Some(route)),
            Transition::RouteDel { host, dst } => self.on_route(t, host, dst, None),
            Transition::Reroute { .. } => self.stats.reroute_notifications += 1,
        }
    }

    /// Applies any pending toggles of `hubs` and integrates the ledgers
    /// up to `until`. Idempotent; the driver calls it at the end of every
    /// `run_until`.
    pub(crate) fn settle(&mut self, until: SimTime, hubs: &HubSchedule) {
        self.apply_hubs_through(hubs, until);
        self.accrue_to(until.0);
    }

    /// Walks the cursor over every toggle of `hubs` due at or before `t`,
    /// applying each at its own instant.
    fn apply_hubs_through(&mut self, hubs: &HubSchedule, t: SimTime) {
        for toggle in hubs.due(self.hubs_applied, t) {
            self.hubs_applied += 1;
            self.accrue_to(toggle.at.0);
            if self.hub_up[toggle.net.idx()] != toggle.up {
                self.hub_up[toggle.net.idx()] = toggle.up;
                self.stats.hub_transitions += 1;
                self.refresh_liveness_all(toggle.at.0);
            }
        }
    }

    /// Advances every container integral to `t`. O(K · C).
    fn accrue_to(&mut self, t: u64) {
        debug_assert!(t >= self.accrued_ns, "transitions must be time-ordered");
        let dt = t.saturating_sub(self.accrued_ns);
        if dt == 0 {
            return;
        }
        self.accrued_ns = t;
        for p in 0..self.planes {
            let lam = self.lambda[p];
            for c in 0..self.n_classes {
                let r = self.rates[c];
                let v = r.min(lam);
                let i = p * self.n_classes + c;
                self.cum_good[i] += u128::from(v) * u128::from(dt);
                self.cum_short[i] += u128::from(r - v) * u128::from(dt);
            }
        }
    }

    // ------------------------------------------------------------------
    // Path resolution
    // ------------------------------------------------------------------

    /// Walks the route mirror from `src` to `dst`, exactly like packet
    /// forwarding: every hop consults the *current host's* route to the
    /// final destination. `None` on a missing route, loop, or TTL
    /// exhaustion.
    fn walk(&self, src: usize, dst: usize) -> Option<Vec<Hop>> {
        let mut hops = Vec::with_capacity(2);
        let mut cur = src;
        for _ in 0..=self.ttl {
            let route = self.routes[cur * self.n + dst]?;
            let (next, net) = route.next_hop(NodeId(dst as u32));
            hops.push(Hop {
                a: cur as u32,
                b: next.0,
                plane: net.idx() as u8,
            });
            if next.idx() == dst {
                return Some(hops);
            }
            cur = next.idx();
        }
        None
    }

    fn hops_live(&self, hops: &[Hop]) -> bool {
        hops.iter().all(|h| {
            self.hub_up[h.plane as usize]
                && self.nic_up[h.a as usize * self.planes + h.plane as usize]
                && self.nic_up[h.b as usize * self.planes + h.plane as usize]
        })
    }

    /// Resolves a pair's path + liveness from scratch. Only valid while
    /// the pair has no members (no accounting to migrate).
    fn install_path(&mut self, pid: usize) {
        debug_assert_eq!(self.pairs[pid].members, 0);
        let (src, dst) = (pid / self.n, pid % self.n);
        let hops = self.walk(src, dst);
        let pair = &mut self.pairs[pid];
        match hops {
            Some(h) => {
                pair.plane_mask = h.iter().fold(0u64, |m, hop| m | 1 << hop.plane);
                pair.hops = h;
                pair.has_path = true;
            }
            None => {
                pair.hops.clear();
                pair.plane_mask = 0;
                pair.has_path = false;
            }
        }
        let live = pair.has_path;
        self.pairs[pid].live = live && self.hops_live(&self.pairs[pid].hops);
    }

    // ------------------------------------------------------------------
    // Water-filling and lane maintenance
    // ------------------------------------------------------------------

    /// Recomputes every plane's water level ([`water_level`]).
    fn recompute_lambda(&mut self) {
        let nc = self.n_classes;
        for p in 0..self.planes {
            self.lambda[p] = water_level(
                self.capacity[p],
                &self.crossings[p * nc..(p + 1) * nc],
                &self.rates,
                &self.class_order,
            );
        }
    }

    /// The argmin-λ plane among the pair's hops (tie → lower plane
    /// index). Class-independent because `min(r_c, ·)` is monotone.
    fn bottleneck_of(&self, pid: usize) -> u8 {
        let hops = &self.pairs[pid].hops;
        debug_assert!(!hops.is_empty());
        let mut best = hops[0].plane;
        let mut best_l = self.lambda[best as usize];
        for h in &hops[1..] {
            let l = self.lambda[h.plane as usize];
            if l < best_l || (l == best_l && h.plane < best) {
                best = h.plane;
                best_l = l;
            }
        }
        best
    }

    /// Folds the bottleneck containers' growth since the lanes' snapshots
    /// into the pair's `G` and `S`. Must run *before* the pair's
    /// bottleneck or the water levels change; leaves the snapshots stale.
    /// O(C).
    fn settle_pair(&mut self, pid: usize) {
        let nc = self.n_classes;
        let b = self.pairs[pid].bottleneck as usize * nc;
        for (c, lane) in self.lanes[pid * nc..(pid + 1) * nc].iter_mut().enumerate() {
            lane.good += self.cum_good[b + c] - lane.snap_good;
            lane.short += self.cum_short[b + c] - lane.snap_short;
        }
    }

    /// Re-snapshots the pair's lanes at its (already updated) bottleneck
    /// containers. O(C).
    fn snap_pair(&mut self, pid: usize) {
        let nc = self.n_classes;
        let b = self.pairs[pid].bottleneck as usize * nc;
        for (c, lane) in self.lanes[pid * nc..(pid + 1) * nc].iter_mut().enumerate() {
            lane.snap_good = self.cum_good[b + c];
            lane.snap_short = self.cum_short[b + c];
        }
    }

    /// Adds (`up = true`) or removes the crossings of every session on
    /// the pair along its current hops, a lane at a time. O(C · hops).
    fn pair_crossings(&mut self, pid: usize, up: bool) {
        let nc = self.n_classes;
        for c in 0..nc {
            let m = u64::from(self.lanes[pid * nc + c].members);
            if m == 0 {
                continue;
            }
            for hop in &self.pairs[pid].hops {
                let i = hop.plane as usize * nc + c;
                if up {
                    self.crossings[i] += m;
                } else {
                    self.crossings[i] -= m;
                }
            }
        }
    }

    /// A lane's `(G, S)` at the last accrued instant. Valid while the
    /// pair has members and is not queued in `resnap`.
    fn lane_integrals(&self, pid: usize, class: usize) -> (u128, u128) {
        let pair = &self.pairs[pid];
        let lane = &self.lanes[pid * self.n_classes + class];
        if pair.live {
            let ci = pair.bottleneck as usize * self.n_classes + class;
            (
                lane.good + self.cum_good[ci] - lane.snap_good,
                lane.short + self.cum_short[ci] - lane.snap_short,
            )
        } else {
            // Stalled: the window so far is pure shortfall.
            let window = self.accrued_ns - pair.stall_since;
            (
                lane.good,
                lane.short + u128::from(self.rates[class]) * u128::from(window),
            )
        }
    }

    /// What an open session has delivered and missed so far.
    fn session_ledger(&self, s: &Session) -> (u128, u128) {
        let (good, short) = self.lane_integrals(s.pair as usize, s.class as usize);
        (good - s.good0, short - s.short0)
    }

    /// Keeps the multiplane watch list consistent with the pair's
    /// member/path state.
    fn update_multiplane(&mut self, pid: usize) {
        let pair = &mut self.pairs[pid];
        let should = pair.members > 0 && pair.plane_mask.count_ones() >= 2;
        if should == pair.watched {
            return;
        }
        pair.watched = should;
        if should {
            self.multiplane.push(pid as u32);
        } else {
            let at = self.multiplane.iter().position(|&p| p == pid as u32);
            self.multiplane
                .swap_remove(at.expect("a watched pair is listed"));
        }
    }

    /// After a water-level change: moves any watched live pair whose
    /// bottleneck shifted onto its new containers (settle at the old,
    /// snap at the new). Pairs freshly snapped via `resnap` this round
    /// are already on the argmin container and no-op here.
    fn rebucket_multiplane(&mut self) {
        for k in 0..self.multiplane.len() {
            let pid = self.multiplane[k] as usize;
            if !self.pairs[pid].live {
                continue;
            }
            let b = self.bottleneck_of(pid);
            if b != self.pairs[pid].bottleneck {
                self.settle_pair(pid);
                self.pairs[pid].bottleneck = b;
                self.snap_pair(pid);
            }
        }
    }

    /// Pairs queued in `resnap` were settled (or stalled) during the
    /// mutation phase; now that `lambda` is current, point them at their
    /// argmin containers and take fresh snapshots.
    fn finish_resnap(&mut self) {
        while let Some(pid) = self.resnap.pop() {
            let pid = pid as usize;
            self.pairs[pid].bottleneck = self.bottleneck_of(pid);
            self.snap_pair(pid);
        }
    }

    // ------------------------------------------------------------------
    // Stall / resume
    // ------------------------------------------------------------------

    /// The pair is about to lose liveness with members attached, its
    /// hops still the old ones: settle its lanes, take their demand off
    /// the planes, and open the stall window.
    fn stall_start(&mut self, pid: usize, t: u64) {
        self.settle_pair(pid);
        self.pair_crossings(pid, false);
        let pair = &mut self.pairs[pid];
        pair.stall_since = t;
        pair.dropped_in_window = 0;
        self.stats.stall_windows += 1;
        self.stats
            .stalled_per_failover
            .record(u64::from(pair.members));
    }

    /// The pair regained liveness: bill the whole window to every lane's
    /// `S`, rejoin the planes, and queue the lanes for a fresh snapshot.
    fn resume(&mut self, pid: usize, t: u64) {
        let nc = self.n_classes;
        let window = t - self.pairs[pid].stall_since;
        for (lane, &r) in self.lanes[pid * nc..(pid + 1) * nc]
            .iter_mut()
            .zip(&self.rates)
        {
            lane.short += u128::from(r) * u128::from(window);
        }
        self.pair_crossings(pid, true);
        let pair = &self.pairs[pid];
        self.stats
            .interruption
            .record_n(window, u64::from(pair.members));
        self.stats.dropped_per_stall.record(pair.dropped_in_window);
        self.stats.resumed_windows += 1;
        self.resnap.push(pid as u32);
    }

    /// Re-checks liveness of every pathed pair after a NIC or hub flip
    /// (paths themselves are unchanged — only component state moved).
    fn refresh_liveness_all(&mut self, t: u64) {
        debug_assert!(self.resnap.is_empty());
        let mut dirty = false;
        for pid in 0..self.pairs.len() {
            if !self.pairs[pid].has_path {
                continue;
            }
            let live = self.hops_live(&self.pairs[pid].hops);
            if live == self.pairs[pid].live {
                continue;
            }
            self.pairs[pid].live = live;
            if self.pairs[pid].members == 0 {
                continue;
            }
            dirty = true;
            if live {
                self.resume(pid, t);
            } else {
                self.stall_start(pid, t);
            }
        }
        if dirty {
            self.recompute_lambda();
            self.finish_resnap();
            self.rebucket_multiplane();
        }
    }

    // ------------------------------------------------------------------
    // Transitions
    // ------------------------------------------------------------------

    fn on_open(
        &mut self,
        t: u64,
        host: NodeId,
        local: u64,
        dst: NodeId,
        class: u8,
        holding_ns: u64,
    ) {
        self.stats.opened += 1;
        self.stats.transitions += 1;
        let offered = u128::from(self.rates[class as usize]) * u128::from(holding_ns);
        self.stats.offered_unit += offered;
        let pid = host.idx() * self.n + dst.idx();
        if !self.pairs[pid].live {
            self.stats.dropped_arrivals += 1;
            self.stats.dropped_unit += offered;
            self.pairs[pid].dropped_in_window += 1;
            self.index[host.idx()].open(local, DROPPED);
            return;
        }
        self.stats.active += 1;
        // Memberless pairs are neither settled nor rebucketed, so point
        // the lanes at the current argmin containers before reading them.
        if self.pairs[pid].members == 0 {
            self.pairs[pid].bottleneck = self.bottleneck_of(pid);
            self.snap_pair(pid);
        }
        let (good0, short0) = self.lane_integrals(pid, class as usize);
        let idx = self.slab.insert(Session {
            good0,
            short0,
            open_ns: t,
            close_ns: t + holding_ns,
            pair: pid as u32,
            class,
        });
        self.index[host.idx()].open(local, idx);
        self.pairs[pid].members += 1;
        self.lanes[pid * self.n_classes + class as usize].members += 1;
        for hop in &self.pairs[pid].hops {
            self.crossings[hop.plane as usize * self.n_classes + class as usize] += 1;
        }
        self.update_multiplane(pid);
        self.recompute_lambda();
        self.rebucket_multiplane();
    }

    fn on_close(&mut self, t: u64, host: NodeId, local: u64) {
        self.stats.transitions += 1;
        let Some(idx) = self.index[host.idx()].close(local) else {
            debug_assert!(false, "close without open");
            return;
        };
        if idx == DROPPED {
            return;
        }
        self.stats.closed += 1;
        self.stats.active -= 1;
        let s = self.slab.remove(idx);
        let (pid, class) = (s.pair as usize, s.class as usize);
        debug_assert_eq!(t, s.close_ns);
        let (good, short) = self.session_ledger(&s);
        debug_assert_eq!(
            good + short,
            u128::from(self.rates[class]) * u128::from(t - s.open_ns),
            "per-session ledger identity"
        );
        #[cfg(test)]
        self.closes.push((good, short));
        self.stats.delivered_unit += good;
        self.stats.shortfall_unit += short;
        self.stats
            .goodput_bytes
            .record(u64::try_from(good / UNIT_PER_BYTE).unwrap_or(u64::MAX));
        self.pairs[pid].members -= 1;
        self.lanes[pid * self.n_classes + class].members -= 1;
        if self.pairs[pid].live {
            for hop in &self.pairs[pid].hops {
                self.crossings[hop.plane as usize * self.n_classes + class] -= 1;
            }
            self.recompute_lambda();
            self.rebucket_multiplane();
        }
        self.update_multiplane(pid);
    }

    fn on_route(&mut self, t: u64, host: NodeId, dst: NodeId, route: Option<Route>) {
        self.stats.route_transitions += 1;
        self.routes[host.idx() * self.n + dst.idx()] = route;
        // Forwarding only ever consults routes to the *final*
        // destination, so only pairs (*, dst) can change.
        debug_assert!(self.resnap.is_empty());
        let mut dirty = false;
        for src in 0..self.n {
            if src == dst.idx() {
                continue;
            }
            dirty |= self.refresh_pair_path(src * self.n + dst.idx(), t);
        }
        if dirty {
            self.recompute_lambda();
            self.finish_resnap();
            self.rebucket_multiplane();
        }
    }

    /// Re-walks one pair after a route change and migrates its lanes'
    /// accounting across the old→new (path, liveness) edge. Returns
    /// whether anything changed that affects the water levels.
    fn refresh_pair_path(&mut self, pid: usize, t: u64) -> bool {
        let (src, dst) = (pid / self.n, pid % self.n);
        let new_hops = self.walk(src, dst);
        let new_has = new_hops.is_some();
        let new_live = new_hops.as_deref().is_some_and(|h| self.hops_live(h));
        let same_path = match &new_hops {
            Some(h) => self.pairs[pid].has_path && self.pairs[pid].hops == *h,
            None => !self.pairs[pid].has_path,
        };
        if same_path && new_live == self.pairs[pid].live {
            return false;
        }
        let install = |pair: &mut Pair| {
            match new_hops {
                Some(h) => {
                    pair.plane_mask = h.iter().fold(0u64, |m, hop| m | 1 << hop.plane);
                    pair.hops = h;
                }
                None => {
                    pair.hops.clear();
                    pair.plane_mask = 0;
                }
            }
            pair.has_path = new_has;
            pair.live = new_live;
        };
        if self.pairs[pid].members == 0 {
            install(&mut self.pairs[pid]);
            return false;
        }
        match (self.pairs[pid].live, new_live) {
            (true, true) => {
                // Live path moved: settle on the old hops, re-cross on
                // the new ones, snapshot after the λ recompute.
                self.settle_pair(pid);
                self.pair_crossings(pid, false);
                install(&mut self.pairs[pid]);
                self.pair_crossings(pid, true);
                self.resnap.push(pid as u32);
            }
            (true, false) => {
                self.stall_start(pid, t);
                install(&mut self.pairs[pid]);
            }
            (false, true) => {
                install(&mut self.pairs[pid]);
                self.resume(pid, t);
            }
            (false, false) => {
                install(&mut self.pairs[pid]);
                return false;
            }
        }
        self.update_multiplane(pid);
        true
    }

    // ------------------------------------------------------------------
    // Verdicts
    // ------------------------------------------------------------------

    /// Exact conservation snapshot at the last settled instant: every
    /// open session's delivered and shortfall so far (its lane's growth
    /// since the open) plus its demand still to come. O(active).
    #[must_use]
    pub fn conservation(&self) -> ConservationReport {
        let mut in_flight = 0u128;
        for (_, s) in self.slab.iter() {
            let (good, short) = self.session_ledger(s);
            let remaining = u128::from(self.rates[s.class as usize])
                * u128::from(s.close_ns.saturating_sub(self.accrued_ns));
            in_flight += good + short + remaining;
        }
        ConservationReport {
            offered_unit: self.stats.offered_unit,
            delivered_unit: self.stats.delivered_unit,
            shortfall_unit: self.stats.shortfall_unit,
            dropped_unit: self.stats.dropped_unit,
            in_flight_unit: in_flight,
        }
    }

    /// FNV-1a fingerprint of the full fluid state: counters, water
    /// levels, container integrals, every open session's delivered and
    /// shortfall so far, and every pair's state. O(active + n²).
    /// Bit-identical across reruns.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut f = Fnv1a::default();
        f.u64(self.stats.opened);
        f.u64(self.stats.closed);
        f.u64(self.stats.dropped_arrivals);
        f.u64(self.stats.active);
        f.u64(self.stats.transitions);
        f.u64(self.stats.route_transitions);
        f.u64(self.stats.nic_transitions);
        f.u64(self.stats.hub_transitions);
        f.u64(self.stats.reroute_notifications);
        f.u64(self.stats.stall_windows);
        f.u64(self.stats.resumed_windows);
        f.u128(self.stats.offered_unit);
        f.u128(self.stats.delivered_unit);
        f.u128(self.stats.shortfall_unit);
        f.u128(self.stats.dropped_unit);
        f.u64(self.accrued_ns);
        for &l in &self.lambda {
            f.u64(l);
        }
        for &c in &self.crossings {
            f.u64(c);
        }
        for &g in &self.cum_good {
            f.u128(g);
        }
        for &s in &self.cum_short {
            f.u128(s);
        }
        for (idx, s) in self.slab.iter() {
            let (good, short) = self.session_ledger(s);
            f.u64(u64::from(idx));
            f.u64(u64::from(s.pair));
            f.u64(u64::from(s.class));
            f.u64(s.open_ns);
            f.u64(s.close_ns);
            f.u128(good);
            f.u128(short);
        }
        for pair in &self.pairs {
            f.u64(
                u64::from(pair.live)
                    | u64::from(pair.has_path) << 1
                    | u64::from(pair.bottleneck) << 2
                    | u64::from(pair.members) << 10,
            );
        }
        f.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::super::{ArrivalProcess, ClassSpec, HoldingDist};
    use super::*;
    use crate::fault::HubToggle;
    use drs_core::{NetId, RouteTable, SimDuration};

    /// No hub ever toggles.
    static NO_HUBS: HubSchedule = HubSchedule::new();

    fn spec(classes: Vec<ClassSpec>) -> WorkloadSpec {
        WorkloadSpec {
            arrivals: ArrivalProcess::Open { mean_gap_ns: 1_000 },
            holding: HoldingDist::Exponential { mean_ns: 1_000 },
            classes,
            horizon: SimTime::ZERO + SimDuration::from_secs(1),
        }
    }

    fn default_routes(n: usize) -> Vec<Option<Route>> {
        let mut out = Vec::with_capacity(n * n);
        for src in 0..n {
            let table = RouteTable::new_default(NodeId(src as u32), n);
            for dst in 0..n {
                out.push(table.get(NodeId(dst as u32)));
            }
        }
        out
    }

    fn engine(n: usize, classes: Vec<ClassSpec>, bw_bps: u64) -> FluidEngine {
        let s = spec(classes);
        FluidEngine::new(&s, n, 2, 8, bw_bps, default_routes(n))
    }

    fn open(host: u32, local: u64, dst: u32, class: u8, holding: u64) -> Transition {
        Transition::Open {
            host: NodeId(host),
            local,
            dst: NodeId(dst),
            class,
            holding_ns: holding,
        }
    }

    fn rec(at: u64, seq: u64, kind: Transition) -> TransitionRecord {
        TransitionRecord {
            at: SimTime(at),
            seq,
            kind,
        }
    }

    #[test]
    fn uncongested_session_delivers_its_full_demand() {
        // 8 Mb/s class on a 100 Mb/s plane: no contention.
        let mut e = engine(
            4,
            vec![ClassSpec {
                rate_bps: 8_000_000,
            }],
            100_000_000,
        );
        e.apply(&rec(0, 0, open(0, 0, 1, 0, 1_000_000_000)), &NO_HUBS);
        e.apply(
            &rec(
                1_000_000_000,
                1,
                Transition::Close {
                    host: NodeId(0),
                    local: 0,
                },
            ),
            &NO_HUBS,
        );
        let st = e.stats();
        assert_eq!(st.delivered_unit, 1_000_000 * 1_000_000_000u128);
        assert_eq!(st.shortfall_unit, 0);
        assert_eq!(st.goodput_bytes.count(), 1);
        assert!(e.conservation().holds());
        assert_eq!(st.transitions, 2);
    }

    #[test]
    fn congestion_splits_capacity_max_min_fair() {
        // Two 80 Mb/s sessions on one 100 Mb/s plane: each gets half.
        let mut e = engine(
            4,
            vec![ClassSpec {
                rate_bps: 80_000_000,
            }],
            100_000_000,
        );
        e.apply(&rec(0, 0, open(0, 0, 1, 0, 1_000_000_000)), &NO_HUBS);
        e.apply(&rec(0, 1, open(2, 0, 3, 0, 1_000_000_000)), &NO_HUBS);
        e.apply(
            &rec(
                1_000_000_000,
                2,
                Transition::Close {
                    host: NodeId(0),
                    local: 0,
                },
            ),
            &NO_HUBS,
        );
        e.apply(
            &rec(
                1_000_000_000,
                3,
                Transition::Close {
                    host: NodeId(2),
                    local: 0,
                },
            ),
            &NO_HUBS,
        );
        let st = e.stats();
        // Each session: demand 10 MB/s, fair share 6.25 MB/s.
        assert_eq!(st.delivered_unit, 2 * 6_250_000 * 1_000_000_000u128);
        assert_eq!(
            st.delivered_unit + st.shortfall_unit,
            2 * 10_000_000 * 1_000_000_000u128
        );
        assert!(e.conservation().holds());
    }

    #[test]
    fn water_filling_saturates_small_classes_first() {
        // One 8 Mb/s and one 800 Mb/s session: small class keeps its
        // 1 MB/s, big class gets the remaining 11.5 MB/s.
        let mut e = engine(
            4,
            vec![
                ClassSpec {
                    rate_bps: 8_000_000,
                },
                ClassSpec {
                    rate_bps: 800_000_000,
                },
            ],
            100_000_000,
        );
        e.apply(&rec(0, 0, open(0, 0, 1, 0, 1_000_000_000)), &NO_HUBS);
        e.apply(&rec(0, 1, open(2, 0, 3, 1, 1_000_000_000)), &NO_HUBS);
        e.apply(
            &rec(
                1_000_000_000,
                2,
                Transition::Close {
                    host: NodeId(0),
                    local: 0,
                },
            ),
            &NO_HUBS,
        );
        e.apply(
            &rec(
                1_000_000_000,
                3,
                Transition::Close {
                    host: NodeId(2),
                    local: 0,
                },
            ),
            &NO_HUBS,
        );
        let st = e.stats();
        assert_eq!(
            st.delivered_unit,
            (1_000_000 + 11_500_000) * 1_000_000_000u128
        );
        assert!(e.conservation().holds());
    }

    #[test]
    fn hub_failure_stalls_and_failover_resumes() {
        let mut e = engine(
            4,
            vec![ClassSpec {
                rate_bps: 8_000_000,
            }],
            100_000_000,
        );
        let mut hubs = HubSchedule::new();
        hubs.insert(HubToggle {
            at: SimTime(500),
            net: NetId::A,
            up: false,
        });
        e.apply(&rec(0, 0, open(0, 0, 1, 0, 2_000)), &hubs);
        // Failover: the daemon moves the route to plane B at t=1500.
        e.apply(
            &rec(
                1_500,
                1,
                Transition::RouteSet {
                    host: NodeId(0),
                    dst: NodeId(1),
                    route: Route::Direct(NetId::B),
                },
            ),
            &hubs,
        );
        e.apply(
            &rec(
                1_500,
                2,
                Transition::Reroute {
                    host: NodeId(0),
                    dst: NodeId(1),
                },
            ),
            &hubs,
        );
        e.apply(
            &rec(
                2_000,
                3,
                Transition::Close {
                    host: NodeId(0),
                    local: 0,
                },
            ),
            &hubs,
        );
        let st = e.stats();
        assert_eq!(st.stall_windows, 1);
        assert_eq!(st.resumed_windows, 1);
        assert_eq!(st.reroute_notifications, 1);
        assert_eq!(st.interruption.count(), 1);
        assert_eq!(st.interruption.sum(), 1_000, "stalled 500..1500");
        // 1 MB/s for 2 µs of demand; 1 µs of it stalled.
        assert_eq!(st.shortfall_unit, 1_000_000 * 1_000u128);
        assert_eq!(st.delivered_unit, 1_000_000 * 1_000u128);
        assert!(e.conservation().holds());
    }

    #[test]
    fn arrivals_on_a_dead_pair_are_dropped() {
        let mut e = engine(
            4,
            vec![ClassSpec {
                rate_bps: 8_000_000,
            }],
            100_000_000,
        );
        let mut hubs = HubSchedule::new();
        hubs.insert(HubToggle {
            at: SimTime(100),
            net: NetId::A,
            up: false,
        });
        e.apply(&rec(200, 0, open(0, 0, 1, 0, 1_000)), &hubs);
        e.apply(
            &rec(
                1_200,
                1,
                Transition::Close {
                    host: NodeId(0),
                    local: 0,
                },
            ),
            &hubs,
        );
        let st = e.stats();
        assert_eq!(st.dropped_arrivals, 1);
        assert_eq!(st.closed, 0);
        assert_eq!(st.dropped_unit, st.offered_unit);
        assert!(e.conservation().holds());
    }

    #[test]
    fn nic_failure_stalls_only_touching_pairs() {
        let mut e = engine(
            4,
            vec![ClassSpec {
                rate_bps: 8_000_000,
            }],
            100_000_000,
        );
        e.apply(&rec(0, 0, open(0, 0, 1, 0, 10_000)), &NO_HUBS);
        e.apply(&rec(0, 1, open(2, 0, 3, 0, 10_000)), &NO_HUBS);
        e.apply(
            &rec(
                100,
                2,
                Transition::Nic {
                    node: NodeId(1),
                    net: NetId::A,
                    up: false,
                },
            ),
            &NO_HUBS,
        );
        assert_eq!(e.stats().stall_windows, 1, "only the 0->1 pair stalls");
        e.apply(
            &rec(
                600,
                3,
                Transition::Nic {
                    node: NodeId(1),
                    net: NetId::A,
                    up: true,
                },
            ),
            &NO_HUBS,
        );
        e.apply(
            &rec(
                10_000,
                4,
                Transition::Close {
                    host: NodeId(0),
                    local: 0,
                },
            ),
            &NO_HUBS,
        );
        e.apply(
            &rec(
                10_000,
                5,
                Transition::Close {
                    host: NodeId(2),
                    local: 0,
                },
            ),
            &NO_HUBS,
        );
        let st = e.stats();
        assert_eq!(st.resumed_windows, 1);
        assert_eq!(st.nic_transitions, 2);
        // Pair 0->1 lost 500ns x 1 MB/s; pair 2->3 lost nothing.
        assert_eq!(st.shortfall_unit, 1_000_000 * 500u128);
        assert!(e.conservation().holds());
    }

    #[test]
    fn id_window_follows_the_span_of_open_ids() {
        let mut w = IdWindow::default();
        for local in 0..4u64 {
            w.open(local, 10 + local as u32);
        }
        assert_eq!(w.close(1), Some(11));
        assert_eq!((w.base, w.slots.len()), (0, 4), "id 0 is still open");
        assert_eq!(w.close(0), Some(10));
        assert_eq!((w.base, w.slots.len()), (2, 2), "the closed prefix is gone");
        // Closed, never opened, and closed-but-still-inside-the-window.
        assert_eq!(w.close(1), None);
        assert_eq!(w.close(9), None);
        w.open(4, DROPPED);
        assert_eq!(w.close(4), Some(DROPPED));
        assert_eq!(w.close(4), None);
        assert_eq!((w.base, w.slots.len()), (2, 3));
        assert_eq!(w.close(3), Some(13));
        assert_eq!(w.close(2), Some(12));
        assert_eq!((w.base, w.slots.len()), (5, 0));
    }

    /// The watch list holds exactly the member-bearing pairs whose path
    /// crosses two planes, each once, and the ledger balances.
    fn assert_watch_list_and_ledger(e: &FluidEngine, listed: &[u32]) {
        assert_eq!(e.multiplane, listed, "watch list");
        for (pid, pair) in e.pairs.iter().enumerate() {
            assert_eq!(pair.watched, listed.contains(&(pid as u32)), "pair {pid}");
        }
        let c = e.conservation();
        assert!(c.holds(), "{c:?}");
    }

    #[test]
    fn two_plane_pair_is_watched_once_through_reroute_stall_and_close() {
        let mut e = engine(
            4,
            vec![ClassSpec {
                rate_bps: 80_000_000,
            }],
            100_000_000,
        );
        let route = |host: u32, dst: u32, route: Route| Transition::RouteSet {
            host: NodeId(host),
            dst: NodeId(dst),
            route,
        };
        let via = |gateway: u32, net: NetId| Route::Via {
            gateway: NodeId(gateway),
            net,
        };
        let nic = |up: bool| Transition::Nic {
            node: NodeId(3),
            net: NetId::B,
            up,
        };
        let close = |host: u32, local: u64| Transition::Close {
            host: NodeId(host),
            local,
        };
        let pid = 1; // pair 0 -> 1 of a 4-host table

        // 0 -> 1 relays through host 2: plane A, then plane B.
        e.apply(&rec(0, 0, route(2, 1, Route::Direct(NetId::B))), &NO_HUBS);
        e.apply(&rec(0, 1, route(0, 1, via(2, NetId::A))), &NO_HUBS);
        assert_watch_list_and_ledger(&e, &[]);
        e.apply(&rec(0, 2, open(0, 0, 1, 0, 300)), &NO_HUBS);
        e.apply(&rec(0, 3, open(0, 1, 1, 0, 500)), &NO_HUBS);
        assert_watch_list_and_ledger(&e, &[pid]);
        assert_eq!(e.pairs[pid as usize].bottleneck, 0, "tie goes to plane A");
        // A third session on plane B alone moves the bottleneck there.
        e.apply(&rec(50, 4, open(2, 0, 1, 0, 450)), &NO_HUBS);
        assert_eq!(e.pairs[pid as usize].bottleneck, 1);
        assert_watch_list_and_ledger(&e, &[pid]);
        // Rerouted onto one plane, then onto two again through host 3.
        e.apply(&rec(100, 5, route(0, 1, Route::Direct(NetId::B))), &NO_HUBS);
        assert_watch_list_and_ledger(&e, &[]);
        e.apply(&rec(150, 6, route(0, 1, via(3, NetId::B))), &NO_HUBS);
        assert_watch_list_and_ledger(&e, &[pid]);
        // The gateway's NIC fails: the pair stalls, a member closes
        // inside the window, the NIC returns and the rest resume.
        e.apply(&rec(200, 7, nic(false)), &NO_HUBS);
        assert_eq!(e.stats().stall_windows, 1);
        e.apply(&rec(300, 8, close(0, 0)), &NO_HUBS);
        assert_watch_list_and_ledger(&e, &[pid]);
        e.apply(&rec(400, 9, nic(true)), &NO_HUBS);
        assert_eq!(e.stats().resumed_windows, 1);
        assert_watch_list_and_ledger(&e, &[pid]);
        e.apply(&rec(500, 10, close(0, 1)), &NO_HUBS);
        e.apply(&rec(500, 11, close(2, 0)), &NO_HUBS);
        assert_watch_list_and_ledger(&e, &[]);
        let st = e.stats();
        assert_eq!((st.opened, st.closed, st.active), (3, 3, 0));
        assert_eq!(st.transitions, 6);
        assert_eq!(
            st.delivered_unit + st.shortfall_unit,
            st.offered_unit,
            "every session ran to its close"
        );
    }

    #[test]
    fn in_flight_sessions_balance_the_ledger_mid_run() {
        let mut e = engine(
            4,
            vec![ClassSpec {
                rate_bps: 80_000_000,
            }],
            100_000_000,
        );
        e.apply(&rec(0, 0, open(0, 0, 1, 0, 1_000_000)), &NO_HUBS);
        e.apply(&rec(100, 1, open(2, 0, 3, 0, 1_000_000)), &NO_HUBS);
        e.settle(SimTime(5_000), &NO_HUBS);
        let c = e.conservation();
        assert!(c.holds(), "{c:?}");
        assert_eq!(c.delivered_unit, 0, "nothing closed yet");
        assert!(c.in_flight_unit == c.offered_unit);
    }

    #[test]
    fn digest_is_order_stable_and_state_sensitive() {
        let run = |close_at: u64| {
            let mut e = engine(
                4,
                vec![ClassSpec {
                    rate_bps: 8_000_000,
                }],
                100_000_000,
            );
            e.apply(&rec(0, 0, open(0, 0, 1, 0, close_at)), &NO_HUBS);
            e.apply(
                &rec(
                    close_at,
                    1,
                    Transition::Close {
                        host: NodeId(0),
                        local: 0,
                    },
                ),
                &NO_HUBS,
            );
            e.settle(SimTime(10_000), &NO_HUBS);
            e.digest()
        };
        assert_eq!(run(1_000), run(1_000));
        assert_ne!(run(1_000), run(2_000));
    }

    /// A hub fail and repair and a route flip on a pair holding `m`
    /// sessions touch no session record (per-pair integrals, not
    /// per-member settling); each open and each close touches exactly
    /// its own.
    #[test]
    fn failover_edges_touch_no_session_record() {
        for m in [1u64, 10_000] {
            let mut e = engine(
                4,
                vec![
                    ClassSpec { rate_bps: 8_000 },
                    ClassSpec { rate_bps: 80_000 },
                ],
                100_000_000,
            );
            let mut hubs = HubSchedule::new();
            for (at, up) in [(2_000, false), (3_000, true)] {
                hubs.insert(HubToggle {
                    at: SimTime(at),
                    net: NetId::A,
                    up,
                });
            }
            let touches = |e: &FluidEngine| e.slab.touches.get();
            for local in 0..m {
                let class = (local % 2) as u8;
                e.apply(&rec(1_000, local, open(0, local, 1, class, 10_000)), &hubs);
                assert_eq!(touches(&e), local + 1, "an open touches its record");
            }
            e.settle(SimTime(2_500), &hubs);
            assert_eq!(e.stats().stall_windows, 1, "the hub failure stalls 0->1");
            e.settle(SimTime(3_500), &hubs);
            assert_eq!(e.stats().resumed_windows, 1, "its repair resumes it");
            let flip = Transition::RouteSet {
                host: NodeId(0),
                dst: NodeId(1),
                route: Route::Direct(NetId::B),
            };
            e.apply(&rec(4_000, m, flip), &hubs);
            assert_eq!(e.pairs[1].hops[0].plane, 1, "the pair moved to plane B");
            assert_eq!(touches(&e), m, "m = {m}: edges touch no session");
            for local in 0..m {
                let close = Transition::Close {
                    host: NodeId(0),
                    local,
                };
                e.apply(&rec(11_000, m + 1 + local, close), &hubs);
                assert_eq!(touches(&e), m + local + 1, "a close touches its record");
            }
            let st = e.stats();
            assert_eq!(st.interruption.count(), m);
            assert_eq!(
                st.interruption.sum(),
                u128::from(1_000 * m),
                "stalled 2000..3000"
            );
            assert!(e.conservation().holds());
        }
    }

    /// The brute-force reference the engine must equal: every session
    /// carries its own ledger, and at every step each open session takes
    /// `min(r_c, λ_b) · dt` delivered (`r_c · dt` shortfall while its pair
    /// is stalled), with paths, liveness, crossings and water levels
    /// recomputed from scratch.
    struct Oracle {
        n: usize,
        ttl: u8,
        cap: u64,
        rates: Vec<u64>,
        order: Vec<u8>,
        routes: Vec<Option<Route>>,
        nic_up: Vec<bool>,
        hub_up: Vec<bool>,
        /// Per pair: the planes of its path's hops (`None`: no path).
        paths: Vec<Option<Vec<usize>>>,
        live: Vec<bool>,
        stall_since: Vec<u64>,
        dropped_in_window: Vec<u64>,
        lambda: Vec<u64>,
        /// Open sessions by `(host, local)`: pair, class, good, short.
        open: std::collections::BTreeMap<(u32, u64), (usize, usize, u128, u128)>,
        dropped: std::collections::BTreeSet<(u32, u64)>,
        now: u64,
        stats: WorkloadStats,
        closes: Vec<(u128, u128)>,
        /// Closes on a stalled pair.
        stalled_closes: u64,
        /// Steps after which a live session's bottleneck plane moved
        /// while its path stayed the same.
        bottleneck_moves: u64,
    }

    impl Oracle {
        fn new(e: &FluidEngine) -> Self {
            let n = e.n;
            let mut o = Oracle {
                n,
                ttl: e.ttl,
                cap: e.capacity[0],
                rates: e.rates.clone(),
                order: e.class_order.clone(),
                routes: e.routes.clone(),
                nic_up: vec![true; n * e.planes],
                hub_up: vec![true; e.planes],
                paths: vec![None; n * n],
                live: vec![false; n * n],
                stall_since: vec![0; n * n],
                dropped_in_window: vec![0; n * n],
                lambda: vec![u64::MAX; e.planes],
                open: Default::default(),
                dropped: Default::default(),
                now: 0,
                stats: WorkloadStats::default(),
                closes: Vec::new(),
                stalled_closes: 0,
                bottleneck_moves: 0,
            };
            o.refresh(0);
            o
        }

        fn path(&self, src: usize, dst: usize) -> Option<Vec<(usize, usize, usize)>> {
            let (mut cur, mut hops) = (src, Vec::new());
            for _ in 0..=self.ttl {
                let (next, net) = self.routes[cur * self.n + dst]?.next_hop(NodeId(dst as u32));
                hops.push((cur, next.idx(), net.idx()));
                if next.idx() == dst {
                    return Some(hops);
                }
                cur = next.idx();
            }
            None
        }

        /// The plane a live pair's sessions are held to (lowest λ, then
        /// lowest index).
        fn bottleneck(&self, pid: usize) -> Option<usize> {
            let planes = self.paths[pid].as_ref()?;
            planes.iter().copied().min_by_key(|&p| (self.lambda[p], p))
        }

        fn advance(&mut self, t: u64) {
            let dt = u128::from(t - self.now);
            self.now = t;
            for s in self.open.values_mut() {
                let (pid, r) = (s.0, self.rates[s.1]);
                if self.live[pid] {
                    let planes = self.paths[pid].as_ref().expect("a live pair has a path");
                    let lam = planes.iter().map(|&p| self.lambda[p]).min().unwrap();
                    let v = r.min(lam);
                    s.2 += u128::from(v) * dt;
                    s.3 += u128::from(r - v) * dt;
                } else {
                    s.3 += u128::from(r) * dt;
                }
            }
        }

        /// Recomputes paths, liveness (with the stall and resume
        /// bookkeeping), crossings and water levels.
        fn refresh(&mut self, t: u64) {
            let n = self.n;
            let before: Vec<_> = (0..n * n)
                .map(|pid| {
                    (
                        self.live[pid],
                        self.paths[pid].clone(),
                        self.bottleneck(pid),
                    )
                })
                .collect();
            let mut members = vec![0u64; n * n];
            for &(pid, ..) in self.open.values() {
                members[pid] += 1;
            }
            for (pid, &m) in members.iter().enumerate() {
                let (src, dst) = (pid / n, pid % n);
                if src == dst {
                    continue;
                }
                let hops = self.path(src, dst);
                let planes = self.nic_up.len() / n;
                let live = hops.as_ref().is_some_and(|h| {
                    h.iter().all(|&(a, b, p)| {
                        self.hub_up[p] && self.nic_up[a * planes + p] && self.nic_up[b * planes + p]
                    })
                });
                self.paths[pid] = hops.map(|h| h.iter().map(|&(_, _, p)| p).collect());
                if live != self.live[pid] && m > 0 {
                    if live {
                        let window = t - self.stall_since[pid];
                        self.stats.resumed_windows += 1;
                        self.stats.interruption.record_n(window, m);
                        self.stats
                            .dropped_per_stall
                            .record(self.dropped_in_window[pid]);
                    } else {
                        self.stall_since[pid] = t;
                        self.dropped_in_window[pid] = 0;
                        self.stats.stall_windows += 1;
                        self.stats.stalled_per_failover.record(m);
                    }
                }
                self.live[pid] = live;
            }
            let planes = self.hub_up.len();
            let nc = self.rates.len();
            let mut crossings = vec![0u64; planes * nc];
            for &(pid, class, ..) in self.open.values() {
                if self.live[pid] {
                    for &p in self.paths[pid].as_ref().unwrap() {
                        crossings[p * nc + class] += 1;
                    }
                }
            }
            for p in 0..planes {
                self.lambda[p] = water_level(
                    self.cap,
                    &crossings[p * nc..(p + 1) * nc],
                    &self.rates,
                    &self.order,
                );
            }
            for (pid, (was_live, path, b)) in before.iter().enumerate() {
                if members[pid] > 0
                    && *was_live
                    && self.live[pid]
                    && *path == self.paths[pid]
                    && b.is_some_and(|b| Some(b) != self.bottleneck(pid))
                {
                    self.bottleneck_moves += 1;
                }
            }
        }

        fn step(&mut self, t: u64, kind: Transition) {
            self.advance(t);
            match kind {
                Transition::Open {
                    host,
                    local,
                    dst,
                    class,
                    holding_ns,
                } => {
                    let offered = u128::from(self.rates[class as usize]) * u128::from(holding_ns);
                    let pid = host.idx() * self.n + dst.idx();
                    self.stats.opened += 1;
                    self.stats.transitions += 1;
                    self.stats.offered_unit += offered;
                    if self.live[pid] {
                        self.stats.active += 1;
                        self.open
                            .insert((host.0, local), (pid, class as usize, 0, 0));
                    } else {
                        self.stats.dropped_arrivals += 1;
                        self.stats.dropped_unit += offered;
                        self.dropped_in_window[pid] += 1;
                        self.dropped.insert((host.0, local));
                    }
                }
                Transition::Close { host, local } => {
                    self.stats.transitions += 1;
                    if !self.dropped.remove(&(host.0, local)) {
                        let (pid, _, good, short) = self.open.remove(&(host.0, local)).unwrap();
                        self.stalled_closes += u64::from(!self.live[pid]);
                        self.stats.closed += 1;
                        self.stats.active -= 1;
                        self.stats.delivered_unit += good;
                        self.stats.shortfall_unit += short;
                        self.stats
                            .goodput_bytes
                            .record(u64::try_from(good / UNIT_PER_BYTE).unwrap());
                        self.closes.push((good, short));
                    }
                }
                Transition::Nic { node, net, up } => {
                    self.stats.nic_transitions += 1;
                    self.nic_up[node.idx() * self.hub_up.len() + net.idx()] = up;
                }
                Transition::RouteSet { host, dst, route } => {
                    self.stats.route_transitions += 1;
                    self.routes[host.idx() * self.n + dst.idx()] = Some(route);
                }
                Transition::RouteDel { host, dst } => {
                    self.stats.route_transitions += 1;
                    self.routes[host.idx() * self.n + dst.idx()] = None;
                }
                Transition::Reroute { .. } => self.stats.reroute_notifications += 1,
            }
            self.refresh(t);
        }

        fn hub(&mut self, t: u64, net: NetId, up: bool) {
            self.advance(t);
            if self.hub_up[net.idx()] != up {
                self.hub_up[net.idx()] = up;
                self.stats.hub_transitions += 1;
            }
            self.refresh(t);
        }
    }

    /// One drawn schedule: the engine, fed the records and the hub
    /// schedule, against the oracle stepped through the same merged
    /// timeline (hub toggles first at an equal instant, as the engine
    /// applies them). Returns the oracle for the coverage counts.
    fn differential(seed: u64) -> Oracle {
        use drs_obs::rng::Rng;
        const PLANES: u8 = 3;
        let mut rng = Rng::seed_from_u64(seed);
        let n = 5;
        let classes: Vec<ClassSpec> = (0..rng.gen_range(2..4usize))
            .map(|_| ClassSpec {
                rate_bps: 8 * rng.gen_range(100..1_500),
            })
            .collect();
        let mut e = FluidEngine::new(&spec(classes), n, PLANES, 4, 8 * 2_500, default_routes(n));
        let mut oracle = Oracle::new(&e);
        let host = |rng: &mut Rng| NodeId(rng.gen_range(0..n as u32));
        let net = |rng: &mut Rng| NetId(rng.gen_range(0..PLANES));
        let other = |rng: &mut Rng, not: &[NodeId]| loop {
            let h = NodeId(rng.gen_range(0..n as u32));
            if !not.contains(&h) {
                return h;
            }
        };
        let horizon = 1_000_000;
        let mut hubs = HubSchedule::new();
        let mut toggles = Vec::new();
        for _ in 0..6 {
            let toggle = HubToggle {
                at: SimTime(rng.gen_range(0..horizon)),
                net: net(&mut rng),
                up: rng.gen_bool(0.5),
            };
            hubs.insert(toggle);
            toggles.push(toggle);
        }
        toggles.sort_by_key(|t| t.at);
        // (at, kind); opens carry a placeholder local id, assigned below
        // in time order so each host's ids are dense.
        let mut events: Vec<(u64, Transition)> = Vec::new();
        for _ in 0..60 {
            let (src, at) = (host(&mut rng), rng.gen_range(0..horizon));
            let dst = other(&mut rng, &[src]);
            let class = rng.gen_range(0..e.n_classes as u8);
            events.push((at, open(src.0, 0, dst.0, class, rng.gen_range(1..300_000))));
        }
        for _ in 0..24 {
            let at = rng.gen_range(0..horizon);
            let src = host(&mut rng);
            let dst = other(&mut rng, &[src]);
            let kind = match rng.gen_range(0..10u32) {
                0 => Transition::RouteDel { host: src, dst },
                1..=4 => Transition::RouteSet {
                    host: src,
                    dst,
                    route: Route::Direct(net(&mut rng)),
                },
                _ => Transition::RouteSet {
                    host: src,
                    dst,
                    route: Route::Via {
                        gateway: other(&mut rng, &[src, dst]),
                        net: net(&mut rng),
                    },
                },
            };
            events.push((at, kind));
        }
        for _ in 0..10 {
            let at = rng.gen_range(0..horizon);
            let (node, net, up) = (host(&mut rng), net(&mut rng), rng.gen_bool(0.5));
            events.push((at, Transition::Nic { node, net, up }));
            events.push((
                at + 1,
                Transition::Reroute {
                    host: node,
                    dst: node,
                },
            ));
        }
        events.sort_by_key(|&(at, _)| at);
        let mut next_local = vec![0u64; n];
        let mut closes = Vec::new();
        for (at, kind) in &mut events {
            if let Transition::Open {
                host,
                local,
                holding_ns,
                ..
            } = kind
            {
                *local = next_local[host.idx()];
                next_local[host.idx()] += 1;
                let close = Transition::Close {
                    host: *host,
                    local: *local,
                };
                closes.push((*at + *holding_ns, close));
            }
        }
        events.extend(closes);
        events.sort_by_key(|&(at, _)| at);
        let end = events.last().expect("drawn").0 + 1;

        let mut toggles = toggles.into_iter().peekable();
        for (seq, &(at, kind)) in events.iter().enumerate() {
            while let Some(t) = toggles.next_if(|t| t.at.0 <= at) {
                oracle.hub(t.at.0, t.net, t.up);
            }
            oracle.step(at, kind);
            e.apply(&rec(at, seq as u64, kind), &hubs);
        }
        for t in toggles {
            oracle.hub(t.at.0, t.net, t.up);
        }
        oracle.advance(end);
        e.settle(SimTime(end), &hubs);

        assert_eq!(e.closes, oracle.closes, "seed {seed}: per-session ledgers");
        assert_eq!(e.stats, oracle.stats, "seed {seed}: statistics");
        assert_eq!(e.stats.active, 0, "seed {seed}: every session closed");
        assert!(e.conservation().holds(), "seed {seed}");
        oracle
    }

    #[test]
    fn per_pair_integrals_equal_a_per_session_brute_force() {
        let (mut stalled_closes, mut moves, mut resumes, mut congested) = (0, 0, 0, 0);
        for seed in 0..64 {
            let o = differential(seed);
            stalled_closes += o.stalled_closes;
            moves += o.bottleneck_moves;
            resumes += o.stats.resumed_windows;
            congested += u64::from(o.stats.shortfall_unit > 0);
        }
        // The drawn schedules reach every edge the integrals regroup.
        assert!(stalled_closes > 0, "closes inside a stall window");
        assert!(moves > 0, "a two-plane pair's bottleneck moved");
        assert!(resumes > 0, "stalled pairs resumed");
        assert!(congested > 32, "most schedules congest a plane");
    }
}
