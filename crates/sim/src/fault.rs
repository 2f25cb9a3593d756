//! Fault injection: scheduled and random component failures.
//!
//! The survivability model's components map one-to-one onto simulator
//! state: a **hub** fault takes a whole shared medium down; a **NIC**
//! fault makes one host deaf and mute on one network plane. A `K`-plane
//! cluster of `N` hosts has `K·N + K` failable components (`K` hubs plus
//! one NIC per host per plane); the paper's `2N + 2` is the `K = 2` case.
//! Faults flip state silently — no protocol is notified, exactly as in
//! reality, where a failed hub does not announce itself and must be
//! *detected* by probing.

use drs_core::{NetId, NodeId, SimDuration, SimTime};
use drs_obs::rng::Rng;

/// A failable hardware component of the simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimComponent {
    /// The shared hub/backplane of one network plane.
    Hub(NetId),
    /// One host's NIC on one network plane.
    Nic(NodeId, NetId),
}

/// Total failable components of an `n`-host, `planes`-plane cluster.
#[must_use]
pub fn component_count(n: usize, planes: u8) -> usize {
    (planes as usize) * n + planes as usize
}

/// A scheduled state change of one component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// When the change takes effect.
    pub at: SimTime,
    /// The affected component.
    pub component: SimComponent,
    /// `false` = fail, `true` = repair.
    pub up: bool,
}

/// An ordered schedule of fault events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan.
    #[must_use]
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedules a failure.
    #[must_use]
    pub fn fail_at(mut self, at: SimTime, component: SimComponent) -> Self {
        self.events.push(FaultEvent {
            at,
            component,
            up: false,
        });
        self
    }

    /// Schedules a repair.
    #[must_use]
    pub fn repair_at(mut self, at: SimTime, component: SimComponent) -> Self {
        self.events.push(FaultEvent {
            at,
            component,
            up: true,
        });
        self
    }

    /// Fails `f` distinct components (drawn uniformly, like the paper's
    /// survivability simulation) all at instant `at`.
    ///
    /// # Panics
    /// Panics if `f` exceeds the `planes·n + planes` available components.
    #[must_use]
    pub fn random_simultaneous(
        at: SimTime,
        n: usize,
        planes: u8,
        f: usize,
        rng: &mut Rng,
    ) -> (Self, Vec<SimComponent>) {
        let m = component_count(n, planes);
        assert!(f <= m, "cannot fail {f} of {m} components");
        let mut picked = vec![false; m];
        let mut components = Vec::with_capacity(f);
        let mut plan = FaultPlan::new();
        let mut left = f;
        while left > 0 {
            let idx = rng.gen_range(0..m);
            if picked[idx] {
                continue;
            }
            picked[idx] = true;
            let component = index_to_component(idx, n, planes);
            components.push(component);
            plan = plan.fail_at(at, component);
            left -= 1;
        }
        (plan, components)
    }

    /// A Poisson failure/repair process over `[0, horizon)`: failures
    /// arrive with mean inter-arrival `mtbf`, each choosing a uniformly
    /// random component, repaired after `mttr`.
    #[must_use]
    pub fn poisson_process(
        horizon: SimDuration,
        mtbf: SimDuration,
        mttr: SimDuration,
        n: usize,
        planes: u8,
        rng: &mut Rng,
    ) -> Self {
        assert!(mtbf > SimDuration::ZERO, "mtbf must be positive");
        let m = component_count(n, planes);
        let mut plan = FaultPlan::new();
        let mut t = SimTime::ZERO;
        loop {
            // Exponential inter-arrival via inverse CDF.
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let gap = SimDuration::from_secs_f64(-u.ln() * mtbf.as_secs_f64());
            t += gap;
            if t - SimTime::ZERO >= horizon {
                break;
            }
            let component = index_to_component(rng.gen_range(0..m), n, planes);
            plan = plan.fail_at(t, component).repair_at(t + mttr, component);
        }
        plan
    }

    /// Events sorted by time (stable for equal instants).
    #[must_use]
    pub fn into_sorted_events(mut self) -> Vec<FaultEvent> {
        self.events.sort_by_key(|e| e.at);
        self.events
    }

    /// Number of scheduled events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// One hub failure (`up == false`) or repair of a [`HubSchedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct HubToggle {
    pub(crate) at: SimTime,
    pub(crate) net: NetId,
    pub(crate) up: bool,
}

/// Hub liveness: every hub toggle scheduled so far, in one time-sorted
/// list that keeps scheduling order at equal instants.
///
/// This is the only place hub transitions are stored and the only place
/// the toggle rule is applied: a toggle at `t` takes effect before every
/// other event at `t` (it is never dispatched as an event and consumes no
/// sequence number), and between toggles the last one holds — before the
/// first, every hub is up. The world owns one; `component_is_up` asks it
/// about an instant ([`Self::is_up`]), the core's admission and arrival
/// check keep a cursor into it ([`Self::is_up_from`]), and the driver
/// loop and the fluid engine walk it with cursors ([`Self::due`]). Toggles join at any instant at or
/// after the present, so every toggle a cursor has passed stays where it
/// is.
#[derive(Debug)]
pub(crate) struct HubSchedule {
    toggles: Vec<HubToggle>,
}

impl HubSchedule {
    /// No toggle scheduled: every hub is up at every instant.
    pub(crate) const fn new() -> Self {
        HubSchedule {
            toggles: Vec::new(),
        }
    }

    /// Adds a toggle behind every one scheduled at or before its instant.
    pub(crate) fn insert(&mut self, toggle: HubToggle) {
        let i = self.toggles.partition_point(|t| t.at <= toggle.at);
        self.toggles.insert(i, toggle);
    }

    /// Whether the hub of `net` is up at `at`. A toggle *at* `at` has
    /// already taken effect.
    pub(crate) fn is_up(&self, net: NetId, at: SimTime) -> bool {
        self.up_after(self.toggles.partition_point(|t| t.at <= at), net)
    }

    /// [`Self::is_up`] for a reader whose instants never go back: moves
    /// its cursor `passed` over every toggle due by `at`, then reads the
    /// answer behind it, with no search. The per-frame checks use this.
    #[inline]
    pub(crate) fn is_up_from(&self, passed: &mut usize, net: NetId, at: SimTime) -> bool {
        while self.toggles.get(*passed).is_some_and(|t| t.at <= at) {
            *passed += 1;
        }
        self.up_after(*passed, net)
    }

    /// Whether the hub of `net` is up once the first `passed` toggles
    /// have taken effect: the last of them on `net` holds.
    #[inline]
    fn up_after(&self, passed: usize, net: NetId) -> bool {
        self.toggles[..passed]
            .iter()
            .rev()
            .find(|t| t.net == net)
            .is_none_or(|t| t.up)
    }

    /// The toggles due at or before `t` that a cursor which has passed
    /// the first `passed` has not reached yet, in schedule order.
    pub(crate) fn due(&self, passed: usize, t: SimTime) -> &[HubToggle] {
        let rest = &self.toggles[passed..];
        &rest[..rest.partition_point(|x| x.at <= t)]
    }

    /// The instant of toggle `i`; `SimTime(u64::MAX)` past the last.
    pub(crate) fn at(&self, i: usize) -> SimTime {
        self.toggles.get(i).map_or(SimTime(u64::MAX), |t| t.at)
    }
}

/// Maps a dense component index (the layout used by `drs-analytic`:
/// `0..planes` = hubs in plane order, then plane-0 NICs, plane-1 NICs, …)
/// to a simulator component.
///
/// # Panics
/// Panics if `idx ≥ planes·n + planes`; see [`try_index_to_component`] for
/// the non-panicking form.
#[must_use]
pub fn index_to_component(idx: usize, n: usize, planes: u8) -> SimComponent {
    match try_index_to_component(idx, n, planes) {
        Some(c) => c,
        None => panic!("component index {idx} out of range for n={n} planes={planes}"),
    }
}

/// Non-panicking form of [`index_to_component`]: `None` when `idx` is at
/// or beyond the `planes·n + planes` universe.
#[must_use]
pub fn try_index_to_component(idx: usize, n: usize, planes: u8) -> Option<SimComponent> {
    if idx >= component_count(n, planes) {
        return None;
    }
    let k = planes as usize;
    Some(if idx < k {
        SimComponent::Hub(NetId::from_idx(idx))
    } else {
        let rel = idx - k;
        SimComponent::Nic(NodeId((rel % n) as u32), NetId::from_idx(rel / n))
    })
}

/// Inverse of [`index_to_component`].
#[must_use]
pub fn component_to_index(c: SimComponent, n: usize, planes: u8) -> usize {
    let k = planes as usize;
    match c {
        SimComponent::Hub(net) => {
            assert!(net.idx() < k, "hub {net} out of range for planes={planes}");
            net.idx()
        }
        SimComponent::Nic(node, net) => {
            assert!((node.idx()) < n, "node {node} out of range for n={n}");
            assert!(net.idx() < k, "nic {net} out of range for planes={planes}");
            k + net.idx() * n + node.idx()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_component_roundtrip() {
        for planes in [2u8, 3, 4] {
            let n = 6;
            for idx in 0..component_count(n, planes) {
                assert_eq!(
                    component_to_index(index_to_component(idx, n, planes), n, planes),
                    idx
                );
            }
        }
    }

    #[test]
    fn layout_matches_analytic_convention() {
        let n = 5;
        assert_eq!(index_to_component(0, n, 2), SimComponent::Hub(NetId::A));
        assert_eq!(index_to_component(1, n, 2), SimComponent::Hub(NetId::B));
        assert_eq!(
            index_to_component(2, n, 2),
            SimComponent::Nic(NodeId(0), NetId::A)
        );
        assert_eq!(
            index_to_component(2 + n, n, 2),
            SimComponent::Nic(NodeId(0), NetId::B)
        );
    }

    #[test]
    fn three_plane_layout_stacks_hubs_then_planes() {
        let n = 4;
        assert_eq!(index_to_component(2, n, 3), SimComponent::Hub(NetId(2)));
        assert_eq!(
            index_to_component(3, n, 3),
            SimComponent::Nic(NodeId(0), NetId::A)
        );
        assert_eq!(
            index_to_component(3 + 2 * n, n, 3),
            SimComponent::Nic(NodeId(0), NetId(2))
        );
        assert_eq!(component_count(n, 3), 3 * n + 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_plane_component_rejected() {
        let _ = component_to_index(SimComponent::Hub(NetId(2)), 4, 2);
    }

    #[test]
    fn boundary_index_is_none_not_a_wrong_component() {
        // The first out-of-range index is exactly K·n + K; it must be
        // rejected, not wrapped into some in-range component.
        for planes in [2u8, 3, 4] {
            let n = 6;
            let m = component_count(n, planes);
            assert_eq!(
                try_index_to_component(m - 1, n, planes),
                Some(SimComponent::Nic(NodeId((n - 1) as u32), NetId(planes - 1)))
            );
            assert_eq!(try_index_to_component(m, n, planes), None);
            assert_eq!(try_index_to_component(m + 1, n, planes), None);
        }
    }

    #[test]
    #[should_panic(expected = "component index 14 out of range for n=6 planes=2")]
    fn boundary_index_panics_with_the_historical_message() {
        let _ = index_to_component(14, 6, 2);
    }

    #[test]
    fn random_simultaneous_draws_distinct() {
        let mut rng = Rng::seed_from_u64(1);
        let (plan, comps) = FaultPlan::random_simultaneous(SimTime(100), 8, 2, 5, &mut rng);
        assert_eq!(plan.len(), 5);
        assert_eq!(comps.len(), 5);
        let unique: std::collections::HashSet<_> = comps.iter().collect();
        assert_eq!(unique.len(), 5);
        for e in plan.into_sorted_events() {
            assert_eq!(e.at, SimTime(100));
            assert!(!e.up);
        }
    }

    #[test]
    fn poisson_pairs_failures_with_repairs() {
        let mut rng = Rng::seed_from_u64(2);
        let plan = FaultPlan::poisson_process(
            SimDuration::from_secs(1000),
            SimDuration::from_secs(50),
            SimDuration::from_secs(5),
            8,
            2,
            &mut rng,
        );
        assert!(plan.len() >= 2, "expected some failures");
        assert_eq!(plan.len() % 2, 0, "each failure has a repair");
        let events = plan.into_sorted_events();
        let fails = events.iter().filter(|e| !e.up).count();
        assert_eq!(fails * 2, events.len());
    }

    #[test]
    fn sorted_events_are_ordered() {
        let plan = FaultPlan::new()
            .fail_at(SimTime(500), SimComponent::Hub(NetId::A))
            .fail_at(SimTime(100), SimComponent::Hub(NetId::B))
            .repair_at(SimTime(300), SimComponent::Hub(NetId::B));
        let ev = plan.into_sorted_events();
        assert!(ev.windows(2).all(|w| w[0].at <= w[1].at));
    }

    fn toggle(at: u64, net: NetId, up: bool) -> HubToggle {
        HubToggle {
            at: SimTime(at),
            net,
            up,
        }
    }

    #[test]
    fn timeline_last_transition_wins_and_same_instant_applies() {
        let mut hubs = HubSchedule::new();
        hubs.insert(toggle(200, NetId::A, true));
        hubs.insert(toggle(100, NetId::A, false));
        assert!(hubs.is_up(NetId::A, SimTime(99)));
        assert!(!hubs.is_up(NetId::A, SimTime(100))); // same-instant: applied
        assert!(!hubs.is_up(NetId::A, SimTime(199)));
        assert!(hubs.is_up(NetId::A, SimTime(200)));
        assert!(hubs.is_up(NetId::B, SimTime(150))); // untouched plane
    }

    #[test]
    fn equal_instants_keep_scheduling_order_and_the_last_wins() {
        let mut hubs = HubSchedule::new();
        hubs.insert(toggle(50, NetId::A, false));
        hubs.insert(toggle(50, NetId::A, true));
        hubs.insert(toggle(50, NetId::B, true));
        hubs.insert(toggle(50, NetId::B, false));
        hubs.insert(toggle(10, NetId::B, false));
        assert!(hubs.is_up(NetId::A, SimTime(50)));
        assert!(!hubs.is_up(NetId::B, SimTime(50)));
        assert!(!hubs.is_up(NetId::B, SimTime(49)));
        // A forward-only reader's cursor gives the same answers.
        let mut passed = 0;
        for (at, a, b) in [
            (9, true, true),
            (10, true, false),
            (50, true, false),
            (60, true, false),
        ] {
            assert!(
                hubs.is_up_from(&mut passed, NetId::A, SimTime(at)) == a,
                "{at}"
            );
            assert!(
                hubs.is_up_from(&mut passed, NetId::B, SimTime(at)) == b,
                "{at}"
            );
        }
        assert_eq!(passed, 5);
        // A cursor meets them in that order, each exactly once.
        let first = hubs.due(0, SimTime(49));
        assert_eq!(first, [toggle(10, NetId::B, false)]);
        let rest = hubs.due(first.len(), SimTime(50));
        assert_eq!(
            rest,
            [
                toggle(50, NetId::A, false),
                toggle(50, NetId::A, true),
                toggle(50, NetId::B, true),
                toggle(50, NetId::B, false),
            ]
        );
        assert!(hubs.due(5, SimTime(u64::MAX)).is_empty());
        assert_eq!((hubs.at(4), hubs.at(5)), (SimTime(50), SimTime(u64::MAX)));
    }

    #[test]
    #[should_panic(expected = "cannot fail")]
    fn too_many_simultaneous_failures_panics() {
        let mut rng = Rng::seed_from_u64(3);
        let _ = FaultPlan::random_simultaneous(SimTime::ZERO, 2, 2, 7, &mut rng);
    }
}
