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

/// Component liveness: every fault and repair scheduled so far, hubs
/// and NICs alike, in one time-sorted list that keeps scheduling order at
/// equal instants.
///
/// An entry at `t` takes effect before every event at `t` (it is never
/// dispatched as an event and consumes no sequence number), and between
/// entries the last one on a component holds. The world's core owns the
/// schedule and walks it with its one cursor, applying each entry once as
/// the run loop reaches it; [`Self::state_at`] answers for an arbitrary
/// instant, which `component_is_up` needs because an entry may join at
/// exactly `now()` between runs. Entries join at any instant at or after
/// the present, so every entry the cursor has passed stays where it is.
#[derive(Debug, Default, Clone)]
pub(crate) struct ComponentSchedule {
    entries: Vec<FaultEvent>,
}

impl ComponentSchedule {
    /// Adds an entry behind every one scheduled at or before its instant.
    pub(crate) fn insert(&mut self, entry: FaultEvent) {
        let i = self.entries.partition_point(|e| e.at <= entry.at);
        self.entries.insert(i, entry);
    }

    /// Whether `component` is up at `at` by the last entry on it at or
    /// before `at` (an entry *at* `at` has already taken effect); `None`
    /// when there is no such entry and the component keeps the state it
    /// was built with.
    pub(crate) fn state_at(&self, component: SimComponent, at: SimTime) -> Option<bool> {
        self.entries[..self.entries.partition_point(|e| e.at <= at)]
            .iter()
            .rev()
            .find(|e| e.component == component)
            .map(|e| e.up)
    }

    /// Entry `i` in schedule order, if there is one.
    pub(crate) fn get(&self, i: usize) -> Option<FaultEvent> {
        self.entries.get(i).copied()
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

    fn entry(at: u64, component: SimComponent, up: bool) -> FaultEvent {
        FaultEvent {
            at: SimTime(at),
            component,
            up,
        }
    }

    #[test]
    fn timeline_last_transition_wins_and_same_instant_applies() {
        let (a, b) = (SimComponent::Hub(NetId::A), SimComponent::Hub(NetId::B));
        let nic = SimComponent::Nic(NodeId(3), NetId::A);
        let mut schedule = ComponentSchedule::default();
        schedule.insert(entry(200, a, true));
        schedule.insert(entry(100, a, false));
        schedule.insert(entry(150, nic, false));
        assert_eq!(schedule.state_at(a, SimTime(99)), None);
        assert_eq!(schedule.state_at(a, SimTime(100)), Some(false)); // same-instant: applied
        assert_eq!(schedule.state_at(a, SimTime(199)), Some(false));
        assert_eq!(schedule.state_at(a, SimTime(200)), Some(true));
        assert_eq!(schedule.state_at(b, SimTime(150)), None); // untouched plane
        assert_eq!(schedule.state_at(nic, SimTime(149)), None);
        assert_eq!(schedule.state_at(nic, SimTime(150)), Some(false));
        // Another NIC on the same host or plane is another component.
        let other = SimComponent::Nic(NodeId(3), NetId::B);
        assert_eq!(schedule.state_at(other, SimTime(150)), None);
    }

    #[test]
    fn equal_instants_keep_scheduling_order_and_the_last_wins() {
        let (a, b) = (SimComponent::Hub(NetId::A), SimComponent::Hub(NetId::B));
        let nic = SimComponent::Nic(NodeId(0), NetId::B);
        let mut schedule = ComponentSchedule::default();
        schedule.insert(entry(50, a, false));
        schedule.insert(entry(50, nic, false));
        schedule.insert(entry(50, a, true));
        schedule.insert(entry(50, b, true));
        schedule.insert(entry(50, b, false));
        schedule.insert(entry(10, b, false));
        assert_eq!(schedule.state_at(a, SimTime(50)), Some(true));
        assert_eq!(schedule.state_at(b, SimTime(50)), Some(false));
        assert_eq!(schedule.state_at(b, SimTime(49)), Some(false));
        // Schedule order: time first, then the order they were added in.
        let order: Vec<_> = (0..7).map_while(|i| schedule.get(i)).collect();
        assert_eq!(
            order,
            [
                entry(10, b, false),
                entry(50, a, false),
                entry(50, nic, false),
                entry(50, a, true),
                entry(50, b, true),
                entry(50, b, false),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "cannot fail")]
    fn too_many_simultaneous_failures_panics() {
        let mut rng = Rng::seed_from_u64(3);
        let _ = FaultPlan::random_simultaneous(SimTime::ZERO, 2, 2, 7, &mut rng);
    }
}
