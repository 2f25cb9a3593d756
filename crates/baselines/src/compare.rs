//! The proactive-vs-reactive comparison harness.
//!
//! Runs the *same* cluster, fault and traffic scenario over any protocol
//! and reports what the application saw: delivery ratio, retransmissions,
//! latency and — the paper's key claim — the length of the
//! application-visible outage after a failure.
//!
//! The scenario shape: let the protocol converge, inject a set of
//! component failures at `t₀`, then send a steady stream of probe
//! messages between a measurement pair and watch when service becomes
//! *promptly* delivered again (a delivery is prompt when it completes
//! well under the transport's first retransmission timeout — i.e. the
//! application never noticed).

use drs_core::ids::FlowId;
use drs_core::{DrsConfig, DrsDaemon, DrsEventKind, ProbeObs};
use drs_harness::{
    Experiment, ExperimentRecord, RunMode, TraceEvent, TraceEventKind, TrialRecord, TrialTrace,
};
use drs_obs::Histogram;
use drs_sim::app::Workload;
use drs_sim::fault::{FaultPlan, SimComponent};
use drs_sim::scenario::ClusterSpec;
use drs_sim::world::{FlowOutcome, Protocol, World};
use drs_sim::{NodeId, SimDuration, SimTime};

use crate::ospf::{OspfConfig, OspfDaemon};
use crate::reactive::{ReactiveConfig, ReactiveDaemon};
use crate::rip::{RipConfig, RipDaemon};
use crate::static_route::StaticRouting;

/// Which protocol produced a result row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolLabel {
    /// The Dynamic Routing System (proactive).
    Drs,
    /// RIP-style distance vector.
    Rip,
    /// OSPF-style link state.
    Ospf,
    /// Reactive failover (repair-on-RTO).
    Reactive,
    /// Static routes, no daemon.
    Static,
}

impl ProtocolLabel {
    /// Every protocol, in the order the shootout tables print them.
    pub const ALL: [ProtocolLabel; 5] = [
        ProtocolLabel::Drs,
        ProtocolLabel::Reactive,
        ProtocolLabel::Ospf,
        ProtocolLabel::Rip,
        ProtocolLabel::Static,
    ];

    /// Stable short key used in trial ids and JSON artifacts.
    #[must_use]
    pub fn key(&self) -> &'static str {
        match self {
            ProtocolLabel::Drs => "drs",
            ProtocolLabel::Rip => "rip",
            ProtocolLabel::Ospf => "ospf",
            ProtocolLabel::Reactive => "reactive",
            ProtocolLabel::Static => "static",
        }
    }
}

impl std::fmt::Display for ProtocolLabel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolLabel::Drs => write!(f, "DRS (proactive)"),
            ProtocolLabel::Rip => write!(f, "RIP-like (reactive)"),
            ProtocolLabel::Ospf => write!(f, "OSPF-like (reactive)"),
            ProtocolLabel::Reactive => write!(f, "repair-on-RTO"),
            ProtocolLabel::Static => write!(f, "static routes"),
        }
    }
}

/// A comparison scenario.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Cluster description.
    pub cluster: ClusterSpec,
    /// Convergence time granted before the fault.
    pub warmup: SimDuration,
    /// Components failed simultaneously at the end of warmup.
    pub faults: Vec<SimComponent>,
    /// Measurement pair (messages flow `src → dst`).
    pub src: NodeId,
    /// Destination of the measurement stream.
    pub dst: NodeId,
    /// Spacing of the measurement stream.
    pub interval: SimDuration,
    /// Number of measurement messages after the fault.
    pub count: usize,
    /// Payload size of each message.
    pub payload: u32,
    /// A delivery faster than this is "prompt": the application never
    /// noticed anything. Must be below the transport's first RTO.
    pub prompt_threshold: SimDuration,
}

impl ScenarioSpec {
    /// A standard scenario: `n`-host cluster, given failures, a 4-per-
    /// second measurement stream of 40 messages between hosts 0 and 1.
    #[must_use]
    pub fn standard(n: usize, seed: u64, faults: Vec<SimComponent>) -> Self {
        ScenarioSpec {
            cluster: ClusterSpec::new(n).seed(seed),
            warmup: SimDuration::from_secs(15),
            faults,
            src: NodeId(0),
            dst: NodeId(1),
            interval: SimDuration::from_millis(250),
            count: 40,
            payload: 256,
            prompt_threshold: SimDuration::from_millis(500),
        }
    }
}

/// What the application experienced in one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Protocol under test.
    pub label: ProtocolLabel,
    /// Messages sent after the fault.
    pub sent: u64,
    /// Messages delivered end-to-end.
    pub delivered: u64,
    /// Transport retransmissions over the whole run.
    pub retransmits: u64,
    /// Messages abandoned.
    pub gave_up: u64,
    /// Worst delivered latency.
    pub max_latency: Option<SimDuration>,
    /// The full distribution of delivered end-to-end latencies (log₂
    /// buckets) behind `max_latency` — empty when nothing was delivered,
    /// in which case its quantiles report `None`.
    pub latency: Histogram,
    /// Application-visible outage: time from the fault until deliveries
    /// become (and remain) prompt. `None` when service never stabilized
    /// within the measurement window.
    pub outage: Option<SimDuration>,
}

impl ScenarioResult {
    /// Delivered fraction of the measurement stream.
    #[must_use]
    pub fn delivery_ratio(&self) -> f64 {
        if self.sent == 0 {
            1.0
        } else {
            self.delivered as f64 / self.sent as f64
        }
    }
}

/// A finished scenario run before the world is torn down: the result row,
/// the flow-level event trace (still unsealed — more producers may append
/// before it is sorted exactly once), and the world itself so
/// protocol-specific observers (the DRS daemon event log, the probe-path
/// histograms) can be harvested.
struct ScenarioRun<P: Protocol> {
    result: ScenarioResult,
    trace: TrialTrace,
    world: World<P>,
    t0: SimTime,
}

/// Runs one scenario under one protocol, keeping the world alive.
fn run_scenario_inner<P: Protocol>(
    label: ProtocolLabel,
    spec: &ScenarioSpec,
    factory: impl FnMut(NodeId) -> P,
) -> ScenarioRun<P> {
    let mut world = World::new(spec.cluster, factory);
    world.run_for(spec.warmup);
    let t0 = world.now();

    let mut trace = TrialTrace::new();
    let mut plan = FaultPlan::new();
    for &c in &spec.faults {
        plan = plan.fail_at(t0, c);
        trace.record(t0.0, TraceEventKind::FaultInjected, format!("{c:?}"));
    }
    world.schedule_faults(plan);

    // The measurement stream starts one interval after the fault.
    let wl = Workload::periodic_pair(
        spec.src,
        spec.dst,
        t0 + spec.interval,
        spec.interval,
        spec.count,
        spec.payload,
    );
    let flows: Vec<FlowId> = world.schedule_workload(&wl);
    let send_times: Vec<SimTime> = wl.messages().iter().map(|m| m.at).collect();

    // Run until every flow has resolved (worst case: the last message
    // exhausts its full retry budget). A fixed horizon on purpose, not
    // `run_until_settled`: the callers harvest probe histograms and the
    // daemon event logs from the returned world, so what the cluster
    // does after the last flow resolves is committed bytes, not idle
    // time.
    let horizon = spec.interval.saturating_mul(spec.count as u64 + 1)
        + spec.cluster.transport.max_flow_lifetime()
        + SimDuration::from_secs(1);
    world.run_for(horizon);

    let stats = world.app_stats();
    let outcomes: Vec<Option<FlowOutcome>> = flows.iter().map(|&f| world.flow_outcome(f)).collect();

    // Outage: completion time of the last non-prompt message (prompt =
    // delivered under the threshold). Zero if everything was prompt.
    let mut outage_end: Option<SimTime> = None;
    let mut stabilized = true;
    for (i, outcome) in outcomes.iter().enumerate() {
        match outcome {
            Some(FlowOutcome::Delivered(rtt)) if *rtt < spec.prompt_threshold => {
                trace.record(
                    (send_times[i] + *rtt).0,
                    TraceEventKind::FlowDelivered,
                    format!("msg {i} rtt {rtt}"),
                );
            }
            Some(FlowOutcome::Delivered(rtt)) => {
                outage_end = Some(send_times[i] + *rtt);
                trace.record(
                    (send_times[i] + *rtt).0,
                    TraceEventKind::FlowDelivered,
                    format!("msg {i} rtt {rtt} (late)"),
                );
            }
            Some(FlowOutcome::GaveUp) | None => {
                stabilized = false;
                trace.record(
                    send_times[i].0,
                    TraceEventKind::FlowGaveUp,
                    format!("msg {i}"),
                );
            }
        }
    }
    let outage = if !stabilized {
        None
    } else {
        Some(outage_end.map_or(SimDuration::ZERO, |end| end.since(t0)))
    };

    let result = ScenarioResult {
        label,
        sent: stats.sent,
        delivered: stats.delivered,
        retransmits: stats.retransmits,
        gave_up: stats.gave_up,
        max_latency: stats.latency.max().map(SimDuration),
        latency: stats.latency.clone(),
        outage,
    };
    ScenarioRun {
        result,
        trace,
        world,
        t0,
    }
}

/// Runs one scenario under one protocol.
///
/// The factory builds the per-host daemon; everything else — cluster,
/// faults, measurement stream — comes from the spec, so different
/// protocols see byte-identical conditions.
pub fn run_scenario<P: Protocol>(
    label: ProtocolLabel,
    spec: &ScenarioSpec,
    factory: impl FnMut(NodeId) -> P,
) -> ScenarioResult {
    run_scenario_inner(label, spec, factory).result
}

/// Per-protocol daemon configurations for a dispatched scenario run —
/// one value, five protocols, so a shootout grid carries its tuning as
/// data instead of five hand-written closures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtocolConfigs {
    /// DRS daemon configuration.
    pub drs: DrsConfig,
    /// Repair-on-RTO daemon configuration.
    pub reactive: ReactiveConfig,
    /// OSPF-style daemon configuration.
    pub ospf: OspfConfig,
    /// RIP-style daemon configuration.
    pub rip: RipConfig,
}

impl ProtocolConfigs {
    /// The configuration the committed benchmarks run under: DRS probing
    /// at 500 ms sweeps / 100 ms timeout, OSPF and RIP at RFC timers
    /// compressed 10:1 so a single scenario stays short.
    #[must_use]
    pub fn bench_defaults() -> Self {
        ProtocolConfigs {
            drs: DrsConfig::default()
                .probe_timeout(SimDuration::from_millis(100))
                .probe_interval(SimDuration::from_millis(500)),
            reactive: ReactiveConfig::default(),
            ospf: OspfConfig::default().scaled_down(10),
            rip: RipConfig::default().scaled_down(10),
        }
    }
}

/// Everything one protocol run hands to the reporting layer.
#[derive(Debug, Clone)]
pub struct ProtocolObservation {
    /// What the application saw.
    pub result: ScenarioResult,
    /// The sealed (time-sorted) structured event trace: fault injections
    /// and flow outcomes for every protocol, and for DRS also the source
    /// daemon's internal transitions (link state, route changes,
    /// discovery) translated into the harness vocabulary.
    pub events: Vec<TraceEvent>,
    /// The cluster-merged probe-path record: probe gaps, RTTs, detection
    /// and reroute latencies, and originated probe bytes. The world
    /// charges probe bytes for any echo-using protocol; the latency
    /// histograms are populated only by daemons that record into them
    /// (today: DRS), so for the others they are empty and their quantiles
    /// report `None`.
    pub probe_obs: ProbeObs,
}

impl<P: Protocol> ScenarioRun<P> {
    /// Harvests the probe-path record and seals the trace. Event
    /// producers append in whatever order is natural to them; the trace
    /// is sorted exactly once, here.
    fn observation(self) -> ProtocolObservation {
        ProtocolObservation {
            result: self.result,
            events: self.trace.seal(),
            probe_obs: self.world.merged_probe_obs(),
        }
    }
}

/// Runs one scenario under the labelled protocol, dispatching to the
/// right daemon from `cfgs` — the data-driven form of [`run_scenario`],
/// and the full form the shootout and the observability benchmark run.
#[must_use]
pub fn run_protocol(
    label: ProtocolLabel,
    spec: &ScenarioSpec,
    cfgs: &ProtocolConfigs,
) -> ProtocolObservation {
    let n = spec.cluster.n;
    match label {
        ProtocolLabel::Drs => {
            let mut run = run_scenario_inner(label, spec, |id| DrsDaemon::new(id, n, cfgs.drs));
            let daemon_log = &run.world.protocol(spec.src).metrics.events;
            run.trace.extend(
                daemon_log
                    .iter()
                    .filter(|e| e.at >= run.t0)
                    .map(|e| drs_trace_event(e.at, &e.kind)),
            );
            run.observation()
        }
        ProtocolLabel::Reactive => {
            run_scenario_inner(label, spec, |id| ReactiveDaemon::new(id, cfgs.reactive))
                .observation()
        }
        ProtocolLabel::Ospf => {
            run_scenario_inner(label, spec, |id| OspfDaemon::new(id, cfgs.ospf)).observation()
        }
        ProtocolLabel::Rip => {
            run_scenario_inner(label, spec, |id| RipDaemon::new(id, cfgs.rip)).observation()
        }
        ProtocolLabel::Static => run_scenario_inner(label, spec, |_| StaticRouting).observation(),
    }
}

/// Translates one DRS daemon event into the harness trace vocabulary.
#[must_use]
pub fn drs_trace_event(at: SimTime, kind: &DrsEventKind) -> TraceEvent {
    match kind {
        DrsEventKind::LinkDown { peer, net } => TraceEvent::new(
            at.0,
            TraceEventKind::LinkDown,
            format!("peer {peer} net {net}"),
        ),
        DrsEventKind::LinkUp { peer, net } => TraceEvent::new(
            at.0,
            TraceEventKind::LinkUp,
            format!("peer {peer} net {net}"),
        ),
        DrsEventKind::RouteChanged { dst, route } => TraceEvent::new(
            at.0,
            TraceEventKind::RouteChanged,
            format!("{dst} -> {route:?}"),
        ),
        DrsEventKind::DiscoveryStarted { target } => TraceEvent::new(
            at.0,
            TraceEventKind::DiscoveryStarted,
            format!("target {target}"),
        ),
        DrsEventKind::DiscoveryFailed { target } => TraceEvent::new(
            at.0,
            TraceEventKind::DiscoveryFailed,
            format!("target {target}"),
        ),
    }
}

/// A named scenario of a shootout grid.
#[derive(Debug, Clone)]
pub struct NamedScenario {
    /// Stable scenario key used in trial ids.
    pub name: &'static str,
    /// The scenario itself. Its cluster seed is a placeholder — the
    /// shootout overrides it with the trial's derived seed.
    pub spec: ScenarioSpec,
}

/// The three standard failure scenarios of the proactive-vs-reactive
/// study: primary hub loss, destination NIC loss, and crossed NIC
/// failures that force gateway relaying.
#[must_use]
pub fn standard_shootout_scenarios(n: usize) -> Vec<NamedScenario> {
    use drs_sim::NetId;
    vec![
        NamedScenario {
            name: "hub_a",
            spec: ScenarioSpec::standard(n, 0, vec![SimComponent::Hub(NetId::A)]),
        },
        NamedScenario {
            name: "dst_nic",
            spec: ScenarioSpec::standard(n, 0, vec![SimComponent::Nic(NodeId(1), NetId::A)]),
        },
        NamedScenario {
            name: "crossed_nics",
            spec: ScenarioSpec::standard(
                n,
                0,
                vec![
                    SimComponent::Nic(NodeId(0), NetId::B),
                    SimComponent::Nic(NodeId(1), NetId::A),
                ],
            ),
        },
    ]
}

/// One row of a completed shootout: a scenario × protocol trial.
#[derive(Debug, Clone)]
pub struct ShootoutRow {
    /// Scenario key ([`NamedScenario::name`]).
    pub scenario: &'static str,
    /// Protocol under test.
    pub label: ProtocolLabel,
    /// The derived per-trial seed the cluster ran under.
    pub seed: u64,
    /// What the application saw.
    pub result: ScenarioResult,
    /// The trial's structured event trace.
    pub events: Vec<TraceEvent>,
    /// The trial's cluster-merged probe-path observability record.
    pub probe_obs: ProbeObs,
}

/// Runs the full scenario × protocol grid as one
/// [`drs_harness::Experiment`]: each trial gets its own derived cluster
/// seed, trials fan out across worker threads under
/// [`RunMode::Parallel`], and rows come back in grid order (scenario-
/// major) identically in both modes.
#[must_use]
pub fn run_shootout(
    master_seed: u64,
    scenarios: &[NamedScenario],
    labels: &[ProtocolLabel],
    cfgs: &ProtocolConfigs,
    mode: RunMode,
) -> Vec<ShootoutRow> {
    let grid: Vec<(usize, usize)> = (0..scenarios.len())
        .flat_map(|s| (0..labels.len()).map(move |l| (s, l)))
        .collect();
    let exp = Experiment::with_trials("protocol-shootout", master_seed, grid);
    exp.run(mode, |ctx, &(s, l)| {
        let scenario = &scenarios[s];
        let label = labels[l];
        let mut spec = scenario.spec.clone();
        spec.cluster = spec.cluster.seed(ctx.seed);
        let o = run_protocol(label, &spec, cfgs);
        ShootoutRow {
            scenario: scenario.name,
            label,
            seed: ctx.seed,
            result: o.result,
            events: o.events,
            probe_obs: o.probe_obs,
        }
    })
}

/// Folds shootout rows into the artifact form: one
/// [`TrialRecord`] per row, id `scenario/protocol`, with the application
/// counters as metrics and the event trace attached.
#[must_use]
pub fn shootout_record(master_seed: u64, rows: &[ShootoutRow]) -> ExperimentRecord {
    let trials = rows
        .iter()
        .map(|row| {
            let r = &row.result;
            TrialRecord::new(format!("{}/{}", row.scenario, row.label.key()), row.seed)
                .metric("sent", r.sent)
                .metric("delivered", r.delivered)
                .metric("retransmits", r.retransmits)
                .metric("gave_up", r.gave_up)
                .metric("delivery_ratio", r.delivery_ratio())
                .metric("max_latency_ns", r.max_latency.map(|d| d.0))
                .metric("outage_ns", r.outage.map(|d| d.0))
                .with_events(row.events.clone())
        })
        .collect();
    ExperimentRecord {
        name: "protocol-shootout".to_string(),
        master_seed,
        trials,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactive::{ReactiveConfig, ReactiveDaemon};
    use crate::rip::{RipConfig, RipDaemon};
    use crate::static_route::StaticRouting;
    use drs_core::{DrsConfig, DrsDaemon};
    use drs_sim::NetId;

    fn hub_a_failure(n: usize, seed: u64) -> ScenarioSpec {
        ScenarioSpec::standard(n, seed, vec![SimComponent::Hub(NetId::A)])
    }

    fn fast_drs() -> DrsConfig {
        DrsConfig::default()
            .probe_timeout(SimDuration::from_millis(50))
            .probe_interval(SimDuration::from_millis(200))
    }

    #[test]
    fn drs_outage_is_sub_rto() {
        let spec = hub_a_failure(6, 1);
        let n = spec.cluster.n;
        let r = run_scenario(ProtocolLabel::Drs, &spec, |id| {
            DrsDaemon::new(id, n, fast_drs())
        });
        assert_eq!(r.delivery_ratio(), 1.0, "{r:?}");
        let outage = r.outage.expect("service stabilized");
        // Worst-case detection is 450 ms with the fast config; the first
        // measurement message lands 250 ms after the fault, so it may see
        // one retransmit, but the outage must stay within ~2 s.
        assert!(outage < SimDuration::from_secs(2), "outage {outage}");
    }

    #[test]
    fn static_routing_never_recovers() {
        let spec = hub_a_failure(6, 2);
        let r = run_scenario(ProtocolLabel::Static, &spec, |_| StaticRouting);
        assert_eq!(r.delivered, 0);
        assert_eq!(r.outage, None, "service never stabilized");
    }

    #[test]
    fn reactive_recovers_with_visible_rtos() {
        let spec = hub_a_failure(6, 3);
        let r = run_scenario(ProtocolLabel::Reactive, &spec, |id| {
            ReactiveDaemon::new(id, ReactiveConfig::default())
        });
        assert!(r.delivery_ratio() > 0.9, "{r:?}");
        assert!(r.retransmits >= 1, "reactivity implies visible RTOs");
        let outage = r.outage.expect("service stabilized");
        assert!(
            outage >= SimDuration::from_secs(1),
            "at least one RTO: {outage}"
        );
    }

    #[test]
    fn rip_outage_is_the_timeout_period() {
        let spec = hub_a_failure(4, 4);
        // Compressed RIP (1 s updates / 6 s timeout) to keep the test fast.
        let cfg = RipConfig::default().scaled_down(30);
        let r = run_scenario(ProtocolLabel::Rip, &spec, |id| RipDaemon::new(id, cfg));
        assert!(r.delivery_ratio() > 0.5, "{r:?}");
        let outage = r.outage.expect("service stabilized");
        assert!(
            outage >= SimDuration::from_secs(5),
            "RIP must wait out its timeout: {outage}"
        );
    }

    #[test]
    fn dispatch_matches_hand_built_factories() {
        let spec = hub_a_failure(5, 9);
        let n = spec.cluster.n;
        let cfgs = ProtocolConfigs {
            drs: fast_drs(),
            ..ProtocolConfigs::bench_defaults()
        };
        let via_dispatch = run_protocol(ProtocolLabel::Drs, &spec, &cfgs).result;
        let via_factory = run_scenario(ProtocolLabel::Drs, &spec, |id| {
            DrsDaemon::new(id, n, fast_drs())
        });
        assert_eq!(via_dispatch.sent, via_factory.sent);
        assert_eq!(via_dispatch.delivered, via_factory.delivered);
        assert_eq!(via_dispatch.outage, via_factory.outage);
    }

    #[test]
    fn traced_drs_run_tells_the_failover_story() {
        let spec = hub_a_failure(5, 11);
        let cfgs = ProtocolConfigs {
            drs: fast_drs(),
            ..ProtocolConfigs::bench_defaults()
        };
        let ProtocolObservation {
            result: r, events, ..
        } = run_protocol(ProtocolLabel::Drs, &spec, &cfgs);
        assert_eq!(r.delivery_ratio(), 1.0, "{r:?}");
        let kind_count =
            |k: drs_harness::TraceEventKind| events.iter().filter(|e| e.kind == k).count();
        assert_eq!(kind_count(drs_harness::TraceEventKind::FaultInjected), 1);
        assert!(
            kind_count(drs_harness::TraceEventKind::RouteChanged) >= 1,
            "DRS must reroute after the hub failure"
        );
        assert_eq!(
            kind_count(drs_harness::TraceEventKind::FlowDelivered) as u64,
            r.delivered
        );
        assert!(events.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
    }

    #[test]
    fn observed_run_harvests_probe_path_and_latency() {
        let spec = hub_a_failure(5, 13);
        let cfgs = ProtocolConfigs {
            drs: fast_drs(),
            ..ProtocolConfigs::bench_defaults()
        };
        let drs = run_protocol(ProtocolLabel::Drs, &spec, &cfgs);
        let obs = &drs.probe_obs;
        assert!(obs.probe_bytes > 0, "DRS must have originated probes");
        assert!(obs.probe_rtt.count() > 0);
        assert!(
            obs.failover_detect.count() >= 1,
            "the hub failure must be detected"
        );
        assert_eq!(
            drs.result.latency.count(),
            drs.result.delivered,
            "one latency sample per delivered message"
        );
        assert_eq!(
            drs.result.latency.max().map(SimDuration),
            drs.result.max_latency
        );
        assert!(drs.events.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));

        // Static routing probes nothing and (here) delivers nothing, so
        // every channel is empty and quantiles honestly report None.
        let st = run_protocol(ProtocolLabel::Static, &spec, &cfgs);
        assert_eq!(st.probe_obs.probe_bytes, 0);
        assert_eq!(st.probe_obs.probe_rtt.count(), 0);
        assert_eq!(st.result.latency.count(), 0);
        assert_eq!(st.result.latency.quantile_upper_bound(0.5), None);
    }

    #[test]
    fn shootout_is_mode_independent_and_grid_ordered() {
        let scenarios = vec![NamedScenario {
            name: "hub_a",
            spec: hub_a_failure(4, 0),
        }];
        let labels = [ProtocolLabel::Drs, ProtocolLabel::Static];
        let cfgs = ProtocolConfigs {
            drs: fast_drs(),
            ..ProtocolConfigs::bench_defaults()
        };
        let serial = run_shootout(3, &scenarios, &labels, &cfgs, RunMode::Serial);
        let parallel = run_shootout(3, &scenarios, &labels, &cfgs, RunMode::Parallel);
        assert_eq!(serial.len(), 2);
        assert_eq!(serial[0].label, ProtocolLabel::Drs);
        assert_eq!(serial[1].label, ProtocolLabel::Static);
        assert_eq!(
            shootout_record(3, &serial).trials,
            shootout_record(3, &parallel).trials
        );
        // Different trials run under different derived seeds.
        assert_ne!(serial[0].seed, serial[1].seed);
    }

    #[test]
    fn ordering_matches_the_paper() {
        // DRS < reactive < RIP in application-visible outage.
        let n = 5;
        let drs = run_scenario(ProtocolLabel::Drs, &hub_a_failure(n, 5), |id| {
            DrsDaemon::new(id, n, fast_drs())
        });
        let reactive = run_scenario(ProtocolLabel::Reactive, &hub_a_failure(n, 5), |id| {
            ReactiveDaemon::new(id, ReactiveConfig::default())
        });
        let rip_cfg = RipConfig::default().scaled_down(30);
        let rip = run_scenario(ProtocolLabel::Rip, &hub_a_failure(n, 5), |id| {
            RipDaemon::new(id, rip_cfg)
        });
        let (d, re, ri) = (
            drs.outage.unwrap(),
            reactive.outage.unwrap(),
            rip.outage.unwrap(),
        );
        assert!(d < re, "DRS {d} !< reactive {re}");
        assert!(re < ri, "reactive {re} !< RIP {ri}");
    }
}
