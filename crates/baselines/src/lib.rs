//! Reactive baselines for the proactive-vs-reactive comparison.
//!
//! The paper positions DRS against "traditional routing systems" — RIP,
//! OSPF and friends — whose *"general design goal is based on reactively
//! rerouting when a specified timeout period has been reached."* This
//! crate provides three such comparators, all running on the same
//! [`drs_sim`] substrate and the same dual-network clusters as DRS:
//!
//! * [`StaticRouting`] — no daemon at all: routes stay on the primary
//!   network forever. The floor of the comparison.
//! * [`OspfDaemon`] — an OSPF-style link-state daemon: hello-based
//!   neighbour tracking (dead interval 4× the hello interval, per RFC
//!   2328) with flooded link-state advertisements. Heals in roughly one
//!   dead interval.
//! * [`RipDaemon`] — a RIP-style distance-vector daemon: periodic
//!   full-table advertisements (30 s in RFC 1058), route expiry after a
//!   silence timeout (180 s). Failures heal only after the timeout plus
//!   up to one advertisement interval.
//! * [`ReactiveDaemon`] — a best-effort reactive failover daemon that
//!   only acts when the transport reports retransmission timeouts: it
//!   then probes both networks and re-routes to whichever answers,
//!   falling back to broadcast gateway discovery. This is DRS's repair
//!   machinery *without* the proactive monitoring — the ablation that
//!   isolates the value of continuous probing.
//!
//! [`compare`] runs identical fault/traffic scenarios over every protocol
//! and reports the application-visible difference.

pub mod compare;
pub mod ospf;
pub mod reactive;
pub mod rip;
pub mod static_route;

pub use compare::{
    drs_trace_event, run_protocol, run_scenario, run_shootout, shootout_record,
    standard_shootout_scenarios, NamedScenario, ProtocolConfigs, ProtocolLabel,
    ProtocolObservation, ScenarioResult, ScenarioSpec, ShootoutRow,
};
pub use ospf::{OspfConfig, OspfDaemon, OspfMsg};
pub use reactive::{ReactiveConfig, ReactiveDaemon, ReactiveMsg};
pub use rip::{RipConfig, RipDaemon, RipMsg};
pub use static_route::StaticRouting;
