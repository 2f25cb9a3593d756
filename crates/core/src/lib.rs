//! The **Dynamic Routing System (DRS)**: the paper's proactive
//! fault-tolerant routing protocol for redundant-network server clusters
//! — the paper's two planes, or `K ≥ 2` in general (the backend reports
//! the plane count through [`DrsIo::planes`]).
//!
//! Every host runs one [`DrsDaemon`]. The daemon executes the two-phase
//! run process the paper describes:
//!
//! 1. **Monitor** ([`monitor`]): continuously probe every configured peer
//!    on *every* network plane with ICMP echo requests. A link
//!    `(peer, net)` is declared down after a configurable number of
//!    consecutive unanswered probes, and declared up again the moment a
//!    probe succeeds.
//! 2. **Repair** ([`daemon`]): when the link carrying the current route to
//!    a peer fails, immediately re-route — to the peer's NIC on the next
//!    healthy plane if one is up, and otherwise by broadcasting
//!    a route request so that any host with working links to both ends
//!    can offer itself as a one-hop gateway ([`messages`]).
//!
//! Because monitoring is continuous, failures are detected and repaired
//! in roughly one probe cycle — typically before the application's TCP
//! stand-in fires its first retransmission, which is the paper's headline
//! behaviour.
//!
//! The daemon is a pure state machine: every handler takes
//! `&mut impl `[`DrsIo`], the transport/timer boundary defined in
//! [`io`]. The same daemon bytes therefore run on the `drs_sim`
//! packet-level DES kernel (which implements [`DrsIo`] for its `Ctx`),
//! on real UDP sockets (`drs_io::live`), and against recorded traces
//! (`drs_io::replay`).
//!
//! # Quick start
//!
//! ```
//! use drs_core::{DrsConfig, DrsDaemon};
//! use drs_sim::{ClusterSpec, NetId, NodeId, SimDuration, SimTime, World};
//! use drs_sim::fault::{FaultPlan, SimComponent};
//!
//! // An 8-host cluster running DRS with default (1 s cycle) probing.
//! let spec = ClusterSpec::new(8).seed(42);
//! let cfg = DrsConfig::default();
//! let mut world = World::new(spec, |id| DrsDaemon::new(id, spec.n, cfg));
//!
//! // Kill the primary hub one second in.
//! world.schedule_faults(FaultPlan::new().fail_at(
//!     SimTime(1_000_000_000),
//!     SimComponent::Hub(NetId::A),
//! ));
//!
//! // Application traffic sent *after* the failure is still delivered:
//! // DRS has already moved every route to the redundant network.
//! let flow = world.send_app(SimTime(8_000_000_000), NodeId(0), NodeId(5), 512);
//! world.run_for(SimDuration::from_secs(20));
//! assert_eq!(world.app_stats().delivered, 1);
//! let _ = flow;
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod daemon;
pub mod frame;
pub mod ids;
pub mod io;
pub mod journal;
pub mod messages;
pub mod metrics;
pub mod monitor;
pub mod routes;
pub mod stats;
pub mod time;

pub use config::{DrsConfig, GatewayPolicy};
pub use daemon::DrsDaemon;
pub use frame::{Destination, Frame, FrameKind};
pub use ids::{NetId, NodeId};
pub use io::DrsIo;
pub use journal::{DaemonInput, DaemonJournal, JournalRecord};
pub use messages::DrsMsg;
pub use metrics::{DrsEvent, DrsEventKind, DrsMetrics};
pub use monitor::{LinkState, PeerTable};
pub use routes::{Route, RouteTable};
pub use stats::ProbeObs;
pub use time::{SimDuration, SimTime};
