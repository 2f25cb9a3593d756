//! Deterministic discrete-event simulator of a redundant-network server
//! cluster.
//!
//! This crate is the substrate the DRS reproduction runs on. It models the
//! hardware and OS environment the paper's protocol was deployed in,
//! generalized from the paper's two networks to `K ≥ 2` planes
//! ([`scenario::ClusterSpec::planes`]; the default `K = 2` reproduces the
//! paper exactly):
//!
//! * `N` server hosts, each with **one NIC per plane** attached to `K`
//!   **separate networks** (shared-medium 100 Mb/s hubs with serialization
//!   delay, half-duplex contention and propagation delay — [`medium`]),
//! * a minimal in-host network stack: L2 frames, kernel-style **ICMP echo**
//!   auto-reply, a per-host **route table** (direct or via-gateway routes)
//!   with TTL-guarded forwarding ([`host`], [`drs_core::routes`]),
//! * application **workloads** carried by a simple **reliable transport**
//!   with retransmission timeouts and exponential backoff, standing in
//!   for TCP so that experiments can observe whether applications notice
//!   failures ([`app`]), and their delivery statistics ([`stats`]),
//! * **fault injection** for NICs and hubs, scheduled or random ([`fault`]),
//! * **explicit topology graphs** beyond the K-plane cluster: a
//!   [`topology::TopologySpec`] maps any `drs-topology` graph (fat-tree,
//!   BCube, DCell, …) onto the same kernel — one segment per link, NIC
//!   membership masks, and switch/link failure components ([`topology`]).
//!
//! Routing daemons (DRS itself, and the reactive baselines) plug in through
//! the [`world::Protocol`] trait: one protocol instance runs on every host,
//! receives timer/ICMP/control-message callbacks, and manipulates its
//! host's route table through [`world::Ctx`] — exactly the interface a real
//! routing demon has to a kernel.
//!
//! Everything is deterministic: virtual time is integer nanoseconds, event
//! ties break by sequence number, and all randomness flows from one seed.
//!
//! # Example: an echo probe on a healthy cluster
//!
//! ```
//! use drs_sim::world::{Ctx, Protocol};
//! use drs_sim::{ClusterSpec, NetId, NodeId, SimDuration, World};
//!
//! #[derive(Default)]
//! struct Pinger {
//!     replies: u32,
//! }
//!
//! impl Protocol for Pinger {
//!     type Msg = ();
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
//!         if ctx.self_id() == NodeId(0) {
//!             ctx.send_echo(NetId::A, NodeId(1), 7, 0);
//!         }
//!     }
//!     fn on_echo_reply(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: NetId, _: u32, _: u32) {
//!         self.replies += 1;
//!     }
//! }
//!
//! let spec = ClusterSpec::new(4).seed(1);
//! let mut world = World::new(spec, |_| Pinger::default());
//! world.run_for(SimDuration::from_millis(10));
//! assert_eq!(world.protocol(NodeId(0)).replies, 1);
//! ```

#![forbid(unsafe_code)]

pub mod app;
pub mod drs;
pub mod fault;
pub mod host;
pub mod kernel_obs;
pub mod medium;
/// Reference `BinaryHeap` event queue, kept only as a bench/equivalence
/// oracle for the timer wheel. Enable with `--features bench-ref`.
#[cfg(feature = "bench-ref")]
pub mod naive_heap;
pub mod scenario;
pub mod stats;
pub mod topology;
pub mod wheel;
pub mod workload;
pub mod world;

pub use drs_core::{Destination, Frame, FrameKind, NetId, NodeId, Route, SimDuration, SimTime};
pub use fault::{FaultEvent, FaultPlan, SimComponent};
pub use scenario::ClusterSpec;
pub use topology::TopologySpec;
pub use workload::{
    ArrivalProcess, ClassSpec, FluidEngine, HoldingDist, WorkloadSpec, WorkloadStats,
};
pub use world::{
    Ctx, EventRecord, EventTag, Protocol, ShardStats, ShardedWorld, TransportEvent, World,
};
