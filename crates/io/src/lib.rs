//! Non-DES backends for the DRS daemon.
//!
//! `drs_core` defines the [`drs_core::io::DrsIo`] boundary and the daemon
//! state machine; `drs_sim` implements the boundary on its deterministic
//! event kernel. This crate supplies the other two backends the boundary
//! was built for, proving the daemon bytes are genuinely I/O-free:
//!
//! * [`replay`] — drives a daemon from a recorded
//!   [`drs_core::journal::DaemonJournal`], with journaled timestamps as
//!   the clock and journaled draws as the randomness. A replayed daemon
//!   must reproduce the original run's metrics, event log and route
//!   table **byte-for-byte**; the golden tests in this crate assert it.
//! * [`live`] — runs daemons over real `std::net` UDP sockets on
//!   loopback, one socket per plane per node, with wall-clock timers and
//!   thread-per-node event loops. Plane failures are injected at the
//!   socket layer, so real failover latency can be measured and compared
//!   against the DES prediction (`drs-bench live`).
//! * [`wire`] — the tiny datagram codec the live backend speaks.
//!
//! No async runtime, no external networking crates: the live backend is
//! plain blocking sockets and threads, which keeps the crate buildable
//! everywhere the toolchain runs.

pub mod live;
pub mod replay;
pub mod wire;

pub use live::{LiveCluster, LiveClusterSpec, LiveOutcome, LiveReport};
pub use replay::{replay_journal, ReplayIo};
