//! The fluid-flow session layer: million-user workloads at
//! O(active transitions).
//!
//! The packet kernel bills every byte: an N-session bulk workload costs
//! O(packets), which caps survivability studies at a few thousand
//! concurrent flows. This layer models *sessions* instead — a session is
//! a fluid rate riding the route tables the daemons maintain — and only
//! **control transitions** touch the event queue:
//!
//! * session **open** / **close** (arrival-process driven, one timer
//!   each),
//! * **route** installs/removals and **NIC**/**hub** toggles (the run
//!   loop logs each scheduled fault or repair once as it passes it),
//!   which re-shape the per-plane rate ledgers,
//! * the daemon's **reroute-complete** notification
//!   ([`drs_core::io::DrsIo::notify_reroute`]), which cross-checks the
//!   stall/resume accounting 1:1 against `reroute_complete` samples.
//!
//! Between transitions nothing happens: per-(plane, class) cumulative
//! rate integrals advance analytically, so a million concurrent sessions
//! cost exactly as many kernel events as their open/close transitions —
//! the identity `workload events == transitions` that
//! `drs-bench repro` checks as a pure integer comparison.
//!
//! The split of responsibilities:
//!
//! * [`WorkloadCore`] lives inside the world's [`Core`](crate::world):
//!   it draws arrivals/holding times from per-host [`dist::Stream`]s,
//!   dispatches `SessionOpen`/`SessionClose` events, and logs every
//!   [`TransitionRecord`] into a fixed-capacity batch;
//! * [`FluidEngine`], owned by the `WorkloadCore`, consumes the
//!   dispatch-ordered log a full batch at a time (and the rest at the
//!   end of every `run_until`) and maintains the fluid accounting:
//!   max-min fair shares per plane, per-session goodput/shortfall
//!   integrals (exact, in byte·ns/s units), and the failover SLO
//!   histograms.
//!
//! The engine only reads the log, so on a host with a spare CPU it
//! runs beside the kernel: for the length of a `run_until` it moves to
//! one worker thread (`BatchWorker`), which applies each full batch in
//! order while the kernel fills the next into the other of two buffers.
//! The buffers trade hands through one slot behind a lock (`Slot`),
//! which the `WorkloadCore` keeps for its lifetime. The run hands over
//! its last, partial batch, joins the worker and takes the engine back,
//! so every reader sees the same engine as a run that applied each
//! batch inline.
//!
//! Determinism: every draw comes from [`dist`]'s own SplitMix64 streams
//! and software `ln`/`exp` — no external RNG crate, no libm — so the
//! committed `BENCH_workload.json` is byte-identical on every machine.

pub mod dist;
mod engine;
#[cfg(test)]
mod pipeline_tests;

pub use dist::{HoldingDist, Stream};
pub use engine::{ConservationReport, FluidEngine, WorkloadStats, UNIT_PER_BYTE};

use std::mem;
use std::sync::{Arc, Condvar, Mutex};

use drs_core::{NetId, NodeId, Route, SimTime};

/// One session traffic class: a nominal sustained transfer rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassSpec {
    /// Nominal per-session rate, bits per second. Must be at least 8
    /// (one byte per second) — the ledger accounts in bytes.
    pub rate_bps: u64,
}

/// How sessions arrive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// Open loop: every host originates a Poisson stream of sessions
    /// with the given mean inter-arrival gap.
    Open {
        /// Mean gap between consecutive arrivals on one host, ns.
        mean_gap_ns: u64,
    },
    /// Closed loop: a fixed population of `per_host` users per host;
    /// each user runs one session, thinks for an exponential pause,
    /// then opens the next.
    Closed {
        /// Concurrent users homed on each host.
        per_host: u32,
        /// Mean think time between a close and the next open, ns.
        think_mean_ns: u64,
    },
}

/// Full description of a fluid session workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// The arrival process.
    pub arrivals: ArrivalProcess,
    /// Session holding-time distribution.
    pub holding: HoldingDist,
    /// Traffic classes; each arrival picks one uniformly.
    pub classes: Vec<ClassSpec>,
    /// No arrival fires at or after this instant (sessions opened
    /// before it run to their natural close).
    pub horizon: SimTime,
}

impl WorkloadSpec {
    /// Expected number of concurrently active sessions — a sizing
    /// heuristic (Little's law for the open loop, the population for
    /// the closed loop), never used in accounting.
    #[must_use]
    pub fn expected_active(&self, n: usize) -> u64 {
        let hold = u128::from(self.holding.mean_ns_estimate().max(1));
        match self.arrivals {
            ArrivalProcess::Open { mean_gap_ns } => {
                let a = n as u128 * hold / u128::from(mean_gap_ns.max(1));
                u64::try_from(a).unwrap_or(u64::MAX)
            }
            ArrivalProcess::Closed { per_host, .. } => n as u64 * u64::from(per_host),
        }
    }
}

/// One recorded workload transition, stamped with its instant. The log
/// holds records in the order the run produced them, which is dispatch
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransitionRecord {
    /// Virtual instant of the transition.
    pub at: SimTime,
    /// What changed.
    pub kind: Transition,
}

// One per logged transition: a million-session run drains millions.
const _: () = assert!(std::mem::size_of::<TransitionRecord>() <= 40);

/// Records the log holds before it is drained into the engine: 640 KiB
/// allocated once (and a second buffer for the first pipelined run), so
/// the log neither grows with the length of a `run_until` nor
/// reallocates while it runs, and the engine still applies transitions
/// in batches rather than one per dispatch.
const LOG_BATCH: usize = 1 << 14;

/// The transition vocabulary the fluid engine consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// A session opened on `host`.
    Open {
        /// Originating host.
        host: NodeId,
        /// Host-local session id (dense counter).
        local: u64,
        /// Destination host.
        dst: NodeId,
        /// Class index into [`WorkloadSpec::classes`].
        class: u8,
        /// Sampled holding time, ns.
        holding_ns: u64,
    },
    /// The session `(host, local)` closed.
    Close {
        /// Originating host.
        host: NodeId,
        /// Host-local session id.
        local: u64,
    },
    /// A hub changed state. The run loop logs it when it passes the
    /// toggle, before every event at the toggle's instant.
    Hub {
        /// The plane whose hub toggled.
        net: NetId,
        /// New state.
        up: bool,
    },
    /// A NIC changed state. Logged as [`Self::Hub`] is.
    Nic {
        /// The host whose NIC toggled.
        node: NodeId,
        /// The plane it is attached to.
        net: NetId,
        /// New state.
        up: bool,
    },
    /// `host` installed (or replaced) its route to `dst`.
    RouteSet {
        /// The host whose table changed.
        host: NodeId,
        /// The destination the route serves.
        dst: NodeId,
        /// The installed route.
        route: Route,
    },
    /// `host` removed its route to `dst`.
    RouteDel {
        /// The host whose table changed.
        host: NodeId,
        /// The destination whose route was removed.
        dst: NodeId,
    },
    /// `host`'s daemon reported a completed repair toward `dst`
    /// (exactly one per `reroute_complete` sample).
    Reroute {
        /// The repairing host.
        host: NodeId,
        /// The repaired destination.
        dst: NodeId,
    },
}

/// Kernel-side session generator, owned by the world's
/// [`Core`](crate::world).
///
/// Owns the per-host arrival streams, the transition log and the
/// engine that consumes it. Each host draws from its own stream, so a
/// host's draws depend only on its own sessions.
pub struct WorkloadCore {
    pub(crate) spec: WorkloadSpec,
    streams: Vec<Stream>,
    next_local: Vec<u64>,
    /// Transitions recorded since the last drain, in dispatch order;
    /// never more than [`LOG_BATCH`].
    pub(crate) log: Vec<TransitionRecord>,
    /// The accounting engine the log drains into; `None` while a
    /// [`BatchWorker`] holds it, and full batches go to the slot then.
    engine: Option<FluidEngine>,
    /// Where the kernel and a worker trade the two batch buffers. Between
    /// runs it keeps the second buffer, allocated by the first
    /// [`Self::detach_engine`].
    slot: Arc<(Mutex<Slot>, Condvar)>,
    /// `SessionOpen`/`SessionClose` dispatches executed — the left-hand
    /// side of the `events == transitions` identity.
    pub(crate) events: u64,
}

/// The batch buffer the kernel is not filling. The kernel waits for it
/// to be empty and trades its full log for it; the worker waits for it
/// to be full, applies it under the lock and clears it.
#[derive(Default)]
struct Slot {
    /// While `full`, a batch to apply; else the spare buffer, empty.
    buf: Vec<TransitionRecord>,
    /// `buf` holds a batch the worker has not applied.
    full: bool,
    /// `buf`'s batch is the run's last: the worker returns after it.
    last: bool,
}

/// The kernel's `expect` when the worker is gone mid-run: the worker's
/// own panic is what the run re-raises once it joins it.
const WORKER_GONE: &str = "the fluid batch worker stopped";

/// The engine of a pipelined run and its way to the slot
/// ([`WorkloadCore::detach_engine`]); [`Self::run`] is the worker.
pub(crate) struct BatchWorker {
    engine: FluidEngine,
    slot: Arc<(Mutex<Slot>, Condvar)>,
}

impl BatchWorker {
    /// Applies every batch the kernel hands over, in order, up to the
    /// last; then hands the engine back. A panic while it applies one
    /// poisons the slot's lock, which is how the kernel learns of it.
    pub(crate) fn run(self) -> FluidEngine {
        let BatchWorker { mut engine, slot } = self;
        let (lock, turn) = &*slot;
        let mut slot = lock.lock().expect(SLOT_SOUND);
        loop {
            slot = turn.wait_while(slot, |s| !s.full).expect(SLOT_SOUND);
            // A kernel waiting for this buffer now waits for the lock,
            // which a panic below poisons, instead of for a wake-up.
            turn.notify_one();
            for rec in &slot.buf {
                engine.apply(rec);
            }
            slot.buf.clear();
            slot.full = false;
            if slot.last {
                return engine;
            }
        }
    }
}

/// The `expect` on the slot's lock where only a worker's panic could
/// have poisoned it and none has: the kernel never panics holding it.
const SLOT_SOUND: &str = "no panic while holding the batch slot";

impl WorkloadCore {
    /// A generator for an `n`-host cluster under `seed` (the scenario
    /// seed; streams are domain-separated from the kernel's RNG) that
    /// feeds `engine`.
    #[must_use]
    pub(crate) fn new(spec: WorkloadSpec, n: usize, seed: u64, engine: FluidEngine) -> Self {
        assert!(!spec.classes.is_empty(), "at least one traffic class");
        assert!(
            spec.classes.iter().all(|c| c.rate_bps >= 8),
            "class rates must be at least one byte per second"
        );
        WorkloadCore {
            spec,
            streams: (0..n).map(|i| Stream::for_host(seed, i as u32)).collect(),
            next_local: vec![0; n],
            log: Vec::with_capacity(LOG_BATCH),
            engine: Some(engine),
            slot: Arc::default(),
            events: 0,
        }
    }

    /// Draws the initial arrival schedule host by host and hands each
    /// `(host, instant)` to `schedule`. Open loop seeds one Poisson
    /// arrival per host; closed loop seeds the whole user population at
    /// exponential think-time offsets.
    pub(crate) fn initial_opens(&mut self, mut schedule: impl FnMut(NodeId, SimTime)) {
        let horizon = self.spec.horizon;
        for (h, s) in self.streams.iter_mut().enumerate() {
            let host = NodeId(h as u32);
            match self.spec.arrivals {
                ArrivalProcess::Open { mean_gap_ns } => {
                    let at = SimTime(s.exp_ns(mean_gap_ns));
                    if at < horizon {
                        schedule(host, at);
                    }
                }
                ArrivalProcess::Closed {
                    per_host,
                    think_mean_ns,
                } => {
                    for _ in 0..per_host {
                        let at = SimTime(s.exp_ns(think_mean_ns));
                        if at < horizon {
                            schedule(host, at);
                        }
                    }
                }
            }
        }
    }

    /// Executes one `SessionOpen` dispatch: draws destination, class and
    /// holding time, logs the [`Transition::Open`], and returns
    /// `(local id, holding ns, next open-loop gap ns)` for the kernel to
    /// schedule. Draw order (dst, class, holding, gap) is part of the
    /// determinism contract.
    pub(crate) fn open(&mut self, host: NodeId, n: usize, at: SimTime) -> (u64, u64, Option<u64>) {
        self.events += 1;
        let nclasses = self.spec.classes.len();
        let s = &mut self.streams[host.idx()];
        let raw = s.pick(n as u64 - 1) as u32;
        let dst = NodeId(if raw >= host.0 { raw + 1 } else { raw });
        let class = if nclasses > 1 {
            s.pick(nclasses as u64) as u8
        } else {
            0
        };
        let holding_ns = self.spec.holding.sample(s);
        let gap = match self.spec.arrivals {
            ArrivalProcess::Open { mean_gap_ns } => Some(s.exp_ns(mean_gap_ns)),
            ArrivalProcess::Closed { .. } => None,
        };
        let local = self.next_local[host.idx()];
        self.next_local[host.idx()] += 1;
        self.record(
            at,
            Transition::Open {
                host,
                local,
                dst,
                class,
                holding_ns,
            },
        );
        (local, holding_ns, gap)
    }

    /// Executes one `SessionClose` dispatch: logs the close and returns
    /// the closed-loop think gap (ns) after which this host's user opens
    /// its next session, if any.
    pub(crate) fn close(&mut self, host: NodeId, local: u64, at: SimTime) -> Option<u64> {
        self.events += 1;
        self.record(at, Transition::Close { host, local });
        match self.spec.arrivals {
            ArrivalProcess::Closed { think_mean_ns, .. } => {
                Some(self.streams[host.idx()].exp_ns(think_mean_ns))
            }
            ArrivalProcess::Open { .. } => None,
        }
    }

    /// Appends a transition to the log (the kernel's route, NIC, hub
    /// and reroute observations come straight here); a full batch goes
    /// to the engine at once: applied here, or handed to the worker if
    /// one holds the engine.
    pub(crate) fn record(&mut self, at: SimTime, kind: Transition) {
        self.log.push(TransitionRecord { at, kind });
        if self.log.len() == LOG_BATCH {
            if self.engine.is_some() {
                self.drain();
            } else {
                self.hand_over(false).expect(WORKER_GONE);
            }
        }
    }

    /// Trades the log for the slot's buffer once the worker has applied
    /// the batch that buffer held, and wakes the worker; `None` if the
    /// worker panicked.
    fn hand_over(&mut self, last: bool) -> Option<()> {
        let (lock, turn) = &*self.slot;
        let mut slot = turn.wait_while(lock.lock().ok()?, |s| s.full).ok()?;
        mem::swap(&mut self.log, &mut slot.buf);
        slot.full = true;
        slot.last = last;
        turn.notify_one();
        Some(())
    }

    /// Feeds the logged transitions to the engine in dispatch order and
    /// clears the log, which keeps its storage.
    ///
    /// # Panics
    /// Panics while a worker holds the engine.
    fn drain(&mut self) {
        let engine = self.engine.as_mut().expect(ENGINE_HOME);
        for rec in &self.log {
            engine.apply(rec);
        }
        self.log.clear();
    }

    /// The accounting engine.
    ///
    /// # Panics
    /// Panics while a worker holds the engine.
    pub(crate) fn engine(&self) -> &FluidEngine {
        self.engine.as_ref().expect(ENGINE_HOME)
    }

    /// Feeds the rest of the log to the engine, then settles its
    /// ledgers at `until`.
    ///
    /// # Panics
    /// Panics while a worker holds the engine.
    pub(crate) fn settle(&mut self, until: SimTime) {
        self.drain();
        self.engine.as_mut().expect(ENGINE_HOME).settle(until);
    }

    /// Moves the engine to a [`BatchWorker`]: from here until
    /// [`Self::reattach_engine`], full batches go to it through the slot.
    /// The log is empty (every `run_until` ends with it drained), and so
    /// is the slot's buffer, which the first call allocates.
    ///
    /// # Panics
    /// Panics if a worker already holds the engine.
    pub(crate) fn detach_engine(&mut self) -> BatchWorker {
        let engine = self.engine.take().expect(ENGINE_HOME);
        debug_assert!(self.log.is_empty(), "detached with a batch pending");
        let (lock, _) = &*self.slot;
        lock.lock().expect(SLOT_SOUND).buf.reserve_exact(LOG_BATCH);
        BatchWorker {
            engine,
            slot: Arc::clone(&self.slot),
        }
    }

    /// Ends a pipelined stretch: hands over the partial batch as the
    /// last, so the worker returns once it has applied it, and takes the
    /// engine back from `join`; the second buffer stays in the slot. A
    /// kernel that panicked mid-run must still call this: the last batch
    /// is what lets the worker finish.
    ///
    /// # Panics
    /// Panics with whatever `join` panics with.
    pub(crate) fn reattach_engine(&mut self, join: impl FnOnce() -> FluidEngine) {
        // A dead worker poisoned the slot; its panic comes out of `join`.
        let _ = self.hand_over(true);
        self.engine = Some(join());
    }
}

/// The `expect` of every engine access outside a pipelined run.
const ENGINE_HOME: &str = "the engine is back from its worker between runs";

#[cfg(test)]
mod tests {
    use super::*;
    use drs_core::SimDuration;

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            arrivals: ArrivalProcess::Open {
                mean_gap_ns: 1_000_000,
            },
            holding: HoldingDist::Exponential { mean_ns: 5_000_000 },
            classes: vec![ClassSpec {
                rate_bps: 1_000_000,
            }],
            horizon: SimTime::ZERO + SimDuration::from_secs(1),
        }
    }

    #[test]
    fn expected_active_follows_littles_law() {
        let s = spec();
        assert_eq!(s.expected_active(10), 50, "10 hosts x 5ms/1ms");
        let closed = WorkloadSpec {
            arrivals: ArrivalProcess::Closed {
                per_host: 1000,
                think_mean_ns: 1,
            },
            ..spec()
        };
        assert_eq!(closed.expected_active(8), 8000);
    }

    /// A generator over `n` hosts whose engine knows no routes.
    fn generator(spec: WorkloadSpec, n: usize, seed: u64) -> WorkloadCore {
        let engine = FluidEngine::new(&spec, n, 2, 1_000_000_000, vec![None; n * n], vec![true; 2]);
        WorkloadCore::new(spec, n, seed, engine)
    }

    #[test]
    fn initial_opens_respect_horizon_in_host_order() {
        let mut all = Vec::new();
        generator(spec(), 6, 42).initial_opens(|host, at| all.push((host, at)));
        assert!(all.len() <= 6, "open loop: one arrival per host");
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "host order");
        assert!(all.iter().all(|&(_, at)| at < spec().horizon));
    }

    #[test]
    fn open_never_picks_self_and_draws_are_reproducible() {
        let mut a = generator(spec(), 4, 7);
        let mut b = generator(spec(), 4, 7);
        for i in 0..200u64 {
            let (la, _, _) = a.open(NodeId(2), 4, SimTime(i));
            let (lb, _, _) = b.open(NodeId(2), 4, SimTime(i));
            assert_eq!(la, lb);
            assert_eq!(la, i, "dense per-host local ids");
        }
        assert_eq!(a.log, b.log);
        for rec in &a.log {
            if let Transition::Open { host, dst, .. } = rec.kind {
                assert_ne!(host, dst, "no self-sessions");
            }
        }
        assert_eq!(a.events, 200);
    }

    /// The kernel hands over one batch, fills the next and finds the slot
    /// still full: it waits for a worker that starts only 100 ms later,
    /// and the worker, once it takes the first batch, wakes it. Fails
    /// after a minute instead of hanging.
    #[test]
    fn a_kernel_waiting_on_a_full_slot_is_woken_by_a_late_worker() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut wl = generator(spec(), 4, 7);
            let worker = wl.detach_engine();
            let wl = std::thread::scope(|s| {
                let kernel = s.spawn(move || {
                    for i in 0..2 * LOG_BATCH as u64 {
                        wl.open(NodeId(0), 4, SimTime(i));
                    }
                    wl
                });
                std::thread::sleep(std::time::Duration::from_millis(100));
                let worker = s.spawn(move || worker.run());
                let mut wl = kernel.join().expect("the kernel ran");
                wl.reattach_engine(|| worker.join().expect("the worker ran"));
                wl
            });
            let _ = tx.send(wl.engine().stats().transitions);
        });
        let applied = rx.recv_timeout(std::time::Duration::from_secs(60));
        assert_eq!(
            applied,
            Ok(2 * LOG_BATCH as u64),
            "both batches within a minute"
        );
    }

    #[test]
    fn closed_loop_close_draws_think_gap() {
        let cl = WorkloadSpec {
            arrivals: ArrivalProcess::Closed {
                per_host: 2,
                think_mean_ns: 1_000,
            },
            ..spec()
        };
        let mut w = generator(cl, 3, 1);
        assert!(w.close(NodeId(0), 0, SimTime(5)).is_some());
        let mut open = generator(spec(), 3, 1);
        assert!(open.close(NodeId(0), 0, SimTime(5)).is_none());
    }
}
