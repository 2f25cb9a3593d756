//! The pipelined run equals the inline one: `World::run_until_on` at 2
//! workers hands full batches to the engine's worker thread, at 1 applies
//! them on the kernel's thread, and both must leave the same engine
//! digest, statistics, conservation report and session event count,
//! whatever the host's CPU count. Every run goes through
//! [`within_a_minute`], so a hand-over that deadlocks fails its test
//! instead of hanging it.

use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use drs_core::config::DrsConfig;
use drs_core::daemon::DrsDaemon;
use drs_core::{NetId, NodeId, Route, SimDuration, SimTime};

use super::{
    ArrivalProcess, ClassSpec, ConservationReport, HoldingDist, WorkloadSpec, WorkloadStats,
    LOG_BATCH,
};
use crate::fault::{FaultPlan, SimComponent};
use crate::scenario::ClusterSpec;
use crate::world::{Ctx, Protocol, World};

// `drs-bench` shares its converged trial bases between threads by
// reference, so the engine's hand-over must keep a `World` `Sync`.
const _: () = {
    const fn sync<T: Sync>() {}
    sync::<World<DrsDaemon>>();
};

/// Everything a reader of a finished run sees of the fluid layer.
type Outcome = (u64, WorkloadStats, ConservationReport, u64);

fn outcome<P: Protocol>(w: &World<P>) -> Outcome {
    let engine = w.workload_engine().expect("workload enabled");
    (
        engine.digest(),
        engine.stats().clone(),
        engine.conservation(),
        w.workload_events(),
    )
}

const END: SimTime = SimTime(2_000_000_000);

/// The million cell shrunk to 8 hosts × `per_host` users: closed loop,
/// 250 ms think and 500 ms holding times (shorter than the cell's 60 s,
/// so each user cycles and the log fills several batches), under the
/// cell's 0.5 s outage of hub A when `outage` is set.
fn cell(per_host: u32, outage: bool) -> World<DrsDaemon> {
    let n = 8;
    let cfg = DrsConfig::default()
        .probe_timeout(SimDuration::from_millis(50))
        .probe_interval(SimDuration::from_millis(200));
    let mut w = World::new(ClusterSpec::new(n).seed(31), |id| {
        DrsDaemon::new(id, n, cfg)
    });
    if outage {
        w.schedule_faults(
            FaultPlan::new()
                .fail_at(SimTime(1_000_000_123), SimComponent::Hub(NetId::A))
                .repair_at(SimTime(1_500_000_123), SimComponent::Hub(NetId::A)),
        );
    }
    w.enable_workload(users(per_host));
    w
}

/// [`cell`]'s workload.
fn users(per_host: u32) -> WorkloadSpec {
    WorkloadSpec {
        arrivals: ArrivalProcess::Closed {
            per_host,
            think_mean_ns: 250_000_000,
        },
        holding: HoldingDist::Exponential {
            mean_ns: 500_000_000,
        },
        classes: vec![ClassSpec { rate_bps: 64_000 }],
        horizon: END,
    }
}

/// Runs `f` on a thread of its own and returns what it returned, or
/// the payload it panicked with; fails the test if it has not ended
/// within a minute (a kernel that never handed over its last batch, or
/// missed a worker's panic, would leave the run blocked).
fn within_a_minute<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> thread::Result<R> {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(panic::catch_unwind(AssertUnwindSafe(f)));
    });
    rx.recv_timeout(Duration::from_secs(60))
        .expect("the run ended within a minute")
}

/// [`within_a_minute`], re-raising a panic of `f` here.
fn guarded<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
    within_a_minute(f).unwrap_or_else(|payload| panic::resume_unwind(payload))
}

/// Runs `w` through every stop in `stops` on `workers`, guarded.
fn run(mut w: World<DrsDaemon>, workers: usize, stops: &[SimTime]) -> Outcome {
    let stops = stops.to_vec();
    guarded(move || {
        for stop in stops {
            w.run_until_on(workers, stop);
        }
        outcome(&w)
    })
}

#[test]
fn a_pipelined_workload_run_equals_the_inline_one() {
    let inline = run(cell(4_000, true), 1, &[END]);
    assert!(
        inline.1.transitions >= 4 * LOG_BATCH as u64,
        "{} transitions fill fewer than four batches",
        inline.1.transitions
    );
    assert!(inline.1.stall_windows > 0, "the outage stalled sessions");
    assert!(inline.2.holds(), "conservation: {:?}", inline.2);
    assert_eq!(run(cell(4_000, true), 2, &[END]), inline);
}

/// Uneven stops, so batches straddle `run_until` calls and some calls
/// fill none: each call hands its partial batch over and takes the
/// engine back before the next.
#[test]
fn a_workload_run_in_uneven_steps_pipelines_like_the_inline_one() {
    let stops: Vec<SimTime> = [0, 1, 137_000_000, 137_000_001, 610_000_000, 1_333_333_333]
        .into_iter()
        .map(SimTime)
        .chain([END])
        .collect();
    let inline = run(cell(4_000, true), 1, &stops);
    assert_eq!(run(cell(4_000, true), 2, &stops), inline);
}

#[test]
fn a_workload_run_that_never_fills_a_batch_pipelines_like_the_inline_one() {
    let inline = run(cell(20, true), 1, &[END]);
    assert!(inline.1.transitions > 0, "sessions ran");
    assert!(inline.1.transitions < LOG_BATCH as u64, "one partial batch");
    assert_eq!(run(cell(20, true), 2, &[END]), inline);
}

/// Pipelined and inline steps alternate, so the second buffer waits in
/// the slot across an inline `run_until` and serves the next pipelined
/// one.
#[test]
fn a_workload_run_alternating_pipelined_and_inline_steps_equals_the_inline_one() {
    let stops = [500_000_000, 1_000_000_000, 1_500_000_000, END.0].map(SimTime);
    let alternating = guarded(move || {
        let mut w = cell(4_000, true);
        for (workers, stop) in [2, 1, 2, 1].into_iter().zip(stops) {
            w.run_until_on(workers, stop);
        }
        outcome(&w)
    });
    assert_eq!(alternating, run(cell(4_000, true), 1, &stops));
}

/// A hub fault and repair scheduled between runs, each mid-batch.
#[test]
fn a_hub_fault_mid_workload_run_pipelines_like_the_inline_one() {
    let run_with_fault = |workers| {
        let mut w = cell(4_000, false);
        w.run_until_on(workers, SimTime(700_000_000));
        let at = w.now() + SimDuration::from_millis(150);
        w.schedule_faults(FaultPlan::new().fail_at(at, SimComponent::Hub(NetId::A)));
        w.run_until_on(workers, SimTime(1_200_000_000));
        let at = w.now();
        w.schedule_faults(FaultPlan::new().repair_at(at, SimComponent::Hub(NetId::A)));
        w.run_until_on(workers, END);
        outcome(&w)
    };
    let inline = guarded(move || run_with_fault(1));
    assert_eq!(inline.1.hub_transitions, 2);
    assert!(inline.1.stall_windows > 0, "the fault stalled sessions");
    assert_eq!(guarded(move || run_with_fault(2)), inline);
}

/// Runs `f` under [`within_a_minute`] and returns its panic message, or
/// fails the test if it returns.
fn panic_message(f: impl FnOnce() + Send + 'static) -> String {
    let payload = within_a_minute(f).expect_err("the run panicked");
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_default()
}

/// A daemon whose first timer, at 1 s, panics on every host, or on host
/// 0 installs a route on plane 200 of a two-plane cluster, which the
/// engine's path walk indexes past its hub table.
struct Saboteur {
    kernel_panics: bool,
}

impl Protocol for Saboteur {
    type Msg = ();
    fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
        ctx.set_timer(SimDuration::from_secs(1), 0);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, _token: u64) {
        assert!(!self.kernel_panics, "the kernel exploded");
        if ctx.self_id() == NodeId(0) {
            ctx.set_route(NodeId(1), Route::Direct(NetId(200)));
        }
    }
}

/// Runs the shrunk cell's users for 3 s under [`Saboteur`]s, pipelined.
fn sabotaged(kernel_panics: bool) {
    let mut w = World::new(ClusterSpec::new(8).seed(3), |_| Saboteur { kernel_panics });
    w.enable_workload(users(4_000));
    w.run_until_on(2, SimTime(3_000_000_000));
}

/// The kernel panics with batches in flight: it hands over its last
/// batch before it joins, so the worker stops and the kernel's own
/// payload comes out.
#[test]
fn a_kernel_panic_mid_workload_run_stops_the_worker_and_propagates() {
    assert_eq!(panic_message(|| sabotaged(true)), "the kernel exploded");
}

/// The engine's worker panics mid-run, poisoning the slot: its payload,
/// not the kernel's failed hand-over, reaches the caller.
#[test]
fn a_workload_worker_panic_propagates_with_its_payload() {
    let message = panic_message(|| sabotaged(false));
    assert!(message.contains("index out of bounds"), "{message}");
}
