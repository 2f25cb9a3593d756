//! Output checks: the per-repetition `result_digest` and the invariants
//! each workload must satisfy. Checks are *properties* of the simulated
//! results, not pinned constants, so a later change that legitimately
//! alters behaviour is not trapped by numbers the benchmark owns.
//!
//! The digest covers simulated results only (per-node DRS metrics,
//! per-plane medium counters, workload ledger, flight-log length) and
//! never kernel internals (wheel, epoch or shard counters), so it must be
//! identical across repetitions, kernel drivers and thread counts.

use drs_analytic::MonteCarloEstimate;
use drs_core::{DrsConfig, DrsEventKind, Route};
use drs_obs::causal::PostMortemReport;
use drs_obs::flight::FlightLog;
use drs_obs::hist::Histogram;
use drs_sim::{NetId, NodeId, WorkloadStats};

use crate::scenario::{Cluster, Outage};

/// 64-bit FNV-1a over little-endian words.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }

    pub fn u128(&mut self, word: u128) {
        self.bytes(&word.to_le_bytes());
    }

    fn hist(&mut self, h: &Histogram) {
        self.u64(h.count());
        self.u128(h.sum());
        self.u64(h.min().unwrap_or(0));
        self.u64(h.max().unwrap_or(0));
    }

    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

fn net_of(route: Route) -> NetId {
    match route {
        Route::Direct(net) | Route::Via { net, .. } => net,
    }
}

/// Folds a cluster's simulated end state into `d`: every daemon's
/// counters, state-transition log and final routes, and every plane's
/// medium counters.
pub fn digest_cluster(d: &mut Digest, c: &impl Cluster) {
    let n = c.size() as u32;
    for i in 0..n {
        let m = &c.daemon(NodeId(i)).metrics;
        for word in [
            m.probes_sent,
            m.replies_received,
            m.timeouts,
            m.link_down_events,
            m.link_up_events,
            m.route_changes,
            m.direct_failovers,
            m.gateway_failovers,
            m.reverts,
            m.discoveries,
            m.offers_sent,
            m.events.len() as u64,
        ] {
            d.u64(word);
        }
        for e in &m.events {
            d.u64(e.at.0);
        }
        for dst in (0..n).filter(|&dst| dst != i) {
            match c.route(NodeId(i), NodeId(dst)) {
                None => d.u64(u64::MAX),
                Some(Route::Direct(net)) => d.u64(u64::from(net.0)),
                Some(Route::Via { gateway, net }) => {
                    d.u64(1 << 32 | u64::from(gateway.0) << 8 | u64::from(net.0));
                }
            }
        }
    }
    for net in NetId::planes(c.planes()) {
        let s = c.medium_stats(net);
        for word in [
            s.frames,
            s.bytes,
            s.probe_bytes,
            s.control_bytes,
            s.data_bytes,
            s.dropped_hub_down,
        ] {
            d.u64(word);
        }
    }
}

/// The digest of a cluster's simulated end state alone.
#[must_use]
pub fn cluster_digest(c: &impl Cluster) -> u64 {
    let mut d = Digest::default();
    digest_cluster(&mut d, c);
    d.finish()
}

/// The kernel guard-rail every simulator workload checks: no schedule
/// was clamped up from the past.
pub fn check_kernel(c: &impl Cluster, errors: &mut Vec<String>) {
    let clamped = c.kernel().clamped_past;
    if clamped != 0 {
        errors.push(format!("clamped_past = {clamped}, expected 0"));
    }
}

/// Hub-outage invariants, read from the daemons' own event logs: every
/// daemon marks every peer's link on the dead plane down within
/// `cfg.worst_case_detection()` of the failure, and at the repair instant
/// none of the N(N−1) routes uses the dead plane.
pub fn check_outages(
    c: &impl Cluster,
    cfg: &DrsConfig,
    outages: &[Outage],
    errors: &mut Vec<String>,
) {
    let n = c.size();
    let bound = cfg.worst_case_detection();
    let (mut undetected, mut on_dead_plane) = (0u64, 0u64);
    for i in 0..n as u32 {
        let events = &c.daemon(NodeId(i)).metrics.events;
        for o in outages {
            let mut detected = vec![false; n];
            // Hosts boot with a direct primary-plane route to every peer.
            let mut plane = vec![NetId::A; n];
            for e in events.iter().take_while(|e| e.at < o.repair) {
                match e.kind {
                    DrsEventKind::LinkDown { peer, net }
                        if net == o.net && e.at >= o.fail && e.at <= o.fail + bound =>
                    {
                        detected[peer.idx()] = true;
                    }
                    DrsEventKind::RouteChanged { dst, route } => plane[dst.idx()] = net_of(route),
                    _ => {}
                }
            }
            for peer in (0..n).filter(|&p| p != i as usize) {
                undetected += u64::from(!detected[peer]);
                on_dead_plane += u64::from(plane[peer] == o.net);
            }
        }
    }
    if undetected != 0 {
        errors.push(format!(
            "{undetected} (daemon, peer, outage) links not marked down within {bound}"
        ));
    }
    if on_dead_plane != 0 {
        errors.push(format!(
            "{on_dead_plane} routes still on the dead plane at the repair instant"
        ));
    }
}

/// Flight-recorder invariants: nothing evicted unprotected and every
/// failover's causal chain walks back to its fault.
pub fn check_flight(log: &FlightLog, report: &PostMortemReport, errors: &mut Vec<String>) {
    if log.dropped != 0 {
        errors.push(format!("flight ring dropped {} records", log.dropped));
    }
    if report.failovers.is_empty() {
        errors.push("no failover post-mortems were built".to_string());
    }
    let complete = report.complete_count();
    if complete != report.failovers.len() {
        errors.push(format!(
            "{complete} of {} post-mortems complete",
            report.failovers.len()
        ));
    }
}

/// Folds the fluid workload's ledger into `d`.
pub fn digest_workload(d: &mut Digest, s: &WorkloadStats) {
    for word in [
        s.opened,
        s.closed,
        s.dropped_arrivals,
        s.active,
        s.transitions,
        s.route_transitions,
        s.nic_transitions,
        s.hub_transitions,
        s.reroute_notifications,
        s.stall_windows,
        s.resumed_windows,
    ] {
        d.u64(word);
    }
    for unit in [
        s.offered_unit,
        s.delivered_unit,
        s.shortfall_unit,
        s.dropped_unit,
    ] {
        d.u128(unit);
    }
    for h in [
        &s.goodput_bytes,
        &s.interruption,
        &s.stalled_per_failover,
        &s.dropped_per_stall,
    ] {
        d.hist(h);
    }
}

/// Two counts of the same quantity by independent methods must agree
/// exactly.
pub fn check_counts(what: &str, got: (u128, u128), want: (u128, u128), errors: &mut Vec<String>) {
    if got != want {
        errors.push(format!(
            "{what}: counted {}/{} but the oracle gives {}/{}",
            got.0, got.1, want.0, want.1
        ));
    }
}

/// A Monte-Carlo estimate must sit within 4σ of the exact probability
/// (σ from the exact value, so a collapsed estimate cannot widen its own
/// tolerance).
pub fn check_estimate(what: &str, est: &MonteCarloEstimate, exact: f64, errors: &mut Vec<String>) {
    let sigma = (exact * (1.0 - exact) / est.iterations as f64).sqrt();
    if (est.p_hat - exact).abs() > 4.0 * sigma {
        errors.push(format!(
            "{what}: estimate {} is more than 4 sigma ({sigma:e}) from exact {exact}",
            est.p_hat
        ));
    }
}

/// Blanks the values of `"successes"` and `"p"` on every line whose
/// method is Monte-Carlo. Those cells depend on the `rand` stream, which
/// under the offline stand-in differs from the stream the artifact was
/// committed under (README, fidelity gap 2).
#[must_use]
pub fn mask_sampled_cells(json: &str) -> String {
    fn blank(line: &str, key: &str) -> String {
        let Some(start) = line.find(key).map(|i| i + key.len()) else {
            return line.to_string();
        };
        let end = line[start..].find(", \"").map_or(line.len(), |i| start + i);
        format!("{}_{}", &line[..start], &line[end..])
    }
    json.lines()
        .map(|line| {
            if line.contains("\"method\": \"monte_carlo\"") {
                blank(&blank(line, "\"successes\": "), "\"p\": ")
            } else {
                line.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// A regenerated artifact must equal the committed file byte for byte.
pub fn check_artifact(file: &str, regenerated: &str, committed: &str, errors: &mut Vec<String>) {
    if regenerated != committed {
        let line = regenerated
            .lines()
            .zip(committed.lines())
            .position(|(a, b)| a != b)
            .map_or_else(|| "length".to_string(), |i| format!("line {}", i + 1));
        errors.push(format!(
            "{file}: regenerated output differs from the committed file (first at {line})"
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_touches_only_sampled_lines() {
        let json = "{\"f\": 3, \"method\": \"exact\", \"successes\": \"5\", \"p\": 0.5, \"trials\": 6}\n\
                    {\"f\": 4, \"method\": \"monte_carlo\", \"successes\": \"100007\", \"total\": \"9\", \"p\": 0.76, \"trials\": 6}";
        let masked = mask_sampled_cells(json);
        let mut lines = masked.lines();
        assert_eq!(lines.next(), json.lines().next());
        assert_eq!(
            lines.next().unwrap(),
            "{\"f\": 4, \"method\": \"monte_carlo\", \"successes\": _, \"total\": \"9\", \"p\": _, \"trials\": 6}"
        );
    }

    #[test]
    fn digest_is_order_sensitive() {
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.u64(1);
        a.u64(2);
        b.u64(2);
        b.u64(1);
        assert_ne!(a.finish(), b.finish());
    }
}
