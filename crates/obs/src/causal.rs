//! Post-mortem builder: turns a flight log back into the paper's
//! failover narrative.
//!
//! For every [`TraceKind::RerouteComplete`] in a [`FlightLog`], the
//! builder walks the `cause` chain backward — reroute ← decision ←
//! link-down ← timeout sweep ← the probe sends the sweep gave up on ←
//! the last good probe reply — and emits a [`PostMortem`]: the chain in
//! forward (oldest-first) order with per-hop sim-time deltas, plus the
//! kernel loss records that attached to probes on the chain. The
//! decomposition ([`Decomposition`]) recovers the daemon's two latency
//! samples purely from record timestamps, so the bench layer can
//! cross-check flight-derived latencies bucket-for-bucket against the
//! histograms in the observability artifact.

use crate::flight::{find_near, EventRef, FlightLog, TraceKind, TraceRecord};
use std::borrow::Cow;

/// One failover's reconstructed causal chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PostMortem {
    /// The chain oldest-first: anchor (last good reply, when one
    /// exists) … decision, reroute-complete.
    pub chain: Vec<TraceRecord>,
    /// Kernel loss records whose `cause` points at a probe send on the
    /// chain, oldest-first.
    pub losses: Vec<TraceRecord>,
    /// True when the walk ended at a record with `cause: None`; false
    /// when a `cause` ref failed to resolve (evicted or never recorded)
    /// — an *orphaned* chain — or did not sort strictly below the record
    /// citing it (a cause cycle).
    pub complete: bool,
}

impl PostMortem {
    /// The failover this chain explains (its newest record).
    ///
    /// # Panics
    /// Panics on an empty chain, which the builder never produces.
    #[must_use]
    pub fn head(&self) -> &TraceRecord {
        self.chain.last().expect("post-mortem chains are non-empty")
    }

    /// Number of hops in the chain.
    #[must_use]
    pub fn len(&self) -> usize {
        self.chain.len()
    }

    /// True when the chain has no hops (never produced by the builder).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.chain.is_empty()
    }

    /// Last chain record of `kind`, oldest-first.
    #[must_use]
    pub fn last(&self, kind: TraceKind) -> Option<&TraceRecord> {
        self.chain.iter().rev().find(|r| r.kind == kind)
    }

    /// Recovers the failover's latency decomposition from timestamps.
    #[must_use]
    pub fn decompose(&self) -> Decomposition {
        let anchor = self.last(TraceKind::ProbeRecv);
        let down = self.last(TraceKind::LinkDown);
        let decision = self.last(TraceKind::FailoverDecision);
        let head = self.head();
        let detect_ns = match (anchor, down) {
            (Some(a), Some(d)) => Some(d.time_ns - a.time_ns),
            _ => None,
        };
        let reroute_ns = (head.kind == TraceKind::RerouteComplete)
            .then(|| decision.map(|d| head.time_ns - d.time_ns))
            .flatten();
        Decomposition {
            detect_ns,
            reroute_ns,
            losses: self.losses.len() as u64,
        }
    }
}

/// A failover's latency split, recovered purely from chain timestamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decomposition {
    /// Last good reply → link declared down. `None` when the chain has
    /// no good-reply anchor (link was never up).
    pub detect_ns: Option<u64>,
    /// Failover decision → new route installed. `None` when the chain
    /// head is not a reroute completion.
    pub reroute_ns: Option<u64>,
    /// Kernel loss records attached to the chain's probes.
    pub losses: u64,
}

/// Everything the builder learned from one log.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PostMortemReport {
    /// One post-mortem per reroute completion, in log order.
    pub failovers: Vec<PostMortem>,
    /// Cause refs across the whole log that failed to resolve (evicted
    /// or never recorded). Zero on a complete log.
    pub orphan_refs: u64,
}

impl PostMortemReport {
    /// Chains whose walk reached a causeless root.
    #[must_use]
    pub fn complete_count(&self) -> usize {
        self.failovers.iter().filter(|f| f.complete).count()
    }
}

/// Builds a post-mortem for every reroute completion in the log.
///
/// The walk is pure: it only reads the log, so the same log
/// always gives bit-identical reports.
///
/// Each cause ref is found by galloping from a guess at its index,
/// O(log distance) instead of a binary search of the whole log: the
/// cause last found for a record of the same kind, the previous chain's
/// hop at the same depth, or else the citing record itself (a cause
/// sorts strictly below the record that cites it in every simulator
/// log). A chain whose cause does not sort below its citer (a cycle, in
/// a hand-built log) ends there, as incomplete. A hand-built log that is
/// not in `(time, seq, sub)` order is searched through a sorted copy; the
/// guesses are then only guesses, and the gallop finds the same record
/// from any of them.
#[must_use]
pub fn build_post_mortems(log: &FlightLog) -> PostMortemReport {
    let mut sorted = Cow::Borrowed(log.records.as_slice());
    let in_order = |w: &[TraceRecord]| w[0].sort_key() <= w[1].sort_key();
    if !sorted.windows(2).all(in_order) {
        sorted.to_mut().sort_by_key(TraceRecord::sort_key);
    }
    // Reverse edges: (probe send ref, log index) of every loss record
    // blaming it, sorted so that a send's losses are one run in log order.
    let mut losses_by_cause: Vec<(EventRef, usize)> = Vec::new();
    let mut orphan_refs = 0;
    // Records of one kind cite causes that sit together — a round's probe
    // sends cite the replies of the round before, which arrived together,
    // and its replies cite one batch of sends — so each search starts at
    // the cause last found for a record of the same kind.
    let mut fingers = [None; TraceKind::ALL.len()];
    for (i, r) in log.records.iter().enumerate() {
        if let Some(c) = r.cause {
            let finger = &mut fingers[r.kind as usize];
            match find_near(&sorted, finger.unwrap_or(i), c) {
                Some(j) => *finger = Some(j),
                None => orphan_refs += 1,
            }
            if r.kind == TraceKind::ProbeLoss {
                losses_by_cause.push((c, i));
            }
        }
    }
    losses_by_cause.sort_unstable();

    let mut failovers = Vec::new();
    // The failovers of one outage walk back through the same probe
    // rounds, so the previous chain's hop at the same depth is where this
    // chain's hop usually sits; the citer's index is the fallback guess.
    let (mut hops, mut prev_hops) = (Vec::new(), Vec::new());
    for (i, r) in log.records.iter().enumerate() {
        if r.kind != TraceKind::RerouteComplete {
            continue;
        }
        let mut chain = vec![*r];
        let mut complete = true;
        hops.clear();
        let (mut at, mut from) = (*r, i);
        while let Some(c) = at.cause {
            // A cause that does not sort below its citer closes a cycle.
            let found = if c.sort_key() < at.sort_key() {
                let near = prev_hops.get(hops.len()).copied().unwrap_or(from);
                find_near(&sorted, near, c)
            } else {
                None
            };
            let Some(j) = found else {
                complete = false;
                break;
            };
            (at, from) = (sorted[j], j);
            hops.push(j);
            chain.push(at);
        }
        std::mem::swap(&mut hops, &mut prev_hops);
        chain.reverse();
        let mut losses: Vec<TraceRecord> = chain
            .iter()
            .filter(|hop| hop.kind == TraceKind::ProbeSend)
            .flat_map(|hop| {
                let send = hop.self_ref();
                let run = losses_by_cause.partition_point(|&(c, _)| c < send);
                losses_by_cause[run..]
                    .iter()
                    .take_while(move |&&(c, _)| c == send)
                    .map(|&(_, i)| log.records[i])
            })
            .collect();
        losses.sort_by_key(TraceRecord::sort_key);
        failovers.push(PostMortem {
            chain,
            losses,
            complete,
        });
    }
    PostMortemReport {
        failovers,
        orphan_refs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::loss_site;
    use crate::flight::testkit::{drawn_log, returns_within_ten_seconds, shuffle};

    fn rec(t: u64, seq: u64, kind: TraceKind, cause: Option<EventRef>) -> TraceRecord {
        TraceRecord {
            time_ns: t,
            seq,
            sub: 0,
            kind,
            host: 0,
            plane: Some(0),
            arg: 0,
            cause,
        }
    }

    /// anchor reply -> send1 -> send2 -> sweep -> down -> decision ->
    /// reroute, with one loss blaming send2.
    fn sample_log() -> FlightLog {
        let anchor = rec(1_000, 1, TraceKind::ProbeRecv, None);
        let send1 = rec(2_000, 2, TraceKind::ProbeSend, Some(anchor.self_ref()));
        let send2 = rec(3_000, 3, TraceKind::ProbeSend, Some(send1.self_ref()));
        let mut loss = rec(3_100, 4, TraceKind::ProbeLoss, Some(send2.self_ref()));
        loss.arg = loss_site::HUB_ADMIT;
        let sweep = rec(5_000, 5, TraceKind::TimeoutSweep, Some(send2.self_ref()));
        let mut down = rec(5_000, 5, TraceKind::LinkDown, Some(sweep.self_ref()));
        down.sub = 1;
        let mut decision = rec(5_000, 5, TraceKind::FailoverDecision, Some(down.self_ref()));
        decision.sub = 2;
        let mut reroute = rec(
            6_000,
            6,
            TraceKind::RerouteComplete,
            Some(decision.self_ref()),
        );
        reroute.arg = 1_000;
        FlightLog {
            records: vec![anchor, send1, send2, loss, sweep, down, decision, reroute],
            dropped: 0,
        }
    }

    #[test]
    fn walks_the_full_chain_backward() {
        let report = build_post_mortems(&sample_log());
        assert_eq!(report.failovers.len(), 1);
        assert_eq!(report.orphan_refs, 0);
        let pm = &report.failovers[0];
        assert!(pm.complete);
        assert_eq!(pm.len(), 7);
        assert_eq!(pm.chain[0].kind, TraceKind::ProbeRecv);
        assert_eq!(pm.head().kind, TraceKind::RerouteComplete);
        assert_eq!(pm.losses.len(), 1);
        assert_eq!(pm.head().time_ns - pm.chain[0].time_ns, 5_000);
    }

    #[test]
    fn decomposition_recovers_the_daemon_samples() {
        let report = build_post_mortems(&sample_log());
        let d = report.failovers[0].decompose();
        assert_eq!(d.detect_ns, Some(4_000), "anchor at 1us, down at 5us");
        assert_eq!(d.reroute_ns, Some(1_000), "decision at 5us, install at 6us");
        assert_eq!(d.losses, 1);
    }

    #[test]
    fn missing_cause_ref_marks_the_chain_orphaned() {
        let mut log = sample_log();
        // Evict the anchor: send1's cause now dangles.
        log.records.retain(|r| r.kind != TraceKind::ProbeRecv);
        let report = build_post_mortems(&log);
        assert_eq!(report.orphan_refs, 1);
        let pm = &report.failovers[0];
        assert!(!pm.complete);
        assert_eq!(pm.chain[0].kind, TraceKind::ProbeSend);
        assert_eq!(report.complete_count(), 0);
        assert_eq!(pm.decompose().detect_ns, None);
    }

    #[test]
    fn a_log_out_of_sort_order_resolves_the_same_chains() {
        let expected = build_post_mortems(&sample_log());
        let mut log = sample_log();
        log.records.reverse();
        assert_eq!(build_post_mortems(&log), expected);
        // Two hosts' records under one `(time, seq, sub)` key: the cause
        // ref names the second of the pair.
        let mut log = sample_log();
        let mut twin = log.records[0];
        twin.host = 7;
        log.records[1].cause = Some(twin.self_ref());
        log.records.insert(1, twin);
        let report = build_post_mortems(&log);
        assert_eq!(report.orphan_refs, 0);
        assert_eq!(report.failovers[0].chain[0], twin);
    }

    /// The builder before causes were searched from their citer: every
    /// ref by binary search over the whole log, chains walked without a
    /// cycle guard. The reference the builder must match on every log
    /// without a cycle.
    fn build_post_mortems_oracle(log: &FlightLog) -> PostMortemReport {
        use crate::flight::find_sorted;
        use std::collections::BTreeMap;
        let mut sorted = Cow::Borrowed(log.records.as_slice());
        let in_order = |w: &[TraceRecord]| w[0].sort_key() <= w[1].sort_key();
        if !sorted.windows(2).all(in_order) {
            sorted.to_mut().sort_by_key(TraceRecord::sort_key);
        }
        let mut losses_by_cause: BTreeMap<EventRef, Vec<&TraceRecord>> = BTreeMap::new();
        let mut orphan_refs = 0;
        for r in &log.records {
            if let Some(c) = r.cause {
                if find_sorted(&sorted, c).is_none() {
                    orphan_refs += 1;
                }
                if r.kind == TraceKind::ProbeLoss {
                    losses_by_cause.entry(c).or_default().push(r);
                }
            }
        }

        let mut failovers = Vec::new();
        for r in &log.records {
            if r.kind != TraceKind::RerouteComplete {
                continue;
            }
            let mut chain = vec![*r];
            let mut complete = true;
            let mut cursor = r.cause;
            while let Some(c) = cursor {
                match find_sorted(&sorted, c) {
                    Some(rec) => {
                        chain.push(*rec);
                        cursor = rec.cause;
                    }
                    None => {
                        complete = false;
                        break;
                    }
                }
            }
            chain.reverse();
            let mut losses: Vec<TraceRecord> = chain
                .iter()
                .filter(|hop| hop.kind == TraceKind::ProbeSend)
                .flat_map(|hop| {
                    losses_by_cause
                        .get(&hop.self_ref())
                        .into_iter()
                        .flatten()
                        .map(|l| **l)
                })
                .collect();
            losses.sort_by_key(TraceRecord::sort_key);
            failovers.push(PostMortem {
                chain,
                losses,
                complete,
            });
        }
        PostMortemReport {
            failovers,
            orphan_refs,
        }
    }

    #[test]
    fn searching_from_the_citer_equals_the_whole_log_search_on_drawn_logs() {
        let (mut failovers, mut orphaned, mut losses, mut long) = (0, 0, 0, 0);
        for seed in 0..64 {
            let log = drawn_log(seed, 600);
            let report = build_post_mortems(&log);
            assert_eq!(report, build_post_mortems_oracle(&log), "seed {seed}");
            let mut shuffled = log.clone();
            shuffle(&mut shuffled.records, seed);
            let moved = build_post_mortems(&shuffled);
            assert_eq!(moved, build_post_mortems_oracle(&shuffled), "seed {seed}");
            failovers += report.failovers.len();
            orphaned += report.failovers.iter().filter(|f| !f.complete).count();
            losses += report
                .failovers
                .iter()
                .map(|f| f.losses.len())
                .sum::<usize>();
            long += report.failovers.iter().filter(|f| f.len() > 4).count();
        }
        // The draws reach every branch: complete and orphaned chains,
        // attached losses, and chains long enough to gallop.
        assert!(
            failovers > 500 && orphaned > 100,
            "{failovers} / {orphaned}"
        );
        assert!(losses > 50 && long > 100, "{losses} / {long}");
    }

    #[test]
    fn a_cause_cycle_ends_the_chain_incomplete() {
        // A reroute citing itself.
        let mut own = rec(1_000, 1, TraceKind::RerouteComplete, None);
        own.cause = Some(own.self_ref());
        // A reroute and a decision citing each other.
        let mut decision = rec(2_000, 2, TraceKind::FailoverDecision, None);
        let reroute = rec(
            3_000,
            3,
            TraceKind::RerouteComplete,
            Some(decision.self_ref()),
        );
        decision.cause = Some(reroute.self_ref());
        let reports = returns_within_ten_seconds(move || {
            [vec![own, decision, reroute], vec![reroute, own, decision]].map(|records| {
                build_post_mortems(&FlightLog {
                    records,
                    dropped: 0,
                })
            })
        });
        for report in reports {
            assert_eq!(report.orphan_refs, 0);
            assert_eq!(report.complete_count(), 0);
            let chains: Vec<_> = report.failovers.iter().map(|f| &f.chain).collect();
            assert!(chains.contains(&&vec![own]), "the self-cause stops at once");
            assert!(
                chains.contains(&&vec![decision, reroute]),
                "reroute <- decision, then stop"
            );
        }
    }
}
