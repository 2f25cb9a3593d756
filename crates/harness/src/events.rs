//! Structured per-trial event traces.
//!
//! A trial's story — faults injected, routes changed, flows delivered or
//! abandoned — is recorded as a flat list of [`TraceEvent`]s with
//! simulation timestamps. The kinds mirror what the DRS daemon and the
//! simulation world already observe; the harness only fixes the shared
//! vocabulary and the artifact form so the `failover_timeline` narrative
//! and the shootout rows speak the same language.

/// What happened. Labels are the stable strings used in JSON artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A fault plan took a component down.
    FaultInjected,
    /// A fault plan repaired a component.
    Repaired,
    /// A protocol observed a link/network go down.
    LinkDown,
    /// A protocol observed a link/network come back.
    LinkUp,
    /// A protocol switched the route for some destination.
    RouteChanged,
    /// A protocol began gateway/path discovery.
    DiscoveryStarted,
    /// A discovery round ended with no usable path.
    DiscoveryFailed,
    /// An application flow was delivered end-to-end.
    FlowDelivered,
    /// An application flow exhausted its retries.
    FlowGaveUp,
}

impl TraceEventKind {
    /// Every kind, in declaration order (artifact row order; `kind as
    /// usize` indexes it).
    pub const ALL: [TraceEventKind; 9] = [
        Self::FaultInjected,
        Self::Repaired,
        Self::LinkDown,
        Self::LinkUp,
        Self::RouteChanged,
        Self::DiscoveryStarted,
        Self::DiscoveryFailed,
        Self::FlowDelivered,
        Self::FlowGaveUp,
    ];

    /// Stable label used in JSON and table output.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            TraceEventKind::FaultInjected => "fault_injected",
            TraceEventKind::Repaired => "repaired",
            TraceEventKind::LinkDown => "link_down",
            TraceEventKind::LinkUp => "link_up",
            TraceEventKind::RouteChanged => "route_changed",
            TraceEventKind::DiscoveryStarted => "discovery_started",
            TraceEventKind::DiscoveryFailed => "discovery_failed",
            TraceEventKind::FlowDelivered => "flow_delivered",
            TraceEventKind::FlowGaveUp => "flow_gave_up",
        }
    }
}

/// One timestamped event in a trial's trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulation time of the event, in nanoseconds since trial start.
    pub at_ns: u64,
    /// What happened.
    pub kind: TraceEventKind,
    /// Free-form detail (node, component, flow id) for human readers.
    pub detail: String,
}

impl TraceEvent {
    /// A new event.
    #[must_use]
    pub fn new(at_ns: u64, kind: TraceEventKind, detail: impl Into<String>) -> Self {
        TraceEvent {
            at_ns,
            kind,
            detail: detail.into(),
        }
    }
}

/// A trial's trace under construction: observers append in any order,
/// and [`TrialTrace::seal`] sorts exactly once at the end.
///
/// Record through a `TrialTrace`, seal when the trial ends, and hand the
/// sealed events to [`crate::TrialRecord::with_events`] (which
/// debug-asserts the order it is given): "is this trace sorted?" is then
/// never a per-call-site question.
#[derive(Debug, Clone, Default)]
pub struct TrialTrace {
    events: Vec<TraceEvent>,
}

impl TrialTrace {
    /// An empty trace.
    #[must_use]
    pub fn new() -> Self {
        TrialTrace::default()
    }

    fn push(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// Records one event from its parts.
    pub fn record(&mut self, at_ns: u64, kind: TraceEventKind, detail: impl Into<String>) {
        self.push(TraceEvent::new(at_ns, kind, detail));
    }

    /// Appends a batch of events from another observer.
    pub fn extend(&mut self, events: impl IntoIterator<Item = TraceEvent>) {
        self.events.extend(events);
    }

    /// Finishes the trace: sorts by timestamp (stable — recording order
    /// is preserved within a timestamp, so merged traces from several
    /// observers stay deterministic) and returns the events. This is the
    /// single place a trace gets sorted.
    #[must_use]
    pub fn seal(mut self) -> Vec<TraceEvent> {
        self.events.sort_by_key(|e| e.at_ns);
        self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique_and_snake_case() {
        let kinds = TraceEventKind::ALL;
        for (i, kind) in kinds.iter().enumerate() {
            assert_eq!(*kind as usize, i, "ALL is in declaration order");
        }
        let mut labels: Vec<&str> = kinds.iter().map(TraceEventKind::label).collect();
        assert!(labels
            .iter()
            .all(|l| l.chars().all(|c| c.is_ascii_lowercase() || c == '_')));
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), kinds.len());
    }

    #[test]
    fn trial_trace_seals_sorted_exactly_once() {
        let mut trace = TrialTrace::new();
        trace.record(9, TraceEventKind::FlowDelivered, "late");
        trace.push(TraceEvent::new(1, TraceEventKind::FaultInjected, "early"));
        trace.extend(vec![
            TraceEvent::new(5, TraceEventKind::RouteChanged, "mid"),
            TraceEvent::new(1, TraceEventKind::LinkDown, "early-second"),
        ]);
        let events = trace.seal();
        let times: Vec<u64> = events.iter().map(|e| e.at_ns).collect();
        assert_eq!(times, [1, 1, 5, 9]);
        // Stable: recording order preserved among the two t=1 events.
        assert_eq!(events[0].detail, "early");
        assert_eq!(events[1].detail, "early-second");
    }

    #[test]
    fn empty_trace_seals_to_nothing() {
        assert!(TrialTrace::new().seal().is_empty());
    }
}
