//! The causal flight recorder: a bounded ring of structured trace
//! records where every record can name the record that *caused* it.
//!
//! Histograms answer "how long did failovers take"; the paper's
//! survivability argument needs "*why* did this cluster ride through the
//! hub loss" — which probes were lost, when the timeout fired, which
//! plane the daemon chose. [`TraceRecord`] is that answer's unit: a
//! sim-time-stamped record with a [`TraceKind`], the acting host/plane,
//! a kind-specific argument, and an optional [`EventRef`] pointing at
//! the record that caused it. The simulator records them in dispatch
//! order, so a drained log is already sorted by `(time, seq, sub)`, the
//! order of the kernel's own event log.
//!
//! # Identity
//!
//! A record is identified by [`EventRef`] `{time_ns, seq, host, sub}`:
//! the simulation time and kernel event sequence number of the dispatch
//! that produced it, the acting host, and a per-dispatch sub-counter
//! (one kernel event may emit several records — a timeout sweep that
//! declares a link down emits the sweep *and* the down transition).
//! The tuple is unique within one world run and totally ordered, so
//! cause references are stable keys, not indices into a buffer that
//! eviction would invalidate.
//!
//! # Bounding
//!
//! The ring holds at most `capacity` records. When full, the *oldest*
//! record is evicted and counted in [`FlightRecorder::dropped`] — unless
//! it has been pinned as an ancestor of a still-live causal chain head
//! ([`FlightRecorder::pin_chain`]), in which case it is moved to a
//! retained side buffer instead, so a post-mortem can always walk a live
//! chain back to its anchor even on runs long enough to wrap the ring.
//!
//! # The clock rule
//!
//! `time_ns` is *simulation* time, never wall clock — flight logs feed
//! committed artifacts and the Perfetto export, both of which must be
//! byte-reproducible (see the crate docs).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::par;

/// Stable identity of one trace record: the sim-time and kernel event
/// seq of the dispatch that produced it, the acting host, and the
/// per-dispatch record sub-counter. Totally ordered by `(time, seq,
/// host, sub)` — the same order the timeline is sorted in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventRef {
    /// Simulation time of the producing dispatch, in nanoseconds.
    pub time_ns: u64,
    /// Kernel event sequence number of the producing dispatch.
    pub seq: u64,
    /// Acting host (`u32::MAX` for hub records).
    pub host: u32,
    /// Index of this record among those the dispatch emitted.
    pub sub: u32,
}

impl EventRef {
    /// The [`TraceRecord::sort_key`] of the record this ref names.
    pub(crate) fn sort_key(self) -> (u64, u64, u32) {
        (self.time_ns, self.seq, self.sub)
    }
}

/// What a trace record describes. The daemon kinds mirror the paper's
/// failover narrative.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceKind {
    /// A monitor probe left a host. `arg = (peer << 32) | probe_seq`;
    /// cause: the previous probe in the run, or the last good reply.
    ProbeSend,
    /// A probe reply arrived. `arg = (peer << 32) | probe_seq`; cause:
    /// the send it answers.
    ProbeRecv,
    /// A traced probe frame died in the kernel. `arg` is a
    /// [`loss_site`] code; cause: the [`TraceKind::ProbeSend`] that
    /// launched the frame.
    ProbeLoss,
    /// The monitor declared a peer's probes overdue. `arg = peer`;
    /// cause: the probe send it gave up on.
    TimeoutSweep,
    /// The daemon marked a peer link down. `arg` is the detect latency
    /// in ns (`u64::MAX` when the link was never up); cause: the
    /// timeout sweep.
    LinkDown,
    /// The daemon marked a peer link up. `arg = peer`; cause: the probe
    /// receive that revived it.
    LinkUp,
    /// The daemon committed to repairing a route. `arg = (dst << 1) |
    /// mode` with mode 0 = direct failover, 1 = discovery; cause: the
    /// link-down that forced it.
    FailoverDecision,
    /// A pending reroute installed its new route. `arg` is the reroute
    /// latency in ns; cause: the failover decision that opened it.
    RerouteComplete,
    /// A fault plan took a component down. `arg` = component code
    /// (0 = hub, 1 = NIC); host is the NIC's node or `u32::MAX` for a
    /// hub; `plane` = the affected plane.
    Fault,
    /// A fault plan brought a component back. Fields as [`Self::Fault`].
    Repair,
}

impl TraceKind {
    /// Stable lowercase label (artifact field names, Perfetto events).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::ProbeSend => "probe_send",
            Self::ProbeRecv => "probe_recv",
            Self::ProbeLoss => "probe_loss",
            Self::TimeoutSweep => "timeout_sweep",
            Self::LinkDown => "link_down",
            Self::LinkUp => "link_up",
            Self::FailoverDecision => "failover_decision",
            Self::RerouteComplete => "reroute_complete",
            Self::Fault => "fault",
            Self::Repair => "repair",
        }
    }

    /// Every kind, in declaration order (artifact row iteration).
    pub const ALL: [TraceKind; 10] = [
        Self::ProbeSend,
        Self::ProbeRecv,
        Self::ProbeLoss,
        Self::TimeoutSweep,
        Self::LinkDown,
        Self::LinkUp,
        Self::FailoverDecision,
        Self::RerouteComplete,
        Self::Fault,
        Self::Repair,
    ];
}

/// Where in the kernel a traced probe frame died ([`TraceKind::ProbeLoss`]
/// `arg` codes).
pub mod loss_site {
    /// Sender's NIC was down at transmit time.
    pub const TX_NIC_DOWN: u64 = 0;
    /// The hub was dead when the frame reached the medium.
    pub const HUB_ADMIT: u64 = 1;
    /// The hub died while the frame was in flight.
    pub const HUB_ARRIVAL: u64 = 2;
    /// Receiver's NIC was down at delivery time.
    pub const RX_NIC_DOWN: u64 = 3;
    /// The corruption roll ate the frame at delivery time.
    pub const CORRUPT: u64 = 4;
}

/// One entry in the flight log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceRecord {
    /// Simulation time, nanoseconds.
    pub time_ns: u64,
    /// Kernel event sequence number of the producing dispatch.
    pub seq: u64,
    /// Index among the records this dispatch emitted.
    pub sub: u32,
    /// What happened.
    pub kind: TraceKind,
    /// Acting host (`u32::MAX` for hub records).
    pub host: u32,
    /// Plane the record concerns, when it concerns one.
    pub plane: Option<u8>,
    /// Kind-specific argument (see [`TraceKind`] docs).
    pub arg: u64,
    /// The record that caused this one, when causality is known.
    pub cause: Option<EventRef>,
}

impl TraceRecord {
    /// This record's identity, as other records reference it.
    #[must_use]
    pub fn self_ref(&self) -> EventRef {
        EventRef {
            time_ns: self.time_ns,
            seq: self.seq,
            host: self.host,
            sub: self.sub,
        }
    }

    /// The sort key: records sort by `(time, seq, sub)`.
    #[must_use]
    pub fn sort_key(&self) -> (u64, u64, u32) {
        (self.time_ns, self.seq, self.sub)
    }
}

/// A drained flight log: the sorted records plus how many were evicted
/// unpreserved along the way.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FlightLog {
    /// Records in `(time, seq, sub)` order.
    pub records: Vec<TraceRecord>,
    /// Records evicted without protection (see [`FlightRecorder`]).
    pub dropped: u64,
}

/// Bounded ring buffer of [`TraceRecord`]s with causal-ancestor
/// protection.
///
/// `record` appends; once `capacity` is reached each append evicts the
/// oldest record — counting it in [`Self::dropped`] — unless that
/// record was pinned via [`Self::pin_chain`], in which case it moves to
/// a retained side buffer and survives the eviction. [`Self::drain`]
/// returns retained + ring merged back into dispatch order.
///
/// A pin only records its head; the walk that finds the head's ancestors
/// is deferred until an eviction is about to happen (or an append lands
/// at or below a deferred head's key, which could make it one of the
/// ancestors). Until then the ring and the retained buffer only grow,
/// so the walk finds what it would have found at pin time, and a ring
/// that never fills never walks at all.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    capacity: usize,
    ring: VecDeque<TraceRecord>,
    retained: Vec<TraceRecord>,
    /// Protected refs → pin count (chains may share ancestors).
    protected: BTreeMap<EventRef, u32>,
    /// Live chain head → the ancestor refs its pin protects; empty while
    /// the head's walk is deferred (a walked chain holds at least its
    /// head).
    pins: BTreeMap<EventRef, Vec<EventRef>>,
    /// Heads pinned since the last walk, in pin order (a head released
    /// meanwhile is skipped by the walk).
    unwalked: Vec<EventRef>,
    /// The largest key among `unwalked`, `None` when no walk is deferred.
    walk_due: Option<(u64, u64, u32)>,
    dropped: u64,
    /// True until an append sorts below its predecessor. While it holds,
    /// `ring` and `retained` (subsequences of the append order) are each
    /// sorted by [`TraceRecord::sort_key`], so `lookup` may binary-search.
    ordered: bool,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` unprotected records.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "flight recorder capacity must be positive");
        FlightRecorder {
            capacity,
            ring: VecDeque::with_capacity(capacity.min(4096)),
            retained: Vec::new(),
            protected: BTreeMap::new(),
            pins: BTreeMap::new(),
            unwalked: Vec::new(),
            walk_due: None,
            dropped: 0,
            ordered: true,
        }
    }

    /// Appends a record, evicting the oldest unprotected record if the
    /// ring is full.
    pub fn record(&mut self, rec: TraceRecord) {
        if let Some(due) = self.walk_due {
            if self.ring.len() >= self.capacity || rec.sort_key() <= due {
                self.walk_deferred();
            }
        }
        // Before evicting: at capacity 1 the predecessor is about to leave.
        let in_order = |last: &TraceRecord| last.sort_key() <= rec.sort_key();
        self.ordered &= self.ring.back().is_none_or(in_order);
        while self.ring.len() >= self.capacity {
            // Unwrap is safe: capacity > 0 so the ring is non-empty.
            let oldest = self.ring.pop_front().unwrap();
            if self.protected.contains_key(&oldest.self_ref()) {
                self.retained.push(oldest);
            } else {
                self.dropped += 1;
            }
        }
        self.ring.push_back(rec);
    }

    /// Pins `head` and every ancestor reachable through `cause` links
    /// against eviction, until [`Self::release`]d. Ancestors already
    /// evicted are silently absent (walks stop at the first miss), and a
    /// walk stops at a cause that does not sort strictly below the record
    /// citing it, so a cause cycle cannot trap it.
    ///
    /// The walk runs to a causeless root, not just to the last good reply:
    /// a daemon's link-down chain alternates send ← recv ← send … back to
    /// the pair's *first* probe, one [`Self::lookup`] per hop. Pinning
    /// itself only notes the head; the walk runs just before the next
    /// eviction (see the type docs), so a pin released before the ring
    /// wraps costs one map insert and one removal.
    pub fn pin_chain(&mut self, head: EventRef) {
        if self.pins.contains_key(&head) {
            return;
        }
        self.pins.insert(head, Vec::new());
        self.unwalked.push(head);
        self.walk_due = self.walk_due.max(Some(head.sort_key()));
    }

    /// Runs the ancestor walk of every head pinned since the last walk
    /// and still pinned; older pins are not visited.
    fn walk_deferred(&mut self) {
        self.walk_due = None;
        let mut heads = std::mem::take(&mut self.unwalked);
        for head in heads.drain(..) {
            // Released meanwhile (gone), or released and pinned again
            // (listed twice, walked once).
            if self.pins.get(&head).is_some_and(Vec::is_empty) {
                let refs = self.walk(head);
                self.pins.insert(head, refs);
            }
        }
        self.unwalked = heads;
    }

    /// Protects `head` and its held ancestors; returns the refs protected.
    fn walk(&mut self, head: EventRef) -> Vec<EventRef> {
        let mut refs = vec![head];
        let mut at = self.lookup(head).copied();
        while let Some(rec) = at {
            match rec.cause {
                Some(c) if c.sort_key() < rec.sort_key() => {
                    refs.push(c);
                    at = self.lookup(c).copied();
                }
                _ => break,
            }
        }
        for &r in &refs {
            *self.protected.entry(r).or_insert(0) += 1;
        }
        refs
    }

    /// Releases a chain pinned by [`Self::pin_chain`]; records it was
    /// protecting become ordinary eviction candidates again (ancestors
    /// already moved to the retained buffer stay preserved). A head whose
    /// walk has not run yet protects nothing, so it is simply dropped.
    pub fn release(&mut self, head: EventRef) {
        let Some(refs) = self.pins.remove(&head) else {
            return;
        };
        for r in refs {
            if let Some(count) = self.protected.get_mut(&r) {
                *count -= 1;
                if *count == 0 {
                    self.protected.remove(&r);
                }
            }
        }
    }

    /// Number of records currently held (ring + retained).
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.len() + self.retained.len()
    }

    /// True when nothing has been recorded (or everything was evicted).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records evicted without protection since construction.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The configured ring capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether every append so far arrived in non-decreasing
    /// [`TraceRecord::sort_key`] order, i.e. [`Self::lookup`] still
    /// binary-searches.
    #[must_use]
    pub fn is_ordered(&self) -> bool {
        self.ordered
    }

    /// Finds a held record by identity (first match, retained buffer
    /// before ring) in O(log n), which makes a chain walk O(chain · log n).
    ///
    /// Relies on appends arriving in non-decreasing
    /// [`TraceRecord::sort_key`] order — the simulator's dispatch order —
    /// which keeps the retained buffer and both halves of the ring sorted,
    /// so each is binary-searched. [`Self::record`] detects an append that
    /// breaks the order; from then on every lookup is a linear scan:
    /// slower, never wrong.
    #[must_use]
    pub fn lookup(&self, r: EventRef) -> Option<&TraceRecord> {
        let (front, back) = self.ring.as_slices();
        let mut held = [self.retained.as_slice(), front, back].into_iter();
        if self.ordered {
            held.find_map(|sorted| find_sorted(sorted, r))
        } else {
            held.flatten().find(|rec| rec.self_ref() == r)
        }
    }

    /// Drains the recorder into a [`FlightLog`], merging the retained
    /// buffer back into dispatch order.
    #[must_use]
    pub fn drain(&self) -> FlightLog {
        let mut records: Vec<TraceRecord> = self
            .retained
            .iter()
            .chain(self.ring.iter())
            .copied()
            .collect();
        records.sort_by_key(TraceRecord::sort_key);
        FlightLog {
            records,
            dropped: self.dropped,
        }
    }
}

/// Finds the first record identified by `r` in a slice sorted by
/// [`TraceRecord::sort_key`]. A log assembled from several recorders can
/// hold equal keys side by side, so the equal-key run is scanned for the
/// host.
pub(crate) fn find_sorted(sorted: &[TraceRecord], r: EventRef) -> Option<&TraceRecord> {
    let start = sorted.partition_point(|rec| rec.sort_key() < r.sort_key());
    find_in_run(sorted, start, r).map(|i| &sorted[i])
}

/// [`find_sorted`], returning the record's index, by galloping from
/// `near`, a guess at where `r` sits: O(log distance) instead of
/// O(log n). Any guess gives the same answer; a cause sorts strictly
/// below the record citing it, so from the citer's index the gallop runs
/// backward.
pub(crate) fn find_near(sorted: &[TraceRecord], near: usize, r: EventRef) -> Option<usize> {
    let key = r.sort_key();
    let below = |i: usize| sorted[i].sort_key() < key;
    let near = near.min(sorted.len().checked_sub(1)?);
    // Bracket the lower bound: everything before `lo` sorts below `key`,
    // nothing from `hi` on does.
    let (mut lo, mut hi, mut step) = (0, sorted.len(), 1);
    if below(near) {
        lo = near + 1;
        while let Some(p) = near.checked_add(step).filter(|&p| p < hi) {
            if !below(p) {
                hi = p;
                break;
            }
            (lo, step) = (p + 1, step * 2);
        }
    } else {
        hi = near;
        while let Some(p) = near.checked_sub(step) {
            if below(p) {
                lo = p + 1;
                break;
            }
            (hi, step) = (p, step * 2);
        }
    }
    let start = lo + sorted[lo..hi].partition_point(|rec| rec.sort_key() < key);
    find_in_run(sorted, start, r)
}

/// The index of `r`'s host in the run of `r`'s key starting at `start`.
fn find_in_run(sorted: &[TraceRecord], start: usize, r: EventRef) -> Option<usize> {
    sorted[start..]
        .iter()
        .take_while(|rec| rec.sort_key() == r.sort_key())
        .position(|rec| rec.host == r.host)
        .map(|i| start + i)
}

/// Renders a flight log as Chrome `trace_event` JSON for Perfetto /
/// `chrome://tracing`.
///
/// Layout: one *process* per host (`pid = host + 1`, saturating, so hub
/// records land on `pid = u32::MAX`) with one *thread* track per plane
/// (`tid = plane + 1`; plane-less records land on `tid = 0`). Every
/// record becomes an
/// instant event (`ph: "i"`) at its sim-time in microseconds; `args`
/// carry the seq/sub identity, the kind-specific argument, and the
/// cause ref, so a failover can be walked visually. Only simulation
/// time is exported — the clock rule holds.
///
/// The text goes into one `String` sized up front on the calling thread.
/// A log longer than [`PERFETTO_SERIAL`] records fans out over
/// [`par::workers`] threads: they format blocks of [`PERFETTO_BLOCK`]
/// records, each into one buffer it reuses, and append them in block
/// order ([`par::concat_on`]), so the bytes are the same at any worker
/// count. Each line is built on the stack and copied out whole.
///
/// Up to [`PERFETTO_SERIAL`] records the output is the only allocation
/// when every host is below 2046 or is `u32::MAX`, every plane below 15
/// (true of every simulator log), and the lines average under 192 B.
/// Above it the calling thread adds the few it takes to start the
/// workers, however long the log, and each worker allocates its buffer
/// once.
#[must_use]
pub fn to_perfetto(log: &FlightLog) -> String {
    let workers = if log.records.len() > PERFETTO_SERIAL {
        par::workers()
    } else {
        1
    };
    to_perfetto_on(workers, PERFETTO_BLOCK, log)
}

/// Records per block of a fanned-out [`to_perfetto`]: about 700 KB of
/// text, so each worker's buffer stays under 1 MB.
pub const PERFETTO_BLOCK: usize = 1 << 12;

/// The longest log [`to_perfetto`] writes on the calling thread alone.
pub const PERFETTO_SERIAL: usize = 3 * PERFETTO_BLOCK;

/// [`to_perfetto`] on `workers` threads, in blocks of `block` records.
fn to_perfetto_on(workers: usize, block: usize, log: &FlightLog) -> String {
    let records = &log.records;
    // 175 B per record on the benchmark's `flight32` log; the headroom
    // covers longer runs' wider timestamps without a second allocation.
    let mut head = Vec::with_capacity(128 + records.len() * 192);
    write_tracks(&mut head, log);
    let mut out = String::from_utf8(head).expect("the trace writer emits ASCII only");
    par::concat_on(
        workers,
        records.len().div_ceil(block),
        &mut out,
        |b, buf| {
            let mut line = Line::new();
            for rec in &records[b * block..records.len().min((b + 1) * block)] {
                line.len = 0;
                write_record(&mut line, rec);
                buf.extend_from_slice(&line.bytes[..line.len]);
            }
        },
    );
    out.push_str(TRACE_FOOT);
    out
}

/// `to_perfetto(log).len()`, counted by the same writer without keeping
/// the text: numbers add their digit counts and are never formatted.
#[must_use]
pub fn perfetto_len(log: &FlightLog) -> usize {
    let mut len = ByteCount(0);
    write_tracks(&mut len, log);
    for rec in &log.records {
        write_record(&mut len, rec);
    }
    len.0 + TRACE_FOOT.len()
}

/// The text after the last event line.
const TRACE_FOOT: &str = "\n  ],\n  \"displayTimeUnit\": \"ns\"\n}\n";

/// Where the Perfetto writer puts its bytes: the text itself, or only
/// how long it is.
trait Sink {
    fn put(&mut self, bytes: &[u8]);

    /// `v` in decimal.
    fn put_u64(&mut self, v: u64) {
        let mut buf = [0; 20];
        let digits = &mut buf[..decimal_len(v)];
        write_decimal(digits, v);
        self.put(digits);
    }
}

impl Sink for Vec<u8> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// A [`Sink`] that keeps only the byte count.
struct ByteCount(usize);

impl Sink for ByteCount {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }

    #[inline]
    fn put_u64(&mut self, v: u64) {
        self.0 += decimal_len(v);
    }
}

/// One event line, built on the stack: the longest a record can write is
/// under 300 B (every number at its widest, the label `failover_decision`
/// and a float timestamp), and a longer one would panic on the bounds
/// check, never write past the line.
struct Line {
    bytes: [u8; 320],
    len: usize,
}

impl Line {
    fn new() -> Self {
        Line {
            bytes: [0; 320],
            len: 0,
        }
    }
}

impl Sink for Line {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.bytes[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
    }

    #[inline]
    fn put_u64(&mut self, v: u64) {
        let end = self.len + decimal_len(v);
        write_decimal(&mut self.bytes[self.len..end], v);
        self.len = end;
    }
}

/// The head of [`to_perfetto`]'s document: the opening and the track
/// metadata lines in `(pid, tid)` order.
fn write_tracks(out: &mut impl Sink, log: &FlightLog) {
    out.put(b"{\n  \"traceEvents\": [\n");
    let mut tracks = Tracks::new();
    for rec in &log.records {
        let (pid, tid) = pid_tid(rec);
        tracks.insert(pid, tid);
    }

    // Track names, kind labels and numbers are ASCII with nothing to
    // escape, so nothing goes through `push_string`. Separator before each
    // event line: none before the first.
    let mut sep: &[u8] = b"    ";
    tracks.for_each(|pid, tid| {
        for (meta, process) in [("process_name", true), ("thread_name", false)] {
            out.put(std::mem::replace(&mut sep, b",\n    "));
            out.put(b"{\"name\": \"");
            out.put(meta.as_bytes());
            out.put(b"\", \"ph\": \"M\", \"pid\": ");
            out.put_u64(u64::from(pid));
            out.put(b", \"tid\": ");
            out.put_u64(u64::from(tid));
            out.put(b", \"args\": {\"name\": \"");
            match (process, tid) {
                (true, _) => {
                    out.put(b"host");
                    out.put_u64(u64::from(pid - 1));
                }
                (false, 0) => out.put(b"host"),
                (false, _) => {
                    out.put(b"plane");
                    out.put_u64(u64::from(tid - 1));
                }
            }
            out.put(b"\"}}");
        }
    });
}

/// The Perfetto `(pid, tid)` track a record is drawn on.
fn pid_tid(rec: &TraceRecord) -> (u32, u32) {
    let pid = rec.host.saturating_add(1);
    let tid = rec.plane.map_or(0, |p| u32::from(p) + 1);
    (pid, tid)
}

/// One record's instant event, with the separator before it: a record
/// draws on a track, so a metadata line always comes first.
fn write_record(out: &mut impl Sink, rec: &TraceRecord) {
    let (pid, tid) = pid_tid(rec);
    out.put(b",\n    {\"name\": \"");
    out.put(rec.kind.label().as_bytes());
    out.put(b"\", \"ph\": \"i\", \"s\": \"t\", \"ts\": ");
    push_ts(out, rec.time_ns);
    out.put(b", \"pid\": ");
    out.put_u64(u64::from(pid));
    out.put(b", \"tid\": ");
    out.put_u64(u64::from(tid));
    out.put(b", \"args\": {\"seq\": ");
    out.put_u64(rec.seq);
    out.put(b", \"sub\": ");
    out.put_u64(u64::from(rec.sub));
    out.put(b", \"arg\": ");
    out.put_u64(rec.arg);
    out.put(b", \"cause\": ");
    match rec.cause {
        Some(c) => {
            out.put(b"\"");
            out.put_u64(c.time_ns);
            out.put(b":");
            out.put_u64(c.seq);
            out.put(b":");
            out.put_u64(u64::from(c.host));
            out.put(b":");
            out.put_u64(u64::from(c.sub));
            out.put(b"\"}}");
        }
        None => out.put(b"null}}"),
    }
}

/// The number of decimal digits of `v`: `bits · 1233 / 4096` (≈ `bits ·
/// log₁₀ 2`, from the bit length) is that count or one less, and one
/// comparison with a power of ten decides.
#[inline]
fn decimal_len(v: u64) -> usize {
    /// `10⁰ … 10¹⁹`.
    const POW10: [u64; 20] = {
        let mut pow = [1; 20];
        let mut i = 1;
        while i < 20 {
            pow[i] = pow[i - 1] * 10;
            i += 1;
        }
        pow
    };
    let v = v | 1;
    let log = (((64 - v.leading_zeros()) * 1233) >> 12) as usize;
    log + usize::from(v >= POW10[log])
}

/// `v` in decimal into `digits`, which is exactly [`decimal_len`]`(v)`
/// long, two digits per division.
#[inline]
fn write_decimal(digits: &mut [u8], mut v: u64) {
    /// `"00" "01" … "99"`.
    const PAIRS: [u8; 200] = {
        let mut pairs = [0; 200];
        let mut i = 0;
        while i < 100 {
            pairs[2 * i] = b'0' + (i / 10) as u8;
            pairs[2 * i + 1] = b'0' + (i % 10) as u8;
            i += 1;
        }
        pairs
    };
    let mut i = digits.len();
    while v >= 10 {
        let pair = 2 * (v % 100) as usize;
        i -= 2;
        digits[i..i + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
        v /= 100;
    }
    // An odd digit count's leading digit, or the `0` of zero.
    if i > 0 {
        digits[0] = b'0' + v as u8;
    }
}

/// Timestamps below this many microseconds are written from the integer
/// nanoseconds.
const EXACT_TS_US: u64 = 1 << 43;

/// `time_ns` in microseconds, byte for byte as
/// [`crate::jsonfmt::push_f64`] writes `time_ns as f64 / 1e3`.
///
/// Below 2⁴³ µs the double nearest `time_ns / 1000` is less than half a
/// nanosecond away (its spacing is at most 2⁻¹⁰ µs) and no other decimal
/// with at most three fractional digits rounds to it, so the shortest
/// round-trip form is the exact quotient: whole microseconds, then the
/// remainder's digits with trailing zeros trimmed (`.0` when there is
/// none). Beyond that the float formatter decides.
fn push_ts(out: &mut impl Sink, time_ns: u64) {
    let (us, ns) = (time_ns / 1000, time_ns % 1000);
    if us >= EXACT_TS_US {
        let mut text = String::new();
        crate::jsonfmt::push_f64(&mut text, time_ns as f64 / 1e3);
        out.put(text.as_bytes());
        return;
    }
    out.put_u64(us);
    out.put(b".");
    let digits = [ns / 100, ns / 10 % 10, ns % 10].map(|d| b'0' + d as u8);
    // Trailing zeros trimmed down to one digit: `.0` when exact.
    let len = digits.iter().rposition(|&d| d != b'0').map_or(1, |i| i + 1);
    out.put(&digits[..len]);
}

/// The set of `(pid, tid)` tracks a log draws on, gathered without a tree
/// insert per record: a 4 KiB bitmap over the dense corner every
/// simulator log lives in — pids below [`Tracks::PIDS`] (hosts below
/// 2046) plus the saturated pid `u32::MAX` (the hub records' host), on
/// tids below [`Tracks::TIDS`] (plane-less, or planes below 15; a
/// cluster has at most eight) — and a tree for a track outside it.
struct Tracks {
    /// Bit `row · TIDS + tid`; row `PIDS` stands for pid `u32::MAX`.
    corner: [u64; Tracks::WORDS],
    rest: BTreeSet<(u32, u32)>,
}

impl Tracks {
    const PIDS: u32 = 2047;
    const TIDS: u32 = 16;
    const WORDS: usize = ((Self::PIDS + 1) * Self::TIDS / 64) as usize;

    fn new() -> Self {
        Tracks {
            corner: [0; Self::WORDS],
            rest: BTreeSet::new(),
        }
    }

    fn insert(&mut self, pid: u32, tid: u32) {
        if (pid < Self::PIDS || pid == u32::MAX) && tid < Self::TIDS {
            let bit = (pid.min(Self::PIDS) * Self::TIDS + tid) as usize;
            self.corner[bit / 64] |= 1 << (bit % 64);
        } else {
            self.rest.insert((pid, tid));
        }
    }

    /// Calls `f` on every track in `(pid, tid)` order.
    fn for_each(&self, mut f: impl FnMut(u32, u32)) {
        let mut rest = self.rest.iter().copied().peekable();
        for (w, &word) in self.corner.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let bit = w as u32 * 64 + bits.trailing_zeros();
                bits &= bits - 1;
                let row = bit / Self::TIDS;
                let track = (
                    if row == Self::PIDS { u32::MAX } else { row },
                    bit % Self::TIDS,
                );
                while let Some(earlier) = rest.next_if(|&t| t < track) {
                    f(earlier.0, earlier.1);
                }
                f(track.0, track.1);
            }
        }
        rest.for_each(|(pid, tid)| f(pid, tid));
    }
}

/// Drawn flight logs and a hang guard for the oracle tests here and in
/// [`crate::causal`].
#[cfg(test)]
pub(crate) mod testkit {
    use super::{EventRef, FlightLog, TraceKind, TraceRecord, EXACT_TS_US};
    use crate::rng::Rng;

    const HOSTS: [u32; 8] = [0, 1, 2, 7, 31, 1023, u32::MAX - 1, u32::MAX];
    const PLANES: [Option<u8>; 5] = [None, Some(0), Some(1), Some(3), Some(255)];

    /// An instant from every range the writers treat differently: zero,
    /// small, a round thousand or one either side of it, around 2⁴³ µs,
    /// and up to `u64::MAX`.
    fn draw_time(rng: &mut Rng) -> u64 {
        let edge = EXACT_TS_US * 1000;
        match rng.gen_range(0..6u32) {
            0 => 0,
            1 => rng.gen_range(0..5_000),
            2 => {
                rng.gen_range(0..1_000_000_000u64) / 1000 * 1000 + [0, 1, 999][rng.gen_range(0..3)]
            }
            3 => edge - 5_000 + rng.gen_range(0..10_000),
            4 => u64::MAX - rng.gen_range(0..5_000),
            _ => rng.next_u64(),
        }
    }

    /// A log of about `len` records in dispatch order, as a simulator log
    /// looks: several dispatches per instant, several records per
    /// dispatch, twins under one `(time, seq, sub)` key on other hosts,
    /// every kind including loss records, causes
    /// that name a recent record below the citer, none, or nothing held.
    pub(crate) fn drawn_log(seed: u64, len: usize) -> FlightLog {
        let mut rng = Rng::seed_from_u64(seed);
        let mut times: Vec<u64> = (0..len / 4 + 1).map(|_| draw_time(&mut rng)).collect();
        times.sort_unstable();
        let mut seq = if seed.is_multiple_of(4) {
            u64::MAX - 4 * len as u64
        } else {
            0
        };
        let mut records: Vec<TraceRecord> = Vec::new();
        let draw_cause = |rng: &mut Rng, records: &[TraceRecord], r: &TraceRecord| {
            let recent = &records[records.len().saturating_sub(40)..];
            let cited = match rng.gen_range(0..8u32) {
                0 | 1 => return None,
                // A ref to a record nobody recorded (or the ring evicted).
                2 => EventRef {
                    time_ns: r.time_ns,
                    seq: r.seq - 1,
                    host: 4242,
                    sub: 7,
                },
                _ if recent.is_empty() => return None,
                _ => {
                    let sends = recent.iter().rev().find(|c| c.kind == TraceKind::ProbeSend);
                    match sends {
                        Some(send) if r.kind == TraceKind::ProbeLoss => send.self_ref(),
                        _ => recent[rng.gen_range(0..recent.len())].self_ref(),
                    }
                }
            };
            ((cited.time_ns, cited.seq, cited.sub) < r.sort_key()).then_some(cited)
        };
        for time_ns in times {
            for _ in 0..1 + rng.gen_range(0..3u32) {
                seq += 1 + rng.gen_range(0..3u64);
                for sub in 0..1 + rng.gen_range(0..3u32) {
                    let mut r = TraceRecord {
                        time_ns,
                        seq,
                        sub,
                        kind: TraceKind::ALL[rng.gen_range(0..TraceKind::ALL.len())],
                        host: HOSTS[rng.gen_range(0..HOSTS.len())],
                        plane: PLANES[rng.gen_range(0..PLANES.len())],
                        arg: rng.next_u64() >> rng.gen_range(0..64u32),
                        cause: None,
                    };
                    r.cause = draw_cause(&mut rng, &records, &r);
                    records.push(r);
                    if rng.gen_range(0..6u32) == 0 {
                        let mut twin = r;
                        twin.host = HOSTS[rng.gen_range(0..HOSTS.len())];
                        twin.cause = draw_cause(&mut rng, &records, &twin);
                        if twin.host != r.host {
                            records.push(twin);
                        }
                    }
                }
            }
        }
        FlightLog {
            records,
            dropped: seed,
        }
    }

    /// Runs `f` on a worker thread and fails if it has not returned within
    /// ten seconds: a walk trapped in a cause cycle never returns, nor
    /// does a fan-out whose workers wait for a block that never comes.
    pub(crate) fn returns_within_ten_seconds<T: Send + 'static>(
        f: impl FnOnce() -> T + Send + 'static,
    ) -> T {
        use std::sync::mpsc::{channel, RecvTimeoutError};
        let (tx, rx) = channel();
        let walk = std::thread::spawn(move || {
            let out = f();
            tx.send(()).expect("the waiting test holds the receiver");
            out
        });
        match rx.recv_timeout(std::time::Duration::from_secs(10)) {
            // A walk that panicked dropped the sender: `join` re-raises it.
            Ok(()) | Err(RecvTimeoutError::Disconnected) => {
                walk.join().unwrap_or_else(|e| std::panic::resume_unwind(e))
            }
            Err(RecvTimeoutError::Timeout) => {
                panic!("the call did not return in 10 s: a cause cycle or an unwoken wait")
            }
        }
    }

    /// Fisher–Yates, seeded.
    pub(crate) fn shuffle(records: &mut [TraceRecord], seed: u64) {
        let mut rng = Rng::seed_from_u64(!seed);
        for i in (1..records.len()).rev() {
            records.swap(i, rng.gen_range(0..i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::{drawn_log, returns_within_ten_seconds, shuffle};
    use super::*;

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

    #[test]
    fn records_and_drains_in_order() {
        let mut fr = FlightRecorder::new(8);
        fr.record(rec(10, 1, TraceKind::ProbeSend, None));
        fr.record(rec(20, 2, TraceKind::ProbeRecv, None));
        let log = fr.drain();
        assert_eq!(log.records.len(), 2);
        assert_eq!(log.dropped, 0);
        assert!(log.records[0].time_ns < log.records[1].time_ns);
    }

    #[test]
    fn bounded_ring_drops_oldest_and_counts() {
        let mut fr = FlightRecorder::new(3);
        for i in 0..10 {
            fr.record(rec(i * 10, i, TraceKind::ProbeSend, None));
        }
        assert_eq!(fr.len(), 3);
        assert_eq!(fr.dropped(), 7);
        let log = fr.drain();
        // The three newest survive.
        let seqs: Vec<u64> = log.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9]);
        assert_eq!(log.dropped, 7);
    }

    #[test]
    fn pinned_ancestors_survive_eviction() {
        let mut fr = FlightRecorder::new(4);
        // A causal chain: anchor <- send <- sweep.
        let anchor = rec(10, 1, TraceKind::ProbeRecv, None);
        fr.record(anchor);
        let send = rec(20, 2, TraceKind::ProbeSend, Some(anchor.self_ref()));
        fr.record(send);
        let sweep = rec(30, 3, TraceKind::TimeoutSweep, Some(send.self_ref()));
        fr.record(sweep);
        fr.pin_chain(sweep.self_ref());
        // Flood the ring far past capacity.
        for i in 0..20 {
            fr.record(rec(100 + i, 10 + i, TraceKind::ProbeSend, None));
        }
        // The whole pinned chain is still walkable...
        let log = fr.drain();
        let mut cursor = Some(sweep.self_ref());
        let mut hops = 0;
        while let Some(r) = cursor {
            let hit = log.records.iter().find(|x| x.self_ref() == r);
            assert!(hit.is_some(), "pinned ancestor {r:?} was evicted");
            cursor = hit.unwrap().cause;
            hops += 1;
        }
        assert_eq!(hops, 3);
        // ...while unpinned records were dropped and counted.
        assert!(log.dropped > 0);
        assert_eq!(fr.len(), fr.capacity() + 3, "ring full + 3 retained");
        // Drained log stays sorted despite the retained side buffer.
        let mut sorted = log.records.clone();
        sorted.sort_by_key(TraceRecord::sort_key);
        assert_eq!(log.records, sorted);
    }

    #[test]
    fn release_makes_ancestors_evictable_again() {
        let mut fr = FlightRecorder::new(2);
        let a = rec(10, 1, TraceKind::ProbeSend, None);
        fr.record(a);
        fr.pin_chain(a.self_ref());
        fr.release(a.self_ref());
        fr.record(rec(20, 2, TraceKind::ProbeSend, None));
        fr.record(rec(30, 3, TraceKind::ProbeSend, None));
        fr.record(rec(40, 4, TraceKind::ProbeSend, None));
        assert_eq!(fr.dropped(), 2, "released record evicts normally");
        assert_eq!(fr.len(), 2);
    }

    #[test]
    fn shared_ancestors_stay_protected_until_every_pin_releases() {
        let mut fr = FlightRecorder::new(3);
        let root = rec(10, 1, TraceKind::ProbeRecv, None);
        fr.record(root);
        let b = rec(20, 2, TraceKind::TimeoutSweep, Some(root.self_ref()));
        let c = rec(30, 3, TraceKind::TimeoutSweep, Some(root.self_ref()));
        fr.record(b);
        fr.record(c);
        fr.pin_chain(b.self_ref());
        fr.pin_chain(c.self_ref());
        fr.release(b.self_ref());
        for i in 0..6 {
            fr.record(rec(100 + i, 10 + i, TraceKind::ProbeSend, None));
        }
        // Root is still protected through c's pin.
        assert!(fr.lookup(root.self_ref()).is_some());
    }

    #[test]
    fn perfetto_export_is_deterministic_and_sim_time_only() {
        let anchor = rec(1_000, 1, TraceKind::ProbeRecv, None);
        let sweep = rec(51_000, 2, TraceKind::TimeoutSweep, Some(anchor.self_ref()));
        let log = FlightLog {
            records: vec![anchor, sweep],
            dropped: 0,
        };
        let a = to_perfetto(&log);
        let b = to_perfetto(&log);
        assert_eq!(a, b);
        assert!(a.contains("\"traceEvents\""));
        assert!(a.contains("\"timeout_sweep\""));
        assert!(a.contains("\"ts\": 51.0"), "microsecond timestamps: {a}");
        assert!(a.contains("\"host0\""));
        assert!(a.contains("\"cause\": \"1000:1:0:0\""));
    }

    /// SplitMix64: the repo's seed-expansion generator, inlined because
    /// this crate keeps no dev-dependencies.
    struct SplitMix64(u64);

    impl SplitMix64 {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// The recorder as it was before `lookup` was indexed and before pins
    /// were deferred: same ring and eviction, every pin walked at once,
    /// every lookup a linear scan. The reference the recorder must match
    /// operation for operation. Its walk has no cycle guard, so the
    /// sequences fed to it cite only causes that sort below the citer.
    struct LinearRecorder {
        capacity: usize,
        ring: VecDeque<TraceRecord>,
        retained: Vec<TraceRecord>,
        protected: BTreeMap<EventRef, u32>,
        pins: BTreeMap<EventRef, Vec<EventRef>>,
        dropped: u64,
    }

    impl LinearRecorder {
        fn new(capacity: usize) -> Self {
            LinearRecorder {
                capacity,
                ring: VecDeque::new(),
                retained: Vec::new(),
                protected: BTreeMap::new(),
                pins: BTreeMap::new(),
                dropped: 0,
            }
        }

        fn record(&mut self, rec: TraceRecord) {
            while self.ring.len() >= self.capacity {
                let oldest = self.ring.pop_front().unwrap();
                if self.protected.contains_key(&oldest.self_ref()) {
                    self.retained.push(oldest);
                } else {
                    self.dropped += 1;
                }
            }
            self.ring.push_back(rec);
        }

        fn lookup(&self, r: EventRef) -> Option<&TraceRecord> {
            self.retained
                .iter()
                .chain(self.ring.iter())
                .find(|rec| rec.self_ref() == r)
        }

        fn pin_chain(&mut self, head: EventRef) {
            if self.pins.contains_key(&head) {
                return;
            }
            let mut refs = Vec::new();
            let mut cursor = Some(head);
            while let Some(r) = cursor {
                *self.protected.entry(r).or_insert(0) += 1;
                refs.push(r);
                cursor = self.lookup(r).and_then(|rec| rec.cause);
            }
            self.pins.insert(head, refs);
        }

        fn release(&mut self, head: EventRef) {
            for r in self.pins.remove(&head).unwrap_or_default() {
                let count = self.protected.get_mut(&r).unwrap();
                *count -= 1;
                if *count == 0 {
                    self.protected.remove(&r);
                }
            }
        }

        fn drain(&self) -> FlightLog {
            let mut records: Vec<TraceRecord> = self
                .retained
                .iter()
                .chain(self.ring.iter())
                .copied()
                .collect();
            records.sort_by_key(TraceRecord::sort_key);
            FlightLog {
                records,
                dropped: self.dropped,
            }
        }
    }

    /// Drives the recorder and the eager linear reference through one
    /// seeded sequence of record / pin / release (some pins naming a
    /// record not yet appended) and compares every
    /// observable after every step: lookups, drops, the retained buffer,
    /// and the pin counts once any deferred walk has run. `disorder` makes
    /// one append in 16 go back in time. Returns whether the recorder
    /// still trusts its order, its drop count and its retained length.
    fn matches_eager_linear(
        seed: u64,
        capacity: usize,
        steps: usize,
        disorder: bool,
    ) -> (bool, u64, usize) {
        const HOSTS: [u32; 4] = [0, 1, 2, u32::MAX];
        let mut rng = SplitMix64(seed);
        let mut fr = FlightRecorder::new(capacity);
        let mut reference = LinearRecorder::new(capacity);
        // Every identity ever appended, evicted ones included, so causes,
        // pins and queries keep naming records that are long gone.
        let mut issued: Vec<EventRef> = Vec::new();
        let (mut time_ns, mut seq, mut sub, mut host_ix) = (1_000u64, 1u64, 0u32, 0usize);
        for step in 0..steps {
            match rng.below(8) {
                0 if !issued.is_empty() => {
                    // Sometimes the identity the next dispatch of this
                    // instant will take: a head recorded after its pin.
                    let head = match rng.below(4) {
                        0 => EventRef {
                            time_ns,
                            seq: seq + 1,
                            host: HOSTS[0],
                            sub: 0,
                        },
                        _ => issued[rng.below(issued.len() as u64) as usize],
                    };
                    fr.pin_chain(head);
                    reference.pin_chain(head);
                }
                1 => {
                    // Mostly a pinned head, sometimes a ref never pinned.
                    let head = match reference.pins.keys().nth(rng.below(4) as usize) {
                        Some(&head) => head,
                        None => EventRef {
                            time_ns: 7,
                            seq: step as u64,
                            host: 9,
                            sub: 0,
                        },
                    };
                    fr.release(head);
                    reference.release(head);
                }
                _ => {
                    // Advance the dispatch identity: the same key on
                    // another host, the next sub of the same
                    // dispatch, the next dispatch of the same instant, or
                    // a later instant.
                    match rng.below(4) {
                        0 if host_ix + 1 < HOSTS.len() => host_ix += 1,
                        1 => (sub, host_ix) = (sub + 1, 0),
                        2 => (seq, sub, host_ix) = (seq + 1, 0, 0),
                        _ => {
                            time_ns += 1 + rng.below(50);
                            (seq, sub, host_ix) = (seq + 1, 0, 0);
                        }
                    }
                    let mut r = rec(
                        time_ns,
                        seq,
                        TraceKind::ALL[rng.below(TraceKind::ALL.len() as u64) as usize],
                        None,
                    );
                    r.sub = sub;
                    r.host = HOSTS[host_ix];
                    r.arg = step as u64;
                    if disorder && rng.below(16) == 0 {
                        r.time_ns -= 1 + rng.below(200);
                        r.seq += 1_000_000 + step as u64; // keeps the identity unique
                    }
                    if !issued.is_empty() && rng.below(4) != 0 {
                        // Recent causes build long chains; old ones are
                        // refs to ancestors the ring has already evicted.
                        let back = 1 + rng.below(issued.len().min(2 * capacity + 4) as u64);
                        let cause = issued[issued.len() - back as usize];
                        r.cause = (cause.sort_key() < r.sort_key()).then_some(cause);
                    }
                    issued.push(r.self_ref());
                    fr.record(r);
                    reference.record(r);
                }
            }
            for _ in 0..4 {
                let q = issued.get(rng.below(issued.len() as u64 + 1) as usize);
                let q = q.copied().unwrap_or(EventRef {
                    time_ns,
                    seq,
                    host: 77,
                    sub,
                });
                assert_eq!(
                    fr.lookup(q),
                    reference.lookup(q),
                    "seed {seed} step {step} {q:?}"
                );
            }
            // A deferred walk run now must protect what the eager walks
            // did at pin time: nothing appended since can be an ancestor.
            let mut walked = fr.clone();
            walked.walk_deferred();
            assert_eq!(
                walked.protected, reference.protected,
                "seed {seed} step {step}"
            );
            assert_eq!(fr.retained, reference.retained, "seed {seed} step {step}");
            assert_eq!(fr.dropped(), reference.dropped, "seed {seed} step {step}");
            assert_eq!(fr.len(), reference.ring.len() + reference.retained.len());
        }
        for &q in &issued {
            assert_eq!(fr.lookup(q), reference.lookup(q), "seed {seed} final {q:?}");
        }
        assert_eq!(fr.drain(), reference.drain(), "seed {seed}");
        assert_eq!(fr.ring, reference.ring, "seed {seed}");
        (fr.ordered, fr.dropped(), fr.retained.len())
    }

    #[test]
    fn indexed_lookup_equals_linear_scan_on_dispatch_ordered_appends() {
        for capacity in [1, 2, 64] {
            for seed in 0..24 {
                let (ordered, ..) = matches_eager_linear(0xD125 ^ seed << 8, capacity, 600, false);
                assert!(ordered, "in-order appends must keep the binary search on");
            }
        }
    }

    #[test]
    fn out_of_order_appends_are_detected_and_lookup_stays_exact() {
        for capacity in [1, 2, 64] {
            for seed in 0..24 {
                let (ordered, ..) = matches_eager_linear(0x0DD ^ seed << 8, capacity, 600, true);
                assert!(
                    !ordered,
                    "a backwards append must turn the binary search off"
                );
            }
        }
        // The smallest case: the stale record sits *behind* a newer one, so
        // a binary search that trusted the order would miss it.
        let mut fr = FlightRecorder::new(4);
        let late = rec(30, 3, TraceKind::ProbeSend, None);
        let early = rec(10, 1, TraceKind::ProbeRecv, None);
        fr.record(late);
        fr.record(early);
        fr.record(rec(40, 4, TraceKind::ProbeSend, Some(early.self_ref())));
        assert_eq!(fr.lookup(early.self_ref()), Some(&early));
        assert_eq!(fr.lookup(late.self_ref()), Some(&late));
        assert_eq!(fr.drain().records[0], early, "drain still sorts");
    }

    #[test]
    fn deferred_pins_equal_eager_pins_at_every_capacity() {
        let (mut evicting, mut retaining) = (0, 0);
        for capacity in 1..=64 {
            for seed in 0..4u64 {
                for disorder in [false, true] {
                    let salt = (capacity as u64) << 16 ^ seed << 1 ^ u64::from(disorder);
                    let (_, dropped, retained) =
                        matches_eager_linear(0x1A2F ^ salt, capacity, 400, disorder);
                    evicting += usize::from(dropped > 0);
                    retaining += usize::from(retained > 0);
                }
            }
        }
        // 512 sequences: nearly all wrap their ring, and most move pinned
        // ancestors to the retained buffer before a release frees them.
        assert!(evicting >= 480, "{evicting} sequences evicted");
        assert!(retaining >= 256, "{retaining} sequences retained");
    }

    #[test]
    fn a_ring_that_never_fills_never_walks() {
        let mut fr = FlightRecorder::new(64);
        let mut prev = None;
        for i in 0..32 {
            let r = rec(10 * i, i, TraceKind::ProbeSend, prev);
            fr.record(r);
            prev = Some(r.self_ref());
            fr.pin_chain(r.self_ref());
        }
        assert!(fr.protected.is_empty(), "no walk ran before an eviction");
        assert_eq!((fr.pins.len(), fr.unwalked.len()), (32, 32));
        // The next eviction walks all 32 chains first: record 0 is an
        // ancestor of every one of them and moves to the retained buffer.
        for i in 32..65 {
            fr.record(rec(10 * i, i, TraceKind::ProbeRecv, None));
        }
        assert_eq!(fr.protected.len(), 32);
        assert!(
            fr.unwalked.is_empty(),
            "the next walk visits new heads only"
        );
        assert_eq!(
            fr.protected[&rec(0, 0, TraceKind::ProbeSend, None).self_ref()],
            32
        );
        assert_eq!((fr.retained.len(), fr.dropped()), (1, 0));
    }

    #[test]
    fn a_pinned_cause_cycle_stops_the_walk() {
        let retained = returns_within_ten_seconds(|| {
            let mut fr = FlightRecorder::new(2);
            // A record citing itself.
            let mut own = rec(10, 1, TraceKind::ProbeSend, None);
            own.cause = Some(own.self_ref());
            fr.record(own);
            fr.pin_chain(own.self_ref());
            // Two records citing each other, the second under the first's
            // key on another host too.
            let mut a = rec(20, 2, TraceKind::ProbeSend, None);
            let mut b = rec(30, 3, TraceKind::TimeoutSweep, Some(a.self_ref()));
            a.cause = Some(b.self_ref());
            let mut twin = a;
            twin.host = 5;
            twin.cause = Some(a.self_ref());
            a.cause = Some(twin.self_ref());
            b.cause = Some(a.self_ref());
            for r in [a, twin, b] {
                fr.record(r);
                fr.pin_chain(r.self_ref());
            }
            for i in 0..8 {
                fr.record(rec(100 + i, 10 + i, TraceKind::ProbeRecv, None));
            }
            fr.retained.len()
        });
        assert_eq!(retained, 4, "every pinned record of the cycles survives");
    }

    #[test]
    fn released_pins_leave_no_residue_on_a_wrapped_ring() {
        let mut fr = FlightRecorder::new(64);
        let mut appended = 0u64;
        let mut heads = Vec::new();
        let mut prev: Option<EventRef> = None;
        // 40 blocks of a 10-record chain plus 15 causeless records: each
        // chain is pinned at its head while the next blocks wrap the ring
        // over its ancestors and drop the unpinned filler.
        for i in 0..1_000u64 {
            let cause = if i % 25 == 0 || i % 25 >= 10 {
                None
            } else {
                prev
            };
            let r = rec(10 * i, i, TraceKind::ProbeSend, cause);
            fr.record(r);
            appended += 1;
            prev = Some(r.self_ref());
            if i % 25 == 9 {
                fr.pin_chain(r.self_ref());
                heads.push(r.self_ref());
            }
        }
        assert!(fr.dropped() > 0, "the ring wrapped");
        assert!(
            !fr.retained.is_empty(),
            "pinned ancestors moved to the side buffer"
        );
        assert_eq!(fr.len(), fr.capacity() + fr.retained.len());
        assert_eq!(fr.dropped() + fr.len() as u64, appended);

        let unknown = EventRef {
            time_ns: 5,
            seq: 999_999,
            host: 3,
            sub: 0,
        };
        fr.release(unknown);
        assert_eq!(
            fr.pins.len(),
            heads.len(),
            "releasing an unknown head is a no-op"
        );
        for &head in &heads {
            fr.release(head);
        }
        assert!(fr.pins.is_empty(), "every head released");
        assert!(fr.protected.is_empty(), "no refcount outlives its pins");
        let before = (fr.len(), fr.dropped(), fr.retained.len());
        fr.release(heads[0]);
        fr.release(unknown);
        assert_eq!((fr.len(), fr.dropped(), fr.retained.len()), before);
        assert!(
            fr.protected.is_empty() && fr.pins.is_empty(),
            "double release is a no-op"
        );

        // Released records evict normally; retained ones stay preserved.
        for i in 0..64u64 {
            fr.record(rec(100_000 + i, 10_000 + i, TraceKind::ProbeSend, None));
            appended += 1;
        }
        assert_eq!(fr.retained.len(), before.2);
        assert_eq!(fr.dropped() + fr.len() as u64, appended);
    }

    /// The `core::fmt` writer `to_perfetto` replaced, kept as the
    /// byte-for-byte reference: `BENCH_flight.json` pins `perfetto_bytes`.
    fn to_perfetto_oracle(log: &FlightLog) -> String {
        let mut out = String::with_capacity(128 + log.records.len() * 192);
        out.push_str("{\n  \"traceEvents\": [\n");
        write_trace_events(&mut out, log).expect("fmt::Write for String never fails");
        out.push_str("\n  ],\n  \"displayTimeUnit\": \"ns\"\n}\n");
        out
    }

    fn write_trace_events(out: &mut String, log: &FlightLog) -> std::fmt::Result {
        use crate::jsonfmt::{push_f64, push_string};
        use std::fmt::Write as _;

        fn track_name(tid: u32) -> String {
            if tid == 0 {
                "host".to_string()
            } else {
                format!("plane{}", tid - 1)
            }
        }

        let mut tracks: BTreeMap<(u32, u32), ()> = BTreeMap::new();
        for rec in &log.records {
            tracks.insert(pid_tid(rec), ());
        }

        // Separator before each event line: none before the first.
        let mut sep = "    ";
        for &(pid, tid) in tracks.keys() {
            for (meta, name) in [
                ("process_name", format!("host{}", pid - 1)),
                ("thread_name", track_name(tid)),
            ] {
                out.push_str(std::mem::replace(&mut sep, ",\n    "));
                write!(
                    out,
                    "{{\"name\": \"{meta}\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": {tid}, \
                     \"args\": {{\"name\": "
                )?;
                push_string(out, &name);
                out.push_str("}}");
            }
        }

        for rec in &log.records {
            let (pid, tid) = pid_tid(rec);
            out.push_str(std::mem::replace(&mut sep, ",\n    "));
            write!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"i\", \"s\": \"t\", \"ts\": ",
                rec.kind.label()
            )?;
            push_f64(out, rec.time_ns as f64 / 1e3);
            write!(
                out,
                ", \"pid\": {pid}, \"tid\": {tid}, \"args\": {{\"seq\": {}, \"sub\": {}, \"arg\": {}, \
                 \"cause\": ",
                rec.seq, rec.sub, rec.arg,
            )?;
            match rec.cause {
                Some(c) => write!(out, "\"{}:{}:{}:{}\"}}}}", c.time_ns, c.seq, c.host, c.sub)?,
                None => out.push_str("null}}"),
            }
        }
        Ok(())
    }

    #[test]
    fn decimal_len_counts_the_digits_at_every_edge() {
        let tens = std::iter::successors(Some(1u64), |p| p.checked_mul(10));
        let twos = (0..64).map(|b| 1u64 << b);
        for v in tens
            .chain(twos)
            .flat_map(|p| [p - 1, p, p + 1])
            .chain([u64::MAX])
        {
            assert_eq!(decimal_len(v), v.to_string().len(), "{v}");
            let mut line = Line::new();
            line.put_u64(v);
            assert_eq!(&line.bytes[..line.len], v.to_string().as_bytes());
        }
    }

    #[test]
    fn the_ts_writer_equals_the_float_formatter() {
        use crate::rng::Rng;
        let mut rng = Rng::seed_from_u64(0x7157);
        let (mut ours, mut float) = (Vec::new(), String::new());
        let mut check = |time_ns: u64| {
            ours.clear();
            float.clear();
            push_ts(&mut ours, time_ns);
            crate::jsonfmt::push_f64(&mut float, time_ns as f64 / 1e3);
            assert_eq!(ours, float.as_bytes(), "time_ns {time_ns}");
        };
        let edge = EXACT_TS_US * 1000;
        for time_ns in (0..3_000).chain(edge - 3_000..edge + 3_000) {
            check(time_ns);
        }
        for _ in 0..1_000_000 {
            // Every magnitude from nanoseconds to `u64::MAX`, the exact
            // range's edge and round thousands each a quarter of the time.
            let draw = rng.next_u64();
            let time_ns = match draw % 4 {
                0 => draw >> rng.gen_range(0..64u32),
                1 => edge - 1_000_000 + rng.gen_range(0..2_000_000u64),
                2 => {
                    (draw >> rng.gen_range(10..64u32)) / 1000 * 1000
                        + rng.gen_range(0..3u64) * 999 / 2
                }
                _ => draw,
            };
            check(time_ns);
        }
        for time_ns in [u64::MAX, u64::MAX - 1, 1 << 53, (1 << 53) + 1] {
            check(time_ns);
        }
    }

    #[test]
    fn the_byte_writer_equals_the_fmt_writer_on_drawn_logs() {
        for seed in 0..64 {
            let log = drawn_log(seed, 400);
            assert_eq!(to_perfetto(&log), to_perfetto_oracle(&log), "seed {seed}");
            let mut shuffled = log.clone();
            shuffle(&mut shuffled.records, seed);
            assert_eq!(
                to_perfetto(&shuffled),
                to_perfetto_oracle(&shuffled),
                "seed {seed} shuffled"
            );
        }
        // Hosts just inside and outside the dense track corner, on planes
        // just inside and outside it.
        let mut records = Vec::new();
        for (i, host) in [
            0,
            2044,
            2045,
            2046,
            9_999,
            u32::MAX - 2,
            u32::MAX - 1,
            u32::MAX,
        ]
        .into_iter()
        .enumerate()
        {
            for plane in [None, Some(0), Some(14), Some(15), Some(255)] {
                let mut r = rec(i as u64 * 1_001, i as u64, TraceKind::Fault, None);
                (r.host, r.plane) = (host, plane);
                records.push(r);
            }
        }
        let log = FlightLog {
            records,
            dropped: 0,
        };
        assert_eq!(to_perfetto(&log), to_perfetto_oracle(&log));
    }

    /// The fanned-out export equals the serial writer and the `core::fmt`
    /// reference at every worker count and block size: drawn logs several
    /// blocks long, an empty log, a log of exactly one block, and hosts
    /// and planes outside the dense track corner.
    #[test]
    fn the_fanned_out_export_equals_the_serial_writer() {
        let mut logs: Vec<FlightLog> = (0..3).map(|seed| drawn_log(seed, 13_000)).collect();
        logs.push(FlightLog::default());
        logs.push(FlightLog {
            records: drawn_log(7, 5_000).records[..PERFETTO_BLOCK].to_vec(),
            dropped: 0,
        });
        let mut corner = Vec::new();
        for (i, host) in [2045, 2046, 9_999, u32::MAX - 1, u32::MAX]
            .into_iter()
            .enumerate()
        {
            for plane in [None, Some(14), Some(15), Some(255)] {
                let mut r = rec(i as u64 * 1_001, i as u64, TraceKind::Fault, None);
                (r.host, r.plane) = (host, plane);
                corner.push(r);
            }
        }
        logs.push(FlightLog {
            records: corner,
            dropped: 0,
        });
        for (i, log) in logs.iter().enumerate() {
            let serial = to_perfetto_on(1, log.records.len().max(1), log);
            assert_eq!(serial, to_perfetto_oracle(log), "log {i}");
            assert_eq!(to_perfetto(log), serial, "log {i}");
            assert_eq!(perfetto_len(log), serial.len(), "log {i}");
            for workers in 1..=4 {
                for block in [1, 7, PERFETTO_BLOCK] {
                    let fanned = to_perfetto_on(workers, block, log);
                    assert!(
                        fanned == serial,
                        "log {i}, {workers} workers, block {block}"
                    );
                }
            }
        }
    }

    /// `perfetto_len` runs the writer into a counter: it must count
    /// exactly the bytes `to_perfetto` writes, through every branch —
    /// drawn logs, an empty one, timestamps past the exact range (the
    /// float formatter's branch), hosts outside the dense track corner
    /// and records with and without a cause.
    #[test]
    fn the_byte_count_is_the_length_of_the_text() {
        let mut logs: Vec<FlightLog> = (0..64).map(|seed| drawn_log(seed, 400)).collect();
        logs.push(FlightLog::default());
        let mut far = rec(u64::MAX - 7, 3, TraceKind::Repair, None);
        far.host = u32::MAX - 1;
        let caused = rec(1 << 60, 4, TraceKind::LinkDown, Some(far.self_ref()));
        logs.push(FlightLog {
            records: vec![caused, far],
            dropped: 2,
        });
        for (i, log) in logs.iter().enumerate() {
            assert_eq!(perfetto_len(log), to_perfetto(log).len(), "log {i}");
        }
    }

    #[test]
    fn perfetto_writer_is_byte_identical_to_the_format_reference() {
        let empty = FlightLog::default();
        assert_eq!(to_perfetto(&empty), to_perfetto_oracle(&empty));

        let times = [
            0,
            1,
            999,
            1_000,
            1_500,
            51_000,
            123_456_789,
            9_999_999_999,
            u64::MAX,
        ];
        let mut records = Vec::new();
        for (i, &kind) in TraceKind::ALL.iter().enumerate() {
            for (j, &time_ns) in times.iter().enumerate() {
                let n = (i * times.len() + j) as u64;
                records.push(TraceRecord {
                    time_ns,
                    seq: if n.is_multiple_of(5) {
                        u64::MAX - n
                    } else {
                        n << (n % 40)
                    },
                    sub: if n.is_multiple_of(7) {
                        1 << 31
                    } else {
                        n as u32 % 4
                    },
                    kind,
                    host: [0, 31, 1023, u32::MAX][(n % 4) as usize],
                    plane: [None, Some(0), Some(1), Some(255)][(n / 4 % 4) as usize],
                    arg: [0, n, 1_000_000, u64::MAX][(n / 2 % 4) as usize],
                    cause: (!n.is_multiple_of(3)).then(|| EventRef {
                        time_ns: time_ns / 2,
                        seq: n * 31,
                        host: if n.is_multiple_of(2) {
                            u32::MAX
                        } else {
                            n as u32
                        },
                        sub: n as u32 % 3,
                    }),
                });
            }
        }
        let log = FlightLog {
            records,
            dropped: 3,
        };
        let text = to_perfetto(&log);
        assert_eq!(text, to_perfetto_oracle(&log));
        for needle in [
            "\"plane255\"",
            "\"ts\": 1.5,",
            "\"ts\": 51.0,",
            "\"cause\": null",
        ] {
            assert!(text.contains(needle), "log does not cover {needle}");
        }
        assert!(text.contains(&format!("\"arg\": {}", u64::MAX)));
    }
}
