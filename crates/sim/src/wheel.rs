//! The event kernel's priority queue: a hierarchical timer wheel.
//!
//! The simulator's workload is overwhelmingly *periodic short-horizon
//! timers* — `O(K·N²)` probe timers, timeouts and frame arrivals per
//! monitor cycle — exactly the regime where Varghese & Lauck's bucketed
//! timing wheels beat an `O(log n)` binary heap. This wheel replaces the
//! former global `BinaryHeap` while keeping pop order **bit-identical**:
//! entries pop in strictly ascending `(at, seq)` order, the same total
//! order the heap used (see `naive_heap` for the retained reference
//! implementation and the property tests that prove the equivalence on
//! randomized schedules).
//!
//! # Structure
//!
//! Six levels of 64 slots each. A level-0 slot covers one *grain* of
//! 2¹⁴ ns ([`GRAIN_NS`], 16.384 µs); each level up widens slots by 64×:
//!
//! | level | slot span | rotation (64 slots) |
//! |---|---|---|
//! | 0 | 16.4 µs | 1.05 ms |
//! | 1 | 1.05 ms | 67.1 ms |
//! | 2 | 67.1 ms | 4.29 s |
//! | 3 | 4.29 s | 4.58 min |
//! | 4 | 4.58 min | 4.89 h |
//! | 5 | 4.89 h | 313 h |
//!
//! An entry goes to the lowest level whose rotation holds its delta from
//! the cursor, so the wheel spans `64⁶` grains = 2⁵⁰ ns ≈ 313 h of virtual
//! time. Entries further out than that live in an **overflow** binary
//! heap (far-future faults, absurd RTO tails) and migrate into the wheel
//! as the clock approaches them. The grain puts the probe monitor's
//! 50 ms timeout on level 1 (one cascade) and its 200 ms re-arm on
//! level 2 (two).
//!
//! * **push** is O(1): find the level from the delta's bit length, index
//!   the slot, append.
//! * **pop** drains the earliest occupied level-0 slot into a small
//!   `ready` buffer (sorted once per slot; a slot keeps its entries in
//!   push order, so one filled in time order sorts in a single pass),
//!   then serves from it. Occupancy bitmaps (one `u64` per level) make
//!   "find the next non-empty slot" a couple of bit operations, so idle
//!   stretches are skipped without scanning. When the overflow is empty,
//!   the next occupied level-0 slot of the cursor's rotation is drained
//!   directly, without looking at the other levels: every higher-level
//!   window then starts at a later rotation.
//! * **cascade** redistributes a higher-level slot into the levels below
//!   when the clock enters its window, exactly like a hardware timer
//!   wheel.
//!
//! # Allocation discipline
//!
//! A slot holds a linked list of fixed-size chunks of [`CHUNK`] entries,
//! all taken from one free list and returned to it when the slot drains
//! or cascades: storage one burst used serves the next in any slot at any
//! level, and nothing is reallocated or copied to grow. Chunks are
//! allocated only when the free list is empty, an eighth more than exist
//! (at least four) at a time, so once the queue has reached its usual
//! peak depth a later peak a few partly filled chunks higher finds them
//! free. The ready buffer keeps its storage between grains. In steady
//! state the probe path therefore schedules and delivers frames with
//! **zero heap allocation** — pinned, with the simulator's frame-box
//! recycling, by `tests/alloc_pin.rs` — and [`WheelStats`] counts chunk
//! takes (`pool_hits` served by the free list, `pool_misses` that had to
//! allocate) alongside push/pop/cascade counts, so regressions show up
//! in the committed kernel benchmark artifact.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use drs_core::SimTime;

/// log₂ of the level-0 grain in nanoseconds.
const GRAIN_BITS: u32 = 14;
/// The level-0 grain: the width of one level-0 slot, in nanoseconds.
pub const GRAIN_NS: u64 = 1 << GRAIN_BITS;
/// log₂ of the slots per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Number of wheel levels; beyond `64^LEVELS` grains lies the overflow.
const LEVELS: usize = 6;

/// Grains the wheel proper can represent ahead of the cursor.
const HORIZON_GRAINS: u64 = 1 << (SLOT_BITS * LEVELS as u32);

/// Entries per slot chunk: 4 KiB of the simulator's 32 B events. Fewer,
/// larger chunks make filling a fresh wheel cheap (each is one
/// allocation), at the cost of one partly filled chunk per occupied slot.
pub const CHUNK: usize = 128;
/// End of a chunk list.
const NIL: u32 = u32::MAX;

/// One queued event: its due time, the global tie-break sequence number,
/// and the payload.
#[derive(Debug)]
struct Entry<T> {
    at: u64,
    seq: u64,
    val: T,
}

/// Overflow-heap wrapper ordering entries as a min-heap on `(at, seq)`.
#[derive(Debug)]
struct OverflowEntry<T>(Entry<T>);

impl<T> PartialEq for OverflowEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.at == other.0.at && self.0.seq == other.0.seq
    }
}
impl<T> Eq for OverflowEntry<T> {}
impl<T> PartialOrd for OverflowEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for OverflowEntry<T> {
    // Reversed so the max-heap pops the earliest (at, seq) first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.0.at, other.0.seq).cmp(&(self.0.at, self.0.seq))
    }
}

/// Deterministic operation counts of one wheel's lifetime.
///
/// Pure event-count bookkeeping — no wall clock — so the committed
/// `BENCH_kernel.json` artifact can track the kernel's workload shape
/// byte-reproducibly across machines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WheelStats {
    /// Entries pushed (wheel levels and overflow combined).
    pub pushes: u64,
    /// Entries popped.
    pub pops: u64,
    /// Pushes that landed in the far-future overflow heap.
    pub overflow_pushes: u64,
    /// Entries migrated from the overflow heap into the wheel.
    pub overflow_migrations: u64,
    /// Higher-level slots redistributed into lower levels.
    pub cascades: u64,
    /// Level-0 slots drained (each drain sorts one small buffer).
    pub slot_drains: u64,
    /// Pushes that went straight into the sorted ready buffer (due
    /// within the current grain).
    pub ready_inserts: u64,
    /// Slot chunks taken from the free list.
    pub pool_hits: u64,
    /// Slot chunk takes that found the free list empty and allocated.
    pub pool_misses: u64,
    /// High-water mark of queued entries.
    pub max_depth: u64,
}

/// Up to [`CHUNK`] entries of one slot, or a spare on the free list.
#[derive(Debug)]
struct Chunk<T> {
    /// Allocated once at [`CHUNK`] capacity and never grown.
    entries: Vec<Entry<T>>,
    /// The next chunk of the same list, or [`NIL`].
    next: u32,
}

/// A hierarchical timer wheel over `(SimTime, seq)`-keyed events.
///
/// Pop order is exactly ascending `(at, seq)` — bit-identical to a
/// `BinaryHeap` min-queue over the same keys. Callers must never push an
/// entry earlier than the last popped `at` (the simulator core clamps
/// past-time schedules to `now` before they reach the wheel).
#[derive(Debug)]
pub struct TimerWheel<T> {
    /// `heads[l][s]`: the oldest chunk of slot `s` of level `l`, or
    /// [`NIL`]. A slot's list runs oldest to newest, so its entries
    /// leave in the order they were pushed.
    heads: [[u32; SLOTS]; LEVELS],
    /// `tails[l][s]`: the newest chunk of the slot, the one being filled.
    tails: [[u32; SLOTS]; LEVELS],
    /// One occupancy bit per slot, per level.
    occupancy: [u64; LEVELS],
    /// Every chunk ever allocated, indexed by the lists.
    chunks: Vec<Chunk<T>>,
    /// Head of the free list of empty chunks.
    free: u32,
    /// Cursor: the grain of the most recently popped entry.
    cur: u64,
    /// Entries of the current grain, sorted descending so `pop` is a
    /// cheap truncation from the back.
    ready: Vec<Entry<T>>,
    /// Far-future entries (≥ `HORIZON_GRAINS` ahead of the cursor).
    overflow: BinaryHeap<OverflowEntry<T>>,
    /// Queued entries (wheel + ready + overflow).
    len: usize,
    /// Deterministic operation counters.
    stats: WheelStats,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimerWheel<T> {
    /// An empty wheel with its cursor at the simulation epoch.
    #[must_use]
    pub fn new() -> Self {
        TimerWheel {
            heads: [[NIL; SLOTS]; LEVELS],
            tails: [[NIL; SLOTS]; LEVELS],
            occupancy: [0; LEVELS],
            chunks: Vec::new(),
            free: NIL,
            cur: 0,
            ready: Vec::new(),
            overflow: BinaryHeap::new(),
            len: 0,
            stats: WheelStats::default(),
        }
    }

    /// Number of queued events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The deterministic operation counters.
    #[must_use]
    pub fn stats(&self) -> &WheelStats {
        &self.stats
    }

    /// Pushes an event due at `at` with tie-break `seq`.
    ///
    /// `at` must be no earlier than the last popped entry's time; the
    /// simulator core guarantees this by clamping. It *may* precede the
    /// cursor — [`peek`](Self::peek) stages the next occupied grain, which
    /// can lie past the caller's clock — and then merges into the ready
    /// buffer in `(at, seq)` order. `seq` must be unique and increasing
    /// across pushes (the core's counter).
    pub fn push(&mut self, at: SimTime, seq: u64, val: T) {
        let at = at.0;
        self.len += 1;
        self.stats.pushes += 1;
        self.stats.max_depth = self.stats.max_depth.max(self.len as u64);
        let entry = Entry { at, seq, val };
        self.place(entry);
    }

    /// Routes an entry to the ready buffer, a wheel slot, or overflow.
    fn place(&mut self, entry: Entry<T>) {
        let grain = entry.at >> GRAIN_BITS;
        let delta = grain - self.cur.min(grain);
        if delta == 0 {
            // Due within the grain currently being drained: merge into
            // the sorted ready buffer so `(at, seq)` order holds even
            // against entries already staged there.
            self.stats.ready_inserts += 1;
            let key = (entry.at, entry.seq);
            let idx = self.ready.partition_point(|e| (e.at, e.seq) > key);
            self.ready.insert(idx, entry);
            return;
        }
        if delta >= HORIZON_GRAINS {
            self.stats.overflow_pushes += 1;
            self.overflow.push(OverflowEntry(entry));
            return;
        }
        // floor(log64(delta)) — delta >= 1 here.
        let level = ((63 - delta.leading_zeros()) / SLOT_BITS) as usize;
        let slot = ((grain >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        let tail = self.tails[level][slot];
        let tail = if tail != NIL && self.chunks[tail as usize].entries.len() < CHUNK {
            tail
        } else {
            // A cold or full slot links a fresh chunk at its end.
            let chunk = self.take_chunk();
            if tail == NIL {
                self.heads[level][slot] = chunk;
                self.occupancy[level] |= 1 << slot;
            } else {
                self.chunks[tail as usize].next = chunk;
            }
            self.tails[level][slot] = chunk;
            chunk
        };
        self.chunks[tail as usize].entries.push(entry);
    }

    /// An empty, unlinked chunk from the free list. An empty list first
    /// gets an eighth as many new chunks as exist, at least four: every
    /// occupied slot holds a partly filled last chunk, so the chunks in
    /// use wobble with how the entries fall on the slots, and a later
    /// peak a few chunks above the one that allocated finds them free.
    fn take_chunk(&mut self) -> u32 {
        if self.free == NIL {
            self.stats.pool_misses += 1;
            for _ in 0..(self.chunks.len() / 8).max(4) {
                self.chunks.push(Chunk {
                    entries: Vec::with_capacity(CHUNK),
                    next: self.free,
                });
                self.free = (self.chunks.len() - 1) as u32;
            }
        } else {
            self.stats.pool_hits += 1;
        }
        let id = self.free;
        self.free = std::mem::replace(&mut self.chunks[id as usize].next, NIL);
        id
    }

    /// Unlinks the emptied chunk `id` onto the free list and returns the
    /// chunk that followed it.
    fn release_chunk(&mut self, id: u32) -> u32 {
        let chunk = &mut self.chunks[id as usize];
        let next = std::mem::replace(&mut chunk.next, self.free);
        self.free = id;
        next
    }

    /// Empties slot `slot` of level `level` and returns its chunk list.
    fn take_slot(&mut self, level: usize, slot: usize) -> u32 {
        self.occupancy[level] &= !(1 << slot);
        self.tails[level][slot] = NIL;
        std::mem::replace(&mut self.heads[level][slot], NIL)
    }

    /// The `(at, seq)` key of the next event, without popping it.
    pub fn peek(&mut self) -> Option<(SimTime, u64)> {
        if self.ready.is_empty() {
            self.fill_ready();
        }
        self.ready.last().map(|e| (SimTime(e.at), e.seq))
    }

    /// Pops the earliest event as `(at, seq, payload)`. The emptied ready
    /// buffer keeps its storage: the next push due in the cursor's grain
    /// lands there without allocating.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        if self.ready.is_empty() {
            self.fill_ready();
        }
        let entry = self.ready.pop()?;
        self.len -= 1;
        self.stats.pops += 1;
        Some((SimTime(entry.at), entry.seq, entry.val))
    }

    /// Advances the cursor to the next occupied grain and stages that
    /// grain's entries, sorted, into the ready buffer, which is empty on
    /// entry.
    ///
    /// One grain's entries can be spread across several structures at
    /// once (a level-0 slot, one bucket per higher level, and the ready
    /// buffer itself — each populated at a different push epoch), so the
    /// loop keeps draining and cascading until every source whose window
    /// starts at the cursor grain has been merged into `ready`.
    fn fill_ready(&mut self) {
        if self.overflow.is_empty() {
            // Fast path. Between calls every higher-level window starts
            // after the cursor (the ones starting at it were cascaded
            // before the last drain) and, being aligned to a whole
            // level-0 rotation, at the next rotation or later; so the
            // next occupied level-0 slot of this rotation holds the
            // earliest grain. Inside the loop below that no longer
            // holds: a cascade leaves the cursor at its window's start,
            // where a lower level's window may start too, and may have
            // staged entries of that grain already.
            let pos = self.cur & (SLOTS as u64 - 1);
            let ahead = self.occupancy[0] & (u64::MAX << pos);
            if ahead != 0 {
                let slot = ahead.trailing_zeros();
                self.cur = self.cur - pos + u64::from(slot);
                self.drain_level0(slot as usize);
                return;
            }
        }
        loop {
            // Migrate overflow entries that now fit the wheel horizon, so
            // the wheel scan below always sees the true minimum.
            while let Some(head) = self.overflow.peek() {
                let grain = head.0.at >> GRAIN_BITS;
                if grain - self.cur < HORIZON_GRAINS {
                    let entry = self.overflow.pop().expect("peeked").0;
                    self.stats.overflow_migrations += 1;
                    self.place(entry);
                } else {
                    break;
                }
            }
            // Earliest candidate window per level, as (start_grain, level, slot).
            // On equal window starts the higher level wins: its entries
            // must cascade down before the shared grain can be served in
            // order.
            let mut best: Option<(u64, usize, usize)> = None;
            for level in 0..LEVELS {
                if let Some((start, slot)) = self.earliest_window(level) {
                    if best.is_none_or(|(bs, _, _)| start <= bs) {
                        best = Some((start, level, slot));
                    }
                }
            }
            let Some((start, level, slot)) = best else {
                if self.ready.is_empty() {
                    // Wheel empty; far-future overflow only. Jump the
                    // cursor so the migration loop can admit the head.
                    if let Some(head) = self.overflow.peek() {
                        self.cur = head.0.at >> GRAIN_BITS;
                        continue;
                    }
                }
                return;
            };
            if !self.ready.is_empty() && start > self.cur {
                // The staged grain is complete; later windows wait.
                return;
            }
            self.cur = start;
            if level == 0 {
                // The grain is complete. Level 0 won only because no
                // higher window starts at or before it (ties go to the
                // higher level), and overflow entries that fit the
                // horizon were migrated at the top of this pass, so
                // another pass would stage nothing.
                self.drain_level0(slot);
                return;
            }
            // Higher-level slot: redistribute into the levels below (and
            // into `ready` for entries due in the cursor grain itself).
            self.stats.cascades += 1;
            let mut id = self.take_slot(level, slot);
            while id != NIL {
                let mut entries = std::mem::take(&mut self.chunks[id as usize].entries);
                for entry in entries.drain(..) {
                    self.place(entry);
                }
                self.chunks[id as usize].entries = entries;
                id = self.release_chunk(id);
            }
        }
    }

    /// Moves level-0 slot `slot`, one grain's worth of entries, into the
    /// ready buffer, sorted descending so pops truncate from the back in
    /// ascending `(at, seq)` order.
    fn drain_level0(&mut self, slot: usize) {
        self.stats.slot_drains += 1;
        let mut id = self.take_slot(0, slot);
        while id != NIL {
            self.ready.append(&mut self.chunks[id as usize].entries);
            id = self.release_chunk(id);
        }
        self.ready
            .sort_unstable_by_key(|e| std::cmp::Reverse((e.at, e.seq)));
    }

    /// The earliest occupied window of `level`, as its absolute start
    /// grain and slot index, honouring rotation wrap-around.
    fn earliest_window(&self, level: usize) -> Option<(u64, usize)> {
        let occ = self.occupancy[level];
        if occ == 0 {
            return None;
        }
        let shift = SLOT_BITS * level as u32;
        let pos = ((self.cur >> shift) & (SLOTS as u64 - 1)) as u32;
        let span = 1u64 << shift; // grains per slot at this level
        let rotation = 1u64 << (shift + SLOT_BITS); // grains per full turn
        let base = self.cur & !(rotation - 1);
        // Slots strictly after the cursor's position belong to this
        // rotation; slots strictly before it hold next-rotation entries.
        // The cursor's own slot is ambiguous and the cursor's alignment
        // disambiguates it. Aligned (cursor exactly at the window start,
        // reached by draining a same-start higher-level window): the slot
        // is this rotation, still waiting to drain — a wrapped entry
        // there would need a delta of at least a full rotation, which
        // places at a higher level. Unaligned: a this-rotation entry here
        // would have a sub-span delta and live at a *lower* level, so
        // the slot can only hold entries that wrapped past the rotation
        // boundary at placement time (e.g. an overflow migration almost
        // a full rotation ahead); reading those as this-rotation would
        // compute a window start before the cursor and drag it backwards
        // — a livelock.
        let ahead = if self.cur & (span - 1) == 0 {
            occ >> pos
        } else {
            (occ >> pos) & !1
        };
        if ahead != 0 {
            let slot = pos + ahead.trailing_zeros();
            Some((base + u64::from(slot) * span, slot as usize))
        } else {
            let slot = occ.trailing_zeros();
            Some((base + rotation + u64::from(slot) * span, slot as usize))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut TimerWheel<u32>) -> Vec<(u64, u64, u32)> {
        let mut out = Vec::new();
        while let Some((at, seq, v)) = w.pop() {
            out.push((at.0, seq, v));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimerWheel::new();
        w.push(SimTime(500), 2, 20);
        w.push(SimTime(100), 1, 10);
        w.push(SimTime(100), 0, 0);
        w.push(SimTime(7_000_000_000), 3, 30); // far slot
        assert_eq!(w.len(), 4);
        assert_eq!(
            drain(&mut w),
            vec![
                (100, 0, 0),
                (100, 1, 10),
                (500, 2, 20),
                (7_000_000_000, 3, 30)
            ]
        );
        assert!(w.is_empty());
    }

    #[test]
    fn same_grain_burst_sorts_by_seq() {
        let mut w = TimerWheel::new();
        // All within the first grain, pushed out of order.
        for (seq, at) in [(0u64, 4000u64), (1, 1000), (2, 4000), (3, 2)] {
            w.push(SimTime(at), seq, seq as u32);
        }
        assert_eq!(
            drain(&mut w),
            vec![(2, 3, 3), (1000, 1, 1), (4000, 0, 0), (4000, 2, 2)]
        );
    }

    #[test]
    fn push_at_popped_instant_lands_behind_equal_times() {
        let mut w = TimerWheel::new();
        w.push(SimTime(1000), 0, 0);
        w.push(SimTime(1000), 1, 1);
        let first = w.pop().unwrap();
        assert_eq!((first.0 .0, first.1), (1000, 0));
        // Schedule at the instant just popped: must come after seq 1.
        w.push(SimTime(1000), 2, 2);
        assert_eq!(drain(&mut w), vec![(1000, 1, 1), (1000, 2, 2)]);
    }

    #[test]
    fn push_behind_a_peeked_cursor_pops_first() {
        // `World::run_until` peeks past its deadline, then callers
        // schedule at `now`: the entry lands behind the advanced cursor.
        let mut w = TimerWheel::new();
        let later = 500 << GRAIN_BITS;
        w.push(SimTime(later), 0, 0);
        assert_eq!(w.peek(), Some((SimTime(later), 0)));
        w.push(SimTime(1000), 1, 1);
        w.push(SimTime(later), 2, 2);
        assert_eq!(
            drain(&mut w),
            vec![(1000, 1, 1), (later, 0, 0), (later, 2, 2)]
        );
    }

    #[test]
    fn far_future_goes_through_overflow_and_returns() {
        let mut w = TimerWheel::new();
        let far = (HORIZON_GRAINS + 5) << GRAIN_BITS;
        w.push(SimTime(far), 0, 7);
        assert_eq!(w.stats().overflow_pushes, 1);
        w.push(SimTime(50), 1, 1);
        assert_eq!(drain(&mut w), vec![(50, 1, 1), (far, 0, 7)]);
        assert_eq!(w.stats().overflow_migrations, 1);
    }

    #[test]
    fn cascades_preserve_order_across_level_boundaries() {
        let mut w = TimerWheel::new();
        // Straddle a level-1 window: grains 63 and 64 are adjacent but
        // live in different level-1 slots (and 64 wraps level 0).
        let g = |grain: u64, off: u64| SimTime((grain << GRAIN_BITS) + off);
        w.push(g(64, 10), 0, 0);
        w.push(g(63, 99), 1, 1);
        w.push(g(64, 5), 2, 2);
        w.push(g(4097, 0), 3, 3); // level-2 territory
        let order: Vec<u64> = drain(&mut w).iter().map(|e| e.1).collect();
        assert_eq!(order, vec![1, 2, 0, 3]);
    }

    #[test]
    fn wrapped_slot_at_cursor_position_is_next_rotation() {
        let g = |grain: u64| SimTime(grain << GRAIN_BITS);
        let mut w = TimerWheel::new();
        w.push(g(4106), 0, 0);
        assert_eq!(w.pop().unwrap().1, 0);
        // Cursor sits at grain 4106 — level-1 slot position 0. An entry
        // almost a full level-1 rotation (4096 grains) ahead wraps past
        // the rotation boundary into that same slot position; it must be
        // read as next-rotation, not as a window starting before the
        // cursor (which livelocked the fill loop).
        w.push(g(2 * 4096 + 5), 1, 1);
        w.push(g(4200), 2, 2);
        assert_eq!(
            drain(&mut w),
            vec![(4200 << GRAIN_BITS, 2, 2), (8197 << GRAIN_BITS, 1, 1)]
        );
    }

    /// Length of the chunk list starting at `id`.
    fn list_len(w: &TimerWheel<u32>, mut id: u32) -> usize {
        let mut n = 0;
        while id != NIL {
            n += 1;
            id = w.chunks[id as usize].next;
        }
        n
    }

    /// Chunks linked into slots, and chunks on the free list; together
    /// they must account for every chunk ever allocated.
    fn chunk_census(w: &TimerWheel<u32>) -> (usize, usize) {
        let linked = w.heads.iter().flatten().map(|&h| list_len(w, h)).sum();
        let free = list_len(w, w.free);
        assert_eq!(linked + free, w.chunks.len(), "a chunk leaked");
        (linked, free)
    }

    #[test]
    fn a_repeating_burst_reuses_its_chunks() {
        // Each round: lone entries in eight cold slots, then a burst of a
        // few chunks in a ninth, all pushed before anything pops. Every chunk
        // the first round allocated serves the same slots' loads again,
        // so from round 3 on nothing is allocated and nothing grows.
        let mut w = TimerWheel::new();
        let mut seq = 0;
        let mut storage = Vec::new();
        let burst = 2 * CHUNK + 44;
        for round in 0..8u64 {
            let base = round * 100_000_000;
            for i in 0..8 {
                w.push(SimTime(base + 1_000_000 + i * 100_000), seq, 0);
                seq += 1;
            }
            for _ in 0..burst {
                w.push(SimTime(base + 3_000_000), seq, 1);
                seq += 1;
            }
            while w.pop().is_some() {}
            storage.push((w.chunks.len(), w.ready.capacity(), w.stats().pool_misses));
        }
        assert!(storage[2..].iter().all(|&s| s == storage[2]), "{storage:?}");
        // About the most entries ever queued at once, in chunks.
        assert!(
            storage[0].0 <= 2 * (8 + burst.div_ceil(CHUNK)),
            "{storage:?}"
        );
        let s = w.stats();
        assert!(s.pool_hits > 7 * w.chunks.len() as u64, "{s:?}");
    }

    #[test]
    fn drained_and_cascaded_slots_return_every_chunk() {
        // Four chunks' worth of entries in each of three higher-level
        // slots, spread over several grains so cascades refill lower
        // levels: after every pop, each chunk is linked into a slot or
        // free, and a slot that drained or cascaded holds none.
        let mut w = TimerWheel::new();
        let grain = |g: u64| SimTime(g * GRAIN_NS);
        let mut seq = 0;
        let per_slot = 3 * CHUNK as u64 + 5;
        for window in [70u64, 5_000, 300_000] {
            for i in 0..per_slot {
                w.push(grain(window + i % 7), seq, 0);
                seq += 1;
            }
        }
        let (linked, free) = chunk_census(&w);
        assert_eq!((linked, free), (3 * 4, 0));
        while w.pop().is_some() {
            chunk_census(&w);
        }
        assert!(w.stats().cascades >= 3, "{:?}", w.stats());
        assert!(w.heads.iter().chain(&w.tails).flatten().all(|&h| h == NIL));
        assert_eq!(w.occupancy, [0; LEVELS]);
        let (linked, free) = chunk_census(&w);
        assert_eq!((linked, free), (0, w.chunks.len()));
    }

    #[test]
    fn interleaved_push_pop_keeps_global_order() {
        // Mimics the simulator: every pop schedules a few near-future
        // events; order must stay ascending throughout.
        let mut w = TimerWheel::new();
        let mut seq = 0u64;
        let mut push = |w: &mut TimerWheel<u32>, at: u64| {
            w.push(SimTime(at), seq, 0);
            seq += 1;
        };
        push(&mut w, 0);
        let mut last = (0u64, 0u64);
        let mut popped = 0;
        while let Some((at, s, _)) = w.pop() {
            assert!((at.0, s) >= last, "order violated at {at:?}/{s}");
            last = (at.0, s);
            popped += 1;
            if popped < 500 {
                push(&mut w, at.0 + 11_000); // ~arrival delay
                push(&mut w, at.0 + 200_000_000); // ~probe re-arm
                if popped % 7 == 0 {
                    push(&mut w, at.0); // same-instant event
                }
            }
        }
        assert!(w.is_empty());
    }
}
