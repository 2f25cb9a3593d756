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
//! 2¹² ns (4.096 µs); each level up widens slots by 64×, so the wheel
//! spans `64⁶` grains ≈ 78 h of virtual time. Entries further out than
//! that live in an **overflow** binary heap (far-future faults, absurd
//! RTO tails) and migrate into the wheel as the clock approaches them.
//!
//! * **push** is O(1): find the level from the delta's bit length, index
//!   the slot, append.
//! * **pop** drains the earliest occupied level-0 slot into a small
//!   `ready` buffer (sorted once per slot — slots are a few µs wide, so
//!   bursts are tiny), then serves from it. Occupancy bitmaps (one
//!   `u64` per level) make "find the next non-empty slot" a couple of
//!   bit operations, so idle stretches are skipped without scanning.
//! * **cascade** redistributes a higher-level slot into the levels below
//!   when the clock enters its window, exactly like a hardware timer
//!   wheel.
//!
//! # Allocation discipline
//!
//! Slot buffers are recycled through an internal spare-buffer pool: when
//! a drained buffer empties it returns to the pool, and the next slot
//! that needs storage reuses it instead of allocating. The pool keeps its
//! buffers by size class: a cold slot takes the smallest spare, and a
//! slot that fills up trades its buffer for the smallest spare that fits
//! before it reallocates, so the storage one burst grew serves the next
//! instead of being lent to a slot holding three entries. The ready
//! buffer keeps its storage between grains and takes the larger of itself
//! and each drained level-0 slot. In steady state the probe path
//! therefore schedules and delivers frames with **zero heap allocation**
//! — pinned, with the simulator's frame-box recycling, by
//! `tests/alloc_pin.rs` at the paper's N = 16 and 90 — and
//! [`WheelStats`] tracks the pool hit rate alongside push/pop/cascade
//! counts so regressions show up in the committed kernel benchmark
//! artifact.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use drs_core::SimTime;

/// log₂ of the level-0 grain in nanoseconds (4.096 µs).
const GRAIN_BITS: u32 = 12;
/// log₂ of the slots per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Number of wheel levels; beyond `64^LEVELS` grains lies the overflow.
const LEVELS: usize = 6;

/// Grains the wheel proper can represent ahead of the cursor.
const HORIZON_GRAINS: u64 = 1 << (SLOT_BITS * LEVELS as u32);

/// Most spare buffers a wheel can ever put to use at once: one per slot
/// across all levels, plus the ready buffer and one in-flight drain.
/// Pre-sizing a pool beyond this only wastes memory.
pub const MAX_USEFUL_SPARE: usize = LEVELS * SLOTS + 2;

/// One queued event: its due time, the global tie-break sequence number,
/// and the payload.
#[derive(Debug, Clone)]
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
    /// Slot buffers reused from the spare pool.
    pub pool_hits: u64,
    /// Slot buffers freshly allocated because the pool was empty.
    pub pool_misses: u64,
    /// High-water mark of queued entries.
    pub max_depth: u64,
}

impl WheelStats {
    /// Folds another wheel's counters into this one. Counters add;
    /// `max_depth` takes the maximum (per-wheel high-water marks at
    /// different instants don't sum to a global one).
    pub fn merge(&mut self, other: &WheelStats) {
        self.pushes += other.pushes;
        self.pops += other.pops;
        self.overflow_pushes += other.overflow_pushes;
        self.overflow_migrations += other.overflow_migrations;
        self.cascades += other.cascades;
        self.slot_drains += other.slot_drains;
        self.ready_inserts += other.ready_inserts;
        self.pool_hits += other.pool_hits;
        self.pool_misses += other.pool_misses;
        self.max_depth = self.max_depth.max(other.max_depth);
    }
}

/// Size classes of spare buffers: class `c` holds capacities in
/// `[2^c, 2^(c+1))`.
const CLASSES: usize = usize::BITS as usize;

/// A full slot takes a spare of up to this many times the room it needs
/// before it grows by allocation; larger spares wait for the slots that
/// fill them (a level-2 slot of timers holds a hundred times what a
/// level-1 slot of arrivals does).
const TRADE_UP_SLACK: usize = 8;

/// The size class of a non-zero capacity.
fn class_of(capacity: usize) -> usize {
    (usize::BITS - 1 - capacity.leading_zeros()) as usize
}

/// Recycled slot buffers, one stack per size class.
///
/// Slot loads differ by orders of magnitude — a level-2 slot holds a slice
/// of a probe cycle's timers, a level-0 slot a handful of frames — so a
/// single stack handed grown buffers to small slots and small buffers to
/// big slots, which then grew again long after warm-up. By class, a cold
/// slot takes the smallest spare and a slot that fills up trades its
/// buffer for the smallest spare that fits before it asks the allocator,
/// so storage one burst grew serves the next. Whether a take hits or
/// misses depends only on how many buffers are spare, so the pool
/// counters read as a single stack's.
#[derive(Debug)]
struct SparePool<T> {
    /// `by_class[c]`: spare buffers of class `c`.
    by_class: [Vec<Vec<Entry<T>>>; CLASSES],
    /// One bit per non-empty class.
    nonempty: u64,
    /// Spare buffers across all classes.
    len: usize,
    /// Most buffers the pool retains; see [`TimerWheel::with_spare_pool`].
    cap: usize,
}

impl<T> SparePool<T> {
    /// A spare of the smallest non-empty class in `classes` (a bit mask).
    fn pop_class(&mut self, classes: u64) -> Option<Vec<Entry<T>>> {
        let eligible = self.nonempty & classes;
        if eligible == 0 {
            return None;
        }
        let class = eligible.trailing_zeros() as usize;
        let stack = &mut self.by_class[class];
        let buf = stack.pop();
        if stack.is_empty() {
            self.nonempty &= !(1 << class);
        }
        self.len -= 1;
        buf
    }

    /// A buffer for a cold slot: the smallest spare, else an empty `Vec`
    /// (which the caller's first push allocates).
    fn take(&mut self, stats: &mut WheelStats) -> Vec<Entry<T>> {
        if let Some(buf) = self.pop_class(u64::MAX) {
            stats.pool_hits += 1;
            buf
        } else {
            stats.pool_misses += 1;
            Vec::new()
        }
    }

    /// Keeps a drained buffer (bounded; one without storage is dropped).
    fn give(&mut self, buf: Vec<Entry<T>>) {
        if buf.capacity() > 0 && self.len < self.cap {
            let class = class_of(buf.capacity());
            self.by_class[class].push(buf);
            self.nonempty |= 1 << class;
            self.len += 1;
        }
    }

    /// Trades a full slot buffer for the smallest spare with room for one
    /// more entry, within [`TRADE_UP_SLACK`], and keeps the outgrown one.
    /// Leaves `buf` to grow as a `Vec` does when no spare fits.
    #[cold]
    fn trade_up(&mut self, buf: &mut Vec<Entry<T>>) {
        let need = buf.len() + 1;
        // Every buffer of class ⌈log₂ need⌉ or above fits.
        let lo = need.next_power_of_two().trailing_zeros();
        let hi = class_of(TRADE_UP_SLACK.saturating_mul(need)) as u32;
        let classes = (u64::MAX << lo) & (u64::MAX >> (63 - hi));
        if let Some(mut roomy) = self.pop_class(classes) {
            roomy.append(buf);
            let outgrown = std::mem::replace(buf, roomy);
            self.give(outgrown);
        }
    }

    /// Tops the pool up to `buffers` fresh buffers of `capacity` entries
    /// (at least one: `give` drops a buffer without storage) and raises
    /// its bound to match.
    fn fill(&mut self, buffers: usize, capacity: usize) {
        self.cap = self.cap.max(buffers);
        let capacity = capacity.max(1);
        self.by_class[class_of(capacity)].reserve(buffers.saturating_sub(self.len));
        while self.len < buffers {
            self.give(Vec::with_capacity(capacity));
        }
    }
}

/// A hierarchical timer wheel over `(SimTime, seq)`-keyed events.
///
/// Pop order is exactly ascending `(at, seq)` — bit-identical to a
/// `BinaryHeap` min-queue over the same keys. Callers must never push an
/// entry earlier than the last popped `at` (the simulator core clamps
/// past-time schedules to `now` before they reach the wheel).
#[derive(Debug)]
pub struct TimerWheel<T> {
    /// `levels[l][s]`: events due in slot `s` of level `l`.
    levels: Vec<Vec<Vec<Entry<T>>>>,
    /// One occupancy bit per slot, per level.
    occupancy: [u64; LEVELS],
    /// Cursor: the grain of the most recently popped entry.
    cur: u64,
    /// Entries of the current grain, sorted descending so `pop` is a
    /// cheap truncation from the back.
    ready: Vec<Entry<T>>,
    /// Far-future entries (≥ `HORIZON_GRAINS` ahead of the cursor).
    overflow: BinaryHeap<OverflowEntry<T>>,
    /// Recycled slot buffers.
    spare: SparePool<T>,
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
    /// Default spare-pool bound for wheels built without a workload hint.
    const DEFAULT_SPARE_CAP: usize = 64;

    /// An empty wheel with its cursor at the simulation epoch.
    #[must_use]
    pub fn new() -> Self {
        Self::with_spare_pool(0, 0)
    }

    /// An empty wheel whose spare pool is pre-filled with `buffers`
    /// recycled slot buffers of `capacity` entries each.
    ///
    /// The pool otherwise warms up lazily: each cold slot's first use is
    /// a `pool_misses` allocation until enough buffers are circulating.
    /// A caller that knows its workload shape (the simulator core knows
    /// the host and plane counts) can pre-size the pool so steady-state
    /// replays never miss. The retention bound is raised to `buffers`
    /// when that exceeds the default, so pre-sized buffers are never
    /// dropped back to the allocator during draining.
    #[must_use]
    pub fn with_spare_pool(buffers: usize, capacity: usize) -> Self {
        let mut spare = SparePool {
            by_class: std::array::from_fn(|_| Vec::new()),
            nonempty: 0,
            len: 0,
            cap: Self::DEFAULT_SPARE_CAP,
        };
        spare.fill(buffers, capacity);
        TimerWheel {
            levels: (0..LEVELS)
                .map(|_| (0..SLOTS).map(|_| Vec::new()).collect())
                .collect(),
            occupancy: [0; LEVELS],
            cur: 0,
            ready: Vec::new(),
            overflow: BinaryHeap::new(),
            spare,
            len: 0,
            stats: WheelStats::default(),
        }
    }

    /// Tops the spare pool up to `buffers` recycled slot buffers of at
    /// least `capacity` entries each, raising the retention bound so the
    /// extra buffers survive drain cycles — the late-binding sibling of
    /// [`with_spare_pool`](Self::with_spare_pool) for workloads enabled
    /// after the wheel is built (the fluid session layer knows its
    /// expected transition rate only when the caller attaches it).
    /// Capped at [`MAX_USEFUL_SPARE`]; never shrinks an existing pool.
    pub fn reserve_spare(&mut self, buffers: usize, capacity: usize) {
        self.spare.fill(buffers.min(MAX_USEFUL_SPARE), capacity);
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
        let bucket = &mut self.levels[level][slot];
        if bucket.capacity() == 0 {
            // First entry in a cold slot: adopt a recycled buffer.
            *bucket = self.spare.take(&mut self.stats);
        } else if bucket.len() == bucket.capacity() {
            // A full slot trades up from the pool before it reallocates.
            self.spare.trade_up(bucket);
        }
        bucket.push(entry);
        self.occupancy[level] |= 1 << slot;
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
    /// grain's entries, sorted, into the ready buffer.
    ///
    /// One grain's entries can be spread across several structures at
    /// once (a level-0 slot, one bucket per higher level, and the ready
    /// buffer itself — each populated at a different push epoch), so the
    /// loop keeps draining and cascading until every source whose window
    /// starts at the cursor grain has been merged into `ready`.
    fn fill_ready(&mut self) {
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
                    let better = match best {
                        None => true,
                        Some((bs, _, _)) => start <= bs,
                    };
                    if better {
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
            // `take` leaves the slot cold (zero capacity); the next push
            // that lands there adopts a spare buffer from the pool.
            let mut bucket = std::mem::take(&mut self.levels[level][slot]);
            self.occupancy[level] &= !(1 << slot);
            if level == 0 {
                // One grain's worth of entries: keep `ready` sorted
                // descending so pops truncate from the back in ascending
                // (at, seq) order.
                self.stats.slot_drains += 1;
                // Merge into whichever buffer is larger (the sort below
                // restores the order): the ready buffer only ever grows,
                // so pushes due in the cursor's grain stop allocating once
                // it has held the largest burst.
                if bucket.capacity() > self.ready.capacity() {
                    std::mem::swap(&mut self.ready, &mut bucket);
                }
                self.ready.append(&mut bucket);
                self.spare.give(bucket);
                self.ready
                    .sort_unstable_by_key(|e| std::cmp::Reverse((e.at, e.seq)));
                // The grain is complete. Level 0 won only because no
                // higher window starts at or before it (ties go to the
                // higher level), and overflow entries that fit the
                // horizon were migrated at the top of this pass, so
                // another pass would stage nothing.
                return;
            }
            // Higher-level slot: redistribute into the levels below (and
            // into `ready` for entries due in the cursor grain itself).
            self.stats.cascades += 1;
            for entry in bucket.drain(..) {
                self.place(entry);
            }
            self.spare.give(bucket);
        }
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
        // All within one 4.096 µs grain, pushed out of order.
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

    #[test]
    fn pool_recycles_slot_buffers() {
        let mut w = TimerWheel::new();
        for round in 0..10u64 {
            let base = round * 1_000_000; // fresh grain each round
            for i in 0..8u64 {
                w.push(SimTime(base + i), round * 8 + i, 0);
            }
            while w.pop().is_some() {}
        }
        let s = w.stats();
        assert!(s.pool_hits > 0, "later rounds must reuse buffers: {s:?}");
        assert!(
            s.pool_misses <= 2,
            "steady state should not allocate: {s:?}"
        );
    }

    #[test]
    fn pre_sized_pool_never_misses() {
        let mut w = TimerWheel::with_spare_pool(16, 8);
        for round in 0..10u64 {
            let base = round * 1_000_000;
            for i in 0..8u64 {
                w.push(SimTime(base + i), round * 8 + i, 0);
            }
            while w.pop().is_some() {}
        }
        let s = w.stats();
        assert_eq!(
            s.pool_misses, 0,
            "pre-sized pool must absorb cold slots: {s:?}"
        );
        assert!(s.pool_hits > 0);
    }

    #[test]
    fn reserve_spare_tops_up_and_raises_retention() {
        let mut w: TimerWheel<u32> = TimerWheel::with_spare_pool(4, 8);
        w.reserve_spare(32, 16);
        assert_eq!(w.spare.len, 32);
        assert!(w.spare.cap >= 32);
        // Capped at MAX_USEFUL_SPARE, and never shrinks.
        w.reserve_spare(MAX_USEFUL_SPARE + 100, 4);
        assert_eq!(w.spare.len, MAX_USEFUL_SPARE);
        w.reserve_spare(2, 4);
        assert_eq!(w.spare.len, MAX_USEFUL_SPARE);
        // A reserved pool absorbs cold slots without allocating.
        for round in 0..10u64 {
            let base = round * 1_000_000;
            for i in 0..8u64 {
                w.push(SimTime(base + i), round * 8 + i, 0);
            }
            while w.pop().is_some() {}
        }
        assert_eq!(w.stats().pool_misses, 0);
    }

    #[test]
    fn pre_sized_pool_raises_retention_bound() {
        // A pool pre-sized beyond the default retention bound must keep
        // its buffers through drain cycles rather than dropping them (the
        // ready buffer keeps the one it drained into).
        let mut w = TimerWheel::with_spare_pool(100, 4);
        assert_eq!(w.spare.len, 100);
        w.push(SimTime(5000), 0, 0);
        assert!(w.pop().is_some());
        assert!(w.ready.capacity() > 0);
        assert!(
            w.spare.len + 1 >= 100,
            "drained buffers must return to the pool"
        );
    }

    /// Entry capacity held anywhere in the wheel: slots, ready, spares.
    fn storage(w: &TimerWheel<u32>) -> usize {
        let slots: usize = w.levels.iter().flatten().map(Vec::capacity).sum();
        let spares: usize = w.spare.by_class.iter().flatten().map(Vec::capacity).sum();
        slots + spares + w.ready.capacity()
    }

    #[test]
    fn a_repeating_burst_reuses_the_storage_it_grew() {
        // Each round: lone entries in eight cold slots, then a 300-entry
        // burst in a ninth, all pushed before anything pops. A stack pool
        // hands the burst's grown buffer to a lone entry next round and
        // the burst grows a new one; by size class the lone entries take
        // the small spares and the burst trades up into its old storage.
        let mut w = TimerWheel::with_spare_pool(16, 8);
        let mut seq = 0;
        let mut grown = Vec::new();
        for round in 0..8u64 {
            let base = round * 100_000_000;
            for i in 0..8 {
                w.push(SimTime(base + 1_000_000 + i * 100_000), seq, 0);
                seq += 1;
            }
            for _ in 0..300 {
                w.push(SimTime(base + 3_000_000), seq, 1);
                seq += 1;
            }
            while w.pop().is_some() {}
            grown.push(storage(&w));
        }
        assert!(grown[3..].iter().all(|&s| s == grown[3]), "{grown:?}");
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
