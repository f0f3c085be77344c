//! The deterministic event queue.
//!
//! Events are keyed by `(time, sequence)`. The sequence number is a
//! monotonically increasing insertion counter, so two events scheduled for
//! the same instant pop in the order they were scheduled. This makes event
//! delivery a *total* order — a prerequisite for bit-reproducible runs —
//! without requiring the event type to be `Ord` itself.
//!
//! Two interchangeable backends implement that contract behind the
//! [`QueueBackend`] trait:
//!
//! * a **binary min-heap** — O(log n) per operation, no tuning knobs,
//!   and amenable to the exact pre-sizing the no-reallocation tests pin.
//!   The default for paper-sized runs (≤ a few thousand pending events).
//! * a **hierarchical timing wheel** — four levels of 256 slots at a
//!   2¹⁶ ns (≈ 65.5 µs) base granularity, covering ≈ 3.26 simulated days
//!   before overflowing to a small `far` heap. Scheduling is O(1); pops
//!   drain a per-slot `ready` heap whose size tracks the *event density
//!   per 65 µs window*, not the total pending count. This is what keeps
//!   10k–100k-node fields (hundreds of thousands of pending timers)
//!   from paying O(log n) heap churn on every event.
//!
//! [`EventQueue::with_capacity`] picks the backend from the expected
//! event volume: scenarios that estimate
//! [`WHEEL_CAPACITY_THRESHOLD`] or more pending events get the wheel,
//! everything below stays on the heap. Only the heap takes the estimate
//! as a reservation; the wheel starts empty and its `ready` heap, slots
//! and same-instant FIFO grow to the most they hold at once, so its
//! memory follows the events actually pending (a 10k-node field holds
//! ~4k, against an estimate of 262,144). Both backends deliver the exact
//! same `(time, seq)` order — a property pinned by a reference proptest
//! (`backends_pop_identical_sequences`) — so the choice is invisible to
//! behaviour, only to wall clocks.
//!
//! Discrete-event workloads schedule a large share of their events at the
//! *current* instant (a handler waking its neighbours "now"). Those
//! events bypass the backend entirely: they go to a FIFO of
//! currently-due entries and pop in O(1). [`EventQueue::pop`] always
//! returns the global `(time, seq)` minimum across both structures, so
//! the delivery order is exactly the order a pure heap would produce.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// Estimated capacity at which [`EventQueue::with_capacity`] switches
/// from the binary-heap backend to the hierarchical timing wheel. The
/// paper presets (≤ 200 nodes) size their queues well below this, so
/// they keep the heap — and its exact no-reallocation guarantee — while
/// the 1k+ scale presets land on the wheel.
pub const WHEEL_CAPACITY_THRESHOLD: usize = 8192;

/// log2 of the wheel's base granularity in nanoseconds: one level-0
/// slot spans 2¹⁶ ns ≈ 65.5 µs.
const WHEEL_GRANULARITY_BITS: u32 = 16;
/// Slots per wheel level (fixed 256 so slot indices are a byte of the
/// timestamp and occupancy fits four `u64` bitmap words).
const WHEEL_SLOTS: usize = 256;
/// Wheel depth. Four levels × 8 bits each on top of the 16-bit
/// granularity cover 2⁴⁸ ns ≈ 3.26 days of simulated time; anything
/// farther out (e.g. `SimTime::MAX` sentinels) overflows to `far`.
const WHEEL_LEVELS: usize = 4;

/// A time-ordered queue of simulation events.
///
/// # Example
///
/// ```
/// use eend_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(2), "later");
/// q.schedule(SimTime::from_secs(1), "sooner");
/// q.schedule(SimTime::from_secs(1), "sooner-but-second");
///
/// assert_eq!(q.pop().unwrap().1, "sooner");
/// assert_eq!(q.pop().unwrap().1, "sooner-but-second");
/// assert_eq!(q.pop().unwrap().1, "later");
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    backend: Backend<E>,
    /// Entries scheduled at exactly `now_time` (the time of the last
    /// pop), in seq order. Drained before `now_time` can advance, since
    /// pop always takes the global `(time, seq)` minimum.
    now_fifo: VecDeque<Entry<E>>,
    now_time: Option<SimTime>,
    seq: u64,
    scheduled_total: u64,
    peak_len: usize,
    /// Pending-event count, tracked here so the hot schedule/pop path
    /// never pays a backend dispatch just for peak-length bookkeeping.
    len: usize,
}

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest
        // (time, seq) on top.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The contract both queue backends implement: a priority queue of
/// [`Entry`]s whose `pop` always returns the pending `(time, seq)`
/// minimum and whose `peek_key` agrees with what the next `pop` would
/// return. `EventQueue` layers the same-instant FIFO fast path and the
/// bookkeeping counters on top, so delivery order depends only on this
/// contract — which is why the two backends are interchangeable
/// bit-for-bit.
trait QueueBackend<E> {
    fn push(&mut self, entry: Entry<E>);
    fn pop(&mut self) -> Option<Entry<E>>;
    /// `(time, seq)` of the entry the next `pop` returns.
    fn peek_key(&self) -> Option<(SimTime, u64)>;
    fn len(&self) -> usize;
    fn capacity(&self) -> usize;
    fn clear(&mut self);
}

#[derive(Debug)]
enum Backend<E> {
    Heap(BinaryHeap<Entry<E>>),
    Wheel(Box<TimingWheel<E>>),
}

impl<E> Backend<E> {
    // The heap arm must stay as cheap as a direct BinaryHeap call —
    // mobility200-class runs dispatch here millions of times — so the
    // hot accessors are `#[inline]` and the enum match is a predictable
    // single-discriminant branch.
    #[inline]
    fn push(&mut self, entry: Entry<E>) {
        match self {
            Backend::Heap(h) => QueueBackend::push(h, entry),
            Backend::Wheel(w) => w.push(entry),
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<Entry<E>> {
        match self {
            Backend::Heap(h) => QueueBackend::pop(h),
            Backend::Wheel(w) => w.pop(),
        }
    }

    #[inline]
    fn peek_key(&self) -> Option<(SimTime, u64)> {
        match self {
            Backend::Heap(h) => QueueBackend::peek_key(h),
            Backend::Wheel(w) => w.peek_key(),
        }
    }

    fn len(&self) -> usize {
        match self {
            Backend::Heap(h) => QueueBackend::len(h),
            Backend::Wheel(w) => QueueBackend::len(&**w),
        }
    }

    fn capacity(&self) -> usize {
        match self {
            Backend::Heap(h) => QueueBackend::capacity(h),
            Backend::Wheel(w) => QueueBackend::capacity(&**w),
        }
    }

    fn clear(&mut self) {
        match self {
            Backend::Heap(h) => QueueBackend::clear(h),
            Backend::Wheel(w) => QueueBackend::clear(&mut **w),
        }
    }
}

impl<E> QueueBackend<E> for BinaryHeap<Entry<E>> {
    #[inline]
    fn push(&mut self, entry: Entry<E>) {
        BinaryHeap::push(self, entry);
    }

    #[inline]
    fn pop(&mut self) -> Option<Entry<E>> {
        BinaryHeap::pop(self)
    }

    #[inline]
    fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.peek().map(|e| (e.time, e.seq))
    }

    fn len(&self) -> usize {
        BinaryHeap::len(self)
    }

    fn capacity(&self) -> usize {
        BinaryHeap::capacity(self)
    }

    fn clear(&mut self) {
        BinaryHeap::clear(self);
    }
}

/// A hierarchical timing wheel with a `ready` heap front.
///
/// Entries due in or before the wheel's current level-0 slot sit in the
/// `ready` min-heap; everything later hangs off a wheel slot (or the
/// `far` overflow heap beyond the wheel's 2⁴⁸ ns range). The structure
/// maintains one invariant at every public-call boundary:
///
/// > when the wheel is non-empty, `ready` is non-empty and
/// > `ready.peek()` is the global `(time, seq)` minimum.
///
/// That invariant is what makes `peek_key` a `&self` method: popping
/// eagerly *replenishes* — advances the cursor to the next occupied
/// slot, cascades coarse slots into finer ones, and refills `ready` —
/// whenever `ready` drains. Because every entry funnels through the
/// `(time, seq)`-ordered `ready` heap before popping, the delivery
/// order is identical to the binary heap's by construction.
#[derive(Debug)]
struct TimingWheel<E> {
    /// Entries due in or before the current cursor slot, `(time, seq)`
    /// ordered. Also absorbs past-time schedules.
    ready: BinaryHeap<Entry<E>>,
    levels: [WheelLevel<E>; WHEEL_LEVELS],
    /// Overflow for entries beyond the wheel's range (≈ 3.26 simulated
    /// days out, e.g. `SimTime::MAX` watchdogs). Consulted as one more
    /// candidate when advancing; in practice holds a handful of entries.
    far: BinaryHeap<Entry<E>>,
    /// Current level-0 slot in absolute granularity units
    /// (`time >> WHEEL_GRANULARITY_BITS`). Only ever advances.
    cursor: u64,
    len: usize,
}

#[derive(Debug)]
struct WheelLevel<E> {
    slots: Vec<Vec<Entry<E>>>,
    /// One bit per slot; bit `i` set iff `slots[i]` is non-empty.
    occupied: [u64; WHEEL_SLOTS / 64],
}

impl<E> WheelLevel<E> {
    fn new() -> Self {
        WheelLevel {
            slots: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; WHEEL_SLOTS / 64],
        }
    }

    /// First occupied slot in circular order starting at `base`
    /// (a slot index), as an offset 0..256 from `base`.
    fn first_occupied_offset(&self, base: usize) -> Option<usize> {
        let w0 = base / 64;
        let b0 = base % 64;
        let words = self.occupied.len();
        // Head of the word containing `base`: bits >= b0.
        let head = self.occupied[w0] & (!0u64 << b0);
        if head != 0 {
            return Some(head.trailing_zeros() as usize - b0);
        }
        // Following full words in circular order.
        for d in 1..words {
            let w = (w0 + d) % words;
            if self.occupied[w] != 0 {
                let idx = w * 64 + self.occupied[w].trailing_zeros() as usize;
                return Some((idx + WHEEL_SLOTS - base) % WHEEL_SLOTS);
            }
        }
        // Tail of the starting word: bits < b0 (wrap-around).
        let tail = self.occupied[w0] & !(!0u64 << b0);
        if tail != 0 {
            let idx = w0 * 64 + tail.trailing_zeros() as usize;
            return Some((idx + WHEEL_SLOTS - base) % WHEEL_SLOTS);
        }
        None
    }

    fn set(&mut self, slot: usize) {
        self.occupied[slot / 64] |= 1 << (slot % 64);
    }

    fn unset(&mut self, slot: usize) {
        self.occupied[slot / 64] &= !(1 << (slot % 64));
    }
}

impl<E> TimingWheel<E> {
    fn new() -> Self {
        TimingWheel {
            ready: BinaryHeap::new(),
            levels: std::array::from_fn(|_| WheelLevel::new()),
            far: BinaryHeap::new(),
            cursor: 0,
            len: 0,
        }
    }

    /// Absolute slot of `level`'s first occupied slot (in that level's
    /// units), using the invariant that occupied slots lie within 256
    /// slots at or after the level cursor.
    fn first_occupied_abs(&self, level: usize) -> Option<u64> {
        let cursor_l = self.cursor >> (8 * level);
        let base = (cursor_l & (WHEEL_SLOTS as u64 - 1)) as usize;
        self.levels[level]
            .first_occupied_offset(base)
            .map(|off| cursor_l + off as u64)
    }

    /// Files `entry` into `ready`, a wheel slot, or `far`, based on its
    /// distance from the cursor. Does not touch `len`.
    fn route(&mut self, entry: Entry<E>) {
        let g = entry.time.as_nanos() >> WHEEL_GRANULARITY_BITS;
        if g <= self.cursor {
            // Due in (or before) the current slot — including past-time
            // schedules, which are legal through the public API.
            self.ready.push(entry);
            return;
        }
        for (i, level) in self.levels.iter_mut().enumerate() {
            let slot_l = g >> (8 * i);
            let cursor_l = self.cursor >> (8 * i);
            if slot_l - cursor_l < WHEEL_SLOTS as u64 {
                let idx = (slot_l & (WHEEL_SLOTS as u64 - 1)) as usize;
                level.slots[idx].push(entry);
                level.set(idx);
                return;
            }
        }
        self.far.push(entry);
    }

    /// Moves level `level`'s slot at absolute index `abs` into finer
    /// levels / `ready` by re-routing every entry against the current
    /// cursor.
    fn pull_slot(&mut self, level: usize, abs: u64) {
        let idx = (abs & (WHEEL_SLOTS as u64 - 1)) as usize;
        let mut entries = std::mem::take(&mut self.levels[level].slots[idx]);
        self.levels[level].unset(idx);
        if level == 0 {
            // A level-0 slot at or before the cursor is due wholesale.
            self.ready.extend(entries.drain(..));
        } else {
            for e in entries.drain(..) {
                self.route(e);
            }
        }
        // Hand the slot's allocation back so steady-state churn through
        // the same slots stops allocating once capacities have grown.
        self.levels[level].slots[idx] = entries;
    }

    /// Re-establishes the wheel invariant: every entry due in or before
    /// the current cursor slot sits in `ready`, and if the wheel is
    /// non-empty at all, the cursor has advanced far enough that `ready`
    /// is non-empty.
    fn replenish(&mut self) {
        loop {
            // Pull everything due at the current cursor, coarsest level
            // first (a coarse slot can cover the same window as — and
            // hold earlier entries than — a finer slot that starts at
            // the same instant), repeating until a fixpoint.
            loop {
                let mut pulled = false;
                for level in (0..WHEEL_LEVELS).rev() {
                    while let Some(abs) = self.first_occupied_abs(level) {
                        if abs << (8 * level) <= self.cursor {
                            self.pull_slot(level, abs);
                            pulled = true;
                        } else {
                            break;
                        }
                    }
                }
                while let Some(f) = self.far.peek() {
                    if f.time.as_nanos() >> WHEEL_GRANULARITY_BITS <= self.cursor {
                        let e = self.far.pop().expect("peeked");
                        self.ready.push(e);
                        pulled = true;
                    } else {
                        break;
                    }
                }
                if !pulled {
                    break;
                }
            }
            if !self.ready.is_empty() {
                return;
            }
            // Nothing due: jump the cursor to the earliest candidate
            // window across the levels and `far`. After the fixpoint
            // above every candidate is strictly ahead of the cursor, so
            // the cursor only moves forward.
            let mut next: Option<u64> = None;
            for level in 0..WHEEL_LEVELS {
                if let Some(abs) = self.first_occupied_abs(level) {
                    let start = abs << (8 * level);
                    next = Some(next.map_or(start, |n| n.min(start)));
                }
            }
            if let Some(f) = self.far.peek() {
                let g = f.time.as_nanos() >> WHEEL_GRANULARITY_BITS;
                next = Some(next.map_or(g, |n| n.min(g)));
            }
            match next {
                Some(c) => self.cursor = c,
                None => return, // wheel is empty
            }
        }
    }
}

impl<E> QueueBackend<E> for TimingWheel<E> {
    fn push(&mut self, entry: Entry<E>) {
        self.len += 1;
        self.route(entry);
        if self.ready.is_empty() {
            // The entry landed in a slot while nothing was due; advance
            // so `peek_key` stays a cheap `&self` read.
            self.replenish();
        }
    }

    fn pop(&mut self) -> Option<Entry<E>> {
        let e = self.ready.pop()?;
        self.len -= 1;
        if self.ready.is_empty() {
            self.replenish();
        }
        Some(e)
    }

    fn peek_key(&self) -> Option<(SimTime, u64)> {
        // The replenish-on-drain discipline guarantees `ready` holds the
        // global minimum whenever the wheel is non-empty.
        self.ready.peek().map(|e| (e.time, e.seq))
    }

    fn len(&self) -> usize {
        self.len
    }

    fn capacity(&self) -> usize {
        // Everything here grows from empty; report the heap fronts, not
        // the slot storage, which grows with event density.
        self.ready.capacity() + self.far.capacity()
    }

    fn clear(&mut self) {
        self.ready.clear();
        self.far.clear();
        for level in &mut self.levels {
            for slot in &mut level.slots {
                slot.clear();
            }
            level.occupied = [0; WHEEL_SLOTS / 64];
        }
        self.cursor = 0;
        self.len = 0;
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue (heap backend).
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue, selecting the backend from the expected
    /// event volume: the binary heap below [`WHEEL_CAPACITY_THRESHOLD`],
    /// the hierarchical timing wheel at or above it. Only the heap
    /// backend reserves `cap` slots up front, which keeps its scheduling
    /// reallocation-free for the whole run ([`EventQueue::capacity`] and
    /// [`EventQueue::peak_len`] let callers assert that). The wheel
    /// reserves nothing and grows to what it holds: on a large field the
    /// pending events are a small fraction of any per-node estimate.
    pub fn with_capacity(cap: usize) -> Self {
        if cap >= WHEEL_CAPACITY_THRESHOLD {
            Self::with_wheel_backend()
        } else {
            Self::with_heap_backend(cap)
        }
    }

    /// Creates an empty queue explicitly on the binary-heap backend, with
    /// `cap` slots reserved in the heap and as many in the same-instant
    /// FIFO: in the worst case every pending event is a same-instant one,
    /// and the no-reallocation invariant covers both structures (see
    /// [`EventQueue::capacity`]).
    pub fn with_heap_backend(cap: usize) -> Self {
        let heap = BinaryHeap::with_capacity(cap);
        Self::from_parts(Backend::Heap(heap), VecDeque::with_capacity(cap))
    }

    /// Creates an empty queue explicitly on the timing-wheel backend. It
    /// reserves nothing: the `ready` heap, the wheel slots and the
    /// same-instant FIFO each grow to the most they hold at once.
    pub fn with_wheel_backend() -> Self {
        Self::from_parts(Backend::Wheel(Box::new(TimingWheel::new())), VecDeque::new())
    }

    fn from_parts(backend: Backend<E>, now_fifo: VecDeque<Entry<E>>) -> Self {
        EventQueue {
            backend,
            now_fifo,
            now_time: None,
            seq: 0,
            scheduled_total: 0,
            peak_len: 0,
            len: 0,
        }
    }

    /// `true` if this queue runs on the hierarchical timing wheel.
    pub fn is_wheel_backend(&self) -> bool {
        matches!(self.backend, Backend::Wheel(_))
    }

    /// Schedules `event` at absolute time `time`.
    #[inline]
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.scheduled_total += 1;
        self.len += 1;
        self.peak_len = self.peak_len.max(self.len);
        // The FIFO front must be the FIFO's (time, seq) minimum: entries
        // share one timestamp (the guard) and seqs grow monotonically.
        // Past-time schedules (legal through the public API, never issued
        // by the simulator) take the backend, which handles any order.
        if self.now_time == Some(time)
            && self.now_fifo.back().is_none_or(|back| back.time == time)
        {
            self.now_fifo.push_back(Entry { time, seq, event });
        } else {
            self.backend.push(Entry { time, seq, event });
        }
    }

    /// Removes and returns the earliest event, with its timestamp.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        // Global (time, seq) minimum across the backend and the
        // now-FIFO: identical delivery order to a single heap.
        let take_fifo = match (self.now_fifo.front(), self.backend.peek_key()) {
            (Some(f), Some(b)) => (f.time, f.seq) < b,
            (Some(_), None) => true,
            _ => false,
        };
        let e = if take_fifo { self.now_fifo.pop_front() } else { self.backend.pop() }?;
        self.len -= 1;
        self.now_time = Some(e.time);
        Some((e.time, e.event))
    }

    /// Timestamp of the earliest pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        match (self.now_fifo.front(), self.backend.peek_key()) {
            (Some(f), Some((bt, _))) => Some(f.time.min(bt)),
            (Some(f), None) => Some(f.time),
            (None, Some((bt, _))) => Some(bt),
            (None, None) => None,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        debug_assert_eq!(self.len, self.backend.len() + self.now_fifo.len());
        self.len
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled (a cheap progress metric).
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Maximum number of events that were pending at once.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Combined allocated capacity of the backend and the same-instant
    /// FIFO. For the heap backend growth in either structure changes
    /// this value, which is what the no-reallocation tests pin. The
    /// wheel backend reports its `ready` and `far` heaps plus the FIFO;
    /// all three start empty and grow with use, so a wheel run ends with
    /// a capacity above its initial one by design. Its slot storage
    /// grows with event density and is not included.
    pub fn capacity(&self) -> usize {
        self.backend.capacity() + self.now_fifo.capacity()
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.backend.clear();
        self.now_fifo.clear();
        self.len = 0;
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn both_backends() -> [(&'static str, EventQueue<usize>); 2] {
        [
            ("heap", EventQueue::with_heap_backend(0)),
            ("wheel", EventQueue::with_wheel_backend()),
        ]
    }

    #[test]
    fn pops_in_time_order() {
        for (name, mut q) in both_backends() {
            q.schedule(SimTime::from_secs(3), 3);
            q.schedule(SimTime::from_secs(1), 1);
            q.schedule(SimTime::from_secs(2), 2);
            assert_eq!(q.pop().unwrap().1, 1, "{name}");
            assert_eq!(q.pop().unwrap().1, 2, "{name}");
            assert_eq!(q.pop().unwrap().1, 3, "{name}");
            assert!(q.pop().is_none(), "{name}");
        }
    }

    #[test]
    fn ties_pop_fifo() {
        for (name, mut q) in both_backends() {
            let t = SimTime::from_millis(100);
            for i in 0..100 {
                q.schedule(t, i);
            }
            for i in 0..100 {
                assert_eq!(q.pop().unwrap().1, i, "{name}");
            }
        }
    }

    #[test]
    fn interleaved_schedule_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), "far");
        q.schedule(SimTime::from_secs(1), "near");
        assert_eq!(q.pop().unwrap().1, "near");
        q.schedule(SimTime::from_secs(5), "mid");
        assert_eq!(q.pop().unwrap().1, "mid");
        assert_eq!(q.pop().unwrap().1, "far");
    }

    #[test]
    fn counters_and_clear() {
        for (name, mut q) in [
            ("heap", EventQueue::<()>::with_heap_backend(0)),
            ("wheel", EventQueue::<()>::with_wheel_backend()),
        ] {
            assert!(q.is_empty(), "{name}");
            q.schedule(SimTime::ZERO, ());
            q.schedule(SimTime::ZERO, ());
            assert_eq!(q.len(), 2, "{name}");
            assert_eq!(q.scheduled_total(), 2, "{name}");
            assert_eq!(q.peek_time(), Some(SimTime::ZERO), "{name}");
            q.clear();
            assert!(q.is_empty(), "{name}");
            assert_eq!(q.scheduled_total(), 2, "{name}: clear must not reset the total");
        }
    }

    #[test]
    fn capacity_threshold_selects_backend() {
        assert!(!EventQueue::<()>::with_capacity(WHEEL_CAPACITY_THRESHOLD - 1).is_wheel_backend());
        assert!(EventQueue::<()>::with_capacity(WHEEL_CAPACITY_THRESHOLD).is_wheel_backend());
        assert!(!EventQueue::<()>::new().is_wheel_backend());
    }

    #[test]
    fn wheel_handles_far_future_and_sentinel_times() {
        let mut q = EventQueue::with_wheel_backend();
        q.schedule(SimTime::MAX, "watchdog");
        q.schedule(SimTime::from_secs(86_400 * 30), "next-month");
        q.schedule(SimTime::from_nanos(1), "soon");
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(1)));
        assert_eq!(q.pop().unwrap().1, "soon");
        assert_eq!(q.pop().unwrap().1, "next-month");
        assert_eq!(q.pop().unwrap().1, "watchdog");
        assert!(q.pop().is_none());
    }

    #[test]
    fn wheel_cascades_across_level_boundaries() {
        // Times straddling level-1/level-2 windows plus a same-slot
        // burst, popped across interleaved schedules.
        let mut q = EventQueue::with_wheel_backend();
        let times: &[u64] = &[
            1 << 30,
            (1 << 30) + 1,
            1 << 25,
            (1 << 25) + (1 << 17),
            1 << 41,
            3,
            1 << 16,
        ];
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut sorted: Vec<(u64, usize)> =
            times.iter().copied().enumerate().map(|(i, t)| (t, i)).collect();
        sorted.sort_unstable();
        for (t, i) in sorted {
            let (qt, qi) = q.pop().unwrap();
            assert_eq!((qt.as_nanos(), qi), (t, i));
        }
    }

    proptest! {
        /// Whatever the schedule order, delivery times are monotone and the
        /// queue delivers exactly the scheduled multiset.
        #[test]
        fn delivery_is_monotone(times in proptest::collection::vec(0u64..1_000_000, 0..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(SimTime::from_nanos(t), i);
            }
            let mut last = SimTime::ZERO;
            let mut delivered = Vec::new();
            while let Some((t, id)) = q.pop() {
                prop_assert!(t >= last, "time went backwards");
                last = t;
                delivered.push(id);
            }
            prop_assert_eq!(delivered.len(), times.len());
            delivered.sort_unstable();
            prop_assert_eq!(delivered, (0..times.len()).collect::<Vec<_>>());
        }

        /// Events at identical timestamps preserve insertion order.
        #[test]
        fn equal_times_are_fifo(n in 1usize..100, t in 0u64..1000) {
            for (name, mut q) in both_backends() {
                for i in 0..n {
                    q.schedule(SimTime::from_nanos(t), i);
                }
                for i in 0..n {
                    prop_assert_eq!(q.pop().unwrap().1, i, "{}", name);
                }
            }
        }

        /// The now-FIFO fast path is invisible: arbitrary interleavings of
        /// schedules (including at the just-popped instant and in the
        /// past) and pops deliver exactly the (time, seq) order a pure
        /// min-heap reference produces.
        #[test]
        fn fast_path_matches_reference_order(
            ops in proptest::collection::vec(0u64..2_000, 1..300),
        ) {
            // Reference: (time, seq) pairs sorted stably.
            let mut q = EventQueue::new();
            let mut reference: Vec<(u64, usize)> = Vec::new();
            let mut popped = Vec::new();
            let mut expected = Vec::new();
            for (i, &op) in ops.iter().enumerate() {
                if op % 5 == 0 {
                    // Pop the reference minimum and the queue's choice.
                    reference.sort_by_key(|&(t, s)| (t, s));
                    if let Some(&(t, id)) = reference.first() {
                        reference.remove(0);
                        expected.push((t, id));
                        let (qt, qid) = q.pop().expect("queue agrees something is pending");
                        popped.push((qt.as_nanos(), qid));
                    } else {
                        prop_assert!(q.pop().is_none());
                    }
                } else {
                    // Bias schedules towards the current instant (op/7)
                    // so the FIFO path is exercised hard, with some past
                    // and future times mixed in.
                    let t = match op % 3 {
                        0 => popped.last().map_or(op, |&(t, _)| t),
                        1 => op / 2,
                        _ => op,
                    };
                    q.schedule(SimTime::from_nanos(t), i);
                    reference.push((t, i));
                }
            }
            // Drain what is left.
            reference.sort_by_key(|&(t, s)| (t, s));
            for &(t, id) in &reference {
                expected.push((t, id));
                let (qt, qid) = q.pop().expect("entry remains");
                popped.push((qt.as_nanos(), qid));
            }
            prop_assert!(q.pop().is_none());
            prop_assert_eq!(popped, expected);
        }

        /// Backend equivalence: the timing wheel and the binary heap pop
        /// identical (time, event) sequences on randomized schedules —
        /// same-instant storms, wheel-level-straddling gaps, far-future
        /// timers, and pops interleaved with schedules.
        #[test]
        fn backends_pop_identical_sequences(
            ops in proptest::collection::vec((0u64..10_000, 0u8..6), 1..400),
        ) {
            let mut heap = EventQueue::with_heap_backend(0);
            let mut wheel = EventQueue::with_wheel_backend();
            prop_assert!(!heap.is_wheel_backend());
            prop_assert!(wheel.is_wheel_backend());
            let mut last_pop: u64 = 0;
            for (i, &(raw, kind)) in ops.iter().enumerate() {
                let t = match kind {
                    // Same-instant storm at the last popped time.
                    0 => last_pop,
                    // Dense near-term times within a level-0 window.
                    1 => last_pop.saturating_add(raw % (1 << 12)),
                    // Mid-range: level-1/2 territory.
                    2 => raw << 14,
                    // Far-future: level-3 and the overflow heap.
                    3 => raw << 40,
                    // Sentinel-adjacent.
                    4 => u64::MAX - raw,
                    // Pop instead of scheduling.
                    _ => {
                        let h = heap.pop();
                        let w = wheel.pop();
                        prop_assert_eq!(
                            h.as_ref().map(|(t, e)| (*t, *e)),
                            w.as_ref().map(|(t, e)| (*t, *e)),
                            "pop #{} diverged", i
                        );
                        if let Some((t, _)) = h {
                            last_pop = t.as_nanos();
                        }
                        continue;
                    }
                };
                heap.schedule(SimTime::from_nanos(t), i);
                wheel.schedule(SimTime::from_nanos(t), i);
                prop_assert_eq!(heap.peek_time(), wheel.peek_time(), "peek after schedule #{}", i);
            }
            // Drain both completely.
            loop {
                let h = heap.pop();
                let w = wheel.pop();
                prop_assert_eq!(&h.as_ref().map(|(t, e)| (*t, *e)),
                                &w.as_ref().map(|(t, e)| (*t, *e)), "drain diverged");
                if h.is_none() {
                    break;
                }
            }
            prop_assert!(wheel.is_empty());
        }
    }
}
