//! The deterministic event queue.
//!
//! Events are keyed by `(time, sequence)`. The sequence number is a
//! monotonically increasing insertion counter, so two events scheduled for
//! the same instant pop in the order they were scheduled. This makes event
//! delivery a *total* order — a prerequisite for bit-reproducible runs —
//! without requiring the event type to be `Ord` itself.
//!
//! Pending events live in one binary min-heap, O(log n) per operation.
//! It starts empty and grows to the most events pending at once, which
//! on every field from 50 to 100k nodes is a few per node at most.
//!
//! Discrete-event workloads schedule a large share of their events at the
//! *current* instant (a handler waking its neighbours "now"). Those
//! events bypass the heap entirely: they go to a FIFO of currently-due
//! entries and pop in O(1). [`EventQueue::pop`] always returns the global
//! `(time, seq)` minimum across both structures, so the delivery order is
//! exactly the order the heap alone would produce — a property pinned
//! against a sorted-vector reference (`fast_path_matches_reference_order`).

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

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
    heap: BinaryHeap<Entry<E>>,
    /// Entries scheduled at exactly `now_time` (the time of the last
    /// pop), in seq order. Drained before `now_time` can advance, since
    /// pop always takes the global `(time, seq)` minimum.
    now_fifo: VecDeque<Entry<E>>,
    now_time: Option<SimTime>,
    seq: u64,
    scheduled_total: u64,
    peak_len: usize,
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
        other.time.cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue. It reserves nothing: the heap and the
    /// same-instant FIFO each grow to the most they hold at once.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            now_fifo: VecDeque::new(),
            now_time: None,
            seq: 0,
            scheduled_total: 0,
            peak_len: 0,
        }
    }

    /// Schedules `event` at absolute time `time`.
    #[inline]
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let entry = Entry { time, seq: self.seq, event };
        self.seq += 1;
        self.scheduled_total += 1;
        // The FIFO front must be the FIFO's (time, seq) minimum: entries
        // share one timestamp (the guard) and seqs grow monotonically.
        // Past-time schedules (legal through the public API, never issued
        // by the simulator) take the heap, which handles any order.
        if self.now_time == Some(time) && self.now_fifo.back().is_none_or(|back| back.time == time)
        {
            self.now_fifo.push_back(entry);
        } else {
            self.heap.push(entry);
        }
        self.peak_len = self.peak_len.max(self.len());
    }

    /// Removes and returns the earliest event, with its timestamp.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        // Global (time, seq) minimum across the heap and the now-FIFO:
        // identical delivery order to the heap alone.
        let take_fifo = match (self.now_fifo.front(), self.heap.peek()) {
            (Some(f), Some(h)) => (f.time, f.seq) < (h.time, h.seq),
            (Some(_), None) => true,
            _ => false,
        };
        let e = if take_fifo { self.now_fifo.pop_front() } else { self.heap.pop() }?;
        self.now_time = Some(e.time);
        Some((e.time, e.event))
    }

    /// Timestamp of the earliest pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        match (self.now_fifo.front(), self.heap.peek()) {
            (Some(f), Some(h)) => Some(f.time.min(h.time)),
            (Some(e), None) | (None, Some(e)) => Some(e.time),
            (None, None) => None,
        }
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len() + self.now_fifo.len()
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

    /// Combined allocated capacity of the heap and the same-instant FIFO.
    /// Both start empty and at most double past what they held at once,
    /// so this stays within a small factor of [`EventQueue::peak_len`].
    pub fn capacity(&self) -> usize {
        self.heap.capacity() + self.now_fifo.capacity()
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.now_fifo.clear();
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

    #[test]
    fn pops_in_time_order() {
        // Sentinel, far-future and sparse times from 1 ns to 2⁴¹ ns,
        // with pairs 1 ns and 2¹⁷ ns apart, scheduled out of order.
        let times: &[u64] = &[
            u64::MAX,
            3_000_000_000,
            86_400 * 30 * 1_000_000_000,
            1 << 30,
            (1 << 30) + 1,
            1 << 25,
            (1 << 25) + (1 << 17),
            1 << 41,
            3,
            1 << 16,
            1,
            2,
        ];
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(1)));
        let mut sorted: Vec<(u64, usize)> =
            times.iter().copied().enumerate().map(|(i, t)| (t, i)).collect();
        sorted.sort_unstable();
        for (t, i) in sorted {
            let (qt, qi) = q.pop().unwrap();
            assert_eq!((qt.as_nanos(), qi), (t, i));
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(100);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
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
        let mut q = EventQueue::<()>::new();
        assert!(q.is_empty());
        assert_eq!(q.capacity(), 0, "a new queue reserves nothing");
        q.schedule(SimTime::ZERO, ());
        q.schedule(SimTime::ZERO, ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peak_len(), 2);
        assert_eq!(q.scheduled_total(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::ZERO));
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 2, "clear must not reset the total");
        assert_eq!(q.peak_len(), 2, "clear must not reset the peak");
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
            let mut q = EventQueue::new();
            for i in 0..n {
                q.schedule(SimTime::from_nanos(t), i);
            }
            for i in 0..n {
                prop_assert_eq!(q.pop().unwrap().1, i);
            }
        }

        /// The now-FIFO fast path is invisible: arbitrary interleavings of
        /// schedules and pops deliver exactly the (time, seq) order of a
        /// sorted-vector reference, with `peek_time` and `len` agreeing
        /// after every schedule. Schedules cover same-instant storms at
        /// the just-popped instant, dense near-term and past times,
        /// mid-range and far-future gaps, and sentinel-adjacent times.
        #[test]
        fn fast_path_matches_reference_order(
            ops in proptest::collection::vec((0u64..10_000, 0u8..8), 1..400),
        ) {
            let mut q = EventQueue::new();
            // Pending (time, id) pairs; ids grow in schedule order, so
            // sorting by (time, id) is sorting by (time, seq).
            let mut reference: Vec<(u64, usize)> = Vec::new();
            let mut next_id = 0;
            let mut last_pop: u64 = 0;
            for &(raw, kind) in &ops {
                let (t, copies) = match kind {
                    // Same-instant storm at the last popped time.
                    0 => (last_pop, 1 + raw % 8),
                    // Dense near-term times.
                    1 => (last_pop.saturating_add(raw % (1 << 12)), 1),
                    // At or just before the last pop; the past takes the heap.
                    2 => (last_pop.saturating_sub(raw % 3), 1),
                    // Mid-range.
                    3 => (raw << 14, 1),
                    // Far future.
                    4 => (raw << 40, 1),
                    // Sentinel-adjacent.
                    5 => (u64::MAX - raw, 1),
                    // Pop the reference minimum and the queue's choice.
                    _ => {
                        reference.sort_unstable();
                        let want = (!reference.is_empty()).then(|| reference.remove(0));
                        let got = q.pop().map(|(t, id)| (t.as_nanos(), id));
                        prop_assert_eq!(got, want);
                        if let Some((t, _)) = got {
                            last_pop = t;
                        }
                        continue;
                    }
                };
                for _ in 0..copies {
                    q.schedule(SimTime::from_nanos(t), next_id);
                    reference.push((t, next_id));
                    next_id += 1;
                }
                let min = reference.iter().map(|&(t, _)| t).min();
                prop_assert_eq!(q.peek_time().map(SimTime::as_nanos), min);
                prop_assert_eq!(q.len(), reference.len());
            }
            // Drain what is left.
            reference.sort_unstable();
            for &want in &reference {
                prop_assert_eq!(q.pop().map(|(t, id)| (t.as_nanos(), id)), Some(want));
            }
            prop_assert!(q.pop().is_none());
            prop_assert!(q.is_empty());
            prop_assert_eq!(q.scheduled_total(), next_id as u64);
        }
    }
}
