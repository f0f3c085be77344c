//! Transaction-level 802.11-style MAC.
//!
//! The simulator models each unicast exchange as one channel *transaction*
//! — DIFS + RTS/SIFS/CTS/SIFS/DATA/SIFS/ACK — and each broadcast as
//! DIFS + DATA. Carrier sensing, exponential backoff, a retry limit and
//! hidden-terminal collisions are preserved (they drive the paper's
//! contention effects); per-bit PHY detail is not. Control frames
//! (RTS/CTS/ACK and all routing packets) are sent at maximum power, data
//! frames at the power-controlled level when TPC is on — exactly the
//! accounting of Eqs 1–2.

use crate::frame::Frame;
use eend_sim::{SimDuration, SimRng, SimTime};
use std::collections::VecDeque;

/// ATIM frame body size, bytes.
const ATIM_BYTES: usize = 28;

/// 802.11 (2 Mb/s DSSS) MAC/PHY timing and size constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MacTiming {
    /// Channel bit rate, bits per second.
    pub bandwidth_bps: f64,
    /// Slot time.
    pub slot: SimDuration,
    /// Short inter-frame space.
    pub sifs: SimDuration,
    /// DCF inter-frame space.
    pub difs: SimDuration,
    /// PHY preamble + PLCP header per frame.
    pub phy_overhead: SimDuration,
    /// Minimum contention window (slots).
    pub cw_min: u32,
    /// Maximum contention window (slots).
    pub cw_max: u32,
    /// Transmission attempts before the link is declared broken.
    pub retry_limit: u32,
    /// RTS frame body bytes.
    pub rts_bytes: usize,
    /// CTS frame body bytes.
    pub cts_bytes: usize,
    /// ACK frame body bytes.
    pub ack_bytes: usize,
}

impl MacTiming {
    /// The paper's setting: 2 Mb/s 802.11.
    pub fn ieee80211_2mbps() -> MacTiming {
        MacTiming {
            bandwidth_bps: 2_000_000.0,
            slot: SimDuration::from_micros(20),
            sifs: SimDuration::from_micros(10),
            difs: SimDuration::from_micros(50),
            phy_overhead: SimDuration::from_micros(192),
            cw_min: 31,
            cw_max: 1023,
            retry_limit: 7,
            rts_bytes: 20,
            cts_bytes: 14,
            ack_bytes: 14,
        }
    }

    /// Airtime of a frame body of `bytes` bytes (PHY overhead included).
    pub fn airtime(&self, bytes: usize) -> SimDuration {
        let secs = (bytes * 8) as f64 / self.bandwidth_bps;
        self.phy_overhead + SimDuration::from_secs_f64(secs)
    }

    /// Segment durations of a unicast transaction for a data body of
    /// `bytes` bytes: `(rts, cts, data, ack)` airtimes.
    pub fn unicast_segments(
        &self,
        bytes: usize,
    ) -> (SimDuration, SimDuration, SimDuration, SimDuration) {
        (
            self.airtime(self.rts_bytes),
            self.airtime(self.cts_bytes),
            self.airtime(bytes),
            self.airtime(self.ack_bytes),
        )
    }

    /// Total occupancy of a unicast transaction (DIFS through ACK).
    pub fn unicast_duration(&self, bytes: usize) -> SimDuration {
        let (rts, cts, data, ack) = self.unicast_segments(bytes);
        self.difs + rts + self.sifs + cts + self.sifs + data + self.sifs + ack
    }

    /// A random backoff of `[0, cw]` slots for the given retry stage.
    pub fn backoff(&self, rng: &mut SimRng, stage: u32) -> SimDuration {
        let cw = ((self.cw_min + 1) << stage.min(5)).min(self.cw_max + 1) - 1;
        self.slot.saturating_mul(rng.below(cw as u64 + 1))
    }
}

/// The airtimes of the fixed-size frames, computed once per timing.
///
/// [`MacTiming::airtime`] divides by the bandwidth and rounds to whole
/// nanoseconds on every call. RTS, CTS, ACK and ATIM frames never change
/// size, so their airtimes are constants of the timing; each field is the
/// exact `SimDuration` `airtime` returns for that frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ControlAirtimes {
    rts: SimDuration,
    cts: SimDuration,
    ack: SimDuration,
    atim: SimDuration,
}

impl ControlAirtimes {
    /// Computes the control-frame airtimes of `t`.
    pub(crate) fn new(t: &MacTiming) -> ControlAirtimes {
        ControlAirtimes {
            rts: t.airtime(t.rts_bytes),
            cts: t.airtime(t.cts_bytes),
            ack: t.airtime(t.ack_bytes),
            atim: t.airtime(ATIM_BYTES),
        }
    }

    /// Lays out a unicast transaction whose DATA segment takes `data`
    /// (an airtime from [`MacTiming::airtime`]), with no control-frame
    /// airtime recomputed. A broadcast's plan is laid out the same way;
    /// only its `segments.2`, the broadcast's airtime, is read.
    pub(crate) fn unicast_plan(&self, t: &MacTiming, data: SimDuration) -> UnicastPlan {
        let rts_start = t.difs;
        let cts_start = rts_start + self.rts + t.sifs;
        let data_start = cts_start + self.cts + t.sifs;
        let ack_start = data_start + data + t.sifs;
        let end = ack_start + self.ack;
        let segments = (self.rts, self.cts, data, self.ack);
        UnicastPlan { rts_start, cts_start, data_start, ack_start, end, segments }
    }

    /// Airtime of an RTS.
    pub(crate) fn rts(&self) -> SimDuration {
        self.rts
    }

    /// Airtime of a CTS.
    pub(crate) fn cts(&self) -> SimDuration {
        self.cts
    }

    /// Airtime of an ATIM announcement.
    pub(crate) fn atim(&self) -> SimDuration {
        self.atim
    }
}

/// Spare interface-queue buffers, shared by every node's [`MacState`].
///
/// A queue that drains hands its buffer here, and a frame entering an
/// empty queue takes one back, so the buffers in use follow the queues
/// holding frames at once rather than every node a flood ever reached.
#[derive(Debug, Default)]
pub struct QueuePool {
    spare: Vec<VecDeque<Frame>>,
}

/// Per-node MAC state: the interface queue plus the transaction lock.
///
/// The queue owns a buffer only while it holds frames (see [`QueuePool`]);
/// the methods that add or remove frames take the pool for that reason.
/// The queue's capacity is one value per run, so [`MacState::enqueue`]
/// takes it from the caller rather than every row holding a copy.
#[derive(Debug, Clone, Default)]
pub struct MacState {
    queue: VecDeque<Frame>,
    /// Set while this node participates in a transaction (either side).
    pub busy: bool,
    /// Consecutive failed attempts for the head-of-line frame.
    pub retries: u32,
    /// `true` when a `MacTick` event is already scheduled, to avoid
    /// flooding the queue with redundant wake-ups.
    pub tick_pending: bool,
}

impl MacState {
    /// Creates an idle MAC with an empty interface queue.
    pub fn new() -> MacState {
        MacState::default()
    }

    /// Enqueues a frame unless the queue already holds `capacity` frames
    /// (ns-2's default IFQ is 50 packets). On overflow the frame is
    /// handed back, so the caller can count the drop and see what died.
    /// (It comes back by value, as it went in: boxing it would allocate
    /// on every overflow.)
    #[allow(clippy::result_large_err)]
    pub fn enqueue(
        &mut self,
        frame: Frame,
        capacity: usize,
        pool: &mut QueuePool,
    ) -> Result<(), Frame> {
        if self.queue.len() >= capacity {
            return Err(frame);
        }
        self.claim_buffer(pool);
        self.queue.push_back(frame);
        Ok(())
    }

    /// Takes a spare buffer for a queue that has none.
    fn claim_buffer(&mut self, pool: &mut QueuePool) {
        if self.queue.capacity() == 0 {
            if let Some(buf) = pool.spare.pop() {
                self.queue = buf;
            }
        }
    }

    /// Removes the head-of-line frame, returning the buffer to `pool`
    /// when that drains the queue.
    fn take_head(&mut self, pool: &mut QueuePool) -> Option<Frame> {
        self.retries = 0;
        let head = self.queue.pop_front();
        if self.queue.is_empty() && self.queue.capacity() > 0 {
            pool.spare.push(std::mem::take(&mut self.queue));
        }
        head
    }

    /// The head-of-line frame, if any.
    pub fn head(&self) -> Option<&Frame> {
        self.queue.front()
    }

    /// Removes and returns the head-of-line frame.
    pub fn pop_head(&mut self, pool: &mut QueuePool) -> Option<Frame> {
        self.take_head(pool)
    }

    /// Drops the head-of-line frame (retry exhaustion), returning it.
    pub fn drop_head(&mut self, pool: &mut QueuePool) -> Option<Frame> {
        self.take_head(pool)
    }

    /// Number of queued frames.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// `true` if nothing is queued.
    pub fn queue_is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Iterates the queued frames (head first).
    pub fn queued(&self) -> impl Iterator<Item = &Frame> {
        self.queue.iter()
    }

    /// Moves the head-of-line frame to the back of the queue (used when
    /// the head's destination is asleep but later frames could still go).
    pub fn rotate_head(&mut self) {
        if let Some(f) = self.queue.pop_front() {
            self.queue.push_back(f);
            self.retries = 0;
        }
    }

    /// Returns a frame to the head of the queue (a collided transaction
    /// being retried). Bypasses the capacity check — the frame was
    /// already admitted once.
    pub fn push_front(&mut self, frame: Frame, pool: &mut QueuePool) {
        self.claim_buffer(pool);
        self.queue.push_front(frame);
    }
}

/// When the planned segments of a transaction start/end, relative to the
/// transaction start; used to charge energy with exact boundaries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnicastPlan {
    /// Transaction start (after DIFS the RTS begins).
    pub rts_start: SimDuration,
    /// CTS segment start.
    pub cts_start: SimDuration,
    /// DATA segment start.
    pub data_start: SimDuration,
    /// ACK segment start.
    pub ack_start: SimDuration,
    /// Transaction end.
    pub end: SimDuration,
    /// RTS/CTS/DATA/ACK airtimes.
    pub segments: (SimDuration, SimDuration, SimDuration, SimDuration),
}

/// Absolute instants of a transaction, `plan` offset by `start`.
pub fn plan_at(
    plan: &UnicastPlan,
    start: SimTime,
) -> (SimTime, SimTime, SimTime, SimTime, SimTime) {
    (
        start + plan.rts_start,
        start + plan.cts_start,
        start + plan.data_start,
        start + plan.ack_start,
        start + plan.end,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{Packet, PacketKind};

    fn frame(uid: u64) -> Frame {
        Frame {
            tx: 0,
            rx: Some(1),
            packet: Packet {
                uid,
                kind: PacketKind::Data { flow: 0, seq: uid, rate_bps: 2000.0 },
                src: 0,
                dst: 1,
                size_bytes: 128,
                route: vec![0, 1],
                hop_idx: 0,
                salvage: 0,
            },
        }
    }

    #[test]
    fn airtime_at_2mbps() {
        let t = MacTiming::ieee80211_2mbps();
        // 128 B = 1024 bits = 512 µs at 2 Mb/s, + 192 µs PHY.
        assert_eq!(t.airtime(128), SimDuration::from_micros(704));
    }

    #[test]
    fn unicast_duration_sums_segments() {
        let t = MacTiming::ieee80211_2mbps();
        let (rts, cts, data, ack) = t.unicast_segments(100);
        let total = t.unicast_duration(100);
        assert_eq!(total, t.difs + rts + t.sifs + cts + t.sifs + data + t.sifs + ack);
    }

    #[test]
    fn plan_is_internally_consistent() {
        let t = MacTiming::ieee80211_2mbps();
        let p = ControlAirtimes::new(&t).unicast_plan(&t, t.airtime(164));
        assert_eq!(p.end, t.unicast_duration(164));
        assert!(p.rts_start < p.cts_start);
        assert!(p.cts_start < p.data_start);
        assert!(p.data_start < p.ack_start);
        let (r, c, d, _a) = p.segments;
        assert_eq!(p.cts_start - p.rts_start, r + t.sifs);
        assert_eq!(p.data_start - p.cts_start, c + t.sifs);
        assert_eq!(p.ack_start - p.data_start, d + t.sifs);
        let at = plan_at(&p, SimTime::from_secs(1));
        assert_eq!(at.0, SimTime::from_secs(1) + t.difs);
        assert_eq!(at.4, SimTime::from_secs(1) + p.end);
    }

    #[test]
    fn control_airtimes_equal_the_computed_ones() {
        for t in [
            MacTiming::ieee80211_2mbps(),
            MacTiming { bandwidth_bps: 11e6, ..MacTiming::ieee80211_2mbps() },
        ] {
            let air = ControlAirtimes::new(&t);
            assert_eq!(air.atim, t.airtime(ATIM_BYTES));
            for bytes in [0, 1, 20, 164, 1500] {
                let p = air.unicast_plan(&t, t.airtime(bytes));
                assert_eq!(p.segments, t.unicast_segments(bytes));
                assert_eq!(p.end, t.unicast_duration(bytes));
            }
        }
    }

    #[test]
    fn backoff_grows_with_stage_and_stays_bounded() {
        let t = MacTiming::ieee80211_2mbps();
        let mut rng = SimRng::new(5);
        for stage in 0..10 {
            let cw_slots = (((t.cw_min + 1) << stage.min(5)).min(t.cw_max + 1) - 1) as u64;
            for _ in 0..200 {
                let b = t.backoff(&mut rng, stage);
                assert!(b <= t.slot.saturating_mul(cw_slots));
            }
        }
        // Stage 0 must be able to produce small backoffs.
        let mut rng = SimRng::new(6);
        let min = (0..100).map(|_| t.backoff(&mut rng, 0)).min().unwrap();
        assert!(min <= t.slot.saturating_mul(3));
    }

    #[test]
    fn queue_overflow_drops() {
        let (mut m, mut pool) = (MacState::new(), QueuePool::default());
        assert!(m.enqueue(frame(1), 2, &mut pool).is_ok());
        assert!(m.enqueue(frame(2), 2, &mut pool).is_ok());
        let dropped = m.enqueue(frame(3), 2, &mut pool).expect_err("a full queue refuses");
        assert_eq!(dropped.packet.uid, 3, "the refused frame comes back");
        assert_eq!(m.queue_len(), 2);
        assert_eq!(m.head().unwrap().packet.uid, 1);
    }

    #[test]
    fn pop_resets_retries() {
        let (mut m, mut pool) = (MacState::new(), QueuePool::default());
        m.enqueue(frame(1), 10, &mut pool).unwrap();
        m.retries = 5;
        let f = m.pop_head(&mut pool).unwrap();
        assert_eq!(f.packet.uid, 1);
        assert_eq!(m.retries, 0);
        assert!(m.queue_is_empty());
    }

    #[test]
    fn rotate_head_cycles() {
        let (mut m, mut pool) = (MacState::new(), QueuePool::default());
        m.enqueue(frame(1), 10, &mut pool).unwrap();
        m.enqueue(frame(2), 10, &mut pool).unwrap();
        m.rotate_head();
        assert_eq!(m.head().unwrap().packet.uid, 2);
        m.rotate_head();
        assert_eq!(m.head().unwrap().packet.uid, 1);
    }

    #[test]
    fn drained_queues_share_their_buffers() {
        let mut pool = QueuePool::default();
        let (mut a, mut b) = (MacState::new(), MacState::new());
        a.enqueue(frame(1), 10, &mut pool).unwrap();
        a.enqueue(frame(2), 10, &mut pool).unwrap();
        assert!(pool.spare.is_empty());
        a.pop_head(&mut pool);
        assert!(pool.spare.is_empty(), "a queue holding a frame keeps its buffer");
        a.drop_head(&mut pool);
        assert_eq!(pool.spare.len(), 1, "the drained queue returned its buffer");
        assert_eq!(a.queue.capacity(), 0);
        b.push_front(frame(3), &mut pool);
        assert!(pool.spare.is_empty(), "an empty queue reuses the spare buffer");
        assert_eq!(b.head().unwrap().packet.uid, 3);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_mac_row_holds_no_per_run_value() {
        assert_eq!(std::mem::size_of::<MacState>(), 40);
    }
}
