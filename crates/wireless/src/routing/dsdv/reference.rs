//! The DSDV agent as it stood before its state became node-indexed rows,
//! kept verbatim as a test reference: three `HashMap`s for the table, the
//! packet buffer and the reverse next-hop index. Its one change is the
//! flush of buffered packets, which now runs in ascending destination
//! order instead of the hash map's per-instance key order; the
//! Vec-returning conveniences are left out, as the test drives the
//! `_into` entry points the event loop uses. The property
//! test below feeds the live agent and this one the same random event
//! sequences and requires the same emitted actions, routes, counters and
//! reverse-index contents after every step. Between steps the nodes may
//! move (to fresh positions or back to earlier ones) and the agent's
//! power-management mode may flip unannounced, so the live agent's
//! link-cost memo is checked against a reference that computes every
//! cost afresh.

use super::{DsdvConfig, DsdvEntry, DsdvRouting as LiveDsdv, BYTES_PER_ENTRY};
use crate::channel::Channel;
use crate::frame::{Frame, NodeId, Packet, PacketKind};
use crate::power::PmMode;
use crate::routing::{Action, Discoveries, DropReason, RoutingCtx, TimerKind};
use crate::scenario::RoutingKind;
use eend_radio::cards;
use eend_sim::{SimDuration, SimRng, SimTime};
use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};

#[derive(Debug, Clone, Copy)]
struct TableRoute {
    next: NodeId,
    metric: f64,
    seq: u64,
}

/// Per-node DSDV state.
#[derive(Debug, Clone)]
pub struct DsdvRouting {
    cfg: DsdvConfig,
    table: HashMap<NodeId, TableRoute>,
    buffer: HashMap<NodeId, VecDeque<Packet>>,
    own_seq: u64,
    last_trigger: Option<SimTime>,
    /// Destinations adopted since the last advertisement; triggered
    /// updates are *incremental* (DSDV's design) and carry only these.
    dirty: Vec<NodeId>,
    /// Reverse next-hop index: neighbour → destinations routed through
    /// it at some point. Entries go stale when a destination's next hop
    /// changes, so consumers re-check `table` while draining; staleness
    /// never affects the outcome because invalidation is idempotent.
    /// This is what makes link-failure handling O(routes via the dead
    /// hop) instead of a full-table scan per MAC-reported failure — the
    /// per-event cost that used to grow with network size.
    via: HashMap<NodeId, Vec<NodeId>>,
    /// Updates broadcast (metrics).
    pub updates_sent: u64,
}

impl DsdvRouting {
    /// Fresh state for one node.
    pub fn new(cfg: DsdvConfig) -> DsdvRouting {
        DsdvRouting {
            cfg,
            table: HashMap::new(),
            buffer: HashMap::new(),
            own_seq: 0,
            last_trigger: None,
            dirty: Vec::new(),
            via: HashMap::new(),
            updates_sent: 0,
        }
    }

    /// The current next hop towards `dst`, if a valid route exists.
    pub fn next_hop(&self, dst: NodeId) -> Option<NodeId> {
        self.table.get(&dst).filter(|r| r.metric.is_finite()).map(|r| r.next)
    }

    /// Number of valid table entries.
    pub fn route_count(&self) -> usize {
        self.table.values().filter(|r| r.metric.is_finite()).count()
    }

    fn build_update(&mut self, ctx: &RoutingCtx<'_>, full: bool) -> Frame {
        if full {
            self.own_seq += 2;
        }
        self.updates_sent += 1;
        let mut entries = vec![DsdvEntry { dst: ctx.node, metric: 0.0, seq: self.own_seq }];
        let mut dsts: Vec<NodeId> = if full {
            self.table.keys().copied().collect()
        } else {
            let mut d = std::mem::take(&mut self.dirty);
            d.sort_unstable();
            d.dedup();
            d
        };
        dsts.sort_unstable(); // deterministic advertisement order
        if full {
            self.dirty.clear();
        }
        for dst in dsts {
            let Some(r) = self.table.get(&dst) else { continue };
            entries.push(DsdvEntry { dst, metric: r.metric, seq: r.seq });
        }
        let size = BYTES_PER_ENTRY * entries.len();
        let packet = Packet {
            uid: 0,
            kind: PacketKind::DsdvUpdate { entries },
            src: ctx.node,
            dst: usize::MAX,
            size_bytes: size,
            route: Vec::new(),
            hop_idx: 0,
            salvage: 0,
        };
        Frame { tx: ctx.node, rx: None, packet }
    }

    /// Handles a freshly generated application packet. Allocation-free
    /// entry point (see [`DsdvRouting::on_app_packet`]).
    pub fn on_app_packet_into(
        &mut self,
        ctx: &mut RoutingCtx<'_>,
        mut packet: Packet,
        out: &mut Vec<Action>,
    ) {
        match self.next_hop(packet.dst) {
            Some(next) => {
                packet.route = vec![ctx.node];
                packet.hop_idx = 0;
                out.push(Action::Send(Frame { tx: ctx.node, rx: Some(next), packet }));
            }
            None => {
                let buf = self.buffer.entry(packet.dst).or_default();
                if buf.len() >= self.cfg.buffer_per_dst {
                    out.push(Action::Drop(packet, DropReason::BufferOverflow));
                    return;
                }
                buf.push_back(packet);
            }
        }
    }

    /// Handles a received frame. Table advertisements are merged from a
    /// borrow — the (potentially whole-table) entry list is never cloned
    /// just to dispatch on the packet kind. Allocation-free entry point
    /// (see [`DsdvRouting::on_frame`]).
    pub fn on_frame_into(&mut self, ctx: &mut RoutingCtx<'_>, frame: Frame, out: &mut Vec<Action>) {
        let from = frame.tx;
        let mut packet = frame.packet;
        if let PacketKind::DsdvUpdate { entries } = &packet.kind {
            return self.on_update_into(ctx, from, entries, out);
        }
        if !packet.kind.is_data() {
            // Reactive control traffic is foreign to DSDV nodes.
            return;
        }
        let me = ctx.node;
        if packet.dst == me {
            packet.route.push(me);
            out.push(Action::Deliver(packet));
            return;
        }
        if packet.route.contains(&me) {
            // Transient loop while tables converge: shed the packet.
            out.push(Action::Drop(packet, DropReason::NoRoute));
            return;
        }
        match self.next_hop(packet.dst) {
            Some(next) => {
                packet.route.push(me);
                packet.hop_idx += 1;
                out.push(Action::Send(Frame { tx: me, rx: Some(next), packet }));
            }
            None => out.push(Action::Drop(packet, DropReason::NoRoute)),
        }
    }

    /// Handles a broadcast reception without taking ownership (see
    /// [`crate::routing::RoutingAgent::on_broadcast`]): advertisements —
    /// the only broadcast DSDV traffic — are merged straight from the
    /// shared frame. Allocation-free entry point (see
    /// [`DsdvRouting::on_broadcast`]).
    pub fn on_broadcast_into(
        &mut self,
        ctx: &mut RoutingCtx<'_>,
        frame: &Frame,
        out: &mut Vec<Action>,
    ) {
        if let PacketKind::DsdvUpdate { entries } = &frame.packet.kind {
            return self.on_update_into(ctx, frame.tx, entries, out);
        }
        self.on_frame_into(ctx, frame.clone(), out)
    }

    fn on_update_into(
        &mut self,
        ctx: &mut RoutingCtx<'_>,
        from: NodeId,
        entries: &[DsdvEntry],
        out: &mut Vec<Action>,
    ) {
        let me = ctx.node;
        let dist = ctx.channel.distance(from, me);
        let in_psm = ctx.pm_modes[me] == PmMode::PowerSave;
        let link = self.cfg.metric.link_cost(ctx.card, dist, in_psm, 0.0, ctx.bandwidth_bps);
        let mut learned_new_dst = false;
        let mut adopted_newer_seq = false;
        for e in entries {
            if e.dst == me {
                continue;
            }
            let new_metric = if e.metric.is_finite() { e.metric + link } else { f64::INFINITY };
            let adopt = match self.table.get(&e.dst) {
                None => true,
                Some(cur) => {
                    e.seq > cur.seq || (e.seq == cur.seq && new_metric < cur.metric - 1e-9)
                }
            };
            if adopt {
                match self.table.get(&e.dst) {
                    None if new_metric.is_finite() => {
                        learned_new_dst = true;
                        adopted_newer_seq = true;
                    }
                    Some(cur) if e.seq > cur.seq => adopted_newer_seq = true,
                    _ => {}
                }
                self.table.insert(e.dst, TableRoute { next: from, metric: new_metric, seq: e.seq });
                self.dirty.push(e.dst);
                self.via.entry(from).or_default().push(e.dst);
            }
        }
        // Amortised compaction of the reverse index: once the list for
        // this neighbour outgrows the (deduplicated) routes it could
        // possibly cover, drop the stale entries. Growth back to the
        // threshold takes at least `table.len()` adoptions, so the cost
        // is O(1) amortised per adoption.
        if let Some(list) = self.via.get_mut(&from) {
            if list.len() > 16 && list.len() > 2 * self.table.len() {
                list.sort_unstable();
                list.dedup();
                let table = &self.table;
                list.retain(|d| table.get(d).is_some_and(|r| r.next == from));
            }
        }
        // Flush buffered packets whose destinations became reachable.
        // Standard DSDV triggered update: propagate newly adopted sequence
        // numbers promptly (rate-limited; own sequence is not bumped, so
        // the cascade settles once every node has seen the new numbers).
        if adopted_newer_seq && self.cfg.trigger_on_adoption {
            let gap_ok =
                self.last_trigger.is_none_or(|last| ctx.now >= last + self.cfg.min_trigger_gap);
            if gap_ok {
                self.last_trigger = Some(ctx.now);
                let update = self.build_update(ctx, false);
                out.push(Action::Send(update));
            }
        }
        if learned_new_dst {
            let mut reachable: Vec<NodeId> =
                self.buffer.keys().copied().filter(|d| self.next_hop(*d).is_some()).collect();
            reachable.sort_unstable();
            for dst in reachable {
                let next = self.next_hop(dst).expect("filtered");
                if let Some(buf) = self.buffer.remove(&dst) {
                    for mut p in buf {
                        p.route = vec![me];
                        p.hop_idx = 0;
                        out.push(Action::Send(Frame { tx: me, rx: Some(next), packet: p }));
                    }
                }
            }
        }
    }

    /// Handles a fired timer (periodic advertisement). Allocation-free
    /// entry point (see [`DsdvRouting::on_timer`]).
    pub fn on_timer_into(
        &mut self,
        ctx: &mut RoutingCtx<'_>,
        kind: TimerKind,
        out: &mut Vec<Action>,
    ) {
        if kind != TimerKind::DsdvPeriodic {
            return;
        }
        let frame = self.build_update(ctx, true);
        out.push(Action::Send(frame));
        out.push(Action::Timer(TimerKind::DsdvPeriodic, ctx.now + self.cfg.periodic));
    }

    /// Handles a dead link reported by the MAC: mark routes through the
    /// failed neighbour broken (odd sequence, the DSDV convention).
    /// Allocation-free entry point (see [`DsdvRouting::on_link_failure`]).
    pub fn on_link_failure_into(
        &mut self,
        _ctx: &mut RoutingCtx<'_>,
        frame: Frame,
        out: &mut Vec<Action>,
    ) {
        let Some(bad) = frame.rx else { return };
        // Drain the reverse index instead of scanning the whole table:
        // every route whose *current* next hop is `bad` was pushed into
        // `via[bad]` when it was adopted. Stale entries (next hop since
        // changed) fail the `r.next == bad` re-check; duplicates are
        // harmless because the first invalidation flips the metric to
        // infinite and later visits skip on `is_finite`. The table state
        // afterwards is exactly what the full scan produced.
        if let Some(mut dsts) = self.via.remove(&bad) {
            for dst in dsts.drain(..) {
                if let Some(r) = self.table.get_mut(&dst) {
                    if r.next == bad && r.metric.is_finite() {
                        r.metric = f64::INFINITY;
                        r.seq += 1;
                    }
                }
            }
        }
        if frame.packet.kind.is_data() {
            out.push(Action::Drop(frame.packet, DropReason::LinkFailure));
        }
    }

    /// DSDVH's trigger: the node's own PM state changed, so every route
    /// through it changed cost — advertise (rate-limited).
    /// Allocation-free entry point (see [`DsdvRouting::on_pm_changed`]).
    pub fn on_pm_changed_into(
        &mut self,
        ctx: &mut RoutingCtx<'_>,
        _mode: PmMode,
        out: &mut Vec<Action>,
    ) {
        if !self.cfg.trigger_on_pm_change {
            return;
        }
        if let Some(last) = self.last_trigger {
            if ctx.now < last + self.cfg.min_trigger_gap {
                return;
            }
        }
        self.last_trigger = Some(ctx.now);
        let update = self.build_update(ctx, false);
        out.push(Action::Send(update));
    }
}

// ---------------------------------------------------------------------
// Equivalence.

/// Ids advertised and addressed. Beyond the channel's few nodes, so the
/// live table holds sparse rows and its length differs from `known`.
const IDS: usize = 40;

/// One event, handed to both agents.
#[derive(Clone)]
enum Op {
    Broadcast(Frame),
    Frame(Frame),
    App(Packet),
    LinkFailure(Frame),
    PmChange(PmMode),
    Timer(TimerKind),
}

macro_rules! apply {
    ($agent:expr, $op:expr, $ctx:expr, $out:expr) => {
        match $op.clone() {
            Op::Broadcast(f) => $agent.on_broadcast_into($ctx, &f, $out),
            Op::Frame(f) => $agent.on_frame_into($ctx, f, $out),
            Op::App(p) => $agent.on_app_packet_into($ctx, p, $out),
            Op::LinkFailure(f) => $agent.on_link_failure_into($ctx, f, $out),
            Op::PmChange(m) => $agent.on_pm_changed_into($ctx, m, $out),
            Op::Timer(k) => $agent.on_timer_into($ctx, k, $out),
        }
    };
}

fn packet(kind: PacketKind, src: NodeId, dst: NodeId, route: Vec<NodeId>) -> Packet {
    Packet { uid: 7, kind, src, dst, size_bytes: 128, route, hop_idx: 0, salvage: 0 }
}

fn data(src: NodeId, dst: NodeId, route: Vec<NodeId>) -> Packet {
    packet(PacketKind::Data { flow: 0, seq: 0, rate_bps: 2000.0 }, src, dst, route)
}

/// A random advertisement from a node other than `me`: random ids,
/// sequence numbers with both parities, finite metrics drawn from a few
/// values (so equal-seq ties and 1e-9 margins occur) or at random,
/// infinite metrics, and repeated destinations.
fn advert(g: &mut SimRng, me: NodeId, n: usize) -> Frame {
    let from = (me + g.range_usize(1, n)) % n;
    let mut entries: Vec<DsdvEntry> = Vec::new();
    for _ in 0..g.range_usize(0, 14) {
        let dst = if !entries.is_empty() && g.chance(0.15) {
            entries[g.range_usize(0, entries.len())].dst
        } else if g.chance(0.1) {
            me
        } else {
            g.range_usize(0, IDS)
        };
        let metric = match g.below(5) {
            0 => f64::INFINITY,
            1 => g.range_f64(0.0, 5000.0),
            k => [0.0, 1.0, 850.0][k as usize - 2],
        };
        entries.push(DsdvEntry { dst, metric, seq: g.below(10) });
    }
    let size = BYTES_PER_ENTRY * entries.len();
    let mut p = packet(PacketKind::DsdvUpdate { entries }, from, usize::MAX, Vec::new());
    p.size_bytes = size;
    Frame { tx: from, rx: None, packet: p }
}

fn random_op(g: &mut SimRng, me: NodeId, n: usize, pm: &mut [PmMode]) -> Op {
    match g.below(100) {
        0..=39 => {
            let f = advert(g, me, n);
            if g.chance(0.5) {
                Op::Broadcast(f)
            } else {
                Op::Frame(f)
            }
        }
        40..=54 => Op::App(data(me, g.range_usize(0, IDS), Vec::new())),
        55..=69 => {
            let dst = if g.chance(0.2) { me } else { g.range_usize(0, IDS) };
            let hops = g.range_usize(1, 4);
            let route: Vec<NodeId> = (0..hops).map(|_| g.range_usize(0, n)).collect();
            let tx = *route.last().expect("non-empty");
            Op::Frame(Frame { tx, rx: Some(me), packet: data(0, dst, route) })
        }
        70..=79 => {
            let rx = if g.chance(0.9) { Some(g.range_usize(0, n)) } else { None };
            let packet = if g.chance(0.7) {
                data(me, g.range_usize(0, IDS), vec![me])
            } else {
                advert(g, me, n).packet
            };
            Op::LinkFailure(Frame { tx: me, rx, packet })
        }
        80..=89 => {
            let mode = if g.chance(0.5) { PmMode::PowerSave } else { PmMode::ActiveMode };
            pm[me] = mode;
            Op::PmChange(mode)
        }
        90..=97 => Op::Timer(TimerKind::DsdvPeriodic),
        _ => Op::Timer(TimerKind::Discovery { target: 1, attempt: 1 }),
    }
}

fn run_case(seed: u64) -> Result<(), TestCaseError> {
    let mut g = SimRng::new(seed);
    let n = g.range_usize(2, 9);
    let place = |g: &mut SimRng| -> Vec<(f64, f64)> {
        (0..n).map(|_| (g.range_f64(0.0, 300.0), g.range_f64(0.0, 300.0))).collect()
    };
    let mut layouts = vec![place(&mut g)];
    let mut channel = Channel::new(layouts[0].clone(), 250.0);
    let all_cards = cards::all();
    let card = all_cards[g.range_usize(0, all_cards.len())];
    let mut pm = vec![PmMode::ActiveMode; n];
    let me = g.range_usize(0, n);
    let mut cfg = if g.chance(0.5) { DsdvConfig::dsdvh() } else { DsdvConfig::dsdv() };
    cfg.trigger_on_adoption = g.chance(0.8);
    cfg.buffer_per_dst = g.range_usize(0, 4);
    cfg.min_trigger_gap = SimDuration::from_millis(g.below(1500));
    let config = RoutingKind::Dsdv(cfg);
    let mut live = LiveDsdv::new();
    let mut reference = DsdvRouting::new(cfg);
    let (mut rng_live, mut rng_ref) = (SimRng::new(1), SimRng::new(1));
    let mut now_ms = 0;
    for step in 0..g.range_usize(1, 250) {
        now_ms += g.below(800);
        if g.chance(0.15) {
            // Mobility: a fresh layout, or back to an earlier one so a
            // distance recurs after it changed.
            let layout = if g.chance(0.5) {
                place(&mut g)
            } else {
                layouts[g.range_usize(0, layouts.len())].clone()
            };
            layouts.push(layout.clone());
            channel.set_positions(layout);
        }
        if g.chance(0.1) {
            pm[me] =
                if pm[me] == PmMode::PowerSave { PmMode::ActiveMode } else { PmMode::PowerSave };
        }
        let op = random_op(&mut g, me, n, &mut pm);
        let (mut out_live, mut out_ref) = (Vec::new(), Vec::new());
        let ctx = |rng, discoveries| RoutingCtx {
            node: me,
            now: SimTime::from_millis(now_ms),
            channel: &channel,
            pm_modes: &pm,
            card: &card,
            bandwidth_bps: 2_000_000.0,
            config: &config,
            rng,
            active_neighbors: None,
            discoveries,
        };
        let (mut disc_live, mut disc_ref) = (Discoveries::default(), Discoveries::default());
        apply!(live, op, &mut ctx(&mut rng_live, &mut disc_live), &mut out_live);
        apply!(reference, op, &mut ctx(&mut rng_ref, &mut disc_ref), &mut out_ref);
        // `Debug` renders every f64 exactly, so metrics compare bit for bit.
        prop_assert_eq!(format!("{out_live:?}"), format!("{out_ref:?}"), "actions, step {step}");
        for id in 0..IDS {
            let (a, b) = (live.next_hop(id), reference.next_hop(id));
            prop_assert_eq!(a, b, "next hop to {id}, step {step}");
        }
        prop_assert_eq!(live.route_count(), reference.route_count(), "route count, step {step}");
        prop_assert_eq!(live.updates_sent, reference.updates_sent, "updates sent, step {step}");
        for nb in 0..n {
            let live_via = live.neighbors.get(nb).map_or(&[][..], |n| n.via.as_slice());
            let ref_via = reference.via.get(&nb).map_or(&[][..], Vec::as_slice);
            prop_assert_eq!(live_via, ref_via, "reverse index of {nb}, step {step}");
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn live_agent_equals_reference_on_random_event_sequences(seed in 0u64..u64::MAX) {
        run_case(seed)?;
    }
}
