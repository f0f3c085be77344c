//! Proactive distance-vector routing: DSDV and DSDVH.
//!
//! DSDV (Perkins & Bhagwat) maintains a destination-sequenced routing
//! table refreshed by periodic full-table broadcasts. DSDVH is the paper's
//! joint-optimisation variant (Section 4.2): the table metric is the
//! joint cost `h(u,v)` of Eq 12 instead of hop count, nodes track their
//! neighbours' power-management state, and — crucially — a node whose own
//! PM state changes must advertise, since every route through it changes
//! cost. That triggered-update load is exactly the overhead the paper
//! blames for DSDVH-ODPM's poor energy goodput.

use std::collections::{BTreeMap, VecDeque};

use crate::frame::{Frame, NodeId, Packet, PacketKind};
use crate::power::PmMode;
use crate::routing::metric::RouteMetric;
use crate::routing::{Action, DropReason, RoutingCtx, TimerKind};
use eend_sim::{SimDuration, SimTime};

/// One advertised route in a DSDV update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DsdvEntry {
    /// Advertised destination.
    pub dst: NodeId,
    /// Advertiser's metric to that destination.
    pub metric: f64,
    /// Destination sequence number (even = valid, odd = broken).
    pub seq: u64,
}

/// Bytes per advertised entry on the wire.
const BYTES_PER_ENTRY: usize = 12;

/// Tuning of the DSDV family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DsdvConfig {
    /// Table metric: `HopCount` for DSDV, `JointNoRate` for DSDVH.
    pub metric: RouteMetric,
    /// Periodic full-update interval.
    pub periodic: SimDuration,
    /// Advertise on own PM-state changes (the DSDVH behaviour).
    pub trigger_on_pm_change: bool,
    /// Advertise (rate-limited, without bumping the own sequence number)
    /// whenever a route with a newer destination sequence is adopted —
    /// standard DSDV triggered updates. This is what propagates every
    /// periodic advertisement across the network as a flood, and what
    /// keeps PSM nodes awake "for an entire beacon interval" (§5.2.1).
    pub trigger_on_adoption: bool,
    /// Minimum spacing between triggered updates.
    pub min_trigger_gap: SimDuration,
    /// Packets buffered per destination while no route exists.
    pub buffer_per_dst: usize,
}

impl DsdvConfig {
    /// Plain DSDV: hop-count metric, 15 s periodic updates.
    pub fn dsdv() -> DsdvConfig {
        DsdvConfig {
            metric: RouteMetric::HopCount,
            periodic: SimDuration::from_secs(15),
            trigger_on_pm_change: false,
            trigger_on_adoption: true,
            min_trigger_gap: SimDuration::from_secs(1),
            buffer_per_dst: 5,
        }
    }

    /// DSDVH: joint metric plus PM-change triggered updates.
    pub fn dsdvh() -> DsdvConfig {
        DsdvConfig {
            metric: RouteMetric::JointNoRate,
            trigger_on_pm_change: true,
            ..DsdvConfig::dsdv()
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct TableRoute {
    next: NodeId,
    metric: f64,
    seq: u64,
}

/// What a node keeps per neighbour that has advertised to it.
#[derive(Debug, Clone)]
struct Neighbor {
    /// Reverse next-hop index: the destinations routed through this
    /// neighbour at some point. Entries go stale when a destination's
    /// next hop changes, so consumers re-check `table` while draining;
    /// staleness never affects the outcome because invalidation is
    /// idempotent. This is what makes link-failure handling O(routes via
    /// the dead hop) instead of a full-table scan per MAC-reported
    /// failure — the per-event cost that used to grow with network size.
    via: Vec<NodeId>,
    /// The cost of the link from this neighbour. It depends only on the
    /// node's own card, its mode and the neighbour's distance, and on a
    /// static field the distance never changes, so the `powf` behind it
    /// runs once per neighbour and mode instead of once per
    /// advertisement received. A distance whose bits differ (a move)
    /// recomputes it.
    link: LinkMemo,
}

impl Neighbor {
    const UNSEEN: Neighbor = Neighbor { via: Vec::new(), link: LinkMemo::UNSET };
}

/// The cost of the link from one advertiser, as [`RouteMetric::link_cost`]
/// returned it at the distance whose bits are `dist_bits`: `active` with
/// the receiver in active mode, `psm` in power-save mode, each NaN until
/// first needed at that distance.
#[derive(Debug, Clone, Copy)]
struct LinkMemo {
    dist_bits: u64,
    active: f64,
    psm: f64,
}

impl LinkMemo {
    /// A memo no distance matches: distances are finite, and these bits
    /// are a NaN.
    const UNSET: LinkMemo = LinkMemo { dist_bits: u64::MAX, active: f64::NAN, psm: f64::NAN };
}

/// Per-node DSDV state.
///
/// Every per-destination and per-neighbour structure is a dense row
/// indexed by [`NodeId`]. Ids are dense node indices below the network
/// size, and a converged table holds every reachable destination anyway,
/// so a row costs the same order of memory as a hash map would while a
/// lookup is one bounds-checked index instead of a SipHash probe. The
/// [`DsdvConfig`] it runs under is shared, read through
/// [`RoutingCtx::dsdv_config`].
#[derive(Debug, Clone, Default)]
pub struct DsdvRouting {
    /// Routing table indexed by destination: `None` until the
    /// destination is first advertised, grown to `dst + 1` on that first
    /// sighting. A full dump walks it in index order, which is the
    /// ascending destination order advertisements are sent in.
    table: Vec<Option<TableRoute>>,
    /// Number of occupied `table` slots: the size of the table as a
    /// map. The `via` compaction threshold is measured against it, not
    /// against the row length.
    known: usize,
    /// Packets waiting for a route, by destination. Ordered, so a flush
    /// sends them in ascending destination order.
    buffer: BTreeMap<NodeId, VecDeque<Packet>>,
    own_seq: u64,
    last_trigger: Option<SimTime>,
    /// Destinations adopted since the last advertisement; triggered
    /// updates are *incremental* (DSDV's design) and carry only these.
    dirty: Vec<NodeId>,
    /// Reverse next-hop index and link-cost memo, indexed by neighbour
    /// and grown to `from + 1` on the first advertisement from `from`.
    neighbors: Vec<Neighbor>,
    /// Updates broadcast (metrics).
    pub updates_sent: u64,
}

impl DsdvRouting {
    /// Fresh state for one node.
    pub fn new() -> DsdvRouting {
        DsdvRouting::default()
    }

    fn route(&self, dst: NodeId) -> Option<&TableRoute> {
        self.table.get(dst).and_then(Option::as_ref)
    }

    /// The current next hop towards `dst`, if a valid route exists.
    pub fn next_hop(&self, dst: NodeId) -> Option<NodeId> {
        self.route(dst).filter(|r| r.metric.is_finite()).map(|r| r.next)
    }

    /// Number of valid table entries.
    pub fn route_count(&self) -> usize {
        self.table.iter().flatten().filter(|r| r.metric.is_finite()).count()
    }

    fn build_update(&mut self, ctx: &RoutingCtx<'_>, full: bool) -> Frame {
        if full {
            self.own_seq += 2;
        }
        self.updates_sent += 1;
        let own = DsdvEntry { dst: ctx.node, metric: 0.0, seq: self.own_seq };
        let entries =
            if full {
                // Index order is ascending destination order.
                let mut entries = Vec::with_capacity(1 + self.known);
                entries.push(own);
                entries.extend(self.table.iter().enumerate().filter_map(|(dst, r)| {
                    r.map(|r| DsdvEntry { dst, metric: r.metric, seq: r.seq })
                }));
                entries
            } else {
                self.dirty.sort_unstable(); // deterministic advertisement order
                self.dirty.dedup();
                let mut entries = Vec::with_capacity(1 + self.dirty.len());
                entries.push(own);
                for &dst in &self.dirty {
                    let Some(r) = self.route(dst) else { continue };
                    entries.push(DsdvEntry { dst, metric: r.metric, seq: r.seq });
                }
                entries
            };
        self.dirty.clear();
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
    pub fn on_app_packet(
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
                if buf.len() >= ctx.dsdv_config().buffer_per_dst {
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
    pub fn on_frame(&mut self, ctx: &mut RoutingCtx<'_>, frame: Frame, out: &mut Vec<Action>) {
        let from = frame.tx;
        let mut packet = frame.packet;
        if let PacketKind::DsdvUpdate { entries } = &packet.kind {
            return self.on_update(ctx, from, entries, out);
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
    pub fn on_broadcast(&mut self, ctx: &mut RoutingCtx<'_>, frame: &Frame, out: &mut Vec<Action>) {
        if let PacketKind::DsdvUpdate { entries } = &frame.packet.kind {
            return self.on_update(ctx, frame.tx, entries, out);
        }
        self.on_frame(ctx, frame.clone(), out)
    }

    fn on_update(
        &mut self,
        ctx: &mut RoutingCtx<'_>,
        from: NodeId,
        entries: &[DsdvEntry],
        out: &mut Vec<Action>,
    ) {
        let me = ctx.node;
        if from >= self.neighbors.len() {
            self.neighbors.resize_with(from + 1, || Neighbor::UNSEEN);
        }
        let dist = ctx.channel.distance(from, me);
        let in_psm = ctx.pm_modes[me] == PmMode::PowerSave;
        let link = self.link_cost(ctx, from, dist, in_psm);
        let mut learned_new_dst = false;
        let mut adopted_newer_seq = false;
        for e in entries {
            if e.dst == me {
                continue;
            }
            let new_metric = if e.metric.is_finite() { e.metric + link } else { f64::INFINITY };
            let cur = self.route(e.dst).copied();
            let adopt = match cur {
                None => true,
                Some(cur) => {
                    e.seq > cur.seq || (e.seq == cur.seq && new_metric < cur.metric - 1e-9)
                }
            };
            if adopt {
                match cur {
                    None if new_metric.is_finite() => {
                        learned_new_dst = true;
                        adopted_newer_seq = true;
                    }
                    Some(cur) if e.seq > cur.seq => adopted_newer_seq = true,
                    _ => {}
                }
                if e.dst >= self.table.len() {
                    self.table.resize(e.dst + 1, None);
                }
                let slot = &mut self.table[e.dst];
                self.known += usize::from(slot.is_none());
                *slot = Some(TableRoute { next: from, metric: new_metric, seq: e.seq });
                self.dirty.push(e.dst);
                self.neighbors[from].via.push(e.dst);
            }
        }
        // Amortised compaction of the reverse index: once the list for
        // this neighbour outgrows the (deduplicated) routes it could
        // possibly cover, drop the stale entries. Growth back to the
        // threshold takes at least `known` adoptions, so the cost is
        // O(1) amortised per adoption.
        let list = &mut self.neighbors[from].via;
        if list.len() > 16 && list.len() > 2 * self.known {
            list.sort_unstable();
            list.dedup();
            let table = &self.table;
            list.retain(|&d| table[d].is_some_and(|r| r.next == from));
        }
        // Standard DSDV triggered update: propagate newly adopted sequence
        // numbers promptly (rate-limited; own sequence is not bumped, so
        // the cascade settles once every node has seen the new numbers).
        if adopted_newer_seq && ctx.dsdv_config().trigger_on_adoption {
            let gap_ok = self
                .last_trigger
                .is_none_or(|last| ctx.now >= last + ctx.dsdv_config().min_trigger_gap);
            if gap_ok {
                self.last_trigger = Some(ctx.now);
                let update = self.build_update(ctx, false);
                out.push(Action::Send(update));
            }
        }
        if learned_new_dst {
            // Flush buffered packets whose destinations became reachable,
            // in ascending destination order (`buffer` is ordered).
            let reachable: Vec<NodeId> =
                self.buffer.keys().copied().filter(|d| self.next_hop(*d).is_some()).collect();
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

    /// The configured metric's `link_cost` of the link from `from`,
    /// `dist` metres away, read from its memo while the distance is
    /// unchanged. The card, metric and bandwidth `ctx` carries are fixed
    /// for a node, so the distance and mode are the only inputs that vary.
    fn link_cost(&mut self, ctx: &RoutingCtx<'_>, from: NodeId, dist: f64, in_psm: bool) -> f64 {
        let memo = &mut self.neighbors[from].link;
        if memo.dist_bits != dist.to_bits() {
            *memo = LinkMemo { dist_bits: dist.to_bits(), ..LinkMemo::UNSET };
        }
        let slot = if in_psm { &mut memo.psm } else { &mut memo.active };
        if slot.is_nan() {
            *slot =
                ctx.dsdv_config().metric.link_cost(ctx.card, dist, in_psm, 0.0, ctx.bandwidth_bps);
        }
        *slot
    }

    /// Handles a fired timer (periodic advertisement). Allocation-free
    /// entry point (see [`DsdvRouting::on_timer`]).
    pub fn on_timer(&mut self, ctx: &mut RoutingCtx<'_>, kind: TimerKind, out: &mut Vec<Action>) {
        if kind != TimerKind::DsdvPeriodic {
            return;
        }
        let frame = self.build_update(ctx, true);
        out.push(Action::Send(frame));
        out.push(Action::Timer(TimerKind::DsdvPeriodic, ctx.now + ctx.dsdv_config().periodic));
    }

    /// Handles a dead link reported by the MAC: mark routes through the
    /// failed neighbour broken (odd sequence, the DSDV convention).
    /// Allocation-free entry point (see [`DsdvRouting::on_link_failure`]).
    pub fn on_link_failure(
        &mut self,
        _ctx: &mut RoutingCtx<'_>,
        frame: Frame,
        out: &mut Vec<Action>,
    ) {
        let Some(bad) = frame.rx else { return };
        // Drain the reverse index instead of scanning the whole table:
        // every route whose *current* next hop is `bad` was pushed into
        // `neighbors[bad].via` when it was adopted. Stale entries (next
        // hop since changed) fail the `r.next == bad` re-check; duplicates
        // are harmless because the first invalidation flips the metric to
        // infinite and later visits skip on `is_finite`. The table state
        // afterwards is exactly what the full scan produced.
        if let Some(nb) = self.neighbors.get_mut(bad) {
            for dst in nb.via.drain(..) {
                if let Some(r) = &mut self.table[dst] {
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
    pub fn on_pm_changed(
        &mut self,
        ctx: &mut RoutingCtx<'_>,
        _mode: PmMode,
        out: &mut Vec<Action>,
    ) {
        if !ctx.dsdv_config().trigger_on_pm_change {
            return;
        }
        if let Some(last) = self.last_trigger {
            if ctx.now < last + ctx.dsdv_config().min_trigger_gap {
                return;
            }
        }
        self.last_trigger = Some(ctx.now);
        let update = self.build_update(ctx, false);
        out.push(Action::Send(update));
    }
}

#[cfg(test)]
#[path = "dsdv/reference.rs"]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Channel;
    use crate::routing::Discoveries;
    use crate::scenario::{radio_profiles, CardAssignment, RoutingKind};
    use eend_radio::{cards, CardPowers, RadioCard};
    use eend_sim::SimRng;
    use proptest::prelude::*;

    fn line_channel() -> Channel {
        Channel::new(vec![(0.0, 0.0), (100.0, 0.0), (200.0, 0.0), (300.0, 0.0)], 120.0)
    }

    struct World {
        channel: Channel,
        pm: Vec<PmMode>,
        card: eend_radio::RadioCard,
        config: RoutingKind,
        rng: SimRng,
        discoveries: Discoveries,
    }

    impl World {
        /// The line under plain DSDV.
        fn new(pm: Vec<PmMode>) -> World {
            World {
                channel: line_channel(),
                pm,
                card: cards::cabletron(),
                config: RoutingKind::Dsdv(DsdvConfig::dsdv()),
                rng: SimRng::new(3),
                discoveries: Discoveries::default(),
            }
        }

        /// The same world with every node under `cfg` instead.
        fn with_config(mut self, cfg: DsdvConfig) -> World {
            self.config = RoutingKind::Dsdv(cfg);
            self
        }
        fn ctx(&mut self, node: NodeId, now_ms: u64) -> RoutingCtx<'_> {
            RoutingCtx {
                node,
                now: SimTime::from_millis(now_ms),
                channel: &self.channel,
                pm_modes: &self.pm,
                card: &self.card,
                bandwidth_bps: 2_000_000.0,
                config: &self.config,
                rng: &mut self.rng,
                active_neighbors: None,
                discoveries: &mut self.discoveries,
            }
        }
    }

    fn data(src: NodeId, dst: NodeId) -> Packet {
        Packet {
            uid: 1,
            kind: PacketKind::Data { flow: 0, seq: 0, rate_bps: 2000.0 },
            src,
            dst,
            size_bytes: 128,
            route: Vec::new(),
            hop_idx: 0,
            salvage: 0,
        }
    }

    /// Runs one entry point into a fresh buffer and returns what it emitted.
    fn collect(event: impl FnOnce(&mut Vec<Action>)) -> Vec<Action> {
        let mut out = Vec::new();
        event(&mut out);
        out
    }

    /// Propagates periodic updates until tables converge on the line.
    fn converge(w: &mut World, nodes: &mut [DsdvRouting]) {
        for round in 0..4 {
            // Collect each node's advertisement, then deliver to neighbors.
            let frames: Vec<Frame> = (0..nodes.len())
                .map(|i| {
                    let mut ctx = w.ctx(i, 100 * (round + 1));
                    let acts = collect(|o| nodes[i].on_timer(&mut ctx, TimerKind::DsdvPeriodic, o));
                    let Action::Send(f) = &acts[0] else { panic!() };
                    f.clone()
                })
                .collect();
            for f in frames {
                let neighbors: Vec<NodeId> =
                    w.channel.neighbors(f.tx).iter().map(|&r| r as NodeId).collect();
                for r in neighbors {
                    let mut ctx = w.ctx(r, 100 * (round + 1) + 1);
                    collect(|o| nodes[r].on_frame(&mut ctx, f.clone(), o));
                }
            }
        }
    }

    #[test]
    fn tables_converge_on_line() {
        let mut w = World::new(vec![PmMode::ActiveMode; 4]);
        let mut nodes: Vec<DsdvRouting> = (0..4).map(|_| DsdvRouting::new()).collect();
        converge(&mut w, &mut nodes);
        assert_eq!(nodes[0].next_hop(3), Some(1));
        assert_eq!(nodes[1].next_hop(3), Some(2));
        assert_eq!(nodes[2].next_hop(3), Some(3));
        assert_eq!(nodes[3].next_hop(0), Some(2));
        assert_eq!(nodes[0].route_count(), 3);
    }

    #[test]
    fn data_forwards_along_table() {
        let mut w = World::new(vec![PmMode::ActiveMode; 4]);
        let mut nodes: Vec<DsdvRouting> = (0..4).map(|_| DsdvRouting::new()).collect();
        converge(&mut w, &mut nodes);
        let a = collect(|o| nodes[0].on_app_packet(&mut w.ctx(0, 500), data(0, 3), o));
        let Action::Send(f) = &a[0] else { panic!() };
        assert_eq!(f.rx, Some(1));
        // Forward at node 1, then 2, deliver at 3.
        let a = collect(|o| nodes[1].on_frame(&mut w.ctx(1, 501), f.clone(), o));
        let Action::Send(f1) = &a[0] else { panic!() };
        assert_eq!(f1.rx, Some(2));
        let a = collect(|o| nodes[2].on_frame(&mut w.ctx(2, 502), f1.clone(), o));
        let Action::Send(f2) = &a[0] else { panic!() };
        assert_eq!(f2.rx, Some(3));
        let a = collect(|o| nodes[3].on_frame(&mut w.ctx(3, 503), f2.clone(), o));
        let Action::Deliver(p) = &a[0] else { panic!() };
        assert_eq!(p.route, vec![0, 1, 2, 3], "trace records the path");
    }

    #[test]
    fn no_route_buffers_then_flushes() {
        let mut w = World::new(vec![PmMode::ActiveMode; 4]);
        let mut n0 = DsdvRouting::new();
        // No routes yet: buffered.
        assert!(collect(|o| n0.on_app_packet(&mut w.ctx(0, 0), data(0, 1), o)).is_empty());
        // Node 1 advertises itself; node 0 learns and flushes.
        let mut n1 = DsdvRouting::new();
        let a = collect(|o| n1.on_timer(&mut w.ctx(1, 10), TimerKind::DsdvPeriodic, o));
        let Action::Send(update) = &a[0] else { panic!() };
        let a = collect(|o| n0.on_frame(&mut w.ctx(0, 11), update.clone(), o));
        // Two actions: the adoption-triggered advertisement plus the
        // flushed data packet.
        let flushed: Vec<&Frame> = a
            .iter()
            .filter_map(|x| match x {
                Action::Send(f) if f.packet.kind.is_data() => Some(f),
                _ => None,
            })
            .collect();
        assert_eq!(flushed.len(), 1, "buffered packet must flush: {a:?}");
        assert_eq!(flushed[0].rx, Some(1));
        assert!(
            a.iter().any(|x| matches!(x, Action::Send(f) if f.is_broadcast())),
            "adoption must trigger an advertisement"
        );
    }

    #[test]
    fn adoption_trigger_is_rate_limited_and_keeps_own_seq() {
        let mut w = World::new(vec![PmMode::ActiveMode; 4]);
        let mut n1 = DsdvRouting::new();
        let update = |seq| Frame {
            tx: 0,
            rx: None,
            packet: Packet {
                uid: 0,
                kind: PacketKind::DsdvUpdate {
                    entries: vec![DsdvEntry { dst: 3, metric: 1.0, seq }],
                },
                src: 0,
                dst: usize::MAX,
                size_bytes: 12,
                route: Vec::new(),
                hop_idx: 0,
                salvage: 0,
            },
        };
        let a = collect(|o| n1.on_frame(&mut w.ctx(1, 0), update(2), o));
        assert_eq!(a.len(), 1, "first adoption triggers");
        let Action::Send(f) = &a[0] else { panic!() };
        let PacketKind::DsdvUpdate { entries } = &f.packet.kind else { panic!() };
        // Triggered updates must not bump the node's own sequence number,
        // or the cascade would never converge.
        assert_eq!(entries[0].seq, 0, "own seq stays 0 on a triggered update");
        // Within the gap: adoption of an even newer seq stays silent.
        let a = collect(|o| n1.on_frame(&mut w.ctx(1, 500), update(4), o));
        assert!(a.is_empty(), "rate limit must hold: {a:?}");
        // After the gap it may trigger again.
        let a = collect(|o| n1.on_frame(&mut w.ctx(1, 1500), update(6), o));
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn buffer_overflow_drops() {
        let mut w = World::new(vec![PmMode::ActiveMode; 4]);
        let mut n0 = DsdvRouting::new();
        for _ in 0..5 {
            assert!(collect(|o| n0.on_app_packet(&mut w.ctx(0, 0), data(0, 3), o)).is_empty());
        }
        let a = collect(|o| n0.on_app_packet(&mut w.ctx(0, 0), data(0, 3), o));
        assert!(matches!(a[0], Action::Drop(_, DropReason::BufferOverflow)));
    }

    #[test]
    fn newer_sequence_wins_same_sequence_needs_better_metric() {
        let mut w = World::new(vec![PmMode::ActiveMode; 4]);
        let mut n1 = DsdvRouting::new();
        let update = |seq, metric| Frame {
            tx: 0,
            rx: None,
            packet: Packet {
                uid: 0,
                kind: PacketKind::DsdvUpdate { entries: vec![DsdvEntry { dst: 3, metric, seq }] },
                src: 0,
                dst: usize::MAX,
                size_bytes: 12,
                route: Vec::new(),
                hop_idx: 0,
                salvage: 0,
            },
        };
        collect(|o| n1.on_frame(&mut w.ctx(1, 0), update(2, 5.0), o));
        assert_eq!(n1.next_hop(3), Some(0));
        // Same seq, worse metric via node 2: rejected.
        let update2 = Frame { tx: 2, ..update(2, 7.0) };
        collect(|o| n1.on_frame(&mut w.ctx(1, 1), update2, o));
        assert_eq!(n1.next_hop(3), Some(0));
        // Same seq, better metric via node 2: adopted.
        let update3 = Frame { tx: 2, ..update(2, 1.0) };
        collect(|o| n1.on_frame(&mut w.ctx(1, 2), update3, o));
        assert_eq!(n1.next_hop(3), Some(2));
        // Newer seq wins regardless.
        let update4 = Frame { tx: 0, ..update(4, 50.0) };
        collect(|o| n1.on_frame(&mut w.ctx(1, 3), update4, o));
        assert_eq!(n1.next_hop(3), Some(0));
    }

    #[test]
    fn link_failure_invalidates_routes_via_neighbor() {
        let mut w = World::new(vec![PmMode::ActiveMode; 4]);
        let mut nodes: Vec<DsdvRouting> = (0..4).map(|_| DsdvRouting::new()).collect();
        converge(&mut w, &mut nodes);
        assert_eq!(nodes[0].next_hop(3), Some(1));
        let mut p = data(0, 3);
        p.route = vec![0];
        let a = collect(|o| {
            nodes[0].on_link_failure(&mut w.ctx(0, 600), Frame { tx: 0, rx: Some(1), packet: p }, o)
        });
        assert!(matches!(a[0], Action::Drop(_, DropReason::LinkFailure)));
        assert_eq!(nodes[0].next_hop(3), None, "routes via 1 must be broken");
        assert_eq!(nodes[0].next_hop(1), None);
    }

    #[test]
    fn pm_change_triggers_update_for_dsdvh_only() {
        let mut w = World::new(vec![PmMode::ActiveMode; 4]).with_config(DsdvConfig::dsdvh());
        let mut dsdvh = DsdvRouting::new();
        let a = collect(|o| dsdvh.on_pm_changed(&mut w.ctx(1, 1000), PmMode::PowerSave, o));
        assert_eq!(a.len(), 1, "DSDVH must advertise on PM change");
        assert!(matches!(&a[0], Action::Send(f) if f.is_broadcast()));
        // Rate limited within the gap.
        let a = collect(|o| dsdvh.on_pm_changed(&mut w.ctx(1, 1200), PmMode::ActiveMode, o));
        assert!(a.is_empty(), "inside min_trigger_gap");
        let a = collect(|o| dsdvh.on_pm_changed(&mut w.ctx(1, 2500), PmMode::ActiveMode, o));
        assert_eq!(a.len(), 1, "after the gap");
        // Plain DSDV never triggers.
        let mut w = w.with_config(DsdvConfig::dsdv());
        let mut dsdv = DsdvRouting::new();
        assert!(
            collect(|o| dsdv.on_pm_changed(&mut w.ctx(1, 5000), PmMode::PowerSave, o)).is_empty()
        );
    }

    #[test]
    fn update_size_grows_with_table() {
        let mut w = World::new(vec![PmMode::ActiveMode; 4]);
        let mut nodes: Vec<DsdvRouting> = (0..4).map(|_| DsdvRouting::new()).collect();
        let a = collect(|o| nodes[0].on_timer(&mut w.ctx(0, 1), TimerKind::DsdvPeriodic, o));
        let Action::Send(f) = &a[0] else { panic!() };
        let empty_size = f.packet.size_bytes;
        converge(&mut w, &mut nodes);
        let a = collect(|o| nodes[0].on_timer(&mut w.ctx(0, 999), TimerKind::DsdvPeriodic, o));
        let Action::Send(f) = &a[0] else { panic!() };
        assert!(f.packet.size_bytes > empty_size, "full table costs more airtime");
        assert_eq!(f.packet.size_bytes, 12 * 4, "self + 3 destinations");
    }

    #[test]
    fn buffered_packets_flush_in_ascending_destination_order() {
        let mut w = World::new(vec![PmMode::ActiveMode; 4]);
        let mut n0 = DsdvRouting::new();
        let dsts = [9, 4, 12, 7, 5, 11, 6, 10];
        for dst in dsts {
            assert!(collect(|o| n0.on_app_packet(&mut w.ctx(0, 0), data(0, dst), o)).is_empty());
        }
        // One advertisement from node 1 makes all eight reachable at once.
        let entries = dsts.iter().map(|&dst| DsdvEntry { dst, metric: 1.0, seq: 2 }).collect();
        let update = Frame {
            tx: 1,
            rx: None,
            packet: Packet {
                uid: 0,
                kind: PacketKind::DsdvUpdate { entries },
                src: 1,
                dst: usize::MAX,
                size_bytes: 12 * dsts.len(),
                route: Vec::new(),
                hop_idx: 0,
                salvage: 0,
            },
        };
        let a = collect(|o| n0.on_frame(&mut w.ctx(0, 10), update, o));
        let flushed: Vec<NodeId> = a
            .iter()
            .filter_map(|x| match x {
                Action::Send(f) if f.packet.kind.is_data() => Some(f.packet.dst),
                _ => None,
            })
            .collect();
        let mut ascending = dsts.to_vec();
        ascending.sort_unstable();
        assert_eq!(flushed, ascending, "flush order must not depend on hashing");
    }

    #[test]
    fn loop_guard_sheds_looping_packets() {
        let mut w = World::new(vec![PmMode::ActiveMode; 4]);
        let mut n1 = DsdvRouting::new();
        // Fake a route for dst 3 via node 0 and a packet that already
        // visited node 1.
        let update = Frame {
            tx: 0,
            rx: None,
            packet: Packet {
                uid: 0,
                kind: PacketKind::DsdvUpdate {
                    entries: vec![DsdvEntry { dst: 3, metric: 1.0, seq: 2 }],
                },
                src: 0,
                dst: usize::MAX,
                size_bytes: 12,
                route: Vec::new(),
                hop_idx: 0,
                salvage: 0,
            },
        };
        collect(|o| n1.on_frame(&mut w.ctx(1, 0), update, o));
        let mut p = data(0, 3);
        p.route = vec![0, 1, 2];
        let a =
            collect(|o| n1.on_frame(&mut w.ctx(1, 1), Frame { tx: 2, rx: Some(1), packet: p }, o));
        assert!(matches!(a[0], Action::Drop(_, DropReason::NoRoute)));
    }

    /// Every card a simulator may carry: the Table 1 presets and the
    /// cards each radio profile mixes.
    fn every_card() -> Vec<RadioCard> {
        let mut all = cards::all();
        for profile in radio_profiles::all() {
            if let CardAssignment::Alternating(mix) = profile.assignment {
                all.extend(mix);
            }
        }
        all
    }

    const METRICS: [RouteMetric; 5] = [
        RouteMetric::HopCount,
        RouteMetric::RadiatedPower,
        RouteMetric::TotalPower,
        RouteMetric::JointNoRate,
        RouteMetric::JointRate,
    ];

    /// The hot-path caches return what the direct calls return, bit for
    /// bit: a card's precomputed powers against `RadioCard`'s methods,
    /// and the per-advertiser link-cost memo against
    /// `RouteMetric::link_cost`, over distances in `[0, range]` that
    /// start at 0 and the range itself, then repeat and change at random
    /// per advertiser, with power control and the receiver's mode both
    /// ways.
    fn check_caches(seed: u64) -> Result<(), TestCaseError> {
        let mut g = SimRng::new(seed);
        let channel = line_channel();
        let b = 2_000_000.0;
        for card in every_card() {
            let powers = CardPowers::new(card);
            let range = card.nominal_range_m;
            prop_assert_eq!(
                powers.max_tx_total_mw().to_bits(),
                card.max_tx_total_power_mw().to_bits()
            );
            prop_assert_eq!(
                powers.max_radiated_mw().to_bits(),
                card.max_radiated_power_mw().to_bits()
            );
            for metric in METRICS {
                let config = RoutingKind::Dsdv(DsdvConfig { metric, ..DsdvConfig::dsdvh() });
                let mut agent = DsdvRouting::new();
                agent.neighbors.resize_with(3, || Neighbor::UNSEEN);
                let pm = vec![PmMode::ActiveMode; 4];
                let mut rng = SimRng::new(1);
                let mut last = [0.0f64; 3];
                for step in 0..40 {
                    let from = g.range_usize(0, 3);
                    let d = match step {
                        0 | 1 => 0.0,
                        2 | 3 => range,
                        _ if g.chance(0.5) => last[from],
                        _ => g.range_f64(0.0, range),
                    };
                    last[from] = d;
                    let in_psm = g.chance(0.5);
                    let ctx = RoutingCtx {
                        node: 3,
                        now: SimTime::ZERO,
                        channel: &channel,
                        pm_modes: &pm,
                        card: &card,
                        bandwidth_bps: b,
                        config: &config,
                        rng: &mut rng,
                        active_neighbors: None,
                        discoveries: &mut Discoveries::default(),
                    };
                    let got = agent.link_cost(&ctx, from, d, in_psm);
                    let want = metric.link_cost(&card, d, in_psm, 0.0, b);
                    prop_assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{} {:?} d={d}",
                        card.name,
                        metric
                    );
                    for pc in [false, true] {
                        let got = powers.data_tx_power_mw(d, pc);
                        let want = card.data_tx_power_mw(d, pc);
                        prop_assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{} d={d} pc={pc}",
                            card.name
                        );
                    }
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn power_and_link_cost_caches_equal_the_direct_calls(seed in 0u64..u64::MAX) {
            check_caches(seed)?;
        }
    }
}
