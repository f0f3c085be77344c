//! Reactive source routing: DSR and its cost-metric variants.
//!
//! One implementation covers four of the paper's protocols, selected by
//! [`RouteMetric`]: plain DSR (hop count), MTPR and MTPR+ (Eqs 10–11) and
//! DSRH (Eq 12, rate / no-rate). The paper itself frames MTPR and DSRH as
//! "implemented as a reactive protocol, similar to DSR", with route
//! requests accumulating the metric and duplicate RREQs re-broadcast when
//! they advertise a lower cost.
//!
//! TITAN (Section 4.3) plugs in as an RREQ-forwarding filter: a node in
//! power-save participates in discovery only probabilistically (the more
//! of its neighbourhood is already backbone, the less likely it forwards)
//! and with a small delay, so routes gravitate onto already-awake nodes.

use std::collections::VecDeque;

use crate::frame::{Frame, NodeId, Packet, PacketKind};
use crate::power::{PmMode, TitanConfig};
use crate::routing::metric::RouteMetric;
use crate::routing::{Action, DropReason, RoutingCtx, TimerKind};
use eend_sim::{FxHashMap, SimDuration};

/// Size of RREQ/RREP/RERR bodies on the wire, bytes (headers and the
/// accumulated path are added by [`Packet::wire_bytes`]).
const CONTROL_BODY_BYTES: usize = 8;

/// Tuning of the reactive protocol family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReactiveConfig {
    /// Route-cost metric accumulated by discoveries.
    pub metric: RouteMetric,
    /// TITAN backbone bias, if enabled.
    pub titan: Option<TitanConfig>,
    /// Discovery attempts before pending packets are dropped.
    pub max_discovery_attempts: u32,
    /// First discovery timeout (doubled per retry).
    pub base_discovery_timeout: SimDuration,
    /// Per-destination buffer of packets awaiting a route.
    pub max_pending_per_target: usize,
    /// RREPs the target sends per discovery (first + improved-cost ones).
    pub max_replies_per_discovery: u32,
    /// Data packets may survive this many link failures before dropping.
    pub max_salvage: u8,
}

impl ReactiveConfig {
    /// Defaults matching common DSR deployments.
    pub fn new(metric: RouteMetric) -> ReactiveConfig {
        ReactiveConfig {
            metric,
            titan: None,
            max_discovery_attempts: 3,
            base_discovery_timeout: SimDuration::from_millis(1000),
            max_pending_per_target: 20,
            max_replies_per_discovery: 3,
            max_salvage: 1,
        }
    }

    /// Enables the TITAN forwarding bias.
    pub fn with_titan(mut self, titan: TitanConfig) -> ReactiveConfig {
        self.titan = Some(titan);
        self
    }
}

#[derive(Debug, Clone)]
struct CachedRoute {
    path: Vec<NodeId>,
    cost: f64,
}

#[derive(Debug, Clone, Default)]
struct Pending {
    packets: VecDeque<Packet>,
    attempt: u32,
}

/// The flood state of a run's route discoveries: for each discovery, the
/// best cost each node forwarded (duplicate suppression) and, at its
/// target, the best cost replied and how many replies went out.
///
/// The simulator owns one table per run and counts each discovery's live
/// RREQ copies — scheduled, queued at a MAC or on the air — through
/// `copy_born` and `copy_died`. Only a copy's arrival makes a node
/// consult a discovery's entries, so once its last copy dies the record
/// is freed. Agents driven without a simulator (unit tests) report no
/// copies, and their records stay.
#[derive(Debug, Default)]
pub struct Discoveries {
    /// Keyed by [`discovery_key`].
    live: FxHashMap<u64, Discovery>,
}

#[derive(Debug)]
struct Discovery {
    /// RREQ copies of this discovery still alive.
    copies: u32,
    /// Best cost each node forwarded.
    seen: FxHashMap<u32, f64>,
    /// At the target: best cost replied and how many replies were sent.
    replied: (f64, u32),
}

impl Default for Discovery {
    fn default() -> Self {
        Discovery { copies: 0, seen: FxHashMap::default(), replied: (f64::INFINITY, 0) }
    }
}

/// Packs a discovery's `(origin, id)` into one word.
///
/// # Panics
///
/// Panics if the origin or the id does not fit a `u32`.
fn discovery_key(origin: NodeId, id: u64) -> u64 {
    let (Ok(origin32), Ok(id32)) = (u32::try_from(origin), u32::try_from(id)) else {
        panic!("discovery ({origin}, {id}): origin and id must each fit a u32");
    };
    (u64::from(origin32) << 32) | u64::from(id32)
}

impl Discoveries {
    /// The record of discovery `(origin, id)`, made on first use.
    fn record(&mut self, origin: NodeId, id: u64) -> &mut Discovery {
        self.live.entry(discovery_key(origin, id)).or_default()
    }

    /// A copy of the frame's discovery came into being (a no-op for any
    /// frame but an RREQ).
    pub(crate) fn copy_born(&mut self, frame: &Frame) {
        if let PacketKind::Rreq { origin, id, .. } = frame.packet.kind {
            self.record(origin, id).copies += 1;
        }
    }

    /// A copy of the frame's discovery died: it was delivered to its
    /// last receiver or dropped. Frees the discovery's record with its
    /// last copy.
    pub(crate) fn copy_died(&mut self, frame: &Frame) {
        if let PacketKind::Rreq { origin, id, .. } = frame.packet.kind {
            let key = discovery_key(origin, id);
            if let Some(rec) = self.live.get_mut(&key) {
                debug_assert!(
                    rec.copies > 0,
                    "discovery ({origin}, {id}) lost more copies than it had"
                );
                rec.copies -= 1;
                if rec.copies == 0 {
                    self.live.remove(&key);
                }
            }
        }
    }

    /// Number of discoveries holding a record.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// `true` if no discovery holds a record.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }
}

/// Per-node reactive routing state. The [`ReactiveConfig`] it runs
/// under is shared, read through [`RoutingCtx::reactive_config`]; the
/// flood state of its discoveries lives in the run's [`Discoveries`].
#[derive(Debug, Clone, Default)]
pub struct ReactiveRouting {
    cache: FxHashMap<NodeId, CachedRoute>,
    pending: FxHashMap<NodeId, Pending>,
    next_rreq: u64,
}

impl ReactiveRouting {
    /// Fresh state for one node.
    pub fn new() -> ReactiveRouting {
        ReactiveRouting::default()
    }

    /// The cached route to `dst`, if any (used by tests and the runner's
    /// route extraction).
    pub fn cached_route(&self, dst: NodeId) -> Option<&[NodeId]> {
        self.cache.get(&dst).map(|c| c.path.as_slice())
    }

    /// Handles a freshly generated application packet.
    /// Allocation-free entry point (see [`ReactiveRouting::on_app_packet`]):
    /// actions are pushed into the caller's reusable buffer.
    pub fn on_app_packet_into(
        &mut self,
        ctx: &mut RoutingCtx<'_>,
        mut packet: Packet,
        out: &mut Vec<Action>,
    ) {
        debug_assert!(packet.kind.is_data(), "app hands over data only");
        if let Some(route) = self.cache.get(&packet.dst) {
            packet.route = route.path.clone();
            packet.hop_idx = 0;
            let next = packet.next_hop().expect("cached route has ≥ 2 nodes");
            out.push(Action::Send(Frame { tx: ctx.node, rx: Some(next), packet }));
            return;
        }
        let rate = data_rate(&packet);
        let target = packet.dst;
        let pend = self.pending.entry(target).or_default();
        if pend.packets.len() >= ctx.reactive_config().max_pending_per_target {
            out.push(Action::Drop(packet, DropReason::BufferOverflow));
            return;
        }
        pend.packets.push_back(packet);
        if pend.attempt == 0 {
            pend.attempt = 1;
            self.emit_discovery_into(ctx, target, rate, 1, out);
        }
    }

    fn emit_discovery_into(
        &mut self,
        ctx: &mut RoutingCtx<'_>,
        target: NodeId,
        rate_bps: f64,
        attempt: u32,
        out: &mut Vec<Action>,
    ) {
        let id = self.next_rreq;
        self.next_rreq += 1;
        let packet = Packet {
            uid: 0, // runner assigns globally unique ids on send
            kind: PacketKind::Rreq {
                id,
                origin: ctx.node,
                target,
                cost: 0.0,
                path: vec![ctx.node],
                rate_bps,
            },
            src: ctx.node,
            dst: usize::MAX,
            size_bytes: CONTROL_BODY_BYTES,
            route: Vec::new(),
            hop_idx: 0,
            salvage: 0,
        };
        let timeout = ctx
            .reactive_config()
            .base_discovery_timeout
            .saturating_mul(1u64 << (attempt - 1).min(8));
        out.push(Action::Send(Frame { tx: ctx.node, rx: None, packet }));
        out.push(Action::Timer(TimerKind::Discovery { target, attempt }, ctx.now + timeout));
    }

    /// Handles a received frame. The kind is moved out of the packet (and
    /// restored where a branch forwards it), so reception never clones
    /// the RREQ/RREP path vectors just to dispatch. Allocation-free
    /// entry point (see [`ReactiveRouting::on_frame`]).
    pub fn on_frame_into(&mut self, ctx: &mut RoutingCtx<'_>, frame: Frame, out: &mut Vec<Action>) {
        let from = frame.tx;
        let mut packet = frame.packet;
        let kind = std::mem::replace(&mut packet.kind, PacketKind::Rerr { from: 0, to: 0 });
        match kind {
            PacketKind::Rreq { id, origin, target, cost, path, rate_bps } => self
                .on_rreq_into(ctx, from, &packet, id, origin, target, cost, &path, rate_bps, out),
            PacketKind::Rrep { id, origin, target, path, cost } => {
                self.on_rrep_into(ctx, packet, id, origin, target, path, cost, out)
            }
            PacketKind::Rerr { from: bad_from, to: bad_to } => {
                packet.kind = PacketKind::Rerr { from: bad_from, to: bad_to };
                self.on_rerr_into(ctx, packet, bad_from, bad_to, out)
            }
            PacketKind::Data { flow, seq, rate_bps } => {
                packet.kind = PacketKind::Data { flow, seq, rate_bps };
                self.on_data_into(ctx, packet, out)
            }
            PacketKind::DsdvUpdate { .. } => {} // not ours; ignore
        }
    }

    /// Handles a broadcast reception without taking ownership: the
    /// runner delivers one shared frame to every receiver, and the flood
    /// logic only allocates (path copy, forwarded packet) for the
    /// minority of receivers that actually reply or rebroadcast.
    /// Allocation-free entry point (see [`ReactiveRouting::on_broadcast`]).
    pub fn on_broadcast_into(
        &mut self,
        ctx: &mut RoutingCtx<'_>,
        frame: &Frame,
        out: &mut Vec<Action>,
    ) {
        match &frame.packet.kind {
            PacketKind::Rreq { id, origin, target, cost, path, rate_bps } => self.on_rreq_into(
                ctx,
                frame.tx,
                &frame.packet,
                *id,
                *origin,
                *target,
                *cost,
                path,
                *rate_bps,
                out,
            ),
            // Unicast-only kinds never arrive by broadcast in this stack;
            // fall back to the owning path for API completeness.
            _ => self.on_frame_into(ctx, frame.clone(), out),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_rreq_into(
        &mut self,
        ctx: &mut RoutingCtx<'_>,
        from: NodeId,
        packet: &Packet,
        id: u64,
        origin: NodeId,
        target: NodeId,
        cost: f64,
        path: &[NodeId],
        rate_bps: f64,
        out: &mut Vec<Action>,
    ) {
        let me = ctx.node;
        if origin == me || path.contains(&me) {
            return;
        }
        let cfg = ctx.reactive_config();
        let dist = ctx.channel.distance(from, me);
        let in_psm = ctx.pm_modes[me] == PmMode::PowerSave;
        let new_cost =
            cost + cfg.metric.link_cost(ctx.card, dist, in_psm, rate_bps, ctx.bandwidth_bps);
        let full_path = |path: &[NodeId]| {
            let mut fp = Vec::with_capacity(path.len() + 1);
            fp.extend_from_slice(path);
            fp.push(me);
            fp
        };

        let disc = ctx.discoveries.record(origin, id);
        if me == target {
            let entry = &mut disc.replied;
            let improved = new_cost < entry.0;
            if !improved || entry.1 >= cfg.max_replies_per_discovery {
                return;
            }
            *entry = (new_cost, entry.1 + 1);
            let full_path = full_path(path);
            let mut reply_route = full_path.clone();
            reply_route.reverse();
            let next = reply_route[1];
            let reply = Packet {
                uid: 0,
                kind: PacketKind::Rrep { id, origin, target, path: full_path, cost: new_cost },
                src: me,
                dst: origin,
                size_bytes: CONTROL_BODY_BYTES,
                route: reply_route,
                hop_idx: 0,
                salvage: 0,
            };
            out.push(Action::Send(Frame { tx: me, rx: Some(next), packet: reply }));
            return;
        }

        // Intermediate: forward the first copy, or a strictly cheaper one
        // when the metric warrants it. (Node ids fit a `u32`: `Channel::new`
        // asserts it.)
        match disc.seen.get(&(me as u32)) {
            Some(&best) if best <= new_cost => return,
            Some(_) if !cfg.metric.rebroadcast_on_better_cost() => return,
            _ => {}
        }
        disc.seen.insert(me as u32, new_cost);

        // TITAN's stochastic flood damping draws its chance before the
        // forwarded copy is materialised: refusals cost no allocation.
        let mut delay = None;
        if let (Some(titan), true) = (cfg.titan, in_psm) {
            let backbone = ctx.backbone_neighbors();
            let p = titan.forward_probability(ctx.channel.neighbors(me).len(), backbone);
            if !ctx.rng.chance(p) {
                return;
            }
            delay = Some(titan.psm_delay);
        }
        let forwarded = Packet {
            kind: PacketKind::Rreq {
                id,
                origin,
                target,
                cost: new_cost,
                path: full_path(path),
                rate_bps,
            },
            uid: packet.uid,
            src: packet.src,
            dst: packet.dst,
            size_bytes: packet.size_bytes,
            route: packet.route.clone(),
            hop_idx: packet.hop_idx,
            salvage: packet.salvage,
        };
        let frame = Frame { tx: me, rx: None, packet: forwarded };
        match delay {
            Some(d) => out.push(Action::SendAt(frame, ctx.now + d)),
            None => out.push(Action::Send(frame)),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_rrep_into(
        &mut self,
        ctx: &mut RoutingCtx<'_>,
        mut packet: Packet,
        id: u64,
        origin: NodeId,
        target: NodeId,
        path: Vec<NodeId>,
        cost: f64,
        out: &mut Vec<Action>,
    ) {
        let me = ctx.node;
        if me == origin {
            let better = self.cache.get(&target).is_none_or(|c| cost < c.cost);
            if better {
                self.cache.insert(target, CachedRoute { path, cost });
            }
            // Flush everything pending for this target over the best route.
            if let Some(pend) = self.pending.remove(&target) {
                let route = self.cache[&target].path.clone();
                for mut p in pend.packets {
                    p.route = route.clone();
                    p.hop_idx = 0;
                    let next = route[1];
                    out.push(Action::Send(Frame { tx: me, rx: Some(next), packet: p }));
                }
            }
            return;
        }
        // Intermediate hop: restore the kind (moved apart at dispatch)
        // and pass the reply along the reversed discovery route.
        packet.kind = PacketKind::Rrep { id, origin, target, path, cost };
        packet.hop_idx += 1;
        if let Some(next) = packet.next_hop() {
            out.push(Action::Send(Frame { tx: me, rx: Some(next), packet }));
        }
    }

    fn on_rerr_into(
        &mut self,
        ctx: &mut RoutingCtx<'_>,
        mut packet: Packet,
        bad_from: NodeId,
        bad_to: NodeId,
        out: &mut Vec<Action>,
    ) {
        self.invalidate_link(bad_from, bad_to);
        let me = ctx.node;
        if me == packet.dst {
            return;
        }
        packet.hop_idx += 1;
        if let Some(next) = packet.next_hop() {
            out.push(Action::Send(Frame { tx: me, rx: Some(next), packet }));
        }
    }

    fn on_data_into(
        &mut self,
        ctx: &mut RoutingCtx<'_>,
        mut packet: Packet,
        out: &mut Vec<Action>,
    ) {
        let me = ctx.node;
        if me == packet.dst {
            out.push(Action::Deliver(packet));
            return;
        }
        packet.hop_idx += 1;
        match packet.next_hop() {
            Some(next) => out.push(Action::Send(Frame { tx: me, rx: Some(next), packet })),
            None => out.push(Action::Drop(packet, DropReason::NoRoute)),
        }
    }

    /// Handles a fired timer. Allocation-free entry point (see
    /// [`ReactiveRouting::on_timer`]).
    pub fn on_timer_into(
        &mut self,
        ctx: &mut RoutingCtx<'_>,
        kind: TimerKind,
        out: &mut Vec<Action>,
    ) {
        let TimerKind::Discovery { target, attempt } = kind else {
            return;
        };
        if self.cache.contains_key(&target) {
            // Route arrived; pending was flushed on the RREP already.
            self.pending.remove(&target);
            return;
        }
        let Some(pend) = self.pending.get_mut(&target) else {
            return;
        };
        if pend.attempt != attempt {
            return; // stale timer from an earlier attempt
        }
        if attempt >= ctx.reactive_config().max_discovery_attempts {
            let pend = self.pending.remove(&target).expect("checked above");
            out.extend(pend.packets.into_iter().map(|p| Action::Drop(p, DropReason::NoRoute)));
            return;
        }
        pend.attempt = attempt + 1;
        let rate = pend.packets.front().map(data_rate).unwrap_or(0.0);
        self.emit_discovery_into(ctx, target, rate, attempt + 1, out)
    }

    /// Handles the MAC reporting a dead link for `frame`. Allocation-free
    /// entry point (see [`ReactiveRouting::on_link_failure`]).
    pub fn on_link_failure_into(
        &mut self,
        ctx: &mut RoutingCtx<'_>,
        frame: Frame,
        out: &mut Vec<Action>,
    ) {
        let me = ctx.node;
        let Some(next) = frame.rx else { return };
        self.invalidate_link(me, next);
        let mut packet = frame.packet;
        if !packet.kind.is_data() {
            return; // lost control traffic is re-driven by timeouts
        }
        if packet.salvage >= ctx.reactive_config().max_salvage {
            out.push(Action::Drop(packet, DropReason::LinkFailure));
            return;
        }
        packet.salvage += 1;
        if me == packet.src {
            // Re-discover and retry locally.
            packet.route.clear();
            packet.hop_idx = 0;
            self.on_app_packet_into(ctx, packet, out);
            return;
        }
        // Report the break to the source and drop the packet here.
        let my_pos = packet.hop_idx.min(packet.route.len().saturating_sub(1));
        let mut back_route: Vec<NodeId> = packet.route[..=my_pos].to_vec();
        back_route.reverse();
        if back_route.len() >= 2 {
            let rerr = Packet {
                uid: 0,
                kind: PacketKind::Rerr { from: me, to: next },
                src: me,
                dst: packet.src,
                size_bytes: CONTROL_BODY_BYTES,
                route: back_route.clone(),
                hop_idx: 0,
                salvage: 0,
            };
            out.push(Action::Send(Frame { tx: me, rx: Some(back_route[1]), packet: rerr }));
        }
        out.push(Action::Drop(packet, DropReason::LinkFailure));
    }

    // Vec-returning conveniences over the `_into` entry points, for
    // unit tests and standalone use. The event loop always goes through
    // the `_into` variants with a pooled buffer.

    /// [`ReactiveRouting::on_app_packet_into`], collecting into a fresh `Vec`.
    pub fn on_app_packet(&mut self, ctx: &mut RoutingCtx<'_>, packet: Packet) -> Vec<Action> {
        let mut out = Vec::new();
        self.on_app_packet_into(ctx, packet, &mut out);
        out
    }

    /// [`ReactiveRouting::on_frame_into`], collecting into a fresh `Vec`.
    pub fn on_frame(&mut self, ctx: &mut RoutingCtx<'_>, frame: Frame) -> Vec<Action> {
        let mut out = Vec::new();
        self.on_frame_into(ctx, frame, &mut out);
        out
    }

    /// [`ReactiveRouting::on_broadcast_into`], collecting into a fresh `Vec`.
    pub fn on_broadcast(&mut self, ctx: &mut RoutingCtx<'_>, frame: &Frame) -> Vec<Action> {
        let mut out = Vec::new();
        self.on_broadcast_into(ctx, frame, &mut out);
        out
    }

    /// [`ReactiveRouting::on_timer_into`], collecting into a fresh `Vec`.
    pub fn on_timer(&mut self, ctx: &mut RoutingCtx<'_>, kind: TimerKind) -> Vec<Action> {
        let mut out = Vec::new();
        self.on_timer_into(ctx, kind, &mut out);
        out
    }

    /// [`ReactiveRouting::on_link_failure_into`], collecting into a fresh `Vec`.
    pub fn on_link_failure(&mut self, ctx: &mut RoutingCtx<'_>, frame: Frame) -> Vec<Action> {
        let mut out = Vec::new();
        self.on_link_failure_into(ctx, frame, &mut out);
        out
    }

    fn invalidate_link(&mut self, a: NodeId, b: NodeId) {
        self.cache.retain(|_, r| {
            !r.path.windows(2).any(|w| (w[0] == a && w[1] == b) || (w[0] == b && w[1] == a))
        });
    }
}

fn data_rate(p: &Packet) -> f64 {
    match p.kind {
        PacketKind::Data { rate_bps, .. } => rate_bps,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Channel;
    use crate::scenario::RoutingKind;
    use eend_radio::cards;
    use eend_sim::{SimRng, SimTime};

    /// Line 0—1—2—3, 100 m spacing, range 120 m.
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
        /// The line under plain DSR (hop count).
        fn new(pm: Vec<PmMode>) -> World {
            World {
                channel: line_channel(),
                pm,
                card: cards::cabletron(),
                config: RoutingKind::Reactive(ReactiveConfig::new(RouteMetric::HopCount)),
                rng: SimRng::new(7),
                discoveries: Discoveries::default(),
            }
        }

        /// The same world with every node under `cfg` instead.
        fn with_config(mut self, cfg: ReactiveConfig) -> World {
            self.config = RoutingKind::Reactive(cfg);
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

    fn all_active() -> Vec<PmMode> {
        vec![PmMode::ActiveMode; 4]
    }

    #[test]
    fn first_packet_triggers_discovery() {
        let mut w = World::new(all_active());
        let mut r = ReactiveRouting::new();
        let actions = r.on_app_packet(&mut w.ctx(0, 0), data(0, 3));
        assert_eq!(actions.len(), 2, "broadcast RREQ + timeout timer");
        let Action::Send(f) = &actions[0] else { panic!("want Send, got {actions:?}") };
        assert!(f.is_broadcast());
        assert!(matches!(f.packet.kind, PacketKind::Rreq { target: 3, origin: 0, .. }));
        assert!(matches!(
            actions[1],
            Action::Timer(TimerKind::Discovery { target: 3, attempt: 1 }, _)
        ));
        // Second packet to same target: buffered, no second flood.
        let actions = r.on_app_packet(&mut w.ctx(0, 1), data(0, 3));
        assert!(actions.is_empty());
    }

    /// Drives a full discovery 0 → 3 across the line and returns the
    /// routing states afterwards.
    fn run_discovery(metric: RouteMetric) -> (World, Vec<ReactiveRouting>) {
        let mut w = World::new(all_active()).with_config(ReactiveConfig::new(metric));
        let mut nodes: Vec<ReactiveRouting> = (0..4).map(|_| ReactiveRouting::new()).collect();
        // Source floods.
        let mut actions0 = nodes[0].on_app_packet(&mut w.ctx(0, 0), data(0, 3));
        let Action::Send(rreq0) = actions0.remove(0) else { panic!() };
        // Node 1 hears it (node 0's only in-range neighbor is 1).
        let fwd1 = nodes[1].on_frame(&mut w.ctx(1, 1), rreq0.clone());
        let Action::Send(rreq1) = &fwd1[0] else { panic!("1 must forward") };
        // Node 2 hears node 1's copy.
        let fwd2 = nodes[2].on_frame(&mut w.ctx(2, 2), rreq1.clone());
        let Action::Send(rreq2) = &fwd2[0] else { panic!("2 must forward") };
        // Node 0 also hears node 1's copy — must not bounce it back.
        assert!(nodes[0].on_frame(&mut w.ctx(0, 2), rreq1.clone()).is_empty());
        // Target 3 hears node 2's copy and replies.
        let rep = nodes[3].on_frame(&mut w.ctx(3, 3), rreq2.clone());
        let Action::Send(rrep) = &rep[0] else { panic!("target must reply") };
        assert_eq!(rrep.rx, Some(2));
        assert!(matches!(rrep.packet.kind, PacketKind::Rrep { .. }));
        // RREP walks back 2 → 1 → 0.
        let back2 = nodes[2].on_frame(&mut w.ctx(2, 4), rrep.clone());
        let Action::Send(rrep2) = &back2[0] else { panic!() };
        assert_eq!(rrep2.rx, Some(1));
        let back1 = nodes[1].on_frame(&mut w.ctx(1, 5), rrep2.clone());
        let Action::Send(rrep1) = &back1[0] else { panic!() };
        assert_eq!(rrep1.rx, Some(0));
        // Origin installs the route and flushes the pending packet.
        let flushed = nodes[0].on_frame(&mut w.ctx(0, 6), rrep1.clone());
        assert_eq!(flushed.len(), 1);
        let Action::Send(dataf) = &flushed[0] else { panic!("pending data must flush") };
        assert_eq!(dataf.rx, Some(1));
        assert_eq!(dataf.packet.route, vec![0, 1, 2, 3]);
        (w, nodes)
    }

    #[test]
    fn end_to_end_discovery_hop_count() {
        let (_w, nodes) = run_discovery(RouteMetric::HopCount);
        assert_eq!(nodes[0].cached_route(3), Some(&[0, 1, 2, 3][..]));
    }

    #[test]
    fn end_to_end_discovery_mtpr() {
        let (_w, nodes) = run_discovery(RouteMetric::RadiatedPower);
        assert_eq!(nodes[0].cached_route(3), Some(&[0, 1, 2, 3][..]));
    }

    #[test]
    fn data_forwarding_and_delivery() {
        let (mut w, mut nodes) = run_discovery(RouteMetric::HopCount);
        let mut p = data(0, 3);
        p.route = vec![0, 1, 2, 3];
        p.hop_idx = 0;
        // At node 1.
        let a =
            nodes[1].on_frame(&mut w.ctx(1, 10), Frame { tx: 0, rx: Some(1), packet: p.clone() });
        let Action::Send(f1) = &a[0] else { panic!() };
        assert_eq!(f1.rx, Some(2));
        assert_eq!(f1.packet.hop_idx, 1);
        // At destination.
        let mut at_dst = f1.packet.clone();
        at_dst.hop_idx = 2;
        let a = nodes[3].on_frame(&mut w.ctx(3, 11), Frame { tx: 2, rx: Some(3), packet: at_dst });
        assert!(matches!(a[0], Action::Deliver(_)));
    }

    #[test]
    fn duplicate_rreq_suppressed_for_hops_rebroadcast_for_cheaper_cost() {
        let mut w = World::new(all_active());
        let mk_rreq = |cost: f64, path: Vec<NodeId>| Packet {
            uid: 2,
            kind: PacketKind::Rreq { id: 0, origin: 0, target: 3, cost, path, rate_bps: 0.0 },
            src: 0,
            dst: usize::MAX,
            size_bytes: 8,
            route: Vec::new(),
            hop_idx: 0,
            salvage: 0,
        };
        // Hop metric: second copy with equal cost is dropped.
        let mut r = ReactiveRouting::new();
        let first = r.on_frame(
            &mut w.ctx(2, 0),
            Frame { tx: 1, rx: None, packet: mk_rreq(1.0, vec![0, 1]) },
        );
        assert_eq!(first.len(), 1);
        let dup = r.on_frame(
            &mut w.ctx(2, 1),
            Frame { tx: 1, rx: None, packet: mk_rreq(1.0, vec![0, 1]) },
        );
        assert!(dup.is_empty());
        // Cost metric: a strictly cheaper copy is re-broadcast.
        // (A fresh world: the first world's discovery table saw this RREQ.)
        let mut w =
            World::new(all_active()).with_config(ReactiveConfig::new(RouteMetric::RadiatedPower));
        let mut r = ReactiveRouting::new();
        let first = r.on_frame(
            &mut w.ctx(2, 0),
            Frame { tx: 1, rx: None, packet: mk_rreq(500.0, vec![0, 1]) },
        );
        assert_eq!(first.len(), 1);
        let cheaper = r.on_frame(
            &mut w.ctx(2, 1),
            Frame { tx: 1, rx: None, packet: mk_rreq(1.0, vec![0, 1]) },
        );
        assert_eq!(cheaper.len(), 1, "cheaper duplicate must be re-broadcast");
        let dearer = r.on_frame(
            &mut w.ctx(2, 2),
            Frame { tx: 1, rx: None, packet: mk_rreq(900.0, vec![0, 1]) },
        );
        assert!(dearer.is_empty());
    }

    #[test]
    fn a_discovery_record_lives_as_long_as_its_copies() {
        let mut w = World::new(all_active());
        let copy = Frame {
            tx: 1,
            rx: None,
            packet: Packet {
                uid: 5,
                kind: PacketKind::Rreq {
                    id: 4,
                    origin: 0,
                    target: 3,
                    cost: 1.0,
                    path: vec![0, 1],
                    rate_bps: 0.0,
                },
                src: 0,
                dst: usize::MAX,
                size_bytes: 8,
                route: Vec::new(),
                hop_idx: 0,
                salvage: 0,
            },
        };
        w.discoveries.copy_born(&copy);
        w.discoveries.copy_born(&copy);
        let mut r = ReactiveRouting::new();
        assert_eq!(r.on_broadcast(&mut w.ctx(2, 0), &copy).len(), 1, "first copy forwards");
        w.discoveries.copy_died(&copy);
        assert!(r.on_broadcast(&mut w.ctx(2, 1), &copy).is_empty(), "a live record suppresses");
        w.discoveries.copy_died(&copy);
        assert!(w.discoveries.is_empty(), "the last copy frees the record");
        // Copies of other kinds are not counted.
        let data = Frame { tx: 0, rx: Some(1), packet: data(0, 3) };
        w.discoveries.copy_born(&data);
        assert!(w.discoveries.is_empty());
    }

    #[test]
    #[should_panic(expected = "must each fit a u32")]
    fn a_discovery_id_past_u32_panics() {
        discovery_key(0, u64::from(u32::MAX) + 1);
    }

    #[test]
    fn discovery_timeout_retries_then_drops() {
        let mut w = World::new(all_active());
        let mut r = ReactiveRouting::new();
        let _ = r.on_app_packet(&mut w.ctx(0, 0), data(0, 3));
        // Attempt 1 times out → attempt 2 flood.
        let a = r.on_timer(&mut w.ctx(0, 1000), TimerKind::Discovery { target: 3, attempt: 1 });
        assert!(matches!(&a[0], Action::Send(f) if f.is_broadcast()));
        assert!(matches!(a[1], Action::Timer(TimerKind::Discovery { attempt: 2, .. }, _)));
        // Stale timer for attempt 1 is ignored now.
        assert!(r
            .on_timer(&mut w.ctx(0, 1500), TimerKind::Discovery { target: 3, attempt: 1 })
            .is_empty());
        let a = r.on_timer(&mut w.ctx(0, 3000), TimerKind::Discovery { target: 3, attempt: 2 });
        assert!(matches!(a[1], Action::Timer(TimerKind::Discovery { attempt: 3, .. }, _)));
        // Final attempt times out → pending packet dropped with NoRoute.
        let a = r.on_timer(&mut w.ctx(0, 7000), TimerKind::Discovery { target: 3, attempt: 3 });
        assert_eq!(a.len(), 1);
        assert!(matches!(a[0], Action::Drop(_, DropReason::NoRoute)));
    }

    #[test]
    fn link_failure_at_source_rediscovers_then_drops() {
        let (mut w, mut nodes) = run_discovery(RouteMetric::HopCount);
        let mut p = data(0, 3);
        p.route = vec![0, 1, 2, 3];
        let f = Frame { tx: 0, rx: Some(1), packet: p };
        // First failure: salvage — cache invalidated, rediscovery starts.
        let a = nodes[0].on_link_failure(&mut w.ctx(0, 20), f.clone());
        assert!(nodes[0].cached_route(3).is_none(), "cache must drop the dead link");
        assert!(a.iter().any(|x| matches!(x, Action::Send(fr) if fr.is_broadcast())));
        // Second failure of the salvaged packet: dropped.
        let mut salvaged = f;
        salvaged.packet.salvage = 1;
        let a = nodes[0].on_link_failure(&mut w.ctx(0, 21), salvaged);
        assert!(matches!(a[0], Action::Drop(_, DropReason::LinkFailure)));
    }

    #[test]
    fn link_failure_midroute_sends_rerr_back() {
        let (mut w, mut nodes) = run_discovery(RouteMetric::HopCount);
        let mut p = data(0, 3);
        p.route = vec![0, 1, 2, 3];
        p.hop_idx = 1; // held by node 1, failing towards 2
        let a =
            nodes[1].on_link_failure(&mut w.ctx(1, 20), Frame { tx: 1, rx: Some(2), packet: p });
        let Action::Send(rerr) = &a[0] else { panic!("want RERR, got {a:?}") };
        assert_eq!(rerr.rx, Some(0));
        assert!(matches!(rerr.packet.kind, PacketKind::Rerr { from: 1, to: 2 }));
        assert!(matches!(a[1], Action::Drop(_, DropReason::LinkFailure)));
    }

    #[test]
    fn rerr_invalidates_cache_at_origin() {
        let (mut w, mut nodes) = run_discovery(RouteMetric::HopCount);
        assert!(nodes[0].cached_route(3).is_some());
        let rerr = Packet {
            uid: 9,
            kind: PacketKind::Rerr { from: 1, to: 2 },
            src: 1,
            dst: 0,
            size_bytes: 8,
            route: vec![1, 0],
            hop_idx: 0,
            salvage: 0,
        };
        let a = nodes[0].on_frame(&mut w.ctx(0, 30), Frame { tx: 1, rx: Some(0), packet: rerr });
        assert!(a.is_empty());
        assert!(nodes[0].cached_route(3).is_none());
    }

    #[test]
    fn titan_psm_node_delays_or_suppresses_forwarding() {
        // All nodes in PSM, no backbone: p = 1 → forwards, but delayed.
        let titan = TitanConfig::paper_default();
        let cfg = ReactiveConfig::new(RouteMetric::HopCount).with_titan(titan);
        let mut w = World::new(vec![PmMode::PowerSave; 4]).with_config(cfg);
        let mut r = ReactiveRouting::new();
        let rreq = Packet {
            uid: 3,
            kind: PacketKind::Rreq {
                id: 0,
                origin: 0,
                target: 3,
                cost: 0.0,
                path: vec![0],
                rate_bps: 0.0,
            },
            src: 0,
            dst: usize::MAX,
            size_bytes: 8,
            route: Vec::new(),
            hop_idx: 0,
            salvage: 0,
        };
        let a = r.on_frame(&mut w.ctx(1, 100), Frame { tx: 0, rx: None, packet: rreq.clone() });
        assert_eq!(a.len(), 1);
        let Action::SendAt(f, at) = &a[0] else { panic!("PSM node must delay, got {a:?}") };
        assert!(f.is_broadcast());
        assert_eq!(*at, SimTime::from_millis(100) + titan.psm_delay);

        // Fully covered by backbone: forwarding probability hits the floor;
        // over many trials some are suppressed.
        let mut pm = vec![PmMode::ActiveMode; 4];
        pm[2] = PmMode::PowerSave;
        let mut w = World::new(pm).with_config(cfg);
        let mut suppressed = 0;
        for trial in 0..200 {
            let mut r = ReactiveRouting::new();
            let mut rq = rreq.clone();
            if let PacketKind::Rreq { id, .. } = &mut rq.kind {
                *id = trial;
            }
            let a = r.on_frame(&mut w.ctx(2, 100), Frame { tx: 1, rx: None, packet: rq });
            if a.is_empty() {
                suppressed += 1;
            }
        }
        assert!(
            suppressed > 100,
            "high backbone coverage must suppress most forwards: {suppressed}"
        );
        assert!(suppressed < 200, "p_min keeps some discovery alive");
    }

    #[test]
    fn am_node_forwards_immediately_under_titan() {
        let cfg =
            ReactiveConfig::new(RouteMetric::HopCount).with_titan(TitanConfig::paper_default());
        let mut w = World::new(all_active()).with_config(cfg);
        let mut r = ReactiveRouting::new();
        let rreq = Packet {
            uid: 3,
            kind: PacketKind::Rreq {
                id: 0,
                origin: 0,
                target: 3,
                cost: 0.0,
                path: vec![0],
                rate_bps: 0.0,
            },
            src: 0,
            dst: usize::MAX,
            size_bytes: 8,
            route: Vec::new(),
            hop_idx: 0,
            salvage: 0,
        };
        let a = r.on_frame(&mut w.ctx(1, 100), Frame { tx: 0, rx: None, packet: rreq });
        assert!(matches!(a[0], Action::Send(_)), "AM nodes are not delayed");
    }

    #[test]
    fn target_replies_again_only_on_cheaper_duplicate() {
        let mut w =
            World::new(all_active()).with_config(ReactiveConfig::new(RouteMetric::RadiatedPower));
        let mut r = ReactiveRouting::new();
        let mk = |cost: f64, path: Vec<NodeId>| Packet {
            uid: 4,
            kind: PacketKind::Rreq { id: 7, origin: 0, target: 3, cost, path, rate_bps: 0.0 },
            src: 0,
            dst: usize::MAX,
            size_bytes: 8,
            route: Vec::new(),
            hop_idx: 0,
            salvage: 0,
        };
        let a = r.on_frame(
            &mut w.ctx(3, 0),
            Frame { tx: 2, rx: None, packet: mk(100.0, vec![0, 1, 2]) },
        );
        assert_eq!(a.len(), 1, "first arrival replies");
        let a =
            r.on_frame(&mut w.ctx(3, 1), Frame { tx: 2, rx: None, packet: mk(500.0, vec![0, 2]) });
        assert!(a.is_empty(), "costlier duplicate is ignored");
        let a =
            r.on_frame(&mut w.ctx(3, 2), Frame { tx: 2, rx: None, packet: mk(50.0, vec![0, 2]) });
        assert_eq!(a.len(), 1, "cheaper duplicate re-replies");
    }
}
