//! Fixed-route ("static") routing: every flow follows a caller-supplied
//! source route, with no discovery, no advertisements, and no repair.
//!
//! This is the packet-level counterpart of the fluid evaluator's
//! fixed-route model (`eend-core::evaluate`): the design↔simulate loop
//! injects a candidate [`Design`]'s routes here so the full MAC/PHY/power
//! machinery scores exactly the routing the designer chose, with zero
//! control-traffic overhead muddying the comparison.
//!
//! [`Design`]: https://docs.rs/eend-core

use std::sync::Arc;

use crate::frame::{Frame, NodeId, Packet, PacketKind};
use crate::routing::{Action, DropReason, RoutingCtx, TimerKind};

/// Configuration of the static agent: one optional source route per flow
/// index, shared across every node's agent (the table is read-only, so one
/// allocation serves the whole field).
#[derive(Debug, Clone, PartialEq)]
pub struct StaticConfig {
    /// `routes[flow]` = the node sequence flow `flow` must follow
    /// (starting at its source, ending at its sink), or `None` for an
    /// intentionally unrouted flow (all its packets drop as `NoRoute`).
    pub routes: Arc<Vec<Option<Vec<NodeId>>>>,
}

impl StaticConfig {
    /// Wraps a per-flow route table.
    pub fn new(routes: Vec<Option<Vec<NodeId>>>) -> StaticConfig {
        StaticConfig { routes: Arc::new(routes) }
    }
}

/// Per-node static routing state: none. The [`StaticConfig`] every node
/// follows is read through [`RoutingCtx::static_config`].
#[derive(Debug, Clone, Default)]
pub struct StaticRouting;

impl StaticRouting {
    /// Fresh state for one node.
    pub fn new() -> StaticRouting {
        StaticRouting
    }

    /// Handles a freshly generated application packet: stamp the flow's
    /// fixed route and send to the first hop.
    pub fn on_app_packet(
        &mut self,
        ctx: &mut RoutingCtx<'_>,
        mut packet: Packet,
        out: &mut Vec<Action>,
    ) {
        debug_assert!(packet.kind.is_data(), "app hands over data only");
        let PacketKind::Data { flow, .. } = packet.kind else {
            return;
        };
        let route = ctx.static_config().routes.get(flow).and_then(Option::as_deref);
        let Some(route) = route.filter(|r| r.len() >= 2) else {
            out.push(Action::Drop(packet, DropReason::NoRoute));
            return;
        };
        debug_assert_eq!(route[0], ctx.node, "flow {flow} route must start at its source");
        packet.route = route.to_vec();
        packet.hop_idx = 0;
        let next = packet.next_hop().expect("route has ≥ 2 nodes");
        out.push(Action::Send(Frame { tx: ctx.node, rx: Some(next), packet }));
    }

    /// Handles a received frame: deliver at the destination, otherwise
    /// forward along the stamped source route.
    pub fn on_frame(&mut self, ctx: &mut RoutingCtx<'_>, frame: Frame, out: &mut Vec<Action>) {
        let mut packet = frame.packet;
        if !packet.kind.is_data() {
            return; // no control plane: foreign control traffic is ignored
        }
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

    /// Broadcast reception: the static agent floods nothing and expects no
    /// floods; data never arrives by broadcast.
    pub fn on_broadcast(
        &mut self,
        _ctx: &mut RoutingCtx<'_>,
        _frame: &Frame,
        _out: &mut Vec<Action>,
    ) {
    }

    /// No timers are ever armed.
    pub fn on_timer(
        &mut self,
        _ctx: &mut RoutingCtx<'_>,
        _kind: TimerKind,
        _out: &mut Vec<Action>,
    ) {
    }

    /// A fixed route has no repair path: data on a dead link drops.
    pub fn on_link_failure(
        &mut self,
        _ctx: &mut RoutingCtx<'_>,
        frame: Frame,
        out: &mut Vec<Action>,
    ) {
        if frame.packet.kind.is_data() {
            out.push(Action::Drop(frame.packet, DropReason::LinkFailure));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Channel;
    use crate::power::PmMode;
    use crate::routing::Discoveries;
    use crate::scenario::RoutingKind;
    use eend_radio::cards;
    use eend_sim::{SimRng, SimTime};

    fn ctx<'a>(
        node: NodeId,
        channel: &'a Channel,
        pm: &'a [PmMode],
        card: &'a eend_radio::RadioCard,
        config: &'a RoutingKind,
        rng: &'a mut SimRng,
        discoveries: &'a mut Discoveries,
    ) -> RoutingCtx<'a> {
        RoutingCtx {
            node,
            now: SimTime::ZERO,
            channel,
            pm_modes: pm,
            card,
            bandwidth_bps: 2e6,
            config,
            rng,
            active_neighbors: None,
            discoveries,
        }
    }

    fn routes(routes: Vec<Option<Vec<NodeId>>>) -> RoutingKind {
        RoutingKind::Static(StaticConfig::new(routes))
    }

    fn data_packet(flow: usize, src: NodeId, dst: NodeId) -> Packet {
        Packet {
            uid: 1,
            kind: PacketKind::Data { flow, seq: 0, rate_bps: 8_000.0 },
            src,
            dst,
            size_bytes: 512,
            route: Vec::new(),
            hop_idx: 0,
            salvage: 0,
        }
    }

    fn line3() -> (Channel, Vec<PmMode>, eend_radio::RadioCard) {
        let positions = vec![(0.0, 0.0), (200.0, 0.0), (400.0, 0.0)];
        let card = cards::cabletron();
        let channel = Channel::new(positions, card.nominal_range_m);
        (channel, vec![PmMode::ActiveMode; 3], card)
    }

    #[test]
    fn app_packet_follows_fixed_route() {
        let (channel, pm, card) = line3();
        let mut rng = SimRng::new(7);
        let config = routes(vec![Some(vec![0, 1, 2])]);
        let mut agent = StaticRouting::new();
        let mut out = Vec::new();
        let mut disc = Discoveries::default();
        let mut c = ctx(0, &channel, &pm, &card, &config, &mut rng, &mut disc);
        agent.on_app_packet(&mut c, data_packet(0, 0, 2), &mut out);
        assert_eq!(out.len(), 1);
        let Action::Send(frame) = &out[0] else { panic!("expected Send, got {out:?}") };
        assert_eq!(frame.rx, Some(1));
        assert_eq!(frame.packet.route, vec![0, 1, 2]);
    }

    #[test]
    fn relay_forwards_and_sink_delivers() {
        let (channel, pm, card) = line3();
        let mut rng = SimRng::new(7);
        let config = routes(vec![Some(vec![0, 1, 2])]);
        let mut agent = StaticRouting::new();
        let mut pkt = data_packet(0, 0, 2);
        pkt.route = vec![0, 1, 2];
        pkt.hop_idx = 0;
        let mut out = Vec::new();
        let mut disc = Discoveries::default();
        let mut c = ctx(1, &channel, &pm, &card, &config, &mut rng, &mut disc);
        agent.on_frame(&mut c, Frame { tx: 0, rx: Some(1), packet: pkt.clone() }, &mut out);
        let Action::Send(frame) = &out[0] else { panic!("expected Send, got {out:?}") };
        assert_eq!(frame.rx, Some(2));
        let mut out = Vec::new();
        let mut disc = Discoveries::default();
        let mut c = ctx(2, &channel, &pm, &card, &config, &mut rng, &mut disc);
        let mut at_sink = pkt;
        at_sink.hop_idx = 1;
        agent.on_frame(&mut c, Frame { tx: 1, rx: Some(2), packet: at_sink }, &mut out);
        assert!(matches!(out[0], Action::Deliver(_)));
    }

    #[test]
    fn unrouted_flow_drops_as_no_route() {
        let (channel, pm, card) = line3();
        let mut rng = SimRng::new(7);
        let config = routes(vec![None]);
        let mut agent = StaticRouting::new();
        let mut out = Vec::new();
        let mut disc = Discoveries::default();
        let mut c = ctx(0, &channel, &pm, &card, &config, &mut rng, &mut disc);
        agent.on_app_packet(&mut c, data_packet(0, 0, 2), &mut out);
        assert!(matches!(out[0], Action::Drop(_, DropReason::NoRoute)));
    }

    #[test]
    fn link_failure_drops_without_repair() {
        let (channel, pm, card) = line3();
        let mut rng = SimRng::new(7);
        let config = routes(vec![Some(vec![0, 1, 2])]);
        let mut agent = StaticRouting::new();
        let mut pkt = data_packet(0, 0, 2);
        pkt.route = vec![0, 1, 2];
        let mut out = Vec::new();
        let mut disc = Discoveries::default();
        let mut c = ctx(0, &channel, &pm, &card, &config, &mut rng, &mut disc);
        agent.on_link_failure(&mut c, Frame { tx: 0, rx: Some(1), packet: pkt }, &mut out);
        assert!(matches!(out[0], Action::Drop(_, DropReason::LinkFailure)));
    }
}
