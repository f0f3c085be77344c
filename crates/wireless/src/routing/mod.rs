//! Routing agents: reactive source routing (DSR / MTPR / MTPR+ / DSRH)
//! and proactive distance-vector (DSDV / DSDVH).
//!
//! Agents are pure state machines: every entry point takes a
//! [`RoutingCtx`] (read-only view of the world plus the node's RNG) and
//! returns [`Action`]s for the simulator to execute. This keeps protocol
//! logic free of borrow entanglement with the event loop and — more
//! importantly — unit-testable without a running simulation. An agent
//! holds only its node's protocol state: the configuration every node
//! shares is read through the context, held once per run.

pub mod dsdv;
pub mod fixed;
pub mod metric;
pub mod reactive;

use crate::channel::Channel;
use crate::frame::{Frame, NodeId, Packet};
use crate::power::PmMode;
use crate::scenario::RoutingKind;
use eend_radio::RadioCard;
use eend_sim::{SimRng, SimTime};

pub use dsdv::{DsdvConfig, DsdvRouting};
pub use fixed::{StaticConfig, StaticRouting};
pub use metric::RouteMetric;
pub use reactive::{Discoveries, ReactiveConfig, ReactiveRouting};

/// Why a data packet was dropped (metrics bookkeeping).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Route discovery exhausted its attempts.
    NoRoute,
    /// A link on the path failed past the MAC retry limit.
    LinkFailure,
    /// The routing layer's own buffer overflowed.
    BufferOverflow,
}

/// Timers a routing agent can arm.
#[derive(Debug, Clone, PartialEq)]
pub enum TimerKind {
    /// Reactive: discovery for `target` times out (attempt number given).
    Discovery {
        /// Node being discovered.
        target: NodeId,
        /// 1-based attempt count.
        attempt: u32,
    },
    /// Proactive: periodic full-table advertisement.
    DsdvPeriodic,
}

/// What an agent asks the simulator to do.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Enqueue a frame at this node's MAC.
    Send(Frame),
    /// Enqueue a frame at a later instant (TITAN's PSM forwarding delay).
    SendAt(Frame, SimTime),
    /// The packet reached its destination: count the delivery.
    Deliver(Packet),
    /// Count a drop.
    Drop(Packet, DropReason),
    /// Arm a routing timer.
    Timer(TimerKind, SimTime),
}

/// Read-only world view handed to agents, plus the node's RNG stream.
#[derive(Debug)]
pub struct RoutingCtx<'a> {
    /// This node's id.
    pub node: NodeId,
    /// Current simulation time.
    pub now: SimTime,
    /// Geometry (distances, neighbour sets).
    pub channel: &'a Channel,
    /// Power-management mode of every node. Protocols may read their
    /// *neighbours'* modes (learned from beacons in the real system) and
    /// their own.
    pub pm_modes: &'a [PmMode],
    /// The radio card (for metric evaluation).
    pub card: &'a RadioCard,
    /// Channel bandwidth, bits per second.
    pub bandwidth_bps: f64,
    /// The routing configuration every node of the run shares. Its kind
    /// is the kind of every agent the context is handed to.
    pub config: &'a RoutingKind,
    /// This node's RNG stream.
    pub rng: &'a mut SimRng,
    /// Per-node count of neighbours in [`PmMode::ActiveMode`], maintained
    /// incrementally by the event loop. `None` (unit tests, standalone
    /// use) falls back to counting over the neighbour list.
    pub active_neighbors: Option<&'a [u32]>,
    /// The run's reactive discovery state (duplicate suppression and
    /// replies), shared by every node; other agents leave it alone.
    pub discoveries: &'a mut Discoveries,
}

impl<'a> RoutingCtx<'a> {
    /// The shared reactive configuration.
    ///
    /// # Panics
    ///
    /// Panics if the run's routing is not reactive: only a reactive
    /// agent asks, and agents are built from the run's configuration.
    pub fn reactive_config(&self) -> &'a ReactiveConfig {
        match self.config {
            RoutingKind::Reactive(cfg) => cfg,
            _ => panic!("a reactive agent runs under a non-reactive configuration"),
        }
    }

    /// The shared DSDV configuration.
    ///
    /// # Panics
    ///
    /// Panics if the run's routing is not DSDV (see
    /// [`RoutingCtx::reactive_config`]).
    pub fn dsdv_config(&self) -> &'a DsdvConfig {
        match self.config {
            RoutingKind::Dsdv(cfg) => cfg,
            _ => panic!("a DSDV agent runs under a non-DSDV configuration"),
        }
    }

    /// The shared static route table.
    ///
    /// # Panics
    ///
    /// Panics if the run's routing is not static (see
    /// [`RoutingCtx::reactive_config`]).
    pub fn static_config(&self) -> &'a StaticConfig {
        match self.config {
            RoutingKind::Static(cfg) => cfg,
            _ => panic!("a static agent runs under a non-static configuration"),
        }
    }

    /// Number of this node's neighbours currently in active mode —
    /// TITAN's backbone density. O(1) off the event loop's incremental
    /// counts; O(degree) without them. The two always agree: the loop
    /// refreshes the counts on every mobility rebuild and power-mode
    /// flip.
    pub fn backbone_neighbors(&self) -> usize {
        match self.active_neighbors {
            Some(counts) => counts[self.node] as usize,
            None => self
                .channel
                .neighbors(self.node)
                .iter()
                .filter(|&&w| self.pm_modes[w as usize] == PmMode::ActiveMode)
                .count(),
        }
    }
}

/// A node's routing agent.
#[derive(Debug, Clone)]
pub enum RoutingAgent {
    /// DSR-family reactive source routing.
    Reactive(ReactiveRouting),
    /// DSDV-family proactive distance vector.
    Dsdv(DsdvRouting),
    /// Fixed per-flow source routes (the design↔simulate loop's oracle).
    Static(StaticRouting),
}

impl RoutingAgent {
    /// A fresh agent of the family `config` selects.
    pub fn new(config: &RoutingKind) -> RoutingAgent {
        match config {
            RoutingKind::Reactive(_) => RoutingAgent::Reactive(ReactiveRouting::new()),
            RoutingKind::Dsdv(_) => RoutingAgent::Dsdv(DsdvRouting::new()),
            RoutingKind::Static(_) => RoutingAgent::Static(StaticRouting::new()),
        }
    }

    /// The application hands over a freshly generated data packet.
    ///
    /// Every entry point, here and on each agent family, takes the
    /// caller's reusable `out` buffer instead of returning a fresh `Vec`:
    /// the event loop pools these buffers, so steady-state routing emits
    /// **no per-event allocations**.
    pub fn on_app_packet(
        &mut self,
        ctx: &mut RoutingCtx<'_>,
        packet: Packet,
        out: &mut Vec<Action>,
    ) {
        match self {
            RoutingAgent::Reactive(r) => r.on_app_packet(ctx, packet, out),
            RoutingAgent::Dsdv(d) => d.on_app_packet(ctx, packet, out),
            RoutingAgent::Static(s) => s.on_app_packet(ctx, packet, out),
        }
    }

    /// A frame addressed to (or broadcast at) this node arrived.
    pub fn on_frame(&mut self, ctx: &mut RoutingCtx<'_>, frame: Frame, out: &mut Vec<Action>) {
        match self {
            RoutingAgent::Reactive(r) => r.on_frame(ctx, frame, out),
            RoutingAgent::Dsdv(d) => d.on_frame(ctx, frame, out),
            RoutingAgent::Static(s) => s.on_frame(ctx, frame, out),
        }
    }

    /// A link-layer broadcast reached this node. Behaviourally identical
    /// to [`RoutingAgent::on_frame`] on a clone of `frame`, but borrows:
    /// the event loop hands the same frame to every receiver, and the
    /// flood paths (RREQ damping, DSDV table merges) only copy packet
    /// payloads for receivers that actually emit something.
    pub fn on_broadcast(&mut self, ctx: &mut RoutingCtx<'_>, frame: &Frame, out: &mut Vec<Action>) {
        match self {
            RoutingAgent::Reactive(r) => r.on_broadcast(ctx, frame, out),
            RoutingAgent::Dsdv(d) => d.on_broadcast(ctx, frame, out),
            RoutingAgent::Static(s) => s.on_broadcast(ctx, frame, out),
        }
    }

    /// A previously armed timer fired.
    pub fn on_timer(&mut self, ctx: &mut RoutingCtx<'_>, kind: TimerKind, out: &mut Vec<Action>) {
        match self {
            RoutingAgent::Reactive(r) => r.on_timer(ctx, kind, out),
            RoutingAgent::Dsdv(d) => d.on_timer(ctx, kind, out),
            RoutingAgent::Static(s) => s.on_timer(ctx, kind, out),
        }
    }

    /// The MAC gave up on a frame after the retry limit.
    pub fn on_link_failure(
        &mut self,
        ctx: &mut RoutingCtx<'_>,
        frame: Frame,
        out: &mut Vec<Action>,
    ) {
        match self {
            RoutingAgent::Reactive(r) => r.on_link_failure(ctx, frame, out),
            RoutingAgent::Dsdv(d) => d.on_link_failure(ctx, frame, out),
            RoutingAgent::Static(s) => s.on_link_failure(ctx, frame, out),
        }
    }

    /// This node's power-management mode changed (DSDVH's trigger).
    pub fn on_pm_changed(&mut self, ctx: &mut RoutingCtx<'_>, mode: PmMode, out: &mut Vec<Action>) {
        match self {
            RoutingAgent::Reactive(_) | RoutingAgent::Static(_) => {}
            RoutingAgent::Dsdv(d) => d.on_pm_changed(ctx, mode, out),
        }
    }
}
