//! The simulation event loop.
//!
//! [`Simulator`] wires the substrates together: CBR sources hand packets
//! to per-node routing agents, whose frames queue at transaction-level
//! MACs sharing the [`Channel`]; PSM beacons, ODPM keep-alives and energy
//! meters run alongside. Every run is fully deterministic in the scenario
//! seed.
//!
//! The loop is a classic discrete-event dispatch; each event handler is a
//! method on [`Simulator`]. Routing agents are pure state machines (see
//! [`crate::routing`]) whose [`Action`]s the loop interprets, so no layer
//! ever borrows across another.

use crate::channel::Channel;
use crate::frame::{Frame, NodeId, Packet, PacketKind};
use crate::mac::{plan_at, ControlAirtimes, MacState, MacTiming, QueuePool, UnicastPlan};
use crate::metrics::RunMetrics;
use crate::power::{NodePm, PmMode, PowerPolicy};
use crate::routing::{
    Action, DropReason, DsdvRouting, ReactiveRouting, RoutingAgent, RoutingCtx, StaticRouting,
    TimerKind,
};
use crate::scenario::{RoutingKind, Scenario};
use crate::traffic::Flow;
use eend_radio::{CardPowers, EnergyMeter, EnergyReport, RadioState, TrafficClass};
use eend_sim::{mix_seed, EventQueue, SimDuration, SimRng, SimTime, TimerFire};

#[derive(Debug, Clone, PartialEq)]
enum Event {
    PacketGen(usize),
    MacTick(NodeId),
    TxnEnd(NodeId),
    Beacon,
    AtimEnd,
    SleepCheck(NodeId),
    PmKeepalive(NodeId),
    RoutingTimer(NodeId, TimerKind),
    /// Boxed: the frame would otherwise quadruple the size of every
    /// event the binary heap sifts (delayed enqueues are rare; heap
    /// moves happen on every schedule/pop).
    EnqueueAt(NodeId, Box<Frame>),
    NodeFail(NodeId),
    MobilityTick,
    /// A run of [`Event::MacTick`]s scheduled back-to-back at the same
    /// instant (a broadcast waking its whole audience). The members held
    /// consecutive sequence numbers, so no other event could have fired
    /// between them — executing them in order inside one event is
    /// observationally identical and saves one queue round-trip per
    /// member. Buffers are recycled via `Simulator::tick_batch_pool`.
    MacTickBatch(Vec<NodeId>),
}

/// The transaction owns its frame (popped from the MAC queue), so the
/// hot path never clones packets; an [`TxnKind::RtsFail`] carries none —
/// the failed frame stays queued for the retry.
#[derive(Debug, Clone)]
enum TxnKind {
    /// Full RTS/CTS/DATA/ACK exchange with `rx`.
    Unicast { rx: NodeId, frame: Frame },
    /// DIFS + DATA to every listed receiver. The receiver buffer is
    /// recycled through `Simulator::receiver_pool`.
    Broadcast { receivers: Vec<NodeId>, frame: Frame },
    /// RTS that will get no CTS (receiver jammed); ends in a retry.
    RtsFail,
}

#[derive(Debug, Clone)]
struct Txn {
    kind: TxnKind,
    start: SimTime,
    plan: UnicastPlan,
    data_power_mw: f64,
}

/// Cold per-node state: the MAC and routing state machines plus the
/// in-flight transaction, boxed because only a few nodes transact at
/// once (an inline `Txn` would be half the row). Hot per-node state
/// (position, velocity, radio power state, card index, energy
/// accumulator) lives in struct-of-arrays storage owned by
/// [`Simulator`] — positions and waypoint velocities in the [`Channel`]
/// / waypoint buffers, energy meters in `Simulator::meters`, card
/// indices in `Simulator::card_idx` — so mobility stepping, grid
/// re-bucketing and live/log scans stream through contiguous memory
/// instead of striding across node structs.
struct Node {
    mac: MacState,
    routing: RoutingAgent,
    txn: Option<Box<Txn>>,
}

/// Event-queue health counters of a completed run, reported by
/// [`Simulator::run_with_stats`]: throughput accounting for benchmarks
/// plus the queue's memory, which starts empty and grows to the most
/// events pending at once (`capacity` stays within a small factor of
/// `peak_len`, which the queue-capacity test pins).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueStats {
    /// Queue capacity when the run started: what the initial events took.
    pub initial_capacity: usize,
    /// Queue capacity when the run finished.
    pub capacity: usize,
    /// Maximum number of simultaneously pending events.
    pub peak_len: usize,
    /// Total events scheduled over the whole run.
    pub scheduled_total: u64,
    /// Always `false`: the queue has one backend, a binary heap. The field
    /// stays because the benchmark's `sim.wheel_share` still reads it; it
    /// goes with that metric at the next change to the benchmark.
    pub is_wheel_backend: bool,
}

/// The packet-level simulator. Construct with [`Simulator::new`], call
/// [`Simulator::run`].
pub struct Simulator {
    // Immutable configuration. Per-node cards drive energy accounting,
    // transmit power and routing metrics; PHY range/carrier sense were
    // fixed from the scenario's base card when the channel was built
    // (see `CardAssignment`). Under a uniform assignment every entry is
    // the base card, so the arithmetic is bit-identical to the
    // homogeneous implementation. Cards are deduplicated: `card_table`
    // holds the distinct cards (usually one or two) with their maximum
    // powers computed once, `card_idx` maps node → table slot, so the
    // per-node hot array is 4 bytes wide instead of a full `RadioCard`.
    // Likewise `airtimes` holds the fixed-size frames' airtimes.
    card_table: Vec<CardPowers>,
    card_idx: Vec<u32>,
    mac_timing: MacTiming,
    airtimes: ControlAirtimes,
    policy: PowerPolicy,
    psm: crate::power::PsmConfig,
    power_control: bool,
    end: SimTime,
    // World state.
    time: SimTime,
    queue: EventQueue<Event>,
    rng: SimRng,
    channel: Channel,
    nodes: Vec<Node>,
    // Struct-of-arrays hot state (see the [`Node`] doc): the energy
    // accumulators and data-forwarder flags every charge/scan touches,
    // stored contiguously per field. The radio power state rides inside
    // each meter; positions and waypoint velocities live in `channel` /
    // `waypoints`.
    meters: Vec<EnergyMeter>,
    forwarded: Vec<bool>,
    pm: Vec<NodePm>,
    pm_modes: Vec<PmMode>,
    flows: Vec<Flow>,
    alive: Vec<bool>,
    mobility: crate::mobility::Mobility,
    waypoints: Vec<crate::mobility::WaypointState>,
    bounds: (f64, f64, f64, f64),
    mobility_rng: SimRng,
    last_beacon: SimTime,
    atim_cursor: Vec<SimTime>,
    next_uid: u64,
    // Reusable scratch buffers: the steady-state event loop allocates
    // nothing of its own (packet payloads and scheduled frames are the
    // only remaining heap traffic — routing-agent outputs are pooled
    // below, pinned by crates/wireless/tests/alloc_count.rs).
    receiver_pool: Vec<Vec<NodeId>>,
    beacon_heads: Vec<(Option<NodeId>, bool)>,
    tick_batch_pool: Vec<Vec<NodeId>>,
    rc_scratch: Vec<NodeId>,
    /// Pool of routing-agent out-buffers: every `call_routing` borrows
    /// one and `apply_actions` returns it, so steady-state routing emits
    /// no per-event `Vec<Action>` allocations.
    action_pool: Vec<Vec<Action>>,
    /// Boxes of finished transactions, reused by the next one to start:
    /// `Node::txn` stays one pointer wide without a per-transaction
    /// allocation. The boxes are the point, hence the lint allowance.
    #[allow(clippy::vec_box)]
    txn_pool: Vec<Box<Txn>>,
    /// Interface-queue buffers of drained MAC queues, shared by every
    /// node (see [`QueuePool`]).
    mac_pool: QueuePool,
    /// Per-node count of neighbours in active mode (TITAN's backbone
    /// density), kept in lockstep with `pm_modes` and the channel's
    /// neighbour sets so routing reads it in O(1).
    active_neighbors: Vec<u32>,
    // Measurement.
    m: Counters,
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("time", &self.time)
            .field("nodes", &self.nodes.len())
            .field("pending_events", &self.queue.len())
            .finish()
    }
}

#[derive(Debug, Default)]
struct Counters {
    data_sent: u64,
    data_delivered: u64,
    delivered_bits: f64,
    drops_no_route: u64,
    drops_link_failure: u64,
    drops_buffer: u64,
    drops_ifq: u64,
    rreq_tx: u64,
    rrep_tx: u64,
    rerr_tx: u64,
    dsdv_update_tx: u64,
    atim_tx: u64,
    broadcast_collisions: u64,
    rts_collisions: u64,
    link_failures: u64,
    routes: Vec<Option<Vec<NodeId>>>,
}

impl Simulator {
    /// Builds a simulator for `scenario`. Placement and flow endpoints are
    /// drawn from the scenario seed.
    pub fn new(scenario: &Scenario) -> Simulator {
        let mut master = SimRng::new(mix_seed(&[scenario.seed, 0xEE4D]));
        let mut placement_rng = master.fork(1);
        let mut traffic_rng = master.fork(2);
        let sim_rng = master.fork(3);
        let mut mobility_rng = master.fork(4);

        let positions = scenario.placement.positions(&mut placement_rng);
        let n = positions.len();
        let bounds = crate::mobility::bounding_box(&positions);
        let waypoints = match &scenario.mobility {
            crate::mobility::Mobility::Static => Vec::new(),
            crate::mobility::Mobility::RandomWaypoint { speed_range, .. } => {
                crate::mobility::init_waypoints(&positions, bounds, *speed_range, &mut mobility_rng)
            }
        };
        let channel = Channel::new(positions, scenario.card.nominal_range_m);
        let flows = scenario.flows.materialize(n, &mut traffic_rng);

        let initial_mode = scenario.stack.power_policy.initial_mode();
        let initial_state = match initial_mode {
            PmMode::ActiveMode => RadioState::Idle,
            PmMode::PowerSave => RadioState::Sleep,
        };
        let cards = scenario.node_cards(n);
        // Deduplicate the per-node cards into a table + index: uniform
        // assignments collapse to one entry, alternating ones to the
        // distinct cards in first-appearance order.
        let mut card_table: Vec<CardPowers> = Vec::new();
        let card_idx: Vec<u32> = cards
            .iter()
            .map(|c| match card_table.iter().position(|t| t.card() == c) {
                Some(i) => i as u32,
                None => {
                    card_table.push(CardPowers::new(*c));
                    (card_table.len() - 1) as u32
                }
            })
            .collect();
        let meters: Vec<EnergyMeter> =
            cards.iter().map(|c| EnergyMeter::starting(*c, SimTime::ZERO, initial_state)).collect();
        let nodes = (0..n)
            .map(|_| Node {
                mac: MacState::new(scenario.queue_capacity),
                routing: match &scenario.stack.routing {
                    RoutingKind::Reactive(cfg) => {
                        RoutingAgent::Reactive(ReactiveRouting::new(*cfg))
                    }
                    RoutingKind::Dsdv(cfg) => RoutingAgent::Dsdv(DsdvRouting::new(*cfg)),
                    RoutingKind::Static(cfg) => {
                        RoutingAgent::Static(StaticRouting::new(cfg.clone()))
                    }
                },
                txn: None,
            })
            .collect();

        let mut sim = Simulator {
            card_table,
            card_idx,
            mac_timing: scenario.mac,
            airtimes: ControlAirtimes::new(&scenario.mac),
            policy: scenario.stack.power_policy,
            psm: scenario.stack.psm,
            power_control: scenario.stack.power_control,
            end: SimTime::ZERO + scenario.duration,
            time: SimTime::ZERO,
            queue: EventQueue::new(),
            rng: sim_rng,
            channel,
            nodes,
            meters,
            forwarded: vec![false; n],
            pm: (0..n).map(|_| NodePm::new(initial_mode)).collect(),
            pm_modes: vec![initial_mode; n],
            flows,
            alive: vec![true; n],
            mobility: scenario.mobility.clone(),
            waypoints,
            bounds,
            mobility_rng,
            last_beacon: SimTime::ZERO,
            atim_cursor: vec![SimTime::ZERO; n],
            next_uid: 1,
            receiver_pool: Vec::new(),
            beacon_heads: Vec::new(),
            tick_batch_pool: Vec::new(),
            rc_scratch: Vec::new(),
            action_pool: Vec::new(),
            txn_pool: Vec::new(),
            mac_pool: QueuePool::default(),
            active_neighbors: vec![0; n],
            m: Counters::default(),
        };
        sim.m.routes = vec![None; sim.flows.len()];
        sim.recompute_active_neighbors();
        for &(at, node) in &scenario.node_failures {
            assert!(node < n, "failure injected for unknown node {node}");
            sim.queue.schedule(at, Event::NodeFail(node));
        }

        for i in 0..sim.flows.len() {
            sim.queue.schedule(sim.flows[i].start, Event::PacketGen(i));
        }
        sim.queue.schedule(SimTime::ZERO, Event::Beacon);
        if let crate::mobility::Mobility::RandomWaypoint { tick, .. } = &scenario.mobility {
            sim.queue.schedule(SimTime::ZERO + *tick, Event::MobilityTick);
        }
        if let RoutingKind::Dsdv(cfg) = &scenario.stack.routing {
            // Spread the periodic advertisements uniformly over one full
            // period: independent DSDV nodes are unsynchronised, so the
            // network sees a continuous update stream rather than bursts.
            let period_ns = cfg.periodic.as_nanos().max(1);
            for i in 0..n {
                let jitter = SimDuration::from_nanos(sim.rng.below(period_ns));
                sim.queue.schedule(
                    SimTime::ZERO + jitter,
                    Event::RoutingTimer(i, TimerKind::DsdvPeriodic),
                );
            }
        }
        sim
    }

    /// Runs to the configured horizon and returns the measurements.
    pub fn run(self) -> RunMetrics {
        self.run_with_stats().0
    }

    /// Runs to the configured horizon and additionally reports event-queue
    /// health counters (throughput accounting for benchmarks, and the
    /// queue's growth, pinned by the queue-capacity test).
    pub fn run_with_stats(mut self) -> (RunMetrics, QueueStats) {
        let initial_capacity = self.queue.capacity();
        while let Some(t) = self.queue.peek_time() {
            if t > self.end {
                break;
            }
            let (t, ev) = self.queue.pop().expect("peeked");
            debug_assert!(t >= self.time, "event time went backwards");
            self.time = t;
            self.handle(ev);
        }
        let stats = QueueStats {
            initial_capacity,
            capacity: self.queue.capacity(),
            peak_len: self.queue.peak_len(),
            scheduled_total: self.queue.scheduled_total(),
            is_wheel_backend: false,
        };
        (self.finish(), stats)
    }

    fn finish(mut self) -> RunMetrics {
        let end = self.end;
        let per_node_energy: Vec<EnergyReport> =
            self.meters.iter_mut().map(|m| m.finish(end)).collect();
        let mut energy_total = EnergyReport::default();
        for r in &per_node_energy {
            energy_total.accumulate(r);
        }
        let data_forwarders = self.forwarded.iter().filter(|&&f| f).count();
        RunMetrics {
            data_sent: self.m.data_sent,
            data_delivered: self.m.data_delivered,
            delivered_bits: self.m.delivered_bits,
            drops_no_route: self.m.drops_no_route,
            drops_link_failure: self.m.drops_link_failure,
            drops_buffer: self.m.drops_buffer,
            drops_ifq: self.m.drops_ifq,
            rreq_tx: self.m.rreq_tx,
            rrep_tx: self.m.rrep_tx,
            rerr_tx: self.m.rerr_tx,
            dsdv_update_tx: self.m.dsdv_update_tx,
            atim_tx: self.m.atim_tx,
            broadcast_collisions: self.m.broadcast_collisions,
            rts_collisions: self.m.rts_collisions,
            link_failures: self.m.link_failures,
            per_node_energy,
            energy_total,
            data_forwarders,
            routes: self.m.routes,
            duration_s: (end - SimTime::ZERO).as_secs_f64(),
        }
    }

    fn handle(&mut self, ev: Event) {
        match ev {
            Event::PacketGen(i) => self.on_packet_gen(i),
            Event::MacTick(u) => self.on_mac_tick(u),
            Event::TxnEnd(u) => self.on_txn_end(u),
            Event::Beacon => self.on_beacon(),
            Event::AtimEnd => self.on_atim_end(),
            Event::SleepCheck(u) => self.try_sleep(u),
            Event::PmKeepalive(u) => self.on_pm_keepalive(u),
            Event::RoutingTimer(u, kind) => {
                let actions = self.call_routing(u, |r, ctx, out| r.on_timer(ctx, kind, out));
                self.apply_actions(u, actions);
            }
            Event::EnqueueAt(u, frame) => self.enqueue_frame(u, *frame),
            Event::NodeFail(u) => self.on_node_fail(u),
            Event::MobilityTick => self.on_mobility_tick(),
            Event::MacTickBatch(mut batch) => {
                for &r in &batch {
                    self.on_mac_tick(r);
                }
                batch.clear();
                self.tick_batch_pool.push(batch);
            }
        }
    }

    /// Appends `u` to a same-instant tick batch, applying exactly the
    /// guard [`Simulator::schedule_mac_tick`] applies at schedule time.
    fn push_tick_now(&mut self, batch: &mut Vec<NodeId>, u: NodeId) {
        if self.nodes[u].mac.tick_pending || self.nodes[u].mac.busy {
            return;
        }
        self.nodes[u].mac.tick_pending = true;
        batch.push(u);
    }

    /// Schedules a batch built by [`Simulator::push_tick_now`] as one
    /// event at the current instant (or as a plain tick when only one
    /// node needs waking).
    fn commit_ticks_now(&mut self, mut batch: Vec<NodeId>) {
        match batch.len() {
            0 => {
                self.tick_batch_pool.push(batch);
            }
            1 => {
                let u = batch[0];
                batch.clear();
                self.tick_batch_pool.push(batch);
                self.queue.schedule(self.time, Event::MacTick(u));
            }
            _ => self.queue.schedule(self.time, Event::MacTickBatch(batch)),
        }
    }

    fn on_mobility_tick(&mut self) {
        let crate::mobility::Mobility::RandomWaypoint { speed_range, pause, tick } = &self.mobility
        else {
            return;
        };
        let (speed_range, pause_s, tick) = (*speed_range, pause.as_secs_f64(), *tick);
        // Step the waypoint model directly on the channel's position
        // buffer: no per-tick vector is built, and the channel re-buckets
        // its spatial grid in place afterwards. The backbone counts
        // are derived inside the same rebuild (each fresh neighbour list
        // is counted while cache-hot) rather than in a second full pass.
        let Simulator {
            channel, waypoints, bounds, mobility_rng, pm_modes, active_neighbors, ..
        } = self;
        channel.update_positions_with_counts(
            |positions| {
                crate::mobility::step_waypoints(
                    positions,
                    waypoints,
                    *bounds,
                    speed_range,
                    pause_s,
                    tick.as_secs_f64(),
                    mobility_rng,
                )
            },
            |w| pm_modes[w] == PmMode::ActiveMode,
            active_neighbors,
        );
        self.queue.schedule(self.time + tick, Event::MobilityTick);
    }

    /// Kills node `u`: radio permanently off. In-flight transactions it
    /// participates in complete (the energy was already committed), but
    /// it originates and receives nothing afterwards.
    fn on_node_fail(&mut self, u: NodeId) {
        if !self.alive[u] {
            return;
        }
        self.alive[u] = false;
        while self.nodes[u].mac.pop_head(&mut self.mac_pool).is_some() {}
        self.pm[u].keepalive.cancel();
        self.pm[u].awake_until = SimTime::ZERO;
        self.pm[u].mode = PmMode::PowerSave;
        self.set_pm_mode(u, PmMode::PowerSave);
        if !self.nodes[u].mac.busy && self.meters[u].state() != RadioState::Sleep {
            self.meters[u].set_sleep(self.time);
        }
    }

    // ------------------------------------------------------------------
    // Traffic.

    fn on_packet_gen(&mut self, i: usize) {
        let flow = &mut self.flows[i];
        let packet = Packet {
            uid: 0,
            kind: PacketKind::Data { flow: i, seq: flow.next_seq, rate_bps: flow.rate_bps },
            src: flow.src,
            dst: flow.dst,
            size_bytes: flow.packet_bytes,
            route: Vec::new(),
            hop_idx: 0,
            salvage: 0,
        };
        flow.next_seq += 1;
        let src = flow.src;
        // The gap comes from the flow's arrival process (fixed for CBR,
        // drawn from the flow's own RNG stream for Poisson/on-off).
        let next = self.time + flow.next_gap();
        if next <= self.end {
            self.queue.schedule(next, Event::PacketGen(i));
        }
        self.m.data_sent += 1;
        let actions = self.call_routing(src, |r, ctx, out| r.on_app_packet(ctx, packet, out));
        self.apply_actions(src, actions);
    }

    // ------------------------------------------------------------------
    // Routing plumbing.

    fn call_routing(
        &mut self,
        u: NodeId,
        f: impl FnOnce(&mut RoutingAgent, &mut RoutingCtx<'_>, &mut Vec<Action>),
    ) -> Vec<Action> {
        // Agents push into a pooled buffer (returned by apply_actions):
        // no per-event Vec<Action> allocation in steady state.
        let mut out = self.action_pool.pop().unwrap_or_default();
        debug_assert!(out.is_empty());
        let Simulator {
            nodes,
            channel,
            pm_modes,
            rng,
            card_table,
            card_idx,
            mac_timing,
            time,
            active_neighbors,
            ..
        } = self;
        let mut ctx = RoutingCtx {
            node: u,
            now: *time,
            channel,
            pm_modes,
            card: card_table[card_idx[u] as usize].card(),
            bandwidth_bps: mac_timing.bandwidth_bps,
            rng,
            active_neighbors: Some(active_neighbors),
        };
        f(&mut nodes[u].routing, &mut ctx, &mut out);
        out
    }

    /// Rebuilds every node's active-neighbour count from scratch (after
    /// a mobility rebuild changed the neighbour sets).
    fn recompute_active_neighbors(&mut self) {
        let Simulator { channel, pm_modes, active_neighbors, .. } = self;
        for (u, count) in active_neighbors.iter_mut().enumerate() {
            *count =
                channel.neighbors(u).iter().filter(|&&w| pm_modes[w] == PmMode::ActiveMode).count()
                    as u32;
        }
    }

    /// Flips a node's power-management mode, keeping the neighbours'
    /// backbone counts in sync.
    fn set_pm_mode(&mut self, i: NodeId, mode: PmMode) {
        if self.pm_modes[i] == mode {
            return;
        }
        self.pm_modes[i] = mode;
        let Simulator { channel, active_neighbors, .. } = self;
        for &w in channel.neighbors(i) {
            if mode == PmMode::ActiveMode {
                active_neighbors[w] += 1;
            } else {
                active_neighbors[w] -= 1;
            }
        }
    }

    /// The radio card node `u` carries, with its maximum powers (via the
    /// deduplicated table).
    #[inline]
    fn card(&self, u: NodeId) -> &CardPowers {
        &self.card_table[self.card_idx[u] as usize]
    }

    fn apply_actions(&mut self, u: NodeId, mut actions: Vec<Action>) {
        for a in actions.drain(..) {
            match a {
                Action::Send(frame) => self.enqueue_frame(u, frame),
                Action::SendAt(frame, at) => {
                    self.queue.schedule(at.max(self.time), Event::EnqueueAt(u, Box::new(frame)));
                }
                Action::Deliver(packet) => {
                    if let PacketKind::Data { flow, .. } = packet.kind {
                        self.m.data_delivered += 1;
                        self.m.delivered_bits += (packet.size_bytes * 8) as f64;
                        // The delivered packet is owned: move its route
                        // into the measurement instead of cloning it.
                        self.m.routes[flow] = Some(packet.route);
                    }
                }
                Action::Drop(packet, reason) => self.count_drop(&packet, reason),
                Action::Timer(kind, at) => {
                    self.queue.schedule(at.max(self.time), Event::RoutingTimer(u, kind));
                }
            }
        }
        self.action_pool.push(actions);
    }

    fn count_drop(&mut self, packet: &Packet, reason: DropReason) {
        if !packet.kind.is_data() {
            return;
        }
        match reason {
            DropReason::NoRoute => self.m.drops_no_route += 1,
            DropReason::LinkFailure => self.m.drops_link_failure += 1,
            DropReason::BufferOverflow => self.m.drops_buffer += 1,
        }
    }

    fn enqueue_frame(&mut self, u: NodeId, mut frame: Frame) {
        if frame.packet.uid == 0 {
            frame.packet.uid = self.next_uid;
            self.next_uid += 1;
        }
        let is_data = frame.packet.kind.is_data();
        if !self.nodes[u].mac.enqueue(frame, &mut self.mac_pool) {
            if is_data {
                self.m.drops_ifq += 1;
            }
            return;
        }
        self.schedule_mac_tick(u, self.time);
    }

    fn schedule_mac_tick(&mut self, u: NodeId, at: SimTime) {
        if self.nodes[u].mac.tick_pending || self.nodes[u].mac.busy {
            return;
        }
        self.nodes[u].mac.tick_pending = true;
        self.queue.schedule(at.max(self.time), Event::MacTick(u));
    }

    // ------------------------------------------------------------------
    // MAC.

    fn in_atim(&self, now: SimTime) -> bool {
        now >= self.last_beacon && now < self.last_beacon + self.psm.atim_window
    }

    fn is_awake(&self, v: NodeId, now: SimTime) -> bool {
        self.pm[v].is_awake(now, self.in_atim(now))
    }

    fn on_mac_tick(&mut self, u: NodeId) {
        self.nodes[u].mac.tick_pending = false;
        if !self.alive[u] || self.nodes[u].mac.busy || self.nodes[u].mac.queue_is_empty() {
            return;
        }
        let now = self.time;
        // A sleeping PSM sender waits for the beacon to announce.
        if !self.is_awake(u, now) {
            return;
        }
        // Find an eligible head frame, rotating past frames whose
        // destinations are asleep.
        let qlen = self.nodes[u].mac.queue_len();
        let mut eligible = false;
        for _ in 0..qlen {
            let head = self.nodes[u].mac.head().expect("non-empty");
            let ok = match head.rx {
                // A dead receiver is "eligible" so the attempt proceeds to
                // an unanswered RTS and surfaces as a link failure.
                Some(v) => !self.alive[v] || self.is_awake(v, now),
                None => {
                    // Broadcast: every living PSM neighbour must be up
                    // (they are, right after an announced beacon).
                    self.channel.neighbors(u).iter().all(|&w| {
                        !self.alive[w]
                            || self.pm_modes[w] == PmMode::ActiveMode
                            || self.is_awake(w, now)
                    })
                }
            };
            if ok {
                eligible = true;
                break;
            }
            self.nodes[u].mac.rotate_head();
        }
        if !eligible {
            return; // the next beacon's announcements will unblock us
        }

        // Carrier sense (subject to the slot-time detection delay), with
        // the busy-until horizon from the same pass over the live set.
        if let Some(until) = self.channel.sense_busy_until(u, now) {
            let stage = self.nodes[u].mac.retries;
            let delay = self.mac_timing.difs + self.mac_timing.backoff(&mut self.rng, stage);
            self.schedule_mac_tick(u, until + delay);
            return;
        }

        // Only the head's addressing is needed to pick a branch; the
        // frame itself stays queued (no clone) until a transaction pops it.
        let head_rx = self.nodes[u].mac.head().expect("non-empty").rx;
        match head_rx {
            Some(v) => {
                if !self.channel.in_range(u, v) {
                    // Stale route onto a non-link: treat as immediate failure.
                    let frame = self.nodes[u].mac.drop_head(&mut self.mac_pool).expect("head");
                    self.m.link_failures += 1;
                    let actions =
                        self.call_routing(u, |r, ctx, out| r.on_link_failure(ctx, frame, out));
                    self.apply_actions(u, actions);
                    self.schedule_mac_tick(u, now);
                    return;
                }
                if self.channel.covered(v) || !self.alive[v] || self.nodes[v].mac.busy {
                    // Hidden sender is jamming the receiver, the receiver
                    // is dead, or it is mid-transmission itself: the RTS
                    // will go unanswered.
                    self.m.rts_collisions += 1;
                    let (rts, cts) = (self.airtimes.rts(), self.airtimes.cts());
                    let fail_end = now + self.mac_timing.difs + rts + self.mac_timing.sifs + cts;
                    self.channel.begin_tx(u, None, now, fail_end);
                    self.nodes[u].mac.busy = true;
                    let plan =
                        self.airtimes.unicast_plan(&self.mac_timing, self.mac_timing.airtime(0));
                    let txn = Txn { kind: TxnKind::RtsFail, start: now, plan, data_power_mw: 0.0 };
                    self.begin_txn(u, txn);
                    self.queue.schedule(fail_end, Event::TxnEnd(u));
                    return;
                }
                // Clean unicast transaction.
                let frame = self.nodes[u].mac.pop_head(&mut self.mac_pool).expect("head");
                let bytes = frame.packet.wire_bytes();
                let plan =
                    self.airtimes.unicast_plan(&self.mac_timing, self.mac_timing.airtime(bytes));
                let dist = self.channel.distance(u, v);
                let data_power_mw = if frame.packet.kind.is_data() {
                    self.card(u).data_tx_power_mw(dist, self.power_control)
                } else {
                    self.card(u).max_tx_total_mw()
                };
                let end = now + plan.end;
                self.channel.begin_tx(u, Some(v), now, end);
                self.nodes[u].mac.busy = true;
                self.nodes[v].mac.busy = true;
                let kind = TxnKind::Unicast { rx: v, frame };
                self.begin_txn(u, Txn { kind, start: now, plan, data_power_mw });
                self.queue.schedule(end, Event::TxnEnd(u));
            }
            None => {
                let frame = self.nodes[u].mac.pop_head(&mut self.mac_pool).expect("head");
                // The plan's DATA segment is the broadcast's airtime.
                let air = self.mac_timing.airtime(frame.packet.wire_bytes());
                let end = now + (self.mac_timing.difs + air);
                // Lock in the audience: awake, not otherwise engaged. The
                // buffer is recycled across broadcasts via receiver_pool.
                let mut receivers = self.receiver_pool.pop().unwrap_or_default();
                receivers.extend(self.channel.neighbors(u).iter().copied().filter(|&r| {
                    self.alive[r] && self.is_awake(r, now) && !self.nodes[r].mac.busy
                }));
                self.channel.begin_tx(u, None, now, end);
                self.nodes[u].mac.busy = true;
                for &r in &receivers {
                    self.nodes[r].mac.busy = true;
                }
                let txn = Txn {
                    kind: TxnKind::Broadcast { receivers, frame },
                    start: now,
                    plan: self.airtimes.unicast_plan(&self.mac_timing, air),
                    data_power_mw: self.card(u).max_tx_total_mw(),
                };
                self.begin_txn(u, txn);
                self.queue.schedule(end, Event::TxnEnd(u));
            }
        }
    }

    /// Makes `txn` node `u`'s transaction in flight, in a box from
    /// `txn_pool` when one is free.
    fn begin_txn(&mut self, u: NodeId, txn: Txn) {
        let boxed = match self.txn_pool.pop() {
            Some(mut spare) => {
                *spare = txn;
                spare
            }
            None => Box::new(txn),
        };
        self.nodes[u].txn = Some(boxed);
    }

    fn on_txn_end(&mut self, u: NodeId) {
        let mut txn = self.nodes[u].txn.take().expect("transaction in flight");
        let now = self.time;
        self.channel.end_tx(u, now);
        self.nodes[u].mac.busy = false;
        // Move the kind (and with it the frame) out instead of cloning it,
        // leaving the payload-free `RtsFail` in the box as it goes back
        // to the pool.
        let kind = std::mem::replace(&mut txn.kind, TxnKind::RtsFail);
        let (start, plan, data_power_mw) = (txn.start, txn.plan, txn.data_power_mw);
        self.txn_pool.push(txn);
        match kind {
            TxnKind::RtsFail => {
                self.charge_rts_fail(u, start);
                self.nodes[u].mac.retries += 1;
                if self.nodes[u].mac.retries > self.mac_timing.retry_limit {
                    let frame =
                        self.nodes[u].mac.drop_head(&mut self.mac_pool).expect("head still queued");
                    self.m.link_failures += 1;
                    let actions =
                        self.call_routing(u, |r, ctx, out| r.on_link_failure(ctx, frame, out));
                    self.apply_actions(u, actions);
                    self.schedule_mac_tick(u, now);
                } else {
                    let stage = self.nodes[u].mac.retries;
                    let delay =
                        self.mac_timing.difs + self.mac_timing.backoff(&mut self.rng, stage);
                    self.schedule_mac_tick(u, now + delay);
                }
            }
            TxnKind::Unicast { rx: v, frame } => {
                // Slotted collision: another sender inside the vulnerable
                // window may have started over our RTS. The exchange dies
                // at the handshake; retry with backoff.
                let (rts_air, _, _, _) = plan.segments;
                let rts_start = start + plan.rts_start;
                let rts_end = rts_start + rts_air;
                if self.channel.reception_corrupted(v, u, rts_start, rts_end) {
                    self.charge_rts_fail(u, start);
                    self.nodes[v].mac.busy = false;
                    self.m.rts_collisions += 1;
                    self.nodes[u].mac.push_front(frame, &mut self.mac_pool);
                    self.nodes[u].mac.retries += 1;
                    if self.nodes[u].mac.retries > self.mac_timing.retry_limit {
                        let frame = self.nodes[u].mac.drop_head(&mut self.mac_pool).expect("head");
                        self.m.link_failures += 1;
                        let actions =
                            self.call_routing(u, |r, ctx, out| r.on_link_failure(ctx, frame, out));
                        self.apply_actions(u, actions);
                        self.schedule_mac_tick(u, now);
                    } else {
                        let stage = self.nodes[u].mac.retries;
                        let delay =
                            self.mac_timing.difs + self.mac_timing.backoff(&mut self.rng, stage);
                        self.schedule_mac_tick(u, now + delay);
                    }
                    self.schedule_mac_tick(v, now);
                    return;
                }
                self.charge_unicast(u, v, start, &plan, &frame, data_power_mw);
                self.nodes[v].mac.busy = false;
                self.count_tx(u, &frame);
                self.pm_hooks(u, v, &frame);
                if self.psm.span_improved && self.pm[v].announced_incoming > 0 {
                    self.pm[v].announced_incoming -= 1;
                }
                let actions = self.call_routing(v, |r, ctx, out| r.on_frame(ctx, frame, out));
                self.apply_actions(v, actions);
                self.schedule_mac_tick(u, now);
                self.schedule_mac_tick(v, now);
                self.try_sleep_soon(u);
                self.try_sleep_soon(v);
            }
            TxnKind::Broadcast { mut receivers, frame } => {
                self.charge_broadcast(u, &receivers, start, plan.segments.2, &frame);
                self.count_tx(u, &frame);
                for &r in &receivers {
                    self.nodes[r].mac.busy = false;
                    // Baseline IEEE PSM: a broadcast keeps its PSM
                    // receivers awake for the rest of the beacon interval
                    // ("these updates keep nodes awake for an entire
                    // beacon interval", §5.2.1). The Span improvement
                    // (advertised traffic window) lets them sleep again
                    // once the advertised frame has been received.
                    if !self.psm.span_improved && self.pm[r].mode == PmMode::PowerSave {
                        let until = self.last_beacon + self.psm.beacon_interval;
                        if self.pm[r].awake_until < until {
                            self.pm[r].awake_until = until;
                        }
                    }
                }
                // All receivers share the same collision interval: scan
                // the log once, then test each receiver against the
                // (typically tiny) overlapping-sender set.
                let mut interferers = std::mem::take(&mut self.rc_scratch);
                self.channel.interferers_into(u, start, now, &receivers, &mut interferers);
                for &r in &receivers {
                    if self.channel.any_interferer_covers(&interferers, r) {
                        self.m.broadcast_collisions += 1;
                        continue;
                    }
                    // Every receiver reads the same frame; agents copy
                    // packet payloads only if they forward or reply.
                    let actions =
                        self.call_routing(r, |rt, ctx, out| rt.on_broadcast(ctx, &frame, out));
                    self.apply_actions(r, actions);
                }
                self.rc_scratch = interferers;
                // One batched wake-up for the sender and its audience:
                // the individual ticks would have held consecutive seqs.
                let mut batch = self.tick_batch_pool.pop().unwrap_or_default();
                self.push_tick_now(&mut batch, u);
                for &r in &receivers {
                    self.push_tick_now(&mut batch, r);
                }
                self.commit_ticks_now(batch);
                for &r in &receivers {
                    self.try_sleep_soon(r);
                }
                self.try_sleep_soon(u);
                receivers.clear();
                self.receiver_pool.push(receivers);
            }
        }
    }

    fn count_tx(&mut self, u: NodeId, frame: &Frame) {
        match frame.packet.kind {
            PacketKind::Rreq { .. } => self.m.rreq_tx += 1,
            PacketKind::Rrep { .. } => self.m.rrep_tx += 1,
            PacketKind::Rerr { .. } => self.m.rerr_tx += 1,
            PacketKind::DsdvUpdate { .. } => self.m.dsdv_update_tx += 1,
            PacketKind::Data { .. } => {
                if frame.packet.src != u {
                    self.forwarded[u] = true;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Energy charging (exact segment boundaries, applied at txn end).

    fn ensure_idle(&mut self, i: NodeId, at: SimTime) {
        if self.meters[i].state() == RadioState::Sleep {
            self.meters[i].set_idle(at);
        }
    }

    fn charge_unicast(
        &mut self,
        u: NodeId,
        v: NodeId,
        start: SimTime,
        plan: &UnicastPlan,
        frame: &Frame,
        data_power_mw: f64,
    ) {
        let (rts_at, cts_at, data_at, ack_at, end_at) = plan_at(plan, start);
        // Control frames go out at each participant's own maximum (Eq 2):
        // the RTS at the sender's, the CTS/ACK at the receiver's.
        let pu = self.card(u).max_tx_total_mw();
        let pv = self.card(v).max_tx_total_mw();
        let class =
            if frame.packet.kind.is_data() { TrafficClass::Data } else { TrafficClass::Control };
        self.ensure_idle(u, start);
        self.ensure_idle(v, start);
        let mu = &mut self.meters[u];
        mu.begin_tx(rts_at, pu, TrafficClass::Control);
        mu.begin_rx(cts_at, TrafficClass::Control);
        mu.begin_tx(data_at, data_power_mw, class);
        mu.begin_rx(ack_at, TrafficClass::Control);
        mu.set_idle(end_at);
        let mv = &mut self.meters[v];
        mv.begin_rx(rts_at, TrafficClass::Control);
        mv.begin_tx(cts_at, pv, TrafficClass::Control);
        mv.begin_rx(data_at, class);
        mv.begin_tx(ack_at, pv, TrafficClass::Control);
        mv.set_idle(end_at);
    }

    /// Charges a broadcast whose frame was on the air for `air` (DIFS
    /// excluded).
    fn charge_broadcast(
        &mut self,
        u: NodeId,
        receivers: &[NodeId],
        txn_start: SimTime,
        air: SimDuration,
        frame: &Frame,
    ) {
        let start = txn_start + self.mac_timing.difs;
        let end = txn_start + (self.mac_timing.difs + air);
        let class =
            if frame.packet.kind.is_data() { TrafficClass::Data } else { TrafficClass::Control };
        self.ensure_idle(u, txn_start);
        let pmax = self.card(u).max_tx_total_mw();
        let mu = &mut self.meters[u];
        mu.begin_tx(start, pmax, class);
        mu.set_idle(end);
        for &r in receivers {
            self.ensure_idle(r, txn_start);
            let mr = &mut self.meters[r];
            mr.begin_rx(start, class);
            mr.set_idle(end);
        }
    }

    fn charge_rts_fail(&mut self, u: NodeId, txn_start: SimTime) {
        let rts_start = txn_start + self.mac_timing.difs;
        let rts_end = rts_start + self.airtimes.rts();
        self.ensure_idle(u, txn_start);
        let pmax = self.card(u).max_tx_total_mw();
        let mu = &mut self.meters[u];
        mu.begin_tx(rts_start, pmax, TrafficClass::Control);
        mu.set_idle(rts_end);
    }

    // ------------------------------------------------------------------
    // Power management.

    fn pm_hooks(&mut self, u: NodeId, v: NodeId, frame: &Frame) {
        let PowerPolicy::Odpm { data_keepalive, rrep_keepalive } = self.policy else {
            return;
        };
        match frame.packet.kind {
            PacketKind::Data { .. } => {
                self.pm_promote(u, data_keepalive);
                self.pm_promote(v, data_keepalive);
            }
            PacketKind::Rrep { .. } => {
                self.pm_promote(u, rrep_keepalive);
                self.pm_promote(v, rrep_keepalive);
            }
            _ => {}
        }
    }

    fn pm_promote(&mut self, i: NodeId, keepalive: SimDuration) {
        if !self.alive[i] {
            return;
        }
        let deadline = self.time + keepalive;
        let was = self.pm[i].mode;
        self.pm[i].mode = PmMode::ActiveMode;
        self.set_pm_mode(i, PmMode::ActiveMode);
        if self.pm[i].keepalive.refresh(deadline) {
            self.queue.schedule(deadline, Event::PmKeepalive(i));
        }
        if was == PmMode::PowerSave {
            self.ensure_idle(i, self.time);
            let actions =
                self.call_routing(i, |r, ctx, out| r.on_pm_changed(ctx, PmMode::ActiveMode, out));
            self.apply_actions(i, actions);
        }
    }

    fn on_pm_keepalive(&mut self, i: NodeId) {
        if !self.alive[i] {
            return;
        }
        match self.pm[i].keepalive.on_fire(self.time) {
            TimerFire::Expired => {
                self.pm[i].mode = PmMode::PowerSave;
                self.set_pm_mode(i, PmMode::PowerSave);
                let actions = self
                    .call_routing(i, |r, ctx, out| r.on_pm_changed(ctx, PmMode::PowerSave, out));
                self.apply_actions(i, actions);
                self.try_sleep(i);
            }
            TimerFire::Rearm(at) => self.queue.schedule(at, Event::PmKeepalive(i)),
            TimerFire::Void => {}
        }
    }

    fn try_sleep_soon(&mut self, i: NodeId) {
        if self.pm[i].mode == PmMode::PowerSave {
            self.try_sleep(i);
        }
    }

    fn try_sleep(&mut self, i: NodeId) {
        let now = self.time;
        if self.pm[i].mode != PmMode::PowerSave
            || self.nodes[i].mac.busy
            || self.in_atim(now)
            || now < self.pm[i].awake_until
            || self.pm[i].announced_incoming > 0
            || !self.nodes[i].mac.queue_is_empty()
        {
            return;
        }
        if self.meters[i].state() != RadioState::Sleep {
            self.meters[i].set_sleep(now);
        }
    }

    // ------------------------------------------------------------------
    // PSM beacons.

    fn on_beacon(&mut self) {
        let tb = self.time;
        self.last_beacon = tb;
        let n = self.nodes.len();
        // Everyone alive in PSM wakes for the ATIM window.
        for i in 0..n {
            if self.alive[i] && self.pm[i].mode == PmMode::PowerSave && !self.nodes[i].mac.busy {
                self.ensure_idle(i, tb);
            }
            self.atim_cursor[i] = tb;
        }
        // Announcements: scan queues and wake destinations. The head
        // snapshot buffer is owned by the simulator and reused across
        // beacons, so the scan allocates nothing in steady state.
        let atim_air = self.airtimes.atim();
        let bi = self.psm.beacon_interval;
        let mut heads = std::mem::take(&mut self.beacon_heads);
        for u in 0..n {
            if self.nodes[u].mac.queue_is_empty() {
                continue;
            }
            heads.clear();
            heads.extend(self.nodes[u].mac.queued().map(|f| (f.rx, f.packet.kind.is_data())));
            let mut announced_any = false;
            for &(rx, _is_data) in &heads {
                match rx {
                    Some(v) if self.alive[v] && self.pm[v].mode == PmMode::PowerSave => {
                        let start = self.atim_cursor[u].max(self.atim_cursor[v]);
                        let end = start + atim_air;
                        // Charge the exchange only when neither party is
                        // mid-transaction (a busy node's meter is owned by
                        // the transaction until it completes) and the
                        // exchange fits before the simulation horizon.
                        if end <= tb + self.psm.atim_window
                            && end <= self.end
                            && !self.nodes[u].mac.busy
                            && !self.nodes[v].mac.busy
                        {
                            self.m.atim_tx += 1;
                            self.ensure_idle(u, start);
                            self.ensure_idle(v, start);
                            let pmax = self.card(u).max_tx_total_mw();
                            self.meters[u].begin_tx(start, pmax, TrafficClass::Control);
                            self.meters[u].set_idle(end);
                            self.meters[v].begin_rx(start, TrafficClass::Control);
                            self.meters[v].set_idle(end);
                            self.atim_cursor[u] = end;
                            self.atim_cursor[v] = end;
                        }
                        // Receiver stays up for the data phase.
                        let until = tb + bi;
                        if self.pm[v].awake_until < until {
                            self.pm[v].awake_until = until;
                        }
                        if self.psm.span_improved {
                            self.pm[v].announced_incoming =
                                self.pm[v].announced_incoming.saturating_add(1);
                        }
                        announced_any = true;
                    }
                    Some(_) => {}
                    None => {
                        // Broadcast: wake the PSM neighbourhood. Baseline
                        // PSM keeps them up a full interval; Span lets
                        // them doze after the advertised window. Split
                        // borrows walk the neighbour slice directly —
                        // no copy of the (possibly large) list.
                        let until = if self.psm.span_improved {
                            tb + self.psm.atim_window + self.psm.span_window
                        } else {
                            tb + bi
                        };
                        let Simulator { channel, pm, alive, .. } = &mut *self;
                        for &w in channel.neighbors(u) {
                            if !alive[w] || pm[w].mode != PmMode::PowerSave {
                                continue;
                            }
                            if pm[w].awake_until < until {
                                pm[w].awake_until = until;
                            }
                        }
                        self.m.atim_tx += 1;
                        announced_any = true;
                    }
                }
            }
            // A PSM sender with announced traffic stays awake to send it.
            if announced_any && self.pm[u].mode == PmMode::PowerSave {
                let until = tb + bi;
                if self.pm[u].awake_until < until {
                    self.pm[u].awake_until = until;
                }
            }
        }
        self.beacon_heads = heads;
        self.queue.schedule(tb + self.psm.atim_window, Event::AtimEnd);
        self.queue.schedule(tb + bi, Event::Beacon);
    }

    fn on_atim_end(&mut self) {
        let now = self.time;
        let n = self.nodes.len();
        for i in 0..n {
            if self.pm[i].mode != PmMode::PowerSave {
                continue;
            }
            if now < self.pm[i].awake_until {
                self.queue.schedule(self.pm[i].awake_until, Event::SleepCheck(i));
            } else {
                self.try_sleep(i);
            }
        }
        // Data phase: wake the queues in one batched event.
        let mut batch = self.tick_batch_pool.pop().unwrap_or_default();
        for i in 0..n {
            if !self.nodes[i].mac.queue_is_empty() {
                self.push_tick_now(&mut batch, i);
            }
        }
        self.commit_ticks_now(batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{stacks, Scenario};
    use crate::topology::Placement;
    use crate::traffic::FlowSpec;

    /// A 3-node line with one flow across it, DSR all-active.
    fn line_scenario(stack: crate::scenario::ProtocolStack, secs: u64) -> Scenario {
        Scenario::new(
            Placement::Explicit(vec![(0.0, 0.0), (200.0, 0.0), (400.0, 0.0)]),
            eend_radio::cards::cabletron(),
            stack,
            FlowSpec {
                count: 1,
                rate_bps: 2000.0,
                packet_bytes: 128,
                start_window: (1.0, 1.0),
                pairs: Some(vec![(0, 2)]),
                model: crate::traffic::TrafficModel::Cbr,
            },
            SimDuration::from_secs(secs),
            42,
        )
    }

    #[test]
    fn dsr_active_delivers_on_line() {
        let m = Simulator::new(&line_scenario(stacks::dsr_active(), 30)).run();
        assert!(m.data_sent > 50, "CBR must generate: {}", m.data_sent);
        assert!(
            m.delivery_ratio() > 0.95,
            "line delivery should be near-perfect: {} ({}/{})",
            m.delivery_ratio(),
            m.data_delivered,
            m.data_sent
        );
        assert_eq!(m.routes[0].as_deref(), Some(&[0, 1, 2][..]), "route via the relay");
        assert_eq!(m.data_forwarders, 1, "exactly the middle node forwards");
        assert!(m.rreq_tx >= 1 && m.rrep_tx >= 1, "discovery happened");
        assert!(m.energy_total.total_mj() > 0.0);
    }

    #[test]
    fn same_seed_same_everything() {
        let s = line_scenario(stacks::dsr_odpm_pc(), 20);
        let a = Simulator::new(&s).run();
        let b = Simulator::new(&s).run();
        assert_eq!(a.data_sent, b.data_sent);
        assert_eq!(a.data_delivered, b.data_delivered);
        assert_eq!(a.rreq_tx, b.rreq_tx);
        assert!((a.energy_total.total_mj() - b.energy_total.total_mj()).abs() < 1e-9);
    }

    #[test]
    fn odpm_sleeps_and_saves_energy_vs_active() {
        let active = Simulator::new(&line_scenario(stacks::dsr_active(), 60)).run();
        let odpm = Simulator::new(&line_scenario(stacks::dsr_odpm(), 60)).run();
        assert!(odpm.delivery_ratio() > 0.9, "ODPM delivery: {}", odpm.delivery_ratio());
        // All three nodes are on the path, so they stay AM via keepalives —
        // but before flow start they sleep, and DSR-Active never does.
        assert!(odpm.energy_total.time_sleep > SimDuration::ZERO);
        assert_eq!(active.energy_total.time_sleep, SimDuration::ZERO);
        assert!(
            odpm.energy_total.total_mj() < active.energy_total.total_mj(),
            "ODPM must not cost more than always-active"
        );
    }

    #[test]
    fn power_control_cuts_transmit_energy() {
        let no_pc = Simulator::new(&line_scenario(stacks::dsr_odpm(), 30)).run();
        let pc = Simulator::new(&line_scenario(stacks::dsr_odpm_pc(), 30)).run();
        assert!(pc.delivery_ratio() > 0.9);
        assert!(
            pc.energy_total.tx_data_mj < no_pc.energy_total.tx_data_mj,
            "TPC at 200 m hops must beat max-power data frames: {} vs {}",
            pc.energy_total.tx_data_mj,
            no_pc.energy_total.tx_data_mj
        );
    }

    #[test]
    fn titan_runs_and_delivers() {
        let m = Simulator::new(&line_scenario(stacks::titan_pc(), 30)).run();
        assert!(m.delivery_ratio() > 0.9, "TITAN delivery: {}", m.delivery_ratio());
    }

    #[test]
    fn dsdvh_converges_and_delivers() {
        let m = Simulator::new(&line_scenario(stacks::dsdvh_odpm(), 60)).run();
        assert!(m.dsdv_update_tx > 0, "updates must flow");
        assert!(
            m.delivery_ratio() > 0.8,
            "DSDVH delivery after convergence: {} ({}/{} sent, {} updates)",
            m.delivery_ratio(),
            m.data_delivered,
            m.data_sent,
            m.dsdv_update_tx
        );
    }

    #[test]
    fn mtpr_picks_short_hops_on_line() {
        // MTPR minimises radiated power: two 200 m hops ≪ one 400 m hop
        // (which is out of range anyway); with a mid relay available the
        // route must use it.
        let m = Simulator::new(&line_scenario(stacks::mtpr(false), 30)).run();
        assert!(m.delivery_ratio() > 0.9);
        assert_eq!(m.routes[0].as_deref(), Some(&[0, 1, 2][..]));
    }

    #[test]
    fn energy_residency_accounts_full_horizon() {
        let m = Simulator::new(&line_scenario(stacks::dsr_active(), 10)).run();
        for (i, r) in m.per_node_energy.iter().enumerate() {
            let residency = r.time_tx + r.time_rx + r.time_idle + r.time_sleep;
            let total = SimDuration::from_secs(10);
            assert_eq!(residency, total, "node {i} residency");
        }
    }

    #[test]
    fn unreachable_destination_drops_everything() {
        let s = Scenario::new(
            Placement::Explicit(vec![(0.0, 0.0), (1000.0, 0.0)]),
            eend_radio::cards::cabletron(),
            stacks::dsr_active(),
            FlowSpec {
                count: 1,
                rate_bps: 2000.0,
                packet_bytes: 128,
                start_window: (1.0, 1.0),
                pairs: Some(vec![(0, 1)]),
                model: crate::traffic::TrafficModel::Cbr,
            },
            SimDuration::from_secs(20),
            7,
        );
        let m = Simulator::new(&s).run();
        assert_eq!(m.data_delivered, 0);
        assert!(m.drops_no_route > 0, "discovery must give up");
        assert_eq!(m.delivery_ratio(), 0.0);
    }
}

#[cfg(test)]
mod failure_tests {
    use super::*;
    use crate::scenario::{stacks, Scenario};
    use crate::topology::Placement;
    use crate::traffic::FlowSpec;

    /// Diamond: 0 can reach 3 via relay 1 (top) or relay 2 (bottom).
    fn diamond_scenario() -> Scenario {
        Scenario::new(
            Placement::Explicit(vec![
                (0.0, 0.0),      // 0 source
                (150.0, 100.0),  // 1 top relay
                (150.0, -100.0), // 2 bottom relay
                (300.0, 0.0),    // 3 sink
            ]),
            eend_radio::cards::cabletron(),
            stacks::dsr_active(),
            FlowSpec {
                count: 1,
                rate_bps: 4000.0,
                packet_bytes: 128,
                start_window: (1.0, 1.0),
                pairs: Some(vec![(0, 3)]),
                model: crate::traffic::TrafficModel::Cbr,
            },
            SimDuration::from_secs(60),
            5,
        )
    }

    #[test]
    fn route_heals_around_dead_relay() {
        // Kill whichever relay the stable route uses at t = 30 s; DSR must
        // re-discover through the other relay and keep delivering.
        let base = Simulator::new(&diamond_scenario()).run();
        let relay = base.routes[0].as_ref().expect("route exists")[1];
        assert!(relay == 1 || relay == 2);
        let other = 3 - relay; // 1 ↔ 2

        let s = diamond_scenario().with_node_failure(SimTime::from_secs(30), relay);
        let m = Simulator::new(&s).run();
        assert!(m.link_failures > 0, "the dead relay must surface as link failures");
        let healed = m.routes[0].as_ref().expect("route after failure");
        assert_eq!(healed[1], other, "traffic must re-route via the surviving relay");
        assert!(
            m.delivery_ratio() > 0.9,
            "losses limited to the healing window: {}",
            m.delivery_ratio()
        );
        // The corpse consumes (almost) nothing after death: it sleeps.
        let dead = &m.per_node_energy[relay];
        assert!(dead.time_sleep.as_secs_f64() > 25.0, "dead node must be dark");
    }

    #[test]
    fn dead_destination_drops_all_traffic_after_failure() {
        let s = diamond_scenario().with_node_failure(SimTime::from_secs(30), 3);
        let m = Simulator::new(&s).run();
        assert!(m.delivery_ratio() < 0.8, "second half must be lost");
        assert!(m.delivery_ratio() > 0.2, "first half was delivered");
    }
}

#[cfg(test)]
mod hetero_tests {
    use super::*;
    use crate::scenario::{stacks, CardAssignment, Scenario};
    use crate::topology::Placement;
    use crate::traffic::{FlowSpec, TrafficModel};

    fn base_scenario(secs: u64) -> Scenario {
        Scenario::new(
            Placement::Explicit(vec![(0.0, 0.0), (200.0, 0.0), (400.0, 0.0)]),
            eend_radio::cards::cabletron(),
            stacks::dsr_odpm_pc(),
            FlowSpec {
                count: 1,
                rate_bps: 4000.0,
                packet_bytes: 128,
                start_window: (1.0, 1.0),
                pairs: Some(vec![(0, 2)]),
                model: TrafficModel::Cbr,
            },
            SimDuration::from_secs(secs),
            11,
        )
    }

    #[test]
    fn uniform_assignment_is_bit_identical_to_the_default() {
        let default = Simulator::new(&base_scenario(30)).run();
        let explicit =
            Simulator::new(&base_scenario(30).with_card_assignment(CardAssignment::Uniform)).run();
        assert_eq!(default, explicit);
        // A single-card alternating list is also the uniform assignment.
        let degenerate = Simulator::new(&base_scenario(30).with_card_assignment(
            CardAssignment::Alternating(vec![eend_radio::cards::cabletron()]),
        ))
        .run();
        assert_eq!(default, degenerate);
    }

    #[test]
    fn mixed_cards_change_energy_but_not_packet_flow() {
        // Hypothetical Cabletron is range-identical to Cabletron but
        // burns more amplifier power: a mixed field must deliver the
        // same packets while charging more energy on the hungry nodes.
        let homo = Simulator::new(&base_scenario(60)).run();
        let mixed =
            Simulator::new(&base_scenario(60).with_card_assignment(CardAssignment::Alternating(
                vec![eend_radio::cards::cabletron(), eend_radio::cards::hypothetical_cabletron()],
            )))
            .run();
        assert_eq!(mixed.data_sent, homo.data_sent);
        assert_eq!(mixed.data_delivered, homo.data_delivered);
        assert_eq!(mixed.routes, homo.routes);
        // Node 1 (the relay) carries the hypothetical card in the mixed
        // run; its transmit-side energy must exceed the homogeneous run's.
        assert!(
            mixed.per_node_energy[1].tx_data_mj > homo.per_node_energy[1].tx_data_mj,
            "hypothetical relay must radiate more: {} vs {}",
            mixed.per_node_energy[1].tx_data_mj,
            homo.per_node_energy[1].tx_data_mj
        );
        // Node 0 kept the Cabletron; its idle/rx profile is unchanged.
        assert_eq!(mixed.per_node_energy[0].idle_mj, homo.per_node_energy[0].idle_mj);
    }

    #[test]
    fn mixed_cards_are_deterministic() {
        let s = base_scenario(30).with_card_assignment(CardAssignment::Alternating(vec![
            eend_radio::cards::cabletron(),
            eend_radio::cards::hypothetical_cabletron(),
        ]));
        assert_eq!(Simulator::new(&s).run(), Simulator::new(&s).run());
    }

    #[test]
    fn poisson_and_onoff_deliver_and_replay() {
        for model in
            [TrafficModel::Poisson, TrafficModel::OnOffBurst { mean_on_s: 3.0, mean_off_s: 3.0 }]
        {
            let mut s = base_scenario(60);
            s.flows = s.flows.with_model(model.clone());
            let a = Simulator::new(&s).run();
            let b = Simulator::new(&s).run();
            assert_eq!(a, b, "{model:?} must replay identically");
            assert!(a.data_sent > 20, "{model:?} sent only {}", a.data_sent);
            assert!(a.delivery_ratio() > 0.9, "{model:?} delivery {}", a.delivery_ratio());
        }
    }

    #[test]
    fn poisson_offered_load_tracks_cbr_over_a_long_horizon() {
        let cbr = Simulator::new(&base_scenario(240)).run();
        let mut s = base_scenario(240);
        s.flows = s.flows.with_model(TrafficModel::Poisson);
        let poisson = Simulator::new(&s).run();
        let ratio = poisson.data_sent as f64 / cbr.data_sent as f64;
        assert!(
            (0.85..1.15).contains(&ratio),
            "poisson offered load off: {} vs {} packets",
            poisson.data_sent,
            cbr.data_sent
        );
    }
}

#[cfg(test)]
mod mobility_tests {
    use super::*;
    use crate::mobility::Mobility;
    use crate::scenario::{stacks, Scenario};
    use crate::topology::Placement;
    use crate::traffic::FlowSpec;

    fn mobile_scenario(speed: f64) -> Scenario {
        Scenario::new(
            Placement::UniformRandom { n: 25, width: 400.0, height: 400.0 },
            eend_radio::cards::cabletron(),
            stacks::dsr_odpm_pc(),
            FlowSpec::cbr(3, 4.0),
            SimDuration::from_secs(60),
            13,
        )
        .with_mobility(Mobility::random_waypoint(speed, speed, 2.0))
    }

    #[test]
    fn mobile_network_still_delivers() {
        // Pedestrian speed in a dense deployment: DSR's repair machinery
        // (RERR + rediscovery) must keep most packets flowing.
        let m = Simulator::new(&mobile_scenario(1.5)).run();
        assert!(m.data_sent > 0);
        assert!(
            m.delivery_ratio() > 0.7,
            "mobile delivery too low: {} ({} link failures)",
            m.delivery_ratio(),
            m.link_failures
        );
    }

    #[test]
    fn mobility_is_deterministic() {
        let a = Simulator::new(&mobile_scenario(2.0)).run();
        let b = Simulator::new(&mobile_scenario(2.0)).run();
        assert_eq!(a.data_delivered, b.data_delivered);
        assert_eq!(a.link_failures, b.link_failures);
        assert!((a.energy_total.total_mj() - b.energy_total.total_mj()).abs() < 1e-9);
    }

    #[test]
    fn faster_motion_breaks_more_links() {
        let slow = Simulator::new(&mobile_scenario(0.5)).run();
        let fast = Simulator::new(&mobile_scenario(15.0)).run();
        assert!(
            fast.link_failures + fast.drops_link_failure
                >= slow.link_failures + slow.drops_link_failure,
            "vehicular speeds must stress routing at least as much: slow {} fast {}",
            slow.link_failures + slow.drops_link_failure,
            fast.link_failures + fast.drops_link_failure
        );
    }
}
