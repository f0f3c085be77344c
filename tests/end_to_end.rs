//! Cross-crate integration: the full protocol matrix on real scenarios.

use eend::radio::EnergyReport;
use eend::sim::{SimDuration, SimTime};
use eend::wireless::{
    presets, stacks, FlowSpec, Placement, ProtocolStack, Scenario, Simulator, TrafficModel,
};

fn all_stacks() -> Vec<ProtocolStack> {
    vec![
        stacks::dsr_active(),
        stacks::dsr_odpm(),
        stacks::dsr_odpm_pc(),
        stacks::titan_pc(),
        stacks::mtpr(false),
        stacks::mtpr(true),
        stacks::mtpr_odpm(false),
        stacks::dsrh_odpm(true),
        stacks::dsrh_odpm(false),
        stacks::dsrh_active(false),
        stacks::dsr_pc_active(),
        stacks::dsdvh_odpm(),
        stacks::dsdvh_odpm_span(),
    ]
}

/// Every stack must run a reduced small-network scenario to completion
/// with sane metrics.
#[test]
fn protocol_matrix_smoke() {
    for stack in all_stacks() {
        let name = stack.name.clone();
        let mut sc = presets::small_network(stack, 4.0, 11);
        sc.duration = SimDuration::from_secs(60);
        let m = Simulator::new(&sc).run();
        assert!(m.data_sent > 0, "{name}: traffic must be generated");
        let dr = m.delivery_ratio();
        assert!((0.0..=1.0).contains(&dr), "{name}: delivery ratio {dr}");
        assert!(m.enetwork_j() > 0.0, "{name}: energy must be consumed");
        assert!(
            m.energy_goodput_bit_per_j() >= 0.0 && m.energy_goodput_bit_per_j() < 1e7,
            "{name}: goodput out of sane range"
        );
        assert_eq!(m.per_node_energy.len(), 50, "{name}: per-node reports");
    }
}

/// Bit-for-bit determinism: identical seeds give identical runs, for a
/// reactive and a proactive stack.
#[test]
fn determinism_across_protocol_families() {
    for stack in [stacks::titan_pc(), stacks::dsdvh_odpm()] {
        let name = stack.name.clone();
        let mut sc = presets::small_network(stack, 4.0, 99);
        sc.duration = SimDuration::from_secs(45);
        let a = Simulator::new(&sc).run();
        let b = Simulator::new(&sc).run();
        assert_eq!(a.data_sent, b.data_sent, "{name}");
        assert_eq!(a.data_delivered, b.data_delivered, "{name}");
        assert_eq!(a.rreq_tx, b.rreq_tx, "{name}");
        assert_eq!(a.dsdv_update_tx, b.dsdv_update_tx, "{name}");
        assert_eq!(a.routes, b.routes, "{name}");
        assert!(
            (a.energy_total.total_mj() - b.energy_total.total_mj()).abs() < 1e-9,
            "{name}: energy must replay exactly"
        );
    }
}

/// Different seeds must actually vary the trajectory.
#[test]
fn seeds_change_trajectories() {
    let mut sc = presets::small_network(stacks::dsr_odpm_pc(), 4.0, 1);
    sc.duration = SimDuration::from_secs(45);
    let a = Simulator::new(&sc).run();
    sc.seed = 2;
    let b = Simulator::new(&sc).run();
    assert!(
        a.energy_total.total_mj() != b.energy_total.total_mj()
            || a.data_delivered != b.data_delivered,
        "seed must influence the run"
    );
}

/// Energy conservation at network scale: every node accounts the whole
/// horizon across states, and the bucket sums match the totals.
#[test]
fn network_energy_conservation() {
    let mut sc = presets::small_network(stacks::titan_pc(), 6.0, 4);
    sc.duration = SimDuration::from_secs(60);
    let m = Simulator::new(&sc).run();
    let horizon = SimDuration::from_secs(60);
    let mut rebuilt = EnergyReport::default();
    for (i, r) in m.per_node_energy.iter().enumerate() {
        let residency = r.time_tx + r.time_rx + r.time_idle + r.time_sleep;
        assert_eq!(residency, horizon, "node {i} must account every nanosecond");
        let bucket_sum = r.idle_mj
            + r.sleep_mj
            + r.switch_mj
            + r.tx_data_mj
            + r.tx_ctrl_mj
            + r.rx_data_mj
            + r.rx_ctrl_mj;
        assert!((bucket_sum - r.total_mj()).abs() < 1e-9, "node {i} bucket mismatch");
        rebuilt.accumulate(r);
    }
    assert!(
        (rebuilt.total_mj() - m.energy_total.total_mj()).abs() < 1e-6,
        "network total must equal the per-node sum"
    );
}

/// A long chain forces genuinely multi-hop routing; packets must traverse
/// every relay in order.
#[test]
fn five_hop_chain_delivers_in_order() {
    let positions: Vec<(f64, f64)> = (0..6).map(|i| (i as f64 * 200.0, 0.0)).collect();
    let sc = Scenario::new(
        Placement::Explicit(positions),
        eend::radio::cards::cabletron(),
        stacks::dsr_odpm_pc(),
        FlowSpec {
            count: 1,
            rate_bps: 4000.0,
            packet_bytes: 128,
            start_window: (1.0, 1.0),
            pairs: Some(vec![(0, 5)]),
            model: TrafficModel::Cbr,
        },
        SimDuration::from_secs(60),
        3,
    );
    let m = Simulator::new(&sc).run();
    assert!(m.delivery_ratio() > 0.95, "chain delivery {}", m.delivery_ratio());
    assert_eq!(m.routes[0].as_deref(), Some(&[0, 1, 2, 3, 4, 5][..]));
    assert_eq!(m.data_forwarders, 4, "all four relays forward");
}

/// The headline qualitative claim of the whole paper, end to end: on the
/// same scenario, the idling-first stack beats always-active on energy
/// goodput without losing delivery.
#[test]
fn idling_first_beats_always_active() {
    let mut active = presets::small_network(stacks::dsr_active(), 4.0, 8);
    active.duration = SimDuration::from_secs(90);
    let mut titan = presets::small_network(stacks::titan_pc(), 4.0, 8);
    titan.duration = SimDuration::from_secs(90);
    let ma = Simulator::new(&active).run();
    let mt = Simulator::new(&titan).run();
    assert!(mt.delivery_ratio() > 0.95, "TITAN delivery {}", mt.delivery_ratio());
    assert!(
        mt.energy_goodput_bit_per_j() > 1.5 * ma.energy_goodput_bit_per_j(),
        "TITAN-PC ({:.0}) must clearly beat DSR-Active ({:.0})",
        mt.energy_goodput_bit_per_j(),
        ma.energy_goodput_bit_per_j()
    );
}

/// Node failures mid-run: DSR heals around a dead relay (root-level
/// variant over a random topology with redundancy).
#[test]
fn failure_injection_heals_routes() {
    let base = Scenario::new(
        Placement::Explicit(vec![
            (0.0, 0.0),
            (180.0, 120.0),
            (180.0, -120.0),
            (360.0, 0.0),
            (540.0, 0.0),
        ]),
        eend::radio::cards::cabletron(),
        stacks::dsr_odpm_pc(),
        FlowSpec {
            count: 1,
            rate_bps: 4000.0,
            packet_bytes: 128,
            start_window: (1.0, 1.0),
            pairs: Some(vec![(0, 4)]),
            model: TrafficModel::Cbr,
        },
        SimDuration::from_secs(80),
        21,
    );
    let before = Simulator::new(&base).run();
    assert!(before.delivery_ratio() > 0.95);
    let relay = before.routes[0].as_ref().expect("route")[1];
    let wounded = base.with_node_failure(SimTime::from_secs(40), relay);
    let m = Simulator::new(&wounded).run();
    assert!(m.link_failures > 0, "failure must surface");
    let healed = m.routes[0].as_ref().expect("healed route");
    assert_ne!(healed[1], relay, "route must avoid the corpse");
    assert!(m.delivery_ratio() > 0.85, "healed delivery {}", m.delivery_ratio());
}
