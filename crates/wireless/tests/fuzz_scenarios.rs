//! Fixed-seed fuzzing of whole simulation runs: randomised small scenarios
//! across the protocol matrix must complete without panicking and produce
//! internally consistent metrics.
//!
//! All case parameters are derived from the fixed [`CASE_SEED`] constant, so
//! every tier-1 run exercises the exact same scenarios and failures
//! reproduce verbatim.

use eend_sim::{SimDuration, SimRng, SimTime};
use eend_wireless::{
    stacks, FlowSpec, Placement, ProtocolStack, Scenario, Simulator, TrafficModel,
};

/// Fixed master seed: deterministic across runs and machines.
const CASE_SEED: u64 = 0xF0_22_5C_E7;

fn stack_for(idx: u8) -> ProtocolStack {
    match idx % 8 {
        0 => stacks::dsr_active(),
        1 => stacks::dsr_odpm(),
        2 => stacks::dsr_odpm_pc(),
        3 => stacks::titan_pc(),
        4 => stacks::mtpr(false),
        5 => stacks::dsrh_odpm(true),
        6 => stacks::dsdvh_odpm(),
        _ => stacks::dsdvh_odpm_span(),
    }
}

/// Random placements, flows, rates, protocols and failures: the run must
/// terminate with sane, conserved metrics.
#[test]
fn random_scenarios_are_sane() {
    let mut rng = SimRng::new(CASE_SEED);
    for case in 0..24 {
        let seed = rng.next_u64() % 10_000;
        let n_nodes = rng.range_usize(4, 16);
        let n_flows = rng.range_usize(1, 4);
        let rate_kbps = rng.range_f64(1.0, 20.0);
        let stack_idx = (rng.next_u64() % 8) as u8;
        let fail_node =
            if rng.next_u64().is_multiple_of(2) { Some(rng.range_usize(0, 16)) } else { None };
        let area = rng.range_f64(200.0, 900.0);

        let mut sc = Scenario::new(
            Placement::UniformRandom { n: n_nodes, width: area, height: area },
            eend_radio::cards::cabletron(),
            stack_for(stack_idx),
            FlowSpec {
                count: n_flows,
                rate_bps: rate_kbps * 1000.0,
                packet_bytes: 128,
                start_window: (1.0, 3.0),
                pairs: None,
                model: TrafficModel::Cbr,
            },
            SimDuration::from_secs(15),
            seed,
        );
        if let Some(f) = fail_node {
            sc = sc.with_node_failure(SimTime::from_secs(8), f % n_nodes);
        }
        let m = Simulator::new(&sc).run();

        // Delivery accounting.
        assert!(m.data_delivered <= m.data_sent, "case {case}");
        let dr = m.delivery_ratio();
        assert!((0.0..=1.0).contains(&dr), "case {case}");
        assert!(m.delivered_bits <= m.data_sent as f64 * 128.0 * 8.0 + 1e-6, "case {case}");

        // Energy accounting: residency covers the horizon on every node,
        // buckets sum to totals, per-node sum equals network total.
        let horizon = SimDuration::from_secs(15);
        let mut total = 0.0;
        for (i, r) in m.per_node_energy.iter().enumerate() {
            let residency = r.time_tx + r.time_rx + r.time_idle + r.time_sleep;
            assert_eq!(residency, horizon, "case {case} node {i} residency");
            assert!(r.total_mj() >= 0.0, "case {case} node {i}");
            total += r.total_mj();
        }
        assert!((total - m.energy_total.total_mj()).abs() < 1e-6, "case {case}");

        // Lifetime metrics never panic and are positive.
        let life = m.lifetime_to_first_death_s(100.0);
        assert!(life > 0.0, "case {case}");
        assert!(m.energy_imbalance() >= 1.0 - 1e-9, "case {case}");

        // Routes, when present, start at a flow source and end at its sink.
        for (i, route) in m.routes.iter().enumerate() {
            if let Some(r) = route {
                assert!(r.len() >= 2, "case {case} flow {i} route too short");
            }
        }
    }
}

/// Determinism under fuzz: any random scenario replays identically.
#[test]
fn random_scenarios_replay() {
    let mut rng = SimRng::new(CASE_SEED ^ 0x5EED);
    for case in 0..24 {
        let seed = rng.next_u64() % 1_000;
        let n_nodes = rng.range_usize(4, 12);
        let stack_idx = (rng.next_u64() % 8) as u8;
        let sc = Scenario::new(
            Placement::UniformRandom { n: n_nodes, width: 600.0, height: 600.0 },
            eend_radio::cards::cabletron(),
            stack_for(stack_idx),
            FlowSpec::cbr(2, 4.0),
            SimDuration::from_secs(10),
            seed,
        );
        let a = Simulator::new(&sc).run();
        let b = Simulator::new(&sc).run();
        assert_eq!(a.data_delivered, b.data_delivered, "case {case}");
        assert_eq!(a.rreq_tx, b.rreq_tx, "case {case}");
        assert_eq!(a.dsdv_update_tx, b.dsdv_update_tx, "case {case}");
        assert!(
            (a.energy_total.total_mj() - b.energy_total.total_mj()).abs() < 1e-9,
            "case {case}"
        );
    }
}
