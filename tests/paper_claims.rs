//! The paper's headline claims, checked across crate boundaries.

use eend::core::design::{frozen_routes, Design};
use eend::core::evaluate::{evaluate, EvalParams, SleepScheduling};
use eend::core::{analysis, casestudy, Demand, DesignProblem, WirelessInstance};
use eend::radio::cards;
use eend::sim::{SimDuration, SimRng};
use eend::wireless::{presets, stacks, Placement, Simulator};

/// Section 5.1 / Fig 7: no real card justifies relaying between two
/// in-range nodes; the tuned hypothetical card does, at R/B ≥ 0.25.
#[test]
fn fig7_claims() {
    for card in [
        cards::aironet_350(),
        cards::cabletron(),
        cards::mica2(),
        cards::leach_n4(1.0),
        cards::leach_n2(1.0),
    ] {
        for q in [0.1, 0.25, 0.4, 0.5] {
            assert!(
                !analysis::relaying_beneficial(&card, card.nominal_range_m, q),
                "{} at q={q} must not justify relays",
                card.name
            );
        }
    }
    let h = cards::hypothetical_cabletron();
    assert!(analysis::relaying_beneficial(&h, 250.0, 0.25));
    assert!(analysis::exceeds_cap(&h, analysis::FCC_MAX_RADIATED_MW));
}

/// Section 3: the ST deviation grows with k, the SF ratio approaches 3/2.
#[test]
fn section3_counterexamples() {
    let p = casestudy::CaseParams::unit(10);
    let est1 = casestudy::case_energy(&casestudy::st1(10), &p);
    let est2 = casestudy::case_energy(&casestudy::st2(10), &p);
    assert!(est1 > 3.0 * est2 / 2.0, "ST1 must be clearly worse at k=10");
    assert!((casestudy::st_comm_deviation(10) - 13.0 / 4.0).abs() < 1e-12);
    assert!((casestudy::sf_idle_ratio_with_endpoints(100) - 300.0 / 201.0).abs() < 1e-12);
}

/// Section 5.2.1 / Fig 9 (reduced): the energy-goodput ordering
/// TITAN-PC ≥ DSR-ODPM-PC > DSDVH-PSM-ish ≥ DSR-Active holds.
#[test]
fn fig9_ordering_reduced() {
    let goodput = |stack| {
        let mut sc = presets::small_network(stack, 4.0, 5);
        sc.duration = SimDuration::from_secs(120);
        Simulator::new(&sc).run().energy_goodput_bit_per_j()
    };
    let titan = goodput(stacks::titan_pc());
    let dsr_odpm_pc = goodput(stacks::dsr_odpm_pc());
    let dsdvh = goodput(stacks::dsdvh_odpm());
    let active = goodput(stacks::dsr_active());
    assert!(titan > dsr_odpm_pc * 0.95, "TITAN {titan} vs DSR-ODPM-PC {dsr_odpm_pc}");
    assert!(dsr_odpm_pc > dsdvh, "power-mgmt-first must beat proactive joint opt");
    assert!(dsdvh < 2.0 * active, "DSDVH {dsdvh} lands near DSR-Active {active}");
    assert!(titan > 1.5 * active, "TITAN {titan} must dwarf DSR-Active {active}");
}

/// Section 5.2.3 / Figs 13–16 (frozen routes): under perfect sleep
/// scheduling at very high rate, power-control-first (MTPR) beats
/// TITAN-PC; under ODPM scheduling at moderate rates, TITAN-PC wins.
#[test]
fn fig13_16_crossover() {
    let positions = Placement::Grid { rows: 7, cols: 7, width: 300.0, height: 300.0 }
        .positions(&mut SimRng::new(0));
    let grid = WirelessInstance::new(positions, cards::hypothetical_cabletron());
    let routes_of = |stack| {
        let mut sc = presets::grid_hypothetical(stack, 2.0, 1);
        sc.duration = SimDuration::from_secs(60);
        Simulator::new(&sc).run().routes
    };
    let titan_routes = routes_of(stacks::titan_pc());
    let mtpr_routes = routes_of(stacks::mtpr(false));
    let gp = |routes: &Vec<Option<Vec<usize>>>, rate_kbps: f64, scheduling| {
        let (problem, design) = frozen_routes(grid.clone(), routes, rate_kbps * 1000.0);
        let e =
            evaluate(&problem, &design, &EvalParams { scheduling, ..EvalParams::standard(900.0) });
        assert!(!e.overloaded, "no frozen route is overloaded at {rate_kbps} Kbit/s");
        e.energy_goodput_bit_per_j()
    };
    // Perfect scheduling, 200 Kbit/s: MTPR's short hops win (Fig 15).
    assert!(
        gp(&mtpr_routes, 200.0, SleepScheduling::Perfect)
            > gp(&titan_routes, 200.0, SleepScheduling::Perfect),
        "Fig 15: MTPR must lead under perfect scheduling at high rate"
    );
    // ODPM scheduling, 5–50 Kbit/s: TITAN-PC wins (Figs 14/16).
    for rate in [5.0, 50.0] {
        assert!(
            gp(&titan_routes, rate, SleepScheduling::odpm_paper())
                > gp(&mtpr_routes, rate, SleepScheduling::odpm_paper()),
            "Fig 14/16: TITAN must lead under ODPM at {rate} Kbit/s"
        );
    }
}

/// Fig 10's direction: power control cuts transmit energy. The paper
/// reports 54–86 % gaps; in our model the gap is bounded by the card's
/// `Pbase`/`Pt` split (Cabletron radiates at most 281 mW of its 1399 mW
/// transmit draw, so TPC can shave ~20 % of data-frame energy at best).
/// We assert the direction and that the data-frame component, where
/// TPC acts, shows the larger gap.
#[test]
fn fig10_transmit_energy_direction() {
    let run = |stack| {
        let mut sc = presets::small_network(stack, 4.0, 6);
        sc.duration = SimDuration::from_secs(120);
        Simulator::new(&sc).run()
    };
    let odpm = run(stacks::dsr_odpm());
    let titan = run(stacks::titan_pc());
    assert!(
        odpm.transmit_energy_j() > 1.02 * titan.transmit_energy_j(),
        "no-PC ODPM ({:.1} J) must spend more transmit energy than TITAN-PC ({:.1} J)",
        odpm.transmit_energy_j(),
        titan.transmit_energy_j()
    );
    // The data-frame component (where TPC acts) shows a solid gap.
    assert!(
        odpm.energy_total.tx_data_mj > 1.1 * titan.energy_total.tx_data_mj,
        "data-frame transmit energy: ODPM {:.0} mJ vs TITAN-PC {:.0} mJ",
        odpm.energy_total.tx_data_mj,
        titan.energy_total.tx_data_mj
    );
}

/// The fluid evaluator agrees with the closed-form single-route energy of
/// the analytical study (Eq 14) on a straight line at full power.
#[test]
fn projection_consistent_with_eq14() {
    // Two nodes 250 m apart, direct route, no power control (Eq 14's
    // m = 1 with max-power hop). Eq 14 assumes all nodes idle when
    // silent: ODPM with no off-route nodes.
    let card = cards::cabletron();
    let instance = WirelessInstance::new(vec![(0.0, 0.0), (250.0, 0.0)], card);
    let q = 0.25;
    let t = 100.0;
    let problem = DesignProblem::new(instance, vec![Demand::new(0, 1, q * 2e6)]);
    let design = Design::from_routes(&problem, vec![Some(vec![0, 1])]);
    let params = EvalParams { power_control: false, ..EvalParams::standard(t) };
    let e = evaluate(&problem, &design, &params);
    let eq14 = analysis::route_energy_j(&card, 1.0, 250.0, q, t);
    assert!((e.enetwork_j() - eq14).abs() < 1e-6, "fluid {} vs Eq 14 {eq14}", e.enetwork_j());
}
