//! The `Enetwork` evaluator: turns a [`Design`] into per-node energy.
//!
//! This is the fluid-model counterpart of the packet simulator in
//! `eend-wireless`: traffic is treated as a constant airtime fraction
//! `rᵢ/B` per hop (no queueing, no losses, no control overhead), exactly
//! the simplification the paper uses in Section 3 (Eq 5). It is the one
//! fluid model: the design search scores candidates with it, and Figs
//! 13–16 score the routes a packet run froze (Section 5.2.3) by turning
//! them into a design with [`crate::design::frozen_routes`]. A node's
//! energy is
//!
//! - transmit: Σ over outgoing hops of `T · rᵢ/B · Ptx(d)`,
//! - receive: Σ over incoming hops of `T · rᵢ/B · Prx`,
//! - passive: under ODPM, the remaining time at `Pidle` for awake nodes
//!   and `T·(duty·Pidle + (1−duty)·Psleep)` for asleep ones (PSM wakes
//!   them for the ATIM window); under *perfect sleep scheduling*, the
//!   remaining time at `Psleep` for everyone.

use crate::design::Design;
use crate::problem::DesignProblem;
use eend_radio::{CardPowers, EnergyReport};
use eend_sim::SimDuration;

/// How silent time is charged (the two scheduling models of Section
/// 5.2.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SleepScheduling {
    /// ODPM-style: awake nodes (endpoints and relays) idle between
    /// packets at `Pidle`; asleep nodes follow the PSM duty cycle.
    Odpm {
        /// Awake fraction of asleep nodes, in `[0, 1]` (ATIM window /
        /// beacon interval). `0.0` lets them sleep the whole horizon —
        /// the design model.
        psm_duty: f64,
    },
    /// Perfect sleep scheduling: nodes wake exactly when needed; silent
    /// time is charged at `Psleep` for every node.
    Perfect,
}

impl SleepScheduling {
    /// ODPM with the paper's PSM timing: a 0.02 s ATIM window every
    /// 0.3 s beacon interval.
    pub fn odpm_paper() -> SleepScheduling {
        SleepScheduling::Odpm { psm_duty: 0.02 / 0.3 }
    }
}

/// Parameters of an evaluation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalParams {
    /// Evaluated time horizon, seconds.
    pub duration_s: f64,
    /// Channel bandwidth `B`, bits per second.
    pub bandwidth_bps: f64,
    /// Tune data transmit power to hop distance (TPC) or always use max.
    pub power_control: bool,
    /// How silent time is charged.
    pub scheduling: SleepScheduling,
}

impl EvalParams {
    /// 2 Mb/s 802.11 with power control and ODPM-style idling — the
    /// configuration of the paper's main study.
    pub fn standard(duration_s: f64) -> EvalParams {
        EvalParams {
            duration_s,
            bandwidth_bps: 2_000_000.0,
            power_control: true,
            scheduling: SleepScheduling::Odpm { psm_duty: 0.0 },
        }
    }
}

/// Network-wide evaluation result.
#[derive(Debug, Clone)]
pub struct NetworkEnergy {
    /// Per-node energy breakdowns.
    pub per_node: Vec<EnergyReport>,
    /// Element-wise network total (Eq 4).
    pub total: EnergyReport,
    /// Application bits delivered over the horizon. In the fluid model
    /// everything routed is delivered — unless a node on the route is
    /// beyond capacity, in which case the demand is scaled down by the
    /// bottleneck's overload factor (see [`NetworkEnergy::overloaded`]).
    pub delivered_bits: f64,
    /// The largest per-node airtime fraction `tx_frac + rx_frac` in the
    /// design. Values above 1 mean some node is asked to forward more
    /// traffic than the channel admits.
    pub max_utilization: f64,
    /// `true` if any node's airtime fraction exceeds 1. Overloaded designs
    /// keep their full communication energy but have their delivered bits
    /// capped, so optimizers cannot reward infeasible routings with
    /// inflated energy-goodput.
    pub overloaded: bool,
    /// The evaluated horizon, seconds (echoed from [`EvalParams`] so
    /// downstream metrics like lifetime need no extra bookkeeping).
    pub duration_s: f64,
}

impl NetworkEnergy {
    /// `Enetwork` in joules.
    pub fn enetwork_j(&self) -> f64 {
        self.total.total_mj() / 1000.0
    }

    /// Energy goodput in bits per joule — the paper's headline metric.
    /// Zero if no energy was consumed.
    pub fn energy_goodput_bit_per_j(&self) -> f64 {
        let j = self.enetwork_j();
        if j <= 0.0 {
            0.0
        } else {
            self.delivered_bits / j
        }
    }

    /// Projected time until the first node exhausts a `battery_j`-joule
    /// battery, assuming every node keeps drawing its average power from
    /// this evaluation — the LifetimeAware extension's metric, fluid
    /// counterpart of `RunMetrics::lifetime_to_first_death_s`. Infinite if
    /// no node consumed energy.
    pub fn time_to_first_death_s(&self, battery_j: f64) -> f64 {
        assert!(battery_j > 0.0, "battery must be positive");
        let max_power_mw =
            self.per_node.iter().map(|r| r.total_mj() / self.duration_s).fold(0.0f64, f64::max);
        if max_power_mw <= 0.0 {
            f64::INFINITY
        } else {
            battery_j * 1000.0 / max_power_mw
        }
    }
}

/// Evaluates `design` on `problem` under the fluid traffic model.
///
/// # Panics
///
/// Panics if the evaluation duration or bandwidth is not positive, if a
/// PSM duty lies outside `[0, 1]`, or if `design.routes` and
/// `problem.demands` have different lengths (a design for a different
/// problem — silently zipping would drop trailing demands).
pub fn evaluate(problem: &DesignProblem, design: &Design, params: &EvalParams) -> NetworkEnergy {
    assert!(params.duration_s > 0.0, "duration must be positive");
    assert!(params.bandwidth_bps > 0.0, "bandwidth must be positive");
    if let SleepScheduling::Odpm { psm_duty } = params.scheduling {
        assert!((0.0..=1.0).contains(&psm_duty), "PSM duty {psm_duty} outside [0, 1]");
    }
    assert_eq!(
        design.routes.len(),
        problem.demands.len(),
        "design has {} routes for {} demands — design/problem mismatch",
        design.routes.len(),
        problem.demands.len()
    );
    let inst = &problem.instance;
    let card = inst.card();
    // The card's maximum power, computed once rather than per hop.
    let powers = CardPowers::new(*card);
    let n = inst.node_count();
    let t = params.duration_s;

    // Per-node airtime fractions and transmit energy.
    let mut tx_frac = vec![0.0f64; n];
    let mut rx_frac = vec![0.0f64; n];
    let mut tx_energy_mj = vec![0.0f64; n];
    for (demand, route) in problem.demands.iter().zip(&design.routes) {
        let Some(route) = route else { continue };
        let util = demand.rate_bps / params.bandwidth_bps;
        for hop in route.windows(2) {
            let (u, v) = (hop[0], hop[1]);
            let d = inst.distance(u, v);
            let ptx = powers.data_tx_power_mw(d, params.power_control);
            tx_frac[u] += util;
            rx_frac[v] += util;
            tx_energy_mj[u] += t * util * ptx;
        }
    }

    // Second pass: credit delivered bits, scaling each demand down by its
    // bottleneck node's overload factor. A route whose busiest node has
    // airtime fraction `busy > 1` can carry at most `1/busy` of the offered
    // rate, so beyond-capacity designs no longer report inflated
    // energy-goodput.
    let mut delivered_bits = 0.0;
    for (demand, route) in problem.demands.iter().zip(&design.routes) {
        let Some(route) = route else { continue };
        let bottleneck = route.iter().map(|&v| tx_frac[v] + rx_frac[v]).fold(0.0f64, f64::max);
        let carried = if bottleneck > 1.0 { 1.0 / bottleneck } else { 1.0 };
        delivered_bits += demand.rate_bps * t * carried;
    }

    let mut per_node = Vec::with_capacity(n);
    let mut total = EnergyReport::default();
    let mut max_utilization = 0.0f64;
    for v in 0..n {
        let busy = tx_frac[v] + rx_frac[v];
        max_utilization = max_utilization.max(busy);
        // Beyond-capacity designs (busy > 1) keep their full communication
        // energy — matching the paper's Fig 15/16 projections — but their
        // residency fits the horizon: tx and rx time shrink by 1/busy,
        // and passive time cannot go negative.
        let silent_frac = (1.0 - busy).max(0.0);
        let residency = if busy > 1.0 { t / busy } else { t };
        let awake = design.active[v];
        let mut r = EnergyReport {
            tx_data_mj: tx_energy_mj[v],
            rx_data_mj: t * rx_frac[v] * card.p_rx_mw,
            time_tx: SimDuration::from_secs_f64(residency * tx_frac[v]),
            time_rx: SimDuration::from_secs_f64(residency * rx_frac[v]),
            ..EnergyReport::default()
        };
        let silent_s = t * silent_frac;
        // (idle, sleep) seconds of the node's passive time.
        let (idle_s, sleep_s) = match (awake, params.scheduling) {
            (true, SleepScheduling::Odpm { .. }) => (silent_s, 0.0),
            (true, SleepScheduling::Perfect) => (0.0, silent_s),
            (false, SleepScheduling::Odpm { psm_duty }) => (t * psm_duty, t * (1.0 - psm_duty)),
            (false, SleepScheduling::Perfect) => (0.0, t),
        };
        r.idle_mj = idle_s * card.p_idle_mw;
        r.time_idle = SimDuration::from_secs_f64(idle_s);
        r.sleep_mj = sleep_s * card.p_sleep_mw;
        r.time_sleep = SimDuration::from_secs_f64(sleep_s);
        total.accumulate(&r);
        per_node.push(r);
    }
    NetworkEnergy {
        per_node,
        total,
        delivered_bits,
        max_utilization,
        overloaded: max_utilization > 1.0,
        duration_s: t,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{frozen_routes, Designer, Heuristic};
    use crate::problem::{Demand, DesignProblem, WirelessInstance};
    use eend_radio::cards;

    fn two_node_problem(rate: f64) -> (DesignProblem, Design) {
        let inst = WirelessInstance::new(vec![(0.0, 0.0), (200.0, 0.0)], cards::cabletron());
        let p = DesignProblem::new(inst, vec![Demand::new(0, 1, rate)]);
        let d = Heuristic::IdleFirst.design(&p);
        (p, d)
    }

    #[test]
    fn single_hop_energy_closed_form() {
        let (p, d) = two_node_problem(200_000.0); // r/B = 0.1
        let params = EvalParams {
            duration_s: 100.0,
            bandwidth_bps: 2_000_000.0,
            power_control: true,
            scheduling: SleepScheduling::Odpm { psm_duty: 0.0 },
        };
        let e = evaluate(&p, &d, &params);
        let card = cards::cabletron();
        let ptx = card.data_tx_power_mw(200.0, true);
        // Sender: 10 s transmitting, 90 s idle. Receiver: 10 s rx, 90 idle.
        let expect_tx = 10.0 * ptx;
        let expect_rx = 10.0 * card.p_rx_mw;
        let expect_idle = 2.0 * 90.0 * card.p_idle_mw;
        assert!((e.total.tx_data_mj - expect_tx).abs() < 1e-6);
        assert!((e.total.rx_data_mj - expect_rx).abs() < 1e-6);
        assert!((e.total.idle_mj - expect_idle).abs() < 1e-6);
        assert!((e.delivered_bits - 200_000.0 * 100.0).abs() < 1e-6);
    }

    /// The frozen route 0 → 1 → 2 on a 100 m-spaced line, with node 3
    /// off the route, on the hypothetical card.
    fn line_route(rate: f64) -> (DesignProblem, Design) {
        on_line(&[0, 1, 2], rate)
    }

    /// `route` frozen on the nodes of [`line_route`].
    fn on_line(route: &[usize], rate: f64) -> (DesignProblem, Design) {
        let positions = vec![(0.0, 0.0), (100.0, 0.0), (200.0, 0.0), (500.0, 500.0)];
        let inst = WirelessInstance::new(positions, cards::hypothetical_cabletron());
        frozen_routes(inst, &[Some(route.to_vec())], rate)
    }

    fn with_scheduling(duration_s: f64, scheduling: SleepScheduling) -> EvalParams {
        EvalParams { scheduling, ..EvalParams::standard(duration_s) }
    }

    #[test]
    fn perfect_scheduling_charges_sleep() {
        let (p, d) = two_node_problem(200_000.0);
        let e = evaluate(&p, &d, &with_scheduling(100.0, SleepScheduling::Perfect));
        assert_eq!(e.total.idle_mj, 0.0);
        assert!(e.total.sleep_mj > 0.0);
        let e_idle = evaluate(&p, &d, &EvalParams::standard(100.0));
        assert!(e.enetwork_j() < e_idle.enetwork_j(), "perfect scheduling must dominate");
    }

    #[test]
    fn goodput_improves_with_perfect_scheduling() {
        // With and without an off-route node paying the PSM duty.
        let cases = [
            (two_node_problem(10_000.0), 900.0, SleepScheduling::Odpm { psm_duty: 0.0 }),
            (line_route(2_000.0), 100.0, SleepScheduling::odpm_paper()),
        ];
        for ((p, d), t, odpm) in cases {
            let idle = evaluate(&p, &d, &with_scheduling(t, odpm));
            let perfect = evaluate(&p, &d, &with_scheduling(t, SleepScheduling::Perfect));
            assert!(perfect.enetwork_j() < idle.enetwork_j());
            assert!(perfect.energy_goodput_bit_per_j() > idle.energy_goodput_bit_per_j());
        }
    }

    #[test]
    fn goodput_rises_with_rate_under_odpm() {
        // With idle power dominating, delivering more bits over the same
        // (mostly idle) energy improves goodput — the paper's Fig 14→16
        // trend.
        let goodput = |rate| {
            let (p, d) = line_route(rate);
            evaluate(&p, &d, &with_scheduling(100.0, SleepScheduling::odpm_paper()))
                .energy_goodput_bit_per_j()
        };
        assert!(goodput(50_000.0) > goodput(2_000.0));
    }

    #[test]
    fn relaying_beats_one_long_hop_at_high_rate_perfect() {
        // Under perfect scheduling, relaying through 1 (two short hops)
        // competes with one long hop purely on communication energy: for
        // the hypothetical card Ptx(200) = 1118 + 5.2e-6·200⁴ = 9438 mW
        // against two hops of Ptx(100) = 1638 mW plus one more Prx.
        let enetwork = |route: &[usize]| {
            let (p, d) = on_line(route, 200_000.0);
            evaluate(&p, &d, &with_scheduling(100.0, SleepScheduling::Perfect)).enetwork_j()
        };
        assert!(enetwork(&[0, 1, 2]) < enetwork(&[0, 2]));
    }

    #[test]
    fn power_control_reduces_tx_energy_only() {
        let (p, d) = two_node_problem(100_000.0);
        let mut with_pc = EvalParams::standard(100.0);
        with_pc.power_control = true;
        let mut no_pc = EvalParams::standard(100.0);
        no_pc.power_control = false;
        let a = evaluate(&p, &d, &with_pc);
        let b = evaluate(&p, &d, &no_pc);
        assert!(a.total.tx_data_mj < b.total.tx_data_mj);
        assert!((a.total.rx_data_mj - b.total.rx_data_mj).abs() < 1e-9);
        assert!((a.total.idle_mj - b.total.idle_mj).abs() < 1e-9);
    }

    #[test]
    fn sleeping_nodes_charge_sleep_power() {
        // Third node is off every route: it sleeps for the horizon, waking
        // for the PSM duty: T·(duty·Pidle + (1−duty)·Psleep).
        let inst =
            WirelessInstance::new(vec![(0.0, 0.0), (200.0, 0.0), (0.0, 200.0)], cards::cabletron());
        let p = DesignProblem::new(inst, vec![Demand::new(0, 1, 10_000.0)]);
        let d = Heuristic::IdleFirst.design(&p);
        let card = cards::cabletron();
        for duty in [0.0, 0.5, 1.0] {
            let odpm = SleepScheduling::Odpm { psm_duty: duty };
            let e = evaluate(&p, &d, &with_scheduling(100.0, odpm));
            let off = &e.per_node[2];
            assert!((off.sleep_mj - 100.0 * (1.0 - duty) * card.p_sleep_mw).abs() < 1e-9);
            assert!((off.idle_mj - 100.0 * duty * card.p_idle_mw).abs() < 1e-9);
            assert_eq!(off.time_idle + off.time_sleep, SimDuration::from_secs(100));
            // On-route nodes idle whatever the duty.
            let on = &e.per_node[0];
            assert_eq!(on.sleep_mj, 0.0);
            assert!(on.idle_mj > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "PSM duty")]
    fn psm_duty_outside_unit_interval_rejected() {
        let (p, d) = two_node_problem(10_000.0);
        evaluate(&p, &d, &with_scheduling(10.0, SleepScheduling::Odpm { psm_duty: 1.5 }));
    }

    #[test]
    fn unrouted_demand_contributes_nothing() {
        let inst = WirelessInstance::new(vec![(0.0, 0.0), (900.0, 0.0)], cards::cabletron());
        let p = DesignProblem::new(inst, vec![Demand::new(0, 1, 10_000.0)]);
        let d = Heuristic::IdleFirst.design(&p);
        assert!(!d.is_feasible());
        let e = evaluate(&p, &d, &EvalParams::standard(100.0));
        assert_eq!(e.delivered_bits, 0.0);
        assert_eq!(e.total.comm_mj(), 0.0);
        assert_eq!(e.energy_goodput_bit_per_j(), 0.0);
    }

    #[test]
    fn idle_dominates_at_low_rate() {
        // The crux of the paper: at light load ΣEpassive ≫ ΣEcomm.
        let (p, d) = two_node_problem(2_000.0);
        let e = evaluate(&p, &d, &EvalParams::standard(900.0));
        assert!(e.total.passive_mj() > 10.0 * e.total.comm_mj());
    }

    #[test]
    fn overload_clamps_silent_time() {
        // rate where a relay's tx+rx fractions exceed 1.
        let inst =
            WirelessInstance::new(vec![(0.0, 0.0), (200.0, 0.0), (400.0, 0.0)], cards::cabletron());
        let p = DesignProblem::new(inst, vec![Demand::new(0, 2, 1_500_000.0)]);
        let d = Heuristic::IdleFirst.design(&p);
        let e = evaluate(&p, &d, &EvalParams::standard(10.0));
        // Relay node 1: tx 0.75 + rx 0.75 = 1.5 busy -> silent clamped to 0.
        assert_eq!(e.per_node[1].idle_mj, 0.0);
        assert!(e.per_node[1].comm_mj() > 0.0);
        // No node resides longer than the horizon: the relay's 7.5 s tx
        // and 7.5 s rx shrink by 1/1.5 to 5 s each.
        for (v, r) in e.per_node.iter().enumerate() {
            let resident = r.time_tx + r.time_rx + r.time_idle + r.time_sleep;
            let gap = (resident.as_secs_f64() - 10.0).abs();
            assert!(gap < 1e-6, "node {v} resides {resident:?} in 10 s");
        }
        assert!((e.per_node[1].time_tx.as_secs_f64() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn overload_flags_and_caps_delivered_bits() {
        let inst =
            WirelessInstance::new(vec![(0.0, 0.0), (200.0, 0.0), (400.0, 0.0)], cards::cabletron());
        let p = DesignProblem::new(inst, vec![Demand::new(0, 2, 1_500_000.0)]);
        let d = Heuristic::IdleFirst.design(&p);
        let e = evaluate(&p, &d, &EvalParams::standard(10.0));
        // Relay node 1: tx 0.75 + rx 0.75 = 1.5 busy.
        assert!(e.overloaded);
        assert!((e.max_utilization - 1.5).abs() < 1e-12);
        // The bottleneck admits only 1/1.5 of the offered rate.
        let expect = 1_500_000.0 * 10.0 / 1.5;
        assert!((e.delivered_bits - expect).abs() < 1e-3);
    }

    #[test]
    fn feasible_design_is_not_overloaded() {
        let (p, d) = two_node_problem(200_000.0);
        let e = evaluate(&p, &d, &EvalParams::standard(100.0));
        assert!(!e.overloaded);
        // Both nodes carry 0.1 airtime (one tx, one rx).
        assert!((e.max_utilization - 0.1).abs() < 1e-12);
        // Below capacity nothing is capped.
        assert!((e.delivered_bits - 200_000.0 * 100.0).abs() < 1e-6);
    }

    #[test]
    fn overload_cannot_inflate_goodput() {
        // Pushing the rate beyond channel capacity must not raise
        // energy-goodput past what the channel can actually carry.
        let inst =
            WirelessInstance::new(vec![(0.0, 0.0), (200.0, 0.0), (400.0, 0.0)], cards::cabletron());
        let feasible = {
            let p = DesignProblem::new(inst.clone(), vec![Demand::new(0, 2, 1_000_000.0)]);
            let d = Heuristic::IdleFirst.design(&p);
            evaluate(&p, &d, &EvalParams::standard(10.0))
        };
        let overloaded = {
            let p = DesignProblem::new(inst, vec![Demand::new(0, 2, 4_000_000.0)]);
            let d = Heuristic::IdleFirst.design(&p);
            evaluate(&p, &d, &EvalParams::standard(10.0))
        };
        assert!(feasible.max_utilization <= 1.0);
        assert!(overloaded.overloaded);
        assert!(
            overloaded.energy_goodput_bit_per_j() <= feasible.energy_goodput_bit_per_j(),
            "overload must not be rewarded: {} > {}",
            overloaded.energy_goodput_bit_per_j(),
            feasible.energy_goodput_bit_per_j()
        );
    }

    #[test]
    #[should_panic(expected = "design/problem mismatch")]
    fn route_demand_length_mismatch_rejected() {
        let (p, d) = two_node_problem(10_000.0);
        let mut wrong = DesignProblem::new(
            p.instance.clone(),
            vec![Demand::new(0, 1, 10_000.0), Demand::new(1, 0, 10_000.0)],
        );
        // `d` has one route; `wrong` has two demands. Must not silently
        // drop the second demand.
        wrong.demands.truncate(2);
        evaluate(&wrong, &d, &EvalParams::standard(10.0));
    }

    #[test]
    fn time_to_first_death_matches_hand_computation() {
        let (p, d) = two_node_problem(200_000.0);
        let e = evaluate(&p, &d, &EvalParams::standard(100.0));
        let max_power_mw = e.per_node.iter().map(|r| r.total_mj() / 100.0).fold(0.0f64, f64::max);
        let expect = 1000.0 * 1000.0 / max_power_mw;
        assert!((e.time_to_first_death_s(1000.0) - expect).abs() < 1e-6);
        // Doubling the battery doubles the projection.
        assert!((e.time_to_first_death_s(2000.0) - 2.0 * expect).abs() < 1e-6);
    }
}
