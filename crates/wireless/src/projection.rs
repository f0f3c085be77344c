//! Fixed-route energy projection — the Section 5.2.3 methodology.
//!
//! For Figs 13–16 the paper does not simulate 200 Kbit/s packet-by-packet:
//! it lets routes stabilise at 2 Kbit/s, freezes them, and computes
//! `Enetwork` for higher rates analytically, under two sleep-scheduling
//! models (perfect scheduling vs ODPM). [`project`] reproduces exactly
//! that: take the routes a [`crate::Simulator`] run produced, scale the
//! per-hop airtime with the target rate, and integrate energy.

use crate::frame::NodeId;
use eend_radio::RadioCard;

/// Sleep-scheduling model for the projection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scheduling {
    /// Nodes wake exactly when a frame concerns them; silence costs
    /// `Psleep` for everyone.
    Perfect,
    /// ODPM: on-route nodes idle between frames at `Pidle`; off-route
    /// nodes follow the PSM duty cycle (awake for the ATIM window each
    /// beacon interval).
    Odpm {
        /// Awake fraction of off-route nodes (ATIM window / beacon
        /// interval; the paper's 0.02 s / 0.3 s ≈ 0.067).
        psm_duty: f64,
    },
}

impl Scheduling {
    /// ODPM with the paper's PSM timing.
    pub fn odpm_paper() -> Scheduling {
        Scheduling::Odpm { psm_duty: 0.02 / 0.3 }
    }
}

/// Parameters of a projection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProjectionParams {
    /// Horizon in seconds.
    pub duration_s: f64,
    /// Channel bandwidth, bits per second.
    pub bandwidth_bps: f64,
    /// Per-flow offered rate, bits per second.
    pub rate_bps: f64,
    /// Tune data transmit power to hop distance.
    pub power_control: bool,
    /// Sleep-scheduling model.
    pub scheduling: Scheduling,
}

/// Result of a projection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Projection {
    /// Total network energy, joules.
    pub enetwork_j: f64,
    /// Delivered application bits (fluid model).
    pub delivered_bits: f64,
    /// Transmit-side energy, joules.
    pub transmit_j: f64,
}

impl Projection {
    /// Energy goodput, bits per joule.
    pub fn energy_goodput_bit_per_j(&self) -> f64 {
        if self.enetwork_j <= 0.0 {
            0.0
        } else {
            self.delivered_bits / self.enetwork_j
        }
    }
}

/// Projects network energy over `routes` (one per flow; unrouted flows
/// contribute nothing) at the given rate and scheduling model.
///
/// `positions` must cover every node id appearing in the routes.
///
/// # Panics
///
/// Panics if parameters are non-positive or a route references a missing
/// position.
pub fn project(
    positions: &[(f64, f64)],
    card: &RadioCard,
    routes: &[Option<Vec<NodeId>>],
    params: &ProjectionParams,
) -> Projection {
    assert!(params.duration_s > 0.0, "duration must be positive");
    assert!(params.bandwidth_bps > 0.0, "bandwidth must be positive");
    assert!(params.rate_bps >= 0.0, "rate must be non-negative");
    let n = positions.len();
    let t = params.duration_s;
    let util = params.rate_bps / params.bandwidth_bps;

    let mut tx_frac = vec![0.0f64; n];
    let mut rx_frac = vec![0.0f64; n];
    let mut tx_mj = vec![0.0f64; n];
    let mut on_route = vec![false; n];
    let mut delivered_bits = 0.0;
    for route in routes.iter().flatten() {
        if route.len() < 2 {
            continue;
        }
        delivered_bits += params.rate_bps * t;
        for hop in route.windows(2) {
            let (u, v) = (hop[0], hop[1]);
            assert!(u < n && v < n, "route references unknown node");
            let d = dist(positions[u], positions[v]);
            let p = card.data_tx_power_mw(d, params.power_control);
            tx_frac[u] += util;
            rx_frac[v] += util;
            tx_mj[u] += t * util * p;
            on_route[u] = true;
            on_route[v] = true;
        }
    }

    let mut total_mj = 0.0;
    let mut transmit_mj = 0.0;
    for i in 0..n {
        let busy = (tx_frac[i] + rx_frac[i]).min(1.0);
        let silent_s = t * (1.0 - busy);
        let comm = tx_mj[i] + t * rx_frac[i] * card.p_rx_mw;
        let passive = match (on_route[i], params.scheduling) {
            (_, Scheduling::Perfect) => silent_s * card.p_sleep_mw,
            (true, Scheduling::Odpm { .. }) => silent_s * card.p_idle_mw,
            (false, Scheduling::Odpm { psm_duty }) => {
                t * (psm_duty * card.p_idle_mw + (1.0 - psm_duty) * card.p_sleep_mw)
            }
        };
        total_mj += comm + passive;
        transmit_mj += tx_mj[i];
    }
    Projection { enetwork_j: total_mj / 1000.0, delivered_bits, transmit_j: transmit_mj / 1000.0 }
}

fn dist(a: (f64, f64), b: (f64, f64)) -> f64 {
    ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eend_radio::cards;

    fn line3() -> Vec<(f64, f64)> {
        vec![(0.0, 0.0), (100.0, 0.0), (200.0, 0.0), (500.0, 500.0)]
    }

    fn params(rate: f64, sched: Scheduling) -> ProjectionParams {
        ProjectionParams {
            duration_s: 100.0,
            bandwidth_bps: 2_000_000.0,
            rate_bps: rate,
            power_control: true,
            scheduling: sched,
        }
    }

    #[test]
    fn closed_form_single_hop() {
        let card = cards::hypothetical_cabletron();
        let routes = vec![Some(vec![0, 1])];
        let p = project(&line3(), &card, &routes, &params(200_000.0, Scheduling::Perfect));
        let util = 0.1;
        let ptx = card.data_tx_power_mw(100.0, true);
        // Node 0: tx 10 s; node 1: rx 10 s; silence at sleep power ×4 nodes.
        let comm = 10.0 * ptx + 10.0 * card.p_rx_mw;
        let sleep = (2.0 * (100.0 - 100.0 * util) + 2.0 * 100.0) * card.p_sleep_mw;
        assert!((p.enetwork_j - (comm + sleep) / 1000.0).abs() < 1e-9);
        assert!((p.delivered_bits - 200_000.0 * 100.0).abs() < 1e-6);
    }

    #[test]
    fn perfect_beats_odpm() {
        let card = cards::hypothetical_cabletron();
        let routes = vec![Some(vec![0, 1, 2])];
        let perfect = project(&line3(), &card, &routes, &params(2_000.0, Scheduling::Perfect));
        let odpm = project(&line3(), &card, &routes, &params(2_000.0, Scheduling::odpm_paper()));
        assert!(perfect.enetwork_j < odpm.enetwork_j);
        assert!(perfect.energy_goodput_bit_per_j() > odpm.energy_goodput_bit_per_j());
    }

    #[test]
    fn goodput_rises_with_rate_under_odpm() {
        // With idle power dominating, delivering more bits over the same
        // (mostly idle) energy improves goodput — the paper's Fig 14→16
        // trend.
        let card = cards::hypothetical_cabletron();
        let routes = vec![Some(vec![0, 1, 2])];
        let slow = project(&line3(), &card, &routes, &params(2_000.0, Scheduling::odpm_paper()));
        let fast = project(&line3(), &card, &routes, &params(50_000.0, Scheduling::odpm_paper()));
        assert!(fast.energy_goodput_bit_per_j() > slow.energy_goodput_bit_per_j());
    }

    #[test]
    fn more_hops_cost_more_at_high_rate_perfect() {
        // Under perfect scheduling, relaying through 1 (two short hops)
        // competes with one long hop purely on communication energy; for
        // the hypothetical card short hops win at 100 m vs 200 m.
        let card = cards::hypothetical_cabletron();
        let direct =
            project(&line3(), &card, &[Some(vec![0, 2])], &params(200_000.0, Scheduling::Perfect));
        let relayed = project(
            &line3(),
            &card,
            &[Some(vec![0, 1, 2])],
            &params(200_000.0, Scheduling::Perfect),
        );
        // Ptx(200) = 1118 + 5.2e-6·200⁴ = 9438 mW vs 2 hops of
        // Ptx(100) = 1638 mW each + extra Prx: relaying wins.
        assert!(relayed.enetwork_j < direct.enetwork_j);
    }

    #[test]
    fn unrouted_flows_contribute_nothing() {
        let card = cards::cabletron();
        let p = project(&line3(), &card, &[None], &params(2_000.0, Scheduling::Perfect));
        assert_eq!(p.delivered_bits, 0.0);
        assert_eq!(p.transmit_j, 0.0);
        assert!(p.enetwork_j > 0.0, "sleeping network still burns sleep power");
    }

    #[test]
    fn off_route_nodes_pay_psm_duty_under_odpm() {
        let card = cards::cabletron();
        let routes = vec![Some(vec![0, 1])];
        let duty = 0.5;
        let p =
            project(&line3(), &card, &routes, &params(0.0, Scheduling::Odpm { psm_duty: duty }));
        // Nodes 2 and 3 are off-route: cost = T·(duty·Pidle + (1−duty)·Psleep).
        let off = 100.0 * (duty * card.p_idle_mw + (1.0 - duty) * card.p_sleep_mw);
        let on = 100.0 * card.p_idle_mw;
        let want = (2.0 * off + 2.0 * on) / 1000.0;
        assert!((p.enetwork_j - want).abs() < 1e-9);
    }
}
