//! Link metrics: the cost functions of Eqs 10–12.
//!
//! Every reactive protocol in the paper is "DSR with a different
//! accumulated cost": hop count (DSR), radiated power (MTPR, Eq 10), total
//! transceiver power (MTPR+, Eq 11), or the joint power/power-management
//! cost `h(u,v,rᵢ)` (DSRH, Eq 12). DSDV/DSDVH use the same metrics in
//! distance-vector form.

use eend_radio::RadioCard;

/// The route-cost metric a protocol accumulates during discovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteMetric {
    /// Hop count — plain DSR/DSDV shortest paths.
    HopCount,
    /// MTPR (Eq 10): radiated transmit power `Pt(u,v)`.
    RadiatedPower,
    /// MTPR+ (Eq 11): `Pbase + Pt(u,v) + Prx`.
    TotalPower,
    /// DSRH/DSDVH no-rate variant of Eq 12 (`rᵢ/B` taken as 1).
    JointNoRate,
    /// DSRH rate-aware variant of Eq 12.
    JointRate,
}

impl RouteMetric {
    /// Cost of the link `u → v` under this metric, evaluated at the
    /// receiving node `v` (the paper's RREQ processing: the receiver
    /// updates the cost using the transmit power level needed to reach it
    /// and *its own* power-management state).
    ///
    /// `receiver_in_psm` is `v`'s mode, `rate_bps` the discovering flow's
    /// rate (ignored except by [`RouteMetric::JointRate`]).
    pub fn link_cost(
        &self,
        card: &RadioCard,
        distance_m: f64,
        receiver_in_psm: bool,
        rate_bps: f64,
        bandwidth_bps: f64,
    ) -> f64 {
        match self {
            RouteMetric::HopCount => 1.0,
            RouteMetric::RadiatedPower => card.radiated_power_mw(distance_m),
            RouteMetric::TotalPower => card.tx_total_power_mw(distance_m) + card.p_rx_mw,
            RouteMetric::JointNoRate | RouteMetric::JointRate => {
                let util = if *self == RouteMetric::JointRate {
                    (rate_bps / bandwidth_bps).min(1.0)
                } else {
                    1.0
                };
                // Eq 12: c(u,v) = (Ptx + Prx − 2·Pidle)·r/B, plus Pidle if
                // the receiver would have to leave power-save to relay.
                let c = ((card.tx_total_power_mw(distance_m) + card.p_rx_mw
                    - 2.0 * card.p_idle_mw)
                    * util)
                    .max(0.0);
                if receiver_in_psm {
                    c + card.p_idle_mw
                } else {
                    c
                }
            }
        }
    }

    /// `true` if discoveries should re-broadcast duplicate RREQs that
    /// advertise a strictly lower cost (the paper's MTPR/DSRH behaviour;
    /// pointless for hop count where the first copy is minimal).
    pub fn rebroadcast_on_better_cost(&self) -> bool {
        !matches!(self, RouteMetric::HopCount)
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            RouteMetric::HopCount => "hops",
            RouteMetric::RadiatedPower => "MTPR",
            RouteMetric::TotalPower => "MTPR+",
            RouteMetric::JointNoRate => "h(norate)",
            RouteMetric::JointRate => "h(rate)",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eend_radio::cards;

    const B: f64 = 2_000_000.0;

    #[test]
    fn hop_count_is_unit() {
        let c = cards::cabletron();
        assert_eq!(RouteMetric::HopCount.link_cost(&c, 10.0, true, 1000.0, B), 1.0);
        assert_eq!(RouteMetric::HopCount.link_cost(&c, 250.0, false, 0.0, B), 1.0);
    }

    #[test]
    fn mtpr_matches_eq10() {
        let c = cards::cabletron();
        let got = RouteMetric::RadiatedPower.link_cost(&c, 100.0, false, 0.0, B);
        assert!((got - c.radiated_power_mw(100.0)).abs() < 1e-12);
    }

    #[test]
    fn mtpr_plus_matches_eq11() {
        let c = cards::cabletron();
        let got = RouteMetric::TotalPower.link_cost(&c, 100.0, false, 0.0, B);
        let want = c.p_base_mw + c.radiated_power_mw(100.0) + c.p_rx_mw;
        assert!((got - want).abs() < 1e-12);
    }

    #[test]
    fn joint_charges_for_waking_sleepers() {
        let c = cards::cabletron();
        let asleep = RouteMetric::JointNoRate.link_cost(&c, 100.0, true, 0.0, B);
        let awake = RouteMetric::JointNoRate.link_cost(&c, 100.0, false, 0.0, B);
        assert!((asleep - awake - c.p_idle_mw).abs() < 1e-9, "Eq 12's +Pidle term");
    }

    #[test]
    fn joint_rate_scales_with_utilisation() {
        let c = cards::cabletron();
        let slow = RouteMetric::JointRate.link_cost(&c, 200.0, false, 2_000.0, B);
        let fast = RouteMetric::JointRate.link_cost(&c, 200.0, false, 200_000.0, B);
        assert!(fast > slow, "higher rate → higher h");
        let norate = RouteMetric::JointNoRate.link_cost(&c, 200.0, false, 2_000.0, B);
        assert!(norate >= fast, "norate assumes full utilisation");
    }

    #[test]
    fn joint_clamps_negative_costs() {
        // Mica2 at short range: Ptx + Prx < 2·Pidle → clamp at 0 (plus the
        // wake charge when the receiver sleeps).
        let m = cards::mica2();
        let v = RouteMetric::JointNoRate.link_cost(&m, 1.0, false, 0.0, B);
        assert_eq!(v, 0.0);
        let asleep = RouteMetric::JointNoRate.link_cost(&m, 1.0, true, 0.0, B);
        assert_eq!(asleep, m.p_idle_mw);
    }

    #[test]
    fn rebroadcast_policy() {
        assert!(!RouteMetric::HopCount.rebroadcast_on_better_cost());
        assert!(RouteMetric::RadiatedPower.rebroadcast_on_better_cost());
        assert!(RouteMetric::JointRate.rebroadcast_on_better_cost());
    }

    #[test]
    fn names_unique() {
        let names = [
            RouteMetric::HopCount.name(),
            RouteMetric::RadiatedPower.name(),
            RouteMetric::TotalPower.name(),
            RouteMetric::JointNoRate.name(),
            RouteMetric::JointRate.name(),
        ];
        let mut d = names.to_vec();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), names.len());
    }
}
