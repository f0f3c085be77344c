//! The paper's Table 1 radio parameter presets.
//!
//! | Card | Pidle | Prx | Ptx(d) (mW, d in m) | D |
//! |---|---|---|---|---|
//! | Aironet 350 | 1350 | 1350 | 2165 + 3.6·10⁻⁷·d⁴ | 140 m |
//! | Cabletron | 830 | 1000 | 1118 + 7.2·10⁻⁸·d⁴ | 250 m |
//! | Hypothetical Cabletron | 830 | 1000 | 1118 + 5.2·10⁻⁶·d⁴ | 250 m |
//! | Mica2 | 21 | 21 | 10.2 + 9.4·10⁻⁷·d⁴ | 68 m |
//! | LEACH (n = 4) | x·50 | 50 | 50 + 1.3·10⁻⁶·d⁴ | 100 m |
//! | LEACH (n = 2) | x·50 | 50 | 50 + 10⁻²·d² | 75 m |
//!
//! Sleep powers and switch costs are not in Table 1 (the paper calls sleep
//! power "typically negligible"); we use vendor-typical values and expose
//! them as plain fields so experiments can override them. The LEACH idle
//! power is listed as a multiple `x` of 50 mW in the paper; the constructor
//! takes `x` (use 1.0 to make idle = receive, the common assumption).

use crate::card::RadioCard;

/// Default sleep→awake transition cost: 2 ms at idle power, the order of
/// magnitude measured for 802.11 cards. Sensor radios override this.
fn default_switch_cost_mj(p_idle_mw: f64) -> f64 {
    p_idle_mw * 0.002
}

/// Cisco Aironet 350 (802.11b), parameters fitted from measurement studies.
pub fn aironet_350() -> RadioCard {
    RadioCard {
        name: "Aironet 350",
        p_idle_mw: 1350.0,
        p_rx_mw: 1350.0,
        p_sleep_mw: 75.0,
        p_base_mw: 2165.0,
        alpha2: 3.6e-7,
        path_loss_n: 4.0,
        nominal_range_m: 140.0,
        switch_energy_mj: default_switch_cost_mj(1350.0),
    }
}

/// Cabletron Roamabout (802.11), the card used for the paper's main
/// simulation study (Sections 5.2.1–5.2.2).
pub fn cabletron() -> RadioCard {
    RadioCard {
        name: "Cabletron",
        p_idle_mw: 830.0,
        p_rx_mw: 1000.0,
        p_sleep_mw: 50.0,
        p_base_mw: 1118.0,
        alpha2: 7.2e-8,
        path_loss_n: 4.0,
        nominal_range_m: 250.0,
        switch_energy_mj: default_switch_cost_mj(830.0),
    }
}

/// The paper's *Hypothetical Cabletron*: identical to [`cabletron`] but with
/// `α₂ = 5.2·10⁻⁶`, chosen so that the characteristic hop count reaches 2 at
/// R/B = 0.25 — i.e. a card for which relaying *could* pay off. Used in
/// Section 5.2.3 (Figs 13–16).
pub fn hypothetical_cabletron() -> RadioCard {
    RadioCard { name: "Hypothetical Cabletron", alpha2: 5.2e-6, ..cabletron() }
}

/// Crossbow Mica2 sensor mote (CC1000 radio), fitted from the Pisa
/// measurement report the paper cites.
pub fn mica2() -> RadioCard {
    RadioCard {
        name: "Mica2",
        p_idle_mw: 21.0,
        p_rx_mw: 21.0,
        p_sleep_mw: 0.003,
        p_base_mw: 10.2,
        alpha2: 9.4e-7,
        path_loss_n: 4.0,
        nominal_range_m: 68.0,
        switch_energy_mj: 21.0 * 0.0002,
    }
}

/// The LEACH energy model with fourth-power path loss (multi-path regime),
/// `idle_factor` = the paper's `x` multiplier on the 50 mW receive power.
pub fn leach_n4(idle_factor: f64) -> RadioCard {
    RadioCard {
        name: "LEACH (n=4)",
        p_idle_mw: idle_factor * 50.0,
        p_rx_mw: 50.0,
        p_sleep_mw: 0.02,
        p_base_mw: 50.0,
        alpha2: 1.3e-6,
        path_loss_n: 4.0,
        nominal_range_m: 100.0,
        switch_energy_mj: 50.0 * 0.0002,
    }
}

/// The LEACH energy model with free-space (square-law) path loss.
pub fn leach_n2(idle_factor: f64) -> RadioCard {
    RadioCard {
        name: "LEACH (n=2)",
        p_idle_mw: idle_factor * 50.0,
        p_rx_mw: 50.0,
        p_sleep_mw: 0.02,
        p_base_mw: 50.0,
        alpha2: 1.0e-2,
        path_loss_n: 2.0,
        nominal_range_m: 75.0,
        switch_energy_mj: 50.0 * 0.0002,
    }
}

/// All Table 1 cards (LEACH with `x = 1`), in the paper's row order.
pub fn all() -> Vec<RadioCard> {
    vec![
        aironet_350(),
        cabletron(),
        hypothetical_cabletron(),
        mica2(),
        leach_n4(1.0),
        leach_n2(1.0),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_idle_and_rx_powers() {
        assert_eq!(aironet_350().p_idle_mw, 1350.0);
        assert_eq!(aironet_350().p_rx_mw, 1350.0);
        assert_eq!(cabletron().p_idle_mw, 830.0);
        assert_eq!(cabletron().p_rx_mw, 1000.0);
        assert_eq!(mica2().p_idle_mw, 21.0);
        assert_eq!(leach_n4(1.0).p_rx_mw, 50.0);
        assert_eq!(leach_n4(2.0).p_idle_mw, 100.0);
    }

    #[test]
    fn table1_tx_models() {
        assert_eq!(aironet_350().p_base_mw, 2165.0);
        assert_eq!(aironet_350().alpha2, 3.6e-7);
        assert_eq!(cabletron().p_base_mw, 1118.0);
        assert_eq!(cabletron().alpha2, 7.2e-8);
        assert_eq!(hypothetical_cabletron().alpha2, 5.2e-6);
        assert_eq!(mica2().p_base_mw, 10.2);
        assert_eq!(leach_n2(1.0).path_loss_n, 2.0);
        assert_eq!(leach_n4(1.0).path_loss_n, 4.0);
    }

    #[test]
    fn fig7_ranges() {
        assert_eq!(aironet_350().nominal_range_m, 140.0);
        assert_eq!(cabletron().nominal_range_m, 250.0);
        assert_eq!(hypothetical_cabletron().nominal_range_m, 250.0);
        assert_eq!(mica2().nominal_range_m, 68.0);
        assert_eq!(leach_n4(1.0).nominal_range_m, 100.0);
        assert_eq!(leach_n2(1.0).nominal_range_m, 75.0);
    }

    #[test]
    fn hypothetical_differs_only_in_alpha2() {
        let c = cabletron();
        let h = hypothetical_cabletron();
        assert_eq!(c.p_idle_mw, h.p_idle_mw);
        assert_eq!(c.p_rx_mw, h.p_rx_mw);
        assert_eq!(c.p_base_mw, h.p_base_mw);
        assert_eq!(c.nominal_range_m, h.nominal_range_m);
        assert!(h.alpha2 > c.alpha2);
    }

    #[test]
    fn sleep_is_negligible_relative_to_idle() {
        for card in all() {
            assert!(
                card.p_sleep_mw < 0.1 * card.p_idle_mw,
                "{}: sleep power should be far below idle",
                card.name
            );
        }
    }

    #[test]
    fn all_lists_six_cards_with_unique_names() {
        let cards = all();
        assert_eq!(cards.len(), 6);
        let mut names: Vec<_> = cards.iter().map(|c| c.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 6);
    }
}
