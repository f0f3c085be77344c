//! The [`RadioCard`] power profile and path-loss arithmetic.

use std::fmt;

/// The power profile of a wireless interface.
///
/// Powers are in milliwatts, distances in metres, matching the paper's
/// Table 1. Transmission power at distance `d` follows the paper's model
/// `Ptx(d) = Pbase + α₂·dⁿ`, where `Pbase` is the fixed transmitter
/// electronics cost and `α₂·dⁿ` is the radiated power `Pt` needed to cover
/// `d` under 1/dⁿ path loss (2 ≤ n ≤ 4).
///
/// The card's `nominal_range_m` is the distance its maximum radiated power
/// reaches (the `D` values of Fig. 7); control packets are always sent at
/// this maximum (Eq 2), data packets at a controlled level when transmission
/// power control is enabled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadioCard {
    /// Human-readable card name (e.g. `"Cabletron"`).
    pub name: &'static str,
    /// Idle-mode power draw, mW.
    pub p_idle_mw: f64,
    /// Receive-mode power draw, mW.
    pub p_rx_mw: f64,
    /// Sleep-mode power draw, mW (the paper treats it as negligible).
    pub p_sleep_mw: f64,
    /// Base transmitter electronics cost `Pbase`, mW.
    pub p_base_mw: f64,
    /// Transmit amplifier coefficient `α₂` (mW per mⁿ).
    pub alpha2: f64,
    /// Path-loss exponent `n` (2 ≤ n ≤ 4).
    pub path_loss_n: f64,
    /// Maximum reachable distance at full radiated power, m.
    pub nominal_range_m: f64,
    /// Energy charged per sleep→awake transition (`Esw` of Eq 3), mJ.
    pub switch_energy_mj: f64,
}

impl RadioCard {
    /// Radiated (amplifier) power `Pt(d) = α₂·dⁿ` needed to reach `d`
    /// metres, in mW. Not clamped to the card's maximum.
    ///
    /// # Panics
    ///
    /// Panics if `d` is negative or non-finite.
    pub fn radiated_power_mw(&self, d: f64) -> f64 {
        assert!(d.is_finite() && d >= 0.0, "bad distance {d}");
        self.alpha2 * d.powf(self.path_loss_n)
    }

    /// Total transmit power `Ptx(d) = Pbase + Pt(d)` drawn while sending to
    /// a receiver `d` metres away, in mW. Not clamped.
    pub fn tx_total_power_mw(&self, d: f64) -> f64 {
        self.p_base_mw + self.radiated_power_mw(d)
    }

    /// Maximum radiated power `Ptᵐᵃˣ` (at nominal range), mW.
    pub fn max_radiated_power_mw(&self) -> f64 {
        self.radiated_power_mw(self.nominal_range_m)
    }

    /// Maximum total transmit power `Ptxᵐᵃˣ`, mW. Control packets are
    /// charged at this level (Eq 2).
    pub fn max_tx_total_power_mw(&self) -> f64 {
        self.tx_total_power_mw(self.nominal_range_m)
    }

    /// Transmit power used for a data frame to a receiver `d` metres away.
    ///
    /// With `power_control` the radiated power is tuned to the distance
    /// (clamped to the card's maximum); without it the card transmits at
    /// full power regardless of distance.
    pub fn data_tx_power_mw(&self, d: f64, power_control: bool) -> f64 {
        if power_control {
            let pt = self.radiated_power_mw(d).min(self.max_radiated_power_mw());
            self.p_base_mw + pt
        } else {
            self.max_tx_total_power_mw()
        }
    }

    /// `true` if a receiver `d` metres away is within transmission range.
    pub fn in_range(&self, d: f64) -> bool {
        d <= self.nominal_range_m
    }

    /// The distance reachable with radiated power `pt_mw`, in metres
    /// (inverse of [`RadioCard::radiated_power_mw`]).
    ///
    /// # Panics
    ///
    /// Panics if `pt_mw` is negative or non-finite.
    pub fn range_for_radiated_power_m(&self, pt_mw: f64) -> f64 {
        assert!(pt_mw.is_finite() && pt_mw >= 0.0, "bad power {pt_mw}");
        (pt_mw / self.alpha2).powf(1.0 / self.path_loss_n)
    }
}

/// A card together with its distance-independent transmit powers,
/// computed once.
///
/// [`RadioCard::max_radiated_power_mw`] and
/// [`RadioCard::max_tx_total_power_mw`] evaluate `α₂·Dⁿ` with a `powf` on
/// every call, yet depend on the card alone. Code that charges frames in a
/// loop builds one `CardPowers` per distinct card and reads them from it.
/// Every value is the exact `f64` the corresponding [`RadioCard`] method
/// returns: the fields are filled by those very calls, and
/// [`CardPowers::data_tx_power_mw`] repeats the method's expression with
/// the cached maximum in place of its call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CardPowers {
    card: RadioCard,
    max_radiated_mw: f64,
    max_tx_total_mw: f64,
}

impl CardPowers {
    /// Computes `card`'s maximum powers.
    pub fn new(card: RadioCard) -> CardPowers {
        CardPowers {
            card,
            max_radiated_mw: card.max_radiated_power_mw(),
            max_tx_total_mw: card.max_tx_total_power_mw(),
        }
    }

    /// The card the powers belong to.
    #[inline]
    pub fn card(&self) -> &RadioCard {
        &self.card
    }

    /// [`RadioCard::max_radiated_power_mw`].
    #[inline]
    pub fn max_radiated_mw(&self) -> f64 {
        self.max_radiated_mw
    }

    /// [`RadioCard::max_tx_total_power_mw`]: the level control frames are
    /// charged at (Eq 2).
    #[inline]
    pub fn max_tx_total_mw(&self) -> f64 {
        self.max_tx_total_mw
    }

    /// [`RadioCard::data_tx_power_mw`] without recomputing the maximum:
    /// one `powf` with power control, none without.
    pub fn data_tx_power_mw(&self, d: f64, power_control: bool) -> f64 {
        if power_control {
            let pt = self.card.radiated_power_mw(d).min(self.max_radiated_mw);
            self.card.p_base_mw + pt
        } else {
            self.max_tx_total_mw
        }
    }
}

impl fmt::Display for RadioCard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (idle {} mW, rx {} mW, tx(d) = {} + {:.2e}·d^{} mW, D = {} m)",
            self.name,
            self.p_idle_mw,
            self.p_rx_mw,
            self.p_base_mw,
            self.alpha2,
            self.path_loss_n,
            self.nominal_range_m
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::cards;

    #[test]
    fn power_at_range_matches_table1_spot_values() {
        // Cabletron: Pt(250) = 7.2e-8 · 250⁴ ≈ 281 mW.
        let c = cards::cabletron();
        assert!((c.max_radiated_power_mw() - 281.25).abs() < 0.5);
        // Hypothetical Cabletron: Pt(250) = 5.2e-6 · 250⁴ ≈ 20.3 W — the
        // paper's "up to 20 W, above FCC's 1 W cap" observation.
        let h = cards::hypothetical_cabletron();
        assert!((h.max_radiated_power_mw() / 1000.0 - 20.31).abs() < 0.1);
        assert!(h.max_radiated_power_mw() > 1000.0, "exceeds FCC 1 W cap");
    }

    #[test]
    fn tx_power_is_monotone_in_distance() {
        for card in cards::all() {
            let mut last = -1.0;
            for k in 0..=10 {
                let d = card.nominal_range_m * k as f64 / 10.0;
                let p = card.tx_total_power_mw(d);
                assert!(p > last, "{}: Ptx must grow with d", card.name);
                last = p;
            }
        }
    }

    #[test]
    fn range_power_roundtrip() {
        for card in cards::all() {
            for d in [1.0, 10.0, card.nominal_range_m] {
                let p = card.radiated_power_mw(d);
                let back = card.range_for_radiated_power_m(p);
                assert!((back - d).abs() < 1e-6, "{}: roundtrip {d} -> {back}", card.name);
            }
        }
    }

    #[test]
    fn power_control_never_exceeds_max() {
        let c = cards::cabletron();
        for d in [1.0, 100.0, 250.0, 400.0] {
            let p = c.data_tx_power_mw(d, true);
            assert!(p <= c.max_tx_total_power_mw() + 1e-9);
        }
        // Without PC, always max.
        assert_eq!(c.data_tx_power_mw(1.0, false), c.max_tx_total_power_mw());
    }

    #[test]
    fn power_control_saves_at_short_range() {
        let c = cards::cabletron();
        assert!(c.data_tx_power_mw(50.0, true) < c.data_tx_power_mw(50.0, false));
    }

    #[test]
    fn in_range_boundary() {
        let c = cards::mica2();
        assert!(c.in_range(68.0));
        assert!(!c.in_range(68.1));
    }

    #[test]
    #[should_panic(expected = "bad distance")]
    fn negative_distance_panics() {
        cards::cabletron().radiated_power_mw(-1.0);
    }

    #[test]
    fn display_mentions_name() {
        let text = cards::aironet_350().to_string();
        assert!(text.contains("Aironet 350"));
    }
}
