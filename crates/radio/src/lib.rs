//! Wireless card models, path loss and per-node energy accounting.
//!
//! Implements Section 2.1 of Sengul & Kravets (ICDCS 2007): a node's energy
//! consumption is the sum of its communication energy (data + control) and
//! its passive energy (idle + sleep + state switching), each the product of
//! time spent in a radio operating mode and that mode's power draw.
//!
//! The crate provides:
//!
//! - [`RadioCard`]: the power profile of a wireless interface, with the
//!   paper's Table 1 presets in [`cards`] (Aironet 350, Cabletron, the
//!   *Hypothetical Cabletron*, Mica2, LEACH with n = 2 and n = 4);
//! - transmission power as a function of distance,
//!   `Ptx(d) = Pbase + α₂·dⁿ` (the paper's 1/dⁿ path-loss model), plus
//!   power-control helpers, and [`CardPowers`], a card's maximum powers
//!   computed once for loops that charge many frames;
//! - [`EnergyMeter`]: exact integration of energy over state changes with
//!   the data/control split of Eqs 1–2 and the switch cost `Esw` of Eq 3.
//!   A meter holds no card; each call that integrates takes the node's.
//!
//! # Example
//!
//! ```
//! use eend_radio::{cards, EnergyMeter, TrafficClass};
//! use eend_sim::SimTime;
//!
//! let card = cards::cabletron();
//! let mut meter = EnergyMeter::new();
//! // Idle for 1 s, then transmit a data frame at full power for 10 ms.
//! let full = card.max_tx_total_power_mw();
//! meter.begin_tx(&card, SimTime::from_secs(1), full, TrafficClass::Data);
//! meter.set_idle(&card, SimTime::from_secs(1) + eend_sim::SimDuration::from_millis(10));
//! let report = meter.finish(&card, SimTime::from_secs(2));
//! assert!(report.tx_data_mj > 0.0 && report.idle_mj > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod card;
pub mod cards;
pub mod energy;

pub use card::{CardPowers, RadioCard};
pub use energy::{EnergyMeter, EnergyReport, RadioState, TrafficClass};
