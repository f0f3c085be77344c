//! Per-node energy integration (Eqs 1–4 of the paper).
//!
//! [`EnergyMeter`] tracks a node's radio state over simulation time and
//! integrates power × time on every transition, splitting communication
//! energy between data and control traffic (control frames are charged at
//! maximum transmit power, Eq 2) and passive energy between idle, sleep and
//! switching cost `Esw` (Eq 3).

use crate::card::RadioCard;
use eend_sim::{SimDuration, SimTime};

/// The four operating modes of a wireless interface (Section 2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RadioState {
    /// Actively transmitting a frame.
    Transmit,
    /// Actively receiving a frame.
    Receive,
    /// Awake but neither sending nor receiving; draws near-receive power.
    Idle,
    /// Power-save sleep; draws negligible power but cannot communicate.
    Sleep,
}

/// Whether a frame carries application data or protocol control traffic.
///
/// The split matters because `Ecomm = Edata + Econtrol` (Eq 1–2) and the
/// paper's central argument is about which heuristics blow up `Econtrol`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// Application payload (CBR packets).
    Data,
    /// Routing / MAC control overhead (RREQ, RREP, beacons, ATIM, RTS...).
    Control,
}

/// Accumulated energy and residency of one node, in millijoules/durations.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyReport {
    /// Energy spent idling, mJ.
    pub idle_mj: f64,
    /// Energy spent sleeping, mJ.
    pub sleep_mj: f64,
    /// Energy spent on sleep→awake transitions (`Esw`), mJ.
    pub switch_mj: f64,
    /// Energy transmitting data frames, mJ.
    pub tx_data_mj: f64,
    /// Energy transmitting control frames, mJ.
    pub tx_ctrl_mj: f64,
    /// Energy receiving data frames, mJ.
    pub rx_data_mj: f64,
    /// Energy receiving control frames, mJ.
    pub rx_ctrl_mj: f64,
    /// Time spent in transmit mode.
    pub time_tx: SimDuration,
    /// Time spent in receive mode.
    pub time_rx: SimDuration,
    /// Time spent idle.
    pub time_idle: SimDuration,
    /// Time spent asleep.
    pub time_sleep: SimDuration,
    /// Number of sleep→awake transitions.
    pub wakeups: u64,
}

impl EnergyReport {
    /// Communication energy `Ecomm = Edata + Econtrol` (Eq 1 + Eq 2), mJ.
    pub fn comm_mj(&self) -> f64 {
        self.tx_data_mj + self.tx_ctrl_mj + self.rx_data_mj + self.rx_ctrl_mj
    }

    /// Passive energy `Epassive = idle + sleep + Esw` (Eq 3), mJ.
    pub fn passive_mj(&self) -> f64 {
        self.idle_mj + self.sleep_mj + self.switch_mj
    }

    /// Total node energy `Ecomm + Epassive` (Eq 4 summand), mJ.
    pub fn total_mj(&self) -> f64 {
        self.comm_mj() + self.passive_mj()
    }

    /// Data-traffic energy `Edata` (Eq 1), mJ.
    pub fn data_mj(&self) -> f64 {
        self.tx_data_mj + self.rx_data_mj
    }

    /// Control-overhead energy `Econtrol` (Eq 2), mJ.
    pub fn control_mj(&self) -> f64 {
        self.tx_ctrl_mj + self.rx_ctrl_mj
    }

    /// Transmit-side energy (the quantity plotted in Fig 10), mJ.
    pub fn transmit_mj(&self) -> f64 {
        self.tx_data_mj + self.tx_ctrl_mj
    }

    /// Element-wise accumulation, used to aggregate a network total (Eq 4).
    pub fn accumulate(&mut self, other: &EnergyReport) {
        self.idle_mj += other.idle_mj;
        self.sleep_mj += other.sleep_mj;
        self.switch_mj += other.switch_mj;
        self.tx_data_mj += other.tx_data_mj;
        self.tx_ctrl_mj += other.tx_ctrl_mj;
        self.rx_data_mj += other.rx_data_mj;
        self.rx_ctrl_mj += other.rx_ctrl_mj;
        self.time_tx += other.time_tx;
        self.time_rx += other.time_rx;
        self.time_idle += other.time_idle;
        self.time_sleep += other.time_sleep;
        self.wakeups += other.wakeups;
    }
}

/// Integrates one node's energy over its radio-state trajectory.
///
/// State changes are pushed by the MAC/power-management layers via
/// [`EnergyMeter::begin_tx`], [`EnergyMeter::begin_rx`],
/// [`EnergyMeter::set_idle`] and [`EnergyMeter::set_sleep`]; each call
/// charges the elapsed interval at the power of the *previous* state.
/// Timestamps must be non-decreasing.
///
/// The meter holds no card: every call that integrates energy takes the
/// node's [`RadioCard`], so a simulator keeps one copy per distinct card
/// rather than one per node. Pass the same card on every call.
#[derive(Debug, Clone)]
pub struct EnergyMeter {
    state: RadioState,
    tx_power_mw: f64,
    class: TrafficClass,
    last: SimTime,
    report: EnergyReport,
}

impl Default for EnergyMeter {
    fn default() -> Self {
        Self::new()
    }
}

impl EnergyMeter {
    /// Creates a meter starting idle at time zero.
    pub fn new() -> Self {
        Self::starting(SimTime::ZERO, RadioState::Idle)
    }

    /// Creates a meter starting in `state` at `t0`.
    pub fn starting(t0: SimTime, state: RadioState) -> Self {
        EnergyMeter {
            state,
            tx_power_mw: 0.0,
            class: TrafficClass::Data,
            last: t0,
            report: EnergyReport::default(),
        }
    }

    /// Current radio state.
    pub fn state(&self) -> RadioState {
        self.state
    }

    fn charge_until(&mut self, card: &RadioCard, now: SimTime) {
        debug_assert!(
            now >= self.last,
            "energy meter time went backwards: {} < {}",
            now,
            self.last
        );
        let dt = now.saturating_since(self.last);
        let secs = dt.as_secs_f64();
        match self.state {
            RadioState::Transmit => {
                let e = self.tx_power_mw * secs;
                match self.class {
                    TrafficClass::Data => self.report.tx_data_mj += e,
                    TrafficClass::Control => self.report.tx_ctrl_mj += e,
                }
                self.report.time_tx += dt;
            }
            RadioState::Receive => {
                let e = card.p_rx_mw * secs;
                match self.class {
                    TrafficClass::Data => self.report.rx_data_mj += e,
                    TrafficClass::Control => self.report.rx_ctrl_mj += e,
                }
                self.report.time_rx += dt;
            }
            RadioState::Idle => {
                self.report.idle_mj += card.p_idle_mw * secs;
                self.report.time_idle += dt;
            }
            RadioState::Sleep => {
                self.report.sleep_mj += card.p_sleep_mw * secs;
                self.report.time_sleep += dt;
            }
        }
        self.last = now;
    }

    fn transition(&mut self, card: &RadioCard, now: SimTime, next: RadioState) {
        self.charge_until(card, now);
        if self.state == RadioState::Sleep && next != RadioState::Sleep {
            self.report.switch_mj += card.switch_energy_mj;
            self.report.wakeups += 1;
        }
        self.state = next;
    }

    /// Enters transmit mode at `now`, drawing `power_mw` for a frame of the
    /// given class.
    ///
    /// # Panics
    ///
    /// Panics if `power_mw` is negative or non-finite.
    pub fn begin_tx(&mut self, card: &RadioCard, now: SimTime, power_mw: f64, class: TrafficClass) {
        assert!(power_mw.is_finite() && power_mw >= 0.0, "bad tx power {power_mw}");
        self.transition(card, now, RadioState::Transmit);
        self.tx_power_mw = power_mw;
        self.class = class;
    }

    /// Enters receive mode at `now` for a frame of the given class.
    pub fn begin_rx(&mut self, card: &RadioCard, now: SimTime, class: TrafficClass) {
        self.transition(card, now, RadioState::Receive);
        self.class = class;
    }

    /// Returns to idle at `now`.
    pub fn set_idle(&mut self, card: &RadioCard, now: SimTime) {
        self.transition(card, now, RadioState::Idle);
    }

    /// Enters sleep at `now`.
    pub fn set_sleep(&mut self, card: &RadioCard, now: SimTime) {
        self.transition(card, now, RadioState::Sleep);
    }

    /// Charges the final interval up to `end` and returns the report.
    /// The meter remains usable (it simply keeps integrating from `end`).
    pub fn finish(&mut self, card: &RadioCard, end: SimTime) -> EnergyReport {
        self.charge_until(card, end);
        self.report
    }

    /// The report as of the last charged instant, without advancing time.
    pub fn report_so_far(&self) -> &EnergyReport {
        &self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cards;
    use eend_sim::SimDuration;
    use proptest::prelude::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn idle_integration_exact() {
        let card = cards::cabletron();
        let mut m = EnergyMeter::new();
        let r = m.finish(&card, SimTime::from_secs(10));
        // 830 mW × 10 s = 8300 mJ.
        assert!((r.idle_mj - 8300.0).abs() < 1e-9);
        assert_eq!(r.time_idle, SimDuration::from_secs(10));
        assert_eq!(r.comm_mj(), 0.0);
    }

    #[test]
    fn tx_rx_split_by_class() {
        let card = cards::cabletron();
        let mut m = EnergyMeter::new();
        m.begin_tx(&card, t(0), 1399.0, TrafficClass::Data);
        m.begin_rx(&card, t(100), TrafficClass::Control);
        m.set_idle(&card, t(200));
        let r = m.finish(&card, t(200));
        assert!((r.tx_data_mj - 139.9).abs() < 1e-9, "1399 mW × 0.1 s");
        assert!((r.rx_ctrl_mj - 100.0).abs() < 1e-9, "1000 mW × 0.1 s");
        assert_eq!(r.tx_ctrl_mj, 0.0);
        assert_eq!(r.rx_data_mj, 0.0);
        assert!((r.data_mj() - 139.9).abs() < 1e-9);
        assert!((r.control_mj() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn sleep_and_wakeup_cost() {
        let card = cards::cabletron();
        let mut m = EnergyMeter::new();
        m.set_sleep(&card, t(0));
        m.set_idle(&card, t(1000));
        let r = m.finish(&card, t(1000));
        // 50 mW × 1 s sleep + one Esw charge.
        assert!((r.sleep_mj - 50.0).abs() < 1e-9);
        assert!((r.switch_mj - card.switch_energy_mj).abs() < 1e-12);
        assert_eq!(r.wakeups, 1);
    }

    #[test]
    fn sleep_to_sleep_costs_nothing_extra() {
        let card = cards::cabletron();
        let mut m = EnergyMeter::new();
        m.set_sleep(&card, t(0));
        m.set_sleep(&card, t(500));
        let r = m.finish(&card, t(1000));
        assert_eq!(r.wakeups, 0);
        assert_eq!(r.switch_mj, 0.0);
    }

    #[test]
    fn passive_dominates_when_no_traffic() {
        // The paper's Feeney–Nilsson point: with no communication, idle
        // energy dominates total consumption.
        let card = cards::cabletron();
        let mut m = EnergyMeter::new();
        m.begin_tx(&card, SimTime::from_secs(10), card.max_tx_total_power_mw(), TrafficClass::Data);
        m.set_idle(&card, SimTime::from_secs(10) + SimDuration::from_millis(5));
        let r = m.finish(&card, SimTime::from_secs(900));
        assert!(r.passive_mj() > 100.0 * r.comm_mj());
    }

    #[test]
    fn report_accumulate_adds_fields() {
        let card = cards::mica2();
        let mut a = EnergyMeter::new();
        a.begin_tx(&card, t(0), 30.0, TrafficClass::Data);
        let ra = a.finish(&card, t(1000));
        let mut b = EnergyMeter::new();
        b.begin_rx(&card, t(0), TrafficClass::Data);
        let rb = b.finish(&card, t(1000));
        let mut total = EnergyReport::default();
        total.accumulate(&ra);
        total.accumulate(&rb);
        assert!((total.total_mj() - (ra.total_mj() + rb.total_mj())).abs() < 1e-9);
        assert_eq!(total.time_tx, SimDuration::from_secs(1));
        assert_eq!(total.time_rx, SimDuration::from_secs(1));
    }

    #[test]
    fn finish_is_resumable() {
        let card = cards::mica2();
        let mut m = EnergyMeter::new();
        let r1 = m.finish(&card, SimTime::from_secs(1));
        let r2 = m.finish(&card, SimTime::from_secs(2));
        assert!((r2.idle_mj - 2.0 * r1.idle_mj).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "bad tx power")]
    fn negative_power_panics() {
        let card = cards::mica2();
        let mut m = EnergyMeter::new();
        m.begin_tx(&card, t(0), f64::NAN, TrafficClass::Data);
    }

    proptest! {
        /// Energy conservation: bucket sums always equal the total, and the
        /// time residencies sum to the elapsed span, whatever the walk.
        #[test]
        fn random_walk_conserves_energy(steps in proptest::collection::vec((0u8..4, 1u64..10_000), 1..100)) {
            let card = cards::cabletron();
            let mut m = EnergyMeter::new();
            let mut now = SimTime::ZERO;
            for (s, dt) in steps {
                now += SimDuration::from_micros(dt);
                match s {
                    0 => m.begin_tx(&card, now, 1500.0, TrafficClass::Data),
                    1 => m.begin_rx(&card, now, TrafficClass::Control),
                    2 => m.set_idle(&card, now),
                    _ => m.set_sleep(&card, now),
                }
            }
            let end = now + SimDuration::from_millis(1);
            let r = m.finish(&card, end);
            let sum = r.idle_mj + r.sleep_mj + r.switch_mj + r.tx_data_mj
                + r.tx_ctrl_mj + r.rx_data_mj + r.rx_ctrl_mj;
            prop_assert!((sum - r.total_mj()).abs() < 1e-9);
            let residency = r.time_tx + r.time_rx + r.time_idle + r.time_sleep;
            prop_assert_eq!(residency, end - SimTime::ZERO);
            prop_assert!(r.total_mj() >= 0.0);
        }
    }
}
