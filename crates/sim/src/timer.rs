//! Lazy keep-alive timers.
//!
//! Power-management protocols such as ODPM refresh a node's keep-alive
//! deadline on *every* forwarded packet. Scheduling a fresh queue event per
//! refresh would flood the event queue; cancelling the old one requires
//! tombstone bookkeeping. [`LazyTimer`] implements the standard alternative:
//! keep at most one outstanding queue event and, when it fires early, simply
//! re-arm it at the current deadline.
//!
//! Protocol:
//! 1. `if timer.arm(deadline) { queue.schedule(deadline, TimerEvent) }`
//! 2. On refresh: `if timer.refresh(new_deadline) { queue.schedule(...) }`
//!    (scheduling is only requested when no event is outstanding).
//! 3. When the event fires: match [`LazyTimer::on_fire`] — [`TimerFire::Expired`]
//!    means act, [`TimerFire::Rearm`] means schedule at the returned instant,
//!    [`TimerFire::Void`] means the timer was cancelled; drop the event.

use crate::time::SimTime;

/// Outcome of a timer event firing; see the module docs for the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerFire {
    /// The deadline has truly passed: perform the timeout action.
    Expired,
    /// The deadline moved later; reschedule the event at this instant.
    Rearm(SimTime),
    /// The timer was cancelled while the event was in flight; do nothing.
    Void,
}

/// A refreshable deadline backed by at most one queue event.
///
/// # Example
///
/// ```
/// use eend_sim::{LazyTimer, SimTime, TimerFire};
///
/// let mut t = LazyTimer::new();
/// assert!(t.arm(SimTime::from_secs(5)), "first arm wants an event");
/// // A packet arrives at t=3s and pushes the deadline to 8s — no new event.
/// assert!(!t.refresh(SimTime::from_secs(8)));
/// // The original event fires at 5s: not expired yet, re-arm at 8s.
/// assert_eq!(t.on_fire(SimTime::from_secs(5)), TimerFire::Rearm(SimTime::from_secs(8)));
/// // Fires again at 8s: now it has expired.
/// assert_eq!(t.on_fire(SimTime::from_secs(8)), TimerFire::Expired);
/// assert!(!t.is_armed());
/// ```
///
/// The deadline is stored bare, with [`SimTime::MAX`] standing for "no
/// deadline": an `Option<SimTime>` would add an 8-byte tag to every
/// node's timer. A deadline at the end of time never expires anyway, so
/// arming at `SimTime::MAX` is the same as leaving the timer disarmed.
#[derive(Debug, Clone)]
pub struct LazyTimer {
    deadline: SimTime,
    outstanding: bool,
}

impl Default for LazyTimer {
    fn default() -> Self {
        LazyTimer { deadline: SimTime::MAX, outstanding: false }
    }
}

impl LazyTimer {
    /// Creates a disarmed timer.
    pub fn new() -> Self {
        LazyTimer::default()
    }

    /// Sets the deadline to `t`. Returns `true` if the caller must schedule
    /// a queue event at `t` (i.e. none is currently outstanding).
    pub fn arm(&mut self, t: SimTime) -> bool {
        self.deadline = t;
        if self.outstanding {
            false
        } else {
            self.outstanding = true;
            true
        }
    }

    /// Pushes the deadline to `t` if that is later than the current one
    /// (arming the timer if it was disarmed). Returns `true` if the caller
    /// must schedule a queue event at the (possibly unchanged) deadline.
    pub fn refresh(&mut self, t: SimTime) -> bool {
        if !self.is_armed() || self.deadline < t {
            self.deadline = t;
        }
        if self.outstanding {
            false
        } else {
            self.outstanding = true;
            true
        }
    }

    /// Cancels the timer. Any in-flight event will report [`TimerFire::Void`].
    pub fn cancel(&mut self) {
        self.deadline = SimTime::MAX;
    }

    /// Handles the backing queue event firing at `now`.
    pub fn on_fire(&mut self, now: SimTime) -> TimerFire {
        match self.deadline() {
            None => {
                self.outstanding = false;
                TimerFire::Void
            }
            Some(d) if now >= d => {
                self.deadline = SimTime::MAX;
                self.outstanding = false;
                TimerFire::Expired
            }
            Some(d) => TimerFire::Rearm(d),
        }
    }

    /// `true` if a deadline is set.
    pub fn is_armed(&self) -> bool {
        self.deadline != SimTime::MAX
    }

    /// The current deadline, if armed.
    pub fn deadline(&self) -> Option<SimTime> {
        self.is_armed().then_some(self.deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(x: u64) -> SimTime {
        SimTime::from_secs(x)
    }

    #[test]
    fn arm_fire_expire() {
        let mut t = LazyTimer::new();
        assert!(t.arm(s(5)));
        assert_eq!(t.on_fire(s(5)), TimerFire::Expired);
        assert!(!t.is_armed());
    }

    #[test]
    fn refresh_does_not_double_schedule() {
        let mut t = LazyTimer::new();
        assert!(t.arm(s(5)));
        assert!(!t.refresh(s(7)));
        assert!(!t.refresh(s(9)));
        assert_eq!(t.on_fire(s(5)), TimerFire::Rearm(s(9)));
        assert_eq!(t.on_fire(s(9)), TimerFire::Expired);
    }

    #[test]
    fn refresh_never_shortens() {
        let mut t = LazyTimer::new();
        assert!(t.arm(s(10)));
        assert!(!t.refresh(s(3)), "earlier refresh needs no event");
        assert_eq!(t.deadline(), Some(s(10)), "deadline must not move earlier");
    }

    #[test]
    fn cancel_voids_in_flight_event() {
        let mut t = LazyTimer::new();
        assert!(t.arm(s(5)));
        t.cancel();
        assert_eq!(t.on_fire(s(5)), TimerFire::Void);
        // After the void fire, a new arm wants a new event.
        assert!(t.arm(s(8)));
    }

    #[test]
    fn cancel_then_rearm_before_fire() {
        let mut t = LazyTimer::new();
        assert!(t.arm(s(5)));
        t.cancel();
        // Re-arm while the old event is still in flight: no second event.
        assert!(!t.arm(s(9)));
        // Old event fires at 5: deadline is 9, so re-arm.
        assert_eq!(t.on_fire(s(5)), TimerFire::Rearm(s(9)));
        assert_eq!(t.on_fire(s(9)), TimerFire::Expired);
    }

    #[test]
    fn arm_overwrites_deadline_even_earlier() {
        // `arm` (unlike `refresh`) is an explicit reset and may shorten.
        let mut t = LazyTimer::new();
        assert!(t.arm(s(10)));
        assert!(!t.arm(s(4)));
        assert_eq!(t.on_fire(s(4)), TimerFire::Expired);
    }

    #[test]
    fn late_fire_still_expires() {
        let mut t = LazyTimer::new();
        assert!(t.arm(s(5)));
        assert_eq!(t.on_fire(s(6)), TimerFire::Expired);
    }

    #[test]
    fn a_deadline_at_the_end_of_time_is_no_deadline() {
        let mut t = LazyTimer::new();
        assert!(t.arm(SimTime::MAX));
        assert!(!t.is_armed());
        assert_eq!(t.on_fire(s(5)), TimerFire::Void);
        assert!(t.refresh(s(3)), "the void fire left no event outstanding");
        assert_eq!(t.deadline(), Some(s(3)));
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn the_timer_is_a_bare_deadline_and_a_flag() {
        assert_eq!(std::mem::size_of::<LazyTimer>(), 16);
    }

    #[test]
    fn only_one_event_outstanding_invariant() {
        // Simulate a busy refresh pattern and count scheduling requests.
        let mut t = LazyTimer::new();
        let mut scheduled = 0;
        if t.arm(s(1)) {
            scheduled += 1;
        }
        for k in 2..100 {
            if t.refresh(s(k)) {
                scheduled += 1;
            }
        }
        assert_eq!(scheduled, 1, "refresh storm must not schedule extra events");
    }
}
