//! Power management: 802.11 PSM scheduling, ODPM keep-alives and the
//! TITAN backbone bias.
//!
//! Nodes are in one of two management modes (Section 2.2): *active mode*
//! (AM — always awake) or *power-save mode* (PSM — asleep except during
//! the synchronized ATIM window each beacon interval, and while traffic
//! announced for them is pending). ODPM moves nodes between the modes:
//! routing activity (RREPs) and forwarded data promote a node to AM and
//! arm a keep-alive timer; expiry demotes it back to PSM. TITAN biases
//! route discovery towards nodes that are already AM so sleeping nodes
//! can stay asleep.

use eend_sim::{LazyTimer, SimDuration, SimTime};

/// A node's power-management mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PmMode {
    /// Always awake (transmit/receive/idle).
    ActiveMode,
    /// IEEE-PSM schedule: asleep outside the ATIM window unless traffic
    /// is announced.
    PowerSave,
}

/// IEEE 802.11 PSM parameters (the paper uses 0.3 s beacons and a 0.02 s
/// ATIM window, the values suggested by the Span authors).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PsmConfig {
    /// Beacon interval.
    pub beacon_interval: SimDuration,
    /// ATIM window length at the start of each beacon interval.
    pub atim_window: SimDuration,
    /// Span-style improvement (Section 5.2.1): broadcasts are advertised
    /// with a traffic window so PSM receivers sleep again after receiving
    /// the advertised frames, instead of staying awake the whole interval.
    pub span_improved: bool,
    /// How long after the ATIM window a Span-improved receiver stays up
    /// to collect advertised broadcasts.
    pub span_window: SimDuration,
}

impl PsmConfig {
    /// The paper's configuration: 0.3 s beacon, 0.02 s ATIM, baseline PSM.
    pub fn paper_default() -> PsmConfig {
        PsmConfig {
            beacon_interval: SimDuration::from_millis(300),
            atim_window: SimDuration::from_millis(20),
            span_improved: false,
            span_window: SimDuration::from_millis(60),
        }
    }

    /// Same timing with the Span advertised-traffic-window improvement.
    pub fn span_improved() -> PsmConfig {
        PsmConfig { span_improved: true, ..PsmConfig::paper_default() }
    }
}

/// The power-management policy a scenario runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PowerPolicy {
    /// Every node stays in AM forever (the DSR-Active baseline).
    AlwaysActive,
    /// On-demand power management: AM while routing/forwarding, PSM
    /// otherwise (keep-alives per the paper: 5 s data, 10 s RREP).
    Odpm {
        /// Keep-alive armed by forwarded/received data.
        data_keepalive: SimDuration,
        /// Keep-alive armed by sending/receiving/forwarding RREPs.
        rrep_keepalive: SimDuration,
    },
}

impl PowerPolicy {
    /// The paper's ODPM setting: 5 s data / 10 s RREP keep-alives.
    pub fn odpm_paper() -> PowerPolicy {
        PowerPolicy::Odpm {
            data_keepalive: SimDuration::from_secs(5),
            rrep_keepalive: SimDuration::from_secs(10),
        }
    }

    /// The aggressive timers of the DSDVH-ODPM(0.6, 1.2)-Span variant.
    pub fn odpm_fast() -> PowerPolicy {
        PowerPolicy::Odpm {
            data_keepalive: SimDuration::from_millis(600),
            rrep_keepalive: SimDuration::from_millis(1200),
        }
    }

    /// Mode nodes start in under this policy.
    pub fn initial_mode(&self) -> PmMode {
        match self {
            PowerPolicy::AlwaysActive => PmMode::ActiveMode,
            PowerPolicy::Odpm { .. } => PmMode::PowerSave,
        }
    }
}

/// TITAN's probabilistic route-discovery participation (Section 4.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TitanConfig {
    /// How strongly AM (backbone) neighbour coverage suppresses RREQ
    /// forwarding by PSM nodes (0 = never suppress, 1 = fully proportional).
    pub bias: f64,
    /// Forwarding-probability floor for PSM nodes, keeping discovery
    /// alive in sparse backbones.
    pub p_min: f64,
    /// Extra forwarding delay applied by PSM nodes so backbone paths win
    /// the race to the target.
    pub psm_delay: SimDuration,
}

impl TitanConfig {
    /// Defaults used throughout the evaluation (the MASS'05 constants are
    /// not public; these are ablated in `eend-bench`).
    pub fn paper_default() -> TitanConfig {
        TitanConfig { bias: 0.9, p_min: 0.15, psm_delay: SimDuration::from_millis(20) }
    }

    /// TITAN's forwarding probability for a node in PSM with
    /// `backbone_neighbors` of its `neighbors` in AM. AM nodes always
    /// forward (probability 1, handled by the caller).
    pub fn forward_probability(&self, neighbors: usize, backbone_neighbors: usize) -> f64 {
        if neighbors == 0 {
            return 1.0;
        }
        let coverage = backbone_neighbors as f64 / neighbors as f64;
        (1.0 - self.bias * coverage).max(self.p_min)
    }
}

/// Per-node power-management state.
#[derive(Debug, Clone)]
pub struct NodePm {
    /// Current mode.
    pub mode: PmMode,
    /// For PSM nodes: instant until which the node stays awake (ATIM
    /// announcements and Span windows push this forward).
    pub awake_until: SimTime,
    /// ODPM keep-alive.
    pub keepalive: LazyTimer,
    /// Unicast frames announced to this node and not yet received
    /// (Span-improved receivers may sleep once this drains).
    pub announced_incoming: u32,
}

impl NodePm {
    /// Fresh state in the given mode.
    pub fn new(mode: PmMode) -> NodePm {
        NodePm {
            mode,
            awake_until: SimTime::ZERO,
            keepalive: LazyTimer::new(),
            announced_incoming: 0,
        }
    }

    /// `true` if the node can receive at `now` (`in_atim` = the global
    /// clock is inside the ATIM window).
    pub fn is_awake(&self, now: SimTime, in_atim: bool) -> bool {
        match self.mode {
            PmMode::ActiveMode => true,
            PmMode::PowerSave => in_atim || now < self.awake_until,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_modes() {
        assert_eq!(PowerPolicy::AlwaysActive.initial_mode(), PmMode::ActiveMode);
        assert_eq!(PowerPolicy::odpm_paper().initial_mode(), PmMode::PowerSave);
    }

    #[test]
    fn odpm_paper_timers() {
        let PowerPolicy::Odpm { data_keepalive, rrep_keepalive } = PowerPolicy::odpm_paper() else {
            panic!("odpm_paper must be Odpm")
        };
        assert_eq!(data_keepalive, SimDuration::from_secs(5));
        assert_eq!(rrep_keepalive, SimDuration::from_secs(10));
    }

    #[test]
    fn psm_paper_intervals() {
        let p = PsmConfig::paper_default();
        assert_eq!(p.beacon_interval, SimDuration::from_millis(300));
        assert_eq!(p.atim_window, SimDuration::from_millis(20));
        assert!(!p.span_improved);
        assert!(PsmConfig::span_improved().span_improved);
    }

    #[test]
    fn titan_probability_monotone_in_coverage() {
        let t = TitanConfig::paper_default();
        let mut last = f64::INFINITY;
        for b in 0..=10 {
            let p = t.forward_probability(10, b);
            assert!(p <= last, "p must fall as backbone coverage rises");
            assert!((t.p_min..=1.0).contains(&p));
            last = p;
        }
        // Isolated node: always forward.
        assert_eq!(t.forward_probability(0, 0), 1.0);
        // No backbone: full participation.
        assert_eq!(t.forward_probability(8, 0), 1.0);
    }

    #[test]
    fn awake_logic() {
        let mut pm = NodePm::new(PmMode::PowerSave);
        let now = SimTime::from_secs(1);
        assert!(!pm.is_awake(now, false), "PSM node sleeps outside ATIM");
        assert!(pm.is_awake(now, true), "everyone is up during ATIM");
        pm.awake_until = SimTime::from_secs(2);
        assert!(pm.is_awake(now, false), "announced traffic keeps it up");
        pm.mode = PmMode::ActiveMode;
        pm.awake_until = SimTime::ZERO;
        assert!(pm.is_awake(now, false), "AM is always awake");
    }
}
