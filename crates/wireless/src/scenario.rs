//! Scenario configuration and the paper's protocol stacks.

use crate::mac::MacTiming;
use crate::power::{PowerPolicy, PsmConfig, TitanConfig};
use crate::routing::{DsdvConfig, ReactiveConfig, RouteMetric, StaticConfig};
use crate::topology::Placement;
use crate::traffic::FlowSpec;
use eend_radio::RadioCard;
use eend_sim::SimDuration;

/// Which routing family a stack runs.
#[derive(Debug, Clone, PartialEq)]
pub enum RoutingKind {
    /// DSR-family reactive source routing.
    Reactive(ReactiveConfig),
    /// DSDV-family proactive distance vector.
    Dsdv(DsdvConfig),
    /// Fixed per-flow source routes — no discovery, no control traffic.
    /// Used by the design↔simulate loop to score a designer's exact
    /// routing under the full MAC/PHY/power machinery.
    Static(StaticConfig),
}

/// A complete protocol stack: routing × power management × power control —
/// one legend entry of the paper's figures.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolStack {
    /// Display name (matches the paper's legends).
    pub name: String,
    /// Routing configuration.
    pub routing: RoutingKind,
    /// Power-management policy.
    pub power_policy: PowerPolicy,
    /// PSM scheduling parameters.
    pub psm: PsmConfig,
    /// Transmission power control for data frames.
    pub power_control: bool,
}

/// Builders for every stack in the paper's evaluation.
pub mod stacks {
    use super::*;

    fn reactive(name: &str, cfg: ReactiveConfig, policy: PowerPolicy, pc: bool) -> ProtocolStack {
        ProtocolStack {
            name: name.to_owned(),
            routing: RoutingKind::Reactive(cfg),
            power_policy: policy,
            psm: PsmConfig::paper_default(),
            power_control: pc,
        }
    }

    /// DSR with every node always awake (baseline).
    pub fn dsr_active() -> ProtocolStack {
        reactive(
            "DSR-Active",
            ReactiveConfig::new(RouteMetric::HopCount),
            PowerPolicy::AlwaysActive,
            false,
        )
    }

    /// DSR + ODPM (baseline with power management).
    pub fn dsr_odpm() -> ProtocolStack {
        reactive(
            "DSR-ODPM",
            ReactiveConfig::new(RouteMetric::HopCount),
            PowerPolicy::odpm_paper(),
            false,
        )
    }

    /// Approach 3, first variant: DSR + ODPM + per-link power control.
    pub fn dsr_odpm_pc() -> ProtocolStack {
        reactive(
            "DSR-ODPM-PC",
            ReactiveConfig::new(RouteMetric::HopCount),
            PowerPolicy::odpm_paper(),
            true,
        )
    }

    /// Approach 3, second variant: TITAN backbone bias + power control.
    pub fn titan_pc() -> ProtocolStack {
        reactive(
            "TITAN-PC",
            ReactiveConfig::new(RouteMetric::HopCount).with_titan(TitanConfig::paper_default()),
            PowerPolicy::odpm_paper(),
            true,
        )
    }

    /// Approach 1: MTPR (`plus = false`) or MTPR+ (`plus = true`), all
    /// nodes active (the Section 5.2.3 "perfect scheduling" setting).
    pub fn mtpr(plus: bool) -> ProtocolStack {
        reactive(
            if plus { "MTPR+" } else { "MTPR" },
            ReactiveConfig::new(if plus {
                RouteMetric::TotalPower
            } else {
                RouteMetric::RadiatedPower
            }),
            PowerPolicy::AlwaysActive,
            true,
        )
    }

    /// Approach 1 with ODPM switching the idle nodes to PSM.
    pub fn mtpr_odpm(plus: bool) -> ProtocolStack {
        reactive(
            if plus { "MTPR+-ODPM" } else { "MTPR-ODPM" },
            ReactiveConfig::new(if plus {
                RouteMetric::TotalPower
            } else {
                RouteMetric::RadiatedPower
            }),
            PowerPolicy::odpm_paper(),
            true,
        )
    }

    /// Approach 2, reactive: DSRH-ODPM with (`rate = true`) or without
    /// per-flow rate information.
    pub fn dsrh_odpm(rate: bool) -> ProtocolStack {
        reactive(
            if rate { "DSRH-ODPM (rate)" } else { "DSRH-ODPM (norate)" },
            ReactiveConfig::new(if rate {
                RouteMetric::JointRate
            } else {
                RouteMetric::JointNoRate
            }),
            PowerPolicy::odpm_paper(),
            true,
        )
    }

    /// DSRH without power management (perfect-scheduling comparisons).
    pub fn dsrh_active(rate: bool) -> ProtocolStack {
        reactive(
            if rate { "DSRH (rate)" } else { "DSRH (norate)" },
            ReactiveConfig::new(if rate {
                RouteMetric::JointRate
            } else {
                RouteMetric::JointNoRate
            }),
            PowerPolicy::AlwaysActive,
            true,
        )
    }

    /// DSR without power management but with power control.
    pub fn dsr_pc_active() -> ProtocolStack {
        reactive("DSR", ReactiveConfig::new(RouteMetric::HopCount), PowerPolicy::AlwaysActive, true)
    }

    /// Approach 2, proactive: DSDVH-ODPM(5, 10) over baseline IEEE PSM.
    pub fn dsdvh_odpm() -> ProtocolStack {
        ProtocolStack {
            name: "DSDVH-ODPM(5,10)-PSM".to_owned(),
            routing: RoutingKind::Dsdv(DsdvConfig::dsdvh()),
            power_policy: PowerPolicy::odpm_paper(),
            psm: PsmConfig::paper_default(),
            power_control: true,
        }
    }

    /// DSDVH-ODPM(0.6, 1.2) over Span-improved PSM (Section 5.2.1's tuned
    /// variant).
    pub fn dsdvh_odpm_span() -> ProtocolStack {
        ProtocolStack {
            name: "DSDVH-ODPM(0.6,1.2)-Span".to_owned(),
            routing: RoutingKind::Dsdv(DsdvConfig::dsdvh()),
            power_policy: PowerPolicy::odpm_fast(),
            psm: PsmConfig::span_improved(),
            power_control: true,
        }
    }

    /// Fixed per-flow source routes (the design↔simulate loop's stack):
    /// no discovery or advertisement traffic, ODPM power management (or
    /// always-active when `odpm` is false), optional power control.
    /// Not part of [`stacks::all`] — it is parameterised by a route table,
    /// not a named point of the paper's evaluation.
    pub fn fixed_routes(
        routes: Vec<Option<Vec<crate::frame::NodeId>>>,
        odpm: bool,
        pc: bool,
    ) -> ProtocolStack {
        ProtocolStack {
            name: if odpm { "Static-ODPM" } else { "Static-Active" }.to_owned(),
            routing: RoutingKind::Static(StaticConfig::new(routes)),
            power_policy: if odpm { PowerPolicy::odpm_paper() } else { PowerPolicy::AlwaysActive },
            psm: PsmConfig::paper_default(),
            power_control: pc,
        }
    }

    /// Every stack of the paper's evaluation, for tools that iterate or
    /// look up by name.
    pub fn all() -> Vec<ProtocolStack> {
        vec![
            dsr_active(),
            dsr_odpm(),
            dsr_odpm_pc(),
            titan_pc(),
            mtpr(false),
            mtpr(true),
            mtpr_odpm(false),
            mtpr_odpm(true),
            dsrh_odpm(false),
            dsrh_odpm(true),
            dsrh_active(false),
            dsrh_active(true),
            dsr_pc_active(),
            dsdvh_odpm(),
            dsdvh_odpm_span(),
        ]
    }

    /// Looks a stack up by its display name, case-insensitively
    /// (e.g. `"titan-pc"` or `"DSRH-ODPM (norate)"`).
    pub fn by_name(name: &str) -> Option<ProtocolStack> {
        let want = name.to_ascii_lowercase();
        all().into_iter().find(|s| s.name.to_ascii_lowercase() == want)
    }
}

/// How radio cards are distributed over the nodes of a scenario.
///
/// The paper's evaluation is homogeneous ([`CardAssignment::Uniform`]);
/// heterogeneous deployments mix power profiles. Per-node cards drive
/// **energy accounting, transmit-power control and routing link
/// metrics**; PHY connectivity and carrier sense keep using the
/// scenario's base [`Scenario::card`] range, so mixed cells model
/// hardware whose radios share a common link layer but differ in power
/// draw (e.g. Cabletron vs the paper's Hypothetical Cabletron, which
/// are range-identical by construction).
#[derive(Debug, Clone, PartialEq)]
pub enum CardAssignment {
    /// Every node carries [`Scenario::card`] (the paper's setting).
    Uniform,
    /// Node `i` carries `cards[i % cards.len()]` — a deterministic
    /// interleaving of card classes across the field.
    Alternating(Vec<RadioCard>),
}

/// Named, CLI-addressable card assignments — the radio-profile axis of a
/// campaign. Profiles deliberately mix cards with the **same nominal
/// range** as the presets' base cards (see [`CardAssignment`]).
pub mod radio_profiles {
    use super::CardAssignment;
    use eend_radio::cards;

    /// A named card assignment, addressable from `--radio-profile` and
    /// store manifests.
    #[derive(Debug, Clone, PartialEq)]
    pub struct RadioProfile {
        /// Registry name (e.g. `"uniform"`, `"mixed-hypo"`).
        pub name: &'static str,
        /// The assignment the profile applies to a scenario.
        pub assignment: CardAssignment,
    }

    /// The preset's own homogeneous card on every node.
    pub fn uniform() -> RadioProfile {
        RadioProfile { name: "uniform", assignment: CardAssignment::Uniform }
    }

    /// Alternating Cabletron / Hypothetical Cabletron — the two cards are
    /// range-identical, so only the amplifier energy model varies.
    pub fn mixed_hypo() -> RadioProfile {
        RadioProfile {
            name: "mixed-hypo",
            assignment: CardAssignment::Alternating(vec![
                cards::cabletron(),
                cards::hypothetical_cabletron(),
            ]),
        }
    }

    /// A 2:1 Cabletron / Hypothetical Cabletron mix — every third node
    /// pays the hypothetical card's amplifier premium, a lighter
    /// heterogeneity level than [`mixed_hypo`]'s 1:1 interleaving.
    pub fn sparse_hypo() -> RadioProfile {
        RadioProfile {
            name: "sparse-hypo",
            assignment: CardAssignment::Alternating(vec![
                cards::cabletron(),
                cards::cabletron(),
                cards::hypothetical_cabletron(),
            ]),
        }
    }

    /// Every registered profile. All profiles mix only cards that share
    /// one nominal range (enforced by the registry tests): per-node
    /// cards drive energy, not PHY connectivity, so a range-mismatched
    /// mix would bill transmissions the mismatched card could not
    /// physically make.
    pub fn all() -> Vec<RadioProfile> {
        vec![uniform(), mixed_hypo(), sparse_hypo()]
    }

    /// Looks a profile up by name, case-insensitively.
    pub fn by_name(name: &str) -> Option<RadioProfile> {
        let want = name.trim().to_ascii_lowercase();
        all().into_iter().find(|p| p.name == want)
    }
}

/// A full simulation scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Node placement.
    pub placement: Placement,
    /// The base radio card: carried by all nodes under
    /// [`CardAssignment::Uniform`], and always the PHY reference for
    /// transmission range and carrier sense.
    pub card: RadioCard,
    /// Protocol stack under test.
    pub stack: ProtocolStack,
    /// Traffic workload.
    pub flows: FlowSpec,
    /// Simulated duration.
    pub duration: SimDuration,
    /// Master seed (placement, flows, MAC backoff, TITAN draws).
    pub seed: u64,
    /// MAC/PHY timing.
    pub mac: MacTiming,
    /// Interface queue capacity, packets (ns-2's default 50).
    pub queue_capacity: usize,
    /// Failure injection: `(instant, node)` pairs at which nodes die
    /// (radio off, unreachable, never recover). Empty in the paper's
    /// static scenarios; used by the fault-tolerance tests.
    pub node_failures: Vec<(eend_sim::SimTime, crate::frame::NodeId)>,
    /// Node mobility model ([`crate::mobility::Mobility::Static`] in all
    /// of the paper's scenarios).
    pub mobility: crate::mobility::Mobility,
    /// Per-node radio-card distribution ([`CardAssignment::Uniform`], the
    /// paper's homogeneous setting, by default).
    pub card_assignment: CardAssignment,
}

impl Scenario {
    /// A scenario with the paper's MAC defaults (2 Mb/s 802.11, IFQ 50).
    pub fn new(
        placement: Placement,
        card: RadioCard,
        stack: ProtocolStack,
        flows: FlowSpec,
        duration: SimDuration,
        seed: u64,
    ) -> Scenario {
        Scenario {
            placement,
            card,
            stack,
            flows,
            duration,
            seed,
            mac: MacTiming::ieee80211_2mbps(),
            queue_capacity: 50,
            node_failures: Vec::new(),
            mobility: crate::mobility::Mobility::Static,
            card_assignment: CardAssignment::Uniform,
        }
    }

    /// Schedules `node` to die at `at` (see [`Scenario::node_failures`]).
    pub fn with_node_failure(
        mut self,
        at: eend_sim::SimTime,
        node: crate::frame::NodeId,
    ) -> Scenario {
        self.node_failures.push((at, node));
        self
    }

    /// Sets the mobility model (see [`crate::mobility::Mobility`]).
    pub fn with_mobility(mut self, mobility: crate::mobility::Mobility) -> Scenario {
        self.mobility = mobility;
        self
    }

    /// Sets the per-node card distribution (see [`CardAssignment`]).
    pub fn with_card_assignment(mut self, assignment: CardAssignment) -> Scenario {
        self.card_assignment = assignment;
        self
    }

    /// The card each of `n` nodes carries under this scenario's
    /// [`CardAssignment`].
    ///
    /// # Panics
    ///
    /// Panics on an [`CardAssignment::Alternating`] assignment that is
    /// empty or mixes cards whose nominal range differs from the base
    /// [`Scenario::card`]: PHY connectivity always uses the base card's
    /// range, so a range-mismatched per-node card would be billed for
    /// transmissions it could not physically make.
    pub fn node_cards(&self, n: usize) -> Vec<RadioCard> {
        match &self.card_assignment {
            CardAssignment::Uniform => vec![self.card; n],
            CardAssignment::Alternating(cards) => {
                assert!(!cards.is_empty(), "alternating assignment needs at least one card");
                for c in cards {
                    assert!(
                        c.nominal_range_m == self.card.nominal_range_m,
                        "card assignment mixes {} (range {} m) with base card {} (range {} m) — \
                         per-node cards must match the base card's PHY range",
                        c.name,
                        c.nominal_range_m,
                        self.card.name,
                        self.card.nominal_range_m
                    );
                }
                (0..n).map(|i| cards[i % cards.len()]).collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_names_match_paper_legends() {
        assert_eq!(stacks::dsr_active().name, "DSR-Active");
        assert_eq!(stacks::dsr_odpm().name, "DSR-ODPM");
        assert_eq!(stacks::dsr_odpm_pc().name, "DSR-ODPM-PC");
        assert_eq!(stacks::titan_pc().name, "TITAN-PC");
        assert_eq!(stacks::mtpr(false).name, "MTPR");
        assert_eq!(stacks::mtpr(true).name, "MTPR+");
        assert_eq!(stacks::dsrh_odpm(true).name, "DSRH-ODPM (rate)");
        assert_eq!(stacks::dsrh_odpm(false).name, "DSRH-ODPM (norate)");
        assert_eq!(stacks::dsdvh_odpm().name, "DSDVH-ODPM(5,10)-PSM");
        assert_eq!(stacks::dsdvh_odpm_span().name, "DSDVH-ODPM(0.6,1.2)-Span");
    }

    #[test]
    fn power_control_flags() {
        assert!(!stacks::dsr_active().power_control);
        assert!(!stacks::dsr_odpm().power_control);
        assert!(stacks::dsr_odpm_pc().power_control);
        assert!(stacks::titan_pc().power_control);
        assert!(stacks::mtpr(false).power_control);
    }

    #[test]
    fn titan_only_on_titan_stack() {
        let RoutingKind::Reactive(cfg) = stacks::titan_pc().routing else { panic!() };
        assert!(cfg.titan.is_some());
        let RoutingKind::Reactive(cfg) = stacks::dsr_odpm_pc().routing else { panic!() };
        assert!(cfg.titan.is_none());
    }

    #[test]
    fn dsdvh_variants_differ_in_psm_and_timers() {
        let base = stacks::dsdvh_odpm();
        let span = stacks::dsdvh_odpm_span();
        assert!(!base.psm.span_improved);
        assert!(span.psm.span_improved);
        assert_ne!(base.power_policy, span.power_policy);
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(stacks::by_name("titan-pc").unwrap().name, "TITAN-PC");
        assert_eq!(stacks::by_name("MTPR+").unwrap().name, "MTPR+");
        assert_eq!(stacks::by_name("dsrh-odpm (norate)").unwrap().name, "DSRH-ODPM (norate)");
        assert!(stacks::by_name("nonexistent").is_none());
        // The registry has unique names.
        let mut names: Vec<String> = stacks::all().iter().map(|s| s.name.clone()).collect();
        let len = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), len);
    }

    #[test]
    fn scenario_defaults() {
        let s = Scenario::new(
            Placement::Grid { rows: 2, cols: 2, width: 100.0, height: 100.0 },
            eend_radio::cards::cabletron(),
            stacks::dsr_active(),
            FlowSpec::cbr(1, 2.0),
            SimDuration::from_secs(10),
            1,
        );
        assert_eq!(s.queue_capacity, 50);
        assert_eq!(s.mac.bandwidth_bps, 2_000_000.0);
        assert_eq!(s.card_assignment, CardAssignment::Uniform);
    }

    #[test]
    fn node_cards_follow_the_assignment() {
        let s = Scenario::new(
            Placement::Grid { rows: 2, cols: 2, width: 100.0, height: 100.0 },
            eend_radio::cards::cabletron(),
            stacks::dsr_active(),
            FlowSpec::cbr(1, 2.0),
            SimDuration::from_secs(10),
            1,
        );
        let uniform = s.node_cards(3);
        assert!(uniform.iter().all(|c| c.name == "Cabletron"));

        let mixed = s
            .clone()
            .with_card_assignment(CardAssignment::Alternating(vec![
                eend_radio::cards::cabletron(),
                eend_radio::cards::hypothetical_cabletron(),
            ]))
            .node_cards(5);
        let names: Vec<&str> = mixed.iter().map(|c| c.name).collect();
        assert_eq!(
            names,
            [
                "Cabletron",
                "Hypothetical Cabletron",
                "Cabletron",
                "Hypothetical Cabletron",
                "Cabletron"
            ]
        );
    }

    #[test]
    #[should_panic(expected = "must match the base card's PHY range")]
    fn range_mismatched_assignment_is_rejected() {
        let s = Scenario::new(
            Placement::Grid { rows: 2, cols: 2, width: 100.0, height: 100.0 },
            eend_radio::cards::mica2(), // 68 m base PHY
            stacks::dsr_active(),
            FlowSpec::cbr(1, 2.0),
            SimDuration::from_secs(10),
            1,
        )
        .with_card_assignment(radio_profiles::mixed_hypo().assignment); // 250 m cards
        let _ = s.node_cards(4);
    }

    #[test]
    fn radio_profile_registry_round_trips_names() {
        let all = radio_profiles::all();
        assert!(all.len() >= 3);
        for p in &all {
            assert_eq!(radio_profiles::by_name(p.name).as_ref(), Some(p));
        }
        assert_eq!(radio_profiles::by_name("MIXED-HYPO").unwrap().name, "mixed-hypo");
        assert!(radio_profiles::by_name("nonexistent").is_none());
        // Every registered profile mixes only range-matched cards: the
        // channel keeps the base card's range, so a card with a smaller
        // nominal range would be billed for transmissions it cannot
        // physically make.
        for p in all {
            if let CardAssignment::Alternating(cards) = &p.assignment {
                assert!(
                    cards.iter().all(|c| c.nominal_range_m == cards[0].nominal_range_m),
                    "{}: mixes cards with different nominal ranges",
                    p.name
                );
            }
        }
    }
}
