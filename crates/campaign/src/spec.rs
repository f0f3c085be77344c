//! Declarative campaign specifications.
//!
//! A [`CampaignSpec`] names a cartesian grid over the evaluation axes of
//! the paper's Section 5 — protocol stacks × traffic rates × network
//! sizes × mobility speeds × traffic models × radio profiles × failure
//! plans × seeds — and expands it into a flat, deterministically-ordered
//! job list for the [`executor`](crate::executor). Traffic models,
//! per-node radio heterogeneity and failure plans go beyond the paper's
//! homogeneous CBR evaluation (see the ROADMAP's scenario-diversity
//! item): every cell of the grid can vary the *shape* of the workload
//! and the *mix* of hardware, not just its volume.

use eend_sim::SimDuration;
use eend_wireless::radio_profiles::RadioProfile;
use eend_wireless::{presets, CardAssignment, Mobility, ProtocolStack, Scenario, TrafficModel};

/// The scenario family a campaign sweeps over — which paper preset (or
/// custom builder) turns a [`GridPoint`] into a runnable [`Scenario`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaseScenario {
    /// Section 5.2.1 small networks (50 nodes, 500×500 m²); sweeps rates.
    Small,
    /// Section 5.2.2 large networks (200 nodes, 1300×1300 m²); sweeps rates.
    Large,
    /// Table 2 density study (fixed endpoints, 4 Kb/s); sweeps node counts.
    Density,
    /// Section 5.2.3 7×7 grid with the Hypothetical Cabletron; sweeps rates.
    Grid,
}

impl BaseScenario {
    /// Parses the CLI spelling (`small`, `large`, `density`, `grid`).
    pub fn parse(name: &str) -> Option<BaseScenario> {
        match name.to_ascii_lowercase().as_str() {
            "small" => Some(BaseScenario::Small),
            "large" => Some(BaseScenario::Large),
            "density" => Some(BaseScenario::Density),
            "grid" => Some(BaseScenario::Grid),
            _ => None,
        }
    }

    /// The canonical CLI spelling ([`BaseScenario::parse`]'s inverse) —
    /// used by store manifests to serialize the preset axis.
    pub fn name(&self) -> &'static str {
        match self {
            BaseScenario::Small => "small",
            BaseScenario::Large => "large",
            BaseScenario::Density => "density",
            BaseScenario::Grid => "grid",
        }
    }
}

/// A node-failure injection plan: one labelled set of `(second, node)`
/// kill events, applied to every scenario of its grid slice.
#[derive(Debug, Clone, PartialEq)]
pub struct FailurePlan {
    /// Label used in result records and CSV/JSON output (e.g. `"none"`,
    /// `"kill-relay-60s"`).
    pub label: String,
    /// `(instant in seconds, node id)` pairs at which nodes die.
    pub kills: Vec<(f64, usize)>,
}

impl FailurePlan {
    /// The no-failure plan every campaign gets by default.
    pub fn none() -> FailurePlan {
        FailurePlan { label: "none".to_owned(), kills: Vec::new() }
    }

    /// A plan killing `node` at `at_s` seconds.
    pub fn kill(label: &str, at_s: f64, node: usize) -> FailurePlan {
        FailurePlan { label: label.to_owned(), kills: vec![(at_s, node)] }
    }
}

/// One cell-coordinate of the expanded grid: everything that identifies a
/// run except the scenario object itself.
#[derive(Debug, Clone, PartialEq)]
pub struct GridPoint {
    /// Protocol stack under test.
    pub stack: ProtocolStack,
    /// Per-flow offered rate, Kbit/s.
    pub rate_kbps: f64,
    /// Node count (the preset's own count when the axis is not swept).
    pub nodes: usize,
    /// Random-waypoint top speed, m/s (0 = static, the paper's setting).
    pub speed_mps: f64,
    /// Traffic-model label ([`TrafficModel::label`]; `"cbr"` when the
    /// axis is not swept).
    pub traffic: String,
    /// Radio-profile name (`"uniform"` when the axis is not swept).
    pub radio: String,
    /// Failure-injection plan label.
    pub failure: String,
    /// Master seed of the run.
    pub seed: u64,
}

/// One expanded unit of work: a grid point plus its runnable scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Position in the expansion order (results are returned in this
    /// order regardless of worker count).
    pub index: usize,
    /// The grid coordinates this job measures.
    pub point: GridPoint,
    /// The fully-built scenario to simulate.
    pub scenario: Scenario,
}

impl Job {
    /// Checks that every node this job's failure plan kills exists in its
    /// network; the error names the plan and the kill. A job that fails
    /// this check would panic in `Simulator::new`.
    pub fn check_failures(&self) -> Result<(), String> {
        let n = self.scenario.placement.node_count();
        match self.scenario.node_failures.iter().find(|&&(_, node)| node >= n) {
            Some(&(at, node)) => Err(format!(
                "failure plan {:?} kills node {node} at {} s, but its network has {n} nodes",
                self.point.failure,
                at.as_secs_f64()
            )),
            None => Ok(()),
        }
    }
}

/// A declarative scenario-matrix sweep: the cartesian product of every
/// non-empty axis, expanded in lexicographic order (stacks, then rates,
/// then node counts, then speeds, then traffic models, then radio
/// profiles, then failure plans, then seeds).
///
/// Seeds are mapped deterministically: job `k` of a cell uses
/// `seed_base + k + 1`, matching the 1-based seeds of the original
/// figure harness, so parallel and serial execution — and any two
/// machines — agree on which scenario every job runs.
///
/// # Example
///
/// ```
/// use eend_campaign::{BaseScenario, CampaignSpec};
/// use eend_wireless::stacks;
///
/// let spec = CampaignSpec::new("demo", BaseScenario::Small)
///     .stacks(vec![stacks::titan_pc(), stacks::dsr_active()])
///     .rates(vec![2.0, 4.0])
///     .seeds(3);
/// let jobs = spec.expand();
/// assert_eq!(jobs.len(), 2 * 2 * 3);
/// assert_eq!(jobs[0].point.seed, 1);
/// assert!(jobs.iter().enumerate().all(|(i, j)| j.index == i));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name (carried into reports and CSV/JSON output).
    pub name: String,
    /// Scenario family the grid points are built from.
    pub base: BaseScenario,
    /// Protocol stacks to sweep.
    pub stacks: Vec<ProtocolStack>,
    /// Per-flow rates in Kbit/s (`Density` pins 4 Kb/s; leave empty for
    /// the preset default).
    pub rates_kbps: Vec<f64>,
    /// Node counts (only `Density` presets use this axis; empty means
    /// the Table 2 densities, 300 and 400, for `Density`).
    pub node_counts: Vec<usize>,
    /// Random-waypoint top speeds in m/s; 0 keeps the paper's static
    /// setting. Empty = `[0.0]`.
    pub speeds_mps: Vec<f64>,
    /// Traffic-model axis. Empty = `[TrafficModel::Cbr]` (the paper's
    /// workload).
    pub traffic_models: Vec<TrafficModel>,
    /// Radio-profile axis (named per-node card assignments). Empty =
    /// the preset's homogeneous card.
    pub radio_profiles: Vec<RadioProfile>,
    /// Failure-injection plans. Empty = no failures.
    pub failures: Vec<FailurePlan>,
    /// Seeded runs per cell.
    pub seed_count: u64,
    /// Offset added to every seed (seeds are `base+1..=base+count`).
    pub seed_base: u64,
    /// Duration override in seconds (`None` = the preset's own horizon).
    pub secs: Option<u64>,
}

impl CampaignSpec {
    /// An empty spec over `base` with one seed and no overrides.
    pub fn new(name: &str, base: BaseScenario) -> CampaignSpec {
        CampaignSpec {
            name: name.to_owned(),
            base,
            stacks: Vec::new(),
            rates_kbps: Vec::new(),
            node_counts: Vec::new(),
            speeds_mps: Vec::new(),
            traffic_models: Vec::new(),
            radio_profiles: Vec::new(),
            failures: Vec::new(),
            seed_count: 1,
            seed_base: 0,
            secs: None,
        }
    }

    /// Sets the protocol-stack axis.
    pub fn stacks(mut self, stacks: Vec<ProtocolStack>) -> CampaignSpec {
        self.stacks = stacks;
        self
    }

    /// Sets the rate axis (Kbit/s).
    pub fn rates(mut self, rates: Vec<f64>) -> CampaignSpec {
        self.rates_kbps = rates;
        self
    }

    /// Sets the node-count axis (used by [`BaseScenario::Density`]).
    pub fn node_counts(mut self, counts: Vec<usize>) -> CampaignSpec {
        self.node_counts = counts;
        self
    }

    /// Sets the mobility-speed axis (m/s; 0 = static).
    pub fn speeds(mut self, speeds: Vec<f64>) -> CampaignSpec {
        self.speeds_mps = speeds;
        self
    }

    /// Sets the traffic-model axis.
    pub fn traffic(mut self, models: Vec<TrafficModel>) -> CampaignSpec {
        self.traffic_models = models;
        self
    }

    /// Sets the radio-profile axis.
    pub fn radio_profiles(mut self, profiles: Vec<RadioProfile>) -> CampaignSpec {
        self.radio_profiles = profiles;
        self
    }

    /// Sets the failure-plan axis.
    pub fn failures(mut self, failures: Vec<FailurePlan>) -> CampaignSpec {
        self.failures = failures;
        self
    }

    /// Sets the seeded runs per cell.
    pub fn seeds(mut self, count: u64) -> CampaignSpec {
        self.seed_count = count;
        self
    }

    /// Offsets every seed by `base` (for sharding a campaign across
    /// machines without overlapping seeds).
    pub fn seed_base(mut self, base: u64) -> CampaignSpec {
        self.seed_base = base;
        self
    }

    /// Caps every run at `secs` simulated seconds.
    pub fn secs(mut self, secs: u64) -> CampaignSpec {
        self.secs = Some(secs);
        self
    }

    /// Number of jobs [`CampaignSpec::expand`] will produce.
    pub fn job_count(&self) -> usize {
        let nodes_axis = if !self.node_counts.is_empty() {
            self.node_counts.len()
        } else if self.base == BaseScenario::Density {
            2 // expand()'s Table 2 default densities, 300 and 400
        } else {
            1
        };
        self.stacks.len()
            * self.rates_kbps.len().max(1)
            * nodes_axis
            * self.speeds_mps.len().max(1)
            * self.traffic_models.len().max(1)
            * self.radio_profiles.len().max(1)
            * self.failures.len().max(1)
            * self.seed_count as usize
    }

    /// Expands the grid into jobs using the built-in [`BaseScenario`]
    /// presets. A [`BaseScenario::Density`] spec with an empty
    /// node-count axis sweeps the paper's Table 2 densities (300, 400) —
    /// the other presets fix their own node counts and ignore the axis.
    pub fn expand(&self) -> Vec<Job> {
        if self.base == BaseScenario::Density && self.node_counts.is_empty() {
            return self.clone().node_counts(vec![300, 400]).expand();
        }
        let base = self.base;
        self.expand_with(move |p: &GridPoint| match base {
            BaseScenario::Small => presets::small_network(p.stack.clone(), p.rate_kbps, p.seed),
            BaseScenario::Large => presets::large_network(p.stack.clone(), p.rate_kbps, p.seed),
            BaseScenario::Density => presets::density_network(p.stack.clone(), p.nodes, p.seed),
            BaseScenario::Grid => presets::grid_hypothetical(p.stack.clone(), p.rate_kbps, p.seed),
        })
    }

    /// Expands the grid through a caller-supplied scenario builder —
    /// the escape hatch for figure binaries whose scenarios are not one
    /// of the four presets. Duration override, mobility, and failure
    /// injection are still applied by the spec after the builder runs.
    /// Traffic models and radio profiles are applied only when their
    /// axis is explicitly set (an explicit axis overrides the builder,
    /// uniform/CBR included; an absent one preserves the builder's
    /// choices) — and each [`GridPoint`] labels the model and
    /// assignment the scenario actually runs.
    pub fn expand_with(&self, build: impl Fn(&GridPoint) -> Scenario) -> Vec<Job> {
        let one = |v: &Vec<f64>, d: f64| if v.is_empty() { vec![d] } else { v.clone() };
        let rates = one(&self.rates_kbps, self.default_rate());
        let nodes = if self.node_counts.is_empty() { vec![0] } else { self.node_counts.clone() };
        let speeds = one(&self.speeds_mps, 0.0);
        let traffic = if self.traffic_models.is_empty() {
            vec![TrafficModel::Cbr]
        } else {
            self.traffic_models.clone()
        };
        let radios = if self.radio_profiles.is_empty() {
            vec![eend_wireless::radio_profiles::uniform()]
        } else {
            self.radio_profiles.clone()
        };
        let failures = if self.failures.is_empty() {
            vec![FailurePlan::none()]
        } else {
            self.failures.clone()
        };

        let mut jobs = Vec::with_capacity(self.job_count());
        for stack in &self.stacks {
            for &rate in &rates {
                for &n in &nodes {
                    for &speed in &speeds {
                        for model in &traffic {
                            for profile in &radios {
                                for plan in &failures {
                                    for k in 0..self.seed_count {
                                        let mut point = GridPoint {
                                            stack: stack.clone(),
                                            rate_kbps: rate,
                                            nodes: n,
                                            speed_mps: speed,
                                            traffic: model.label(),
                                            radio: profile.name.to_owned(),
                                            failure: plan.label.clone(),
                                            seed: self.seed_base + k + 1,
                                        };
                                        let mut scenario = build(&point);
                                        point.nodes = scenario.placement.node_count();
                                        if let Some(secs) = self.secs {
                                            scenario.duration = SimDuration::from_secs(secs);
                                        }
                                        if speed > 0.0 {
                                            scenario =
                                                scenario.with_mobility(Mobility::random_waypoint(
                                                    (speed / 2.0).max(0.1),
                                                    speed,
                                                    5.0,
                                                ));
                                        }
                                        // An explicitly-set axis overrides whatever the
                                        // builder produced (uniform included); an absent
                                        // axis leaves a custom builder's choices intact.
                                        // Either way the point labels what actually runs.
                                        if !self.traffic_models.is_empty() {
                                            scenario.flows =
                                                scenario.flows.with_model(model.clone());
                                        }
                                        point.traffic = scenario.flows.model.label();
                                        if !self.radio_profiles.is_empty() {
                                            scenario = scenario
                                                .with_card_assignment(profile.assignment.clone());
                                        } else if scenario.card_assignment
                                            != CardAssignment::Uniform
                                        {
                                            // A builder-set mix with no radio axis: recover
                                            // the registry name when the assignment is a
                                            // known profile; otherwise label it "custom".
                                            point.radio = eend_wireless::radio_profiles::all()
                                                .into_iter()
                                                .find(|p| p.assignment == scenario.card_assignment)
                                                .map(|p| p.name.to_owned())
                                                .unwrap_or_else(|| "custom".to_owned());
                                        }
                                        for &(at_s, node) in &plan.kills {
                                            scenario = scenario.with_node_failure(
                                                eend_sim::SimTime::from_secs_f64(at_s),
                                                node,
                                            );
                                        }
                                        jobs.push(Job { index: jobs.len(), point, scenario });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        jobs
    }

    /// The jobs shard `index` of `count` is responsible for: every
    /// `count`-th job of [`CampaignSpec::expand`], starting at `index`
    /// (round-robin, so long and short cells spread evenly across
    /// machines). Each [`Job`] keeps its **global** expansion index, so
    /// shard result stores can be merged back into the full campaign by
    /// job id. The union of all `count` shards is exactly `expand()`;
    /// shards are pairwise disjoint.
    ///
    /// Combine with [`CampaignSpec::seed_base`] to also split seed
    /// ranges across machines without overlap.
    ///
    /// # Panics
    ///
    /// Panics when `count == 0` or `index >= count`.
    pub fn shard(&self, index: usize, count: usize) -> Vec<Job> {
        assert!(count > 0, "shard count must be positive");
        assert!(index < count, "shard index {index} out of range for {count} shards");
        self.expand().into_iter().filter(|j| j.index % count == index).collect()
    }

    fn default_rate(&self) -> f64 {
        // The paper's density study and most single-rate setups run at
        // 4 Kbit/s.
        4.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eend_wireless::stacks;

    #[test]
    fn expansion_is_lexicographic_and_seeded_one_based() {
        let spec = CampaignSpec::new("t", BaseScenario::Small)
            .stacks(vec![stacks::titan_pc(), stacks::dsr_active()])
            .rates(vec![2.0, 6.0])
            .seeds(2);
        let jobs = spec.expand();
        assert_eq!(jobs.len(), spec.job_count());
        assert_eq!(jobs.len(), 8);
        // stacks vary slowest, seeds fastest.
        assert_eq!(jobs[0].point.stack.name, "TITAN-PC");
        assert_eq!((jobs[0].point.rate_kbps, jobs[0].point.seed), (2.0, 1));
        assert_eq!((jobs[1].point.rate_kbps, jobs[1].point.seed), (2.0, 2));
        assert_eq!((jobs[2].point.rate_kbps, jobs[2].point.seed), (6.0, 1));
        assert_eq!(jobs[4].point.stack.name, "DSR-Active");
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.index, i);
            assert_eq!(j.scenario.seed, j.point.seed);
            assert_eq!(j.point.nodes, 50, "point records the preset's node count");
        }
    }

    #[test]
    fn seed_base_shifts_every_seed() {
        let spec = CampaignSpec::new("t", BaseScenario::Small)
            .stacks(vec![stacks::dsr_active()])
            .seeds(3)
            .seed_base(100);
        let seeds: Vec<u64> = spec.expand().iter().map(|j| j.point.seed).collect();
        assert_eq!(seeds, vec![101, 102, 103]);
    }

    #[test]
    fn secs_override_and_mobility_and_failures_apply() {
        let spec = CampaignSpec::new("t", BaseScenario::Small)
            .stacks(vec![stacks::dsr_active()])
            .speeds(vec![0.0, 5.0])
            .failures(vec![FailurePlan::none(), FailurePlan::kill("k", 10.0, 3)])
            .secs(30);
        let jobs = spec.expand();
        assert_eq!(jobs.len(), 4);
        for j in &jobs {
            assert_eq!(j.scenario.duration, SimDuration::from_secs(30));
        }
        assert_eq!(jobs[0].scenario.mobility, Mobility::Static);
        assert!(matches!(jobs[2].scenario.mobility, Mobility::RandomWaypoint { .. }));
        assert!(jobs[0].scenario.node_failures.is_empty());
        assert_eq!(
            jobs[1].scenario.node_failures,
            vec![(eend_sim::SimTime::from_secs_f64(10.0), 3)]
        );
        assert_eq!(jobs[1].point.failure, "k");
        assert!(jobs.iter().all(|j| j.check_failures().is_ok()));
        let beyond = CampaignSpec::new("t", BaseScenario::Small)
            .stacks(vec![stacks::titan_pc()])
            .failures(vec![FailurePlan::kill("far", 10.0, 50)])
            .expand();
        let err = beyond[0].check_failures().unwrap_err();
        assert!(err.contains("\"far\" kills node 50 at 10 s"), "{err}");
        assert!(err.contains("has 50 nodes"), "{err}");
    }

    #[test]
    fn density_base_sweeps_node_counts() {
        let spec = CampaignSpec::new("t", BaseScenario::Density)
            .stacks(vec![stacks::titan_pc()])
            .node_counts(vec![300, 400])
            .seeds(2);
        let jobs = spec.expand();
        assert_eq!(jobs.len(), 4);
        assert_eq!(jobs[0].scenario.placement.node_count(), 300);
        assert_eq!(jobs[2].scenario.placement.node_count(), 400);
        assert_eq!(jobs[2].point.nodes, 400);
    }

    #[test]
    fn density_without_node_counts_defaults_to_table2_densities() {
        let spec =
            CampaignSpec::new("t", BaseScenario::Density).stacks(vec![stacks::titan_pc()]).seeds(1);
        let jobs = spec.expand();
        assert_eq!(jobs.len(), spec.job_count());
        let counts: Vec<usize> = jobs.iter().map(|j| j.point.nodes).collect();
        assert_eq!(counts, vec![300, 400]);
        for j in &jobs {
            assert_eq!(j.scenario.placement.node_count(), j.point.nodes);
        }
    }

    #[test]
    fn shards_partition_the_expansion() {
        let spec = CampaignSpec::new("t", BaseScenario::Small)
            .stacks(vec![stacks::titan_pc(), stacks::dsr_active()])
            .rates(vec![2.0, 4.0])
            .seeds(3);
        let all = spec.expand();
        for count in [1, 2, 3, 5] {
            let mut union: Vec<Job> = (0..count).flat_map(|i| spec.shard(i, count)).collect();
            union.sort_by_key(|j| j.index);
            assert_eq!(union, all, "shards must partition the job list at count={count}");
        }
        // Jobs keep their global index.
        let shard1 = spec.shard(1, 3);
        assert!(shard1.iter().all(|j| j.index % 3 == 1));
    }

    #[test]
    fn traffic_and_radio_axes_expand_and_configure_scenarios() {
        use eend_wireless::{radio_profiles, CardAssignment, TrafficModel};
        let spec = CampaignSpec::new("t", BaseScenario::Small)
            .stacks(vec![stacks::dsr_active()])
            .rates(vec![4.0])
            .traffic(vec![TrafficModel::Cbr, TrafficModel::Poisson])
            .radio_profiles(vec![radio_profiles::uniform(), radio_profiles::mixed_hypo()])
            .seeds(1);
        let jobs = spec.expand();
        assert_eq!(jobs.len(), spec.job_count());
        assert_eq!(jobs.len(), 4);
        // Traffic varies slower than radio (lexicographic order).
        let coords: Vec<(&str, &str)> =
            jobs.iter().map(|j| (j.point.traffic.as_str(), j.point.radio.as_str())).collect();
        assert_eq!(
            coords,
            [
                ("cbr", "uniform"),
                ("cbr", "mixed-hypo"),
                ("poisson", "uniform"),
                ("poisson", "mixed-hypo"),
            ]
        );
        assert_eq!(jobs[0].scenario.flows.model, TrafficModel::Cbr);
        assert_eq!(jobs[0].scenario.card_assignment, CardAssignment::Uniform);
        assert_eq!(jobs[2].scenario.flows.model, TrafficModel::Poisson);
        assert!(matches!(jobs[3].scenario.card_assignment, CardAssignment::Alternating(_)));
    }

    #[test]
    fn default_axes_leave_the_grid_and_scenarios_unchanged() {
        use eend_wireless::{CardAssignment, TrafficModel};
        let spec = CampaignSpec::new("t", BaseScenario::Small)
            .stacks(vec![stacks::dsr_active()])
            .rates(vec![2.0, 4.0])
            .seeds(2);
        let jobs = spec.expand();
        assert_eq!(jobs.len(), 4, "absent axes must not multiply the grid");
        for j in &jobs {
            assert_eq!(j.point.traffic, "cbr");
            assert_eq!(j.point.radio, "uniform");
            assert_eq!(j.scenario.flows.model, TrafficModel::Cbr);
            assert_eq!(j.scenario.card_assignment, CardAssignment::Uniform);
        }
    }

    #[test]
    fn absent_axes_preserve_a_custom_builders_model_and_cards() {
        use eend_wireless::{presets, radio_profiles, CardAssignment, TrafficModel};
        let custom = |p: &GridPoint| {
            let mut s = presets::small_network(p.stack.clone(), p.rate_kbps, p.seed)
                .with_card_assignment(radio_profiles::mixed_hypo().assignment);
            s.flows = s.flows.with_model(TrafficModel::Poisson);
            s
        };
        // No traffic/radio axes: the builder's choices survive and the
        // point labels what actually runs (registry assignments recover
        // their name; unnamed mixes are labelled "custom").
        let spec = CampaignSpec::new("t", BaseScenario::Small)
            .stacks(vec![stacks::dsr_active()])
            .rates(vec![4.0]);
        let jobs = spec.expand_with(custom);
        assert_eq!(jobs[0].scenario.flows.model, TrafficModel::Poisson);
        assert!(matches!(jobs[0].scenario.card_assignment, CardAssignment::Alternating(_)));
        assert_eq!(jobs[0].point.traffic, "poisson", "label must reflect the run");
        assert_eq!(jobs[0].point.radio, "mixed-hypo", "registry assignments recover their name");
        let unnamed = |p: &GridPoint| {
            presets::small_network(p.stack.clone(), p.rate_kbps, p.seed).with_card_assignment(
                CardAssignment::Alternating(vec![
                    eend_radio::cards::cabletron(),
                    eend_radio::cards::cabletron(),
                    eend_radio::cards::cabletron(),
                    eend_radio::cards::hypothetical_cabletron(),
                ]),
            )
        };
        assert_eq!(
            spec.expand_with(unnamed)[0].point.radio,
            "custom",
            "unnamed builder mix is labelled custom"
        );
        // Explicit axes override the builder — uniform/CBR included.
        let jobs = spec
            .clone()
            .traffic(vec![TrafficModel::Cbr])
            .radio_profiles(vec![radio_profiles::uniform()])
            .expand_with(custom);
        assert_eq!(jobs[0].scenario.flows.model, TrafficModel::Cbr);
        assert_eq!(jobs[0].scenario.card_assignment, CardAssignment::Uniform);
        assert_eq!(
            (jobs[0].point.traffic.as_str(), jobs[0].point.radio.as_str()),
            ("cbr", "uniform")
        );
    }

    #[test]
    fn base_parse_round_trips() {
        for (s, b) in [
            ("small", BaseScenario::Small),
            ("LARGE", BaseScenario::Large),
            ("density", BaseScenario::Density),
            ("grid", BaseScenario::Grid),
        ] {
            assert_eq!(BaseScenario::parse(s), Some(b));
        }
        assert_eq!(BaseScenario::parse("huge"), None);
    }
}
