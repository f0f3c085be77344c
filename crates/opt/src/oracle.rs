//! Evaluation oracles: score a candidate [`Design`] on a [`DesignProblem`].
//!
//! Two implementations close the design↔simulate loop from opposite ends:
//!
//! - [`FluidOracle`] wraps `eend-core`'s fluid-model `evaluate()` — exact,
//!   allocation-light, microseconds per candidate; the inner loop of every
//!   search.
//! - [`SimOracle`] runs a batch of packet-level simulations (one per seed)
//!   through the full MAC/PHY/power machinery on the campaign executor,
//!   with the candidate's routes injected via the `Static` routing agent so
//!   no discovery traffic muddies the score. Hundreds of milliseconds per
//!   candidate — pair it with the on-disk cache in [`crate::cache`].

use eend_campaign::Executor;
use eend_core::design::Design;
use eend_core::evaluate::{evaluate, EvalParams, SleepScheduling};
use eend_core::problem::DesignProblem;
use eend_sim::SimDuration;
use eend_wireless::scenario::{stacks, Scenario};
use eend_wireless::topology::Placement;
use eend_wireless::traffic::FlowSpec;
use eend_wireless::Simulator;

/// One oracle verdict on a candidate design. All fields are exact `f64`s;
/// the cache round-trips them bit-for-bit so a cached search replays
/// byte-identically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Score {
    /// `Enetwork` over the evaluation horizon, joules.
    pub enetwork_j: f64,
    /// Application bits delivered over the horizon.
    pub delivered_bits: f64,
    /// Projected time until the first node exhausts the oracle's
    /// reference battery, seconds.
    pub ttfd_s: f64,
    /// Some node's airtime demand exceeds channel capacity.
    pub overloaded: bool,
    /// Number of demands the design leaves unrouted.
    pub unrouted: u32,
}

impl Score {
    /// Energy goodput, bits per joule (zero when no energy was spent).
    pub fn goodput_bit_per_j(&self) -> f64 {
        if self.enetwork_j <= 0.0 {
            0.0
        } else {
            self.delivered_bits / self.enetwork_j
        }
    }
}

/// What the search minimises. Infeasible candidates (unrouted demands,
/// overloaded nodes) are pushed out of contention by large additive
/// penalties, so no objective can reward a design that drops traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Minimise `Enetwork` (joules).
    Energy,
    /// Maximise energy goodput (bits per joule).
    Goodput,
    /// Maximise time-to-first-death (the LifetimeAware extension's metric).
    Lifetime,
}

impl Objective {
    /// Parses a CLI name (`energy` / `goodput` / `lifetime`).
    pub fn parse(name: &str) -> Option<Objective> {
        match name.to_ascii_lowercase().as_str() {
            "energy" => Some(Objective::Energy),
            "goodput" => Some(Objective::Goodput),
            "lifetime" => Some(Objective::Lifetime),
            _ => None,
        }
    }

    /// The CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            Objective::Energy => "energy",
            Objective::Goodput => "goodput",
            Objective::Lifetime => "lifetime",
        }
    }

    /// Scalarises a score; **lower is better** for every objective.
    pub fn value(&self, s: &Score) -> f64 {
        let penalty = f64::from(s.unrouted) * 1e12 + if s.overloaded { 1e9 } else { 0.0 };
        let base = match self {
            Objective::Energy => s.enetwork_j,
            Objective::Goodput => -s.goodput_bit_per_j(),
            Objective::Lifetime => -s.ttfd_s.min(1e15),
        };
        base + penalty
    }
}

/// Anything that can score a candidate design. `calls()` counts the
/// evaluations this oracle **actually executed** — a cache layer (see
/// [`crate::cache::CachedOracle`]) answers hits without its inner oracle's
/// counter moving, which is how the "re-run does zero work" guarantee is
/// asserted.
pub trait EvalOracle {
    /// Scores `design` on `problem`.
    fn evaluate(&mut self, problem: &DesignProblem, design: &Design) -> Score;

    /// Evaluations actually executed (not answered from any cache).
    fn calls(&self) -> u64;

    /// Identity string recorded in cache manifests: two oracles with
    /// different labels never share a cache directory.
    fn label(&self) -> String;
}

/// The fluid-model oracle: `eend-core::evaluate` plus the reference
/// battery for the lifetime objective.
#[derive(Debug, Clone)]
pub struct FluidOracle {
    /// Evaluation parameters (horizon, bandwidth, power control, sleep
    /// scheduling).
    pub params: EvalParams,
    /// Battery behind [`Score::ttfd_s`], joules.
    pub battery_j: f64,
    calls: u64,
}

impl FluidOracle {
    /// The paper's standard configuration over `duration_s` seconds with a
    /// 1000 J reference battery.
    pub fn standard(duration_s: f64) -> FluidOracle {
        FluidOracle { params: EvalParams::standard(duration_s), battery_j: 1000.0, calls: 0 }
    }
}

impl EvalOracle for FluidOracle {
    fn evaluate(&mut self, problem: &DesignProblem, design: &Design) -> Score {
        self.calls += 1;
        let e = evaluate(problem, design, &self.params);
        Score {
            enetwork_j: e.enetwork_j(),
            delivered_bits: e.delivered_bits,
            ttfd_s: e.time_to_first_death_s(self.battery_j),
            overloaded: e.overloaded,
            unrouted: design.routes.iter().filter(|r| r.is_none()).count() as u32,
        }
    }

    fn calls(&self) -> u64 {
        self.calls
    }

    fn label(&self) -> String {
        let sched = match self.params.scheduling {
            SleepScheduling::OdpmIdle => "odpm",
            SleepScheduling::Perfect => "perfect",
        };
        format!(
            "fluid(t={},bw={},pc={},sched={},battery={})",
            self.params.duration_s,
            self.params.bandwidth_bps,
            self.params.power_control,
            sched,
            self.battery_j
        )
    }
}

/// The packet-simulator oracle: a fingerprinted batch of seeded runs per
/// candidate, averaged in seed order (so the score is deterministic
/// regardless of executor parallelism — `par_map` returns in index order).
#[derive(Debug, Clone)]
pub struct SimOracle {
    /// Simulated horizon per run, seconds.
    pub duration_s: f64,
    /// One packet-level run per seed; scores are seed-order means.
    pub seeds: Vec<u64>,
    /// ODPM power management (`false` = always active).
    pub odpm: bool,
    /// Per-link transmission power control.
    pub pc: bool,
    /// Battery behind [`Score::ttfd_s`], joules.
    pub battery_j: f64,
    executor: Executor,
    calls: u64,
}

impl SimOracle {
    /// A batch oracle over the given seeds with the paper's ODPM + power
    /// control stack and a 1000 J reference battery.
    pub fn new(duration_s: f64, seeds: Vec<u64>, executor: Executor) -> SimOracle {
        assert!(!seeds.is_empty(), "need at least one seed");
        SimOracle { duration_s, seeds, odpm: true, pc: true, battery_j: 1000.0, executor, calls: 0 }
    }
}

impl EvalOracle for SimOracle {
    fn evaluate(&mut self, problem: &DesignProblem, design: &Design) -> Score {
        self.calls += 1;
        assert_eq!(design.routes.len(), problem.demands.len(), "design/problem mismatch");
        let rate_bps = problem.demands.first().map_or(0.0, |d| d.rate_bps);
        assert!(
            problem.demands.iter().all(|d| d.rate_bps == rate_bps),
            "SimOracle requires uniform demand rates (FlowSpec carries one rate)"
        );
        let pairs: Vec<(usize, usize)> =
            problem.demands.iter().map(|d| (d.source, d.sink)).collect();
        let positions = problem.instance.positions().to_vec();
        let card = *problem.instance.card();
        let flows = FlowSpec::cbr(pairs.len(), rate_bps / 1000.0)
            .with_pairs(pairs)
            .with_start_window(1.0, 2.0);
        let scenarios: Vec<Scenario> = self
            .seeds
            .iter()
            .map(|&seed| {
                Scenario::new(
                    Placement::Explicit(positions.clone()),
                    card,
                    stacks::fixed_routes(design.routes.clone(), self.odpm, self.pc),
                    flows.clone(),
                    SimDuration::from_secs_f64(self.duration_s),
                    seed,
                )
            })
            .collect();
        let runs = self.executor.par_map(scenarios.len(), |i| Simulator::new(&scenarios[i]).run());
        let n = runs.len() as f64;
        let enetwork_j = runs.iter().map(|m| m.enetwork_j()).sum::<f64>() / n;
        let delivered_bits = runs.iter().map(|m| m.delivered_bits).sum::<f64>() / n;
        let ttfd_s = runs
            .iter()
            .map(|m| m.lifetime_to_first_death_s(self.battery_j))
            .fold(f64::INFINITY, f64::min);
        // Feasibility is structural, not sampled: probe airtime against the
        // fluid model so an overloaded routing is flagged identically by
        // both oracles.
        let probe = evaluate(problem, design, &EvalParams::standard(1.0));
        Score {
            enetwork_j,
            delivered_bits,
            ttfd_s,
            overloaded: probe.overloaded,
            unrouted: design.routes.iter().filter(|r| r.is_none()).count() as u32,
        }
    }

    fn calls(&self) -> u64 {
        self.calls
    }

    fn label(&self) -> String {
        format!(
            "sim(t={},seeds={:?},odpm={},pc={},battery={})",
            self.duration_s, self.seeds, self.odpm, self.pc, self.battery_j
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eend_core::design::{Designer, Heuristic};
    use eend_core::problem::{Demand, WirelessInstance};
    use eend_radio::cards;

    fn problem() -> DesignProblem {
        let inst =
            WirelessInstance::new(vec![(0.0, 0.0), (200.0, 0.0), (400.0, 0.0)], cards::cabletron());
        DesignProblem::new(inst, vec![Demand::new(0, 2, 8_000.0)])
    }

    #[test]
    fn fluid_oracle_counts_calls_and_scores() {
        let p = problem();
        let d = Heuristic::IdleFirst.design(&p);
        let mut oracle = FluidOracle::standard(100.0);
        assert_eq!(oracle.calls(), 0);
        let s = oracle.evaluate(&p, &d);
        assert_eq!(oracle.calls(), 1);
        assert!(s.enetwork_j > 0.0);
        assert!(s.delivered_bits > 0.0);
        assert!(s.ttfd_s.is_finite());
        assert!(!s.overloaded);
        assert_eq!(s.unrouted, 0);
    }

    #[test]
    fn objective_penalises_infeasibility() {
        let good = Score {
            enetwork_j: 100.0,
            delivered_bits: 1e6,
            ttfd_s: 500.0,
            overloaded: false,
            unrouted: 0,
        };
        let unrouted = Score { unrouted: 1, enetwork_j: 1.0, ..good };
        let overloaded = Score { overloaded: true, enetwork_j: 1.0, ..good };
        for obj in [Objective::Energy, Objective::Goodput, Objective::Lifetime] {
            assert!(obj.value(&good) < obj.value(&unrouted), "{obj:?} must reject unrouted");
            assert!(obj.value(&good) < obj.value(&overloaded), "{obj:?} must reject overload");
        }
    }

    #[test]
    fn objective_parse_round_trips() {
        for obj in [Objective::Energy, Objective::Goodput, Objective::Lifetime] {
            assert_eq!(Objective::parse(obj.name()), Some(obj));
        }
        assert_eq!(Objective::parse("nope"), None);
    }

    #[test]
    fn sim_oracle_delivers_over_fixed_routes() {
        let p = problem();
        let d = Heuristic::IdleFirst.design(&p);
        let mut oracle = SimOracle::new(30.0, vec![1, 2], Executor::with_workers(2));
        let s = oracle.evaluate(&p, &d);
        assert_eq!(oracle.calls(), 1);
        assert!(s.delivered_bits > 0.0, "static routes must deliver: {s:?}");
        assert!(s.enetwork_j > 0.0);
        // Deterministic: a fresh oracle scores identically.
        let s2 = SimOracle::new(30.0, vec![1, 2], Executor::with_workers(1)).evaluate(&p, &d);
        assert_eq!(s, s2, "sim score must not depend on worker count");
    }
}
