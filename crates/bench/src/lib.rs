//! Shared harness for regenerating the paper's tables and figures.
//!
//! Every `eend-bench` binary reproduces one table or figure of
//! Sengul & Kravets (ICDCS 2007); see DESIGN.md for the full index. Each
//! accepts:
//!
//! - `--quick` (default): reduced horizons/seed counts — minutes, same
//!   qualitative shape;
//! - `--full`: the paper's exact scale (900/600 s, 5–10 seeds) — slower;
//! - `--seeds N`, `--secs S`: explicit overrides.

#![warn(missing_docs)]

use eend_campaign::{CampaignSpec, Executor, GridPoint};
use eend_stats::Series;
use eend_wireless::{ProtocolStack, RunMetrics, Scenario};

/// Command-line options shared by the figure binaries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HarnessOpts {
    /// Run at the paper's full scale.
    pub full: bool,
    /// Seeded runs per configuration point.
    pub seeds: u64,
    /// Simulated seconds per run (`None` = the preset's own duration).
    pub secs_override: Option<u64>,
}

impl HarnessOpts {
    /// Parses `std::env::args`. Unknown arguments abort with usage help.
    ///
    /// `quick_seeds`/`full_seeds` are the defaults for the two modes;
    /// `quick_secs` trims each run in quick mode.
    pub fn from_args(quick_seeds: u64, full_seeds: u64, quick_secs: u64) -> HarnessOpts {
        let mut opts = HarnessOpts { full: false, seeds: 0, secs_override: Some(quick_secs) };
        let mut seeds_arg = None;
        let mut secs_arg = None;
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--full" => opts.full = true,
                "--quick" => opts.full = false,
                "--seeds" => {
                    seeds_arg = Some(
                        args.next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| usage("--seeds needs a number")),
                    )
                }
                "--secs" => {
                    secs_arg = Some(
                        args.next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| usage("--secs needs a number")),
                    )
                }
                other => usage(&format!("unknown argument {other}")),
            }
        }
        if opts.full {
            opts.secs_override = None;
        }
        opts.seeds = seeds_arg.unwrap_or(if opts.full { full_seeds } else { quick_seeds });
        if let Some(s) = secs_arg {
            opts.secs_override = Some(s);
        }
        opts
    }

    /// Applies the duration override to a preset scenario.
    pub fn tune(&self, mut scenario: Scenario) -> Scenario {
        if let Some(secs) = self.secs_override {
            scenario.duration = eend_sim::SimDuration::from_secs(secs);
        }
        scenario
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: [--quick|--full] [--seeds N] [--secs S]");
    std::process::exit(2)
}

/// Builds the campaign grid a figure sweep runs on: `stacks` × `rates` ×
/// `opts.seeds` over the paper's small-network preset, with
/// `opts.secs_override` applied as the spec's duration. Every figure
/// binary runs a spec built here (or via [`figure_spec_on`]) directly,
/// or passes custom scenarios via
/// [`eend_campaign::CampaignSpec::expand_with`].
pub fn figure_spec(
    name: &str,
    opts: &HarnessOpts,
    stacks: &[ProtocolStack],
    rates: &[f64],
) -> CampaignSpec {
    figure_spec_on(name, eend_campaign::BaseScenario::Small, opts, stacks, rates)
}

/// [`figure_spec`] over an explicit [`eend_campaign::BaseScenario`]
/// preset family — for figures that sweep the large (or density/grid)
/// networks instead of the small ones.
pub fn figure_spec_on(
    name: &str,
    base: eend_campaign::BaseScenario,
    opts: &HarnessOpts,
    stacks: &[ProtocolStack],
    rates: &[f64],
) -> CampaignSpec {
    let mut spec = CampaignSpec::new(name, base)
        .stacks(stacks.to_vec())
        .rates(rates.to_vec())
        .seeds(opts.seeds);
    if let Some(secs) = opts.secs_override {
        spec = spec.secs(secs);
    }
    spec
}

/// Runs `make_scenario(stack, rate, seed)` for every seed on the bounded
/// campaign executor (runs are independent and deterministic, so
/// parallelism cannot change results) and returns the per-run metrics in
/// seed order. Thin wrapper over [`eend_campaign::Executor`]; the worker
/// pool is capped at the machine's available parallelism no matter how
/// many seeds are requested.
pub fn runs(
    opts: &HarnessOpts,
    stack: &ProtocolStack,
    rate_kbps: f64,
    make_scenario: impl Fn(ProtocolStack, f64, u64) -> Scenario + Sync,
) -> Vec<RunMetrics> {
    let spec = figure_spec("runs", opts, std::slice::from_ref(stack), &[rate_kbps]);
    // No opts.tune here: the spec's secs override already rewrites every
    // scenario's duration after the builder runs.
    let jobs =
        spec.expand_with(|p: &GridPoint| make_scenario(p.stack.clone(), p.rate_kbps, p.seed));
    Executor::bounded().run_jobs(&jobs).into_iter().map(|r| r.metrics).collect()
}

/// Sweeps `rates` for each stack on the campaign engine, extracting
/// `metric` per run, and returns one [`Series`] per stack — exactly one
/// figure's line set, in `stacks` order.
pub fn sweep_figure(
    opts: &HarnessOpts,
    stacks: &[ProtocolStack],
    rates: &[f64],
    make_scenario: impl Fn(ProtocolStack, f64, u64) -> Scenario + Copy + Sync,
    metric: impl Fn(&RunMetrics) -> f64,
) -> Vec<Series> {
    let spec = figure_spec("sweep", opts, stacks, rates);
    let jobs =
        spec.expand_with(|p: &GridPoint| make_scenario(p.stack.clone(), p.rate_kbps, p.seed));
    let result = eend_campaign::CampaignResult {
        campaign: spec.name.clone(),
        records: Executor::bounded().run_jobs(&jobs),
    };
    result.series(|p| p.rate_kbps, metric)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eend_wireless::{presets, stacks};

    #[test]
    fn tune_overrides_duration() {
        let opts = HarnessOpts { full: false, seeds: 1, secs_override: Some(30) };
        let sc = opts.tune(presets::small_network(stacks::dsr_active(), 2.0, 1));
        assert_eq!(sc.duration, eend_sim::SimDuration::from_secs(30));
        let full = HarnessOpts { full: true, seeds: 1, secs_override: None };
        let sc = full.tune(presets::small_network(stacks::dsr_active(), 2.0, 1));
        assert_eq!(sc.duration, eend_sim::SimDuration::from_secs(900));
    }

    #[test]
    fn sweep_produces_one_series_per_stack() {
        let opts = HarnessOpts { full: false, seeds: 1, secs_override: Some(30) };
        let stacks = vec![stacks::dsr_active(), stacks::dsr_odpm()];
        let series = sweep_figure(&opts, &stacks, &[2.0, 4.0], presets::small_network, |m| {
            m.delivery_ratio()
        });
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].points.len(), 2);
        assert_eq!(series[0].label, "DSR-Active");
        for s in &series {
            for p in &s.points {
                assert!((0.0..=1.0).contains(&p.summary.mean));
            }
        }
    }
}
