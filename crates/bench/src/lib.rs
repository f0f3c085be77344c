//! Shared harness for regenerating the paper's tables and figures.
//!
//! Every `eend-bench` binary reproduces one table or figure of
//! Sengul & Kravets (ICDCS 2007); the repository's DESIGN.md ("Paper
//! artifacts") has the full index. Each
//! accepts:
//!
//! - `--quick` (default): reduced horizons/seed counts — minutes, same
//!   qualitative shape;
//! - `--full`: the paper's exact scale (900/600 s, 5–10 seeds) — slower;
//! - `--seeds N`, `--secs S`: explicit overrides.

#![warn(missing_docs)]

use eend::cli::{Args, Usage};
use eend_campaign::CampaignSpec;
use eend_wireless::{ProtocolStack, Scenario};

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

/// The figure binaries' usage text and error lines.
static USAGE: Usage =
    Usage::cli("unknown argument", "usage: [--quick|--full] [--seeds N] [--secs S]");

impl HarnessOpts {
    /// Parses `std::env::args`. Bad input prints an error line and the
    /// usage text and exits 2.
    ///
    /// `quick_seeds`/`full_seeds` are the defaults for the two modes;
    /// `quick_secs` trims each run in quick mode.
    pub fn from_args(quick_seeds: u64, full_seeds: u64, quick_secs: u64) -> HarnessOpts {
        let mut full = false;
        let mut seeds = None;
        let mut secs = None;
        let mut args = Args::new(std::env::args().skip(1), &USAGE);
        while let Some(a) = args.next_flag() {
            match a.as_str() {
                "--full" => full = true,
                "--quick" => full = false,
                "--seeds" => seeds = Some(args.number("--seeds")),
                "--secs" => secs = Some(args.number("--secs")),
                other => args.unknown(other),
            }
        }
        HarnessOpts {
            full,
            seeds: seeds.unwrap_or(if full { full_seeds } else { quick_seeds }),
            secs_override: secs.or(if full { None } else { Some(quick_secs) }),
        }
    }

    /// Applies the duration override to a preset scenario.
    pub fn tune(&self, mut scenario: Scenario) -> Scenario {
        if let Some(secs) = self.secs_override {
            scenario.duration = eend_sim::SimDuration::from_secs(secs);
        }
        scenario
    }
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
}
