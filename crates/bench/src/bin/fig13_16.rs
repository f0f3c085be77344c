//! Regenerates **Figs 13–16**: energy goodput on the 7×7 grid with the
//! Hypothetical Cabletron, for low (2–5 Kbit/s) and high (50–200 Kbit/s)
//! rates under perfect sleep scheduling and under ODPM scheduling.
//!
//! Methodology (the paper's): run the packet simulator at 2 Kbit/s until
//! routes stabilise, freeze them, then compute `Enetwork` analytically
//! per rate and scheduling model — the fluid `eend_core::evaluate` over
//! the design the frozen routes imply (`design::frozen_routes`).
//!
//! Both halves run on the campaign engine: route stabilisation is one
//! declarative `CampaignSpec` (stacks × one rate × seeds on the grid
//! preset), and the fluid study fans its stack × rate cells out on the
//! same executor, aggregating per-seed samples through
//! `eend_stats::grouped::StreamingAggregator`.
//!
//! ```text
//! cargo run --release -p eend-bench --bin fig13_16 [-- --full]
//! ```

use eend_bench::{figure_spec_on, HarnessOpts};
use eend_campaign::{BaseScenario, Executor};
use eend_core::design::frozen_routes;
use eend_core::evaluate::{evaluate, EvalParams, SleepScheduling};
use eend_core::WirelessInstance;
use eend_sim::SimRng;
use eend_stats::grouped::StreamingAggregator;
use eend_stats::render_figure;
use eend_wireless::{stacks, Placement};

/// Routes of every flow, per stabilisation seed.
type SeedRoutes = Vec<Vec<Option<Vec<usize>>>>;

fn main() {
    let opts = HarnessOpts::from_args(1, 3, 120);
    let stack_list = [
        stacks::titan_pc(),
        stacks::dsrh_active(false),
        stacks::mtpr(false),
        stacks::mtpr(true),
        stacks::dsr_pc_active(),
        stacks::dsr_active(),
    ];
    let positions = Placement::Grid { rows: 7, cols: 7, width: 300.0, height: 300.0 }
        .positions(&mut SimRng::new(0));
    let grid = WirelessInstance::new(positions, eend_radio::cards::hypothetical_cabletron());

    // Stabilise routes at 2 Kbit/s per stack and seed: one campaign,
    // every (stack, seed) cell an independent job on the executor.
    let executor = Executor::bounded();
    let spec = figure_spec_on("fig13_16-stabilise", BaseScenario::Grid, &opts, &stack_list, &[2.0]);
    let result = executor.run(&spec);
    let seeds = opts.seeds as usize;
    let stabilised: Vec<(String, SeedRoutes)> = result
        .records
        .chunks(seeds) // expansion order: stacks outermost, seeds innermost
        .map(|cell| {
            (
                cell[0].point.stack.name.clone(),
                cell.iter().map(|r| r.metrics.routes.clone()).collect(),
            )
        })
        .collect();

    let figure = |title: &str, rates: &[f64], scheduling: SleepScheduling, pc_for_active: bool| {
        // The fluid study's stack × rate grid, fanned out on the executor
        // (each cell scores every stabilisation seed's routes).
        let cells: Vec<(usize, f64)> =
            (0..stabilised.len()).flat_map(|s| rates.iter().map(move |&r| (s, r))).collect();
        let cell_samples: Vec<Vec<(String, f64, f64)>> = executor.par_map(cells.len(), |i| {
            let (si, rate) = cells[i];
            let (name, per_seed) = &stabilised[si];
            // DSR-Active runs without power control in the paper.
            let power_control = (name != "DSR-Active") || pc_for_active;
            let params =
                EvalParams { duration_s: 900.0, bandwidth_bps: 2e6, power_control, scheduling };
            per_seed
                .iter()
                .map(|routes| {
                    let (problem, design) = frozen_routes(grid.clone(), routes, rate * 1000.0);
                    let goodput = evaluate(&problem, &design, &params).energy_goodput_bit_per_j();
                    (name.clone(), rate, goodput / 1000.0) // Kbit/J, the paper's unit
                })
                .collect()
        });
        let mut agg = StreamingAggregator::new();
        for (label, x, v) in cell_samples.iter().flatten() {
            agg.push(label, *x, *v);
        }
        let mut series = agg.finish();
        // finish() sorts labels; restore the paper's legend order.
        series.sort_by_key(|s| {
            stabilised.iter().position(|(n, _)| *n == s.label).unwrap_or(usize::MAX)
        });
        println!("{}", render_figure(title, &series));
    };

    let low = [2.0, 3.0, 4.0, 5.0];
    let high = [50.0, 100.0, 150.0, 200.0];
    figure(
        "Fig 13 — energy goodput (Kbit/J), low rates, perfect sleep scheduling",
        &low,
        SleepScheduling::Perfect,
        false,
    );
    figure(
        "Fig 14 — energy goodput (Kbit/J), low rates, ODPM scheduling",
        &low,
        SleepScheduling::odpm_paper(),
        false,
    );
    figure(
        "Fig 15 — energy goodput (Kbit/J), high rates, perfect sleep scheduling",
        &high,
        SleepScheduling::Perfect,
        false,
    );
    figure(
        "Fig 16 — energy goodput (Kbit/J), high rates, ODPM scheduling",
        &high,
        SleepScheduling::odpm_paper(),
        false,
    );

    println!(
        "Paper shape: with perfect scheduling all stacks tie at low rates and\n\
         the power-control metrics (MTPR/MTPR+/DSRH) lead at high rates; with\n\
         ODPM idling charged, TITAN-PC leads everywhere below ~200 Kbit/s and\n\
         the advantage of power-control-first evaporates."
    );
}
