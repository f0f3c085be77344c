//! Regenerates **Figs 11 and 12**: delivery ratio and energy goodput in
//! large networks (200 nodes, 1300×1300 m², 20 flows, 600 s, 10 runs).
//!
//! Runs as one declarative campaign (stacks × rates × seeds on the
//! large-network preset) on the bounded executor; both figures are
//! extracted from the same records, so every scenario is simulated
//! exactly once.
//!
//! ```text
//! cargo run --release -p eend-bench --bin fig11_12 [-- --full]
//! ```

use eend_bench::{figure_spec_on, HarnessOpts};
use eend_campaign::{BaseScenario, Executor};
use eend_stats::render_figure;
use eend_wireless::stacks;

fn main() {
    let opts = HarnessOpts::from_args(2, 10, 150);
    let stacks = vec![
        stacks::titan_pc(),
        stacks::dsr_odpm_pc(),
        stacks::dsdvh_odpm(),
        stacks::dsrh_odpm(false),
        stacks::dsrh_odpm(true),
        stacks::dsr_odpm(),
        stacks::dsr_active(),
    ];
    let rates = [2.0, 3.0, 4.0, 5.0, 6.0];

    let spec = figure_spec_on("fig11_12", BaseScenario::Large, &opts, &stacks, &rates);
    let result = Executor::bounded().run(&spec);

    let delivery = result.series(|p| p.rate_kbps, |m| m.delivery_ratio());
    println!(
        "{}",
        render_figure("Fig 11 — delivery ratio, 1300x1300 m2 (x = rate Kbit/s)", &delivery)
    );

    let goodput = result.series(|p| p.rate_kbps, |m| m.energy_goodput_bit_per_j());
    println!("{}", render_figure("Fig 12 — energy goodput (bit/J), 1300x1300 m2", &goodput));

    println!(
        "Paper shape: power management as primary optimisation (TITAN-PC,\n\
         DSR-ODPM-PC) clearly beats joint optimisation at scale; DSRH's\n\
         cost-tracking floods degrade it with rising rate and deviation;\n\
         DSDVH's update load cripples both metrics. ({} seeds per point{})",
        opts.seeds,
        if opts.full { ", full scale" } else { ", quick mode" }
    );
}
