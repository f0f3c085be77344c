//! Regenerates **Figs 8 and 9**: delivery ratio and energy goodput in
//! small networks (50 nodes, 500×500 m², 10 CBR flows, Cabletron,
//! 2–6 Kbit/s, 900 s, 5 runs ± 95 % CI).
//!
//! Runs as one declarative campaign (stacks × rates × seeds) on the
//! bounded executor; both figures are extracted from the same records,
//! so every scenario is simulated exactly once.
//!
//! ```text
//! cargo run --release -p eend-bench --bin fig8_9 -- --quick   # default
//! cargo run --release -p eend-bench --bin fig8_9 -- --full    # paper scale
//! ```

use eend_bench::{figure_spec, HarnessOpts};
use eend_campaign::Executor;
use eend_stats::render_figure;
use eend_wireless::stacks;

fn main() {
    let opts = HarnessOpts::from_args(2, 5, 180);
    let stacks = vec![
        stacks::titan_pc(),
        stacks::dsr_odpm_pc(),
        stacks::dsdvh_odpm(),
        stacks::dsdvh_odpm_span(),
        stacks::dsrh_odpm(false),
        stacks::dsrh_odpm(true),
        stacks::dsr_odpm(),
        stacks::dsr_active(),
    ];
    let rates = [2.0, 3.0, 4.0, 5.0, 6.0];

    let result = Executor::bounded().run(&figure_spec("fig8_9", &opts, &stacks, &rates));

    let delivery = result.series(|p| p.rate_kbps, |m| m.delivery_ratio());
    println!(
        "{}",
        render_figure("Fig 8 — delivery ratio, 500x500 m2 (x = rate Kbit/s)", &delivery)
    );

    let goodput = result.series(|p| p.rate_kbps, |m| m.energy_goodput_bit_per_j());
    println!("{}", render_figure("Fig 9 — energy goodput (bit/J), 500x500 m2", &goodput));

    println!(
        "Paper shape: most stacks deliver ~100%; TITAN-PC tops the goodput;\n\
         DSDVH-ODPM(5,10)-PSM collapses towards DSR-Active (its routing updates\n\
         keep PSM nodes awake whole beacon intervals); the Span variant recovers\n\
         part of the gap. ({} seeds per point{})",
        opts.seeds,
        if opts.full { ", full scale" } else { ", quick mode" }
    );
}
