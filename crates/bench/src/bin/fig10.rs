//! Regenerates **Fig 10**: transmit energy of TITAN-PC vs DSR-ODPM in the
//! small (500×500) and large (1300×1300) scenarios across rates.
//!
//! Two declarative campaigns (one per preset family) on the bounded
//! executor; each scenario is simulated exactly once and the transmit
//! energy series is cut from the records.
//!
//! ```text
//! cargo run --release -p eend-bench --bin fig10 [-- --full]
//! ```

use eend_bench::{figure_spec_on, HarnessOpts};
use eend_campaign::{BaseScenario, Executor};
use eend_stats::render_figure;
use eend_wireless::stacks;

fn main() {
    let opts = HarnessOpts::from_args(2, 5, 180);
    let rates = [2.0, 3.0, 4.0, 5.0, 6.0];
    let pair = vec![stacks::titan_pc(), stacks::dsr_odpm()];

    let mut series = Vec::new();
    for (base, label) in [(BaseScenario::Small, "500x500"), (BaseScenario::Large, "1300x1300")] {
        let spec = figure_spec_on("fig10", base, &opts, &pair, &rates);
        let result = Executor::bounded().run(&spec);
        for mut s in result.series(|p| p.rate_kbps, |m| m.transmit_energy_j()) {
            s.label = format!("{} ({label})", s.label);
            series.push(s);
        }
    }

    println!("{}", render_figure("Fig 10 — transmit energy (J) vs rate (Kbit/s)", &series));
    println!(
        "Paper shape: DSR-ODPM (no power control) spends more transmit energy\n\
         than TITAN-PC at every rate, with the gap widening in the large network.\n\
         NOTE: our absolute gap is smaller than the paper's 54–86 % because the\n\
         Cabletron model radiates at most 281 mW of a 1399 mW transmit draw —\n\
         the test fig10_transmit_energy_direction (tests/paper_claims.rs)\n\
         asserts the data-frame-only gap."
    );
}
