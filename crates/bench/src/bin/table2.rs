//! Regenerates **Table 2**: performance with node density — DSR-ODPM-PC
//! vs TITAN-PC at 300 and 400 nodes (1300×1300 m², 20 flows at 4 Kb/s,
//! fixed endpoints).
//!
//! Runs as a declarative density campaign (stacks × node counts × seeds)
//! on the bounded executor; both tables are cut from the same records.
//!
//! ```text
//! cargo run --release -p eend-bench --bin table2 [-- --full]
//! ```

use eend_bench::HarnessOpts;
use eend_campaign::{BaseScenario, CampaignSpec, Executor};
use eend_stats::{Series, Table};
use eend_wireless::stacks;

fn main() {
    let opts = HarnessOpts::from_args(2, 10, 150);
    let densities = [300usize, 400];

    let mut spec = CampaignSpec::new("table2", BaseScenario::Density)
        .stacks(vec![stacks::dsr_odpm_pc(), stacks::titan_pc()])
        .node_counts(densities.to_vec())
        .seeds(opts.seeds);
    if let Some(secs) = opts.secs_override {
        spec = spec.secs(secs);
    }
    let result = Executor::bounded().run(&spec);

    let delivery = result.series(|p| p.nodes as f64, |m| m.delivery_ratio());
    let goodput = result.series(|p| p.nodes as f64, |m| m.energy_goodput_bit_per_j());

    println!("Table 2: performance with node density (4 Kb/s, fixed endpoints)\n");
    println!("Delivery Ratio");
    println!("{}", density_table(&densities, &delivery, 3));
    println!("Energy Goodput (bit/J)");
    println!("{}", density_table(&densities, &goodput, 3));
    println!(
        "Paper shape: DSR-ODPM-PC's discovery overhead explodes with density\n\
         (0.93 → 0.41 delivery from 300 to 400 nodes) while TITAN-PC holds,\n\
         because mostly-backbone nodes answer route discovery.\n\
         This reproduction shows the overhead growing and energy goodput\n\
         falling, more for DSR-ODPM-PC, but not the delivery collapse; see\n\
         \"Divergences from the paper\" in DESIGN.md. ({} seeds{})",
        opts.seeds,
        if opts.full { ", full scale" } else { ", quick mode" }
    );
}

/// One paper-style table: a row per density, a `mean ± ci` column per
/// stack series.
fn density_table(densities: &[usize], series: &[Series], prec: usize) -> Table {
    let mut headers = vec!["# of nodes".to_owned()];
    headers.extend(series.iter().map(|s| s.label.clone()));
    let mut t = Table::new(headers);
    for &n in densities {
        let mut cells = vec![n.to_string()];
        for s in series {
            let cell = s
                .points
                .iter()
                .find(|p| p.x == n as f64)
                .map(|p| format!("{:.prec$}", p.summary, prec = prec))
                .unwrap_or_else(|| "—".to_owned());
            cells.push(cell);
        }
        t.row(cells);
    }
    t
}
