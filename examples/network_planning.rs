//! Using `eend-core` as a *planning* library: run the paper's three
//! heuristic designers on a random deployment and compare the designs
//! they produce — relays woken, total hops, and projected `Enetwork`.
//!
//! This is the centralized counterpart of the packet simulator: the same
//! three prioritisations, but as graph algorithms you can embed in a
//! deployment tool.
//!
//! ```text
//! cargo run --release --example network_planning
//! ```

use eend::core::design::{CommMetric, Designer, Heuristic};
use eend::core::evaluate::{evaluate, EvalParams};
use eend::core::{Demand, DesignProblem, WirelessInstance};
use eend::radio::cards;
use eend::sim::SimRng;
use eend::stats::Table;

fn main() {
    // 40 nodes uniform in 600x600 m2 with Cabletron radios, 8 demands.
    let mut rng = SimRng::new(2024);
    let positions: Vec<(f64, f64)> =
        (0..40).map(|_| (rng.range_f64(0.0, 600.0), rng.range_f64(0.0, 600.0))).collect();
    let instance = WirelessInstance::new(positions, cards::cabletron());
    let demands: Vec<Demand> = (0..8)
        .map(|_| loop {
            let s = rng.range_usize(0, 40);
            let d = rng.range_usize(0, 40);
            if s != d {
                break Demand::new(s, d, 4_000.0);
            }
        })
        .collect();
    let problem = DesignProblem::new(instance, demands);

    let designers = [
        Heuristic::CommFirst(CommMetric::RadiatedPower),
        Heuristic::CommFirst(CommMetric::TotalPower),
        Heuristic::Joint { use_rate: true, bandwidth_bps: 2e6 },
        Heuristic::IdleFirst,
        Heuristic::MpcSteiner,
    ];

    // 2 Mb/s, power control, ODPM idling: the paper's main study.
    let params = EvalParams::standard(900.0);
    let mut table = Table::new(vec![
        "designer",
        "feasible",
        "relays",
        "total hops",
        "Enetwork (J)",
        "goodput (bit/J)",
    ]);
    for h in designers {
        let design = h.design(&problem);
        let eval = evaluate(&problem, &design, &params);
        table.row(vec![
            h.name(),
            if design.is_feasible() { "yes".into() } else { "NO".into() },
            design.relay_count(&problem).to_string(),
            design.total_hops().to_string(),
            format!("{:.1}", eval.enetwork_j()),
            format!("{:.0}", eval.energy_goodput_bit_per_j()),
        ]);
    }
    println!("Three heuristic approaches as centralized planners (Section 4)\n");
    println!("{table}");
    println!(
        "MTPR wakes the most relays (short hops everywhere); IdleFirst wakes the\n\
         fewest and — with idle power dominating (Section 2.2) — wins on Enetwork."
    );
}
