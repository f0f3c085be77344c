//! **Extension experiment** (the paper's stated future work): minimising
//! instantaneous `Enetwork` is not the same as maximising network
//! lifetime. Compares the centralized designers on total energy vs
//! bottleneck load, and the packet simulator's stacks on projected
//! time-to-first-death.
//!
//! The simulated sweep (Part 2) runs as one declarative campaign —
//! stacks × one rate × seeds on the streaming executor; Part 1 is a
//! deterministic two-designer comparison with no scenario sweep.
//!
//! ```text
//! cargo run --release -p eend-bench --bin lifetime [-- --full]
//! ```

use eend_bench::{figure_spec, HarnessOpts};
use eend_campaign::Executor;
use eend_core::design::{Designer, Heuristic};
use eend_core::evaluate::{evaluate, EvalParams};
use eend_core::{Demand, DesignProblem, WirelessInstance};
use eend_sim::SimRng;
use eend_stats::Table;
use eend_wireless::stacks;

fn main() {
    let opts = HarnessOpts::from_args(2, 5, 180);

    // Part 1 — centralized designers: Enetwork vs bottleneck load.
    let mut rng = SimRng::new(404);
    let positions: Vec<(f64, f64)> =
        (0..50).map(|_| (rng.range_f64(0.0, 600.0), rng.range_f64(0.0, 600.0))).collect();
    let inst = WirelessInstance::new(positions, eend_radio::cards::cabletron());
    let demands: Vec<Demand> = (0..10)
        .map(|_| loop {
            let s = rng.range_usize(0, 50);
            let d = rng.range_usize(0, 50);
            if s != d {
                break Demand::new(s, d, 8_000.0);
            }
        })
        .collect();
    let problem = DesignProblem::new(inst, demands);
    let mut t = Table::new(vec!["designer", "Enetwork (J)", "max node load (Kbit/s)", "relays"]);
    for h in [Heuristic::IdleFirst, Heuristic::LifetimeAware { bandwidth_bps: 2e6 }] {
        let d = h.design(&problem);
        let e = evaluate(&problem, &d, &EvalParams::standard(900.0));
        t.row(vec![
            h.name(),
            format!("{:.1}", e.enetwork_j()),
            format!("{:.1}", d.max_node_load(&problem) / 1000.0),
            d.relay_count(&problem).to_string(),
        ]);
    }
    println!("Part 1 — centralized designers (50 nodes, 10 demands at 8 Kbit/s)\n");
    println!("{t}");
    println!(
        "LifetimeAware trades a little total energy for a smaller bottleneck\n\
         — the gap the paper's future-work section points at.\n"
    );

    // Part 2 — simulated stacks: projected time-to-first-death with a
    // 1 kJ battery per node (a few AA-hours at these powers). One
    // campaign; both table columns cut from the same records.
    let stack_list = [stacks::titan_pc(), stacks::dsr_odpm_pc(), stacks::dsr_active()];
    let spec = figure_spec("lifetime", &opts, &stack_list, &[4.0]);
    let result = Executor::bounded().run(&spec);
    let life = result.series(|p| p.rate_kbps, |m| m.lifetime_to_first_death_s(1000.0));
    let imb = result.series(|p| p.rate_kbps, |m| m.energy_imbalance());

    let mut t =
        Table::new(vec!["stack", "lifetime to first death (s)", "energy imbalance (max/mean)"]);
    for (l, i) in life.iter().zip(&imb) {
        t.row(vec![
            l.label.clone(),
            format!("{:.0}", l.points[0].summary),
            format!("{:.2}", i.points[0].summary),
        ]);
    }
    println!("Part 2 — simulated stacks (small network, 4 Kbit/s, 1 kJ batteries)\n");
    println!("{t}");
    println!(
        "Idling-first stacks extend first-death lifetime by letting off-route\n\
         nodes sleep, but concentrate burden on the backbone (imbalance > 1):\n\
         minimising energy and maximising lifetime are different objectives."
    );
}
