//! A miniature of the paper's Section 5.2.3 study (Figs 13–16): on the
//! 7×7 grid with the *Hypothetical Cabletron* — a card tuned so relaying
//! could pay off — which heuristic wins, and under which sleep
//! scheduling?
//!
//! Follows the paper's methodology exactly: stabilise routes at 2 Kbit/s
//! in the packet simulator, freeze them, then project `Enetwork` across
//! rates under perfect scheduling and under ODPM.
//!
//! ```text
//! cargo run --release --example grid_hypothetical
//! ```

use eend::sim::{SimDuration, SimRng};
use eend::wireless::{
    presets, project, stacks, Placement, ProjectionParams, Scheduling, Simulator,
};

fn main() {
    let stacks = [
        stacks::titan_pc(),
        stacks::dsrh_active(false),
        stacks::mtpr(false),
        stacks::mtpr(true),
        stacks::dsr_pc_active(),
    ];
    // Stabilise routes at 2 Kbit/s (shortened horizon for the example).
    let mut routes = Vec::new();
    let positions = Placement::Grid { rows: 7, cols: 7, width: 300.0, height: 300.0 }
        .positions(&mut SimRng::new(0));
    for stack in &stacks {
        let mut sc = presets::grid_hypothetical(stack.clone(), 2.0, 1);
        sc.duration = SimDuration::from_secs(60);
        let m = Simulator::new(&sc).run();
        routes.push((stack.name.clone(), m.routes));
    }

    let card = eend::radio::cards::hypothetical_cabletron();
    for (title, scheduling) in [
        ("perfect sleep scheduling (cf. Figs 13/15)", Scheduling::Perfect),
        ("ODPM scheduling (cf. Figs 14/16)", Scheduling::odpm_paper()),
    ] {
        println!("\nEnergy goodput (Kbit/J) with {title}");
        print!("{:>22}", "rate (Kbit/s):");
        let rates = [2.0, 5.0, 50.0, 200.0];
        for r in rates {
            print!("{r:>10}");
        }
        println!();
        for (name, flow_routes) in &routes {
            print!("{name:>22}");
            for r in rates {
                let p = project(
                    &positions,
                    &card,
                    flow_routes,
                    &ProjectionParams {
                        duration_s: 900.0,
                        bandwidth_bps: 2e6,
                        rate_bps: r * 1000.0,
                        power_control: true,
                        scheduling,
                    },
                );
                print!("{:>10.2}", p.energy_goodput_bit_per_j() / 1000.0);
            }
            println!();
        }
    }
    println!(
        "\nThe paper's finding: with perfect sleep scheduling the power-control\n\
         heuristics (MTPR/MTPR+/DSRH) edge ahead at very high rates; once ODPM's\n\
         idling is charged, TITAN-PC dominates below ~200 Kbit/s."
    );
}
