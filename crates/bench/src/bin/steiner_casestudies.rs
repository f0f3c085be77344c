//! Regenerates the **Section 3 worked examples** (Figs 1–6, Eqs 6–9):
//! Steiner trees/forests that tie under MPC's objective yet diverge in
//! `Enetwork`, cross-checked against the graph library's actual Steiner
//! solvers.
//!
//! ```text
//! cargo run --release -p eend-bench --bin steiner_casestudies
//! ```

use eend_core::casestudy::{
    case_energy, sf1, sf2, sf_idle_ratio_with_endpoints, st1, st2, st_comm_deviation, CaseParams,
};
use eend_graph::{steiner, Graph};
use eend_stats::Table;

fn main() {
    println!("Eqs 6-9 over k (unit parameters, alpha = 2)\n");
    let mut t = Table::new(vec![
        "k",
        "E(ST1)",
        "E(ST2)",
        "ST ratio",
        "(k+3)/4",
        "E(SF1)",
        "E(SF2)",
        "SF idle ratio",
    ]);
    for k in [1, 2, 4, 8, 16, 32, 64] {
        let p = CaseParams::unit(k);
        t.row(vec![
            k.to_string(),
            format!("{:.0}", case_energy(&st1(k), &p)),
            format!("{:.0}", case_energy(&st2(k), &p)),
            format!("{:.2}", st1(k).transmissions() as f64 / st2(k).transmissions() as f64),
            format!("{:.2}", st_comm_deviation(k)),
            format!("{:.0}", case_energy(&sf1(k), &p)),
            format!("{:.0}", case_energy(&sf2(k), &p)),
            format!("{:.3}", sf_idle_ratio_with_endpoints(k)),
        ]);
    }
    println!("{t}");

    // MPC-style check: on the Fig 1 instance both trees have the same
    // number of edges at uniform weights, so a minimum-weight Steiner
    // criterion cannot separate them — demonstrate with the 2-approx.
    let k = 6;
    let mut g = Graph::new(k + 3);
    let (sink, relay_i, relay_j) = (0, k + 1, k + 2);
    for l in 1..k {
        g.add_edge(l, l + 1, 1.0);
    }
    g.add_edge(1, relay_i, 1.0);
    g.add_edge(relay_i, sink, 1.0);
    for l in 1..=k {
        g.add_edge(l, relay_j, 1.0);
    }
    g.add_edge(relay_j, sink, 1.0);
    let terminals: Vec<usize> = (0..=k).collect();
    let tree = steiner::steiner_tree_2approx(&g, &terminals).expect("connected");
    let exact = steiner::exact_steiner_tree(&g, &terminals).expect("connected");
    println!(
        "Fig 1 instance (k = {k}): 2-approx Steiner weight {} vs exact {} — both\n\
         minimum-weight trees cost the same under MPC's objective, yet their\n\
         Enetwork differs by the ratios above. Tree weight cannot rank designs.",
        tree.weight, exact
    );
}
