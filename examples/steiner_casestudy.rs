//! The Section 3 counterexamples: minimum-weight Steiner trees/forests
//! that tie under MPC's objective but diverge in real network energy.
//!
//! ```text
//! cargo run --release --example steiner_casestudy
//! ```

use eend::core::casestudy::{
    case_energy, esf1_closed_form, esf2_closed_form, est1_closed_form, est2_closed_form, sf1, sf2,
    sf_idle_ratio_with_endpoints, st1, st2, st_comm_deviation, CaseParams,
};

fn main() {
    println!("Single-sink case (Figs 1-3): two minimum-weight Steiner trees\n");
    println!("{:>4} {:>12} {:>12} {:>10} {:>12}", "k", "E(ST1)", "E(ST2)", "ratio", "(k+3)/4");
    for k in [1, 2, 4, 8, 16, 32] {
        let p = CaseParams::unit(k);
        let e1 = case_energy(&st1(k), &p);
        let e2 = case_energy(&st2(k), &p);
        let comm_ratio = st1(k).transmissions() as f64 / st2(k).transmissions() as f64;
        assert!((e1 - est1_closed_form(&p)).abs() < 1e-9, "Eq 6 check");
        assert!((e2 - est2_closed_form(&p)).abs() < 1e-9, "Eq 7 check");
        println!("{k:>4} {e1:>12.1} {e2:>12.1} {comm_ratio:>10.2} {:>12.2}", st_comm_deviation(k));
    }
    println!(
        "\nBoth trees wake one relay, yet ST1 forces flows onto long chains: its\n\
         communication cost deviates by (k+3)/4 — Steiner weight alone mis-ranks.\n"
    );

    println!("Multi-commodity case (Figs 4-6): two Steiner forests\n");
    println!(
        "{:>4} {:>12} {:>12} {:>8} {:>8} {:>14}",
        "k", "E(SF1)", "E(SF2)", "relays1", "relays2", "idle ratio →3/2"
    );
    for k in [1, 2, 4, 8, 16, 32] {
        let p = CaseParams::unit(k);
        let e1 = case_energy(&sf1(k), &p);
        let e2 = case_energy(&sf2(k), &p);
        assert!((e1 - esf1_closed_form(&p)).abs() < 1e-9, "Eq 8 check");
        assert!((e2 - esf2_closed_form(&p)).abs() < 1e-9, "Eq 9 check");
        println!(
            "{k:>4} {e1:>12.1} {e2:>12.1} {:>8} {:>8} {:>14.3}",
            sf1(k).relays.len(),
            sf2(k).relays.len(),
            sf_idle_ratio_with_endpoints(k),
        );
    }
    println!(
        "\nSame communication cost, but SF1 keeps k relays awake where SF2 keeps 1;\n\
         counting endpoint idling the gap converges to the constant 3/2 — idling\n\
         structure, not tree weight, decides the energy-efficient design."
    );
}
