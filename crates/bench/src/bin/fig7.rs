//! Regenerates **Fig 7**: optimal hop count `m_opt` vs bandwidth
//! utilisation R/B for each card at its nominal range.
//!
//! ```text
//! cargo run --release -p eend-bench --bin fig7
//! ```

use eend_core::analysis;
use eend_radio::cards;

fn main() {
    let cards = [
        cards::aironet_350(),
        cards::cabletron(),
        cards::mica2(),
        cards::leach_n4(1.0),
        cards::leach_n2(1.0),
        cards::hypothetical_cabletron(),
    ];
    println!("Fig 7: m_opt for different cards (x = R/B, one column per card)\n");
    print!("{:>6}", "R/B");
    for c in &cards {
        print!("  {:>22}", format!("{} (D={}m)", c.name, c.nominal_range_m));
    }
    println!();
    let curves: Vec<_> = cards.iter().map(|c| analysis::fig7_series(c, 0.1, 0.5, 17)).collect();
    for (i, &(q, _)) in curves[0].iter().enumerate() {
        print!("{q:>6.3}");
        for curve in &curves {
            print!("  {:>22.3}", curve[i].1);
        }
        println!();
    }
    println!(
        "\nPaper's reading: every real card stays below m_opt = 2 at all R/B\n\
         (relays never beat direct transmission); only the Hypothetical\n\
         Cabletron crosses 2, at R/B ≈ 0.25."
    );
    for c in &cards {
        let crossing = analysis::fig7_series(c, 0.1, 0.5, 401).into_iter().find(|&(_, m)| m >= 2.0);
        match crossing {
            Some((q, _)) => println!("  {:<24} crosses m_opt = 2 at R/B ≈ {q:.3}", c.name),
            None => println!("  {:<24} never reaches m_opt = 2", c.name),
        }
    }
}
