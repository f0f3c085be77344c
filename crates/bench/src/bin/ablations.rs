//! Ablations over the design choices Section 4 leaves open: ODPM
//! keep-alive lengths, the ATIM window, and TITAN's forwarding bias.
//!
//! Each ablation is one declarative campaign: the variant under test is
//! the protocol-stack axis (every variant gets a unique stack name), so
//! the sweep runs on the same streaming executor as every other
//! experiment in the repo — no bespoke per-seed loops.
//!
//! ```text
//! cargo run --release -p eend-bench --bin ablations [-- --full]
//! ```

use eend_bench::{figure_spec, HarnessOpts};
use eend_campaign::Executor;
use eend_sim::SimDuration;
use eend_stats::{Summary, Table};
use eend_wireless::{stacks, PowerPolicy, ProtocolStack, TitanConfig};

/// Runs one ablation campaign (`variants` × one rate × the configured
/// seeds over the small-network preset) and returns each variant's
/// (delivery, goodput) summaries, in variant order.
fn run_ablation(
    name: &str,
    opts: &HarnessOpts,
    variants: &[ProtocolStack],
    rate_kbps: f64,
) -> Vec<(Summary, Summary)> {
    let spec = figure_spec(name, opts, variants, &[rate_kbps]);
    let result = Executor::bounded().run(&spec);
    let dr = result.series(|p| p.rate_kbps, |m| m.delivery_ratio());
    let gp = result.series(|p| p.rate_kbps, |m| m.energy_goodput_bit_per_j());
    dr.iter().zip(&gp).map(|(d, g)| (d.points[0].summary, g.points[0].summary)).collect()
}

fn main() {
    let opts = HarnessOpts::from_args(2, 5, 150);

    // --- ODPM keep-alive sweep (data, rrep) seconds. Run at 0.5 Kbit/s
    // (one packet every ~2 s) so short keep-alives actually expire
    // between packets; at the paper's 2-6 Kbit/s the inter-packet gap
    // never exceeds even 0.6 s and the sweep is flat.
    println!("Ablation 1: ODPM keep-alive timers (DSR-ODPM-PC, 0.5 Kbit/s)\n");
    let keepalives = [(0.6, 1.2), (2.0, 4.0), (5.0, 10.0), (20.0, 40.0)];
    let variants: Vec<ProtocolStack> = keepalives
        .iter()
        .map(|&(d, r)| {
            let mut stack = stacks::dsr_odpm_pc();
            stack.power_policy = PowerPolicy::Odpm {
                data_keepalive: SimDuration::from_secs_f64(d),
                rrep_keepalive: SimDuration::from_secs_f64(r),
            };
            stack.name = format!("ODPM({d},{r})");
            stack
        })
        .collect();
    let mut t = Table::new(vec!["keepalive (data,rrep)", "delivery", "goodput (bit/J)"]);
    for (&(d, r), (dr, gp)) in
        keepalives.iter().zip(run_ablation("ablation-keepalive", &opts, &variants, 0.5))
    {
        t.row(vec![format!("({d}, {r}) s"), format!("{dr}"), format!("{gp:.0}")]);
    }
    println!("{t}");
    println!(
        "Short keep-alives let relays sleep between sparse packets (higher\n\
         goodput) at the cost of per-packet PSM wake latency and churn.\n"
    );

    // --- ATIM window sweep.
    println!("Ablation 2: ATIM window (DSR-ODPM-PC, beacon 0.3 s)\n");
    let windows = [5u64, 20, 60, 120];
    let variants: Vec<ProtocolStack> = windows
        .iter()
        .map(|&ms| {
            let mut stack = stacks::dsr_odpm_pc();
            stack.psm.atim_window = SimDuration::from_millis(ms);
            stack.name = format!("ATIM-{ms}ms");
            stack
        })
        .collect();
    let mut t = Table::new(vec!["ATIM window", "delivery", "goodput (bit/J)"]);
    for (&ms, (dr, gp)) in windows.iter().zip(run_ablation("ablation-atim", &opts, &variants, 4.0))
    {
        t.row(vec![format!("{ms} ms"), format!("{dr}"), format!("{gp:.0}")]);
    }
    println!("{t}");
    println!("Wider windows burn idle energy in every PSM node every interval.\n");

    // --- TITAN bias sweep.
    println!("Ablation 3: TITAN forwarding bias (TITAN-PC, 4 Kbit/s)\n");
    let biases = [(0.0, 1.0), (0.5, 0.3), (0.9, 0.15), (1.0, 0.05)];
    let variants: Vec<ProtocolStack> = biases
        .iter()
        .map(|&(bias, p_min)| {
            let mut stack = stacks::titan_pc();
            if let eend_wireless::RoutingKind::Reactive(cfg) = &mut stack.routing {
                cfg.titan =
                    Some(TitanConfig { bias, p_min, psm_delay: SimDuration::from_millis(20) });
            }
            stack.name = format!("TITAN(bias={bias})");
            stack
        })
        .collect();
    let mut t = Table::new(vec!["bias", "p_min", "delivery", "goodput (bit/J)"]);
    for (&(bias, p_min), (dr, gp)) in
        biases.iter().zip(run_ablation("ablation-titan-bias", &opts, &variants, 4.0))
    {
        t.row(vec![format!("{bias}"), format!("{p_min}"), format!("{dr}"), format!("{gp:.0}")]);
    }
    println!("{t}");
    println!(
        "bias 0 ≡ DSR-ODPM-PC (everyone forwards); stronger bias concentrates\n\
         routes on the backbone — the paper's Section 4.3 design choice."
    );
}
