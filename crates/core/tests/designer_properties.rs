//! Property tests over the design heuristics: on randomised instances every
//! designer must produce structurally valid designs, and feasibility must
//! exactly match graph connectivity.
//!
//! All case parameters are derived from the fixed [`CASE_SEED`] constant, so
//! every tier-1 run exercises the exact same instances — there is no hidden
//! proptest-style shrink/persistence state and failures reproduce verbatim.

use eend_core::design::{CommMetric, Designer, Heuristic};
use eend_core::evaluate::{evaluate, EvalParams};
use eend_core::{Demand, DesignProblem, WirelessInstance};
use eend_graph::paths;
use eend_radio::cards;
use eend_sim::SimRng;

/// Fixed master seed: deterministic across runs and machines.
const CASE_SEED: u64 = 0xD5E1_6E02;

fn all_heuristics() -> Vec<Heuristic> {
    vec![
        Heuristic::IdleFirst,
        Heuristic::CommFirst(CommMetric::RadiatedPower),
        Heuristic::CommFirst(CommMetric::TotalPower),
        Heuristic::Joint { use_rate: true, bandwidth_bps: 2e6 },
        Heuristic::Joint { use_rate: false, bandwidth_bps: 2e6 },
        Heuristic::MpcSteiner,
        Heuristic::LifetimeAware { bandwidth_bps: 2e6 },
    ]
}

/// Builds the instance for one fuzz case entirely from `rng`.
fn random_problem(
    rng: &mut SimRng,
    n_lo: usize,
    n_hi: usize,
    k_hi: usize,
    side_lo: f64,
    side_hi: f64,
) -> DesignProblem {
    let n = rng.range_usize(n_lo, n_hi);
    let k = rng.range_usize(1, k_hi);
    let side = rng.range_f64(side_lo, side_hi);
    let positions: Vec<(f64, f64)> =
        (0..n).map(|_| (rng.range_f64(0.0, side), rng.range_f64(0.0, side))).collect();
    let inst = WirelessInstance::new(positions, cards::cabletron());
    let demands: Vec<Demand> = (0..k)
        .map(|_| loop {
            let s = rng.range_usize(0, n);
            let d = rng.range_usize(0, n);
            if s != d {
                break Demand::new(s, d, 4_000.0);
            }
        })
        .collect();
    DesignProblem::new(inst, demands)
}

#[test]
fn designs_are_structurally_valid() {
    let mut rng = SimRng::new(CASE_SEED);
    for case in 0..48 {
        let problem = random_problem(&mut rng, 4, 20, 5, 300.0, 900.0);
        let demands = problem.demands.clone();
        let conn = problem.instance.connectivity_graph();

        for h in all_heuristics() {
            let design = h.design(&problem);
            assert_eq!(design.routes.len(), demands.len(), "case {case}");
            for (demand, route) in demands.iter().zip(&design.routes) {
                // Feasibility must match reachability exactly.
                let reachable = paths::bfs_hops(&conn, demand.source)[demand.sink] != usize::MAX;
                assert_eq!(
                    route.is_some(),
                    reachable,
                    "case {case} {}: feasibility/connectivity mismatch",
                    h.name()
                );
                let Some(route) = route else { continue };
                // Routes are simple paths over real links with the right
                // endpoints, and every hop respects the radio range.
                assert_eq!(route[0], demand.source, "case {case}");
                assert_eq!(*route.last().unwrap(), demand.sink, "case {case}");
                let mut uniq = route.clone();
                uniq.sort_unstable();
                uniq.dedup();
                assert_eq!(uniq.len(), route.len(), "case {case} {}: route not simple", h.name());
                for w in route.windows(2) {
                    assert!(
                        conn.edge_between(w[0], w[1]).is_some(),
                        "case {case} {}: hop ({}, {}) is not a link",
                        h.name(),
                        w[0],
                        w[1]
                    );
                    // Every node on a route must be awake.
                    assert!(
                        design.active[w[0]] && design.active[w[1]],
                        "case {case} {}: route crosses a sleeping node",
                        h.name()
                    );
                }
            }
            // Endpoints of every demand are always awake.
            for d in &demands {
                assert!(design.active[d.source] && design.active[d.sink], "case {case}");
            }
            // The evaluator accepts any design without panicking and
            // reports non-negative, finite energy.
            let e = evaluate(&problem, &design, &EvalParams::standard(100.0));
            assert!(e.enetwork_j().is_finite() && e.enetwork_j() >= 0.0, "case {case}");
        }
    }
}

/// The idle-first designer never wakes more relays than MTPR: its whole
/// objective is the awake set, while MTPR ignores it.
#[test]
fn idle_first_wakes_no_more_relays_than_mtpr() {
    let mut rng = SimRng::new(CASE_SEED ^ 0xA5A5);
    let mut compared = 0;
    for case in 0..48 {
        let problem = random_problem(&mut rng, 6, 18, 4, 500.0, 500.0);
        let idle = Heuristic::IdleFirst.design(&problem);
        let mtpr = Heuristic::CommFirst(CommMetric::RadiatedPower).design(&problem);
        if !(idle.is_feasible() && mtpr.is_feasible()) {
            continue; // disconnected instance: the comparison is vacuous
        }
        compared += 1;
        assert!(
            idle.relay_count(&problem) <= mtpr.relay_count(&problem),
            "case {case}: idle-first woke {} relays vs MTPR's {}",
            idle.relay_count(&problem),
            mtpr.relay_count(&problem)
        );
    }
    // The fixed seed must keep producing enough connected instances for the
    // comparison to mean something; if generation drifts, fail loudly
    // rather than pass vacuously.
    assert!(compared >= 10, "only {compared}/48 cases were feasible; test is near-vacuous");
}
