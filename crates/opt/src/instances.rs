//! Named, deterministic case-study instances for the design↔simulate loop.
//!
//! These are the problems the CLI `design` subcommand and the CI
//! `design-smoke` job run against. Everything is a pure function of the
//! name — positions, demands, and rates are fixed so fingerprints, caches,
//! and golden traces stay stable across runs and machines.

use eend_core::problem::{Demand, DesignProblem, WirelessInstance};
use eend_radio::cards;
use eend_sim::{mix_seed, SimRng};

/// All instance names accepted by [`by_name`].
pub const NAMES: [&str; 3] = ["grid7", "random30", "random50"];

/// Looks up a case-study instance by name.
pub fn by_name(name: &str) -> Option<DesignProblem> {
    match name {
        "grid7" => Some(grid7()),
        "random30" => Some(random30()),
        "random50" => Some(random50()),
        _ => None,
    }
}

/// 7×7 grid, 150 m spacing, Cabletron radios (250 m range): each node
/// reaches its orthogonal and diagonal neighbours, so plenty of route
/// alternatives exist. Six corner-to-corner and edge-to-edge demands at
/// 8 kb/s.
pub fn grid7() -> DesignProblem {
    let mut positions = Vec::with_capacity(49);
    for r in 0..7 {
        for c in 0..7 {
            positions.push((c as f64 * 150.0, r as f64 * 150.0));
        }
    }
    let inst = WirelessInstance::new(positions, cards::cabletron());
    let demands = vec![
        Demand::new(0, 48, 8_000.0),  // corner to corner
        Demand::new(6, 42, 8_000.0),  // the other diagonal
        Demand::new(3, 45, 8_000.0),  // top edge to bottom edge
        Demand::new(21, 27, 8_000.0), // left edge to right edge
        Demand::new(7, 13, 8_000.0),  // across row 1
        Demand::new(35, 41, 8_000.0), // across row 5
    ];
    DesignProblem::new(inst, demands)
}

/// Uniform-random scatter with seeded, connectivity-checked placement.
pub(crate) fn random_instance(n: usize, side_m: f64, demands_n: usize, seed: u64) -> DesignProblem {
    let card = cards::cabletron();
    // Rejection-sample placements until the connectivity graph admits a
    // route for every demand (deterministic: attempts advance the seed).
    for attempt in 0..64u64 {
        let mut rng = SimRng::new(mix_seed(&[0x1457a9ce, seed, attempt]));
        let mut positions = Vec::with_capacity(n);
        for _ in 0..n {
            let x = rng.range_f64(0.0, side_m);
            let y = rng.range_f64(0.0, side_m);
            positions.push((x, y));
        }
        let mut demands = Vec::with_capacity(demands_n);
        for _ in 0..demands_n {
            let s = rng.range_usize(0, n);
            let mut t = rng.range_usize(0, n);
            while t == s {
                t = rng.range_usize(0, n);
            }
            demands.push(Demand::new(s, t, 8_000.0));
        }
        let inst = WirelessInstance::new(positions, card);
        let problem = DesignProblem::new(inst, demands);
        let g = problem.instance.connectivity_graph();
        let routable = problem
            .demands
            .iter()
            .all(|d| eend_graph::paths::dijkstra(&g, d.source).path_to(d.sink).is_some());
        if routable {
            return problem;
        }
    }
    panic!("no connected placement found for n={n} seed={seed}");
}

/// 30 nodes scattered over 500 m × 500 m (seed 42), four 8 kb/s demands.
pub fn random30() -> DesignProblem {
    random_instance(30, 500.0, 4, 42)
}

/// 50 nodes scattered over 600 m × 600 m (seed 7), six 8 kb/s demands.
pub fn random50() -> DesignProblem {
    random_instance(50, 600.0, 6, 7)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::problem_fingerprint;
    use eend_core::design::{Designer, Heuristic};

    #[test]
    fn instances_are_deterministic() {
        for name in NAMES {
            let a = by_name(name).expect(name);
            let b = by_name(name).expect(name);
            assert_eq!(
                problem_fingerprint(&a),
                problem_fingerprint(&b),
                "{name} must be reproducible"
            );
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn every_instance_is_designable() {
        for name in NAMES {
            let p = by_name(name).expect(name);
            let d = Heuristic::IdleFirst.design(&p);
            assert!(d.is_feasible(), "{name}: IdleFirst must route all demands");
        }
    }
}
