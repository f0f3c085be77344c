//! The memoized [`Neighbourhood`] against the move semantics it replaced.
//!
//! [`apply_move`] is the uncached move application the searches ran before
//! the neighbourhood was memoized, kept verbatim: every call recomputes
//! its Yen ranking, shortest-path tree or detour from scratch. The memo
//! must return the identical neighbour (or refusal) for every move, and
//! undoing the move must restore the design it was applied to.

use super::*;
use crate::instances::random_instance;
use eend_graph::paths::dijkstra_with;
use proptest::prelude::*;

/// The awake set implied by `routes` (see the in-place `rebuild_active`).
fn active_for(problem: &DesignProblem, routes: &[Option<Vec<usize>>]) -> Vec<bool> {
    let mut active = Vec::new();
    rebuild_active(problem, routes, &mut active);
    active
}

/// Applies `mv` to `design`, returning the neighbour design, or `None`
/// when the move is inapplicable (no such alternative path, node not a
/// relay, re-route impossible, …). Purely deterministic.
fn apply_move(
    problem: &DesignProblem,
    g: &Graph,
    design: &Design,
    mv: Move,
) -> Option<Design> {
    match mv {
        Move::Swap { demand, k } => {
            let d = problem.demands.get(demand)?;
            let alternatives = k_shortest_paths(
                g,
                d.source,
                d.sink,
                k + 1,
                |e, _, _| g.edge(e).w,
                |_| 0.0,
            );
            let (_, path) = alternatives.into_iter().nth(k)?;
            if design.routes[demand].as_deref() == Some(path.as_slice()) {
                return None; // no-op move
            }
            let mut routes = design.routes.clone();
            routes[demand] = Some(path);
            let active = active_for(problem, &routes);
            Some(Design { routes, active })
        }
        Move::Sleep { node } => {
            if !design.active[node] {
                return None;
            }
            let terminals = problem.terminals();
            if terminals.contains(&node) {
                return None; // endpoints can never sleep
            }
            let mut routes = design.routes.clone();
            for (i, d) in problem.demands.iter().enumerate() {
                let crosses = routes[i].as_ref().is_some_and(|r| r.contains(&node));
                if !crosses {
                    continue;
                }
                let sp = dijkstra_with(
                    g,
                    d.source,
                    |e, _, _| g.edge(e).w,
                    |v| if v == node { f64::INFINITY } else { 0.0 },
                );
                routes[i] = Some(sp.path_to(d.sink)?); // unroutable → move fails
            }
            let active = active_for(problem, &routes);
            if active[node] {
                return None; // another route still pins it awake (cannot happen, but cheap)
            }
            if *design == (Design { routes: routes.clone(), active: active.clone() }) {
                return None;
            }
            Some(Design { routes, active })
        }
        Move::Wake { node, demand } => {
            let d = problem.demands.get(demand)?;
            if node == d.source || node == d.sink {
                return None;
            }
            if design.routes[demand].as_ref().is_some_and(|r| r.contains(&node)) {
                return None; // already through it
            }
            // Cheapest simple path source → node → sink: the two legs must
            // only share `node`.
            let from_node = dijkstra_with(g, node, |e, _, _| g.edge(e).w, |_| 0.0);
            let to_src = from_node.path_to(d.source)?;
            let to_sink = from_node.path_to(d.sink)?;
            let mut path: Vec<usize> = to_src.into_iter().rev().collect(); // source … node
            for &v in &to_sink[1..] {
                if path.contains(&v) {
                    return None; // legs overlap: not a simple path
                }
                path.push(v);
            }
            let mut routes = design.routes.clone();
            routes[demand] = Some(path);
            let active = active_for(problem, &routes);
            Some(Design { routes, active })
        }
    }
}

/// How often a comparison met the two refusals that hinge on a memoized
/// detour or tree rather than a rank lookup.
#[derive(Default)]
struct Coverage {
    /// Sleeps refused because a crossing demand had no detour.
    stranding_sleeps: usize,
    /// Wakes refused because the two legs shared a node.
    overlapping_wakes: usize,
}

const K_PATHS: usize = 4;

/// Every move the searches can propose on a design of `p`.
fn all_moves(p: &DesignProblem) -> Vec<Move> {
    let demands = p.demands.len();
    let mut moves = Vec::new();
    for demand in 0..demands {
        for k in 0..K_PATHS {
            moves.push(Move::Swap { demand, k });
        }
    }
    for node in 0..p.instance.node_count() {
        moves.push(Move::Sleep { node });
        for demand in 0..demands {
            moves.push(Move::Wake { node, demand });
        }
    }
    moves
}

/// Applies every move to every start design, then to a spread of the
/// neighbours reached, checking one memo against [`apply_move`].
fn compare_with_reference(p: &DesignProblem, coverage: &mut Coverage) -> Result<(), String> {
    let g = p.instance.connectivity_graph();
    let mut hood = Neighbourhood::new(p, K_PATHS);
    let moves = all_moves(p);
    let mut frontier: Vec<Design> = standard_starts().iter().map(|h| h.design(p)).collect();
    for _level in 0..2 {
        let mut reached = Vec::new();
        for design in &frontier {
            for &mv in &moves {
                let want = apply_move(p, &g, design, mv);
                let mut work = design.clone();
                let got = hood.apply(&mut work, mv).then(|| work.clone());
                if got != want {
                    return Err(format!("{mv:?}: memo {got:?}, reference {want:?}"));
                }
                if got.is_some() {
                    hood.undo(&mut work);
                }
                if work != *design {
                    return Err(format!("{mv:?}: left {work:?} behind, not {design:?}"));
                }
                match (mv, want) {
                    (_, Some(next)) => reached.push(next),
                    (Move::Sleep { node }, None) => {
                        let stranded = p.demands.iter().zip(&design.routes).any(|(d, r)| {
                            r.as_ref().is_some_and(|r| r.contains(&node))
                                && dijkstra_with(
                                    &g,
                                    d.source,
                                    |e, _, _| g.edge(e).w,
                                    |v| if v == node { f64::INFINITY } else { 0.0 },
                                )
                                .path_to(d.sink)
                                .is_none()
                        });
                        coverage.stranding_sleeps += usize::from(stranded);
                    }
                    (Move::Wake { node, demand }, None) => {
                        let d = &p.demands[demand];
                        let tree = dijkstra(&g, node);
                        let legs = tree.path_to(d.source).is_some() && tree.path_to(d.sink).is_some();
                        let through =
                            design.routes[demand].as_ref().is_some_and(|r| r.contains(&node));
                        if legs && node != d.source && node != d.sink && !through {
                            coverage.overlapping_wakes += 1;
                        }
                    }
                    (Move::Swap { .. }, None) => {}
                }
            }
        }
        // The next level: a spread of at most 8 of the neighbours reached.
        let stride = (reached.len() / 8).max(1);
        frontier = reached.into_iter().step_by(stride).take(8).collect();
    }
    Ok(())
}

/// A seeded random field at random50's density (the placement of
/// [`random_instance`]).
fn field(n: usize, demands: usize, seed: u64) -> DesignProblem {
    random_instance(n, 600.0 * (n as f64 / 50.0).sqrt(), demands, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The memoized neighbourhood returns exactly the reference's neighbour
    /// (or refusal) for every move, on every start design and on designs
    /// reached by applied moves, over random connected fields of 12–40
    /// nodes.
    #[test]
    fn memo_matches_the_uncached_reference(
        n in 12usize..41,
        demands in 2usize..6,
        seed in 0u64..1_000_000
    ) {
        let compared = compare_with_reference(&field(n, demands, seed), &mut Coverage::default());
        prop_assert!(compared.is_ok(), "{}", compared.unwrap_err());
    }
}

/// The refusals that hinge on a memoized detour or tree — a sleep that
/// strands a demand, a wake whose legs overlap — occur in the compared
/// fields, so the equivalence above covers them.
#[test]
fn comparison_covers_stranding_sleeps_and_overlapping_wakes() {
    let mut coverage = Coverage::default();
    for seed in 0..6 {
        compare_with_reference(&field(16, 4, seed), &mut coverage).unwrap();
    }
    assert!(coverage.stranding_sleeps > 0, "no sleep stranded a demand");
    assert!(coverage.overlapping_wakes > 0, "no wake had overlapping legs");
}
