//! Deterministic metaheuristic search over designs.
//!
//! Two strategies share one move vocabulary:
//!
//! - [`multistart`]: first-improvement hill climbing from **every**
//!   constructive heuristic (the five designers of `eend-core`). The
//!   winner can therefore never be worse than the best single-shot
//!   heuristic under the same oracle — the baselines *are* the starting
//!   points.
//! - [`anneal`]: simulated annealing from the best heuristic start, with
//!   geometric cooling and Metropolis acceptance driven by a seed-keyed
//!   [`SimRng`], so a given `(seed, budget)` replays bit-identically.
//!
//! Moves:
//! - **route swap** — re-route one demand onto its `k`-th shortest
//!   alternative (Yen's algorithm over the connectivity graph);
//! - **relay sleep** — evict one non-terminal node from the awake set,
//!   re-routing every demand that crossed it;
//! - **relay wake** — force one demand through a chosen node (shortest
//!   path via that node), waking it.
//!
//! Every candidate is scored through the [`EvalOracle`]; the budget counts
//! *evaluation requests* (cached or not), so a cached re-run visits the
//! exact same candidates and emits a byte-identical trace while executing
//! zero underlying evaluations.
//!
//! The graph work behind the moves is memoized per search call (see
//! `Neighbourhood`): the graph and the demands never change during a
//! search, so each path a move needs is computed once.

use crate::fingerprint::{design_fingerprint_with, problem_fingerprint};
use crate::oracle::{EvalOracle, Objective, Score};
use eend_core::design::{Design, Designer, Heuristic};
use eend_core::problem::DesignProblem;
use eend_graph::paths::{dijkstra, k_shortest_paths, shortest_path_with, ShortestPaths};
use eend_graph::Graph;
use eend_sim::{mix_seed, SimRng};
use std::io::Write as _;

/// One line of the JSONL search trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// 0-based evaluation index.
    pub iter: u64,
    /// What produced the candidate (`start:IdleFirst`, `swap:d0k2`,
    /// `sleep:n17`, `wake:n9d1`).
    pub kind: String,
    /// The candidate's design fingerprint.
    pub fp: u64,
    /// The candidate's `Enetwork`, joules.
    pub enetwork_j: f64,
    /// The candidate's scalarised objective (lower is better).
    pub objective: f64,
    /// Whether the search moved to this candidate.
    pub accepted: bool,
    /// Whether this candidate became the best seen so far.
    pub best: bool,
}

impl TraceEvent {
    /// Renders the canonical JSONL line (no trailing newline). Floats are
    /// written with Rust's shortest-round-trip formatting — deterministic
    /// across runs and platforms for identical bit patterns.
    pub fn jsonl(&self) -> String {
        let mut line = Vec::new();
        self.write_jsonl(&mut line);
        String::from_utf8(line).expect("trace lines are UTF-8")
    }

    /// Appends [`TraceEvent::jsonl`]'s line to `out`. An `objective` with
    /// `enetwork_j`'s bits (the energy objective's) copies the text just
    /// written for `enetwork_j` rather than formatting it again.
    fn write_jsonl(&self, out: &mut Vec<u8>) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        out.extend_from_slice(b"{\"iter\":");
        let _ = write!(out, "{}", self.iter);
        out.extend_from_slice(b",\"kind\":\"");
        out.extend_from_slice(self.kind.as_bytes());
        out.extend_from_slice(b"\",\"fp\":\"");
        out.extend((0..16).rev().map(|nibble| HEX[(self.fp >> (4 * nibble)) as usize & 0xf]));
        out.extend_from_slice(b"\",\"enetwork_j\":");
        let energy = out.len();
        let _ = write!(out, "{}", self.enetwork_j);
        let energy = energy..out.len();
        out.extend_from_slice(b",\"objective\":");
        if self.objective.to_bits() == self.enetwork_j.to_bits() {
            out.extend_from_within(energy);
        } else {
            let _ = write!(out, "{}", self.objective);
        }
        out.extend_from_slice(b",\"accepted\":");
        out.extend_from_slice(if self.accepted { b"true" } else { b"false" });
        out.extend_from_slice(b",\"best\":");
        out.extend_from_slice(if self.best { b"true}" } else { b"false}" });
    }
}

/// Search configuration shared by both strategies.
#[derive(Debug, Clone)]
pub struct SearchOpts {
    /// RNG seed (annealing only; multistart is fully enumerative).
    pub seed: u64,
    /// Maximum oracle evaluation *requests* (cached hits included).
    pub budget: u64,
    /// What to minimise.
    pub objective: Objective,
    /// Alternatives per demand considered by route-swap moves.
    pub k_paths: usize,
}

impl SearchOpts {
    /// Defaults: seed 1, 200 evaluations, energy objective, 4 paths.
    pub fn new() -> SearchOpts {
        SearchOpts { seed: 1, budget: 200, objective: Objective::Energy, k_paths: 4 }
    }
}

impl Default for SearchOpts {
    fn default() -> SearchOpts {
        SearchOpts::new()
    }
}

/// Outcome of a search.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// The best design found.
    pub best_design: Design,
    /// Its oracle score.
    pub best_score: Score,
    /// Its scalarised objective.
    pub best_objective: f64,
    /// Scores of the single-shot heuristic starts, `(name, score)`,
    /// in the fixed start order — the baselines the winner is compared
    /// against.
    pub baselines: Vec<(String, Score)>,
    /// Every evaluation, in order.
    pub trace: Vec<TraceEvent>,
    /// Evaluation requests issued (== trace length).
    pub evals: u64,
}

impl SearchResult {
    /// The full trace as JSONL (one line per evaluation, trailing newline).
    pub fn trace_jsonl(&self) -> String {
        let mut out = Vec::with_capacity(self.trace.len() * 160);
        for ev in &self.trace {
            ev.write_jsonl(&mut out);
            out.push(b'\n');
        }
        String::from_utf8(out).expect("trace lines are UTF-8")
    }
}

/// The five constructive heuristics, in canonical start order.
pub fn standard_starts() -> Vec<Heuristic> {
    use eend_core::design::CommMetric;
    vec![
        Heuristic::CommFirst(CommMetric::RadiatedPower),
        Heuristic::CommFirst(CommMetric::TotalPower),
        Heuristic::Joint { use_rate: true, bandwidth_bps: 2_000_000.0 },
        Heuristic::IdleFirst,
        Heuristic::MpcSteiner,
        Heuristic::LifetimeAware { bandwidth_bps: 2_000_000.0 },
    ]
}

/// A local move over a design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Move {
    /// Re-route `demand` onto its `k`-th shortest alternative (0-based
    /// over the Yen ranking).
    Swap { demand: usize, k: usize },
    /// Put relay `node` to sleep, re-routing demands around it.
    Sleep { node: usize },
    /// Route `demand` through `node` (waking it if asleep).
    Wake { node: usize, demand: usize },
}

impl Move {
    fn kind(&self) -> String {
        match *self {
            Move::Swap { demand, k } => format!("swap:d{demand}k{k}"),
            Move::Sleep { node } => format!("sleep:n{node}"),
            Move::Wake { node, demand } => format!("wake:n{node}d{demand}"),
        }
    }
}

/// The move neighbourhood of one search, with its graph work memoized.
///
/// The connectivity graph, its edge weights and the demands are fixed for
/// a whole search, so every path a move needs depends only on the move,
/// never on the design it is applied to:
///
/// - a swap to rank `k` takes entry `k` of the demand's Yen ranking. Yen's
///   loop reads its path count only to decide when to stop, so the first
///   `j` paths are the same for any count `≥ j`, and one ranking of
///   `k_paths` paths answers every rank the search proposes;
/// - a wake through node `v` takes both legs from the shortest-path tree
///   rooted at `v`;
/// - a sleep of node `v` re-routes each crossing demand `d` onto the
///   cheapest path with `v` banned, keyed `(d, v)`.
///
/// Each is computed the first time a move asks for it. The memo lives for
/// one search call: at most D·k paths, n trees and D·n detours.
///
/// Moves apply in place: [`Neighbourhood::apply`] turns a design into its
/// neighbour and keeps what it replaced, and [`Neighbourhood::undo`] puts
/// it back when the search rejects the candidate, so scoring one costs no
/// copy of the design.
struct Neighbourhood<'p> {
    problem: &'p DesignProblem,
    g: Graph,
    k_paths: usize,
    /// `terminal[v]`: `v` is some demand's endpoint, so it never sleeps.
    terminal: Vec<bool>,
    /// `rankings[d]`: demand `d`'s `k_paths` cheapest paths, best first.
    rankings: Vec<Option<Vec<Vec<usize>>>>,
    /// `trees[v]`: the shortest-path tree rooted at `v`.
    trees: Vec<Option<ShortestPaths>>,
    /// `detours[d * n + v]`: demand `d`'s cheapest route avoiding `v`
    /// (`Some(None)` when there is none).
    detours: Vec<Option<Option<Vec<usize>>>>,
    /// The routes the last applied move replaced, `(demand, old route)`
    /// in replacement order.
    undo_routes: Vec<(usize, Option<Vec<usize>>)>,
    /// The awake set before the last applied move.
    undo_active: Vec<bool>,
}

impl<'p> Neighbourhood<'p> {
    fn new(problem: &'p DesignProblem, k_paths: usize) -> Neighbourhood<'p> {
        let n = problem.instance.node_count();
        let demands = problem.demands.len();
        let mut terminal = vec![false; n];
        for d in &problem.demands {
            terminal[d.source] = true;
            terminal[d.sink] = true;
        }
        Neighbourhood {
            problem,
            g: problem.instance.connectivity_graph(),
            k_paths,
            terminal,
            rankings: vec![None; demands],
            trees: vec![None; n],
            detours: vec![None; demands * n],
            undo_routes: Vec::new(),
            undo_active: Vec::new(),
        }
    }

    /// Path `k` of `demand`'s Yen ranking; `None` past its end (the move
    /// generators only propose `k < k_paths`).
    fn ranked(&mut self, demand: usize, k: usize) -> Option<&[usize]> {
        let d = self.problem.demands.get(demand)?;
        let (g, k_paths) = (&self.g, self.k_paths);
        let ranking = self.rankings[demand].get_or_insert_with(|| {
            k_shortest_paths(g, d.source, d.sink, k_paths, |e, _, _| g.edge(e).w, |_| 0.0)
                .into_iter()
                .map(|(_, path)| path)
                .collect()
        });
        ranking.get(k).map(Vec::as_slice)
    }

    /// The shortest-path tree rooted at `node`.
    fn tree(&mut self, node: usize) -> &ShortestPaths {
        let g = &self.g;
        self.trees[node].get_or_insert_with(|| dijkstra(g, node))
    }

    /// `demand`'s cheapest route with `node` banned, if any.
    fn detour(&mut self, demand: usize, node: usize) -> Option<&[usize]> {
        let n = self.trees.len();
        let d = &self.problem.demands[demand];
        let g = &self.g;
        self.detours[demand * n + node]
            .get_or_insert_with(|| {
                shortest_path_with(
                    g,
                    d.source,
                    d.sink,
                    |e, _, _| g.edge(e).w,
                    |v| if v == node { f64::INFINITY } else { 0.0 },
                )
                .map(|(_, path)| path)
            })
            .as_deref()
    }

    /// The deterministic hill-climbing move order: route swaps
    /// (demand-major, then alternative rank), then relay sleeps in node
    /// order.
    fn hill_moves(&self, design: &Design) -> Vec<Move> {
        let mut moves = Vec::new();
        for demand in 0..self.problem.demands.len() {
            for k in 0..self.k_paths {
                moves.push(Move::Swap { demand, k });
            }
        }
        for (node, &awake) in design.active.iter().enumerate() {
            if awake && !self.terminal[node] {
                moves.push(Move::Sleep { node });
            }
        }
        moves
    }

    /// Turns `design` into its neighbour under `mv`, in place, and
    /// returns `true`; returns `false` with `design` untouched when the
    /// move is inapplicable (no such alternative path, node not a relay,
    /// re-route impossible, …). Purely deterministic.
    fn apply(&mut self, design: &mut Design, mv: Move) -> bool {
        self.undo_routes.clear();
        if self.reroute(design, mv).is_none() {
            self.restore_routes(design);
            return false;
        }
        self.undo_active.clone_from(&design.active);
        design.rebuild_active(self.problem);
        true
    }

    /// Replaces the routes `mv` changes, logging each old one; `None` when
    /// the move turns out inapplicable, with the routes replaced so far
    /// still logged.
    fn reroute(&mut self, design: &mut Design, mv: Move) -> Option<()> {
        match mv {
            Move::Swap { demand, k } => {
                let path = self.ranked(demand, k)?;
                if design.routes[demand].as_deref() == Some(path) {
                    return None; // no-op move
                }
                let path = path.to_vec();
                self.replace_route(design, demand, path);
            }
            Move::Sleep { node } => {
                if !design.active[node] || self.terminal[node] {
                    return None; // asleep already, or an endpoint (never sleeps)
                }
                // Every crossing demand moves off `node` and no other route
                // uses it, so the rebuilt awake set drops it: the neighbour
                // always differs from `design`.
                for i in 0..design.routes.len() {
                    if design.routes[i].as_ref().is_some_and(|r| r.contains(&node)) {
                        let path = self.detour(i, node)?.to_vec(); // unroutable → move fails
                        self.replace_route(design, i, path);
                    }
                }
            }
            Move::Wake { node, demand } => {
                let d = self.problem.demands.get(demand)?;
                if node == d.source || node == d.sink {
                    return None;
                }
                if design.routes[demand].as_ref().is_some_and(|r| r.contains(&node)) {
                    return None; // already through it
                }
                // Cheapest simple path source → node → sink: the two legs
                // must only share `node`.
                let tree = self.tree(node);
                let mut path = tree.path_to(d.source)?;
                path.reverse(); // source … node
                let to_sink = tree.path_to(d.sink)?;
                for &v in &to_sink[1..] {
                    if path.contains(&v) {
                        return None; // legs overlap: not a simple path
                    }
                    path.push(v);
                }
                self.replace_route(design, demand, path);
            }
        }
        Some(())
    }

    /// Restores the design the last applied move started from.
    fn undo(&mut self, design: &mut Design) {
        self.restore_routes(design);
        std::mem::swap(&mut design.active, &mut self.undo_active);
    }

    fn replace_route(&mut self, design: &mut Design, demand: usize, path: Vec<usize>) {
        let old = design.routes[demand].replace(path);
        self.undo_routes.push((demand, old));
    }

    fn restore_routes(&mut self, design: &mut Design) {
        while let Some((demand, route)) = self.undo_routes.pop() {
            design.routes[demand] = route;
        }
    }
}

/// Internal driver state shared by both strategies.
struct Driver<'a, O: EvalOracle> {
    problem: &'a DesignProblem,
    /// The problem's digest, hashed once per search and folded into every
    /// trace fingerprint.
    problem_fp: u64,
    oracle: &'a mut O,
    objective: Objective,
    budget: u64,
    evals: u64,
    trace: Vec<TraceEvent>,
    best_objective: f64,
}

impl<'a, O: EvalOracle> Driver<'a, O> {
    fn new(problem: &'a DesignProblem, oracle: &'a mut O, opts: &SearchOpts) -> Driver<'a, O> {
        Driver {
            problem,
            problem_fp: problem_fingerprint(problem),
            oracle,
            objective: opts.objective,
            budget: opts.budget,
            evals: 0,
            trace: Vec::new(),
            best_objective: f64::INFINITY,
        }
    }

    fn exhausted(&self) -> bool {
        self.evals >= self.budget
    }

    /// Scores a candidate, appends the trace event, and reports
    /// `(score, objective, is_new_best)`.
    fn score(&mut self, kind: String, design: &Design, accepted: bool) -> (Score, f64, bool) {
        let score = self.oracle.evaluate(self.problem, design);
        let objective = self.objective.value(&score);
        let best = objective < self.best_objective;
        if best {
            self.best_objective = objective;
        }
        self.trace.push(TraceEvent {
            iter: self.evals,
            kind,
            fp: design_fingerprint_with(self.problem_fp, design),
            enetwork_j: score.enetwork_j,
            objective,
            accepted,
            best,
        });
        self.evals += 1;
        (score, objective, best)
    }
}

/// Scores every heuristic start (the baselines), returning the driver plus
/// every scored start, in start order. Shared prologue of both strategies —
/// starts are scored *before* any local search spends budget, so the
/// baselines are complete whenever `budget >=` the number of heuristics.
#[allow(clippy::type_complexity)]
fn score_starts<'a, O: EvalOracle>(
    problem: &'a DesignProblem,
    oracle: &'a mut O,
    opts: &SearchOpts,
) -> (Driver<'a, O>, Vec<(String, Score)>, Vec<(Design, Score, f64)>) {
    let mut driver = Driver::new(problem, oracle, opts);
    let mut baselines = Vec::new();
    let mut starts = Vec::new();
    for h in standard_starts() {
        if driver.exhausted() {
            break;
        }
        let design = h.design(problem);
        let (score, objective, _) = driver.score(format!("start:{}", h.name()), &design, true);
        baselines.push((h.name(), score));
        starts.push((design, score, objective));
    }
    assert!(!starts.is_empty(), "budget must allow at least one start");
    (driver, baselines, starts)
}

/// Multi-start first-improvement hill climbing from every constructive
/// heuristic. Fully enumerative and deterministic: `opts.seed` is unused.
/// All starts are scored up front, then each is climbed in turn with the
/// remaining budget — the winner can never lose to a scored baseline.
pub fn multistart<O: EvalOracle>(
    problem: &DesignProblem,
    oracle: &mut O,
    opts: &SearchOpts,
) -> SearchResult {
    let mut hood = Neighbourhood::new(problem, opts.k_paths);
    let (mut driver, baselines, starts) = score_starts(problem, oracle, opts);
    let mut global: Option<(Design, Score, f64)> = None;
    for (start, start_score, start_obj) in starts {
        // Climb.
        let mut current = start;
        let mut current_score = start_score;
        let mut current_obj = start_obj;
        'climb: loop {
            if driver.exhausted() {
                break;
            }
            for mv in hood.hill_moves(&current) {
                if driver.exhausted() {
                    break 'climb;
                }
                if !hood.apply(&mut current, mv) {
                    continue;
                }
                let (score, objective, _) = driver.score(mv.kind(), &current, false);
                if objective < current_obj {
                    driver.trace.last_mut().expect("just pushed").accepted = true;
                    current_score = score;
                    current_obj = objective;
                    continue 'climb; // first improvement: restart the scan
                }
                hood.undo(&mut current);
            }
            break; // local optimum
        }
        if global.as_ref().is_none_or(|(_, _, o)| current_obj < *o) {
            global = Some((current, current_score, current_obj));
        }
    }
    let (best_design, best_score, best_objective) = global.expect("at least one start");
    SearchResult {
        best_design,
        best_score,
        best_objective,
        baselines,
        evals: driver.evals,
        trace: driver.trace,
    }
}

/// Simulated annealing from the best heuristic start: geometric cooling,
/// Metropolis acceptance, all randomness drawn from a [`SimRng`] keyed by
/// `opts.seed` — the same `(seed, budget)` replays bit-identically.
///
/// A proposal with nothing to draw from (a swap or wake on a problem
/// without demands, a swap when `opts.k_paths` is 0) counts as
/// inapplicable and draws nothing further.
pub fn anneal<O: EvalOracle>(
    problem: &DesignProblem,
    oracle: &mut O,
    opts: &SearchOpts,
) -> SearchResult {
    let mut hood = Neighbourhood::new(problem, opts.k_paths);
    let (mut driver, baselines, starts) = score_starts(problem, oracle, opts);
    let (start, start_score, start_obj) = starts
        .into_iter()
        .reduce(|best, s| if s.2 < best.2 { s } else { best })
        .expect("at least one start");
    let mut rng = SimRng::new(mix_seed(&[0x5ea7c4_a17e41u64, opts.seed]));
    let mut current = start;
    let mut current_obj = start_obj;
    let mut best = (current.clone(), start_score, start_obj);

    // Initial temperature: a tenth of the starting objective's magnitude —
    // early iterations accept most uphill moves of the natural step size.
    let t0 = (start_obj.abs() * 0.1).max(1e-9);
    let n = problem.instance.node_count();
    let demands = problem.demands.len();
    let mut failed_proposals = 0u32;
    while !driver.exhausted() {
        // Propose: 50% swap, 25% sleep, 25% wake.
        let mv = match rng.below(4) {
            0 | 1 if demands == 0 || opts.k_paths == 0 => None,
            0 | 1 => Some(Move::Swap {
                demand: rng.range_usize(0, demands),
                k: rng.range_usize(0, opts.k_paths),
            }),
            2 if n == 0 => None,
            2 => Some(Move::Sleep { node: rng.range_usize(0, n) }),
            _ if demands == 0 => None,
            _ => Some(Move::Wake {
                node: rng.range_usize(0, n),
                demand: rng.range_usize(0, demands),
            }),
        };
        let Some(mv) = mv.filter(|&mv| hood.apply(&mut current, mv)) else {
            failed_proposals += 1;
            if failed_proposals >= 256 {
                break; // neighbourhood exhausted (tiny instances)
            }
            continue;
        };
        failed_proposals = 0;
        let temp = t0 * 0.95f64.powi(driver.evals as i32);
        let (score, objective, is_best) = driver.score(mv.kind(), &current, false);
        let delta = objective - current_obj;
        let accept = delta <= 0.0 || rng.chance((-delta / temp.max(1e-12)).exp());
        driver.trace.last_mut().expect("just pushed").accepted = accept;
        if accept {
            current_obj = objective;
            if is_best {
                best = (current.clone(), score, objective);
            }
        } else {
            hood.undo(&mut current);
        }
    }
    let (best_design, best_score, best_objective) = best;
    SearchResult {
        best_design,
        best_score,
        best_objective,
        baselines,
        evals: driver.evals,
        trace: driver.trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::FluidOracle;
    use eend_core::problem::{Demand, WirelessInstance};
    use eend_radio::cards;

    fn grid_problem() -> DesignProblem {
        // 4×4 grid, 150 m spacing: diagonals in range, alternatives exist.
        let mut positions = Vec::new();
        for r in 0..4 {
            for c in 0..4 {
                positions.push((c as f64 * 150.0, r as f64 * 150.0));
            }
        }
        let inst = WirelessInstance::new(positions, cards::cabletron());
        DesignProblem::new(inst, vec![Demand::new(0, 15, 8_000.0), Demand::new(3, 12, 8_000.0)])
    }

    #[test]
    fn multistart_never_loses_to_baselines() {
        let p = grid_problem();
        let mut oracle = FluidOracle::standard(900.0);
        let opts = SearchOpts { budget: 120, ..SearchOpts::new() };
        let r = multistart(&p, &mut oracle, &opts);
        assert_eq!(r.baselines.len(), standard_starts().len());
        for (name, s) in &r.baselines {
            assert!(
                r.best_objective <= opts.objective.value(s),
                "search lost to single-shot {name}"
            );
        }
        assert!(r.best_design.is_feasible());
        assert_eq!(r.evals as usize, r.trace.len());
    }

    #[test]
    fn anneal_never_loses_to_baselines() {
        let p = grid_problem();
        let mut oracle = FluidOracle::standard(900.0);
        let opts = SearchOpts { seed: 3, budget: 80, ..SearchOpts::new() };
        let r = anneal(&p, &mut oracle, &opts);
        for (name, s) in &r.baselines {
            assert!(
                r.best_objective <= opts.objective.value(s),
                "anneal lost to single-shot {name}"
            );
        }
        assert!(r.best_design.is_feasible());
    }

    #[test]
    fn searches_replay_bit_identically() {
        let p = grid_problem();
        let opts = SearchOpts { seed: 9, budget: 60, ..SearchOpts::new() };
        let a = anneal(&p, &mut FluidOracle::standard(900.0), &opts);
        let b = anneal(&p, &mut FluidOracle::standard(900.0), &opts);
        assert_eq!(a.trace_jsonl(), b.trace_jsonl());
        let c = multistart(&p, &mut FluidOracle::standard(900.0), &opts);
        let d = multistart(&p, &mut FluidOracle::standard(900.0), &opts);
        assert_eq!(c.trace_jsonl(), d.trace_jsonl());
    }

    #[test]
    fn budget_bounds_evaluations() {
        let p = grid_problem();
        let opts = SearchOpts { budget: 10, ..SearchOpts::new() };
        let mut oracle = FluidOracle::standard(900.0);
        let r = multistart(&p, &mut oracle, &opts);
        assert!(r.evals <= 10);
        assert_eq!(oracle.calls(), r.evals);
    }

    #[test]
    fn moves_preserve_route_invariants() {
        let p = grid_problem();
        let g = p.instance.connectivity_graph();
        let mut hood = Neighbourhood::new(&p, 4);
        let start = Heuristic::IdleFirst.design(&p);
        let mut checked = 0;
        for mv in [
            Move::Swap { demand: 0, k: 1 },
            Move::Swap { demand: 1, k: 2 },
            Move::Sleep { node: 5 },
            Move::Wake { node: 9, demand: 0 },
        ] {
            let mut d = start.clone();
            if !hood.apply(&mut d, mv) {
                assert_eq!(d, start, "a refused move leaves the design as it was");
                continue;
            }
            checked += 1;
            for (demand, route) in p.demands.iter().zip(&d.routes) {
                let r = route.as_ref().expect("moves keep feasibility");
                assert_eq!(r[0], demand.source);
                assert_eq!(*r.last().unwrap(), demand.sink);
                for w in r.windows(2) {
                    assert!(g.edge_between(w[0], w[1]).is_some(), "route uses real links");
                }
                let mut uniq = r.clone();
                uniq.sort_unstable();
                uniq.dedup();
                assert_eq!(uniq.len(), r.len(), "routes stay simple");
                for &v in r {
                    assert!(d.active[v], "route nodes stay awake");
                }
            }
            hood.undo(&mut d);
            assert_eq!(d, start, "undo restores the design");
        }
        assert!(checked >= 2, "at least some moves must apply");
    }

    fn best_baseline(r: &SearchResult, objective: Objective) -> f64 {
        r.baselines.iter().map(|(_, s)| objective.value(s)).fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn zero_demand_problems_return_the_best_start() {
        let inst = WirelessInstance::new(
            vec![(0.0, 0.0), (150.0, 0.0), (300.0, 0.0), (150.0, 150.0)],
            cards::cabletron(),
        );
        let p = DesignProblem::try_new(inst, Vec::new()).expect("no demands is a valid problem");
        let empty = WirelessInstance::new(Vec::new(), cards::cabletron());
        let q = DesignProblem::try_new(empty, Vec::new()).expect("no nodes is a valid problem");
        let opts = SearchOpts { seed: 5, budget: 40, ..SearchOpts::new() };
        for r in [
            multistart(&p, &mut FluidOracle::standard(900.0), &opts),
            anneal(&p, &mut FluidOracle::standard(900.0), &opts),
            anneal(&q, &mut FluidOracle::standard(900.0), &opts),
        ] {
            assert_eq!(r.baselines.len(), standard_starts().len());
            assert_eq!(r.best_objective.to_bits(), best_baseline(&r, opts.objective).to_bits());
        }
    }

    #[test]
    fn anneal_without_route_alternatives_proposes_no_swaps() {
        let p = grid_problem();
        let opts = SearchOpts { seed: 5, budget: 60, k_paths: 0, ..SearchOpts::new() };
        let r = anneal(&p, &mut FluidOracle::standard(900.0), &opts);
        assert!(r.trace.iter().all(|ev| !ev.kind.starts_with("swap:")));
        assert!(r.best_objective <= best_baseline(&r, opts.objective));
    }
}

#[cfg(test)]
mod reference;
