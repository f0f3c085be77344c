//! Steiner tree / forest heuristics and an exact small-graph solver.
//!
//! MPC (Xing et al., the paper's Section 3 baseline) reduces minimum-power
//! configuration to a minimum-weight Steiner tree and runs a classical
//! approximation. We implement the metric-closure 2-approximation
//! ([`steiner_tree_2approx`]) for the single-sink case, a greedy
//! path-reuse heuristic for the multi-commodity Steiner *forest*
//! ([`steiner_forest_greedy`]), and an exact exponential solver
//! ([`exact_steiner_tree`]) used by property tests to pin the approximation
//! ratio on small graphs.

use crate::graph::Graph;
use crate::mst;
use crate::paths;
use crate::DisjointSets;

/// A Steiner subgraph: the chosen edges/nodes of the host graph.
#[derive(Debug, Clone, PartialEq)]
pub struct SteinerSolution {
    /// Ids of the chosen edges in the host graph.
    pub edges: Vec<usize>,
    /// Nodes touched by the chosen edges (plus isolated terminals).
    pub nodes: Vec<usize>,
    /// Total weight of the chosen edges.
    pub weight: f64,
}

impl SteinerSolution {
    fn from_edges(g: &Graph, mut edges: Vec<usize>, terminals: &[usize]) -> SteinerSolution {
        edges.sort_unstable();
        edges.dedup();
        let mut on = vec![false; g.node_count()];
        for &id in &edges {
            let e = g.edge(id);
            on[e.u] = true;
            on[e.v] = true;
        }
        for &t in terminals {
            on[t] = true;
        }
        let nodes = (0..g.node_count()).filter(|&v| on[v]).collect();
        let weight = g.edges_weight(&edges);
        SteinerSolution { edges, nodes, weight }
    }

    /// Number of non-terminal nodes in the solution (the "relays" whose
    /// idle power the paper's idle-first heuristic minimises).
    pub fn relay_count(&self, terminals: &[usize]) -> usize {
        self.nodes.iter().filter(|v| !terminals.contains(v)).count()
    }
}

/// Removes non-terminal leaves until none remain. Keeps the subgraph
/// feasible while dropping edges that serve no terminal.
fn prune_non_terminal_leaves(g: &Graph, edges: &mut Vec<usize>, terminals: &[usize]) {
    let is_terminal = {
        let mut t = vec![false; g.node_count()];
        for &x in terminals {
            t[x] = true;
        }
        t
    };
    loop {
        let mut degree = vec![0usize; g.node_count()];
        for &id in edges.iter() {
            let e = g.edge(id);
            degree[e.u] += 1;
            degree[e.v] += 1;
        }
        let before = edges.len();
        edges.retain(|&id| {
            let e = g.edge(id);
            let u_leaf = degree[e.u] == 1 && !is_terminal[e.u];
            let v_leaf = degree[e.v] == 1 && !is_terminal[e.v];
            !(u_leaf || v_leaf)
        });
        if edges.len() == before {
            break;
        }
    }
}

/// The classic metric-closure 2-approximation for the minimum-weight
/// Steiner tree connecting `terminals`.
///
/// Returns `None` if the terminals do not all lie in one connected
/// component. With 0 or 1 terminals the solution is trivially empty.
pub fn steiner_tree_2approx(g: &Graph, terminals: &[usize]) -> Option<SteinerSolution> {
    if terminals.len() <= 1 {
        return Some(SteinerSolution::from_edges(g, Vec::new(), terminals));
    }
    // Shortest paths from every terminal.
    let sps: Vec<_> = terminals.iter().map(|&t| paths::dijkstra(g, t)).collect();
    // Metric closure over the terminals.
    let t = terminals.len();
    let mut closure = Graph::new(t);
    #[allow(clippy::needless_range_loop)] // enumerating index pairs (i, j)
    for i in 0..t {
        for j in (i + 1)..t {
            let d = sps[i].dist[terminals[j]];
            if d.is_infinite() {
                return None;
            }
            closure.add_edge(i, j, d);
        }
    }
    // MST of the closure, expanded back to host-graph paths.
    let forest = mst::kruskal(&closure);
    let mut edges = Vec::new();
    for id in forest.edges {
        let e = closure.edge(id);
        let path = sps[e.u].path_to(terminals[e.v]).expect("finite closure edge has a path");
        for w in path.windows(2) {
            let eid = g.edge_between(w[0], w[1]).expect("path edges exist");
            edges.push(eid);
        }
    }
    // Expansion can create cycles; keep a spanning tree of the union and
    // drop dangling non-terminal branches.
    let union = SteinerSolution::from_edges(g, edges, terminals);
    let sub = g.edge_subgraph(&union.edges);
    let tree = mst::kruskal(&sub);
    // kruskal on `sub` returns `sub` edge ids; map back through equal
    // endpoints (edge ids differ between g and sub).
    let mut host_edges: Vec<usize> = tree
        .edges
        .iter()
        .map(|&sid| {
            let e = sub.edge(sid);
            g.edge_between(e.u, e.v).expect("subgraph edge exists in host")
        })
        .collect();
    prune_non_terminal_leaves(g, &mut host_edges, terminals);
    Some(SteinerSolution::from_edges(g, host_edges, terminals))
}

/// Greedy Steiner-forest heuristic for multi-commodity demands.
///
/// Routes each `(s, d)` pair over a shortest path in which edges already
/// bought by earlier pairs cost zero — the standard buy-at-bulk-style
/// reuse greedy (and the centralized analogue of TITAN's preference for
/// already-active relays). Pairs whose endpoints are disconnected are
/// reported in `unrouted`.
pub fn steiner_forest_greedy(g: &Graph, pairs: &[(usize, usize)]) -> (SteinerSolution, Vec<usize>) {
    let mut bought = vec![false; g.edge_count()];
    let mut edges = Vec::new();
    let mut unrouted = Vec::new();
    let mut dsu = DisjointSets::new(g.node_count());
    for (idx, &(s, d)) in pairs.iter().enumerate() {
        if s == d {
            continue;
        }
        if dsu.same(s, d) {
            continue; // already connected by bought edges
        }
        let sp = paths::shortest_path_with(
            g,
            s,
            d,
            |e, _, _| if bought[e] { 0.0 } else { g.edge(e).w },
            |_| 0.0,
        );
        match sp {
            None => unrouted.push(idx),
            Some((_, path)) => {
                for w in path.windows(2) {
                    let eid = g.edge_between(w[0], w[1]).expect("path edges exist");
                    if !bought[eid] {
                        bought[eid] = true;
                        edges.push(eid);
                    }
                    dsu.union(w[0], w[1]);
                }
            }
        }
    }
    let terminals: Vec<usize> = pairs.iter().flat_map(|&(s, d)| [s, d]).collect();
    let mut kept = edges;
    prune_non_terminal_leaves(g, &mut kept, &terminals);
    (SteinerSolution::from_edges(g, kept, &terminals), unrouted)
}

/// Exact minimum Steiner tree by exhaustive search over relay subsets.
///
/// Intended as a test oracle: complexity is `O(2^(n-t) · n log n)`.
/// Returns the optimal weight, or `None` if the terminals cannot be
/// connected.
///
/// # Panics
///
/// Panics if the graph has more than 20 non-terminal nodes (the oracle is
/// for small instances only).
pub fn exact_steiner_tree(g: &Graph, terminals: &[usize]) -> Option<f64> {
    if terminals.len() <= 1 {
        return Some(0.0);
    }
    let is_terminal = {
        let mut t = vec![false; g.node_count()];
        for &x in terminals {
            t[x] = true;
        }
        t
    };
    let others: Vec<usize> = (0..g.node_count()).filter(|&v| !is_terminal[v]).collect();
    assert!(others.len() <= 20, "exact Steiner oracle limited to 20 relays, got {}", others.len());
    let mut best: Option<f64> = None;
    for mask in 0u32..(1u32 << others.len()) {
        let mut keep = vec![false; g.node_count()];
        for &t in terminals {
            keep[t] = true;
        }
        for (i, &v) in others.iter().enumerate() {
            if mask & (1 << i) != 0 {
                keep[v] = true;
            }
        }
        // Induced subgraph on kept nodes.
        let mut sub = Graph::new(g.node_count());
        for e in g.edges() {
            if keep[e.u] && keep[e.v] {
                sub.add_edge(e.u, e.v, e.w);
            }
        }
        // All kept nodes must hang together (otherwise the MST of the
        // induced graph is a forest and may not connect the terminals).
        let labels = sub.components();
        let root = labels[terminals[0]];
        if terminals.iter().any(|&t| labels[t] != root) {
            continue;
        }
        if keep.iter().enumerate().any(|(v, &k)| k && labels[v] != root) {
            continue; // disconnected relay would inflate nothing; skip mask
        }
        let f = mst::kruskal(&sub);
        let w = f.weight;
        if best.is_none_or(|b| w < b) {
            best = Some(w);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The paper's Fig 1 topology: k sources in a line to a sink via relay
    /// i (chain) or all directly through relay j (star).
    fn star_vs_chain(k: usize) -> (Graph, Vec<usize>) {
        // Nodes: 0..k = sources, k = sink is node index k? Keep simple:
        // sources 0..k, sink = k, chain relay i = k+1, star relay j = k+2.
        let mut g = Graph::new(k + 3);
        let sink = k;
        let i = k + 1;
        let j = k + 2;
        // Chain: source l -> l+1 (unit weight), last source -> i -> sink.
        for l in 0..k.saturating_sub(1) {
            g.add_edge(l, l + 1, 1.0);
        }
        g.add_edge(k - 1, i, 1.0);
        g.add_edge(i, sink, 1.0);
        // Star: every source -> j (unit), j -> sink.
        for l in 0..k {
            g.add_edge(l, j, 1.0);
        }
        g.add_edge(j, sink, 1.0);
        (g, (0..=k).collect())
    }

    #[test]
    fn trivial_terminal_sets() {
        let g = Graph::new(3);
        let s = steiner_tree_2approx(&g, &[]).unwrap();
        assert!(s.edges.is_empty());
        let s = steiner_tree_2approx(&g, &[1]).unwrap();
        assert_eq!(s.nodes, vec![1]);
        assert_eq!(s.weight, 0.0);
    }

    #[test]
    fn disconnected_terminals_return_none() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(2, 3, 1.0);
        assert!(steiner_tree_2approx(&g, &[0, 2]).is_none());
    }

    #[test]
    fn star_is_chosen_over_chain() {
        // With k sources the star uses k+1 edges; the chain path connecting
        // sources serially also has ~k+1 edges, but the star tree connects
        // every terminal with fewer total edges once k ≥ 2. The solver just
        // needs to produce *a* tree within 2× optimal; check feasibility
        // and ratio against the exact solver.
        let (g, terminals) = star_vs_chain(5);
        let approx = steiner_tree_2approx(&g, &terminals).unwrap();
        let exact = exact_steiner_tree(&g, &terminals).unwrap();
        assert!(approx.weight <= 2.0 * exact + 1e-9);
        // Feasibility: all terminals in one component of the solution.
        let sub = g.edge_subgraph(&approx.edges);
        let labels = sub.components();
        assert!(terminals.iter().all(|&t| labels[t] == labels[terminals[0]]));
    }

    #[test]
    fn solution_is_a_tree() {
        let (g, terminals) = star_vs_chain(4);
        let s = steiner_tree_2approx(&g, &terminals).unwrap();
        // A tree on m nodes has m-1 edges; `nodes` includes all touched.
        assert_eq!(s.edges.len(), s.nodes.len() - 1);
    }

    #[test]
    fn forest_reuses_bought_edges() {
        // Two pairs share a middle segment; the greedy must buy it once.
        // 0-2-3-1  and  4-2-3-5
        let mut g = Graph::new(6);
        g.add_edge(0, 2, 1.0);
        g.add_edge(2, 3, 10.0);
        g.add_edge(3, 1, 1.0);
        g.add_edge(4, 2, 1.0);
        g.add_edge(3, 5, 1.0);
        // Alternative long way around for pair 2 to test reuse preference:
        let (sol, unrouted) = steiner_forest_greedy(&g, &[(0, 1), (4, 5)]);
        assert!(unrouted.is_empty());
        // Edge 2-3 bought once; total = 1+10+1 (pair 1) + 1+1 (pair 2).
        assert!((sol.weight - 14.0).abs() < 1e-9);
    }

    #[test]
    fn forest_reports_unrouted_pairs() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 1.0);
        let (sol, unrouted) = steiner_forest_greedy(&g, &[(0, 1), (2, 3)]);
        assert_eq!(unrouted, vec![1]);
        assert_eq!(sol.edges.len(), 1);
    }

    #[test]
    fn relay_count_excludes_terminals() {
        let (g, terminals) = star_vs_chain(3);
        let s = steiner_tree_2approx(&g, &terminals).unwrap();
        assert_eq!(s.relay_count(&terminals), s.nodes.len() - terminals.len());
    }

    #[test]
    fn exact_on_known_instance() {
        // Square 0-1-2-3 with terminals {0, 2}: optimal is the cheaper
        // two-edge side (1+1=2) vs (3+3=6).
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(2, 3, 3.0);
        g.add_edge(3, 0, 3.0);
        assert_eq!(exact_steiner_tree(&g, &[0, 2]), Some(2.0));
    }

    proptest! {
        /// On random small graphs the 2-approximation is feasible and
        /// within 2× the exact optimum.
        #[test]
        fn approx_within_factor_two(
            n in 3usize..8,
            edges in proptest::collection::vec((0usize..8, 0usize..8, 0.1f64..20.0), 3..24),
            tcount in 2usize..4,
        ) {
            let mut g = Graph::new(n);
            for (u, v, w) in edges {
                let (u, v) = (u % n, v % n);
                if u != v && g.edge_between(u, v).is_none() {
                    g.add_edge(u, v, w);
                }
            }
            let terminals: Vec<usize> = (0..tcount.min(n)).collect();
            let approx = steiner_tree_2approx(&g, &terminals);
            let exact = exact_steiner_tree(&g, &terminals);
            match (approx, exact) {
                (Some(a), Some(e)) => {
                    prop_assert!(a.weight <= 2.0 * e + 1e-6,
                        "approx {} vs exact {}", a.weight, e);
                    prop_assert!(a.weight >= e - 1e-9, "approx cannot beat exact");
                    let sub = g.edge_subgraph(&a.edges);
                    let labels = sub.components();
                    let root = labels[terminals[0]];
                    for &t in &terminals {
                        prop_assert_eq!(labels[t], root, "terminal {} disconnected", t);
                    }
                }
                (None, None) => {}
                (a, e) => prop_assert!(false, "feasibility disagreement: {:?} vs {:?}", a.is_some(), e.is_some()),
            }
        }
    }
}
