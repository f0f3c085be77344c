//! Shortest-path algorithms: BFS hop counts, Dijkstra, and the
//! node-weighted Dijkstra variant used by the design heuristics.

use crate::graph::Graph;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Result of a single-source shortest-path run.
#[derive(Debug, Clone)]
pub struct ShortestPaths {
    /// `dist[v]` = cost from the source to `v` (`f64::INFINITY` if
    /// unreachable).
    pub dist: Vec<f64>,
    /// `parent[v]` = predecessor of `v` on a shortest path (`usize::MAX`
    /// for the source and unreachable nodes).
    pub parent: Vec<usize>,
}

impl ShortestPaths {
    /// Reconstructs the node sequence from the source to `dst`, or `None`
    /// if `dst` is unreachable.
    pub fn path_to(&self, dst: usize) -> Option<Vec<usize>> {
        if self.dist[dst].is_infinite() {
            return None;
        }
        let mut path = vec![dst];
        let mut cur = dst;
        while self.parent[cur] != usize::MAX {
            cur = self.parent[cur];
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }
}

#[derive(PartialEq)]
struct HeapItem {
    dist: f64,
    node: usize,
    seq: u64,
}

impl Eq for HeapItem {}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on (dist, seq); dist is finite by construction, and seq
        // makes the order total and deterministic.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Dijkstra with caller-supplied edge and node-entry costs.
///
/// The cost of relaxing `u → v` over edge `e` is
/// `edge_cost(e, u, v) + node_cost(v)`; `node_cost` is how the paper's
/// node-weighted formulation (idle power of waking a relay) folds into path
/// search. Negative costs are rejected.
///
/// # Panics
///
/// Panics if `src` is out of range or any queried cost is negative/NaN.
pub fn dijkstra_with(
    g: &Graph,
    src: usize,
    edge_cost: impl FnMut(usize, usize, usize) -> f64,
    node_cost: impl FnMut(usize) -> f64,
) -> ShortestPaths {
    dijkstra_until(g, src, None, edge_cost, node_cost)
}

/// The cheapest path from `src` to `dst` under caller-supplied costs, as
/// `(cost, node_sequence)`, or `None` if `dst` is unreachable.
///
/// This is [`dijkstra_with`] stopped once `dst` is popped. At that point
/// `dst` and every node on its parent chain are settled, and a settled
/// node's distance and parent never change again, so the result equals
/// `dijkstra_with(..).path_to(dst)` with `dist[dst]`, bit for bit. Costs
/// are queried only for the edges scanned before the stop.
///
/// # Panics
///
/// Panics if `src`/`dst` are out of range or any queried cost is
/// negative/NaN.
pub fn shortest_path_with(
    g: &Graph,
    src: usize,
    dst: usize,
    edge_cost: impl FnMut(usize, usize, usize) -> f64,
    node_cost: impl FnMut(usize) -> f64,
) -> Option<(f64, Vec<usize>)> {
    let n = g.node_count();
    assert!(dst < n, "target {dst} out of range for {n} nodes");
    let sp = dijkstra_until(g, src, Some(dst), edge_cost, node_cost);
    sp.path_to(dst).map(|p| (sp.dist[dst], p))
}

/// The Dijkstra loop behind [`dijkstra_with`] and [`shortest_path_with`]:
/// settles nodes in (distance, push order) order, until the heap empties
/// or `stop` is settled.
fn dijkstra_until(
    g: &Graph,
    src: usize,
    stop: Option<usize>,
    mut edge_cost: impl FnMut(usize, usize, usize) -> f64,
    mut node_cost: impl FnMut(usize) -> f64,
) -> ShortestPaths {
    let n = g.node_count();
    assert!(src < n, "source {src} out of range for {n} nodes");
    let mut dist = vec![f64::INFINITY; n];
    let mut parent = vec![usize::MAX; n];
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::new();
    let mut seq = 0u64;
    dist[src] = 0.0;
    heap.push(HeapItem { dist: 0.0, node: src, seq });
    while let Some(HeapItem { dist: d, node: u, .. }) = heap.pop() {
        if done[u] {
            continue;
        }
        done[u] = true;
        if stop == Some(u) {
            break;
        }
        for (v, eid) in g.neighbors(u) {
            if done[v] {
                continue;
            }
            let ec = edge_cost(eid, u, v);
            let nc = node_cost(v);
            assert!(ec >= 0.0 && nc >= 0.0, "negative cost on edge {eid} / node {v}");
            let nd = d + ec + nc;
            if nd < dist[v] {
                dist[v] = nd;
                parent[v] = u;
                seq += 1;
                heap.push(HeapItem { dist: nd, node: v, seq });
            }
        }
    }
    ShortestPaths { dist, parent }
}

/// Standard Dijkstra over the graph's stored edge weights.
pub fn dijkstra(g: &Graph, src: usize) -> ShortestPaths {
    dijkstra_with(g, src, |e, _, _| g.edge(e).w, |_| 0.0)
}

/// Cheapest path from `src` to `dst` under the stored edge weights, as
/// `(cost, node_sequence)`.
pub fn shortest_path(g: &Graph, src: usize, dst: usize) -> Option<(f64, Vec<usize>)> {
    shortest_path_with(g, src, dst, |e, _, _| g.edge(e).w, |_| 0.0)
}

/// The `k` cheapest loopless paths from `src` to `dst` under caller-supplied
/// edge and node-entry costs, as `(cost, node_sequence)` sorted by cost
/// (ties broken lexicographically by node sequence, so the result is
/// deterministic). Returns fewer than `k` entries if the graph does not
/// contain that many distinct simple paths.
///
/// This is Yen's algorithm layered on [`shortest_path_with`]: deviations are
/// explored by banning, at each spur node of the previous path, the next
/// edges of all already-found paths sharing the same prefix, plus every
/// prefix node. Cost semantics match [`dijkstra_with`]: a path costs
/// `Σ edge_cost + Σ node_cost(v)` over every node after `src`.
///
/// # Panics
///
/// Panics if `src`/`dst` are out of range or any queried cost is
/// negative/NaN.
pub fn k_shortest_paths(
    g: &Graph,
    src: usize,
    dst: usize,
    k: usize,
    mut edge_cost: impl FnMut(usize, usize, usize) -> f64,
    mut node_cost: impl FnMut(usize) -> f64,
) -> Vec<(f64, Vec<usize>)> {
    let n = g.node_count();
    assert!(src < n && dst < n, "endpoints ({src}, {dst}) out of range for {n} nodes");
    if k == 0 {
        return Vec::new();
    }
    let path_cost = |path: &[usize], ec: &mut dyn FnMut(usize, usize, usize) -> f64, nc: &mut dyn FnMut(usize) -> f64| {
        let mut c = 0.0;
        for w in path.windows(2) {
            let eid = g.edge_between(w[0], w[1]).expect("path uses real edges");
            c += ec(eid, w[0], w[1]) + nc(w[1]);
        }
        c
    };

    let Some(first) = shortest_path_with(g, src, dst, &mut edge_cost, &mut node_cost) else {
        return Vec::new();
    };
    let mut found: Vec<(f64, Vec<usize>)> = vec![first];
    // Candidate deviations not yet promoted, kept sorted for determinism.
    let mut candidates: Vec<(f64, Vec<usize>)> = Vec::new();

    while found.len() < k {
        let prev = found.last().expect("at least the shortest path").1.clone();
        for i in 0..prev.len() - 1 {
            let spur = prev[i];
            let root = &prev[..=i];
            // Ban the continuation edge of every found path sharing this
            // root, and every root node before the spur, then search for a
            // spur-to-dst path in what remains.
            let mut banned_edges = Vec::new();
            for (_, p) in &found {
                if p.len() > i + 1 && p[..=i] == *root {
                    if let Some(eid) = g.edge_between(p[i], p[i + 1]) {
                        banned_edges.push(eid);
                    }
                }
            }
            let banned_nodes = &prev[..i];
            let spur_path = shortest_path_with(
                g,
                spur,
                dst,
                |eid, u, v| {
                    if banned_edges.contains(&eid) {
                        f64::INFINITY
                    } else {
                        edge_cost(eid, u, v)
                    }
                },
                |v| {
                    if banned_nodes.contains(&v) {
                        f64::INFINITY
                    } else {
                        node_cost(v)
                    }
                },
            );
            let Some((_, spur_path)) = spur_path else {
                continue;
            };
            let mut total: Vec<usize> = root[..i].to_vec();
            total.extend_from_slice(&spur_path);
            let cost = path_cost(&total, &mut edge_cost, &mut node_cost);
            if !cost.is_finite() {
                continue; // spur path leaked through a banned (infinite) edge
            }
            if found.iter().any(|(_, p)| *p == total)
                || candidates.iter().any(|(_, p)| *p == total)
            {
                continue;
            }
            candidates.push((cost, total));
        }
        candidates.sort_by(|a, b| {
            a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal).then_with(|| a.1.cmp(&b.1))
        });
        if candidates.is_empty() {
            break;
        }
        found.push(candidates.remove(0));
    }
    found
}

/// The `k` cheapest loopless paths under the graph's stored edge weights.
pub fn k_shortest(g: &Graph, src: usize, dst: usize, k: usize) -> Vec<(f64, Vec<usize>)> {
    k_shortest_paths(g, src, dst, k, |e, _, _| g.edge(e).w, |_| 0.0)
}

/// Hop distances from `src` (ignoring weights); `usize::MAX` if unreachable.
pub fn bfs_hops(g: &Graph, src: usize) -> Vec<usize> {
    let n = g.node_count();
    assert!(src < n, "source {src} out of range for {n} nodes");
    let mut hops = vec![usize::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    hops[src] = 0;
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        for (v, _) in g.neighbors(u) {
            if hops[v] == usize::MAX {
                hops[v] = hops[u] + 1;
                queue.push_back(v);
            }
        }
    }
    hops
}

/// Bellman–Ford single-source distances; used as a test oracle for
/// Dijkstra. Returns `None` on a negative cycle (cannot happen with the
/// non-negative costs the rest of the crate enforces, but the oracle is
/// general).
pub fn bellman_ford(g: &Graph, src: usize) -> Option<Vec<f64>> {
    let n = g.node_count();
    assert!(src < n, "source {src} out of range for {n} nodes");
    let mut dist = vec![f64::INFINITY; n];
    dist[src] = 0.0;
    for round in 0..n {
        let mut changed = false;
        for e in g.edges() {
            for (a, b) in [(e.u, e.v), (e.v, e.u)] {
                if dist[a].is_finite() && dist[a] + e.w < dist[b] {
                    dist[b] = dist[a] + e.w;
                    changed = true;
                }
            }
        }
        if !changed {
            return Some(dist);
        }
        if round == n - 1 {
            return None;
        }
    }
    Some(dist)
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // tests index parallel arrays
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn diamond() -> Graph {
        // 0 -1- 1 -1- 3, 0 -1.5- 2 -1- 3
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 3, 1.0);
        g.add_edge(0, 2, 1.5);
        g.add_edge(2, 3, 1.0);
        g
    }

    #[test]
    fn dijkstra_picks_cheaper_branch() {
        let (cost, path) = shortest_path(&diamond(), 0, 3).unwrap();
        assert_eq!(cost, 2.0);
        assert_eq!(path, vec![0, 1, 3]);
    }

    #[test]
    fn unreachable_is_none() {
        let g = Graph::new(3);
        assert!(shortest_path(&g, 0, 2).is_none());
        let sp = dijkstra(&g, 0);
        assert!(sp.dist[2].is_infinite());
        assert!(sp.path_to(2).is_none());
    }

    #[test]
    fn path_to_source_is_trivial() {
        let sp = dijkstra(&diamond(), 0);
        assert_eq!(sp.path_to(0), Some(vec![0]));
        assert_eq!(sp.dist[0], 0.0);
    }

    #[test]
    fn node_costs_divert_routes() {
        // Without node costs both branches of the diamond cost 2.5 / 2.0;
        // a heavy node cost on 1 must push the route through 2.
        let g = diamond();
        let sp = dijkstra_with(
            &g,
            0,
            |e, _, _| g.edge(e).w,
            |v| if v == 1 { 10.0 } else { 0.0 },
        );
        assert_eq!(sp.path_to(3), Some(vec![0, 2, 3]));
        assert_eq!(sp.dist[3], 2.5);
    }

    #[test]
    fn k_shortest_enumerates_diamond() {
        // Simple paths 0→3: [0,1,3] cost 2.0, [0,2,3] cost 2.5.
        let g = diamond();
        let ks = k_shortest(&g, 0, 3, 5);
        assert_eq!(ks.len(), 2);
        assert_eq!(ks[0], (2.0, vec![0, 1, 3]));
        assert_eq!(ks[1], (2.5, vec![0, 2, 3]));
    }

    #[test]
    fn k_shortest_limits_to_k() {
        let g = diamond();
        let ks = k_shortest(&g, 0, 3, 1);
        assert_eq!(ks.len(), 1);
        assert_eq!(ks[0].1, vec![0, 1, 3]);
        assert!(k_shortest(&g, 0, 3, 0).is_empty());
    }

    #[test]
    fn k_shortest_unreachable_is_empty() {
        let g = Graph::new(3);
        assert!(k_shortest(&g, 0, 2, 3).is_empty());
    }

    #[test]
    fn k_shortest_respects_node_costs() {
        // A heavy node cost on 1 must reorder the two diamond branches.
        let g = diamond();
        let ks = k_shortest_paths(
            &g,
            0,
            3,
            2,
            |e, _, _| g.edge(e).w,
            |v| if v == 1 { 10.0 } else { 0.0 },
        );
        assert_eq!(ks[0].1, vec![0, 2, 3]);
        assert_eq!(ks[1].1, vec![0, 1, 3]);
        assert!((ks[0].0 - 2.5).abs() < 1e-12);
        assert!((ks[1].0 - 12.0).abs() < 1e-12);
    }

    #[test]
    fn k_shortest_on_grid_is_sorted_simple_and_distinct() {
        // 3×3 grid, unit weights: plenty of alternative routes.
        let mut g = Graph::new(9);
        for r in 0..3 {
            for c in 0..3 {
                let v = r * 3 + c;
                if c + 1 < 3 {
                    g.add_edge(v, v + 1, 1.0);
                }
                if r + 1 < 3 {
                    g.add_edge(v, v + 3, 1.0);
                }
            }
        }
        let ks = k_shortest(&g, 0, 8, 8);
        assert_eq!(ks.len(), 8);
        for pair in ks.windows(2) {
            assert!(pair[0].0 <= pair[1].0, "costs must be non-decreasing");
            assert_ne!(pair[0].1, pair[1].1, "paths must be distinct");
        }
        // The six shortest are the 4-hop monotone lattice paths.
        for (cost, path) in &ks[..6] {
            assert_eq!(*cost, 4.0);
            assert_eq!(path.len(), 5);
        }
        for (cost, path) in &ks {
            assert_eq!(path[0], 0);
            assert_eq!(*path.last().unwrap(), 8);
            let mut uniq = path.clone();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(uniq.len(), path.len(), "paths must be loopless");
            let mut sum = 0.0;
            for w in path.windows(2) {
                sum += g.edge(g.edge_between(w[0], w[1]).unwrap()).w;
            }
            assert!((sum - cost).abs() < 1e-12);
        }
    }

    #[test]
    fn bfs_hops_simple() {
        let g = diamond();
        let hops = bfs_hops(&g, 0);
        assert_eq!(hops, vec![0, 1, 1, 2]);
    }

    #[test]
    fn bfs_unreachable() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 1.0);
        assert_eq!(bfs_hops(&g, 0)[2], usize::MAX);
    }

    #[test]
    fn bellman_ford_agrees_on_diamond() {
        let g = diamond();
        let bf = bellman_ford(&g, 0).unwrap();
        let dj = dijkstra(&g, 0);
        for v in 0..4 {
            assert!((bf[v] - dj.dist[v]).abs() < 1e-12);
        }
    }

    /// Yen's algorithm as it ran before [`shortest_path_with`]: the first
    /// path and every spur path are read out of a full shortest-path
    /// tree. [`k_shortest_paths`] must rank exactly as this does.
    fn k_shortest_paths_full_tree(
        g: &Graph,
        src: usize,
        dst: usize,
        k: usize,
        mut edge_cost: impl FnMut(usize, usize, usize) -> f64,
        mut node_cost: impl FnMut(usize) -> f64,
    ) -> Vec<(f64, Vec<usize>)> {
        if k == 0 {
            return Vec::new();
        }
        let path_cost = |path: &[usize], ec: &mut dyn FnMut(usize, usize, usize) -> f64, nc: &mut dyn FnMut(usize) -> f64| {
            let mut c = 0.0;
            for w in path.windows(2) {
                let eid = g.edge_between(w[0], w[1]).expect("path uses real edges");
                c += ec(eid, w[0], w[1]) + nc(w[1]);
            }
            c
        };
        let sp = dijkstra_with(g, src, &mut edge_cost, &mut node_cost);
        let Some(first) = sp.path_to(dst) else {
            return Vec::new();
        };
        let mut found: Vec<(f64, Vec<usize>)> = vec![(sp.dist[dst], first)];
        let mut candidates: Vec<(f64, Vec<usize>)> = Vec::new();
        while found.len() < k {
            let prev = found.last().expect("at least the shortest path").1.clone();
            for i in 0..prev.len() - 1 {
                let spur = prev[i];
                let root = &prev[..=i];
                let mut banned_edges = Vec::new();
                for (_, p) in &found {
                    if p.len() > i + 1 && p[..=i] == *root {
                        if let Some(eid) = g.edge_between(p[i], p[i + 1]) {
                            banned_edges.push(eid);
                        }
                    }
                }
                let banned_nodes = &prev[..i];
                let spur_sp = dijkstra_with(
                    g,
                    spur,
                    |eid, u, v| {
                        if banned_edges.contains(&eid) {
                            f64::INFINITY
                        } else {
                            edge_cost(eid, u, v)
                        }
                    },
                    |v| {
                        if banned_nodes.contains(&v) {
                            f64::INFINITY
                        } else {
                            node_cost(v)
                        }
                    },
                );
                let Some(spur_path) = spur_sp.path_to(dst) else {
                    continue;
                };
                let mut total: Vec<usize> = root[..i].to_vec();
                total.extend_from_slice(&spur_path);
                let cost = path_cost(&total, &mut edge_cost, &mut node_cost);
                if !cost.is_finite() {
                    continue;
                }
                if found.iter().any(|(_, p)| *p == total)
                    || candidates.iter().any(|(_, p)| *p == total)
                {
                    continue;
                }
                candidates.push((cost, total));
            }
            candidates.sort_by(|a, b| {
                a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal).then_with(|| a.1.cmp(&b.1))
            });
            if candidates.is_empty() {
                break;
            }
            found.push(candidates.remove(0));
        }
        found
    }

    /// A random graph on `n` nodes with per-edge and per-node costs drawn
    /// from small integers, so equal-cost ties are common. Code `INF`
    /// marks a banned (infinite-cost) edge or node. Returns the graph,
    /// its edge costs by edge id, and its node costs.
    fn tied_costs(
        n: usize,
        edges: Vec<(usize, usize, u32)>,
        nodes: Vec<u32>,
    ) -> (Graph, Vec<f64>, Vec<f64>) {
        const INF: u32 = 5;
        let cost = |c: u32| if c == INF { f64::INFINITY } else { f64::from(c) };
        let mut g = Graph::new(n);
        let mut edge_costs = Vec::new();
        for (u, v, c) in edges {
            let (u, v) = (u % n, v % n);
            if u != v && g.edge_between(u, v).is_none() {
                g.add_edge(u, v, 1.0);
                edge_costs.push(cost(c));
            }
        }
        let node_costs = nodes.into_iter().take(n).map(|c| cost(c.min(INF))).collect();
        (g, edge_costs, node_costs)
    }

    #[test]
    fn shortest_path_with_stops_at_the_target() {
        // The target is pushed first through the costly direct edge, then
        // improved through the relay before it is popped.
        let mut g = Graph::new(3);
        g.add_edge(0, 2, 5.0);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        let mut queried = Vec::new();
        let got = shortest_path_with(&g, 0, 2, |e, _, _| g.edge(e).w, |v| {
            queried.push(v);
            0.0
        });
        assert_eq!(got, Some((2.0, vec![0, 1, 2])));
        assert_eq!(shortest_path_with(&g, 1, 1, |_, _, _| 1.0, |_| 0.0), Some((0.0, vec![1])));
        let unreachable = Graph::new(2);
        assert_eq!(shortest_path_with(&unreachable, 0, 1, |_, _, _| 1.0, |_| 0.0), None);
    }

    proptest! {
        /// Dijkstra equals the Bellman–Ford oracle on random graphs.
        #[test]
        fn dijkstra_matches_oracle(
            n in 2usize..12,
            edges in proptest::collection::vec((0usize..12, 0usize..12, 0.0f64..100.0), 0..40)
        ) {
            let mut g = Graph::new(n);
            for (u, v, w) in edges {
                let (u, v) = (u % n, v % n);
                if u != v && g.edge_between(u, v).is_none() {
                    g.add_edge(u, v, w);
                }
            }
            let dj = dijkstra(&g, 0);
            let bf = bellman_ford(&g, 0).unwrap();
            for v in 0..n {
                if bf[v].is_infinite() {
                    prop_assert!(dj.dist[v].is_infinite());
                } else {
                    prop_assert!((dj.dist[v] - bf[v]).abs() < 1e-9,
                        "node {}: dijkstra {} vs oracle {}", v, dj.dist[v], bf[v]);
                }
            }
        }

        /// Reconstructed paths are simple, start/end correctly, and their
        /// edge weights sum to the reported distance.
        #[test]
        fn paths_are_consistent(
            n in 2usize..10,
            edges in proptest::collection::vec((0usize..10, 0usize..10, 0.1f64..50.0), 1..30)
        ) {
            let mut g = Graph::new(n);
            for (u, v, w) in edges {
                let (u, v) = (u % n, v % n);
                if u != v && g.edge_between(u, v).is_none() {
                    g.add_edge(u, v, w);
                }
            }
            let sp = dijkstra(&g, 0);
            for dst in 0..n {
                if let Some(path) = sp.path_to(dst) {
                    prop_assert_eq!(path[0], 0);
                    prop_assert_eq!(*path.last().unwrap(), dst);
                    let mut sum = 0.0;
                    for w in path.windows(2) {
                        let eid = g.edge_between(w[0], w[1]).expect("path uses real edges");
                        sum += g.edge(eid).w;
                    }
                    prop_assert!((sum - sp.dist[dst]).abs() < 1e-9);
                    let mut uniq = path.clone();
                    uniq.sort_unstable();
                    uniq.dedup();
                    prop_assert_eq!(uniq.len(), path.len(), "path must be simple");
                }
            }
        }

        /// Stopping once the target is popped changes nothing: the path
        /// and its cost bits equal the full tree's, under tied integer
        /// costs (zeros included), node costs, banned edges and nodes,
        /// and unreachable targets.
        #[test]
        fn shortest_path_with_matches_the_full_tree(
            n in 1usize..12,
            edges in proptest::collection::vec((0usize..12, 0usize..12, 0u32..6), 0..40),
            nodes in proptest::collection::vec(0u32..7, 12..13),
            src in 0usize..12
        ) {
            let (g, ec, nc) = tied_costs(n, edges, nodes);
            let src = src % n;
            let full = dijkstra_with(&g, src, |e, _, _| ec[e], |v| nc[v]);
            for dst in 0..n {
                let early = shortest_path_with(&g, src, dst, |e, _, _| ec[e], |v| nc[v]);
                let want = full.path_to(dst).map(|p| (full.dist[dst].to_bits(), p));
                prop_assert_eq!(early.map(|(d, p)| (d.to_bits(), p)), want, "{} -> {}", src, dst);
            }
        }

        /// Yen's ranking on target-terminated searches equals the ranking
        /// read out of full trees, costs compared by bits.
        #[test]
        fn k_shortest_paths_matches_the_full_tree_ranking(
            n in 2usize..10,
            edges in proptest::collection::vec((0usize..10, 0usize..10, 0u32..6), 1..30),
            nodes in proptest::collection::vec(0u32..7, 10..11),
            k in 1usize..8
        ) {
            let (g, ec, nc) = tied_costs(n, edges, nodes);
            let bits = |ranking: Vec<(f64, Vec<usize>)>| -> Vec<(u64, Vec<usize>)> {
                ranking.into_iter().map(|(c, p)| (c.to_bits(), p)).collect()
            };
            let early = k_shortest_paths(&g, 0, n - 1, k, |e, _, _| ec[e], |v| nc[v]);
            let full = k_shortest_paths_full_tree(&g, 0, n - 1, k, |e, _, _| ec[e], |v| nc[v]);
            prop_assert_eq!(bits(early), bits(full));
        }

        /// Yen's ranking is prefix-stable: asking for `j` paths returns the
        /// first `j` of any longer ranking, because the loop reads `k` only
        /// to stop. Small integer weights make cost ties common, so the
        /// lexicographic tie-break is exercised too. The design search
        /// memoizes one ranking per demand on the strength of this.
        #[test]
        fn k_shortest_is_prefix_stable(
            n in 2usize..10,
            edges in proptest::collection::vec((0usize..10, 0usize..10, 1u32..4), 1..30),
            k in 1usize..10
        ) {
            let mut g = Graph::new(n);
            for (u, v, w) in edges {
                let (u, v) = (u % n, v % n);
                if u != v && g.edge_between(u, v).is_none() {
                    g.add_edge(u, v, f64::from(w));
                }
            }
            let full = k_shortest(&g, 0, n - 1, k);
            for j in 0..=k {
                let prefix = k_shortest(&g, 0, n - 1, j);
                prop_assert_eq!(&prefix[..], &full[..j.min(full.len())], "j = {} of k = {}", j, k);
            }
        }
    }
}
