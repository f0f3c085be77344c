//! Minimum spanning tree (Kruskal).

use crate::dsu::DisjointSets;
use crate::graph::Graph;

/// A spanning forest: chosen edge ids and their total weight.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanningForest {
    /// Ids of the chosen edges.
    pub edges: Vec<usize>,
    /// Sum of chosen edge weights.
    pub weight: f64,
}

/// Kruskal's algorithm. On a disconnected graph this returns a minimum
/// spanning *forest* (one tree per component).
pub fn kruskal(g: &Graph) -> SpanningForest {
    let mut order: Vec<usize> = (0..g.edge_count()).collect();
    order.sort_by(|&a, &b| {
        g.edge(a).w.partial_cmp(&g.edge(b).w).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
        // deterministic tie-break by id
    });
    let mut dsu = DisjointSets::new(g.node_count());
    let mut edges = Vec::new();
    let mut weight = 0.0;
    for id in order {
        let e = g.edge(id);
        if dsu.union(e.u, e.v) {
            edges.push(id);
            weight += e.w;
        }
    }
    SpanningForest { edges, weight }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn square_with_diagonal() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 2.0);
        g.add_edge(2, 3, 1.0);
        g.add_edge(3, 0, 2.5);
        g.add_edge(0, 2, 1.5);
        let f = kruskal(&g);
        assert_eq!(f.edges.len(), 3);
        assert!((f.weight - 3.5).abs() < 1e-12, "1 + 1 + 1.5");
    }

    #[test]
    fn forest_on_disconnected_graph() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 5.0);
        g.add_edge(2, 3, 7.0);
        let f = kruskal(&g);
        assert_eq!(f.edges.len(), 2);
        assert_eq!(f.weight, 12.0);
    }

    #[test]
    fn empty_graph() {
        let f = kruskal(&Graph::new(3));
        assert!(f.edges.is_empty());
        assert_eq!(f.weight, 0.0);
    }

    proptest! {
        /// The MST spans each component with exactly n_c - 1 edges and is
        /// acyclic; its weight never exceeds any spanning subgraph we can
        /// trivially construct (all edges).
        #[test]
        fn kruskal_invariants(
            n in 1usize..10,
            edges in proptest::collection::vec((0usize..10, 0usize..10, 0.0f64..100.0), 0..30)
        ) {
            let mut g = Graph::new(n);
            for (u, v, w) in edges {
                let (u, v) = (u % n, v % n);
                if u != v && g.edge_between(u, v).is_none() {
                    g.add_edge(u, v, w);
                }
            }
            let f = kruskal(&g);
            // Edge count = n - (number of components), i.e. a spanning forest.
            let comps = g.components().iter().copied().max().map_or(0, |m| m + 1);
            prop_assert_eq!(f.edges.len(), n - comps);
            // Never heavier than the full edge set.
            let total: f64 = g.edges().iter().map(|e| e.w).sum();
            prop_assert!(f.weight <= total + 1e-9);
            // Preserves connectivity exactly: same component partition.
            let sub = g.edge_subgraph(&f.edges);
            prop_assert_eq!(sub.components(), g.components());
        }
    }
}
