//! The core undirected weighted graph.

use std::fmt;

/// A structured error for invalid graph mutations.
///
/// The panicking mutators ([`Graph::add_edge`], [`Graph::set_edge_weight`])
/// are thin wrappers over the `try_` variants that return this type, so
/// callers assembling graphs from untrusted input (e.g. a design problem
/// loaded from disk) can surface the problem instead of aborting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GraphError {
    /// An endpoint index is `>= node_count`.
    NodeOutOfRange {
        /// The offending endpoints.
        u: usize,
        /// The offending endpoints.
        v: usize,
        /// Number of nodes in the graph.
        n: usize,
    },
    /// Both endpoints are the same node.
    SelfLoop {
        /// The node.
        u: usize,
    },
    /// An edge between the endpoints already exists.
    DuplicateEdge {
        /// The endpoints.
        u: usize,
        /// The endpoints.
        v: usize,
    },
    /// The weight is NaN, infinite, or negative. Non-finite weights would
    /// silently poison the `partial_cmp`-based heap ordering in
    /// [`crate::paths`]; negative weights break Dijkstra's invariant.
    BadWeight {
        /// The rejected weight.
        w: f64,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            GraphError::NodeOutOfRange { u, v, n } => {
                write!(f, "edge ({u}, {v}) out of range for {n} nodes")
            }
            GraphError::SelfLoop { u } => write!(f, "self-loop at node {u}"),
            GraphError::DuplicateEdge { u, v } => write!(f, "duplicate edge ({u}, {v})"),
            GraphError::BadWeight { w } => {
                if w.is_finite() {
                    write!(f, "negative edge weight {w}")
                } else {
                    write!(f, "non-finite edge weight {w}")
                }
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// An undirected edge with a weight, identified by its index in
/// [`Graph::edges`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// One endpoint.
    pub u: usize,
    /// The other endpoint.
    pub v: usize,
    /// Edge weight (cost, power, ... — interpretation is the caller's).
    pub w: f64,
}

impl Edge {
    /// The endpoint that is not `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not an endpoint of this edge.
    pub fn other(&self, x: usize) -> usize {
        if x == self.u {
            self.v
        } else if x == self.v {
            self.u
        } else {
            panic!("node {x} is not an endpoint of edge ({}, {})", self.u, self.v)
        }
    }
}

/// An undirected graph with `f64` node and edge weights.
///
/// Nodes are dense indices `0..n`; edges get stable indices in insertion
/// order, which lets algorithms return subgraphs as edge-id sets. Parallel
/// edges and self-loops are rejected — neither occurs in a wireless
/// connectivity graph.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    node_weight: Vec<f64>,
    edges: Vec<Edge>,
    adj: Vec<Vec<(usize, usize)>>, // (neighbor, edge id)
}

impl Graph {
    /// Creates a graph with `n` nodes of weight zero and no edges.
    pub fn new(n: usize) -> Graph {
        Graph { node_weight: vec![0.0; n], edges: Vec::new(), adj: vec![Vec::new(); n] }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_weight.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds an undirected edge and returns its id.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints, self-loops, duplicate edges, or a
    /// non-finite / negative weight. Use [`Graph::try_add_edge`] to get a
    /// [`GraphError`] instead.
    pub fn add_edge(&mut self, u: usize, v: usize, w: f64) -> usize {
        self.try_add_edge(u, v, w).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Adds an undirected edge and returns its id, or a [`GraphError`]
    /// describing why the edge is invalid (out-of-range endpoint, self-loop,
    /// duplicate, or a non-finite / negative weight).
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant; the graph is unchanged on error.
    pub fn try_add_edge(&mut self, u: usize, v: usize, w: f64) -> Result<usize, GraphError> {
        let n = self.node_count();
        if u >= n || v >= n {
            return Err(GraphError::NodeOutOfRange { u, v, n });
        }
        if u == v {
            return Err(GraphError::SelfLoop { u });
        }
        if !w.is_finite() || w < 0.0 {
            return Err(GraphError::BadWeight { w });
        }
        if self.edge_between(u, v).is_some() {
            return Err(GraphError::DuplicateEdge { u, v });
        }
        let id = self.edges.len();
        self.edges.push(Edge { u, v, w });
        self.adj[u].push((v, id));
        self.adj[v].push((u, id));
        Ok(id)
    }

    /// The edge with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn edge(&self, id: usize) -> Edge {
        self.edges[id]
    }

    /// All edges, indexed by id.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Replaces the weight of edge `id`.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite / negative weight.
    pub fn set_edge_weight(&mut self, id: usize, w: f64) {
        assert!(w.is_finite() && w >= 0.0, "{}", GraphError::BadWeight { w });
        self.edges[id].w = w;
    }

    /// The id of the edge between `u` and `v`, if present.
    pub fn edge_between(&self, u: usize, v: usize) -> Option<usize> {
        self.adj.get(u)?.iter().find(|&&(nb, _)| nb == v).map(|&(_, id)| id)
    }

    /// Iterates over `(neighbor, edge_id)` pairs of `u`.
    pub fn neighbors(&self, u: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.adj[u].iter().copied()
    }

    /// Degree of `u`.
    pub fn degree(&self, u: usize) -> usize {
        self.adj[u].len()
    }

    /// Sets the weight of node `u` (e.g. its idle power).
    pub fn set_node_weight(&mut self, u: usize, w: f64) {
        assert!(w.is_finite(), "non-finite node weight {w}");
        self.node_weight[u] = w;
    }

    /// The weight of node `u`.
    pub fn node_weight(&self, u: usize) -> f64 {
        self.node_weight[u]
    }

    /// Connected-component labels (`0..k`), computed by BFS.
    pub fn components(&self) -> Vec<usize> {
        let n = self.node_count();
        let mut label = vec![usize::MAX; n];
        let mut next = 0;
        let mut stack = Vec::new();
        for s in 0..n {
            if label[s] != usize::MAX {
                continue;
            }
            label[s] = next;
            stack.push(s);
            while let Some(u) = stack.pop() {
                for (v, _) in self.neighbors(u) {
                    if label[v] == usize::MAX {
                        label[v] = next;
                        stack.push(v);
                    }
                }
            }
            next += 1;
        }
        label
    }

    /// `true` if the graph has one connected component (or no nodes).
    pub fn is_connected(&self) -> bool {
        let labels = self.components();
        labels.iter().all(|&l| l == 0)
    }

    /// Builds the subgraph induced by an edge-id set (same node set; only
    /// the listed edges). Useful to evaluate a design `F ⊆ G`.
    pub fn edge_subgraph(&self, edge_ids: &[usize]) -> Graph {
        let mut g = Graph::new(self.node_count());
        g.node_weight.clone_from_slice(&self.node_weight);
        for &id in edge_ids {
            let e = self.edges[id];
            if g.edge_between(e.u, e.v).is_none() {
                g.add_edge(e.u, e.v, e.w);
            }
        }
        g
    }

    /// Total weight of the listed edges.
    pub fn edges_weight(&self, edge_ids: &[usize]) -> f64 {
        edge_ids.iter().map(|&id| self.edges[id].w).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 2.0);
        g.add_edge(2, 0, 3.0);
        g
    }

    #[test]
    fn build_and_query() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.edge_between(0, 1), Some(0));
        assert_eq!(g.edge_between(1, 0), Some(0));
        assert_eq!(g.edge_between(0, 2), Some(2));
        let e = g.edge(1);
        assert_eq!((e.u, e.v, e.w), (1, 2, 2.0));
        assert_eq!(e.other(1), 2);
        assert_eq!(e.other(2), 1);
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn other_rejects_non_endpoint() {
        triangle().edge(0).other(2);
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn duplicate_edges_rejected() {
        let mut g = triangle();
        g.add_edge(1, 0, 9.0);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loops_rejected() {
        let mut g = Graph::new(2);
        g.add_edge(1, 1, 1.0);
    }

    #[test]
    #[should_panic(expected = "negative edge weight")]
    fn negative_weights_rejected() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1, -1.0);
    }

    #[test]
    #[should_panic(expected = "non-finite edge weight")]
    fn nan_weights_rejected() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1, f64::NAN);
    }

    #[test]
    fn try_add_edge_reports_structured_errors() {
        let mut g = triangle();
        assert_eq!(g.try_add_edge(0, 5, 1.0), Err(GraphError::NodeOutOfRange { u: 0, v: 5, n: 3 }));
        assert_eq!(g.try_add_edge(1, 1, 1.0), Err(GraphError::SelfLoop { u: 1 }));
        assert_eq!(g.try_add_edge(0, 1, 1.0), Err(GraphError::DuplicateEdge { u: 0, v: 1 }));
        let err = g.try_add_edge(1, 2, f64::INFINITY); // also a duplicate: weight checked first
        assert!(matches!(err, Err(GraphError::BadWeight { .. })));
        assert!(matches!(g.try_add_edge(0, 1, -2.5), Err(GraphError::BadWeight { .. })));
        // Errors leave the graph untouched; a valid insert still works.
        assert_eq!(g.edge_count(), 3);
        let mut g2 = Graph::new(4);
        assert_eq!(g2.try_add_edge(0, 3, 2.0), Ok(0));
    }

    #[test]
    #[should_panic(expected = "negative edge weight")]
    fn set_edge_weight_rejects_negative() {
        let mut g = triangle();
        g.set_edge_weight(0, -4.0);
    }

    #[test]
    fn graph_error_display() {
        let e = GraphError::BadWeight { w: f64::NAN };
        assert!(e.to_string().contains("non-finite"));
        let e = GraphError::BadWeight { w: -1.0 };
        assert!(e.to_string().contains("negative"));
    }

    #[test]
    fn node_weights() {
        let mut g = Graph::new(2);
        assert_eq!(g.node_weight(0), 0.0);
        g.set_node_weight(0, 830.0);
        assert_eq!(g.node_weight(0), 830.0);
    }

    #[test]
    fn components_and_connectivity() {
        let mut g = Graph::new(5);
        g.add_edge(0, 1, 1.0);
        g.add_edge(2, 3, 1.0);
        let labels = g.components();
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[2]);
        assert_ne!(labels[4], labels[0]);
        assert!(!g.is_connected());
        g.add_edge(1, 2, 1.0);
        g.add_edge(3, 4, 1.0);
        assert!(g.is_connected());
    }

    #[test]
    fn empty_graph_is_connected() {
        assert!(Graph::new(0).is_connected());
        assert!(Graph::new(1).is_connected());
    }

    #[test]
    fn subgraph_and_weight() {
        let g = triangle();
        let sub = g.edge_subgraph(&[0, 1]);
        assert_eq!(sub.edge_count(), 2);
        assert!(sub.edge_between(2, 0).is_none());
        assert_eq!(g.edges_weight(&[0, 1]), 3.0);
        assert_eq!(g.edges_weight(&[]), 0.0);
    }

    #[test]
    fn set_edge_weight_updates() {
        let mut g = triangle();
        g.set_edge_weight(0, 7.5);
        assert_eq!(g.edge(0).w, 7.5);
    }
}
