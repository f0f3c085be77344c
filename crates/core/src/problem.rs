//! The formal problem statement: wireless instance, demands, design problem.

use eend_graph::Graph;
use eend_radio::RadioCard;
use std::fmt;

/// A structured error for invalid problem construction, mirroring
/// [`eend_graph::GraphError`]: the panicking constructors are thin wrappers
/// over `try_` variants returning this type, so problems assembled from
/// untrusted input (CLI flags, files) can report instead of abort.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProblemError {
    /// A demand rate is NaN, infinite, or negative.
    BadRate {
        /// The rejected rate, bits per second.
        rate_bps: f64,
    },
    /// A node position has a non-finite coordinate.
    BadPosition {
        /// The rejected coordinate pair, metres.
        x: f64,
        /// The rejected coordinate pair, metres.
        y: f64,
    },
    /// A demand endpoint is `>= node_count`.
    EndpointOutOfRange {
        /// Index of the offending demand.
        demand: usize,
        /// Number of nodes in the instance.
        n: usize,
    },
    /// A demand has `source == sink`.
    SelfDemand {
        /// Index of the offending demand.
        demand: usize,
    },
}

impl fmt::Display for ProblemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ProblemError::BadRate { rate_bps } => write!(f, "bad demand rate {rate_bps}"),
            ProblemError::BadPosition { x, y } => write!(f, "non-finite position ({x}, {y})"),
            ProblemError::EndpointOutOfRange { demand, n } => {
                write!(f, "demand {demand} endpoint out of range for {n} nodes")
            }
            ProblemError::SelfDemand { demand } => {
                write!(f, "demand {demand} with identical endpoints")
            }
        }
    }
}

impl std::error::Error for ProblemError {}

/// A traffic demand: `rate_bps` bits per second from `source` to `sink`
/// (the paper's `(sᵢ, dᵢ)` pairs with demand `rᵢ`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Demand {
    /// Originating node.
    pub source: usize,
    /// Destination node.
    pub sink: usize,
    /// Offered rate in bits per second.
    pub rate_bps: f64,
}

impl Demand {
    /// Creates a demand.
    ///
    /// # Panics
    ///
    /// Panics if the rate is negative or non-finite.
    pub fn new(source: usize, sink: usize, rate_bps: f64) -> Demand {
        Demand::try_new(source, sink, rate_bps).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a demand, returning a [`ProblemError`] on a NaN, infinite,
    /// or negative rate.
    ///
    /// # Errors
    ///
    /// Returns [`ProblemError::BadRate`] for an invalid rate.
    pub fn try_new(source: usize, sink: usize, rate_bps: f64) -> Result<Demand, ProblemError> {
        if !rate_bps.is_finite() || rate_bps < 0.0 {
            return Err(ProblemError::BadRate { rate_bps });
        }
        Ok(Demand { source, sink, rate_bps })
    }
}

/// A wireless network instance: node positions on the plane plus the radio
/// card every node carries.
///
/// The connectivity graph follows the paper's model: an (undirected) link
/// exists wherever the distance is within the card's nominal range; the
/// transmit power needed for a link is `Ptx(d) = Pbase + α₂·dⁿ`.
#[derive(Debug, Clone)]
pub struct WirelessInstance {
    positions: Vec<(f64, f64)>,
    card: RadioCard,
}

impl WirelessInstance {
    /// Creates an instance from node positions (metres) and a card.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is non-finite.
    pub fn new(positions: Vec<(f64, f64)>, card: RadioCard) -> WirelessInstance {
        WirelessInstance::try_new(positions, card).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates an instance, returning a [`ProblemError`] instead of
    /// panicking on a non-finite coordinate.
    ///
    /// # Errors
    ///
    /// Returns [`ProblemError::BadPosition`] for the first invalid
    /// coordinate pair.
    pub fn try_new(
        positions: Vec<(f64, f64)>,
        card: RadioCard,
    ) -> Result<WirelessInstance, ProblemError> {
        for &(x, y) in &positions {
            if !x.is_finite() || !y.is_finite() {
                return Err(ProblemError::BadPosition { x, y });
            }
        }
        Ok(WirelessInstance { positions, card })
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.positions.len()
    }

    /// The radio card shared by all nodes.
    pub fn card(&self) -> &RadioCard {
        &self.card
    }

    /// Position of node `u`, metres.
    pub fn position(&self, u: usize) -> (f64, f64) {
        self.positions[u]
    }

    /// All positions, indexed by node.
    pub fn positions(&self) -> &[(f64, f64)] {
        &self.positions
    }

    /// Euclidean distance between nodes `u` and `v`, metres.
    pub fn distance(&self, u: usize, v: usize) -> f64 {
        let (ax, ay) = self.positions[u];
        let (bx, by) = self.positions[v];
        ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt()
    }

    /// The connectivity graph: one edge per node pair within transmission
    /// range, weighted by distance (designers re-weight per their metric).
    pub fn connectivity_graph(&self) -> Graph {
        let n = self.node_count();
        let mut g = Graph::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                let d = self.distance(u, v);
                if self.card.in_range(d) {
                    g.add_edge(u, v, d);
                }
            }
        }
        g
    }
}

/// A complete design-problem instance: the network plus its demands.
#[derive(Debug, Clone)]
pub struct DesignProblem {
    /// The wireless network.
    pub instance: WirelessInstance,
    /// The traffic matrix.
    pub demands: Vec<Demand>,
}

impl DesignProblem {
    /// Bundles an instance with demands, validating endpoints.
    ///
    /// # Panics
    ///
    /// Panics if a demand references a node out of range or has
    /// `source == sink`.
    pub fn new(instance: WirelessInstance, demands: Vec<Demand>) -> DesignProblem {
        DesignProblem::try_new(instance, demands).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Bundles an instance with demands, returning a [`ProblemError`]
    /// instead of panicking on invalid endpoints or rates.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn try_new(
        instance: WirelessInstance,
        demands: Vec<Demand>,
    ) -> Result<DesignProblem, ProblemError> {
        let n = instance.node_count();
        for (i, d) in demands.iter().enumerate() {
            if !d.rate_bps.is_finite() || d.rate_bps < 0.0 {
                return Err(ProblemError::BadRate { rate_bps: d.rate_bps });
            }
            if d.source >= n || d.sink >= n {
                return Err(ProblemError::EndpointOutOfRange { demand: i, n });
            }
            if d.source == d.sink {
                return Err(ProblemError::SelfDemand { demand: i });
            }
        }
        Ok(DesignProblem { instance, demands })
    }

    /// All demand endpoints (sources and sinks), deduplicated, sorted.
    pub fn terminals(&self) -> Vec<usize> {
        let mut t: Vec<usize> = self.demands.iter().flat_map(|d| [d.source, d.sink]).collect();
        t.sort_unstable();
        t.dedup();
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eend_radio::cards;

    fn line_instance(spacing: f64, n: usize) -> WirelessInstance {
        let positions = (0..n).map(|i| (i as f64 * spacing, 0.0)).collect();
        WirelessInstance::new(positions, cards::cabletron())
    }

    #[test]
    fn distances() {
        let inst = WirelessInstance::new(vec![(0.0, 0.0), (3.0, 4.0)], cards::mica2());
        assert!((inst.distance(0, 1) - 5.0).abs() < 1e-12);
        assert_eq!(inst.distance(0, 0), 0.0);
    }

    #[test]
    fn connectivity_respects_range() {
        // Cabletron range 250 m; spacing 200 m connects immediate and not
        // second neighbours (400 m).
        let inst = line_instance(200.0, 3);
        let g = inst.connectivity_graph();
        assert!(g.edge_between(0, 1).is_some());
        assert!(g.edge_between(1, 2).is_some());
        assert!(g.edge_between(0, 2).is_none());
    }

    #[test]
    fn dense_placement_is_complete_graph() {
        let inst = line_instance(10.0, 5);
        let g = inst.connectivity_graph();
        assert_eq!(g.edge_count(), 5 * 4 / 2);
    }

    #[test]
    fn terminals_dedup() {
        let inst = line_instance(100.0, 4);
        let p =
            DesignProblem::new(inst, vec![Demand::new(0, 3, 1000.0), Demand::new(0, 2, 1000.0)]);
        assert_eq!(p.terminals(), vec![0, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "identical endpoints")]
    fn self_demand_rejected() {
        let inst = line_instance(100.0, 2);
        DesignProblem::new(inst, vec![Demand::new(1, 1, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn demand_endpoint_bounds_checked() {
        let inst = line_instance(100.0, 2);
        DesignProblem::new(inst, vec![Demand::new(0, 5, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "bad demand rate")]
    fn negative_rate_rejected() {
        Demand::new(0, 1, -5.0);
    }

    #[test]
    fn try_constructors_report_structured_errors() {
        assert!(matches!(
            Demand::try_new(0, 1, f64::NAN),
            Err(ProblemError::BadRate { rate_bps }) if rate_bps.is_nan()
        ));
        assert!(matches!(
            WirelessInstance::try_new(vec![(0.0, f64::INFINITY)], cards::cabletron()),
            Err(ProblemError::BadPosition { .. })
        ));
        let inst = line_instance(100.0, 3);
        assert_eq!(
            DesignProblem::try_new(inst.clone(), vec![Demand::new(0, 9, 1.0)]).unwrap_err(),
            ProblemError::EndpointOutOfRange { demand: 0, n: 3 }
        );
        assert_eq!(
            DesignProblem::try_new(
                inst.clone(),
                vec![Demand { source: 1, sink: 1, rate_bps: 1.0 }]
            )
            .unwrap_err(),
            ProblemError::SelfDemand { demand: 0 }
        );
        // A demand mutated after construction is still caught at bundling.
        assert_eq!(
            DesignProblem::try_new(
                inst.clone(),
                vec![Demand { source: 0, sink: 1, rate_bps: -1.0 }]
            )
            .unwrap_err(),
            ProblemError::BadRate { rate_bps: -1.0 }
        );
        assert!(DesignProblem::try_new(inst, vec![Demand::new(0, 2, 1.0)]).is_ok());
    }
}
