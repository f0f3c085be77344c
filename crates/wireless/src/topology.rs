//! Node placement generators for the paper's scenarios.

use eend_sim::SimRng;

/// How nodes are placed on the plane.
#[derive(Debug, Clone, PartialEq)]
pub enum Placement {
    /// `n` nodes uniformly at random in a `width × height` rectangle
    /// (the paper's 500×500 and 1300×1300 m² scenarios).
    UniformRandom {
        /// Number of nodes.
        n: usize,
        /// Area width, metres.
        width: f64,
        /// Area height, metres.
        height: f64,
    },
    /// A `rows × cols` grid filling a `width × height` rectangle
    /// (the paper's 7×7 grid in 300×300 m², Section 5.2.3).
    Grid {
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
        /// Area width, metres.
        width: f64,
        /// Area height, metres.
        height: f64,
    },
    /// Caller-supplied coordinates.
    Explicit(Vec<(f64, f64)>),
}

impl Placement {
    /// Number of nodes this placement produces.
    pub fn node_count(&self) -> usize {
        match self {
            Placement::UniformRandom { n, .. } => *n,
            Placement::Grid { rows, cols, .. } => rows * cols,
            Placement::Explicit(v) => v.len(),
        }
    }

    /// Materialises positions; random placements draw from `rng`.
    pub fn positions(&self, rng: &mut SimRng) -> Vec<(f64, f64)> {
        match self {
            Placement::UniformRandom { n, width, height } => {
                (0..*n).map(|_| (rng.range_f64(0.0, *width), rng.range_f64(0.0, *height))).collect()
            }
            Placement::Grid { rows, cols, width, height } => {
                assert!(*rows >= 1 && *cols >= 1, "grid must be non-empty");
                // Nodes at cell corners spanning the full area, like the
                // paper's 7×7 grid over 300×300 m² (50 m spacing).
                let dx = if *cols > 1 { width / (*cols as f64 - 1.0) } else { 0.0 };
                let dy = if *rows > 1 { height / (*rows as f64 - 1.0) } else { 0.0 };
                let mut pts = Vec::with_capacity(rows * cols);
                for r in 0..*rows {
                    for c in 0..*cols {
                        pts.push((c as f64 * dx, r as f64 * dy));
                    }
                }
                pts
            }
            Placement::Explicit(v) => v.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_respects_bounds_and_count() {
        let mut rng = SimRng::new(1);
        let p = Placement::UniformRandom { n: 200, width: 1300.0, height: 1300.0 };
        let pts = p.positions(&mut rng);
        assert_eq!(pts.len(), 200);
        assert_eq!(p.node_count(), 200);
        for (x, y) in pts {
            assert!((0.0..1300.0).contains(&x));
            assert!((0.0..1300.0).contains(&y));
        }
    }

    #[test]
    fn uniform_is_seed_deterministic() {
        let p = Placement::UniformRandom { n: 50, width: 500.0, height: 500.0 };
        let a = p.positions(&mut SimRng::new(9));
        let b = p.positions(&mut SimRng::new(9));
        assert_eq!(a, b);
        let c = p.positions(&mut SimRng::new(10));
        assert_ne!(a, c);
    }

    #[test]
    fn grid_spacing_matches_paper() {
        // 7×7 over 300×300 → 50 m spacing.
        let p = Placement::Grid { rows: 7, cols: 7, width: 300.0, height: 300.0 };
        let pts = p.positions(&mut SimRng::new(0));
        assert_eq!(pts.len(), 49);
        assert_eq!(pts[0], (0.0, 0.0));
        assert_eq!(pts[1], (50.0, 0.0));
        assert_eq!(pts[7], (0.0, 50.0));
        assert_eq!(pts[48], (300.0, 300.0));
    }

    #[test]
    fn single_row_grid() {
        let p = Placement::Grid { rows: 1, cols: 3, width: 100.0, height: 100.0 };
        let pts = p.positions(&mut SimRng::new(0));
        assert_eq!(pts, vec![(0.0, 0.0), (50.0, 0.0), (100.0, 0.0)]);
    }

    #[test]
    fn explicit_passthrough() {
        let coords = vec![(1.0, 2.0), (3.0, 4.0)];
        let p = Placement::Explicit(coords.clone());
        assert_eq!(p.positions(&mut SimRng::new(0)), coords);
        assert_eq!(p.node_count(), 2);
    }
}
