//! Order-independent aggregation of labelled samples into [`Series`].
//!
//! The campaign engine produces one `(label, x, value)` row per run, in
//! whatever order the executor finished them conceptually — aggregation
//! here must therefore be a pure function of the row *multiset*:
//! permuting the input never changes the output. That invariant (plus
//! the usual mean/stddev/CI properties) is pinned by property tests
//! below.

use crate::series::Series;
use crate::summary::Summary;

/// Collapses `(label, x, value)` samples into one [`Series`] per label,
/// one point per distinct `x`, summarising each cell's values with
/// [`Summary::from_samples`] (mean, unbiased stddev, 95 % CI). Push the
/// samples one at a time, in any order, and call
/// [`StreamingAggregator::finish`] once at the end.
///
/// The streaming campaign executor feeds this as records complete, so
/// aggregation holds only the scalar samples (three words per run), not
/// the full per-run metrics. The output is independent of push order:
/// `finish` sorts labels lexicographically, x positions ascending
/// (`f64::total_cmp`, NaN last in its own cell) and each cell's samples
/// by value before summarising, so any permutation of the samples
/// produces an identical result. Property tests pin that invariant.
///
/// # Example
///
/// ```
/// use eend_stats::grouped::StreamingAggregator;
///
/// let mut agg = StreamingAggregator::new();
/// agg.push("TITAN-PC", 4.0, 0.96);
/// agg.push("DSR-Active", 2.0, 0.99);
/// agg.push("TITAN-PC", 2.0, 0.98);
/// agg.push("TITAN-PC", 2.0, 0.94);
/// let series = agg.finish();
/// assert_eq!(series.len(), 2);
/// assert_eq!(series[0].label, "DSR-Active");
/// assert_eq!(series[1].points[0].summary.n, 2); // TITAN-PC cell at x = 2
/// ```
#[derive(Debug, Clone, Default)]
pub struct StreamingAggregator {
    /// One entry per label, holding every `(x, value)` sample seen so far.
    groups: Vec<(String, Vec<(f64, f64)>)>,
}

impl StreamingAggregator {
    /// An aggregator with no samples.
    pub fn new() -> StreamingAggregator {
        StreamingAggregator::default()
    }

    /// Adds one sample. Labels are matched exactly; a new label opens a
    /// new group.
    pub fn push(&mut self, label: &str, x: f64, value: f64) {
        match self.groups.iter_mut().find(|(l, _)| l == label) {
            Some((_, cells)) => cells.push((x, value)),
            None => self.groups.push((label.to_owned(), vec![(x, value)])),
        }
    }

    /// Total samples pushed so far.
    pub fn len(&self) -> usize {
        self.groups.iter().map(|(_, cells)| cells.len()).sum()
    }

    /// `true` when nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Collapses the accumulated samples: labels sorted
    /// lexicographically, x ascending (`f64::total_cmp`, NaN last in its
    /// own cell), cell samples sorted by value before summarising.
    pub fn finish(mut self) -> Vec<Series> {
        self.groups.sort_by(|a, b| a.0.cmp(&b.0));
        self.groups
            .into_iter()
            .map(|(label, mut cells)| {
                cells.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
                let mut series = Series::new(label);
                let mut i = 0;
                while i < cells.len() {
                    let x = cells[i].0;
                    let mut j = i;
                    while j < cells.len() && cells[j].0.total_cmp(&x).is_eq() {
                        j += 1;
                    }
                    let samples: Vec<f64> = cells[i..j].iter().map(|&(_, v)| v).collect();
                    series.push_summary(x, Summary::from_samples(&samples));
                    i = j;
                }
                series
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One `(label, x, value)` sample.
    type Row = (&'static str, f64, f64);

    /// Pushes `rows` in order into a fresh aggregator and finishes it.
    fn aggregate(rows: &[Row]) -> Vec<Series> {
        let mut agg = StreamingAggregator::new();
        for &(label, x, value) in rows {
            agg.push(label, x, value);
        }
        agg.finish()
    }

    #[test]
    fn groups_by_label_then_x() {
        let series =
            aggregate(&[("b", 2.0, 1.0), ("a", 1.0, 5.0), ("b", 1.0, 3.0), ("b", 2.0, 3.0)]);
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].label, "a");
        assert_eq!(series[0].points.len(), 1);
        assert_eq!(series[1].label, "b");
        assert_eq!(series[1].points.len(), 2);
        assert_eq!(series[1].mean_at(2.0), Some(2.0));
        assert_eq!(series[1].points[0].summary.n, 1);
    }

    #[test]
    fn empty_input_gives_no_series() {
        let agg = StreamingAggregator::new();
        assert!(agg.is_empty());
        assert!(agg.finish().is_empty());
    }

    /// Build a deterministic row set from proptest-drawn raw parts:
    /// labels cycle over a tiny alphabet and x snaps to a small grid so
    /// cells actually collide.
    fn rows_from(parts: &[(usize, usize, f64)]) -> Vec<Row> {
        const LABELS: [&str; 3] = ["alpha", "beta", "gamma"];
        const XS: [f64; 4] = [1.0, 2.0, 4.0, 8.0];
        parts.iter().map(|&(l, x, v)| (LABELS[l % LABELS.len()], XS[x % XS.len()], v)).collect()
    }

    /// Deterministic in-place permutation driven by a seed.
    fn permute<T>(xs: &mut [T], mut seed: u64) {
        for i in (1..xs.len()).rev() {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            xs.swap(i, (seed >> 33) as usize % (i + 1));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn permutation_independent(
            parts in proptest::collection::vec((0usize..3, 0usize..4, -1e3f64..1e3), 0..40),
            seed in 0u64..1_000_000,
        ) {
            // The aggregator is a pure function of the sample multiset.
            let rows = rows_from(&parts);
            let mut shuffled = rows.clone();
            permute(&mut shuffled, seed);
            let mut agg = StreamingAggregator::new();
            for &(label, x, value) in &shuffled {
                agg.push(label, x, value);
            }
            prop_assert_eq!(agg.len(), rows.len());
            prop_assert_eq!(agg.finish(), aggregate(&rows));
        }

        #[test]
        fn streaming_is_insensitive_to_push_batching(
            parts in proptest::collection::vec((0usize..3, 0usize..4, -1e3f64..1e3), 1..30),
            split in 0usize..30,
        ) {
            // Feeding the stream in two chunks (a resume picking up after
            // an interrupted campaign) changes nothing.
            let rows = rows_from(&parts);
            let split = split % rows.len();
            let mut agg = StreamingAggregator::new();
            for &(label, x, value) in &rows[..split] {
                agg.push(label, x, value);
            }
            for &(label, x, value) in &rows[split..] {
                agg.push(label, x, value);
            }
            prop_assert_eq!(agg.finish(), aggregate(&rows));
        }

        #[test]
        fn sample_counts_are_conserved(
            parts in proptest::collection::vec((0usize..3, 0usize..4, -1e3f64..1e3), 0..40),
        ) {
            let rows = rows_from(&parts);
            let series = aggregate(&rows);
            let total: usize = series.iter().flat_map(|s| &s.points).map(|p| p.summary.n).sum();
            prop_assert_eq!(total, rows.len());
            // Labels are unique and sorted; x ascends strictly within a series.
            for w in series.windows(2) {
                prop_assert!(w[0].label < w[1].label);
            }
            for s in &series {
                for w in s.points.windows(2) {
                    prop_assert!(w[0].x < w[1].x);
                }
            }
        }

        #[test]
        fn singleton_cells_are_degenerate(
            l in 0usize..3, x in 0usize..4, v in -1e3f64..1e3,
        ) {
            let series = aggregate(&rows_from(&[(l, x, v)]));
            prop_assert_eq!(series.len(), 1);
            let p = &series[0].points[0];
            prop_assert_eq!(p.summary.n, 1);
            prop_assert!((p.summary.mean - v).abs() < 1e-12);
            prop_assert!(p.summary.var == 0.0);
            prop_assert!(p.summary.ci95_half_width() == 0.0);
        }

        #[test]
        fn every_cell_ci_contains_its_mean_and_bounds(
            parts in proptest::collection::vec((0usize..3, 0usize..4, -1e3f64..1e3), 1..40),
        ) {
            let series = aggregate(&rows_from(&parts));
            for s in &series {
                for p in &s.points {
                    let (lo, hi) = p.summary.ci95();
                    prop_assert!(lo <= p.summary.mean && p.summary.mean <= hi);
                    prop_assert!(p.summary.min <= p.summary.mean + 1e-9);
                    prop_assert!(p.summary.mean <= p.summary.max + 1e-9);
                    prop_assert!(p.summary.var >= 0.0);
                }
            }
        }
    }
}
