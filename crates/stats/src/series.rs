//! Swept-parameter series: one curve of a paper figure.

use crate::summary::Summary;
use std::fmt;

/// One x-position of a [`Series`]: the swept value plus the run summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesPoint {
    /// The swept parameter (e.g. per-flow rate in Kbit/s).
    pub x: f64,
    /// Summary of the metric over the seeded runs at this x.
    pub summary: Summary,
}

/// A labelled curve: what one line of a paper figure plots.
///
/// # Example
///
/// ```
/// use eend_stats::Series;
///
/// let mut s = Series::new("TITAN-PC");
/// s.push(2.0, &[2510.0, 2490.0, 2505.0]);
/// s.push(4.0, &[2410.0, 2395.0, 2402.0]);
/// assert_eq!(s.points.len(), 2);
/// assert!(s.points[0].summary.mean > s.points[1].summary.mean);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Curve label (protocol name in the paper's legends).
    pub label: String,
    /// Points in the order they were pushed (callers sweep x ascending).
    pub points: Vec<SeriesPoint>,
}

impl Series {
    /// Creates an empty series with the given label.
    pub fn new(label: impl Into<String>) -> Series {
        Series { label: label.into(), points: Vec::new() }
    }

    /// Appends the summary of `samples` at sweep position `x`.
    pub fn push(&mut self, x: f64, samples: &[f64]) {
        self.points.push(SeriesPoint { x, summary: Summary::from_samples(samples) });
    }

    /// Appends an already-computed summary at sweep position `x`.
    pub fn push_summary(&mut self, x: f64, summary: Summary) {
        self.points.push(SeriesPoint { x, summary });
    }

    /// The mean at sweep position `x`, if that exact x was pushed.
    pub fn mean_at(&self, x: f64) -> Option<f64> {
        self.points.iter().find(|p| p.x == x).map(|p| p.summary.mean)
    }

    /// Largest mean across the series (useful for asserting curve ordering).
    pub fn max_mean(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|p| p.summary.mean)
            .fold(None, |acc, m| Some(acc.map_or(m, |a: f64| a.max(m))))
    }
}

impl fmt::Display for Series {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# {}", self.label)?;
        for p in &self.points {
            writeln!(f, "{:>10.3}  {}", p.x, p.summary)?;
        }
        Ok(())
    }
}

/// Renders several series as a gnuplot-style block of columns:
/// `x  series1_mean  series1_ci  series2_mean  series2_ci ...`.
///
/// All series must share the same x positions (the harness sweeps them in
/// lock-step); mismatched series are rendered row-by-row up to the shortest.
pub fn render_figure(title: &str, series: &[Series]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "## {title}");
    let mut header = format!("{:>10}", "x");
    for s in series {
        header.push_str(&format!("  {:>14}  {:>10}", s.label, "ci95"));
    }
    let _ = writeln!(out, "{header}");
    let rows = series.iter().map(|s| s.points.len()).min().unwrap_or(0);
    for i in 0..rows {
        let mut row = format!("{:>10.3}", series[0].points[i].x);
        for s in series {
            let p = &s.points[i];
            row.push_str(&format!(
                "  {:>14.3}  {:>10.3}",
                p.summary.mean,
                p.summary.ci95_half_width()
            ));
        }
        let _ = writeln!(out, "{row}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_query() {
        let mut s = Series::new("DSR-ODPM");
        s.push(2.0, &[1.0, 3.0]);
        s.push(3.0, &[5.0]);
        assert_eq!(s.mean_at(2.0), Some(2.0));
        assert_eq!(s.mean_at(3.0), Some(5.0));
        assert_eq!(s.mean_at(99.0), None);
        assert_eq!(s.max_mean(), Some(5.0));
    }

    #[test]
    fn empty_series() {
        let s = Series::new("x");
        assert_eq!(s.max_mean(), None);
        assert_eq!(s.mean_at(0.0), None);
    }

    #[test]
    fn render_figure_has_all_labels_and_rows() {
        let mut a = Series::new("TITAN-PC");
        let mut b = Series::new("DSR-Active");
        for x in [2.0, 4.0, 6.0] {
            a.push(x, &[x * 10.0, x * 10.0 + 1.0]);
            b.push(x, &[x * 5.0, x * 5.0 + 1.0]);
        }
        let text = render_figure("Fig 9: energy goodput", &[a, b]);
        assert!(text.contains("TITAN-PC"));
        assert!(text.contains("DSR-Active"));
        assert_eq!(text.lines().count(), 2 + 3, "title + header + 3 rows");
        assert!(text.lines().last().unwrap().trim_start().starts_with("6.000"));
    }

    #[test]
    fn display_series() {
        let mut s = Series::new("MTPR");
        s.push(1.0, &[2.0, 2.0]);
        let text = s.to_string();
        assert!(text.starts_with("# MTPR"));
        assert!(text.contains("±"));
    }
}
