//! Campaign results: per-run records, per-cell aggregation, and
//! structured CSV/JSON writers.

use crate::json::{write_num, write_str};
use crate::spec::GridPoint;
use eend_stats::Series;
use eend_wireless::RunMetrics;

/// One finished job: where it sat in the grid and what it measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Grid coordinates of the run.
    pub point: GridPoint,
    /// Full simulator output for the run.
    pub metrics: RunMetrics,
}

/// A named metric column: CSV/JSON field name plus its extractor.
pub type MetricColumn = (&'static str, fn(&RunMetrics) -> f64);

/// How many metrics a campaign exports per record.
pub const METRIC_COUNT: usize = 12;

/// One record's exported metric values, in [`metric_columns`] order:
/// all a CSV/JSON row or an aggregate cell needs of its [`RunMetrics`].
pub type MetricRow = [f64; METRIC_COUNT];

static METRIC_COLUMNS: [MetricColumn; METRIC_COUNT] = [
    ("delivery_ratio", |m| m.delivery_ratio()),
    ("energy_goodput_bit_per_j", |m| m.energy_goodput_bit_per_j()),
    ("enetwork_j", |m| m.enetwork_j()),
    ("transmit_j", |m| m.transmit_energy_j()),
    ("control_j", |m| m.control_energy_j()),
    ("relays", |m| m.data_forwarders as f64),
    ("data_sent", |m| m.data_sent as f64),
    ("data_delivered", |m| m.data_delivered as f64),
    ("rreq_tx", |m| m.rreq_tx as f64),
    ("dsdv_update_tx", |m| m.dsdv_update_tx as f64),
    ("link_failures", |m| m.link_failures as f64),
    ("lifetime_1kj_s", |m| m.lifetime_to_first_death_s(1000.0)),
];

/// The named metrics a campaign exports to CSV/JSON, with extractors.
/// One row of output carries each of these per record.
pub fn metric_columns() -> &'static [MetricColumn; METRIC_COUNT] {
    &METRIC_COLUMNS
}

/// Evaluates every [`metric_columns`] extractor on `m`.
pub fn metric_row(m: &RunMetrics) -> MetricRow {
    METRIC_COLUMNS.map(|(_, f)| f(m))
}

/// Everything a campaign produced, in job order.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// The spec's name.
    pub campaign: String,
    /// One record per job, in expansion order.
    pub records: Vec<Record>,
}

impl CampaignResult {
    /// Aggregates `metric` into one [`Series`] per stack, with the
    /// x-position of each point drawn by `x` from the grid coordinates
    /// (e.g. `|p| p.rate_kbps` for a rate sweep, `|p| p.nodes as f64`
    /// for the density study). Cells collapse to mean/stddev/95 % CI via
    /// [`eend_stats::grouped::StreamingAggregator`]; series come back in
    /// first-appearance (spec) stack order.
    pub fn series(
        &self,
        x: impl Fn(&GridPoint) -> f64,
        metric: impl Fn(&RunMetrics) -> f64,
    ) -> Vec<Series> {
        // Only the scalar samples are held, never a second copy of the
        // records.
        let mut agg = eend_stats::grouped::StreamingAggregator::new();
        for r in &self.records {
            agg.push(&r.point.stack.name, x(&r.point), metric(&r.metrics));
        }
        let mut series = agg.finish();
        // The aggregator sorts labels for permutation independence;
        // restore the order the campaign listed its stacks in.
        let mut order: Vec<&str> = Vec::new();
        for r in &self.records {
            if !order.contains(&r.point.stack.name.as_str()) {
                order.push(&r.point.stack.name);
            }
        }
        series.sort_by_key(|s| order.iter().position(|n| *n == s.label).unwrap_or(usize::MAX));
        series
    }

    /// Renders every record as CSV: one header line, then one row per
    /// run (grid coordinates first, then every [`metric_columns`]
    /// metric). Rendered through the same row writers the streaming
    /// sinks use, so a [`crate::sink::CsvSink`] fed record-by-record is
    /// byte-identical to this batch export.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        csv_header_into(&mut out);
        for r in &self.records {
            csv_row_into(&mut out, &self.campaign, r);
        }
        out
    }

    /// Renders every record as a JSON array of flat objects (the same
    /// fields as [`CampaignResult::to_csv`], machine-readable without a
    /// serde dependency). Each object is rendered by the shared
    /// [`json_row_into`] writer, whose [`json_values_into`] core also
    /// writes the daemon's JSONL stream lines.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, r) in self.records.iter().enumerate() {
            out.push_str("  ");
            json_row_into(&mut out, &self.campaign, r);
            out.push_str(if i + 1 == self.records.len() { "\n" } else { ",\n" });
        }
        out.push(']');
        out
    }
}

/// Appends the CSV header line (grid coordinates, then every
/// [`metric_columns`] name) to `out`.
pub fn csv_header_into(out: &mut String) {
    out.push_str("campaign,stack,rate_kbps,nodes,speed_mps,traffic,radio,failure,seed");
    for (name, _) in &METRIC_COLUMNS {
        out.push(',');
        out.push_str(name);
    }
    out.push('\n');
}

/// Appends one record as a CSV row (including the trailing newline) to
/// `out`. Text fields are quoted per RFC 4180 when they contain a
/// delimiter, quote, or newline.
pub fn csv_row_into(out: &mut String, campaign: &str, r: &Record) {
    csv_values_into(out, campaign, &r.point, &metric_row(&r.metrics));
}

/// [`csv_row_into`] from a record's grid point and precomputed
/// [`MetricRow`].
pub fn csv_values_into(out: &mut String, campaign: &str, p: &GridPoint, row: &MetricRow) {
    use std::fmt::Write as _;
    let _ = write!(
        out,
        "{},{},{},{},{},{},{},{},{}",
        csv_field(campaign),
        csv_field(&p.stack.name),
        p.rate_kbps,
        p.nodes,
        p.speed_mps,
        csv_field(&p.traffic),
        csv_field(&p.radio),
        csv_field(&p.failure),
        p.seed
    );
    for v in row {
        let _ = write!(out, ",{v}");
    }
    out.push('\n');
}

/// Appends one record as a flat JSON object (no trailing newline or
/// separator) to `out` — the element type of [`CampaignResult::to_json`]
/// and the line type of the daemon's JSONL stream.
pub fn json_row_into(out: &mut String, campaign: &str, r: &Record) {
    json_values_into(out, campaign, &r.point, &metric_row(&r.metrics));
}

/// [`json_row_into`] from a record's grid point and precomputed
/// [`MetricRow`].
pub fn json_values_into(out: &mut String, campaign: &str, p: &GridPoint, row: &MetricRow) {
    use std::fmt::Write as _;
    out.push_str("{\"campaign\":");
    write_str(out, campaign);
    out.push_str(",\"stack\":");
    write_str(out, &p.stack.name);
    out.push_str(",\"rate_kbps\":");
    write_num(out, p.rate_kbps);
    let _ = write!(out, ",\"nodes\":{},\"speed_mps\":", p.nodes);
    write_num(out, p.speed_mps);
    out.push_str(",\"traffic\":");
    write_str(out, &p.traffic);
    out.push_str(",\"radio\":");
    write_str(out, &p.radio);
    out.push_str(",\"failure\":");
    write_str(out, &p.failure);
    let _ = write!(out, ",\"seed\":{}", p.seed);
    for ((name, _), &v) in METRIC_COLUMNS.iter().zip(row) {
        let _ = write!(out, ",\"{name}\":");
        write_num(out, v);
    }
    out.push('}');
}

/// Quotes a CSV field when it contains a delimiter, quote, or newline.
pub(crate) fn csv_field(s: &str) -> std::borrow::Cow<'_, str> {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\"")).into()
    } else {
        s.into()
    }
}

/// Escapes a string as a JSON string literal.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_str(&mut out, s);
    out
}

/// Renders an f64 as JSON (JSON has no Infinity/NaN; map them to null).
pub(crate) fn json_num(x: f64) -> String {
    let mut out = String::new();
    write_num(&mut out, x);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BaseScenario, CampaignSpec, Executor};
    use eend_wireless::stacks;

    fn tiny_result() -> CampaignResult {
        let spec = CampaignSpec::new("unit", BaseScenario::Small)
            .stacks(vec![stacks::titan_pc(), stacks::dsr_active()])
            .rates(vec![2.0, 4.0])
            .seeds(2)
            .secs(20);
        Executor::with_workers(2).run(&spec)
    }

    #[test]
    fn series_groups_cells_in_spec_stack_order() {
        let res = tiny_result();
        let series = res.series(|p| p.rate_kbps, |m| m.delivery_ratio());
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].label, "TITAN-PC", "spec order, not alphabetical");
        assert_eq!(series[1].label, "DSR-Active");
        for s in &series {
            assert_eq!(s.points.len(), 2);
            assert_eq!(s.points[0].x, 2.0);
            assert_eq!(s.points[1].x, 4.0);
            for p in &s.points {
                assert_eq!(p.summary.n, 2, "two seeds per cell");
                assert!((0.0..=1.0).contains(&p.summary.mean));
            }
        }
    }

    #[test]
    fn csv_has_header_plus_one_row_per_record() {
        let res = tiny_result();
        let csv = res.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + res.records.len());
        assert!(lines[0]
            .starts_with("campaign,stack,rate_kbps,nodes,speed_mps,traffic,radio,failure,seed"));
        assert!(lines[0].contains("delivery_ratio"));
        assert!(lines[1].starts_with("unit,TITAN-PC,2,50,0,cbr,uniform,none,1"));
        let cols = lines[0].split(',').count();
        for l in &lines[1..] {
            assert_eq!(l.split(',').count(), cols);
        }
    }

    #[test]
    fn json_is_an_array_with_expected_fields() {
        let res = tiny_result();
        let json = res.to_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert_eq!(json.matches("\"stack\":").count(), res.records.len());
        assert!(json.contains("\"stack\":\"TITAN-PC\""));
        assert!(json.contains("\"delivery_ratio\":"));
        // Balanced object braces: one open and one close per record.
        assert_eq!(json.matches('{').count(), res.records.len());
        assert_eq!(json.matches('}').count(), res.records.len());
    }

    #[test]
    fn csv_quoting_and_json_escaping() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("q\"q"), "\"q\"\"q\"");
        assert_eq!(csv_field("two\nlines"), "\"two\nlines\"");
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_str("tab\there\rcr"), "\"tab\\there\\rcr\"");
        assert_eq!(json_str("ctl\u{1}"), "\"ctl\\u0001\"");
        assert_eq!(json_num(f64::INFINITY), "null");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(1.5), "1.5");
    }

    #[test]
    fn hostile_labels_survive_both_row_writers() {
        // A stack name and failure label full of CSV/JSON specials must
        // round-trip through the shared row writers without breaking
        // either format's structure.
        let mut res = tiny_result();
        res.campaign = "camp,aign\"x".to_owned();
        res.records.truncate(1);
        res.records[0].point.stack.name = "evil,\"stack\"\nname".to_owned();
        res.records[0].point.failure = "kill,3\t\"fast\"".to_owned();

        let csv = res.to_csv();
        // Quoted newline means logical row ≠ physical line; count commas
        // at quote-depth zero instead: every row parses to the header's
        // column count.
        let header_cols = csv.lines().next().unwrap().split(',').count();
        let mut cols = 1;
        let mut in_quotes = false;
        let body = csv.split_once('\n').unwrap().1;
        for c in body.trim_end_matches('\n').chars() {
            match c {
                '"' => in_quotes = !in_quotes,
                ',' if !in_quotes => cols += 1,
                _ => {}
            }
        }
        assert!(!in_quotes, "quotes must balance");
        assert_eq!(cols, header_cols, "quoted specials must not add columns");

        let json = res.to_json();
        assert!(json.contains("\"stack\":\"evil,\\\"stack\\\"\\nname\""));
        assert!(json.contains("\"failure\":\"kill,3\\t\\\"fast\\\"\""));
        // The escaped object still has exactly one brace pair.
        assert_eq!(json.matches('{').count(), 1);
        assert_eq!(json.matches('}').count(), 1);
    }

    #[test]
    fn batch_exports_are_concatenations_of_the_shared_row_writers() {
        let res = tiny_result();
        let mut csv = String::new();
        csv_header_into(&mut csv);
        for r in &res.records {
            csv_row_into(&mut csv, &res.campaign, r);
        }
        assert_eq!(csv, res.to_csv());

        let mut obj = String::new();
        json_row_into(&mut obj, &res.campaign, &res.records[0]);
        assert!(res.to_json().contains(&obj), "array elements come from json_row_into");
    }
}
