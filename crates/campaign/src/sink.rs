//! Record sinks: where streamed campaign records go.
//!
//! The streaming executor ([`crate::Executor::run_streaming`]) pushes
//! one [`Record`] at a time, in deterministic job order, into a
//! [`RecordSink`]. Sinks decide what to keep: everything
//! ([`MemorySink`] — the old collect-in-RAM behaviour), a CSV or JSONL
//! byte stream ([`CsvSink`], [`JsonlSink`] — O(1) memory however large
//! the grid), or an append-only on-disk store
//! ([`crate::store::ResultStore`]).
//!
//! The CSV/JSONL writers render rows through the exact same functions
//! as the batch exports ([`crate::CampaignResult::to_csv`] /
//! [`to_json`](crate::CampaignResult::to_json)), so streaming a
//! campaign produces byte-identical output to collecting it first —
//! the property the streaming tests pin.

use crate::report::{csv_header_into, csv_row_into, json_row_into, Record};
use std::io::{self, Write};

/// A consumer of finished campaign records.
///
/// The executor calls [`RecordSink::accept`] exactly once per job, in
/// increasing job order (the reorder buffer guarantees this even under
/// parallel execution), then [`RecordSink::finish`] once after the last
/// record.
pub trait RecordSink {
    /// Consumes the next record (records arrive in job order).
    fn accept(&mut self, record: &Record) -> io::Result<()>;

    /// Flushes any buffered state once the stream ends.
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Collects every record in memory — the classic
/// [`crate::Executor::run_jobs`] behaviour, as a sink.
#[derive(Debug, Default)]
pub struct MemorySink {
    /// The records accepted so far, in job order.
    pub records: Vec<Record>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// Consumes the sink, returning the collected records.
    pub fn into_records(self) -> Vec<Record> {
        self.records
    }
}

impl RecordSink for MemorySink {
    fn accept(&mut self, record: &Record) -> io::Result<()> {
        self.records.push(record.clone());
        Ok(())
    }
}

/// Streams records as CSV (header + one row per record) into any
/// writer. The output is byte-identical to
/// [`crate::CampaignResult::to_csv`] over the same records.
#[derive(Debug)]
pub struct CsvSink<W: Write> {
    campaign: String,
    w: W,
    header_written: bool,
}

impl<W: Write> CsvSink<W> {
    /// A CSV sink labelling every row with `campaign`.
    pub fn new(campaign: &str, w: W) -> CsvSink<W> {
        CsvSink { campaign: campaign.to_owned(), w, header_written: false }
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.w
    }

    fn ensure_header(&mut self) -> io::Result<()> {
        if !self.header_written {
            self.header_written = true;
            let mut line = String::new();
            csv_header_into(&mut line);
            self.w.write_all(line.as_bytes())?;
        }
        Ok(())
    }
}

impl<W: Write> RecordSink for CsvSink<W> {
    fn accept(&mut self, record: &Record) -> io::Result<()> {
        // Chaos hook: the Kth emitted row errors. Emission happens on
        // the consumer thread in job order, so the count is
        // deterministic under any worker count.
        eend_fail::io_guard("sink.emit")?;
        self.ensure_header()?;
        let mut line = String::new();
        csv_row_into(&mut line, &self.campaign, record);
        self.w.write_all(line.as_bytes())
    }

    fn finish(&mut self) -> io::Result<()> {
        eend_fail::io_guard("sink.finish")?;
        // An empty campaign still gets its header, like to_csv().
        self.ensure_header()?;
        self.w.flush()
    }
}

/// Streams records as JSON Lines: one flat object per line, each
/// rendered by the same row writer as the elements of
/// [`crate::CampaignResult::to_json`].
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    campaign: String,
    w: W,
}

impl<W: Write> JsonlSink<W> {
    /// A JSONL sink labelling every object with `campaign`.
    pub fn new(campaign: &str, w: W) -> JsonlSink<W> {
        JsonlSink { campaign: campaign.to_owned(), w }
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.w
    }
}

impl<W: Write> RecordSink for JsonlSink<W> {
    fn accept(&mut self, record: &Record) -> io::Result<()> {
        eend_fail::io_guard("sink.emit")?;
        let mut line = String::new();
        json_row_into(&mut line, &self.campaign, record);
        line.push('\n');
        self.w.write_all(line.as_bytes())
    }

    fn finish(&mut self) -> io::Result<()> {
        eend_fail::io_guard("sink.finish")?;
        self.w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BaseScenario, CampaignSpec, Executor};
    use eend_wireless::stacks;

    fn tiny() -> crate::CampaignResult {
        let spec = CampaignSpec::new("sink", BaseScenario::Small)
            .stacks(vec![stacks::dsr_active()])
            .rates(vec![2.0, 4.0])
            .seeds(2)
            .secs(20);
        Executor::with_workers(2).run(&spec)
    }

    #[test]
    fn csv_sink_is_byte_identical_to_batch_export() {
        let res = tiny();
        let mut sink = CsvSink::new(&res.campaign, Vec::new());
        for r in &res.records {
            sink.accept(r).unwrap();
        }
        sink.finish().unwrap();
        assert_eq!(String::from_utf8(sink.into_inner()).unwrap(), res.to_csv());
    }

    #[test]
    fn empty_csv_stream_still_has_a_header() {
        let mut sink = CsvSink::new("empty", Vec::new());
        sink.finish().unwrap();
        let out = String::from_utf8(sink.into_inner()).unwrap();
        assert!(out.starts_with("campaign,stack,"));
        assert_eq!(out.lines().count(), 1);
    }

    #[test]
    fn jsonl_lines_are_the_json_array_elements() {
        let res = tiny();
        let mut sink = JsonlSink::new(&res.campaign, Vec::new());
        for r in &res.records {
            sink.accept(r).unwrap();
        }
        sink.finish().unwrap();
        let jsonl = String::from_utf8(sink.into_inner()).unwrap();
        let array = res.to_json();
        for (i, line) in jsonl.lines().enumerate() {
            assert!(array.contains(line), "line {i} must appear in to_json()");
        }
        assert_eq!(jsonl.lines().count(), res.records.len());
    }
}
