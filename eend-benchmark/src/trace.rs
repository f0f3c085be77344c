//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! A span has a name (the layer boundary it wraps), an id, the id of the
//! span that caused it, the id of the trace it belongs to (its root-most
//! ancestor), start and end times, and named counts. Spans stay in memory
//! until the workload ends. When the tracer is off, opening a span costs
//! one relaxed atomic load and records nothing.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Where a new span hangs: its parent's id and the trace it joins.
/// `Ctx::ROOT` starts a new trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ctx {
    id: u64,
    trace: u64,
}

impl Ctx {
    /// No parent: the span opens a trace of its own.
    pub const ROOT: Ctx = Ctx { id: 0, trace: 0 };
}

thread_local! {
    /// The innermost open span on this thread, the default parent.
    static CURRENT: Cell<Ctx> = const { Cell::new(Ctx::ROOT) };
}

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub trace: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counts: Vec<(&'static str, u64)>,
}

/// Collects spans from any thread.
pub struct Tracer {
    on: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer that starts switched off.
    pub fn new() -> Tracer {
        Tracer {
            on: AtomicBool::new(false),
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        // The flag publishes nothing else: spans are handed over through
        // the mutex.
        self.on.store(on, Ordering::Relaxed);
    }

    pub fn enabled(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under this thread's innermost open span.
    pub fn span(&self, name: &'static str) -> Guard<'_> {
        self.span_under(name, CURRENT.with(Cell::get))
    }

    /// Opens a span under an explicit parent (a span on another thread).
    pub fn span_under(&self, name: &'static str, parent: Ctx) -> Guard<'_> {
        if !self.enabled() {
            return Guard {
                tracer: None,
                name,
                ctx: Ctx::ROOT,
                parent: 0,
                prev: Ctx::ROOT,
                start_ns: 0,
                counts: Vec::new(),
            };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let trace = if parent.id == 0 { id } else { parent.trace };
        let ctx = Ctx { id, trace };
        let prev = CURRENT.with(|c| c.replace(ctx));
        Guard {
            tracer: Some(self),
            name,
            ctx,
            parent: parent.id,
            prev,
            start_ns: self.now_ns(),
            counts: Vec::new(),
        }
    }

    /// Removes and returns every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"))
    }
}

/// An open span; it is recorded when dropped.
pub struct Guard<'a> {
    tracer: Option<&'a Tracer>,
    name: &'static str,
    ctx: Ctx,
    parent: u64,
    prev: Ctx,
    start_ns: u64,
    counts: Vec<(&'static str, u64)>,
}

impl Guard<'_> {
    /// This span as a parent for spans opened on other threads.
    pub fn ctx(&self) -> Ctx {
        self.ctx
    }

    /// Adds `n` to the span's count `key`.
    pub fn count(&mut self, key: &'static str, n: u64) {
        if self.tracer.is_none() {
            return;
        }
        match self.counts.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => *v += n,
            None => self.counts.push((key, n)),
        }
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let Some(tracer) = self.tracer else { return };
        CURRENT.with(|c| c.set(self.prev));
        let span = Span {
            name: self.name,
            id: self.ctx.id,
            parent: self.parent,
            trace: self.ctx.trace,
            start_ns: self.start_ns,
            end_ns: tracer.now_ns(),
            counts: std::mem::take(&mut self.counts),
        };
        // Never panic in drop: a poisoned buffer only loses this span.
        if let Ok(mut spans) = tracer.spans.lock() {
            spans.push(span);
        }
    }
}

/// Self time of each span: its duration minus the part of its interval
/// that its children cover. Children may overlap one another (workers
/// running in parallel under one parent), so the covered part is the
/// length of the union of their intervals, clipped to the parent's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let Some(kids) = children.get_mut(&s.id) else {
                return dur;
            };
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            dur - covered.min(dur)
        })
        .collect()
}

/// Total self time per span name, in nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0) += t;
    }
    out
}

/// Renders spans as JSONL, one span per line.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let counts: Vec<String> = s
            .counts
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"trace\":{},\"start_ns\":{},\"end_ns\":{},\"counts\":{{{}}}}}",
            s.name,
            s.id,
            s.parent,
            s.trace,
            s.start_ns,
            s.end_ns,
            counts.join(",")
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            id,
            parent,
            trace: 1,
            start_ns,
            end_ns,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span(1, 0, 0, 100),
            // Two workers overlapping on [20, 40], a third past the end.
            span(2, 1, 10, 40),
            span(3, 1, 20, 50),
            span(4, 1, 90, 130),
            // A grandchild counts against its own parent only.
            span(5, 2, 15, 25),
        ];
        let t = self_times(&spans);
        assert_eq!(t[0], 100 - 40 - 10, "union [10,50] plus clipped [90,100]");
        assert_eq!(t[1], 30 - 10);
        assert_eq!(t[2], 30);
        assert_eq!(t[3], 40);
        assert_eq!(t[4], 10);
    }

    #[test]
    fn nested_children_inside_one_another_are_not_double_counted() {
        let spans = vec![span(1, 0, 0, 100), span(2, 1, 10, 90), span(3, 1, 20, 30)];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn spans_nest_on_one_thread_and_join_a_parent_across_threads() {
        let tracer = Tracer::new();
        tracer.set_enabled(true);
        let root_ctx;
        {
            let root = tracer.span("root");
            root_ctx = root.ctx();
            {
                let mut child = tracer.span("child");
                child.count("n", 2);
                child.count("n", 3);
            }
            std::thread::scope(|s| {
                s.spawn(|| drop(tracer.span_under("worker", root_ctx)));
            });
        }
        let spans = tracer.take();
        let by = |n: &str| spans.iter().find(|s| s.name == n).expect(n).clone();
        let (root, child, worker) = (by("root"), by("child"), by("worker"));
        assert_eq!(root.parent, 0);
        assert_eq!(root.trace, root.id);
        assert_eq!(child.parent, root.id);
        assert_eq!(worker.parent, root.id);
        assert_eq!(worker.trace, root.id);
        assert_eq!(child.counts, vec![("n", 5)]);
        // After the root closed, the next span starts a new trace.
        let next = tracer.span("next");
        drop(next);
        let next = tracer.take().pop().unwrap();
        assert_eq!(next.parent, 0);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tracer = Tracer::new();
        let mut g = tracer.span("x");
        g.count("n", 1);
        drop(g);
        assert!(tracer.take().is_empty());
    }
}
