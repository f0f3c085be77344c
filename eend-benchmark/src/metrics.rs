//! Every metric the benchmark reports, and how the per-layer metrics are
//! computed from the spans and counts of a traced run.
//!
//! Each workload reports every metric. A per-layer metric of a layer the
//! workload never crosses reads 0; per-layer times are therefore given as
//! shares of traced span time or as rates, never as absolute seconds
//! (those are in the `layers.json` file a traced run writes).

use crate::trace::{self, Span};
use std::collections::{BTreeMap, BTreeSet};

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn d(name: &'static str, unit: &'static str, better: &'static str) -> Decl {
    Decl { name, unit, better }
}

/// Reported by every untraced run. Times are process CPU time
/// (see [`crate::cpu`]).
pub const END_TO_END: &[Decl] = &[
    d("setup_s", "s", "lower"),
    d("ops_per_cpu_s", "1/s", "higher"),
    d("work_per_cpu_s", "1/s", "higher"),
    d("op_cpu_p50_ms", "ms", "lower"),
    d("op_cpu_tail_ms", "ms", "lower"),
    d("peak_rss_mb", "MB", "lower"),
];

/// The seven `paper_small` stacks, with the slug their metrics use.
pub const STACK_SLUGS: [(&str, &str); 7] = [
    ("TITAN-PC", "titan_pc"),
    ("DSR-ODPM-PC", "dsr_odpm_pc"),
    ("DSDVH-ODPM(5,10)-PSM", "dsdvh_psm"),
    ("DSDVH-ODPM(0.6,1.2)-Span", "dsdvh_span"),
    ("DSRH-ODPM (rate)", "dsrh_rate"),
    ("DSR-ODPM", "dsr_odpm"),
    ("DSR-Active", "dsr_active"),
];

/// Reported by every traced run.
pub const PER_LAYER: &[Decl] = &[
    d("sim.events", "count", "lower"),
    d("sim.events_per_s", "1/s", "higher"),
    d("sim.queue_peak", "count", "lower"),
    d("sim.queue_regrowths", "count", "lower"),
    d("sim.wheel_share", "ratio", "higher"),
    d("wireless.runs", "count", "higher"),
    d("wireless.new_pct", "%", "lower"),
    d("wireless.run_pct", "%", "lower"),
    d("wireless.ctrl_per_data", "ratio", "lower"),
    d("wireless.collisions", "count", "lower"),
    d("wireless.delivery_ratio", "ratio", "higher"),
    d("wireless.titan_pc.events_per_s", "1/s", "higher"),
    d("wireless.dsr_odpm_pc.events_per_s", "1/s", "higher"),
    d("wireless.dsdvh_psm.events_per_s", "1/s", "higher"),
    d("wireless.dsdvh_span.events_per_s", "1/s", "higher"),
    d("wireless.dsrh_rate.events_per_s", "1/s", "higher"),
    d("wireless.dsr_odpm.events_per_s", "1/s", "higher"),
    d("wireless.dsr_active.events_per_s", "1/s", "higher"),
    d("campaign.store.open_pct", "%", "lower"),
    d("campaign.store.appends", "count", "higher"),
    d("campaign.store.append_pct", "%", "lower"),
    d("campaign.store.bytes_per_record", "B", "lower"),
    d("campaign.executor.busy_frac", "ratio", "higher"),
    d("campaign.serve.submit_pct", "%", "lower"),
    d("campaign.serve.stream_pct", "%", "lower"),
    d("campaign.serve.aggregate_cold_pct", "%", "lower"),
    d("campaign.serve.aggregate_warm_pct", "%", "lower"),
    d("campaign.serve.submit_cached_pct", "%", "lower"),
    d("campaign.serve.replay_pct", "%", "lower"),
    d("campaign.serve.executed_ratio", "ratio", "lower"),
    d("campaign.serve.aggregate_hit_ratio", "ratio", "higher"),
    d("campaign.serve.ttfr_share", "ratio", "lower"),
    d("opt.requests", "count", "lower"),
    d("opt.cache.hit_ratio", "ratio", "higher"),
    d("opt.cache.open_pct", "%", "lower"),
    d("opt.cache.self_pct", "%", "lower"),
    d("opt.search.self_pct", "%", "lower"),
    d("core.evaluate.calls", "count", "lower"),
    d("core.evaluate.calls_per_s", "1/s", "higher"),
    d("core.evaluate.pct", "%", "lower"),
    d("core.designs_per_s", "1/s", "higher"),
    d("graph.yen_share", "ratio", "lower"),
    d("bench.self_pct", "%", "lower"),
    d("trace.overhead", "ratio", "lower"),
    d("trace.spans", "count", "lower"),
];

pub fn decl(name: &str) -> Option<&'static Decl> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Root span name of work done only to attribute time to a layer (direct
/// re-runs, replays); such traces stay out of the `_pct` shares.
pub const REPLAY: &str = "bench.replay";

/// Raw sums a workload accumulates during its traced rounds.
pub type Counters = BTreeMap<String, f64>;

pub fn add(c: &mut Counters, key: &str, v: f64) {
    *c.entry(key.to_owned()).or_insert(0.0) += v;
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Computes every [`PER_LAYER`] metric, in declaration order.
pub fn per_layer(spans: &[Span], c: &Counters, overhead: f64) -> Vec<(&'static str, f64)> {
    let get = |k: &str| c.get(k).copied().unwrap_or(0.0);
    let replay_traces: BTreeSet<u64> = spans
        .iter()
        .filter(|s| s.parent == 0 && s.name == REPLAY)
        .map(|s| s.id)
        .collect();
    let work: Vec<Span> = spans
        .iter()
        .filter(|s| !replay_traces.contains(&s.trace))
        .cloned()
        .collect();
    let self_ns = trace::self_time_by_name(&work);
    let total: f64 = self_ns.values().map(|&v| v as f64).sum();
    let secs = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64 / 1e9;
    let pct = |name: &str| 100.0 * ratio(secs(name) * 1e9, total);
    let mut out = Vec::with_capacity(PER_LAYER.len());
    for decl in PER_LAYER {
        let name = decl.name;
        let v = match name {
            "sim.events"
            | "sim.queue_peak"
            | "sim.queue_regrowths"
            | "wireless.runs"
            | "wireless.collisions"
            | "campaign.store.appends"
            | "opt.requests"
            | "core.evaluate.calls" => get(name),
            "sim.events_per_s" => ratio(get("sim.events"), get("sim.run_ns") / 1e9),
            "sim.wheel_share" => ratio(get("sim.wheel_runs"), get("wireless.runs")),
            "wireless.new_pct" => pct("wireless.new"),
            "wireless.run_pct" => pct("wireless.run"),
            "wireless.ctrl_per_data" => ratio(get("wireless.ctrl"), get("wireless.data_sent")),
            "wireless.delivery_ratio" => {
                ratio(get("wireless.data_delivered"), get("wireless.data_sent"))
            }
            "campaign.store.open_pct" => pct("campaign.store.open"),
            "campaign.store.append_pct" => pct("campaign.store.append"),
            "campaign.store.bytes_per_record" => {
                ratio(get("campaign.store.bytes"), get("campaign.store.records"))
            }
            "campaign.executor.busy_frac" => ratio(
                get("campaign.executor.busy_ns"),
                get("campaign.executor.capacity_ns"),
            ),
            "campaign.serve.submit_pct" => pct("campaign.serve.submit"),
            "campaign.serve.stream_pct" => pct("campaign.serve.stream"),
            "campaign.serve.aggregate_cold_pct" => pct("campaign.serve.aggregate_cold"),
            "campaign.serve.aggregate_warm_pct" => pct("campaign.serve.aggregate_warm"),
            "campaign.serve.submit_cached_pct" => pct("campaign.serve.submit_cached"),
            "campaign.serve.replay_pct" => pct("campaign.serve.replay"),
            "campaign.serve.executed_ratio" => ratio(
                get("campaign.serve.executed"),
                get("campaign.serve.unique_jobs"),
            ),
            "campaign.serve.aggregate_hit_ratio" => {
                let requests = get("campaign.serve.aggregate_requests");
                ratio(
                    requests - get("campaign.serve.aggregates_computed"),
                    requests,
                )
            }
            "campaign.serve.ttfr_share" => ratio(
                get("campaign.serve.ttfr_ns"),
                get("campaign.serve.last_record_ns"),
            ),
            "opt.cache.hit_ratio" => ratio(get("opt.cache.hits"), get("opt.requests")),
            "opt.cache.open_pct" => pct("opt.cache.open"),
            "opt.cache.self_pct" => pct("opt.cache"),
            "opt.search.self_pct" => pct("opt.search"),
            "core.evaluate.calls_per_s" => ratio(get("core.evaluate.calls"), secs("core.evaluate")),
            "core.evaluate.pct" => pct("core.evaluate"),
            "core.designs_per_s" => ratio(
                get("core.design_replay.designs"),
                get("core.design_replay_ns") / 1e9,
            ),
            "graph.yen_share" => ratio(get("graph.yen_replay_ns") / 1e9, secs("opt.search")),
            "bench.self_pct" => pct("bench.op"),
            "trace.overhead" => overhead,
            "trace.spans" => spans.len() as f64,
            slugged => {
                let slug = slugged
                    .strip_prefix("wireless.")
                    .and_then(|s| s.strip_suffix(".events_per_s"))
                    .unwrap_or_else(|| panic!("per-layer metric {slugged} has no formula"));
                ratio(
                    get(&format!("wireless.{slug}.events")),
                    get(&format!("wireless.{slug}.run_ns")) / 1e9,
                )
            }
        };
        out.push((name, v));
    }
    out
}

/// Self time per span name in seconds, every span included — the
/// absolute numbers behind the shares, for `layers.json`.
pub fn self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    trace::self_time_by_name(spans)
        .into_iter()
        .map(|(k, v)| (k, v as f64 / 1e9))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_is_well_formed_and_used_once() {
        let mut seen = BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                !d.name.is_empty()
                    && d.name.len() <= 64
                    && d.name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
                    && d.name
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_ascii_alphanumeric()),
                "bad metric name {:?}",
                d.name
            );
            assert!(
                d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
            assert!(d.better == "lower" || d.better == "higher");
            assert!(seen.insert(d.name), "{} declared twice", d.name);
        }
        for (_, slug) in STACK_SLUGS {
            assert!(decl(&format!("wireless.{slug}.events_per_s")).is_some());
        }
    }

    #[test]
    fn per_layer_covers_every_declaration_and_shares_skip_replays() {
        let span = |name, id, parent, trace, start_ns, end_ns| Span {
            name,
            id,
            parent,
            trace,
            start_ns,
            end_ns,
            counts: Vec::new(),
        };
        let spans = vec![
            span("bench.op", 1, 0, 1, 0, 100),
            span("opt.search", 2, 1, 1, 0, 100),
            span("core.evaluate", 3, 2, 1, 10, 35),
            span(REPLAY, 4, 0, 4, 200, 300),
            span("wireless.run", 5, 4, 4, 200, 300),
        ];
        let mut c = Counters::new();
        add(&mut c, "core.evaluate.calls", 5.0);
        let m = per_layer(&spans, &c, 1.01);
        assert_eq!(m.len(), PER_LAYER.len());
        let get = |n: &str| m.iter().find(|(k, _)| *k == n).unwrap().1;
        assert_eq!(get("opt.search.self_pct"), 75.0);
        assert_eq!(get("core.evaluate.pct"), 25.0);
        assert_eq!(
            get("wireless.run_pct"),
            0.0,
            "replays stay out of the shares"
        );
        assert_eq!(get("core.evaluate.calls_per_s"), 5.0 / 25e-9);
        assert_eq!(get("trace.overhead"), 1.01);
        assert_eq!(get("trace.spans"), 5.0);
    }
}
