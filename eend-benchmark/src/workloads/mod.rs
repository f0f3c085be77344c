//! The four workloads and the loop that measures them.
//!
//! A workload is a sequence of rounds. Round `k` is a pure function of
//! the seed and `k`, so two builds run identical rounds; an untraced run
//! measures rounds until its time is up (at least `min_rounds`), and a
//! faster build simply completes more of them. A traced run does fixed
//! work instead: `trace_pairs` pairs of an untraced and a traced round
//! over the same inputs, alternating which goes first, so its counts
//! repeat exactly and the pair gives the tracing overhead.

pub mod design;
pub mod paper_small;
pub mod scale10k;
pub mod serve;

use crate::metrics::{self, add, Counters};
use crate::stats;
use crate::trace::Tracer;
use eend::wireless::{QueueStats, RunMetrics};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub const NAMES: [&str; 4] = ["paper_small", "scale10k", "design", "serve"];

/// Rounds whose op digests `expected.txt` pins for the default seed.
pub const EXPECTED_ROUNDS: usize = 2;

/// How much work each workload does. [`Load::standard`] is what the
/// benchmark runs; tests pass a tiny load.
#[derive(Debug, Clone)]
pub struct Load {
    /// Untraced runs measure rounds for this long, and at least
    /// `min_rounds` of them (exactly that many when `seconds` is 0).
    pub seconds: f64,
    pub min_rounds: usize,
    pub trace_pairs: usize,
    /// Simulated horizon of each `paper_small` job, seconds.
    pub paper_secs: u64,
    /// `scale10k` field side (side² nodes), horizon, and runs per round.
    pub scale_side: usize,
    pub scale_secs: u64,
    pub scale_runs: usize,
    /// `design`: node counts of the random fields beside grid7, and the
    /// anneal budget.
    pub design_fields: Vec<usize>,
    pub design_budget: u64,
    /// `serve`: cycles per client per round, and each job's horizon.
    pub serve_cycles: usize,
    pub serve_secs: u64,
}

impl Load {
    pub fn standard(seconds: f64) -> Load {
        Load {
            seconds,
            min_rounds: EXPECTED_ROUNDS + 1,
            trace_pairs: 5,
            paper_secs: 900,
            scale_side: 100,
            scale_secs: 5,
            scale_runs: 4,
            design_fields: vec![30, 50, 80],
            design_budget: 2000,
            serve_cycles: 20,
            serve_secs: 20,
        }
    }

    /// The sizes that shape `workload`, for result provenance.
    pub fn describe(&self, workload: &str) -> Vec<(&'static str, String)> {
        let mut out = vec![
            ("seconds", self.seconds.to_string()),
            ("min_rounds", self.min_rounds.to_string()),
            ("trace_pairs", self.trace_pairs.to_string()),
        ];
        match workload {
            "paper_small" => {
                out.push(("jobs_per_op", metrics::STACK_SLUGS.len().to_string()));
                out.push(("sim_secs", self.paper_secs.to_string()));
            }
            "scale10k" => {
                out.push(("nodes", (self.scale_side * self.scale_side).to_string()));
                out.push(("sim_secs", self.scale_secs.to_string()));
                out.push(("runs_per_round", self.scale_runs.to_string()));
            }
            "design" => {
                out.push(("fields", format!("{:?}", self.design_fields)));
                out.push(("budget", self.design_budget.to_string()));
            }
            "serve" => {
                out.push(("cycles_per_client_round", self.serve_cycles.to_string()));
                out.push(("sim_secs", self.serve_secs.to_string()));
            }
            _ => {}
        }
        out
    }
}

/// Everything a round needs.
pub struct Ctx<'a> {
    pub seed: u64,
    pub load: &'a Load,
    /// W: worker threads, client threads and open connections at most.
    pub workers: usize,
    pub tracer: &'a Tracer,
    /// Scratch directory, removed when the workload ends.
    pub work_dir: PathBuf,
}

impl Ctx<'_> {
    /// A directory for round `k` under the work dir, emptied first.
    pub fn round_dir(&self, tag: &str, k: usize) -> PathBuf {
        let dir = self.work_dir.join(format!("{tag}-{k}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

/// One timed operation.
#[derive(Debug, Clone)]
pub struct Op {
    /// Stable name of the op within the workload (`k3.c1.7`, …).
    pub key: String,
    /// Process CPU seconds the op took.
    pub cpu_s: f64,
    /// Digest of the op's output, pinned by `expected.txt`.
    pub digest: u64,
    /// Why the op's output failed a check, if it did.
    pub error: Option<String>,
}

/// One measured round.
#[derive(Debug)]
pub struct Round {
    /// Process CPU seconds of the set-up before the first op.
    pub setup_s: f64,
    /// Process CPU seconds of the round's ops, set-up excluded.
    pub cpu_s: f64,
    /// Units of inner work done (jobs, simulated events, oracle requests).
    pub work: f64,
    pub ops: Vec<Op>,
}

/// What a workload run measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Every end-to-end metric (untraced) or per-layer metric (traced).
    pub metrics: Vec<(&'static str, f64)>,
    /// Op timings behind the percentiles.
    pub op_samples: usize,
    /// Op digests of the first [`EXPECTED_ROUNDS`] rounds.
    pub digests: Vec<(String, u64)>,
    /// Self seconds per span name (traced runs).
    pub self_seconds: BTreeMap<&'static str, f64>,
    pub spans_jsonl: String,
}

impl Outcome {
    /// At least one op ran and every op passed its checks.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

type RoundFn = fn(&Ctx, usize, &mut Counters) -> Result<Round, String>;

fn round_fn(workload: &str) -> Option<(RoundFn, f64)> {
    Some(match workload {
        "paper_small" => (paper_small::round, paper_small::TAIL_PERCENTILE),
        "scale10k" => (scale10k::round, scale10k::TAIL_PERCENTILE),
        "design" => (design::round, design::TAIL_PERCENTILE),
        "serve" => (serve::round, serve::TAIL_PERCENTILE),
        _ => return None,
    })
}

/// Tail percentile `op_cpu_tail_ms` reports for `workload`.
pub fn tail_percentile(workload: &str) -> f64 {
    round_fn(workload).map_or(0.0, |(_, p)| p)
}

/// Peak resident set size of this process (`VmHWM`), megabytes.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Adds one direct simulator run to the `sim.*` and `wireless.*` counts;
/// `slug` names the stack when the run is one of `paper_small`'s.
pub fn count_run(
    c: &mut Counters,
    slug: Option<&str>,
    m: &RunMetrics,
    q: &QueueStats,
    run_ns: f64,
) {
    add(c, "wireless.runs", 1.0);
    add(c, "sim.events", q.scheduled_total as f64);
    add(c, "sim.run_ns", run_ns);
    let peak = c.entry("sim.queue_peak".to_owned()).or_insert(0.0);
    *peak = peak.max(q.peak_len as f64);
    add(
        c,
        "sim.queue_regrowths",
        f64::from(u8::from(q.capacity > q.initial_capacity)),
    );
    add(c, "sim.wheel_runs", f64::from(u8::from(q.is_wheel_backend)));
    let ctrl = m.rreq_tx + m.rrep_tx + m.rerr_tx + m.dsdv_update_tx + m.atim_tx;
    add(c, "wireless.ctrl", ctrl as f64);
    add(c, "wireless.data_sent", m.data_sent as f64);
    add(c, "wireless.data_delivered", m.data_delivered as f64);
    add(
        c,
        "wireless.collisions",
        (m.broadcast_collisions + m.rts_collisions) as f64,
    );
    if let Some(slug) = slug {
        add(
            c,
            &format!("wireless.{slug}.events"),
            q.scheduled_total as f64,
        );
        add(c, &format!("wireless.{slug}.run_ns"), run_ns);
    }
}

/// FNV-1a over bytes: the digest every op output is pinned by.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h = eend::opt::Fnv1a::default();
    h.write(bytes);
    h.finish()
}

/// Runs `workload`. `expected` maps op keys to the digests pinned for
/// this seed (empty when none are). Errors are set-up failures that stop
/// the run; failed checks are counted in the outcome instead.
pub fn run(
    workload: &str,
    ctx: &Ctx,
    traced_run: bool,
    expected: &BTreeMap<String, u64>,
) -> Result<Outcome, String> {
    let (round, tail) =
        round_fn(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    std::fs::create_dir_all(&ctx.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", ctx.work_dir.display()))?;
    let result = if traced_run {
        run_traced(ctx, round)
    } else {
        run_untraced(ctx, round, tail)
    };
    let _ = std::fs::remove_dir_all(&ctx.work_dir);
    let mut out = result?;
    let mut mismatches = 0;
    for (key, digest) in &out.digests {
        if let Some(want) = expected.get(key) {
            if want != digest {
                mismatches += 1;
                note(
                    &mut out.errors,
                    format!("{key}: digest {digest:016x}, expected {want:016x}"),
                );
            }
        }
    }
    out.failed += mismatches;
    Ok(out)
}

fn note(errors: &mut Vec<String>, msg: String) {
    if errors.len() < 8 {
        errors.push(msg);
    }
}

fn tally(rounds: &[(usize, Round)], errors: &mut Vec<String>) -> (u64, u64, Vec<(String, u64)>) {
    let (mut attempted, mut failed, mut digests) = (0, 0, Vec::new());
    for (k, r) in rounds {
        for op in &r.ops {
            attempted += 1;
            if let Some(e) = &op.error {
                failed += 1;
                note(errors, format!("{}: {e}", op.key));
            }
            if *k < EXPECTED_ROUNDS {
                digests.push((op.key.clone(), op.digest));
            }
        }
    }
    (attempted, failed, digests)
}

fn run_untraced(ctx: &Ctx, round: RoundFn, tail: f64) -> Result<Outcome, String> {
    let load = ctx.load;
    let budget = Duration::from_secs_f64(load.seconds);
    let start = Instant::now();
    let mut rounds = Vec::new();
    // The high-water mark after the first `min_rounds` rounds, which every
    // run does: what the workload needs from a fresh start, over more than
    // one round's inputs. Later rounds only add allocator retention, and a
    // faster build would fit more of them.
    let mut peak_rss = 0.0;
    let mut k = 0;
    while k < load.min_rounds || start.elapsed() < budget {
        rounds.push((k, round(ctx, k, &mut Counters::new())?));
        k += 1;
        if k == load.min_rounds {
            peak_rss = peak_rss_mb();
        }
    }
    let mut errors = Vec::new();
    let (attempted, failed, digests) = tally(&rounds, &mut errors);
    let setups: Vec<f64> = rounds.iter().map(|(_, r)| r.setup_s).collect();
    // Rates over the whole run: a slower stretch of the host then weighs
    // by its length, where a median over rounds would jump with it.
    let total = |f: &dyn Fn(&Round) -> f64| -> f64 { rounds.iter().map(|(_, r)| f(r)).sum() };
    let cpu_s = total(&|r| r.cpu_s);
    let op_ms: Vec<f64> = rounds
        .iter()
        .flat_map(|(_, r)| r.ops.iter().map(|o| o.cpu_s * 1e3))
        .collect();
    let values = [
        ("setup_s", stats::median(&setups)),
        ("ops_per_cpu_s", total(&|r| r.ops.len() as f64) / cpu_s),
        ("work_per_cpu_s", total(&|r| r.work) / cpu_s),
        ("op_cpu_p50_ms", stats::percentile(&op_ms, 50.0)),
        ("op_cpu_tail_ms", stats::percentile(&op_ms, tail)),
        ("peak_rss_mb", peak_rss),
    ];
    debug_assert!(values
        .iter()
        .map(|v| v.0)
        .eq(metrics::END_TO_END.iter().map(|d| d.name)));
    Ok(Outcome {
        attempted,
        failed,
        errors,
        metrics: values.to_vec(),
        op_samples: op_ms.len(),
        digests,
        self_seconds: BTreeMap::new(),
        spans_jsonl: String::new(),
    })
}

fn run_traced(ctx: &Ctx, round: RoundFn) -> Result<Outcome, String> {
    let mut counters = Counters::new();
    let mut rounds = Vec::new();
    let mut slowdowns = Vec::new();
    let mut errors = Vec::new();
    let mut mismatched = 0;
    for k in 0..ctx.load.trace_pairs {
        let mut run = |traced: bool| {
            let mut scratch = Counters::new();
            ctx.tracer.set_enabled(traced);
            let r = round(ctx, k, if traced { &mut counters } else { &mut scratch });
            ctx.tracer.set_enabled(false);
            r
        };
        let (plain, traced) = if k % 2 == 0 {
            let plain = run(false)?;
            (plain, run(true)?)
        } else {
            let traced = run(true)?;
            (run(false)?, traced)
        };
        // Op rate untraced over op rate traced, on identical inputs.
        slowdowns.push(
            (plain.ops.len() as f64 / plain.cpu_s) / (traced.ops.len() as f64 / traced.cpu_s),
        );
        for (a, b) in plain.ops.iter().zip(&traced.ops) {
            if a.key != b.key || a.digest != b.digest {
                mismatched += 1;
                note(
                    &mut errors,
                    format!("{}: traced output differs from untraced", b.key),
                );
            }
        }
        if plain.ops.len() != traced.ops.len() {
            mismatched += 1;
            note(
                &mut errors,
                format!("round {k}: traced and untraced op counts differ"),
            );
        }
        rounds.push((k, plain));
        rounds.push((k, traced));
    }
    let (attempted, failed, digests) = tally(&rounds, &mut errors);
    let spans = ctx.tracer.take();
    let overhead = stats::median(&slowdowns);
    Ok(Outcome {
        attempted,
        failed: failed + mismatched,
        errors,
        metrics: metrics::per_layer(&spans, &counters, overhead),
        op_samples: 0,
        digests,
        self_seconds: metrics::self_seconds(&spans),
        spans_jsonl: crate::trace::spans_jsonl(&spans),
    })
}

/// Parses `expected.txt` lines (`workload key digest`) for one workload.
pub fn expected_for(text: &str, workload: &str) -> BTreeMap<String, u64> {
    text.lines()
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            let (w, key, digest) = (it.next()?, it.next()?, it.next()?);
            (w == workload)
                .then(|| Some((key.to_owned(), u64::from_str_radix(digest, 16).ok()?)))?
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Load {
        Load {
            seconds: 0.0,
            min_rounds: 1,
            trace_pairs: 1,
            paper_secs: 30,
            scale_side: 12,
            scale_secs: 3,
            scale_runs: 2,
            design_fields: vec![12],
            design_budget: 40,
            serve_cycles: 2,
            serve_secs: 5,
        }
    }

    fn run_tiny(workload: &str, traced: bool) -> Outcome {
        let load = tiny();
        let tracer = Tracer::new();
        let ctx = Ctx {
            seed: 7,
            load: &load,
            workers: 2,
            tracer: &tracer,
            work_dir: std::env::temp_dir().join(format!(
                "eend-benchmark-test-{workload}-{traced}-{}",
                std::process::id()
            )),
        };
        run(workload, &ctx, traced, &BTreeMap::new()).expect("the workload runs")
    }

    fn check_workload(workload: &str) {
        let plain = run_tiny(workload, false);
        assert_eq!(plain.failed, 0, "{workload}: {:?}", plain.errors);
        assert!(plain.attempted > 0);
        let names: Vec<&str> = plain.metrics.iter().map(|m| m.0).collect();
        let declared: Vec<&str> = metrics::END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(names, declared);
        for (name, v) in &plain.metrics {
            assert!(v.is_finite() && *v > 0.0, "{workload}: {name} = {v}");
        }

        let traced = run_tiny(workload, true);
        assert_eq!(traced.failed, 0, "{workload}: {:?}", traced.errors);
        let names: Vec<&str> = traced.metrics.iter().map(|m| m.0).collect();
        let declared: Vec<&str> = metrics::PER_LAYER.iter().map(|d| d.name).collect();
        assert_eq!(names, declared);
        assert!(traced
            .metrics
            .iter()
            .all(|(_, v)| v.is_finite() && *v >= 0.0));
        assert!(!traced.spans_jsonl.is_empty());
        // The traced run checked its own traced rounds against untraced
        // ones; its outputs must also equal the separate untraced run's.
        let plain_digests: BTreeMap<_, _> = plain.digests.iter().cloned().collect();
        assert!(!traced.digests.is_empty());
        for (key, digest) in &traced.digests {
            assert_eq!(plain_digests.get(key), Some(digest), "{workload}: {key}");
        }
    }

    #[test]
    fn paper_small_runs_clean_and_traced_equals_untraced() {
        check_workload("paper_small");
    }

    #[test]
    fn scale10k_runs_clean_and_traced_equals_untraced() {
        check_workload("scale10k");
    }

    #[test]
    fn design_runs_clean_and_traced_equals_untraced() {
        check_workload("design");
    }

    #[test]
    fn serve_runs_clean_and_traced_equals_untraced() {
        check_workload("serve");
    }

    #[test]
    fn pinned_digests_are_read_per_workload() {
        let text = "paper_small k0 00000000000000ff\nserve k0.c0.0 0000000000000001\nbad line\n";
        let pinned = expected_for(text, "paper_small");
        assert_eq!(pinned.len(), 1);
        assert_eq!(pinned.get("k0"), Some(&0xff));
        assert!(expected_for(text, "design").is_empty());
    }

    #[test]
    fn a_digest_mismatch_counts_as_a_failed_op() {
        let load = tiny();
        let tracer = Tracer::new();
        let ctx = Ctx {
            seed: 7,
            load: &load,
            workers: 1,
            tracer: &tracer,
            work_dir: std::env::temp_dir()
                .join(format!("eend-benchmark-test-pin-{}", std::process::id())),
        };
        let wrong: BTreeMap<String, u64> = [("k0.grid7".to_owned(), 1)].into();
        let o = run("design", &ctx, false, &wrong).unwrap();
        assert_eq!(o.failed, 1, "{:?}", o.errors);
    }
}
