//! `paper_small`: the paper's Figs 8–9 grid on its 50-node small network,
//! run the way `eend-cli campaign --out` runs it.
//!
//! An op is one campaign: the seven stacks of Figs 8–9 at one rate
//! ({2,4,6} Kbit/s in turn) and one seed, 900 simulated seconds each,
//! opened as a fresh `ResultStore` and run through `run_with` on
//! `Executor::with_workers(W)`. Static nodes, the heap queue backend and
//! every routing family (reactive, DSDV with PSM/ATIM, Span) run here;
//! jobs take 30–250 ms, so the campaign layer is a small share.
//!
//! The executor runs jobs out of sight, so a traced round re-runs each of
//! its jobs directly (`Simulator::new` + `run_with_stats`, outside the
//! timed op) to attribute time per stack, and checks each re-run equals
//! the stored record.

use super::{count_run, fnv, Ctx, Op, Round};
use crate::cpu::CpuInstant;
use crate::metrics::{add, Counters, REPLAY, STACK_SLUGS};
use crate::trace::Tracer;
use eend::campaign::{
    BaseScenario, CampaignSpec, Executor, FailurePolicy, Job, JobFailure, JobScheduler, Manifest,
    Record, ResultStore, RunOptions,
};
use eend::sim::mix_seed;
use eend::wireless::{stacks, Simulator};
use std::io;
use std::time::Instant;

/// A run fits 25–35 campaigns; p60 leaves ≥10 beyond.
pub const TAIL_PERCENTILE: f64 = 60.0;

const RATES_KBPS: [f64; 3] = [2.0, 4.0, 6.0];

/// Campaign `k`: rate `k mod 3`, seed drawn from the benchmark seed and
/// `k`. A run fits only about 30 campaigns, and a job's cost depends on
/// its seed; a seed of its own per campaign, rather than one per rate
/// sweep, averages a run over three times as many placements.
pub fn spec(seed: u64, k: usize, secs: u64) -> CampaignSpec {
    let seed_base = mix_seed(&[0x0fa9_e85a, seed, k as u64]) % 1_000_000_007;
    CampaignSpec::new(&format!("paper_small-{k}"), BaseScenario::Small)
        .stacks(
            STACK_SLUGS
                .iter()
                .map(|(name, _)| stacks::by_name(name).expect("a paper stack"))
                .collect(),
        )
        .rates(vec![RATES_KBPS[k % RATES_KBPS.len()]])
        .seeds(1)
        .seed_base(seed_base)
        .secs(secs)
}

/// Times every record append: the store's `on_record` callback.
struct TimedAppends<'a> {
    inner: Executor,
    tracer: &'a Tracer,
}

impl JobScheduler for TimedAppends<'_> {
    fn workers(&self) -> usize {
        self.inner.workers()
    }

    fn default_window(&self) -> usize {
        self.inner.default_window()
    }

    fn run_jobs_streaming(
        &self,
        jobs: &[Job],
        window: usize,
        policy: &FailurePolicy,
        on_record: &mut dyn FnMut(usize, &Record) -> io::Result<()>,
        on_failure: &mut dyn FnMut(&JobFailure) -> io::Result<()>,
    ) -> io::Result<()> {
        let tracer = self.tracer;
        self.inner.run_jobs_streaming(
            jobs,
            window,
            policy,
            &mut |i, record| {
                let _append = tracer.span("campaign.store.append");
                on_record(i, record)
            },
            on_failure,
        )
    }
}

pub fn round(ctx: &Ctx, k: usize, counters: &mut Counters) -> Result<Round, String> {
    let tracer = ctx.tracer;
    let dir = ctx.round_dir("paper_small", k);
    let setup = CpuInstant::now();
    let (jobs, mut store) = {
        let _setup = tracer.span("bench.setup");
        let spec = spec(ctx.seed, k, ctx.load.paper_secs);
        let jobs = spec.expand();
        let _open = tracer.span("campaign.store.open");
        let store = ResultStore::open(&dir, Manifest::for_spec(&spec, 0, 1))
            .map_err(|e| format!("cannot open store {}: {e}", dir.display()))?;
        (jobs, store)
    };
    let setup_s = setup.elapsed_s();

    let scheduler = TimedAppends {
        inner: Executor::with_workers(ctx.workers),
        tracer,
    };
    let opts = RunOptions {
        limit: None,
        policy: store.policy(),
        cancel: None,
    };
    let start = CpuInstant::now();
    let outcome = {
        let _op = tracer.span("bench.op");
        let mut run = tracer.span("campaign.store.run");
        run.count("jobs", jobs.len() as u64);
        store.run_with(&scheduler, &jobs, &opts, |_| {})
    };
    let cpu_s = start.elapsed_s();

    let mut error = match outcome {
        Ok(o) if o.ran == jobs.len() && o.failed == 0 => None,
        Ok(o) => Some(format!(
            "ran {} of {} jobs, {} failed",
            o.ran,
            jobs.len(),
            o.failed
        )),
        Err(e) => Some(format!("campaign failed: {e}")),
    };
    let records = std::fs::read(dir.join("records.jsonl")).unwrap_or_default();
    let lines = records.iter().filter(|&&b| b == b'\n').count();
    if error.is_none() && lines != jobs.len() {
        error = Some(format!(
            "store holds {lines} records for {} jobs",
            jobs.len()
        ));
    }
    let stored = store.load_metrics(Some(&jobs)).unwrap_or_else(|e| {
        error.get_or_insert(format!("store does not reload: {e}"));
        Default::default()
    });
    for (id, m) in &stored {
        if m.data_sent == 0 || !(0.0..=1.0).contains(&m.delivery_ratio()) {
            error.get_or_insert(format!(
                "job {id}: implausible delivery {}/{}",
                m.data_delivered, m.data_sent
            ));
        }
    }

    if tracer.enabled() {
        add(counters, "campaign.store.appends", jobs.len() as f64);
        add(counters, "campaign.store.records", lines as f64);
        add(counters, "campaign.store.bytes", records.len() as f64);
        let _replay = tracer.span(REPLAY);
        for job in &jobs {
            let slug = STACK_SLUGS
                .iter()
                .find(|(n, _)| *n == job.point.stack.name)
                .map(|(_, s)| *s);
            let sim = {
                let _new = tracer.span("wireless.new");
                Simulator::new(&job.scenario)
            };
            let t = Instant::now();
            let (m, q) = {
                let mut run = tracer.span("wireless.run");
                let (m, q) = sim.run_with_stats();
                run.count("events", q.scheduled_total);
                (m, q)
            };
            count_run(counters, slug, &m, &q, t.elapsed().as_nanos() as f64);
            if stored.get(&job.index) != Some(&m) {
                error.get_or_insert(format!(
                    "job {}: a direct re-run differs from the stored record",
                    job.index
                ));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(Round {
        setup_s,
        cpu_s,
        work: jobs.len() as f64,
        ops: vec![Op {
            key: format!("k{k}"),
            cpu_s,
            digest: fnv(&records),
            error,
        }],
    })
}
