//! `eend-cli` — run one simulation scenario, or a whole campaign, from
//! the command line.
//!
//! Single-run mode (the default; a shortened paper §5.2.1 run):
//!
//! ```text
//! eend-cli [--stack TITAN-PC] [--nodes 50] [--area 500] [--flows 10]
//!          [--rate 4.0] [--secs 120] [--seed 1] [--card cabletron]
//!          [--speed 0.0] [--traffic cbr|poisson|onoff(5,5)]
//!          [--radio-profile uniform|mixed-hypo|sparse-hypo]
//!          [--csv] [--list-stacks]
//! ```
//!
//! Campaign mode — a declarative scenario-matrix sweep (stacks × rates ×
//! node counts × speeds × traffic models × radio profiles × failure
//! plans × seeds) on the bounded parallel executor:
//!
//! ```text
//! eend-cli campaign [--preset small|large|density|grid]
//!                   [--stacks NAME,NAME,...] [--rates 2,4,6]
//!                   [--node-counts 300,400] [--speeds 0,5]
//!                   [--traffic cbr,poisson,onoff(5,5)]
//!                   [--radio-profile uniform,mixed-hypo]
//!                   [--failures none,3@60,3@60+7@120]
//!                   [--seeds N] [--seed-base N] [--secs S | --full-secs]
//!                   [--workers N] [--csv | --json] [--verify-serial]
//!                   [--out DIR] [--shard I/N] [--limit N]
//!                   [--on-failure abort|skip|retry=N]
//! ```
//!
//! `--traffic` sweeps the packet-arrival process at a fixed offered
//! rate (CBR, Poisson, exponential on/off bursts); `--radio-profile`
//! sweeps named per-node card mixes; `--failures` sweeps node-kill
//! plans (`3@60` kills node 3 at 60 s; `+` joins kills into one plan).
//! All three round-trip through the resumable store's `manifest.json`,
//! so mixed-axis campaigns resume, shard and merge like plain ones.
//!
//! The campaign defaults sweep 4 stacks × 3 rates × 4 seeds (48 jobs) of
//! shortened small networks. `--csv`/`--json` emit one structured record
//! per run on stdout (`--csv` *streams* rows as jobs finish); otherwise
//! aggregated per-cell figures (mean ± 95 % CI) are printed.
//! `--verify-serial` reruns the whole grid on one worker and asserts the
//! records are byte-identical — the executor's determinism contract.
//!
//! `--out DIR` makes the campaign **resumable**: records stream into an
//! on-disk store (JSONL keyed by job id plus a fingerprinted manifest),
//! completed jobs are skipped on re-runs, and a killed run loses at most
//! one partial line. `--shard I/N` runs only every Nth job (0-based
//! shard I) into DIR — run each shard on its own machine, then
//! reassemble:
//!
//! ```text
//! eend-cli campaign merge DIR1 DIR2 ... [--csv | --json]
//! ```
//!
//! `--limit N` stops after N pending jobs (handy for testing resume).
//!
//! `--on-failure` (with `--out`) contains job failures instead of
//! aborting the campaign: `skip` records each failed job durably in the
//! store's `failures.jsonl` and keeps going; `retry=N` re-attempts a
//! failing job up to N times with deterministic exponential backoff
//! before recording it. The policy persists in `manifest.json`, so a
//! resumed store re-attempts exactly the recorded failures under the
//! same policy.
//!
//! Bench mode — the end-to-end measurement behind the `BENCH_*.json`
//! perf records and the 50→100k scale report. Runs the
//! [`eend::wireless::presets::mobility_bench`] presets (50/100/200-node
//! random-waypoint networks) on the campaign executor and reports
//! runs/sec, events/sec and peak RSS:
//!
//! ```text
//! eend-cli bench [--runs N] [--workers W] [--nodes 50,100,200] [--json]
//!                [--scale 1k,10k,100k] [--json-out FILE]
//! ```
//!
//! `--json-out FILE` writes the same JSON record to FILE atomically
//! (temp sibling + rename) so a crash mid-write never leaves a torn
//! perf record.
//!
//! Loadgen mode — multi-tenant load generation against an in-process
//! `eend-serve` daemon (the measurement behind `BENCH_pr9.json` and the
//! `loadgen-smoke` CI job). Submits N campaigns concurrently over real
//! TCP with M `/stream` subscribers each, and reports submits/s,
//! campaigns-completed/s, time-to-first-record, and p50/p99 subscriber
//! fan-out latency:
//!
//! ```text
//! eend-cli loadgen [--campaigns N] [--subscribers M] [--seeds K]
//!                  [--secs S] [--workers W] [--serial]
//!                  [--curve 1,2,4,8] [--json] [--json-out FILE]
//! ```
//!
//! `--serial` submits the same campaigns one at a time, waiting for
//! each to finish — the PR 7 single-runner baseline. `--curve` runs a
//! serial + concurrent pair per listed concurrency level and emits the
//! scaling record. SIGTERM/ctrl-c mid-run drains the daemon cleanly
//! (in-flight records land durably) and exits 0.
//!
//! Design mode — the design↔simulate loop: deterministic metaheuristic
//! search over designs for a named case-study instance, scored through a
//! cached evaluation oracle:
//!
//! ```text
//! eend-cli design [--instance grid7|random30|random50]
//!                 [--heuristic all|mtpr|mtpr+|joint|idlefirst|mpc|lifetime]
//!                 [--search multistart|anneal] [--seed N] [--budget K]
//!                 [--objective energy|goodput|lifetime] [--oracle fluid|sim]
//!                 [--secs S] [--sim-seeds N] [--out DIR] [--check-improves]
//!                 [--list-instances]
//! ```
//!
//! The JSONL search trace (one line per oracle evaluation) streams to
//! stdout; the summary (per-heuristic baselines, winner, cache counters,
//! scored/accepted candidates per move kind, cache hit ratio, oracle
//! requests per second) goes to stderr. `--out DIR` additionally
//! persists `trace.jsonl` and `winner.json` (both written atomically)
//! and memoizes every score in `DIR/cache/` keyed by design fingerprint
//! — an identical re-run answers entirely from the cache, executing
//! **zero** evaluations, and replays the byte-identical trace. `--heuristic NAME` skips the search and
//! scores that single constructive design (a baseline probe).
//! `--check-improves` exits non-zero if the search winner is worse than
//! the best single-shot heuristic — the loop-closing guarantee CI holds.

use eend::campaign::json::parse_json;
use eend::campaign::serve::{serve, ServeConfig};
use eend::campaign::store::Manifest;
use eend::campaign::{
    merge_stores, merge_stores_streaming, write_atomic, BaseScenario, CampaignResult, CampaignSpec,
    CsvSink, Executor, FailurePlan, FailurePolicy, MetricColumn, ResultStore, RunOptions, Summary,
};
use eend::cli::{die, signals, Args, Usage};
use eend::radio::cards;
use eend::sim::SimDuration;
use eend::stats::render_figure;
use eend::wireless::radio_profiles::{self, RadioProfile};
use eend::wireless::{
    presets, stacks, FlowSpec, Mobility, Placement, Scenario, Simulator, TrafficModel,
};

struct Opts {
    stack: String,
    nodes: usize,
    area: f64,
    flows: usize,
    rate_kbps: f64,
    secs: u64,
    seed: u64,
    card: String,
    speed: f64,
    traffic: TrafficModel,
    radio_profile: Option<String>,
    csv: bool,
}

const RUN_USAGE: Usage = Usage::cli(
    "unknown argument",
    "usage: eend-cli [--stack NAME] [--nodes N] [--area METRES] [--flows N]\n\
     \u{20}               [--rate KBPS] [--secs S] [--seed N] [--card NAME]\n\
     \u{20}               [--speed MPS] [--traffic MODEL] [--radio-profile NAME]\n\
     \u{20}               [--csv] [--list-stacks]\n\
     cards: aironet350 | cabletron | hypothetical | mica2 | leach2 | leach4\n\
     traffic models: cbr | poisson | onoff | onoff(ON_S,OFF_S)\n\
     radio profiles: uniform | mixed-hypo | sparse-hypo",
);

fn traffic_model(raw: &str) -> Result<TrafficModel, String> {
    TrafficModel::parse(raw).ok_or_else(|| format!("unknown traffic model {raw:?}"))
}

fn parse(args: impl Iterator<Item = String>) -> Opts {
    let mut o = Opts {
        stack: "TITAN-PC".into(),
        nodes: 50,
        area: 500.0,
        flows: 10,
        rate_kbps: 4.0,
        secs: 120,
        seed: 1,
        card: "cabletron".into(),
        speed: 0.0,
        traffic: TrafficModel::Cbr,
        radio_profile: None,
        csv: false,
    };
    let mut args = Args::new(args, &RUN_USAGE);
    while let Some(a) = args.next_flag() {
        match a.as_str() {
            "--stack" => o.stack = args.value(&a),
            "--nodes" => o.nodes = args.number(&a),
            "--area" => o.area = args.number(&a),
            "--flows" => o.flows = args.number(&a),
            "--rate" => o.rate_kbps = args.number(&a),
            "--secs" => o.secs = args.number(&a),
            "--seed" => o.seed = args.number(&a),
            "--card" => o.card = args.value(&a),
            "--speed" => o.speed = args.number(&a),
            "--traffic" => o.traffic = args.value_of(&a, traffic_model),
            "--radio-profile" => o.radio_profile = Some(args.value(&a)),
            "--csv" => o.csv = true,
            "--list-stacks" => {
                for s in stacks::all() {
                    println!("{}", s.name);
                }
                std::process::exit(0)
            }
            other => args.unknown(other),
        }
    }
    o
}

/// Options of the `campaign` subcommand. `rates` stays `None` until the
/// user passes `--rates`, so the default can adapt to the other axes
/// (a density or speed sweep must not silently multiply the grid by
/// rates the scenario builder never reads).
struct CampaignOpts {
    preset: BaseScenario,
    stacks: Vec<String>,
    rates: Option<Vec<f64>>,
    node_counts: Vec<usize>,
    speeds: Vec<f64>,
    traffic: Vec<TrafficModel>,
    radio_profiles: Vec<RadioProfile>,
    failures: Vec<FailurePlan>,
    seeds: u64,
    seed_base: u64,
    secs: Option<u64>,
    workers: Option<usize>,
    csv: bool,
    json: bool,
    verify_serial: bool,
    out: Option<String>,
    shard: (usize, usize),
    limit: Option<usize>,
    on_failure: Option<FailurePolicy>,
}

const CAMPAIGN_USAGE: Usage = Usage::cli(
    "unknown campaign argument",
    "usage: eend-cli campaign [--preset small|large|density|grid]\n\
     \u{20}                        [--stacks NAME,NAME,...] [--rates 2,4,6]\n\
     \u{20}                        [--node-counts 300,400] [--speeds 0,5]\n\
     \u{20}                        [--traffic cbr,poisson,onoff(5,5)]\n\
     \u{20}                        [--radio-profile uniform,mixed-hypo,sparse-hypo]\n\
     \u{20}                        [--failures none,NODE@SECS[+NODE@SECS...],...]\n\
     \u{20}                        [--seeds N] [--seed-base N] [--secs S | --full-secs]\n\
     \u{20}                        [--workers N] [--csv | --json] [--verify-serial]\n\
     \u{20}                        [--out DIR] [--shard I/N] [--limit N]\n\
     \u{20}                        [--on-failure abort|skip|retry=N]\n\
     \u{20}      eend-cli campaign merge DIR1 DIR2 ... [--csv | --json]\n\
     defaults: small preset, TITAN-PC/DSR-ODPM-PC/DSR-ODPM/DSR-Active,\n\
     rates 2,4,6 Kbit/s, 4 seeds, 60 s — a 48-job grid.\n\
     --traffic sweeps the arrival process (same offered rate per model);\n\
     --radio-profile sweeps per-node card mixes; --failures sweeps kill\n\
     \u{20} plans, e.g. --failures none,3@60,3@60+7@120 (node 3 dies at 60 s).\n\
     --full-secs drops the duration cap (the presets' paper-scale 600/900 s).\n\
     --out DIR streams records into a resumable on-disk store; re-running\n\
     \u{20} the same campaign skips completed jobs. --shard I/N runs only\n\
     \u{20} shard I of N (merge the shard stores afterwards); --limit N stops\n\
     \u{20} after N pending jobs. --on-failure (with --out) contains job\n\
     \u{20} failures: skip records them in failures.jsonl and keeps going,\n\
     \u{20} retry=N re-attempts with exponential backoff first; the store\n\
     \u{20} remembers the policy, and resuming re-attempts recorded failures.",
);

/// Parses one `--failures` element: `none`, or `+`-joined `NODE@SECS`
/// kill events (the element's literal spelling becomes the plan label).
fn failure_plan(spec: &str) -> Result<FailurePlan, String> {
    let bad = || format!("bad failure plan {spec:?} (want none or NODE@SECS[+NODE@SECS...])");
    if spec.eq_ignore_ascii_case("none") {
        return Ok(FailurePlan::none());
    }
    let kill = |kill: &str| -> Option<(f64, usize)> {
        let (node, at_s) = kill.split_once('@')?;
        let at_s: f64 = at_s.trim().parse().ok()?;
        (at_s.is_finite() && at_s >= 0.0).then_some((at_s, node.trim().parse().ok()?))
    };
    let kills = spec.split('+').map(kill).collect::<Option<Vec<_>>>().ok_or_else(bad)?;
    Ok(FailurePlan { label: spec.to_owned(), kills })
}

fn parse_campaign(args: impl Iterator<Item = String>) -> CampaignOpts {
    let mut o = CampaignOpts {
        preset: BaseScenario::Small,
        stacks: vec![
            "TITAN-PC".into(),
            "DSR-ODPM-PC".into(),
            "DSR-ODPM".into(),
            "DSR-Active".into(),
        ],
        rates: None,
        node_counts: Vec::new(),
        speeds: Vec::new(),
        traffic: Vec::new(),
        radio_profiles: Vec::new(),
        failures: Vec::new(),
        seeds: 4,
        seed_base: 0,
        secs: Some(60),
        workers: None,
        csv: false,
        json: false,
        verify_serial: false,
        out: None,
        shard: (0, 1),
        limit: None,
        on_failure: None,
    };
    let mut args = Args::new(args, &CAMPAIGN_USAGE);
    while let Some(a) = args.next_flag() {
        match a.as_str() {
            "--preset" => {
                o.preset = args.value_of(&a, |raw| {
                    BaseScenario::parse(raw).ok_or_else(|| format!("unknown preset {raw:?}"))
                })
            }
            "--stacks" => o.stacks = args.list_of(&a, |s| Ok(s.to_owned())),
            "--rates" => o.rates = Some(args.list(&a)),
            "--node-counts" => o.node_counts = args.list(&a),
            "--speeds" => o.speeds = args.list(&a),
            "--traffic" => o.traffic = args.list_of(&a, traffic_model),
            "--radio-profile" => {
                o.radio_profiles = args.list_of(&a, |name| {
                    radio_profiles::by_name(name)
                        .ok_or_else(|| format!("unknown radio profile {name:?}"))
                })
            }
            "--failures" => o.failures = args.list_of(&a, failure_plan),
            "--seeds" => o.seeds = args.number(&a),
            "--seed-base" => o.seed_base = args.number(&a),
            "--secs" => o.secs = Some(args.number(&a)),
            "--full-secs" => o.secs = None,
            "--workers" => o.workers = Some(args.number(&a)),
            "--csv" => o.csv = true,
            "--json" => o.json = true,
            "--verify-serial" => o.verify_serial = true,
            "--out" => o.out = Some(args.value(&a)),
            "--shard" => {
                o.shard = args.value_of(&a, |raw| {
                    raw.split_once('/')
                        .and_then(|(i, n)| Some((i.trim().parse().ok()?, n.trim().parse().ok()?)))
                        .filter(|&(i, n)| n > 0 && i < n)
                        .ok_or_else(|| format!("--shard wants I/N with I < N, got {raw:?}"))
                })
            }
            "--limit" => o.limit = Some(args.number(&a)),
            "--on-failure" => {
                o.on_failure = Some(args.value_of(&a, |raw| {
                    FailurePolicy::parse(raw).ok_or_else(|| {
                        format!("bad --on-failure {raw:?} (want abort, skip, or retry=N)")
                    })
                }))
            }
            other => args.unknown(other),
        }
    }
    if o.stacks.is_empty() || o.seeds == 0 {
        CAMPAIGN_USAGE.fail("campaign needs at least one stack and one seed")
    }
    if (o.shard != (0, 1) || o.limit.is_some()) && o.out.is_none() {
        CAMPAIGN_USAGE.fail("--shard and --limit need an on-disk store (--out DIR)")
    }
    if o.on_failure.is_some() && o.out.is_none() {
        CAMPAIGN_USAGE.fail("--on-failure needs an on-disk store (--out DIR) to record failures")
    }
    if o.out.is_some() && o.verify_serial {
        CAMPAIGN_USAGE.fail("--verify-serial applies to in-memory runs (drop --out)")
    }
    // Reject axes the chosen preset never reads: they would multiply the
    // grid with byte-identical duplicate runs and shrink the reported
    // CIs by sqrt(duplicates).
    if o.preset == BaseScenario::Density && o.rates.is_some() {
        CAMPAIGN_USAGE.fail("--rates does not apply to --preset density (it is fixed at 4 Kbit/s)")
    }
    if o.preset != BaseScenario::Density && !o.node_counts.is_empty() {
        CAMPAIGN_USAGE.fail("--node-counts only applies to --preset density")
    }
    if o.csv && o.json {
        CAMPAIGN_USAGE.fail("pick one of --csv and --json")
    }
    o
}

fn run_campaign(o: CampaignOpts) {
    let stack_list: Vec<_> = o
        .stacks
        .iter()
        .map(|name| {
            stacks::by_name(name).unwrap_or_else(|| {
                CAMPAIGN_USAGE
                    .fail(format_args!("unknown stack {name:?} (try eend-cli --list-stacks)"))
            })
        })
        .collect();
    // Default rate axis: the usual 2/4/6 Kbit/s sweep — unless another
    // axis is the sweep (density or speeds), where a rate sweep would
    // either duplicate runs or smear the aggregation; there a single
    // 4 Kbit/s (the paper's mid rate) is the default.
    let rates = match &o.rates {
        Some(r) => r.clone(),
        None if o.preset == BaseScenario::Density => Vec::new(),
        None if o.speeds.len() > 1 => vec![4.0],
        None => vec![2.0, 4.0, 6.0],
    };
    let mut spec = CampaignSpec::new("cli", o.preset)
        .stacks(stack_list)
        .rates(rates)
        .node_counts(o.node_counts.clone())
        .speeds(o.speeds.clone())
        .traffic(o.traffic.clone())
        .radio_profiles(o.radio_profiles.clone())
        .failures(o.failures.clone())
        .seeds(o.seeds)
        .seed_base(o.seed_base);
    if let Some(secs) = o.secs {
        spec = spec.secs(secs);
    }
    // A kill of a node the network lacks would panic in every job.
    if let Some(e) = spec.expand().iter().find_map(|j| j.check_failures().err()) {
        CAMPAIGN_USAGE.fail(e)
    }

    let executor = o.workers.map(Executor::with_workers).unwrap_or_else(Executor::bounded);
    eprintln!(
        "campaign: {} jobs ({} stacks) on {} workers",
        spec.job_count(),
        spec.stacks.len(),
        executor.workers()
    );
    if let Some(dir) = o.out.clone() {
        return run_campaign_store(&o, &spec, &executor, &dir);
    }
    let start = std::time::Instant::now();
    if o.csv && !o.verify_serial {
        // Stream rows to stdout as jobs complete (in job order): peak
        // memory is the executor's reorder window, not the grid.
        let jobs = spec.expand();
        let stdout = std::io::stdout();
        let mut sink = CsvSink::new(&spec.name, stdout.lock());
        executor.run_streaming(&jobs, &mut sink).unwrap_or_else(|e| die(e));
        eprintln!("campaign: {} records in {:.2?} (streamed)", jobs.len(), start.elapsed());
        return;
    }
    let result = executor.run(&spec);
    eprintln!("campaign: {} records in {:.2?}", result.records.len(), start.elapsed());

    if o.verify_serial {
        let serial = Executor::with_workers(1).run(&spec);
        assert_eq!(result, serial, "parallel and serial campaign records differ — determinism bug");
        assert_eq!(format!("{result:?}"), format!("{serial:?}"));
        eprintln!(
            "campaign: serial re-run on 1 worker is byte-identical ({} records)",
            serial.records.len()
        );
    }

    emit_result(&result, o.csv, o.json, &spec);
}

/// Resumable store path: stream missing jobs into `dir`, then (when the
/// whole campaign is durable and unsharded) emit like an in-memory run.
fn run_campaign_store(o: &CampaignOpts, spec: &CampaignSpec, executor: &Executor, dir: &str) {
    let (si, sc) = o.shard;
    let shard_jobs = if sc > 1 { spec.shard(si, sc) } else { spec.expand() };
    let mut manifest = Manifest::for_spec(spec, si, sc);
    // An explicit --on-failure is persisted into the manifest; without
    // the flag the store keeps whatever policy it already recorded.
    manifest.on_failure = o.on_failure.as_ref().map(|p| p.label());
    let mut store = ResultStore::open(dir, manifest).unwrap_or_else(|e| die(e));
    let done = shard_jobs.len() - store.pending(&shard_jobs).len();
    eprintln!(
        "campaign: store {dir}: shard {si}/{sc} owns {} job(s), {done} already durable",
        shard_jobs.len()
    );
    let start = std::time::Instant::now();
    let opts = RunOptions { limit: o.limit, policy: store.policy(), cancel: None };
    let outcome = store.run_with(executor, &shard_jobs, &opts, |_| {}).unwrap_or_else(|e| die(e));
    eprintln!("campaign: ran {} job(s) in {:.2?}", outcome.ran, start.elapsed());
    if outcome.failed > 0 {
        eprintln!(
            "campaign: {} job(s) failed — recorded in {dir}/failures.jsonl, \
             re-run the same command to re-attempt them",
            outcome.failed
        );
    }
    let pending = store.pending(&shard_jobs).len();
    if pending > 0 {
        eprintln!("campaign: {pending} job(s) still pending — re-run the same command to resume");
        return;
    }
    if sc > 1 {
        eprintln!(
            "campaign: shard {si}/{sc} complete — reassemble with:\n  \
             eend-cli campaign merge <all {sc} shard dirs> [--csv|--json]"
        );
        return;
    }
    let result = store.assemble(&spec.expand()).unwrap_or_else(|e| die(e));
    emit_result(&result, o.csv, o.json, spec);
}

/// Prints a finished campaign: raw CSV, raw JSON, or the aggregated
/// per-cell figures, laid out by the campaign [`Summary`] rule.
fn emit_result(result: &CampaignResult, csv: bool, json: bool, spec: &CampaignSpec) {
    if csv {
        print!("{}", result.to_csv());
        return;
    }
    if json {
        println!("{}", result.to_json());
        return;
    }
    let summary = Summary::new(spec, result.records.iter().map(|r| &r.point));
    let figures: [MetricColumn; 3] = [
        ("delivery ratio", |m| m.delivery_ratio()),
        ("energy goodput bit/J", |m| m.energy_goodput_bit_per_j()),
        ("Enetwork J", |m| m.enetwork_j()),
    ];
    for cell in 0..summary.cells() {
        let subset = CampaignResult {
            campaign: result.campaign.clone(),
            records: result
                .records
                .iter()
                .filter(|r| summary.cell_of(&r.point) == cell)
                .cloned()
                .collect(),
        };
        let suffix: String =
            summary.key(cell).iter().map(|(axis, v)| format!(", {} = {v}", axis.title())).collect();
        for (name, metric) in figures {
            let series = subset.series(|p| summary.x(p), metric);
            let title = format!("{name} (x = {}{suffix})", summary.x_axis().title());
            println!("{}", render_figure(&title, &series));
        }
    }
}

/// Options of the `campaign merge` subcommand.
struct MergeOpts {
    dirs: Vec<String>,
    csv: bool,
    json: bool,
}

const MERGE_USAGE: Usage = Usage::cli(
    "unknown merge argument",
    "usage: eend-cli campaign merge DIR1 DIR2 ... [--csv | --json]",
);

fn parse_merge(args: impl Iterator<Item = String>) -> MergeOpts {
    let mut o = MergeOpts { dirs: Vec::new(), csv: false, json: false };
    let mut args = Args::new(args, &MERGE_USAGE);
    while let Some(a) = args.next_flag() {
        match a.as_str() {
            "--csv" => o.csv = true,
            "--json" => o.json = true,
            flag if flag.starts_with("--") => args.unknown(flag),
            _ => o.dirs.push(a),
        }
    }
    if o.dirs.is_empty() {
        MERGE_USAGE.fail("merge needs at least one store directory")
    }
    if o.csv && o.json {
        MERGE_USAGE.fail("pick one of --csv and --json")
    }
    o
}

/// Reassembles shard stores into one campaign result. The campaign's
/// spec is rebuilt from the first manifest's recorded axes, so the grid
/// does not have to be re-stated; fingerprints guard against mixing
/// stores of different campaigns.
fn run_merge(o: MergeOpts) {
    let stores: Vec<ResultStore> =
        o.dirs.iter().map(|d| ResultStore::open_existing(d).unwrap_or_else(|e| die(e))).collect();
    let first = stores[0].manifest().clone();
    let Some(axes) = first.axes.clone() else {
        MERGE_USAGE.fail(format_args!(
            "store {} records no spec axes (not CLI-launched); \
             merge it through the library API instead",
            o.dirs[0]
        ))
    };
    let spec = axes.to_spec(&first.campaign).unwrap_or_else(|e| die(e));
    let jobs = spec.expand();
    let refs: Vec<&ResultStore> = stores.iter().collect();
    if o.csv {
        // CSV needs no cross-record aggregation, so drive the shard
        // records straight to stdout: one in-flight record per store,
        // never the whole grid in memory.
        let stdout = std::io::stdout();
        let mut sink = CsvSink::new(&first.campaign, stdout.lock());
        merge_stores_streaming(&refs, &jobs, &mut sink).unwrap_or_else(|e| die(e));
        eprintln!("merge: {} record(s) streamed from {} store(s)", jobs.len(), stores.len());
        return;
    }
    let result = merge_stores(&refs, &jobs).unwrap_or_else(|e| die(e));
    eprintln!(
        "merge: {} record(s) reassembled from {} store(s)",
        result.records.len(),
        stores.len()
    );
    emit_result(&result, o.csv, o.json, &spec);
}

/// Options of the `bench` subcommand.
struct BenchOpts {
    runs: u64,
    workers: Option<usize>,
    nodes: Vec<usize>,
    scale: Vec<usize>,
    json: bool,
    json_out: Option<String>,
}

const BENCH_USAGE: Usage = Usage::cli(
    "unknown bench argument",
    "usage: eend-cli bench [--runs N] [--workers W] [--nodes 50,100,200]\n\
     \u{20}                     [--scale 1k,10k,100k] [--json] [--json-out FILE]\n\
     \u{20}  --json-out writes the --json record to FILE atomically (temp file\n\
     \u{20}  + rename), so a killed bench never leaves a torn record behind\n\
     \u{20}  --scale runs the mobility_scale grid presets (1k/10k/100k, or a\n\
     \u{20}  bare grid side length); passing it alone skips the default --nodes set",
);

/// Reads a `--scale` list entry as a grid side length: the named sizes
/// `1k`/`10k`/`100k`, or a bare side (e.g. `64` for a 64×64 grid).
fn scale_side(tok: &str) -> Result<usize, String> {
    match tok {
        "1k" => Ok(32),
        "10k" => Ok(100),
        "100k" => Ok(316),
        other => other
            .parse()
            .map_err(|_| format!("--scale entry {other:?} is not 1k/10k/100k or a grid side")),
    }
}

/// The preset name `mobility_scale(side)` runs under — the named family
/// members for the three blessed sides, a generic name otherwise.
fn scale_preset_name(side: usize) -> String {
    match side {
        32 => "mobility1k".to_owned(),
        100 => "mobility10k".to_owned(),
        316 => "mobility100k".to_owned(),
        other => format!("mobility_grid{other}"),
    }
}

fn parse_bench(args: impl Iterator<Item = String>) -> BenchOpts {
    let mut o = BenchOpts {
        runs: 3,
        workers: None,
        nodes: Vec::new(),
        scale: Vec::new(),
        json: false,
        json_out: None,
    };
    let mut nodes_given = false;
    let mut args = Args::new(args, &BENCH_USAGE);
    while let Some(a) = args.next_flag() {
        match a.as_str() {
            "--runs" => o.runs = args.number(&a),
            "--workers" => o.workers = Some(args.number(&a)),
            "--nodes" => {
                o.nodes = args.list(&a);
                nodes_given = true;
            }
            "--scale" => o.scale = args.list_of(&a, scale_side),
            "--json" => o.json = true,
            "--json-out" => o.json_out = Some(args.value(&a)),
            other => args.unknown(other),
        }
    }
    // The default preset set applies only when neither axis was chosen:
    // `--scale` alone should not drag the 50/100/200 sweep along.
    if !nodes_given && o.scale.is_empty() {
        o.nodes = vec![50, 100, 200];
    }
    if o.runs == 0 || (o.nodes.is_empty() && o.scale.is_empty()) {
        BENCH_USAGE.exit()
    }
    o
}

/// Peak resident set size of this process in kB (`VmHWM`), 0 when the
/// platform does not expose it.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|v| v.parse().ok()))
        })
        .unwrap_or(0)
}

struct PresetResult {
    name: String,
    nodes: usize,
    runs: u64,
    wall_s: f64,
    runs_per_sec: f64,
    events_per_sec: f64,
    events_total: u64,
    delivery_mean: f64,
    /// `VmHWM` sampled at this preset's boundary, i.e. the process-wide
    /// high-water mark *after* this preset ran. The first preset whose
    /// value jumps is the one that set the peak; a single end-of-process
    /// reading cannot attribute it.
    peak_rss_kb: u64,
}

fn run_bench(o: BenchOpts) {
    let executor = o.workers.map(Executor::with_workers).unwrap_or_else(Executor::bounded);
    // (name, node count, per-seed scenario constructor) for both preset
    // families: the mobility_bench density sweep and the fixed-traffic
    // mobility_scale grids.
    type Ctor = Box<dyn Fn(u64) -> eend::wireless::Scenario>;
    let mut specs: Vec<(String, usize, Ctor)> = Vec::new();
    for &n in &o.nodes {
        specs.push((
            format!("mobility{n}"),
            n,
            Box::new(move |seed| presets::mobility_bench(stacks::titan_pc(), n, seed)),
        ));
    }
    for &side in &o.scale {
        specs.push((
            scale_preset_name(side),
            side * side,
            Box::new(move |seed| presets::mobility_scale(stacks::titan_pc(), side, seed)),
        ));
    }
    eprintln!(
        "bench: {} preset(s) x {} run(s) on {} worker(s)",
        specs.len(),
        o.runs,
        executor.workers()
    );
    let mut results = Vec::new();
    for (name, nodes, ctor) in specs {
        // One deterministic scenario per seed; the executor is the same
        // bounded pool campaigns run on, so `--workers` measures the
        // parallel path end to end.
        let scenarios: Vec<_> = (1..=o.runs).map(&ctor).collect();
        let start = std::time::Instant::now();
        let outcomes =
            executor.par_map(scenarios.len(), |i| Simulator::new(&scenarios[i]).run_with_stats());
        let wall_s = start.elapsed().as_secs_f64();
        let events_total: u64 = outcomes.iter().map(|(_, q)| q.scheduled_total).sum();
        let delivery_mean =
            outcomes.iter().map(|(m, _)| m.delivery_ratio()).sum::<f64>() / outcomes.len() as f64;
        results.push(PresetResult {
            name,
            nodes,
            runs: o.runs,
            wall_s,
            runs_per_sec: o.runs as f64 / wall_s,
            events_per_sec: events_total as f64 / wall_s,
            events_total,
            delivery_mean,
            peak_rss_kb: peak_rss_kb(),
        });
    }

    if o.json || o.json_out.is_some() {
        let record = render_bench_json(&o, &executor, &results);
        if o.json {
            print!("{record}");
        }
        if let Some(path) = &o.json_out {
            write_atomic(std::path::Path::new(path), record.as_bytes()).unwrap_or_else(|e| die(e));
            eprintln!("bench: wrote {path}");
        }
    }
    if !o.json {
        for r in &results {
            println!(
                "{:12} {:>7.2} runs/s  {:>12.0} events/s  ({} runs in {:.3} s, delivery {:.3}, \
                 rss {} kB)",
                r.name,
                r.runs_per_sec,
                r.events_per_sec,
                r.runs,
                r.wall_s,
                r.delivery_mean,
                r.peak_rss_kb
            );
        }
        println!("peak RSS: {} kB", peak_rss_kb());
    }
}

/// Renders the `eend-bench/1` JSON record — one string, so stdout
/// (`--json`) and the atomic file write (`--json-out`) share bytes.
fn render_bench_json(o: &BenchOpts, executor: &Executor, results: &[PresetResult]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"eend-bench/1\",");
    let _ = writeln!(out, "  \"workers\": {},", executor.workers());
    let _ = writeln!(out, "  \"runs_per_preset\": {},", o.runs);
    let _ = writeln!(out, "  \"peak_rss_kb\": {},", peak_rss_kb());
    let _ = writeln!(out, "  \"presets\": [");
    for (i, r) in results.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"nodes\": {}, \"runs\": {}, \"wall_s\": {:.4}, \
             \"runs_per_sec\": {:.2}, \"events_per_sec\": {:.0}, \"events_total\": {}, \
             \"delivery_mean\": {:.4}, \"peak_rss_kb\": {}}}{}",
            r.name,
            r.nodes,
            r.runs,
            r.wall_s,
            r.runs_per_sec,
            r.events_per_sec,
            r.events_total,
            r.delivery_mean,
            r.peak_rss_kb,
            if i + 1 < results.len() { "," } else { "" }
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

// ---------------------------------------------------------------------
// Loadgen mode: multi-tenant load against an in-process daemon.

struct LoadgenOpts {
    campaigns: usize,
    subscribers: usize,
    seeds: u64,
    secs: u64,
    workers: Option<usize>,
    serial: bool,
    curve: Option<Vec<usize>>,
    json: bool,
    json_out: Option<String>,
}

const LOADGEN_USAGE: Usage = Usage::cli(
    "unknown loadgen argument",
    "usage: eend-cli loadgen [--campaigns N] [--subscribers M] [--seeds K]\n\
     \u{20}                       [--secs S] [--workers W] [--serial]\n\
     \u{20}                       [--curve 1,2,4,8] [--json] [--json-out FILE]\n\
     \u{20}  Submits N campaigns (distinct fingerprints) to an in-process\n\
     \u{20}  eend-serve daemon over TCP, with M /stream subscribers each, and\n\
     \u{20}  reports submits/s, campaigns-completed/s, time-to-first-record\n\
     \u{20}  and p50/p99 subscriber fan-out latency.\n\
     \u{20}  --serial waits for each campaign before submitting the next (the\n\
     \u{20}  single-runner baseline); --curve runs a serial + concurrent pair\n\
     \u{20}  per level and emits the eend-loadgen/1 scaling record.",
);

fn parse_loadgen(args: impl Iterator<Item = String>) -> LoadgenOpts {
    let mut o = LoadgenOpts {
        campaigns: 4,
        subscribers: 2,
        seeds: 2,
        secs: 30,
        workers: None,
        serial: false,
        curve: None,
        json: false,
        json_out: None,
    };
    let mut args = Args::new(args, &LOADGEN_USAGE);
    while let Some(a) = args.next_flag() {
        match a.as_str() {
            "--campaigns" => o.campaigns = args.number(&a),
            "--subscribers" => o.subscribers = args.number(&a),
            "--seeds" => o.seeds = args.number(&a),
            "--secs" => o.secs = args.number(&a),
            "--workers" => o.workers = Some(args.number(&a)),
            "--serial" => o.serial = true,
            "--curve" => o.curve = Some(args.list(&a)),
            "--json" => o.json = true,
            "--json-out" => o.json_out = Some(args.value(&a)),
            other => args.unknown(other),
        }
    }
    if o.campaigns == 0 || o.seeds == 0 || o.curve.as_deref().is_some_and(|c| c.contains(&0)) {
        LOADGEN_USAGE.exit()
    }
    o
}

/// One loadgen HTTP request against the in-process daemon; responses
/// are close-delimited, so read-to-end is the whole body.
fn lg_request(addr: std::net::SocketAddr, raw: &str) -> String {
    use std::io::{Read as _, Write as _};
    let mut s = std::net::TcpStream::connect(addr).expect("connect to loadgen daemon");
    s.write_all(raw.as_bytes()).expect("send request");
    let mut out = String::new();
    let _ = s.read_to_string(&mut out);
    out
}

fn lg_get(addr: std::net::SocketAddr, path: &str) -> String {
    lg_request(addr, &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"))
}

fn lg_body(resp: &str) -> &str {
    resp.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("")
}

/// Reads `field` of a loadgen response body as JSON with `read`; an
/// unreadable body ends the run.
fn lg_field<T>(
    body: &str,
    field: &str,
    read: impl Fn(&eend::campaign::json::JVal<'_>) -> std::io::Result<T>,
) -> T {
    parse_json(body)
        .and_then(|v| read(v.get(field)?))
        .unwrap_or_else(|e| die(format_args!("loadgen: bad {field} in {body:?}: {e}")))
}

/// A campaign's state and finished-job count from its `/status/<fp>`;
/// a failed campaign ends the run.
fn lg_status(addr: std::net::SocketAddr, fp: &str) -> (String, usize) {
    let resp = lg_get(addr, &format!("/status/{fp}"));
    let b = lg_body(&resp);
    let state = lg_field(b, "state", |v| v.str().map(str::to_owned));
    if state == "failed" {
        die(format_args!("loadgen campaign {fp} failed: {b}"));
    }
    (state, lg_field(b, "done", |v| v.usize()))
}

/// The `k`-th loadgen campaign: distinct name, same shape, so the
/// daemon sees N different fingerprints of equal cost.
fn loadgen_spec(round: &str, k: usize, seeds: u64, secs: u64) -> CampaignSpec {
    CampaignSpec::new(&format!("loadgen-{round}-{k}"), BaseScenario::Small)
        .stacks(vec![stacks::titan_pc()])
        .rates(vec![2.0, 4.0])
        .seeds(seeds)
        .secs(secs)
}

/// Per-subscriber trace: elapsed-since-round-start of each streamed
/// line, in arrival order.
type SubscriberTrace = Vec<std::time::Duration>;

/// One measured loadgen round.
struct LoadgenRound {
    concurrency: usize,
    serial: bool,
    campaigns: usize,
    jobs_total: usize,
    submit_wall_s: f64,
    wall_s: f64,
    completed_per_s: f64,
    jobs_per_s: f64,
    ttfr_p50_ms: f64,
    ttfr_max_ms: f64,
    fanout_p50_ms: f64,
    fanout_p99_ms: f64,
    interrupted: bool,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Runs one round: a fresh daemon + data dir, `campaigns` submissions
/// (all at once, or one at a time under `serial`), `subscribers` live
/// `/stream` tails per campaign, and the clock on everything.
fn loadgen_round(
    tag: &str,
    workers: usize,
    campaigns: usize,
    subscribers: usize,
    seeds: u64,
    secs: u64,
    serial: bool,
) -> LoadgenRound {
    let data = std::env::temp_dir().join(format!(
        "eend-loadgen-{}-{tag}-{campaigns}{}",
        std::process::id(),
        if serial { "-serial" } else { "" }
    ));
    let _ = std::fs::remove_dir_all(&data);
    let handle = serve(
        "127.0.0.1:0",
        ServeConfig { data_dir: data.clone(), executor: Executor::with_workers(workers) },
    )
    .unwrap_or_else(|e| die(e));
    let addr = handle.addr();

    let specs: Vec<CampaignSpec> =
        (0..campaigns).map(|k| loadgen_spec(tag, k, seeds, secs)).collect();
    let jobs_total: usize = specs.iter().map(|s| s.job_count()).sum();

    let start = std::time::Instant::now();
    let mut submit_wall_s = 0.0;
    let mut submit_at: Vec<std::time::Duration> = Vec::with_capacity(campaigns);
    let mut fps: Vec<String> = Vec::with_capacity(campaigns);
    let mut tails: Vec<(usize, std::thread::JoinHandle<SubscriberTrace>)> = Vec::new();
    let mut interrupted = false;

    let submit_one = |k: usize| -> String {
        let axes = eend::campaign::SpecAxes::of(&specs[k]).expect("loadgen spec axes");
        let body = format!("{{\"campaign\":\"{}\",\"axes\":{}}}", specs[k].name, axes.to_json());
        let resp = lg_request(
            addr,
            &format!(
                "POST /submit HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        );
        lg_field(lg_body(&resp), "fingerprint", |v| v.str().map(str::to_owned))
    };
    let spawn_tails =
        |k: usize, fp: &str, tails: &mut Vec<(usize, std::thread::JoinHandle<SubscriberTrace>)>| {
            for _ in 0..subscribers {
                let fp = fp.to_owned();
                tails.push((
                    k,
                    std::thread::spawn(move || {
                        use std::io::{BufRead as _, Write as _};
                        let mut conn =
                            std::net::TcpStream::connect(addr).expect("subscriber connect");
                        conn.write_all(
                            format!("GET /stream/{fp} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes(),
                        )
                        .expect("subscriber request");
                        let mut reader = std::io::BufReader::new(conn);
                        let mut line = String::new();
                        let mut in_body = false;
                        let mut trace = Vec::new();
                        loop {
                            line.clear();
                            match reader.read_line(&mut line) {
                                Ok(0) | Err(_) => break,
                                Ok(_) => {}
                            }
                            if !in_body {
                                in_body = line == "\r\n";
                                continue;
                            }
                            trace.push(start.elapsed());
                        }
                        trace
                    }),
                ));
            }
        };
    let wait_campaign_done = |fp: &str, interrupted: &mut bool| {
        while !*interrupted {
            if lg_status(addr, fp).0 == "done" {
                return;
            }
            if signals::requested() {
                *interrupted = true;
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    };

    if serial {
        // The PR 7 single-runner baseline: one campaign in flight at a
        // time, submits/s is gated on full campaign completion.
        for k in 0..campaigns {
            if interrupted {
                break;
            }
            let t = std::time::Instant::now();
            let fp = submit_one(k);
            submit_wall_s += t.elapsed().as_secs_f64();
            submit_at.push(start.elapsed());
            spawn_tails(k, &fp, &mut tails);
            wait_campaign_done(&fp, &mut interrupted);
            fps.push(fp);
        }
    } else {
        let t = std::time::Instant::now();
        for k in 0..campaigns {
            let fp = submit_one(k);
            submit_at.push(start.elapsed());
            spawn_tails(k, &fp, &mut tails);
            fps.push(fp);
        }
        submit_wall_s = t.elapsed().as_secs_f64();
        for fp in &fps {
            wait_campaign_done(fp, &mut interrupted);
            if interrupted {
                break;
            }
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    // Rates count what finished: an interrupted round's unrun jobs and
    // unfinished campaigns do not.
    let statuses: Vec<(String, usize)> = fps.iter().map(|fp| lg_status(addr, fp)).collect();
    let completed = statuses.iter().filter(|(state, _)| state == "done").count();
    let jobs_done: usize = statuses.iter().map(|&(_, done)| done).sum();

    // Draining the daemon closes every live stream, so the subscriber
    // threads all come home — interrupted or not.
    handle.shutdown();
    let mut traces: Vec<(usize, SubscriberTrace)> = Vec::with_capacity(tails.len());
    for (k, t) in tails {
        traces.push((k, t.join().expect("subscriber thread")));
    }
    let _ = std::fs::remove_dir_all(&data);

    // Time to first record, per campaign: earliest streamed line across
    // its subscribers, relative to its own submit instant.
    let mut ttfr_ms: Vec<f64> = Vec::new();
    for (k, submit) in submit_at.iter().enumerate() {
        let first = traces
            .iter()
            .filter(|(tk, trace)| *tk == k && !trace.is_empty())
            .map(|(_, trace)| trace[0])
            .min();
        if let Some(first) = first {
            ttfr_ms.push((first.saturating_sub(*submit)).as_secs_f64() * 1e3);
        }
    }
    ttfr_ms.sort_by(|a, b| a.total_cmp(b));

    // Fan-out latency, per (campaign, record): how far the slowest
    // subscriber trails the fastest for the same record.
    let mut fanout_ms: Vec<f64> = Vec::new();
    for k in 0..campaigns {
        let per_sub: Vec<&SubscriberTrace> =
            traces.iter().filter(|(tk, _)| *tk == k).map(|(_, t)| t).collect();
        let Some(records) = per_sub.iter().map(|t| t.len()).min() else { continue };
        for i in 0..records {
            let times = per_sub.iter().map(|t| t[i]);
            let (min, max) = (times.clone().min().unwrap(), times.max().unwrap());
            fanout_ms.push((max.saturating_sub(min)).as_secs_f64() * 1e3);
        }
    }
    fanout_ms.sort_by(|a, b| a.total_cmp(b));

    LoadgenRound {
        concurrency: if serial { 1 } else { campaigns },
        serial,
        campaigns: completed,
        jobs_total,
        submit_wall_s,
        wall_s,
        completed_per_s: completed as f64 / wall_s,
        jobs_per_s: jobs_done as f64 / wall_s,
        ttfr_p50_ms: percentile(&ttfr_ms, 50.0),
        ttfr_max_ms: ttfr_ms.last().copied().unwrap_or(0.0),
        fanout_p50_ms: percentile(&fanout_ms, 50.0),
        fanout_p99_ms: percentile(&fanout_ms, 99.0),
        interrupted,
    }
}

fn loadgen_round_json(r: &LoadgenRound) -> String {
    format!(
        "{{\"mode\": \"{}\", \"campaigns\": {}, \"jobs_total\": {}, \"submit_wall_s\": {:.4}, \
         \"wall_s\": {:.4}, \"completed_per_s\": {:.3}, \"jobs_per_s\": {:.1}, \
         \"ttfr_p50_ms\": {:.2}, \"ttfr_max_ms\": {:.2}, \"fanout_p50_ms\": {:.2}, \
         \"fanout_p99_ms\": {:.2}}}",
        if r.serial { "serial" } else { "concurrent" },
        r.campaigns,
        r.jobs_total,
        r.submit_wall_s,
        r.wall_s,
        r.completed_per_s,
        r.jobs_per_s,
        r.ttfr_p50_ms,
        r.ttfr_max_ms,
        r.fanout_p50_ms,
        r.fanout_p99_ms
    )
}

fn print_loadgen_round(r: &LoadgenRound) {
    println!(
        "{:10} x{:<2} {:>7.2} campaigns/s  {:>8.1} jobs/s  ttfr p50 {:>7.1} ms  \
         fanout p50/p99 {:.1}/{:.1} ms  ({} campaigns, {} jobs, {:.3} s){}",
        if r.serial { "serial" } else { "concurrent" },
        r.concurrency,
        r.completed_per_s,
        r.jobs_per_s,
        r.ttfr_p50_ms,
        r.fanout_p50_ms,
        r.fanout_p99_ms,
        r.campaigns,
        r.jobs_total,
        r.wall_s,
        if r.interrupted { "  [interrupted]" } else { "" }
    );
}

fn run_loadgen(o: LoadgenOpts) {
    signals::install();
    let workers = o.workers.map(|w| w.max(1)).unwrap_or_else(|| Executor::bounded().workers());
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    let levels: Vec<usize> = match &o.curve {
        Some(levels) => levels.clone(),
        None => vec![o.campaigns],
    };
    eprintln!(
        "loadgen: {} worker(s), {} host core(s), {} subscriber(s)/campaign, \
         {} seed(s) x {} s grid cells",
        workers, host_cores, o.subscribers, o.seeds, o.secs
    );

    // --curve measures a serial baseline *and* a concurrent round per
    // level; a plain run measures exactly the mode asked for.
    let mut rounds: Vec<LoadgenRound> = Vec::new();
    for (i, &level) in levels.iter().enumerate() {
        for (tag, serial) in [("s", true), ("c", false)] {
            if signals::requested() {
                break;
            }
            if o.curve.is_some() || o.serial == serial {
                let tag = format!("{tag}{i}");
                let r = loadgen_round(&tag, workers, level, o.subscribers, o.seeds, o.secs, serial);
                print_loadgen_round(&r);
                rounds.push(r);
            }
        }
    }
    let interrupted = signals::requested() || rounds.iter().any(|r| r.interrupted);

    if o.json || o.json_out.is_some() {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema\": \"eend-loadgen/1\",");
        let _ = writeln!(out, "  \"workers\": {workers},");
        let _ = writeln!(out, "  \"host_cores\": {host_cores},");
        let _ = writeln!(out, "  \"subscribers_per_campaign\": {},", o.subscribers);
        let _ = writeln!(out, "  \"jobs_per_campaign\": {},", 2 * o.seeds);
        let _ = writeln!(out, "  \"sim_secs_per_job\": {},", o.secs);
        let _ = writeln!(out, "  \"rounds\": [");
        for (i, r) in rounds.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"concurrency\": {}, \"round\": {}}}{}",
                r.concurrency,
                loadgen_round_json(r),
                if i + 1 < rounds.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "  ],");
        let _ = writeln!(out, "  \"analysis\": \"{}\"", loadgen_analysis(&rounds, host_cores));
        let _ = writeln!(out, "}}");
        if o.json {
            print!("{out}");
        }
        if let Some(path) = &o.json_out {
            write_atomic(std::path::Path::new(path), out.as_bytes()).unwrap_or_else(|e| die(e));
            eprintln!("loadgen: wrote {path}");
        }
    }
    if interrupted {
        eprintln!("loadgen: interrupted, daemon drained cleanly");
        return;
    }
    eprintln!("loadgen: done");
}

/// One-line scaling verdict for the JSON record: concurrent-vs-serial
/// speedup per level, with the single-core caveat spelled out.
fn loadgen_analysis(rounds: &[LoadgenRound], host_cores: usize) -> String {
    let mut parts: Vec<String> = Vec::new();
    let levels: std::collections::BTreeSet<usize> = rounds
        .iter()
        .map(|r| if r.serial { r.campaigns.max(r.concurrency) } else { r.concurrency })
        .collect();
    for level in levels {
        let serial = rounds.iter().find(|r| {
            r.serial && r.campaigns.max(r.concurrency) == level && r.completed_per_s > 0.0
        });
        let conc =
            rounds.iter().find(|r| !r.serial && r.concurrency == level && r.completed_per_s > 0.0);
        if let (Some(s), Some(c)) = (serial, conc) {
            parts.push(format!(
                "{}x concurrent = {:.2}x serial throughput",
                level,
                c.completed_per_s / s.completed_per_s
            ));
        }
    }
    let caveat = if host_cores == 1 {
        "Single-core host: jobs serialize on one worker either way, so near-parity \
         (not >=2x) is the expected curve; the scheduler's win here is fairness and \
         time-to-first-record, not aggregate throughput. Re-run on a multi-core host \
         to see the scaling."
    } else {
        ""
    };
    if parts.is_empty() {
        caveat.to_owned()
    } else {
        format!("{}. {caveat}", parts.join("; "))
    }
}

/// Options of the `design` subcommand.
struct DesignOpts {
    instance: String,
    heuristic: String,
    search: String,
    seed: u64,
    budget: u64,
    objective: String,
    oracle: String,
    secs: f64,
    sim_seeds: u64,
    workers: Option<usize>,
    out: Option<String>,
    check_improves: bool,
}

const DESIGN_USAGE: Usage = Usage::cli(
    "unknown design argument",
    "usage: eend-cli design [--instance grid7|random30|random50]\n\
     \u{20}                      [--heuristic all|mtpr|mtpr+|joint|idlefirst|mpc|lifetime]\n\
     \u{20}                      [--search multistart|anneal] [--seed N] [--budget K]\n\
     \u{20}                      [--objective energy|goodput|lifetime]\n\
     \u{20}                      [--oracle fluid|sim] [--secs S] [--sim-seeds N]\n\
     \u{20}                      [--workers W] [--out DIR] [--check-improves]\n\
     \u{20}                      [--list-instances]\n\
     \u{20}  trace JSONL streams to stdout; the summary goes to stderr\n\
     \u{20}  --out DIR persists trace.jsonl + winner.json and caches every\n\
     \u{20}  score under DIR/cache — an identical re-run executes 0 evaluations\n\
     \u{20}  --heuristic NAME scores that single constructive design instead\n\
     \u{20}  --check-improves exits 1 if the winner is worse than every-start best",
);

fn parse_design(args: impl Iterator<Item = String>) -> DesignOpts {
    let mut o = DesignOpts {
        instance: "grid7".into(),
        heuristic: "all".into(),
        search: "multistart".into(),
        seed: 1,
        budget: 200,
        objective: "energy".into(),
        oracle: "fluid".into(),
        secs: 900.0,
        sim_seeds: 2,
        workers: None,
        out: None,
        check_improves: false,
    };
    let mut args = Args::new(args, &DESIGN_USAGE);
    while let Some(a) = args.next_flag() {
        match a.as_str() {
            "--instance" => o.instance = args.value(&a),
            "--heuristic" => o.heuristic = args.value(&a).to_ascii_lowercase(),
            "--search" => o.search = args.value(&a),
            "--seed" => o.seed = args.number(&a),
            "--budget" => o.budget = args.number(&a),
            "--objective" => o.objective = args.value(&a),
            "--oracle" => o.oracle = args.value(&a),
            "--secs" => o.secs = args.number(&a),
            "--sim-seeds" => o.sim_seeds = args.number(&a),
            "--workers" => o.workers = Some(args.number(&a)),
            "--out" => o.out = Some(args.value(&a)),
            "--check-improves" => o.check_improves = true,
            "--list-instances" => {
                for name in eend::opt::instances::NAMES {
                    println!("{name}");
                }
                std::process::exit(0)
            }
            other => args.unknown(other),
        }
    }
    if o.budget == 0 || o.secs <= 0.0 || o.sim_seeds == 0 {
        DESIGN_USAGE.exit()
    }
    o
}

/// Maps a CLI heuristic name to the designer (`None` means `all`: search).
fn design_heuristic(name: &str) -> Option<eend::core::design::Heuristic> {
    use eend::core::design::{CommMetric, Heuristic};
    match name {
        "all" => None,
        "mtpr" => Some(Heuristic::CommFirst(CommMetric::RadiatedPower)),
        "mtpr+" => Some(Heuristic::CommFirst(CommMetric::TotalPower)),
        "joint" => Some(Heuristic::Joint { use_rate: true, bandwidth_bps: 2_000_000.0 }),
        "idlefirst" => Some(Heuristic::IdleFirst),
        "mpc" | "mpc-steiner" => Some(Heuristic::MpcSteiner),
        "lifetime" | "lifetimeaware" => {
            Some(Heuristic::LifetimeAware { bandwidth_bps: 2_000_000.0 })
        }
        other => DESIGN_USAGE.fail(format_args!("unknown heuristic {other:?}")),
    }
}

/// Renders the winning design as a small JSON document.
fn render_winner(
    o: &DesignOpts,
    fp: u64,
    score: &eend::opt::Score,
    objective_value: f64,
    design: &eend::core::design::Design,
) -> String {
    let routes: Vec<String> = design
        .routes
        .iter()
        .map(|r| match r {
            None => "null".to_owned(),
            Some(path) => {
                let hops: Vec<String> = path.iter().map(usize::to_string).collect();
                format!("[{}]", hops.join(","))
            }
        })
        .collect();
    let awake: Vec<String> =
        design.active.iter().enumerate().filter(|&(_, &a)| a).map(|(i, _)| i.to_string()).collect();
    let ttfd = if score.ttfd_s.is_finite() { score.ttfd_s.to_string() } else { "null".into() };
    format!(
        concat!(
            "{{\"instance\":\"{}\",\"search\":\"{}\",\"seed\":{},\"budget\":{},",
            "\"objective\":\"{}\",\"fp\":\"{:016x}\",\"enetwork_j\":{},",
            "\"delivered_bits\":{},\"ttfd_s\":{},\"objective_value\":{},",
            "\"routes\":[{}],\"active\":[{}]}}\n"
        ),
        o.instance,
        if design_heuristic(&o.heuristic).is_some() { &o.heuristic } else { &o.search },
        o.seed,
        o.budget,
        o.objective,
        fp,
        score.enetwork_j,
        score.delivered_bits,
        ttfd,
        objective_value,
        routes.join(","),
        awake.join(",")
    )
}

/// The shared driver behind `eend-cli design`, generic over the inner
/// oracle (fluid or packet-sim).
fn drive_design<O: eend::opt::EvalOracle>(o: &DesignOpts, inner: O) {
    use eend::core::design::Designer;
    use eend::opt::{
        anneal, design_fingerprint, multistart, problem_fingerprint, CachedOracle, EvalOracle,
        Objective, SearchOpts, TraceEvent,
    };

    let Some(problem) = eend::opt::instances::by_name(&o.instance) else {
        DESIGN_USAGE.fail(format_args!("unknown instance {:?} (try --list-instances)", o.instance))
    };
    let Some(objective) = Objective::parse(&o.objective) else {
        DESIGN_USAGE.fail(format_args!("unknown objective {:?}", o.objective))
    };
    let problem_fp = problem_fingerprint(&problem);
    let label = inner.label();
    let mut oracle = match &o.out {
        Some(dir) => {
            let cache_dir = std::path::Path::new(dir).join("cache");
            CachedOracle::on_disk(inner, &cache_dir, problem_fp)
                .unwrap_or_else(|e| die(format_args!("cannot open eval cache: {e}")))
        }
        None => CachedOracle::in_memory(inner),
    };

    let opts = SearchOpts { seed: o.seed, budget: o.budget, objective, ..SearchOpts::new() };
    let started = std::time::Instant::now();
    let result = match design_heuristic(&o.heuristic) {
        Some(h) => {
            // Baseline probe: score one constructive design, no search.
            let design = h.design(&problem);
            let score = oracle.evaluate(&problem, &design);
            let objective_value = objective.value(&score);
            let ev = TraceEvent {
                iter: 0,
                kind: format!("start:{}", h.name()),
                fp: design_fingerprint(&problem, &design),
                enetwork_j: score.enetwork_j,
                objective: objective_value,
                accepted: true,
                best: true,
            };
            eend::opt::SearchResult {
                best_design: design,
                best_score: score,
                best_objective: objective_value,
                baselines: vec![(h.name(), score)],
                trace: vec![ev],
                evals: 1,
            }
        }
        None => match o.search.as_str() {
            "multistart" => multistart(&problem, &mut oracle, &opts),
            "anneal" => anneal(&problem, &mut oracle, &opts),
            other => DESIGN_USAGE.fail(format_args!("unknown search strategy {other:?}")),
        },
    };
    let search_s = started.elapsed().as_secs_f64();

    let trace = result.trace_jsonl();
    print!("{trace}");
    let winner_fp = design_fingerprint(&problem, &result.best_design);
    let winner =
        render_winner(o, winner_fp, &result.best_score, result.best_objective, &result.best_design);
    if let Some(dir) = &o.out {
        let dir = std::path::Path::new(dir);
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| die(format_args!("cannot create {}: {e}", dir.display())));
        write_atomic(&dir.join("trace.jsonl"), trace.as_bytes()).expect("write trace");
        write_atomic(&dir.join("winner.json"), winner.as_bytes()).expect("write winner");
    }

    eprintln!(
        "instance {} ({} nodes, {} demands), oracle {label}, objective {}",
        o.instance,
        problem.instance.node_count(),
        problem.demands.len(),
        objective.name()
    );
    let mut best_baseline = f64::INFINITY;
    for (name, score) in &result.baselines {
        let v = objective.value(score);
        best_baseline = best_baseline.min(v);
        eprintln!("baseline {name}: Enetwork {:.1} J (objective {v:.4})", score.enetwork_j);
    }
    eprintln!(
        "winner: Enetwork {:.1} J, objective {:.4}, fingerprint {winner_fp:016x}",
        result.best_score.enetwork_j, result.best_objective
    );
    eprintln!(
        "{} oracle evaluation(s) executed, {} served from cache",
        oracle.inner().calls(),
        oracle.hits()
    );
    eprintln!("{}", move_summary(&result.trace));
    let requests = result.evals;
    eprintln!(
        "cache hit ratio {:.3} ({} hits / {requests} requests)",
        oracle.hits() as f64 / requests as f64,
        oracle.hits()
    );
    eprintln!(
        "{requests} oracle requests in {search_s:.3} s ({:.0} requests/s)",
        requests as f64 / search_s
    );
    if o.check_improves && result.best_objective > best_baseline {
        die(format_args!(
            "winner objective {} is worse than the best single-shot heuristic {}",
            result.best_objective, best_baseline
        ))
    }
}

/// Scored and accepted candidates per move kind, e.g. `moves
/// scored/accepted: start 6/6, swap 40/3, sleep 12/1, wake 0/0` — which
/// moves the search tried and which paid off.
fn move_summary(trace: &[eend::opt::TraceEvent]) -> String {
    const KINDS: [&str; 4] = ["start", "swap", "sleep", "wake"];
    let mut counts = [(0u64, 0u64); KINDS.len()];
    for ev in trace {
        let kind = ev.kind.split(':').next().unwrap_or_default();
        if let Some(i) = KINDS.iter().position(|k| *k == kind) {
            counts[i].0 += 1;
            counts[i].1 += u64::from(ev.accepted);
        }
    }
    let parts: Vec<String> = KINDS
        .iter()
        .zip(counts)
        .map(|(kind, (scored, accepted))| format!("{kind} {scored}/{accepted}"))
        .collect();
    format!("moves scored/accepted: {}", parts.join(", "))
}

fn run_design(o: DesignOpts) {
    match o.oracle.as_str() {
        "fluid" => drive_design(&o, eend::opt::FluidOracle::standard(o.secs)),
        "sim" => {
            let executor = o.workers.map(Executor::with_workers).unwrap_or_else(Executor::bounded);
            let seeds: Vec<u64> = (1..=o.sim_seeds).collect();
            drive_design(&o, eend::opt::SimOracle::new(o.secs, seeds, executor))
        }
        other => DESIGN_USAGE.fail(format_args!("unknown oracle {other:?}")),
    }
}

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    let sub = args.next_if(|a| ["campaign", "bench", "loadgen", "design"].contains(&a.as_str()));
    match sub.as_deref() {
        Some("campaign") if args.next_if_eq("merge").is_some() => run_merge(parse_merge(args)),
        Some("campaign") => run_campaign(parse_campaign(args)),
        Some("bench") => run_bench(parse_bench(args)),
        Some("loadgen") => run_loadgen(parse_loadgen(args)),
        Some("design") => run_design(parse_design(args)),
        _ => run_single(parse(args)),
    }
}

/// The default mode: one simulation run.
fn run_single(o: Opts) {
    let Some(stack) = stacks::by_name(&o.stack) else {
        RUN_USAGE.fail(format_args!("unknown stack {:?} (try --list-stacks)", o.stack))
    };
    let card = match o.card.to_ascii_lowercase().as_str() {
        "aironet350" | "aironet" => cards::aironet_350(),
        "cabletron" => cards::cabletron(),
        "hypothetical" => cards::hypothetical_cabletron(),
        "mica2" => cards::mica2(),
        "leach2" => cards::leach_n2(1.0),
        "leach4" => cards::leach_n4(1.0),
        other => RUN_USAGE.fail(format_args!("unknown card {other:?}")),
    };
    let name = stack.name.clone();
    let mut scenario = Scenario::new(
        Placement::UniformRandom { n: o.nodes, width: o.area, height: o.area },
        card,
        stack,
        FlowSpec::cbr(o.flows, o.rate_kbps),
        SimDuration::from_secs(o.secs),
        o.seed,
    );
    if o.speed > 0.0 {
        scenario = scenario.with_mobility(Mobility::random_waypoint(
            (o.speed / 2.0).max(0.1),
            o.speed,
            5.0,
        ));
    }
    scenario.flows = scenario.flows.with_model(o.traffic.clone());
    if let Some(name) = &o.radio_profile {
        let profile = radio_profiles::by_name(name)
            .unwrap_or_else(|| RUN_USAGE.fail(format_args!("unknown radio profile {name:?}")));
        if let eend::wireless::CardAssignment::Alternating(cards) = &profile.assignment {
            // PHY range always comes from --card; a profile mixing cards
            // of a different range would be billed unphysically.
            if let Some(c) = cards.iter().find(|c| c.nominal_range_m != card.nominal_range_m) {
                RUN_USAGE.fail(format_args!(
                    "radio profile {name:?} mixes {} ({} m range) but --card {} has a \
                     {} m range — profiles only apply over a range-matched base card",
                    c.name, c.nominal_range_m, card.name, card.nominal_range_m
                ))
            }
        }
        scenario = scenario.with_card_assignment(profile.assignment);
    }
    let node_cards = scenario.node_cards(o.nodes);
    let m = Simulator::new(&scenario).run();

    if o.csv {
        // onoff(ON,OFF) labels contain a comma: quote per RFC 4180.
        let traffic_label = o.traffic.label();
        let traffic_field = if traffic_label.contains(',') {
            format!("\"{traffic_label}\"")
        } else {
            traffic_label
        };
        eprintln!(
            "stack,nodes,area_m,flows,rate_kbps,secs,seed,traffic,radio,delivery,\
             goodput_bit_per_j,enetwork_j,transmit_j,control_j,relays,rreq,dsdv_updates,\
             lifetime_1kj_s"
        );
        println!(
            "{},{},{},{},{},{},{},{},{},{:.4},{:.1},{:.1},{:.1},{:.1},{},{},{},{:.0}",
            name,
            o.nodes,
            o.area,
            o.flows,
            o.rate_kbps,
            o.secs,
            o.seed,
            traffic_field,
            o.radio_profile.as_deref().unwrap_or("uniform"),
            m.delivery_ratio(),
            m.energy_goodput_bit_per_j(),
            m.enetwork_j(),
            m.transmit_energy_j(),
            m.control_energy_j(),
            m.data_forwarders,
            m.rreq_tx,
            m.dsdv_update_tx,
            m.lifetime_to_first_death_s(1000.0),
        );
    } else {
        println!(
            "{name} — {} nodes, {}x{} m², {} flows @ {} Kbit/s, {} s (seed {})",
            o.nodes, o.area, o.area, o.flows, o.rate_kbps, o.secs, o.seed
        );
        println!(
            "  delivery ratio      {:.4} ({}/{} packets)",
            m.delivery_ratio(),
            m.data_delivered,
            m.data_sent
        );
        println!("  energy goodput      {:.1} bit/J", m.energy_goodput_bit_per_j());
        println!(
            "  Enetwork            {:.1} J (tx {:.1} J, control {:.1} J)",
            m.enetwork_j(),
            m.transmit_energy_j(),
            m.control_energy_j()
        );
        println!("  relays              {}", m.data_forwarders);
        println!(
            "  control frames      {} RREQ, {} RREP, {} RERR, {} DSDV, {} ATIM",
            m.rreq_tx, m.rrep_tx, m.rerr_tx, m.dsdv_update_tx, m.atim_tx
        );
        println!(
            "  collisions          {} broadcast, {} RTS; {} link failures",
            m.broadcast_collisions, m.rts_collisions, m.link_failures
        );
        println!(
            "  drops               {} no-route, {} link, {} buffer, {} ifq",
            m.drops_no_route, m.drops_link_failure, m.drops_buffer, m.drops_ifq
        );
        println!(
            "  lifetime (1 kJ)     {:.0} s to first death, imbalance {:.2}",
            m.lifetime_to_first_death_s(1000.0),
            m.energy_imbalance()
        );
        // Heterogeneous runs: break the energy bill down by card class.
        let by_card = m.energy_by_card(&node_cards);
        if by_card.len() > 1 {
            for (name, count, report) in by_card {
                println!(
                    "  energy[{name}]      {:.1} J over {count} node(s)",
                    report.total_mj() / 1000.0
                );
            }
        }
    }
}
