//! `eend-serve`: campaigns as a long-lived service.
//!
//! A daemon built from std building blocks only (`TcpListener` plus a
//! thread per connection — the workspace is offline, so no async
//! runtime): clients submit [`CampaignSpec`]s over a line-oriented
//! HTTP/JSONL protocol, the daemon schedules the jobs on one shared
//! [`WorkerPool`], persists every record into a fingerprinted
//! [`ResultStore`] under its data directory, and answers a re-submitted
//! spec **from cache** by fingerprint instead of re-simulating.
//!
//! # Concurrent scheduling
//!
//! All active campaigns run **concurrently** on the shared pool (sized
//! by [`ServeConfig::executor`]): each submission gets a supervised
//! campaign thread that registers its pending jobs as one pool task,
//! and idle pool workers claim jobs round-robin across runnable
//! campaigns — one claim, next campaign — so a 100k-job campaign
//! cannot head-of-line-block a 12-job interactive one, and a lone
//! campaign still gets every worker. Each campaign keeps its own
//! claim-gated reorder window and appends to its own store in job
//! order, so every `records.jsonl` stays byte-identical to a solo
//! serial run regardless of how jobs interleave across campaigns.
//!
//! # Protocol
//!
//! One request per connection (`Connection: close`); bodies and record
//! streams are plain JSON/JSONL/CSV text.
//!
//! | Request | Body / query | Response |
//! |---|---|---|
//! | `POST /submit` | `{"campaign": name, "axes": {…}, "on_failure": "abort"\|"skip"\|"retry=N"?}` — the axes use the exact [`SpecAxes::to_json`] schema stored in store manifests; `on_failure` (optional) sets the store's [`FailurePolicy`] | `{"fingerprint","total","done","cached","state"}` |
//! | `GET /status` | — | daemon-wide listing: `{"workers","executed","campaigns":[{"fingerprint","total","done","failed","state"},…]}` |
//! | `GET /status/<fp>` | — | `{"fingerprint","total","done","failed","state","error","workers","executed"}` |
//! | `GET /stream/<fp>` | `?from=N&format=jsonl\|csv` | one record per line as jobs become durable, starting at record `N` (reconnects pick up where they left off) |
//! | `GET /aggregate/<fp>` | — | one JSONL line per (cell, metric, stack, x): `{"metric","stack","x",…,"n","mean","ci95"}`, where the cells and x axis follow the [`Summary`] rule `eend-cli campaign` prints its figures by, and `…` is one key per swept non-x axis, named as its CSV column (`rate_kbps`, `nodes`, `speed_mps`, `traffic`, `radio`, `failure`) and absent when only x is swept; reduced from the campaign's in-memory metric rows; repeat hits are served from a cache keyed on `(fingerprint, contiguous-durable-prefix)`, so they never re-reduce |
//! | `GET /` | — | health probe (`eend-serve`) |
//!
//! `<fp>` is the 16-hex-digit campaign fingerprint returned by submit.
//!
//! # Cache and resume semantics
//!
//! A submitted spec is expanded and [fingerprinted](fingerprint) exactly
//! like `eend-cli campaign --out`; its store lives at
//! `<data_dir>/<fingerprint>`. Identical re-submissions map to the same
//! store, so completed jobs are never re-run — a warm submit answers
//! `"cached":true` without executing a single simulation. A daemon
//! restarted over an existing data directory resumes partial campaigns
//! from their durable records (the kill-resume path the store was built
//! for), and status/stream/aggregate requests for fingerprints not seen
//! since the restart rehydrate the campaign from the store's manifest
//! axes. A spec whose failure plan kills a node at a negative or
//! non-finite time, or a node beyond its network, is refused with a 400
//! naming the plan and the kill, before any store directory is created.
//!
//! # Metric rows
//!
//! Every read endpoint works from one [`MetricRow`] per durable record
//! — the twelve [`metric_columns`] values, nothing else of the
//! record's [`RunMetrics`](eend_wireless::RunMetrics). A row is computed
//! once, by the store's completion observer right after the record's
//! durable append, and kept in the campaign's progress beside the
//! durable-prefix count; records already on disk when a campaign
//! registers (restart, rehydrate, resume) are decoded once, at
//! registration, with their identity cross-checked against the job
//! list — a store whose record names another job is refused with a 400
//! before any response header is sent. `/stream` renders rows through
//! the same row writers as `eend-cli campaign --csv` / the JSONL sink,
//! and `/aggregate` feeds them into per-cell, per-metric
//! [`StreamingAggregator`]s in job order — both byte-identical to the
//! offline CLI path, pinned by integration tests. Neither endpoint reads
//! the store's files.
//!
//! # Fault containment
//!
//! The campaign runner is *supervised*: a campaign that panics (the
//! default abort policy, or a store-layer bug) marks that fingerprint
//! failed — `/status/<fp>` answers `"state":"failed"` with the panic
//! cause in `"error"` — while the daemon and its other campaigns keep
//! serving. Connection handlers are supervised the same way (a handler
//! panic costs one connection, answered 500). POST bodies are bounded
//! (413 past 1 MiB), so is each request and header line (431 past
//! 8 KiB), header floods are cut off, and slow, timed-out, or
//! malformed clients are logged with their peer address. A campaign
//! that dies releases its claimed pool slots immediately (its pool
//! task deregisters during the unwind), so concurrent campaigns keep
//! all remaining workers. On shutdown ([`ServerHandle::shutdown`], or
//! SIGTERM/ctrl-c in the binary) the daemon stops accepting, lets
//! every active campaign's in-flight record finish durably (the
//! store's cooperative cancel flag), joins the campaign threads and
//! the pool, and exits cleanly — a restart over the same data dir
//! resumes exactly the missing jobs.

use crate::executor::{panic_cause, Executor, FailurePolicy, JobScheduler, WorkerPool};
use crate::json::{bad_data, parse_json, JVal};
use crate::report::{
    csv_header_into, csv_values_into, json_num, json_str, json_values_into, metric_columns,
    metric_row, MetricRow,
};
use crate::spec::{CampaignSpec, Job};
use crate::store::{
    fingerprint, read_manifest, Manifest, ResultStore, RunOptions, SpecAxes, MANIFEST_FILE,
};
use crate::summary::{AxisValue, Summary};
use eend_stats::grouped::StreamingAggregator;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Largest POST body the daemon will buffer; a submit spec is a few
/// hundred bytes, so anything near this is abuse, not a campaign.
const MAX_BODY_BYTES: usize = 1 << 20;
/// Header-flood cutoff for one request.
const MAX_HEADER_LINES: usize = 100;
/// Longest request line or header line the daemon will buffer,
/// terminator included.
const MAX_LINE_BYTES: usize = 8 << 10;

/// Configuration of a [`serve`] instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Directory holding one fingerprinted [`ResultStore`] per
    /// campaign (created if missing).
    pub data_dir: PathBuf,
    /// Sizes the daemon's shared [`WorkerPool`]: all active campaigns
    /// run concurrently, multiplexed onto this many workers with
    /// fair-share (round-robin per claim) job scheduling.
    pub executor: Executor,
}

/// The campaign run-state machine: `Idle` both before the first submit
/// queues a campaign and after a run finishes (completely or not).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Queued,
    Running,
    Idle,
}

/// Mutable progress of one campaign, guarded by its entry's mutex.
struct Progress {
    /// Length of the *contiguous* durable-record prefix — the id of the
    /// next record a subscriber can stream. Under the default abort
    /// policy records land strictly in job order and this equals the
    /// completed count; a containing policy can leave gaps, and a gap
    /// must hold the stream back rather than overstate progress.
    done: usize,
    /// Each durable record's metric row, indexed by job id (`None`
    /// until the record is durable). Every row below `done` is set.
    rows: Vec<Option<MetricRow>>,
    /// Jobs whose last attempt failed under a containing policy —
    /// durable in `failures.jsonl`, re-attempted on the next run.
    failed: usize,
    phase: Phase,
    /// The last run's failure, if it ended early.
    error: Option<String>,
}

impl Progress {
    /// Extends `done` over every row now set past it: a skipped job's
    /// gap holds the prefix back until a later resume fills it.
    fn advance_done(&mut self) {
        while self.rows.get(self.done).is_some_and(Option::is_some) {
            self.done += 1;
        }
    }
}

/// One registered campaign: the immutable expansion plus run progress.
struct CampaignEntry {
    spec: CampaignSpec,
    jobs: Vec<Job>,
    fingerprint: u64,
    dir: PathBuf,
    /// Failure policy requested at submit time; `None` inherits
    /// whatever the store's manifest recorded (default abort).
    policy: Mutex<Option<FailurePolicy>>,
    progress: Mutex<Progress>,
    /// Notified on every completed record and phase change, so
    /// streaming subscribers wake the moment a row is published.
    cv: Condvar,
    /// The last `/aggregate` body, keyed on the contiguous durable
    /// prefix it was computed at — records landing after it advance
    /// the prefix, which invalidates the entry by key mismatch.
    agg_cache: Mutex<Option<(usize, Arc<String>)>>,
}

impl CampaignEntry {
    fn set_phase(&self, phase: Phase, error: Option<String>) {
        let mut p = self.progress.lock().expect("progress lock poisoned");
        p.phase = phase;
        if error.is_some() {
            p.error = error;
        }
        drop(p);
        self.cv.notify_all();
    }
}

/// Shared daemon state: the campaign registry plus the shared pool.
struct ServeState {
    data_dir: PathBuf,
    /// The one pool every campaign's jobs multiplex onto.
    pool: WorkerPool,
    shutdown: AtomicBool,
    /// Simulation jobs actually executed since the daemon started —
    /// cache hits leave it untouched, which the cache tests assert.
    jobs_executed: AtomicUsize,
    /// `/aggregate` bodies actually computed (the campaign's metric rows
    /// reduced) — repeat hits served from cache leave it untouched,
    /// which the aggregate-cache test asserts.
    aggregates_computed: AtomicUsize,
    campaigns: Mutex<BTreeMap<u64, Arc<CampaignEntry>>>,
    /// Live campaign threads (one per campaign being run); `None` once
    /// shutdown has begun, so no new campaign can sneak past the join.
    runners: Mutex<Option<Vec<JoinHandle<()>>>>,
}

/// A handle on a running daemon, returned by [`serve`].
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServeState>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound listen address (resolves port 0 to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Simulation jobs executed since startup. Answering a submit,
    /// stream, or aggregate from cache does not move this counter.
    pub fn jobs_executed(&self) -> usize {
        self.state.jobs_executed.load(Ordering::SeqCst)
    }

    /// `/aggregate` bodies actually computed (the campaign's metric rows
    /// reduced) since startup. A repeat hit served from the aggregate
    /// cache does not move this counter.
    pub fn aggregates_computed(&self) -> usize {
        self.state.aggregates_computed.load(Ordering::SeqCst)
    }

    /// The shared pool's worker bound (what `/status` reports).
    pub fn workers(&self) -> usize {
        self.state.pool.workers()
    }

    /// Campaigns with jobs currently registered on the shared pool —
    /// zero once every active campaign has finished or died (the
    /// no-zombie-slots chaos test asserts this).
    pub fn active_pool_tasks(&self) -> usize {
        self.state.pool.active_tasks()
    }

    /// Blocks until the accept loop exits (i.e. forever, for a daemon
    /// killed externally) — the `eend-serve` binary's main thread.
    pub fn join(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        self.drain();
    }

    /// Stops the daemon: no new connections, every campaign mid-run
    /// finishes its in-flight record durably and stops (cooperative
    /// cancel), and the accept loop, campaign threads, and pool
    /// workers are all joined.
    pub fn shutdown(mut self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        // Wake every waiting subscriber so they see the flag and drain.
        for entry in self.state.campaigns.lock().expect("registry lock poisoned").values() {
            entry.cv.notify_all();
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        self.drain();
    }

    /// Joins every campaign thread (taking the registry so no new one
    /// can spawn), then stops the shared pool.
    fn drain(&self) {
        let handles = self.state.runners.lock().expect("runner registry poisoned").take();
        for h in handles.into_iter().flatten() {
            let _ = h.join();
        }
        self.state.pool.shutdown();
    }
}

/// Binds `addr` (e.g. `"127.0.0.1:7878"`, port 0 for an ephemeral port)
/// and starts the daemon: an accept loop spawning one thread per
/// connection, plus the shared worker pool every campaign's jobs
/// multiplex onto. Returns as soon as the listener is live.
pub fn serve(addr: &str, config: ServeConfig) -> io::Result<ServerHandle> {
    std::fs::create_dir_all(&config.data_dir)?;
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let state = Arc::new(ServeState {
        data_dir: config.data_dir,
        pool: WorkerPool::new(config.executor.workers()),
        shutdown: AtomicBool::new(false),
        jobs_executed: AtomicUsize::new(0),
        aggregates_computed: AtomicUsize::new(0),
        campaigns: Mutex::new(BTreeMap::new()),
        runners: Mutex::new(Some(Vec::new())),
    });
    let accept_state = Arc::clone(&state);
    let accept_thread = thread::Builder::new()
        .name("eend-serve-accept".into())
        .spawn(move || accept_loop(&listener, &accept_state))?;
    Ok(ServerHandle { addr, state, accept_thread: Some(accept_thread) })
}

// ---------------------------------------------------------------------
// Campaign threads: one supervisor per active campaign, jobs on the
// shared pool.

/// Body of one "eend-serve-campaign" thread. Supervised: a panicking
/// campaign (abort policy, or a bug anywhere under the store) marks
/// that fingerprint failed — and its pool task deregisters during the
/// unwind, releasing every claimed slot — while the daemon and its
/// other campaigns keep serving.
fn campaign_thread(state: &ServeState, entry: &Arc<CampaignEntry>) {
    if state.shutdown.load(Ordering::SeqCst) {
        entry.set_phase(Phase::Idle, None);
        return;
    }
    entry.set_phase(Phase::Running, None);
    let requested = entry.policy.lock().expect("policy lock poisoned").clone();
    let run = catch_unwind(AssertUnwindSafe(|| run_campaign(state, entry, requested)));
    let error = match run {
        Ok(Ok(())) => None,
        Ok(Err(e)) => Some(e.to_string()),
        Err(payload) => Some(format!("campaign panicked: {}", panic_cause(payload.as_ref()))),
    };
    entry.set_phase(Phase::Idle, error);
}

/// One supervised campaign run: open (resume) the store, honouring a
/// submit-time policy override, and execute the pending jobs on the
/// shared pool with the daemon's shutdown flag as the cooperative
/// cancel signal.
fn run_campaign(
    state: &ServeState,
    entry: &Arc<CampaignEntry>,
    requested: Option<FailurePolicy>,
) -> io::Result<()> {
    let mut manifest = Manifest::for_spec(&entry.spec, 0, 1);
    manifest.on_failure = requested.map(|p| p.label());
    let mut store = ResultStore::open(&entry.dir, manifest)?;
    let opts = RunOptions { limit: None, policy: store.policy(), cancel: Some(&state.shutdown) };
    let outcome = store.run_with(&state.pool, &entry.jobs, &opts, |(id, record)| {
        state.jobs_executed.fetch_add(1, Ordering::SeqCst);
        let row = metric_row(&record.metrics);
        let mut p = entry.progress.lock().expect("progress lock poisoned");
        p.rows[id] = Some(row);
        p.advance_done();
        drop(p);
        entry.cv.notify_all();
    })?;
    let mut p = entry.progress.lock().expect("progress lock poisoned");
    p.failed = store.failures().len();
    drop(p);
    if outcome.failed > 0 {
        return Err(io::Error::other(format!(
            "{} job(s) failed and remain pending (recorded in failures.jsonl)",
            outcome.failed
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Campaign registry.

/// Registers `spec` (idempotently, by fingerprint), opening — and
/// thereby resuming — its store under the data directory and decoding
/// the metric row of every record already durable there, each checked
/// against the job it claims to be. A `Some` policy (from a submit's
/// `on_failure` field) overrides the entry's policy for subsequent
/// runs; `None` leaves it alone.
fn register(
    state: &ServeState,
    spec: CampaignSpec,
    policy: Option<FailurePolicy>,
) -> io::Result<Arc<CampaignEntry>> {
    let jobs = spec.expand();
    // Refused before a store directory exists: every job would panic.
    if let Some(e) = jobs.iter().find_map(|j| j.check_failures().err()) {
        return Err(bad_data(e));
    }
    let fp = fingerprint(&spec.name, &jobs);
    let mut map = state.campaigns.lock().expect("registry lock poisoned");
    if let Some(e) = map.get(&fp) {
        if let Some(p) = policy {
            *e.policy.lock().expect("policy lock poisoned") = Some(p);
        }
        return Ok(Arc::clone(e));
    }
    let dir = state.data_dir.join(format!("{fp:016x}"));
    let mut manifest = Manifest::for_spec(&spec, 0, 1);
    manifest.on_failure = policy.as_ref().map(|p| p.label());
    let store = ResultStore::open(&dir, manifest)?;
    let mut rows = vec![None; jobs.len()];
    store.visit_metrics(Some(&jobs), |id, m| rows[id] = Some(metric_row(&m)))?;
    let mut progress =
        Progress { done: 0, rows, failed: store.failures().len(), phase: Phase::Idle, error: None };
    progress.advance_done();
    let entry = Arc::new(CampaignEntry {
        spec,
        jobs,
        fingerprint: fp,
        dir,
        policy: Mutex::new(policy),
        progress: Mutex::new(progress),
        cv: Condvar::new(),
        agg_cache: Mutex::new(None),
    });
    map.insert(fp, Arc::clone(&entry));
    Ok(entry)
}

/// Looks a fingerprint up in the registry, falling back to rehydrating
/// the campaign from an on-disk store's manifest axes (the
/// daemon-restarted-over-existing-data case).
fn find_campaign(state: &ServeState, fp: u64) -> io::Result<Option<Arc<CampaignEntry>>> {
    if let Some(e) = state.campaigns.lock().expect("registry lock poisoned").get(&fp) {
        return Ok(Some(Arc::clone(e)));
    }
    let dir = state.data_dir.join(format!("{fp:016x}"));
    let manifest_path = dir.join(MANIFEST_FILE);
    if !manifest_path.exists() {
        return Ok(None);
    }
    let manifest = read_manifest(&manifest_path)?;
    let Some(axes) = manifest.axes else {
        return Err(bad_data(format!(
            "store {} records no spec axes; its campaign cannot be rehydrated",
            dir.display()
        )));
    };
    let entry = register(state, axes.to_spec(&manifest.campaign)?, None)?;
    if entry.fingerprint != fp {
        return Err(bad_data(format!(
            "store {} rebuilds to fingerprint {:016x}, not {fp:016x}",
            dir.display(),
            entry.fingerprint
        )));
    }
    Ok(Some(entry))
}

/// Starts a campaign thread for the entry if it has missing jobs and is
/// not already queued or running — campaigns run *concurrently*, each
/// on its own supervised thread, all sharing the daemon's pool. Returns
/// a progress snapshot.
fn maybe_enqueue(state: &Arc<ServeState>, entry: &Arc<CampaignEntry>) -> (usize, Phase) {
    let mut p = entry.progress.lock().expect("progress lock poisoned");
    if p.phase == Phase::Idle && p.done < entry.jobs.len() && !state.shutdown.load(Ordering::SeqCst)
    {
        let mut runners = state.runners.lock().expect("runner registry poisoned");
        if let Some(handles) = runners.as_mut() {
            // Reap finished campaign threads so the registry stays
            // bounded by the number of *active* campaigns.
            let mut i = 0;
            while i < handles.len() {
                if handles[i].is_finished() {
                    let _ = handles.swap_remove(i).join();
                } else {
                    i += 1;
                }
            }
            let thread_state = Arc::clone(state);
            let thread_entry = Arc::clone(entry);
            let spawned = thread::Builder::new()
                .name("eend-serve-campaign".into())
                .spawn(move || campaign_thread(&thread_state, &thread_entry));
            if let Ok(handle) = spawned {
                handles.push(handle);
                p.phase = Phase::Queued;
                p.error = None;
            }
        }
    }
    (p.done, p.phase)
}

// ---------------------------------------------------------------------
// HTTP plumbing (the minimal subset the protocol needs).

struct Request {
    method: String,
    path: String,
    query: Vec<(String, String)>,
    body: String,
}

impl Request {
    fn query_get(&self, key: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// A request refused before dispatch: the status code to answer and
/// why. Read errors map to 408 (timeout) or 400.
struct Refused {
    code: u16,
    cause: String,
}

impl From<io::Error> for Refused {
    fn from(e: io::Error) -> Refused {
        let code = match e.kind() {
            io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => 408,
            _ => 400,
        };
        Refused { code, cause: e.to_string() }
    }
}

/// Reads one request or header line, refusing with 431 a line longer
/// than [`MAX_LINE_BYTES`] before buffering the rest of it (whatever
/// character the cap cuts through). Returns `""` at end of input.
fn read_line_bounded(reader: &mut impl BufRead) -> Result<String, Refused> {
    let mut line = Vec::new();
    let n = reader.take(MAX_LINE_BYTES as u64).read_until(b'\n', &mut line)?;
    if n == MAX_LINE_BYTES && !line.ends_with(b"\n") {
        return Err(Refused {
            code: 431,
            cause: format!("request line or header longer than {MAX_LINE_BYTES} bytes"),
        });
    }
    String::from_utf8(line).map_err(|_| bad_data("request line or header is not UTF-8").into())
}

/// Reads one request: its line, headers and `Content-Length` body.
/// Every malformed or oversized input is a 4xx [`Refused`].
fn read_request(reader: &mut impl BufRead) -> Result<Request, Refused> {
    let line = read_line_bounded(reader)?;
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or_else(|| bad_data("empty request line"))?.to_owned();
    let target = parts.next().ok_or_else(|| bad_data("request line lacks a target"))?.to_owned();
    let mut content_length = 0usize;
    let mut header_lines = 0usize;
    loop {
        header_lines += 1;
        if header_lines > MAX_HEADER_LINES {
            return Err(bad_data(format!("more than {MAX_HEADER_LINES} request headers")).into());
        }
        let header = read_line_bounded(reader)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((k, v)) = header.split_once(':') {
            if k.eq_ignore_ascii_case("content-length") {
                content_length = v
                    .trim()
                    .parse()
                    .map_err(|_| bad_data(format!("bad Content-Length {:?}", v.trim())))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(Refused {
            code: 413,
            cause: format!(
                "request body of {content_length} bytes exceeds the {MAX_BODY_BYTES} byte cap"
            ),
        });
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body).map_err(|_| bad_data("request body is not UTF-8"))?;
    let (path, query_text) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), q),
        None => (target.clone(), ""),
    };
    let query = query_text
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (k.to_owned(), v.to_owned()),
            None => (kv.to_owned(), String::new()),
        })
        .collect();
    Ok(Request { method, path, query, body })
}

fn status_text(code: u16) -> &'static str {
    match code {
        200 => "200 OK",
        400 => "400 Bad Request",
        404 => "404 Not Found",
        405 => "405 Method Not Allowed",
        408 => "408 Request Timeout",
        409 => "409 Conflict",
        413 => "413 Payload Too Large",
        431 => "431 Request Header Fields Too Large",
        _ => "500 Internal Server Error",
    }
}

fn respond(stream: &mut TcpStream, code: u16, ctype: &str, body: &str) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        status_text(code),
        ctype,
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

fn accept_loop(listener: &TcpListener, state: &Arc<ServeState>) {
    for conn in listener.incoming() {
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let state = Arc::clone(state);
        let _ = thread::Builder::new().name("eend-serve-conn".into()).spawn(move || {
            let _ = handle_connection(stream, &state);
        });
    }
}

fn handle_connection(mut stream: TcpStream, state: &Arc<ServeState>) -> io::Result<()> {
    let peer =
        stream.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| "<unknown peer>".to_owned());
    // Supervised: a bug in one request handler costs that connection an
    // error response, never the daemon.
    match catch_unwind(AssertUnwindSafe(|| dispatch(&mut stream, state, &peer))) {
        Ok(result) => result,
        Err(payload) => {
            eprintln!(
                "eend-serve: {peer}: connection handler panicked: {}",
                panic_cause(payload.as_ref())
            );
            respond(&mut stream, 500, "text/plain", "internal error\n")
        }
    }
}

fn dispatch(stream: &mut TcpStream, state: &Arc<ServeState>, peer: &str) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let read = stream.try_clone().map_err(Refused::from);
    let req = match read.and_then(|s| read_request(&mut BufReader::new(s))) {
        Ok(r) => r,
        Err(Refused { code, cause }) => {
            let what = match code {
                408 => "read timed out",
                413 => "oversized request",
                431 => "oversized request line or header",
                _ => "malformed request",
            };
            eprintln!("eend-serve: {peer}: {what}: {cause}");
            return respond(stream, code, "text/plain", &format!("bad request: {cause}\n"));
        }
    };
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", []) => respond(stream, 200, "text/plain", "eend-serve\n"),
        ("POST", ["submit"]) => match submit_impl(state, &req.body) {
            Ok(json) => respond(stream, 200, "application/json", &json),
            Err(e) => {
                eprintln!("eend-serve: {peer}: rejected submit: {e}");
                respond(stream, 400, "text/plain", &format!("error: {e}\n"))
            }
        },
        ("GET", ["status"]) => {
            let body = status_listing(state);
            respond(stream, 200, "application/json", &body)
        }
        ("GET", ["status", fp_hex]) => with_campaign(state, fp_hex, stream, |entry, s| {
            let (done, failed, phase, error) = {
                let p = entry.progress.lock().expect("progress lock poisoned");
                (p.done, p.failed, p.phase, p.error.clone())
            };
            let json = format!(
                "{{\"fingerprint\":\"{:016x}\",\"total\":{},\"done\":{done},\"failed\":{failed},\
                 \"state\":{},\"error\":{},\"workers\":{},\"executed\":{}}}\n",
                entry.fingerprint,
                entry.jobs.len(),
                json_str(state_name(done, entry.jobs.len(), phase, error.is_some())),
                error.as_deref().map(json_str).unwrap_or_else(|| "null".to_owned()),
                state.pool.workers(),
                state.jobs_executed.load(Ordering::SeqCst)
            );
            respond(s, 200, "application/json", &json)
        }),
        ("GET", ["stream", fp_hex]) => {
            let from = match req.query_get("from").map(str::parse::<usize>) {
                None => 0,
                Some(Ok(v)) => v,
                Some(Err(_)) => return respond(stream, 400, "text/plain", "error: bad from=\n"),
            };
            let csv = match req.query_get("format") {
                None | Some("jsonl") => false,
                Some("csv") => true,
                Some(other) => {
                    return respond(
                        stream,
                        400,
                        "text/plain",
                        &format!("error: unknown format {other:?}\n"),
                    )
                }
            };
            with_campaign(state, fp_hex, stream, |entry, s| {
                stream_records(state, &entry, from, csv, s)
            })
        }
        ("GET", ["aggregate", fp_hex]) => {
            with_campaign(state, fp_hex, stream, |entry, s| match aggregate_impl(state, &entry) {
                Ok(body) => respond(s, 200, "application/x-ndjson", &body),
                Err(e) => respond(s, 409, "text/plain", &format!("error: {e}\n")),
            })
        }
        _ => respond(stream, 404, "text/plain", "no such endpoint\n"),
    }
}

/// Resolves `<fp>` path segments, mapping parse failures and unknown
/// fingerprints to 400/404 before `f` runs.
fn with_campaign(
    state: &ServeState,
    fp_hex: &str,
    stream: &mut TcpStream,
    f: impl FnOnce(Arc<CampaignEntry>, &mut TcpStream) -> io::Result<()>,
) -> io::Result<()> {
    let Ok(fp) = u64::from_str_radix(fp_hex, 16) else {
        return respond(stream, 400, "text/plain", &format!("error: bad fingerprint {fp_hex:?}\n"));
    };
    match find_campaign(state, fp) {
        Ok(Some(entry)) => f(entry, stream),
        Ok(None) => respond(
            stream,
            404,
            "text/plain",
            &format!("error: no campaign with fingerprint {fp:016x}\n"),
        ),
        Err(e) => respond(stream, 400, "text/plain", &format!("error: {e}\n")),
    }
}

fn state_name(done: usize, total: usize, phase: Phase, has_error: bool) -> &'static str {
    if done >= total {
        return "done";
    }
    match phase {
        Phase::Queued => "queued",
        Phase::Running => "running",
        Phase::Idle if has_error => "failed",
        Phase::Idle => "partial",
    }
}

// ---------------------------------------------------------------------
// Endpoints.

/// The daemon-wide `GET /status` body: pool size, lifetime job count,
/// and a phase/progress line per registered campaign.
fn status_listing(state: &ServeState) -> String {
    let campaigns: Vec<Arc<CampaignEntry>> =
        state.campaigns.lock().expect("registry lock poisoned").values().cloned().collect();
    let mut body = format!(
        "{{\"workers\":{},\"executed\":{},\"campaigns\":[",
        state.pool.workers(),
        state.jobs_executed.load(Ordering::SeqCst)
    );
    for (i, entry) in campaigns.iter().enumerate() {
        let (done, failed, phase, has_error) = {
            let p = entry.progress.lock().expect("progress lock poisoned");
            (p.done, p.failed, p.phase, p.error.is_some())
        };
        if i > 0 {
            body.push(',');
        }
        let _ = write!(
            body,
            "{{\"fingerprint\":\"{:016x}\",\"total\":{},\"done\":{done},\"failed\":{failed},\
             \"state\":{}}}",
            entry.fingerprint,
            entry.jobs.len(),
            json_str(state_name(done, entry.jobs.len(), phase, has_error))
        );
    }
    body.push_str("]}\n");
    body
}

fn submit_impl(state: &Arc<ServeState>, body: &str) -> io::Result<String> {
    let v = parse_json(body)?;
    let campaign = v.get("campaign")?.str()?;
    if campaign.is_empty() {
        return Err(bad_data("campaign name must not be empty"));
    }
    let axes = SpecAxes::from_jval(v.get("axes")?)?;
    let spec = axes.to_spec(campaign)?;
    if spec.job_count() == 0 {
        return Err(bad_data("spec expands to zero jobs (no stacks?)"));
    }
    let policy = match v.get_opt("on_failure")? {
        None | Some(JVal::Null) => None,
        Some(p) => {
            let label = p.str()?;
            Some(FailurePolicy::parse(label).ok_or_else(|| {
                bad_data(format!("bad on_failure {label:?} (expected abort|skip|retry=N)"))
            })?)
        }
    };
    let entry = register(state, spec, policy)?;
    let (done, phase) = maybe_enqueue(state, &entry);
    let total = entry.jobs.len();
    Ok(format!(
        "{{\"fingerprint\":\"{:016x}\",\"total\":{total},\"done\":{done},\
         \"cached\":{},\"state\":{}}}\n",
        entry.fingerprint,
        done >= total,
        json_str(state_name(done, total, phase, false))
    ))
}

/// Streams records `from..total` as they become durable, rendering
/// each from its published metric row. The store's observer publishes
/// a row only after its record's durable append, so nothing reaches a
/// subscriber that a crash could lose. If the campaign stops (error or
/// shutdown) before all jobs are durable, the body ends early at the
/// last durable record — a reconnect with `?from=` picks up exactly
/// there.
fn stream_records(
    state: &ServeState,
    entry: &CampaignEntry,
    from: usize,
    csv: bool,
    stream: &mut TcpStream,
) -> io::Result<()> {
    let ctype = if csv { "text/csv" } else { "application/x-ndjson" };
    // Close-delimited: no Content-Length, the body ends when the daemon
    // closes the connection.
    let mut out = format!("HTTP/1.1 200 OK\r\nContent-Type: {ctype}\r\nConnection: close\r\n\r\n");
    if csv && from == 0 {
        csv_header_into(&mut out);
    }
    stream.write_all(out.as_bytes())?;
    let mut rows: Vec<MetricRow> = Vec::new();
    let mut next = from;
    while next < entry.jobs.len() {
        // Copy every row durable past `next`, waiting for one if none
        // is (or ending early if the campaign goes idle short of it).
        {
            let mut p = entry.progress.lock().expect("progress lock poisoned");
            while p.done <= next {
                if p.phase == Phase::Idle || state.shutdown.load(Ordering::SeqCst) {
                    return stream.flush();
                }
                let (guard, _) = entry
                    .cv
                    .wait_timeout(p, Duration::from_millis(200))
                    .expect("progress lock poisoned");
                p = guard;
            }
            let durable = p.rows[next..p.done].iter();
            rows.extend(durable.map(|r| r.expect("every row below the durable prefix is set")));
        }
        out.clear();
        for row in rows.drain(..) {
            let point = &entry.jobs[next].point;
            if csv {
                csv_values_into(&mut out, &entry.spec.name, point, &row);
            } else {
                json_values_into(&mut out, &entry.spec.name, point, &row);
                out.push('\n');
            }
            next += 1;
            // Chaos hook: drop the connection after the Nth streamed
            // row, as if the subscriber's network died mid-stream.
            if let Err(e) = eend_fail::io_guard("serve.conn") {
                stream.write_all(out.as_bytes())?;
                return Err(e);
            }
        }
        stream.write_all(out.as_bytes())?;
    }
    stream.flush()
}

fn aggregate_impl(state: &ServeState, entry: &CampaignEntry) -> io::Result<String> {
    let (done, rows) = {
        let p = entry.progress.lock().expect("progress lock poisoned");
        if p.done < entry.jobs.len() {
            return Err(bad_data(format!(
                "campaign incomplete ({}/{} jobs durable) — submit it and poll status to done",
                p.done,
                entry.jobs.len()
            )));
        }
        // Cache keyed on the contiguous durable prefix the body was
        // computed at: records landing later advance the prefix, so a
        // stale entry misses by key and the body is recomputed.
        if let Some((at, body)) = entry.agg_cache.lock().expect("agg cache poisoned").as_ref() {
            if *at == p.done {
                return Ok(body.as_ref().clone());
            }
        }
        let rows: Vec<MetricRow> =
            p.rows.iter().map(|r| r.expect("a complete campaign has every row")).collect();
        (p.done, rows)
    };
    state.aggregates_computed.fetch_add(1, Ordering::SeqCst);
    let summary = Summary::new(&entry.spec, entry.jobs.iter().map(|j| &j.point));
    let mut cells: Vec<Vec<StreamingAggregator>> = (0..summary.cells())
        .map(|_| metric_columns().iter().map(|_| StreamingAggregator::new()).collect())
        .collect();
    for (job, row) in entry.jobs.iter().zip(&rows) {
        let x = summary.x(&job.point);
        for (agg, &v) in cells[summary.cell_of(&job.point)].iter_mut().zip(row) {
            agg.push(&job.point.stack.name, x, v);
        }
    }
    // Restore spec stack order, exactly like CampaignResult::series.
    let order: Vec<&str> = entry.spec.stacks.iter().map(|s| s.name.as_str()).collect();
    let mut out = String::new();
    for (cell, aggs) in cells.into_iter().enumerate() {
        // The cell's other swept axes, keyed as their CSV columns.
        let mut key = String::new();
        for (axis, v) in summary.key(cell) {
            let v = match v {
                AxisValue::Num(v) => json_num(v),
                AxisValue::Label(s) => json_str(s),
            };
            let _ = write!(key, ",\"{}\":{v}", axis.column());
        }
        for ((name, _), agg) in metric_columns().iter().zip(aggs) {
            let mut series = agg.finish();
            series.sort_by_key(|s| order.iter().position(|n| *n == s.label).unwrap_or(usize::MAX));
            for s in series {
                for p in s.points {
                    let _ = writeln!(
                        out,
                        "{{\"metric\":{},\"stack\":{},\"x\":{}{key},\"n\":{},\"mean\":{},\"ci95\":{}}}",
                        json_str(name),
                        json_str(&s.label),
                        json_num(p.x),
                        p.summary.n,
                        json_num(p.summary.mean),
                        json_num(p.summary.ci95_half_width())
                    );
                }
            }
        }
    }
    *entry.agg_cache.lock().expect("agg cache poisoned") = Some((done, Arc::new(out.clone())));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Hands `data` out in chunks of the given sizes, cycled, so a line,
    /// a UTF-8 sequence or a body can be split anywhere.
    struct Chunked<'a> {
        data: &'a [u8],
        sizes: Vec<usize>,
        next: usize,
    }

    impl Read for Chunked<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let size = self.sizes[self.next % self.sizes.len()];
            self.next += 1;
            let n = size.min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    fn read_chunked(data: &[u8], sizes: Vec<usize>) -> Result<Request, Refused> {
        read_request(&mut BufReader::new(Chunked { data, sizes, next: 0 }))
    }

    /// Pieces of requests, so generated inputs reach past the request
    /// line: methods, targets, terminators, headers, lengths, non-ASCII
    /// and invalid UTF-8.
    const PIECES: &[&[u8]] = &[
        b"GET ",
        b"POST ",
        b"/submit",
        b"/stream/00ff?from=1&format",
        b" HTTP/1.1",
        b"\r\n",
        b"\n",
        b"Content-Length: ",
        b"content-length:",
        b"0",
        b"17",
        b"1048577",
        b"-1",
        b": ",
        b"{\"campaign\":1}",
        b"\xc3\xa9",
        b"\xe2\x82",
        b"\xff",
        b" ",
        b"\t",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn any_input_is_a_request_or_a_4xx(
            picks in proptest::collection::vec(0u16..512, 0..48),
            sizes in proptest::collection::vec(1usize..8, 1..16),
        ) {
            // Half the picks are raw bytes, half are request pieces.
            let mut data = Vec::new();
            for pick in picks {
                match u8::try_from(pick) {
                    Ok(byte) => data.push(byte),
                    Err(_) => data.extend_from_slice(PIECES[usize::from(pick) % PIECES.len()]),
                }
            }
            if let Err(r) = read_chunked(&data, sizes) {
                prop_assert!((400..500).contains(&r.code), "{} for {data:?}: {}", r.code, r.cause);
            }
        }

        #[test]
        fn a_line_over_the_cap_is_refused_with_431(
            len in MAX_LINE_BYTES..3 * MAX_LINE_BYTES,
            in_header in 0usize..2,
            fill in proptest::collection::vec(0usize..4, 1..8),
            sizes in proptest::collection::vec(1usize..8, 1..16),
        ) {
            // A line of at least `len` bytes of 1-4 byte characters, so a
            // character can straddle the cap.
            let mut long = String::new();
            while long.len() < len {
                long.push(['a', '\u{e9}', '\u{20ac}', '\u{1d11e}'][fill[long.len() % fill.len()]]);
            }
            let data = if in_header == 1 {
                format!("GET / HTTP/1.1\r\nX-Long: {long}\r\n\r\n")
            } else {
                format!("GET /{long} HTTP/1.1\r\n\r\n")
            };
            match read_chunked(data.as_bytes(), sizes) {
                Ok(_) => prop_assert!(false, "a {len}-byte line was accepted"),
                Err(r) => prop_assert_eq!(r.code, 431, "{}", r.cause),
            }
        }
    }

    #[test]
    fn a_chunked_request_reads_whole() {
        let data = b"POST /submit?a=b&c HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
        let r = read_chunked(data, vec![1, 7, 3]).unwrap_or_else(|r| panic!("{}", r.cause));
        assert_eq!((r.method.as_str(), r.path.as_str()), ("POST", "/submit"));
        assert_eq!(r.body, "body");
        assert_eq!((r.query_get("a"), r.query_get("c")), (Some("b"), Some("")));
    }
}
