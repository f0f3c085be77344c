//! Campaign job scheduling: containment, in-order delivery, and the one
//! claim-gated pool both schedulers share.
//!
//! Every job is an independent, deterministic simulation, and results
//! reach the caller in job-index order, so the output is byte-identical
//! for any worker count — the property the parallel-equals-serial
//! regression tests pin.
//!
//! - [`Executor`] runs one call's jobs. At one worker they run in a
//!   plain loop on the calling thread, the serial reference. At two or
//!   more it starts a [`WorkerPool`] for the call and joins it before
//!   returning.
//! - [`WorkerPool`] threads claim jobs under a claim gate — job `i` only
//!   once `i < emitted + window` — so out-of-order completions wait in a
//!   reorder buffer of fewer than `window` results. Peak memory of a
//!   streamed campaign is O(window), not O(jobs). The daemon shares one
//!   long-lived pool across every active campaign.
//! - Both run each job under one containment function (`catch_unwind`,
//!   retry with backoff per [`FailurePolicy`]) and hand outcomes over
//!   through one delivery step, so a panic in a job or in a caller's
//!   callback unwinds the same way at every worker count.
//! - [`Executor::par_map`] is a plain scoped fork-join for closures that
//!   are not campaign jobs; it returns every result, in index order.

use crate::report::{CampaignResult, Record};
use crate::sink::{MemorySink, RecordSink};
use crate::spec::Job;
use eend_wireless::Simulator;
use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

/// Deterministic exponential backoff between retry attempts:
/// `delay(attempt) = base_ms << (attempt - 1)`, capped at
/// [`Backoff::CAP_MS`]. A `base_ms` of 0 never sleeps, which is what
/// chaos tests use to keep retries wall-clock free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    /// Delay before the first retry, in milliseconds.
    pub base_ms: u64,
}

impl Backoff {
    /// Upper bound on any single retry delay.
    pub const CAP_MS: u64 = 5_000;

    /// No delay between attempts (deterministic-test mode).
    pub const fn none() -> Backoff {
        Backoff { base_ms: 0 }
    }

    /// The delay after the `attempt`-th failure (1-based).
    pub fn delay(&self, attempt: u32) -> Duration {
        if self.base_ms == 0 {
            return Duration::ZERO;
        }
        let shift = attempt.saturating_sub(1).min(32);
        Duration::from_millis(self.base_ms.saturating_mul(1u64 << shift).min(Self::CAP_MS))
    }
}

impl Default for Backoff {
    fn default() -> Backoff {
        Backoff { base_ms: 100 }
    }
}

/// What a campaign run does when a job panics.
///
/// [`FailurePolicy::Abort`] is today's behaviour and the default: the
/// panic propagates out of the executor exactly as before this type
/// existed. The containment policies turn a panic into a structured
/// [`JobFailure`] delivered to the caller's failure callback instead.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum FailurePolicy {
    /// Propagate the panic; the campaign dies (the pre-PR-8 behaviour).
    #[default]
    Abort,
    /// Record the failure and keep going with the remaining jobs.
    Skip,
    /// Re-run the job up to `max_attempts` times total, sleeping
    /// `backoff.delay(k)` after the k-th failure; exhausting every
    /// attempt degrades to [`FailurePolicy::Skip`] for that job.
    Retry {
        /// Total attempts per job (clamped to at least 1).
        max_attempts: u32,
        /// Delay schedule between attempts.
        backoff: Backoff,
    },
}

impl FailurePolicy {
    /// `Retry` with the default backoff schedule.
    pub fn retry(max_attempts: u32) -> FailurePolicy {
        FailurePolicy::Retry { max_attempts, backoff: Backoff::default() }
    }

    /// Parses the CLI / manifest label grammar:
    /// `abort` | `skip` | `retry=N` | `retry=N:BASE_MS`.
    pub fn parse(s: &str) -> Option<FailurePolicy> {
        match s {
            "abort" => Some(FailurePolicy::Abort),
            "skip" => Some(FailurePolicy::Skip),
            _ => {
                let n = s.strip_prefix("retry=")?;
                let (attempts, base) = match n.split_once(':') {
                    Some((a, b)) => (a, Some(b)),
                    None => (n, None),
                };
                let max_attempts: u32 = attempts.parse().ok().filter(|&a| a >= 1)?;
                let backoff = match base {
                    Some(b) => Backoff { base_ms: b.parse().ok()? },
                    None => Backoff::default(),
                };
                Some(FailurePolicy::Retry { max_attempts, backoff })
            }
        }
    }

    /// The label [`FailurePolicy::parse`] round-trips: what manifests and
    /// submit bodies store.
    pub fn label(&self) -> String {
        match self {
            FailurePolicy::Abort => "abort".to_string(),
            FailurePolicy::Skip => "skip".to_string(),
            FailurePolicy::Retry { max_attempts, backoff } => {
                if *backoff == Backoff::default() {
                    format!("retry={max_attempts}")
                } else {
                    format!("retry={max_attempts}:{}", backoff.base_ms)
                }
            }
        }
    }

    /// Total attempts a job gets under this policy.
    pub(crate) fn attempts(&self) -> u32 {
        match self {
            FailurePolicy::Abort | FailurePolicy::Skip => 1,
            FailurePolicy::Retry { max_attempts, .. } => (*max_attempts).max(1),
        }
    }

    /// The sleep after the `attempt`-th failure (zero unless retrying).
    pub(crate) fn backoff_delay(&self, attempt: u32) -> Duration {
        match self {
            FailurePolicy::Retry { backoff, .. } => backoff.delay(attempt),
            _ => Duration::ZERO,
        }
    }
}

/// A job that panicked on every attempt its policy allowed, contained
/// into data instead of an unwinding stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// The job's global index within the campaign grid ([`Job::index`]).
    pub job_id: usize,
    /// How many attempts were made before giving up.
    pub attempts: u32,
    /// The panic payload, stringified.
    pub cause: String,
}

/// The outcome of one contained job execution.
#[derive(Debug)]
pub(crate) enum JobOutcome {
    /// The job produced its record (possibly after retries).
    Done(Box<Record>),
    /// The job panicked on every permitted attempt.
    Failed(JobFailure),
}

/// Renders a panic payload (the `Box<dyn Any>` from `catch_unwind`) as a
/// human-readable cause string.
pub fn panic_cause(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one job under a containment policy: `catch_unwind` around every
/// attempt, a retry loop with deterministic backoff, and a structured
/// failure when the attempts run out ([`FailurePolicy::Abort`] allows
/// one). A panic never leaves this function, so a pool worker survives
/// any job; [`deliver`] re-raises it under `Abort`.
fn run_job_contained(job: &Job, policy: &FailurePolicy) -> JobOutcome {
    let attempts = policy.attempts();
    let mut cause = String::new();
    for attempt in 1..=attempts {
        let result = catch_unwind(AssertUnwindSafe(|| {
            // Chaos hook: matches on the *global* job index, so it fires
            // on the same logical job under any worker count.
            if eend_fail::hit_at("job.run", job.index as u64).is_some() {
                panic!("failpoint job.run fired (job {})", job.index);
            }
            Record { point: job.point.clone(), metrics: Simulator::new(&job.scenario).run() }
        }));
        match result {
            Ok(record) => return JobOutcome::Done(Box::new(record)),
            Err(payload) => {
                cause = panic_cause(payload.as_ref());
                if attempt < attempts {
                    let delay = policy.backoff_delay(attempt);
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                }
            }
        }
    }
    JobOutcome::Failed(JobFailure { job_id: job.index, attempts, cause })
}

/// Hands job `i`'s outcome to the caller — the in-order delivery step of
/// both the serial loop and the pool's consumer. Under
/// [`FailurePolicy::Abort`] a failed job re-raises its cause on the
/// calling thread; `resume_unwind` skips the panic hook, which already
/// reported the panic where it happened.
fn deliver(
    i: usize,
    outcome: JobOutcome,
    policy: &FailurePolicy,
    on_record: &mut dyn FnMut(usize, &Record) -> std::io::Result<()>,
    on_failure: &mut dyn FnMut(&JobFailure) -> std::io::Result<()>,
) -> std::io::Result<()> {
    match outcome {
        JobOutcome::Done(record) => on_record(i, &record),
        JobOutcome::Failed(failure) => {
            if matches!(policy, FailurePolicy::Abort) {
                resume_unwind(Box::new(failure.cause));
            }
            on_failure(&failure)
        }
    }
}

/// A bounded worker pool for campaign jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    workers: usize,
}

impl Executor {
    /// A pool bounded at the machine's available parallelism (never less
    /// than one worker).
    pub fn bounded() -> Executor {
        Executor {
            workers: std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1),
        }
    }

    /// A pool with exactly `workers` workers (clamped to at least 1).
    /// `with_workers(1)` is the serial reference execution.
    pub fn with_workers(workers: usize) -> Executor {
        Executor { workers: workers.max(1) }
    }

    /// The worker bound this executor runs with.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The default reorder window for [`Executor::run_streaming`]: deep
    /// enough that a straggler never idles the pool, shallow enough that
    /// buffered results stay O(workers).
    pub fn default_window(&self) -> usize {
        self.workers * 4
    }

    /// Runs `f(0..n)` on up to `workers` scoped threads and returns the
    /// results in index order. Threads claim indices from a shared
    /// counter, so a slow index never stalls the others; at one worker
    /// the closure runs inline on the calling thread. A panic in `f`
    /// re-raises on the caller once every thread has stopped.
    pub fn par_map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.workers.min(n);
        if workers <= 1 {
            return (0..n).map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let mut done: Vec<(usize, T)> = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut mine = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                return mine;
                            }
                            mine.push((i, f(i)));
                        }
                    })
                })
                .collect();
            threads
                .into_iter()
                .flat_map(|t| t.join().unwrap_or_else(|payload| resume_unwind(payload)))
                .collect()
        });
        done.sort_unstable_by_key(|&(i, _)| i);
        done.into_iter().map(|(_, v)| v).collect()
    }

    /// Simulates every job, pushing one [`Record`] per job into `sink`
    /// **in job order** as workers complete. Peak memory is
    /// O([`Executor::default_window`]) records plus whatever the sink
    /// retains — a streaming sink (CSV/JSONL/store) keeps a grid of any
    /// size out of RAM. A panicking job re-raises on the caller.
    pub fn run_streaming(&self, jobs: &[Job], sink: &mut dyn RecordSink) -> std::io::Result<()> {
        self.run_jobs_streaming(
            jobs,
            self.default_window(),
            &FailurePolicy::Abort,
            &mut |_, record| sink.accept(record),
            &mut |_| unreachable!("`Abort` re-raises a failed job"),
        )?;
        sink.finish()
    }

    /// Simulates every job and returns one [`Record`] per job, in job
    /// order (a [`MemorySink`] over the streaming path). The window spans
    /// the whole list: every record is kept anyway, so no worker waits
    /// on a straggler.
    pub fn run_jobs(&self, jobs: &[Job]) -> Vec<Record> {
        let mut sink = MemorySink::new();
        self.run_jobs_streaming(
            jobs,
            jobs.len(),
            &FailurePolicy::Abort,
            &mut |_, record| sink.accept(record),
            &mut |_| unreachable!("`Abort` re-raises a failed job"),
        )
        .expect("in-memory sink cannot fail");
        sink.into_records()
    }

    /// Expands and runs a whole campaign: [`crate::CampaignSpec::expand`]
    /// followed by [`Executor::run_jobs`], wrapped into a
    /// [`CampaignResult`].
    pub fn run(&self, spec: &crate::CampaignSpec) -> CampaignResult {
        let jobs = spec.expand();
        CampaignResult { campaign: spec.name.clone(), records: self.run_jobs(&jobs) }
    }
}

// ---------------------------------------------------------------------
// Scheduling: a serial loop, or a claim-gated pool.

/// Anything that can execute a job list with policy-aware, in-order
/// streaming delivery — the seam between the result store and the two
/// execution backends: [`Executor`], which runs one call's jobs on its
/// own pool, and [`WorkerPool`], one long-lived pool shared by every
/// concurrent campaign.
///
/// Implementations must deliver callbacks **in job-index order on the
/// calling thread**: that ordering is what makes every store's
/// `records.jsonl` byte-identical to a solo serial run no matter how
/// jobs interleave across campaigns.
pub trait JobScheduler {
    /// The worker bound jobs run under.
    fn workers(&self) -> usize;

    /// The reorder window used when the caller has no preference (same
    /// shape as [`Executor::default_window`]).
    fn default_window(&self) -> usize {
        self.workers() * 4
    }

    /// Runs every job of `jobs` under `policy`, delivering
    /// `on_record(i, record)` / `on_failure(failure)` in job-index
    /// order on the calling thread. The first callback error aborts
    /// the stream (no further jobs are claimed) and is returned. Under
    /// [`FailurePolicy::Abort`] a panicking job re-raises on the
    /// calling thread with its original cause.
    fn run_jobs_streaming(
        &self,
        jobs: &[Job],
        window: usize,
        policy: &FailurePolicy,
        on_record: &mut dyn FnMut(usize, &Record) -> std::io::Result<()>,
        on_failure: &mut dyn FnMut(&JobFailure) -> std::io::Result<()>,
    ) -> std::io::Result<()>;
}

impl JobScheduler for Executor {
    fn workers(&self) -> usize {
        self.workers
    }

    /// At one worker (or one job) the jobs run in a plain loop on the
    /// calling thread: the serial reference. Otherwise a [`WorkerPool`]
    /// of `min(workers, jobs)` threads serves this call alone; it is
    /// dropped, and its threads joined, before the call returns or
    /// unwinds.
    fn run_jobs_streaming(
        &self,
        jobs: &[Job],
        window: usize,
        policy: &FailurePolicy,
        on_record: &mut dyn FnMut(usize, &Record) -> std::io::Result<()>,
        on_failure: &mut dyn FnMut(&JobFailure) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        let workers = self.workers.min(jobs.len());
        if workers <= 1 {
            for (i, job) in jobs.iter().enumerate() {
                deliver(i, run_job_contained(job, policy), policy, on_record, on_failure)?;
            }
            return Ok(());
        }
        WorkerPool::new(workers).run_jobs_streaming(jobs, window, policy, on_record, on_failure)
    }
}

/// One registered job stream inside the shared pool: a campaign's
/// pending jobs plus its claim/gate cursors. All fields are guarded by
/// the pool's single mutex — claims and cursor advances are rare next
/// to the simulations they schedule.
struct PoolTask {
    id: u64,
    jobs: Arc<Vec<Job>>,
    policy: FailurePolicy,
    window: usize,
    /// Next job index a worker may claim.
    next_claim: usize,
    /// The consumer's in-order emission cursor; the claim gate allows
    /// `next_claim < emitted + window`.
    emitted: usize,
    /// Results travel back to the registering consumer thread.
    tx: mpsc::Sender<(usize, JobOutcome)>,
}

impl PoolTask {
    fn claimable(&self) -> bool {
        self.next_claim < self.jobs.len() && self.next_claim < self.emitted + self.window
    }
}

struct PoolState {
    tasks: Vec<PoolTask>,
    /// Round-robin cursor: each claim starts scanning at the task after
    /// the previously claimed one, so runnable campaigns share workers
    /// per-claim and a huge campaign cannot starve a small one.
    rr: usize,
    next_id: u64,
    shutdown: bool,
    /// The task id of every claim, in claim order: what the fairness
    /// test asserts on, free of when consumer threads get scheduled.
    #[cfg(test)]
    claims: Vec<u64>,
}

struct PoolShared {
    workers: usize,
    state: Mutex<PoolState>,
    /// Workers wait here when no task is claimable; notified on task
    /// registration, emission-cursor advance, task removal, shutdown.
    work_cv: Condvar,
}

/// A bounded worker pool that multiplexes **every active campaign**
/// onto one set of OS threads — the daemon's long-lived scheduler, and
/// the per-call pool behind [`Executor`] at two or more workers.
///
/// Each [`WorkerPool::run_jobs_streaming`] call registers a *task* (one
/// campaign's pending jobs). Idle workers claim jobs round-robin across
/// runnable tasks — one claim, next task — so K runnable campaigns each
/// get ~1/K of the pool (fair share) and a lone campaign gets all of it
/// (work conserving). Every task keeps its own claim-gated reorder
/// window: a worker may claim job `i` only once `i < emitted + window`,
/// so fewer than `window` finished results ever wait in the reorder
/// buffer, however slow the job at the emission cursor. Results are
/// reassembled **in job-index order on the registering thread**, so
/// each campaign's durable output is byte-identical to a solo serial
/// run regardless of interleaving.
///
/// Failure isolation: jobs always run under `catch_unwind` on pool
/// threads. A campaign whose policy is [`FailurePolicy::Abort`]
/// re-raises the panic on its *own* consumer thread. When the consumer
/// leaves — by a callback error, a job's re-raised panic or a panic in
/// a callback — its task deregisters, releasing its claim on the pool
/// immediately (no zombie slots) while other campaigns keep running.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("workers", &self.shared.workers).finish()
    }
}

/// Deregisters a task when its consumer leaves `run_jobs_streaming` —
/// normally, on a callback error, or during an unwind — so the pool
/// stops claiming its jobs the moment the campaign dies.
struct TaskGuard<'a> {
    shared: &'a PoolShared,
    id: u64,
}

impl Drop for TaskGuard<'_> {
    fn drop(&mut self) {
        let mut s = self.shared.state.lock().unwrap_or_else(|p| p.into_inner());
        s.tasks.retain(|t| t.id != self.id);
        drop(s);
        self.shared.work_cv.notify_all();
    }
}

fn pool_worker_loop(shared: &PoolShared) {
    let mut state = shared.state.lock().unwrap_or_else(|p| p.into_inner());
    loop {
        if state.shutdown {
            return;
        }
        let len = state.tasks.len();
        let claim =
            (0..len).map(|off| (state.rr + off) % len.max(1)).find(|&k| state.tasks[k].claimable());
        let Some(k) = claim else {
            state = shared.work_cv.wait(state).unwrap_or_else(|p| p.into_inner());
            continue;
        };
        let t = &mut state.tasks[k];
        let i = t.next_claim;
        t.next_claim += 1;
        let (jobs, policy, tx) = (Arc::clone(&t.jobs), t.policy.clone(), t.tx.clone());
        state.rr = (k + 1) % len;
        #[cfg(test)]
        {
            let id = state.tasks[k].id;
            state.claims.push(id);
        }
        drop(state);
        let outcome = run_job_contained(&jobs[i], &policy);
        // A send failure means the consumer is gone (cancelled or
        // unwound); the task is already deregistered, drop the result.
        let _ = tx.send((i, outcome));
        state = shared.state.lock().unwrap_or_else(|p| p.into_inner());
    }
}

impl WorkerPool {
    /// Starts a pool of exactly `workers` threads (clamped to at
    /// least 1), named `eend-pool-worker`.
    pub fn new(workers: usize) -> WorkerPool {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            workers,
            state: Mutex::new(PoolState {
                tasks: Vec::new(),
                rr: 0,
                next_id: 0,
                shutdown: false,
                #[cfg(test)]
                claims: Vec::new(),
            }),
            work_cv: Condvar::new(),
        });
        let threads = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name("eend-pool-worker".into())
                    .spawn(move || pool_worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, threads: Mutex::new(threads) }
    }

    /// Stops the pool: running jobs finish (their results are dropped
    /// if their consumer is gone), registered tasks are cancelled (a
    /// consumer blocked on results gets an error), and every worker
    /// thread is joined. Idempotent.
    pub fn shutdown(&self) {
        let mut s = self.shared.state.lock().unwrap_or_else(|p| p.into_inner());
        s.shutdown = true;
        // Dropping the registry's senders fails pending consumers'
        // `recv` over to the shutdown error path.
        s.tasks.clear();
        drop(s);
        self.shared.work_cv.notify_all();
        let threads = std::mem::take(&mut *self.threads.lock().unwrap_or_else(|p| p.into_inner()));
        for t in threads {
            let _ = t.join();
        }
    }

    /// Tasks currently registered (campaigns with jobs still being
    /// claimed or emitted) — observability for status endpoints and the
    /// no-zombie-slots tests.
    pub fn active_tasks(&self) -> usize {
        self.shared.state.lock().unwrap_or_else(|p| p.into_inner()).tasks.len()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl JobScheduler for WorkerPool {
    fn workers(&self) -> usize {
        self.shared.workers
    }

    fn run_jobs_streaming(
        &self,
        jobs: &[Job],
        window: usize,
        policy: &FailurePolicy,
        on_record: &mut dyn FnMut(usize, &Record) -> std::io::Result<()>,
        on_failure: &mut dyn FnMut(&JobFailure) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        let n = jobs.len();
        if n == 0 {
            return Ok(());
        }
        let window = window.max(1);
        let (tx, rx) = mpsc::channel::<(usize, JobOutcome)>();
        let id = {
            let mut s = self.shared.state.lock().unwrap_or_else(|p| p.into_inner());
            if s.shutdown {
                return Err(std::io::Error::other("worker pool is shut down"));
            }
            let id = s.next_id;
            s.next_id += 1;
            s.tasks.push(PoolTask {
                id,
                jobs: Arc::new(jobs.to_vec()),
                policy: policy.clone(),
                window,
                next_claim: 0,
                emitted: 0,
                tx,
            });
            id
        };
        self.shared.work_cv.notify_all();
        let _guard = TaskGuard { shared: &self.shared, id };
        let mut pending: BTreeMap<usize, JobOutcome> = BTreeMap::new();
        let mut next_emit = 0usize;
        while next_emit < n {
            let Ok((i, outcome)) = rx.recv() else {
                // Every sender is gone with jobs outstanding: the pool
                // was shut down under this campaign.
                return Err(std::io::Error::other("worker pool shut down mid-campaign"));
            };
            pending.insert(i, outcome);
            let before = next_emit;
            // `_guard` releases this task's pool slots if a callback
            // error, a re-raised job panic or a callback panic leaves here.
            while let Some(outcome) = pending.remove(&next_emit) {
                deliver(next_emit, outcome, policy, on_record, on_failure)?;
                next_emit += 1;
            }
            // Every claim satisfied `i < emitted + window` with
            // `emitted <= next_emit`, and `next_emit` itself is not
            // pending: the buffer holds fewer than `window` results.
            debug_assert!(
                pending.len() < window,
                "reorder buffer exceeded its bound: {} >= {window}",
                pending.len()
            );
            if next_emit > before {
                let mut s = self.shared.state.lock().unwrap_or_else(|p| p.into_inner());
                if let Some(t) = s.tasks.iter_mut().find(|t| t.id == id) {
                    t.emitted = next_emit;
                }
                drop(s);
                self.shared.work_cv.notify_all();
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eend_sim::{SimDuration, SimTime};
    use proptest::prelude::*;

    #[test]
    fn par_map_preserves_index_order() {
        for workers in [1, 2, 3, 8, 64] {
            let out = Executor::with_workers(workers).par_map(100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>(), "workers={workers}");
        }
    }

    #[test]
    fn par_map_empty_and_oversized_pools() {
        let ex = Executor::with_workers(16);
        assert!(ex.par_map(0, |i| i).is_empty());
        // More workers than jobs: every job still runs exactly once.
        assert_eq!(ex.par_map(3, |i| i + 1), vec![1, 2, 3]);
    }

    #[test]
    fn par_map_panic_propagates() {
        let result = catch_unwind(|| {
            Executor::with_workers(3).par_map(50, |i| {
                if i == 7 {
                    panic!("closure 7 exploded");
                }
                i
            })
        });
        let payload = result.expect_err("the closure's panic must reach the caller");
        assert_eq!(panic_cause(payload.as_ref()), "closure 7 exploded");
    }

    #[test]
    fn worker_count_is_bounded() {
        // Track the peak number of concurrently-live closures: it must
        // never exceed the configured bound even with many more jobs.
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let bound = 3;
        Executor::with_workers(bound).par_map(64, |i| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_micros(200));
            live.fetch_sub(1, Ordering::SeqCst);
            i
        });
        assert!(
            peak.load(Ordering::SeqCst) <= bound,
            "peak {} > bound {bound}",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        assert_eq!(Executor::with_workers(0).workers(), 1);
        assert!(Executor::bounded().workers() >= 1);
    }

    #[test]
    fn streaming_matches_run_jobs_byte_for_byte() {
        use crate::sink::{CsvSink, JsonlSink};
        use crate::{BaseScenario, CampaignSpec};
        use eend_wireless::stacks;

        let spec = CampaignSpec::new("stream", BaseScenario::Small)
            .stacks(vec![stacks::titan_pc(), stacks::dsr_active()])
            .rates(vec![2.0, 4.0])
            .seeds(2)
            .secs(20);
        let jobs = spec.expand();
        let reference = crate::CampaignResult {
            campaign: spec.name.clone(),
            records: Executor::with_workers(1).run_jobs(&jobs),
        };
        for workers in [1, 2, 5] {
            let ex = Executor::with_workers(workers);
            let mut csv = CsvSink::new(&spec.name, Vec::new());
            ex.run_streaming(&jobs, &mut csv).unwrap();
            assert_eq!(
                String::from_utf8(csv.into_inner()).unwrap(),
                reference.to_csv(),
                "streamed CSV differs at {workers} workers"
            );
            let mut jsonl = JsonlSink::new(&spec.name, Vec::new());
            ex.run_streaming(&jobs, &mut jsonl).unwrap();
            assert_eq!(String::from_utf8(jsonl.into_inner()).unwrap().lines().count(), jobs.len());
        }
    }

    #[test]
    fn sink_errors_surface_from_run_streaming() {
        use crate::{BaseScenario, CampaignSpec};
        use eend_wireless::stacks;

        struct Failing;
        impl crate::sink::RecordSink for Failing {
            fn accept(&mut self, _: &Record) -> std::io::Result<()> {
                Err(std::io::Error::other("disk full"))
            }
        }
        let jobs = CampaignSpec::new("err", BaseScenario::Small)
            .stacks(vec![stacks::dsr_active()])
            .rates(vec![2.0])
            .seeds(2)
            .secs(10)
            .expand();
        let err = Executor::with_workers(2).run_streaming(&jobs, &mut Failing).unwrap_err();
        assert_eq!(err.to_string(), "disk full");
    }

    #[test]
    fn failure_policy_labels_round_trip() {
        for policy in [
            FailurePolicy::Abort,
            FailurePolicy::Skip,
            FailurePolicy::retry(3),
            FailurePolicy::Retry { max_attempts: 5, backoff: Backoff::none() },
            FailurePolicy::Retry { max_attempts: 2, backoff: Backoff { base_ms: 250 } },
        ] {
            assert_eq!(FailurePolicy::parse(&policy.label()), Some(policy.clone()), "{policy:?}");
        }
        assert_eq!(FailurePolicy::parse("retry=3").unwrap().label(), "retry=3");
        assert_eq!(FailurePolicy::parse("retry=3:0").unwrap().label(), "retry=3:0");
        assert_eq!(FailurePolicy::parse("retry=0"), None);
        assert_eq!(FailurePolicy::parse("retry="), None);
        assert_eq!(FailurePolicy::parse("sometimes"), None);
        assert_eq!(FailurePolicy::parse("retry=4294967296"), None, "attempts beyond u32");
        assert_eq!(FailurePolicy::parse("retry=1:18446744073709551616"), None, "base beyond u64");
        assert_eq!(FailurePolicy::default(), FailurePolicy::Abort);
    }

    /// Pieces of the policy label grammar, mixed with raw bytes by
    /// `any_string_parses_to_a_policy_or_none`.
    const POLICY_PIECES: &[&str] = &[
        "abort",
        "skip",
        "retry=",
        "retry",
        "=",
        ":",
        "0",
        "1",
        "7",
        "+",
        "-",
        " ",
        "4294967295",
        "4294967296",
        "18446744073709551615",
        "18446744073709551616",
        "\u{e9}",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn any_policy_label_parses_back_to_the_policy(
            kind in 0u8..3,
            max_attempts in 1u32..u32::MAX,
            base_ms in proptest::option::of(0u64..u64::MAX),
        ) {
            let policy = match kind {
                0 => FailurePolicy::Abort,
                1 => FailurePolicy::Skip,
                _ => FailurePolicy::Retry {
                    max_attempts,
                    backoff: base_ms.map_or(Backoff::default(), |base_ms| Backoff { base_ms }),
                },
            };
            prop_assert_eq!(FailurePolicy::parse(&policy.label()), Some(policy));
        }

        #[test]
        fn any_string_parses_to_a_policy_or_none(
            picks in proptest::collection::vec(0u16..512, 0..12),
        ) {
            // Half the picks are raw bytes, half are grammar pieces.
            let mut bytes = Vec::new();
            for pick in picks {
                match u8::try_from(pick) {
                    Ok(byte) => bytes.push(byte),
                    Err(_) => bytes.extend_from_slice(
                        POLICY_PIECES[usize::from(pick) % POLICY_PIECES.len()].as_bytes(),
                    ),
                }
            }
            let text = String::from_utf8_lossy(&bytes);
            if let Some(policy) = FailurePolicy::parse(&text) {
                // Whatever parses has a label that parses back to it.
                prop_assert_eq!(FailurePolicy::parse(&policy.label()), Some(policy));
            }
        }
    }

    #[test]
    fn backoff_is_deterministic_exponential_and_capped() {
        let b = Backoff { base_ms: 100 };
        let ms: Vec<u64> = (1..=8).map(|a| b.delay(a).as_millis() as u64).collect();
        assert_eq!(ms, vec![100, 200, 400, 800, 1600, 3200, 5000, 5000]);
        // base 0 never sleeps — the wall-clock-free test mode.
        assert_eq!(Backoff::none().delay(1), Duration::ZERO);
        assert_eq!(Backoff::none().delay(40), Duration::ZERO);
        // Huge attempt counts must not overflow the shift.
        assert_eq!(b.delay(u32::MAX).as_millis() as u64, Backoff::CAP_MS);
    }

    /// A small real job list for the scheduler tests.
    fn pool_jobs(name: &str, seeds: u64) -> Vec<Job> {
        use crate::{BaseScenario, CampaignSpec};
        use eend_wireless::stacks;
        CampaignSpec::new(name, BaseScenario::Small)
            .stacks(vec![stacks::titan_pc()])
            .rates(vec![2.0])
            .seeds(seeds)
            .secs(10)
            .expand()
    }

    /// Streams `jobs` under `Abort`, collecting `(index, record)` in
    /// delivery order.
    fn collect_run(
        scheduler: &dyn JobScheduler,
        jobs: &[Job],
        window: usize,
    ) -> Vec<(usize, Record)> {
        let mut got = Vec::new();
        scheduler
            .run_jobs_streaming(
                jobs,
                window,
                &FailurePolicy::Abort,
                &mut |i, r| {
                    got.push((i, r.clone()));
                    Ok(())
                },
                &mut |f| Err(std::io::Error::other(format!("unexpected failure: {}", f.cause))),
            )
            .unwrap();
        got
    }

    /// `pool_jobs` with job 0 simulating `secs` seconds instead of 10:
    /// a straggler that later jobs finish before.
    fn with_straggler(mut jobs: Vec<Job>, secs: u64) -> Vec<Job> {
        jobs[0].scenario.duration = SimDuration::from_secs(secs);
        jobs
    }

    /// Runs `f` on its own thread and fails the test if no result arrives
    /// within a minute, so a scheduler that hangs fails instead of
    /// stalling the test binary. The thread is not joined: a hung one
    /// never would be.
    fn within_a_minute<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(Duration::from_secs(60)).unwrap_or_else(|e| panic!("no result: {e}"))
    }

    #[test]
    fn executor_emits_in_order_behind_a_straggler() {
        // Job 0 has the longest horizon by far: later jobs complete first
        // and wait in the reorder buffer, yet delivery is 0, 1, 2, ...
        let jobs = with_straggler(pool_jobs("straggler", 12), 300);
        let reference = Executor::with_workers(1).run_jobs(&jobs);
        for window in [2, 8] {
            let got = collect_run(&Executor::with_workers(4), &jobs, window);
            let order: Vec<usize> = got.iter().map(|(i, _)| *i).collect();
            assert_eq!(order, (0..jobs.len()).collect::<Vec<_>>(), "window {window}");
            assert!(got.iter().map(|(_, r)| r).eq(&reference), "records differ (window {window})");
        }
    }

    #[test]
    fn tight_windows_keep_the_reorder_buffer_bounded() {
        // The pool's consumer asserts (in debug builds, which `cargo
        // test` uses) that fewer than `window` results ever wait in its
        // reorder buffer; a straggler at the emission cursor pushes the
        // buffer against that bound at every worker count.
        let jobs = with_straggler(pool_jobs("bound", 10), 120);
        for workers in 2..=4 {
            for window in 1..=3 {
                let got = collect_run(&Executor::with_workers(workers), &jobs, window);
                assert_eq!(got.len(), jobs.len(), "workers {workers}, window {window}");
            }
        }
    }

    #[test]
    fn consumer_error_stops_claiming_at_once() {
        // Jobs 0 and 1 fill a window of 2; every later job simulates
        // 10^7 s, far longer than the watchdog waits. The consumer
        // refuses the first record, so the emission cursor never moves
        // past 0, no later job may be claimed, and the call returns
        // without waiting on one. Job 0 straggles, so every worker is
        // idle and free to claim before its record arrives.
        let mut jobs = with_straggler(pool_jobs("consumer-err", 8), 300);
        for job in &mut jobs[2..] {
            job.scenario.duration = SimDuration::from_secs(10_000_000);
        }
        let err = within_a_minute(move || {
            Executor::with_workers(3)
                .run_jobs_streaming(
                    &jobs,
                    2,
                    &FailurePolicy::Abort,
                    &mut |_, _| Err(std::io::Error::other("disk full")),
                    &mut |_| Ok(()),
                )
                .unwrap_err()
        });
        assert_eq!(err.to_string(), "disk full");
    }

    #[test]
    fn abort_panic_propagates_under_a_tight_window() {
        // Job 0 straggles while job 1 panics (its failure plan kills a
        // node the network lacks): the other workers wait at the claim
        // gate until the consumer reaches job 1 and re-raises its cause
        // on the calling thread.
        let mut jobs = with_straggler(pool_jobs("abort", 8), 300);
        jobs[1].scenario.node_failures = vec![(SimTime::ZERO, 10_000)];
        let cause = within_a_minute(move || {
            let result = catch_unwind(AssertUnwindSafe(|| {
                Executor::with_workers(4).run_jobs_streaming(
                    &jobs,
                    2,
                    &FailurePolicy::Abort,
                    &mut |_, _| Ok(()),
                    &mut |_| Ok(()),
                )
            }));
            panic_cause(result.expect_err("the job's panic must reach the caller").as_ref())
        });
        assert!(cause.contains("unknown node 10000"), "cause: {cause}");
    }

    #[test]
    fn pool_emits_in_order_and_matches_a_private_executor() {
        let jobs = pool_jobs("pool-order", 6);
        let reference = Executor::with_workers(1).run_jobs(&jobs);
        for workers in [1, 3] {
            let pool = WorkerPool::new(workers);
            // A tight window forces the claim gate and reorder buffer
            // to engage.
            let got = collect_run(&pool, &jobs, 2);
            assert_eq!(got.len(), jobs.len(), "workers={workers}");
            for (k, (i, record)) in got.iter().enumerate() {
                assert_eq!(*i, k, "emission order broke at {k} (workers={workers})");
                assert_eq!(record, &reference[k], "record {k} differs (workers={workers})");
            }
            assert_eq!(pool.active_tasks(), 0, "task must deregister after its run");
        }
    }

    #[test]
    fn pool_shares_workers_fairly_across_campaigns() {
        // A big campaign registered first must not starve a small one:
        // with round-robin claiming the worker claims the 3-job
        // campaign's last job before the 12-job one's. (Without fairness
        // a worker would drain the first-registered task completely
        // before touching the second.) The big campaign's first record
        // is held until the small campaign delivers its own first one,
        // so the small campaign is registered while the big one can
        // claim no further than its window; the pool's claim log then
        // shows the order whenever the consumers get to run.
        let pool = Arc::new(WorkerPool::new(1));
        let big = pool_jobs("pool-big", 12);
        let small = pool_jobs("pool-small", 3);
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();

        let big_total = big.len();
        let big_pool = Arc::clone(&pool);
        let big_thread = std::thread::spawn(move || {
            big_pool
                .run_jobs_streaming(
                    &big,
                    4,
                    &FailurePolicy::Abort,
                    &mut |i, _| {
                        if i == 0 {
                            started_tx.send(()).expect("the test thread awaits this record");
                            release_rx.recv().expect("the test thread releases this record");
                        }
                        Ok(())
                    },
                    &mut |_| Ok(()),
                )
                .unwrap();
        });
        // The big campaign (task 0) is first in the registry, the
        // unfair-drain order, once its first record arrives.
        started_rx.recv().unwrap();
        let mut small_records = 0;
        pool.run_jobs_streaming(
            &small,
            4,
            &FailurePolicy::Abort,
            &mut |_, _| {
                if small_records == 0 {
                    release_tx.send(()).expect("the big campaign awaits its release");
                }
                small_records += 1;
                Ok(())
            },
            &mut |f| Err(std::io::Error::other(format!("unexpected failure: {}", f.cause))),
        )
        .unwrap();
        big_thread.join().unwrap();
        assert_eq!(small_records, small.len());

        let claims = pool.shared.state.lock().unwrap().claims.clone();
        let (big_id, small_id) = (0, 1);
        assert_eq!(claims.iter().filter(|&&id| id == big_id).count(), big_total);
        assert_eq!(claims.iter().filter(|&&id| id == small_id).count(), small.len());
        let last = |id| claims.iter().rposition(|&c| c == id).expect("task claimed");
        assert!(
            last(small_id) < last(big_id),
            "small campaign's last job was claimed after all {big_total} big jobs — no fair \
             share: {claims:?}"
        );
    }

    #[test]
    fn pool_survives_consumer_error_and_is_reusable() {
        let pool = WorkerPool::new(2);
        let jobs = pool_jobs("pool-err", 4);
        let err = pool
            .run_jobs_streaming(
                &jobs,
                2,
                &FailurePolicy::Abort,
                &mut |_, _| Err(std::io::Error::other("disk full")),
                &mut |_| Ok(()),
            )
            .unwrap_err();
        assert_eq!(err.to_string(), "disk full");
        assert_eq!(pool.active_tasks(), 0, "failed consumer must release its task");
        // The same pool keeps serving new campaigns afterwards.
        assert_eq!(collect_run(&pool, &jobs, 2).len(), jobs.len());
    }

    #[test]
    fn pool_shutdown_fails_pending_consumers_and_new_registrations() {
        let pool = Arc::new(WorkerPool::new(1));
        let jobs = pool_jobs("pool-shutdown", 8);
        let consumer_pool = Arc::clone(&pool);
        let consumer_jobs = jobs.clone();
        let consumer = std::thread::spawn(move || {
            consumer_pool.run_jobs_streaming(
                &consumer_jobs,
                2,
                &FailurePolicy::Abort,
                &mut |_, _| Ok(()),
                &mut |_| Ok(()),
            )
        });
        std::thread::sleep(Duration::from_millis(10));
        pool.shutdown();
        let result = consumer.join().unwrap();
        // Fast machines may finish all 8 jobs before the shutdown
        // lands; otherwise the consumer must get the shutdown error.
        if let Err(e) = result {
            assert!(e.to_string().contains("shut down"), "unexpected error: {e}");
        }
        let err = pool
            .run_jobs_streaming(
                &jobs,
                2,
                &FailurePolicy::Abort,
                &mut |_, _| Ok(()),
                &mut |_| Ok(()),
            )
            .unwrap_err();
        assert!(err.to_string().contains("shut down"), "unexpected error: {err}");
    }
}
