//! Chaos tests: deterministic fault injection through the `eend_fail`
//! registry, pinning the PR's containment invariant — **a faulted
//! campaign, resumed or retried, produces byte-identical output to a
//! fault-free run**.
//!
//! The failpoint registry is process-global, so every test takes the
//! same lock and clears the registry on entry. A panic-action failpoint
//! on the *consumer* side of the stream (`store.bookkeep`) unwinds to
//! the caller at any worker count: the consumer's task leaves the pool
//! and the pool's threads are joined on the way out.

use eend_campaign::store::Manifest;
use eend_campaign::{
    Backoff, BaseScenario, CampaignSpec, CsvSink, Executor, FailurePolicy, ResultStore,
    RunOptions,
};
use eend_fail::FailAction;
use eend_wireless::stacks;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex, MutexGuard};
use std::time::Duration;

static LOCK: Mutex<()> = Mutex::new(());

/// Serializes registry access across tests and starts from a clean
/// slate (a poisoned lock just means another chaos test panicked on
/// purpose).
fn guard() -> MutexGuard<'static, ()> {
    let g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    eend_fail::clear();
    g
}

/// A unique scratch directory per test invocation (no tempfile dep).
fn scratch(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "eend-chaos-test-{}-{tag}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A 4-job grid: 1 stack x 2 rates x 2 seeds, shortened runs.
fn spec() -> CampaignSpec {
    CampaignSpec::new("chaos", BaseScenario::Small)
        .stacks(vec![stacks::titan_pc()])
        .rates(vec![2.0, 4.0])
        .seeds(2)
        .secs(20)
}

/// The fault-free reference output every chaos run must reproduce.
fn fault_free_csv(spec: &CampaignSpec) -> String {
    Executor::with_workers(1).run(spec).to_csv()
}

/// Retry with no backoff sleep — chaos tests must not wait on the clock.
fn retry_now(max_attempts: u32) -> FailurePolicy {
    FailurePolicy::Retry { max_attempts, backoff: Backoff::none() }
}

#[test]
fn retried_job_panic_leaves_no_trace_in_the_result() {
    let _g = guard();
    let spec = spec();
    let jobs = spec.expand();
    let reference = fault_free_csv(&spec);
    let dir = scratch("retry");

    // Job 2 panics once; the retry policy re-attempts it and succeeds
    // (one-shot failpoints disarm after firing, like a transient fault).
    eend_fail::set("job.run", FailAction::Panic, 2, false);
    let mut store = ResultStore::open(&dir, Manifest::for_spec(&spec, 0, 1)).unwrap();
    let opts = RunOptions { limit: None, policy: retry_now(3), cancel: None };
    let outcome = store.run_with(&Executor::with_workers(2), &jobs, &opts, |_| {}).unwrap();
    assert_eq!((outcome.ran, outcome.failed), (4, 0));
    assert!(store.failures().is_empty());
    assert!(
        !dir.join("failures.jsonl").exists(),
        "a retried-to-success campaign must not create a failure log"
    );
    assert_eq!(store.assemble(&jobs).unwrap().to_csv(), reference);
    eend_fail::clear();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn skipped_failure_is_durable_and_resume_reattempts_exactly_it() {
    let _g = guard();
    let spec = spec();
    let jobs = spec.expand();
    let reference = fault_free_csv(&spec);
    let dir = scratch("skip");

    // Under Skip the single permitted attempt of job 1 panics; the
    // campaign keeps going and records the failure durably.
    eend_fail::set("job.run", FailAction::Panic, 1, false);
    {
        let mut store = ResultStore::open(&dir, Manifest::for_spec(&spec, 0, 1)).unwrap();
        let opts = RunOptions { limit: None, policy: FailurePolicy::Skip, cancel: None };
        let outcome =
            store.run_with(&Executor::with_workers(2), &jobs, &opts, |_| {}).unwrap();
        assert_eq!((outcome.ran, outcome.failed), (3, 1));
        let failure = &store.failures()[&1];
        assert_eq!(failure.attempts, 1);
        assert!(failure.cause.contains("job.run"), "cause: {}", failure.cause);
        assert!(!store.completed().contains(&1));
    }
    assert!(dir.join("failures.jsonl").exists());

    // A fresh open scans the failure log back and still counts job 1 as
    // pending; the clean re-run completes only that job.
    eend_fail::clear();
    {
        let mut store = ResultStore::open(&dir, Manifest::for_spec(&spec, 0, 1)).unwrap();
        assert_eq!(store.completed().len(), 3);
        assert_eq!(store.failures().keys().copied().collect::<Vec<_>>(), [1]);
        let opts = RunOptions { limit: None, policy: FailurePolicy::Skip, cancel: None };
        let outcome =
            store.run_with(&Executor::with_workers(2), &jobs, &opts, |_| {}).unwrap();
        assert_eq!((outcome.ran, outcome.failed), (1, 0));
        assert!(store.failures().is_empty(), "success must prune the stale failure");
        assert_eq!(store.assemble(&jobs).unwrap().to_csv(), reference);
    }
    // And the pruning is durable across another open.
    let store = ResultStore::open_existing(&dir).unwrap();
    assert!(store.failures().is_empty());
    assert_eq!(store.completed().len(), 4);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn abort_policy_still_propagates_the_panic_unchanged() {
    let _g = guard();
    let spec = spec();
    let jobs = spec.expand();
    let dir = scratch("abort");

    eend_fail::set("job.run", FailAction::Panic, 1, false);
    {
        let mut store = ResultStore::open(&dir, Manifest::for_spec(&spec, 0, 1)).unwrap();
        // `run` uses the store's policy — no policy recorded means
        // Abort, the pre-containment behaviour: the panic unwinds.
        let result = catch_unwind(AssertUnwindSafe(|| {
            store.run(&Executor::with_workers(1), &jobs, None)
        }));
        assert!(result.is_err(), "abort policy must let the panic unwind");
    }
    // Nothing after the panic ran; a clean re-run completes the grid.
    eend_fail::clear();
    let mut store = ResultStore::open(&dir, Manifest::for_spec(&spec, 0, 1)).unwrap();
    assert!(store.failures().is_empty(), "abort contains nothing, so no failure log");
    store.run(&Executor::with_workers(2), &jobs, None).unwrap();
    assert!(store.is_complete(&jobs));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn transient_flush_error_is_retried_without_corrupting_the_store() {
    let _g = guard();
    let spec = spec();
    let jobs = spec.expand();
    let reference = fault_free_csv(&spec);
    let dir = scratch("flush");

    // The 2nd record append fails once with an injected I/O error; the
    // retry policy re-appends after rolling the file back to the last
    // good length.
    eend_fail::set("store.flush", FailAction::IoErr, 2, false);
    let mut store = ResultStore::open(&dir, Manifest::for_spec(&spec, 0, 1)).unwrap();
    let opts = RunOptions { limit: None, policy: retry_now(3), cancel: None };
    let outcome = store.run_with(&Executor::with_workers(2), &jobs, &opts, |_| {}).unwrap();
    assert_eq!((outcome.ran, outcome.failed), (4, 0));
    assert_eq!(store.assemble(&jobs).unwrap().to_csv(), reference);
    drop(store);

    // The file scan agrees: 4 clean records, nothing torn or duplicated.
    let store = ResultStore::open_existing(&dir).unwrap();
    assert_eq!(store.completed().len(), 4);
    eend_fail::clear();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_between_record_flush_and_bookkeeping_resumes_without_duplicates() {
    let _g = guard();
    let spec = spec();
    let jobs = spec.expand();
    let reference = fault_free_csv(&spec);
    let dir = scratch("bookkeep");

    // The crash-consistency window the store must survive: job 1's
    // record is durable on disk, but the process dies before the
    // in-memory bookkeeping (and any manifest/failure accounting) runs.
    // The panic unwinds on the caller thread, modelling the kill; one
    // worker here, two in `bookkeep_panic_unwinds_at_two_workers`.
    eend_fail::set("store.bookkeep", FailAction::Panic, 1, false);
    {
        let mut store = ResultStore::open(&dir, Manifest::for_spec(&spec, 0, 1)).unwrap();
        let opts = RunOptions { limit: None, policy: FailurePolicy::Abort, cancel: None };
        let result = catch_unwind(AssertUnwindSafe(|| {
            store.run_with(&Executor::with_workers(1), &jobs, &opts, |_| {})
        }));
        assert!(result.is_err(), "the injected kill must unwind");
    }
    eend_fail::clear();

    // Resume: the durable record counts — job 1 is NOT re-run — and the
    // remainder completes to a byte-identical result.
    let mut store = ResultStore::open(&dir, Manifest::for_spec(&spec, 0, 1)).unwrap();
    assert_eq!(
        store.completed().iter().copied().collect::<Vec<_>>(),
        [0, 1],
        "the flushed record must survive the kill"
    );
    let opts = RunOptions { limit: None, policy: FailurePolicy::Abort, cancel: None };
    let outcome = store.run_with(&Executor::with_workers(2), &jobs, &opts, |_| {}).unwrap();
    assert_eq!(outcome.ran, 2, "resume must run exactly the missing jobs");
    let text = std::fs::read_to_string(dir.join("records.jsonl")).unwrap();
    assert_eq!(text.lines().count(), 4, "no duplicate records after resume");
    assert_eq!(store.assemble(&jobs).unwrap().to_csv(), reference);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bookkeep_panic_unwinds_at_two_workers() {
    let _g = guard();
    // 16 jobs: more than the default reorder window of 8 at two
    // workers, so workers are still claiming when the consumer dies.
    let spec = CampaignSpec::new("chaos16", BaseScenario::Small)
        .stacks(vec![stacks::titan_pc(), stacks::dsr_active()])
        .rates(vec![2.0, 4.0])
        .seeds(4)
        .secs(20);
    let jobs = spec.expand();
    assert!(jobs.len() >= 16);
    let reference = fault_free_csv(&spec);
    let dir = scratch("bookkeep-w2");

    // The run happens on its own thread under a watchdog, so a consumer
    // panic that strands the workers fails this test instead of hanging it.
    eend_fail::set("store.bookkeep", FailAction::Panic, 1, false);
    let (tx, rx) = mpsc::channel();
    {
        let (dir, spec, jobs) = (dir.clone(), spec.clone(), jobs.clone());
        std::thread::spawn(move || {
            let mut store = ResultStore::open(&dir, Manifest::for_spec(&spec, 0, 1)).unwrap();
            let opts = RunOptions { limit: None, policy: FailurePolicy::Abort, cancel: None };
            let result = catch_unwind(AssertUnwindSafe(|| {
                store.run_with(&Executor::with_workers(2), &jobs, &opts, |_| {})
            }));
            let _ = tx.send(result.is_err());
        });
    }
    let unwound = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("a bookkeeping panic at two workers must return within 60 s");
    assert!(unwound, "the injected kill must unwind");
    eend_fail::clear();

    // A clean resume keeps the durable records and completes the grid.
    let mut store = ResultStore::open(&dir, Manifest::for_spec(&spec, 0, 1)).unwrap();
    assert_eq!(store.completed().iter().copied().collect::<Vec<_>>(), [0, 1]);
    let opts = RunOptions { limit: None, policy: FailurePolicy::Abort, cancel: None };
    let outcome = store.run_with(&Executor::with_workers(2), &jobs, &opts, |_| {}).unwrap();
    assert_eq!(outcome.ran, jobs.len() - 2, "resume must run exactly the missing jobs");
    assert_eq!(store.assemble(&jobs).unwrap().to_csv(), reference);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failure_policy_round_trips_through_the_manifest() {
    let _g = guard();
    let spec = spec();
    let dir = scratch("policy");

    // An explicit policy is persisted on open...
    let mut manifest = Manifest::for_spec(&spec, 0, 1);
    manifest.on_failure = Some(FailurePolicy::retry(3).label());
    drop(ResultStore::open(&dir, manifest).unwrap());
    let store = ResultStore::open_existing(&dir).unwrap();
    assert_eq!(store.policy(), FailurePolicy::retry(3));
    drop(store);

    // ...an open without a policy inherits the stored one...
    let store = ResultStore::open(&dir, Manifest::for_spec(&spec, 0, 1)).unwrap();
    assert_eq!(store.policy(), FailurePolicy::retry(3));
    drop(store);

    // ...and a different explicit policy replaces it durably.
    let mut manifest = Manifest::for_spec(&spec, 0, 1);
    manifest.on_failure = Some(FailurePolicy::Skip.label());
    drop(ResultStore::open(&dir, manifest).unwrap());
    let store = ResultStore::open_existing(&dir).unwrap();
    assert_eq!(store.policy(), FailurePolicy::Skip);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sink_emit_fault_surfaces_as_an_error_not_a_crash() {
    let _g = guard();
    let spec = spec();
    let jobs = spec.expand();
    let reference = fault_free_csv(&spec);

    // The 2nd emitted row errors: the stream aborts cleanly with the
    // failpoint's error, no panic, no partial row.
    eend_fail::set("sink.emit", FailAction::IoErr, 2, false);
    let executor = Executor::with_workers(2);
    let mut sink = CsvSink::new("chaos", Vec::new());
    let err = executor.run_streaming(&jobs, &mut sink).unwrap_err();
    assert!(err.to_string().contains("sink.emit"), "got: {err}");

    // The same stream, fault-free, is byte-identical to the reference.
    eend_fail::clear();
    let mut sink = CsvSink::new("chaos", Vec::new());
    executor.run_streaming(&jobs, &mut sink).unwrap();
    assert_eq!(String::from_utf8(sink.into_inner()).unwrap(), reference);
}
