//! Failpoint-driven daemon chaos tests: the `eend-serve` contracts
//! under injected faults.
//!
//! 1. a campaign poisoned by a job panic (default abort policy) marks
//!    its fingerprint `"state":"failed"` while the daemon keeps
//!    serving, and a resubmission after the fault clears recovers to a
//!    byte-identical result;
//! 2. a `skip` policy submitted over the wire records the failed job
//!    durably, reports it in `/status`, and a resubmission re-attempts
//!    exactly that job;
//! 3. an injected mid-stream disconnect drops the client after the Nth
//!    row, and a `?from=` reconnect recovers the rest with nothing
//!    missing or repeated;
//! 4. a campaign killed mid-run by an injected panic releases its
//!    claimed pool slots immediately (no zombie slots): a second
//!    campaign running concurrently completes untouched and
//!    byte-identical, and the pool keeps serving new campaigns.
//!
//! These live in their own integration binary (their own process): the
//! failpoint registry is process-global, and the fault-free serve tests
//! must be able to run campaigns in parallel without tripping over an
//! armed `job.run`. Within this process the tests serialize on a lock
//! and clear the registry on entry.

use eend::campaign::report::json_row_into;
use eend::campaign::serve::{serve, ServeConfig};
use eend::campaign::{BaseScenario, CampaignSpec, Executor, SpecAxes};
use eend::fail::{self, FailAction};
use eend::wireless::stacks;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

static LOCK: Mutex<()> = Mutex::new(());

/// Serializes registry access across tests and starts from a clean
/// slate (a poisoned lock just means another test panicked).
fn guard() -> MutexGuard<'static, ()> {
    let g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    fail::clear();
    g
}

/// A unique scratch directory per test invocation (no tempfile dep).
fn scratch(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "eend-serve-chaos-{}-{tag}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The same 4-job grid as the fault-free serve tests.
fn spec() -> CampaignSpec {
    CampaignSpec::new("cli", BaseScenario::Small)
        .stacks(vec![stacks::titan_pc(), stacks::dsr_active()])
        .rates(vec![2.0, 4.0])
        .seeds(1)
        .secs(30)
}

fn submit_body(spec: &CampaignSpec, on_failure: Option<&str>) -> String {
    let axes = SpecAxes::of(spec).expect("test spec must be wire-expressible");
    let policy = match on_failure {
        Some(p) => format!(",\"on_failure\":\"{p}\""),
        None => String::new(),
    };
    format!("{{\"campaign\":\"{}\",\"axes\":{}{policy}}}", spec.name, axes.to_json())
}

fn request(addr: SocketAddr, raw: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("connect to daemon");
    s.write_all(raw.as_bytes()).unwrap();
    let mut out = String::new();
    // A connection the daemon aborts mid-stream (the injected
    // disconnect) surfaces as an error or a short read; keep whatever
    // bytes arrived.
    let _ = s.read_to_string(&mut out);
    out
}

fn get(addr: SocketAddr, path: &str) -> String {
    request(addr, &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"))
}

fn post(addr: SocketAddr, path: &str, body: &str) -> String {
    request(
        addr,
        &format!("POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}", body.len()),
    )
}

fn body(resp: &str) -> &str {
    resp.split_once("\r\n\r\n").expect("malformed response").1
}

fn fp_of(json: &str) -> String {
    let at = json.find("\"fingerprint\":\"").expect("fingerprint field") + 15;
    json[at..at + 16].to_owned()
}

/// Polls `/status/<fp>` until `pred` holds on the body.
fn wait_for(addr: SocketAddr, fp: &str, what: &str, pred: impl Fn(&str) -> bool) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let status = get(addr, &format!("/status/{fp}"));
        if pred(body(&status)) {
            return status;
        }
        assert!(Instant::now() < deadline, "never reached {what}: {status}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn wait_done(addr: SocketAddr, fp: &str) -> String {
    wait_for(addr, fp, "state done", |b| b.contains("\"state\":\"done\""))
}

/// The uninterrupted JSONL stream this campaign must produce.
fn fault_free_jsonl(spec: &CampaignSpec) -> String {
    let expected = Executor::with_workers(1).run(spec);
    assert!(expected.records.iter().any(|r| r.metrics.data_sent > 0), "the grid carries traffic");
    let mut out = String::new();
    for r in &expected.records {
        json_row_into(&mut out, &expected.campaign, r);
        out.push('\n');
    }
    out
}

#[test]
fn poisoned_campaign_is_marked_failed_and_the_daemon_survives() {
    let _g = guard();
    let spec = spec();
    let expected_csv = Executor::with_workers(1).run(&spec).to_csv();
    let data = scratch("poison");

    // Job 2 panics under the default abort policy: the unwind escapes
    // the store and the supervised runner must contain it. One worker,
    // so the serial fast path carries the panic to the runner thread.
    fail::set("job.run", FailAction::Panic, 2, false);
    let handle = serve(
        "127.0.0.1:0",
        ServeConfig { data_dir: data.clone(), executor: Executor::with_workers(1) },
    )
    .unwrap();
    let addr = handle.addr();
    let fp = fp_of(body(&post(addr, "/submit", &submit_body(&spec, None))));

    // The fingerprint lands in "failed" with the panic cause exposed...
    let status = wait_for(addr, &fp, "state failed", |b| b.contains("\"state\":\"failed\""));
    assert!(
        body(&status).contains("campaign panicked"),
        "status must carry the panic cause: {status}"
    );
    assert!(body(&status).contains("job.run"), "cause names the failpoint: {status}");

    // ...and the daemon is still alive and serving.
    assert_eq!(body(&get(addr, "/")), "eend-serve\n", "daemon died with the campaign");

    // Fault cleared, the same submission re-queues, finishes, and the
    // result is byte-identical to a run that never saw the fault.
    fail::clear();
    let resub = post(addr, "/submit", &submit_body(&spec, None));
    assert_eq!(fp_of(body(&resub)), fp);
    wait_done(addr, &fp);
    let csv = get(addr, &format!("/stream/{fp}?format=csv"));
    assert_eq!(body(&csv), expected_csv);

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&data);
}

#[test]
fn skip_policy_over_the_wire_contains_the_failure_and_resume_reattempts_it() {
    let _g = guard();
    let spec = spec();
    let total = spec.job_count();
    let expected_csv = Executor::with_workers(1).run(&spec).to_csv();
    let data = scratch("skip");

    // Job 1's only attempt panics; the skip policy (submitted in the
    // request body) contains it and the campaign finishes around it.
    fail::set("job.run", FailAction::Panic, 1, false);
    let handle = serve(
        "127.0.0.1:0",
        ServeConfig { data_dir: data.clone(), executor: Executor::with_workers(2) },
    )
    .unwrap();
    let addr = handle.addr();
    let fp = fp_of(body(&post(addr, "/submit", &submit_body(&spec, Some("skip")))));

    // The run ends "failed" (one job pending), with the failure counted
    // in status; the daemon executed the other jobs durably.
    let status = wait_for(addr, &fp, "state failed", |b| b.contains("\"state\":\"failed\""));
    assert!(body(&status).contains("\"failed\":1"), "failure count: {status}");
    assert!(body(&status).contains("job(s) failed"), "error names the failures: {status}");
    assert_eq!(handle.jobs_executed(), total - 1, "only the skipped job is missing");

    // Fault cleared, resubmitting (policy inherited from the manifest)
    // re-attempts exactly the failed job. "done" appears the moment the
    // last record lands; the failure-count bookkeeping settles when the
    // run returns, so poll for both.
    fail::clear();
    post(addr, "/submit", &submit_body(&spec, None));
    wait_for(addr, &fp, "done with failures pruned", |b| {
        b.contains("\"state\":\"done\"") && b.contains("\"failed\":0")
    });
    assert_eq!(handle.jobs_executed(), total, "resume ran exactly the failed job");

    // The gap-filled store still streams byte-identically.
    let csv = get(addr, &format!("/stream/{fp}?format=csv"));
    assert_eq!(body(&csv), expected_csv);

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&data);
}

#[test]
fn poisoned_campaign_releases_its_pool_slots_while_a_concurrent_one_completes() {
    let _g = guard();
    // Campaign A has 8 jobs (indices 0..8), campaign B the standard 4
    // (indices 0..4): arming the failpoint at job index 5 poisons
    // exactly A — B never presents an index that high.
    let spec_a = CampaignSpec::new("cli-a", BaseScenario::Small)
        .stacks(vec![stacks::titan_pc(), stacks::dsr_active()])
        .rates(vec![2.0, 4.0])
        .seeds(2)
        .secs(30);
    let spec_b = spec();
    let expected_a_csv = Executor::with_workers(1).run(&spec_a).to_csv();
    let expected_b = fault_free_jsonl(&spec_b);
    let data = scratch("zombie");

    fail::set("job.run", FailAction::Panic, 5, false);
    let handle = serve(
        "127.0.0.1:0",
        ServeConfig { data_dir: data.clone(), executor: Executor::with_workers(2) },
    )
    .unwrap();
    let addr = handle.addr();
    let fp_a = fp_of(body(&post(addr, "/submit", &submit_body(&spec_a, None))));
    let fp_b = fp_of(body(&post(addr, "/submit", &submit_body(&spec_b, None))));

    // A dies on the injected panic, with the cause in its status...
    let status = wait_for(addr, &fp_a, "A failed", |b| b.contains("\"state\":\"failed\""));
    assert!(body(&status).contains("campaign panicked"), "A's status: {status}");

    // ...while B — running concurrently on the same pool — completes
    // untouched and byte-identical to its solo run.
    wait_done(addr, &fp_b);
    assert_eq!(body(&get(addr, &format!("/stream/{fp_b}"))), expected_b);

    // No zombie slots: the dead campaign's pool task deregistered
    // during the unwind, so nothing is left claiming workers.
    let deadline = Instant::now() + Duration::from_secs(30);
    while handle.active_pool_tasks() > 0 {
        assert!(Instant::now() < deadline, "dead campaign still holds pool slots");
        std::thread::sleep(Duration::from_millis(20));
    }

    // And the pool is still healthy: with the fault cleared, A's
    // resubmission resumes past its durable prefix and finishes
    // byte-identically on the same workers.
    fail::clear();
    post(addr, "/submit", &submit_body(&spec_a, None));
    wait_done(addr, &fp_a);
    assert_eq!(body(&get(addr, &format!("/stream/{fp_a}?format=csv"))), expected_a_csv);

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&data);
}

#[test]
fn injected_mid_stream_disconnect_is_recovered_by_a_from_reconnect() {
    let _g = guard();
    let spec = spec();
    let full = fault_free_jsonl(&spec);
    let data = scratch("disconnect");

    let handle = serve(
        "127.0.0.1:0",
        ServeConfig { data_dir: data.clone(), executor: Executor::with_workers(2) },
    )
    .unwrap();
    let addr = handle.addr();
    let fp = fp_of(body(&post(addr, "/submit", &submit_body(&spec, None))));
    wait_done(addr, &fp);

    // The daemon drops the connection after the 2nd streamed row.
    fail::set("serve.conn", FailAction::Disconnect, 2, false);
    let truncated = get(addr, &format!("/stream/{fp}"));
    let first_two: String = full.lines().take(2).map(|l| format!("{l}\n")).collect();
    assert_eq!(body(&truncated), first_two, "exactly two rows before the drop");

    // The one-shot failpoint has disarmed; a reconnect resumes at the
    // cut and the concatenation equals the uninterrupted stream.
    let rest = get(addr, &format!("/stream/{fp}?from=2"));
    assert_eq!(format!("{first_two}{}", body(&rest)), full);

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&data);
}
