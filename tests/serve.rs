//! The `eend-serve` daemon's contracts, pinned in-process against the
//! offline pipeline:
//!
//! 1. a submitted spec runs to completion and `/stream` replays it
//!    **byte-identically** to the one-shot CLI/CSV export;
//! 2. an identical re-submission answers from cache without executing a
//!    single simulation job (the executor job counter must not move);
//! 3. a daemon started over a killed campaign's data directory resumes
//!    it, running only the missing jobs (kill-resume);
//! 4. a client dropped mid-stream reconnects with `?from=` and the
//!    concatenated bodies equal the uninterrupted stream;
//! 5. `/aggregate` matches the in-memory aggregation cell for cell;
//! 6. a graceful shutdown mid-campaign loses nothing: a restarted
//!    daemon runs only the jobs the first one had not landed durably;
//! 7. oversized bodies (413), oversized request or header lines (431)
//!    and malformed requests (400) are rejected with errors, never by
//!    taking the daemon down;
//! 8. two campaigns running **concurrently** on the shared pool fan out
//!    to many `/stream` subscribers each (one reconnecting mid-run),
//!    all byte-identical, with no cross-campaign bleed — and the
//!    daemon-wide `/status` lists both with the pool's worker count;
//! 9. a repeat `/aggregate` hit answers from the prefix-keyed cache
//!    without re-reading the store (the computation counter must not
//!    move);
//! 10. a ~1 MiB submit body holding one long string, or nested a
//!     million brackets deep, is answered promptly with a 4xx;
//! 11. a daemon started over a complete store serves `/stream` (JSONL
//!     and CSV) and `/aggregate` byte-identically to the offline run
//!     without a submit and without executing a job;
//! 12. a store whose record line names another job than its id is
//!     refused with a 4xx naming the job, before any header is sent;
//! 13. a submit whose failure plan kills a node beyond the network, or
//!     at a negative time, is refused with a 400 naming the plan and the
//!     kill, creating no store and running no job;
//! 14. a campaign sweeping traffic models beside its x axis aggregates
//!     one cell per model, as the CLI's summary does, each line keyed
//!     with its `"traffic"`.
//!
//! Failpoint-driven daemon tests (poisoned campaigns, injected
//! disconnects) live in `tests/serve_chaos.rs` — a separate process,
//! because the failpoint registry is process-global and the campaigns
//! here must run fault-free in parallel.

use eend::campaign::serve::{serve, ServeConfig};
use eend::campaign::store::Manifest;
use eend::campaign::{
    fingerprint, metric_columns, BaseScenario, CampaignResult, CampaignSpec, Executor, FailurePlan,
    JsonlSink, RecordSink, ResultStore, SpecAxes,
};
use eend::wireless::stacks;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A unique scratch directory per test invocation (no tempfile dep).
fn scratch(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "eend-serve-test-{}-{tag}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec() -> CampaignSpec {
    CampaignSpec::new("cli", BaseScenario::Small)
        .stacks(vec![stacks::titan_pc(), stacks::dsr_active()])
        .rates(vec![2.0, 4.0])
        .seeds(1)
        .secs(15)
}

fn submit_body(spec: &CampaignSpec) -> String {
    let axes = SpecAxes::of(spec).expect("test spec must be wire-expressible");
    format!("{{\"campaign\":\"{}\",\"axes\":{}}}", spec.name, axes.to_json())
}

// --------------------------------------------------------------------
// A raw one-request HTTP client (responses are close-delimited).

fn request(addr: SocketAddr, raw: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("connect to daemon");
    s.write_all(raw.as_bytes()).unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    out
}

fn get(addr: SocketAddr, path: &str) -> String {
    request(addr, &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"))
}

/// Sends `raw` from a writer thread and returns whatever response
/// arrives. The daemon may answer and close before reading all of
/// `raw`, so write and reset errors are expected and ignored.
fn request_unread(addr: SocketAddr, raw: String) -> String {
    let mut s = TcpStream::connect(addr).expect("connect to daemon");
    let mut w = s.try_clone().unwrap();
    let writer = std::thread::spawn(move || {
        let _ = w.write_all(raw.as_bytes());
    });
    let mut out = Vec::new();
    let _ = s.read_to_end(&mut out);
    let _ = writer.join();
    String::from_utf8_lossy(&out).into_owned()
}

fn post(addr: SocketAddr, path: &str, body: &str) -> String {
    request(
        addr,
        &format!("POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}", body.len()),
    )
}

/// The body of a response (everything past the blank line).
fn body(resp: &str) -> &str {
    resp.split_once("\r\n\r\n").expect("malformed response").1
}

/// The 16-hex-digit fingerprint out of a submit/status body.
fn fp_of(json: &str) -> String {
    let at = json.find("\"fingerprint\":\"").expect("fingerprint field") + 15;
    json[at..at + 16].to_owned()
}

/// The `"done":N` count out of a submit/status body.
fn done_of(json: &str) -> usize {
    let at = json.find("\"done\":").expect("done field") + 7;
    json[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("done count")
}

fn wait_done(addr: SocketAddr, fp: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let status = get(addr, &format!("/status/{fp}"));
        if body(&status).contains("\"state\":\"done\"") {
            return status;
        }
        assert!(Instant::now() < deadline, "campaign never finished: {status}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn jnum(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

/// The `/aggregate` body this campaign must produce, built from the
/// in-memory result through the same Series aggregation.
fn expected_aggregate(result: &CampaignResult) -> String {
    let mut out = String::new();
    for (name, f) in metric_columns() {
        for s in result.series(|p| p.rate_kbps, f) {
            for p in s.points {
                out.push_str(&format!(
                    "{{\"metric\":\"{name}\",\"stack\":\"{}\",\"x\":{},\"n\":{},\"mean\":{},\"ci95\":{}}}\n",
                    s.label,
                    jnum(p.x),
                    p.summary.n,
                    jnum(p.summary.mean),
                    jnum(p.summary.ci95_half_width())
                ));
            }
        }
    }
    out
}

#[test]
fn submit_streams_byte_identically_and_resubmit_hits_the_cache() {
    let spec = spec();
    let expected = Executor::with_workers(1).run(&spec);
    let data = scratch("cache");
    let handle = serve(
        "127.0.0.1:0",
        ServeConfig { data_dir: data.clone(), executor: Executor::with_workers(2) },
    )
    .unwrap();
    let addr = handle.addr();

    assert_eq!(body(&get(addr, "/")), "eend-serve\n", "health probe");

    // Cold submit: nothing durable yet, the campaign queues.
    let submitted = post(addr, "/submit", &submit_body(&spec));
    let sb = body(&submitted);
    assert!(sb.contains("\"total\":4") && sb.contains("\"cached\":false"), "cold: {sb}");
    let fp = fp_of(sb);
    wait_done(addr, &fp);
    assert_eq!(handle.jobs_executed(), 4, "every job ran exactly once");

    // The streamed CSV is byte-identical to the offline export.
    let csv = get(addr, &format!("/stream/{fp}?format=csv"));
    assert_eq!(body(&csv), expected.to_csv());

    // The JSONL stream matches the JSONL sink over the same records.
    let mut sink = JsonlSink::new(&expected.campaign, Vec::new());
    for r in &expected.records {
        sink.accept(r).unwrap();
    }
    sink.finish().unwrap();
    let jsonl = String::from_utf8(sink.into_inner()).unwrap();
    assert_eq!(body(&get(addr, &format!("/stream/{fp}"))), jsonl);

    // THE cache contract: an identical re-submission answers "done"
    // from cache and the daemon does not run a single job for it.
    let resub = post(addr, "/submit", &submit_body(&spec));
    let rb = body(&resub);
    assert!(rb.contains("\"cached\":true") && rb.contains("\"state\":\"done\""), "warm: {rb}");
    assert_eq!(fp_of(rb), fp, "same spec, same fingerprint");
    assert_eq!(handle.jobs_executed(), 4, "cache hit must not execute jobs");

    // Aggregate cells match the in-memory aggregation.
    let agg = get(addr, &format!("/aggregate/{fp}"));
    assert_eq!(body(&agg), expected_aggregate(&expected));

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&data);
}

#[test]
fn daemon_resumes_a_killed_campaign_running_only_missing_jobs() {
    let spec = spec();
    let jobs = spec.expand();
    let expected = Executor::with_workers(1).run(&spec);
    let data = scratch("resume");

    // A previous daemon (or CLI --out run) died after 2 durable jobs,
    // mid-write on the third: pre-populate the fingerprinted store the
    // way the daemon lays it out.
    let fp = fingerprint(&spec.name, &jobs);
    let store_dir = data.join(format!("{fp:016x}"));
    {
        let mut store = ResultStore::open(&store_dir, Manifest::for_spec(&spec, 0, 1)).unwrap();
        assert_eq!(store.run(&Executor::with_workers(2), &jobs, Some(2)).unwrap(), 2);
    }
    {
        let mut f =
            std::fs::OpenOptions::new().append(true).open(store_dir.join("records.jsonl")).unwrap();
        write!(f, "{{\"job\":2,\"sta").unwrap(); // torn tail, no newline
    }

    let handle = serve(
        "127.0.0.1:0",
        ServeConfig { data_dir: data.clone(), executor: Executor::with_workers(2) },
    )
    .unwrap();
    let addr = handle.addr();

    // Submit finds the durable prefix and schedules only the remainder.
    let sb_resp = post(addr, "/submit", &submit_body(&spec));
    let sb = body(&sb_resp);
    assert!(sb.contains("\"done\":2") && sb.contains("\"cached\":false"), "resume: {sb}");
    assert_eq!(fp_of(sb), format!("{fp:016x}"));
    wait_done(addr, &format!("{fp:016x}"));
    assert_eq!(handle.jobs_executed(), jobs.len() - 2, "only the missing jobs ran");

    // The reassembled stream is still byte-identical to one-shot.
    let csv = get(addr, &format!("/stream/{fp:016x}?format=csv"));
    assert_eq!(body(&csv), expected.to_csv());

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&data);
}

#[test]
fn dropped_stream_reconnects_with_from_and_loses_nothing() {
    let spec = spec();
    let expected = Executor::with_workers(1).run(&spec);
    let mut sink = JsonlSink::new(&expected.campaign, Vec::new());
    for r in &expected.records {
        sink.accept(r).unwrap();
    }
    sink.finish().unwrap();
    let full = String::from_utf8(sink.into_inner()).unwrap();

    let data = scratch("reconnect");
    let handle = serve(
        "127.0.0.1:0",
        ServeConfig { data_dir: data.clone(), executor: Executor::with_workers(2) },
    )
    .unwrap();
    let addr = handle.addr();
    let fp = fp_of(body(&post(addr, "/submit", &submit_body(&spec))));

    // Open the live stream immediately, read exactly two records as
    // they become durable, then drop the connection mid-stream.
    let mut first_two = String::new();
    {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(format!("GET /stream/{fp} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes()).unwrap();
        let mut reader = BufReader::new(conn);
        let mut line = String::new();
        loop {
            line.clear();
            reader.read_line(&mut line).unwrap();
            if line == "\r\n" {
                break; // end of response headers
            }
            assert!(!line.is_empty(), "stream closed before the body started");
        }
        for _ in 0..2 {
            line.clear();
            reader.read_line(&mut line).unwrap();
            first_two.push_str(&line);
        }
    } // connection dropped here, mid-stream

    wait_done(addr, &fp);

    // Reconnect where we left off; nothing is missing, nothing repeats.
    let rest = get(addr, &format!("/stream/{fp}?from=2"));
    assert_eq!(format!("{first_two}{}", body(&rest)), full);

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&data);
}

#[test]
fn graceful_shutdown_mid_campaign_resumes_without_rerunning_jobs() {
    // A wider grid than the other tests so shutdown plausibly lands
    // mid-campaign; every assertion also holds if the first daemon
    // happens to finish before the shutdown races it.
    let spec = CampaignSpec::new("cli", BaseScenario::Small)
        .stacks(vec![stacks::titan_pc(), stacks::dsr_active()])
        .rates(vec![2.0, 4.0, 8.0])
        .seeds(2)
        .secs(15);
    let total = spec.job_count();
    let expected = Executor::with_workers(1).run(&spec);
    let data = scratch("shutdown");

    // First daemon: submit, wait for at least one durable record, then
    // shut down gracefully while the campaign is (likely) mid-run.
    let first = serve(
        "127.0.0.1:0",
        ServeConfig { data_dir: data.clone(), executor: Executor::with_workers(2) },
    )
    .unwrap();
    let addr = first.addr();
    let fp = fp_of(body(&post(addr, "/submit", &submit_body(&spec))));
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let status = get(addr, &format!("/status/{fp}"));
        if done_of(body(&status)) >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "no record ever landed: {status}");
        std::thread::sleep(Duration::from_millis(10));
    }
    // Graceful: the in-flight record lands durably, then the runner and
    // accept threads drain and join.
    first.shutdown();

    // Second daemon over the same data dir: the resubmission reports
    // the durable prefix and schedules only the remainder.
    let second = serve(
        "127.0.0.1:0",
        ServeConfig { data_dir: data.clone(), executor: Executor::with_workers(2) },
    )
    .unwrap();
    let addr = second.addr();
    let resumed = post(addr, "/submit", &submit_body(&spec));
    let durable_at_restart = done_of(body(&resumed));
    assert!(durable_at_restart >= 1, "shutdown lost the durable prefix: {resumed}");
    wait_done(addr, &fp);
    assert_eq!(
        durable_at_restart + second.jobs_executed(),
        total,
        "restart must run exactly the missing jobs, not re-run landed ones"
    );

    // And the full result is still byte-identical to the one-shot run.
    let csv = get(addr, &format!("/stream/{fp}?format=csv"));
    assert_eq!(body(&csv), expected.to_csv());

    second.shutdown();
    let _ = std::fs::remove_dir_all(&data);
}

/// The full JSONL stream body this campaign must produce.
fn expected_jsonl(result: &CampaignResult) -> String {
    let mut sink = JsonlSink::new(&result.campaign, Vec::new());
    for r in &result.records {
        sink.accept(r).unwrap();
    }
    sink.finish().unwrap();
    String::from_utf8(sink.into_inner()).unwrap()
}

/// Connects a live `/stream/<fp>` subscriber and returns everything it
/// received, headers stripped — blocking until the daemon closes the
/// stream (campaign done).
fn subscribe(addr: SocketAddr, fp: &str, from: usize) -> String {
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.write_all(format!("GET /stream/{fp}?from={from} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
        .unwrap();
    let mut out = String::new();
    conn.read_to_string(&mut out).unwrap();
    body(&out).to_owned()
}

#[test]
fn concurrent_campaigns_fan_out_to_all_subscribers_byte_identically() {
    // Two campaigns with different names (hence fingerprints and job
    // lists) run concurrently on the shared pool; every subscriber of
    // each sees exactly that campaign's solo-run bytes.
    let spec_a = spec();
    let spec_b = CampaignSpec::new("cli-b", BaseScenario::Small)
        .stacks(vec![stacks::titan_pc(), stacks::dsr_active()])
        .rates(vec![2.0, 4.0, 8.0])
        .seeds(1)
        .secs(15);
    let full_a = expected_jsonl(&Executor::with_workers(1).run(&spec_a));
    let full_b = expected_jsonl(&Executor::with_workers(1).run(&spec_b));

    let data = scratch("fanout");
    let handle = serve(
        "127.0.0.1:0",
        ServeConfig { data_dir: data.clone(), executor: Executor::with_workers(2) },
    )
    .unwrap();
    let addr = handle.addr();

    // Subscribe *before* submitting, so every subscriber tails the
    // campaign live rather than replaying a finished store.
    let fp_a = fp_of(body(&post(addr, "/submit", &submit_body(&spec_a))));
    let fp_b = fp_of(body(&post(addr, "/submit", &submit_body(&spec_b))));
    assert_ne!(fp_a, fp_b);

    let subscribers: Vec<_> = [(fp_a.clone(), &full_a), (fp_b.clone(), &full_b)]
        .into_iter()
        .flat_map(|(fp, full)| {
            (0..3).map(move |_| {
                let fp = fp.clone();
                let full = full.clone();
                std::thread::spawn(move || {
                    let got = subscribe(addr, &fp, 0);
                    assert_eq!(got, full, "subscriber of {fp} saw different bytes");
                })
            })
        })
        .collect();

    // One more subscriber of campaign A drops after two records and
    // reconnects mid-run with ?from=: the concatenation must equal the
    // uninterrupted stream.
    let mut first_two = String::new();
    {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(format!("GET /stream/{fp_a} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
            .unwrap();
        let mut reader = BufReader::new(conn);
        let mut line = String::new();
        loop {
            line.clear();
            reader.read_line(&mut line).unwrap();
            if line == "\r\n" {
                break;
            }
            assert!(!line.is_empty(), "stream closed before the body started");
        }
        for _ in 0..2 {
            line.clear();
            reader.read_line(&mut line).unwrap();
            first_two.push_str(&line);
        }
    } // dropped mid-run
    let reconnected = subscribe(addr, &fp_a, 2);
    assert_eq!(format!("{first_two}{reconnected}"), full_a, "reconnect lost or repeated records");

    for s in subscribers {
        s.join().expect("subscriber thread");
    }
    wait_done(addr, &fp_a);
    wait_done(addr, &fp_b);
    assert_eq!(
        handle.jobs_executed(),
        spec_a.job_count() + spec_b.job_count(),
        "each campaign's jobs ran exactly once"
    );
    assert_eq!(handle.active_pool_tasks(), 0, "finished campaigns must release the pool");

    // The daemon-wide listing names both campaigns as done, with the
    // shared pool's worker bound.
    let listing = body(&get(addr, "/status")).to_owned();
    assert!(listing.contains("\"workers\":2"), "listing: {listing}");
    for fp in [&fp_a, &fp_b] {
        let entry = format!("\"fingerprint\":\"{fp}\"");
        let at = listing.find(&entry).unwrap_or_else(|| panic!("{fp} missing from {listing}"));
        assert!(listing[at..].starts_with(&entry), "listing: {listing}");
        let tail = &listing[at..listing[at..].find('}').map(|e| at + e).unwrap_or(listing.len())];
        assert!(tail.contains("\"state\":\"done\""), "campaign {fp} not done in {listing}");
    }

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&data);
}

#[test]
fn repeat_aggregate_hits_are_served_from_cache() {
    let spec = spec();
    let expected = Executor::with_workers(1).run(&spec);
    let data = scratch("aggcache");
    let handle = serve(
        "127.0.0.1:0",
        ServeConfig { data_dir: data.clone(), executor: Executor::with_workers(2) },
    )
    .unwrap();
    let addr = handle.addr();
    let fp = fp_of(body(&post(addr, "/submit", &submit_body(&spec))));
    let status = wait_done(addr, &fp);
    assert!(body(&status).contains("\"workers\":2"), "per-campaign status: {status}");

    assert_eq!(handle.aggregates_computed(), 0, "no aggregate requested yet");
    let cold = get(addr, &format!("/aggregate/{fp}"));
    assert_eq!(body(&cold), expected_aggregate(&expected));
    assert_eq!(handle.aggregates_computed(), 1, "cold hit computes");

    // Repeat hits answer byte-identically from the cache — the store
    // is not re-read, the reduction not re-run.
    for _ in 0..3 {
        let warm = get(addr, &format!("/aggregate/{fp}"));
        assert_eq!(body(&warm), body(&cold));
    }
    assert_eq!(handle.aggregates_computed(), 1, "repeat hits must be cache hits");

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&data);
}

#[test]
fn oversized_and_malformed_requests_get_errors_not_a_dead_daemon() {
    let data = scratch("harden");
    let handle = serve(
        "127.0.0.1:0",
        ServeConfig { data_dir: data.clone(), executor: Executor::with_workers(2) },
    )
    .unwrap();
    let addr = handle.addr();

    // A Content-Length past the 1 MiB cap is refused before the body
    // is ever buffered.
    let oversized =
        request(addr, "POST /submit HTTP/1.1\r\nHost: t\r\nContent-Length: 2000000\r\n\r\n");
    assert!(oversized.starts_with("HTTP/1.1 413 "), "oversized: {oversized}");

    // An empty request line is a 400, not an unwinding handler thread.
    let garbage = request(addr, "\r\n");
    assert!(garbage.starts_with("HTTP/1.1 400 "), "garbage: {garbage}");

    // A 2 MiB request line, and a 2 MiB header after a valid one, are
    // refused at 8 KiB instead of being buffered whole.
    let pad = "x".repeat(2 << 20);
    let long_line = request_unread(addr, format!("GET /{pad} HTTP/1.1\r\nHost: t\r\n\r\n"));
    assert!(long_line.starts_with("HTTP/1.1 431 "), "long line: {:.200}", long_line);
    let long_header =
        request_unread(addr, format!("GET / HTTP/1.1\r\nHost: t\r\nX-Pad: {pad}\r\n\r\n"));
    assert!(long_header.starts_with("HTTP/1.1 431 "), "long header: {:.200}", long_header);

    // A submit with an unknown failure policy is rejected up front.
    let spec = spec();
    let axes = SpecAxes::of(&spec).unwrap();
    let bad = post(
        addr,
        "/submit",
        &format!(
            "{{\"campaign\":\"cli\",\"axes\":{},\"on_failure\":\"sometimes\"}}",
            axes.to_json()
        ),
    );
    assert!(bad.starts_with("HTTP/1.1 400 "), "bad policy: {bad}");
    assert!(bad.contains("bad on_failure"), "bad policy: {bad}");
    assert_eq!(handle.jobs_executed(), 0, "rejected submits must not run jobs");

    // The daemon survived all of it, and a well-formed submit carrying
    // a failure policy still runs to completion.
    assert_eq!(body(&get(addr, "/")), "eend-serve\n", "health after abuse");
    let good = post(
        addr,
        "/submit",
        &format!("{{\"campaign\":\"cli\",\"axes\":{},\"on_failure\":\"retry=2\"}}", axes.to_json()),
    );
    let fp = fp_of(body(&good));
    wait_done(addr, &fp);
    assert_eq!(handle.jobs_executed(), spec.job_count());

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&data);
}

#[test]
fn mebibyte_bodies_are_answered_promptly() {
    let data = scratch("mebibyte");
    let handle = serve(
        "127.0.0.1:0",
        ServeConfig { data_dir: data.clone(), executor: Executor::with_workers(1) },
    )
    .unwrap();
    let addr = handle.addr();

    // One string just under the 1 MiB body cap: parsed in linear time,
    // then refused for its null axes. (A reader that re-scanned the rest
    // of the body per character spent about a minute of CPU here.)
    let name = "x".repeat((1 << 20) - 64);
    let started = Instant::now();
    let resp = post(addr, "/submit", &format!("{{\"campaign\":\"{name}\",\"axes\":null}}"));
    assert!(resp.starts_with("HTTP/1.1 400 "), "long string: {}", &resp[..resp.len().min(200)]);
    assert!(resp.contains("expected object"), "long string: {}", &resp[..resp.len().min(200)]);

    // Brackets nested a million deep are refused, not a stack overflow.
    let resp = post(addr, "/submit", &"[".repeat(1 << 20));
    assert!(resp.starts_with("HTTP/1.1 400 "), "deep nesting: {resp}");
    assert!(resp.contains("nest deeper"), "deep nesting: {resp}");
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "two 1 MiB bodies took {:?}",
        started.elapsed()
    );

    assert_eq!(body(&get(addr, "/")), "eend-serve\n", "health after the big bodies");
    assert_eq!(handle.jobs_executed(), 0, "rejected submits must not run jobs");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&data);
}

/// Runs `spec` to completion into the fingerprinted store a daemon over
/// `data` would use, without a daemon, and returns the fingerprint.
fn complete_store_offline(data: &std::path::Path, spec: &CampaignSpec) -> String {
    let jobs = spec.expand();
    let fp = format!("{:016x}", fingerprint(&spec.name, &jobs));
    let mut store = ResultStore::open(data.join(&fp), Manifest::for_spec(spec, 0, 1)).unwrap();
    assert_eq!(store.run(&Executor::with_workers(2), &jobs, None).unwrap(), jobs.len());
    fp
}

#[test]
fn a_restarted_daemon_serves_a_complete_store_without_a_submit() {
    let spec = spec();
    let expected = Executor::with_workers(1).run(&spec);
    let data = scratch("rehydrate");
    let fp = complete_store_offline(&data, &spec);

    // No submit: every read rehydrates the campaign from disk.
    let handle = serve(
        "127.0.0.1:0",
        ServeConfig { data_dir: data.clone(), executor: Executor::with_workers(2) },
    )
    .unwrap();
    let addr = handle.addr();
    assert_eq!(body(&get(addr, &format!("/stream/{fp}"))), expected_jsonl(&expected));
    assert_eq!(body(&get(addr, &format!("/stream/{fp}?format=csv"))), expected.to_csv());
    assert_eq!(body(&get(addr, &format!("/aggregate/{fp}"))), expected_aggregate(&expected));
    assert_eq!(handle.jobs_executed(), 0, "a complete store must not run a job");

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&data);
}

#[test]
fn a_record_naming_another_job_is_refused_before_any_header() {
    let spec = spec();
    let data = scratch("identity");
    let fp = complete_store_offline(&data, &spec);

    // Job 1's line still parses, but claims a seed its job does not have.
    let records = data.join(&fp).join("records.jsonl");
    let text = std::fs::read_to_string(&records).unwrap();
    let seed = spec.expand()[1].point.seed;
    let tampered: String = text
        .lines()
        .map(|l| {
            let l = if l.starts_with("{\"job\":1,") {
                let forged = format!(",\"seed\":{},", seed + 1000);
                l.replacen(&format!(",\"seed\":{seed},"), &forged, 1)
            } else {
                l.to_owned()
            };
            l + "\n"
        })
        .collect();
    assert_ne!(tampered, text, "the tamper must land");
    std::fs::write(&records, tampered).unwrap();

    let handle = serve(
        "127.0.0.1:0",
        ServeConfig { data_dir: data.clone(), executor: Executor::with_workers(2) },
    )
    .unwrap();
    let addr = handle.addr();
    for path in
        [format!("/stream/{fp}"), format!("/stream/{fp}?format=csv"), format!("/aggregate/{fp}")]
    {
        let resp = get(addr, &path);
        assert!(resp.starts_with("HTTP/1.1 400 "), "{path}: {resp}");
        assert!(body(&resp).contains("job 1 "), "{path} must name the job: {resp}");
    }
    let resp = post(addr, "/submit", &submit_body(&spec));
    assert!(resp.starts_with("HTTP/1.1 400 "), "submit: {resp}");
    assert_eq!(handle.jobs_executed(), 0);

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&data);
}

#[test]
fn failure_plans_outside_the_network_are_refused_before_a_store_exists() {
    let data = scratch("bad-kills");
    let handle = serve(
        "127.0.0.1:0",
        ServeConfig { data_dir: data.clone(), executor: Executor::with_workers(1) },
    )
    .unwrap();
    let addr = handle.addr();

    // The small preset has 50 nodes, 0..=49; the time must be a clock
    // instant.
    for (plan, named) in [
        (FailurePlan::kill("beyond", 10.0, 50), "\"beyond\" kills node 50 at 10 s"),
        (FailurePlan::kill("early", -1.0, 3), "\"early\" kills node 3 at -1 s"),
    ] {
        let spec = spec().failures(vec![FailurePlan::none(), plan]);
        let resp = post(addr, "/submit", &submit_body(&spec));
        assert!(resp.starts_with("HTTP/1.1 400 "), "{named}: {resp}");
        assert!(body(&resp).contains(named), "the error must name the plan and the kill: {resp}");
    }

    assert_eq!(body(&get(addr, "/")), "eend-serve\n", "health after the refusals");
    assert_eq!(handle.jobs_executed(), 0, "refused submits must not run jobs");
    let stores = std::fs::read_dir(&data).map_or(0, |d| d.count());
    assert_eq!(stores, 0, "refused submits must not create a store directory");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&data);
}

#[test]
fn a_mixed_traffic_aggregate_keeps_one_cell_per_traffic_model() {
    use eend::wireless::TrafficModel;
    let spec = CampaignSpec::new("cli", BaseScenario::Small)
        .stacks(vec![stacks::titan_pc()])
        .rates(vec![4.0])
        .traffic(vec![TrafficModel::Cbr, TrafficModel::Poisson])
        .seeds(2)
        .secs(15);
    let expected = Executor::with_workers(1).run(&spec);
    let data = scratch("aggmixed");
    let handle = serve(
        "127.0.0.1:0",
        ServeConfig { data_dir: data.clone(), executor: Executor::with_workers(2) },
    )
    .unwrap();
    let addr = handle.addr();
    let fp = fp_of(body(&post(addr, "/submit", &submit_body(&spec))));
    wait_done(addr, &fp);

    // One cell per traffic model, as the CLI's summary prints them: the
    // cell's records alone, aggregated over x = rate, with the traffic
    // key right after "x".
    let mut want = String::new();
    for traffic in ["cbr", "poisson"] {
        let cell = CampaignResult {
            campaign: expected.campaign.clone(),
            records: expected
                .records
                .iter()
                .filter(|r| r.point.traffic == traffic)
                .cloned()
                .collect(),
        };
        assert_eq!(cell.records.len(), 2);
        let keyed = expected_aggregate(&cell)
            .replace(",\"n\":", &format!(",\"traffic\":\"{traffic}\",\"n\":"));
        want.push_str(&keyed);
    }
    let got = get(addr, &format!("/aggregate/{fp}"));
    assert_eq!(body(&got), want);
    assert!(body(&got).lines().all(|l| l.contains(",\"n\":2,")), "{}", body(&got));

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&data);
}
