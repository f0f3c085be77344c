//! `serve`: an in-process `eend-serve` daemon driven over HTTP by W
//! closed-loop clients.
//!
//! An op is one client cycle: submit a fresh 32-job Small-preset campaign
//! ({TITAN-PC, DSR-ODPM} × {2,4} Kbit/s × 8 seeds, 20 simulated seconds),
//! read its live stream to the end, fetch its aggregate twice, submit it
//! again (answered from cache), and replay the store as CSV. Jobs take
//! about a millisecond, so the shared pool, store appends, the stream
//! tailer, aggregation and HTTP handling dominate; the cached submit,
//! the warm aggregate and the replay are read paths beside the write
//! path. Thirty-two jobs rather than eight per campaign keep the records
//! moved per request, not the per-connection thread start-up, the larger
//! cost; on a virtual machine that start-up swings with the host's load.
//! Each round starts a fresh daemon over a fresh data directory, so
//! memory and disk stay the same however many rounds a run fits in.

use super::{fnv, Ctx, Op, Round};
use crate::cpu::CpuInstant;
use crate::json::{self, Json};
use crate::metrics::{add, Counters};
use eend::campaign::serve::serve;
use eend::campaign::{BaseScenario, CampaignSpec, Executor, ServeConfig, SpecAxes};
use eend::sim::mix_seed;
use eend::wireless::stacks;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A run fits about 900 cycles; p95 leaves ≥10 beyond.
pub const TAIL_PERCENTILE: f64 = 95.0;

/// The campaign of cycle `i` of client `c` in round `k`.
fn spec(seed: u64, k: usize, c: usize, i: usize, secs: u64) -> CampaignSpec {
    let seed_base = mix_seed(&[0x5e7e_c0de, seed, k as u64, c as u64, i as u64]) % 1_000_000_007;
    CampaignSpec::new(&format!("serve-{k}-{c}-{i}"), BaseScenario::Small)
        .stacks(vec![stacks::titan_pc(), stacks::dsr_odpm()])
        .rates(vec![2.0, 4.0])
        .seeds(8)
        .seed_base(seed_base)
        .secs(secs)
}

/// Drops a connection whose response was read to the end with a reset
/// instead of a FIN, so the daemon's side skips TIME_WAIT. The daemon
/// closes first; with ordinary closes each run would leave over a
/// thousand TIME_WAIT entries a second in the kernel for the next minute,
/// and a run's kernel state would depend on the runs before it.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
fn close_with_reset(s: TcpStream) {
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct Linger {
        onoff: i32,
        secs: i32,
    }
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const Linger, len: u32) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_LINGER: i32 = 13;
    let linger = Linger { onoff: 1, secs: 0 };
    // SAFETY: `s` owns an open socket descriptor for the whole call, and
    // `linger` is a valid `struct linger` of exactly the length passed,
    // which setsockopt only reads. A failure leaves an ordinary close.
    unsafe {
        setsockopt(
            s.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            &linger,
            std::mem::size_of::<Linger>() as u32,
        );
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
fn close_with_reset(_s: TcpStream) {}

/// Status code and body of one close-delimited HTTP exchange.
fn request(addr: SocketAddr, raw: &str) -> Result<(u16, String), String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.write_all(raw.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut out = String::new();
    s.read_to_string(&mut out)
        .map_err(|e| format!("read: {e}"))?;
    close_with_reset(s);
    let status = out.get(9..12).and_then(|c| c.parse().ok()).unwrap_or(0);
    let body = out
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    Ok((status, body))
}

fn get(addr: SocketAddr, path: &str) -> Result<(u16, String), String> {
    request(addr, &format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n"))
}

fn post(addr: SocketAddr, path: &str, body: &str) -> Result<(u16, String), String> {
    request(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// Reads a live `/stream` to its end: the body, plus when its first and
/// last lines arrived.
fn stream(
    addr: SocketAddr,
    fp: &str,
) -> Result<(String, Option<Instant>, Option<Instant>), String> {
    let mut conn = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    conn.write_all(format!("GET /stream/{fp} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut reader = BufReader::new(conn);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("read: {e}"))?;
    if !line.starts_with("HTTP/1.1 200") {
        return Err(format!("stream answered {}", line.trim_end()));
    }
    loop {
        line.clear();
        if reader
            .read_line(&mut line)
            .map_err(|e| format!("read: {e}"))?
            == 0
            || line == "\r\n"
        {
            break;
        }
    }
    let (mut body, mut first, mut last) = (String::new(), None, None);
    loop {
        line.clear();
        if reader
            .read_line(&mut line)
            .map_err(|e| format!("read: {e}"))?
            == 0
        {
            close_with_reset(reader.into_inner());
            return Ok((body, first, last));
        }
        let now = Instant::now();
        first.get_or_insert(now);
        last = Some(now);
        body.push_str(&line);
    }
}

/// The fingerprint and `cached` flag of a successful submit.
fn submitted(status: u16, body: &str) -> Result<(String, bool), String> {
    let doc = (status == 200).then(|| json::parse(body).ok()).flatten();
    let fields = doc.as_ref().and_then(|v| {
        let fp = v.get("fingerprint")?.str()?.to_owned();
        match v.get("cached")? {
            Json::Bool(cached) => Some((fp, *cached)),
            _ => None,
        }
    });
    fields.ok_or_else(|| format!("submit answered {status}: {}", body.trim_end()))
}

/// One cycle's input: its submit body and job count.
struct Input {
    key: String,
    body: String,
    total: usize,
}

/// Round `k`'s inputs, one list per client.
fn inputs(ctx: &Ctx, k: usize, clients: usize) -> Vec<Vec<Input>> {
    (0..clients)
        .map(|c| {
            (0..ctx.load.serve_cycles)
                .map(|i| {
                    let spec = spec(ctx.seed, k, c, i, ctx.load.serve_secs);
                    let axes = SpecAxes::of(&spec).expect("registry stacks are wire-expressible");
                    Input {
                        key: format!("k{k}.c{c}.{i}"),
                        body: format!(
                            "{{\"campaign\":\"{}\",\"axes\":{}}}",
                            spec.name,
                            axes.to_json()
                        ),
                        total: spec.job_count(),
                    }
                })
                .collect()
        })
        .collect()
}

struct Cycle {
    op: Op,
    ttfr: Duration,
    last_record: Duration,
}

fn cycle(ctx: &Ctx, addr: SocketAddr, input: &Input) -> Cycle {
    let tracer = ctx.tracer;
    let (body, total) = (&input.body, input.total);
    let (start, start_cpu) = (Instant::now(), CpuInstant::now());
    let (mut ttfr, mut last_record) = (Duration::ZERO, Duration::ZERO);
    let outcome = (|| -> Result<String, String> {
        let _op = tracer.span("bench.op");
        let (status, sub) = {
            let _s = tracer.span("campaign.serve.submit");
            post(addr, "/submit", body)?
        };
        let (fp, cached) = submitted(status, &sub)?;
        if cached {
            return Err("a fresh campaign was answered from cache".to_owned());
        }
        let (records, first, last) = {
            let mut s = tracer.span("campaign.serve.stream");
            let got = stream(addr, &fp)?;
            s.count("records", got.0.lines().count() as u64);
            got
        };
        ttfr = first.map_or(Duration::ZERO, |t| t - start);
        last_record = last.map_or(Duration::ZERO, |t| t - start);
        let rows = records.lines().count();
        if rows != total {
            return Err(format!("stream held {rows} records for {total} jobs"));
        }
        let (s1, cold) = {
            let _s = tracer.span("campaign.serve.aggregate_cold");
            get(addr, &format!("/aggregate/{fp}"))?
        };
        let (s2, warm) = {
            let _s = tracer.span("campaign.serve.aggregate_warm");
            get(addr, &format!("/aggregate/{fp}"))?
        };
        if (s1, s2) != (200, 200) || cold != warm || cold.is_empty() {
            return Err(format!(
                "aggregates answered {s1}/{s2} and differ or are empty"
            ));
        }
        let (status, again) = {
            let _s = tracer.span("campaign.serve.submit_cached");
            post(addr, "/submit", body)?
        };
        if !submitted(status, &again)?.1 {
            return Err("an identical resubmit was not answered from cache".to_owned());
        }
        let (status, csv) = {
            let _s = tracer.span("campaign.serve.replay");
            get(addr, &format!("/stream/{fp}?format=csv"))?
        };
        let rows = csv.lines().count();
        if status != 200 || rows != total + 1 {
            return Err(format!(
                "replay answered {status} with {rows} lines for {total} jobs"
            ));
        }
        Ok(format!("{records}{cold}{csv}"))
    })();
    let cpu_s = start_cpu.elapsed_s();
    let key = input.key.clone();
    let op = match outcome {
        Ok(text) => Op {
            key,
            cpu_s,
            digest: fnv(text.as_bytes()),
            error: None,
        },
        Err(e) => Op {
            key,
            cpu_s,
            digest: 0,
            error: Some(e),
        },
    };
    Cycle {
        op,
        ttfr,
        last_record,
    }
}

/// Total bytes of every store's `records.jsonl` under the data directory.
fn store_bytes(data: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(data) else {
        return 0;
    };
    entries
        .flatten()
        .filter_map(|e| std::fs::metadata(e.path().join("records.jsonl")).ok())
        .map(|m| m.len())
        .sum()
}

pub fn round(ctx: &Ctx, k: usize, counters: &mut Counters) -> Result<Round, String> {
    let tracer = ctx.tracer;
    let data = ctx.round_dir("serve", k);
    let clients = ctx.workers;
    let setup = CpuInstant::now();
    let (inputs, handle) = {
        let _setup = tracer.span("bench.setup");
        let inputs = inputs(ctx, k, clients);
        let handle = serve(
            "127.0.0.1:0",
            ServeConfig {
                data_dir: data.clone(),
                executor: Executor::with_workers(ctx.workers),
            },
        )
        .map_err(|e| format!("cannot start the daemon: {e}"))?;
        (inputs, handle)
    };
    let setup_s = setup.elapsed_s();
    let addr = handle.addr();

    let start = CpuInstant::now();
    let cycles: Vec<Cycle> = std::thread::scope(|s| {
        let handles: Vec<_> = inputs
            .iter()
            .map(|mine| {
                s.spawn(move || {
                    mine.iter()
                        .map(|input| cycle(ctx, addr, input))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let cpu_s = start.elapsed_s();

    let unique_jobs: usize = inputs.iter().flatten().map(|input| input.total).sum();
    let executed = handle.jobs_executed();
    let computed = handle.aggregates_computed();
    let bytes = store_bytes(&data);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&data);

    let campaigns = cycles.len();
    let mut ops: Vec<Op> = Vec::with_capacity(campaigns);
    for c in cycles {
        add(counters, "campaign.serve.ttfr_ns", c.ttfr.as_nanos() as f64);
        add(
            counters,
            "campaign.serve.last_record_ns",
            c.last_record.as_nanos() as f64,
        );
        ops.push(c.op);
    }
    if executed != unique_jobs || computed != campaigns {
        if let Some(op) = ops.last_mut() {
            op.error.get_or_insert(format!(
                "daemon executed {executed} jobs for {unique_jobs} unique and computed {computed} \
                 aggregates for {campaigns} campaigns"
            ));
        }
    }
    add(counters, "campaign.serve.executed", executed as f64);
    add(counters, "campaign.serve.unique_jobs", unique_jobs as f64);
    add(
        counters,
        "campaign.serve.aggregate_requests",
        2.0 * campaigns as f64,
    );
    add(
        counters,
        "campaign.serve.aggregates_computed",
        computed as f64,
    );
    add(counters, "campaign.store.records", unique_jobs as f64);
    add(counters, "campaign.store.bytes", bytes as f64);
    Ok(Round {
        setup_s,
        cpu_s,
        work: unique_jobs as f64,
        ops,
    })
}
