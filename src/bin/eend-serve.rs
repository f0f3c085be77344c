//! `eend-serve` — the campaign-as-a-service daemon.
//!
//! Accepts [`eend::campaign::CampaignSpec`]s over a line-oriented
//! HTTP/JSONL protocol, runs them on the bounded campaign executor,
//! persists every record into fingerprinted result stores under the
//! data directory, and answers re-submitted specs from cache by
//! fingerprint. See `eend::campaign::serve` for the protocol.
//!
//! ```text
//! eend-serve [--addr HOST:PORT] [--data DIR] [--workers N]
//!
//!   --addr HOST:PORT   listen address        [default 127.0.0.1:7878]
//!   --data DIR         store directory       [default eend-serve-data]
//!   --workers N        executor worker bound [default: all cores]
//! ```
//!
//! ```text
//! curl -X POST --data '{"campaign":"cli","axes":{"preset":"small",
//!   "stacks":["TITAN-PC"],"rates":[2,4],"node_counts":[],"speeds":[],
//!   "traffic":[],"radio":[],"failures":[],"seeds":2,"seed_base":0,
//!   "secs":30}}' http://127.0.0.1:7878/submit
//! curl http://127.0.0.1:7878/status/<fingerprint>
//! curl http://127.0.0.1:7878/stream/<fingerprint>?format=csv
//! ```

use eend::campaign::serve::serve;
use eend::campaign::{Executor, ServeConfig};
use std::path::PathBuf;
use std::process::exit;

/// SIGTERM/SIGINT handling without any dependency: a C signal handler
/// flips one flag; the main thread polls it and runs the graceful
/// shutdown sequence (stop accepting, let the in-flight record land
/// durably, flush stores, exit 0).
#[cfg(unix)]
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERMINATED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        TERMINATED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }

    pub fn requested() -> bool {
        TERMINATED.load(Ordering::SeqCst)
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: eend-serve [--addr HOST:PORT] [--data DIR] [--workers N]\n\
         \n\
         Campaign-as-a-service daemon: POST /submit a campaign spec,\n\
         GET /status/<fp>, /stream/<fp>?from=N&format=csv|jsonl,\n\
         /aggregate/<fp>. Identical re-submissions answer from cache."
    );
    exit(2)
}

fn main() {
    let mut addr = "127.0.0.1:7878".to_owned();
    let mut data = PathBuf::from("eend-serve-data");
    let mut workers: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("eend-serve: {flag} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--addr" => addr = value("--addr"),
            "--data" => data = PathBuf::from(value("--data")),
            "--workers" => {
                workers = Some(value("--workers").parse().unwrap_or_else(|_| {
                    eprintln!("eend-serve: --workers needs a number");
                    usage()
                }))
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("eend-serve: unknown argument {other:?}");
                usage()
            }
        }
    }
    let executor = match workers {
        Some(n) => Executor::with_workers(n),
        None => Executor::bounded(),
    };
    let handle =
        serve(&addr, ServeConfig { data_dir: data.clone(), executor }).unwrap_or_else(|e| {
            eprintln!("eend-serve: cannot listen on {addr}: {e}");
            exit(1)
        });
    eprintln!(
        "eend-serve: listening on {} (data {}, {} workers)",
        handle.addr(),
        data.display(),
        executor.workers()
    );
    #[cfg(unix)]
    {
        signals::install();
        while !signals::requested() {
            std::thread::sleep(std::time::Duration::from_millis(100));
        }
        eprintln!("eend-serve: shutdown requested, draining");
        // Stops accepting, lets the campaign mid-run finish its
        // in-flight record durably, and joins both service threads —
        // a restart over the same data dir resumes the missing jobs.
        handle.shutdown();
        eprintln!("eend-serve: stopped cleanly");
    }
    #[cfg(not(unix))]
    handle.join();
}
