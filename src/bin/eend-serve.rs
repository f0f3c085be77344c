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
use eend::cli::{die, Args, Usage};
use std::path::PathBuf;

const USAGE: Usage = Usage {
    prefix: "eend-serve: ",
    unknown: "unknown argument",
    text: "usage: eend-serve [--addr HOST:PORT] [--data DIR] [--workers N]\n\
           \n\
           Campaign-as-a-service daemon: POST /submit a campaign spec,\n\
           GET /status/<fp>, /stream/<fp>?from=N&format=csv|jsonl,\n\
           /aggregate/<fp>. Identical re-submissions answer from cache.",
};

fn main() {
    let mut addr = "127.0.0.1:7878".to_owned();
    let mut data = PathBuf::from("eend-serve-data");
    let mut workers: Option<usize> = None;
    let mut args = Args::new(std::env::args().skip(1), &USAGE);
    while let Some(arg) = args.next_flag() {
        match arg.as_str() {
            "--addr" => addr = args.value(&arg),
            "--data" => data = PathBuf::from(args.value(&arg)),
            "--workers" => workers = Some(args.number(&arg)),
            other => args.unknown(other),
        }
    }
    let executor = match workers {
        Some(n) => Executor::with_workers(n),
        None => Executor::bounded(),
    };
    let handle = serve(&addr, ServeConfig { data_dir: data.clone(), executor })
        .unwrap_or_else(|e| die(format_args!("cannot listen on {addr}: {e}")));
    eprintln!(
        "eend-serve: listening on {} (data {}, {} workers)",
        handle.addr(),
        data.display(),
        executor.workers()
    );
    #[cfg(unix)]
    {
        use eend::cli::signals;
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
