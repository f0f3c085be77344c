//! `eend-benchmark`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! eend-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                [--trace-dir DIR] [--out FILE] [--bless]
//! eend-benchmark compare --base A.json.. --head B.json.. [--benchmark BENCHMARK.json]
//! ```
//!
//! With `--workload`, one workload runs in this process: every metric is
//! printed as `workload metric value unit`, and the last line of stdout is
//! the JSON result `{"correct","attempted","failed","metrics"}`. Without
//! it, each workload runs in a child process of its own (so peak RSS is
//! per workload) and the results are gathered. `--trace 1` does a traced
//! run and reports the per-layer metrics instead of the end-to-end ones,
//! writing spans and self times under `--trace-dir`. See README.md.

mod compare;
mod cpu;
mod json;
mod metrics;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use workloads::{Ctx, Load, Outcome, NAMES};

const DEFAULT_SEED: u64 = 1;
/// Matches `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 30.0;
/// Op digests pinned for [`DEFAULT_SEED`]; `--bless` rewrites the file.
const EXPECTED: &str = include_str!("../expected.txt");
const EXPECTED_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/expected.txt");
/// Scratch space, relative to the directory the benchmark runs in.
const WORK_DIR: &str = ".bench_work";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: PathBuf,
    out: Option<PathBuf>,
    bless: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: eend-benchmark [--workload {}] [--seed N] [--seconds S]\n\
         \u{20}                     [--trace 0|1] [--trace-dir DIR] [--out FILE] [--bless]\n\
         \u{20}      eend-benchmark compare --base A.json.. --head B.json.. [--benchmark FILE]",
        NAMES.join("|")
    );
    std::process::exit(2)
}

fn parse(argv: &[String]) -> Args {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        trace_dir: PathBuf::from(WORK_DIR).join("trace"),
        out: None,
        bless: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => {
                let w = val();
                if !NAMES.contains(&w.as_str()) {
                    eprintln!("error: unknown workload {w:?}");
                    usage()
                }
                a.workload = Some(w);
            }
            "--seed" => a.seed = val().parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                a.seconds = val().parse().unwrap_or_else(|_| usage());
                if !(a.seconds.is_finite() && a.seconds >= 0.0) {
                    usage()
                }
            }
            "--trace" => {
                a.trace = match val().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--trace-dir" => a.trace_dir = PathBuf::from(val()),
            "--out" => a.out = Some(PathBuf::from(val())),
            "--bless" => a.bless = true,
            _ => usage(),
        }
    }
    a
}

/// W: worker threads, client threads and open connections. One: on a
/// 2-core shared virtual machine a second busy thread doubled the
/// run-to-run spread of the timings, because it measured the host's
/// scheduler rather than the program (see README.md).
const WORKERS: usize = 1;

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        std::process::exit(compare::main(&argv[1..]));
    }
    let args = parse(&argv);
    if let Err(e) = cpu::pin_to_one_cpu() {
        eprintln!("warning: cannot keep the benchmark on one CPU: {e}");
    }
    let code = if args.bless {
        bless(&args)
    } else if let Some(w) = &args.workload {
        run_one(&args, w)
    } else {
        run_all(&args)
    };
    // Only succeeds when nothing (such as a trace) is left in it.
    let _ = std::fs::remove_dir(WORK_DIR);
    std::process::exit(code)
}

/// Runs one workload in this process; `pin` checks the op digests of
/// `expected.txt` when the seed is the default one.
fn run_workload(
    workload: &str,
    seed: u64,
    load: &Load,
    traced: bool,
    pin: bool,
) -> Result<Outcome, String> {
    let tracer = trace::Tracer::new();
    let ctx = Ctx {
        seed,
        load,
        workers: WORKERS,
        tracer: &tracer,
        work_dir: PathBuf::from(WORK_DIR).join(format!("{workload}-{}", std::process::id())),
    };
    let expected = if pin && seed == DEFAULT_SEED {
        workloads::expected_for(EXPECTED, workload)
    } else {
        BTreeMap::new()
    };
    workloads::run(workload, &ctx, traced, &expected)
}

/// The result line: exactly `correct`, `attempted`, `failed` and `metrics`.
fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, v)| {
            let unit = metrics::decl(name).map_or("", |d| d.unit);
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json::string(name),
                json::number(*v),
                json::string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.correct(),
        o.attempted,
        o.failed,
        metrics.join(",")
    )
}

fn run_one(args: &Args, workload: &str) -> i32 {
    let load = Load::standard(args.seconds);
    let o = match run_workload(workload, args.seed, &load, args.trace, true) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {workload}: {e}");
            return 1;
        }
    };
    for (name, v) in &o.metrics {
        let unit = metrics::decl(name).map_or("", |d| d.unit);
        println!("{workload} {name} {} {unit}", json::number(*v));
    }
    for e in &o.errors {
        eprintln!("{workload}: FAILED {e}");
    }
    let tail = workloads::tail_percentile(workload);
    if !args.trace && stats::samples_beyond(o.op_samples, tail) < stats::MIN_BEYOND {
        eprintln!(
            "{workload}: warning: p{tail} of {} op timings leaves fewer than {} beyond it",
            o.op_samples,
            stats::MIN_BEYOND
        );
    }
    if args.trace {
        if let Err(e) = write_trace(&args.trace_dir, workload, &o) {
            eprintln!("error: cannot write the trace: {e}");
            return 1;
        }
    }
    let line = result_line(&o);
    if let Some(out) = &args.out {
        let entry = workload_entry(workload, &load, &o, &line);
        if let Err(e) = std::fs::write(out, result_file(args, &[entry])) {
            eprintln!("error: cannot write {}: {e}", out.display());
            return 1;
        }
    }
    println!("{line}");
    i32::from(!o.correct())
}

/// `DIR/<workload>.spans.jsonl` and `DIR/<workload>.layers.json`.
fn write_trace(dir: &std::path::Path, workload: &str, o: &Outcome) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(format!("{workload}.spans.jsonl")), &o.spans_jsonl)?;
    let self_s: Vec<String> = o
        .self_seconds
        .iter()
        .map(|(k, v)| format!("{}:{}", json::string(k), json::number(*v)))
        .collect();
    let layers: Vec<String> = o
        .metrics
        .iter()
        .map(|(k, v)| format!("{}:{}", json::string(k), json::number(*v)))
        .collect();
    std::fs::write(
        dir.join(format!("{workload}.layers.json")),
        format!(
            "{{\"self_s\":{{{}}},\"metrics\":{{{}}}}}\n",
            self_s.join(","),
            layers.join(",")
        ),
    )
}

/// Percentiles a tail may be reported at, for result provenance.
const TAIL_LADDER: [f64; 7] = [50.0, 75.0, 80.0, 90.0, 95.0, 99.0, 99.9];

/// One workload's object in a result file: the result line's keys plus
/// its load, its op sample count and tail percentile.
fn workload_entry(workload: &str, load: &Load, o: &Outcome, line: &str) -> String {
    let sizes: Vec<String> = load
        .describe(workload)
        .into_iter()
        .map(|(k, v)| format!("{}:{}", json::string(k), json::string(&v)))
        .collect();
    let body = line
        .strip_prefix('{')
        .and_then(|l| l.strip_suffix('}'))
        .unwrap_or("");
    let supported = stats::highest_supported(o.op_samples, &TAIL_LADDER);
    format!(
        "{}:{{{body},\"load\":{{{}}},\"op_samples\":{},\"tail_percentile\":{},\
         \"highest_supported_percentile\":{},\"errors\":[{}]}}",
        json::string(workload),
        sizes.join(","),
        o.op_samples,
        workloads::tail_percentile(workload),
        supported.map_or("null".to_owned(), json::number),
        o.errors
            .iter()
            .map(|e| json::string(e))
            .collect::<Vec<_>>()
            .join(",")
    )
}

/// A result file: provenance plus one entry per workload.
fn result_file(args: &Args, entries: &[String]) -> String {
    let git = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| json::string(String::from_utf8_lossy(&o.stdout).trim()))
        .unwrap_or_else(|| "null".to_owned());
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    format!(
        "{{\"schema\":\"eend-benchmark/1\",\"provenance\":{{\"host_cores\":{},\"workers\":{},\
         \"seed\":{},\"seconds\":{},\"trace\":{},\"git_rev\":{git},\"unix_time\":{unix_time}}},\
         \"workloads\":{{{}}}}}\n",
        host_cores(),
        WORKERS,
        args.seed,
        json::number(args.seconds),
        args.trace,
        entries.join(",")
    )
}

/// Runs every workload in a child process of its own, echoing each
/// one's output, and gathers their results into `--out`.
fn run_all(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cannot find this executable: {e}");
            return 1;
        }
    };
    let _ = std::fs::create_dir_all(WORK_DIR);
    let (mut entries, mut code) = (Vec::new(), 0);
    for w in NAMES {
        let part = PathBuf::from(WORK_DIR).join(format!("{w}-{}.json", std::process::id()));
        let output = Command::new(&exe)
            .args([
                "--workload",
                w,
                "--seed",
                &args.seed.to_string(),
                "--seconds",
            ])
            .arg(args.seconds.to_string())
            .args(["--trace", if args.trace { "1" } else { "0" }, "--trace-dir"])
            .arg(&args.trace_dir)
            .arg("--out")
            .arg(&part)
            .stderr(Stdio::inherit())
            .output();
        let output = match output {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: cannot run the {w} workload: {e}");
                return 1;
            }
        };
        print!("{}", String::from_utf8_lossy(&output.stdout));
        if !output.status.success() {
            code = 1;
        }
        let parsed = std::fs::read_to_string(&part)
            .ok()
            .and_then(|t| json::parse(&t).ok());
        let _ = std::fs::remove_file(&part);
        let Some(entry) = parsed.as_ref().and_then(|doc| doc.get("workloads")?.get(w)) else {
            eprintln!("error: the {w} workload left no result");
            code = 1;
            continue;
        };
        entries.push(format!("{}:{}", json::string(w), render(entry)));
    }
    if let Some(out) = &args.out {
        if let Err(e) = std::fs::write(out, result_file(args, &entries)) {
            eprintln!("error: cannot write {}: {e}", out.display());
            return 1;
        }
    }
    code
}

/// Renders a parsed JSON value back to text.
fn render(v: &json::Json) -> String {
    use json::Json;
    match v {
        Json::Null => "null".to_owned(),
        Json::Bool(b) => b.to_string(),
        Json::Num(n) => json::number(*n),
        Json::Str(s) => json::string(s),
        Json::Arr(items) => format!(
            "[{}]",
            items.iter().map(render).collect::<Vec<_>>().join(",")
        ),
        Json::Obj(fields) => format!(
            "{{{}}}",
            fields
                .iter()
                .map(|(k, v)| format!("{}:{}", json::string(k), render(v)))
                .collect::<Vec<_>>()
                .join(",")
        ),
    }
}

/// Reruns the first rounds at the default seed and rewrites their op
/// digests in `expected.txt` (for the chosen workload, or all).
fn bless(args: &Args) -> i32 {
    let chosen: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => NAMES.to_vec(),
    };
    let load = Load {
        min_rounds: workloads::EXPECTED_ROUNDS,
        ..Load::standard(0.0)
    };
    let mut kept: Vec<String> = EXPECTED
        .lines()
        .filter(|l| {
            !chosen
                .iter()
                .any(|w| l.split_whitespace().next() == Some(*w))
        })
        .map(str::to_owned)
        .collect();
    for w in &chosen {
        match run_workload(w, DEFAULT_SEED, &load, false, false) {
            Ok(o) if o.errors.is_empty() => {
                kept.extend(
                    o.digests
                        .iter()
                        .map(|(key, d)| format!("{w} {key} {d:016x}")),
                );
            }
            Ok(o) => {
                eprintln!("error: {w} failed its checks, not blessing: {:?}", o.errors);
                return 1;
            }
            Err(e) => {
                eprintln!("error: {w}: {e}");
                return 1;
            }
        }
    }
    kept.sort_by_key(|l| {
        let w = l.split_whitespace().next().unwrap_or("");
        NAMES.iter().position(|n| *n == w).unwrap_or(NAMES.len())
    });
    let mut text = kept.join("\n");
    text.push('\n');
    match std::fs::write(EXPECTED_PATH, text) {
        Ok(()) => {
            eprintln!(
                "blessed {} into {EXPECTED_PATH}; rebuild to pick it up",
                chosen.join(", ")
            );
            0
        }
        Err(e) => {
            eprintln!("error: cannot write {EXPECTED_PATH}: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json beside the package"))
            .expect("BENCHMARK.json parses")
    }

    fn names(v: &Json, key: &str) -> Vec<String> {
        v.get(key)
            .map(Json::arr)
            .unwrap_or(&[])
            .iter()
            .map(|m| m.get("name").unwrap().str().unwrap().to_owned())
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_benchmark_emits() {
        let b = benchmark_json();
        let keys: Vec<&str> = b.obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            b.get("run_seconds").and_then(Json::num),
            Some(DEFAULT_SECONDS)
        );
        assert_eq!(names(&b, "workloads"), NAMES);
        for (key, decls) in [
            ("end_to_end", metrics::END_TO_END),
            ("per_layer", metrics::PER_LAYER),
        ] {
            let declared = b.get(key).unwrap().arr();
            assert_eq!(declared.len(), decls.len(), "{key}");
            for (j, d) in declared.iter().zip(decls) {
                assert_eq!(j.get("name").and_then(Json::str), Some(d.name));
                assert_eq!(
                    j.get("unit").and_then(Json::str),
                    Some(d.unit),
                    "{}",
                    d.name
                );
                assert_eq!(
                    j.get("better").and_then(Json::str),
                    Some(d.better),
                    "{}",
                    d.name
                );
                if key == "end_to_end" {
                    let bound = j.get("bound").and_then(Json::num).expect("a bound");
                    assert!(bound > 0.0 && bound <= 0.25, "{}", d.name);
                }
            }
        }
        let setup = b
            .get("end_to_end")
            .unwrap()
            .arr()
            .iter()
            .find(|m| m.get("name").and_then(Json::str) == Some("setup_s"));
        assert_eq!(
            setup.and_then(|m| m.get("unit")).and_then(Json::str),
            Some("s")
        );
        // The command builds this package, named by a path under `paths`.
        let paths: Vec<&str> = b
            .get("paths")
            .unwrap()
            .arr()
            .iter()
            .filter_map(Json::str)
            .collect();
        assert_eq!(paths, ["eend-benchmark"]);
        let command: Vec<&str> = b
            .get("command")
            .unwrap()
            .arr()
            .iter()
            .filter_map(Json::str)
            .collect();
        assert!(
            command.contains(&"eend-benchmark/Cargo.toml"),
            "{command:?}"
        );
    }

    #[test]
    fn the_result_line_has_exactly_four_keys() {
        let o = Outcome {
            attempted: 3,
            failed: 0,
            errors: Vec::new(),
            metrics: vec![("setup_s", 0.012_345_678_9), ("ops_per_cpu_s", 12.5)],
            op_samples: 3,
            digests: Vec::new(),
            self_seconds: BTreeMap::new(),
            spans_jsonl: String::new(),
        };
        let v = json::parse(&result_line(&o)).unwrap();
        let keys: Vec<&str> = v.obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        let setup = v.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(
            setup.get("value").and_then(Json::num),
            Some(0.012_345_678_9),
            "every digit kept"
        );
        assert_eq!(setup.get("unit").and_then(Json::str), Some("s"));
        let failing = Outcome { failed: 1, ..o };
        assert_eq!(
            json::parse(&result_line(&failing)).unwrap().get("correct"),
            Some(&Json::Bool(false))
        );
    }
}
