//! Argument handling of the two binaries: for every `eend-cli`
//! subcommand and for `eend-serve`, bad input exits with a fixed code
//! and a fixed `error:` line, followed by the subcommand's usage text.
//! Nothing is simulated: every case fails (or lists) before a job runs.

use std::process::Command;

const CLI: &str = env!("CARGO_BIN_EXE_eend-cli");
const SERVE: &str = env!("CARGO_BIN_EXE_eend-serve");

const RUN_USAGE: &str = "usage: eend-cli [--stack NAME]";
const CAMPAIGN_USAGE: &str = "usage: eend-cli campaign [--preset";
const MERGE_USAGE: &str = "usage: eend-cli campaign merge DIR1 DIR2";
const BENCH_USAGE: &str = "usage: eend-cli bench [--runs N]";
const LOADGEN_USAGE: &str = "usage: eend-cli loadgen [--campaigns N]";
const DESIGN_USAGE: &str = "usage: eend-cli design [--instance";
const SERVE_USAGE: &str = "usage: eend-serve [--addr HOST:PORT]";

/// One refused command line: the exit code, the error line (`None`
/// when stderr starts straight with the usage text), and the usage
/// text's first words (`None` when no usage follows).
struct Case {
    bin: &'static str,
    args: &'static [&'static str],
    code: i32,
    error: Option<&'static str>,
    usage: Option<&'static str>,
}

const fn case(
    bin: &'static str,
    args: &'static [&'static str],
    code: i32,
    error: Option<&'static str>,
    usage: Option<&'static str>,
) -> Case {
    Case { bin, args, code, error, usage }
}

const CASES: &[Case] = &[
    // Single run (no subcommand).
    case(CLI, &["--bogus"], 2, Some("error: unknown argument --bogus"), Some(RUN_USAGE)),
    case(CLI, &["--nodes"], 2, Some("error: --nodes needs a value"), Some(RUN_USAGE)),
    case(CLI, &["--nodes", "x"], 2, Some("error: --nodes needs a number"), Some(RUN_USAGE)),
    case(CLI, &["--csv", "--json"], 2, Some("error: unknown argument --json"), Some(RUN_USAGE)),
    case(CLI, &["--help"], 2, None, Some(RUN_USAGE)),
    case(
        CLI,
        &["--traffic", "zz"],
        2,
        Some("error: unknown traffic model \"zz\""),
        Some(RUN_USAGE),
    ),
    case(CLI, &["--card", "nope"], 2, Some("error: unknown card \"nope\""), Some(RUN_USAGE)),
    case(
        CLI,
        &["--stack", "nope"],
        2,
        Some("error: unknown stack \"nope\" (try --list-stacks)"),
        Some(RUN_USAGE),
    ),
    // campaign
    case(
        CLI,
        &["campaign", "--bogus"],
        2,
        Some("error: unknown campaign argument --bogus"),
        Some(CAMPAIGN_USAGE),
    ),
    case(
        CLI,
        &["campaign", "--seeds"],
        2,
        Some("error: --seeds needs a value"),
        Some(CAMPAIGN_USAGE),
    ),
    case(
        CLI,
        &["campaign", "--seeds", "x"],
        2,
        Some("error: --seeds needs a number"),
        Some(CAMPAIGN_USAGE),
    ),
    case(
        CLI,
        &["campaign", "--rates", "2,x"],
        2,
        Some("error: bad --rates element \"x\""),
        Some(CAMPAIGN_USAGE),
    ),
    case(
        CLI,
        &["campaign", "--csv", "--json"],
        2,
        Some("error: pick one of --csv and --json"),
        Some(CAMPAIGN_USAGE),
    ),
    case(
        CLI,
        &["campaign", "--shard", "2/2"],
        2,
        Some("error: --shard wants I/N with I < N, got \"2/2\""),
        Some(CAMPAIGN_USAGE),
    ),
    case(
        CLI,
        &["campaign", "--limit", "3"],
        2,
        Some("error: --shard and --limit need an on-disk store (--out DIR)"),
        Some(CAMPAIGN_USAGE),
    ),
    case(CLI, &["campaign", "--help"], 2, None, Some(CAMPAIGN_USAGE)),
    case(
        CLI,
        &["campaign", "--stacks", "NOPE", "--seeds", "1"],
        2,
        Some("error: unknown stack \"NOPE\" (try eend-cli --list-stacks)"),
        Some(CAMPAIGN_USAGE),
    ),
    // campaign merge
    case(
        CLI,
        &["campaign", "merge", "--bogus"],
        2,
        Some("error: unknown merge argument --bogus"),
        Some(MERGE_USAGE),
    ),
    case(
        CLI,
        &["campaign", "merge"],
        2,
        Some("error: merge needs at least one store directory"),
        Some(MERGE_USAGE),
    ),
    case(
        CLI,
        &["campaign", "merge", "d", "--csv", "--json"],
        2,
        Some("error: pick one of --csv and --json"),
        Some(MERGE_USAGE),
    ),
    case(CLI, &["campaign", "merge", "--help"], 2, None, Some(MERGE_USAGE)),
    // bench
    case(
        CLI,
        &["bench", "--bogus"],
        2,
        Some("error: unknown bench argument --bogus"),
        Some(BENCH_USAGE),
    ),
    case(CLI, &["bench", "--runs"], 2, Some("error: --runs needs a value"), Some(BENCH_USAGE)),
    case(
        CLI,
        &["bench", "--runs", "x"],
        2,
        Some("error: --runs needs a number"),
        Some(BENCH_USAGE),
    ),
    case(
        CLI,
        &["bench", "--nodes", "5,x"],
        2,
        Some("error: bad --nodes element \"x\""),
        Some(BENCH_USAGE),
    ),
    case(
        CLI,
        &["bench", "--scale", "3q"],
        2,
        Some("error: --scale entry \"3q\" is not 1k/10k/100k or a grid side"),
        Some(BENCH_USAGE),
    ),
    case(CLI, &["bench", "--help"], 2, None, Some(BENCH_USAGE)),
    // loadgen
    case(
        CLI,
        &["loadgen", "--bogus"],
        2,
        Some("error: unknown loadgen argument --bogus"),
        Some(LOADGEN_USAGE),
    ),
    case(
        CLI,
        &["loadgen", "--campaigns"],
        2,
        Some("error: --campaigns needs a value"),
        Some(LOADGEN_USAGE),
    ),
    case(
        CLI,
        &["loadgen", "--campaigns", "x"],
        2,
        Some("error: --campaigns needs a number"),
        Some(LOADGEN_USAGE),
    ),
    case(CLI, &["loadgen", "--help"], 2, None, Some(LOADGEN_USAGE)),
    // design
    case(
        CLI,
        &["design", "--bogus"],
        2,
        Some("error: unknown design argument --bogus"),
        Some(DESIGN_USAGE),
    ),
    case(CLI, &["design", "--seed"], 2, Some("error: --seed needs a value"), Some(DESIGN_USAGE)),
    case(
        CLI,
        &["design", "--budget", "x"],
        2,
        Some("error: --budget needs a number"),
        Some(DESIGN_USAGE),
    ),
    case(
        CLI,
        &["design", "--instance", "nope"],
        2,
        Some("error: unknown instance \"nope\" (try --list-instances)"),
        Some(DESIGN_USAGE),
    ),
    case(CLI, &["design", "--help"], 2, None, Some(DESIGN_USAGE)),
    // eend-serve
    case(SERVE, &["--bogus"], 2, Some("eend-serve: unknown argument --bogus"), Some(SERVE_USAGE)),
    case(SERVE, &["--addr"], 2, Some("eend-serve: --addr needs a value"), Some(SERVE_USAGE)),
    case(
        SERVE,
        &["--workers", "x"],
        2,
        Some("eend-serve: --workers needs a number"),
        Some(SERVE_USAGE),
    ),
    case(SERVE, &["--help"], 2, None, Some(SERVE_USAGE)),
];

fn run(bin: &str, args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(bin).args(args).output().expect("run the binary");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned(), stdout)
}

#[test]
fn bad_arguments_exit_with_a_fixed_code_error_line_and_usage() {
    for c in CASES {
        let (code, stderr, stdout) = run(c.bin, c.args);
        let what = format!("{} {:?}\nstderr:\n{stderr}", c.bin, c.args);
        assert_eq!(code, Some(c.code), "{what}");
        assert!(stdout.is_empty(), "{what}\nstdout: {stdout}");
        let first = stderr.lines().next().unwrap_or_default();
        let error = (!first.starts_with("usage:")).then_some(first);
        assert_eq!(error, c.error, "{what}");
        match c.usage {
            Some(head) => {
                let usage = stderr.lines().find(|l| l.starts_with("usage:"));
                assert!(usage.is_some_and(|l| l.starts_with(head)), "{what}");
            }
            None => assert_eq!(stderr.lines().count(), 1, "{what}"),
        }
    }
}

#[test]
fn a_missing_merge_store_is_an_error_exit_1() {
    let (code, stderr, stdout) = run(CLI, &["campaign", "merge", "/nonexistent-eend-store"]);
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(stdout.is_empty());
    assert!(
        stderr.starts_with("error: no store manifest at /nonexistent-eend-store/manifest.json"),
        "stderr: {stderr}"
    );
}

#[test]
fn list_flags_print_names_and_exit_0() {
    let (code, stderr, stdout) = run(CLI, &["--list-stacks"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    let stacks: Vec<&str> = stdout.lines().collect();
    assert!(stacks.contains(&"TITAN-PC") && stacks.contains(&"DSR-Active"), "{stdout}");

    let (code, stderr, stdout) = run(CLI, &["design", "--list-instances"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert_eq!(stdout, "grid7\nrandom30\nrandom50\n");
}
