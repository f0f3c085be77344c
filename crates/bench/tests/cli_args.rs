//! Argument handling of the figure binaries: bad input exits 2 with a
//! fixed `error:` line followed by the usage text. Nothing is simulated:
//! every case fails before a job runs.

use std::process::Command;

const USAGE: &str = "usage: [--quick|--full] [--seeds N] [--secs S]";

fn refused(args: &[&str], error: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_fig8_9")).args(args).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "fig8_9 {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "fig8_9 {args:?} printed to stdout");
    let mut lines = stderr.lines();
    assert_eq!(lines.next(), Some(error), "fig8_9 {args:?}: {stderr}");
    assert_eq!(lines.next(), Some(USAGE), "fig8_9 {args:?}: {stderr}");
}

#[test]
fn an_unknown_flag_exits_2_with_its_error_line() {
    refused(&["--bogus"], "error: unknown argument --bogus");
}

#[test]
fn an_unparsable_seed_count_exits_2_with_its_error_line() {
    refused(&["--seeds", "x"], "error: --seeds needs a number");
}
