//! `eend-cli campaign` checks its `--failures` plans against the network
//! before running a job: a kill of a node the preset does not have is a
//! usage error (exit 2) naming the plan and the kill, not a panic in
//! every job.

use std::process::Command;

#[test]
fn a_kill_beyond_the_network_is_refused_before_any_job_runs() {
    let out = Command::new(env!("CARGO_BIN_EXE_eend-cli"))
        .args(["campaign", "--stacks", "TITAN-PC", "--rates", "4", "--seeds", "1"])
        .args(["--secs", "5", "--workers", "1", "--failures", "none,60@1"])
        .output()
        .expect("run eend-cli campaign");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("\"60@1\" kills node 60 at 1 s"), "stderr: {stderr}");
    assert!(stderr.contains("has 50 nodes"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "no record may be written: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}
