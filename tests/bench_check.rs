//! The `eend-cli bench` perf record: the `eend-bench/1` file that
//! `--json-out` writes, and the committed `BENCH_pr*.json` records kept
//! as frozen history.

use eend::campaign::json::parse_json;
use std::process::Command;

#[test]
fn json_out_writes_an_atomic_bench_record() {
    let dir = std::env::temp_dir().join(format!("eend-bench-record-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bench.json");
    let out = Command::new(env!("CARGO_BIN_EXE_eend-cli"))
        .args(["bench", "--runs", "1", "--nodes", "50", "--json-out"])
        .arg(&path)
        .output()
        .expect("run eend-cli bench");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let text = std::fs::read_to_string(&path).unwrap();
    let doc = parse_json(&text).unwrap();
    assert_eq!(doc.get("schema").unwrap().str().unwrap(), "eend-bench/1");
    let presets = doc.get("presets").unwrap().arr().unwrap();
    assert_eq!(presets.len(), 1, "{text}");
    assert_eq!(presets[0].get("name").unwrap().str().unwrap(), "mobility50");
    assert!(presets[0].get("runs_per_sec").unwrap().f64().unwrap() > 0.0, "{text}");

    // The write went through a temp sibling and a rename: only the
    // record itself is left in the directory.
    let left: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
    assert_eq!(left, ["bench.json"], "temp sibling left behind");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn committed_records_parse() {
    for file in ["BENCH_pr3.json", "BENCH_pr4.json", "BENCH_pr6.json"] {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(file);
        let text = std::fs::read_to_string(path).unwrap();
        let doc = parse_json(&text).unwrap();
        // A committed record keeps its rates under "current".
        let scope = doc.get_opt("current").unwrap().unwrap_or(&doc);
        let presets = scope.get("presets").unwrap().arr().unwrap();
        assert!(
            presets.iter().any(|p| p.get("name").unwrap().str().unwrap() == "mobility50"
                && p.get("runs_per_sec").unwrap().f64().unwrap() > 0.0),
            "{file}"
        );
    }
}
