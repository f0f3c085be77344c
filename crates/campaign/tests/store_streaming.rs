//! The streaming pipeline's durability contracts:
//!
//! 1. an interrupted campaign resumed from its on-disk store reassembles
//!    **byte-identically** to a one-shot in-memory serial run;
//! 2. shard stores produced on independent "machines" merge back into
//!    the byte-identical unsharded result;
//! 3. a store refuses to resume under a different spec (fingerprint
//!    check).

use eend_campaign::store::Manifest;
use eend_campaign::{
    merge_stores, merge_stores_streaming, BaseScenario, CampaignSpec, CsvSink, Executor,
    FailurePlan, ResultStore,
};
use eend_wireless::{radio_profiles, stacks, TrafficModel};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique scratch directory per test invocation (no tempfile dep).
fn scratch(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "eend-store-test-{}-{tag}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec() -> CampaignSpec {
    CampaignSpec::new("durability", BaseScenario::Small)
        .stacks(vec![stacks::titan_pc(), stacks::dsr_active()])
        .rates(vec![2.0, 4.0])
        .seeds(2)
        .secs(20)
}

#[test]
fn interrupted_then_resumed_equals_one_shot() {
    let spec = spec();
    let jobs = spec.expand();
    assert_eq!(jobs.len(), 8);
    let one_shot = Executor::with_workers(1).run(&spec);

    let dir = scratch("resume");
    let manifest = Manifest::for_spec(&spec, 0, 1);

    // "Machine" run 1: killed after 3 jobs (the limit models the kill
    // deterministically), plus a torn final line from the dying writer.
    {
        let mut store = ResultStore::open(&dir, manifest.clone()).unwrap();
        let ran = store.run(&Executor::with_workers(2), &jobs, Some(3)).unwrap();
        assert_eq!(ran, 3);
    }
    {
        use std::io::Write as _;
        let mut f =
            std::fs::OpenOptions::new().append(true).open(dir.join("records.jsonl")).unwrap();
        write!(f, "{{\"job\":7,\"stack\":\"TIT").unwrap(); // no newline: torn
    }

    // Run 2: re-open, verify only the 3 durable jobs count as done,
    // finish the rest in parallel.
    {
        let mut store = ResultStore::open(&dir, manifest.clone()).unwrap();
        assert_eq!(store.completed().len(), 3, "torn line must not count as completed");
        let ran = store.run(&Executor::with_workers(4), &jobs, None).unwrap();
        assert_eq!(ran, 5);
        assert!(store.is_complete(&jobs));

        let assembled = store.assemble(&jobs).unwrap();
        assert_eq!(assembled, one_shot);
        assert_eq!(format!("{assembled:?}"), format!("{one_shot:?}"));
        assert_eq!(assembled.to_csv(), one_shot.to_csv(), "CSV must be byte-identical");
        assert_eq!(assembled.to_json(), one_shot.to_json(), "JSON must be byte-identical");

        // Idempotence: running again does nothing.
        assert_eq!(store.run(&Executor::bounded(), &jobs, None).unwrap(), 0);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_stores_merge_to_the_unsharded_result() {
    let spec = spec();
    let jobs = spec.expand();
    let one_shot = Executor::with_workers(1).run(&spec);

    let shards = 3;
    let dirs: Vec<PathBuf> = (0..shards).map(|i| scratch(&format!("shard{i}"))).collect();
    let mut stores = Vec::new();
    for (i, dir) in dirs.iter().enumerate() {
        // Each "machine" runs its slice with a different worker count —
        // merge order and determinism must not care.
        let shard_jobs = spec.shard(i, shards);
        let mut store = ResultStore::open(dir, Manifest::for_spec(&spec, i, shards)).unwrap();
        store.run(&Executor::with_workers(i + 1), &shard_jobs, None).unwrap();
        assert!(store.is_complete(&shard_jobs));
        stores.push(store);
    }

    let refs: Vec<&ResultStore> = stores.iter().collect();
    let merged = merge_stores(&refs, &jobs).unwrap();
    assert_eq!(merged, one_shot);
    assert_eq!(merged.to_csv(), one_shot.to_csv());
    assert_eq!(merged.to_json(), one_shot.to_json());

    // A missing shard is an incomplete campaign, loudly.
    let partial: Vec<&ResultStore> = stores.iter().take(shards - 1).collect();
    let err = merge_stores(&partial, &jobs).unwrap_err();
    assert!(err.to_string().contains("no record"), "got: {err}");

    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn complete_record_missing_its_newline_still_resumes_cleanly() {
    // The other torn-write shape: the kill landed *between* the record's
    // bytes and its newline, so the last line is complete JSON with no
    // terminator. The store must count it as done AND restore the
    // newline, or the resumed writer's first append would glue onto it.
    let spec = spec();
    let jobs = spec.expand();
    let one_shot = Executor::with_workers(1).run(&spec);
    let dir = scratch("noeol");
    let manifest = Manifest::for_spec(&spec, 0, 1);
    {
        let mut store = ResultStore::open(&dir, manifest.clone()).unwrap();
        store.run(&Executor::with_workers(1), &jobs, Some(3)).unwrap();
    }
    let path = dir.join("records.jsonl");
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.ends_with('\n'));
    std::fs::write(&path, text.trim_end_matches('\n')).unwrap(); // chop the last '\n'
    {
        let mut store = ResultStore::open(&dir, manifest).unwrap();
        assert_eq!(store.completed().len(), 3, "the complete record still counts");
        store.run(&Executor::with_workers(2), &jobs, None).unwrap();
        let assembled = store.assemble(&jobs).unwrap();
        assert_eq!(assembled.to_csv(), one_shot.to_csv());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A spec exercising every new scenario-diversity axis at once: failure
/// plans + non-CBR traffic + a mixed-card radio profile.
fn mixed_axis_spec() -> CampaignSpec {
    CampaignSpec::new("diversity", BaseScenario::Small)
        .stacks(vec![stacks::titan_pc()])
        .rates(vec![4.0])
        .traffic(vec![
            TrafficModel::Poisson,
            TrafficModel::OnOffBurst { mean_on_s: 5.0, mean_off_s: 5.0 },
        ])
        .radio_profiles(vec![radio_profiles::mixed_hypo()])
        .failures(vec![FailurePlan::none(), FailurePlan::kill("kill-3", 10.0, 3)])
        .seeds(2)
        .secs(20)
}

#[test]
fn mixed_axis_store_round_trips_resumes_and_refuses_axis_drift() {
    let spec = mixed_axis_spec();
    let jobs = spec.expand();
    assert_eq!(jobs.len(), 8, "2 traffic x 2 failures x 2 seeds");
    let one_shot = Executor::with_workers(1).run(&spec);

    let dir = scratch("mixedaxis");
    let manifest = Manifest::for_spec(&spec, 0, 1);
    // The manifest must carry the full axes — SpecAxes no longer refuses
    // failure plans — and rebuild the exact spec from disk.
    let axes = manifest.axes.clone().expect("mixed-axis spec must be manifest-expressible");
    assert_eq!(axes.traffic, ["poisson", "onoff(5,5)"]);
    assert_eq!(axes.radio, ["mixed-hypo"]);
    assert_eq!(axes.failures.len(), 2);
    assert_eq!(axes.failures[1].kills, [(10.0, 3)]);
    assert_eq!(axes.to_spec("diversity").unwrap(), spec, "axes must rebuild the exact spec");

    // Interrupt after 3 jobs, then resume from the on-disk manifest's
    // own axes (as a second machine would) and finish.
    {
        let mut store = ResultStore::open(&dir, manifest.clone()).unwrap();
        assert_eq!(store.run(&Executor::with_workers(2), &jobs, Some(3)).unwrap(), 3);
    }
    {
        let store = ResultStore::open_existing(&dir).unwrap();
        let rebuilt = store.manifest().axes.clone().unwrap().to_spec("diversity").unwrap();
        assert_eq!(rebuilt, spec);
        let mut store = ResultStore::open(&dir, Manifest::for_spec(&rebuilt, 0, 1)).unwrap();
        assert_eq!(store.completed().len(), 3);
        store.run(&Executor::with_workers(3), &jobs, None).unwrap();
        let assembled = store.assemble(&jobs).unwrap();
        assert_eq!(assembled, one_shot);
        assert_eq!(assembled.to_csv(), one_shot.to_csv(), "CSV must be byte-identical");
    }

    // Any drift in the new axes must be refused: different traffic
    // model, different radio profile, different kill schedule under the
    // same label.
    let drifted: [CampaignSpec; 3] = [
        mixed_axis_spec().traffic(vec![TrafficModel::Poisson, TrafficModel::Cbr]),
        mixed_axis_spec().radio_profiles(vec![radio_profiles::sparse_hypo()]),
        mixed_axis_spec().failures(vec![FailurePlan::none(), FailurePlan::kill("kill-3", 10.0, 5)]),
    ];
    for (i, other) in drifted.iter().enumerate() {
        let err = ResultStore::open(&dir, Manifest::for_spec(other, 0, 1)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "axis drift {i}");
        assert!(err.to_string().contains("refusing to resume"), "axis drift {i}: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_refuses_a_different_spec() {
    let dir = scratch("fingerprint");
    let original = spec();
    {
        let mut store = ResultStore::open(&dir, Manifest::for_spec(&original, 0, 1)).unwrap();
        store.run(&Executor::with_workers(2), &original.expand(), Some(1)).unwrap();
    }
    // Same campaign name, different grid: the fingerprint must differ
    // and the store must refuse.
    let other = spec().rates(vec![2.0, 6.0]);
    let err = ResultStore::open(&dir, Manifest::for_spec(&other, 0, 1)).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("refusing to resume"), "got: {err}");

    // The original spec still opens and remembers its progress.
    let store = ResultStore::open(&dir, Manifest::for_spec(&original, 0, 1)).unwrap();
    assert_eq!(store.completed().len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_interior_line_is_an_error_not_a_torn_tail() {
    // Only the FINAL line of records.jsonl may fail to parse (a torn
    // write from a kill). Garbage anywhere else means the store is
    // damaged, and silently dropping the rest of the file would resurrect
    // the pre-fix behaviour where every record after the corruption was
    // re-run or lost.
    let spec = spec();
    let jobs = spec.expand();
    let dir = scratch("interior");
    {
        let mut store = ResultStore::open(&dir, Manifest::for_spec(&spec, 0, 1)).unwrap();
        store.run(&Executor::with_workers(2), &jobs, None).unwrap();
        assert!(store.is_complete(&jobs));
    }
    let path = dir.join("records.jsonl");
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 8);

    // Smash line 3 (index 2) into non-JSON, keeping the trailing newline.
    lines[2] = "{\"job\":2,\"stack\":";
    std::fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();

    // Both the scan on open and the bulk loader must name the bad line.
    let err = ResultStore::open_existing(&dir).unwrap_err();
    assert!(err.to_string().contains("line 3"), "open_existing: {err}");

    // A torn FINAL line is still tolerated: rebuild the file as two good
    // records plus a truncated third.
    let good: Vec<&str> = text.lines().take(2).collect();
    std::fs::write(&path, format!("{}\n{{\"job\":7,\"sta", good.join("\n"))).unwrap();
    let store = ResultStore::open_existing(&dir).unwrap();
    assert_eq!(store.completed().len(), 2, "torn tail drops exactly one record");
    assert_eq!(store.load_metrics(Some(&jobs)).unwrap().len(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn duplicate_job_record_is_refused_by_name() {
    // Two records for the same job id mean the store was corrupted or
    // merged with itself; last-wins would silently pick one.
    let spec = spec();
    let jobs = spec.expand();
    let dir = scratch("dupid");
    {
        let mut store = ResultStore::open(&dir, Manifest::for_spec(&spec, 0, 1)).unwrap();
        store.run(&Executor::with_workers(2), &jobs, None).unwrap();
    }
    let path = dir.join("records.jsonl");
    let text = std::fs::read_to_string(&path).unwrap();
    let first = text.lines().next().unwrap();
    std::fs::write(&path, format!("{text}{first}\n")).unwrap();

    let err = ResultStore::open_existing(&dir).unwrap_err();
    assert!(
        err.to_string().contains("job 0") && err.to_string().contains("more than one record"),
        "open_existing must name the duplicated job: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn streaming_merge_is_byte_identical_and_refuses_overlap() {
    let spec = spec();
    let jobs = spec.expand();
    let one_shot = Executor::with_workers(1).run(&spec);

    let dirs: Vec<PathBuf> = (0..2).map(|i| scratch(&format!("streammerge{i}"))).collect();
    let mut stores = Vec::new();
    for (i, dir) in dirs.iter().enumerate() {
        let mut store = ResultStore::open(dir, Manifest::for_spec(&spec, i, 2)).unwrap();
        store.run(&Executor::with_workers(i + 2), &spec.shard(i, 2), None).unwrap();
        stores.push(store);
    }
    let refs: Vec<&ResultStore> = stores.iter().collect();

    // Record-by-record merge into a CSV sink == the batch result's CSV.
    let mut sink = CsvSink::new("durability", Vec::new());
    merge_stores_streaming(&refs, &jobs, &mut sink).unwrap();
    assert_eq!(String::from_utf8(sink.into_inner()).unwrap(), one_shot.to_csv());

    // Two stores both holding job 0 (the full unsharded grid twice) is
    // an overlap, not a merge.
    let dup_dirs: Vec<PathBuf> = (0..2).map(|i| scratch(&format!("dupstore{i}"))).collect();
    let mut dup_stores = Vec::new();
    for dir in &dup_dirs {
        let mut store = ResultStore::open(dir, Manifest::for_spec(&spec, 0, 1)).unwrap();
        store.run(&Executor::with_workers(2), &jobs, None).unwrap();
        dup_stores.push(store);
    }
    let dup_refs: Vec<&ResultStore> = dup_stores.iter().collect();
    let mut sink = CsvSink::new("durability", Vec::new());
    let err = merge_stores_streaming(&dup_refs, &jobs, &mut sink).unwrap_err();
    assert!(err.to_string().contains("more than one store"), "got: {err}");

    for dir in dirs.iter().chain(&dup_dirs) {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn run_rejects_jobs_outside_the_shard() {
    let spec = spec();
    let dir = scratch("wrongshard");
    let mut store = ResultStore::open(&dir, Manifest::for_spec(&spec, 1, 2)).unwrap();
    // Handing shard 0's jobs to shard 1's store is a caller bug.
    let err = store.run(&Executor::bounded(), &spec.shard(0, 2), None).unwrap_err();
    assert!(err.to_string().contains("does not belong to shard"), "got: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_torn_tail_inside_a_multibyte_character_is_truncated_not_fatal() {
    // A kill can land between the bytes of one UTF-8 character. The
    // file is then not valid UTF-8, but it is still only a torn tail:
    // the complete lines before it are kept and the tail goes.
    let spec = spec();
    let jobs = spec.expand();
    let one_shot = Executor::with_workers(1).run(&spec);
    let dir = scratch("multibyte");
    let manifest = Manifest::for_spec(&spec, 0, 1);
    {
        let mut store = ResultStore::open(&dir, manifest.clone()).unwrap();
        store.run(&Executor::with_workers(2), &jobs, Some(3)).unwrap();
    }
    let records = dir.join("records.jsonl");
    let failures = dir.join("failures.jsonl");
    let records_len = std::fs::metadata(&records).unwrap().len();
    let failure = "{\"job\":4,\"attempts\":1,\"cause\":\"boom — x\"}\n";
    let tear = || {
        use std::io::Write as _;
        let append = |path: &PathBuf, bytes: &[u8]| {
            let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path).unwrap();
            f.write_all(bytes).unwrap();
        };
        // A second failure cut after the em dash's first byte, and a
        // record cut after the first byte of the é in "café".
        let cut = failure.find('—').unwrap() + 1;
        append(&failures, &failure.replace("\"job\":4", "\"job\":6").as_bytes()[..cut]);
        append(&records, b"{\"job\":3,\"stack\":\"caf\xc3");
    };
    std::fs::write(&failures, failure).unwrap();
    tear();
    {
        let store = ResultStore::open_existing(&dir).unwrap();
        assert_eq!(store.completed().len(), 3);
        assert_eq!(store.failures().keys().collect::<Vec<_>>(), [&4]);
        assert_eq!(store.failures()[&4].cause, "boom — x");
        assert_eq!(store.load_metrics(Some(&jobs)).unwrap().len(), 3);
    }
    assert_eq!(std::fs::metadata(&records).unwrap().len(), records_len, "record tail truncated");
    assert_eq!(std::fs::read_to_string(&failures).unwrap(), failure, "failure tail truncated");

    tear();
    let mut store = ResultStore::open(&dir, manifest).unwrap();
    assert_eq!(store.completed().len(), 3);
    assert_eq!(std::fs::metadata(&records).unwrap().len(), records_len);
    store.run(&Executor::with_workers(2), &jobs, None).unwrap();
    assert_eq!(store.load_metrics(Some(&jobs)).unwrap().len(), jobs.len());
    let merged = merge_stores(&[&store], &jobs).unwrap();
    assert_eq!(merged.to_csv(), one_shot.to_csv());
    let _ = std::fs::remove_dir_all(&dir);
}
