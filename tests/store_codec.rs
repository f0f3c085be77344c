//! The result store's JSON codec, end to end: a small campaign runs
//! into on-disk stores, and every record read back — through
//! `load_metrics`, `merge_stores` over one store, and `merge_stores`
//! over two shards — equals the in-memory run, f64 bit patterns
//! included.

use eend::campaign::{merge_stores, BaseScenario, CampaignSpec, Executor, Manifest, ResultStore};
use eend::radio::EnergyReport;
use eend::wireless::{stacks, RunMetrics};
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eend-store-codec-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec() -> CampaignSpec {
    CampaignSpec::new("codec", BaseScenario::Small)
        .stacks(vec![stacks::titan_pc(), stacks::dsdvh_odpm()])
        .rates(vec![2.0, 6.0])
        .seeds(1)
        .secs(15)
}

fn report_bits(r: &EnergyReport, out: &mut Vec<u64>) {
    for x in [
        r.idle_mj,
        r.sleep_mj,
        r.switch_mj,
        r.tx_data_mj,
        r.tx_ctrl_mj,
        r.rx_data_mj,
        r.rx_ctrl_mj,
    ] {
        out.push(x.to_bits());
    }
}

/// Every f64 of a run, as bits: `PartialEq` on f64 would let `-0.0`
/// stand in for `0.0`.
fn f64_bits(m: &RunMetrics) -> Vec<u64> {
    let mut out = vec![m.delivered_bits.to_bits(), m.duration_s.to_bits()];
    report_bits(&m.energy_total, &mut out);
    for r in &m.per_node_energy {
        report_bits(r, &mut out);
    }
    out
}

fn assert_same(stored: &RunMetrics, direct: &RunMetrics, what: &str) {
    assert_eq!(stored, direct, "{what}: RunMetrics must round-trip");
    assert_eq!(
        f64_bits(stored),
        f64_bits(direct),
        "{what}: f64 bits must round-trip"
    );
}

#[test]
fn stored_records_reload_bit_identically() {
    let spec = spec();
    let jobs = spec.expand();
    let direct = Executor::with_workers(1).run(&spec);
    assert_eq!(direct.records.len(), 4);

    let dir = scratch("whole");
    let mut store = ResultStore::open(&dir, Manifest::for_spec(&spec, 0, 1)).unwrap();
    assert_eq!(
        store.run(&Executor::with_workers(1), &jobs, None).unwrap(),
        jobs.len()
    );

    // A fresh open rescans the file for completed ids.
    let store = ResultStore::open_existing(&dir).unwrap();
    assert_eq!(store.completed().len(), jobs.len());
    let loaded = store.load_metrics(Some(&jobs)).unwrap();
    assert_eq!(loaded.len(), jobs.len());
    for (id, m) in &loaded {
        assert_same(
            m,
            &direct.records[*id].metrics,
            &format!("load_metrics job {id}"),
        );
    }
    let merged = merge_stores(&[&store], &jobs).unwrap();
    assert_eq!(merged.campaign, direct.campaign);
    for (i, (a, b)) in merged.records.iter().zip(&direct.records).enumerate() {
        assert_eq!(a.point, b.point);
        assert_same(&a.metrics, &b.metrics, &format!("merge job {i}"));
    }
    assert_eq!(merged.to_csv(), direct.to_csv());
    assert_eq!(merged.to_json(), direct.to_json());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_stores_merge_bit_identically() {
    let spec = spec();
    let jobs = spec.expand();
    let direct = Executor::with_workers(1).run(&spec);
    let dirs = [scratch("shard0"), scratch("shard1")];
    let mut stores = Vec::new();
    for (i, dir) in dirs.iter().enumerate() {
        let mut store = ResultStore::open(dir, Manifest::for_spec(&spec, i, 2)).unwrap();
        store
            .run(&Executor::with_workers(1), &spec.shard(i, 2), None)
            .unwrap();
        stores.push(ResultStore::open_existing(dir).unwrap());
    }
    let merged = merge_stores(&[&stores[0], &stores[1]], &jobs).unwrap();
    assert_eq!(merged.records.len(), direct.records.len());
    for (i, (a, b)) in merged.records.iter().zip(&direct.records).enumerate() {
        assert_eq!(a.point, b.point);
        assert_same(&a.metrics, &b.metrics, &format!("sharded merge job {i}"));
    }
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}
