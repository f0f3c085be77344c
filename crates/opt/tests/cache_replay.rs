//! The headline cache guarantee, end to end: run a search against a
//! disk-backed cached oracle, then repeat it in a "fresh process" (a fresh
//! oracle over the same directory). The second run must produce the
//! byte-identical trace and the same winner while executing **zero**
//! underlying evaluations.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use eend_core::problem::{Demand, DesignProblem, WirelessInstance};
use eend_opt::{
    anneal, multistart, problem_fingerprint, CachedOracle, EvalOracle, FluidOracle, SearchOpts,
};
use eend_radio::cards;

fn scratch(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "eend-opt-replay-{}-{tag}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn problem() -> DesignProblem {
    let mut positions = Vec::new();
    for r in 0..4 {
        for c in 0..4 {
            positions.push((c as f64 * 150.0, r as f64 * 150.0));
        }
    }
    let inst = WirelessInstance::new(positions, cards::cabletron());
    DesignProblem::new(inst, vec![Demand::new(0, 15, 8_000.0), Demand::new(3, 12, 8_000.0)])
}

#[test]
fn second_multistart_run_is_fully_cached() {
    let p = problem();
    let dir = scratch("multistart");
    let fp = problem_fingerprint(&p);
    let opts = SearchOpts { budget: 80, ..SearchOpts::new() };

    let first = {
        let mut oracle = CachedOracle::on_disk(FluidOracle::standard(600.0), &dir, fp).unwrap();
        let r = multistart(&p, &mut oracle, &opts);
        assert!(oracle.inner().calls() > 0, "first run must execute evaluations");
        r
    };

    // "Fresh process": new oracle, same directory.
    let mut oracle = CachedOracle::on_disk(FluidOracle::standard(600.0), &dir, fp).unwrap();
    let second = multistart(&p, &mut oracle, &opts);
    assert_eq!(oracle.inner().calls(), 0, "re-run must answer entirely from the cache");
    assert_eq!(oracle.hits(), second.evals, "every request must be a hit");
    assert_eq!(first.trace_jsonl(), second.trace_jsonl(), "trace must replay byte-identically");
    assert_eq!(first.best_objective.to_bits(), second.best_objective.to_bits());
    assert_eq!(first.best_design, second.best_design);

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn second_anneal_run_is_fully_cached() {
    let p = problem();
    let dir = scratch("anneal");
    let fp = problem_fingerprint(&p);
    let opts = SearchOpts { seed: 11, budget: 60, ..SearchOpts::new() };

    let first = {
        let mut oracle = CachedOracle::on_disk(FluidOracle::standard(600.0), &dir, fp).unwrap();
        anneal(&p, &mut oracle, &opts)
    };
    let mut oracle = CachedOracle::on_disk(FluidOracle::standard(600.0), &dir, fp).unwrap();
    let second = anneal(&p, &mut oracle, &opts);
    assert_eq!(oracle.inner().calls(), 0, "cached anneal must execute nothing");
    assert_eq!(first.trace_jsonl(), second.trace_jsonl());

    std::fs::remove_dir_all(&dir).unwrap();
}
