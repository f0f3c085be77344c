//! The design search's output, pinned where `cargo test` at the repository
//! root sees it: the grid7 multistart and seeded grid7 anneal traces must
//! match the committed goldens byte for byte, and a seeded random30 anneal
//! must keep its pinned trace digest and trace the same with and without
//! an evaluation cache in front of its oracle.

use eend::opt::{
    anneal, instances, multistart, CachedOracle, EvalOracle, FluidOracle, Fnv1a, SearchOpts,
};

/// FNV-1a of the trace `eend-cli design --instance random30 --search
/// anneal --seed 4 --budget 200` prints.
const RANDOM30_ANNEAL_TRACE_FNV: u64 = 0x68bc_2608_ffb1_600a;

#[test]
fn grid7_multistart_trace_matches_the_golden() {
    let p = instances::grid7();
    let opts = SearchOpts { budget: 150, ..SearchOpts::new() };
    let r = multistart(&p, &mut FluidOracle::standard(900.0), &opts);
    assert_eq!(
        r.trace_jsonl(),
        include_str!("../crates/opt/tests/golden/design_grid7_multistart.jsonl"),
        "grid7 multistart trace drifted from the committed golden \
         (crates/opt/tests/golden_trace.rs documents how to regenerate it)"
    );
}

/// The seeded grid7 anneal proposes all four move kinds (6 starts, 123
/// swaps, 24 sleeps, 47 wakes), so it pins the sleep detours and wake legs
/// the multistart golden barely reaches. The golden is the output of
/// `eend-cli design --instance grid7 --search anneal --seed 4 --budget 200`
/// and has no regeneration path: a drift is a behaviour change.
#[test]
fn grid7_anneal_trace_matches_the_golden() {
    let p = instances::grid7();
    let opts = SearchOpts { seed: 4, budget: 200, ..SearchOpts::new() };
    let r = anneal(&p, &mut FluidOracle::standard(900.0), &opts);
    let trace = r.trace_jsonl();
    for kind in ["\"kind\":\"start:", "\"kind\":\"swap:", "\"kind\":\"sleep:", "\"kind\":\"wake:"] {
        assert!(trace.contains(kind), "the golden run must propose {kind}");
    }
    assert_eq!(
        trace,
        include_str!("../crates/opt/tests/golden/design_grid7_anneal_s4.jsonl"),
        "grid7 anneal trace drifted from the committed golden"
    );
}

#[test]
fn random30_anneal_traces_the_same_with_and_without_a_cache() {
    let p = instances::random30();
    let opts = SearchOpts { seed: 4, budget: 200, ..SearchOpts::new() };
    let plain = anneal(&p, &mut FluidOracle::standard(900.0), &opts);
    let mut digest = Fnv1a::default();
    digest.write(plain.trace_jsonl().as_bytes());
    assert_eq!(digest.finish(), RANDOM30_ANNEAL_TRACE_FNV, "random30 anneal trace drifted");

    let mut cached = CachedOracle::in_memory(FluidOracle::standard(900.0));
    let cold = anneal(&p, &mut cached, &opts);
    let executed = cached.inner().calls();
    let warm = anneal(&p, &mut cached, &opts);
    assert_eq!(plain.trace_jsonl(), cold.trace_jsonl(), "a cold cache changed the trace");
    assert_eq!(plain.trace_jsonl(), warm.trace_jsonl(), "a warm cache changed the trace");
    assert_eq!(cached.inner().calls(), executed, "the warm run executed evaluations");
    assert_eq!(cached.hits(), cold.evals - executed + warm.evals);
}
