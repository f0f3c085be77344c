//! Golden search trace: the grid7 multistart search under the standard
//! fluid oracle must reproduce the committed JSONL byte for byte — the
//! same file the CI `design-smoke` job diffs the CLI's output against.
//! A legitimate change to the search, the evaluator, or the instance
//! regenerates it with:
//!
//! ```text
//! cargo run --bin eend-cli -- design --instance grid7 --search multistart \
//!     --budget 150 --out /tmp/d && cp /tmp/d/trace.jsonl \
//!     crates/opt/tests/golden/design_grid7_multistart.jsonl
//! ```

use eend_opt::{instances, multistart, FluidOracle, SearchOpts};

#[test]
fn grid7_multistart_trace_matches_golden() {
    let p = instances::grid7();
    let opts = SearchOpts { budget: 150, ..SearchOpts::new() };
    let r = multistart(&p, &mut FluidOracle::standard(900.0), &opts);
    let golden = include_str!("golden/design_grid7_multistart.jsonl");
    assert_eq!(
        r.trace_jsonl(),
        golden,
        "grid7 multistart trace drifted from the committed golden \
         (see this test's module docs for the regeneration command)"
    );
    // The loop-closing guarantee the CI job also holds: the winner is at
    // least as good as every constructive heuristic.
    for (name, s) in &r.baselines {
        assert!(r.best_score.enetwork_j <= s.enetwork_j, "winner lost to single-shot {name}");
    }
}
