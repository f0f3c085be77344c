//! Both DSDV-H stacks of the paper's Figs 8–9, pinned where `cargo test`
//! at the repository root sees them: the full `RunMetrics` rendering of a
//! shortened small-network run must match the committed file byte for
//! byte. The horizon is past the 20–25 s traffic start and several 15 s
//! periodic full dumps, so table merges, triggered updates, buffered
//! flushes and PM-change advertisements all shape the numbers.
//!
//! A third file pins DSDV-H on a mobile network: nodes move between
//! advertisements, so every link cost a receiver derives from an
//! advertiser's distance changes under it mid-run.
//!
//! There is no bless path: the static files were rendered once, by the
//! build that preceded the node-indexed DSDV table, the mobile one by the
//! build that preceded the hot-path power and link-cost caches, and any
//! drift in DSDV-H behaviour fails here.

use eend::sim::SimDuration;
use eend::wireless::{presets, stacks, ProtocolStack, Scenario, Simulator};
use std::path::Path;

const HORIZON_S: u64 = 120;
const SEED: u64 = 3;

fn check(stack: ProtocolStack, golden: &str) {
    let mut scenario = presets::small_network(stack, 4.0, SEED);
    scenario.duration = SimDuration::from_secs(HORIZON_S);
    check_scenario(&scenario, golden);
}

fn check_scenario(scenario: &Scenario, golden: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(golden);
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let metrics = Simulator::new(scenario).run();
    assert!(metrics.data_delivered > 0, "the run delivered no data; the golden is vacuous");
    assert!(metrics.dsdv_update_tx > 0, "the run sent no DSDV updates");
    let actual = format!("{metrics:#?}\n");
    if actual != expected {
        let line = expected
            .lines()
            .zip(actual.lines())
            .position(|(a, b)| a != b)
            .map_or_else(|| "line counts differ".to_owned(), |i| format!("line {}", i + 1));
        let name = &scenario.stack.name;
        panic!("{name} drifted from {} (first difference at {line})", path.display());
    }
}

#[test]
fn dsdvh_psm_run_matches_its_golden() {
    check(stacks::dsdvh_odpm(), "dsdvh_odpm_psm_small.txt");
}

#[test]
fn dsdvh_span_run_matches_its_golden() {
    check(stacks::dsdvh_odpm_span(), "dsdvh_odpm_span_small.txt");
}

#[test]
fn dsdvh_mobile_run_matches_its_golden() {
    // 50 nodes under random-waypoint motion for the preset's 60 s.
    let scenario = presets::mobility_bench(stacks::dsdvh_odpm(), 50, SEED);
    check_scenario(&scenario, "dsdvh_odpm_psm_mobile50.txt");
}
