//! The scale tier's goldens, checked where `cargo test` at the repository
//! root sees them: a full 20 s `mobility1k` run (1,024 mobile nodes on the
//! channel grid) and a 5 s MTPR run on the 16×16 field must reproduce the
//! digests committed for the campaign crate's scale-golden suite byte for
//! byte. Any drift in channel geometry, carrier sensing, collisions or
//! reactive discovery at scale fails here. These tests only read the
//! goldens; they are regenerated by `crates/campaign/tests/scale_golden.rs`,
//! which documents how.

use eend::sim::SimDuration;
use eend::wireless::{presets, stacks, Scenario, Simulator};
use std::path::Path;

/// Runs `scenario` and compares its scale digest with the golden `name`.
fn check(name: &str, scenario: &Scenario) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("crates/campaign/tests/golden")
        .join(format!("{name}.txt"));
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let metrics = Simulator::new(scenario).run();
    assert!(metrics.data_sent > 0, "the run moved no data; the digest is vacuous");
    let actual = metrics.scale_digest();
    assert!(
        actual == golden,
        "{name} drifted from {}\n--- golden ---\n{golden}\n--- actual ---\n{actual}",
        path.display()
    );
}

#[test]
fn mobility1k_digest_matches_the_scale_golden() {
    check("scale_mobility1k", &presets::mobility1k(stacks::titan_pc(), 7));
}

/// MTPR re-broadcasts every strictly cheaper RREQ copy, so this digest
/// pins the reactive flood's duplicate suppression and discovery state.
#[test]
fn mtpr_side16_digest_matches_the_scale_golden() {
    let mut scenario = presets::mobility_scale(stacks::mtpr(false), 16, 1);
    scenario.duration = SimDuration::from_secs(5);
    check("scale_mtpr256_5s", &scenario);
}
