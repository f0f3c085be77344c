//! The scale tier's golden, checked where `cargo test` at the repository
//! root sees it: a full 20 s `mobility1k` run (1,024 mobile nodes on the
//! channel grid) must reproduce the digest
//! committed for the campaign crate's scale-golden suite byte for byte.
//! Any drift in channel geometry, carrier sensing or collisions at scale
//! fails here. This test only reads the golden; it is regenerated by
//! `crates/campaign/tests/scale_golden.rs`, which documents how.

use eend::wireless::{presets, stacks, Simulator};
use std::path::Path;

#[test]
fn mobility1k_digest_matches_the_scale_golden() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("crates/campaign/tests/golden/scale_mobility1k.txt");
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let metrics = Simulator::new(&presets::mobility1k(stacks::titan_pc(), 7)).run();
    assert!(metrics.data_sent > 0, "the run moved no data; the digest is vacuous");
    let actual = metrics.scale_digest();
    assert!(
        actual == golden,
        "mobility1k drifted from {}\n--- golden ---\n{golden}\n--- actual ---\n{actual}",
        path.display()
    );
}
