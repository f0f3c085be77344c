//! Golden snapshots for the `mobility_scale` preset family
//! (mobility1k / mobility10k / mobility100k).
//!
//! The small-network goldens pin the full `{:#?}` rendering of
//! [`RunMetrics`]; at 10⁴–10⁵ nodes that would be a six-figure line
//! count, so this family pins [`RunMetrics::scale_digest`] instead —
//! every scalar counter verbatim plus order-sensitive FNV-1a hashes of
//! the per-node energy vector and route list. A single-bit drift in any
//! per-node f64 still fails the diff.
//!
//! Coverage is tiered by test-time cost:
//!
//! * **mobility1k** runs its full 20 s horizon (~1 s in a debug build).
//! * **mobility10k** runs a 5 s horizon — long enough for discovery,
//!   steady-state CBR and two mobility ticks.
//! * **mobility100k** is too slow to simulate in a debug-build test
//!   (≈1 min *release*), so its golden pins scenario *construction*:
//!   grid geometry, flow endpoints and an FNV-1a hash over every placed
//!   position. The run itself is exercised by the `scale-smoke` CI job
//!   and the BENCH records.
//!
//! Regenerate after an intentional behaviour change with
//! `EEND_BLESS=1 cargo test -p eend-campaign --test scale_golden`.

use eend_sim::{SimDuration, SimRng};
use eend_wireless::{presets, stacks, Scenario, Simulator};
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(format!("{name}.txt"))
}

fn check(name: &str, actual: String) {
    let path = golden_path(name);
    if std::env::var_os("EEND_BLESS").is_some() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {} ({e}); run with EEND_BLESS=1 to create it", path.display())
    });
    assert!(
        golden == actual,
        "{name}: scale-run behaviour drifted from pinned digest \
         (EEND_BLESS=1 regenerates after an intentional change)\n\
         --- golden ---\n{golden}\n--- actual ---\n{actual}"
    );
}

fn run_digest(scenario: &Scenario) -> String {
    let metrics = Simulator::new(scenario).run();
    assert!(metrics.data_sent > 0, "scale scenario moved no data; snapshot is vacuous");
    metrics.scale_digest()
}

#[test]
fn mobility1k_full_run_matches_golden() {
    check("scale_mobility1k", run_digest(&presets::mobility1k(stacks::titan_pc(), 7)));
}

#[test]
fn mobility10k_short_run_matches_golden() {
    let mut scenario = presets::mobility10k(stacks::titan_pc(), 7);
    scenario.duration = SimDuration::from_secs(5);
    check("scale_mobility10k_5s", run_digest(&scenario));
}

/// MTPR (the paper's Approach 1) on the 16×16 field: its flood
/// re-broadcasts every strictly cheaper RREQ copy
/// (`rebroadcast_on_better_cost`), the discovery path no TITAN digest
/// reaches. MTPR-ODPM is not pinned here: its debug run trips the
/// energy meter's monotonicity assertion (ATIM charge-ahead, see
/// ROADMAP), so a debug-build golden of it waits for that fix.
#[test]
fn mtpr_side16_short_run_matches_golden() {
    let mut scenario = presets::mobility_scale(stacks::mtpr(false), 16, 1);
    scenario.duration = SimDuration::from_secs(5);
    check("scale_mtpr256_5s", run_digest(&scenario));
}

/// FNV-1a over the bit patterns of every placed position.
fn position_hash(scenario: &Scenario) -> u64 {
    // Any fixed RNG seed pins the placement logic; the per-run seed
    // derivation is pinned separately by the run digests above.
    let positions = scenario.placement.positions(&mut SimRng::new(11));
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut write = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for (x, y) in positions {
        write(x.to_bits());
        write(y.to_bits());
    }
    h
}

#[test]
fn scale_preset_construction_matches_golden() {
    let mut out = String::new();
    for (name, scenario) in [
        ("mobility1k", presets::mobility1k(stacks::titan_pc(), 7)),
        ("mobility10k", presets::mobility10k(stacks::titan_pc(), 7)),
        ("mobility100k", presets::mobility100k(stacks::titan_pc(), 7)),
    ] {
        out.push_str(&format!(
            "{name}: n={} placement={:?} flows={} pairs={:?} duration={:?} positions_fnv1a={:#018x}\n",
            scenario.placement.node_count(),
            scenario.placement,
            scenario.flows.count,
            scenario.flows.pairs.as_ref().map(|p| (p.first().copied(), p.last().copied())),
            scenario.duration,
            position_hash(&scenario),
        ));
    }
    check("scale_construction", out);
}
