//! Golden-metrics snapshots: the full [`RunMetrics`] of one
//! representative scenario per protocol-stack family is pinned to a
//! committed text file. Any accidental simulator behaviour drift — a
//! changed counter, a reordered event, a different f64 in any per-node
//! energy report — fails loudly with a line diff.
//!
//! Regenerate after an *intentional* behaviour change with:
//!
//! ```text
//! EEND_BLESS=1 cargo test -p eend-campaign --test golden_metrics
//! ```
//!
//! and review the diff like any other code change. The simulator is
//! pure integer/f64 arithmetic off a seeded RNG, so these renderings are
//! stable across runs and machines building with the same std.

use eend_sim::SimDuration;
use eend_wireless::{
    presets, radio_profiles, stacks, CardAssignment, ProtocolStack, Scenario, Simulator,
    TrafficModel,
};
use std::path::PathBuf;

/// One pinned scenario per stack family: reactive hop-count (DSR),
/// TITAN backbone bias, power-aware reactive (MTPR+), joint-metric
/// reactive (DSRH), and proactive distance-vector (DSDVH).
fn families() -> Vec<(&'static str, ProtocolStack)> {
    vec![
        ("dsr_active", stacks::dsr_active()),
        ("titan_pc", stacks::titan_pc()),
        ("mtpr_plus", stacks::mtpr(true)),
        ("dsrh_odpm_rate", stacks::dsrh_odpm(true)),
        ("dsdvh_odpm_psm", stacks::dsdvh_odpm()),
    ]
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(format!("{name}.txt"))
}

fn render(name: &str, stack: &ProtocolStack) -> String {
    // The paper's small-network scenario, shortened past the 20–25 s
    // traffic start so every family moves real data.
    let mut scenario = presets::small_network(stack.clone(), 4.0, 7);
    scenario.duration = SimDuration::from_secs(40);
    let metrics = Simulator::new(&scenario).run();
    assert!(metrics.data_sent > 0, "{name}: scenario generated no traffic; snapshot is vacuous");
    format!("{metrics:#?}\n")
}

fn first_diff(a: &str, b: &str) -> String {
    for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        if la != lb {
            return format!("first difference at line {}:\n  golden: {la}\n  actual: {lb}", i + 1);
        }
    }
    format!("line counts differ: golden {} vs actual {}", a.lines().count(), b.lines().count())
}

fn check_snapshots(snapshots: Vec<(String, String)>) {
    let bless = std::env::var_os("EEND_BLESS").is_some();
    let mut failures = Vec::new();
    for (name, actual) in snapshots {
        let path = golden_path(&name);
        if bless {
            std::fs::write(&path, &actual).unwrap();
            continue;
        }
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden file {} ({e}); run with EEND_BLESS=1 to create it",
                path.display()
            )
        });
        if golden != actual {
            failures.push(format!("{name}: {}", first_diff(&golden, &actual)));
        }
    }
    assert!(
        failures.is_empty(),
        "simulator behaviour drifted from pinned RunMetrics \
         (EEND_BLESS=1 regenerates after an intentional change):\n{}",
        failures.join("\n")
    );
}

#[test]
fn run_metrics_match_golden_snapshots() {
    check_snapshots(
        families()
            .into_iter()
            .map(|(name, stack)| (name.to_owned(), render(name, &stack)))
            .collect(),
    );
}

/// The scenario-diversity matrix: {Poisson, on/off burst} × {homogeneous,
/// mixed-card} cells of the same shortened small-network scenario the
/// stack-family snapshots pin, plus one DSDV-H × mixed-card CBR cell
/// (the proactive joint metric prices every link with the receiver's own
/// card). Every cell's full `RunMetrics` rendering is blessed to a
/// committed file, so traffic-model or heterogeneous-radio behaviour can
/// only drift loudly.
fn diversity_matrix() -> Vec<(String, Scenario)> {
    let models = [
        ("poisson", TrafficModel::Poisson),
        ("onoff", TrafficModel::OnOffBurst { mean_on_s: 5.0, mean_off_s: 5.0 }),
    ];
    let radios =
        [("uniform", CardAssignment::Uniform), ("mixed", radio_profiles::mixed_hypo().assignment)];
    let mut out = Vec::new();
    for (mname, model) in &models {
        for (rname, assignment) in &radios {
            let mut scenario = presets::small_network(stacks::titan_pc(), 4.0, 7)
                .with_card_assignment(assignment.clone());
            scenario.flows = scenario.flows.with_model(model.clone());
            scenario.duration = SimDuration::from_secs(40);
            out.push((format!("traffic_{mname}_{rname}"), scenario));
        }
    }
    let mut scenario = presets::small_network(stacks::dsdvh_odpm(), 4.0, 7)
        .with_card_assignment(radio_profiles::mixed_hypo().assignment);
    scenario.duration = SimDuration::from_secs(40);
    out.push(("dsdvh_odpm_psm_mixed".to_owned(), scenario));
    out
}

#[test]
fn traffic_and_radio_matrix_matches_golden_snapshots() {
    check_snapshots(
        diversity_matrix()
            .into_iter()
            .map(|(name, scenario)| {
                let metrics = Simulator::new(&scenario).run();
                assert!(metrics.data_sent > 0, "{name}: no traffic; snapshot is vacuous");
                (name, format!("{metrics:#?}\n"))
            })
            .collect(),
    );
}

/// The CBR regression pin (no `EEND_BLESS` involved): the traffic-model
/// refactor routed the paper's workload through `TrafficModel::Cbr`,
/// and this asserts — at runtime, against the same scenario the golden
/// files pin — that the default construction, an explicitly-set CBR
/// model, and the builder spelling are all the *same* path producing
/// identical `RunMetrics`. Together with the untouched committed
/// snapshots above, this pins CBR as byte-identical to the
/// pre-refactor `FlowSpec` implementation.
#[test]
fn cbr_model_is_the_default_path_with_identical_metrics() {
    let mut default_scenario = presets::small_network(stacks::titan_pc(), 4.0, 7);
    default_scenario.duration = SimDuration::from_secs(40);
    assert_eq!(default_scenario.flows.model, TrafficModel::Cbr, "CBR must stay the default");

    let mut explicit = default_scenario.clone();
    explicit.flows.model = TrafficModel::Cbr;
    let mut via_builder = default_scenario.clone();
    via_builder.flows = via_builder.flows.with_model(TrafficModel::Cbr);

    let reference = Simulator::new(&default_scenario).run();
    assert_eq!(Simulator::new(&explicit).run(), reference);
    assert_eq!(Simulator::new(&via_builder).run(), reference);
    // And the uniform card assignment is likewise the identity.
    let uniform = default_scenario.clone().with_card_assignment(CardAssignment::Uniform);
    assert_eq!(Simulator::new(&uniform).run(), reference);
}

#[test]
fn golden_snapshots_cover_every_stack_family() {
    // The five families partition `stacks::all()` by routing/metric kind;
    // keep the snapshot set honest if new families appear.
    let names: Vec<&str> = families().iter().map(|(n, _)| *n).collect();
    assert_eq!(names.len(), 5);
    let mut sorted = names.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len(), names.len(), "duplicate family snapshot");
}
