//! The paper's evaluation scenarios, ready to run.

use crate::frame::NodeId;
use crate::scenario::{ProtocolStack, Scenario};
use crate::topology::Placement;
use crate::traffic::FlowSpec;
use eend_radio::cards;
use eend_sim::SimDuration;

/// Section 5.2.1 — small networks: 50 nodes uniform in 500×500 m²,
/// 10 CBR flows at `rate_kbps`, 128 B packets, 900 s, Cabletron.
pub fn small_network(stack: ProtocolStack, rate_kbps: f64, seed: u64) -> Scenario {
    Scenario::new(
        Placement::UniformRandom { n: 50, width: 500.0, height: 500.0 },
        cards::cabletron(),
        stack,
        FlowSpec::cbr(10, rate_kbps),
        SimDuration::from_secs(900),
        seed,
    )
}

/// Section 5.2.2 — large networks: 200 nodes uniform in 1300×1300 m²,
/// 20 CBR flows, 600 s, Cabletron.
pub fn large_network(stack: ProtocolStack, rate_kbps: f64, seed: u64) -> Scenario {
    Scenario::new(
        Placement::UniformRandom { n: 200, width: 1300.0, height: 1300.0 },
        cards::cabletron(),
        stack,
        FlowSpec::cbr(20, rate_kbps),
        SimDuration::from_secs(600),
        seed,
    )
}

/// Table 2 — density study: `n` nodes (300 or 400) in 1300×1300 m² at
/// 4 Kb/s with source/destination pairs fixed independently of density.
///
/// The placement RNG draws node positions sequentially, so the first 300
/// positions of the 400-node network equal the 300-node network's — the
/// paper's "without changing the positions of source and destination
/// nodes".
pub fn density_network(stack: ProtocolStack, n: usize, seed: u64) -> Scenario {
    let pairs = fixed_pairs(20, 300, seed);
    Scenario::new(
        Placement::UniformRandom { n, width: 1300.0, height: 1300.0 },
        cards::cabletron(),
        stack,
        FlowSpec::cbr(20, 4.0).with_pairs(pairs),
        SimDuration::from_secs(600),
        seed,
    )
}

/// Section 5.2.3 — 7×7 grid in 300×300 m² (50 m spacing), Hypothetical
/// Cabletron, 7 flows left edge → right edge, 900 s.
pub fn grid_hypothetical(stack: ProtocolStack, rate_kbps: f64, seed: u64) -> Scenario {
    let pairs: Vec<(NodeId, NodeId)> = (0..7).map(|r| (r * 7, r * 7 + 6)).collect();
    Scenario::new(
        Placement::Grid { rows: 7, cols: 7, width: 300.0, height: 300.0 },
        cards::hypothetical_cabletron(),
        stack,
        FlowSpec::cbr(7, rate_kbps).with_pairs(pairs),
        SimDuration::from_secs(900),
        seed,
    )
}

/// Performance-benchmark preset: `n` nodes at the small-network density
/// (the 500×500 m² field scaled to keep 50 nodes' density), `n/5` CBR
/// flows at 4 Kbit/s, random-waypoint mobility at 2.5–5 m/s with 5 s
/// pauses, 60 s horizon, Cabletron.
///
/// This is the scenario family the `BENCH_*.json` perf records and
/// `eend-cli bench` measure (50/100/200 nodes); identical to an
/// `eend-cli --nodes n --area <scaled> --flows n/5 --rate 4 --secs 60
/// --speed 5` single run, so any historical build can be timed on the
/// same workload.
pub fn mobility_bench(stack: ProtocolStack, n: usize, seed: u64) -> Scenario {
    let area = 500.0 * (n as f64 / 50.0).sqrt();
    Scenario::new(
        Placement::UniformRandom { n, width: area, height: area },
        cards::cabletron(),
        stack,
        FlowSpec::cbr(n / 5, 4.0),
        SimDuration::from_secs(60),
        seed,
    )
    .with_mobility(crate::mobility::Mobility::random_waypoint(2.5, 5.0, 5.0))
}

/// Scale-benchmark family: a `side`×`side` grid at the small-network
/// density (one node per 5000 m², ~70.7 m spacing), 16 CBR flows at
/// 4 Kbit/s between grid-local pairs, random-waypoint mobility at
/// 2.5–5 m/s with 5 s pauses, 20 s horizon, Cabletron.
///
/// Two deliberate departures from [`mobility_bench`] keep the family
/// runnable at 10⁴–10⁵ nodes:
///
/// * **Fixed flow count.** Traffic (and hence reactive-discovery
///   flooding) stays constant while the field grows, so the workload
///   isolates the per-node simulator cost — event queue, neighbor
///   maintenance, beaconing — rather than drowning it in O(n) flows.
/// * **Grid placement with id-local pairs.** Row-major grid ids make
///   physical locality expressible as id arithmetic: each flow spans
///   three rows and three columns (~300 m, 2–3 hops), independent of
///   network size, so routes exist and delivery is non-trivial even on
///   a 22 km field.
///
/// Named sizes: [`mobility1k`] (32² = 1 024), [`mobility10k`]
/// (100² = 10 000), [`mobility100k`] (316² = 99 856).
pub fn mobility_scale(stack: ProtocolStack, side: usize, seed: u64) -> Scenario {
    assert!(side >= 8, "scale preset needs at least an 8x8 grid");
    let n = side * side;
    // Small-network density: 50 nodes in 500x500 m² = 5000 m² per node.
    let spacing = 5000.0_f64.sqrt();
    let extent = (side - 1) as f64 * spacing;
    // 16 sources spread evenly over the grid, each sending to the node
    // three rows down and three columns right (~300 m away). Sources
    // stop 4 rows short of the bottom edge so every destination exists.
    let stride = (n - 4 * side) / 16;
    let pairs: Vec<(NodeId, NodeId)> =
        (0..16).map(|k| (k * stride, k * stride + 3 * side + 3)).collect();
    Scenario::new(
        Placement::Grid { rows: side, cols: side, width: extent, height: extent },
        cards::cabletron(),
        stack,
        // Traffic starts at 1–2 s instead of the paper's 20–25 s so the
        // short horizon is almost all steady state.
        FlowSpec::cbr(16, 4.0).with_pairs(pairs).with_start_window(1.0, 2.0),
        SimDuration::from_secs(20),
        seed,
    )
    .with_mobility(crate::mobility::Mobility::random_waypoint(2.5, 5.0, 5.0))
}

/// [`mobility_scale`] at 32×32 = 1 024 nodes.
pub fn mobility1k(stack: ProtocolStack, seed: u64) -> Scenario {
    mobility_scale(stack, 32, seed)
}

/// [`mobility_scale`] at 100×100 = 10 000 nodes.
pub fn mobility10k(stack: ProtocolStack, seed: u64) -> Scenario {
    mobility_scale(stack, 100, seed)
}

/// [`mobility_scale`] at 316×316 = 99 856 nodes.
pub fn mobility100k(stack: ProtocolStack, seed: u64) -> Scenario {
    mobility_scale(stack, 316, seed)
}

/// Draws `k` distinct-endpoint pairs among `0..limit` from a seed that
/// does not depend on network size.
fn fixed_pairs(k: usize, limit: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    let mut rng = eend_sim::SimRng::new(eend_sim::mix_seed(&[seed, 0x9A125]));
    (0..k)
        .map(|_| loop {
            let s = rng.range_usize(0, limit);
            let d = rng.range_usize(0, limit);
            if s != d {
                break (s, d);
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::stacks;
    use eend_sim::SimRng;

    #[test]
    fn small_network_matches_paper_parameters() {
        let s = small_network(stacks::dsr_active(), 4.0, 1);
        assert_eq!(s.placement.node_count(), 50);
        assert_eq!(s.flows.count, 10);
        assert_eq!(s.flows.packet_bytes, 128);
        assert_eq!(s.duration, SimDuration::from_secs(900));
        assert_eq!(s.card.name, "Cabletron");
    }

    #[test]
    fn large_network_matches_paper_parameters() {
        let s = large_network(stacks::titan_pc(), 6.0, 2);
        assert_eq!(s.placement.node_count(), 200);
        assert_eq!(s.flows.count, 20);
        assert_eq!(s.duration, SimDuration::from_secs(600));
    }

    #[test]
    fn grid_flows_cross_left_to_right() {
        let s = grid_hypothetical(stacks::mtpr(false), 2.0, 3);
        assert_eq!(s.card.name, "Hypothetical Cabletron");
        let pairs = s.flows.pairs.unwrap();
        assert_eq!(pairs.len(), 7);
        for (i, (src, dst)) in pairs.iter().enumerate() {
            assert_eq!(*src, i * 7, "left-column source");
            assert_eq!(*dst, i * 7 + 6, "right-column sink");
        }
    }

    #[test]
    fn density_pairs_are_density_independent() {
        let a = density_network(stacks::dsr_odpm_pc(), 300, 5);
        let b = density_network(stacks::titan_pc(), 400, 5);
        assert_eq!(a.flows.pairs, b.flows.pairs, "same endpoints across densities");
        let pairs = a.flows.pairs.unwrap();
        assert!(pairs.iter().all(|&(s, d)| s < 300 && d < 300 && s != d));
    }

    #[test]
    fn hetero_small_network_differs_only_in_cards() {
        let homo = small_network(stacks::titan_pc(), 4.0, 1);
        let hetero = small_network(stacks::titan_pc(), 4.0, 1)
            .with_card_assignment(crate::scenario::radio_profiles::mixed_hypo().assignment);
        assert_eq!(hetero.placement, homo.placement);
        assert_eq!(hetero.flows, homo.flows);
        assert_eq!(hetero.card, homo.card, "base PHY card unchanged");
        assert_ne!(hetero.card_assignment, homo.card_assignment);
        let names: Vec<&str> = hetero.node_cards(4).iter().map(|c| c.name).collect();
        assert_eq!(
            names,
            ["Cabletron", "Hypothetical Cabletron", "Cabletron", "Hypothetical Cabletron"]
        );
    }

    #[test]
    fn scale_presets_keep_density_and_local_flows() {
        for (scenario, n, side) in [
            (mobility1k(stacks::titan_pc(), 1), 1024usize, 32usize),
            (mobility10k(stacks::titan_pc(), 1), 10_000, 100),
            (mobility100k(stacks::titan_pc(), 1), 99_856, 316),
        ] {
            assert_eq!(scenario.placement.node_count(), n);
            let Placement::Grid { width, height, .. } = scenario.placement else {
                panic!("scale preset must be a grid");
            };
            // Density matches small_network: one node per ~5000 m²
            // (grid edges make it exact only in the n→∞ limit).
            let spacing = width / (side - 1) as f64;
            assert!((spacing * spacing - 5000.0).abs() < 1e-6, "spacing² = {}", spacing * spacing);
            assert_eq!(width, height);
            let pairs = scenario.flows.pairs.as_ref().unwrap();
            assert_eq!(pairs.len(), 16);
            for &(s, d) in pairs {
                assert!(d < n, "destination in bounds");
                // Every flow spans exactly 3 rows + 3 cols (~300 m):
                // multi-hop, but size-independent.
                assert_eq!(d - s, 3 * side + 3);
            }
            assert_eq!(scenario.duration, SimDuration::from_secs(20));
            assert_ne!(
                scenario.mobility,
                crate::mobility::Mobility::Static,
                "scale presets are mobile"
            );
        }
    }

    #[test]
    fn density_positions_share_prefix() {
        let a = density_network(stacks::dsr_odpm_pc(), 300, 5);
        let b = density_network(stacks::dsr_odpm_pc(), 400, 5);
        // The paper varies density without moving the existing nodes; our
        // sequential placement RNG guarantees the shared prefix.
        let pa = a.placement.positions(&mut SimRng::new(11));
        let pb = b.placement.positions(&mut SimRng::new(11));
        assert_eq!(&pa[..300], &pb[..300]);
    }
}
