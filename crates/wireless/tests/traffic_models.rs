//! Property tests for the traffic-model invariants the campaign layer
//! leans on:
//!
//! 1. **determinism** — materialising a spec twice under the same seed
//!    yields identical flows and identical arrival sequences;
//! 2. **permutation independence** — a flow's arrival stream depends only
//!    on the spec seed and its own index: interleaving draws with other
//!    flows (as the event loop does) or appending more flows never
//!    perturbs it;
//! 3. **rate convergence** — over long horizons every model's empirical
//!    packet rate converges to the configured offered rate (`rate_bps`),
//!    so sweeping the model isolates traffic *shape* from *volume*.

use eend_sim::{SimDuration, SimRng};
use eend_wireless::{Flow, FlowSpec, TrafficModel};
use proptest::prelude::*;

fn models() -> Vec<TrafficModel> {
    vec![
        TrafficModel::Cbr,
        TrafficModel::Poisson,
        TrafficModel::OnOffBurst { mean_on_s: 5.0, mean_off_s: 5.0 },
        TrafficModel::OnOffBurst { mean_on_s: 2.0, mean_off_s: 6.0 },
        // Stress case: the on-interval is comparable to the mean
        // on-period, so every burst is only a handful of packets — the
        // regime where a naive burst-boundary reset overshoots the rate.
        TrafficModel::OnOffBurst { mean_on_s: 0.1, mean_off_s: 0.9 },
    ]
}

fn spec(model: TrafficModel, flows: usize, rate_kbps: f64) -> FlowSpec {
    // Explicit pairs on a ring keep endpoint draws out of the picture so
    // the tests isolate the arrival process.
    let n = flows + 1;
    FlowSpec::cbr(flows, rate_kbps)
        .with_pairs((0..flows).map(|i| (i, (i + 1) % n)).collect())
        .with_model(model)
}

/// The first `k` inter-packet gaps of `flow`, in seconds.
fn gaps(flow: &mut Flow, k: usize) -> Vec<SimDuration> {
    (0..k).map(|_| flow.next_gap()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn materialisation_is_deterministic_under_a_fixed_seed(
        seed in 0u64..10_000,
        flows in 1usize..6,
        model_idx in 0usize..5,
    ) {
        let s = spec(models()[model_idx].clone(), flows, 4.0);
        let mut a = s.materialize(flows + 1, &mut SimRng::new(seed));
        let mut b = s.materialize(flows + 1, &mut SimRng::new(seed));
        prop_assert_eq!(&a, &b, "materialisation must replay");
        for (fa, fb) in a.iter_mut().zip(b.iter_mut()) {
            prop_assert_eq!(gaps(fa, 64), gaps(fb, 64), "arrival sequences must replay");
        }
    }

    #[test]
    fn arrival_streams_are_permutation_independent_across_flows(
        seed in 0u64..10_000,
        model_idx in 1usize..5, // stochastic models only; CBR is trivial
    ) {
        let s = spec(models()[model_idx].clone(), 4, 4.0);
        // Sequential: drain each flow's gaps one flow at a time.
        let mut seq = s.materialize(5, &mut SimRng::new(seed));
        let sequential: Vec<Vec<SimDuration>> =
            seq.iter_mut().map(|f| gaps(f, 32)).collect();
        // Interleaved: round-robin over the flows, as the event loop
        // effectively does.
        let mut inter = s.materialize(5, &mut SimRng::new(seed));
        let mut interleaved = vec![Vec::new(); inter.len()];
        for _ in 0..32 {
            for (i, f) in inter.iter_mut().enumerate() {
                interleaved[i].push(f.next_gap());
            }
        }
        prop_assert_eq!(sequential, interleaved, "draw order across flows must not matter");
    }

    #[test]
    fn appending_flows_never_perturbs_existing_streams(
        seed in 0u64..10_000,
        model_idx in 1usize..5,
    ) {
        let model = models()[model_idx].clone();
        let mut small = spec(model.clone(), 3, 4.0).materialize(6, &mut SimRng::new(seed));
        let mut large = spec(model, 5, 4.0).materialize(6, &mut SimRng::new(seed));
        for (i, f) in small.iter_mut().enumerate() {
            prop_assert_eq!(
                gaps(f, 32),
                gaps(&mut large[i], 32),
                "flow {}'s stream must survive grid growth", i
            );
        }
    }
}

/// Long-horizon empirical rate of one flow, bits per second.
fn empirical_rate_bps(flow: &mut Flow, packets: usize) -> f64 {
    let total_s: f64 = (0..packets).map(|_| flow.next_gap().as_secs_f64()).sum();
    packets as f64 * flow.packet_bytes as f64 * 8.0 / total_s
}

#[test]
fn all_models_converge_to_the_configured_offered_rate() {
    for model in models() {
        for rate_kbps in [2.0, 4.0, 8.0] {
            let mut flow =
                spec(model.clone(), 1, rate_kbps).materialize(2, &mut SimRng::new(42)).remove(0);
            let measured = empirical_rate_bps(&mut flow, 200_000);
            let configured = rate_kbps * 1000.0;
            let rel = (measured - configured).abs() / configured;
            assert!(
                rel < 0.05,
                "{model:?} at {rate_kbps} Kbit/s: measured {measured:.1} bps \
                 vs configured {configured} ({:.1}% off)",
                rel * 100.0
            );
        }
    }
}

#[test]
fn cbr_converges_exactly_not_just_in_the_limit() {
    let mut flow = spec(TrafficModel::Cbr, 1, 4.0).materialize(2, &mut SimRng::new(7)).remove(0);
    let measured = empirical_rate_bps(&mut flow, 1_000);
    assert!((measured - 4000.0).abs() < 1e-6, "CBR is deterministic: {measured}");
}

#[test]
fn onoff_actually_bursts() {
    // The burst model must produce both dense on-period gaps (below the
    // CBR interval) and long off-period silences (above it) — otherwise
    // it degenerated into CBR with a scaled rate.
    let mut flow = spec(TrafficModel::OnOffBurst { mean_on_s: 5.0, mean_off_s: 5.0 }, 1, 4.0)
        .materialize(2, &mut SimRng::new(9))
        .remove(0);
    let cbr_gap = flow.interval.as_secs_f64();
    let gaps: Vec<f64> = (0..10_000).map(|_| flow.next_gap().as_secs_f64()).collect();
    let dense = gaps.iter().filter(|&&g| g < cbr_gap * 0.75).count();
    let silent = gaps.iter().filter(|&&g| g > cbr_gap * 2.0).count();
    assert!(dense > 5_000, "on-periods must dominate the gap count: {dense}");
    assert!(silent > 50, "off-periods must appear: {silent}");
}
