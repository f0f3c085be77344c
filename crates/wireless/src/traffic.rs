//! Traffic generation: CBR, Poisson, and bursty on/off workloads.
//!
//! The paper evaluates exclusively constant-bit-rate flows; real
//! deployments do not. [`TrafficModel`] makes the packet-arrival process
//! a first-class, sweepable axis while keeping the CBR path bit-identical
//! to the original implementation: a [`FlowSpec`] with
//! [`TrafficModel::Cbr`] consumes exactly the same RNG draws and emits
//! exactly the same arrival instants as the pre-model code, so every
//! pinned golden snapshot stays valid without re-blessing.
//!
//! Non-CBR flows each own an **independent** RNG stream derived from
//! `mix_seed(stream_seed, flow_index)`: a flow's arrival sequence depends
//! only on the spec seed and its index — never on how many other flows
//! exist or in what order the event loop interleaves their draws.

use crate::frame::NodeId;
use eend_sim::{mix_seed, SimDuration, SimRng, SimTime};

/// The packet-arrival process of a flow — a sweepable campaign axis.
///
/// All three models offer the **same long-run rate** (`FlowSpec::rate_bps`):
/// Poisson randomises inter-arrivals around the CBR mean, and the on/off
/// burst model compresses the same offered load into exponentially
/// distributed on-periods (CBR at an elevated peak rate while on,
/// silence while off), so sweeping the model isolates the effect of
/// traffic *shape* from traffic *volume*.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficModel {
    /// Constant bit rate: fixed inter-packet gap (the paper's workload).
    Cbr,
    /// Poisson arrivals: exponential inter-arrival times with the CBR
    /// mean, i.e. the same offered rate.
    Poisson,
    /// Exponential on/off periods; CBR while on, at a peak rate scaled by
    /// the inverse duty cycle so the long-run offered rate still equals
    /// `rate_bps`.
    OnOffBurst {
        /// Mean on-period length, seconds (must be positive).
        mean_on_s: f64,
        /// Mean off-period length, seconds (must be positive).
        mean_off_s: f64,
    },
}

impl TrafficModel {
    /// Parses the CLI spelling: `cbr`, `poisson`, `onoff` (5 s/5 s
    /// defaults), or `onoff(ON_S,OFF_S)` with explicit mean periods.
    /// Round-trips [`TrafficModel::label`].
    pub fn parse(name: &str) -> Option<TrafficModel> {
        let s = name.trim().to_ascii_lowercase();
        match s.as_str() {
            "cbr" => Some(TrafficModel::Cbr),
            "poisson" => Some(TrafficModel::Poisson),
            "onoff" => Some(TrafficModel::OnOffBurst { mean_on_s: 5.0, mean_off_s: 5.0 }),
            _ => {
                let inner = s.strip_prefix("onoff(")?.strip_suffix(')')?;
                let (on, off) = inner.split_once(',')?;
                let (on, off): (f64, f64) = (on.trim().parse().ok()?, off.trim().parse().ok()?);
                (on.is_finite() && off.is_finite() && on > 0.0 && off > 0.0)
                    .then_some(TrafficModel::OnOffBurst { mean_on_s: on, mean_off_s: off })
            }
        }
    }

    /// Canonical spelling, used by campaign grid points, store manifests
    /// and CSV/JSON output ([`TrafficModel::parse`]'s inverse).
    pub fn label(&self) -> String {
        match self {
            TrafficModel::Cbr => "cbr".to_owned(),
            TrafficModel::Poisson => "poisson".to_owned(),
            TrafficModel::OnOffBurst { mean_on_s, mean_off_s } => {
                format!("onoff({mean_on_s},{mean_off_s})")
            }
        }
    }
}

/// Specification of the traffic workload (the paper's flows: 128 B packets,
/// per-flow rate swept 2–200 Kbit/s, start times uniform in [20 s, 25 s]).
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSpec {
    /// Number of flows.
    pub count: usize,
    /// Per-flow offered rate, bits per second (the long-run rate for
    /// every [`TrafficModel`]).
    pub rate_bps: f64,
    /// Application payload per packet, bytes.
    pub packet_bytes: usize,
    /// Start-time window `(lo, hi)` in seconds.
    pub start_window: (f64, f64),
    /// Explicit `(source, sink)` pairs; drawn at random (distinct
    /// endpoints, no self-loops) when `None`.
    pub pairs: Option<Vec<(NodeId, NodeId)>>,
    /// Packet-arrival process ([`TrafficModel::Cbr`] reproduces the
    /// original CBR implementation bit-for-bit).
    pub model: TrafficModel,
}

impl FlowSpec {
    /// The paper's default workload shape: 128 B packets, starts in
    /// [20 s, 25 s], random pairs.
    pub fn cbr(count: usize, rate_kbps: f64) -> FlowSpec {
        FlowSpec {
            count,
            rate_bps: rate_kbps * 1000.0,
            packet_bytes: 128,
            start_window: (20.0, 25.0),
            pairs: None,
            model: TrafficModel::Cbr,
        }
    }

    /// Fixes the source/sink pairs (used by the grid scenario and the
    /// density study, which keeps endpoints while varying density).
    pub fn with_pairs(mut self, pairs: Vec<(NodeId, NodeId)>) -> FlowSpec {
        self.count = pairs.len();
        self.pairs = Some(pairs);
        self
    }

    /// Overrides the paper's [20 s, 25 s] start window — the scale
    /// presets start traffic almost immediately so short horizons still
    /// move data.
    pub fn with_start_window(mut self, from_s: f64, to_s: f64) -> FlowSpec {
        self.start_window = (from_s, to_s);
        self
    }

    /// Replaces the arrival process, keeping everything else.
    pub fn with_model(mut self, model: TrafficModel) -> FlowSpec {
        self.model = model;
        self
    }

    /// Materialises concrete flows for a network of `n_nodes`.
    ///
    /// The RNG draw order is: endpoint pairs (when not explicit), then —
    /// only for non-CBR models — one `u64` seeding the per-flow arrival
    /// streams, then one start-time draw per flow. A CBR spec therefore
    /// consumes exactly the draws the pre-[`TrafficModel`] code consumed.
    ///
    /// # Panics
    ///
    /// Panics if rates/sizes/periods are non-positive, a pair is out of
    /// range, or the network is too small to draw distinct pairs.
    pub fn materialize(&self, n_nodes: usize, rng: &mut SimRng) -> Vec<Flow> {
        assert!(self.rate_bps > 0.0, "flow rate must be positive");
        assert!(self.packet_bytes > 0, "packets must be non-empty");
        assert!(self.start_window.0 <= self.start_window.1, "start window must be ordered");
        if let TrafficModel::OnOffBurst { mean_on_s, mean_off_s } = self.model {
            assert!(
                mean_on_s.is_finite()
                    && mean_off_s.is_finite()
                    && mean_on_s > 0.0
                    && mean_off_s > 0.0,
                "on/off periods must be positive and finite"
            );
        }
        let pairs: Vec<(NodeId, NodeId)> = match &self.pairs {
            Some(p) => {
                for &(s, d) in p {
                    assert!(s < n_nodes && d < n_nodes && s != d, "bad pair ({s}, {d})");
                }
                p.clone()
            }
            None => {
                assert!(n_nodes >= 2, "need two nodes for a flow");
                (0..self.count)
                    .map(|_| loop {
                        let s = rng.range_usize(0, n_nodes);
                        let d = rng.range_usize(0, n_nodes);
                        if s != d {
                            break (s, d);
                        }
                    })
                    .collect()
            }
        };
        // Per-flow arrival streams are keyed by (stream_seed, index):
        // adding, removing or reordering *other* flows never perturbs a
        // flow's own arrival sequence.
        let stream_seed = match self.model {
            TrafficModel::Cbr => 0,
            _ => rng.next_u64(),
        };
        let interval = SimDuration::from_secs_f64(self.packet_bytes as f64 * 8.0 / self.rate_bps);
        pairs
            .into_iter()
            .enumerate()
            .map(|(i, (src, dst))| Flow {
                src,
                dst,
                rate_bps: self.rate_bps,
                packet_bytes: self.packet_bytes,
                start: SimTime::from_secs_f64(rng.range_f64(
                    self.start_window.0,
                    self.start_window.1.max(self.start_window.0 + 1e-9),
                )),
                interval,
                next_seq: 0,
                source: FlowSource::for_model(
                    &self.model,
                    interval,
                    SimRng::new(mix_seed(&[stream_seed, i as u64])),
                ),
            })
            .collect()
    }
}

/// Per-flow arrival-process state. CBR carries none (and costs none);
/// the stochastic models own their flow's independent RNG stream.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowSource {
    /// Fixed gap: the flow's `interval`.
    Cbr,
    /// Exponential gaps with the flow's `interval` as the mean.
    Poisson {
        /// This flow's arrival stream.
        rng: SimRng,
    },
    /// CBR at `on_interval` gaps while on; exponential on/off periods.
    OnOff {
        /// This flow's arrival stream.
        rng: SimRng,
        /// Inter-packet gap during an on-period (`interval` × duty cycle,
        /// so the long-run rate matches the configured one).
        on_interval: SimDuration,
        /// Mean on-period, seconds.
        mean_on_s: f64,
        /// Mean off-period, seconds.
        mean_off_s: f64,
        /// Remaining on-time before the next off-period, seconds.
        on_left_s: f64,
    },
}

impl FlowSource {
    fn for_model(model: &TrafficModel, interval: SimDuration, mut rng: SimRng) -> FlowSource {
        match *model {
            TrafficModel::Cbr => FlowSource::Cbr,
            TrafficModel::Poisson => FlowSource::Poisson { rng },
            TrafficModel::OnOffBurst { mean_on_s, mean_off_s } => {
                let duty = mean_on_s / (mean_on_s + mean_off_s);
                let on_left_s = rng.exponential(1.0 / mean_on_s);
                FlowSource::OnOff {
                    rng,
                    on_interval: SimDuration::from_secs_f64(interval.as_secs_f64() * duty),
                    mean_on_s,
                    mean_off_s,
                    on_left_s,
                }
            }
        }
    }
}

/// A materialised flow.
#[derive(Debug, Clone, PartialEq)]
pub struct Flow {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Long-run offered rate, bits per second.
    pub rate_bps: f64,
    /// Payload bytes per packet.
    pub packet_bytes: usize,
    /// First packet's generation instant.
    pub start: SimTime,
    /// Mean inter-packet gap (the exact gap for CBR).
    pub interval: SimDuration,
    /// Next sequence number to assign.
    pub next_seq: u64,
    /// Arrival-process state (advanced by [`Flow::next_gap`]).
    pub source: FlowSource,
}

impl Flow {
    /// The gap until this flow's next packet, advancing the arrival
    /// process. Allocation-free: stochastic models draw from the flow's
    /// own RNG stream in place.
    pub fn next_gap(&mut self) -> SimDuration {
        match &mut self.source {
            FlowSource::Cbr => self.interval,
            FlowSource::Poisson { rng } => {
                SimDuration::from_secs_f64(rng.exponential(1.0 / self.interval.as_secs_f64()))
            }
            FlowSource::OnOff { rng, on_interval, mean_on_s, mean_off_s, on_left_s } => {
                let step = on_interval.as_secs_f64();
                let mut gap_s = step;
                *on_left_s -= step;
                while *on_left_s <= 0.0 {
                    // The burst ended: insert an off-period and *add* the
                    // next on-period to the (negative) balance — carrying
                    // the deficit, rather than resetting it, keeps the
                    // long-run packet rate at exactly one per on-interval
                    // of on-time. A reset would gift every burst one free
                    // overshoot packet (≈ +24% offered load when the
                    // on-interval is close to the mean on-period).
                    gap_s += rng.exponential(1.0 / *mean_off_s);
                    *on_left_s += rng.exponential(1.0 / *mean_on_s);
                }
                SimDuration::from_secs_f64(gap_s)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_matches_rate() {
        // 2 Kbit/s at 128 B (1024 bit) packets → 0.512 s per packet
        // (the paper's "2 Kbit/s ≈ 2 packets/s" uses 1000-bit packets;
        // we keep the exact arithmetic).
        let mut rng = SimRng::new(1);
        let flows = FlowSpec::cbr(1, 2.0).materialize(10, &mut rng);
        assert_eq!(flows.len(), 1);
        assert!((flows[0].interval.as_secs_f64() - 0.512).abs() < 1e-9);
    }

    #[test]
    fn starts_inside_window() {
        let mut rng = SimRng::new(2);
        for f in FlowSpec::cbr(50, 4.0).materialize(50, &mut rng) {
            let s = f.start.as_secs_f64();
            assert!((20.0..25.0).contains(&s), "start {s}");
            assert_ne!(f.src, f.dst);
        }
    }

    #[test]
    fn explicit_pairs_respected() {
        let mut rng = SimRng::new(3);
        let flows = FlowSpec::cbr(2, 4.0).with_pairs(vec![(0, 6), (1, 5)]).materialize(7, &mut rng);
        assert_eq!(flows.len(), 2);
        assert_eq!((flows[0].src, flows[0].dst), (0, 6));
        assert_eq!((flows[1].src, flows[1].dst), (1, 5));
    }

    #[test]
    fn deterministic_under_seed() {
        let spec = FlowSpec::cbr(10, 6.0);
        let a = spec.materialize(50, &mut SimRng::new(77));
        let b = spec.materialize(50, &mut SimRng::new(77));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "bad pair")]
    fn out_of_range_pair_rejected() {
        let mut rng = SimRng::new(4);
        let _ = FlowSpec::cbr(1, 2.0).with_pairs(vec![(0, 9)]).materialize(3, &mut rng);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        let mut rng = SimRng::new(5);
        let _ = FlowSpec::cbr(1, 0.0).materialize(3, &mut rng);
    }

    #[test]
    fn cbr_gap_is_the_interval_forever() {
        let mut rng = SimRng::new(6);
        let mut f = FlowSpec::cbr(1, 4.0).materialize(5, &mut rng).remove(0);
        for _ in 0..10 {
            assert_eq!(f.next_gap(), f.interval);
        }
    }

    #[test]
    fn model_labels_round_trip_parse() {
        for m in [
            TrafficModel::Cbr,
            TrafficModel::Poisson,
            TrafficModel::OnOffBurst { mean_on_s: 5.0, mean_off_s: 5.0 },
            TrafficModel::OnOffBurst { mean_on_s: 2.5, mean_off_s: 7.5 },
        ] {
            assert_eq!(TrafficModel::parse(&m.label()), Some(m.clone()), "{}", m.label());
        }
        assert_eq!(
            TrafficModel::parse("onoff"),
            Some(TrafficModel::OnOffBurst { mean_on_s: 5.0, mean_off_s: 5.0 })
        );
        assert_eq!(TrafficModel::parse("CBR"), Some(TrafficModel::Cbr));
        assert_eq!(TrafficModel::parse("onoff(0,5)"), None, "zero periods rejected");
        assert_eq!(TrafficModel::parse("onoff(inf,5)"), None, "non-finite periods rejected");
        assert_eq!(TrafficModel::parse("onoff(1e400,5)"), None, "overflow-to-inf rejected");
        assert_eq!(TrafficModel::parse("onoff(nan,5)"), None);
        assert_eq!(TrafficModel::parse("vbr"), None);
    }

    #[test]
    fn cbr_materialisation_ignores_the_model_stream_seed() {
        // The CBR path must consume exactly the pre-TrafficModel draws:
        // materialising CBR then drawing from the RNG gives the same
        // value as never materialising the (pair-free) part at all.
        let spec = FlowSpec::cbr(2, 4.0).with_pairs(vec![(0, 1), (1, 2)]);
        let mut a = SimRng::new(9);
        let flows = spec.materialize(3, &mut a);
        assert!(flows.iter().all(|f| f.source == FlowSource::Cbr));
        let mut b = SimRng::new(9);
        // Replay the draws CBR is allowed: one start per flow.
        let _ = b.range_f64(20.0, 25.0);
        let _ = b.range_f64(20.0, 25.0);
        assert_eq!(a.next_u64(), b.next_u64(), "CBR must not consume a stream seed");
    }

    #[test]
    fn onoff_peak_rate_compensates_duty_cycle() {
        let spec = FlowSpec::cbr(1, 4.0)
            .with_pairs(vec![(0, 1)])
            .with_model(TrafficModel::OnOffBurst { mean_on_s: 2.0, mean_off_s: 6.0 });
        let mut rng = SimRng::new(10);
        let f = spec.materialize(2, &mut rng).remove(0);
        let FlowSource::OnOff { on_interval, .. } = &f.source else { panic!() };
        // Duty cycle 0.25 → on-interval is a quarter of the CBR gap.
        assert!((on_interval.as_secs_f64() - f.interval.as_secs_f64() * 0.25).abs() < 1e-12);
    }
}
