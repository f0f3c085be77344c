//! Per-run measurement results.

use crate::frame::NodeId;
use eend_radio::{EnergyReport, RadioCard};

/// Everything one simulation run measures: the paper's two headline
/// metrics (delivery ratio, energy goodput) plus the breakdowns behind
/// Fig 10 (transmit energy) and the control-overhead discussion.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// Data packets handed to routing at their sources.
    pub data_sent: u64,
    /// Data packets delivered to their destinations.
    pub data_delivered: u64,
    /// Application bits delivered.
    pub delivered_bits: f64,
    /// Data drops: discovery gave up.
    pub drops_no_route: u64,
    /// Data drops: link failure past salvage.
    pub drops_link_failure: u64,
    /// Data drops: routing-layer buffers.
    pub drops_buffer: u64,
    /// Data drops: MAC interface queue overflow.
    pub drops_ifq: u64,
    /// Route requests transmitted (flood copies, not discoveries).
    pub rreq_tx: u64,
    /// Route replies transmitted (per hop).
    pub rrep_tx: u64,
    /// Route errors transmitted (per hop).
    pub rerr_tx: u64,
    /// DSDV table advertisements transmitted.
    pub dsdv_update_tx: u64,
    /// ATIM announcements charged.
    pub atim_tx: u64,
    /// Broadcast receptions corrupted by hidden-terminal overlap.
    pub broadcast_collisions: u64,
    /// Unicast attempts aborted by a busy receiver (RTS collision).
    pub rts_collisions: u64,
    /// Frames abandoned after the MAC retry limit.
    pub link_failures: u64,
    /// Per-node energy reports.
    pub per_node_energy: Vec<EnergyReport>,
    /// Network energy total (Eq 4).
    pub energy_total: EnergyReport,
    /// Nodes that forwarded at least one data frame they did not source —
    /// the paper's "number of relays".
    pub data_forwarders: usize,
    /// Last route observed per flow (source-route or DSDV trace).
    pub routes: Vec<Option<Vec<NodeId>>>,
    /// Simulated horizon, seconds.
    pub duration_s: f64,
}

impl RunMetrics {
    /// Delivery ratio: received / sent (1 when nothing was sent).
    pub fn delivery_ratio(&self) -> f64 {
        if self.data_sent == 0 {
            1.0
        } else {
            self.data_delivered as f64 / self.data_sent as f64
        }
    }

    /// Total network energy, joules.
    pub fn enetwork_j(&self) -> f64 {
        self.energy_total.total_mj() / 1000.0
    }

    /// Energy goodput: delivered application bits per joule.
    pub fn energy_goodput_bit_per_j(&self) -> f64 {
        let j = self.enetwork_j();
        if j <= 0.0 {
            0.0
        } else {
            self.delivered_bits / j
        }
    }

    /// Transmit-side energy (Fig 10's metric), joules.
    pub fn transmit_energy_j(&self) -> f64 {
        self.energy_total.transmit_mj() / 1000.0
    }

    /// Control-overhead energy (Eq 2 summed over nodes), joules.
    pub fn control_energy_j(&self) -> f64 {
        self.energy_total.control_mj() / 1000.0
    }

    /// Projected network lifetime: with every node starting from
    /// `battery_j` joules and draining at its measured average power,
    /// when does the first node die? (The paper's stated future work —
    /// instantaneous energy minimisation does not automatically maximise
    /// lifetime; this exposes the gap.) Returns `f64::INFINITY` when no
    /// node consumed anything.
    pub fn lifetime_to_first_death_s(&self, battery_j: f64) -> f64 {
        assert!(battery_j > 0.0, "battery capacity must be positive");
        self.per_node_energy
            .iter()
            .map(|r| r.total_mj() / 1000.0 / self.duration_s) // watts
            .filter(|&w| w > 0.0)
            .map(|w| battery_j / w)
            .fold(f64::INFINITY, f64::min)
    }

    /// Aggregates the per-node energy reports by radio-card class: one
    /// `(card name, node count, accumulated report)` entry per distinct
    /// card, in first-appearance (node-id) order. `cards` is the
    /// scenario's per-node assignment ([`crate::Scenario::node_cards`]);
    /// under a homogeneous assignment this collapses to one entry equal
    /// to [`RunMetrics::energy_total`].
    ///
    /// # Panics
    ///
    /// Panics when `cards` does not have one entry per measured node.
    pub fn energy_by_card(&self, cards: &[RadioCard]) -> Vec<(&'static str, usize, EnergyReport)> {
        assert_eq!(
            cards.len(),
            self.per_node_energy.len(),
            "need exactly one card per measured node"
        );
        let mut out: Vec<(&'static str, usize, EnergyReport)> = Vec::new();
        for (card, report) in cards.iter().zip(&self.per_node_energy) {
            match out.iter_mut().find(|(name, _, _)| *name == card.name) {
                Some((_, n, acc)) => {
                    *n += 1;
                    acc.accumulate(report);
                }
                None => {
                    let mut acc = EnergyReport::default();
                    acc.accumulate(report);
                    out.push((card.name, 1, acc));
                }
            }
        }
        out
    }

    /// Imbalance of the energy burden: ratio of the hungriest node's
    /// consumption to the mean. 1.0 = perfectly balanced; large values
    /// mean a few relays carry the network (and die first).
    pub fn energy_imbalance(&self) -> f64 {
        if self.per_node_energy.is_empty() {
            return 1.0;
        }
        let totals: Vec<f64> = self.per_node_energy.iter().map(|r| r.total_mj()).collect();
        let mean = totals.iter().sum::<f64>() / totals.len() as f64;
        if mean <= 0.0 {
            return 1.0;
        }
        totals.iter().copied().fold(0.0, f64::max) / mean
    }

    /// Compact, fully-deterministic rendering for golden snapshots of
    /// *large* runs. The full `{:#?}` rendering used by the small-network
    /// goldens would emit one [`EnergyReport`] block per node — tens of
    /// thousands of lines at scale — so this digest keeps every scalar
    /// counter verbatim, the network [`EnergyReport`] total, and replaces
    /// the per-node vector and route list with an order-sensitive FNV-1a
    /// hash over their exact bit patterns. Any single-bit drift in any
    /// per-node f64 still flips the digest, so the pin is as tight as the
    /// full rendering at a constant size.
    pub fn scale_digest(&self) -> String {
        let mut h = Fnv1a::new();
        for r in &self.per_node_energy {
            for v in [
                r.idle_mj,
                r.sleep_mj,
                r.switch_mj,
                r.tx_data_mj,
                r.tx_ctrl_mj,
                r.rx_data_mj,
                r.rx_ctrl_mj,
            ] {
                h.write_u64(v.to_bits());
            }
            for t in [r.time_tx, r.time_rx, r.time_idle, r.time_sleep] {
                h.write_u64(t.as_nanos());
            }
            h.write_u64(r.wakeups);
        }
        let energy_hash = h.finish();
        let mut h = Fnv1a::new();
        for route in &self.routes {
            match route {
                None => h.write_u64(u64::MAX),
                Some(path) => {
                    h.write_u64(path.len() as u64);
                    for &hop in path {
                        h.write_u64(hop as u64);
                    }
                }
            }
        }
        let routes_hash = h.finish();
        format!(
            "nodes: {}\ndata_sent: {}\ndata_delivered: {}\ndelivered_bits: {:?}\n\
             drops_no_route: {}\ndrops_link_failure: {}\ndrops_buffer: {}\ndrops_ifq: {}\n\
             rreq_tx: {}\nrrep_tx: {}\nrerr_tx: {}\ndsdv_update_tx: {}\natim_tx: {}\n\
             broadcast_collisions: {}\nrts_collisions: {}\nlink_failures: {}\n\
             energy_total: {:#?}\nper_node_energy_fnv1a: {:#018x}\n\
             data_forwarders: {}\nroutes_fnv1a: {:#018x}\nduration_s: {:?}\n",
            self.per_node_energy.len(),
            self.data_sent,
            self.data_delivered,
            self.delivered_bits,
            self.drops_no_route,
            self.drops_link_failure,
            self.drops_buffer,
            self.drops_ifq,
            self.rreq_tx,
            self.rrep_tx,
            self.rerr_tx,
            self.dsdv_update_tx,
            self.atim_tx,
            self.broadcast_collisions,
            self.rts_collisions,
            self.link_failures,
            self.energy_total,
            energy_hash,
            self.data_forwarders,
            routes_hash,
            self.duration_s,
        )
    }
}

/// Minimal FNV-1a over u64 words, for [`RunMetrics::scale_digest`].
/// (The std hasher's output is not guaranteed stable across releases;
/// golden files need a fixed function.)
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write_u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zeroed() -> RunMetrics {
        RunMetrics {
            data_sent: 0,
            data_delivered: 0,
            delivered_bits: 0.0,
            drops_no_route: 0,
            drops_link_failure: 0,
            drops_buffer: 0,
            drops_ifq: 0,
            rreq_tx: 0,
            rrep_tx: 0,
            rerr_tx: 0,
            dsdv_update_tx: 0,
            atim_tx: 0,
            broadcast_collisions: 0,
            rts_collisions: 0,
            link_failures: 0,
            per_node_energy: Vec::new(),
            energy_total: EnergyReport::default(),
            data_forwarders: 0,
            routes: Vec::new(),
            duration_s: 1.0,
        }
    }

    #[test]
    fn delivery_ratio_edge_cases() {
        let mut m = zeroed();
        assert_eq!(m.delivery_ratio(), 1.0, "vacuous truth with no traffic");
        m.data_sent = 10;
        m.data_delivered = 7;
        assert!((m.delivery_ratio() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn goodput_zero_without_energy() {
        let mut m = zeroed();
        m.delivered_bits = 1000.0;
        assert_eq!(m.energy_goodput_bit_per_j(), 0.0);
        m.energy_total.idle_mj = 500.0; // 0.5 J
        assert!((m.energy_goodput_bit_per_j() - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn unit_conversions() {
        let mut m = zeroed();
        m.energy_total.tx_data_mj = 1500.0;
        m.energy_total.tx_ctrl_mj = 500.0;
        m.energy_total.rx_ctrl_mj = 250.0;
        assert!((m.transmit_energy_j() - 2.0).abs() < 1e-12);
        assert!((m.control_energy_j() - 0.75).abs() < 1e-12);
        assert!((m.enetwork_j() - 2.25).abs() < 1e-12);
    }

    #[test]
    fn lifetime_tracks_the_hungriest_node() {
        let mut m = zeroed();
        m.duration_s = 10.0;
        let a = EnergyReport { idle_mj: 5_000.0, ..EnergyReport::default() }; // 5 J / 10 s = 0.5 W
        let b = EnergyReport { idle_mj: 10_000.0, ..EnergyReport::default() }; // 10 J / 10 s = 1 W
        m.per_node_energy = vec![a, b];
        // 100 J battery / 1 W (hungriest) = 100 s.
        assert!((m.lifetime_to_first_death_s(100.0) - 100.0).abs() < 1e-9);
        // Imbalance: max 10_000 over mean 7_500.
        assert!((m.energy_imbalance() - 10_000.0 / 7_500.0).abs() < 1e-12);
    }

    #[test]
    fn lifetime_of_silent_network_is_infinite() {
        let m = zeroed();
        assert_eq!(m.lifetime_to_first_death_s(1.0), f64::INFINITY);
        assert_eq!(m.energy_imbalance(), 1.0);
    }

    #[test]
    #[should_panic(expected = "battery capacity")]
    fn zero_battery_rejected() {
        zeroed().lifetime_to_first_death_s(0.0);
    }

    #[test]
    fn energy_by_card_groups_nodes_by_card_class() {
        let mut m = zeroed();
        m.per_node_energy = vec![
            EnergyReport { idle_mj: 1.0, ..EnergyReport::default() },
            EnergyReport { idle_mj: 2.0, ..EnergyReport::default() },
            EnergyReport { idle_mj: 4.0, ..EnergyReport::default() },
        ];
        let cards = vec![
            eend_radio::cards::cabletron(),
            eend_radio::cards::mica2(),
            eend_radio::cards::cabletron(),
        ];
        let grouped = m.energy_by_card(&cards);
        assert_eq!(grouped.len(), 2);
        assert_eq!((grouped[0].0, grouped[0].1), ("Cabletron", 2));
        assert!((grouped[0].2.idle_mj - 5.0).abs() < 1e-12);
        assert_eq!((grouped[1].0, grouped[1].1), ("Mica2", 1));
        assert!((grouped[1].2.idle_mj - 2.0).abs() < 1e-12);
        // Homogeneous assignment collapses to the network total.
        let uniform = vec![eend_radio::cards::cabletron(); 3];
        let one = m.energy_by_card(&uniform);
        assert_eq!(one.len(), 1);
        assert!((one[0].2.idle_mj - 7.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "one card per measured node")]
    fn energy_by_card_rejects_mismatched_lengths() {
        let mut m = zeroed();
        m.per_node_energy = vec![EnergyReport::default()];
        let _ = m.energy_by_card(&[]);
    }
}
