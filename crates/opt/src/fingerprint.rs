//! Design fingerprints: a stable 64-bit digest of (problem, design) pairs.
//!
//! The evaluation cache is keyed by this digest, so it must be a pure
//! function of everything that determines an oracle's score: node
//! positions, the radio card's power model, the demand matrix, and the
//! candidate's routes and awake set (one gap: the card's α₂, see
//! `card_words`). FNV-1a ([`eend_sim::hash::Fnv1a`]) over a canonical
//! byte walk — the same digest `ResultStore` uses for campaign
//! fingerprints.

use eend_core::design::Design;
use eend_core::problem::DesignProblem;
use eend_radio::RadioCard;
use eend_sim::hash::Fnv1a;

/// Digest of the problem alone (positions, card power model, demands).
/// Cache directories record this so a cache built for one instance is
/// never consulted for another.
pub fn problem_fingerprint(problem: &DesignProblem) -> u64 {
    let mut h = Fnv1a::default();
    let inst = &problem.instance;
    h.write_u64(inst.node_count() as u64);
    for &(x, y) in inst.positions() {
        h.write_f64(x);
        h.write_f64(y);
    }
    let card = inst.card();
    h.write(card.name.as_bytes());
    for v in card_words(card) {
        h.write_f64(v);
    }
    h.write_u64(problem.demands.len() as u64);
    for d in &problem.demands {
        h.write_u64(d.source as u64);
        h.write_u64(d.sink as u64);
        h.write_f64(d.rate_bps);
    }
    h.finish()
}

/// The card parameters [`problem_fingerprint`] covers, in hash order.
///
/// `alpha2` (α₂ of `Ptx(d) = Pbase + α₂·dⁿ`) is missing, so two problems
/// that differ only in α₂ share every cache key. Adding it changes every
/// fingerprint, and with them the committed trace digests, so it waits
/// for a change that may re-pin them.
fn card_words(card: &RadioCard) -> [f64; 7] {
    [
        card.p_idle_mw,
        card.p_rx_mw,
        card.p_sleep_mw,
        card.p_base_mw,
        card.path_loss_n,
        card.nominal_range_m,
        card.switch_energy_mj,
    ]
}

/// `true` when `a` and `b` agree, bit for bit, on every input
/// [`problem_fingerprint`] hashes, so they share its digest. A field
/// added to the hash must be compared here too;
/// `remembered_problem_fingerprints_track_every_change` changes one field
/// of each kind.
fn same_fingerprint_inputs(a: &DesignProblem, b: &DesignProblem) -> bool {
    fn same_bits(x: f64, y: f64) -> bool {
        x.to_bits() == y.to_bits()
    }
    let (ia, ib) = (&a.instance, &b.instance);
    ia.positions().len() == ib.positions().len()
        && ia
            .positions()
            .iter()
            .zip(ib.positions())
            .all(|(p, q)| same_bits(p.0, q.0) && same_bits(p.1, q.1))
        && ia.card().name == ib.card().name
        && card_words(ia.card())
            .into_iter()
            .zip(card_words(ib.card()))
            .all(|(x, y)| same_bits(x, y))
        && a.demands.len() == b.demands.len()
        && a.demands.iter().zip(&b.demands).all(|(d, e)| {
            d.source == e.source && d.sink == e.sink && same_bits(d.rate_bps, e.rate_bps)
        })
}

/// Remembers the last problem fingerprinted, so keying many designs of
/// one problem hashes it once. It keeps a copy of that problem and
/// compares the fields the digest covers, by bit pattern, which costs a
/// fraction of hashing them.
#[derive(Debug, Default)]
pub(crate) struct ProblemFingerprints {
    last: Option<(DesignProblem, u64)>,
}

impl ProblemFingerprints {
    /// `problem_fingerprint(problem)`, re-hashed only when the problem
    /// differs from the previous call's.
    pub(crate) fn get(&mut self, problem: &DesignProblem) -> u64 {
        match &self.last {
            Some((last, fp)) if same_fingerprint_inputs(last, problem) => *fp,
            _ => {
                let fp = problem_fingerprint(problem);
                self.last = Some((problem.clone(), fp));
                fp
            }
        }
    }
}

/// Digest of a (problem, design) pair — the evaluation-cache key.
pub fn design_fingerprint(problem: &DesignProblem, design: &Design) -> u64 {
    design_fingerprint_with(problem_fingerprint(problem), design)
}

/// [`design_fingerprint`] given the problem's precomputed
/// [`problem_fingerprint`] — for callers that key many designs of one
/// problem and would otherwise re-hash it every time.
pub(crate) fn design_fingerprint_with(problem_fp: u64, design: &Design) -> u64 {
    let mut h = Fnv1a::default();
    h.write_u64(problem_fp);
    h.write_u64(design.routes.len() as u64);
    for route in &design.routes {
        match route {
            None => h.write_u64(u64::MAX),
            Some(path) => {
                h.write_u64(path.len() as u64);
                for &v in path {
                    h.write_u64(v as u64);
                }
            }
        }
    }
    h.write_u64(design.active.len() as u64);
    // One byte per node; each run of asleep nodes folds as one multiply.
    let mut asleep = 0u32;
    for &awake in &design.active {
        if awake {
            h.write_zeros(asleep);
            asleep = 0;
            h.write(&[1]);
        } else {
            asleep += 1;
        }
    }
    h.write_zeros(asleep);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eend_core::design::{Designer, Heuristic};
    use eend_core::problem::{Demand, WirelessInstance};
    use eend_radio::cards;
    use proptest::prelude::*;

    fn problem() -> DesignProblem {
        let inst =
            WirelessInstance::new(vec![(0.0, 0.0), (200.0, 0.0), (400.0, 0.0)], cards::cabletron());
        DesignProblem::new(inst, vec![Demand::new(0, 2, 8_000.0)])
    }

    /// FNV-1a one byte at a time.
    fn fnv_bytes(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::default();
        h.write(bytes);
        h.finish()
    }

    /// The byte walk [`problem_fingerprint`] hashes, built out in full.
    fn problem_bytes(problem: &DesignProblem) -> Vec<u8> {
        let mut out = Vec::new();
        let inst = &problem.instance;
        out.extend_from_slice(&(inst.node_count() as u64).to_le_bytes());
        for &(x, y) in inst.positions() {
            out.extend_from_slice(&x.to_bits().to_le_bytes());
            out.extend_from_slice(&y.to_bits().to_le_bytes());
        }
        let card = inst.card();
        out.extend_from_slice(card.name.as_bytes());
        for v in [
            card.p_idle_mw,
            card.p_rx_mw,
            card.p_sleep_mw,
            card.p_base_mw,
            card.path_loss_n,
            card.nominal_range_m,
            card.switch_energy_mj,
        ] {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        out.extend_from_slice(&(problem.demands.len() as u64).to_le_bytes());
        for d in &problem.demands {
            out.extend_from_slice(&(d.source as u64).to_le_bytes());
            out.extend_from_slice(&(d.sink as u64).to_le_bytes());
            out.extend_from_slice(&d.rate_bps.to_bits().to_le_bytes());
        }
        out
    }

    /// The byte walk [`design_fingerprint_with`] hashes, built out in full:
    /// every `u64` as its 8 little-endian bytes, one byte per node.
    fn design_bytes(problem_fp: u64, design: &Design) -> Vec<u8> {
        let mut out = problem_fp.to_le_bytes().to_vec();
        out.extend_from_slice(&(design.routes.len() as u64).to_le_bytes());
        for route in &design.routes {
            match route {
                None => out.extend_from_slice(&u64::MAX.to_le_bytes()),
                Some(path) => {
                    out.extend_from_slice(&(path.len() as u64).to_le_bytes());
                    for &v in path {
                        out.extend_from_slice(&(v as u64).to_le_bytes());
                    }
                }
            }
        }
        out.extend_from_slice(&(design.active.len() as u64).to_le_bytes());
        out.extend(design.active.iter().map(|&a| u8::from(a)));
        out
    }

    /// `v` with byte `i` cleared wherever bit `i` of `mask` is set.
    fn clear_bytes(v: u64, mask: u32) -> u64 {
        (0..8).filter(|i| mask >> i & 1 == 1).fold(v, |v, i| v & !(0xff << (8 * i)))
    }

    #[test]
    fn extreme_designs_match_the_byte_serial_reference() {
        let p = problem();
        let fp = problem_fingerprint(&p);
        assert_eq!(fp, fnv_bytes(&problem_bytes(&p)));
        let designs = [
            Design { routes: Vec::new(), active: Vec::new() },
            Design { routes: vec![None, Some(Vec::new())], active: vec![false; 70] },
            Design { routes: vec![Some(vec![0, 1, 2])], active: vec![true; 70] },
            Heuristic::IdleFirst.design(&p),
        ];
        for d in &designs {
            assert_eq!(design_fingerprint(&p, d), fnv_bytes(&design_bytes(fp, d)), "{d:?}");
        }
    }

    proptest! {
        /// Folding runs of asleep nodes in one multiply hashes exactly the
        /// design's byte walk: missing and empty routes, node ids of any
        /// width, and awake sets from all asleep to all awake.
        #[test]
        fn design_fingerprint_matches_the_byte_serial_reference(
            problem_fp in 0u64..u64::MAX,
            routes in proptest::collection::vec(
                proptest::option::of(proptest::collection::vec((0usize..100_000, 0u32..256), 0..6)),
                0..5
            ),
            active in proptest::collection::vec(0u32..4, 0..90),
            fill in 0u32..3
        ) {
            let node = |(v, mask): (usize, u32)| clear_bytes(v as u64, mask) as usize;
            let routes = routes
                .into_iter()
                .map(|r| r.map(|p| p.into_iter().map(node).collect()))
                .collect();
            // fill 0: random awake set; 1: all asleep; 2: all awake.
            let active = active
                .into_iter()
                .map(|a| if fill == 0 { a == 0 } else { fill == 2 })
                .collect();
            let d = Design { routes, active };
            let want = fnv_bytes(&design_bytes(problem_fp, &d));
            prop_assert_eq!(design_fingerprint_with(problem_fp, &d), want);
        }
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let p = problem();
        let d = Heuristic::IdleFirst.design(&p);
        let a = design_fingerprint(&p, &d);
        assert_eq!(a, design_fingerprint(&p, &d), "same input, same digest");

        let mut d2 = d.clone();
        d2.active[1] = !d2.active[1];
        assert_ne!(a, design_fingerprint(&p, &d2), "active set must matter");

        let mut d3 = d.clone();
        d3.routes[0] = None;
        assert_ne!(a, design_fingerprint(&p, &d3), "routes must matter");
    }

    #[test]
    fn problem_changes_change_the_key() {
        let p = problem();
        let d = Heuristic::IdleFirst.design(&p);
        let mut p2 = p.clone();
        p2.demands[0].rate_bps = 9_000.0;
        assert_ne!(design_fingerprint(&p, &d), design_fingerprint(&p2, &d));
    }

    #[test]
    fn remembered_problem_fingerprints_track_every_change() {
        let p = problem();
        let mut rate = p.clone();
        rate.demands[0].rate_bps = 9_000.0;
        let mut moved = p.clone();
        moved.instance = WirelessInstance::new(
            vec![(-0.0, 0.0), (200.0, 0.0), (400.0, 0.0)],
            cards::cabletron(),
        );
        let mut renamed_card = cards::cabletron();
        renamed_card.name = "Cabletron (renamed)";
        let mut renamed = p.clone();
        renamed.instance = WirelessInstance::new(p.instance.positions().to_vec(), renamed_card);
        let mut idle_card = cards::cabletron();
        idle_card.p_idle_mw += 1.0;
        let mut idle = p.clone();
        idle.instance = WirelessInstance::new(p.instance.positions().to_vec(), idle_card);
        let mut alpha2_card = cards::cabletron();
        alpha2_card.alpha2 *= 2.0;
        let mut alpha2 = p.clone();
        alpha2.instance = WirelessInstance::new(p.instance.positions().to_vec(), alpha2_card);
        let mut memo = ProblemFingerprints::default();
        for q in [&p, &p, &rate, &p, &moved, &moved, &p, &renamed, &p, &idle, &p, &alpha2, &p] {
            assert_eq!(memo.get(q), problem_fingerprint(q));
        }
        assert_ne!(problem_fingerprint(&moved), problem_fingerprint(&p), "-0.0 is not 0.0");
        assert_ne!(problem_fingerprint(&renamed), problem_fingerprint(&p), "the card name counts");
        // The known gap (see `card_words`): α₂ is not hashed, so it shares keys.
        assert_eq!(problem_fingerprint(&alpha2), problem_fingerprint(&p));
    }

    #[test]
    fn empty_route_and_missing_route_differ() {
        let p = problem();
        let base = Design { routes: vec![Some(vec![])], active: vec![false; 3] };
        let none = Design { routes: vec![None], active: vec![false; 3] };
        assert_ne!(design_fingerprint(&p, &base), design_fingerprint(&p, &none));
    }
}
