//! Extensional equivalence of the grid-indexed [`Channel`] against the
//! original brute-force implementation.
//!
//! `BruteChannel` reproduces the pre-grid semantics verbatim — O(n²)
//! pairwise neighbour rebuilds with `sqrt` distance comparisons, a
//! linear scan of every live transmission per carrier-sense query, and a
//! collision log that is **never pruned**. The properties drive both
//! implementations through random position sets, ranges, incremental
//! moves and transmission schedules, and require every public query to
//! agree exactly — including neighbour-list order, which the simulator's
//! event ordering (and therefore the golden RunMetrics snapshots)
//! depends on. The fused paths the simulator calls are held to the same
//! reference: `sense_busy_until` against the reference's `busy_near`
//! plus `busy_until`, and a broadcast's `interferers_into` plus
//! per-receiver `any_interferer_covers` against `reception_corrupted`,
//! including audiences that have since moved out of the sender's range.
//! Boundary layouts put pairs exactly `range_m` and `cs_range_m` apart
//! across cell edges, with the grid's origin away from zero. The
//! neighbour lists live in one compressed table, so a list that empties
//! and regrows across rebuilds is checked against the reference too.

use eend_sim::{SimDuration, SimTime};
use eend_wireless::channel::CS_RANGE_FACTOR;
use eend_wireless::{Channel, NodeId};
use proptest::prelude::*;

const SENSE_DELAY: SimDuration = SimDuration::from_micros(20);

#[derive(Debug, Clone, Copy)]
struct Tx {
    sender: NodeId,
    receiver: Option<NodeId>,
    start: SimTime,
    end: SimTime,
}

/// The old O(n²)/linear-scan channel, kept as the semantic reference.
struct BruteChannel {
    positions: Vec<(f64, f64)>,
    range_m: f64,
    cs_range_m: f64,
    neighbors: Vec<Vec<NodeId>>,
    live: Vec<Tx>,
    log: Vec<Tx>,
}

impl BruteChannel {
    fn new(positions: Vec<(f64, f64)>, range_m: f64) -> BruteChannel {
        let n = positions.len();
        let mut c = BruteChannel {
            positions,
            range_m,
            cs_range_m: range_m * CS_RANGE_FACTOR,
            neighbors: vec![Vec::new(); n],
            live: Vec::new(),
            log: Vec::new(),
        };
        c.rebuild();
        c
    }

    fn dist(&self, u: NodeId, v: NodeId) -> f64 {
        let (a, b) = (self.positions[u], self.positions[v]);
        ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt()
    }

    fn rebuild(&mut self) {
        let n = self.positions.len();
        self.neighbors = vec![Vec::new(); n];
        for u in 0..n {
            for v in (u + 1)..n {
                if self.dist(u, v) <= self.range_m {
                    self.neighbors[u].push(v);
                    self.neighbors[v].push(u);
                }
            }
        }
    }

    fn set_positions(&mut self, positions: Vec<(f64, f64)>) {
        self.positions = positions;
        self.rebuild();
    }

    fn within_cs(&self, a: NodeId, b: NodeId) -> bool {
        a != b && self.dist(a, b) <= self.cs_range_m
    }

    fn in_range(&self, u: NodeId, v: NodeId) -> bool {
        u != v && self.dist(u, v) <= self.range_m
    }

    fn busy_near(&self, u: NodeId, now: SimTime) -> bool {
        self.live.iter().any(|t| {
            t.start + SENSE_DELAY <= now
                && (self.within_cs(t.sender, u) || t.receiver.is_some_and(|r| self.within_cs(r, u)))
        })
    }

    fn busy_until(&self, u: NodeId) -> Option<SimTime> {
        self.live
            .iter()
            .filter(|t| {
                self.within_cs(t.sender, u) || t.receiver.is_some_and(|r| self.within_cs(r, u))
            })
            .map(|t| t.end)
            .max()
    }

    fn covered(&self, r: NodeId) -> bool {
        self.live.iter().any(|t| self.within_cs(t.sender, r))
    }

    fn begin_tx(&mut self, sender: NodeId, receiver: Option<NodeId>, start: SimTime, end: SimTime) {
        let t = Tx { sender, receiver, start, end };
        self.live.push(t);
        self.log.push(t);
    }

    fn end_tx(&mut self, sender: NodeId, now: SimTime) {
        self.live.retain(|t| !(t.sender == sender && t.end <= now));
        // The reference never prunes the log: any divergence in
        // reception_corrupted would expose an over-eager prune.
    }

    fn reception_corrupted(&self, r: NodeId, from: NodeId, start: SimTime, end: SimTime) -> bool {
        self.log.iter().any(|t| {
            t.sender != from
                && t.sender != r
                && t.start < end
                && t.end > start
                && self.within_cs(t.sender, r)
        })
    }
}

/// A neighbour list as node ids.
fn ids(nb: &[u32]) -> Vec<NodeId> {
    nb.iter().map(|&v| v as NodeId).collect()
}

fn positions_from(raw: &[(f64, f64)], scale: f64) -> Vec<(f64, f64)> {
    raw.iter().map(|&(x, y)| (x * scale, y * scale)).collect()
}

/// Every carrier-sense query, at every node, agrees with the reference.
fn assert_sensing_agrees(
    grid: &Channel,
    brute: &BruteChannel,
    now: SimTime,
) -> Result<(), TestCaseError> {
    for probe in 0..brute.positions.len() {
        let fused = if brute.busy_near(probe, now) { brute.busy_until(probe) } else { None };
        prop_assert_eq!(grid.sense_busy_until(probe, now), fused, "sense_busy_until({})", probe);
        prop_assert_eq!(grid.covered(probe), brute.covered(probe), "covered({})", probe);
    }
    Ok(())
}

/// A broadcast completion as the simulator runs it — one
/// `interferers_into` for the whole audience, then
/// `any_interferer_covers` per receiver — answers exactly the reference
/// `reception_corrupted` for every receiver.
fn assert_broadcast_check_agrees(
    grid: &Channel,
    brute: &BruteChannel,
    from: NodeId,
    start: SimTime,
    end: SimTime,
    receivers: &[NodeId],
) -> Result<(), TestCaseError> {
    let mut interferers = Vec::new();
    grid.interferers_into(from, start, end, receivers, &mut interferers);
    for &r in receivers {
        prop_assert_eq!(
            grid.any_interferer_covers(&interferers, r),
            brute.reception_corrupted(r, from, start, end),
            "broadcast from {} to {} over [{:?}, {:?})",
            from,
            r,
            start,
            end
        );
    }
    Ok(())
}

/// [`assert_broadcast_check_agrees`] for the audiences that stress the
/// interferer filter: each lone receiver (the tightest cell bounding
/// box) and every node but the sender (the widest).
fn assert_broadcast_audiences_agree(
    grid: &Channel,
    brute: &BruteChannel,
    from: NodeId,
    start: SimTime,
    end: SimTime,
) -> Result<(), TestCaseError> {
    let n = brute.positions.len();
    for r in 0..n {
        assert_broadcast_check_agrees(grid, brute, from, start, end, &[r])?;
    }
    let everyone: Vec<NodeId> = (0..n).filter(|&r| r != from).collect();
    assert_broadcast_check_agrees(grid, brute, from, start, end, &everyone)
}

fn assert_geometry_agrees(grid: &Channel, brute: &BruteChannel) -> Result<(), TestCaseError> {
    let n = brute.positions.len();
    for u in 0..n {
        prop_assert_eq!(
            ids(grid.neighbors(u)),
            brute.neighbors[u].as_slice(),
            "neighbour list of node {} diverged",
            u
        );
        for v in 0..n {
            prop_assert_eq!(grid.in_range(u, v), brute.in_range(u, v), "in_range({}, {})", u, v);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Static geometry: neighbour sets and range predicates agree for
    /// arbitrary deployments and ranges (degenerate grids included).
    #[test]
    fn static_geometry_equivalent(
        raw in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 2..40),
        scale in 100.0f64..4000.0,
        range in 40.0f64..400.0,
    ) {
        let positions = positions_from(&raw, scale);
        let grid = Channel::new(positions.clone(), range);
        let brute = BruteChannel::new(positions, range);
        assert_geometry_agrees(&grid, &brute)?;
    }

    /// Incremental moves: a long random walk of single-node moves (the
    /// grid re-buckets incrementally) matches full rebuilds.
    #[test]
    fn incremental_moves_equivalent(
        raw in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 2..25),
        moves in proptest::collection::vec((0usize..25, 0.0f64..1.0, 0.0f64..1.0), 1..60),
        scale in 100.0f64..3000.0,
        range in 40.0f64..400.0,
    ) {
        let mut positions = positions_from(&raw, scale);
        let mut grid = Channel::new(positions.clone(), range);
        let mut brute = BruteChannel::new(positions.clone(), range);
        for &(idx, x, y) in &moves {
            let u = idx % positions.len();
            positions[u] = (x * scale, y * scale);
            grid.set_positions(positions.clone());
            brute.set_positions(positions.clone());
            assert_geometry_agrees(&grid, &brute)?;
        }
    }

    /// Carrier sensing and collision checks: a random transmission
    /// schedule interleaved with moves keeps sense_busy_until /
    /// covered / reception_corrupted extensionally equal — with the
    /// reference keeping its *entire* log, so any reachable entry the
    /// batched prune drops becomes a counterexample.
    #[test]
    fn transmissions_equivalent(
        raw in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 3..15),
        schedule in proptest::collection::vec((0usize..15, 0u64..400, 1u64..30), 1..80),
        scale in 150.0f64..2500.0,
        range in 60.0f64..350.0,
    ) {
        let positions = positions_from(&raw, scale);
        let n = positions.len();
        let mut grid = Channel::new(positions.clone(), range);
        let mut brute = BruteChannel::new(positions, range);

        let mut clock = SimTime::ZERO;
        for (k, &(who, gap_ms, dur_ms)) in schedule.iter().enumerate() {
            let sender = who % n;
            let receiver = if k % 3 == 0 { None } else { Some((who + 1 + k) % n) }
                .filter(|&r| r != sender);
            clock += SimDuration::from_millis(gap_ms);
            let end = clock + SimDuration::from_millis(dur_ms);
            grid.begin_tx(sender, receiver, clock, end);
            brute.begin_tx(sender, receiver, clock, end);

            // Query every node against both implementations mid-flight
            // and after the transmission ends.
            assert_sensing_agrees(&grid, &brute, clock + SimDuration::from_micros(25))?;
            // End every second transmission at its horizon (the other
            // half stays live, pinning the prune floor).
            if k % 2 == 0 {
                grid.end_tx(sender, end);
                brute.end_tx(sender, end);
            }
            for probe in 0..n {
                for from in 0..n {
                    prop_assert_eq!(
                        grid.reception_corrupted(probe, from, clock, end),
                        brute.reception_corrupted(probe, from, clock, end),
                        "reception_corrupted({}, {}) diverged at step {}",
                        probe, from, k
                    );
                }
            }
        }
    }

    /// Broadcasts under mobility: each broadcast's audience is the
    /// sender's neighbour list when it starts; nodes keep moving while it
    /// is on the air, so by its end some receivers may be out of range
    /// (and some interferers newly close). At completion the
    /// simulator's path — `end_tx`, then one `interferers_into` and a
    /// per-receiver `any_interferer_covers` — must match the reference
    /// for every receiver, alongside every carrier-sense query.
    #[test]
    fn broadcast_collision_checks_equivalent(
        raw in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 3..20),
        schedule in proptest::collection::vec(
            ((0usize..20, 0u64..200, 1u64..40), (0usize..20, 0.0f64..1.0, 0.0f64..1.0)),
            1..60,
        ),
        scale in 150.0f64..3000.0,
        range in 60.0f64..350.0,
    ) {
        let mut positions = positions_from(&raw, scale);
        let n = positions.len();
        let mut grid = Channel::new(positions.clone(), range);
        let mut brute = BruteChannel::new(positions.clone(), range);

        let mut clock = SimTime::ZERO;
        // Broadcasts on the air: (sender, start, end, audience).
        let mut on_air: Vec<(NodeId, SimTime, SimTime, Vec<NodeId>)> = Vec::new();
        for &((who, gap_ms, dur_ms), (mover, x, y)) in &schedule {
            clock += SimDuration::from_millis(gap_ms);
            let mut k = 0;
            while k < on_air.len() {
                if on_air[k].2 > clock {
                    k += 1;
                    continue;
                }
                let (sender, start, end, audience) = on_air.swap_remove(k);
                grid.end_tx(sender, end);
                brute.end_tx(sender, end);
                assert_broadcast_check_agrees(&grid, &brute, sender, start, end, &audience)?;
                assert_broadcast_audiences_agree(&grid, &brute, sender, start, end)?;
            }
            let sender = who % n;
            if !on_air.iter().any(|b| b.0 == sender) {
                let end = clock + SimDuration::from_millis(dur_ms);
                on_air.push((sender, clock, end, ids(grid.neighbors(sender))));
                grid.begin_tx(sender, None, clock, end);
                brute.begin_tx(sender, None, clock, end);
            }
            positions[mover % n] = (x * scale, y * scale);
            grid.set_positions(positions.clone());
            brute.set_positions(positions.clone());
            assert_sensing_agrees(&grid, &brute, clock + SimDuration::from_micros(25))?;
        }
    }
}

/// Boundary layouts, exact in f64: along each axis a chain of nodes one
/// `range_m` apart (steps of `range_m` straddle the grid's cell edges,
/// which sit a hair past every multiple of `range_m`), pairs exactly
/// `cs_range_m` apart, and 3-4-5 diagonals of length `range_m` and
/// `cs_range_m`, all offset from a non-zero origin by a sweep of
/// fractional shifts. Every query agrees with the reference, before and
/// after a receiver is moved out of range mid-broadcast.
#[test]
fn boundary_geometry_equivalent() {
    let range = 250.0;
    let cs = range * CS_RANGE_FACTOR;
    assert_eq!(cs, 550.0, "the layouts below assume an exact carrier-sense range");
    for origin in [(1234.5, -777.25), (-40_960.125, 3.0), (0.375, 99_999.5)] {
        for shift in [0.0, 0.125, 1.0, 124.875, 249.75] {
            let at = |dx: f64, dy: f64| (origin.0 + shift + dx, origin.1 + shift + dy);
            let mut positions = vec![origin];
            // Chains one range apart, along x and along y.
            positions.extend((0..9).map(|k| at(k as f64 * range, 0.0)));
            positions.extend((1..9).map(|k| at(0.0, k as f64 * range)));
            // Pairs exactly one carrier-sense range apart.
            positions.push(at(3.0 * range, 2.0 * range));
            positions.push(at(3.0 * range + cs, 2.0 * range));
            positions.push(at(3.0 * range, 2.0 * range + cs));
            // 3-4-5 diagonals: 150² + 200² = 250², 330² + 440² = 550².
            positions.push(at(150.0, 200.0));
            positions.push(at(330.0 + 150.0, 440.0 + 200.0));
            positions.push(at(6.0 * range, 6.0 * range));
            let n = positions.len();

            let mut grid = Channel::new(positions.clone(), range);
            let mut brute = BruteChannel::new(positions.clone(), range);
            assert_geometry_agrees(&grid, &brute).unwrap();
            assert!(grid.in_range(1, 2), "a pair exactly range_m apart is in range");
            assert!(grid.neighbors(1).contains(&2));

            // Everyone broadcasts in turn, overlapping the two before it.
            let ms = SimTime::from_millis;
            let mut starts = Vec::new();
            for s in 0..n {
                let (start, end) = (ms(5 * s as u64), ms(5 * s as u64 + 12));
                grid.begin_tx(s, None, start, end);
                brute.begin_tx(s, None, start, end);
                starts.push((start, end, ids(grid.neighbors(s))));
            }
            assert_sensing_agrees(&grid, &brute, ms(5 * n as u64)).unwrap();
            // Move node 2 out of everyone's range while the broadcasts
            // are on the air, then complete them.
            positions[2] = at(-10_000.0, -10_000.0);
            grid.set_positions(positions.clone());
            brute.set_positions(positions.clone());
            assert_geometry_agrees(&grid, &brute).unwrap();
            for (s, (start, end, audience)) in starts.into_iter().enumerate() {
                grid.end_tx(s, end);
                brute.end_tx(s, end);
                assert_broadcast_check_agrees(&grid, &brute, s, start, end, &audience).unwrap();
                assert_broadcast_audiences_agree(&grid, &brute, s, start, end).unwrap();
                for from in 0..n {
                    for r in 0..n {
                        assert_eq!(
                            grid.reception_corrupted(r, from, start, end),
                            brute.reception_corrupted(r, from, start, end)
                        );
                    }
                }
            }
        }
    }
}

/// A node walks out of everyone's range and back, through both rebuild
/// paths (a field of at most 3×3 cells and a wide one) and both update
/// entry points: its list empties, then regrows, while every other
/// list in the table around it keeps matching the reference, and the
/// fused per-node counts match a count over the finished lists.
#[test]
fn a_list_that_empties_and_regrows_matches_the_reference() {
    let range = 100.0;
    for width in [250.0, 2_000.0] {
        // A 6×4 block 60 m apart, and one node at the far corner that
        // sets how many cells the field spans.
        let mut positions: Vec<(f64, f64)> =
            (0..24).map(|k| ((k % 6) as f64 * 60.0, (k / 6) as f64 * 60.0)).collect();
        positions.push((width, width));
        let mut grid = Channel::new(positions.clone(), range);
        let mut brute = BruteChannel::new(positions.clone(), range);
        assert_geometry_agrees(&grid, &brute).unwrap();
        let home = positions[7];
        let mover = 7;
        assert!(!grid.neighbors(mover).is_empty(), "node {mover} starts with neighbours");
        let far = (width * 50.0, width * 50.0);
        for (step, at) in [far, home, far, home].into_iter().enumerate() {
            positions[mover] = at;
            let mut counts = vec![u32::MAX; positions.len()];
            if step % 2 == 0 {
                grid.set_positions(positions.clone());
            } else {
                grid.update_positions_with_counts(|p| p[mover] = at, |w| w % 2 == 0, &mut counts);
                for (u, &count) in counts.iter().enumerate() {
                    let even = grid.neighbors(u).iter().filter(|&&w| w % 2 == 0).count();
                    assert_eq!(count as usize, even, "fused count of node {u}");
                }
            }
            brute.set_positions(positions.clone());
            assert_geometry_agrees(&grid, &brute).unwrap();
            assert_eq!(grid.neighbors(mover).is_empty(), at == far, "step {step}");
        }
    }
}
