//! The shared radio channel: geometry, carrier sensing and collisions.
//!
//! We use the unit-disc model the paper (and ns-2's default PHY) assumes:
//! a frame is decodable within the card's nominal range and the medium is
//! sensed busy within a larger carrier-sense range (ns-2's classic
//! 550 m/250 m ratio, i.e. 2.2×). Control frames (RTS/CTS) always use
//! maximum power, so channel *reservations* cover the full footprint even
//! when data frames are power-controlled — which is why power control does
//! not shrink the interference footprint here (a known property of
//! 802.11-style TPC, and the conservative choice).
//!
//! Collision rule: a reception at node `r` spanning `[start, end)` is
//! corrupted if any *other* transmission overlapping that interval has a
//! sender within carrier-sense range of `r` (hidden-terminal losses).
//! Transmissions are logged for the check and pruned as time advances.
//!
//! # Performance architecture
//!
//! All geometry queries run on a **uniform spatial grid**: node positions
//! are bucketed into square cells a hair wider than the decoding range
//! `range_m`, so any two nodes within decoding range sit in the same or
//! adjacent cells, and any two within carrier-sense range at most
//! `floor(cs_range_m / cell) + 1` = 3 cells apart on each axis (the
//! carrier-sense reach). Neighbour sets are rebuilt from each node's 3×3
//! cell neighbourhood — O(n · k) for k nodes per neighbourhood instead of
//! the old O(n²) pairwise scan — into one compressed table: every list
//! is a run of `u32` ids in a single array, found through a per-node
//! `(offset, len)` index. Membership is kept cell-ordered, with a
//! copy of the positions in the same order, so that scan streams through
//! three contiguous row slices; [`Channel::update_positions`] re-buckets
//! every node with one counting sort. Distance comparisons use squared
//! distances throughout (no `sqrt` on any query path). Carrier-sense and
//! collision scans reject far-away transmissions by comparing the
//! `(column, row)` stored for each node against the reach before touching
//! f64 math — no division on any query path. A broadcast completion
//! first drops the interferers beyond the reach of its receivers' cell
//! bounding box, so each receiver tests only the few that remain.
//!
//! The collision log is pruned in amortised O(1) per transmission: the
//! prune floor is the earliest start among live (and just-ended)
//! transmissions — the only intervals future [`Channel::reception_corrupted`]
//! queries can ask about — and the `retain` pass runs only once the log
//! has doubled since the last prune, so the log stays within a small
//! constant factor of the live set instead of accumulating a fixed
//! 100 ms history of the whole network.

use crate::frame::NodeId;
use eend_sim::SimTime;

/// Default carrier-sense range as a multiple of transmission range
/// (ns-2's 550 m / 250 m).
pub const CS_RANGE_FACTOR: f64 = 2.2;

/// How long a transmission must have been on the air before other nodes
/// can sense it (one 802.11 slot). Transmissions started inside this
/// *vulnerable window* are invisible to carrier sensing — the mechanism
/// behind slotted collisions and the density-driven breakdown of
/// flooding (Table 2).
pub const SENSE_DELAY: eend_sim::SimDuration = eend_sim::SimDuration::from_micros(20);

/// Log prunes are batched: skip the `retain` pass until the log has
/// grown to at least twice its post-prune size (and past this floor).
const PRUNE_MIN: usize = 32;

/// One transmission on the medium.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Transmission {
    sender: NodeId,
    receiver: Option<NodeId>,
    start: SimTime,
    end: SimTime,
}

/// Relative margin by which a grid cell is wider than the decoding
/// range. Two nodes within `range_m` of each other are then strictly
/// less than one cell side apart on each axis, so f64 rounding in the
/// cell-coordinate division can never push an in-range pair two cells
/// apart and out of the 3×3 rebuild scan. 2⁻¹⁰ of a cell dwarfs that
/// rounding for any field under ~2⁴⁰ cells across.
const CELL_SLACK: f64 = 1.0 + 1.0 / 1024.0;

/// A node's cell as `(column, row)`.
type Cell = (u32, u32);

/// `true` if cells `a` and `b` are at most `reach` cells apart on both
/// axes — the necessary condition for their occupants to be within
/// `reach` cell sides of each other.
#[inline]
fn near(a: Cell, b: Cell, reach: u32) -> bool {
    a.0.abs_diff(b.0) <= reach && a.1.abs_diff(b.1) <= reach
}

/// Uniform spatial hash: positions bucketed into square cells of side
/// `cell_m`, sized once from the initial deployment's bounding box.
/// Positions outside the box map to the border cells — clamping is
/// non-expansive, so any two nodes within `k` cell sides of each other
/// still land at most `k` cells apart.
///
/// Membership is stored cell-ordered (compressed rows): the nodes of
/// flat cell `c` are `members[start[c]..start[c + 1]]`, ascending, with
/// their positions alongside in `member_pos`. A run of cells along one
/// row is one contiguous slice, so a 3×3 neighbourhood is three
/// streaming scans.
#[derive(Debug, Clone)]
struct Grid {
    cell_m: f64,
    origin: (f64, f64),
    cols: usize,
    rows: usize,
    /// `(column, row)` of every node: cell tests need no division.
    cell_of: Vec<Cell>,
    start: Vec<u32>,
    members: Vec<u32>,
    member_pos: Vec<(f64, f64)>,
}

impl Grid {
    fn new(positions: &[(f64, f64)], cell_m: f64) -> Grid {
        let (min_x, min_y, max_x, max_y) = crate::mobility::bounding_box(positions);
        let span = |lo: f64, hi: f64| (((hi - lo) / cell_m).floor() as usize).saturating_add(1);
        let (cols, rows) =
            if positions.is_empty() { (1, 1) } else { (span(min_x, max_x), span(min_y, max_y)) };
        let n = positions.len();
        let mut g = Grid {
            cell_m,
            origin: (min_x, min_y),
            cols,
            rows,
            cell_of: vec![(0, 0); n],
            start: vec![0; cols * rows + 1],
            members: vec![0; n],
            member_pos: vec![(0.0, 0.0); n],
        };
        g.refresh(positions);
        g
    }

    #[inline]
    fn cell_coords(&self, p: (f64, f64)) -> Cell {
        let cx = ((p.0 - self.origin.0) / self.cell_m).floor();
        let cy = ((p.1 - self.origin.1) / self.cell_m).floor();
        // Clamp: mobility never leaves the initial bounding box, but the
        // grid must stay correct for any caller-supplied positions.
        let cx = if cx.is_finite() && cx > 0.0 { (cx as usize).min(self.cols - 1) } else { 0 };
        let cy = if cy.is_finite() && cy > 0.0 { (cy as usize).min(self.rows - 1) } else { 0 };
        (cx as u32, cy as u32)
    }

    #[inline]
    fn flat(&self, (cx, cy): Cell) -> usize {
        cy as usize * self.cols + cx as usize
    }

    /// Re-buckets every node: one counting sort by cell, stable in node
    /// id, so each cell's members stay ascending.
    fn refresh(&mut self, positions: &[(f64, f64)]) {
        let cells = self.cols * self.rows;
        self.start.fill(0);
        for (u, &p) in positions.iter().enumerate() {
            let c = self.cell_coords(p);
            self.cell_of[u] = c;
            let f = self.flat(c);
            self.start[f] += 1;
        }
        // Inclusive prefix sums leave `start[c]` at the end of cell `c`;
        // the reverse scatter then walks each one back to its cell's
        // beginning, filling every cell in ascending node order.
        for c in 1..cells {
            self.start[c] += self.start[c - 1];
        }
        self.start[cells] = positions.len() as u32;
        for (u, &p) in positions.iter().enumerate().rev() {
            let c = self.flat(self.cell_of[u]);
            self.start[c] -= 1;
            let at = self.start[c] as usize;
            self.members[at] = u as u32;
            self.member_pos[at] = p;
        }
    }
}

/// The shared medium: node geometry plus in-flight transmissions.
#[derive(Debug, Clone)]
pub struct Channel {
    positions: Vec<(f64, f64)>,
    range_m: f64,
    cs_range_m: f64,
    /// `range_m²` / `cs_range_m²`: query comparisons are sqrt-free.
    range_sq: f64,
    cs_range_sq: f64,
    /// Carrier-sense reach in grid cells: nodes within `cs_range_m` of
    /// each other are at most this many cells apart on each axis.
    cs_reach: u32,
    /// Every neighbour list, end to end: node `u`'s list is
    /// `adj[off..off + len]` for `(off, len) = nb_index[u]`, ascending.
    /// The grid rebuild appends lists in cell order, so the index is
    /// what finds them.
    adj: Vec<u32>,
    nb_index: Vec<(u32, u32)>,
    grid: Grid,
    live: Vec<Transmission>,
    log: Vec<Transmission>,
    /// Batched pruning: next `log` length that triggers a retain pass.
    prune_at: usize,
}

impl Channel {
    /// Creates a channel over node positions with the given transmission
    /// range; carrier-sense range is [`CS_RANGE_FACTOR`]×.
    ///
    /// # Panics
    ///
    /// Panics if `range_m` is not positive or the node count does not fit
    /// a `u32`.
    pub fn new(positions: Vec<(f64, f64)>, range_m: f64) -> Channel {
        assert!(range_m > 0.0, "range must be positive");
        assert!(u32::try_from(positions.len()).is_ok(), "node ids must fit a u32");
        let cs_range_m = range_m * CS_RANGE_FACTOR;
        let grid = Grid::new(&positions, range_m * CELL_SLACK);
        let cs_reach = (cs_range_m / grid.cell_m).floor() as u32 + 1;
        let n = positions.len();
        let mut c = Channel {
            positions,
            range_m,
            cs_range_m,
            range_sq: range_m * range_m,
            cs_range_sq: cs_range_m * cs_range_m,
            cs_reach,
            adj: Vec::new(),
            nb_index: vec![(0, 0); n],
            grid,
            live: Vec::new(),
            log: Vec::new(),
            prune_at: PRUNE_MIN,
        };
        c.rebuild_neighbors();
        // Later rebuilds reuse this table; the first one grew it by
        // doubling, so trim the slack once.
        c.adj.shrink_to_fit();
        c
    }

    /// Replaces all node positions (mobility) and recomputes the
    /// neighbour sets. In-flight transmissions keep their outcome from
    /// the geometry at their start, consistent with sub-second ticks.
    ///
    /// # Panics
    ///
    /// Panics if the number of positions changes.
    pub fn set_positions(&mut self, positions: Vec<(f64, f64)>) {
        assert_eq!(positions.len(), self.positions.len(), "node count is fixed");
        self.positions = positions;
        self.grid.refresh(&self.positions);
        self.rebuild_neighbors();
    }

    /// Mutates the positions in place (the allocation-free mobility
    /// path), then re-buckets the grid and rebuilds the neighbour
    /// sets. Equivalent to [`Channel::set_positions`] without
    /// constructing a new position vector.
    pub fn update_positions(&mut self, step: impl FnOnce(&mut [(f64, f64)])) {
        step(&mut self.positions);
        self.grid.refresh(&self.positions);
        self.rebuild_neighbors();
    }

    /// [`Channel::update_positions`] fused with per-node neighbour
    /// accounting: `counts[u]` is set to the number of `u`'s new
    /// neighbours satisfying `is_active`, computed while each freshly
    /// built list is still cache-hot. This replaces a second full pass
    /// over the neighbour sets per mobility tick (the counts are
    /// identical to recomputing after the rebuild — same lists, same
    /// predicate).
    pub fn update_positions_with_counts(
        &mut self,
        step: impl FnOnce(&mut [(f64, f64)]),
        is_active: impl Fn(NodeId) -> bool,
        counts: &mut [u32],
    ) {
        step(&mut self.positions);
        self.grid.refresh(&self.positions);
        self.rebuild_neighbors_with(|u, nb| {
            counts[u] = nb.iter().filter(|&&w| is_active(w as NodeId)).count() as u32;
        });
    }

    /// Current position of node `u`, metres.
    pub fn position(&self, u: NodeId) -> (f64, f64) {
        self.positions[u]
    }

    /// Rebuilds every per-node neighbour list: candidates come from the
    /// grid's 3×3 cell neighbourhood (cells are a little wider than
    /// `range_m`, so no in-range pair is missed), filtered by squared
    /// distance, sorted ascending — the same order the old O(n²)
    /// triangular scan produced, which pins event ordering. Deployments
    /// of at most 3×3 cells take a pairwise scan in node order instead:
    /// there a 3×3 neighbourhood spans more than half the grid on
    /// average (all of it from the centre cell), so culling saves less
    /// than the skipped per-node sort.
    fn rebuild_neighbors(&mut self) {
        self.rebuild_neighbors_with(|_, _| {});
    }

    /// [`Channel::rebuild_neighbors`] with a per-node hook: `note(u,
    /// nb)` fires once per node with its finished (sorted) neighbour
    /// list, letting callers derive per-node aggregates without a second
    /// pass.
    fn rebuild_neighbors_with(&mut self, mut note: impl FnMut(NodeId, &[u32])) {
        let n = self.positions.len();
        let adj = &mut self.adj;
        adj.clear();
        if self.grid.cols <= 3 && self.grid.rows <= 3 {
            for u in 0..n {
                let (off, pu) = (adj.len(), self.positions[u]);
                adj.extend((0..n as u32).filter(|&v| {
                    v as usize != u && dist_sq(pu, self.positions[v as usize]) <= self.range_sq
                }));
                self.nb_index[u] = table_span(off, adj.len());
                note(u, &adj[off..]);
            }
            return;
        }
        // Walk the grid cell by cell: every member of a cell scans the
        // same three row slices, which stay cache-hot across members.
        // Hits are compacted without a branch (every candidate is
        // written, the cursor advances only on a hit): about a third of
        // the candidates are in range, a rate a branch mispredicts.
        let g = &self.grid;
        let mut hits: Vec<u32> = Vec::new();
        for cy in 0..g.rows {
            let rows = cy.saturating_sub(1)..=(cy + 1).min(g.rows - 1);
            for cx in 0..g.cols {
                let c = cy * g.cols + cx;
                let (x0, x1) = (cx.saturating_sub(1), (cx + 1).min(g.cols - 1));
                let row_spans = rows.clone().map(|y| {
                    g.start[y * g.cols + x0] as usize..g.start[y * g.cols + x1 + 1] as usize
                });
                let candidates = row_spans.clone().map(|s| s.len()).sum();
                if hits.len() < candidates {
                    hits.resize(candidates, 0);
                }
                for i in g.start[c] as usize..g.start[c + 1] as usize {
                    let (u, pu) = (g.members[i] as usize, g.member_pos[i]);
                    let mut k = 0;
                    for span in row_spans.clone() {
                        for j in span {
                            let hit = (j != i) & (dist_sq(pu, g.member_pos[j]) <= self.range_sq);
                            hits[k] = g.members[j];
                            k += usize::from(hit);
                        }
                    }
                    let off = adj.len();
                    adj.extend_from_slice(&hits[..k]);
                    adj[off..].sort_unstable();
                    self.nb_index[u] = table_span(off, adj.len());
                    note(u, &adj[off..]);
                }
            }
        }
    }

    /// Number of nodes sharing the medium.
    pub fn node_count(&self) -> usize {
        self.positions.len()
    }

    /// Transmission range, metres.
    pub fn range_m(&self) -> f64 {
        self.range_m
    }

    /// Carrier-sense range, metres ([`CS_RANGE_FACTOR`] × the
    /// transmission range).
    pub fn cs_range_m(&self) -> f64 {
        self.cs_range_m
    }

    /// Distance between two nodes, metres.
    pub fn distance(&self, u: NodeId, v: NodeId) -> f64 {
        dist_sq(self.positions[u], self.positions[v]).sqrt()
    }

    /// Nodes within transmission range of `u`, ascending.
    pub fn neighbors(&self, u: NodeId) -> &[u32] {
        let (off, len) = self.nb_index[u];
        &self.adj[off as usize..(off + len) as usize]
    }

    /// `true` if `v` is within decoding range of `u`.
    pub fn in_range(&self, u: NodeId, v: NodeId) -> bool {
        u != v && dist_sq(self.positions[u], self.positions[v]) <= self.range_sq
    }

    /// Carrier sense at a prospective sender: `true` if any live
    /// transmission that has been on the air for at least [`SENSE_DELAY`]
    /// has a participant within carrier-sense range of `u`. Younger
    /// transmissions are not yet detectable — the vulnerable window.
    pub fn busy_near(&self, u: NodeId, now: SimTime) -> bool {
        let cu = self.grid.cell_of[u];
        self.live.iter().any(|t| {
            t.start + SENSE_DELAY <= now
                && (self.within_cs_cell(t.sender, u, cu)
                    || t.receiver.is_some_and(|r| self.within_cs_cell(r, u, cu)))
        })
    }

    /// Fused carrier sense: [`Channel::busy_near`] and, when the medium
    /// is sensed busy, [`Channel::busy_until`] — in a single pass over
    /// the live set. `None` = medium free; `Some(until)` = sensed busy
    /// until `until` (which, matching `busy_until`, also counts
    /// conflicting transmissions still inside their vulnerable window).
    pub fn sense_busy_until(&self, u: NodeId, now: SimTime) -> Option<SimTime> {
        let cu = self.grid.cell_of[u];
        let mut sensed = false;
        let mut until: Option<SimTime> = None;
        for t in &self.live {
            if self.within_cs_cell(t.sender, u, cu)
                || t.receiver.is_some_and(|r| self.within_cs_cell(r, u, cu))
            {
                sensed |= t.start + SENSE_DELAY <= now;
                until = Some(until.map_or(t.end, |e| e.max(t.end)));
            }
        }
        if sensed {
            until
        } else {
            None
        }
    }

    /// The latest end time among live transmissions conflicting with `u`'s
    /// carrier sense, if any — when the medium frees up from `u`'s view.
    pub fn busy_until(&self, u: NodeId) -> Option<SimTime> {
        let cu = self.grid.cell_of[u];
        self.live
            .iter()
            .filter(|t| {
                self.within_cs_cell(t.sender, u, cu)
                    || t.receiver.is_some_and(|r| self.within_cs_cell(r, u, cu))
            })
            .map(|t| t.end)
            .max()
    }

    /// `true` if a live transmission's *sender* covers node `r` — starting
    /// a reception at `r` now would collide. Unlike carrier sensing this
    /// has no detection delay: interference corrupts regardless of age.
    pub fn covered(&self, r: NodeId) -> bool {
        let cr = self.grid.cell_of[r];
        self.live.iter().any(|t| self.within_cs_cell(t.sender, r, cr))
    }

    /// Registers a transmission on the medium.
    pub fn begin_tx(
        &mut self,
        sender: NodeId,
        receiver: Option<NodeId>,
        start: SimTime,
        end: SimTime,
    ) {
        let t = Transmission { sender, receiver, start, end };
        self.live.push(t);
        self.log.push(t);
    }

    /// Removes a finished transmission from the live set and prunes the
    /// collision log.
    ///
    /// The prune floor is the earliest start among transmissions still
    /// live plus those removed by this very call: every future
    /// [`Channel::reception_corrupted`] query asks about the interval of
    /// a transmission that is live (or ending) at query time, so entries
    /// whose end precedes all such starts can never overlap a queried
    /// interval again. When nothing is live the floor falls back to a
    /// 100 ms window (the longest frame is ≪ that), so direct API users
    /// querying a just-ended interval still see its overlaps.
    ///
    /// The `retain` pass itself is batched — it only runs once the log
    /// has doubled since the last prune — making pruning amortised O(1)
    /// per transmission instead of O(log²) under congestion.
    pub fn end_tx(&mut self, sender: NodeId, now: SimTime) {
        let mut ended_floor: Option<SimTime> = None;
        self.live.retain(|t| {
            if t.sender == sender && t.end <= now {
                ended_floor = Some(ended_floor.map_or(t.start, |f| f.min(t.start)));
                false
            } else {
                true
            }
        });
        if self.log.len() < self.prune_at {
            return;
        }
        let live_floor = self.live.iter().map(|t| t.start).min();
        let floor = match (live_floor, ended_floor) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => SimTime::from_nanos(now.as_nanos().saturating_sub(100_000_000)),
        };
        self.log.retain(|t| t.end >= floor);
        self.prune_at = (self.log.len() * 2).max(PRUNE_MIN);
    }

    /// Collision check for a reception at `r` spanning `[start, end)`:
    /// `true` if any other logged transmission overlaps the interval with
    /// a sender (other than `from`) within carrier-sense range of `r`.
    pub fn reception_corrupted(
        &self,
        r: NodeId,
        from: NodeId,
        start: SimTime,
        end: SimTime,
    ) -> bool {
        let cr = self.grid.cell_of[r];
        self.log.iter().any(|t| {
            t.sender != from
                && t.sender != r
                && t.start < end
                && t.end > start
                && self.within_cs_cell(t.sender, r, cr)
        })
    }

    /// Collects into `out` the senders of every logged transmission (other
    /// than `from`'s) overlapping `[start, end)` that could reach any of
    /// `receivers` — the one-time scan a broadcast completion shares
    /// across its audience, so each per-receiver check reduces to
    /// [`Channel::any_interferer_covers`] over this (typically tiny) set.
    /// Senders more than the carrier-sense reach in cells outside the
    /// receivers' cell bounding box are dropped: the per-receiver cell
    /// test would reject each of them for every receiver anyway.
    pub fn interferers_into(
        &self,
        from: NodeId,
        start: SimTime,
        end: SimTime,
        receivers: &[NodeId],
        out: &mut Vec<NodeId>,
    ) {
        out.clear();
        let Some((&first, rest)) = receivers.split_first() else {
            return;
        };
        // The receivers' cell bounding box.
        let (mut lo, mut hi) = (self.grid.cell_of[first], self.grid.cell_of[first]);
        for &r in rest {
            let (x, y) = self.grid.cell_of[r];
            lo = (lo.0.min(x), lo.1.min(y));
            hi = (hi.0.max(x), hi.1.max(y));
        }
        let k = self.cs_reach;
        out.extend(
            self.log
                .iter()
                .filter(|t| t.sender != from && t.start < end && t.end > start)
                .map(|t| t.sender)
                .filter(|&s| {
                    let (x, y) = self.grid.cell_of[s];
                    x + k >= lo.0 && x <= hi.0 + k && y + k >= lo.1 && y <= hi.1 + k
                }),
        );
    }

    /// `true` if any sender collected by [`Channel::interferers_into`] is
    /// within carrier-sense range of `r`. Together they answer exactly
    /// [`Channel::reception_corrupted`] for the same interval and any
    /// `r` among the receivers passed there.
    pub fn any_interferer_covers(&self, interferers: &[NodeId], r: NodeId) -> bool {
        let cr = self.grid.cell_of[r];
        interferers.iter().any(|&s| self.within_cs_cell(s, r, cr))
    }

    /// `a` within carrier-sense range of `b`, with `b`'s cell given: the
    /// integer cell-distance test culls far-away nodes before any f64 math.
    #[inline]
    fn within_cs_cell(&self, a: NodeId, b: NodeId, cell_b: Cell) -> bool {
        a != b
            && near(self.grid.cell_of[a], cell_b, self.cs_reach)
            && dist_sq(self.positions[a], self.positions[b]) <= self.cs_range_sq
    }

    /// Transmissions currently retained in the collision log (pruning
    /// diagnostics; behaviour must never depend on this).
    pub fn log_len(&self) -> usize {
        self.log.len()
    }
}

/// The `(offset, len)` index entry of the list at `adj[off..end]`
/// (`off <= end`, so `off` fits wherever `end` does).
fn table_span(off: usize, end: usize) -> (u32, u32) {
    let end = u32::try_from(end).expect("neighbour table outgrew u32 offsets");
    (off as u32, end - off as u32)
}

#[inline]
fn dist_sq(a: (f64, f64), b: (f64, f64)) -> f64 {
    (a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    impl Channel {
        fn within_cs(&self, a: NodeId, b: NodeId) -> bool {
            self.within_cs_cell(a, b, self.grid.cell_of[b])
        }
    }

    /// Line: 0 --100m-- 1 --100m-- 2 --100m-- 3; range 120 m, cs 264 m.
    fn line() -> Channel {
        Channel::new(vec![(0.0, 0.0), (100.0, 0.0), (200.0, 0.0), (300.0, 0.0)], 120.0)
    }

    #[test]
    fn neighbor_lists() {
        let c = line();
        assert_eq!(c.neighbors(0), &[1]);
        assert_eq!(c.neighbors(1), &[0, 2]);
        assert!(c.in_range(1, 2));
        assert!(!c.in_range(0, 2));
        assert!(!c.in_range(2, 2), "self is never a neighbor");
    }

    #[test]
    fn carrier_sense_extends_past_range() {
        let mut c = line();
        // 0 transmits to 1: node 2 (200 m from 0) is inside cs range
        // (264 m) even though outside decode range. Sense after the
        // detection delay has elapsed.
        c.begin_tx(0, Some(1), t(0), t(10));
        assert!(c.busy_near(2, t(1)));
        assert!(c.busy_near(1, t(1)));
        // Node 3 is 300 m from sender 0, but 200 m from receiver 1 → the
        // receiver's CTS reserves its neighborhood too.
        assert!(c.busy_near(3, t(1)));
        assert_eq!(c.busy_until(2), Some(t(10)));
    }

    #[test]
    fn vulnerable_window_hides_young_transmissions() {
        let mut c = line();
        c.begin_tx(0, Some(1), t(0), t(10));
        // Within SENSE_DELAY of the start, the medium still reads free...
        assert!(!c.busy_near(2, SimTime::from_micros(5)));
        // ...and is detected once the slot has elapsed.
        assert!(c.busy_near(2, SimTime::from_micros(20)));
    }

    #[test]
    fn end_tx_clears_live() {
        let mut c = line();
        c.begin_tx(0, Some(1), t(0), t(10));
        c.end_tx(0, t(10));
        assert!(!c.busy_near(2, t(11)));
        assert_eq!(c.busy_until(2), None);
    }

    #[test]
    fn covered_detects_active_senders() {
        let mut c = line();
        c.begin_tx(3, Some(2), t(0), t(10));
        // Node 1 is 200 m from sender 3 → covered.
        assert!(c.covered(1));
        // Node 0 is 300 m from sender 3 → clear.
        assert!(!c.covered(0));
    }

    #[test]
    fn hidden_terminal_corrupts_reception() {
        let mut c = line();
        // 0 → 1 reception in flight; 2 starts an overlapping transmission.
        // Sender 2 is 100 m from receiver 1 → corruption.
        c.begin_tx(0, Some(1), t(0), t(10));
        c.begin_tx(2, Some(3), t(5), t(15));
        assert!(c.reception_corrupted(1, 0, t(0), t(10)));
        // The reverse reception at 3 (from 2) is also corrupted by 0? No:
        // sender 0 is 300 m from 3, outside cs range.
        assert!(!c.reception_corrupted(3, 2, t(5), t(15)));
    }

    #[test]
    fn non_overlapping_transmissions_do_not_collide() {
        let mut c = line();
        c.begin_tx(0, Some(1), t(0), t(10));
        c.begin_tx(2, Some(3), t(10), t(20));
        assert!(!c.reception_corrupted(1, 0, t(0), t(10)), "back-to-back is clean");
    }

    #[test]
    fn own_transmission_does_not_corrupt_itself() {
        let mut c = line();
        c.begin_tx(0, Some(1), t(0), t(10));
        assert!(!c.reception_corrupted(1, 0, t(0), t(10)));
    }

    #[test]
    fn distance_is_symmetric() {
        let c = line();
        assert_eq!(c.distance(0, 3), c.distance(3, 0));
        assert_eq!(c.distance(0, 3), 300.0);
    }

    #[test]
    fn grid_tracks_incremental_moves() {
        // Spread nodes far apart so the grid has many cells, then walk
        // one node across the deployment; neighbour sets must follow.
        let mut positions = vec![(0.0, 0.0), (100.0, 0.0), (2000.0, 0.0), (4000.0, 3000.0)];
        let mut c = Channel::new(positions.clone(), 120.0);
        assert_eq!(c.neighbors(0), &[1]);
        assert_eq!(c.neighbors(2), &[] as &[u32]);
        // March node 0 over to node 2 in steps.
        for step in 0..=20 {
            positions[0] = (100.0 * step as f64, 0.0);
            c.set_positions(positions.clone());
        }
        assert_eq!(c.neighbors(0), &[2], "0 moved next to 2");
        assert_eq!(c.neighbors(2), &[0]);
        assert_eq!(c.neighbors(1), &[] as &[u32], "1 left behind");
        assert!(c.in_range(0, 2) && !c.in_range(0, 1));
        // The in-place update path agrees with set_positions.
        c.update_positions(|pos| pos[0] = (100.0, 0.0));
        assert_eq!(c.neighbors(0), &[1]);
    }

    #[test]
    fn neighbor_lists_stay_sorted_ascending() {
        let mut rng = eend_sim::SimRng::new(42);
        let positions: Vec<(f64, f64)> =
            (0..60).map(|_| (rng.range_f64(0.0, 900.0), rng.range_f64(0.0, 900.0))).collect();
        let c = Channel::new(positions, 250.0);
        for u in 0..60 {
            let nb = c.neighbors(u);
            assert!(nb.windows(2).all(|w| w[0] < w[1]), "node {u} list not ascending: {nb:?}");
            assert!(!nb.contains(&(u as u32)), "self-neighbour at {u}");
        }
    }

    #[test]
    fn prune_is_batched_and_never_drops_reachable_entries() {
        // Interleave many short transmissions with one long-running
        // reception; the long interval must keep seeing every overlapping
        // hidden-terminal transmission no matter how often end_tx prunes.
        let mut c = line();
        let long_start = t(0);
        let long_end = t(10_000);
        c.begin_tx(0, Some(1), long_start, long_end);
        let mut max_log = 0;
        for i in 0..500u64 {
            let s = t(10 + i * 10);
            let e = t(15 + i * 10);
            c.begin_tx(2, Some(3), s, e);
            // Every overlapping tx from node 2 (100 m from receiver 1)
            // must stay visible to the long reception's collision check,
            // even right after its end_tx pruned the log.
            c.end_tx(2, e);
            assert!(
                c.reception_corrupted(1, 0, long_start, long_end),
                "iteration {i}: overlapping transmission lost to pruning"
            );
            max_log = max_log.max(c.log_len());
        }
        // The long reception pins the floor at its own start, so nothing
        // it can still see is dropped — while batching keeps prune passes
        // O(1) amortised. Once it ends, the backlog becomes prunable.
        c.end_tx(0, long_end);
        assert!(max_log >= 500, "the pinned log kept every reachable entry");
        for i in 0..40u64 {
            let s = t(10_100 + i * 10);
            c.begin_tx(2, Some(3), s, s + eend_sim::SimDuration::from_millis(5));
            c.end_tx(2, s + eend_sim::SimDuration::from_millis(5));
        }
        assert!(c.log_len() < 80, "log not reclaimed after horizon passed: {}", c.log_len());
    }

    #[test]
    fn prune_keeps_log_near_live_set_without_long_receptions() {
        // Back-to-back short transmissions: with the tight floor the log
        // must stay bounded by a small constant, not grow with history.
        let mut c = line();
        let mut max_log = 0;
        for i in 0..2_000u64 {
            let s = t(i * 10);
            let e = t(i * 10 + 5);
            c.begin_tx(0, Some(1), s, e);
            c.end_tx(0, e);
            max_log = max_log.max(c.log_len());
        }
        assert!(max_log <= 2 * PRUNE_MIN, "log grew to {max_log} with no live pins");
    }

    #[test]
    fn within_cs_uses_cell_prefilter_correctly() {
        // Nodes straddling cell boundaries: exact distance decides, the
        // cell test only culls. Range 120 m → cells just over 120 m wide,
        // cs range 264 m → a reach of 3 cells.
        let c = Channel::new(vec![(0.0, 0.0), (263.0, 0.0), (265.0, 0.0), (600.0, 0.0)], 120.0);
        assert_eq!(c.cs_reach, 3);
        assert!(c.within_cs(0, 1), "263 m < 264 m cs range");
        assert!(!c.within_cs(0, 2), "265 m > 264 m cs range, two cells apart");
        assert!(!c.within_cs(0, 3), "600 m: four cells apart, culled by the cell test");
        assert!(c.within_cs(2, 1), "2 m apart across a cell boundary");
    }

    #[test]
    fn pairs_exactly_one_range_apart_are_found_at_every_cell_edge() {
        // The 3×3 rebuild only finds pairs in the same or adjacent cells.
        // Put the first node of a pair on, and a few ulps either side of,
        // a cell edge and its partner one range further along an axis:
        // whatever the division rounds to, an in-range pair must still
        // be found (the cells' slack over `range_m` guarantees it).
        let mut rng = eend_sim::SimRng::new(7);
        for _ in 0..300 {
            let range = rng.range_f64(1.0, 500.0);
            let origin = (rng.range_f64(-1e5, 1e5), rng.range_f64(-1e5, 1e5));
            let far = (origin.0 + 40.0 * range, origin.1 + 40.0 * range);
            let m = rng.range_f64(1.0, 38.0).floor();
            let mid = (origin.0 + 0.5 * range, origin.1 + 0.5 * range);
            for (axis, o) in [(0, origin.0), (1, origin.1)] {
                for edge in [m * range, m * range * CELL_SLACK] {
                    let mut x = o + edge;
                    for _ in 0..4 {
                        x = f64::from_bits(x.to_bits() - 1);
                    }
                    for _ in 0..9 {
                        let (a, b) = if axis == 0 {
                            ((x, mid.1), (x + range, mid.1))
                        } else {
                            ((mid.0, x), (mid.0, x + range))
                        };
                        let c = Channel::new(vec![origin, far, a, b], range);
                        assert_eq!(
                            c.neighbors(2).contains(&3),
                            c.in_range(2, 3),
                            "{a:?} {b:?} range {range}"
                        );
                        x = f64::from_bits(x.to_bits() + 1);
                    }
                }
            }
        }
    }
}
