//! The three heuristic approaches of Section 4, as centralized designers.
//!
//! The paper implements its heuristics as distributed routing protocols
//! (reproduced packet-by-packet in `eend-wireless`); this module captures
//! the same three prioritisations as centralized graph algorithms, which
//! makes their structural behaviour (relay counts, route lengths, energy
//! ordering) testable in isolation and gives downstream users a cheap
//! planning API.
//!
//! All three reduce to *sequential demand routing* under different cost
//! models, exactly the lens of Section 4: route selection is driven by
//! information from power control (edge costs) and power management (node
//! wake costs), and in turn determines which nodes must stay awake.

use crate::problem::{Demand, DesignProblem, WirelessInstance};
use eend_graph::{paths, steiner, Graph};

/// Link metric for the communication-energy-first heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommMetric {
    /// MTPR (Eq 10): radiated power `Pt(u,v)` only.
    RadiatedPower,
    /// MTPR+ (Eq 11): `Pbase + Pt(u,v) + Prx`.
    TotalPower,
}

/// One of the paper's heuristic approaches, plus the MPC-style baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Heuristic {
    /// Approach 1 — minimise communication energy first (Section 4.1):
    /// energy-aware routing (MTPR/MTPR+); nodes left off routes sleep.
    CommFirst(CommMetric),
    /// Approach 2 — joint optimisation (Section 4.2): route with
    /// `h(u,v, rᵢ)` (Eq 12), which charges `Pidle` for waking a sleeping
    /// relay. `use_rate` selects the rate-aware variant (DSRH-rate);
    /// without it `rᵢ/B` is taken as 1 (DSRH-norate).
    Joint {
        /// Use the demand's actual `rᵢ/B` (the "rate" variant).
        use_rate: bool,
        /// Channel bandwidth `B`, bits per second.
        bandwidth_bps: f64,
    },
    /// Approach 3 — minimise idling energy first (Section 4.3): minimise
    /// newly-awakened relays (TITAN's backbone bias), shortest hop count
    /// as tie-break; awake relays then use power control per link.
    IdleFirst,
    /// The MPC-flavoured baseline of Section 3: a minimum-weight Steiner
    /// forest with uniform edge weights standing in for node idle costs,
    /// then hop-count routing inside the forest.
    MpcSteiner,
    /// **Extension beyond the paper** (its stated future work): lifetime-
    /// aware design. Minimising instantaneous `Enetwork` concentrates
    /// traffic on few relays, which then die first; this designer instead
    /// penalises nodes by the traffic already routed through them,
    /// spreading load to maximise time-to-first-death.
    LifetimeAware {
        /// Channel bandwidth `B`, bits per second (normalises loads).
        bandwidth_bps: f64,
    },
}

/// A solution to a [`DesignProblem`]: per-demand routes plus the awake set.
#[derive(Debug, Clone, PartialEq)]
pub struct Design {
    /// `routes[i]` = node path of demand `i`, or `None` if unroutable.
    pub routes: Vec<Option<Vec<usize>>>,
    /// `active[v]` = node `v` must stay awake (endpoint or relay).
    pub active: Vec<bool>,
}

impl Design {
    /// The design carrying `routes`, awake exactly where they need it
    /// (see [`Design::rebuild_active`]).
    pub fn from_routes(problem: &DesignProblem, routes: Vec<Option<Vec<usize>>>) -> Design {
        let mut design = Design { routes, active: Vec::new() };
        design.rebuild_active(problem);
        design
    }

    /// Rebuilds the awake set implied by the routes, in place: demand
    /// endpoints plus every node appearing on a route (the minimal active
    /// set — a node an earlier design woke but no surviving route uses
    /// goes back to sleep).
    pub fn rebuild_active(&mut self, problem: &DesignProblem) {
        let active = &mut self.active;
        active.clear();
        active.resize(problem.instance.node_count(), false);
        for d in &problem.demands {
            active[d.source] = true;
            active[d.sink] = true;
        }
        for route in self.routes.iter().flatten() {
            for &v in route {
                active[v] = true;
            }
        }
    }

    /// `true` if every demand found a route.
    pub fn is_feasible(&self) -> bool {
        self.routes.iter().all(Option::is_some)
    }

    /// Number of awake nodes.
    pub fn active_count(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// Number of awake nodes that are not demand endpoints (the relays
    /// whose idle energy Section 3 argues about).
    pub fn relay_count(&self, problem: &DesignProblem) -> usize {
        let terminals = problem.terminals();
        self.active.iter().enumerate().filter(|&(v, &a)| a && !terminals.contains(&v)).count()
    }

    /// Total hops over all routed demands.
    pub fn total_hops(&self) -> usize {
        self.routes.iter().flatten().map(|r| r.len().saturating_sub(1)).sum()
    }

    /// Per-node traffic load: the sum of demand rates each node transmits
    /// plus receives (bits per second). The maximum entry is the
    /// network's lifetime bottleneck.
    pub fn node_loads(&self, problem: &DesignProblem) -> Vec<f64> {
        let mut load = vec![0.0; problem.instance.node_count()];
        for (demand, route) in problem.demands.iter().zip(&self.routes) {
            let Some(route) = route else { continue };
            for hop in route.windows(2) {
                load[hop[0]] += demand.rate_bps;
                load[hop[1]] += demand.rate_bps;
            }
        }
        load
    }

    /// The heaviest per-node load (bits per second); see
    /// [`Design::node_loads`].
    pub fn max_node_load(&self, problem: &DesignProblem) -> f64 {
        self.node_loads(problem).into_iter().fold(0.0, f64::max)
    }
}

/// The problem and design a packet run's frozen routes imply — the
/// Section 5.2.3 methodology behind Figs 13–16, which lets routes settle
/// at a low rate and then scores them analytically at higher ones.
///
/// Every route of at least two nodes becomes a `rate_bps` demand from its
/// first node to its last, carried on that route; unrouted flows are
/// skipped. The awake set is the routes' nodes.
///
/// # Panics
///
/// Panics if a route starts and ends at the same node or names a node
/// `instance` lacks.
pub fn frozen_routes(
    instance: WirelessInstance,
    routes: &[Option<Vec<usize>>],
    rate_bps: f64,
) -> (DesignProblem, Design) {
    let routes: Vec<Option<Vec<usize>>> =
        routes.iter().flatten().filter(|r| r.len() >= 2).map(|r| Some(r.clone())).collect();
    let demands =
        routes.iter().flatten().map(|r| Demand::new(r[0], r[r.len() - 1], rate_bps)).collect();
    let problem = DesignProblem::new(instance, demands);
    let design = Design::from_routes(&problem, routes);
    (problem, design)
}

/// Anything that can solve a [`DesignProblem`]. Implemented by
/// [`Heuristic`]; downstream users can plug their own strategies.
pub trait Designer {
    /// Produces a design for `problem`.
    fn design(&self, problem: &DesignProblem) -> Design;

    /// Human-readable strategy name (used by the bench harness).
    fn name(&self) -> String;
}

impl Designer for Heuristic {
    fn design(&self, problem: &DesignProblem) -> Design {
        match *self {
            Heuristic::CommFirst(metric) => comm_first(problem, metric),
            Heuristic::Joint { use_rate, bandwidth_bps } => joint(problem, use_rate, bandwidth_bps),
            Heuristic::IdleFirst => idle_first(problem),
            Heuristic::MpcSteiner => mpc_steiner(problem),
            Heuristic::LifetimeAware { bandwidth_bps } => lifetime_aware(problem, bandwidth_bps),
        }
    }

    fn name(&self) -> String {
        match self {
            Heuristic::CommFirst(CommMetric::RadiatedPower) => "MTPR".into(),
            Heuristic::CommFirst(CommMetric::TotalPower) => "MTPR+".into(),
            Heuristic::Joint { use_rate: true, .. } => "Joint (rate)".into(),
            Heuristic::Joint { use_rate: false, .. } => "Joint (norate)".into(),
            Heuristic::IdleFirst => "IdleFirst".into(),
            Heuristic::MpcSteiner => "MPC-Steiner".into(),
            Heuristic::LifetimeAware { .. } => "LifetimeAware".into(),
        }
    }
}

/// Routes demands one by one with a per-edge cost and a wake cost charged
/// the first time a route crosses a sleeping node. Endpoints of all demands
/// start awake (the paper sets `c(sᵢ) = c(dᵢ) = 0`).
fn route_sequential(
    problem: &DesignProblem,
    g: &Graph,
    mut edge_cost: impl FnMut(usize, f64) -> f64, // (edge id, rate_bps) -> cost
    mut wake_cost: impl FnMut(usize) -> f64,
) -> Design {
    let n = problem.instance.node_count();
    let mut active = vec![false; n];
    for d in &problem.demands {
        active[d.source] = true;
        active[d.sink] = true;
    }
    let mut routes = Vec::with_capacity(problem.demands.len());
    for demand in &problem.demands {
        let rate = demand.rate_bps;
        let path = paths::shortest_path_with(
            g,
            demand.source,
            demand.sink,
            |eid, _, _| edge_cost(eid, rate),
            |v| if active[v] { 0.0 } else { wake_cost(v) },
        )
        .map(|(_, p)| p);
        if let Some(p) = &path {
            for &v in p {
                active[v] = true;
            }
        }
        routes.push(path);
    }
    Design { routes, active }
}

/// `f(distance)` for every edge of `g`, by edge id: a link's power cost
/// is computed once per design, not once per relaxation.
fn per_edge(g: &Graph, f: impl Fn(f64) -> f64) -> Vec<f64> {
    g.edges().iter().map(|e| f(e.w)).collect()
}

fn comm_first(problem: &DesignProblem, metric: CommMetric) -> Design {
    let card = *problem.instance.card();
    let g = problem.instance.connectivity_graph();
    let cost = per_edge(&g, |d| match metric {
        CommMetric::RadiatedPower => card.radiated_power_mw(d),
        CommMetric::TotalPower => card.tx_total_power_mw(d) + card.p_rx_mw,
    });
    route_sequential(problem, &g, |eid, _| cost[eid], |_| 0.0)
}

fn joint(problem: &DesignProblem, use_rate: bool, bandwidth_bps: f64) -> Design {
    assert!(bandwidth_bps > 0.0, "bandwidth must be positive");
    let card = *problem.instance.card();
    let g = problem.instance.connectivity_graph();
    // Eq 12's c(u,v) = (Ptx + Prx − 2·Pidle) · r/B, clamped at zero for
    // cards whose short links are cheaper than idling.
    let surplus = per_edge(&g, |d| card.tx_total_power_mw(d) + card.p_rx_mw - 2.0 * card.p_idle_mw);
    route_sequential(
        problem,
        &g,
        |eid, rate| {
            let util = if use_rate { (rate / bandwidth_bps).min(1.0) } else { 1.0 };
            (surplus[eid] * util).max(0.0)
        },
        move |_| card.p_idle_mw,
    )
}

fn idle_first(problem: &DesignProblem) -> Design {
    let g = problem.instance.connectivity_graph();
    // Wake costs dominate; a per-hop epsilon makes hop count the tie-break,
    // mirroring DSR shortest paths biased onto the existing backbone.
    route_sequential(problem, &g, |_, _| 1e-3, |_| 1.0)
}

fn lifetime_aware(problem: &DesignProblem, bandwidth_bps: f64) -> Design {
    assert!(bandwidth_bps > 0.0, "bandwidth must be positive");
    let n = problem.instance.node_count();
    let g = problem.instance.connectivity_graph();
    let mut active = vec![false; n];
    for d in &problem.demands {
        active[d.source] = true;
        active[d.sink] = true;
    }
    // Load-proportional node penalty: entering a node costs its current
    // normalised load (squared, so the heaviest node dominates the path
    // cost), plus a small hop term to keep paths short. Endpoints of a
    // demand carry its load regardless, so only relay loads matter.
    let mut load = vec![0.0f64; n];
    let mut routes = Vec::with_capacity(problem.demands.len());
    for demand in &problem.demands {
        let util = demand.rate_bps / bandwidth_bps;
        let path = paths::shortest_path_with(
            &g,
            demand.source,
            demand.sink,
            |_, _, _| 1e-3,
            |v| {
                let l = load[v] + util;
                l * l
            },
        )
        .map(|(_, p)| p);
        if let Some(p) = &path {
            for &v in p {
                active[v] = true;
                load[v] += util;
            }
            // Both directions burden interior nodes once more (rx + tx);
            // endpoints only once. The constant factor cancels in the
            // argmin, so the simple per-visit accounting above suffices.
        }
        routes.push(path);
    }
    Design { routes, active }
}

fn mpc_steiner(problem: &DesignProblem) -> Design {
    let card = *problem.instance.card();
    let conn = problem.instance.connectivity_graph();
    // MPC's reduction: drop node weights, set every edge's weight to the
    // (uniform) idle cost, and approximate a Steiner forest.
    let mut weighted = Graph::new(conn.node_count());
    for e in conn.edges() {
        weighted.add_edge(e.u, e.v, card.p_idle_mw);
    }
    let pairs: Vec<(usize, usize)> = problem.demands.iter().map(|d| (d.source, d.sink)).collect();
    let (forest, _unrouted) = steiner::steiner_forest_greedy(&weighted, &pairs);
    // Route every demand by hop count inside the forest.
    let sub = conn.edge_subgraph(&forest.edges);
    let n = problem.instance.node_count();
    let mut active = vec![false; n];
    let mut routes = Vec::with_capacity(problem.demands.len());
    for demand in &problem.demands {
        active[demand.source] = true;
        active[demand.sink] = true;
        let path =
            paths::shortest_path_with(&sub, demand.source, demand.sink, |_, _, _| 1.0, |_| 0.0)
                .map(|(_, p)| p);
        if let Some(p) = &path {
            for &v in p {
                active[v] = true;
            }
        }
        routes.push(path);
    }
    Design { routes, active }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Demand, WirelessInstance};
    use eend_radio::cards;

    /// 5-node line, 60 m spacing, Cabletron (range 250 m): nodes can reach
    /// up to 4 hops away directly.
    fn line_problem() -> DesignProblem {
        let positions = (0..5).map(|i| (i as f64 * 60.0, 0.0)).collect();
        let inst = WirelessInstance::new(positions, cards::cabletron());
        DesignProblem::new(inst, vec![Demand::new(0, 4, 2000.0)])
    }

    #[test]
    fn idle_first_prefers_direct_transmission() {
        // 240 m direct link exists; waking any relay costs more than the
        // tiny hop epsilon, so the route must be the single hop.
        let p = line_problem();
        let d = Heuristic::IdleFirst.design(&p);
        assert!(d.is_feasible());
        assert_eq!(d.routes[0].as_ref().unwrap(), &vec![0, 4]);
        assert_eq!(d.relay_count(&p), 0);
    }

    #[test]
    fn mtpr_prefers_many_short_hops() {
        // Radiated power ~ d⁴: 4 hops of 60 m cost 4·60⁴·α ≪ 240⁴·α.
        let p = line_problem();
        let d = Heuristic::CommFirst(CommMetric::RadiatedPower).design(&p);
        assert!(d.is_feasible());
        assert_eq!(d.routes[0].as_ref().unwrap(), &vec![0, 1, 2, 3, 4]);
        assert_eq!(d.relay_count(&p), 3);
    }

    #[test]
    fn mtpr_plus_accounts_for_fixed_costs() {
        // With Pbase + Prx = 2118 mW per hop vs α·d⁴ savings, the per-hop
        // fixed cost shifts MTPR+ towards fewer hops than MTPR on short
        // links: 60 m radiated is 7.2e-8·60⁴ ≈ 0.93 mW, so fixed costs
        // dominate completely and MTPR+ goes direct.
        let p = line_problem();
        let d = Heuristic::CommFirst(CommMetric::TotalPower).design(&p);
        assert_eq!(d.routes[0].as_ref().unwrap(), &vec![0, 4]);
    }

    #[test]
    fn joint_wakes_no_relay_on_cheap_direct_link() {
        // Waking a relay costs Pidle = 830; the direct link's clamped cost
        // beats any relay detour for Cabletron geometry.
        let p = line_problem();
        let d = Heuristic::Joint { use_rate: true, bandwidth_bps: 2_000_000.0 }.design(&p);
        assert!(d.is_feasible());
        assert_eq!(d.relay_count(&p), 0, "joint must not wake relays here");
    }

    #[test]
    fn infeasible_demand_reported() {
        // Two nodes beyond range.
        let inst = WirelessInstance::new(vec![(0.0, 0.0), (1000.0, 0.0)], cards::cabletron());
        let p = DesignProblem::new(inst, vec![Demand::new(0, 1, 100.0)]);
        for h in [
            Heuristic::IdleFirst,
            Heuristic::CommFirst(CommMetric::RadiatedPower),
            Heuristic::Joint { use_rate: false, bandwidth_bps: 2e6 },
            Heuristic::MpcSteiner,
        ] {
            let d = h.design(&p);
            assert!(!d.is_feasible(), "{} must report infeasibility", h.name());
            assert!(d.routes[0].is_none());
        }
    }

    #[test]
    fn all_heuristics_feasible_on_connected_instance() {
        let p = line_problem();
        for h in [
            Heuristic::IdleFirst,
            Heuristic::CommFirst(CommMetric::RadiatedPower),
            Heuristic::CommFirst(CommMetric::TotalPower),
            Heuristic::Joint { use_rate: true, bandwidth_bps: 2e6 },
            Heuristic::Joint { use_rate: false, bandwidth_bps: 2e6 },
            Heuristic::MpcSteiner,
        ] {
            let d = h.design(&p);
            assert!(d.is_feasible(), "{} failed on a connected line", h.name());
            // Endpoints always awake.
            assert!(d.active[0] && d.active[4]);
            // Route endpoints match the demand.
            let r = d.routes[0].as_ref().unwrap();
            assert_eq!((r[0], *r.last().unwrap()), (0, 4));
        }
    }

    #[test]
    fn idle_first_reuses_existing_backbone() {
        // Demand A forces a relay awake; demand B between other nodes can
        // choose a fresh relay or the awake one at equal hop count — it
        // must reuse.
        //      1
        //   0     3     crossing flows: 0->3 via 1 or 2; 4->5 via 1 or 2.
        //      2
        let positions = vec![
            (0.0, 0.0),     // 0
            (100.0, 80.0),  // 1
            (100.0, -80.0), // 2
            (200.0, 0.0),   // 3
            (0.0, 10.0),    // 4
            (200.0, 10.0),  // 5
        ];
        // Mica2 range 68 m is too small; use a card with 150 m reach so
        // only the relay hops connect the sides.
        let mut card = cards::cabletron();
        card.nominal_range_m = 150.0;
        let inst = WirelessInstance::new(positions, card);
        let p =
            DesignProblem::new(inst, vec![Demand::new(0, 3, 1000.0), Demand::new(4, 5, 1000.0)]);
        let d = Heuristic::IdleFirst.design(&p);
        assert!(d.is_feasible());
        let r0 = d.routes[0].as_ref().unwrap();
        let r1 = d.routes[1].as_ref().unwrap();
        assert_eq!(r0.len(), 3);
        assert_eq!(r1.len(), 3);
        assert_eq!(r0[1], r1[1], "second flow must reuse the awake relay");
        assert_eq!(d.relay_count(&p), 1);
    }

    #[test]
    fn lifetime_aware_spreads_load_across_parallel_relays() {
        // Two disjoint relay columns between left and right sides; two
        // demands. IdleFirst reuses one relay (fewest awake nodes);
        // LifetimeAware must split the demands across the two relays.
        let positions = vec![
            (0.0, 0.0),     // 0 source A
            (0.0, 20.0),    // 1 source B
            (140.0, 70.0),  // 2 relay top
            (140.0, -70.0), // 3 relay bottom
            (280.0, 0.0),   // 4 sink A
            (280.0, 20.0),  // 5 sink B
        ];
        let mut card = cards::cabletron();
        card.nominal_range_m = 180.0; // sides only reach the relays
        let inst = WirelessInstance::new(positions, card);
        let p = DesignProblem::new(
            inst,
            vec![Demand::new(0, 4, 500_000.0), Demand::new(1, 5, 500_000.0)],
        );
        let idle = Heuristic::IdleFirst.design(&p);
        let lifetime = Heuristic::LifetimeAware { bandwidth_bps: 2e6 }.design(&p);
        assert!(idle.is_feasible() && lifetime.is_feasible());
        // IdleFirst funnels both flows through one relay...
        let r0 = idle.routes[0].as_ref().unwrap()[1];
        let r1 = idle.routes[1].as_ref().unwrap()[1];
        assert_eq!(r0, r1, "IdleFirst reuses the awake relay");
        // ...LifetimeAware uses both, halving the bottleneck load.
        let l0 = lifetime.routes[0].as_ref().unwrap()[1];
        let l1 = lifetime.routes[1].as_ref().unwrap()[1];
        assert_ne!(l0, l1, "LifetimeAware must split the relays");
        assert!(
            lifetime.max_node_load(&p) < idle.max_node_load(&p),
            "bottleneck load must shrink: {} vs {}",
            lifetime.max_node_load(&p),
            idle.max_node_load(&p)
        );
    }

    #[test]
    fn node_loads_count_tx_and_rx() {
        let p = line_problem();
        let d = Heuristic::CommFirst(CommMetric::RadiatedPower).design(&p);
        let loads = d.node_loads(&p);
        // Route 0-1-2-3-4 at 2000 bps: endpoints carry 2000 (tx or rx),
        // relays 4000 (rx + tx).
        assert_eq!(loads[0], 2000.0);
        assert_eq!(loads[1], 4000.0);
        assert_eq!(loads[4], 2000.0);
        assert_eq!(d.max_node_load(&p), 4000.0);
    }

    #[test]
    fn designer_names_are_distinct() {
        let names: Vec<String> = [
            Heuristic::CommFirst(CommMetric::RadiatedPower),
            Heuristic::CommFirst(CommMetric::TotalPower),
            Heuristic::Joint { use_rate: true, bandwidth_bps: 2e6 },
            Heuristic::Joint { use_rate: false, bandwidth_bps: 2e6 },
            Heuristic::IdleFirst,
            Heuristic::MpcSteiner,
        ]
        .iter()
        .map(|h| h.name())
        .collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }

    #[test]
    fn frozen_routes_keep_routed_flows_and_wake_their_nodes() {
        let inst = line_problem().instance;
        let routes = vec![Some(vec![0, 1, 3]), None, Some(vec![2]), Some(vec![4, 3])];
        let (p, d) = frozen_routes(inst, &routes, 5_000.0);
        assert_eq!(p.demands, vec![Demand::new(0, 3, 5_000.0), Demand::new(4, 3, 5_000.0)]);
        assert_eq!(d.routes, vec![Some(vec![0, 1, 3]), Some(vec![4, 3])]);
        assert_eq!(d.active, vec![true, true, false, true, true]);
    }
}
