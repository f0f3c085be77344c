//! `design`: the design search of `eend::opt` over grid7 and random
//! fields, scored by the fluid oracle behind the on-disk cache.
//!
//! An op is one problem: a cold `multistart` and a cold `anneal` sharing
//! one on-disk `CachedOracle` over `FluidOracle::standard(900)`, then a
//! warm `anneal` that reopens the cache directory — so cache writes run
//! beside cache reads. Only opt, core and graph run here, on one thread.
//!
//! A round solves grid7 and three random fields, one op each. Timed one
//! search at a time, the twelve searches of a round fall into clusters
//! (a 30-node multistart takes a twentieth of an 80-node anneal), and the
//! median sat in the gap between two of them, moving by 17 % from run to
//! run. Per problem, each round adds one op to each of four clusters, so
//! the median lies between the two middle ones, grid7's and the 50-node
//! field's, which cost about the same.
//!
//! Two timing oracles wrap the stack from outside: one around the cache
//! (`opt.cache`) and one around the fluid evaluator (`core.evaluate`).
//! A traced round also replays, outside the timed ops, Yen's k-shortest
//! paths for every route-swap the searches scored (`graph.yen_share`)
//! and the six constructive starts (`core.designs_per_s`).

use super::{fnv, Ctx, Op, Round};
use crate::cpu::CpuInstant;
use crate::metrics::{add, Counters, REPLAY};
use crate::trace::Tracer;
use eend::core::design::{Design, Designer};
use eend::core::problem::{Demand, DesignProblem, WirelessInstance};
use eend::graph::paths::{dijkstra, k_shortest_paths};
use eend::opt::search::standard_starts;
use eend::opt::{
    anneal, design_fingerprint, instances, multistart, problem_fingerprint, CachedOracle,
    EvalOracle, FluidOracle, Objective, Score, SearchOpts, SearchResult,
};
use eend::radio::cards;
use eend::sim::{mix_seed, SimRng};
use std::path::Path;
use std::time::Instant;

/// A run fits 60–100 problems; p80 leaves ≥10 beyond and lies among
/// the 80-node fields, the costliest quarter of the ops.
pub const TAIL_PERCENTILE: f64 = 80.0;

/// Times and counts every evaluation request it forwards.
struct Timed<'t, O> {
    inner: O,
    tracer: &'t Tracer,
    span: &'static str,
    requests: u64,
}

impl<O: EvalOracle> EvalOracle for Timed<'_, O> {
    fn evaluate(&mut self, problem: &DesignProblem, design: &Design) -> Score {
        self.requests += 1;
        let _span = self.tracer.span(self.span);
        self.inner.evaluate(problem, design)
    }

    fn calls(&self) -> u64 {
        self.inner.calls()
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

type Oracle<'t> = Timed<'t, CachedOracle<Timed<'t, FluidOracle>>>;

fn open_oracle<'t>(
    tracer: &'t Tracer,
    dir: &Path,
    problem: &DesignProblem,
) -> Result<Oracle<'t>, String> {
    let fluid = Timed {
        inner: FluidOracle::standard(900.0),
        tracer,
        span: "core.evaluate",
        requests: 0,
    };
    let cached = {
        let _open = tracer.span("opt.cache.open");
        CachedOracle::on_disk(fluid, dir, problem_fingerprint(problem))
            .map_err(|e| format!("cannot open eval cache {}: {e}", dir.display()))?
    };
    Ok(Timed {
        inner: cached,
        tracer,
        span: "opt.cache",
        requests: 0,
    })
}

/// `n` nodes scattered uniformly over a field at random50's density with
/// `demands` 8 kb/s demands — the placement and connectivity-rejection
/// scheme of `opt/instances.rs`, drawn from `seed`.
pub fn random_field(n: usize, demands: usize, seed: u64) -> DesignProblem {
    let side_m = 600.0 * (n as f64 / 50.0).sqrt();
    for attempt in 0..64u64 {
        let mut rng = SimRng::new(mix_seed(&[0xde51_9f1e, seed, attempt]));
        let positions: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.range_f64(0.0, side_m), rng.range_f64(0.0, side_m)))
            .collect();
        let pairs: Vec<Demand> = (0..demands)
            .map(|_| {
                let s = rng.range_usize(0, n);
                let mut t = rng.range_usize(0, n);
                while t == s {
                    t = rng.range_usize(0, n);
                }
                Demand::new(s, t, 8_000.0)
            })
            .collect();
        let problem =
            DesignProblem::new(WirelessInstance::new(positions, cards::cabletron()), pairs);
        let g = problem.instance.connectivity_graph();
        if problem
            .demands
            .iter()
            .all(|d| dijkstra(&g, d.source).path_to(d.sink).is_some())
        {
            return problem;
        }
    }
    panic!("no connected placement of {n} nodes for seed {seed}");
}

/// Round `k`'s problems: grid7, then one random field per configured size.
fn problems(seed: u64, k: usize, fields: &[(usize, usize)]) -> Vec<(String, DesignProblem)> {
    let mut out = vec![("grid7".to_owned(), instances::grid7())];
    for &(n, demands) in fields {
        let field_seed = mix_seed(&[seed, k as u64, n as u64]);
        out.push((format!("r{n}"), random_field(n, demands, field_seed)));
    }
    out
}

fn best_baseline(r: &SearchResult, objective: Objective) -> f64 {
    r.baselines
        .iter()
        .map(|(_, s)| objective.value(s))
        .fold(f64::INFINITY, f64::min)
}

/// Runs one search: its trace and winner as text, and the check every
/// search must pass.
fn search(
    tracer: &Tracer,
    run: impl FnOnce() -> Result<SearchResult, String>,
    problem: &DesignProblem,
    objective: Objective,
) -> Result<(String, SearchResult), String> {
    let r = {
        let mut span = tracer.span("opt.search");
        let r = run()?;
        span.count("requests", r.evals);
        r
    };
    let best = best_baseline(&r, objective);
    if r.best_objective > best {
        return Err(format!(
            "winner {} is worse than the best baseline {best}",
            r.best_objective
        ));
    }
    let mut text = r.trace_jsonl();
    let winner = design_fingerprint(problem, &r.best_design);
    text.push_str(&format!("winner {winner:016x}\n"));
    Ok((text, r))
}

pub fn round(ctx: &Ctx, k: usize, counters: &mut Counters) -> Result<Round, String> {
    let tracer = ctx.tracer;
    let load = ctx.load;
    let dir = ctx.round_dir("design", k);
    let setup = CpuInstant::now();
    let prepared = {
        let _setup = tracer.span("bench.setup");
        // 30/50/80 nodes carry 4/6/8 demands.
        let fields: Vec<(usize, usize)> = load
            .design_fields
            .iter()
            .map(|&n| (n, (n / 10 + 1).min(8)))
            .collect();
        let mut prepared = Vec::new();
        for (name, problem) in problems(ctx.seed, k, &fields) {
            let cache_dir = dir.join(&name);
            let oracle = open_oracle(tracer, &cache_dir, &problem)?;
            prepared.push((name, problem, cache_dir, oracle));
        }
        prepared
    };
    let setup_s = setup.elapsed_s();

    let objective = Objective::Energy;
    let mut ops = Vec::new();
    let mut results = Vec::new();
    let mut requests = 0u64;
    for (name, problem, cache_dir, oracle) in prepared {
        let base = SearchOpts {
            budget: load.design_budget,
            objective,
            ..SearchOpts::new()
        };
        let anneal_opts = SearchOpts {
            seed: mix_seed(&[ctx.seed, k as u64, fnv(name.as_bytes())]),
            ..base.clone()
        };
        let start = CpuInstant::now();
        let solved = (|| {
            let _op = tracer.span("bench.op");
            let mut oracle = oracle;
            let (multi_text, multi) = search(
                tracer,
                || Ok(multistart(&problem, &mut oracle, &base)),
                &problem,
                objective,
            )?;
            let (cold_text, cold) = search(
                tracer,
                || Ok(anneal(&problem, &mut oracle, &anneal_opts)),
                &problem,
                objective,
            )?;
            add(counters, "opt.cache.hits", oracle.inner.hits() as f64);
            add(
                counters,
                "core.evaluate.calls",
                oracle.inner.inner().requests as f64,
            );
            requests += oracle.requests;
            drop(oracle);

            // Warm: a fresh process's view — reopen the directory, replay.
            let mut warm_oracle = open_oracle(tracer, &cache_dir, &problem)?;
            let (warm_text, warm) = search(
                tracer,
                || Ok(anneal(&problem, &mut warm_oracle, &anneal_opts)),
                &problem,
                objective,
            )?;
            requests += warm_oracle.requests;
            add(counters, "opt.cache.hits", warm_oracle.inner.hits() as f64);
            let executed = warm_oracle.calls();
            if executed != 0 {
                return Err(format!("warm anneal executed {executed} evaluations"));
            }
            if warm.trace != cold.trace {
                return Err("warm anneal did not reproduce the cold trace".to_owned());
            }
            Ok((
                multi_text + &cold_text + &warm_text,
                vec![multi, cold, warm],
            ))
        })();
        let cpu_s = start.elapsed_s();
        let key = format!("k{k}.{name}");
        ops.push(match solved {
            Ok((text, searches)) => {
                results.push((problem, searches));
                Op {
                    key,
                    cpu_s,
                    digest: fnv(text.as_bytes()),
                    error: None,
                }
            }
            Err(e) => Op {
                key,
                cpu_s,
                digest: 0,
                error: Some(e),
            },
        });
    }
    add(counters, "opt.requests", requests as f64);

    if tracer.enabled() {
        let _replay = tracer.span(REPLAY);
        replay_layers(tracer, counters, &results);
    }
    let _ = std::fs::remove_dir_all(&dir);
    let cpu_s = ops.iter().map(|o| o.cpu_s).sum();
    Ok(Round {
        setup_s,
        cpu_s,
        work: requests as f64,
        ops,
    })
}

/// Re-issues the graph and core work behind the searches, outside the
/// timed ops: `k_shortest_paths` for every scored route swap, and the
/// six constructive starts per problem.
fn replay_layers(
    tracer: &Tracer,
    counters: &mut Counters,
    results: &[(DesignProblem, Vec<SearchResult>)],
) {
    for (problem, searches) in results {
        let g = problem.instance.connectivity_graph();
        let start = Instant::now();
        {
            let _yen = tracer.span("graph.yen_replay");
            for ev in searches.iter().flat_map(|r| &r.trace) {
                let Some((d, k)) = ev
                    .kind
                    .strip_prefix("swap:d")
                    .and_then(|s| s.split_once('k'))
                else {
                    continue;
                };
                let (Ok(d), Ok(k)) = (d.parse::<usize>(), k.parse::<usize>()) else {
                    continue;
                };
                let demand = &problem.demands[d];
                std::hint::black_box(k_shortest_paths(
                    &g,
                    demand.source,
                    demand.sink,
                    k + 1,
                    |e, _, _| g.edge(e).w,
                    |_| 0.0,
                ));
            }
        }
        add(
            counters,
            "graph.yen_replay_ns",
            start.elapsed().as_nanos() as f64,
        );
        let start = Instant::now();
        let starts = standard_starts();
        {
            let _designs = tracer.span("core.design_replay");
            for h in &starts {
                std::hint::black_box(h.design(problem));
            }
        }
        add(
            counters,
            "core.design_replay_ns",
            start.elapsed().as_nanos() as f64,
        );
        add(counters, "core.design_replay.designs", starts.len() as f64);
    }
}
