//! `scale10k`: the 10 000-node mobile grid of `presets::mobility_scale`,
//! run the way `eend-cli bench --scale 10k` runs it — `Executor::par_map`
//! over `Simulator::new(..).run_with_stats()`.
//!
//! An op is one run. The field is large enough for the timing-wheel
//! queue backend, mobility re-bucketing and the channel grid to dominate.
//! Building a 10k-node simulator (`Simulator::new`, about 5 % of a run)
//! is the round's set-up: the round's simulators are all built before the
//! first run starts, and together with the runs they set the memory
//! high-water mark. The horizon is cut from the preset's 20 s to 5 s (the
//! 10k golden tier's length) so a run leaves enough ops for a tail
//! percentile.

use super::{count_run, fnv, Ctx, Op, Round};
use crate::cpu::CpuInstant;
use crate::metrics::{add, Counters};
use eend::campaign::Executor;
use eend::sim::{mix_seed, SimDuration};
use eend::wireless::{presets, stacks, Simulator};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A run fits about 110 simulations; p85 leaves ≥10 beyond.
pub const TAIL_PERCENTILE: f64 = 85.0;

pub fn round(ctx: &Ctx, k: usize, counters: &mut Counters) -> Result<Round, String> {
    let tracer = ctx.tracer;
    let (n, load) = (ctx.load.scale_runs, ctx.load);
    let setup = CpuInstant::now();
    let sims: Vec<Mutex<Option<Simulator>>> = {
        let _setup = tracer.span("bench.setup");
        (0..n)
            .map(|j| {
                let seed = mix_seed(&[0x5ca1_e10c, ctx.seed, (k * n + j) as u64]);
                let mut s = presets::mobility_scale(stacks::titan_pc(), load.scale_side, seed);
                s.duration = SimDuration::from_secs(load.scale_secs);
                let _new = tracer.span("wireless.new");
                Mutex::new(Some(Simulator::new(&s)))
            })
            .collect()
    };
    let setup_s = setup.elapsed_s();

    let executor = Executor::with_workers(ctx.workers);
    let (start, start_cpu) = (Instant::now(), CpuInstant::now());
    let runs = {
        let par_map = tracer.span("campaign.executor.par_map");
        let parent = par_map.ctx();
        executor.par_map(n, |i| {
            let (t, cpu) = (Instant::now(), CpuInstant::now());
            let _op = tracer.span_under("bench.op", parent);
            let sim = sims[i]
                .lock()
                .expect("no run panicked")
                .take()
                .expect("each simulator runs once");
            let (m, q) = {
                let mut run = tracer.span("wireless.run");
                let (m, q) = sim.run_with_stats();
                run.count("events", q.scheduled_total);
                (m, q)
            };
            (m, q, t.elapsed(), cpu.elapsed_s())
        })
    };
    let (wall, cpu_s) = (start.elapsed(), start_cpu.elapsed_s());

    let mut ops = Vec::with_capacity(n);
    let mut events = 0.0;
    let mut busy = Duration::ZERO;
    for (j, (m, q, run_wall, run_cpu_s)) in runs.iter().enumerate() {
        events += q.scheduled_total as f64;
        busy += *run_wall;
        let error = (m.data_sent == 0
            || m.per_node_energy.len() != load.scale_side * load.scale_side)
            .then(|| {
                format!(
                    "implausible run: {} nodes, {} packets sent",
                    m.per_node_energy.len(),
                    m.data_sent
                )
            });
        count_run(counters, None, m, q, run_wall.as_nanos() as f64);
        ops.push(Op {
            key: format!("k{k}.{j}"),
            cpu_s: *run_cpu_s,
            digest: fnv(m.scale_digest().as_bytes()),
            error,
        });
    }
    add(
        counters,
        "campaign.executor.busy_ns",
        busy.as_nanos() as f64,
    );
    let capacity = wall * u32::try_from(executor.workers()).expect("a handful of workers");
    add(
        counters,
        "campaign.executor.capacity_ns",
        capacity.as_nanos() as f64,
    );
    Ok(Round {
        setup_s,
        cpu_s,
        work: events,
        ops,
    })
}
