//! Heap-allocation budget of a steady-state run.
//!
//! PR 3 made the event loop allocation-free in steady state; the pooled
//! routing out-buffers finish the job — `RoutingAgent` entry points
//! write into recycled `Vec<Action>`s instead of returning a fresh
//! vector per event. This test pins the whole-run allocation *count*
//! for a fixed scenario with a counting global allocator: on this
//! workload the pre-pool build allocates ~7.3k times, the pooled build
//! ~2.7k (the rest is inherent packet/route traffic). The ceiling below
//! sits between the two and fails if per-event `Vec<Action>` churn ever
//! comes back.
//!
//! The same allocator also counts live bytes (and their high-water
//! mark), which budgets what a simulator holds, not just how often it
//! asks for memory.
//!
//! The counters are per thread: the test harness runs these tests
//! concurrently, and a process-wide count would charge one test's
//! allocations to another's window.

use eend_sim::SimDuration;
use eend_wireless::{presets, stacks, Simulator, TrafficModel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // Const-initialised and drop-free: touching them never allocates,
    // so the allocator itself may use them.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    // Bytes allocated minus bytes freed by this thread (negative when it
    // frees memory another thread allocated), and the highest value so
    // far.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn add_live(delta: i64) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

/// Allocations made so far by the calling thread.
fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Bytes the calling thread holds live.
fn thread_live() -> i64 {
    LIVE.with(Cell::get)
}

/// The calling thread's live-byte high-water mark since the last
/// [`reset_thread_peak`].
fn thread_peak() -> i64 {
    PEAK.with(Cell::get)
}

fn reset_thread_peak() {
    PEAK.with(|peak| peak.set(thread_live()));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        add_live(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add_live(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        add_live(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_run_stays_inside_its_allocation_budget() {
    // Warm-up run: libstd one-time setup must not count.
    let mut scenario = presets::small_network(stacks::titan_pc(), 4.0, 1);
    scenario.duration = SimDuration::from_secs(60);
    let warm = Simulator::new(&scenario).run();
    assert!(warm.data_sent > 0);

    let before = thread_allocs();
    let m = Simulator::new(&scenario).run();
    let allocs = thread_allocs() - before;
    assert!(m.data_sent > 0, "run must carry traffic");
    eprintln!("ALLOC_COUNT={allocs}");

    // Measured on this workload: 2,719 allocations with pooled routing
    // buffers, 7,304 without (pre-PR build, same scenario). The ceiling
    // sits between the two with headroom for allocator/libstd drift.
    assert!(
        allocs < 5_000,
        "steady-state run allocated {allocs} times — routing out-buffer pooling regressed?"
    );
}

#[test]
fn dsdvh_steady_state_run_stays_inside_its_allocation_budget() {
    // The proactive family on the same 60 s small-network scenario. Each
    // of a run's ~2.2k table advertisements must own its entry list, so
    // the count sits above TITAN-PC's. Measured on this workload: ~10.4k
    // allocations per stack with node-indexed DSDV state and entry lists
    // allocated at their exact size, ~21.9k with the hash-map state that
    // collected and sorted keys and grew each list by pushing. The
    // ceiling sits between the two; one allocation per merged entry
    // (~405k) or per advertisement reception (~30k) blows through it.
    for stack in [stacks::dsdvh_odpm(), stacks::dsdvh_odpm_span()] {
        let mut scenario = presets::small_network(stack, 4.0, 1);
        scenario.duration = SimDuration::from_secs(60);
        let warm = Simulator::new(&scenario).run();
        assert!(warm.data_sent > 0);

        let before = thread_allocs();
        let m = Simulator::new(&scenario).run();
        let allocs = thread_allocs() - before;
        let name = &scenario.stack.name;
        assert!(m.data_sent > 0, "{name} run must carry traffic");
        eprintln!("ALLOC_COUNT[{name}]={allocs}");
        assert!(
            allocs < 16_000,
            "{name} run allocated {allocs} times — DSDV table or advertisement churn came back?"
        );
    }
}

#[test]
fn mobility1k_run_stays_inside_its_allocation_budget() {
    // The scale family's smallest member: 1,024 nodes with SoA hot state.
    // Construction (~5k allocations, scaling with n) is excluded; the
    // measured run count is ~47.6k (~51.5k with a `seen` map per node,
    // ~53.8k when the 1k field ran on a timing-wheel queue) — unlike the static small-network runs above
    // this workload floods ~25k RREQ rebroadcasts whose accumulated
    // source-route paths are cloned per hop, which is inherent to DSR,
    // not event-loop churn. The ceiling pins that: the run schedules
    // ~140k events, takes 20k node-ticks and charges ~500k broadcast
    // receptions, so one stray allocation per event (+140k), per
    // node-tick (+20k) or per reception (+500k) blows straight through
    // it.
    let scenario = presets::mobility1k(stacks::titan_pc(), 1);
    let warm = Simulator::new(&scenario).run();
    assert!(warm.data_sent > 0);

    let sim = Simulator::new(&scenario);
    let before = thread_allocs();
    let m = sim.run();
    let allocs = thread_allocs() - before;
    assert!(m.data_sent > 0, "run must carry traffic");
    eprintln!("ALLOC_COUNT[mobility1k]={allocs}");

    assert!(
        allocs < 60_000,
        "mobility1k run allocated {allocs} times — per-event allocation churn came back at scale?"
    );
}

#[test]
fn mobility1k_live_heap_follows_the_work_in_flight() {
    // What a built simulator holds and what its run peaks at, counted in
    // live bytes. Measured on this workload: 446 bytes per node after
    // `Simulator::new` and a 1.88 MB peak over the run, with the heap
    // queue growing from empty, transactions boxed off the node row,
    // drained MAC queues handing their buffers to a shared pool, the
    // neighbour lists in one `u32` table, meters without a card copy,
    // the routing configuration held once, routing agents built on a
    // node's first routing call and discovery state freed with its last
    // RREQ copy. With an inline agent per node row it took 614 bytes per
    // node and peaked at 2.35 MB; with, besides, a `Vec<usize>` per
    // neighbour list, a card per meter and a configuration per agent the
    // same field took 902 bytes per node and peaked at 2.8 MB. The
    // same run on a timing-wheel queue (4 × 256 slot vectors, each kept
    // at its largest) peaked at 6.9 MB; reserving 16 queue slots per node
    // twice over, an inline transaction per node and a kept buffer per
    // MAC queue took 4,263 bytes per node and a 10.7 MB peak. The
    // per-node ceiling sits ~10 % over today's figure and the peak
    // ceiling below the nearest of the others.
    let scenario = presets::mobility1k(stacks::titan_pc(), 1);
    let nodes = scenario.placement.node_count() as i64;
    let warm = Simulator::new(&scenario).run();
    assert!(warm.data_sent > 0);

    let base = thread_live();
    let sim = Simulator::new(&scenario);
    let built = thread_live() - base;
    reset_thread_peak();
    let m = sim.run();
    let peak = thread_peak() - base;
    assert!(m.data_sent > 0, "run must carry traffic");
    let per_node = built / nodes;
    eprintln!("LIVE_BYTES[mobility1k] built={built} per_node={per_node} run_peak={peak}");

    assert!(
        per_node < 490,
        "a built simulator holds {per_node} bytes per node — did a per-node copy come back?"
    );
    assert!(
        peak < 4_000_000,
        "the run peaked at {peak} live bytes — do idle nodes hold transaction or queue space?"
    );
}

#[test]
fn mobility10k_live_heap_peak_stays_inside_its_budget() {
    // The benchmark's `scale10k` field over 5 s: what the run holds at
    // its high-water mark, built simulator included.
    let mut scenario = presets::mobility10k(stacks::titan_pc(), 1);
    scenario.duration = SimDuration::from_secs(5);
    drop(Simulator::new(&presets::mobility1k(stacks::titan_pc(), 1)));

    let base = thread_live();
    reset_thread_peak();
    let m = Simulator::new(&scenario).run();
    let peak = thread_peak() - base;
    assert!(m.data_sent > 0, "run must carry traffic");
    eprintln!("LIVE_BYTES[mobility10k 5s] run_peak={peak}");

    // Measured: a 10.56 MB peak. Before, 12.64 MB: every node row held an
    // inline routing agent, the MAC rows a queue capacity and a drop
    // counter, and the report's per-node vector was allocated while the
    // rest of the world was still live. The ceiling sits ~10 % over
    // today's figure and below the old one.
    assert!(
        peak < 11_600_000,
        "the 10k run peaked at {peak} live bytes — do idle nodes hold routing state again?"
    );
}

#[test]
fn a_built_10k_simulator_holds_its_per_node_budget() {
    // The field the benchmark's `scale10k` and `bench --scale 10k` build:
    // 10,000 nodes on a mobile grid, where per-node state rather than
    // events in flight sets the memory. Measured: 451 bytes per node.
    // Before, 915: the neighbour lists were a `Vec<usize>` each (−160
    // for one `u32` table), every meter held a copy of its card (−80),
    // every routing agent a copy of its configuration (−56), every node
    // row an inline routing agent (−144 for one built on first use),
    // every MAC row its queue capacity and a drop counter (−16) and
    // every PM row an `Option` tag on its keep-alive deadline (−8). The
    // ceiling sits ~10 % over today's figure and below the inline agent
    // taken back; the MAC row and the timer have size tests of their own.
    let scenario = presets::mobility10k(stacks::titan_pc(), 1);
    let nodes = scenario.placement.node_count() as i64;
    drop(Simulator::new(&presets::mobility1k(stacks::titan_pc(), 1)));

    let base = thread_live();
    let sim = Simulator::new(&scenario);
    let built = thread_live() - base;
    drop(sim);
    let per_node = built / nodes;
    eprintln!("LIVE_BYTES[mobility10k] built={built} per_node={per_node}");
    assert!(
        per_node < 495,
        "a built 10k simulator holds {per_node} bytes per node — did a per-node copy come back?"
    );
}

#[test]
fn stochastic_traffic_models_add_no_per_packet_allocations() {
    // Poisson/on-off gaps are drawn in place from each flow's own RNG
    // stream: the only extra heap traffic a non-CBR run may add over CBR
    // is construction-time (the per-flow RNG state lives inline in the
    // Flow). The budget matches the CBR test's ceiling — if arrival
    // draws ever start allocating per packet, the thousands of extra
    // packets blow straight through it.
    for model in
        [TrafficModel::Poisson, TrafficModel::OnOffBurst { mean_on_s: 5.0, mean_off_s: 5.0 }]
    {
        let mut scenario = presets::small_network(stacks::titan_pc(), 4.0, 1);
        scenario.flows = scenario.flows.with_model(model.clone());
        scenario.duration = SimDuration::from_secs(60);
        let warm = Simulator::new(&scenario).run();
        assert!(warm.data_sent > 0);

        let before = thread_allocs();
        let m = Simulator::new(&scenario).run();
        let allocs = thread_allocs() - before;
        assert!(m.data_sent > 100, "{model:?} must carry traffic: {}", m.data_sent);
        eprintln!("ALLOC_COUNT[{model:?}]={allocs}");
        assert!(
            allocs < 5_000,
            "{model:?} run allocated {allocs} times — arrival draws must stay allocation-free"
        );
    }
}
