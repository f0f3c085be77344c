//! The event queue is sized from the scenario in `Simulator::new`. On
//! the heap backend steady-state scheduling never reallocates: across
//! representative stacks, sizes and mobility settings, the heap's
//! capacity after a full run must equal its capacity before the first
//! event — while `scheduled_total` confirms the run actually pushed
//! orders of magnitude more events through it than the queue ever held
//! at once. The timing wheel reserves nothing and grows instead, so its
//! capacity must end near what the run actually held.

use eend_sim::SimDuration;
use eend_wireless::{presets, stacks, Simulator};

#[test]
fn event_queue_never_reallocates_in_steady_state() {
    let scenarios = vec![
        ("small/titan", presets::small_network(stacks::titan_pc(), 4.0, 3)),
        ("small/dsr-active", presets::small_network(stacks::dsr_active(), 6.0, 5)),
        ("small/dsdvh", presets::small_network(stacks::dsdvh_odpm(), 4.0, 2)),
        ("mobility/100", presets::mobility_bench(stacks::titan_pc(), 100, 1)),
        ("large/titan", presets::large_network(stacks::titan_pc(), 4.0, 1)),
    ];
    for (name, mut scenario) in scenarios {
        scenario.duration = scenario.duration.min(SimDuration::from_secs(40));
        let (metrics, stats) = Simulator::new(&scenario).run_with_stats();
        assert!(metrics.data_sent > 0, "{name}: vacuous run");
        assert_eq!(
            stats.capacity, stats.initial_capacity,
            "{name}: event queue reallocated (peak {} vs initial capacity {})",
            stats.peak_len, stats.initial_capacity
        );
        assert!(
            stats.peak_len <= stats.initial_capacity,
            "{name}: peak {} exceeded capacity {}",
            stats.peak_len,
            stats.initial_capacity
        );
        assert!(
            stats.scheduled_total > stats.peak_len as u64 * 4,
            "{name}: scheduled_total {} too small to prove reuse (peak {})",
            stats.scheduled_total,
            stats.peak_len
        );
    }
}

#[test]
fn wheel_capacity_follows_the_events_in_flight() {
    // The estimate (16 slots per node) once pre-sized the wheel too:
    // 65,536 slots for a run that never held 1,800 events at once. The
    // wheel's `ready` heap and same-instant FIFO each at most double past
    // the most they held, and that is at most `peak_len` apiece.
    let scenario = presets::mobility1k(stacks::titan_pc(), 1);
    let (metrics, stats) = Simulator::new(&scenario).run_with_stats();
    assert!(metrics.data_sent > 0, "vacuous run");
    eprintln!("WHEEL[mobility1k] capacity={} peak_len={}", stats.capacity, stats.peak_len);
    assert!(stats.is_wheel_backend, "1k nodes must select the timing wheel");
    assert!(
        stats.capacity <= 4 * stats.peak_len + 64,
        "wheel capacity {} is out of proportion to its peak of {} pending events",
        stats.capacity,
        stats.peak_len
    );
}
