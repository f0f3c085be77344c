//! The event queue starts empty and grows to what a run holds. Across
//! representative stacks, sizes and mobility settings, its capacity after
//! a full run must stay within a small factor of the most events pending
//! at once — while `scheduled_total` confirms the run pushed many times
//! more events through it than it ever held, so the space is reused
//! rather than grown per event.

use eend_sim::SimDuration;
use eend_wireless::{presets, stacks, Simulator};

#[test]
fn event_queue_capacity_follows_the_events_in_flight() {
    let scenarios = vec![
        ("small/titan", presets::small_network(stacks::titan_pc(), 4.0, 3)),
        ("small/dsr-active", presets::small_network(stacks::dsr_active(), 6.0, 5)),
        ("small/dsdvh", presets::small_network(stacks::dsdvh_odpm(), 4.0, 2)),
        ("mobility/100", presets::mobility_bench(stacks::titan_pc(), 100, 1)),
        ("large/titan", presets::large_network(stacks::titan_pc(), 4.0, 1)),
        ("mobility1k", presets::mobility1k(stacks::titan_pc(), 1)),
    ];
    for (name, mut scenario) in scenarios {
        scenario.duration = scenario.duration.min(SimDuration::from_secs(40));
        let (metrics, stats) = Simulator::new(&scenario).run_with_stats();
        assert!(metrics.data_sent > 0, "{name}: vacuous run");
        eprintln!(
            "QUEUE[{name}] capacity={} peak_len={} scheduled_total={}",
            stats.capacity, stats.peak_len, stats.scheduled_total
        );
        // The heap and the same-instant FIFO each at most double past
        // the most they held, and that is at most `peak_len` apiece; the
        // FIFO rarely holds more than a handful.
        assert!(
            stats.capacity <= 2 * stats.peak_len + 64,
            "{name}: capacity {} is out of proportion to its peak of {} pending events",
            stats.capacity,
            stats.peak_len
        );
        assert!(
            stats.scheduled_total > stats.peak_len as u64 * 4,
            "{name}: scheduled_total {} too small to prove reuse (peak {})",
            stats.scheduled_total,
            stats.peak_len
        );
    }
}
