//! Declarative scenario-matrix campaigns on a bounded parallel executor.
//!
//! The paper's Section 5 evaluation is a grid of sweeps — protocol
//! stacks × traffic rates × network sizes × seeds. This crate makes that
//! grid a first-class object:
//!
//! 1. [`CampaignSpec`] declares the axes (stacks, rates, node counts,
//!    mobility speeds, traffic models, radio profiles, node-failure
//!    plans, seeds) and expands their cartesian product into a flat,
//!    deterministically-ordered job list — workload *shape*
//!    ([`eend_wireless::TrafficModel`]) and hardware *mix*
//!    ([`eend_wireless::radio_profiles`]) are sweepable axes, not just
//!    volume;
//! 2. [`Executor`] runs the jobs — serially on the calling thread at one
//!    worker, otherwise on a [`WorkerPool`] it starts for the call,
//!    bounded at `available_parallelism` or any explicit worker count.
//!    Every run is an independent deterministic simulation, and records
//!    **stream** to a [`RecordSink`] in job order through the pool's
//!    claim-gated reorder window, so parallel and serial execution
//!    produce byte-identical [`Record`]s and peak memory is O(window),
//!    not O(jobs);
//! 3. [`CampaignResult`] aggregates cells into
//!    [`eend_stats::Series`] (mean/stddev/95 % CI, incrementally via
//!    [`eend_stats::grouped::StreamingAggregator`]) and exports
//!    structured CSV/JSON — byte-identical whether batched or streamed
//!    through [`CsvSink`]/[`JsonlSink`]; [`Summary`] is the one rule
//!    that lays a campaign's cells out for a figure view (its x axis,
//!    and one cell per combination of the other swept axes);
//! 4. [`ResultStore`] makes a campaign durable and resumable: records
//!    append to fingerprinted JSONL shard stores, re-runs skip completed
//!    jobs, and [`CampaignSpec::shard`] + [`merge_stores`] spread one
//!    grid across machines and reassemble the byte-identical result —
//!    [`merge_stores_streaming`] does the same merge record-by-record
//!    into any sink, so grids larger than RAM still reassemble;
//! 5. [`serve`] runs all of that as a long-lived daemon: specs arrive
//!    over a line-oriented HTTP/JSONL protocol, land in fingerprinted
//!    stores, and identical re-submissions answer from cache;
//! 6. failures are *contained*: a [`FailurePolicy`] turns a panicking
//!    job into a durable [`JobFailure`] (logged to `failures.jsonl`,
//!    re-attempted on resume) instead of a dead campaign, record
//!    appends retry with deterministic [`Backoff`], and the whole stack
//!    is chaos-testable through the `eend_fail` failpoint registry.
//!
//! The `eend-bench` figure binaries, the `eend-cli campaign`
//! subcommand, and the `eend-serve` daemon are thin layers over this
//! crate.
//!
//! # Example
//!
//! ```
//! use eend_campaign::{BaseScenario, CampaignSpec, Executor};
//! use eend_wireless::stacks;
//!
//! let spec = CampaignSpec::new("doc", BaseScenario::Small)
//!     .stacks(vec![stacks::titan_pc(), stacks::dsr_active()])
//!     .rates(vec![4.0])
//!     .seeds(2)
//!     .secs(20);
//! let result = Executor::bounded().run(&spec);
//! assert_eq!(result.records.len(), 4);
//! let series = result.series(|p| p.rate_kbps, |m| m.delivery_ratio());
//! assert_eq!(series.len(), 2);
//! assert_eq!(series[0].points[0].summary.n, 2);
//! ```

#![warn(missing_docs)]

pub mod executor;
pub mod json;
pub mod report;
pub mod serve;
pub mod sink;
pub mod spec;
pub mod store;
pub mod summary;

pub use executor::{Backoff, Executor, FailurePolicy, JobFailure, JobScheduler, WorkerPool};
pub use report::{metric_columns, CampaignResult, MetricColumn, Record};
pub use serve::{ServeConfig, ServerHandle};
pub use sink::{CsvSink, JsonlSink, MemorySink, RecordSink};
pub use spec::{BaseScenario, CampaignSpec, FailurePlan, GridPoint, Job};
pub use store::{
    fingerprint, merge_stores, merge_stores_streaming, write_atomic, Manifest, ResultStore,
    RunOptions, RunOutcome, SpecAxes,
};
pub use summary::{Axis, AxisValue, Summary};
