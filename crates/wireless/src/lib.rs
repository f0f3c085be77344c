//! Packet-level wireless ad hoc network simulator — the ns-2 substitute
//! for reproducing Sengul & Kravets (ICDCS 2007).
//!
//! The crate provides everything the paper's Section 5.2 evaluation runs
//! on:
//!
//! - a transaction-level **802.11 MAC** (carrier sense, RTS/CTS/DATA/ACK,
//!   exponential backoff, hidden-terminal collisions) at 2 Mb/s
//!   ([`mac`], [`channel`]);
//! - **IEEE 802.11 PSM** with synchronized 0.3 s beacons and a 0.02 s ATIM
//!   window, plus the Span-style advertised-traffic-window improvement
//!   ([`power`]);
//! - **ODPM** keep-alive power management and the **TITAN** backbone bias
//!   ([`power`], [`routing`]);
//! - **routing protocols**: DSR, MTPR, MTPR+, DSRH (rate/no-rate) as one
//!   reactive engine parameterised by link metric, and DSDV/DSDVH as a
//!   proactive engine ([`routing`]);
//! - **traffic models** — CBR (the paper's workload), Poisson, and bursty
//!   on/off arrivals at the same offered rate ([`traffic`]);
//! - **heterogeneous radios** — per-node card assignments for mixed
//!   hardware deployments ([`scenario::CardAssignment`],
//!   [`scenario::radio_profiles`]);
//! - **scenario presets** for each of the paper's setups ([`presets`]);
//!   a run's frozen routes ([`RunMetrics::routes`]) feed the fluid
//!   `eend-core::evaluate` behind Figs 13–16.
//!
//! # Example
//!
//! ```
//! use eend_wireless::{presets, stacks, Simulator};
//!
//! // A small (paper §5.2.1) network at 4 Kbit/s under TITAN-PC — shrunk
//! // here to keep the doctest fast.
//! let mut scenario = presets::small_network(stacks::titan_pc(), 4.0, 1);
//! scenario.duration = eend_sim::SimDuration::from_secs(40);
//! let metrics = Simulator::new(&scenario).run();
//! assert!(metrics.data_sent > 0);
//! assert!(metrics.delivery_ratio() <= 1.0);
//! ```

#![warn(missing_docs)]

pub mod channel;
pub mod frame;
pub mod mac;
pub mod metrics;
pub mod mobility;
pub mod power;
pub mod presets;
pub mod routing;
pub mod runner;
pub mod scenario;
pub mod topology;
pub mod traffic;

pub use channel::Channel;
pub use frame::{Frame, NodeId, Packet, PacketKind};
pub use metrics::RunMetrics;
pub use mobility::Mobility;
pub use power::{PmMode, PowerPolicy, PsmConfig, TitanConfig};
pub use routing::{DsdvConfig, ReactiveConfig, RouteMetric, StaticConfig, StaticRouting};
pub use runner::{QueueStats, Simulator};
pub use scenario::{radio_profiles, stacks, CardAssignment, ProtocolStack, RoutingKind, Scenario};
pub use topology::Placement;
pub use traffic::{Flow, FlowSource, FlowSpec, TrafficModel};
