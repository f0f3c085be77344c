//! Design-space search for energy-efficient network design — the
//! "design↔simulate loop" closing Sengul & Kravets' pipeline.
//!
//! The constructive heuristics in `eend-core` each emit one design. This
//! crate treats them as *starting points* and searches the neighbourhood:
//!
//! - [`search::multistart`] — deterministic first-improvement hill
//!   climbing from every heuristic;
//! - [`search::anneal`] — simulated annealing with a seed-keyed RNG, so
//!   every run replays bit-identically;
//! - moves: per-demand route swaps via Yen's k-shortest paths, relay
//!   sleep/wake toggles.
//!
//! Candidates are scored through an [`oracle::EvalOracle`]:
//!
//! - [`oracle::FluidOracle`] — the closed-form fluid evaluator (fast,
//!   exact for the model);
//! - [`oracle::SimOracle`] — the packet-level 802.11 simulator running the
//!   candidate's routes verbatim through a fixed-route stack, averaged
//!   over seeds on the shared campaign worker pool.
//!
//! Either oracle can be wrapped in a [`cache::CachedOracle`]: scores are
//! memoized on disk keyed by [`fingerprint::design_fingerprint`], so
//! re-running an identical search executes **zero** duplicate evaluations
//! while producing a byte-identical trace (budgets count evaluation
//! *requests*, not executions).

#![warn(missing_docs)]

pub mod cache;
pub mod fingerprint;
pub mod instances;
pub mod oracle;
pub mod search;

pub use cache::{CachedOracle, EvalCache};
pub use eend_sim::hash::Fnv1a;
pub use fingerprint::{design_fingerprint, problem_fingerprint};
pub use oracle::{EvalOracle, FluidOracle, Objective, Score, SimOracle};
pub use search::{anneal, multistart, SearchOpts, SearchResult, TraceEvent};
