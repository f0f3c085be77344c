//! Deterministic discrete-event simulation engine for the `eend` workspace.
//!
//! This crate provides the minimal substrate every other `eend` crate builds
//! on: a nanosecond-resolution simulation clock ([`SimTime`] /
//! [`SimDuration`]), a stable event queue ([`EventQueue`], one binary heap
//! plus a same-instant FIFO) whose pop order is fully deterministic (ties
//! broken by insertion sequence), a fast reproducible random number
//! generator ([`SimRng`], Xoshiro256++ seeded via SplitMix64), and a [`LazyTimer`] helper implementing the
//! refresh-without-reschedule idiom used by keep-alive timers such as ODPM's.
//!
//! Determinism is a design requirement, not an afterthought: the paper's
//! evaluation reports means and 95 % confidence intervals over seeded runs,
//! and reproducing a figure requires that the same seed always yields the
//! same trajectory. Nothing in this crate consults wall-clock time, thread
//! identity or hash-map iteration order.
//!
//! # Example
//!
//! ```
//! use eend_sim::{EventQueue, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping, Pong }
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::from_millis(10), Ev::Pong);
//! q.schedule(SimTime::from_millis(5), Ev::Ping);
//!
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!((t, ev), (SimTime::from_millis(5), Ev::Ping));
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!((t, ev), (SimTime::from_millis(10), Ev::Pong));
//! assert!(q.pop().is_none());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod hash;
pub mod queue;
pub mod rng;
pub mod time;
pub mod timer;

pub use hash::{FxHashMap, FxHashSet, FxHasher};
pub use queue::EventQueue;
pub use rng::{mix_seed, SimRng};
pub use time::{SimDuration, SimTime};
pub use timer::{LazyTimer, TimerFire};
