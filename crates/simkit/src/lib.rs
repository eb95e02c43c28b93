//! Discrete-event simulation core for the SDDS reproduction.
//!
//! This crate provides the time base, event queue, deterministic random
//! number generation and statistics gathering used by every other crate in
//! the workspace:
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution simulated time
//!   with checked arithmetic,
//! * [`EventQueue`] — a stable priority queue of timestamped events with
//!   deterministic FIFO tie-breaking,
//! * [`DetRng`] — a seeded random number generator so that every simulation
//!   run is exactly reproducible, with [`StreamId`]-keyed stream splitting
//!   so independent subsystems can never collide on one stream,
//! * [`fault`] — seed-deterministic disk fault plans (transient errors,
//!   bad sectors, stragglers, crash windows) expanded up front on their
//!   own RNG stream,
//! * [`hash`] — a deterministic fixed-seed FxHash-style hasher for
//!   hot-path maps (identical hashes on every platform and process),
//! * [`kernel`] — the unified event kernel: a slot-based calendar queue
//!   with pluggable same-time arbitration,
//! * [`pool`] — a bounded deterministic thread-pool executor for fanning
//!   out independent simulations (`--jobs` changes wall time, not results),
//! * [`span`] — causal span trees folded from the trace stream: access
//!   roots with parent-linked member requests, exact per-span energy and
//!   an exact latency critical-path decomposition,
//! * [`shard`] — the sharded time-domain kernel: components partitioned
//!   across per-shard calendars advancing in epoch windows with barrier
//!   message exchange in a canonical order, bitwise identical for any
//!   worker count,
//! * [`stats`] — online summaries, bucketed histograms and CDFs used to
//!   reproduce the figures of the paper,
//! * [`telemetry`] — structured trace events, export formats (JSONL and
//!   Chrome `trace_event`) and a named-metrics registry for observing
//!   runs without perturbing them.
//!
//! # Example
//!
//! ```
//! use simkit::{EventQueue, SimTime, SimDuration};
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_millis(5), "b");
//! q.schedule(SimTime::ZERO, "a");
//! let (t, e) = q.pop().unwrap();
//! assert_eq!(t, SimTime::ZERO);
//! assert_eq!(e, "a");
//! ```

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![warn(missing_debug_implementations)]

mod event;
pub mod fault;
pub mod hash;
pub mod kernel;
pub mod pool;
mod rng;
pub mod shard;
pub mod span;
pub mod stats;
pub mod telemetry;
mod time;

pub use event::EventQueue;
pub use rng::{DetRng, StreamId};
pub use time::{SimDuration, SimTime};
