//! Disk power-management policies for the SDDS reproduction.
//!
//! Section II of the paper describes four hardware power-saving strategies,
//! all of which this crate implements on top of the passive disk model in
//! `sdds-disk`:
//!
//! * **Simple** spin-down ([`SimpleSpinDown`]) — spin down after a fixed
//!   idleness timeout, spin back up on the next request.
//! * **Prediction-based** spin-down ([`PredictiveSpinDown`]) — predict the
//!   coming idle period from recent history, spin down immediately when the
//!   prediction justifies it, and spin up ahead of the predicted end to
//!   hide the spin-up latency.
//! * **History-based** multi-speed ([`HistoryBasedMultiSpeed`]) — predict
//!   the idle length and move to the most energy-profitable RPM level,
//!   returning to full speed ahead of the predicted end.
//! * **Staggered** multi-speed ([`StaggeredMultiSpeed`]) — step down one
//!   speed level for every additional timeout of observed idleness, ramping
//!   straight back to full speed when the next request arrives.
//!
//! [`NoPm`] is the paper's *Default Scheme* (no power management), used as
//! the normalization baseline in every figure.
//!
//! Beyond the paper's hardware strategies, the crate carries the
//! *software-directed* side of the reproduction on the same runtime: the
//! [`TableLookup`] policy replays per-node idle forecasts distilled from a
//! compiled schedule, and the online family ([`OnlineMultiSpeed`],
//! [`HybridPolicy`]) learns the same signals from the live request stream
//! for workloads no compiler sees.
//!
//! Every strategy implements one trait, [`EnergyPolicy`]: it consumes
//! [`PolicyEvent`]s (idleness edges, timer fires, request arrivals) and
//! emits [`PowerDirective`]s plus a [`TimerDirective`] into a [`Decision`]
//! buffer. The [`PoweredArray`] driver owns an I/O node's disk array plus
//! a boxed policy, translates the kernel's event stream into policy
//! events, and applies whatever the policy decides — the node-level
//! control loop the paper describes in §II.
//!
//! # Example
//!
//! ```
//! use sdds_disk::{DiskParams, DiskRequest, RequestKind};
//! use sdds_power::{PolicyKind, PoweredArray};
//! use simkit::{SimDuration, SimTime};
//!
//! let params = DiskParams::paper_defaults();
//! let mut node = PoweredArray::new(params, 1, PolicyKind::simple_spin_down_default())
//!     .expect("paper defaults are valid");
//! node.submit(0, DiskRequest::new(0, RequestKind::Read, 0, 64), SimTime::ZERO);
//! node.finish(SimTime::ZERO + SimDuration::from_secs(120));
//! // After a long idle stretch the simple policy has spun the node down.
//! assert!(node.disks()[0].counters().spin_downs > 0);
//! ```

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![warn(missing_debug_implementations)]

pub mod analysis;
mod decide;
mod driver;
mod error;
mod multi_speed;
mod no_pm;
mod online;
mod policy;
mod predictor;
pub mod scene;
mod spin_down;
mod table;

pub use decide::{
    node_idle, Decision, EnergyPolicy, PolicyEvent, PolicySnapshot, PowerDirective, TimerDirective,
};
pub use driver::PoweredArray;
pub use error::PolicyError;
pub use multi_speed::{HistoryBasedMultiSpeed, StaggeredMultiSpeed};
pub use no_pm::NoPm;
pub use online::{HybridPolicy, OnlineMultiSpeed};
pub use policy::{PolicyContext, PolicyKind};
pub use predictor::IdlePredictor;
pub use spin_down::{PredictiveSpinDown, SimpleSpinDown};
pub use table::TableLookup;
