//! Disk timing and power model for the SDDS reproduction.
//!
//! This crate plays the role DiskSim (augmented with power models) plays in
//! the paper: it simulates a single multi-speed server-class disk with
//!
//! * seek / rotational-latency / transfer timing derived from an explicit
//!   geometry and seek curve ([`params`], [`service`]),
//! * elevator (SCAN) disk-arm scheduling over a request queue
//!   ([`elevator`]),
//! * a power-state machine covering active, idle, spin-down, standby,
//!   spin-up and RPM-change states ([`state`]),
//! * dynamic rotational speed with the quadratic power model of the paper's
//!   Eq. 1 ([`power`]),
//! * per-state energy integration and idle-period statistics ([`energy`],
//!   [`idle`]).
//!
//! The [`Disk`] type is deliberately *passive* with respect to power policy:
//! it exposes control operations (`start_spin_down`, `start_spin_up`,
//! `begin_rpm_change`) and observations, while the policies in `sdds-power`
//! decide when to invoke them.
//!
//! # Example
//!
//! ```
//! use sdds_disk::{Disk, DiskParams, DiskRequest, RequestKind};
//! use simkit::SimTime;
//!
//! let mut disk = Disk::new(DiskParams::paper_defaults()).expect("paper defaults are valid");
//! disk.submit(DiskRequest::new(0, RequestKind::Read, 0, 128), SimTime::ZERO);
//! disk.advance_to(SimTime::from_micros(1_000_000));
//! let done = disk.drain_completions();
//! assert_eq!(done.len(), 1);
//! assert!(disk.energy().total_joules() > 0.0);
//! ```

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![warn(missing_debug_implementations)]

mod disk;
pub mod elevator;
pub mod energy;
pub mod error;
pub mod idle;
pub mod params;
pub mod power;
pub mod request;
pub mod service;
pub mod state;

pub use disk::{CompletedRequest, Disk, DiskCounters, RpmChangePriority};
pub use energy::{EnergyAccount, StateBucket};
pub use error::DiskError;
pub use idle::IdleTracker;
pub use params::{DiskParams, Rpm, SeekModel};
pub use power::SpindlePowerModel;
pub use request::{DiskRequest, RequestId, RequestKind, ServiceOutcome};
pub use state::DiskState;
