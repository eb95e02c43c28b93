//! End-to-end façade for the SDDS reproduction.
//!
//! This crate ties the whole stack together — workload generators,
//! compiler (slack analysis + data access scheduling), runtime scheduler,
//! storage array and power policies — behind one configuration type and
//! one entry point:
//!
//! ```
//! use sdds::{run, SystemConfig};
//! use sdds_power::PolicyKind;
//! use sdds_workloads::{App, WorkloadScale};
//!
//! let mut cfg = SystemConfig::paper_defaults();
//! cfg.scale = WorkloadScale::test();
//! cfg.policy = PolicyKind::history_based_default();
//! cfg.scheme_enabled = true;
//! let outcome = run(App::Madbench2, &cfg).expect("valid configuration");
//! assert!(outcome.result.energy_joules > 0.0);
//! ```
//!
//! Configurations are validated before anything runs; invalid ones come
//! back as typed errors ([`error::SddsError`]) with per-class exit codes:
//!
//! ```
//! use sdds::SystemConfig;
//!
//! let mut cfg = SystemConfig::paper_defaults();
//! cfg.io_nodes = 0;
//! let err = cfg.validate().unwrap_err();
//! assert!(err.to_string().contains("I/O node count"));
//! ```
//!
//! The [`experiments`] module regenerates every table and figure of the
//! paper's evaluation (§V); see DESIGN.md for the experiment index and
//! EXPERIMENTS.md for paper-vs-measured numbers.

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![warn(missing_debug_implementations)]

pub mod cache;
mod config;
pub mod error;
pub mod experiments;
pub mod metrics;
pub mod online;
pub mod scale;

pub use config::{run, run_program, run_trace, run_with, Outcome, SystemConfig};
pub use error::{CellFailure, ConfigError, ExperimentError, SddsError};
pub use online::{run_mode, table_policy_for, OnlineMode};
pub use scale::{run_scale, run_scale_observed, ScaleSceneConfig};
pub use sdds_runtime::{DiskSummary, TelemetryReport};
pub use simkit::telemetry::{MetricsRegistry, TraceEvent};
