//! The optimizing compiler of the SDDS framework (§IV of the paper).
//!
//! The paper's compiler pass runs after code and I/O parallelization and
//! performs two steps:
//!
//! 1. **Access slack determination** — for every I/O call, find the region
//!    of loop iterations within which the access may be performed: from
//!    just after the producing write to the consuming read ([`slack`]).
//!    The trace ([`trace`]) enumerates every I/O instance with its byte
//!    range, and an interval index over the writes finds each read's
//!    producer, for affine and non-affine programs alike.
//! 2. **Data access scheduling** — place each access at an iteration inside
//!    its slack so as to maximize horizontal and vertical I/O-node reuse,
//!    quantified through access signatures and the distance metric of
//!    §IV-B ([`signature`], [`reuse`], [`schedule`]).
//!
//! The input is a loop-nest intermediate representation ([`ir`]) standing
//! in for the Phoenix infrastructure the paper instruments: the analyses
//! only ever need loop structure and affine file-access functions, which
//! the IR captures directly.
//!
//! # Example
//!
//! ```
//! use sdds_compiler::ir::{IoDirection, Program};
//! use sdds_compiler::{analyze_slacks, SchedulerConfig, SlotGranularity};
//! use sdds_storage::{FileId, StripingLayout};
//!
//! // A two-process program: each process reads 64 KB blocks of one file.
//! let mut p = Program::new("quickstart", 2);
//! let file = p.add_file(FileId(0), 16 * 64 * 1024);
//! p.push_loop("i", 0, 7, |b| {
//!     // offset = 64KB * (i + 8p): each process scans its own half.
//!     b.io(IoDirection::Read, file, |e| {
//!         e.term("i", 64 * 1024).term("p", 8 * 64 * 1024)
//!     }, 64 * 1024);
//! });
//! let layout = StripingLayout::paper_defaults();
//! let trace = p.trace(SlotGranularity::unit()).expect("valid program");
//! let accesses = analyze_slacks(&trace, &layout).expect("consistent trace");
//! let table = SchedulerConfig::paper_defaults()
//!     .schedule(&accesses, &trace)
//!     .expect("valid scheduler configuration");
//! assert_eq!(table.scheduled_count(), accesses.len());
//! ```

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![warn(missing_debug_implementations)]

pub mod affine;
mod error;
pub mod ir;
pub mod reuse;
pub mod schedule;
pub mod signature;
pub mod slack;
pub mod trace;

pub use error::CompileError;
pub use schedule::{ScheduleTable, ScheduledIo, SchedulerConfig};
pub use signature::Signature;
pub use slack::{analyze_slacks, SchedulableAccess};
pub use trace::{IoInstance, ProcessTrace, ProgramTrace, SlotGranularity};
