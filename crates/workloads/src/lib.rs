//! The six parallel I/O-intensive applications of Table III, as loop-nest
//! program generators.
//!
//! The paper evaluates on hf, sar, astro, apsi, madbench2 and wupwise —
//! out-of-core parallel codes whose sources and inputs are not available
//! to us. What the scheduling framework actually consumes is their loop
//! structure and file-access functions, so each generator here builds a
//! synthetic program whose *shape* matches the published description:
//!
//! * alternating I/O-dense phases and compute-only gaps, sized so that the
//!   disk idle-period distribution without the scheme matches the
//!   character of Fig. 12(a) (hf and madbench2 dominated by very short
//!   idles, the others more spread out);
//! * producer–consumer structure where the real code has it (apsi's
//!   timestep planes, wupwise's fermion fields, madbench2's write-then-
//!   read matrices) so inter-slot slacks exist;
//! * pure input streams where the real code re-reads read-only data (hf's
//!   integral files, wupwise's gauge field, sar's raw frames), giving the
//!   long prefix slacks the scheduler exploits.
//!
//! Every generator takes a process count and a scale factor; [`App`]
//! carries the per-app tuned scale used for the paper-shaped experiments
//! and the published reference numbers of Table III.
//!
//! # Example
//!
//! ```
//! use sdds_workloads::{App, WorkloadScale};
//!
//! let program = App::Sar.program(&WorkloadScale::test());
//! let trace = program.trace(App::Sar.granularity()).unwrap();
//! assert!(trace.io_count() > 0);
//! ```

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![warn(missing_debug_implementations)]

mod apps;
mod matmul;
mod objstore;
pub mod scene;
mod synthetic;

pub use apps::{App, WorkloadScale};
pub use matmul::matrix_multiply;
pub use objstore::{ObjRequest, ObjectStoreSpec};
pub use scene::{scaled_scene, SceneClientSpec, SceneSpec, ScheduleSpec};
pub use synthetic::KeyedWorkloadSpec;
