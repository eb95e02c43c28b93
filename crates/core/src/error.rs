//! The workspace-level error hierarchy.
//!
//! Every layer of the stack reports failures through its own typed error
//! — [`StorageError`], [`CompileError`], [`EngineError`] — and this
//! module ties them together under [`SddsError`], the error type of the
//! end-to-end entry points ([`run`](crate::run) and friends). Each
//! variant maps to a distinct process exit code (see
//! [`SddsError::exit_code`]) so scripted callers of the `repro` binary
//! can tell a bad configuration from a compiler rejection from an engine
//! bug without parsing diagnostics.

use std::error::Error;
use std::fmt;

pub use sdds_compiler::CompileError;
pub use sdds_runtime::{EngineError, SceneError};
pub use sdds_storage::StorageError;

/// A rejected [`SystemConfig`](crate::SystemConfig).
///
/// Produced by [`SystemConfig::validate`](crate::SystemConfig::validate),
/// which every entry point runs first; wraps the per-layer validation
/// errors and adds the cross-layer constraints only the full
/// configuration can check.
#[derive(Debug)]
#[non_exhaustive]
pub enum ConfigError {
    /// The storage side (striping, RAID, cache, power policy) was
    /// rejected.
    Storage(StorageError),
    /// The compiler scheduling knobs were rejected.
    Scheduler(CompileError),
    /// The fault-injection spec has an out-of-range parameter.
    Fault(simkit::fault::FaultSpecError),
    /// The client-side prefetch buffer cannot hold even one stripe.
    BufferTooSmall {
        /// Configured buffer capacity in bytes.
        buffer_bytes: u64,
        /// Configured stripe size in bytes.
        stripe_bytes: u64,
    },
    /// The slot granularity has a zero iteration or byte quantum.
    ZeroGranularity,
    /// The workload scale has no client processes.
    ZeroProcs,
    /// A workload scale factor is not a finite positive number.
    BadScaleFactor {
        /// Which factor (`"factor"` or `"gap_factor"`).
        field: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Storage(e) => write!(f, "invalid storage configuration: {e}"),
            ConfigError::Scheduler(e) => write!(f, "invalid scheduler configuration: {e}"),
            ConfigError::Fault(e) => write!(f, "invalid fault-injection spec: {e}"),
            ConfigError::BufferTooSmall {
                buffer_bytes,
                stripe_bytes,
            } => write!(
                f,
                "engine buffer ({buffer_bytes} B) must hold at least one stripe ({stripe_bytes} B)"
            ),
            ConfigError::ZeroGranularity => {
                write!(f, "slot granularity quanta must be positive")
            }
            ConfigError::ZeroProcs => {
                write!(f, "workload scale needs at least one client process")
            }
            ConfigError::BadScaleFactor { field, value } => write!(
                f,
                "workload scale `{field}` must be a finite positive number, got {value}"
            ),
        }
    }
}

impl Error for ConfigError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ConfigError::Storage(e) => Some(e),
            ConfigError::Scheduler(e) => Some(e),
            ConfigError::Fault(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for ConfigError {
    fn from(e: StorageError) -> Self {
        ConfigError::Storage(e)
    }
}

/// Top-level error of the end-to-end entry points.
///
/// The `app` field on the run-time variants names the workload (or
/// merged trace) whose run failed, so multi-cell drivers can attribute
/// failures.
#[derive(Debug)]
#[non_exhaustive]
pub enum SddsError {
    /// The configuration was rejected before anything ran.
    Config(ConfigError),
    /// Tracing or scheduling the workload failed.
    Compile {
        /// The workload being compiled.
        app: String,
        /// The compiler's rejection.
        source: CompileError,
    },
    /// Building the storage array failed.
    Storage {
        /// The workload being set up.
        app: String,
        /// The storage layer's rejection.
        source: StorageError,
    },
    /// The execution engine rejected or aborted the run.
    Engine {
        /// The workload being run.
        app: String,
        /// The engine's error.
        source: EngineError,
    },
    /// A sharded scale-scene run was rejected or aborted.
    Scene {
        /// The scene's scale factor.
        scale: f64,
        /// The scene layer's error.
        source: SceneError,
    },
}

impl SddsError {
    /// The process exit code for this error class: 3 for configuration,
    /// 4 for compile, 5 for storage, 6 for engine errors. (The `repro`
    /// CLI reserves 0 for success, 2 for usage errors, and 1 for
    /// everything else, e.g. I/O failures writing outputs.)
    pub fn exit_code(&self) -> i32 {
        match self {
            SddsError::Config(_) => 3,
            SddsError::Compile { .. } => 4,
            SddsError::Storage { .. } => 5,
            SddsError::Engine { .. } | SddsError::Scene { .. } => 6,
        }
    }
}

impl fmt::Display for SddsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SddsError::Config(e) => write!(f, "configuration rejected: {e}"),
            SddsError::Compile { app, source } => {
                write!(f, "compiling workload `{app}` failed: {source}")
            }
            SddsError::Storage { app, source } => {
                write!(f, "building storage for `{app}` failed: {source}")
            }
            SddsError::Engine { app, source } => {
                write!(f, "running `{app}` failed: {source}")
            }
            SddsError::Scene { scale, source } => {
                write!(f, "running scale-{scale} scene failed: {source}")
            }
        }
    }
}

impl Error for SddsError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SddsError::Config(e) => Some(e),
            SddsError::Compile { source, .. } => Some(source),
            SddsError::Storage { source, .. } => Some(source),
            SddsError::Engine { source, .. } => Some(source),
            SddsError::Scene { source, .. } => Some(source),
        }
    }
}

impl From<ConfigError> for SddsError {
    fn from(e: ConfigError) -> Self {
        SddsError::Config(e)
    }
}

/// One failed cell of an experiment matrix.
#[derive(Debug)]
pub struct CellFailure {
    /// Which cell failed (e.g. `"sar/history-based"`).
    pub label: String,
    /// Why it failed.
    pub error: SddsError,
}

impl fmt::Display for CellFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cell {}: {}", self.label, self.error)
    }
}

/// One or more cells of an experiment matrix failed.
///
/// Drivers in [`experiments`](crate::experiments) run every cell to
/// completion and aggregate the failures, so a single bad cell reports
/// alongside — not instead of — the rest of the matrix's problems.
#[derive(Debug)]
pub struct ExperimentError {
    /// Every failed cell, in matrix order.
    pub failures: Vec<CellFailure>,
}

impl ExperimentError {
    /// The exit code of the most severe failed cell (the maximum of the
    /// per-cell [`SddsError::exit_code`] values).
    pub fn exit_code(&self) -> i32 {
        self.failures
            .iter()
            .map(|f| f.error.exit_code())
            .max()
            .unwrap_or(1)
    }
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} experiment cell(s) failed", self.failures.len())?;
        for failure in &self.failures {
            write!(f, "\n  {failure}")?;
        }
        Ok(())
    }
}

impl Error for ExperimentError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        self.failures
            .first()
            .map(|f| &f.error as &(dyn Error + 'static))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_distinct_per_class() {
        let config = SddsError::Config(ConfigError::ZeroProcs);
        let compile = SddsError::Compile {
            app: "sar".into(),
            source: CompileError::EmptyTrace,
        };
        let storage = SddsError::Storage {
            app: "sar".into(),
            source: StorageError::ZeroStripe,
        };
        let engine = SddsError::Engine {
            app: "sar".into(),
            source: EngineError::ZeroBuffer,
        };
        assert_eq!(config.exit_code(), 3);
        assert_eq!(compile.exit_code(), 4);
        assert_eq!(storage.exit_code(), 5);
        assert_eq!(engine.exit_code(), 6);
    }

    #[test]
    fn display_chains_are_readable() {
        let err = SddsError::Config(ConfigError::Storage(StorageError::ZeroStripe));
        assert_eq!(
            err.to_string(),
            "configuration rejected: invalid storage configuration: stripe size must be positive"
        );
        // The source chain is walkable down to the leaf.
        let mut depth = 0;
        let mut cur: &dyn Error = &err;
        while let Some(next) = cur.source() {
            cur = next;
            depth += 1;
        }
        assert_eq!(depth, 2);
    }

    #[test]
    fn experiment_error_reports_worst_cell() {
        let err = ExperimentError {
            failures: vec![
                CellFailure {
                    label: "sar/simple".into(),
                    error: SddsError::Config(ConfigError::ZeroProcs),
                },
                CellFailure {
                    label: "hf/staggered".into(),
                    error: SddsError::Engine {
                        app: "hf".into(),
                        source: EngineError::Deadlock { blocked: 1 },
                    },
                },
            ],
        };
        assert_eq!(err.exit_code(), 6);
        let msg = err.to_string();
        assert!(msg.starts_with("2 experiment cell(s) failed"));
        assert!(msg.contains("cell sar/simple:"));
        assert!(msg.contains("cell hf/staggered:"));
    }
}
