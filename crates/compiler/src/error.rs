//! Typed errors for compiler-pass validation.

use crate::ir::ProgramError;

/// An error raised while validating or running the compiler passes (trace
/// extraction, slack analysis, scheduling).
///
/// Every variant carries the offending values so callers can render a
/// diagnostic that names the field and its constraint.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CompileError {
    /// The program itself is malformed (structural error, out-of-bounds
    /// access, unsupported size).
    Program(ProgramError),
    /// A scheduler knob is outside its documented range.
    Scheduler {
        /// The offending configuration field.
        field: &'static str,
        /// The rejected value, rendered for the diagnostic.
        value: u64,
        /// Human-readable constraint, e.g. `">= 1"`.
        constraint: &'static str,
    },
    /// A table-based weight function is empty or contains a non-finite
    /// weight.
    Weights {
        /// Index of the offending weight, or `None` for an empty table.
        index: Option<usize>,
    },
    /// The trace has no scheduling slots, so nothing can be placed.
    EmptyTrace,
    /// An access references a process outside the trace.
    ProcOutOfRange {
        /// The offending process rank.
        proc: usize,
        /// Number of processes in the trace.
        nprocs: usize,
    },
    /// An access references a slot outside the trace.
    SlotOutOfRange {
        /// The offending slot.
        slot: u32,
        /// The trace's slot count.
        total_slots: u32,
    },
    /// An access's index is outside the list of accesses to schedule.
    AccessIndexOutOfRange {
        /// The offending index.
        index: usize,
        /// Number of accesses in the list.
        count: usize,
    },
    /// Two accesses to schedule claim the same index.
    DuplicateAccessIndex {
        /// The duplicated index.
        index: usize,
    },
    /// An access contradicts itself or the other accesses: its slack
    /// begins after it ends, or its signature ranges over a different
    /// number of I/O nodes than the first access's.
    MalformedAccess {
        /// Index of the offending access.
        index: usize,
        /// The offending field, e.g. `"begin"`.
        field: &'static str,
        /// The rejected value.
        value: u64,
        /// How the value must relate to `limit`.
        constraint: &'static str,
        /// The value the constraint refers to.
        limit: u64,
    },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Program(e) => write!(f, "invalid program: {e}"),
            CompileError::Scheduler {
                field,
                value,
                constraint,
            } => write!(
                f,
                "scheduler knob `{field}` must be {constraint}, got {value}"
            ),
            CompileError::Weights { index: Some(i) } => {
                write!(
                    f,
                    "weight table entry {i} is not a finite non-negative number"
                )
            }
            CompileError::Weights { index: None } => f.write_str("weight table is empty"),
            CompileError::EmptyTrace => f.write_str("cannot schedule an empty trace"),
            CompileError::ProcOutOfRange { proc, nprocs } => {
                write!(f, "process {proc} out of range (nprocs {nprocs})")
            }
            CompileError::SlotOutOfRange { slot, total_slots } => {
                write!(f, "slot {slot} out of range ({total_slots})")
            }
            CompileError::AccessIndexOutOfRange { index, count } => {
                write!(f, "access index {index} out of range ({count})")
            }
            CompileError::DuplicateAccessIndex { index } => {
                write!(f, "duplicate access index {index}")
            }
            CompileError::MalformedAccess {
                index,
                field,
                value,
                constraint,
                limit,
            } => write!(
                f,
                "access {index}: `{field}` must be {constraint} {limit}, got {value}"
            ),
        }
    }
}

impl std::error::Error for CompileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompileError::Program(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ProgramError> for CompileError {
    fn from(e: ProgramError) -> Self {
        CompileError::Program(e)
    }
}
