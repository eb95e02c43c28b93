//! Typed validation errors for power-policy configurations.

use sdds_disk::{DiskError, Rpm};
use std::fmt;

/// A violated power-policy constraint.
///
/// Produced by [`PolicyKind::validate`](crate::PolicyKind::validate) and
/// the policy constructors; [`fmt::Display`] renders the one-line form
/// used by the CLI, and [`std::error::Error::source`] exposes the wrapped
/// [`DiskError`] when disk parameters are at fault.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PolicyError {
    /// A numeric tuning knob is outside its documented range.
    Knob {
        /// Display name of the policy ("prediction-based", ...).
        policy: &'static str,
        /// Name of the offending field.
        field: &'static str,
        /// The rejected value.
        value: f64,
        /// Human-readable range constraint, e.g. `"(0, 1]"`.
        constraint: &'static str,
    },
    /// A multi-speed policy was paired with a single-speed disk.
    NeedsMultiSpeed {
        /// Display name of the policy.
        policy: &'static str,
        /// The disk's (single) minimum speed.
        min_rpm: Rpm,
        /// The disk's maximum speed.
        max_rpm: Rpm,
    },
    /// A node was configured with zero disks.
    NoDisks,
    /// The underlying disk parameters are invalid.
    Disk(DiskError),
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyError::Knob {
                policy,
                field,
                value,
                constraint,
            } => write!(
                f,
                "policy `{policy}`: `{field}` must be in {constraint}, got {value}"
            ),
            PolicyError::NeedsMultiSpeed {
                policy,
                min_rpm,
                max_rpm,
            } => write!(
                f,
                "policy `{policy}` needs a multi-speed disk, but the disk only spins at \
                 {min_rpm}..={max_rpm}"
            ),
            PolicyError::NoDisks => write!(f, "an I/O node needs at least one disk"),
            PolicyError::Disk(e) => write!(f, "invalid disk parameters: {e}"),
        }
    }
}

/// Rejects a tuning knob outside `(0, 1]` with a typed error.
pub(crate) fn check_unit_knob(
    policy: &'static str,
    field: &'static str,
    value: f64,
) -> Result<(), PolicyError> {
    if !value.is_finite() || value <= 0.0 || value > 1.0 {
        return Err(PolicyError::Knob {
            policy,
            field,
            value,
            constraint: "(0, 1]",
        });
    }
    Ok(())
}

impl std::error::Error for PolicyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PolicyError::Disk(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DiskError> for PolicyError {
    fn from(e: DiskError) -> Self {
        PolicyError::Disk(e)
    }
}
