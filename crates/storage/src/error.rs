//! Typed errors for storage-layer construction and validation.

use sdds_power::PolicyError;

use crate::node_set::NodeSet;
use crate::raid::RaidLevel;

/// An invalid storage configuration, reported during construction instead
/// of at first use.
///
/// Every variant carries the offending values so callers (and the `repro`
/// CLI) can render a diagnostic that names the field and its constraint.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum StorageError {
    /// The stripe size is zero.
    ZeroStripe,
    /// The I/O node count is outside `1..=`[`NodeSet::MAX_NODES`].
    NodeCount {
        /// The rejected node count.
        io_nodes: usize,
    },
    /// The RAID block size is zero or not a multiple of the sector size.
    BlockNotSectorMultiple {
        /// Block size in bytes.
        block_bytes: u64,
        /// Sector size in bytes.
        sector_bytes: u32,
    },
    /// The RAID block holds more sectors than a disk request can cover
    /// (`u32::MAX`).
    BlockSectors {
        /// Block size in bytes.
        block_bytes: u64,
        /// Sector size in bytes.
        sector_bytes: u32,
    },
    /// The member-disk count is invalid for the RAID level.
    RaidDisks {
        /// The RAID organization.
        level: RaidLevel,
        /// The rejected disk count.
        disks: usize,
    },
    /// The storage cache cannot hold even one block.
    CacheCapacity {
        /// Cache capacity in bytes.
        capacity_bytes: u64,
        /// Block size in bytes.
        block_bytes: u64,
    },
    /// The node's power policy or disk parameters were rejected.
    Policy(PolicyError),
    /// A replicated-placement parameter was invalid or the pool could
    /// not hold every replica.
    Placement {
        /// Name of the offending field.
        field: &'static str,
        /// What the field must satisfy.
        reason: &'static str,
    },
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::ZeroStripe => f.write_str("stripe size must be positive"),
            StorageError::NodeCount { io_nodes } => write!(
                f,
                "I/O node count must be in 1..={}, got {io_nodes}",
                NodeSet::MAX_NODES
            ),
            StorageError::BlockNotSectorMultiple {
                block_bytes,
                sector_bytes,
            } => write!(
                f,
                "block size {block_bytes} must be a positive multiple of the sector size {sector_bytes}"
            ),
            StorageError::BlockSectors {
                block_bytes,
                sector_bytes,
            } => write!(
                f,
                "block size {block_bytes} holds more than {} sectors of {sector_bytes} B",
                u32::MAX
            ),
            StorageError::RaidDisks { level, disks } => match level {
                RaidLevel::Single => {
                    write!(f, "a single-disk node has exactly one disk, got {disks}")
                }
                RaidLevel::Raid5 => write!(f, "RAID-5 needs >= 3 disks, got {disks}"),
                RaidLevel::Raid10 => {
                    write!(f, "RAID-10 needs an even disk count >= 2, got {disks}")
                }
            },
            StorageError::CacheCapacity {
                capacity_bytes,
                block_bytes,
            } => write!(
                f,
                "cache capacity ({capacity_bytes} B) must hold at least one {block_bytes} B block"
            ),
            StorageError::Policy(e) => write!(f, "power configuration rejected: {e}"),
            StorageError::Placement { field, reason } => {
                write!(f, "placement: {field} {reason}")
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Policy(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PolicyError> for StorageError {
    fn from(e: PolicyError) -> Self {
        StorageError::Policy(e)
    }
}
