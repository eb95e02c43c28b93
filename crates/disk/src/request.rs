//! Disk request types.

use simkit::SimTime;

/// Identifier correlating a submitted request with its completion record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "req#{}", self.0)
    }
}

/// Whether a request reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// Data flows from the platter to the host.
    Read,
    /// Data flows from the host to the platter.
    Write,
}

impl RequestKind {
    /// Returns `true` for reads.
    pub fn is_read(self) -> bool {
        matches!(self, RequestKind::Read)
    }
}

/// A block-level request addressed to one disk.
///
/// # Example
///
/// ```
/// use sdds_disk::{DiskRequest, RequestKind};
///
/// let r = DiskRequest::new(1, RequestKind::Read, 4_096, 128);
/// assert_eq!(r.sectors, 128);
/// assert!(r.kind.is_read());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskRequest {
    /// Correlation id chosen by the submitter.
    pub id: RequestId,
    /// Read or write.
    pub kind: RequestKind,
    /// Starting logical block address (sector number).
    pub lba: u64,
    /// Number of contiguous sectors.
    pub sectors: u32,
}

impl DiskRequest {
    /// Creates a request.
    ///
    /// # Panics
    ///
    /// Panics if `sectors` is zero.
    pub fn new(id: u64, kind: RequestKind, lba: u64, sectors: u32) -> Self {
        assert!(sectors > 0, "a disk request must cover at least one sector");
        DiskRequest {
            id: RequestId(id),
            kind,
            lba,
            sectors,
        }
    }

    /// Total bytes moved by this request given a sector size.
    pub fn bytes(&self, sector_bytes: u32) -> u64 {
        self.sectors as u64 * sector_bytes as u64
    }
}

/// How a request's service attempt ended.
///
/// With no fault model installed every completion is
/// [`ServiceOutcome::Ok`]; the fault model can fail *reads* (writes
/// always land — the simulated array models read-path faults). A failed
/// attempt still consumed the full mechanical service time and energy:
/// the platters spun and the arm moved, the data just did not survive
/// the trip.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ServiceOutcome {
    /// The data moved successfully.
    #[default]
    Ok,
    /// A retryable read error (ECC hiccup, vibration): the same sectors
    /// may well succeed on a later attempt.
    TransientError,
    /// The read overlapped an unremapped bad sector; it fails
    /// deterministically until the range is remapped.
    BadSector,
}

impl ServiceOutcome {
    /// Returns `true` when the attempt succeeded.
    pub fn is_ok(self) -> bool {
        matches!(self, ServiceOutcome::Ok)
    }
}

/// A request that has finished service, with its timing breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedRequest {
    /// The original request.
    pub request: DiskRequest,
    /// When the request arrived at the disk.
    pub arrival: SimTime,
    /// When service (seek) began.
    pub service_start: SimTime,
    /// When the last byte moved.
    pub completion: SimTime,
    /// How the attempt ended (always [`ServiceOutcome::Ok`] without a
    /// fault model).
    pub outcome: ServiceOutcome,
}

impl CompletedRequest {
    /// Total time from arrival to completion (queueing + service).
    pub fn response_time(&self) -> simkit::SimDuration {
        self.completion - self.arrival
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_computation() {
        let r = DiskRequest::new(0, RequestKind::Write, 0, 8);
        assert_eq!(r.bytes(512), 4_096);
    }

    #[test]
    #[should_panic(expected = "at least one sector")]
    fn zero_sectors_panics() {
        let _ = DiskRequest::new(0, RequestKind::Read, 0, 0);
    }

    #[test]
    fn completion_timing() {
        let c = CompletedRequest {
            request: DiskRequest::new(7, RequestKind::Read, 10, 1),
            arrival: SimTime::from_micros(100),
            service_start: SimTime::from_micros(150),
            completion: SimTime::from_micros(400),
            outcome: ServiceOutcome::Ok,
        };
        assert_eq!(c.response_time().as_micros(), 300);
        assert!(c.outcome.is_ok());
        assert!(!ServiceOutcome::TransientError.is_ok());
        assert!(!ServiceOutcome::BadSector.is_ok());
        assert_eq!(ServiceOutcome::default(), ServiceOutcome::Ok);
    }
}
