//! Idle-period tracking.
//!
//! An *idle period* in the paper's sense is the wall-clock interval between
//! a disk becoming free of work (its queue empties and the last request
//! completes) and the arrival of the next request. The lengths of these
//! periods — not the power states the policy happens to choose during them —
//! are what Fig. 12(a)/(b) plot, so the tracker observes the request stream
//! rather than the power-state machine.

use simkit::stats::BucketHistogram;
use simkit::{SimDuration, SimTime};

/// Records disk idle-period lengths into the paper's CDF buckets.
///
/// # Example
///
/// ```
/// use sdds_disk::IdleTracker;
/// use simkit::SimTime;
///
/// let mut t = IdleTracker::new();
/// t.work_finished(SimTime::from_micros(1_000));
/// t.work_arrived(SimTime::from_micros(61_000)); // 60 ms idle period
/// assert_eq!(t.histogram().total(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct IdleTracker {
    histogram: BucketHistogram,
    idle_since: Option<SimTime>,
    total_idle: SimDuration,
}

impl IdleTracker {
    /// Creates a tracker using the paper's Fig. 12 bucket edges.
    ///
    /// The disk starts idle at time zero.
    pub fn new() -> Self {
        IdleTracker {
            histogram: BucketHistogram::paper_idle_buckets(),
            idle_since: Some(SimTime::ZERO),
            total_idle: SimDuration::ZERO,
        }
    }

    /// Notes that the disk ran out of work at `t` (queue empty, last request
    /// complete). Ignored if already idle.
    pub fn work_finished(&mut self, t: SimTime) {
        if self.idle_since.is_none() {
            self.idle_since = Some(t);
        }
    }

    /// Notes that work arrived at `t`, closing any open idle period.
    pub fn work_arrived(&mut self, t: SimTime) {
        if let Some(start) = self.idle_since.take() {
            let len = t.saturating_since(start);
            if !len.is_zero() {
                self.histogram.record(len);
                self.total_idle += len;
            }
        }
    }

    /// Closes the final idle period at end-of-simulation time `t`, if one is
    /// open.
    pub fn finish(&mut self, t: SimTime) {
        self.work_arrived(t);
    }

    /// The bucketed histogram of completed idle periods (period counts —
    /// the population Fig. 12 plots).
    pub fn histogram(&self) -> &BucketHistogram {
        &self.histogram
    }

    /// Sum of all completed idle-period lengths.
    pub fn total_idle(&self) -> SimDuration {
        self.total_idle
    }
}

impl Default for IdleTracker {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn starts_idle_at_zero() {
        let mut tr = IdleTracker::new();
        tr.work_arrived(t(5_000));
        assert_eq!(tr.histogram().total(), 1);
        assert_eq!(tr.total_idle(), SimDuration::from_millis(5));
    }

    #[test]
    fn tracks_multiple_periods() {
        let mut tr = IdleTracker::new();
        tr.work_arrived(t(1_000));
        tr.work_finished(t(2_000));
        tr.work_arrived(t(52_000)); // 50 ms
        tr.work_finished(t(60_000));
        tr.finish(t(1_060_000)); // 1 s final period
        assert_eq!(tr.histogram().total(), 3);
        assert_eq!(
            tr.total_idle(),
            SimDuration::from_micros(1_000 + 50_000 + 1_000_000)
        );
    }

    #[test]
    fn double_finish_is_idempotent() {
        let mut tr = IdleTracker::new();
        tr.work_finished(t(10));
        tr.work_finished(t(99)); // ignored; still idle since 0
        tr.work_arrived(t(100));
        assert_eq!(tr.total_idle(), SimDuration::from_micros(100));
    }

    #[test]
    fn back_to_back_arrivals_record_nothing_extra() {
        let mut tr = IdleTracker::new();
        tr.work_arrived(t(10));
        tr.work_arrived(t(20)); // no open period
        assert_eq!(tr.histogram().total(), 1);
    }

    #[test]
    fn zero_length_period_not_recorded() {
        let mut tr = IdleTracker::new();
        tr.work_arrived(t(0));
        assert_eq!(tr.histogram().total(), 0);
        // The arrival closed the open period: the next one starts when
        // work next finishes, not at time zero.
        tr.work_finished(t(10));
        tr.work_arrived(t(30));
        assert_eq!(tr.total_idle(), SimDuration::from_micros(20));
    }
}
