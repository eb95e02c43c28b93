//! Per-state energy accounting.

use simkit::SimDuration;

use crate::state::DiskState;

/// Every disk-state label in sorted order: bucket `i` of an
/// [`EnergyAccount`] holds the state labelled `LABELS[i]`.
const LABELS: [&str; 7] = [
    "idle",
    "seek",
    "speed-change",
    "spin-down",
    "spin-up",
    "standby",
    "transfer",
];

/// The energy bucket of a disk state: the rank of its
/// [`DiskState::label`] in sorted label order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateBucket(u8);

impl StateBucket {
    /// The bucket `state` accrues into.
    pub fn of(state: &DiskState) -> Self {
        StateBucket(match state {
            DiskState::Idle { .. } => 0,
            DiskState::Seeking { .. } => 1,
            DiskState::ChangingSpeed { .. } => 2,
            DiskState::SpinningDown => 3,
            DiskState::SpinningUp => 4,
            DiskState::Standby => 5,
            DiskState::Transferring { .. } => 6,
        })
    }
}

/// Accumulates energy (joules) and residency (time) per disk-state label.
///
/// One bucket per label, kept in label order with a mask of the buckets
/// that have accrued time, so iteration, totals and merges visit exactly
/// the labels a sorted map would hold, in the same order: the float sums
/// are the same additions in the same sequence.
///
/// # Example
///
/// ```
/// use sdds_disk::{DiskState, EnergyAccount, Rpm, StateBucket};
/// use simkit::SimDuration;
///
/// let idle = StateBucket::of(&DiskState::Idle { rpm: Rpm::new(12_000) });
/// let mut acct = EnergyAccount::new();
/// acct.accrue(idle, 17.1, SimDuration::from_secs(10));
/// assert!((acct.total_joules() - 171.0).abs() < 1e-9);
/// assert_eq!(acct.residency("idle"), SimDuration::from_secs(10));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnergyAccount {
    buckets: [StateEnergy; LABELS.len()],
    /// Bit `i` is set once bucket `i` has accrued time.
    visited: u8,
}

/// Energy and residency of one state.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StateEnergy {
    /// Joules consumed while in this state.
    pub joules: f64,
    /// Total time spent in this state.
    pub residency: SimDuration,
}

impl EnergyAccount {
    /// Creates an empty account.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `duration` at `watts` to `bucket`.
    ///
    /// # Panics
    ///
    /// Panics if `watts` is negative or not finite.
    pub fn accrue(&mut self, bucket: StateBucket, watts: f64, duration: SimDuration) {
        assert!(
            watts.is_finite() && watts >= 0.0,
            "power must be non-negative and finite, got {watts}"
        );
        if duration.is_zero() {
            return;
        }
        let entry = self.bucket_mut(usize::from(bucket.0));
        entry.joules += watts * duration.as_secs_f64();
        entry.residency += duration;
    }

    /// Total energy across all states, in joules.
    pub fn total_joules(&self) -> f64 {
        self.iter().map(|(_, s)| s.joules).sum()
    }

    /// Total accounted time across all states.
    pub fn total_time(&self) -> SimDuration {
        self.iter().map(|(_, s)| s.residency).sum()
    }

    /// Energy for one state label, in joules (zero if never visited).
    pub fn joules(&self, state: &str) -> f64 {
        self.get(state).map_or(0.0, |s| s.joules)
    }

    /// Residency for one state label (zero if never visited).
    pub fn residency(&self, state: &str) -> SimDuration {
        self.get(state).map_or(SimDuration::ZERO, |s| s.residency)
    }

    /// Iterates `(state, energy)` pairs of the visited states in sorted
    /// label order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &StateEnergy)> {
        LABELS
            .iter()
            .zip(&self.buckets)
            .enumerate()
            .filter(|(i, _)| self.visited & (1 << i) != 0)
            .map(|(_, (label, e))| (*label, e))
    }

    /// Merges another account into this one.
    pub fn merge(&mut self, other: &EnergyAccount) {
        for (i, e) in other.buckets.iter().enumerate() {
            if other.visited & (1 << i) != 0 {
                let entry = self.bucket_mut(i);
                entry.joules += e.joules;
                entry.residency += e.residency;
            }
        }
    }

    /// The visited bucket for `state`, if any.
    fn get(&self, state: &str) -> Option<&StateEnergy> {
        self.iter()
            .find(|(label, _)| *label == state)
            .map(|(_, e)| e)
    }

    /// Bucket `i`, marked visited.
    fn bucket_mut(&mut self, i: usize) -> &mut StateEnergy {
        self.visited |= 1 << i;
        &mut self.buckets[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Rpm;

    const IDLE: DiskState = DiskState::Idle {
        rpm: Rpm::new(12_000),
    };
    const SEEK: DiskState = DiskState::Seeking {
        rpm: Rpm::new(12_000),
    };

    fn bucket(state: DiskState) -> StateBucket {
        StateBucket::of(&state)
    }

    #[test]
    fn accrue_and_query() {
        let mut a = EnergyAccount::new();
        a.accrue(bucket(IDLE), 10.0, SimDuration::from_secs(2));
        a.accrue(bucket(SEEK), 30.0, SimDuration::from_millis(500));
        a.accrue(bucket(IDLE), 10.0, SimDuration::from_secs(1));
        assert!((a.joules("idle") - 30.0).abs() < 1e-9);
        assert!((a.joules("seek") - 15.0).abs() < 1e-9);
        assert_eq!(a.joules("standby"), 0.0);
        assert!((a.total_joules() - 45.0).abs() < 1e-9);
        assert_eq!(a.residency("idle"), SimDuration::from_secs(3));
        assert_eq!(a.total_time(), SimDuration::from_micros(3_500_000));
    }

    #[test]
    fn zero_duration_is_noop() {
        let mut a = EnergyAccount::new();
        a.accrue(bucket(IDLE), 100.0, SimDuration::ZERO);
        assert_eq!(a.total_joules(), 0.0);
        assert_eq!(a.iter().count(), 0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = EnergyAccount::new();
        a.accrue(bucket(IDLE), 10.0, SimDuration::from_secs(1));
        let mut b = EnergyAccount::new();
        b.accrue(bucket(IDLE), 10.0, SimDuration::from_secs(2));
        b.accrue(bucket(DiskState::Standby), 5.0, SimDuration::from_secs(4));
        a.merge(&b);
        assert!((a.joules("idle") - 30.0).abs() < 1e-9);
        assert!((a.joules("standby") - 20.0).abs() < 1e-9);
    }

    #[test]
    fn energy_equals_power_times_residency_per_state() {
        // Invariant the property tests also exercise at the Disk level.
        let mut a = EnergyAccount::new();
        let transfer = DiskState::Transferring {
            rpm: Rpm::new(12_000),
        };
        a.accrue(bucket(transfer), 36.6, SimDuration::from_millis(1_234));
        let e = a.joules("transfer");
        let t = a.residency("transfer").as_secs_f64();
        assert!((e - 36.6 * t).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_watts_panics() {
        EnergyAccount::new().accrue(bucket(IDLE), -1.0, SimDuration::from_secs(1));
    }

    #[test]
    fn iter_sorted() {
        let mut a = EnergyAccount::new();
        a.accrue(bucket(DiskState::Standby), 1.0, SimDuration::from_secs(1));
        a.accrue(bucket(IDLE), 1.0, SimDuration::from_secs(1));
        let keys: Vec<_> = a.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["idle", "standby"]);
    }
}
