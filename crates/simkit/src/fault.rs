//! Seed-deterministic disk fault plans.
//!
//! This module generates, from one user-facing seed, a complete schedule
//! of the faults a simulated disk array will experience: transient read
//! errors, permanent bad sectors, slow-disk stragglers and whole-disk
//! crash/recover windows. The plan is computed *up front* on its own
//! split RNG stream ([`StreamId::Fault`]) so that
//!
//! * the same `(config, seed)` pair always produces the same faults at
//!   the same simulated times, independent of how many draws the
//!   workload or executor streams take, and
//! * a run with no fault plan performs **zero** RNG draws and zero
//!   branches beyond one `Option` check per request, leaving every
//!   simulated metric bit-for-bit identical to a fault-free build.
//!
//! The division of labour across the stack:
//!
//! * `simkit::fault` (here) — the plan: what goes wrong, where, when.
//! * `disk` — surfaces faults as typed service outcomes (the physics).
//! * `storage` — recovery policy: retry with backoff, sector remap,
//!   degraded RAID reconstruction, crash redirect/defer.
//! * `runtime` — prefetch timeout + synchronous fallback so no bytes
//!   are lost and the engine cannot deadlock on a faulted prefetch.
//!
//! [`FaultCounters`] is the shared ledger all layers increment; the
//! `repro faults` report and the fault-injection tests reconcile it.

use std::error::Error;
use std::fmt;

use crate::rng::{DetRng, StreamId};
use crate::time::{SimDuration, SimTime};

/// User-facing description of a fault scenario.
///
/// A spec is scale-free: it describes fault *rates and shapes*, and
/// [`FaultPlan::generate`] expands it against a concrete array geometry
/// (node count, disks per node, sectors per disk). Two specs with equal
/// fields expand to identical plans for the same geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Seed for the fault stream. Mixed through [`StreamId::Fault`], so
    /// it may equal the workload seed without correlating the streams.
    pub seed: u64,
    /// Probability that any single disk read completes with a transient
    /// error (retryable in place). Must lie in `[0, 0.9]`; the upper
    /// bound keeps bounded retry loops terminating almost surely.
    pub transient_rate: f64,
    /// Number of permanently bad sectors drawn uniformly per disk.
    /// A read overlapping one fails until the storage layer remaps it.
    pub bad_sectors_per_disk: u32,
    /// Fraction of disks (drawn independently per disk) that are
    /// stragglers. Must lie in `[0, 1]`.
    pub straggler_fraction: f64,
    /// Service-time multiplier applied to a straggler's mechanical
    /// phases (seek + transfer). Must be finite and `>= 1`.
    pub straggler_factor: f64,
    /// Total number of whole-disk crash windows drawn across the array
    /// (disk and start time uniform).
    pub crash_windows: u32,
    /// Length of each crash window. Must be positive when
    /// `crash_windows > 0`.
    pub crash_duration: SimDuration,
    /// Horizon within which crash windows start. Must be positive when
    /// `crash_windows > 0`; faults never start after the horizon.
    pub horizon: SimDuration,
}

impl FaultSpec {
    /// The `light` scenario: occasional transient errors, a couple of
    /// bad sectors per disk, a quarter of disks mildly slow, one short
    /// crash window.
    pub fn light(seed: u64) -> Self {
        FaultSpec {
            seed,
            transient_rate: 0.02,
            bad_sectors_per_disk: 2,
            straggler_fraction: 0.25,
            straggler_factor: 1.5,
            crash_windows: 1,
            crash_duration: SimDuration::from_secs(2),
            horizon: SimDuration::from_secs(60),
        }
    }

    /// The `heavy` scenario: frequent transient errors, many bad
    /// sectors, half the disks markedly slow, several long crashes.
    pub fn heavy(seed: u64) -> Self {
        FaultSpec {
            seed,
            transient_rate: 0.08,
            bad_sectors_per_disk: 8,
            straggler_fraction: 0.5,
            straggler_factor: 2.5,
            crash_windows: 3,
            crash_duration: SimDuration::from_secs(5),
            horizon: SimDuration::from_secs(60),
        }
    }

    /// Looks up a named scenario (`"light"` or `"heavy"`).
    pub fn scenario(name: &str, seed: u64) -> Option<Self> {
        match name {
            "light" => Some(FaultSpec::light(seed)),
            "heavy" => Some(FaultSpec::heavy(seed)),
            _ => None,
        }
    }

    /// Checks the spec's numeric ranges.
    ///
    /// # Errors
    ///
    /// Returns a [`FaultSpecError`] naming the first offending field.
    pub fn validate(&self) -> Result<(), FaultSpecError> {
        if !self.transient_rate.is_finite()
            || !(0.0..=MAX_TRANSIENT_RATE).contains(&self.transient_rate)
        {
            return Err(FaultSpecError::RateOutOfRange {
                field: "transient_rate",
                value: self.transient_rate,
                lo: 0.0,
                hi: MAX_TRANSIENT_RATE,
            });
        }
        if !self.straggler_fraction.is_finite() || !(0.0..=1.0).contains(&self.straggler_fraction) {
            return Err(FaultSpecError::RateOutOfRange {
                field: "straggler_fraction",
                value: self.straggler_fraction,
                lo: 0.0,
                hi: 1.0,
            });
        }
        if !self.straggler_factor.is_finite() || self.straggler_factor < 1.0 {
            return Err(FaultSpecError::BadParameter {
                field: "straggler_factor",
                reason: "must be a finite multiplier >= 1",
            });
        }
        if self.crash_windows > 0 {
            if self.crash_duration.is_zero() {
                return Err(FaultSpecError::BadParameter {
                    field: "crash_duration",
                    reason: "must be positive when crash windows are requested",
                });
            }
            if self.horizon.is_zero() {
                return Err(FaultSpecError::BadParameter {
                    field: "horizon",
                    reason: "must be positive when crash windows are requested",
                });
            }
        }
        Ok(())
    }
}

/// Upper bound on [`FaultSpec::transient_rate`]: bounded retry loops
/// must terminate almost surely, so the per-attempt failure probability
/// is kept well away from 1.
pub const MAX_TRANSIENT_RATE: f64 = 0.9;

/// Why a [`FaultSpec`] failed validation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FaultSpecError {
    /// A probability field fell outside its allowed interval.
    RateOutOfRange {
        /// Name of the offending field.
        field: &'static str,
        /// The rejected value.
        value: f64,
        /// Inclusive lower bound.
        lo: f64,
        /// Inclusive upper bound.
        hi: f64,
    },
    /// A non-probability parameter was structurally invalid.
    BadParameter {
        /// Name of the offending field.
        field: &'static str,
        /// What the field must satisfy.
        reason: &'static str,
    },
}

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultSpecError::RateOutOfRange {
                field,
                value,
                lo,
                hi,
            } => write!(f, "fault spec: {field} = {value} outside [{lo}, {hi}]"),
            FaultSpecError::BadParameter { field, reason } => {
                write!(f, "fault spec: {field} {reason}")
            }
        }
    }
}

impl Error for FaultSpecError {}

/// The concrete fault schedule of one disk, expanded from a
/// [`FaultSpec`] by [`FaultPlan::generate`].
#[derive(Debug, Clone, PartialEq)]
pub struct DiskFaultProfile {
    /// Permanently bad sector addresses, sorted ascending and deduped.
    /// Reads overlapping one fail with a bad-sector outcome until the
    /// storage layer remaps the range.
    pub bad_sectors: Vec<u64>,
    /// Mechanical service-time multiplier (`1.0` = nominal). Applied to
    /// the seek and transfer phases of every request on this disk.
    pub slow_factor: f64,
    /// Half-open crash windows `[start, end)`, sorted by start and
    /// non-overlapping. While crashed the disk is unreachable at the
    /// storage layer (submissions are redirected or deferred); the disk
    /// state machine itself keeps running so per-state energy accrual
    /// is unchanged.
    pub crash_windows: Vec<(SimTime, SimTime)>,
    /// Per-read transient error probability for this disk.
    pub transient_rate: f64,
    /// Seed for the disk's private online draw stream (transient error
    /// coin flips). Derived at plan time so the stream is independent
    /// of every other disk's.
    pub rng_seed: u64,
}

impl DiskFaultProfile {
    /// A profile that injects nothing.
    pub fn none() -> Self {
        DiskFaultProfile {
            bad_sectors: Vec::new(),
            slow_factor: 1.0,
            crash_windows: Vec::new(),
            transient_rate: 0.0,
            rng_seed: 0,
        }
    }

    /// If the disk is crashed at `t`, returns the recovery time (the
    /// end of the containing window); otherwise `None`.
    pub fn crashed_at(&self, t: SimTime) -> Option<SimTime> {
        // Windows are sorted and disjoint; a linear scan is fine for the
        // handful of windows a plan generates.
        for &(start, end) in &self.crash_windows {
            if start > t {
                return None;
            }
            if t < end {
                return Some(end);
            }
        }
        None
    }
}

/// A fully expanded fault schedule for a disk array: one
/// [`DiskFaultProfile`] per `(node, disk)` slot.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    nodes: Vec<Vec<DiskFaultProfile>>,
}

impl FaultPlan {
    /// Expands `spec` against an array geometry.
    ///
    /// The expansion is a pure function of `(spec, io_nodes,
    /// disks_per_node, total_sectors)`: the root generator is the
    /// [`StreamId::Fault`] stream of `spec.seed`, each disk receives the
    /// named [`DetRng::substream`] `disk-{node}-{disk}` of the root (so
    /// per-disk draws are independent of geometry iteration order), and
    /// crash windows are drawn from the root afterwards. No draw depends
    /// on simulation state, so the plan is reproducible by construction.
    pub fn generate(
        spec: &FaultSpec,
        io_nodes: usize,
        disks_per_node: usize,
        total_sectors: u64,
    ) -> FaultPlan {
        let mut root = DetRng::for_stream(spec.seed, StreamId::Fault);
        let mut nodes: Vec<Vec<DiskFaultProfile>> = Vec::with_capacity(io_nodes);
        for node in 0..io_nodes {
            let mut disks = Vec::with_capacity(disks_per_node);
            for disk in 0..disks_per_node {
                let mut rng = root.substream(&format!("disk-{node}-{disk}"));
                let mut bad_sectors = Vec::with_capacity(spec.bad_sectors_per_disk as usize);
                if total_sectors > 0 {
                    for _ in 0..spec.bad_sectors_per_disk {
                        bad_sectors.push(rng.range_u64(0, total_sectors - 1));
                    }
                    bad_sectors.sort_unstable();
                    bad_sectors.dedup();
                }
                let slow_factor = if rng.chance(spec.straggler_fraction) {
                    spec.straggler_factor
                } else {
                    1.0
                };
                let rng_seed = rng.next_u64();
                disks.push(DiskFaultProfile {
                    bad_sectors,
                    slow_factor,
                    crash_windows: Vec::new(),
                    transient_rate: spec.transient_rate,
                    rng_seed,
                });
            }
            nodes.push(disks);
        }
        if io_nodes > 0 && disks_per_node > 0 {
            let horizon_us = spec.horizon.as_micros();
            for _ in 0..spec.crash_windows {
                let node = root.index(io_nodes);
                let disk = root.index(disks_per_node);
                let start_us = if horizon_us > 1 {
                    root.range_u64(0, horizon_us - 1)
                } else {
                    0
                };
                let start = SimTime::from_micros(start_us);
                let end = start + spec.crash_duration;
                nodes[node][disk].crash_windows.push((start, end));
            }
            for disks in &mut nodes {
                for profile in disks {
                    normalize_windows(&mut profile.crash_windows);
                }
            }
        }
        FaultPlan { nodes }
    }

    /// Wraps hand-written profiles into a plan (targeted tests and
    /// bespoke scenarios). Crash windows are normalized to the sorted
    /// disjoint form [`DiskFaultProfile::crash_windows`] documents, and
    /// bad-sector lists are sorted and deduped.
    pub fn from_profiles(mut nodes: Vec<Vec<DiskFaultProfile>>) -> FaultPlan {
        for disks in &mut nodes {
            for profile in disks {
                profile.bad_sectors.sort_unstable();
                profile.bad_sectors.dedup();
                normalize_windows(&mut profile.crash_windows);
            }
        }
        FaultPlan { nodes }
    }

    /// The fault profiles of one I/O node's disks.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the geometry the plan was generated
    /// for (a wiring bug, not a data condition).
    pub fn node(&self, node: usize) -> &[DiskFaultProfile] {
        &self.nodes[node]
    }

    /// Number of I/O nodes the plan covers.
    pub fn io_nodes(&self) -> usize {
        self.nodes.len()
    }
}

/// Sorts crash windows by start and merges overlapping or touching
/// windows, so [`DiskFaultProfile::crash_windows`] is always a sorted
/// list of disjoint half-open intervals.
fn normalize_windows(windows: &mut Vec<(SimTime, SimTime)>) {
    if windows.len() < 2 {
        return;
    }
    windows.sort_unstable();
    let mut merged: Vec<(SimTime, SimTime)> = Vec::with_capacity(windows.len());
    for &(start, end) in windows.iter() {
        match merged.last_mut() {
            Some(last) if start <= last.1 => last.1 = last.1.max(end),
            _ => merged.push((start, end)),
        }
    }
    *windows = merged;
}

/// The shared ledger of fault activity across the whole stack.
///
/// The disk layer counts injections, the storage layer counts recovery
/// actions, the runtime counts prefetch timeouts; [`FaultCounters::merge`]
/// folds per-component ledgers into the run-level report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Reads that completed with a transient error.
    pub injected_transient: u64,
    /// Reads that completed against an unremapped bad sector.
    pub injected_bad_sector: u64,
    /// Recovery re-submissions of a failed request to the same disk.
    pub retried: u64,
    /// Bad-sector ranges remapped to healthy reserve sectors.
    pub remapped: u64,
    /// Failed member reads recovered by reading the surviving RAID
    /// members (degraded-mode reconstruction).
    pub reconstructed: u64,
    /// Member reads redirected to survivors because the target disk was
    /// inside a crash window at submission time.
    pub redirected: u64,
    /// Member operations deferred until a crashed disk's recovery time
    /// (writes, and reads with no surviving redundancy).
    pub deferred: u64,
}

impl FaultCounters {
    /// Adds `other` into `self`, field by field.
    pub fn merge(&mut self, other: &FaultCounters) {
        self.injected_transient += other.injected_transient;
        self.injected_bad_sector += other.injected_bad_sector;
        self.retried += other.retried;
        self.remapped += other.remapped;
        self.reconstructed += other.reconstructed;
        self.redirected += other.redirected;
        self.deferred += other.deferred;
    }

    /// Total faults injected at the disk layer.
    pub fn total_injected(&self) -> u64 {
        self.injected_transient + self.injected_bad_sector
    }

    /// Returns `true` when every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == FaultCounters::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geometry() -> (usize, usize, u64) {
        (4, 2, 1_000_000)
    }

    #[test]
    fn presets_validate() {
        assert_eq!(FaultSpec::light(1).validate(), Ok(()));
        assert_eq!(FaultSpec::heavy(1).validate(), Ok(()));
        assert_eq!(FaultSpec::scenario("light", 3), Some(FaultSpec::light(3)));
        assert_eq!(FaultSpec::scenario("nope", 3), None);
    }

    #[test]
    fn validate_rejects_out_of_range_fields() {
        let mut spec = FaultSpec::light(1);
        spec.transient_rate = 0.95;
        assert!(matches!(
            spec.validate(),
            Err(FaultSpecError::RateOutOfRange {
                field: "transient_rate",
                ..
            })
        ));
        let mut spec = FaultSpec::light(1);
        spec.straggler_fraction = -0.1;
        assert!(spec.validate().is_err());
        let mut spec = FaultSpec::light(1);
        spec.straggler_factor = 0.5;
        assert!(matches!(
            spec.validate(),
            Err(FaultSpecError::BadParameter {
                field: "straggler_factor",
                ..
            })
        ));
        let mut spec = FaultSpec::light(1);
        spec.crash_duration = SimDuration::ZERO;
        assert!(spec.validate().is_err());
        let mut spec = FaultSpec::light(1);
        spec.horizon = SimDuration::ZERO;
        assert!(spec.validate().is_err());
        let mut spec = FaultSpec::light(1);
        spec.transient_rate = f64::NAN;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn generate_is_deterministic() {
        let (nodes, disks, sectors) = geometry();
        let spec = FaultSpec::heavy(42);
        let a = FaultPlan::generate(&spec, nodes, disks, sectors);
        let b = FaultPlan::generate(&spec, nodes, disks, sectors);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let (nodes, disks, sectors) = geometry();
        let a = FaultPlan::generate(&FaultSpec::heavy(1), nodes, disks, sectors);
        let b = FaultPlan::generate(&FaultSpec::heavy(2), nodes, disks, sectors);
        assert_ne!(a, b);
    }

    #[test]
    fn plan_matches_geometry() {
        let (nodes, disks, sectors) = geometry();
        let plan = FaultPlan::generate(&FaultSpec::light(7), nodes, disks, sectors);
        assert_eq!(plan.io_nodes(), nodes);
        for n in 0..nodes {
            assert_eq!(plan.node(n).len(), disks);
            for profile in plan.node(n) {
                assert!(profile.bad_sectors.windows(2).all(|w| w[0] < w[1]));
                assert!(profile.bad_sectors.iter().all(|&s| s < sectors));
                assert!(profile.slow_factor >= 1.0);
            }
        }
    }

    #[test]
    fn crash_windows_are_sorted_and_disjoint() {
        let spec = FaultSpec {
            crash_windows: 40,
            crash_duration: SimDuration::from_secs(10),
            horizon: SimDuration::from_secs(30),
            ..FaultSpec::heavy(11)
        };
        let plan = FaultPlan::generate(&spec, 2, 1, 1_000);
        let mut total = 0;
        for n in 0..plan.io_nodes() {
            for profile in plan.node(n) {
                total += profile.crash_windows.len();
                for pair in profile.crash_windows.windows(2) {
                    assert!(pair[0].1 < pair[1].0, "windows overlap: {pair:?}");
                }
                for &(s, e) in &profile.crash_windows {
                    assert!(s < e);
                }
            }
        }
        // Forty windows crammed into 30 s of horizon with 10 s durations
        // must have merged heavily.
        assert!(total < 40, "expected overlapping windows to merge");
    }

    #[test]
    fn crashed_at_reports_recovery_time() {
        let mut profile = DiskFaultProfile::none();
        let t = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
        profile.crash_windows = vec![(t(10), t(12)), (t(20), t(25))];
        assert_eq!(profile.crashed_at(t(5)), None);
        assert_eq!(profile.crashed_at(t(10)), Some(t(12)));
        assert_eq!(profile.crashed_at(t(11)), Some(t(12)));
        assert_eq!(profile.crashed_at(t(12)), None);
        assert_eq!(profile.crashed_at(t(24)), Some(t(25)));
        assert_eq!(profile.crashed_at(t(30)), None);
    }

    #[test]
    fn counters_merge() {
        let mut a = FaultCounters {
            injected_transient: 1,
            retried: 2,
            ..FaultCounters::default()
        };
        let b = FaultCounters {
            injected_transient: 3,
            remapped: 4,
            reconstructed: 5,
            redirected: 6,
            deferred: 7,
            injected_bad_sector: 8,
            retried: 0,
        };
        a.merge(&b);
        assert_eq!(a.injected_transient, 4);
        assert_eq!(a.retried, 2);
        assert_eq!(a.remapped, 4);
        assert_eq!(a.reconstructed, 5);
        assert_eq!(a.redirected, 6);
        assert_eq!(a.deferred, 7);
        assert_eq!(a.total_injected(), 12);
        assert!(!a.is_zero());
        assert!(FaultCounters::default().is_zero());
    }

    #[test]
    fn zero_geometry_generates_empty_plan() {
        let plan = FaultPlan::generate(&FaultSpec::heavy(1), 0, 0, 0);
        assert_eq!(plan.io_nodes(), 0);
        let plan = FaultPlan::generate(&FaultSpec::heavy(1), 1, 1, 0);
        assert!(plan.node(0)[0].bad_sectors.is_empty());
    }
}
