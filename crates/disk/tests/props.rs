//! Property tests for the disk model: conservation laws over arbitrary
//! request streams and power-state command sequences.

use std::collections::BTreeMap;

use proptest::prelude::*;
use sdds_disk::{
    Disk, DiskParams, DiskRequest, DiskState, EnergyAccount, RequestKind, Rpm, RpmChangePriority,
    StateBucket,
};
use simkit::{SimDuration, SimTime};

/// An arbitrary workload step.
#[derive(Debug, Clone)]
enum Step {
    Submit {
        gap_us: u64,
        lba: u64,
        sectors: u32,
        write: bool,
    },
    SpinDown {
        gap_us: u64,
    },
    SpinUp {
        gap_us: u64,
    },
    Rpm {
        gap_us: u64,
        level: usize,
        immediate: bool,
    },
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u64..2_000_000, 0u64..1_000_000, 1u32..600, any::<bool>()).prop_map(
            |(gap_us, lba, sectors, write)| Step::Submit {
                gap_us,
                lba,
                sectors,
                write
            }
        ),
        (0u64..30_000_000).prop_map(|gap_us| Step::SpinDown { gap_us }),
        (0u64..30_000_000).prop_map(|gap_us| Step::SpinUp { gap_us }),
        (0u64..10_000_000, 0usize..8, any::<bool>()).prop_map(|(gap_us, level, immediate)| {
            Step::Rpm {
                gap_us,
                level,
                immediate,
            }
        }),
    ]
}

/// One state of every energy bucket.
fn every_state() -> [DiskState; 7] {
    let full = Rpm::new(12_000);
    [
        DiskState::Idle { rpm: full },
        DiskState::Seeking { rpm: full },
        DiskState::Transferring { rpm: full },
        DiskState::SpinningDown,
        DiskState::Standby,
        DiskState::SpinningUp,
        DiskState::ChangingSpeed {
            from: full,
            to: Rpm::new(3_600),
        },
    ]
}

/// The sorted-map account `EnergyAccount` must add exactly like.
#[derive(Default)]
struct MapAccount(BTreeMap<&'static str, (f64, SimDuration)>);

impl MapAccount {
    fn accrue(&mut self, state: &'static str, watts: f64, duration: SimDuration) {
        if duration.is_zero() {
            return;
        }
        let entry = self.0.entry(state).or_default();
        entry.0 += watts * duration.as_secs_f64();
        entry.1 += duration;
    }

    fn merge(&mut self, other: &MapAccount) {
        for (state, e) in &other.0 {
            let entry = self.0.entry(state).or_default();
            entry.0 += e.0;
            entry.1 += e.1;
        }
    }

    fn assert_same(&self, acct: &EnergyAccount) {
        let got: Vec<(&str, u64, SimDuration)> = acct
            .iter()
            .map(|(state, e)| (state, e.joules.to_bits(), e.residency))
            .collect();
        let want: Vec<(&str, u64, SimDuration)> = self
            .0
            .iter()
            .map(|(state, e)| (*state, e.0.to_bits(), e.1))
            .collect();
        prop_assert_eq!(got, want);
        let total: f64 = self.0.values().map(|e| e.0).sum();
        prop_assert_eq!(acct.total_joules().to_bits(), total.to_bits());
        let time: SimDuration = self.0.values().map(|e| e.1).sum();
        prop_assert_eq!(acct.total_time(), time);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// State-indexed buckets add exactly what a sorted map keyed by label
    /// adds, in the same order: per-state joules, totals and residency
    /// agree bit for bit through accruals (zero-length ones included)
    /// into two accounts and merges of one into the other.
    #[test]
    fn energy_buckets_add_like_a_sorted_map(
        steps in prop::collection::vec(
            (0usize..7, 0.0f64..50.0, 0u64..20_000_000, 0u8..8),
            0..80,
        ),
    ) {
        let states = every_state();
        let (mut a, mut b) = (EnergyAccount::new(), EnergyAccount::new());
        let (mut ref_a, mut ref_b) = (MapAccount::default(), MapAccount::default());
        for (state, watts, raw_us, action) in steps {
            let state = states[state];
            // About one accrual in ten has zero length.
            let duration = SimDuration::from_micros(raw_us.saturating_sub(2_000_000));
            match action {
                0..=4 => {
                    a.accrue(StateBucket::of(&state), watts, duration);
                    ref_a.accrue(state.label(), watts, duration);
                }
                5 | 6 => {
                    b.accrue(StateBucket::of(&state), watts, duration);
                    ref_b.accrue(state.label(), watts, duration);
                }
                _ => {
                    a.merge(&b);
                    ref_a.merge(&ref_b);
                }
            }
        }
        ref_a.assert_same(&a);
        ref_b.assert_same(&b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under any interleaving of requests and power commands:
    /// * every submitted request is eventually completed,
    /// * accounted residency equals elapsed simulated time,
    /// * energy equals the sum of the per-state buckets,
    /// * completions are causally ordered (completion >= arrival).
    #[test]
    fn disk_conservation_laws(steps in prop::collection::vec(arb_step(), 1..60)) {
        let params = DiskParams::paper_defaults();
        let levels = params.rpm_levels();
        let mut disk = Disk::new(params.clone()).unwrap();
        let mut now = SimTime::ZERO;
        let mut submitted = 0u64;
        let mut id = 0u64;
        for step in steps {
            match step {
                Step::Submit { gap_us, lba, sectors, write } => {
                    now += simkit::SimDuration::from_micros(gap_us);
                    let kind = if write { RequestKind::Write } else { RequestKind::Read };
                    let lba = lba % (params.total_sectors() - 1_000);
                    disk.submit(DiskRequest::new(id, kind, lba, sectors), now);
                    id += 1;
                    submitted += 1;
                }
                Step::SpinDown { gap_us } => {
                    now += simkit::SimDuration::from_micros(gap_us);
                    let _ = disk.start_spin_down(now);
                }
                Step::SpinUp { gap_us } => {
                    now += simkit::SimDuration::from_micros(gap_us);
                    let _ = disk.start_spin_up(now);
                }
                Step::Rpm { gap_us, level, immediate } => {
                    now += simkit::SimDuration::from_micros(gap_us);
                    let target = levels[level % levels.len()];
                    let priority = if immediate {
                        RpmChangePriority::Immediate
                    } else {
                        RpmChangePriority::WhenIdle
                    };
                    let _ = disk.request_rpm_change(now, target, priority);
                }
            }
        }
        // Let everything drain: generous horizon (every request takes far
        // less than a minute even through spin cycles).
        let horizon = now + simkit::SimDuration::from_secs(120 + 40 * submitted);
        disk.finish(horizon);
        let done = disk.drain_completions();
        prop_assert_eq!(done.len() as u64, submitted, "requests lost");
        prop_assert_eq!(disk.outstanding(), 0);
        for c in &done {
            prop_assert!(c.completion >= c.arrival);
            prop_assert!(c.service_start >= c.arrival);
            prop_assert!(c.completion >= c.service_start);
        }
        // Time conservation.
        let accounted = disk.energy().total_time().as_micros();
        prop_assert_eq!(accounted, horizon.as_micros(), "unaccounted time");
        // Energy closure.
        let total = disk.energy().total_joules();
        let by_state: f64 = disk.energy().iter().map(|(_, e)| e.joules).sum();
        prop_assert!((total - by_state).abs() < 1e-6);
        // Energy is bounded by the envelope of max and min powers.
        let hours = horizon.as_micros() as f64 / 1e6;
        prop_assert!(total <= 44.8 * hours + 1e-6);
        prop_assert!(total >= 3.0 * hours - 1e-6); // > electronics floor
    }

    /// A disk left alone at any reachable state stays consistent: finishing
    /// twice at increasing times accrues idle-family energy only.
    #[test]
    fn idle_disk_energy_is_linear(secs_a in 1u64..100, secs_b in 1u64..100) {
        let mut d1 = Disk::new(DiskParams::paper_defaults()).unwrap();
        d1.finish(SimTime::ZERO + simkit::SimDuration::from_secs(secs_a));
        let mut d2 = Disk::new(DiskParams::paper_defaults()).unwrap();
        d2.finish(SimTime::ZERO + simkit::SimDuration::from_secs(secs_a + secs_b));
        let rate1 = d1.energy().total_joules() / secs_a as f64;
        let rate2 = d2.energy().total_joules() / (secs_a + secs_b) as f64;
        prop_assert!((rate1 - 17.1).abs() < 1e-6);
        prop_assert!((rate2 - 17.1).abs() < 1e-6);
    }

    /// Service time is monotone in request size at any speed.
    #[test]
    fn bigger_requests_take_longer(sectors_small in 1u32..200, extra in 1u32..400, level in 0usize..8) {
        use sdds_disk::service::service_timing;
        let params = DiskParams::paper_defaults();
        let levels = params.rpm_levels();
        let rpm: Rpm = levels[level % levels.len()];
        let small = DiskRequest::new(0, RequestKind::Read, 0, sectors_small);
        let large = DiskRequest::new(1, RequestKind::Read, 0, sectors_small + extra);
        let ts = service_timing(&params, &small, 0, rpm);
        let tl = service_timing(&params, &large, 0, rpm);
        prop_assert!(tl.total() >= ts.total());
    }
}
