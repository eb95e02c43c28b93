//! Property tests for the power policies: liveness and conservation under
//! arbitrary arrival patterns, for every strategy.

use proptest::prelude::*;
use sdds_disk::{DiskParams, DiskRequest, RequestKind};
use sdds_power::{PolicyKind, PoweredArray};
use simkit::{SimDuration, SimTime};

fn policies() -> Vec<PolicyKind> {
    let mut all = PolicyKind::paper_strategies();
    all.push(PolicyKind::NoPm);
    // The online family and a distilled forecast table: same liveness and
    // conservation obligations as the paper strategies.
    all.push(PolicyKind::online_multi_speed_default(7));
    all.push(PolicyKind::hybrid_default(7));
    all.push(PolicyKind::TableLookup {
        forecasts: std::sync::Arc::new(vec![vec![90_000_000, 1_000_000, 120_000_000]]),
    });
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every policy serves every request eventually, accounts all time, and
    /// never loses or duplicates completions — regardless of the arrival
    /// pattern (bursts, long silences, mixtures).
    #[test]
    fn policies_are_live_and_conservative(
        gaps in prop::collection::vec(0u64..40_000_000, 1..40),
        disks in 1usize..4,
        seed_policy in 0usize..policies().len(),
    ) {
        let kind = policies()[seed_policy].clone();
        let params = DiskParams::paper_defaults();
        let mut node = PoweredArray::new(params.clone(), disks, kind.clone()).unwrap();
        let mut now = SimTime::ZERO;
        for (i, &gap) in gaps.iter().enumerate() {
            now += SimDuration::from_micros(gap);
            let lba = (i as u64 * 7_919) % (params.total_sectors() - 1_000);
            let kind_rw = if i % 3 == 0 { RequestKind::Write } else { RequestKind::Read };
            node.submit(i % disks, DiskRequest::new(i as u64, kind_rw, lba, 64), now);
        }
        let horizon = now + SimDuration::from_secs(240);
        node.finish(horizon);
        let done = node.drain_completions();
        prop_assert_eq!(done.len(), gaps.len(), "{} lost requests", kind.name());
        for d in node.disks() {
            prop_assert_eq!(d.outstanding(), 0);
            prop_assert_eq!(
                d.energy().total_time().as_micros(),
                horizon.as_micros(),
                "{}: unaccounted disk time",
                kind.name()
            );
        }
    }

    /// NoPm is the ceiling at full idle power: every power-saving policy
    /// consumes at most (NoPm energy + transition overhead bound), and a
    /// long trailing idle period always lets spin-down policies save.
    #[test]
    fn long_tail_idle_saves_energy(
        kind_pick in 0usize..PolicyKind::paper_strategies().len(),
        tail_secs in 200u64..600,
    ) {
        // Each of the two idle halves is >= 100 s: beyond every policy's
        // activation gate and the ~80 s spin-down break-even (including the
        // prediction confidence haircut).
        let kind = PolicyKind::paper_strategies()[kind_pick].clone();
        let params = DiskParams::paper_defaults();
        let horizon = SimTime::ZERO + SimDuration::from_secs(tail_secs);

        let mut managed = PoweredArray::new(params.clone(), 1, kind.clone()).unwrap();
        managed.submit(0, DiskRequest::new(0, RequestKind::Read, 0, 64), SimTime::ZERO);
        // Teach the predictors one long gap, then measure the next.
        managed.submit(
            0,
            DiskRequest::new(1, RequestKind::Read, 0, 64),
            SimTime::ZERO + SimDuration::from_secs(tail_secs / 2),
        );
        managed.finish(horizon);

        let mut unmanaged = PoweredArray::new(params, 1, PolicyKind::NoPm).unwrap();
        unmanaged.submit(0, DiskRequest::new(0, RequestKind::Read, 0, 64), SimTime::ZERO);
        unmanaged.submit(
            0,
            DiskRequest::new(1, RequestKind::Read, 0, 64),
            SimTime::ZERO + SimDuration::from_secs(tail_secs / 2),
        );
        unmanaged.finish(horizon);

        prop_assert!(
            managed.total_joules() < unmanaged.total_joules(),
            "{}: {} J vs NoPm {} J over a {}s mostly-idle run",
            kind.name(),
            managed.total_joules(),
            unmanaged.total_joules(),
            tail_secs
        );
    }

    /// Policy behavior is a deterministic function of the request stream.
    #[test]
    fn policies_are_deterministic(
        gaps in prop::collection::vec(0u64..20_000_000, 1..30),
        kind_pick in 0usize..policies().len(),
    ) {
        let kind = policies()[kind_pick].clone();
        let run = || {
            let mut node = PoweredArray::new(DiskParams::paper_defaults(), 2, kind.clone()).unwrap();
            let mut now = SimTime::ZERO;
            for (i, &gap) in gaps.iter().enumerate() {
                now += SimDuration::from_micros(gap);
                node.submit(i % 2, DiskRequest::new(i as u64, RequestKind::Read, (i as u64) * 1000, 32), now);
            }
            node.finish(now + SimDuration::from_secs(120));
            node.total_joules()
        };
        prop_assert_eq!(run(), run());
    }
}
