//! Property tests for the simulation core.

use proptest::prelude::*;
use simkit::kernel::{ArbitrationPolicy, Calendar};
use simkit::stats::{BucketHistogram, OnlineStats};
use simkit::{DetRng, EventQueue, SimDuration, SimTime};

/// Drains a calendar whose slots were targeted at `times[i]`, returning
/// the fired `(time, slot index)` sequence.
fn drain(policy: ArbitrationPolicy, times: &[u64]) -> Vec<(SimTime, usize)> {
    let mut cal = Calendar::new(policy);
    let slots: Vec<_> = times.iter().map(|_| cal.register()).collect();
    for (slot, &t) in slots.iter().zip(times) {
        cal.retarget(*slot, Some(SimTime::from_micros(t)));
    }
    let mut fired = Vec::new();
    while let Some((t, s)) = cal.pop() {
        fired.push((t, s.index()));
    }
    fired
}

proptest! {
    /// Popping the queue always yields events in non-decreasing time order,
    /// FIFO among equal timestamps.
    #[test]
    fn event_queue_is_a_stable_priority_queue(times in prop::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i);
        }
        let mut popped: Vec<(SimTime, usize)> = Vec::new();
        while let Some(e) = q.pop() {
            popped.push(e);
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO violated among ties");
            }
        }
    }

    /// Welford mean/variance agree with the naive two-pass computation.
    #[test]
    fn online_stats_match_naive(xs in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        prop_assert!((s.mean() - mean).abs() <= 1e-6 * mean.abs().max(1.0));
        prop_assert!((s.variance() - var).abs() <= 1e-4 * var.abs().max(1.0));
        prop_assert_eq!(s.count(), xs.len() as u64);
    }

    /// Merging summaries over any split equals the sequential summary.
    #[test]
    fn online_stats_merge_is_associative(
        xs in prop::collection::vec(-1e5f64..1e5, 2..120),
        cut in 1usize..100,
    ) {
        let cut = cut.min(xs.len() - 1);
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for &x in &xs[..cut] {
            left.push(x);
        }
        for &x in &xs[cut..] {
            right.push(x);
        }
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert!((left.mean() - whole.mean()).abs() < 1e-6);
        prop_assert!((left.variance() - whole.variance()).abs() < 1e-2);
    }

    /// Histogram CDF is monotone, ends at 1, and the total matches the
    /// sample count regardless of values.
    #[test]
    fn histogram_cdf_invariants(samples in prop::collection::vec(0u64..100_000_000, 1..300)) {
        let mut h = BucketHistogram::paper_idle_buckets();
        for &us in &samples {
            h.record(SimDuration::from_micros(us));
        }
        prop_assert_eq!(h.total(), samples.len() as u64);
        let cdf = h.cdf();
        prop_assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
        prop_assert!(cdf.windows(2).all(|w| w[0].1 <= w[1].1));
        let counted: u64 = h.counts().iter().sum();
        prop_assert_eq!(counted, samples.len() as u64);
    }

    /// Two generators with the same seed agree; a substream is
    /// independent of later parent draws.
    #[test]
    fn rng_reproducibility(seed in any::<u64>(), extra_draws in 0usize..10) {
        let mut a = DetRng::new(seed);
        let b = DetRng::new(seed);
        let mut fa = a.substream("child");
        let mut fb = b.substream("child");
        for _ in 0..extra_draws {
            let _ = a.unit_f64();
        }
        for _ in 0..16 {
            prop_assert_eq!(fa.range_u64(0, 1_000), fb.range_u64(0, 1_000));
        }
    }

    /// Shuffle produces a permutation.
    #[test]
    fn shuffle_is_permutation(seed in any::<u64>(), n in 1usize..200) {
        let mut rng = DetRng::new(seed);
        let mut v: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }

    /// Duration arithmetic: (t + d) - t == d for all in-range values.
    #[test]
    fn time_roundtrip(t in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let t0 = SimTime::from_micros(t);
        let dd = SimDuration::from_micros(d);
        prop_assert_eq!((t0 + dd) - t0, dd);
        prop_assert_eq!((t0 + dd) - dd, t0);
    }

    /// Deterministic arbitration yields a stable total order for any
    /// multiset of due times: time-ascending, registration order among
    /// ties, and identical on every drain.
    #[test]
    fn deterministic_arbitration_is_a_stable_total_order(
        times in prop::collection::vec(0u64..50, 1..120),
    ) {
        let fired = drain(ArbitrationPolicy::Deterministic, &times);
        prop_assert_eq!(fired.len(), times.len());
        for w in fired.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "registration order violated among ties");
            }
        }
        prop_assert_eq!(drain(ArbitrationPolicy::Deterministic, &times), fired);
    }

    /// Every policy — including any shuffle seed — preserves time order;
    /// arbitration only permutes same-time events. Each slot fires exactly
    /// once.
    #[test]
    fn arbitration_never_reorders_distinct_times(
        times in prop::collection::vec(0u64..50, 1..120),
        seed in any::<u64>(),
    ) {
        for policy in [
            ArbitrationPolicy::Deterministic,
            ArbitrationPolicy::SeededShuffle(seed),
        ] {
            let fired = drain(policy, &times);
            prop_assert_eq!(fired.len(), times.len());
            prop_assert!(fired.windows(2).all(|w| w[0].0 <= w[1].0));
            let mut slots: Vec<usize> = fired.iter().map(|&(_, s)| s).collect();
            slots.sort_unstable();
            prop_assert_eq!(slots, (0..times.len()).collect::<Vec<_>>());
        }
    }

    /// Model check for retargeting against a naive map from slot to its
    /// single pending target: a random interleaving of retargets —
    /// including cancels and retargets of idle slots that already fired
    /// or were never armed — and pops matches the model exactly, and the
    /// final drain fires the surviving targets in (time, slot) order.
    #[test]
    fn calendar_retarget_while_idle_matches_model(
        slots in 1usize..12,
        // A raw target of 100..110 encodes a cancel (retarget to None).
        ops in prop::collection::vec(
            (0usize..12, 0u64..110, any::<bool>()),
            1..200,
        ),
    ) {
        let mut cal = Calendar::new(ArbitrationPolicy::Deterministic);
        let handles: Vec<_> = (0..slots).map(|_| cal.register()).collect();
        let mut model: Vec<Option<u64>> = vec![None; slots];
        for &(raw, raw_target, do_pop) in &ops {
            let target = (raw_target < 100).then_some(raw_target);
            if do_pop {
                let expected = model
                    .iter()
                    .enumerate()
                    .filter_map(|(i, t)| t.map(|t| (t, i)))
                    .min();
                let got = cal.pop().map(|(t, s)| (t.as_micros(), s.index()));
                prop_assert_eq!(got, expected);
                if let Some((_, i)) = expected {
                    model[i] = None;
                }
            } else {
                let s = raw % slots;
                cal.retarget(handles[s], target.map(SimTime::from_micros));
                model[s] = target;
            }
        }
        let mut rest: Vec<(u64, usize)> = model
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.map(|t| (t, i)))
            .collect();
        rest.sort_unstable();
        let mut drained = Vec::new();
        while let Some((t, s)) = cal.pop() {
            drained.push((t.as_micros(), s.index()));
        }
        prop_assert_eq!(drained, rest);
    }
}
