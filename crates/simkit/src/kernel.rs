//! The unified event kernel: one calendar queue for every event source.
//!
//! Historically each layer of the simulator kept its own heap (the power
//! driver's lazy disk calendar, the engine's ready-heap, the storage
//! system's cached next-event scan). This module replaced all of them
//! with a single abstraction; the layers below the engine have since
//! dropped it for the minimum of their sources' next times:
//!
//! * [`Calendar`] — a slot-based calendar queue. Every event source
//!   registers once and receives a [`SlotId`]; thereafter it only
//!   *retargets* its next due time. The calendar orders due slots by
//!   `(time, arbitration key)` and remembers its head between calls: a
//!   retarget is an `O(1)` store that keeps a known head known (only a
//!   retarget of the head slot to the same or a later time forgets it),
//!   a pop forgets the head, and peek/pop scan a flat array of due
//!   times only while the head is unknown. Slots are *components*, not events — a simulation has a
//!   handful to a few thousand of them (the payload queues behind each
//!   slot hold the many events) — so a scan over a contiguous array
//!   beats a binary heap with lazy deletion, which pays a push plus a
//!   deferred stale-pop for every retarget.
//! * [`ArbitrationPolicy`] — how slots due at the *same* instant are
//!   ordered: [`ArbitrationPolicy::Deterministic`] (registration order,
//!   the default and the basis of the bitwise-reproducibility contract)
//!   or [`ArbitrationPolicy::SeededShuffle`] (a seeded hash permutes
//!   same-time slots — determinism fuzzing).
//!
//! Each simulation driver that keeps a calendar (the engine, the rebuild
//! scenario, each scene shard) runs it in its own loop, since its event
//! sources need mutable access to shared state; sharded time domains
//! compose through [`crate::shard`].
//!
//! # Determinism contract
//!
//! Under [`ArbitrationPolicy::Deterministic`] a calendar pops due slots in
//! `(time, registration index)` order — a stable total order for any
//! multiset of due times, with no dependence on insertion history. Every
//! simulated metric produced by a `Deterministic` run is reproducible
//! bit-for-bit. Under [`ArbitrationPolicy::SeededShuffle`] same-time
//! ordering varies with the seed while *invariant* metrics (bytes moved,
//! request counts) must not — a divergence across seeds is an ordering
//! bug in the layer above, which is exactly what the arbitration-fuzz CI
//! job hunts for.
//!
//! # Example
//!
//! ```
//! use simkit::kernel::{ArbitrationPolicy, Calendar};
//! use simkit::SimTime;
//!
//! let mut cal = Calendar::new(ArbitrationPolicy::Deterministic);
//! let a = cal.register();
//! let b = cal.register();
//! cal.retarget(b, Some(SimTime::from_micros(5)));
//! cal.retarget(a, Some(SimTime::from_micros(5)));
//! // Same instant: registration order wins, regardless of insert order.
//! assert_eq!(cal.pop(), Some((SimTime::from_micros(5), a)));
//! assert_eq!(cal.pop(), Some((SimTime::from_micros(5), b)));
//! assert_eq!(cal.pop(), None);
//! ```

use crate::SimTime;

/// How slots due at the same instant are ordered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ArbitrationPolicy {
    /// Registration order (first registered fires first). The default;
    /// the bitwise determinism contract holds under this policy.
    #[default]
    Deterministic,
    /// Same-time order is a seed-keyed pseudo-random permutation of the
    /// due slots, stable for a given `(seed, time, slot)` triple. Used by
    /// determinism fuzzing: invariant metrics must not depend on the
    /// seed.
    SeededShuffle(u64),
}

/// Handle to a registered event source within a [`Calendar`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SlotId(u32);

impl SlotId {
    /// The slot's registration index (0 for the first registration).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// SplitMix64 finalizer: decorrelates `(seed, slot, time)` into a tie key.
fn shuffle_key(seed: u64, slot: u32, time: SimTime) -> u64 {
    let mut z = seed
        .wrapping_add(u64::from(slot).wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(time.as_micros().wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A slot's due time while it has nothing due: [`SimTime::MAX`] in
/// microseconds, which no scan minimum can beat.
const PARKED: u64 = u64::MAX;

/// A slot-based calendar queue with pluggable same-time arbitration.
///
/// Each event source holds one slot whose due time it retargets as its
/// schedule changes. The calendar remembers its head, the minimum
/// `(time, tie key, slot)`, between calls; peek and pop scan the slot
/// table only while the head is unknown. Retargeting is a store plus
/// one comparison with the head, so sources may refresh their due time
/// every iteration for free.
#[derive(Debug, Default)]
pub struct Calendar {
    policy: ArbitrationPolicy,
    /// Each registered slot's due time in microseconds, by registration
    /// index; [`PARKED`] when the slot has nothing due.
    due: Vec<u64>,
    /// The head `(due, tie key, slot index)` while it is known: the
    /// minimum over every slot, parked ones included, so a head due at
    /// [`PARKED`] means nothing is due. `None` until the next scan.
    head: Option<(u64, u64, usize)>,
}

impl Calendar {
    /// An empty calendar under the given arbitration policy.
    pub fn new(policy: ArbitrationPolicy) -> Self {
        Calendar {
            policy,
            due: Vec::new(),
            head: None,
        }
    }

    /// Registers a new event source and returns its slot.
    pub fn register(&mut self) -> SlotId {
        let id = SlotId(self.due.len() as u32);
        self.due.push(PARKED);
        id
    }

    /// Points `slot` at a new due time (or parks it with `None`). `O(1)`.
    ///
    /// A due time of [`SimTime::MAX`] parks the slot as well: it never
    /// fires. No run reaches that instant — it is later than any
    /// reachable time, debug builds panic on time overflow first, and
    /// release builds get there only by saturating.
    ///
    /// A known head stays known: a slot whose new `(time, tie key,
    /// slot)` beats it becomes the head, and any other retarget of the
    /// head slot itself makes the head unknown until the next scan.
    #[inline]
    pub fn retarget(&mut self, slot: SlotId, due: Option<SimTime>) {
        let i = slot.index();
        debug_assert!(i < self.due.len(), "retarget of an unregistered slot");
        let Some(d) = self.due.get_mut(i) else {
            return;
        };
        let at = due.map_or(PARKED, SimTime::as_micros);
        *d = at;
        if let Some(head) = self.head {
            let moved = (at, self.tie_key(i, at), i);
            if moved < head {
                self.head = Some(moved);
            } else if i == head.2 {
                self.head = None;
            }
        }
    }

    /// The tie key of slot `i` due at `at`: its registration index under
    /// [`ArbitrationPolicy::Deterministic`], its SplitMix key under
    /// [`ArbitrationPolicy::SeededShuffle`]. Ties between equal keys go
    /// to the lower index.
    #[inline]
    fn tie_key(&self, i: usize, at: u64) -> u64 {
        match self.policy {
            ArbitrationPolicy::Deterministic => i as u64,
            ArbitrationPolicy::SeededShuffle(seed) => {
                shuffle_key(seed, i as u32, SimTime::from_micros(at))
            }
        }
    }

    /// The minimum `(time, tie key, slot index)` over the slot table,
    /// found by scanning every slot.
    fn scan(&self) -> (u64, u64, usize) {
        match self.policy {
            // In registration order with strict `<`, the first slot at
            // the minimum time wins — exactly the Deterministic tie rule.
            // A parked slot holds `PARKED`, so every slot is compared the
            // same way, with nothing to unwrap.
            ArbitrationPolicy::Deterministic => {
                let (mut best, mut idx) = (PARKED, 0);
                for (i, &d) in self.due.iter().enumerate() {
                    let lt = d < best;
                    best = if lt { d } else { best };
                    idx = if lt { i } else { idx };
                }
                (best, idx as u64, idx)
            }
            // Tie keys are only computed for slots that match the running
            // minimum time.
            ArbitrationPolicy::SeededShuffle(seed) => {
                let (mut best, mut best_key, mut idx) = (PARKED, 0, 0);
                for (i, &d) in self.due.iter().enumerate() {
                    if d == PARKED || d > best {
                        continue;
                    }
                    let key = shuffle_key(seed, i as u32, SimTime::from_micros(d));
                    if d < best || key < best_key {
                        (best, best_key, idx) = (d, key, i);
                    }
                }
                (best, best_key, idx)
            }
        }
    }

    /// The earliest due `(time, slot)` without popping it: the minimum
    /// `(time, arbitration key)` over the slot table. Scans the table
    /// only while the head is unknown.
    pub fn peek(&mut self) -> Option<(SimTime, SlotId)> {
        let (at, _, i) = match self.head {
            Some(head) => head,
            None => *self.head.insert(self.scan()),
        };
        (at != PARKED).then_some((SimTime::from_micros(at), SlotId(i as u32)))
    }

    /// The earliest due time across all slots.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.peek().map(|(at, _)| at)
    }

    /// Pops the earliest due slot, clearing its due time. The popped
    /// source is expected to handle the event and retarget itself.
    pub fn pop(&mut self) -> Option<(SimTime, SlotId)> {
        let (at, slot) = self.peek()?;
        self.due[slot.index()] = PARKED;
        self.head = None;
        Some((at, slot))
    }

    /// Pops the earliest due slot only if it is due at or before `t`.
    /// When nothing is due by `t` the head stays known.
    pub fn pop_due(&mut self, t: SimTime) -> Option<(SimTime, SlotId)> {
        let (at, slot) = self.peek()?;
        if at > t {
            return None;
        }
        self.due[slot.index()] = PARKED;
        self.head = None;
        Some((at, slot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    const POLICIES: [ArbitrationPolicy; 2] = [
        ArbitrationPolicy::Deterministic,
        ArbitrationPolicy::SeededShuffle(7),
    ];

    /// The reference tie key of slot `i` due at `at`.
    fn reference_key(policy: ArbitrationPolicy, i: usize, at: SimTime) -> u64 {
        match policy {
            ArbitrationPolicy::Deterministic => i as u64,
            ArbitrationPolicy::SeededShuffle(seed) => shuffle_key(seed, i as u32, at),
        }
    }

    /// The reference scan: the minimum `(time, tie key, slot)` over the
    /// slots with a due time before [`SimTime::MAX`].
    fn reference_head(
        policy: ArbitrationPolicy,
        due: &[Option<SimTime>],
    ) -> Option<(SimTime, SlotId)> {
        due.iter()
            .enumerate()
            .filter_map(|(i, d)| d.filter(|&at| at != SimTime::MAX).map(|at| (at, i)))
            .min_by_key(|&(at, i)| (at, reference_key(policy, i, at), i))
            .map(|(at, i)| (at, SlotId(i as u32)))
    }

    /// The cached head as `(time, slot)`, or `None` while it is unknown
    /// (and `Some(None)` when it is known that nothing is due).
    fn cached(cal: &Calendar) -> Option<Option<(SimTime, SlotId)>> {
        cal.head.map(|(at, _, i)| {
            (at != PARKED).then_some((SimTime::from_micros(at), SlotId(i as u32)))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random sequences of retarget, pop, pop_due and peek_time over
        /// 1–64 slots, under both policies, agree with the reference scan
        /// at every step, and `peek()` names the reference head, time and
        /// slot, after every operation, so a stale cached head shows at
        /// once. Due times come from a narrow range, so ties are common;
        /// `None` and `SimTime::MAX` both park a slot.
        #[test]
        fn calendar_matches_reference_scan(
            slots in 1usize..65,
            seed in any::<u64>(),
            // (operation, slot, raw time): operation 0–1 retargets (raw
            // time 20 parks with `None`, 21 targets `SimTime::MAX`), 2
            // pops, 3 pops what is due by the raw time, 4 peeks the time.
            ops in prop::collection::vec((0u8..5, 0usize..64, 0u64..22), 1..300),
        ) {
            for policy in [
                ArbitrationPolicy::Deterministic,
                ArbitrationPolicy::SeededShuffle(seed),
            ] {
                let mut cal = Calendar::new(policy);
                let handles: Vec<SlotId> = (0..slots).map(|_| cal.register()).collect();
                let mut model: Vec<Option<SimTime>> = vec![None; slots];
                for &(op, raw_slot, raw) in &ops {
                    let head = reference_head(policy, &model);
                    match op {
                        0 | 1 => {
                            let s = raw_slot % slots;
                            let due = match raw {
                                20 => None,
                                21 => Some(SimTime::MAX),
                                _ => Some(t(raw)),
                            };
                            cal.retarget(handles[s], due);
                            model[s] = due;
                        }
                        2 => {
                            prop_assert_eq!(cal.pop(), head);
                            if let Some((_, slot)) = head {
                                model[slot.index()] = None;
                            }
                        }
                        3 => {
                            let due = head.filter(|&(at, _)| at <= t(raw));
                            prop_assert_eq!(cal.pop_due(t(raw)), due);
                            if let Some((_, slot)) = due {
                                model[slot.index()] = None;
                            }
                        }
                        _ => {
                            prop_assert_eq!(cal.peek_time(), head.map(|(at, _)| at));
                        }
                    }
                    prop_assert_eq!(cal.peek(), reference_head(policy, &model));
                }
                while let Some(head) = reference_head(policy, &model) {
                    prop_assert_eq!(cal.pop(), Some(head));
                    model[head.1.index()] = None;
                }
                prop_assert_eq!(cal.pop(), None);
            }
        }
    }

    #[test]
    fn deterministic_orders_by_registration_at_ties() {
        let mut cal = Calendar::new(ArbitrationPolicy::Deterministic);
        let slots: Vec<SlotId> = (0..5).map(|_| cal.register()).collect();
        // Insert in reverse registration order at one instant.
        for s in slots.iter().rev() {
            cal.retarget(*s, Some(t(7)));
        }
        let popped: Vec<SlotId> = std::iter::from_fn(|| cal.pop().map(|(_, s)| s)).collect();
        assert_eq!(popped, slots);
    }

    #[test]
    fn retarget_supersedes_lazily() {
        let mut cal = Calendar::new(ArbitrationPolicy::Deterministic);
        let a = cal.register();
        cal.retarget(a, Some(t(10)));
        cal.retarget(a, Some(t(3)));
        assert_eq!(cal.pop(), Some((t(3), a)));
        // The stale t=10 entry is discarded, not replayed.
        assert_eq!(cal.pop(), None);
        // Parking clears the pending entry too.
        cal.retarget(a, Some(t(20)));
        cal.retarget(a, None);
        assert_eq!(cal.peek_time(), None);
    }

    #[test]
    fn pop_clears_due_and_pop_due_respects_bound() {
        let mut cal = Calendar::new(ArbitrationPolicy::Deterministic);
        let a = cal.register();
        cal.retarget(a, Some(t(5)));
        assert_eq!(cal.pop_due(t(4)), None);
        assert_eq!(cal.pop_due(t(5)), Some((t(5), a)));
        assert_eq!(cal.peek_time(), None);
    }

    #[test]
    fn moving_the_head_later_exposes_the_next_slot() {
        for policy in POLICIES {
            let mut cal = Calendar::new(policy);
            let (a, b, c) = (cal.register(), cal.register(), cal.register());
            cal.retarget(a, Some(t(1)));
            cal.retarget(b, Some(t(2)));
            cal.retarget(c, Some(t(3)));
            assert_eq!(cal.peek(), Some((t(1), a)), "{policy:?}");
            cal.retarget(a, Some(t(4)));
            assert_eq!(cached(&cal), None, "{policy:?}: a moved head is unknown");
            assert_eq!(cal.peek(), Some((t(2), b)), "{policy:?}");
            cal.retarget(b, None);
            assert_eq!(cal.peek(), Some((t(3), c)), "{policy:?}");
            cal.retarget(c, Some(SimTime::MAX));
            assert_eq!(cal.pop(), Some((t(4), a)), "{policy:?}");
            assert_eq!(cal.pop(), None, "{policy:?}");
        }
    }

    #[test]
    fn a_slot_retargeted_below_the_head_becomes_the_head() {
        for policy in POLICIES {
            let mut cal = Calendar::new(policy);
            let (a, b) = (cal.register(), cal.register());
            cal.retarget(a, Some(t(5)));
            assert_eq!(cal.peek(), Some((t(5), a)), "{policy:?}");
            cal.retarget(b, Some(t(4)));
            assert_eq!(cached(&cal), Some(Some((t(4), b))), "{policy:?}");
            // The head slot moved earlier is still the head.
            cal.retarget(b, Some(t(3)));
            assert_eq!(cached(&cal), Some(Some((t(3), b))), "{policy:?}");
            assert_eq!(cal.pop(), Some((t(3), b)), "{policy:?}");
            assert_eq!(cal.pop(), Some((t(5), a)), "{policy:?}");
            // A head known to be empty is beaten by any due slot.
            assert_eq!(cal.peek(), None, "{policy:?}");
            cal.retarget(b, Some(t(9)));
            assert_eq!(cached(&cal), Some(Some((t(9), b))), "{policy:?}");
        }
    }

    #[test]
    fn at_the_heads_time_the_lower_tie_key_wins() {
        for policy in POLICIES {
            let mut cal = Calendar::new(policy);
            let slots = [cal.register(), cal.register()];
            let at = t(9);
            let [lo, hi] = if reference_key(policy, 0, at) < reference_key(policy, 1, at) {
                slots
            } else {
                [slots[1], slots[0]]
            };
            cal.retarget(hi, Some(at));
            assert_eq!(cal.peek(), Some((at, hi)), "{policy:?}");
            cal.retarget(lo, Some(at));
            assert_eq!(cached(&cal), Some(Some((at, lo))), "{policy:?}");
            // The higher key retargeted to the same instant stays behind.
            cal.retarget(hi, Some(at));
            assert_eq!(cached(&cal), Some(Some((at, lo))), "{policy:?}");
            assert_eq!(cal.pop(), Some((at, lo)), "{policy:?}");
            assert_eq!(cal.pop(), Some((at, hi)), "{policy:?}");
        }
    }

    #[test]
    fn pop_due_that_returns_none_keeps_the_head() {
        for policy in POLICIES {
            let mut cal = Calendar::new(policy);
            let (a, b) = (cal.register(), cal.register());
            cal.retarget(b, Some(t(5)));
            cal.retarget(a, Some(t(8)));
            assert_eq!(cal.pop_due(t(4)), None, "{policy:?}");
            assert_eq!(cached(&cal), Some(Some((t(5), b))), "{policy:?}");
            assert_eq!(cal.pop(), Some((t(5), b)), "{policy:?}");
            assert_eq!(cached(&cal), None, "{policy:?}: a pop forgets the head");
            assert_eq!(cal.pop(), Some((t(8), a)), "{policy:?}");
        }
    }

    #[test]
    fn shuffle_is_seed_deterministic_and_varies() {
        let order = |seed: u64| {
            let mut cal = Calendar::new(ArbitrationPolicy::SeededShuffle(seed));
            let slots: Vec<SlotId> = (0..16).map(|_| cal.register()).collect();
            for s in &slots {
                cal.retarget(*s, Some(t(42)));
            }
            std::iter::from_fn(|| cal.pop().map(|(_, s)| s.index())).collect::<Vec<_>>()
        };
        assert_eq!(order(1), order(1));
        // 16 slots: two seeds agreeing on the full permutation is
        // astronomically unlikely with a working hash.
        assert_ne!(order(1), order(2));
        let mut sorted = order(3);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn time_order_holds_under_every_policy() {
        for policy in [
            ArbitrationPolicy::Deterministic,
            ArbitrationPolicy::SeededShuffle(99),
        ] {
            let mut cal = Calendar::new(policy);
            let slots: Vec<SlotId> = (0..8).map(|_| cal.register()).collect();
            for (i, s) in slots.iter().enumerate() {
                cal.retarget(*s, Some(t(((i as u64) * 13) % 5)));
            }
            let mut last = SimTime::ZERO;
            while let Some((at, _)) = cal.pop() {
                assert!(at >= last, "{policy:?} violated time order");
                last = at;
            }
        }
    }
}
