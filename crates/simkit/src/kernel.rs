//! The unified event kernel: one calendar queue for every event source.
//!
//! Historically each layer of the simulator kept its own heap (the power
//! driver's lazy disk calendar, the engine's ready-heap, the storage
//! system's cached next-event scan). This module replaces all of them
//! with a single abstraction:
//!
//! * [`Calendar`] — a slot-based calendar queue. Every event source
//!   registers once and receives a [`SlotId`]; thereafter it only
//!   *retargets* its next due time. The calendar orders due slots by
//!   `(time, arbitration key)`: a retarget is an `O(1)` store and
//!   peek/pop scan the slot table. Slots are *components*, not events —
//!   a simulation has a handful of them (the payload queues behind each
//!   slot hold the many events) — so the branch-predictable scan over a
//!   contiguous array beats a binary heap with lazy deletion, which
//!   pays a push plus a deferred stale-pop for every retarget.
//! * [`ArbitrationPolicy`] — how slots due at the *same* instant are
//!   ordered: [`ArbitrationPolicy::Deterministic`] (registration order,
//!   the default and the basis of the bitwise-reproducibility contract)
//!   or [`ArbitrationPolicy::SeededShuffle`] (a seeded hash permutes
//!   same-time slots — determinism fuzzing).
//!
//! Each simulation layer drives its own calendar in its own loop, since
//! its event sources need mutable access to shared state; sharded time
//! domains compose through [`crate::shard`].
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

/// A slot-based calendar queue with pluggable same-time arbitration.
///
/// Each event source holds one slot whose due time it retargets as its
/// schedule changes; peek and pop scan the slot table for the minimum
/// `(time, arbitration key)`. Retargeting is a plain store, so sources
/// may refresh their due time every iteration for free.
#[derive(Debug, Default)]
pub struct Calendar {
    policy: ArbitrationPolicy,
    /// Each registered slot's due time, by registration index.
    slots: Vec<Option<SimTime>>,
}

impl Calendar {
    /// An empty calendar under the given arbitration policy.
    pub fn new(policy: ArbitrationPolicy) -> Self {
        Calendar {
            policy,
            slots: Vec::new(),
        }
    }

    /// The active arbitration policy.
    pub fn policy(&self) -> ArbitrationPolicy {
        self.policy
    }

    /// Replaces the arbitration policy. Switch only while no slot is due
    /// (typically right after construction), so one policy never orders
    /// events scheduled under another.
    pub fn set_policy(&mut self, policy: ArbitrationPolicy) {
        debug_assert!(
            self.slots.iter().all(Option::is_none),
            "arbitration policy changed with pending entries"
        );
        self.policy = policy;
    }

    /// Registers a new event source and returns its slot.
    pub fn register(&mut self) -> SlotId {
        let id = SlotId(self.slots.len() as u32);
        self.slots.push(None);
        id
    }

    /// Number of registered slots.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The slot's current due time.
    pub fn due(&self, slot: SlotId) -> Option<SimTime> {
        self.slots.get(slot.index()).copied().flatten()
    }

    /// The arbitration tie key for `slot` firing at `time`.
    fn tie_key(&self, slot: u32, time: SimTime) -> u64 {
        match self.policy {
            ArbitrationPolicy::Deterministic => u64::from(slot),
            ArbitrationPolicy::SeededShuffle(seed) => shuffle_key(seed, slot, time),
        }
    }

    /// Points `slot` at a new due time (or parks it with `None`). `O(1)`.
    pub fn retarget(&mut self, slot: SlotId, due: Option<SimTime>) {
        let i = slot.index();
        debug_assert!(i < self.slots.len(), "retarget of an unregistered slot");
        if let Some(s) = self.slots.get_mut(i) {
            *s = due;
        }
    }

    /// The earliest due `(time, slot)` without popping it: the minimum
    /// `(time, arbitration key)` over the slot table. Tie keys are only
    /// computed for candidates that match the running minimum time, so
    /// the common distinct-time scan costs one comparison per slot.
    pub fn peek(&mut self) -> Option<(SimTime, SlotId)> {
        if matches!(self.policy, ArbitrationPolicy::Deterministic) {
            // Scanning in registration order with strict `<`, the first
            // slot at the minimum time wins — exactly the Deterministic
            // tie rule — for one comparison per slot.
            let mut best: Option<(SimTime, u32)> = None;
            for (i, s) in self.slots.iter().enumerate() {
                let Some(at) = *s else { continue };
                if best.is_none_or(|(bt, _)| at < bt) {
                    best = Some((at, i as u32));
                }
            }
            return best.map(|(at, slot)| (at, SlotId(slot)));
        }
        let mut best: Option<(SimTime, u64, u32)> = None;
        for (i, s) in self.slots.iter().enumerate() {
            let Some(at) = *s else { continue };
            if let Some((bt, bk, _)) = best {
                if at > bt {
                    continue;
                }
                let key = self.tie_key(i as u32, at);
                if at < bt || key < bk {
                    best = Some((at, key, i as u32));
                }
            } else {
                best = Some((at, self.tie_key(i as u32, at), i as u32));
            }
        }
        best.map(|(at, _, slot)| (at, SlotId(slot)))
    }

    /// The earliest due time across all slots.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.peek().map(|(at, _)| at)
    }

    /// Pops the earliest due slot, clearing its due time. The popped
    /// source is expected to handle the event and retarget itself.
    pub fn pop(&mut self) -> Option<(SimTime, SlotId)> {
        let (at, slot) = self.peek()?;
        self.slots[slot.index()] = None;
        Some((at, slot))
    }

    /// Pops the earliest due slot only if it is due at or before `t`.
    pub fn pop_due(&mut self, t: SimTime) -> Option<(SimTime, SlotId)> {
        let (at, slot) = self.peek()?;
        if at > t {
            return None;
        }
        self.slots[slot.index()] = None;
        Some((at, slot))
    }

    /// True when no slot is due.
    pub fn is_empty(&mut self) -> bool {
        self.slots.iter().all(Option::is_none)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
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
        assert_eq!(cal.due(a), None);
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
