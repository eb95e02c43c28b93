//! Calendar probe: host cost of `simkit::kernel::Calendar` operations at
//! the slot count a workload drives (the engine's processes + 3, or the
//! components in one shard of a scene).

use std::time::Instant;

use simkit::kernel::{ArbitrationPolicy, Calendar};
use simkit::SimTime;

/// Registers `slots` sources, then repeats rounds that retarget every
/// slot to a later time and pop whatever has fallen a round behind, until
/// at least `min_seconds` have passed; finally pops everything left.
/// Returns (operations, seconds).
pub fn calendar(slots: usize, min_seconds: f64) -> (u64, f64) {
    let slots = slots.max(1);
    let started = Instant::now();
    let mut cal = Calendar::new(ArbitrationPolicy::Deterministic);
    let ids: Vec<_> = (0..slots).map(|_| cal.register()).collect();
    let mut ops = slots as u64;
    let mut t: u64 = slots as u64;
    let mut sink: u64 = 0;
    while started.elapsed().as_secs_f64() < min_seconds {
        for (i, &slot) in ids.iter().enumerate() {
            t += 1 + (i as u64 & 7);
            cal.retarget(slot, Some(SimTime::from_micros(t)));
        }
        ops += slots as u64;
        // Slots retargeted early in the round are due; the rest stay
        // queued and are retargeted again next round.
        while let Some((at, slot)) = cal.pop_due(SimTime::from_micros(t - slots as u64)) {
            sink = sink.wrapping_add(at.as_micros() ^ slot.index() as u64);
            ops += 1;
        }
    }
    while let Some((at, slot)) = cal.pop() {
        sink = sink.wrapping_add(at.as_micros() ^ slot.index() as u64);
        ops += 1;
    }
    std::hint::black_box(sink);
    (ops, started.elapsed().as_secs_f64())
}
