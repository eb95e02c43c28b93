//! The data access scheduling algorithms (§IV-B) and the scheduling table.
//!
//! Three variants, all sharing one engine:
//!
//! * the **basic** algorithm (Fig. 11) — all accesses have length 1;
//! * the **extended** algorithm (§IV-B2) — accesses span multiple slots
//!   and are decomposed into unit sub-accesses for reuse computation;
//! * the **θ-constrained** variants (§IV-B3) — at most θ accesses may
//!   target any I/O node in any slot; when no slot satisfies θ, the slot
//!   with the minimum average overflow `E_t` is chosen.
//!
//! Accesses are processed in non-decreasing order of slack length:
//! "data accesses with shorter slacks are more constrained … it makes
//! sense to schedule them first".

use simkit::DetRng;

use crate::error::CompileError;
use crate::reuse::{GroupState, ReuseScorer, WeightFn};
use crate::slack::SchedulableAccess;
use crate::trace::{IoInstance, ProgramTrace};

/// Scheduler configuration.
///
/// `Eq`/`Hash` let configurations serve as compilation-cache keys: two
/// equal configurations always produce the same scheduling table for the
/// same trace, so cached tables can be reused across experiment cells.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SchedulerConfig {
    /// Vertical reuse range δ (Table II default: 20 slots).
    pub delta: u32,
    /// Per-node per-slot access bound θ (Table II default: 4); `None`
    /// disables the performance constraint (§IV-B1/B2 algorithms).
    pub theta: Option<u16>,
    /// Weight function σ (the paper's Eq. 3 by default).
    pub weights: WeightFn,
    /// Seed for the random tie-break among equal reuse factors.
    pub seed: u64,
    /// Cap on the number of candidate slots evaluated per access. Accesses
    /// whose slack exceeds the cap are sampled at evenly spaced points
    /// (always including both slack ends). The paper evaluates every slot;
    /// this engineering bound keeps very long slacks (whole-program input
    /// reads) tractable and is disabled by `None`.
    pub max_candidates: Option<usize>,
}

impl SchedulerConfig {
    /// Table II defaults: δ = 20, θ = 4, linear weights.
    pub fn paper_defaults() -> Self {
        SchedulerConfig {
            delta: 20,
            theta: Some(4),
            weights: WeightFn::Linear,
            seed: 0x5DD5,
            max_candidates: Some(256),
        }
    }

    /// Paper defaults with exhaustive candidate evaluation (every slot in
    /// every slack is scored, exactly as Fig. 11 does).
    pub fn exhaustive() -> Self {
        SchedulerConfig {
            max_candidates: None,
            ..Self::paper_defaults()
        }
    }

    /// The basic/extended algorithms without the θ constraint.
    pub fn without_theta() -> Self {
        SchedulerConfig {
            theta: None,
            ..Self::paper_defaults()
        }
    }

    /// Checks the scheduler's tuning knobs.
    ///
    /// δ may be any value, including 0 (dropping the vertical-reuse decay
    /// entirely is a meaningful ablation); θ and the candidate cap must
    /// leave the algorithm something to choose from; table weights must
    /// cover `σ(0..=δ)` and be finite and non-negative so reuse factors
    /// stay totally ordered.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] naming the first out-of-range knob.
    pub fn validate(&self) -> Result<(), CompileError> {
        if self.theta == Some(0) {
            return Err(CompileError::Scheduler {
                field: "theta",
                value: 0,
                constraint: ">= 1 when set",
            });
        }
        if let Some(cap) = self.max_candidates {
            if cap < 2 {
                return Err(CompileError::Scheduler {
                    field: "max_candidates",
                    value: cap as u64,
                    constraint: ">= 2 when set",
                });
            }
        }
        if let WeightFn::Table(t) = &self.weights {
            if t.is_empty() {
                return Err(CompileError::Weights { index: None });
            }
            if t.len() <= self.delta as usize {
                return Err(CompileError::Scheduler {
                    field: "weights",
                    value: t.len() as u64,
                    constraint: "a table of at least delta + 1 entries",
                });
            }
            for (i, w) in t.iter().enumerate() {
                if !w.is_finite() || *w < 0.0 {
                    return Err(CompileError::Weights { index: Some(i) });
                }
            }
        }
        Ok(())
    }

    /// Runs the scheduling pass.
    ///
    /// Writes (and reads with single-point slacks) are pre-placed at their
    /// fixed slots; movable reads are then placed one by one in
    /// non-decreasing slack order at the slot with the highest reuse
    /// factor, honoring one-access-per-slot-per-process and (optionally)
    /// the θ bound.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] when a scheduler knob is out of range
    /// (see [`SchedulerConfig::validate`]), when the trace is empty, when
    /// an access references a process or slot outside the trace, when
    /// the access indices are not exactly `0..accesses.len()`, or when an
    /// access's slack begins after it ends or its signature width differs
    /// from the first access's.
    pub fn schedule(
        &self,
        accesses: &[SchedulableAccess],
        trace: &ProgramTrace,
    ) -> Result<ScheduleTable, CompileError> {
        self.validate()?;
        if trace.total_slots == 0 {
            return Err(CompileError::EmptyTrace);
        }
        let nprocs = trace.processes.len();
        let width = accesses.first().map_or(1, |a| a.signature.width());
        let mut indexed = vec![false; accesses.len()];
        for a in accesses {
            if a.io.proc >= nprocs {
                return Err(CompileError::ProcOutOfRange {
                    proc: a.io.proc,
                    nprocs,
                });
            }
            if a.io.slot >= trace.total_slots || a.end >= trace.total_slots {
                return Err(CompileError::SlotOutOfRange {
                    slot: a.io.slot.max(a.end),
                    total_slots: trace.total_slots,
                });
            }
            if a.begin > a.end {
                return Err(CompileError::MalformedAccess {
                    index: a.index,
                    field: "begin",
                    value: a.begin.into(),
                    constraint: "at most the slack end",
                    limit: a.end.into(),
                });
            }
            if a.signature.width() != width {
                return Err(CompileError::MalformedAccess {
                    index: a.index,
                    field: "signature width",
                    value: a.signature.width() as u64,
                    constraint: "equal to the first access's width",
                    limit: width as u64,
                });
            }
            match indexed.get_mut(a.index) {
                None => {
                    return Err(CompileError::AccessIndexOutOfRange {
                        index: a.index,
                        count: accesses.len(),
                    })
                }
                Some(true) => return Err(CompileError::DuplicateAccessIndex { index: a.index }),
                Some(seen) => *seen = true,
            }
        }
        let mut state = GroupState::new(width, trace.total_slots, nprocs);
        let mut rng = DetRng::new(self.seed);
        let mut scratch = Scratch {
            scorer: ReuseScorer::new(self.delta, &self.weights),
            slots: Vec::new(),
            scores: Vec::new(),
            ties: Vec::new(),
        };
        let mut points: Vec<u32> = vec![0; accesses.len()];

        // Fixed accesses first: they anchor group signatures and θ counts.
        for a in accesses.iter().filter(|a| !a.movable) {
            state.place(a.io.proc, a.begin, a.io.length, &a.signature);
            points[a.index] = a.begin;
        }

        // Movable accesses in non-decreasing slack order (stable by index).
        let mut order: Vec<&SchedulableAccess> = accesses.iter().filter(|a| a.movable).collect();
        order.sort_by_key(|a| (a.slack_len(), a.index));

        for a in order {
            let slot = self.pick_slot(a, &state, &mut rng, &mut scratch);
            state.place(a.io.proc, slot, a.io.length, &a.signature);
            points[a.index] = slot;
        }

        Ok(ScheduleTable::build(
            accesses,
            points,
            nprocs,
            trace.total_slots,
        ))
    }

    /// Chooses the scheduling point for one access given the current state.
    fn pick_slot(
        &self,
        a: &SchedulableAccess,
        state: &GroupState,
        rng: &mut DetRng,
        scratch: &mut Scratch,
    ) -> u32 {
        let last_start = state.total_slots().saturating_sub(a.io.length).min(a.end);
        let hi = last_start.max(a.begin);
        let span = (hi - a.begin + 1) as usize;
        let (sig, length) = (&a.signature, a.io.length);
        let slots = &mut scratch.slots;
        slots.clear();
        // A slot the process already uses is unavailable (Fig. 11 line 8).
        let mut consider = |t: u32| {
            if !state.occupied(a.io.proc, t, length) {
                slots.push(t);
            }
        };
        match self.max_candidates {
            Some(cap) if span > cap.max(2) => {
                // Evenly sample the slack, always keeping its ends.
                let cap = cap.max(2);
                let step = (span - 1) as f64 / (cap - 1) as f64;
                let mut last = None;
                for k in 0..cap {
                    let t = a.begin + (k as f64 * step).round() as u32;
                    let t = t.min(hi);
                    if last != Some(t) {
                        consider(t);
                        last = Some(t);
                    }
                }
            }
            _ => (a.begin..=hi).for_each(consider),
        }
        // With every slot in the slack taken by same-process accesses,
        // fall back to the original program point.
        let fallback = a.io.slot.min(hi);
        if slots.is_empty() {
            return fallback;
        }
        scratch
            .scorer
            .score(state, sig, length, slots, &mut scratch.scores);
        let (scores, ties) = (scratch.scores.iter().copied(), &mut scratch.ties);
        match self.theta {
            None => best_slots(slots, scores, ties, |_| true),
            Some(theta) => {
                best_slots(slots, scores, ties, |t| {
                    state.theta_ok(sig, t, length, theta)
                });
                if ties.is_empty() {
                    // No slot satisfies θ: minimize the average overflow E_t.
                    let costs = slots
                        .iter()
                        .map(|&t| -state.overflow_cost(sig, t, length, theta));
                    best_slots(slots, costs, ties, |_| true);
                }
            }
        }
        // §IV-B1: "If there are multiple slots having the same reuse
        // factor, we randomly choose one".
        rng.choose(ties).copied().unwrap_or(fallback)
    }
}

/// Buffers for one access at a time, reused across the accesses of one
/// [`SchedulerConfig::schedule`] call.
struct Scratch {
    scorer: ReuseScorer,
    /// The access's available candidate slots, ascending.
    slots: Vec<u32>,
    /// `R_t` for each candidate slot.
    scores: Vec<f64>,
    /// The candidates chosen among, in slot order.
    ties: Vec<u32>,
}

/// Replaces `ties` with the `slots` that pass `eligible` and carry the
/// highest score among those that do, in slot order. Scores are never NaN
/// or `-0.0`, so the comparisons order them totally; `eligible` runs only
/// for slots that can still tie or win.
fn best_slots(
    slots: &[u32],
    scores: impl Iterator<Item = f64>,
    ties: &mut Vec<u32>,
    mut eligible: impl FnMut(u32) -> bool,
) {
    ties.clear();
    let mut best = f64::NEG_INFINITY;
    for (&t, r) in slots.iter().zip(scores) {
        if r < best || !eligible(t) {
            continue;
        }
        if r > best {
            best = r;
            ties.clear();
        }
        ties.push(t);
    }
}

/// One scheduled I/O operation: the instance plus its chosen slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledIo {
    /// Index into the `SchedulableAccess` list.
    pub access_index: usize,
    /// The underlying I/O instance (with its *original* slot).
    pub io: IoInstance,
    /// The slot the scheduler chose.
    pub slot: u32,
}

impl ScheduledIo {
    /// How many slots earlier than its original point the access now
    /// starts (0 if unmoved or moved later).
    pub fn advance(&self) -> u32 {
        self.io.slot.saturating_sub(self.slot)
    }
}

/// The scheduling table the compiler emits for the runtime scheduler: per
/// process, the accesses to perform at each slot (§III: "records this
/// information in a table for each application process").
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleTable {
    nprocs: usize,
    total_slots: u32,
    /// Per process, scheduled entries sorted by (slot, access index).
    per_proc: Vec<Vec<ScheduledIo>>,
    /// Chosen slot per access index.
    points: Vec<u32>,
}

impl ScheduleTable {
    fn build(
        accesses: &[SchedulableAccess],
        points: Vec<u32>,
        nprocs: usize,
        total_slots: u32,
    ) -> Self {
        let mut per_proc: Vec<Vec<ScheduledIo>> = vec![Vec::new(); nprocs];
        for a in accesses {
            per_proc[a.io.proc].push(ScheduledIo {
                access_index: a.index,
                io: a.io,
                slot: points[a.index],
            });
        }
        for entries in &mut per_proc {
            entries.sort_by_key(|e| (e.slot, e.access_index));
        }
        ScheduleTable {
            nprocs,
            total_slots,
            per_proc,
            points,
        }
    }

    /// Number of processes.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Number of scheduling slots.
    pub fn total_slots(&self) -> u32 {
        self.total_slots
    }

    /// Total number of scheduled accesses.
    pub fn scheduled_count(&self) -> usize {
        self.points.len()
    }

    /// The chosen slot of access `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn point_of(&self, index: usize) -> u32 {
        self.points[index]
    }

    /// The scheduled entries of process `proc`, sorted by slot.
    pub fn for_process(&self, proc: usize) -> &[ScheduledIo] {
        &self.per_proc[proc]
    }

    /// Iterates over all scheduled entries.
    pub fn iter(&self) -> impl Iterator<Item = &ScheduledIo> {
        self.per_proc.iter().flatten()
    }

    /// Number of accesses scheduled earlier than their original point.
    pub fn moved_earlier(&self) -> usize {
        self.iter().filter(|e| e.slot < e.io.slot).count()
    }

    /// Mean advance (slots moved earlier) over all accesses.
    pub fn mean_advance(&self) -> f64 {
        let n = self.scheduled_count();
        if n == 0 {
            return 0.0;
        }
        self.iter().map(|e| e.advance() as f64).sum::<f64>() / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{IoDirection, Program};
    use crate::slack::analyze_slacks;
    use crate::trace::SlotGranularity;
    use sdds_storage::{FileId, StripingLayout};

    const STRIPE: u64 = 64 * 1024;

    /// Two processes scanning disjoint halves of one input file.
    fn scan_program(nprocs: usize, blocks_per_proc: i64) -> Program {
        let mut p = Program::new("scan", nprocs);
        let f = p.add_file(FileId(0), STRIPE * (nprocs as u64) * blocks_per_proc as u64);
        let stride = STRIPE as i64;
        let proc_span = blocks_per_proc * stride;
        p.push_loop("i", 0, blocks_per_proc - 1, move |b| {
            b.io(
                IoDirection::Read,
                f,
                |e| e.term("i", stride).term("p", proc_span),
                STRIPE,
            );
            b.compute(simkit::SimDuration::from_millis(10));
        });
        p
    }

    fn schedule_of(p: &Program, cfg: &SchedulerConfig) -> (Vec<SchedulableAccess>, ScheduleTable) {
        let trace = p.trace(SlotGranularity::unit()).unwrap();
        let layout = StripingLayout::paper_defaults();
        let accesses = analyze_slacks(&trace, &layout).unwrap();
        let table = cfg.schedule(&accesses, &trace).unwrap();
        (accesses, table)
    }

    #[test]
    fn all_accesses_scheduled_within_slack() {
        let p = scan_program(4, 16);
        let (accesses, table) = schedule_of(&p, &SchedulerConfig::paper_defaults());
        assert_eq!(table.scheduled_count(), accesses.len());
        for a in &accesses {
            let slot = table.point_of(a.index);
            assert!(
                slot >= a.begin && slot <= a.end,
                "access {} scheduled at {slot} outside [{}, {}]",
                a.index,
                a.begin,
                a.end
            );
        }
    }

    #[test]
    fn one_access_per_slot_per_process() {
        let p = scan_program(3, 12);
        let (_, table) = schedule_of(&p, &SchedulerConfig::paper_defaults());
        for proc in 0..3 {
            let mut slots: Vec<u32> = table.for_process(proc).iter().map(|e| e.slot).collect();
            let before = slots.len();
            slots.dedup();
            assert_eq!(slots.len(), before, "process {proc} has a slot collision");
        }
    }

    #[test]
    fn writes_stay_at_original_points() {
        let mut p = Program::new("w", 2);
        let f = p.add_file(FileId(0), 8 * STRIPE);
        p.push_loop("i", 0, 3, move |b| {
            b.io(
                IoDirection::Write,
                f,
                |e| e.term("i", STRIPE as i64).term("p", 4 * STRIPE as i64),
                STRIPE,
            );
        });
        let (accesses, table) = schedule_of(&p, &SchedulerConfig::paper_defaults());
        for a in &accesses {
            assert_eq!(table.point_of(a.index), a.io.slot);
        }
    }

    #[test]
    fn scheduling_clusters_same_node_accesses() {
        // 2 processes × 16 input blocks; with full-prefix slacks the
        // scheduler has freedom to group same-signature accesses.
        let p = scan_program(2, 16);
        let (accesses, table) = schedule_of(&p, &SchedulerConfig::without_theta());
        // Count, per slot, the union of nodes touched; reuse should push
        // the average active-node count below the unscheduled baseline.
        let layout = StripingLayout::paper_defaults();
        let width = layout.io_nodes();
        let mut scheduled_active = [sdds_storage::NodeSet::EMPTY; 16];
        let mut original_active = [sdds_storage::NodeSet::EMPTY; 16];
        for a in &accesses {
            let slot = table.point_of(a.index) as usize;
            scheduled_active[slot] = scheduled_active[slot].union(a.signature.nodes());
            original_active[a.io.slot as usize] =
                original_active[a.io.slot as usize].union(a.signature.nodes());
        }
        let sched_busy: usize = scheduled_active.iter().map(|s| s.len()).sum();
        let orig_busy: usize = original_active.iter().map(|s| s.len()).sum();
        assert!(
            sched_busy <= orig_busy,
            "scheduling should not spread accesses over more node-slots \
             (scheduled {sched_busy} vs original {orig_busy}, width {width})"
        );
    }

    /// A trace skeleton for hand-built access fixtures.
    fn fixture_trace(nprocs: usize, slots: u32) -> ProgramTrace {
        ProgramTrace {
            name: "fixture".into(),
            processes: (0..nprocs)
                .map(|proc| crate::trace::ProcessTrace {
                    proc,
                    slots,
                    compute: vec![simkit::SimDuration::ZERO; slots as usize],
                    ios: Vec::new(),
                })
                .collect(),
            total_slots: slots,
        }
    }

    /// A hand-built movable access.
    fn fixture_access(
        index: usize,
        proc: usize,
        nodes: &[usize],
        begin: u32,
        end: u32,
        orig: u32,
        length: u32,
    ) -> SchedulableAccess {
        SchedulableAccess {
            index,
            io: IoInstance {
                call: crate::ir::IoCallId(index as u32),
                file: FileId(0),
                offset: index as u64 * STRIPE,
                len: STRIPE,
                direction: IoDirection::Read,
                proc,
                slot: orig,
                length,
            },
            begin,
            end,
            signature: crate::Signature::new(
                sdds_storage::NodeSet::from_nodes(nodes.iter().copied()),
                8,
            ),
            producer: None,
            movable: end > begin,
        }
    }

    #[test]
    fn theta_bounds_per_node_load() {
        // Six processes each with one movable access on node 0 and ample
        // slack: with θ = 2 at most two may share any slot.
        let trace = fixture_trace(6, 12);
        let accesses: Vec<SchedulableAccess> = (0..6)
            .map(|i| fixture_access(i, i, &[0], 0, 5, 5, 1))
            .collect();
        let cfg = SchedulerConfig {
            theta: Some(2),
            ..SchedulerConfig::paper_defaults()
        };
        let table = cfg.schedule(&accesses, &trace).unwrap();
        let mut counts = std::collections::HashMap::new();
        for e in table.iter() {
            for node in accesses[e.access_index].signature.nodes().iter() {
                *counts.entry((e.slot, node)).or_insert(0u32) += 1;
            }
        }
        let max = counts.values().copied().max().unwrap_or(0);
        assert!(max <= 2, "θ=2 violated: max per-node per-slot count {max}");
        // Without θ, reuse maximization piles everything together.
        let free = SchedulerConfig::without_theta()
            .schedule(&accesses, &trace)
            .unwrap();
        let mut free_counts = std::collections::HashMap::new();
        for e in free.iter() {
            *free_counts.entry(e.slot).or_insert(0u32) += 1;
        }
        let free_max = free_counts.values().copied().max().unwrap();
        assert!(
            free_max > 2,
            "expected clustering without θ, got {free_max}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let p = scan_program(4, 16);
        let (_, t1) = schedule_of(&p, &SchedulerConfig::paper_defaults());
        let (_, t2) = schedule_of(&p, &SchedulerConfig::paper_defaults());
        assert_eq!(t1, t2);
    }

    #[test]
    fn different_seeds_may_differ_but_stay_valid() {
        let p = scan_program(4, 16);
        let cfg2 = SchedulerConfig {
            seed: 999,
            ..SchedulerConfig::paper_defaults()
        };
        let (accesses, t2) = schedule_of(&p, &cfg2);
        for a in &accesses {
            let slot = t2.point_of(a.index);
            assert!(slot >= a.begin && slot <= a.end);
        }
    }

    #[test]
    fn extended_lengths_respect_occupancy() {
        // Three movable length-2 accesses of one process with room to
        // spare: their spans must not overlap.
        let trace = fixture_trace(1, 8);
        let accesses: Vec<SchedulableAccess> = (0..3)
            .map(|i| fixture_access(i, 0, &[i % 8], 0, 6, 6, 2))
            .collect();
        let table = SchedulerConfig::paper_defaults()
            .schedule(&accesses, &trace)
            .unwrap();
        let mut entries: Vec<&ScheduledIo> = table.for_process(0).iter().collect();
        entries.sort_by_key(|e| e.slot);
        for w in entries.windows(2) {
            assert!(
                w[1].slot >= w[0].slot + w[0].io.length,
                "spans overlap: {} len {} then {}",
                w[0].slot,
                w[0].io.length,
                w[1].slot
            );
        }
    }

    #[test]
    fn moved_earlier_and_advance_stats() {
        // An I/O-free compute phase separates the reads from the start of
        // the program: the scheduler prefetches into the gap.
        let mut p = Program::new("gap", 2);
        let f = p.add_file(FileId(0), 32 * STRIPE);
        p.push_skip(8, simkit::SimDuration::from_millis(10)); // compute-only gap
        p.push_loop("i", 0, 7, move |b| {
            b.io(
                IoDirection::Read,
                f,
                |e| e.term("i", STRIPE as i64).term("p", 8 * STRIPE as i64),
                STRIPE,
            );
            b.compute(simkit::SimDuration::from_millis(10));
        });
        let (_, table) = schedule_of(&p, &SchedulerConfig::paper_defaults());
        assert!(table.moved_earlier() > 0, "reads should move into the gap");
        assert!(table.mean_advance() > 0.0);
    }

    /// A one-process trace and two movable accesses of it, with indices 0
    /// and 1 and signatures over 8 nodes.
    fn two_accesses() -> (ProgramTrace, Vec<SchedulableAccess>) {
        let trace = fixture_trace(1, 8);
        let accesses = vec![
            fixture_access(0, 0, &[0], 0, 5, 5, 1),
            fixture_access(1, 0, &[1], 0, 6, 6, 1),
        ];
        (trace, accesses)
    }

    #[test]
    fn out_of_range_access_index_is_an_error() {
        let (trace, mut accesses) = two_accesses();
        accesses[1].index = 2;
        assert_eq!(
            SchedulerConfig::paper_defaults().schedule(&accesses, &trace),
            Err(CompileError::AccessIndexOutOfRange { index: 2, count: 2 })
        );
    }

    #[test]
    fn duplicate_access_index_is_an_error() {
        let (trace, mut accesses) = two_accesses();
        accesses[1].index = 0;
        assert_eq!(
            SchedulerConfig::paper_defaults().schedule(&accesses, &trace),
            Err(CompileError::DuplicateAccessIndex { index: 0 })
        );
    }

    #[test]
    fn mixed_signature_widths_are_an_error() {
        let (trace, mut accesses) = two_accesses();
        accesses[1].signature = crate::Signature::new(sdds_storage::NodeSet::single(1), 16);
        assert!(matches!(
            SchedulerConfig::paper_defaults().schedule(&accesses, &trace),
            Err(CompileError::MalformedAccess {
                index: 1,
                field: "signature width",
                value: 16,
                limit: 8,
                ..
            })
        ));
    }

    #[test]
    fn inverted_slack_is_an_error() {
        let (trace, mut accesses) = two_accesses();
        for a in &mut accesses {
            (a.begin, a.end) = (a.end, a.begin);
        }
        assert!(accesses.iter().all(|a| a.movable));
        assert!(matches!(
            SchedulerConfig::paper_defaults().schedule(&accesses, &trace),
            Err(CompileError::MalformedAccess {
                index: 0,
                field: "begin",
                value: 5,
                limit: 0,
                ..
            })
        ));
    }

    #[test]
    fn weight_table_must_cover_delta() {
        let cfg = SchedulerConfig {
            delta: 4,
            weights: WeightFn::Table(vec![1.0, 0.5, 0.25]),
            ..SchedulerConfig::paper_defaults()
        };
        assert!(matches!(
            cfg.validate(),
            Err(CompileError::Scheduler {
                field: "weights",
                value: 3,
                ..
            })
        ));
        let (trace, accesses) = two_accesses();
        assert!(cfg.schedule(&accesses, &trace).is_err());
    }

    #[test]
    fn empty_access_list() {
        let mut p = Program::new("noio", 1);
        p.push_skip(1, simkit::SimDuration::from_millis(1));
        let trace = p.trace(SlotGranularity::unit()).unwrap();
        let table = SchedulerConfig::paper_defaults()
            .schedule(&[], &trace)
            .unwrap();
        assert_eq!(table.scheduled_count(), 0);
        assert_eq!(table.mean_advance(), 0.0);
    }
}
