//! Property tests for the compiler: signature metric laws, slack analysis
//! against brute force, the batched reuse scorer against the reference
//! sum, and scheduling invariants on random programs.

use proptest::prelude::*;
use sdds_compiler::ir::{IoDirection, Program};
use sdds_compiler::reuse::{GroupState, ReuseScorer, WeightFn};
use sdds_compiler::{analyze_slacks, SchedulerConfig, Signature, SlotGranularity};
use sdds_storage::{FileId, NodeSet, StripingLayout};
use simkit::SimDuration;

const STRIPE: i64 = 64 * 1024;

/// A random two-phase program: a write pass over per-process blocks, an
/// optional compute gap, then a read pass over a (possibly shifted) region.
fn arb_program() -> impl Strategy<Value = Program> {
    (
        1usize..5, // procs
        1i64..12,  // blocks per proc
        0u32..6,   // gap slots
        0i64..3,   // read shift (blocks), may create partial overlap
        1i64..4,   // block size in stripes
    )
        .prop_map(|(procs, blocks, gap, shift, stripes)| {
            two_phase(procs, blocks, gap, shift, stripes, None)
        })
}

/// [`arb_program`] with a second write pass right after the first,
/// shifted by 1–2 stripes, so that later writes partly overwrite earlier
/// ones.
fn arb_overwriting_program() -> impl Strategy<Value = Program> {
    (1usize..5, 1i64..12, 0u32..6, 0i64..3, 1i64..4, 1i64..3).prop_map(
        |(procs, blocks, gap, shift, stripes, rewrite)| {
            two_phase(procs, blocks, gap, shift, stripes, Some(rewrite))
        },
    )
}

/// The program [`arb_program`] and [`arb_overwriting_program`] generate;
/// `rewrite` is the second write pass's shift in stripes, if it has one.
fn two_phase(
    procs: usize,
    blocks: i64,
    gap: u32,
    shift: i64,
    stripes: i64,
    rewrite: Option<i64>,
) -> Program {
    let blk = stripes * STRIPE;
    let span = blocks * blk + STRIPE;
    let mut p = Program::new("prop", procs);
    let f = p.add_file(
        FileId(0),
        ((procs as i64) * span + (blocks + shift) * blk + blk) as u64,
    );
    p.push_loop("i", 0, blocks - 1, move |b| {
        b.io(
            IoDirection::Write,
            f,
            |e| e.term("p", span).term("i", blk),
            blk as u64,
        );
        b.compute(SimDuration::from_millis(5));
    });
    if let Some(rewrite) = rewrite {
        p.push_loop("k", 0, blocks - 1, move |b| {
            b.io(
                IoDirection::Write,
                f,
                |e| e.term("p", span).term("k", blk).plus(rewrite * STRIPE),
                blk as u64,
            );
            b.compute(SimDuration::from_millis(5));
        });
    }
    if gap > 0 {
        p.push_skip(gap, SimDuration::from_millis(20));
    }
    p.push_loop("j", 0, blocks - 1, move |b| {
        b.io(
            IoDirection::Read,
            f,
            |e| e.term("p", span).term("j", blk).plus(shift * blk),
            blk as u64,
        );
        b.compute(SimDuration::from_millis(5));
    });
    p
}

proptest! {
    /// The paper's distance metric: bounds, symmetry, and the identity
    /// distance(g, g) = n − |g|.
    #[test]
    fn distance_metric_laws(
        xs in prop::collection::btree_set(0usize..16, 0..10),
        ys in prop::collection::btree_set(0usize..16, 0..10),
    ) {
        let a = Signature::new(NodeSet::from_nodes(xs.iter().copied()), 16);
        let b = Signature::new(NodeSet::from_nodes(ys.iter().copied()), 16);
        prop_assert_eq!(a.distance(&b), b.distance(&a));
        prop_assert_eq!(a.distance(&a), 16 - xs.len());
        // distance = n − similarity + difference, with the components
        // recomputed from raw sets.
        let sim = xs.intersection(&ys).count();
        let diff = xs.symmetric_difference(&ys).count();
        prop_assert_eq!(a.distance(&b), 16 - sim + diff);
        // Bounds: [n − min(|a|,|b|), n + |a| + |b|].
        let d = a.distance(&b);
        prop_assert!(d >= 16 - xs.len().min(ys.len()));
        prop_assert!(d <= 16 + xs.len() + ys.len());
    }

    /// Slack analysis agrees with a brute-force scan over all writes,
    /// also where later writes partly overwrite earlier ones.
    #[test]
    fn slack_matches_brute_force(program in arb_overwriting_program()) {
        let trace = program.trace(SlotGranularity::unit()).unwrap();
        let layout = StripingLayout::paper_defaults();
        let accesses = analyze_slacks(&trace, &layout).unwrap();
        let all: Vec<_> = trace.all_ios().collect();
        for a in &accesses {
            if !a.is_read() {
                prop_assert_eq!(a.begin, a.io.slot);
                prop_assert_eq!(a.end, a.io.slot);
                continue;
            }
            // Brute force: last overlapping write strictly before the read.
            let brute = all
                .iter()
                .filter(|w| {
                    w.direction == IoDirection::Write
                        && w.overlaps(&a.io)
                        && w.slot < a.io.slot
                })
                .map(|w| w.slot)
                .max();
            match brute {
                Some(w) => {
                    prop_assert_eq!(
                        a.producer.map(|p| p.1), Some(w),
                        "producer mismatch for read at slot {}", a.io.slot
                    );
                    prop_assert_eq!(a.begin, (w + 1).min(trace.total_slots - 1));
                    prop_assert_eq!(a.end, a.io.slot.max(a.begin));
                }
                None => {
                    // Either unproduced (prefix slack) or a future writer
                    // (negative slack).
                    if a.producer.is_none() {
                        prop_assert_eq!(a.begin, 0);
                        prop_assert_eq!(a.end, a.io.slot);
                    } else {
                        let (_, w) = a.producer.unwrap();
                        prop_assert!(w >= a.io.slot, "future producer expected");
                        prop_assert_eq!(a.begin, a.end);
                    }
                }
            }
        }
    }

    /// Scheduling invariants hold for every random program under both the
    /// unconstrained and the θ-bounded algorithms.
    #[test]
    fn schedule_invariants(program in arb_program(), theta in 1u16..5) {
        let trace = program.trace(SlotGranularity::unit()).unwrap();
        let layout = StripingLayout::paper_defaults();
        let accesses = analyze_slacks(&trace, &layout).unwrap();
        for config in [
            SchedulerConfig::without_theta(),
            SchedulerConfig {
                theta: Some(theta),
                ..SchedulerConfig::paper_defaults()
            },
        ] {
            let table = config.schedule(&accesses, &trace).unwrap();
            prop_assert_eq!(table.scheduled_count(), accesses.len());
            for a in &accesses {
                let slot = table.point_of(a.index);
                prop_assert!(
                    slot >= a.begin && slot <= a.end,
                    "access {} at {} outside slack [{}, {}]",
                    a.index, slot, a.begin, a.end
                );
                if !a.movable {
                    prop_assert_eq!(slot, a.io.slot);
                }
            }
            // One movable access per slot per process (fixed accesses and
            // the saturation fallback may legitimately collide).
            for proc in 0..trace.processes.len() {
                let mut seen = std::collections::HashSet::new();
                for e in table.for_process(proc) {
                    if accesses[e.access_index].movable {
                        prop_assert!(
                            seen.insert(e.slot),
                            "process {proc} has two movable accesses at slot {}",
                            e.slot
                        );
                    }
                }
            }
        }
    }

    /// The same seed yields the same schedule; the scheduler is a pure
    /// function of (accesses, trace, config).
    #[test]
    fn schedule_deterministic(program in arb_program()) {
        let trace = program.trace(SlotGranularity::unit()).unwrap();
        let layout = StripingLayout::paper_defaults();
        let accesses = analyze_slacks(&trace, &layout).unwrap();
        let config = SchedulerConfig::paper_defaults();
        let a = config.schedule(&accesses, &trace).unwrap();
        let b = config.schedule(&accesses, &trace).unwrap();
        prop_assert_eq!(a, b);
    }

    /// Traces are invariant to the interpreter pass count and respect the
    /// declared granularity: grouped slots never exceed unit slots.
    #[test]
    fn granularity_coarsens_monotonically(program in arb_program(), d in 2u32..5) {
        let unit = program.trace(SlotGranularity::unit()).unwrap();
        let grouped = program.trace(SlotGranularity::grouped(d)).unwrap();
        prop_assert!(grouped.total_slots <= unit.total_slots);
        prop_assert_eq!(grouped.io_count(), unit.io_count());
        // Grouped slots map each instance to slot/d.
        for (u, g) in unit.all_ios().zip(grouped.all_ios()) {
            prop_assert_eq!(g.slot, u.slot / d);
        }
    }
}

/// The signature over `width` nodes with the nodes of `bits` below it.
fn signature_of(bits: u64, width: usize) -> Signature {
    Signature::new(
        NodeSet::from_nodes((0..width).filter(|&n| bits >> n & 1 == 1)),
        width,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The batched scorer reproduces `GroupState::reuse_factor` bit for
    /// bit, for candidates anywhere in the slot range and within δ of
    /// either end of it, in any order and with repeats.
    #[test]
    fn batched_scores_match_reference(
        (total_slots, width, delta, length) in (1u32..80, 1usize..17, 0u32..25, 1u32..5),
        placements in prop::collection::vec((0u32..80, 1u32..5, any::<u64>(), 0usize..3), 0..60),
        sig_bits in (any::<u64>(), any::<u64>()),
        table in prop::collection::vec(0.0f64..2.0, 25..26),
        linear in any::<bool>(),
        picks in prop::collection::vec((0u8..3, 0u32..1000), 1..50),
    ) {
        let mut state = GroupState::new(width, total_slots, 3);
        for &(start, len, bits, proc) in &placements {
            state.place(proc, start % total_slots, len, &signature_of(bits, width));
        }
        let weights = if linear {
            WeightFn::Linear
        } else {
            WeightFn::Table(table[..=delta as usize].to_vec())
        };
        let candidates: Vec<u32> = picks
            .iter()
            .map(|&(end, x)| match end {
                0 => x % (delta + 1) % total_slots,
                1 => (total_slots - 1).saturating_sub(x % (delta + 1)),
                _ => x % total_slots,
            })
            .collect();
        // One scorer serves several accesses, as in a scheduling pass.
        let mut scorer = ReuseScorer::new(delta, &weights);
        let mut scores = Vec::new();
        for bits in [sig_bits.0, sig_bits.1] {
            let sig = signature_of(bits, width);
            scorer.score(&state, &sig, length, &candidates, &mut scores);
            prop_assert_eq!(scores.len(), candidates.len());
            for (&t, r) in candidates.iter().zip(&scores) {
                let expected = state.reuse_factor(&sig, t, length, delta, &weights);
                prop_assert_eq!(
                    r.to_bits(), expected.to_bits(),
                    "slot {} of {}: batched {} vs reference {}", t, total_slots, r, expected
                );
            }
        }
    }
}
