//! Access slack determination (§IV-A).
//!
//! For every read of disk-resident data, the slack is the iteration window
//! `[i_w + 1, i_r]` between the last preceding write `i_w` of the data and
//! the read point `i_r` (Fig. 6(a)). Reads of data never written during
//! the program (input files) may be scheduled anywhere in `[0, i_r]`.
//! A read whose producer executes at or after it — possible across
//! processes after loop parallelization and iteration-space normalization —
//! has *negative* slack and collapses to the single point `i_w + 1`
//! (Fig. 6(b)).
//!
//! The paper finds each read's producer "using either the Omega library
//! or the profiling tool". Here the trace ([`crate::trace`]) enumerates
//! every I/O instance with its concrete byte range, and one interval index
//! over the writes answers every read: its producer is the latest write
//! before it whose range overlaps the read's, however the two ranges
//! align. The property tests check that answer against a brute-force scan
//! of all writes.

use std::collections::HashMap;

use sdds_storage::{FileId, StripingLayout};

use crate::error::CompileError;
use crate::ir::{IoDirection, ProgramError};
use crate::signature::Signature;
use crate::trace::{IoInstance, ProgramTrace};

/// An access together with its slack window and signature — the scheduling
/// algorithm's input (`a.b`, `a.e`, `a.g`, `a.id` in Fig. 11's notation).
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulableAccess {
    /// Index of this access in the analysis output (stable identifier).
    pub index: usize,
    /// The underlying I/O instance.
    pub io: IoInstance,
    /// First slot at which the access may execute (`a.b`).
    pub begin: u32,
    /// Last slot at which the access may start (`a.e`).
    pub end: u32,
    /// The access signature over the I/O nodes.
    pub signature: Signature,
    /// The producing write as `(process, slot)`, if the data is produced
    /// during the program (the runtime scheduler checks the producer's
    /// local time before fetching remote-produced data, §III).
    pub producer: Option<(usize, u32)>,
    /// `false` for writes (fixed at their original slot) and for reads
    /// whose slack has length 1.
    pub movable: bool,
}

impl SchedulableAccess {
    /// Slack length in slots (`a.e − a.b + 1`).
    pub fn slack_len(&self) -> u32 {
        self.end - self.begin + 1
    }

    /// Returns `true` if this is a read access.
    pub fn is_read(&self) -> bool {
        self.io.direction == IoDirection::Read
    }
}

/// Computes slacks and signatures for every I/O instance of a trace.
///
/// Writes are included with single-point slacks (they anchor the group
/// signatures and the θ constraint but never move); reads get the slack
/// the producer analysis yields.
///
/// # Example
///
/// ```
/// use sdds_compiler::ir::{IoDirection, Program};
/// use sdds_compiler::{analyze_slacks, SlotGranularity};
/// use sdds_storage::{FileId, StripingLayout};
///
/// let mut p = Program::new("example", 1);
/// let f = p.add_file(FileId(0), 1 << 20);
/// p.push_loop("i", 0, 3, |b| {
///     b.io(IoDirection::Write, f, |e| e.term("i", 65_536), 65_536);
/// });
/// p.push_loop("j", 0, 3, |b| {
///     b.io(IoDirection::Read, f, |e| e.term("j", 65_536), 65_536);
/// });
/// let trace = p.trace(SlotGranularity::unit()).unwrap();
/// let accesses = analyze_slacks(&trace, &StripingLayout::paper_defaults()).unwrap();
/// // Block i is written at slot i and read back at slot 4 + i.
/// let read0 = accesses.iter().find(|a| a.is_read() && a.io.offset == 0).unwrap();
/// assert_eq!((read0.begin, read0.end), (1, 4));
/// ```
///
/// # Errors
///
/// Returns a [`CompileError`] when the trace is internally inconsistent:
/// an instance referencing a process or slot outside the trace, or a
/// zero-length access.
pub fn analyze_slacks(
    trace: &ProgramTrace,
    layout: &StripingLayout,
) -> Result<Vec<SchedulableAccess>, CompileError> {
    let nprocs = trace.processes.len();
    for io in trace.all_ios() {
        if io.proc >= nprocs {
            return Err(CompileError::ProcOutOfRange {
                proc: io.proc,
                nprocs,
            });
        }
        if io.slot >= trace.total_slots {
            return Err(CompileError::SlotOutOfRange {
                slot: io.slot,
                total_slots: trace.total_slots,
            });
        }
        if io.len == 0 {
            return Err(CompileError::Program(ProgramError::EmptyAccess(io.call)));
        }
    }
    let writes = OverlapIndex::build(trace);
    let last_slot = trace.total_slots.saturating_sub(1);

    let mut out = Vec::with_capacity(trace.io_count());
    for io in trace.all_ios() {
        let index = out.len();
        let signature = Signature::of_range(layout, io.file, io.offset, io.len);
        let access = match io.direction {
            IoDirection::Write => SchedulableAccess {
                index,
                io: *io,
                begin: io.slot,
                end: io.slot,
                signature,
                producer: None,
                movable: false,
            },
            IoDirection::Read => {
                let (begin, end, producer) = match writes.producer_of(io) {
                    Producer::Before(w, q) => ((w + 1).min(last_slot), io.slot, Some((q, w))),
                    Producer::AtOrAfter(w, q) => {
                        // Negative slack: the read waits and issues at w+1.
                        let point = (w + 1).min(last_slot);
                        (point, point, Some((q, w)))
                    }
                    Producer::None => (0, io.slot, None),
                };
                let end = end.max(begin);
                SchedulableAccess {
                    index,
                    io: *io,
                    begin,
                    end,
                    signature,
                    producer,
                    movable: end > begin,
                }
            }
        };
        out.push(access);
    }
    Ok(out)
}

/// Where a read's producing write executes, as `(slot, process)`.
enum Producer {
    Before(u32, usize),
    AtOrAfter(u32, usize),
    None,
}

/// Per-file interval index over the writes of a trace.
#[derive(Debug)]
struct OverlapIndex {
    /// file -> writes sorted by offset: (offset, len, slot, proc).
    by_file: HashMap<FileId, Vec<(u64, u64, u32, usize)>>,
    /// file -> longest write length (bounds the overlap scan window).
    max_len: HashMap<FileId, u64>,
}

impl OverlapIndex {
    fn build(trace: &ProgramTrace) -> Self {
        let mut by_file: HashMap<FileId, Vec<(u64, u64, u32, usize)>> = HashMap::new();
        let mut max_len: HashMap<FileId, u64> = HashMap::new();
        for io in trace.all_ios() {
            if io.direction == IoDirection::Write {
                by_file
                    .entry(io.file)
                    .or_default()
                    .push((io.offset, io.len, io.slot, io.proc));
                let m = max_len.entry(io.file).or_insert(0);
                *m = (*m).max(io.len);
            }
        }
        for writes in by_file.values_mut() {
            writes.sort_unstable();
        }
        OverlapIndex { by_file, max_len }
    }

    fn overlapping<'a>(
        &'a self,
        io: &'a IoInstance,
    ) -> impl Iterator<Item = (u64, u64, u32, usize)> + 'a {
        let writes = self.by_file.get(&io.file).map(Vec::as_slice).unwrap_or(&[]);
        let window = self.max_len.get(&io.file).copied().unwrap_or(0);
        // Writes starting before (offset + len) can overlap; writes
        // starting earlier than (offset - window) cannot reach us.
        let lo = io.offset.saturating_sub(window);
        let start = writes.partition_point(|&(o, _, _, _)| o < lo);
        writes[start..]
            .iter()
            .take_while(move |&&(o, _, _, _)| o < io.offset + io.len)
            .copied()
            .filter(move |&(o, l, _, _)| o + l > io.offset)
    }

    /// The producer of `io`: the latest overlapping write strictly before
    /// it, or else the earliest overlapping write at or after it.
    fn producer_of(&self, io: &IoInstance) -> Producer {
        let before = self
            .overlapping(io)
            .filter(|&(_, _, slot, _)| slot < io.slot)
            .max_by_key(|&(_, _, slot, _)| slot);
        if let Some((_, _, w, q)) = before {
            return Producer::Before(w, q);
        }
        self.overlapping(io)
            .filter(|&(_, _, slot, _)| slot >= io.slot)
            .min_by_key(|&(_, _, slot, _)| slot)
            .map_or(Producer::None, |(_, _, w, q)| Producer::AtOrAfter(w, q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{IoDirection, Program};
    use crate::trace::SlotGranularity;

    const KB: u64 = 1024;
    const STRIPE: u64 = 64 * KB;

    fn layout() -> StripingLayout {
        StripingLayout::paper_defaults()
    }

    fn trace_of(p: &Program) -> ProgramTrace {
        p.trace(SlotGranularity::unit()).unwrap()
    }

    #[test]
    fn input_reads_have_full_prefix_slack() {
        let mut p = Program::new("inputs", 1);
        let f = p.add_file(FileId(0), 8 * STRIPE);
        p.push_loop("i", 0, 7, move |b| {
            b.io(IoDirection::Read, f, |e| e.term("i", STRIPE as i64), STRIPE);
        });
        let acc = analyze_slacks(&trace_of(&p), &layout()).unwrap();
        for a in &acc {
            assert_eq!(a.begin, 0);
            assert_eq!(a.end, a.io.slot);
            assert_eq!(a.producer, None);
            if a.io.slot > 0 {
                assert!(a.movable);
            }
        }
    }

    #[test]
    fn produced_reads_start_after_writer() {
        let mut p = Program::new("pc", 1);
        let f = p.add_file(FileId(0), 4 * STRIPE);
        p.push_loop("i", 0, 3, move |b| {
            b.io(
                IoDirection::Write,
                f,
                |e| e.term("i", STRIPE as i64),
                STRIPE,
            );
        });
        p.push_loop("j", 0, 3, move |b| {
            b.io(IoDirection::Read, f, |e| e.term("j", STRIPE as i64), STRIPE);
        });
        let acc = analyze_slacks(&trace_of(&p), &layout()).unwrap();
        let reads: Vec<&SchedulableAccess> = acc.iter().filter(|a| a.is_read()).collect();
        for r in reads {
            let (_, w) = r.producer.expect("produced");
            assert_eq!(r.begin, w + 1);
            assert_eq!(r.end, r.io.slot);
            assert_eq!(w, r.io.offset as u32 / STRIPE as u32);
        }
    }

    #[test]
    fn writes_are_fixed() {
        let mut p = Program::new("w", 1);
        let f = p.add_file(FileId(0), 4 * STRIPE);
        p.push_loop("i", 0, 3, move |b| {
            b.io(
                IoDirection::Write,
                f,
                |e| e.term("i", STRIPE as i64),
                STRIPE,
            );
        });
        let acc = analyze_slacks(&trace_of(&p), &layout()).unwrap();
        for a in &acc {
            assert!(!a.movable);
            assert_eq!(a.begin, a.end);
            assert_eq!(a.begin, a.io.slot);
            assert_eq!(a.slack_len(), 1);
        }
    }

    #[test]
    fn negative_slack_collapses_to_writer_plus_one() {
        // Each process writes its own block i at slot i and, in the same
        // slot, reads the block the *other* process writes at that slot —
        // so every read's producer executes at (not before) the read's
        // normalized iteration: the Fig. 6(b) negative-slack case.
        let mut prog = Program::new("neg", 2);
        let file = prog.add_file(FileId(0), 8 * STRIPE);
        prog.push_loop("i", 0, 3, move |b| {
            // Process 0 (p=0): writes block i at slot i.
            // Process 1 (p=1): the same call becomes a no-op region far
            // away; handled by reading instead.
            b.io(
                IoDirection::Write,
                file,
                |e| e.term("i", STRIPE as i64).term("p", 4 * STRIPE as i64),
                STRIPE,
            );
            // Every process reads block (i) of the *other* region:
            // p=0 reads blocks 4+i (written by p=1 at slot i),
            // p=1 reads blocks i (written by p=0 at slot i).
            b.io(
                IoDirection::Read,
                file,
                |e| {
                    e.term("i", STRIPE as i64)
                        .term("p", -(4 * STRIPE as i64))
                        .plus(4 * STRIPE as i64)
                },
                STRIPE,
            );
        });
        let acc = analyze_slacks(&trace_of(&prog), &layout()).unwrap();
        // Reads and writes of the same block share slot i: producer slot ==
        // read slot → negative slack → point i_w + 1, immovable.
        for a in acc.iter().filter(|a| a.is_read()) {
            let (_, w) = a.producer.expect("produced");
            assert_eq!(w, a.io.slot, "write and read share the slot");
            assert_eq!(a.begin, a.end);
            assert_eq!(a.begin, (w + 1).min(3));
            assert!(!a.movable);
        }
    }

    #[test]
    fn partial_overlap_finds_the_covering_write() {
        // A large write covers two later small reads whose ranges differ
        // from its own.
        let mut p = Program::new("partial", 1);
        let f = p.add_file(FileId(0), 4 * STRIPE);
        p.push_loop("i", 0, 0, move |b| {
            b.io(IoDirection::Write, f, |e| e, 2 * STRIPE);
        });
        p.push_loop("j", 0, 1, move |b| {
            b.io(IoDirection::Read, f, |e| e.term("j", STRIPE as i64), STRIPE);
        });
        let acc = analyze_slacks(&trace_of(&p), &layout()).unwrap();
        for a in acc.iter().filter(|a| a.is_read()) {
            assert_eq!(a.producer.map(|p| p.1), Some(0));
            assert_eq!(a.begin, 1);
        }
    }

    #[test]
    fn partial_overwrite_makes_the_rewrite_the_producer() {
        // Two stripes written at slot 0, the first of them rewritten at
        // slot 1, and both read back at slot 2: the read's data is complete
        // only after the rewrite, so it may not move before slot 2.
        let mut p = Program::new("overwrite", 1);
        let f = p.add_file(FileId(0), 2 * STRIPE);
        p.push_loop("i", 0, 0, move |b| {
            b.io(IoDirection::Write, f, |e| e, 2 * STRIPE);
        });
        p.push_loop("j", 0, 0, move |b| {
            b.io(IoDirection::Write, f, |e| e, STRIPE);
        });
        p.push_loop("k", 0, 0, move |b| {
            b.io(IoDirection::Read, f, |e| e, 2 * STRIPE);
        });
        let acc = analyze_slacks(&trace_of(&p), &layout()).unwrap();
        let read = acc.iter().find(|a| a.is_read()).unwrap();
        assert_eq!(read.io.slot, 2);
        assert_eq!(read.producer, Some((0, 1)));
        assert_eq!((read.begin, read.end), (2, 2));
        assert!(!read.movable);
    }

    #[test]
    fn latest_of_several_writes_is_the_producer() {
        // One block written at slots 0, 1 and 2, then read at slot 6.
        let mut p = Program::new("rewrite", 1);
        let f = p.add_file(FileId(0), STRIPE);
        p.push_loop("i", 0, 2, move |b| {
            b.io(IoDirection::Write, f, |e| e, STRIPE);
        });
        p.push_skip(3, simkit::SimDuration::from_millis(1));
        p.push_loop("j", 0, 0, move |b| {
            b.io(IoDirection::Read, f, |e| e, STRIPE);
        });
        let acc = analyze_slacks(&trace_of(&p), &layout()).unwrap();
        let read = acc.iter().find(|a| a.is_read()).unwrap();
        assert_eq!(read.io.slot, 6);
        assert_eq!(read.producer, Some((0, 2)));
        assert_eq!((read.begin, read.end), (3, 6));
    }

    #[test]
    fn unwritten_range_of_a_written_file_has_prefix_slack() {
        // Block 0 is written at slot 0; block 1 of the same file is only
        // read, at slots 1 and 2.
        let mut p = Program::new("unwritten", 1);
        let f = p.add_file(FileId(0), 2 * STRIPE);
        p.push_loop("i", 0, 0, move |b| {
            b.io(IoDirection::Write, f, |e| e, STRIPE);
        });
        p.push_loop("j", 0, 1, move |b| {
            b.io(IoDirection::Read, f, |e| e.plus(STRIPE as i64), STRIPE);
        });
        let acc = analyze_slacks(&trace_of(&p), &layout()).unwrap();
        let reads: Vec<&SchedulableAccess> = acc.iter().filter(|a| a.is_read()).collect();
        assert_eq!(reads.len(), 2);
        for a in reads {
            assert_eq!(a.producer, None);
            assert_eq!((a.begin, a.end), (0, a.io.slot));
            assert!(a.movable);
        }
    }

    #[test]
    fn signatures_come_from_striping() {
        let mut p = Program::new("sig", 1);
        let f = p.add_file(FileId(0), 16 * STRIPE);
        p.push_io(IoDirection::Read, f, |e| e, 3 * STRIPE);
        let acc = analyze_slacks(&trace_of(&p), &layout()).unwrap();
        assert_eq!(acc[0].signature.nodes().len(), 3);
    }

    #[test]
    fn cross_process_producer_found() {
        // Process 0 writes at slot 0..3; process 1 reads p0's blocks later
        // (slots 4..7 via a second loop).
        let mut p = Program::new("xproc", 2);
        let f = p.add_file(FileId(0), 8 * STRIPE);
        p.push_loop("i", 0, 3, move |b| {
            b.io(
                IoDirection::Write,
                f,
                |e| e.term("i", STRIPE as i64).term("p", 4 * STRIPE as i64),
                STRIPE,
            );
        });
        p.push_loop("j", 0, 3, move |b| {
            // Read the other process's block j.
            b.io(
                IoDirection::Read,
                f,
                |e| {
                    e.term("j", STRIPE as i64)
                        .term("p", -(4 * STRIPE as i64))
                        .plus(4 * STRIPE as i64)
                },
                STRIPE,
            );
        });
        let acc = analyze_slacks(&trace_of(&p), &layout()).unwrap();
        for a in acc.iter().filter(|a| a.is_read()) {
            let (_, w) = a.producer.expect("cross-process producer");
            assert_eq!(w as u64, a.io.offset % (4 * STRIPE) / STRIPE);
            assert!(a.begin == w + 1 && a.end == a.io.slot);
        }
    }
}
