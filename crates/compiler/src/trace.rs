//! Trace extraction: every I/O instance of a program, enumerated.
//!
//! The paper identifies slacks "using either the Omega library or the
//! profiling tool" (§IV-A). Here one analysis serves every program:
//! interpreting the loop-nest IR enumerates every process's iterations,
//! records each I/O call instance with its concrete file region, and
//! assigns each to a scheduling slot; [`crate::slack`] then finds each
//! read's producer by interval overlap over these instances. The paper
//! measures slots in loop iterations and groups `d > 1` iterations into
//! one unit for large loops; [`SlotGranularity`] carries that `d`.

use std::collections::HashMap;

use sdds_storage::FileId;
use simkit::SimDuration;

use crate::ir::{IoCallId, IoDirection, Program, ProgramError, Stmt};

/// Hard cap on the number of scheduling slots per process, protecting the
/// O(slots) scheduling structures.
const MAX_SLOTS: u64 = 50_000_000;

/// How loop iterations map to scheduling slots.
///
/// `Hash` lets granularities serve as compilation-cache keys (the cache
/// memoizes traces per `(app, scale, granularity)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotGranularity {
    /// Number of innermost-slot-loop iterations per scheduling slot
    /// (the paper's `d`, §IV-A).
    pub iterations_per_slot: u32,
    /// If set, an access of `len` bytes occupies
    /// `ceil(len / bytes_per_slot)` slots (the extended algorithm's access
    /// lengths, §IV-B2); if `None`, every access has length 1 (the basic
    /// algorithm's assumption).
    pub access_bytes_per_slot: Option<u64>,
}

impl SlotGranularity {
    /// One iteration per slot, all accesses length 1.
    pub fn unit() -> Self {
        SlotGranularity {
            iterations_per_slot: 1,
            access_bytes_per_slot: None,
        }
    }

    /// `d` iterations per slot, accesses length 1.
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero.
    pub fn grouped(d: u32) -> Self {
        assert!(d > 0, "granularity must be positive");
        SlotGranularity {
            iterations_per_slot: d,
            access_bytes_per_slot: None,
        }
    }

    /// Unit iteration granularity with multi-slot access lengths.
    pub fn with_access_lengths(bytes_per_slot: u64) -> Self {
        assert!(bytes_per_slot > 0, "bytes per slot must be positive");
        SlotGranularity {
            iterations_per_slot: 1,
            access_bytes_per_slot: Some(bytes_per_slot),
        }
    }

    fn slot_of(&self, raw: u64) -> u32 {
        (raw / self.iterations_per_slot as u64) as u32
    }

    fn length_of(&self, len: u64) -> u32 {
        match self.access_bytes_per_slot {
            None => 1,
            Some(b) => len.div_ceil(b).max(1) as u32,
        }
    }
}

/// One dynamic I/O operation observed during interpretation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoInstance {
    /// The static call that produced it.
    pub call: IoCallId,
    /// Target file.
    pub file: FileId,
    /// Concrete byte offset.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
    /// Read or write.
    pub direction: IoDirection,
    /// Executing process.
    pub proc: usize,
    /// The scheduling slot at which the program originally performs it.
    pub slot: u32,
    /// How many slots the access occupies (≥ 1).
    pub length: u32,
}

impl IoInstance {
    /// The half-open byte range `[offset, offset + len)`.
    pub fn range(&self) -> (u64, u64) {
        (self.offset, self.offset + self.len)
    }

    /// Returns `true` if two instances touch overlapping bytes of the same
    /// file.
    pub fn overlaps(&self, other: &IoInstance) -> bool {
        self.file == other.file
            && self.offset < other.offset + other.len
            && other.offset < self.offset + self.len
    }
}

/// The observed execution of one process.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessTrace {
    /// Process rank.
    pub proc: usize,
    /// Number of scheduling slots this process executes.
    pub slots: u32,
    /// Modeled compute time attributed to each slot.
    pub compute: Vec<SimDuration>,
    /// I/O instances in program order.
    pub ios: Vec<IoInstance>,
}

/// The observed execution of the whole program.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramTrace {
    /// Program name (for reports).
    pub name: String,
    /// Per-process traces, indexed by rank.
    pub processes: Vec<ProcessTrace>,
    /// The common normalized iteration count: `max` over processes.
    pub total_slots: u32,
}

impl ProgramTrace {
    /// Total number of I/O instances across processes.
    pub fn io_count(&self) -> usize {
        self.processes.iter().map(|p| p.ios.len()).sum()
    }

    /// Iterates all I/O instances across processes in rank order.
    pub fn all_ios(&self) -> impl Iterator<Item = &IoInstance> {
        self.processes.iter().flat_map(|p| p.ios.iter())
    }

    /// Merges two traces into one multi-application workload (the paper's
    /// §VII future-work scenario): `other`'s processes run alongside
    /// `self`'s on the same storage array, with `other`'s files renumbered
    /// past `self`'s so the applications never share data.
    ///
    /// The merged iteration space is the union: each process keeps its own
    /// slot count, and the normalized total is the maximum.
    pub fn merge(&self, other: &ProgramTrace) -> ProgramTrace {
        let file_base = self.all_ios().map(|io| io.file.0 + 1).max().unwrap_or(0);
        let proc_base = self.processes.len();
        let mut processes = self.processes.clone();
        for p in &other.processes {
            let mut p = p.clone();
            p.proc += proc_base;
            for io in &mut p.ios {
                io.proc += proc_base;
                io.file = FileId(io.file.0 + file_base);
            }
            processes.push(p);
        }
        ProgramTrace {
            name: format!("{}+{}", self.name, other.name),
            total_slots: self.total_slots.max(other.total_slots),
            processes,
        }
    }

    /// Total bytes read and written.
    pub fn bytes_moved(&self) -> (u64, u64) {
        let mut read = 0;
        let mut written = 0;
        for io in self.all_ios() {
            match io.direction {
                IoDirection::Read => read += io.len,
                IoDirection::Write => written += io.len,
            }
        }
        (read, written)
    }
}

impl Program {
    /// Interprets the program, producing the per-process traces the slack
    /// analysis and the runtime scheduler consume.
    ///
    /// # Errors
    ///
    /// Returns a [`ProgramError`] for structural problems, out-of-bounds
    /// accesses, or programs exceeding the supported slot count.
    pub fn trace(&self, granularity: SlotGranularity) -> Result<ProgramTrace, ProgramError> {
        self.validate()?;
        let mut processes = Vec::with_capacity(self.nprocs());
        for proc in 0..self.nprocs() {
            processes.push(self.trace_process(proc, granularity)?);
        }
        let total_slots = processes.iter().map(|p| p.slots).max().unwrap_or(0);
        Ok(ProgramTrace {
            name: self.name().to_owned(),
            processes,
            total_slots,
        })
    }

    fn trace_process(
        &self,
        proc: usize,
        granularity: SlotGranularity,
    ) -> Result<ProcessTrace, ProgramError> {
        let mut interp = Interpreter {
            program: self,
            proc,
            granularity,
            env: HashMap::from([("p".to_owned(), proc as i64)]),
            raw_slot: 0,
            compute: Vec::new(),
            ios: Vec::new(),
        };
        interp.run(self.body())?;
        // The slot counter points one past the last completed innermost
        // iteration; any trailing statements landed on `raw_slot`, so the
        // process occupies raw_slot + 1 raw slots unless it is exactly at a
        // boundary with nothing trailing.
        let raw_total = interp.effective_raw_total();
        if raw_total > MAX_SLOTS {
            return Err(ProgramError::TooManySlots);
        }
        let slots = granularity.slot_of(raw_total.saturating_sub(1)) + 1;
        let mut compute = interp.compute;
        compute.resize(slots as usize, SimDuration::ZERO);
        Ok(ProcessTrace {
            proc,
            slots,
            compute,
            ios: interp.ios,
        })
    }
}

struct Interpreter<'a> {
    program: &'a Program,
    proc: usize,
    granularity: SlotGranularity,
    env: HashMap<String, i64>,
    raw_slot: u64,
    compute: Vec<SimDuration>,
    ios: Vec<IoInstance>,
}

impl Interpreter<'_> {
    fn run(&mut self, stmts: &[Stmt]) -> Result<(), ProgramError> {
        for stmt in stmts {
            match stmt {
                Stmt::Loop {
                    var,
                    lower,
                    upper,
                    body,
                } => {
                    let lo = self.eval(lower)?;
                    let hi = self.eval(upper)?;
                    let is_slot_loop = contains_io(body);
                    let has_inner_slot_loop = contains_slot_loop(body);
                    for v in lo..=hi {
                        self.env.insert(var.clone(), v);
                        self.run(body)?;
                        // Only the innermost loop that performs I/O advances
                        // the slot counter; outer slot loops delegate to it.
                        if is_slot_loop && !has_inner_slot_loop {
                            self.raw_slot += 1;
                            if self.raw_slot > MAX_SLOTS {
                                return Err(ProgramError::TooManySlots);
                            }
                        }
                    }
                    self.env.remove(var);
                }
                Stmt::Io(call) => {
                    let offset = call
                        .offset
                        .eval(|v| self.env.get(v).copied())
                        .map_err(|v| ProgramError::UnboundVariable(v.to_owned()))?;
                    // `Program::validate` already checked the declaration;
                    // report the typed error anyway rather than panic.
                    let Some(decl) = self.program.files().iter().find(|f| f.id == call.file) else {
                        return Err(ProgramError::UnknownFile(call.file));
                    };
                    let size = decl.size;
                    if offset < 0 || offset as u64 + call.len > size {
                        return Err(ProgramError::OutOfBounds {
                            call: call.id,
                            offset,
                            size,
                        });
                    }
                    let slot = self.granularity.slot_of(self.raw_slot);
                    self.ios.push(IoInstance {
                        call: call.id,
                        file: call.file,
                        offset: offset as u64,
                        len: call.len,
                        direction: call.direction,
                        proc: self.proc,
                        slot,
                        length: self.granularity.length_of(call.len),
                    });
                }
                Stmt::Compute(cost) => {
                    let slot = self.granularity.slot_of(self.raw_slot) as usize;
                    if self.compute.len() <= slot {
                        self.compute.resize(slot + 1, SimDuration::ZERO);
                    }
                    self.compute[slot] += *cost;
                }
                Stmt::Skip { slots, per_slot } => {
                    for _ in 0..*slots {
                        if !per_slot.is_zero() {
                            let slot = self.granularity.slot_of(self.raw_slot) as usize;
                            if self.compute.len() <= slot {
                                self.compute.resize(slot + 1, SimDuration::ZERO);
                            }
                            self.compute[slot] += *per_slot;
                        }
                        self.raw_slot += 1;
                        if self.raw_slot > MAX_SLOTS {
                            return Err(ProgramError::TooManySlots);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn eval(&self, e: &crate::affine::AffineExpr) -> Result<i64, ProgramError> {
        e.eval(|v| self.env.get(v).copied())
            .map_err(|v| ProgramError::UnboundVariable(v.to_owned()))
    }

    /// Raw slots consumed: at least one, and one past the counter if any
    /// event landed on the current (unfinished) slot.
    fn effective_raw_total(&self) -> u64 {
        let trailing = self
            .ios
            .iter()
            .map(|io| io.slot as u64 * self.granularity.iterations_per_slot as u64)
            .chain(std::iter::once(0))
            .max()
            .unwrap_or(0);
        self.raw_slot.max(trailing).max(1)
    }
}

fn contains_io(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::Io(_) => true,
        Stmt::Loop { body, .. } => contains_io(body),
        Stmt::Compute(_) | Stmt::Skip { .. } => false,
    })
}

fn contains_slot_loop(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::Loop { body, .. } => contains_io(body),
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{IoDirection, Program};
    use sdds_storage::FileId;

    const MB: u64 = 1 << 20;

    /// The Fig. 5 matrix-multiplication structure with R = 4.
    fn matmul(r: i64, nprocs: usize) -> Program {
        let mut p = Program::new("mm", nprocs);
        let u = p.add_file(FileId(0), 1 << 30);
        let v = p.add_file(FileId(1), 1 << 30);
        let w = p.add_file(FileId(2), 1 << 30);
        let rr = r;
        p.push_loop("m", 0, r - 1, move |b| {
            b.io(IoDirection::Read, u, |e| e.term("m", MB as i64), MB);
            b.loop_("n", 0, rr - 1, move |b| {
                b.io(IoDirection::Read, v, |e| e.term("n", MB as i64), MB);
                b.compute(SimDuration::from_millis(5));
                b.io(
                    IoDirection::Write,
                    w,
                    |e| e.term("m", rr * MB as i64).term("n", MB as i64),
                    MB,
                );
            });
        });
        p
    }

    #[test]
    fn matmul_slot_structure() {
        let t = matmul(4, 1).unwrap_trace();
        assert_eq!(t.total_slots, 16); // R*R inner iterations
        let proc = &t.processes[0];
        // Read U of m happens at slot m*R.
        let u_reads: Vec<u32> = proc
            .ios
            .iter()
            .filter(|io| io.call.0 == 0)
            .map(|io| io.slot)
            .collect();
        assert_eq!(u_reads, vec![0, 4, 8, 12]);
        // Write W of (m, n) at slot m*R + n.
        let w_writes: Vec<u32> = proc
            .ios
            .iter()
            .filter(|io| io.call.0 == 2)
            .map(|io| io.slot)
            .collect();
        assert_eq!(w_writes, (0..16).collect::<Vec<u32>>());
    }

    trait UnwrapTrace {
        fn unwrap_trace(&self) -> ProgramTrace;
    }
    impl UnwrapTrace for Program {
        fn unwrap_trace(&self) -> ProgramTrace {
            self.trace(SlotGranularity::unit()).unwrap()
        }
    }

    #[test]
    fn per_process_offsets_differ() {
        let mut p = Program::new("scan", 2);
        let f = p.add_file(FileId(0), 64 * MB);
        p.push_loop("i", 0, 3, move |b| {
            b.io(
                IoDirection::Read,
                f,
                |e| e.term("i", MB as i64).term("p", 4 * MB as i64),
                MB,
            );
        });
        let t = p.unwrap_trace();
        assert_eq!(t.processes[0].ios[0].offset, 0);
        assert_eq!(t.processes[1].ios[0].offset, 4 * MB);
        assert_eq!(t.total_slots, 4);
    }

    #[test]
    fn granularity_groups_iterations() {
        let t = matmul(4, 1).trace(SlotGranularity::grouped(4)).unwrap();
        assert_eq!(t.total_slots, 4);
        let u_reads: Vec<u32> = t.processes[0]
            .ios
            .iter()
            .filter(|io| io.call.0 == 0)
            .map(|io| io.slot)
            .collect();
        assert_eq!(u_reads, vec![0, 1, 2, 3]);
    }

    #[test]
    fn access_lengths_derive_from_bytes() {
        let t = matmul(2, 1)
            .trace(SlotGranularity::with_access_lengths(MB / 2))
            .unwrap();
        assert!(t.processes[0].ios.iter().all(|io| io.length == 2));
        let t1 = matmul(2, 1).unwrap_trace();
        assert!(t1.processes[0].ios.iter().all(|io| io.length == 1));
    }

    #[test]
    fn compute_attributed_to_slots() {
        let t = matmul(2, 1).unwrap_trace();
        let compute = &t.processes[0].compute;
        assert_eq!(compute.len(), 4);
        assert!(compute.iter().all(|&c| c == SimDuration::from_millis(5)));
    }

    #[test]
    fn compute_phase_creates_gap_slots() {
        let mut p = Program::new("gapped", 1);
        let f = p.add_file(FileId(0), 4 * MB);
        p.push_loop("i", 0, 3, move |b| {
            b.io(IoDirection::Read, f, |e| e.term("i", MB as i64), MB);
        });
        p.push_skip(3, SimDuration::from_secs(1));
        let t = p.unwrap_trace();
        assert_eq!(t.total_slots, 4 + 3);
        assert_eq!(t.processes[0].compute[4..], [SimDuration::from_secs(1); 3]);
    }

    #[test]
    fn out_of_bounds_detected() {
        let mut p = Program::new("oob", 1);
        let f = p.add_file(FileId(0), MB);
        p.push_loop("i", 0, 3, move |b| {
            b.io(IoDirection::Read, f, |e| e.term("i", MB as i64), MB);
        });
        assert!(matches!(
            p.trace(SlotGranularity::unit()),
            Err(ProgramError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn empty_loop_contributes_no_slots() {
        let mut p = Program::new("empty", 1);
        let f = p.add_file(FileId(0), MB);
        p.push_loop("i", 5, 4, move |b| {
            // upper < lower: zero iterations
            b.io(IoDirection::Read, f, |e| e, 1024);
        });
        let t = p.unwrap_trace();
        assert_eq!(t.io_count(), 0);
        assert_eq!(t.total_slots, 1);
    }

    #[test]
    fn top_level_io_lands_in_slot_zero() {
        let mut p = Program::new("open", 1);
        let f = p.add_file(FileId(0), MB);
        p.push_io(IoDirection::Read, f, |e| e, 1024);
        let t = p.unwrap_trace();
        assert_eq!(t.processes[0].ios[0].slot, 0);
    }

    #[test]
    fn affine_inner_bounds() {
        // Triangular loop: for i in 0..=3 { for j in 0..=i { io } }.
        let mut p = Program::new("tri", 1);
        let f = p.add_file(FileId(0), 64 * MB);
        p.push_loop("i", 0, 3, move |b| {
            b.loop_expr(
                "j",
                crate::affine::AffineExpr::constant(0),
                crate::ir::ExprBuilder::new().term("i", 1).build(),
                move |b| {
                    b.io(
                        IoDirection::Read,
                        f,
                        |e| e.term("i", MB as i64).term("j", 1024),
                        1024,
                    );
                },
            );
        });
        let t = p.unwrap_trace();
        assert_eq!(t.io_count(), 1 + 2 + 3 + 4);
        assert_eq!(t.total_slots, 10);
    }

    #[test]
    fn overlap_detection() {
        let a = IoInstance {
            call: IoCallId(0),
            file: FileId(0),
            offset: 0,
            len: 100,
            direction: IoDirection::Write,
            proc: 0,
            slot: 0,
            length: 1,
        };
        let mut b = a;
        b.offset = 99;
        assert!(a.overlaps(&b));
        b.offset = 100;
        assert!(!a.overlaps(&b));
        b.offset = 0;
        b.file = FileId(1);
        assert!(!a.overlaps(&b));
    }

    #[test]
    fn merge_combines_applications() {
        let a = matmul(2, 1).unwrap_trace();
        let b = matmul(3, 2).unwrap_trace();
        let m = a.merge(&b);
        assert_eq!(m.processes.len(), 3);
        assert_eq!(m.total_slots, a.total_slots.max(b.total_slots));
        assert_eq!(m.io_count(), a.io_count() + b.io_count());
        // The second application's processes are renumbered after the
        // first's, and its files do not collide with the first's.
        assert_eq!(m.processes[1].proc, 1);
        assert_eq!(m.processes[2].proc, 2);
        let a_files: std::collections::HashSet<u32> = a.all_ios().map(|io| io.file.0).collect();
        let b_files: std::collections::HashSet<u32> = m.processes[1..]
            .iter()
            .flat_map(|p| p.ios.iter())
            .map(|io| io.file.0)
            .collect();
        assert!(a_files.is_disjoint(&b_files));
        let (ra, wa) = a.bytes_moved();
        let (rb, wb) = b.bytes_moved();
        assert_eq!(m.bytes_moved(), (ra + rb, wa + wb));
        assert_eq!(m.name, "mm+mm");
    }

    #[test]
    fn bytes_moved_totals() {
        let t = matmul(2, 2).unwrap_trace();
        let (r, w) = t.bytes_moved();
        // Per process: 2 U reads + 4 V reads = 6 MB read, 4 MB written.
        assert_eq!(r, 2 * 6 * MB);
        assert_eq!(w, 2 * 4 * MB);
    }
}
