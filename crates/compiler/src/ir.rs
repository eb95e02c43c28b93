//! The loop-nest intermediate representation.
//!
//! Programs in the paper's target domain are "structured as a series of
//! loops that operate on multidimensional arrays" (§IV-A, Fig. 5), with
//! MPI-IO calls reading and writing block-shaped file regions whose
//! offsets are affine functions of the loop indices and the process rank.
//! This IR captures exactly that structure: nested loops with affine
//! bounds, I/O calls with affine offset functions, and modeled compute
//! work. The reserved variable `p` denotes the process rank.

use std::fmt;

use sdds_storage::FileId;
use simkit::SimDuration;

use crate::affine::AffineExpr;

/// Whether an I/O call reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoDirection {
    /// `MPI_File_read`-style call.
    Read,
    /// `MPI_File_write`-style call.
    Write,
}

/// Identifier of a static I/O call site in a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IoCallId(pub u32);

impl fmt::Display for IoCallId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "io@{}", self.0)
    }
}

/// A static I/O call: a fixed-length access whose byte offset is an affine
/// function of the enclosing loop variables and `p`.
#[derive(Debug, Clone, PartialEq)]
pub struct IoCall {
    /// Call-site identifier.
    pub id: IoCallId,
    /// Target file.
    pub file: FileId,
    /// Read or write.
    pub direction: IoDirection,
    /// Byte offset as an affine expression.
    pub offset: AffineExpr,
    /// Access length in bytes.
    pub len: u64,
}

/// A statement of the loop-nest IR.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `for var = lower..=upper { body }` with affine bounds (which may
    /// reference outer loop variables and `p`).
    Loop {
        /// Loop variable name.
        var: String,
        /// Inclusive lower bound.
        lower: AffineExpr,
        /// Inclusive upper bound.
        upper: AffineExpr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// An I/O call.
    Io(IoCall),
    /// Modeled computation attributed to the current scheduling slot.
    Compute(SimDuration),
    /// Advances the slot counter by `slots` without performing I/O: a
    /// compute phase occupying that many scheduling slots (a disk idle
    /// gap), each taking `per_slot` of wall-clock time.
    Skip {
        /// Number of scheduling slots the phase occupies.
        slots: u32,
        /// Modeled compute time per occupied slot.
        per_slot: SimDuration,
    },
}

/// A declared disk-resident file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileDecl {
    /// File identifier.
    pub id: FileId,
    /// Size in bytes (accesses must stay within it).
    pub size: u64,
}

/// A parallel program: `nprocs` processes each executing the same loop
/// nest, distinguished by the reserved variable `p`.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    name: String,
    nprocs: usize,
    files: Vec<FileDecl>,
    body: Vec<Stmt>,
    next_call: u32,
}

impl Program {
    /// Creates an empty program for `nprocs` processes.
    ///
    /// # Panics
    ///
    /// Panics if `nprocs` is zero.
    pub fn new(name: &str, nprocs: usize) -> Self {
        assert!(nprocs > 0, "a program needs at least one process");
        Program {
            name: name.to_owned(),
            nprocs,
            files: Vec::new(),
            body: Vec::new(),
            next_call: 0,
        }
    }

    /// The program name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of processes.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Declared files.
    pub fn files(&self) -> &[FileDecl] {
        &self.files
    }

    /// The top-level statements.
    pub fn body(&self) -> &[Stmt] {
        &self.body
    }

    /// Declares a disk-resident file of `size` bytes and returns its id.
    pub fn add_file(&mut self, id: FileId, size: u64) -> FileId {
        assert!(
            self.files.iter().all(|f| f.id != id),
            "file {id} declared twice"
        );
        self.files.push(FileDecl { id, size });
        id
    }

    /// Appends a top-level loop built through the closure.
    pub fn push_loop<F>(&mut self, var: &str, lower: i64, upper: i64, f: F)
    where
        F: FnOnce(&mut BodyBuilder<'_>),
    {
        let mut body = Vec::new();
        {
            let mut b = BodyBuilder {
                stmts: &mut body,
                next_call: &mut self.next_call,
            };
            f(&mut b);
        }
        self.body.push(Stmt::Loop {
            var: var.to_owned(),
            lower: AffineExpr::constant(lower),
            upper: AffineExpr::constant(upper),
            body,
        });
    }

    /// Appends a top-level I/O call (outside any loop).
    pub fn push_io<F>(
        &mut self,
        direction: IoDirection,
        file: FileId,
        offset: F,
        len: u64,
    ) -> IoCallId
    where
        F: FnOnce(ExprBuilder) -> ExprBuilder,
    {
        let id = IoCallId(self.next_call);
        self.next_call += 1;
        self.body.push(Stmt::Io(IoCall {
            id,
            file,
            direction,
            offset: offset(ExprBuilder::new()).build(),
            len,
        }));
        id
    }

    /// Appends a top-level I/O-free phase occupying `slots` scheduling
    /// slots, each taking `per_slot` of compute time.
    pub fn push_skip(&mut self, slots: u32, per_slot: SimDuration) {
        self.body.push(Stmt::Skip { slots, per_slot });
    }

    /// Checks structural validity: files exist for every I/O call, loop
    /// variables are not shadowed, offsets reference only in-scope
    /// variables (loop variables and `p`), and `p`'s coefficient keeps
    /// offsets within file bounds only at trace time (range checks happen
    /// during interpretation, where concrete values are known).
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), ProgramError> {
        let mut scope = vec!["p".to_owned()];
        Self::validate_stmts(&self.body, &mut scope, &self.files)
    }

    fn validate_stmts(
        stmts: &[Stmt],
        scope: &mut Vec<String>,
        files: &[FileDecl],
    ) -> Result<(), ProgramError> {
        for stmt in stmts {
            match stmt {
                Stmt::Loop {
                    var,
                    lower,
                    upper,
                    body,
                } => {
                    if scope.iter().any(|v| v == var) {
                        return Err(ProgramError::ShadowedVariable(var.clone()));
                    }
                    for bound in [lower, upper] {
                        for v in bound.variables() {
                            if !scope.iter().any(|s| s == v) {
                                return Err(ProgramError::UnboundVariable(v.to_owned()));
                            }
                        }
                    }
                    scope.push(var.clone());
                    Self::validate_stmts(body, scope, files)?;
                    scope.pop();
                }
                Stmt::Io(call) => {
                    if !files.iter().any(|f| f.id == call.file) {
                        return Err(ProgramError::UnknownFile(call.file));
                    }
                    if call.len == 0 {
                        return Err(ProgramError::EmptyAccess(call.id));
                    }
                    for v in call.offset.variables() {
                        if !scope.iter().any(|s| s == v) {
                            return Err(ProgramError::UnboundVariable(v.to_owned()));
                        }
                    }
                }
                Stmt::Compute(_) | Stmt::Skip { .. } => {}
            }
        }
        Ok(())
    }
}

/// Builds nested statement lists (loops, I/O calls, compute).
#[derive(Debug)]
pub struct BodyBuilder<'a> {
    stmts: &'a mut Vec<Stmt>,
    next_call: &'a mut u32,
}

impl BodyBuilder<'_> {
    /// Appends a nested loop with constant bounds.
    pub fn loop_<F>(&mut self, var: &str, lower: i64, upper: i64, f: F)
    where
        F: FnOnce(&mut BodyBuilder<'_>),
    {
        self.loop_expr(
            var,
            AffineExpr::constant(lower),
            AffineExpr::constant(upper),
            f,
        );
    }

    /// Appends a nested loop with affine bounds.
    pub fn loop_expr<F>(&mut self, var: &str, lower: AffineExpr, upper: AffineExpr, f: F)
    where
        F: FnOnce(&mut BodyBuilder<'_>),
    {
        let mut body = Vec::new();
        {
            let mut b = BodyBuilder {
                stmts: &mut body,
                next_call: self.next_call,
            };
            f(&mut b);
        }
        self.stmts.push(Stmt::Loop {
            var: var.to_owned(),
            lower,
            upper,
            body,
        });
    }

    /// Appends an I/O call whose offset is built through `offset`.
    pub fn io<F>(&mut self, direction: IoDirection, file: FileId, offset: F, len: u64) -> IoCallId
    where
        F: FnOnce(ExprBuilder) -> ExprBuilder,
    {
        let id = IoCallId(*self.next_call);
        *self.next_call += 1;
        self.stmts.push(Stmt::Io(IoCall {
            id,
            file,
            direction,
            offset: offset(ExprBuilder::new()).build(),
            len,
        }));
        id
    }

    /// Appends modeled compute work.
    pub fn compute(&mut self, cost: SimDuration) {
        self.stmts.push(Stmt::Compute(cost));
    }

    /// Appends an I/O-free phase occupying `slots` scheduling slots, each
    /// taking `per_slot` of compute time.
    pub fn skip(&mut self, slots: u32, per_slot: SimDuration) {
        self.stmts.push(Stmt::Skip { slots, per_slot });
    }
}

/// Fluent builder for affine offset expressions.
#[derive(Debug, Default)]
pub struct ExprBuilder {
    expr: AffineExpr,
}

impl ExprBuilder {
    /// A zero expression.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `coeff · var`.
    pub fn term(mut self, var: &str, coeff: i64) -> Self {
        self.expr.add_term(var, coeff);
        self
    }

    /// Adds a constant.
    pub fn plus(mut self, c: i64) -> Self {
        self.expr.add_constant(c);
        self
    }

    /// Finishes the expression.
    pub fn build(self) -> AffineExpr {
        self.expr
    }
}

/// Structural errors reported by [`Program::validate`] and trace-time
/// errors from interpretation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// A loop variable shadows an outer variable (or `p`).
    ShadowedVariable(String),
    /// An expression references a variable not in scope.
    UnboundVariable(String),
    /// An I/O call targets an undeclared file.
    UnknownFile(FileId),
    /// An I/O call has zero length.
    EmptyAccess(IoCallId),
    /// An access fell outside its file during interpretation.
    OutOfBounds {
        /// The offending call.
        call: IoCallId,
        /// Evaluated byte offset.
        offset: i64,
        /// File size.
        size: u64,
    },
    /// A loop bound evaluated to a negative trip count... upper < lower is
    /// fine (zero iterations); this reports bounds so large the slot
    /// counter would overflow.
    TooManySlots,
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::ShadowedVariable(v) => {
                write!(f, "loop variable `{v}` shadows an outer binding")
            }
            ProgramError::UnboundVariable(v) => {
                write!(f, "expression references unbound variable `{v}`")
            }
            ProgramError::UnknownFile(id) => write!(f, "I/O call targets undeclared {id}"),
            ProgramError::EmptyAccess(id) => write!(f, "{id} has zero length"),
            ProgramError::OutOfBounds { call, offset, size } => write!(
                f,
                "{call} accesses offset {offset} outside its file of {size} bytes"
            ),
            ProgramError::TooManySlots => write!(f, "program exceeds the supported slot count"),
        }
    }
}

impl std::error::Error for ProgramError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn matmul_like() -> Program {
        // The Fig. 5 structure: for m { read U; for n { read V; compute;
        // write W } } over R x R blocks.
        let mut p = Program::new("mm", 4);
        let u = p.add_file(FileId(0), 1 << 30);
        let v = p.add_file(FileId(1), 1 << 30);
        let w = p.add_file(FileId(2), 1 << 30);
        p.push_loop("m", 0, 3, move |b| {
            b.io(IoDirection::Read, u, |e| e.term("m", 1 << 20), 1 << 20);
            b.loop_("n", 0, 3, move |b| {
                b.io(IoDirection::Read, v, |e| e.term("n", 1 << 20), 1 << 20);
                b.compute(SimDuration::from_millis(10));
                b.io(
                    IoDirection::Write,
                    w,
                    |e| e.term("m", 4 << 20).term("n", 1 << 20),
                    1 << 20,
                );
            });
        });
        p
    }

    #[test]
    fn matmul_validates() {
        matmul_like().validate().unwrap();
    }

    #[test]
    fn call_ids_are_sequential() {
        let p = matmul_like();
        // Three static calls: read U, read V, write W.
        fn collect(stmts: &[Stmt], out: &mut Vec<u32>) {
            for s in stmts {
                match s {
                    Stmt::Loop { body, .. } => collect(body, out),
                    Stmt::Io(c) => out.push(c.id.0),
                    Stmt::Compute(_) | Stmt::Skip { .. } => {}
                }
            }
        }
        let mut ids = Vec::new();
        collect(p.body(), &mut ids);
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn shadowing_rejected() {
        let mut p = Program::new("bad", 1);
        let f = p.add_file(FileId(0), 1024);
        p.push_loop("i", 0, 1, move |b| {
            b.loop_("i", 0, 1, move |b| {
                b.io(IoDirection::Read, f, |e| e, 1);
            });
        });
        assert_eq!(
            p.validate(),
            Err(ProgramError::ShadowedVariable("i".into()))
        );
    }

    #[test]
    fn p_is_predeclared_and_reserved() {
        let mut p = Program::new("bad", 2);
        let f = p.add_file(FileId(0), 1024);
        p.push_loop("p", 0, 1, move |b| {
            b.io(IoDirection::Read, f, |e| e, 1);
        });
        assert_eq!(
            p.validate(),
            Err(ProgramError::ShadowedVariable("p".into()))
        );
    }

    #[test]
    fn unbound_variable_rejected() {
        let mut p = Program::new("bad", 1);
        let f = p.add_file(FileId(0), 1024);
        p.push_loop("i", 0, 1, move |b| {
            b.io(IoDirection::Read, f, |e| e.term("q", 8), 1);
        });
        assert_eq!(p.validate(), Err(ProgramError::UnboundVariable("q".into())));
    }

    #[test]
    fn unknown_file_rejected() {
        let mut p = Program::new("bad", 1);
        p.push_io(IoDirection::Read, FileId(9), |e| e, 1);
        assert_eq!(p.validate(), Err(ProgramError::UnknownFile(FileId(9))));
    }

    #[test]
    fn zero_len_rejected() {
        let mut p = Program::new("bad", 1);
        let f = p.add_file(FileId(0), 1024);
        p.push_io(IoDirection::Read, f, |e| e, 0);
        assert!(matches!(p.validate(), Err(ProgramError::EmptyAccess(_))));
    }

    #[test]
    fn duplicate_file_panics() {
        let mut p = Program::new("bad", 1);
        p.add_file(FileId(0), 1024);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.add_file(FileId(0), 2048);
        }));
        assert!(r.is_err());
    }

    #[test]
    fn error_display() {
        let e = ProgramError::UnknownFile(FileId(3));
        assert!(e.to_string().contains("file3"));
    }
}
