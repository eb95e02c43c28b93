//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call into a library layer in a span (name,
//! start, end, parent). Spans stay in memory while the workload runs and
//! are written out once it ends, so recording costs no I/O inside the
//! measured region. A disabled recorder runs the closures and records
//! nothing, which is how the timed (untraced) runs use the same code.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, such as `compiler.slack`.
    pub name: &'static str,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans around closures.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder that records (`enabled`) or only runs the closures.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span called `name`, child of the innermost open
    /// span. `f` receives the recorder so it can open child spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Moves the recorded spans out, leaving the recorder empty.
    pub fn take_spans(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// Self time of every span: its duration minus the durations of its
/// direct children. Children of one span never overlap (the benchmark
/// opens them one after another on one thread), so this is the part of
/// the span no child covers.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<i128> = spans.iter().map(|s| i128::from(s.duration_ns())).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= i128::from(s.duration_ns());
        }
    }
    own.into_iter()
        .map(|v| u64::try_from(v.max(0)).unwrap_or(0))
        .collect()
}

/// Self time per span name, in seconds.
pub fn self_seconds_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}

/// The spans as JSON Lines with their self times, one span per line.
pub fn to_jsonl(spans: &[Span], label: &str) -> String {
    let mut out = String::new();
    for (i, (s, own)) in spans.iter().zip(self_times_ns(spans)).enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"run\":\"{label}\",\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\
             \"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
            s.name, s.start_ns, s.end_ns
        );
    }
    out
}
