//! End-to-end and per-layer benchmark of the SDDS reproduction.
//!
//! Four workloads run through the library's public API: the paper's
//! 48-cell matrix, a faulted RAID-5 matrix, and the datacenter scene on
//! one shard and on many. Each timed iteration reports host time (set-up,
//! simulation, whole run) and the simulated outputs; a separate traced
//! iteration wraps each layer call in a span and reads the layers' own
//! counters. See `perfbench/README.md` for the metric definitions.

pub mod paper;
pub mod probe;
pub mod scene;
pub mod spans;

use std::collections::{BTreeMap, BTreeSet};

/// FNV-1a over a byte stream: the digest the benchmark folds simulated
/// outputs with.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Failed cells over attempted cells, zero when none were attempted.
pub fn error_rate(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Named per-layer counts, summed over the cells of an iteration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts(BTreeMap<&'static str, f64>);

impl Counts {
    /// Adds `v` to the count `name` (creating it at zero).
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_insert(0.0) += v;
    }

    /// The count `name`, zero when nothing was added under it.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `numerator / denominator`, zero when the denominator is zero.
    pub fn ratio(&self, numerator: &str, denominator: &str) -> f64 {
        let d = self.get(denominator);
        if d > 0.0 {
            self.get(numerator) / d
        } else {
            0.0
        }
    }
}

/// One run of a workload: its host times, simulated outputs and checks.
#[derive(Debug, Clone, Default)]
pub struct Iteration {
    /// Host seconds for the whole iteration, set-up included.
    pub wall_s: f64,
    /// Host seconds of set-up (compile, or scene build).
    pub setup_s: f64,
    /// Host seconds of simulation (engine runs, or the kernel run).
    pub sim_s: f64,
    /// Simulated events processed.
    pub events: u64,
    /// Total simulated disk energy, in joules.
    pub sim_energy_j: f64,
    /// Total simulated execution time, in simulated seconds.
    pub sim_time_s: f64,
    /// One line per cell holding every simulated output of that cell.
    pub lines: Vec<String>,
    /// Bytes (read, written) each cell moved.
    pub bytes_moved: Vec<(u64, u64)>,
    /// Cells run.
    pub attempted: u64,
    /// Indices of cells that returned an error or failed a check.
    pub failed_cells: BTreeSet<usize>,
    /// One message per failed check.
    pub failures: Vec<String>,
    /// Per-layer counts (complete only when the iteration was traced).
    pub counts: Counts,
    /// Host seconds of each cell, in cell order (untraced iterations).
    pub cell_times: Vec<CellTimes>,
}

/// Host seconds one cell took: the whole cell and its set-up and
/// simulation parts.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CellTimes {
    /// The whole cell.
    pub wall_s: f64,
    /// Set-up: compile side of the cell, or the scene build.
    pub setup_s: f64,
    /// Simulation: the engine or kernel run.
    pub sim_s: f64,
}

impl Iteration {
    /// Records the checks of cell `index`: it fails if any check failed.
    pub fn record(&mut self, index: usize, failures: Vec<String>) {
        if !failures.is_empty() {
            self.failed_cells.insert(index);
        }
        self.failures
            .extend(failures.into_iter().map(|f| format!("cell {index}: {f}")));
    }

    /// Cells that returned an error or failed a check.
    pub fn failed(&self) -> u64 {
        self.failed_cells.len() as u64
    }

    /// Digest of every simulated output of the iteration.
    pub fn digest(&self) -> u64 {
        fnv1a(self.lines.iter().flat_map(|l| l.bytes().chain([b'\n'])))
    }

    /// Fails every cell whose simulated output differs from `reference`,
    /// the same workload run another way (another iteration, the traced
    /// run, or the library's one-call entry point). Returns the number of
    /// cells that differ.
    pub fn compare(&mut self, reference: &[String], what: &str) -> u64 {
        let mut differ = 0;
        for i in 0..self.lines.len() {
            if reference.get(i) != Some(&self.lines[i]) {
                differ += 1;
                self.record(i, vec![format!("differs from {what}")]);
            }
        }
        if reference.len() != self.lines.len() {
            self.failures.push(format!(
                "{} cells, {what} has {}",
                self.lines.len(),
                reference.len()
            ));
        }
        differ
    }
}
