//! Generators for the six applications of Table III.
//!
//! Each application alternates three kinds of activity, whose mixture
//! produces the idle-period economics of Fig. 12(a):
//!
//! * **I/O phases** — dense loops with one access every few tens of
//!   milliseconds; these produce the mass of very short disk idle periods
//!   (86.4% below 100 ms on average in the paper).
//! * **Medium gaps** — compute stretches of a few seconds between phases;
//!   long enough for multi-speed disks to exploit, far too short for a
//!   spin-down (break-even ≈ 1 minute with Table II constants).
//! * **Long gaps** — a few compute stretches of 30–90 s per run; the only
//!   places where plain spin-down pays off, mirroring the ~3.5% of idle
//!   periods above 5 s in Fig. 12(a) that carry most of the idle time.
//!
//! The long gaps are emitted between *chunks* of the outer phase loop
//! (each chunk's offsets take a per-chunk base constant), so every I/O
//! offset stays an affine function of the loop indices and the process
//! rank, the class of access functions the paper's compiler handles.

use sdds_compiler::ir::{IoDirection, Program};
use sdds_compiler::SlotGranularity;
use sdds_storage::FileId;
use simkit::SimDuration;

/// One file stripe (Table II).
const STRIPE: i64 = 64 * 1024;

/// The applications of Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum App {
    /// Hartree–Fock method: SCF iterations re-reading large read-only
    /// integral files and writing small Fock-matrix updates; I/O-dense
    /// with very short disk idle periods.
    Hf,
    /// Synthetic Aperture Radar kernel: streams raw frames in, runs a long
    /// FFT phase, writes the image out.
    Sar,
    /// Analysis of astronomical data: repeated sky-survey scans with an
    /// analysis gap and a refinement pass re-reading a subset.
    Astro,
    /// Pollutant-distribution modeling (out-of-core SPEC apsi): timestep
    /// loop reading the previous plane and writing the next one.
    Apsi,
    /// Cosmic microwave background calculation (MADbench2): write-all /
    /// compute / read-all matrix phases.
    Madbench2,
    /// Quantum chromodynamics (out-of-core SPEC wupwise): re-reads a
    /// read-only gauge field and carries fermion planes between
    /// iterations; the longest-running application.
    Wupwise,
}

/// Scale of a generated workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadScale {
    /// Number of client processes (Table II: 32).
    pub procs: usize,
    /// Multiplier on each application's phase count. `1.0` reproduces the
    /// paper-shaped runs (a few minutes of simulated time per app, with
    /// request rates and gap structure preserving the Fig. 12(a) idle
    /// shapes); smaller values give fast test runs.
    pub factor: f64,
    /// Multiplier on the long-gap durations; `1.0` for paper-shaped runs,
    /// smaller in tests so spin-down cycles still fit.
    pub gap_factor: f64,
}

// Scales are built from finite literals and CLI-parsed floats (never
// NaN), so bitwise hashing is consistent with the derived `PartialEq`;
// this makes `(App, WorkloadScale, SlotGranularity)` usable as a
// compilation-cache key.
impl Eq for WorkloadScale {}

impl std::hash::Hash for WorkloadScale {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_usize(self.procs);
        state.write_u64(self.factor.to_bits());
        state.write_u64(self.gap_factor.to_bits());
    }
}

impl WorkloadScale {
    /// The paper-shaped scale: 32 processes, full phase counts and gaps.
    pub fn paper() -> Self {
        WorkloadScale {
            procs: 32,
            factor: 1.0,
            gap_factor: 1.0,
        }
    }

    /// A small scale for unit and integration tests.
    pub fn test() -> Self {
        WorkloadScale {
            procs: 4,
            factor: 0.25,
            gap_factor: 0.05,
        }
    }

    fn phases(&self, base: u32) -> i64 {
        ((base as f64 * self.factor).round() as i64).max(1)
    }

    fn gap(&self, seconds: f64) -> SimDuration {
        SimDuration::from_secs_f64((seconds * self.gap_factor).max(0.05))
    }
}

impl App {
    /// All six applications in Table III order.
    pub fn all() -> [App; 6] {
        [
            App::Hf,
            App::Sar,
            App::Astro,
            App::Apsi,
            App::Madbench2,
            App::Wupwise,
        ]
    }

    /// The application's name as the paper prints it.
    pub fn name(&self) -> &'static str {
        match self {
            App::Hf => "hf",
            App::Sar => "sar",
            App::Astro => "astro",
            App::Apsi => "apsi",
            App::Madbench2 => "madbench2",
            App::Wupwise => "wupwise",
        }
    }

    /// Table III reference numbers: (execution minutes, disk energy in
    /// joules) under the Default Scheme on the authors' testbed.
    pub fn table3_reference(&self) -> (f64, f64) {
        match self {
            App::Hf => (27.9, 3_637.4),
            App::Sar => (11.1, 1_227.3),
            App::Astro => (16.8, 2_837.6),
            App::Apsi => (13.7, 3_094.1),
            App::Madbench2 => (9.8, 1_955.3),
            App::Wupwise => (39.8, 4_812.1),
        }
    }

    /// Scheduling-slot granularity used for this application.
    pub fn granularity(&self) -> SlotGranularity {
        SlotGranularity::unit()
    }

    /// Builds the application's loop-nest program at the given scale.
    ///
    /// # Panics
    ///
    /// Panics if `scale.procs` is zero.
    pub fn program(&self, scale: &WorkloadScale) -> Program {
        assert!(scale.procs > 0, "workloads need at least one process");
        match self {
            App::Hf => hf(scale),
            App::Sar => sar(scale),
            App::Astro => astro(scale),
            App::Apsi => apsi(scale),
            App::Madbench2 => madbench2(scale),
            App::Wupwise => wupwise(scale),
        }
    }
}

impl std::fmt::Display for App {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

/// Splits `total` phases into `chunks` contiguous chunks and emits each
/// through `emit(program, chunk_base, chunk_len)`, separated by long gaps
/// of `gap` spread over `gap_slots` scheduling slots.
fn chunked<F>(
    program: &mut Program,
    total: i64,
    chunks: i64,
    gap: SimDuration,
    gap_slots: u32,
    mut emit: F,
) where
    F: FnMut(&mut Program, i64, i64),
{
    let chunks = chunks.clamp(1, total);
    let per = total / chunks;
    let extra = total % chunks;
    let mut base = 0;
    for c in 0..chunks {
        let len = per + i64::from(c < extra);
        if len == 0 {
            continue;
        }
        emit(program, base, len);
        base += len;
        if c + 1 < chunks {
            program.push_skip(gap_slots, gap / gap_slots as u64);
        }
    }
}

/// Hartree–Fock: SCF iterations streaming two integral files (fresh
/// tiles per pass — the real data sets dwarf the server caches) plus
/// small Fock-matrix writes. Dense access cadence keeps hf's idle
/// periods short (Fig. 12(a): >90% below 50 ms); three ~90 s gaps model
/// the Fock-assembly stages that never touch the disks.
fn hf(scale: &WorkloadScale) -> Program {
    let s_count = scale.phases(22);
    let procs = scale.procs as i64;
    let blk = 2 * STRIPE; // 128 KB accesses spanning two I/O nodes
    let b_ints = 30i64;
    let mut p = Program::new("hf", scale.procs);
    let span0 = b_ints * blk + STRIPE; // one-stripe stagger per process
    let ints0 = p.add_file(FileId(0), (s_count * procs * span0) as u64);
    let span1 = (b_ints / 2) * blk + STRIPE;
    let ints1 = p.add_file(FileId(1), (s_count * procs * span1) as u64);
    let span_w = 4 * blk + STRIPE;
    let fock = p.add_file(FileId(2), (s_count * procs * span_w) as u64);
    let gap = scale.gap(90.0);
    chunked(&mut p, s_count, 4, gap, 1, |p, base, len| {
        p.push_loop("s", 0, len - 1, move |b| {
            b.loop_("i", 0, b_ints - 1, move |b| {
                b.io(
                    IoDirection::Read,
                    ints0,
                    |e| {
                        e.term("s", procs * span0)
                            .term("p", span0)
                            .term("i", blk)
                            .plus(base * procs * span0)
                    },
                    blk as u64,
                );
                b.compute(ms(67));
                b.skip(5, ms(67));
            });
            b.loop_("j", 0, b_ints / 2 - 1, move |b| {
                b.io(
                    IoDirection::Read,
                    ints1,
                    |e| {
                        e.term("s", procs * span1)
                            .term("p", span1)
                            .term("j", blk)
                            .plus(base * procs * span1)
                    },
                    blk as u64,
                );
                b.compute(ms(67));
                b.skip(5, ms(67));
            });
            b.skip(1, ms(2_000)); // Fock assembly: a ~2 s medium gap
            b.loop_("k", 0, 3, move |b| {
                b.io(
                    IoDirection::Write,
                    fock,
                    |e| {
                        e.term("s", procs * span_w)
                            .term("p", span_w)
                            .term("k", blk)
                            .plus(base * procs * span_w)
                    },
                    blk as u64,
                );
                b.compute(ms(67));
                b.skip(5, ms(67));
            });
        });
    });
    p
}

/// SAR kernel: stream a raw frame in, run the FFT as a medium compute
/// gap, write the image; three ~90 s gaps model the geo-registration
/// stages.
fn sar(scale: &WorkloadScale) -> Program {
    let frames = scale.phases(10);
    let procs = scale.procs as i64;
    let blk = 4 * STRIPE; // 256 KB accesses spanning four I/O nodes
    let mut p = Program::new("sar", scale.procs);
    let span_r = 24 * blk + STRIPE; // one-stripe stagger per process
    let raw = p.add_file(FileId(0), (frames * procs * span_r) as u64);
    let span_w = 8 * blk + STRIPE;
    let img = p.add_file(FileId(1), (frames * procs * span_w) as u64);
    let gap = scale.gap(90.0);
    chunked(&mut p, frames, 4, gap, 1, |p, base, len| {
        p.push_loop("f", 0, len - 1, move |b| {
            b.loop_("i", 0, 23, move |b| {
                b.io(
                    IoDirection::Read,
                    raw,
                    |e| {
                        e.term("f", procs * span_r)
                            .term("p", span_r)
                            .term("i", blk)
                            .plus(base * procs * span_r)
                    },
                    blk as u64,
                );
                b.compute(ms(100));
                b.skip(5, ms(100));
            });
            b.skip(1, ms(2_000)); // FFT: a ~2 s medium gap
            b.loop_("j", 0, 7, move |b| {
                b.io(
                    IoDirection::Write,
                    img,
                    |e| {
                        e.term("f", procs * span_w)
                            .term("p", span_w)
                            .term("j", blk)
                            .plus(base * procs * span_w)
                    },
                    blk as u64,
                );
                b.compute(ms(84));
                b.skip(5, ms(84));
            });
        });
    });
    p
}

/// Astronomical data analysis: scan an epoch-unique survey slice,
/// analyze (medium gap), re-read a subset (server-cache locality) and
/// record results; three ~90 s gaps model the model-fitting stages.
fn astro(scale: &WorkloadScale) -> Program {
    let epochs = scale.phases(8);
    let procs = scale.procs as i64;
    let blk = 2 * STRIPE;
    let mut p = Program::new("astro", scale.procs);
    let span_s = 30 * blk + STRIPE; // one-stripe stagger per process
    let sky = p.add_file(FileId(0), (epochs * procs * span_s) as u64);
    let span_c = 6 * blk + STRIPE;
    let cat = p.add_file(FileId(1), (epochs * procs * span_c) as u64);
    let gap = scale.gap(90.0);
    chunked(&mut p, epochs, 4, gap, 1, |p, base, len| {
        p.push_loop("e", 0, len - 1, move |b| {
            b.loop_("i", 0, 29, move |b| {
                b.io(
                    IoDirection::Read,
                    sky,
                    |e| {
                        e.term("e", procs * span_s)
                            .term("p", span_s)
                            .term("i", blk)
                            .plus(base * procs * span_s)
                    },
                    blk as u64,
                );
                b.compute(ms(84));
                b.skip(5, ms(84));
            });
            b.skip(1, ms(2_000)); // analysis: a ~2 s medium gap
            b.loop_("j", 0, 9, move |b| {
                // Refinement re-reads every third scan block.
                b.io(
                    IoDirection::Read,
                    sky,
                    |e| {
                        e.term("e", procs * span_s)
                            .term("p", span_s)
                            .term("j", 3 * blk)
                            .plus(base * procs * span_s)
                    },
                    blk as u64,
                );
                b.compute(ms(84));
                b.skip(5, ms(84));
            });
            b.loop_("k", 0, 5, move |b| {
                b.io(
                    IoDirection::Write,
                    cat,
                    |e| {
                        e.term("e", procs * span_c)
                            .term("p", span_c)
                            .term("k", blk)
                            .plus(base * procs * span_c)
                    },
                    blk as u64,
                );
                b.compute(ms(67));
                b.skip(5, ms(67));
            });
        });
    });
    p
}

/// apsi (out-of-core): timestep loop reading plane `t` and writing plane
/// `t + lag` (the lag keeps produced data out of the server caches until
/// its reader arrives), giving multi-phase producer–consumer slacks;
/// three ~90 s gaps model the chemistry solver between sweeps.
fn apsi(scale: &WorkloadScale) -> Program {
    let steps = scale.phases(10);
    let procs = scale.procs as i64;
    let blk = 2 * STRIPE;
    let slice = 12i64; // blocks per process per plane
    let mut p = Program::new("apsi", scale.procs);
    let span = slice * blk + STRIPE; // one-stripe stagger per process
    let lag = 5i64; // write plane t+lag so reads outlive the server caches
    let grid = p.add_file(FileId(0), ((steps + lag) * procs * span) as u64);
    let gap = scale.gap(90.0);
    chunked(&mut p, steps, 4, gap, 1, |p, base, len| {
        p.push_loop("t", 0, len - 1, move |b| {
            b.loop_("i", 0, slice - 1, move |b| {
                b.io(
                    IoDirection::Read,
                    grid,
                    |e| {
                        e.term("t", procs * span)
                            .term("p", span)
                            .term("i", blk)
                            .plus(base * procs * span)
                    },
                    blk as u64,
                );
                b.compute(ms(100));
                b.skip(5, ms(100));
            });
            b.skip(1, ms(2_000)); // solver: a ~2 s medium gap
            b.loop_("j", 0, slice - 1, move |b| {
                b.io(
                    IoDirection::Write,
                    grid,
                    |e| {
                        e.term("t", procs * span)
                            .term("p", span)
                            .term("j", blk)
                            .plus((base + lag) * procs * span)
                    },
                    blk as u64,
                );
                b.compute(ms(67));
                b.skip(5, ms(67));
            });
        });
    });
    p
}

/// MADbench2: write-all / compute / read-all matrix phases whose
/// footprint exceeds the server caches, so the read-back truly hits the
/// disks; the read slack spans its phase's compute gap. Two ~110 s gaps
/// model the dense-solver stages.
fn madbench2(scale: &WorkloadScale) -> Program {
    let phases = scale.phases(3);
    let procs = scale.procs as i64;
    let blk = 4 * STRIPE;
    let mats = 64i64;
    let mut p = Program::new("madbench2", scale.procs);
    let span = mats * blk + STRIPE; // one-stripe stagger per process
    let file = p.add_file(FileId(0), (phases * procs * span) as u64);
    let gap = scale.gap(90.0);
    chunked(&mut p, phases, 3, gap, 1, |p, base, len| {
        p.push_loop("m", 0, len - 1, move |b| {
            b.loop_("i", 0, mats - 1, move |b| {
                b.io(
                    IoDirection::Write,
                    file,
                    |e| {
                        e.term("m", procs * span)
                            .term("p", span)
                            .term("i", blk)
                            .plus(base * procs * span)
                    },
                    blk as u64,
                );
                b.compute(ms(50));
                b.skip(5, ms(50));
            });
            b.skip(1, ms(2_000)); // a ~2 s medium gap
            b.loop_("j", 0, mats - 1, move |b| {
                b.io(
                    IoDirection::Read,
                    file,
                    |e| {
                        e.term("m", procs * span)
                            .term("p", span)
                            .term("j", blk)
                            .plus(base * procs * span)
                    },
                    blk as u64,
                );
                b.compute(ms(50));
                b.skip(5, ms(50));
            });
        });
    });
    p
}

/// wupwise (out-of-core): streams per-iteration gauge-field tiles and
/// carries fermion planes between iterations with a cache-defeating lag;
/// the longest run, with four ~100 s gaps for the BiCGStab solves.
fn wupwise(scale: &WorkloadScale) -> Program {
    let iters = scale.phases(16);
    let procs = scale.procs as i64;
    let blk = 2 * STRIPE;
    let mut p = Program::new("wupwise", scale.procs);
    let span_g = 16 * blk + STRIPE; // one-stripe stagger per process
    let gauge = p.add_file(FileId(0), (iters * procs * span_g) as u64);
    let span_f = 8 * blk + STRIPE;
    let lag = 5i64; // write plane it+lag so reads outlive the server caches
    let ferm = p.add_file(FileId(1), ((iters + lag) * procs * span_f) as u64);
    let gap = scale.gap(100.0);
    chunked(&mut p, iters, 5, gap, 1, |p, base, len| {
        p.push_loop("it", 0, len - 1, move |b| {
            b.loop_("g", 0, 15, move |b| {
                b.io(
                    IoDirection::Read,
                    gauge,
                    |e| {
                        e.term("it", procs * span_g)
                            .term("p", span_g)
                            .term("g", blk)
                            .plus(base * procs * span_g)
                    },
                    blk as u64,
                );
                b.compute(ms(134));
                b.skip(5, ms(134));
            });
            b.loop_("r", 0, 7, move |b| {
                b.io(
                    IoDirection::Read,
                    ferm,
                    |e| {
                        e.term("it", procs * span_f)
                            .term("p", span_f)
                            .term("r", blk)
                            .plus(base * procs * span_f)
                    },
                    blk as u64,
                );
                b.compute(ms(84));
                b.skip(5, ms(84));
            });
            b.loop_("w", 0, 7, move |b| {
                b.io(
                    IoDirection::Write,
                    ferm,
                    |e| {
                        e.term("it", procs * span_f)
                            .term("p", span_f)
                            .term("w", blk)
                            .plus((base + lag) * procs * span_f)
                    },
                    blk as u64,
                );
                b.compute(ms(67));
                b.skip(5, ms(67));
            });
            b.skip(1, ms(2_000)); // a ~2 s medium gap
        });
    });
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdds_compiler::analyze_slacks;
    use sdds_storage::StripingLayout;

    #[test]
    fn all_apps_validate_and_trace_at_test_scale() {
        for app in App::all() {
            let program = app.program(&WorkloadScale::test());
            let trace = program
                .trace(app.granularity())
                .unwrap_or_else(|e| panic!("{app} failed to trace: {e}"));
            assert!(trace.io_count() > 0, "{app} performs no I/O");
            assert!(trace.total_slots > 0);
        }
    }

    #[test]
    fn all_apps_trace_at_paper_scale() {
        for app in App::all() {
            let program = app.program(&WorkloadScale::paper());
            let trace = program.trace(app.granularity()).unwrap();
            // Bounded sizes keep the scheduler tractable.
            assert!(
                trace.total_slots < 8_000,
                "{app}: {} slots is too many",
                trace.total_slots
            );
            assert!(
                trace.io_count() < 40_000,
                "{app}: {} accesses is too many",
                trace.io_count()
            );
        }
    }

    #[test]
    fn producer_consumer_apps_have_produced_reads() {
        let layout = StripingLayout::paper_defaults();
        for app in [App::Apsi, App::Madbench2, App::Wupwise] {
            // apsi and wupwise carry planes with a 5-phase write lag, so
            // the run needs enough phases for a produced read to appear.
            let program = app.program(&WorkloadScale {
                procs: 4,
                factor: 1.0,
                gap_factor: 0.05,
            });
            let trace = program.trace(app.granularity()).unwrap();
            let accesses = analyze_slacks(&trace, &layout).unwrap();
            let produced = accesses
                .iter()
                .filter(|a| a.is_read() && a.producer.is_some())
                .count();
            assert!(produced > 0, "{app} should have produced reads");
        }
    }

    #[test]
    fn input_stream_apps_have_prefix_slacks() {
        let layout = StripingLayout::paper_defaults();
        for app in [App::Hf, App::Sar, App::Astro] {
            let program = app.program(&WorkloadScale::test());
            let trace = program.trace(app.granularity()).unwrap();
            let accesses = analyze_slacks(&trace, &layout).unwrap();
            let prefix = accesses
                .iter()
                .filter(|a| a.is_read() && a.producer.is_none() && a.begin == 0)
                .count();
            assert!(prefix > 0, "{app} should have input reads");
        }
    }

    #[test]
    fn scale_factor_controls_phases() {
        let small = App::Sar.program(&WorkloadScale {
            procs: 2,
            factor: 0.5,
            gap_factor: 0.05,
        });
        let big = App::Sar.program(&WorkloadScale {
            procs: 2,
            factor: 2.0,
            gap_factor: 0.05,
        });
        let ts = small.trace(SlotGranularity::unit()).unwrap();
        let tb = big.trace(SlotGranularity::unit()).unwrap();
        assert!(tb.total_slots > ts.total_slots);
        assert!(tb.io_count() > ts.io_count());
    }

    #[test]
    fn names_and_references() {
        assert_eq!(App::Hf.name(), "hf");
        assert_eq!(App::Wupwise.to_string(), "wupwise");
        let (mins, joules) = App::Madbench2.table3_reference();
        assert_eq!(mins, 9.8);
        assert_eq!(joules, 1_955.3);
        assert_eq!(App::all().len(), 6);
    }

    #[test]
    fn offsets_stay_within_files() {
        // trace() enforces bounds; run every app at an uneven process
        // count to exercise the `p` terms.
        for app in App::all() {
            let program = app.program(&WorkloadScale {
                procs: 5,
                factor: 0.4,
                gap_factor: 0.05,
            });
            program.trace(SlotGranularity::unit()).unwrap();
        }
    }

    #[test]
    fn paper_runs_include_long_gaps() {
        // Every app at paper scale must contain at least one compute-only
        // stretch of 20 s or more (where spin-down pays off).
        for app in App::all() {
            let trace = app
                .program(&WorkloadScale::paper())
                .trace(app.granularity())
                .unwrap();
            let compute = &trace.processes[0].compute;
            // Find the longest run of consecutive I/O-free slots.
            let io_slots: std::collections::HashSet<u32> =
                trace.processes[0].ios.iter().map(|io| io.slot).collect();
            let mut longest = SimDuration::ZERO;
            let mut current = SimDuration::ZERO;
            for (slot, &cost) in compute.iter().enumerate() {
                if io_slots.contains(&(slot as u32)) {
                    current = SimDuration::ZERO;
                } else {
                    current += cost;
                    longest = longest.max(current);
                }
            }
            assert!(
                longest >= SimDuration::from_secs(20),
                "{app}: longest I/O-free stretch is only {longest}"
            );
        }
    }

    #[test]
    fn durations_roughly_track_table3_ratios() {
        // Summed compute time per process should order the apps the way
        // Table III orders their execution times (wupwise longest,
        // madbench2 shortest).
        let mut totals = Vec::new();
        for app in App::all() {
            let trace = app
                .program(&WorkloadScale::paper())
                .trace(app.granularity())
                .unwrap();
            let total: f64 = trace.processes[0]
                .compute
                .iter()
                .map(|d| d.as_secs_f64())
                .sum();
            totals.push((app, total));
        }
        let wup = totals.iter().find(|(a, _)| *a == App::Wupwise).unwrap().1;
        let mad = totals.iter().find(|(a, _)| *a == App::Madbench2).unwrap().1;
        for (app, t) in &totals {
            assert!(*t <= wup + 1e-9, "{app} should not exceed wupwise");
            assert!(*t >= mad - 1e-9, "{app} should not undercut madbench2");
        }
    }
}
