//! Host-time reports: `repro perf` (`sdds-perf-v1`) and `repro scale`
//! (`sdds-scale-v1` plus `sdds-scale-digest-v1` lines).
//!
//! Both time the simulator on this host. Their event counts, shard and
//! epoch counts are simulated and deterministic; only the seconds and
//! the rates derived from them vary between runs.

use std::path::Path;
use std::time::Instant;

use sdds::{SddsError, SystemConfig};
use sdds_runtime::{SceneResult, ShardPolicy};
use sdds_workloads::App;
use simkit::SimDuration;

use crate::json::{find_number, Json, Obj};
use crate::outcome::{Check, CommandError, Outcome};

/// A count of work done in some host seconds.
struct Rate {
    count: u64,
    seconds: f64,
}

impl Rate {
    fn per_sec(&self) -> f64 {
        self.count as f64 / self.seconds.max(1e-9)
    }

    /// The perf table row: label, count, seconds, rate.
    fn row(&self, label: &str) -> String {
        format!(
            "{label:<20} {:>14} {:>10.3} {:>14.0}",
            self.count,
            self.seconds,
            self.per_sec()
        )
    }

    /// `obj` plus `{"<count_key>": n, "seconds": s, "<rate_key>": n/s}`.
    fn json(&self, obj: Obj, count_key: &str, rate_key: &str) -> Obj {
        obj.field(count_key, self.count)
            .field("seconds", Json::fixed(self.seconds, 6))
            .field(rate_key, Json::fixed(self.per_sec(), 1))
    }
}

/// `repro perf`: times the simulation phase of every (app, scheme) cell
/// on a warm compile cache, plus the calendar-kernel and cold-compiler
/// microbenchmarks. With `trace_out` the timed runs also collect
/// telemetry and the last cell's trace is written. With `check`, the
/// totals are gated against a baseline written by `--out`, allowing
/// `tolerance` fractional regression.
///
/// Checks: determinism across repeats (event counts), and the baseline
/// gate when `check` is given.
pub fn perf(
    base: &SystemConfig,
    apps: &[App],
    repeat: usize,
    tolerance: f64,
    check: Option<&Path>,
    out: Option<&Path>,
    trace_out: Option<&Path>,
) -> Result<Outcome, CommandError> {
    let mut o = Outcome::default();
    let mut determinism = Check::new("determinism across repeats");
    outln!(
        o.stdout,
        "Simulation-phase throughput ({repeat} timed runs per cell, warm compile cache)"
    );
    outln!(
        o.stdout,
        "cell                         events    seconds     events/sec"
    );
    let mut cells: Vec<(String, Rate)> = Vec::new();
    let mut last_report: Option<sdds::TelemetryReport> = None;
    for &app in apps {
        for scheme in [false, true] {
            let cfg = base.with_scheme(scheme).with_telemetry(trace_out.is_some());
            let name = if scheme {
                format!("{}+scheme", app.name())
            } else {
                app.name().to_owned()
            };
            // Warm run: fills the process-wide trace/schedule caches so the
            // timed loop below measures only the discrete-event engine.
            let warm = sdds::run(app, &cfg)?;
            let started = Instant::now();
            let mut events: u64 = 0;
            for _ in 0..repeat {
                let mut run = sdds::run(app, &cfg)?;
                determinism.require(run.result.events == warm.result.events, || {
                    format!(
                        "cell `{name}` processed {} events, then {}",
                        warm.result.events, run.result.events
                    )
                });
                events += run.result.events;
                last_report = run.result.telemetry.take().or(last_report);
            }
            let rate = Rate {
                count: events,
                seconds: started.elapsed().as_secs_f64(),
            };
            outln!(o.stdout, "{}", rate.row(&name));
            cells.push((name, rate));
        }
    }
    let total = Rate {
        count: cells.iter().map(|(_, r)| r.count).sum(),
        seconds: cells.iter().map(|(_, r)| r.seconds).sum(),
    };
    outln!(o.stdout, "{}", total.row("TOTAL"));
    let kernel = kernel_microbench();
    outln!(o.stdout, "{}", kernel.row("kernel (calendar)"));
    let compile = compile_microbench(base, apps, repeat)?;
    outln!(o.stdout, "{}", compile.row("compile (accesses)"));

    if let Some(path) = out {
        let cell = |(name, r): &(String, Rate)| {
            r.json(
                Obj::inline().field("name", name.as_str()),
                "events",
                "events_per_sec",
            )
        };
        let report = Obj::block()
            .field("schema", "sdds-perf-v1")
            .field("repeat", repeat)
            .field("procs", base.scale.procs)
            .field("factor", Json::float(base.scale.factor))
            .field("cells", Json::block_array(cells.iter().map(cell)))
            .field("kernel", kernel.json(Obj::inline(), "ops", "ops_per_sec"))
            .field(
                "compile",
                compile.json(Obj::inline(), "accesses", "accesses_per_sec"),
            )
            .field(
                "total",
                total.json(Obj::inline(), "events", "events_per_sec"),
            );
        o.files.push((path.to_path_buf(), report.document()));
    }
    if let Some(path) = trace_out {
        let mut telemetry = Check::new("telemetry");
        match &last_report {
            Some(t) => push_trace_files(&mut o, t, path),
            None => {
                telemetry.require(false, || "no telemetry came back".to_owned());
            }
        }
        o.checks.push(telemetry);
    }
    o.checks.push(determinism);
    if let Some(path) = check {
        let gate = gate_baseline(&mut o, path, tolerance, &cells, &total, [&kernel, &compile]);
        o.checks.push(gate);
    }
    Ok(o)
}

/// The microbenchmarks `--check` gates when the baseline carries them:
/// label, report key and rate field.
const MICRO: [(&str, &str, &str); 2] = [
    ("kernel (calendar) ops/sec", "kernel", "ops_per_sec"),
    ("compile accesses/sec", "compile", "accesses_per_sec"),
];

/// Compares this run against the `--check` baseline: the total
/// events/sec always (naming every cell under its own floor when the
/// total regresses), and each of [`MICRO`] (this run's rates in `micro`)
/// when the baseline carries its entry.
fn gate_baseline(
    o: &mut Outcome,
    path: &Path,
    tolerance: f64,
    cells: &[(String, Rate)],
    total: &Rate,
    micro: [&Rate; 2],
) -> Check {
    let mut gate = Check::new("perf baseline");
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            gate.require(false, || {
                format!("cannot read baseline {}: {e}", path.display())
            });
            return gate;
        }
    };
    let Some(baseline_eps) = find_number(&text, "total", None, "events_per_sec") else {
        gate.require(false, || {
            format!("no total events_per_sec in {}", path.display())
        });
        return gate;
    };
    let total_eps = total.per_sec();
    let floor = baseline_eps * (1.0 - tolerance);
    let ratio = total_eps / baseline_eps;
    outln!(
        o.stdout,
        "baseline {baseline_eps:.0} events/s, now {total_eps:.0} ({:+.1}%), \
         floor at -{:.0}% is {floor:.0}",
        (ratio - 1.0) * 100.0,
        tolerance * 100.0,
    );
    // Per-cell entries are gated only through the total (cells are noisy
    // at small scales) but are still named when they breach the floor.
    let total_held = gate.require(total_eps >= floor, || {
        format!(
            "total events/sec regressed {:.1}% (baseline {baseline_eps:.0}, \
             now {total_eps:.0}, tolerance {:.0}%)",
            (1.0 - ratio) * 100.0,
            tolerance * 100.0
        )
    });
    for (name, r) in cells.iter().filter(|_| !total_held) {
        let Some(base_eps) = find_number(&text, "name", Some(name), "events_per_sec") else {
            continue;
        };
        let now = r.per_sec();
        gate.require(now >= base_eps * (1.0 - tolerance), || {
            format!(
                "cell `{name}` events/sec regressed {:.1}% (baseline {base_eps:.0}, now {now:.0})",
                (1.0 - now / base_eps) * 100.0,
            )
        });
    }
    for ((label, key, field), rate) in MICRO.into_iter().zip(micro) {
        // Baselines written before a microbenchmark existed have no entry
        // for it: that microbenchmark is not gated until the baseline is
        // refreshed.
        let Some(baseline) = find_number(&text, key, None, field) else {
            o.notes.push(format!(
                "repro: WARNING: baseline {} has no `{key}` entry — {label} is NOT gated \
                 against regressions.\n\
                 repro: WARNING: refresh it with `repro perf --out {}` and commit the result.",
                path.display(),
                path.display()
            ));
            continue;
        };
        let now = rate.per_sec();
        let floor = baseline * (1.0 - tolerance);
        outln!(
            o.stdout,
            "{label} baseline {baseline:.0}, now {now:.0} ({:+.1}%), floor at -{:.0}% is {floor:.0}",
            (now / baseline - 1.0) * 100.0,
            tolerance * 100.0,
        );
        gate.require(now >= floor, || {
            format!(
                "{label} regressed {:.1}% (baseline {baseline:.0}, now {now:.0}, \
                 tolerance {:.0}%)",
                (1.0 - now / baseline) * 100.0,
                tolerance * 100.0
            )
        });
    }
    gate
}

/// Queues a telemetry report's event stream for writing: JSONL at `path`
/// and the Chrome `trace_event` rendering at `path` with its extension
/// replaced by `.chrome.json`.
pub(crate) fn push_trace_files(o: &mut Outcome, t: &sdds::TelemetryReport, path: &Path) {
    o.files.push((path.to_path_buf(), t.jsonl()));
    o.files
        .push((path.with_extension("chrome.json"), t.chrome_trace()));
}

/// One timed pass over the calendar kernel itself: a synthetic
/// retarget/pop-due workload at a slot population wider than any real
/// configuration drives (the engine registers procs + 3 slots), so the
/// number isolates retargeting and min-scan popping from all simulation
/// logic.
fn kernel_microbench() -> Rate {
    use simkit::kernel::{ArbitrationPolicy, Calendar};
    use simkit::SimTime;
    const SLOTS: u64 = 64;
    const TARGET_OPS: u64 = 4_000_000;
    let mut cal = Calendar::new(ArbitrationPolicy::Deterministic);
    let slots: Vec<_> = (0..SLOTS).map(|_| cal.register()).collect();
    let started = Instant::now();
    let mut ops: u64 = 0;
    let mut t: u64 = 0;
    let mut sink: u64 = 0;
    while ops < TARGET_OPS {
        for (i, &slot) in slots.iter().enumerate() {
            t += 1 + (i as u64 & 7);
            cal.retarget(slot, Some(SimTime::from_micros(t)));
            ops += 1;
        }
        // Drain everything older than one round; the rest stays queued
        // and is retargeted next round, exercising supersession.
        while let Some((at, slot)) = cal.pop_due(SimTime::from_micros(t - SLOTS)) {
            sink = sink.wrapping_add(at.as_micros() ^ slot.index() as u64);
            ops += 1;
        }
    }
    while let Some((at, slot)) = cal.pop() {
        sink = sink.wrapping_add(at.as_micros() ^ slot.index() as u64);
        ops += 1;
    }
    let seconds = started.elapsed().as_secs_f64();
    std::hint::black_box(sink);
    Rate {
        count: ops,
        seconds,
    }
}

/// Times the compiler cold, outside the compile cache: slack analysis
/// plus scheduling of every app's trace, `repeat` times each (trace
/// extraction is not timed), counting the accesses scheduled.
fn compile_microbench(base: &SystemConfig, apps: &[App], repeat: usize) -> Result<Rate, SddsError> {
    let mut rate = Rate {
        count: 0,
        seconds: 0.0,
    };
    for &app in apps {
        let compile_error = |source| SddsError::Compile {
            app: app.name().to_string(),
            source,
        };
        let trace = app
            .program(&base.scale)
            .trace(base.granularity)
            .map_err(|e| compile_error(e.into()))?;
        let layout = base
            .storage_config()
            .map_err(|source| SddsError::Storage {
                app: app.name().to_string(),
                source,
            })?
            .layout;
        for _ in 0..repeat {
            let started = Instant::now();
            let slacks = sdds_compiler::analyze_slacks(&trace, &layout).map_err(compile_error)?;
            let table = base
                .scheduler
                .schedule(&slacks, &trace)
                .map_err(compile_error)?;
            rate.seconds += started.elapsed().as_secs_f64();
            rate.count += std::hint::black_box(table).scheduled_count() as u64;
        }
    }
    Ok(rate)
}

/// The `repro scale` sweep: scene scale factors × worker counts.
#[derive(Debug)]
pub struct ScaleSweep {
    /// Scene scale factors.
    pub scales: Vec<f64>,
    /// Worker counts timed at every scale.
    pub jobs_list: Vec<usize>,
    /// Shard policy of the sharded points.
    pub shards: ShardPolicy,
    /// Epoch window in µs; `None` uses the scene's hop latency.
    pub epoch_us: Option<u64>,
    /// Timed runs per point (best of).
    pub repeat: usize,
    /// Also time a single-shard baseline per scale (and report speedups).
    pub baseline: bool,
    /// Required speedup of the largest scale's best point, if any.
    pub check_speedup: Option<f64>,
}

/// One measured (scale, jobs) point of the `scale` experiment.
struct ScalePoint {
    scale: f64,
    jobs: usize,
    result: SceneResult,
    seconds: f64,
    /// Speedup over the single-shard baseline, when one was timed.
    speedup: Option<f64>,
}

impl ScalePoint {
    fn events_per_sec(&self) -> f64 {
        self.result.events as f64 / self.seconds.max(1e-9)
    }

    fn row(&self, speedup: &str) -> String {
        let r = &self.result;
        format!(
            "{:<8.2} {:>5} {:>7} {:>11} {:>10} {:>8} {:>9.3} {:>13.0} {speedup:>9}",
            self.scale,
            self.jobs,
            r.shards,
            r.components,
            r.events,
            r.epochs,
            self.seconds,
            self.events_per_sec()
        )
    }

    fn json(&self) -> Obj {
        Obj::inline()
            .field("scale", Json::fixed(self.scale, 3))
            .field("jobs", self.jobs)
            .field("shards", self.result.shards)
            .field("components", self.result.components)
            .field("events", self.result.events)
            .field("epochs", self.result.epochs)
            .field("seconds", Json::fixed(self.seconds, 6))
            .field("events_per_sec", Json::fixed(self.events_per_sec(), 1))
            .maybe(
                "speedup_vs_single_shard",
                self.speedup.map(|s| Json::fixed(s, 2)),
            )
    }
}

/// Times `repeat` runs of one scene configuration and returns the first
/// run's (jobs-invariant) result with the best wall-clock time; a digest
/// that changes across repeats is recorded in `repeats`.
fn time_scale_point(
    cfg: &sdds::ScaleSceneConfig,
    jobs: usize,
    repeat: usize,
    repeats: &mut Check,
) -> Result<ScalePoint, SddsError> {
    let timed = || -> Result<(SceneResult, f64), SddsError> {
        let started = Instant::now();
        let r = sdds::run_scale(cfg, jobs)?;
        Ok((r, started.elapsed().as_secs_f64()))
    };
    let (result, mut seconds) = timed()?;
    for _ in 1..repeat {
        let (r, secs) = timed()?;
        seconds = seconds.min(secs);
        repeats.require(r.digest() == result.digest(), || {
            format!(
                "scale-{} scene at jobs={jobs} changed across repeats",
                cfg.factor
            )
        });
    }
    Ok(ScalePoint {
        scale: cfg.factor,
        jobs,
        result,
        seconds,
        speedup: None,
    })
}

/// `repro scale`: runs the sharded datacenter scene across the sweep and
/// reports aggregate events/sec per point, plus (with the baseline) the
/// speedup over a single-shard run of the same scene. Writes the
/// `sdds-scale-v1` report to `out` and one jobs-invariant digest line per
/// scale to `digest`.
///
/// Checks: digest equality across worker counts, determinism across
/// repeats, and the speedup gate when one is required.
pub fn scale(
    sweep: &ScaleSweep,
    out: Option<&Path>,
    digest: Option<&Path>,
) -> Result<Outcome, CommandError> {
    let mut o = Outcome::default();
    let mut equality = Check::new("digest equality");
    let mut repeats = Check::new("determinism across repeats");
    let (shards_name, shards_json): (String, Json) = match sweep.shards {
        ShardPolicy::Auto => ("auto".to_owned(), "auto".into()),
        ShardPolicy::Fixed(n) => (n.to_string(), n.into()),
    };
    outln!(
        o.stdout,
        "Sharded scene throughput (best of {} runs per point, shards={shards_name})",
        sweep.repeat
    );
    outln!(
        o.stdout,
        "scale     jobs  shards  components     events   epochs   seconds    events/sec   speedup"
    );

    let mut points: Vec<ScalePoint> = Vec::new();
    let mut baselines: Vec<ScalePoint> = Vec::new();
    let mut digests: Vec<String> = Vec::new();
    for &scale in &sweep.scales {
        let cfg = sdds::ScaleSceneConfig {
            factor: scale,
            shards: sweep.shards,
            epoch: sweep.epoch_us.map(SimDuration::from_micros),
        };
        let base_eps = if sweep.baseline {
            let single = sdds::ScaleSceneConfig {
                shards: ShardPolicy::Fixed(1),
                ..cfg
            };
            let b = time_scale_point(&single, 1, sweep.repeat, &mut repeats)?;
            outln!(o.stdout, "{}", b.row("1.00x"));
            let eps = b.events_per_sec();
            baselines.push(b);
            Some(eps)
        } else {
            None
        };

        let mut reference: Option<String> = None;
        for &jobs in &sweep.jobs_list {
            let mut p = time_scale_point(&cfg, jobs, sweep.repeat, &mut repeats)?;
            let d = p.result.digest();
            match &reference {
                Some(want) => {
                    equality.require(*want == d, || {
                        format!("scale {scale} diverged at jobs={jobs}:\n  want {want}\n  got  {d}")
                    });
                }
                None => reference = Some(d),
            }
            p.speedup = base_eps.map(|b| p.events_per_sec() / b.max(1e-9));
            outln!(
                o.stdout,
                "{}",
                p.row(
                    &p.speedup
                        .map_or_else(|| "-".to_owned(), |s| format!("{s:.2}x"))
                )
            );
            points.push(p);
        }
        digests.extend(reference);
    }

    if let Some(path) = out {
        let report = Obj::block()
            .field("schema", "sdds-scale-v1")
            .field("repeat", sweep.repeat)
            .field(
                "epoch_us",
                sweep.epoch_us.map_or_else(|| "auto".into(), Json::from),
            )
            .field("shards", shards_json)
            .field(
                "baselines",
                Json::block_array(baselines.iter().map(ScalePoint::json)),
            )
            .field(
                "points",
                Json::block_array(points.iter().map(ScalePoint::json)),
            );
        o.files.push((path.to_path_buf(), report.document()));
    }
    if let Some(path) = digest {
        let text: String = digests.iter().map(|d| format!("{d}\n")).collect();
        o.files.push((path.to_path_buf(), text));
    }

    o.checks.push(equality);
    o.checks.push(repeats);
    if let Some(required) = sweep.check_speedup {
        let mut gate = Check::new("speedup");
        let largest = sweep
            .scales
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        let best = points
            .iter()
            .filter(|p| p.scale == largest)
            .filter_map(|p| p.speedup)
            .fold(f64::NEG_INFINITY, f64::max);
        if gate.require(best.is_finite(), || {
            "--check-speedup needs the single-shard baseline (drop --no-baseline)".to_owned()
        }) {
            outln!(
                o.stdout,
                "speedup gate at scale {largest}: best {best:.2}x, required {required:.2}x"
            );
            gate.require(best >= required, || {
                format!(
                    "best speedup {best:.2}x at scale {largest} is below the required {required:.2}x"
                )
            });
        }
        o.checks.push(gate);
    }
    Ok(o)
}
