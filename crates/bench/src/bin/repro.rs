//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p sdds-bench --bin repro -- <experiment> [options]
//!
//! experiments:
//!   table2, table3, fig12a, fig12b, fig12c, fig12d,
//!   fig13a, fig13b, fig13c, fig13d, fig14, cache, compiler-cost,
//!   granularity, oscillation, ablation, multiapp, headline, perf,
//!   trace, attrib, faults, fuzz, scale, online, rebuild, all
//!
//! options:
//!   --apps hf,sar,...      subset of applications (default: all six)
//!   --procs N              client processes (default 32)
//!   --factor F             phase-count multiplier (default 1.0)
//!   --gap-factor F         long-gap multiplier (default 1.0)
//!   --io-nodes N           I/O nodes in the striping layout (default 8)
//!   --stripe-kb N          stripe size in KiB (default 64)
//!   --cache-mb N           per-node cache capacity in MiB (default 64)
//!   --buffer-mb N          client prefetch buffer in MiB (default 64)
//!   --delta N              scheduler look-ahead window δ in slots
//!   --theta N              scheduler per-slot access bound θ
//!   --jobs N               worker threads for the experiment matrix
//!                          (default: available parallelism; results are
//!                          identical for every N)
//!   --csv DIR              also write each series as DIR/<experiment>.csv
//!   --verbose              print the full error cause chain on failure
//!
//! Exit codes classify failures for scripted callers: 0 success, 2 usage,
//! 3 invalid configuration, 4 compile failure, 5 storage failure, 6 engine
//! failure, 1 anything else (e.g. an output file that cannot be written).
//!
//! perf options (only meaningful with the `perf` experiment):
//!   --repeat N             timed runs per cell (default 3)
//!   --out FILE             write the measurements as machine-readable JSON
//!   --check FILE           compare against a baseline JSON written by --out
//!   --tolerance F          allowed fractional events/sec regression against
//!                          the baseline before exiting non-zero (default 0.30)
//!
//! telemetry options (`trace`, and `--trace-out` also with `perf`):
//!   --policy NAME          power policy for the traced cell: default,
//!                          simple, prediction, history, staggered
//!                          (trace defaults to history)
//!   --trace-out FILE       write trace events as JSONL; a Chrome
//!                          trace_event twin goes to FILE with its
//!                          extension replaced by .chrome.json
//!   --metrics-out FILE     write the metrics registry as JSON
//! ```
//!
//! `trace` runs one application (the first of `--apps`) with telemetry
//! enabled and prints the per-disk time-in-state / energy-by-state table;
//! the table must reconcile with the run's total energy to 1e-9 J or the
//! command exits non-zero.
//!
//! rebuild options (only meaningful with the `rebuild` experiment):
//!   --scenario NAME        fault scenario shaping stragglers, bad sectors
//!                          and crash windows: light or heavy (default light)
//!   --seed N               placement + workload + fault seed (default 42)
//!   --out FILE             write the report as JSON (sdds-rebuild-v1)
//!
//! `rebuild` runs the replicated object-store scenario three times — with
//! straggler-aware replica routing, with primary-only reads, and as a
//! fault-free twin — injecting a whole-disk failure and reconstructing the
//! lost replicas onto the hot spare as rate-limited background traffic.
//! The command exits non-zero when foreground bytes diverge from the
//! fault-free twin, when the foreground/rebuild energy split does not
//! reconcile with the headline joules at 1e-9, or when routing fails to
//! improve the p99 read latency.
//!
//! attrib options (only meaningful with the `attrib` experiment):
//!   --scenario NAME        also inject the fault scenario (light, heavy);
//!                          omitted = fault-free matrix
//!   --seed N               fault-stream seed (default 42)
//!   --scene-scale F        scale factor of the observed sharded scene
//!                          (default 0.25)
//!   --shards auto|N        shard policy for the observed scene
//!   --out FILE             write the report as machine-readable JSON
//!                          (schema `sdds-attrib-v1`)
//!
//! `attrib` runs every (app, strategy, scheme) cell with telemetry on and
//! builds the deterministic attribution report: per-disk/per-power-state
//! energy cells that must sum to the headline joules within 1e-9, exact
//! per-request latency decomposition (response = queue + service, queue =
//! spin-up + wait), policy-decision counts with learner-state snapshots,
//! regret against an offline idle-window oracle, and per-shard/per-epoch
//! barrier-stall accounting from an observed sharded scene. The JSON
//! report contains only simulated quantities, so two invocations are
//! byte-identical and can be `cmp`-ed.
//!
//! faults options (only meaningful with the `faults` experiment):
//!   --scenario NAME        fault scenario: light or heavy (default light)
//!   --seed N               fault-stream seed (default 42)
//!   --out FILE             write the fault report as machine-readable JSON
//!                          (schema `sdds-faults-v1`)
//!
//! `faults` runs every selected application twice — once under the fault
//! scenario and once fault-free — and reports injected/recovered fault
//! counts plus the energy cost of recovery. The runs must move exactly
//! the same bytes or the command exits 1; the JSON report is
//! byte-deterministic for a given seed, so two invocations can be
//! `cmp`-ed to prove reproducibility.
//!
//! `perf` times the *simulation phase* only: each cell is run once to warm
//! the process-wide compilation cache, then `--repeat` further runs are
//! timed, so the wall time measures the discrete-event engine rather than
//! trace extraction or scheduling. Event counts are deterministic; only
//! the seconds (and hence events/sec) vary between hosts. The report also
//! includes a calendar-kernel microbenchmark (retarget/pop ops/sec) and
//! the compiler's cold cost (slack analysis plus scheduling of every
//! selected app, outside the compile cache, in accesses/sec); a `--check`
//! baseline that carries a `"kernel"` or `"compile"` entry gates it under
//! the same tolerance, and older baselines without one skip that gate.
//!
//! scale options (only meaningful with the `scale` experiment):
//!   --scales F,F,...       scene scale factors (default 1,10,100)
//!   --jobs-list N,N,...    worker counts per scale point (default 1,2,4,8)
//!   --shards auto|N        shard policy for the sharded points (default auto)
//!   --epoch-us N           epoch window in µs (default: the scene's hop latency)
//!   --repeat N             timed runs per point, best-of (default 3)
//!   --no-baseline          skip the single-shard baseline (and speedups)
//!   --out FILE             write the report as JSON (schema `sdds-scale-v1`)
//!   --digest FILE          write one jobs-invariant digest line per scale
//!                          (schema `sdds-scale-digest-v1`) for byte comparison
//!   --check-speedup X      exit non-zero unless the largest scale's best point
//!                          reaches X× the single-shard baseline
//!
//! `scale` runs the datacenter scene (clients behind congestion-limited
//! shared links in front of burst-buffered I/O groups, under a periodic
//! global I/O schedule) on the sharded time-domain kernel and reports
//! aggregate events/sec per (scale, jobs) point. Simulation metrics are
//! bitwise identical across every `--jobs-list` entry — the command
//! verifies this itself and exits 1 on any divergence.
//!
//! online options (only meaningful with the `online` experiment):
//!   --scenes a,b           keyed scenes: zipfian, diurnal (default: both)
//!   --modes a,b            decision layers: table, online, hybrid
//!                          (default: all three)
//!   --seed N               workload + policy-jitter seed (default 42)
//!   --out FILE             write the report as machine-readable JSON
//!                          (schema `sdds-online-v1`)
//!
//! `online` compares the decision layers on DBMS-style keyed workloads
//! (zipfian hot sets, diurnal load swings) that no compile-time table can
//! anticipate from loop bounds alone: `table` distills the compiled
//! schedule into per-node idle forecasts, `online` learns idleness from
//! the live stream with no compiler help, and `hybrid` starts from
//! table-calibrated predictions and corrects online. Per scene it reports
//! the energy/latency frontier (the set of modes no other mode beats on
//! both energy and mean read response). The JSON report contains only
//! simulated quantities, so two invocations with the same seed are
//! byte-identical.
//!
//! fuzz options (only meaningful with the `fuzz` experiment):
//!   --seeds N              SeededShuffle seeds per cell (default 8)
//!
//! `fuzz` runs every (app, scheme) cell once under Deterministic
//! arbitration and once per SeededShuffle seed. Arbitration only permutes
//! same-instant events, so it may move *when* work happens but never
//! *what* work is done: bytes moved and processes finished must be
//! identical across every seed, or the command exits 1. Timing-derived
//! metrics (exec time, energy, hit rates) are allowed to vary.

use std::time::Instant;

use sdds::cache::CompileCache;
use sdds::experiments as exp;
use sdds::{ExperimentError, SddsError, SystemConfig};
use sdds_bench::*;
use sdds_power::PolicyKind;
use sdds_runtime::{run_rebuild, RebuildResult};
use sdds_workloads::{App, WorkloadScale};

const EXPERIMENTS: &[&str] = &[
    "table2",
    "table3",
    "fig12a",
    "fig12b",
    "fig12c",
    "fig12d",
    "fig13a",
    "fig13b",
    "fig13c",
    "fig13d",
    "fig14",
    "cache",
    "compiler-cost",
    "granularity",
    "oscillation",
    "ablation",
    "multiapp",
    "headline",
    "perf",
    "trace",
    "attrib",
    "faults",
    "fuzz",
    "scale",
    "online",
    "rebuild",
    "all",
];

fn usage() -> String {
    format!(
        "usage: repro [<experiment>] [options]\n\n\
         experiments:\n  {}\n\n\
         options:\n\
         \x20 --apps hf,sar,...   subset of applications (default: all six)\n\
         \x20 --procs N           client processes (default 32)\n\
         \x20 --factor F          phase-count multiplier (default 1.0)\n\
         \x20 --gap-factor F      long-gap multiplier (default 1.0)\n\
         \x20 --io-nodes N        I/O nodes in the striping layout (default 8)\n\
         \x20 --stripe-kb N       stripe size in KiB (default 64)\n\
         \x20 --cache-mb N        per-node cache capacity in MiB (default 64)\n\
         \x20 --buffer-mb N       client prefetch buffer in MiB (default 64)\n\
         \x20 --delta N           scheduler look-ahead window (slots)\n\
         \x20 --theta N           scheduler per-slot access bound\n\
         \x20 --jobs N            worker threads (default: available parallelism;\n\
         \x20                     results are identical for every N)\n\
         \x20 --csv DIR           also write each series as DIR/<experiment>.csv\n\
         \x20 --verbose           print the full error cause chain on failure\n\n\
         exit codes: 0 ok, 2 usage, 3 config, 4 compile, 5 storage, 6 engine,\n\
         1 other\n\n\
         perf options:\n\
         \x20 --repeat N          timed runs per cell (default 3)\n\
         \x20 --out FILE          write measurements as JSON\n\
         \x20 --check FILE        compare events/sec against a baseline JSON\n\
         \x20 --tolerance F       allowed fractional regression (default 0.30)\n\n\
         faults options:\n\
         \x20 --scenario NAME     fault scenario: light or heavy (default light)\n\
         \x20 --seed N            fault-stream seed (default 42)\n\
         \x20 --out FILE          write the fault report as JSON (sdds-faults-v1)\n\n\
         attrib options:\n\
         \x20 --scenario NAME     also inject faults (light, heavy); default none\n\
         \x20 --seed N            fault-stream seed (default 42)\n\
         \x20 --scene-scale F     observed sharded-scene factor (default 0.25)\n\
         \x20 --out FILE          write the report as JSON (sdds-attrib-v1)\n\n\
         scale options:\n\
         \x20 --scales F,F,...    scene scale factors (default 1,10,100)\n\
         \x20 --jobs-list N,...   worker counts per point (default 1,2,4,8)\n\
         \x20 --shards auto|N     shard policy (default auto)\n\
         \x20 --epoch-us N        epoch window in us (default: hop latency)\n\
         \x20 --no-baseline       skip the single-shard baseline\n\
         \x20 --out FILE          write the report as JSON (sdds-scale-v1)\n\
         \x20 --digest FILE       write jobs-invariant digest lines per scale\n\
         \x20 --check-speedup X   require X x single-shard at the largest scale\n\n\
         rebuild options:\n\
         \x20 --scenario NAME     fault scenario: light or heavy (default light)\n\
         \x20 --seed N            placement + workload + fault seed (default 42)\n\
         \x20 --out FILE          write the report as JSON (sdds-rebuild-v1)\n\n\
         online options:\n\
         \x20 --scenes a,b        keyed scenes: zipfian, diurnal (default: both)\n\
         \x20 --modes a,b         decision layers: table, online, hybrid\n\
         \x20 --seed N            workload + policy-jitter seed (default 42)\n\
         \x20 --out FILE          write the report as JSON (sdds-online-v1)\n\n\
         fuzz options:\n\
         \x20 --seeds N           SeededShuffle seeds per cell (default 8)\n\n\
         telemetry options (trace; --trace-out also works with perf):\n\
         \x20 --policy NAME       power policy: default, simple, prediction,\n\
         \x20                     history, staggered (trace defaults to history)\n\
         \x20 --trace-out FILE    write events as JSONL plus a Chrome\n\
         \x20                     trace_event twin at FILE.chrome.json\n\
         \x20 --metrics-out FILE  write the metrics registry as JSON",
        EXPERIMENTS.join(", ")
    )
}

/// Maps a `--policy` operand onto a default-tuned [`PolicyKind`].
fn parse_policy(name: &str) -> PolicyKind {
    match name {
        "default" | "nopm" => PolicyKind::NoPm,
        "simple" => PolicyKind::simple_spin_down_default(),
        "prediction" | "prediction-based" => PolicyKind::predictive_spin_down_default(),
        "history" | "history-based" => PolicyKind::history_based_default(),
        "staggered" => PolicyKind::staggered_default(),
        other => fail(&format!(
            "unknown policy `{other}` (known: default, simple, prediction, history, staggered)"
        )),
    }
}

fn fail(message: &str) -> ! {
    eprintln!("repro: {message}\n\n{}", usage());
    std::process::exit(2);
}

fn parse_apps(s: &str) -> Vec<App> {
    s.split(',')
        .map(|name| {
            App::all()
                .into_iter()
                .find(|a| a.name() == name.trim())
                .unwrap_or_else(|| {
                    let known: Vec<&str> = App::all().iter().map(|a| a.name()).collect();
                    fail(&format!(
                        "unknown application `{}` (known: {})",
                        name.trim(),
                        known.join(", ")
                    ))
                })
        })
        .collect()
}

/// Returns the operand of flag `args[i]`, or exits with usage.
fn operand(args: &[String], i: usize) -> &str {
    args.get(i + 1)
        .unwrap_or_else(|| fail(&format!("{} requires a value", args[i])))
}

fn parse_num<T: std::str::FromStr>(args: &[String], i: usize) -> T {
    let raw = operand(args, i);
    raw.parse().unwrap_or_else(|_| {
        fail(&format!("invalid value `{raw}` for {}", args[i]));
    })
}

fn write_csv(dir: &std::path::Path, name: &str, header: &str, rows: &[String]) {
    let path = dir.join(format!("{name}.csv"));
    let mut text = String::from(header);
    text.push('\n');
    for r in rows {
        text.push_str(r);
        text.push('\n');
    }
    if let Err(e) = std::fs::write(&path, text) {
        eprintln!("repro: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    eprintln!("[wrote {}]", path.display());
}

/// One timed perf cell: an application run with or without the scheme.
struct PerfCell {
    name: String,
    events: u64,
    seconds: f64,
    events_per_sec: f64,
}

/// Times the simulation phase of every (app, scheme) cell and reports
/// events/sec. With `trace_out`, the timed runs additionally collect
/// telemetry (exercising the enabled-path overhead) and the last cell's
/// trace is exported. Returns `Ok(false)` when a `--check` baseline
/// comparison fails (or an output file cannot be written), and `Err`
/// when a cell itself fails to run.
fn run_perf(
    base: &SystemConfig,
    apps: &[App],
    repeat: usize,
    out: Option<&std::path::Path>,
    check: Option<&std::path::Path>,
    tolerance: f64,
    trace_out: Option<&std::path::Path>,
) -> Result<bool, SddsError> {
    println!("Simulation-phase throughput ({repeat} timed runs per cell, warm compile cache)");
    println!(
        "{:<20} {:>14} {:>10} {:>14}",
        "cell", "events", "seconds", "events/sec"
    );
    let mut cells: Vec<PerfCell> = Vec::new();
    let mut last_report: Option<sdds::TelemetryReport> = None;
    for &app in apps {
        for scheme in [false, true] {
            let cfg = base
                .clone()
                .with_scheme(scheme)
                .with_telemetry(trace_out.is_some());
            // Warm run: fills the process-wide trace/schedule caches so the
            // timed loop below measures only the discrete-event engine.
            let warm = sdds::run(app, &cfg)?;
            let started = Instant::now();
            let mut events: u64 = 0;
            for _ in 0..repeat {
                let mut o = sdds::run(app, &cfg)?;
                assert_eq!(
                    o.result.events,
                    warm.result.events,
                    "nondeterministic event count for {}",
                    app.name()
                );
                events += o.result.events;
                if let Some(t) = o.result.telemetry.take() {
                    last_report = Some(t);
                }
            }
            let seconds = started.elapsed().as_secs_f64();
            let events_per_sec = events as f64 / seconds.max(1e-9);
            let name = if scheme {
                format!("{}+scheme", app.name())
            } else {
                app.name().to_owned()
            };
            println!("{name:<20} {events:>14} {seconds:>10.3} {events_per_sec:>14.0}");
            cells.push(PerfCell {
                name,
                events,
                seconds,
                events_per_sec,
            });
        }
    }
    let total_events: u64 = cells.iter().map(|c| c.events).sum();
    let total_seconds: f64 = cells.iter().map(|c| c.seconds).sum();
    let total_eps = total_events as f64 / total_seconds.max(1e-9);
    println!(
        "{:<20} {total_events:>14} {total_seconds:>10.3} {total_eps:>14.0}",
        "TOTAL"
    );
    let (kernel_op_count, kernel_seconds, kernel_ops) = kernel_microbench();
    println!(
        "{:<20} {kernel_op_count:>14} {kernel_seconds:>10.3} {kernel_ops:>14.0}",
        "kernel (calendar)"
    );
    let (compiled, compile_seconds, compile_aps) = compile_microbench(base, apps, repeat)?;
    println!(
        "{:<20} {compiled:>14} {compile_seconds:>10.3} {compile_aps:>14.0}",
        "compile (accesses)"
    );

    if let Some(path) = out {
        let mut json = String::new();
        json.push_str("{\n");
        json.push_str("  \"schema\": \"sdds-perf-v1\",\n");
        json.push_str(&format!("  \"repeat\": {repeat},\n"));
        json.push_str(&format!("  \"procs\": {},\n", base.scale.procs));
        json.push_str(&format!("  \"factor\": {},\n", base.scale.factor));
        json.push_str("  \"cells\": [\n");
        let lines: Vec<String> = cells
            .iter()
            .map(|c| {
                format!(
                    "    {{\"name\": \"{}\", \"events\": {}, \"seconds\": {:.6}, \"events_per_sec\": {:.1}}}",
                    c.name, c.events, c.seconds, c.events_per_sec
                )
            })
            .collect();
        json.push_str(&lines.join(",\n"));
        json.push_str("\n  ],\n");
        json.push_str(&format!(
            "  \"kernel\": {{\"ops\": {kernel_op_count}, \"seconds\": {kernel_seconds:.6}, \"ops_per_sec\": {kernel_ops:.1}}},\n"
        ));
        json.push_str(&format!(
            "  \"compile\": {{\"accesses\": {compiled}, \"seconds\": {compile_seconds:.6}, \"accesses_per_sec\": {compile_aps:.1}}},\n"
        ));
        json.push_str(&format!(
            "  \"total\": {{\"events\": {total_events}, \"seconds\": {total_seconds:.6}, \"events_per_sec\": {total_eps:.1}}}\n"
        ));
        json.push_str("}\n");
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("repro: cannot write {}: {e}", path.display());
            return Ok(false);
        }
        eprintln!("[wrote {}]", path.display());
    }

    if let Some(path) = trace_out {
        let Some(t) = last_report.as_ref() else {
            eprintln!("repro: --trace-out was given but no telemetry came back");
            return Ok(false);
        };
        if !write_trace_files(t, path) {
            return Ok(false);
        }
    }

    if let Some(path) = check {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("repro: cannot read baseline {}: {e}", path.display());
                return Ok(false);
            }
        };
        let Some(baseline_eps) = baseline_total_eps(&text) else {
            eprintln!("repro: no total events_per_sec found in {}", path.display());
            return Ok(false);
        };
        // Every gated metric by name, so a failure pinpoints *what*
        // regressed and by exactly how much. Per-cell entries are gated
        // only through the total (cells are noisy at small scales) but are
        // still named in the failure report when they breach the floor.
        let mut regressions: Vec<String> = Vec::new();
        let floor = baseline_eps * (1.0 - tolerance);
        let ratio = total_eps / baseline_eps;
        println!(
            "baseline {baseline_eps:.0} events/s, now {total_eps:.0} ({:+.1}%), \
             floor at -{:.0}% is {floor:.0}",
            (ratio - 1.0) * 100.0,
            tolerance * 100.0,
        );
        if total_eps < floor {
            regressions.push(format!(
                "total events/sec regressed {:.1}% (baseline {baseline_eps:.0}, \
                 now {total_eps:.0}, tolerance {:.0}%)",
                (1.0 - ratio) * 100.0,
                tolerance * 100.0
            ));
            for c in &cells {
                if let Some(base_eps) = baseline_cell_eps(&text, &c.name) {
                    if c.events_per_sec < base_eps * (1.0 - tolerance) {
                        regressions.push(format!(
                            "cell `{}` events/sec regressed {:.1}% (baseline {base_eps:.0}, \
                             now {:.0})",
                            c.name,
                            (1.0 - c.events_per_sec / base_eps) * 100.0,
                            c.events_per_sec
                        ));
                    }
                }
            }
        }
        for (label, key, field, now) in [
            (
                "kernel (calendar) ops/sec",
                "\"kernel\"",
                "\"ops_per_sec\":",
                kernel_ops,
            ),
            (
                "compile accesses/sec",
                "\"compile\"",
                "\"accesses_per_sec\":",
                compile_aps,
            ),
        ] {
            // Baselines written before a microbenchmark existed have no
            // entry for it; the events/sec gate above still applies, but
            // that microbenchmark is NOT gated until the baseline is
            // refreshed.
            let Some(baseline) = scan_line_number(&text, key, field) else {
                eprintln!(
                    "repro: WARNING: baseline {} has no {key} entry — {label} is NOT gated \
                     against regressions.\n\
                     repro: WARNING: refresh it with `repro perf --out {}` and commit the result.",
                    path.display(),
                    path.display()
                );
                continue;
            };
            let floor = baseline * (1.0 - tolerance);
            println!(
                "{label} baseline {baseline:.0}, now {now:.0} ({:+.1}%), floor at -{:.0}% is {floor:.0}",
                (now / baseline - 1.0) * 100.0,
                tolerance * 100.0,
            );
            if now < floor {
                regressions.push(format!(
                    "{label} regressed {:.1}% (baseline {baseline:.0}, now {now:.0}, \
                     tolerance {:.0}%)",
                    (1.0 - now / baseline) * 100.0,
                    tolerance * 100.0
                ));
            }
        }
        if !regressions.is_empty() {
            eprintln!(
                "repro: {} metric(s) regressed vs {}:",
                regressions.len(),
                path.display()
            );
            for r in &regressions {
                eprintln!("repro:   {r}");
            }
            return Ok(false);
        }
    }
    Ok(true)
}

/// One timed pass over the calendar kernel itself: a synthetic
/// retarget/pop-due workload at a slot population wider than any real
/// configuration drives (the engine registers procs + 3 slots), so the
/// number isolates retargeting and min-scan popping from all simulation
/// logic.
fn kernel_microbench() -> (u64, f64, f64) {
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
    (ops, seconds, ops as f64 / seconds.max(1e-9))
}

/// Times the compiler cold, outside the compile cache: slack analysis
/// plus scheduling of every app's trace, `repeat` times each (trace
/// extraction is not timed). Returns the accesses scheduled, the seconds
/// spent, and accesses per second.
fn compile_microbench(
    base: &SystemConfig,
    apps: &[App],
    repeat: usize,
) -> Result<(u64, f64, f64), SddsError> {
    let mut accesses: u64 = 0;
    let mut seconds = 0.0;
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
            seconds += started.elapsed().as_secs_f64();
            accesses += std::hint::black_box(table).scheduled_count() as u64;
        }
    }
    Ok((accesses, seconds, accesses as f64 / seconds.max(1e-9)))
}

/// One measured (scale, jobs) point of the `scale` experiment.
struct ScalePoint {
    scale: f64,
    jobs: usize,
    shards: usize,
    components: usize,
    events: u64,
    epochs: u64,
    seconds: f64,
    events_per_sec: f64,
    speedup: Option<f64>,
}

/// Times `repeat` runs of one scale-scene configuration and returns the
/// run's (jobs-invariant) result together with the best wall-clock time.
fn time_scale_point(
    cfg: &sdds::ScaleSceneConfig,
    jobs: usize,
    repeat: usize,
) -> Result<(sdds_runtime::SceneResult, f64), SddsError> {
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..repeat {
        let started = Instant::now();
        let r = sdds::run_scale(cfg, jobs)?;
        let secs = started.elapsed().as_secs_f64();
        if secs < best {
            best = secs;
        }
        if let Some(prev) = &result {
            let prev: &sdds_runtime::SceneResult = prev;
            assert_eq!(
                prev.digest(),
                r.digest(),
                "nondeterministic scale-{} scene across repeats",
                cfg.factor
            );
        } else {
            result = Some(r);
        }
    }
    let Some(r) = result else {
        // Unreachable: `repeat` is validated to be at least 1.
        return Err(SddsError::Config(sdds::ConfigError::ZeroProcs));
    };
    Ok((r, best))
}

/// Runs the sharded datacenter scene across `--scales` × `--jobs-list`
/// and reports aggregate events/sec per point, plus (unless
/// `--no-baseline`) the speedup over a single-sharded run of the same
/// scene. Digests are checked for bitwise equality across worker counts;
/// any divergence returns `Ok(false)`, as do output-file failures and a
/// missed `--check-speedup` gate.
#[allow(clippy::too_many_arguments)]
fn run_scale_cmd(
    scales: &[f64],
    jobs_list: &[usize],
    shards: sdds_runtime::ShardPolicy,
    epoch_us: Option<u64>,
    repeat: usize,
    baseline: bool,
    out: Option<&std::path::Path>,
    digest_out: Option<&std::path::Path>,
    check_speedup: Option<f64>,
) -> Result<bool, SddsError> {
    use sdds_runtime::ShardPolicy;
    use simkit::SimDuration;

    let epoch = epoch_us.map(SimDuration::from_micros);
    println!(
        "Sharded scene throughput (best of {repeat} runs per point, shards={})",
        match shards {
            ShardPolicy::Auto => "auto".to_owned(),
            ShardPolicy::Fixed(n) => n.to_string(),
        }
    );
    println!(
        "{:<8} {:>5} {:>7} {:>11} {:>10} {:>8} {:>9} {:>13} {:>9}",
        "scale",
        "jobs",
        "shards",
        "components",
        "events",
        "epochs",
        "seconds",
        "events/sec",
        "speedup"
    );

    let mut points: Vec<ScalePoint> = Vec::new();
    let mut baselines: Vec<ScalePoint> = Vec::new();
    let mut digests: Vec<(f64, String)> = Vec::new();
    let mut ok = true;

    for &scale in scales {
        let cfg = sdds::ScaleSceneConfig {
            factor: scale,
            shards,
            epoch,
        };
        let base_eps = if baseline {
            let bcfg = sdds::ScaleSceneConfig {
                shards: ShardPolicy::Fixed(1),
                ..cfg
            };
            let (r, secs) = time_scale_point(&bcfg, 1, repeat)?;
            let eps = r.events as f64 / secs.max(1e-9);
            println!(
                "{scale:<8.2} {:>5} {:>7} {:>11} {:>10} {:>8} {secs:>9.3} {eps:>13.0} {:>9}",
                1, 1, r.components, r.events, r.epochs, "1.00x"
            );
            baselines.push(ScalePoint {
                scale,
                jobs: 1,
                shards: 1,
                components: r.components,
                events: r.events,
                epochs: r.epochs,
                seconds: secs,
                events_per_sec: eps,
                speedup: None,
            });
            Some(eps)
        } else {
            None
        };

        let mut scale_digest: Option<String> = None;
        for &jobs in jobs_list {
            let (r, secs) = time_scale_point(&cfg, jobs, repeat)?;
            let digest = r.digest();
            match &scale_digest {
                Some(reference) if *reference != digest => {
                    eprintln!(
                        "repro: scale {scale} digest DIVERGED at jobs={jobs}:\n  want {reference}\n  got  {digest}"
                    );
                    ok = false;
                }
                Some(_) => {}
                None => scale_digest = Some(digest),
            }
            let eps = r.events as f64 / secs.max(1e-9);
            let speedup = base_eps.map(|b| eps / b.max(1e-9));
            println!(
                "{scale:<8.2} {jobs:>5} {:>7} {:>11} {:>10} {:>8} {secs:>9.3} {eps:>13.0} {:>9}",
                r.shards,
                r.components,
                r.events,
                r.epochs,
                speedup.map_or_else(|| "-".to_owned(), |s| format!("{s:.2}x")),
            );
            points.push(ScalePoint {
                scale,
                jobs,
                shards: r.shards,
                components: r.components,
                events: r.events,
                epochs: r.epochs,
                seconds: secs,
                events_per_sec: eps,
                speedup,
            });
        }
        if let Some(d) = scale_digest {
            digests.push((scale, d));
        }
    }

    if let Some(path) = out {
        let point_json = |p: &ScalePoint| {
            format!(
                "    {{\"scale\": {:.3}, \"jobs\": {}, \"shards\": {}, \"components\": {}, \
                 \"events\": {}, \"epochs\": {}, \"seconds\": {:.6}, \"events_per_sec\": {:.1}{}}}",
                p.scale,
                p.jobs,
                p.shards,
                p.components,
                p.events,
                p.epochs,
                p.seconds,
                p.events_per_sec,
                p.speedup.map_or_else(String::new, |s| format!(
                    ", \"speedup_vs_single_shard\": {s:.2}"
                ))
            )
        };
        let mut json = String::new();
        json.push_str("{\n");
        json.push_str("  \"schema\": \"sdds-scale-v1\",\n");
        json.push_str(&format!("  \"repeat\": {repeat},\n"));
        json.push_str(&format!(
            "  \"epoch_us\": {},\n",
            epoch_us.map_or_else(|| "\"auto\"".to_owned(), |e| e.to_string())
        ));
        json.push_str(&format!(
            "  \"shards\": {},\n",
            match shards {
                ShardPolicy::Auto => "\"auto\"".to_owned(),
                ShardPolicy::Fixed(n) => n.to_string(),
            }
        ));
        json.push_str("  \"baselines\": [\n");
        let lines: Vec<String> = baselines.iter().map(point_json).collect();
        json.push_str(&lines.join(",\n"));
        json.push_str("\n  ],\n");
        json.push_str("  \"points\": [\n");
        let lines: Vec<String> = points.iter().map(point_json).collect();
        json.push_str(&lines.join(",\n"));
        json.push_str("\n  ]\n}\n");
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("repro: cannot write {}: {e}", path.display());
            return Ok(false);
        }
        eprintln!("[wrote {}]", path.display());
    }

    if let Some(path) = digest_out {
        let mut text = String::new();
        for (_, d) in &digests {
            text.push_str(d);
            text.push('\n');
        }
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("repro: cannot write {}: {e}", path.display());
            return Ok(false);
        }
        eprintln!(
            "[wrote {} ({} digest lines)]",
            path.display(),
            digests.len()
        );
    }

    if let Some(required) = check_speedup {
        let largest = scales.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let best = points
            .iter()
            .filter(|p| p.scale == largest)
            .filter_map(|p| p.speedup)
            .fold(f64::NEG_INFINITY, f64::max);
        if !best.is_finite() {
            eprintln!(
                "repro: --check-speedup needs the single-shard baseline (drop --no-baseline)"
            );
            return Ok(false);
        }
        println!("speedup gate at scale {largest}: best {best:.2}x, required {required:.2}x");
        if best < required {
            eprintln!(
                "repro: best speedup {best:.2}x at scale {largest} is below the required {required:.2}x"
            );
            return Ok(false);
        }
    }

    if !ok {
        eprintln!("repro: scale digests diverged across worker counts (determinism bug)");
    }
    Ok(ok)
}

/// Extracts the total `events_per_sec` from a `--out` JSON document: the
/// number following the `"events_per_sec"` key on the `"total"` line. The
/// format is our own single-line-per-object emission, so a string scan is
/// sufficient — no JSON parser needed.
fn baseline_total_eps(text: &str) -> Option<f64> {
    scan_line_number(text, "\"total\"", "\"events_per_sec\":")
}

/// Extracts one named cell's `events_per_sec` from a `--out` JSON
/// document; `None` when the baseline lacks that cell.
fn baseline_cell_eps(text: &str, name: &str) -> Option<f64> {
    scan_line_number(
        text,
        &format!("\"name\": \"{name}\""),
        "\"events_per_sec\":",
    )
}

/// Finds the line containing `line_key` and parses the number following
/// `field_key` on it.
fn scan_line_number(text: &str, line_key: &str, field_key: &str) -> Option<f64> {
    let line = text.lines().find(|l| l.contains(line_key))?;
    let rest = &line[line.find(field_key)? + field_key.len()..];
    let rest = rest.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Writes a telemetry report's event stream next to `path`: the JSONL
/// stream at `path` itself and the Chrome `trace_event` rendering at
/// `path` with its extension replaced by `.chrome.json`. Returns `false`
/// (after printing the error) when either file cannot be written.
fn write_trace_files(t: &sdds::TelemetryReport, path: &std::path::Path) -> bool {
    if let Err(e) = std::fs::write(path, t.jsonl()) {
        eprintln!("repro: cannot write {}: {e}", path.display());
        return false;
    }
    eprintln!("[wrote {} ({} events)]", path.display(), t.events.len());
    let chrome = path.with_extension("chrome.json");
    if let Err(e) = std::fs::write(&chrome, t.chrome_trace()) {
        eprintln!("repro: cannot write {}: {e}", chrome.display());
        return false;
    }
    eprintln!("[wrote {} (open in chrome://tracing)]", chrome.display());
    true
}

/// Runs one telemetry-enabled cell (the first `--apps` entry, scheme on)
/// and renders the per-disk time-in-state / energy-by-state table, hard-
/// checking that the table reconciles with the run's total energy to
/// 1e-9 J. Optionally exports the trace and metrics. Returns `Ok(false)`
/// when the reconciliation check fails or an output cannot be written.
fn run_trace_cmd(
    base: &SystemConfig,
    apps: &[App],
    trace_out: Option<&std::path::Path>,
    metrics_out: Option<&std::path::Path>,
) -> Result<bool, SddsError> {
    let app = apps.first().copied().unwrap_or(App::Sar);
    let cfg = base.with_scheme(true).with_telemetry(true);
    println!(
        "Traced run: {} under `{}` + scheme",
        app.name(),
        cfg.policy.name()
    );
    let o = sdds::run(app, &cfg)?;
    let result = &o.result;
    let Some(t) = result.telemetry.as_ref() else {
        eprintln!("repro: telemetry was enabled but no report came back");
        return Ok(false);
    };

    println!(
        "{} trace events, {} metrics; exec {:.2} s, energy {:.2} J\n",
        t.events.len(),
        t.metrics.len(),
        result.exec_time.as_secs_f64(),
        result.energy_joules
    );
    println!(
        "{:>4} {:>4}  {:<12} {:>12} {:>14}",
        "node", "disk", "state", "time (s)", "energy (J)"
    );
    for d in &t.disks {
        for (i, (state, secs, joules)) in d.states.iter().enumerate() {
            let (n, k) = if i == 0 {
                (d.node.to_string(), d.disk.to_string())
            } else {
                (String::new(), String::new())
            };
            println!("{n:>4} {k:>4}  {state:<12} {secs:>12.3} {joules:>14.3}");
        }
        println!(
            "{:>4} {:>4}  {:<12} {:>12} {:>14.3}   \
             {} spin-ups, {} spin-downs, {} rpm changes, {} requests",
            "",
            "",
            "total",
            "",
            d.total_joules,
            d.counters.spin_ups,
            d.counters.spin_downs,
            d.counters.rpm_changes,
            d.counters.requests_served
        );
    }
    let table_sum = t.summary_joules();
    let delta = (table_sum - result.energy_joules).abs();
    println!(
        "\nenergy reconciliation: table {table_sum:.6} J vs run {:.6} J (|delta| = {delta:.3e} J)",
        result.energy_joules
    );
    if delta >= 1e-9 {
        eprintln!("repro: per-disk energy table does not reconcile with the run's energy");
        return Ok(false);
    }

    if let Some(path) = trace_out {
        if !write_trace_files(t, path) {
            return Ok(false);
        }
    }
    if let Some(path) = metrics_out {
        if let Err(e) = std::fs::write(path, t.metrics.to_json()) {
            eprintln!("repro: cannot write {}: {e}", path.display());
            return Ok(false);
        }
        eprintln!("[wrote {}]", path.display());
    }
    Ok(true)
}

/// One cell of the attribution matrix: everything `repro attrib`
/// reconciles and reports for one (app, policy, scheme) run.
struct AttribCell {
    app: &'static str,
    policy: &'static str,
    scheme: bool,
    energy_j: f64,
    cells_sum_j: f64,
    reconciliation_delta_j: f64,
    /// Aggregated `(state, seconds, joules)` across every disk, in
    /// sorted-label order.
    states: Vec<(&'static str, f64, f64)>,
    requests: u64,
    response_us: u64,
    queue_us: u64,
    spin_up_us: u64,
    wait_us: u64,
    service_us: u64,
    recovery_requests: u64,
    recovery_response_us: u64,
    accesses: u64,
    unparented: u64,
    span_energy_nj: u64,
    decisions: u64,
    by_action: std::collections::BTreeMap<&'static str, u64>,
    by_mode: std::collections::BTreeMap<&'static str, u64>,
    idle_windows: u64,
    idle_us: u64,
    regret_j: f64,
    faults_injected: u64,
    faults_recovered: u64,
}

/// Sums the offline oracle's cost and the policy's realized cost over
/// one completed idle window, returning the window's regret in joules
/// (per disk; the caller scales by the node's disk count).
///
/// The oracle knows the window length exactly and picks the cheapest of
/// staying at full speed, dwelling at the best lower RPM level, or
/// spinning down to standby — each required to end the window at full
/// speed. The realized cost charges the action the policy actually took
/// (`"none"`, `"spin-down"` or `"speed-change"`), approximating a speed
/// change with the oracle's best level and assuming the window starts at
/// full speed; both approximations are documented in DESIGN.md §16.
fn window_regret(
    params: &sdds_disk::DiskParams,
    model: &sdds_disk::SpindlePowerModel,
    idle_us: u64,
    action: &str,
) -> f64 {
    use sdds_power::analysis::{best_level, level_energy, standby_energy, stay_energy};
    use simkit::SimDuration;
    let idle = SimDuration::from_micros(idle_us);
    let full = params.max_rpm;
    let stay = stay_energy(params, model, full, idle);
    let best = best_level(params, model, full, idle);
    let level = if best != full {
        level_energy(params, model, full, best, idle)
    } else {
        None
    };
    let standby = standby_energy(params, model, idle);
    let oracle = stay
        .min(level.unwrap_or(f64::INFINITY))
        .min(standby.unwrap_or(f64::INFINITY));
    let actual = match action {
        "spin-down" => standby.unwrap_or(stay),
        "speed-change" => level.unwrap_or(stay),
        _ => stay,
    };
    (actual - oracle).max(0.0)
}

/// Runs the app × strategy × scheme matrix with telemetry on and builds
/// the deterministic attribution report (`sdds-attrib-v1`): per-disk /
/// per-power-state energy reconciled against the headline joules at
/// 1e-9, exact latency critical-path decomposition (queue = spin-up +
/// wait, response = queue + service), policy-decision counts with
/// learner-state snapshots, regret against the offline idle-window
/// oracle, and per-shard/per-epoch barrier-stall accounting from an
/// observed sharded scene run. Returns `Ok(false)` when any
/// reconciliation or identity fails, or an output cannot be written.
fn run_attrib(
    base: &SystemConfig,
    apps: &[App],
    scenario: Option<&str>,
    seed: u64,
    scene_scale: f64,
    shards: sdds_runtime::ShardPolicy,
    out: Option<&std::path::Path>,
) -> Result<bool, SddsError> {
    use simkit::span::{decompose, SpanForest};
    use simkit::telemetry::TraceEvent;

    let fault = match scenario {
        Some(name) => match simkit::fault::FaultSpec::scenario(name, seed) {
            Some(spec) => Some(spec),
            None => fail(&format!(
                "unknown fault scenario `{name}` (known: light, heavy)"
            )),
        },
        None => None,
    };
    let model = match sdds_disk::SpindlePowerModel::new(&base.disk) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("repro: disk parameters reject a power model: {e}");
            return Ok(false);
        }
    };

    println!(
        "Deterministic attribution matrix ({} apps x 4 strategies x 2 schemes{})",
        apps.len(),
        scenario.map_or_else(String::new, |s| format!(", faults `{s}` seed {seed}"))
    );
    println!(
        "{:<24} {:>11} {:>10} {:>8} {:>8} {:>8} {:>8} {:>9} {:>10}",
        "cell",
        "energy (J)",
        "delta (J)",
        "reqs",
        "queue%",
        "spinup%",
        "svc%",
        "decisions",
        "regret (J)"
    );

    let mut ok = true;
    let mut cells: Vec<AttribCell> = Vec::new();
    for &app in apps {
        for kind in sdds_power::PolicyKind::paper_strategies() {
            for scheme in [false, true] {
                let cfg = base
                    .with_policy(kind.clone())
                    .with_scheme(scheme)
                    .with_telemetry(true)
                    .with_fault(fault.clone());
                let o = sdds::run(app, &cfg)?;
                let result = &o.result;
                let Some(t) = result.telemetry.as_ref() else {
                    eprintln!("repro: telemetry was enabled but no report came back");
                    return Ok(false);
                };

                // Energy attribution: per-disk per-state cells must sum
                // to the headline joules. Each disk's states are summed
                // in sorted-label order (the same order its meter totals
                // them), then disks in (node, disk) order — the exact
                // accumulation sequence of the headline figure.
                let mut cells_sum = 0.0;
                let mut states: std::collections::BTreeMap<&'static str, (f64, f64)> =
                    std::collections::BTreeMap::new();
                for d in &t.disks {
                    let mut disk_sum = 0.0;
                    for &(state, secs, joules) in &d.states {
                        disk_sum += joules;
                        let e = states.entry(state).or_insert((0.0, 0.0));
                        e.0 += secs;
                        e.1 += joules;
                    }
                    cells_sum += disk_sum;
                }
                let delta = (cells_sum - result.energy_joules).abs();
                if delta >= 1e-9 {
                    eprintln!(
                        "repro: {}/{}/scheme={scheme}: energy cells sum {cells_sum:.9} J \
                         but the run reports {:.9} J (|delta| = {delta:.3e})",
                        app.name(),
                        kind.name(),
                        result.energy_joules
                    );
                    ok = false;
                }

                // Latency critical path: every request's decomposition
                // must reassemble exactly (integer microseconds).
                let lats = decompose(&t.events);
                let mut cell = AttribCell {
                    app: app.name(),
                    policy: kind.name(),
                    scheme,
                    energy_j: result.energy_joules,
                    cells_sum_j: cells_sum,
                    reconciliation_delta_j: delta,
                    states: states
                        .into_iter()
                        .map(|(s, (secs, j))| (s, secs, j))
                        .collect(),
                    requests: 0,
                    response_us: 0,
                    queue_us: 0,
                    spin_up_us: 0,
                    wait_us: 0,
                    service_us: 0,
                    recovery_requests: 0,
                    recovery_response_us: 0,
                    accesses: 0,
                    unparented: 0,
                    span_energy_nj: 0,
                    decisions: 0,
                    by_action: std::collections::BTreeMap::new(),
                    by_mode: std::collections::BTreeMap::new(),
                    idle_windows: 0,
                    idle_us: 0,
                    regret_j: 0.0,
                    faults_injected: result.faults.total_injected(),
                    faults_recovered: result.faults.retried
                        + result.faults.remapped
                        + result.faults.reconstructed
                        + result.faults.redirected,
                };
                for l in &lats {
                    if l.response_us != l.queue_us + l.service_us
                        || l.queue_us != l.spin_up_us + l.wait_us
                    {
                        eprintln!(
                            "repro: {}/{}/scheme={scheme}: request ({}, {}, {}) latency does \
                             not decompose exactly: response {} != queue {} + service {} \
                             (queue = spin-up {} + wait {})",
                            app.name(),
                            kind.name(),
                            l.node,
                            l.disk,
                            l.id,
                            l.response_us,
                            l.queue_us,
                            l.service_us,
                            l.spin_up_us,
                            l.wait_us
                        );
                        ok = false;
                    }
                    cell.requests += 1;
                    cell.response_us += l.response_us;
                    cell.queue_us += l.queue_us;
                    cell.spin_up_us += l.spin_up_us;
                    cell.wait_us += l.wait_us;
                    cell.service_us += l.service_us;
                    if l.recovery {
                        cell.recovery_requests += 1;
                        cell.recovery_response_us += l.response_us;
                    }
                }

                // Causal span forest: access-rooted request trees.
                let forest = SpanForest::build(&t.events);
                cell.accesses = forest.accesses.len() as u64;
                cell.unparented = forest
                    .requests
                    .iter()
                    .filter(|r| r.access.is_none())
                    .count() as u64;
                cell.span_energy_nj = forest.total_energy_nj();

                // Policy decisions (with learner snapshots) and the
                // idle-window regret against the offline oracle.
                for e in &t.events {
                    match e {
                        TraceEvent::PolicyDecision { action, mode, .. } => {
                            cell.decisions += 1;
                            *cell.by_action.entry(*action).or_insert(0) += 1;
                            if let Some(m) = *mode {
                                *cell.by_mode.entry(m).or_insert(0) += 1;
                            }
                        }
                        TraceEvent::NodeIdle {
                            idle_us, action, ..
                        } => {
                            cell.idle_windows += 1;
                            cell.idle_us += idle_us;
                            cell.regret_j += window_regret(&base.disk, &model, *idle_us, action)
                                * base.disks_per_node as f64;
                        }
                        _ => {}
                    }
                }

                let pfrac = |part: u64| {
                    if cell.response_us == 0 {
                        0.0
                    } else {
                        100.0 * part as f64 / cell.response_us as f64
                    }
                };
                println!(
                    "{:<24} {:>11.2} {:>10.1e} {:>8} {:>8.1} {:>8.1} {:>8.1} {:>9} {:>10.3}",
                    format!(
                        "{}/{}{}",
                        cell.app,
                        cell.policy,
                        if scheme { "+scheme" } else { "" }
                    ),
                    cell.energy_j,
                    cell.reconciliation_delta_j,
                    cell.requests,
                    pfrac(cell.queue_us),
                    pfrac(cell.spin_up_us),
                    pfrac(cell.service_us),
                    cell.decisions,
                    cell.regret_j,
                );
                cells.push(cell);
            }
        }
    }

    // Shard-level observability: one observed sharded scene run, with
    // per-epoch barrier-stall and load-imbalance accounting.
    let scene_cfg = sdds::ScaleSceneConfig {
        factor: scene_scale,
        shards,
        epoch: None,
    };
    let (scene, obs) = sdds::run_scale_observed(&scene_cfg, 2)?;
    let observed_events: u64 = obs.iter().map(|o| o.events.len() as u64).sum();
    if observed_events != scene.events {
        eprintln!(
            "repro: shard observer saw {observed_events} events but the kernel reports {}",
            scene.events
        );
        ok = false;
    }
    let imbalance = simkit::shard::epoch_imbalance(&obs);
    let stall_events: u64 = imbalance.iter().map(|e| e.stall_events).sum();
    let max_epoch_stall = imbalance.iter().map(|e| e.stall_events).max().unwrap_or(0);
    let per_shard: Vec<u64> = obs.iter().map(|o| o.events.len() as u64).collect();
    println!(
        "\nsharded scene (factor {scene_scale}): {} shards, {} epochs, {} events; \
         barrier stall {} event-slots (worst epoch {})",
        scene.shards, scene.epochs, scene.events, stall_events, max_epoch_stall
    );

    if let Some(path) = out {
        let mut json = String::new();
        json.push_str("{\n");
        json.push_str("  \"schema\": \"sdds-attrib-v1\",\n");
        json.push_str(&format!(
            "  \"scenario\": {},\n",
            scenario.map_or_else(|| "null".to_owned(), |s| format!("\"{s}\""))
        ));
        json.push_str(&format!("  \"seed\": {seed},\n"));
        json.push_str(&format!("  \"procs\": {},\n", base.scale.procs));
        json.push_str(&format!("  \"factor\": {},\n", base.scale.factor));
        json.push_str("  \"cells\": [\n");
        let rows: Vec<String> = cells
            .iter()
            .map(|c| {
                let states: Vec<String> = c
                    .states
                    .iter()
                    .map(|(s, secs, j)| {
                        format!(
                            "{{\"state\": \"{s}\", \"seconds\": {secs:.6}, \"joules\": {j:.6}}}"
                        )
                    })
                    .collect();
                let actions: Vec<String> = c
                    .by_action
                    .iter()
                    .map(|(k, v)| format!("\"{k}\": {v}"))
                    .collect();
                let modes: Vec<String> = c
                    .by_mode
                    .iter()
                    .map(|(k, v)| format!("\"{k}\": {v}"))
                    .collect();
                format!(
                    "    {{\"app\": \"{}\", \"policy\": \"{}\", \"scheme\": {}, \
                     \"energy_j\": {:.9}, \"cells_sum_j\": {:.9}, \
                     \"reconciliation_delta_j\": {:.3e}, \"states\": [{}], \
                     \"requests\": {}, \"latency_us\": {{\"response\": {}, \"queue\": {}, \
                     \"spin_up\": {}, \"wait\": {}, \"service\": {}}}, \
                     \"recovery\": {{\"requests\": {}, \"response_us\": {}}}, \
                     \"spans\": {{\"accesses\": {}, \"unparented\": {}, \"energy_nj\": {}}}, \
                     \"decisions\": {{\"total\": {}, \"by_action\": {{{}}}, \"by_mode\": {{{}}}}}, \
                     \"idle\": {{\"windows\": {}, \"total_us\": {}, \"regret_j\": {:.6}}}, \
                     \"faults\": {{\"injected\": {}, \"recovered\": {}}}}}",
                    c.app,
                    c.policy,
                    c.scheme,
                    c.energy_j,
                    c.cells_sum_j,
                    c.reconciliation_delta_j,
                    states.join(", "),
                    c.requests,
                    c.response_us,
                    c.queue_us,
                    c.spin_up_us,
                    c.wait_us,
                    c.service_us,
                    c.recovery_requests,
                    c.recovery_response_us,
                    c.accesses,
                    c.unparented,
                    c.span_energy_nj,
                    c.decisions,
                    actions.join(", "),
                    modes.join(", "),
                    c.idle_windows,
                    c.idle_us,
                    c.regret_j,
                    c.faults_injected,
                    c.faults_recovered,
                )
            })
            .collect();
        json.push_str(&rows.join(",\n"));
        json.push_str("\n  ],\n");
        let shard_rows: Vec<String> = per_shard.iter().map(u64::to_string).collect();
        json.push_str(&format!(
            "  \"scene\": {{\"factor\": {:.3}, \"shards\": {}, \"components\": {}, \
             \"epochs\": {}, \"events\": {}, \"messages\": {}, \"makespan_us\": {}, \
             \"energy_j\": {:.6}, \"stall_event_slots\": {}, \"worst_epoch_stall\": {}, \
             \"per_shard_events\": [{}]}}\n",
            scene_scale,
            scene.shards,
            scene.components,
            scene.epochs,
            scene.events,
            scene.messages,
            scene.makespan.as_micros(),
            scene.energy.total(),
            stall_events,
            max_epoch_stall,
            shard_rows.join(", "),
        ));
        json.push_str("}\n");
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("repro: cannot write {}: {e}", path.display());
            return Ok(false);
        }
        eprintln!("[wrote {}]", path.display());
    }

    if !ok {
        eprintln!("repro: attribution failed to reconcile (see above)");
    }
    Ok(ok)
}

/// Runs every selected app under a fault scenario and its fault-free
/// twin, printing a recovery table and optionally writing the
/// byte-deterministic `sdds-faults-v1` JSON report. Returns `Ok(false)`
/// when any app's `bytes_moved` diverges from its twin (recovery lost or
/// duplicated data) or the report cannot be written.
fn run_faults(
    base: &SystemConfig,
    apps: &[App],
    scenario: &str,
    seed: u64,
    out: Option<&std::path::Path>,
) -> Result<bool, SddsError> {
    let Some(spec) = simkit::fault::FaultSpec::scenario(scenario, seed) else {
        fail(&format!(
            "unknown fault scenario `{scenario}` (known: light, heavy)"
        ));
    };
    let clean_cfg = base.with_scheme(true);
    let faulty_cfg = clean_cfg.with_fault(Some(spec));
    println!(
        "Fault scenario `{scenario}` (seed {seed}) under `{}` + scheme",
        base.policy.name()
    );
    println!(
        "{:<11} {:>9} {:>8} {:>8} {:>12} {:>10} {:>9} {:>14} {:>7}",
        "app",
        "injected",
        "retried",
        "remapped",
        "reconstructed",
        "redirected",
        "deferred",
        "energy dJ",
        "parity"
    );
    let mut rows: Vec<String> = Vec::new();
    let mut total = simkit::fault::FaultCounters::default();
    let mut total_delta = 0.0;
    let mut parity_ok = true;
    for &app in apps {
        let clean = sdds::run(app, &clean_cfg)?;
        let faulty = sdds::run(app, &faulty_cfg)?;
        let parity = clean.result.bytes_moved == faulty.result.bytes_moved;
        parity_ok &= parity;
        let f = faulty.result.faults;
        let delta = faulty.result.energy_joules - clean.result.energy_joules;
        total.merge(&f);
        total_delta += delta;
        println!(
            "{:<11} {:>9} {:>8} {:>8} {:>12} {:>10} {:>9} {:>14.3} {:>7}",
            app.name(),
            f.total_injected(),
            f.retried,
            f.remapped,
            f.reconstructed,
            f.redirected,
            f.deferred,
            delta,
            if parity { "ok" } else { "FAIL" }
        );
        rows.push(format!(
            "    {{\"name\": \"{}\", \"bytes_read\": {}, \"bytes_written\": {}, \
             \"parity\": {}, \"exec_seconds\": {:.6}, \"energy_joules\": {:.6}, \
             \"fault_free_joules\": {:.6}, \"energy_delta_joules\": {:.6}, \
             \"faults\": {{\"injected_transient\": {}, \"injected_bad_sector\": {}, \
             \"retried\": {}, \"remapped\": {}, \"reconstructed\": {}, \
             \"redirected\": {}, \"deferred\": {}}}}}",
            app.name(),
            faulty.result.bytes_moved.0,
            faulty.result.bytes_moved.1,
            parity,
            faulty.result.exec_time.as_secs_f64(),
            faulty.result.energy_joules,
            clean.result.energy_joules,
            delta,
            f.injected_transient,
            f.injected_bad_sector,
            f.retried,
            f.remapped,
            f.reconstructed,
            f.redirected,
            f.deferred,
        ));
    }
    println!(
        "{:<11} {:>9} {:>8} {:>8} {:>12} {:>10} {:>9} {:>14.3} {:>7}",
        "TOTAL",
        total.total_injected(),
        total.retried,
        total.remapped,
        total.reconstructed,
        total.redirected,
        total.deferred,
        total_delta,
        if parity_ok { "ok" } else { "FAIL" }
    );

    if let Some(path) = out {
        let mut json = String::new();
        json.push_str("{\n");
        json.push_str("  \"schema\": \"sdds-faults-v1\",\n");
        json.push_str(&format!("  \"scenario\": \"{scenario}\",\n"));
        json.push_str(&format!("  \"seed\": {seed},\n"));
        json.push_str(&format!("  \"policy\": \"{}\",\n", base.policy.name()));
        json.push_str(&format!("  \"procs\": {},\n", base.scale.procs));
        json.push_str("  \"apps\": [\n");
        json.push_str(&rows.join(",\n"));
        json.push_str("\n  ],\n");
        json.push_str(&format!(
            "  \"total\": {{\"injected\": {}, \"retried\": {}, \"remapped\": {}, \
             \"reconstructed\": {}, \"redirected\": {}, \"deferred\": {}, \
             \"energy_delta_joules\": {total_delta:.6}, \"parity\": {parity_ok}}}\n",
            total.total_injected(),
            total.retried,
            total.remapped,
            total.reconstructed,
            total.redirected,
            total.deferred,
        ));
        json.push_str("}\n");
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("repro: cannot write {}: {e}", path.display());
            return Ok(false);
        }
        eprintln!("[wrote {}]", path.display());
    }

    if !parity_ok {
        eprintln!("repro: bytes_moved diverged from the fault-free twin — recovery lost data");
        return Ok(false);
    }
    Ok(true)
}

/// One measured (scene, mode) cell of the `online` experiment.
struct OnlineCell {
    mode: sdds::OnlineMode,
    policy: String,
    energy_j: f64,
    mean_read_response_s: f64,
    exec_s: f64,
    events: u64,
    bytes_read: u64,
    bytes_written: u64,
}

/// Picks the energy/latency frontier: cells no other cell beats on both
/// energy and mean read response (with at least one strict improvement).
fn online_frontier(cells: &[OnlineCell]) -> Vec<&'static str> {
    cells
        .iter()
        .filter(|c| {
            !cells.iter().any(|o| {
                o.energy_j <= c.energy_j
                    && o.mean_read_response_s <= c.mean_read_response_s
                    && (o.energy_j < c.energy_j || o.mean_read_response_s < c.mean_read_response_s)
            })
        })
        .map(|c| c.mode.name())
        .collect()
}

/// Compares the compile-time, online and hybrid decision layers on keyed
/// workloads the compiler cannot characterize from loop bounds, printing
/// an energy/latency table per scene and the resulting frontier.
/// Optionally writes the byte-deterministic `sdds-online-v1` JSON report.
/// Returns `Ok(false)` when the report cannot be written.
fn run_online(
    base: &SystemConfig,
    scenes: &[String],
    modes: &[sdds::OnlineMode],
    seed: u64,
    out: Option<&std::path::Path>,
) -> Result<bool, SddsError> {
    use sdds_compiler::SlotGranularity;
    use sdds_workloads::KeyedWorkloadSpec;

    println!("Decision-layer comparison on keyed workloads (seed {seed})");
    let mut scene_rows: Vec<String> = Vec::new();
    for scene in scenes {
        let spec = match scene.as_str() {
            "zipfian" => KeyedWorkloadSpec::zipfian_hot_set(seed),
            "diurnal" => KeyedWorkloadSpec::diurnal(seed),
            other => fail(&format!(
                "unknown scene `{other}` (known: zipfian, diurnal)"
            )),
        };
        let trace =
            spec.program()
                .trace(SlotGranularity::unit())
                .map_err(|e| SddsError::Compile {
                    app: scene.clone(),
                    source: sdds::error::CompileError::from(e),
                })?;
        println!(
            "\nscene `{scene}`: {} procs x {} ops, {} keys",
            spec.procs, spec.ops_per_proc, spec.keys
        );
        println!(
            "{:<8} {:<16} {:>12} {:>14} {:>10} {:>9}",
            "mode", "policy", "energy (J)", "read resp (s)", "exec (s)", "events"
        );
        let mut cells: Vec<OnlineCell> = Vec::new();
        for &mode in modes {
            let o = sdds::run_mode(&trace, base, mode, seed)?;
            let policy = match mode {
                sdds::OnlineMode::Table => "table-lookup",
                sdds::OnlineMode::Online => "online-speed",
                sdds::OnlineMode::Hybrid => "hybrid",
            };
            let cell = OnlineCell {
                mode,
                policy: policy.to_owned(),
                energy_j: o.result.energy_joules,
                mean_read_response_s: o.result.mean_read_response,
                exec_s: o.result.exec_time.as_secs_f64(),
                events: o.result.events,
                bytes_read: o.result.bytes_moved.0,
                bytes_written: o.result.bytes_moved.1,
            };
            println!(
                "{:<8} {:<16} {:>12.1} {:>14.6} {:>10.1} {:>9}",
                cell.mode.name(),
                cell.policy,
                cell.energy_j,
                cell.mean_read_response_s,
                cell.exec_s,
                cell.events
            );
            cells.push(cell);
        }
        let frontier = online_frontier(&cells);
        println!("frontier (energy x latency): {}", frontier.join(", "));

        let cell_json: Vec<String> = cells
            .iter()
            .map(|c| {
                format!(
                    "      {{\"mode\": \"{}\", \"policy\": \"{}\", \"energy_j\": {:.6}, \
                     \"mean_read_response_s\": {:.6}, \"exec_s\": {:.6}, \"events\": {}, \
                     \"bytes_read\": {}, \"bytes_written\": {}}}",
                    c.mode.name(),
                    c.policy,
                    c.energy_j,
                    c.mean_read_response_s,
                    c.exec_s,
                    c.events,
                    c.bytes_read,
                    c.bytes_written
                )
            })
            .collect();
        let frontier_json: Vec<String> = frontier.iter().map(|m| format!("\"{m}\"")).collect();
        scene_rows.push(format!(
            "    {{\"scene\": \"{scene}\", \"procs\": {}, \"ops_per_proc\": {}, \
             \"keys\": {}, \"cells\": [\n{}\n    ], \"frontier\": [{}]}}",
            spec.procs,
            spec.ops_per_proc,
            spec.keys,
            cell_json.join(",\n"),
            frontier_json.join(", ")
        ));
    }

    if let Some(path) = out {
        let mut json = String::new();
        json.push_str("{\n");
        json.push_str("  \"schema\": \"sdds-online-v1\",\n");
        json.push_str(&format!("  \"seed\": {seed},\n"));
        json.push_str("  \"scenes\": [\n");
        json.push_str(&scene_rows.join(",\n"));
        json.push_str("\n  ]\n}\n");
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("repro: cannot write {}: {e}", path.display());
            return Ok(false);
        }
        eprintln!("[wrote {}]", path.display());
    }
    Ok(true)
}

/// Runs every (app, scheme) cell once under Deterministic arbitration and
/// once per SeededShuffle seed, checking that the physical invariants are
/// identical across all of them: arbitration only permutes same-instant
/// events, so it may move *when* work happens but never *what* work is
/// done. Bytes moved and the process-finish count must match the
/// Deterministic baseline for every seed; timing-derived metrics (exec
/// time, energy, hit rates) are allowed to differ. Returns `Ok(false)`
/// when any seed diverges.
fn run_fuzz(base: &SystemConfig, apps: &[App], seeds: u64) -> Result<bool, SddsError> {
    use simkit::kernel::ArbitrationPolicy;
    println!(
        "Arbitration fuzz under `{}`: Deterministic baseline vs {seeds} SeededShuffle seeds",
        base.policy.name()
    );
    println!(
        "{:<20} {:>14} {:>14} {:>6} {:>8}",
        "cell", "bytes_read", "bytes_written", "procs", "verdict"
    );
    let mut all_ok = true;
    for &app in apps {
        for scheme in [false, true] {
            let cfg = base
                .with_scheme(scheme)
                .with_arbitration(ArbitrationPolicy::Deterministic);
            let name = if scheme {
                format!("{}+scheme", app.name())
            } else {
                app.name().to_owned()
            };
            let det = sdds::run(app, &cfg)?.result;
            let baseline = (det.bytes_moved, det.per_proc_finish.len());
            let mut cell_ok = true;
            for k in 0..seeds {
                // The seed values themselves are arbitrary (SplitMix64
                // scrambles them); only their count and distinctness matter.
                let seed = 0x5EED_0000 + k;
                let shuffled = cfg.with_arbitration(ArbitrationPolicy::SeededShuffle(seed));
                let r = sdds::run(app, &shuffled)?.result;
                let got = (r.bytes_moved, r.per_proc_finish.len());
                if got != baseline {
                    cell_ok = false;
                    eprintln!(
                        "repro: seed {seed:#x} diverged on {name}: bytes ({}, {}) vs \
                         ({}, {}), procs {} vs {}",
                        got.0 .0, got.0 .1, baseline.0 .0, baseline.0 .1, got.1, baseline.1
                    );
                }
            }
            println!(
                "{name:<20} {:>14} {:>14} {:>6} {:>8}",
                baseline.0 .0,
                baseline.0 .1,
                baseline.1,
                if cell_ok { "ok" } else { "FAIL" }
            );
            all_ok &= cell_ok;
        }
    }
    if !all_ok {
        eprintln!(
            "repro: an invariant metric depends on same-instant event order — \
             the simulation is not arbitration-independent"
        );
        return Ok(false);
    }
    Ok(true)
}

/// One twin's JSON fragment of the `sdds-rebuild-v1` report.
fn rebuild_twin_json(
    name: &str,
    params: &sdds_runtime::RebuildParams,
    r: &RebuildResult,
) -> String {
    format!(
        "    {{\"name\": \"{name}\", \"routing\": {}, \"failure\": {}, \
         \"reads\": {}, \"writes\": {}, \"bytes_read\": {}, \"bytes_written\": {}, \
         \"read_p50_us\": {}, \"read_p99_us\": {}, \"read_p999_us\": {}, \
         \"queue_us\": {}, \"spin_up_wait_us\": {}, \"service_us\": {}, \
         \"crash_wait_us\": {}, \"response_us\": {}, \"transient_retries\": {}, \
         \"deferred\": {}, \"routed_skips\": {}, \"failed_disk\": {}, \
         \"spare_disk\": {}, \"rebuild_bytes\": {}, \"rebuild_chunks\": {}, \
         \"rebuild_skipped_ticks\": {}, \"rebuild_done_us\": {}, \
         \"energy\": {{\"active_j\": {:.6}, \"idle_j\": {:.6}, \"standby_j\": {:.6}, \
         \"spin_up_j\": {:.6}, \"total_j\": {:.6}, \"foreground_active_j\": {:.6}, \
         \"rebuild_active_j\": {:.6}}}, \"spin_downs\": {}, \"spin_ups\": {}, \
         \"route_digest\": \"{:016x}\", \"end_us\": {}}}",
        params.routing,
        params.inject_failure,
        r.reads,
        r.writes,
        r.bytes_read,
        r.bytes_written,
        r.read_p50_us,
        r.read_p99_us,
        r.read_p999_us,
        r.queue_us,
        r.spin_up_wait_us,
        r.service_us,
        r.crash_wait_us,
        r.response_us,
        r.transient_retries,
        r.deferred,
        r.routed_skips,
        r.failed_disk
            .map_or_else(|| "null".to_owned(), |d| d.to_string()),
        r.spare_disk
            .map_or_else(|| "null".to_owned(), |d| d.to_string()),
        r.rebuild_bytes,
        r.rebuild_chunks,
        r.rebuild_skipped_ticks,
        r.rebuild_done_us
            .map_or_else(|| "null".to_owned(), |t| t.to_string()),
        r.energy.active_j,
        r.energy.idle_j,
        r.energy.standby_j,
        r.energy.spin_up_j,
        r.energy.total(),
        r.foreground_active_j,
        r.rebuild_active_j,
        r.spin_downs,
        r.spin_ups,
        r.route_digest,
        r.end_us,
    )
}

/// Runs the replicated object-store scenario as three twins (routed,
/// primary-only, fault-free), prints the comparison, writes the
/// `sdds-rebuild-v1` report, and enforces the scenario's invariants:
/// foreground byte parity with the fault-free twin, exact reconciliation
/// of the foreground/rebuild energy split, and a routed p99 read latency
/// no worse than the unrouted twin's.
fn run_rebuild_cmd(scenario: &str, seed: u64, out: Option<&std::path::Path>) -> bool {
    let Some(spec) = simkit::fault::FaultSpec::scenario(scenario, seed) else {
        fail(&format!(
            "unknown fault scenario `{scenario}` (known: light, heavy)"
        ));
    };
    let routed_params = sdds_runtime::RebuildParams::paper_default(seed, Some(spec));
    let mut unrouted_params = routed_params.clone();
    unrouted_params.routing = false;
    let mut clean_params = routed_params.clone();
    clean_params.scenario = None;
    clean_params.inject_failure = false;

    let run = |params: &sdds_runtime::RebuildParams| match run_rebuild(params, None) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("repro: {e}");
            std::process::exit(3);
        }
    };
    let routed = run(&routed_params);
    let unrouted = run(&unrouted_params);
    let clean = run(&clean_params);

    let geometry = &routed_params.placement;
    println!(
        "Rebuild scenario `{scenario}` (seed {seed}): {}+{} disks, {} replicas, \
         member {} fails at {:.1} s, spare {}",
        geometry.data_disks,
        geometry.spares,
        geometry.replicas,
        routed.failed_disk.map_or(-1, i64::from),
        routed_params.fail_at.as_secs_f64(),
        routed.spare_disk.map_or(-1, i64::from),
    );
    println!(
        "{:<11} {:>6} {:>6} {:>9} {:>9} {:>9} {:>9} {:>8} {:>11} {:>9}",
        "twin",
        "reads",
        "writes",
        "p50 ms",
        "p99 ms",
        "p999 ms",
        "rb MiB",
        "done s",
        "energy kJ",
        "spin u/d"
    );
    for (name, r) in [
        ("routed", &routed),
        ("unrouted", &unrouted),
        ("fault-free", &clean),
    ] {
        println!(
            "{name:<11} {:>6} {:>6} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>8} {:>11.3} {:>9}",
            r.reads,
            r.writes,
            r.read_p50_us as f64 / 1e3,
            r.read_p99_us as f64 / 1e3,
            r.read_p999_us as f64 / 1e3,
            r.rebuild_bytes as f64 / (1024.0 * 1024.0),
            r.rebuild_done_us
                .map_or_else(|| "-".to_owned(), |t| format!("{:.1}", t as f64 / 1e6)),
            r.energy.total() / 1e3,
            format!("{}/{}", r.spin_ups, r.spin_downs),
        );
    }

    let parity_ok = routed.reads == clean.reads
        && routed.writes == clean.writes
        && routed.bytes_read == clean.bytes_read
        && routed.bytes_written == clean.bytes_written
        && unrouted.bytes_read == clean.bytes_read
        && unrouted.bytes_written == clean.bytes_written
        && routed.rebuild_done_us.is_some()
        && unrouted.rebuild_done_us.is_some();
    let energy_ok = [&routed, &unrouted, &clean]
        .iter()
        .all(|r| (r.foreground_active_j + r.rebuild_active_j - r.energy.active_j).abs() <= 1e-9);
    let p99_ok = routed.read_p99_us < unrouted.read_p99_us;
    let speedup = unrouted.read_p99_us as f64 / (routed.read_p99_us as f64).max(1.0);
    println!(
        "routing p99 speedup {speedup:.2}x; parity {}; energy split {} \
         (fg {:.1} J + rb {:.1} J)",
        if parity_ok { "ok" } else { "FAIL" },
        if energy_ok { "reconciled" } else { "FAIL" },
        routed.foreground_active_j,
        routed.rebuild_active_j,
    );

    if let Some(path) = out {
        let mut json = String::new();
        json.push_str("{\n");
        json.push_str("  \"schema\": \"sdds-rebuild-v1\",\n");
        json.push_str(&format!("  \"scenario\": \"{scenario}\",\n"));
        json.push_str(&format!("  \"seed\": {seed},\n"));
        json.push_str(&format!(
            "  \"geometry\": {{\"data_disks\": {}, \"spares\": {}, \"replicas\": {}, \
             \"chunk_kib\": {}, \"rebuild_period_us\": {}, \"fail_at_us\": {}}},\n",
            geometry.data_disks,
            geometry.spares,
            geometry.replicas,
            routed_params.chunk_kib,
            routed_params.rebuild_period.as_micros(),
            routed_params.fail_at.as_micros(),
        ));
        json.push_str("  \"twins\": [\n");
        json.push_str(
            &[
                rebuild_twin_json("routed", &routed_params, &routed),
                rebuild_twin_json("unrouted", &unrouted_params, &unrouted),
                rebuild_twin_json("fault_free", &clean_params, &clean),
            ]
            .join(",\n"),
        );
        json.push_str("\n  ],\n");
        json.push_str(&format!(
            "  \"checks\": {{\"bytes_parity\": {parity_ok}, \"energy_reconciled\": {energy_ok}, \
             \"p99_improved\": {p99_ok}, \"p99_speedup\": {speedup:.6}}}\n"
        ));
        json.push_str("}\n");
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("repro: cannot write {}: {e}", path.display());
            return false;
        }
        eprintln!("[wrote {}]", path.display());
    }

    if !parity_ok {
        eprintln!(
            "repro: foreground traffic diverged from the fault-free twin — rebuild lost data"
        );
    }
    if !energy_ok {
        eprintln!("repro: foreground + rebuild active joules do not reconcile with the headline");
    }
    if !p99_ok {
        eprintln!(
            "repro: routing failed to improve p99 ({} us routed vs {} us unrouted)",
            routed.read_p99_us, unrouted.read_p99_us
        );
    }
    parity_ok && energy_ok && p99_ok
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiment = "all".to_owned();
    let mut apps: Vec<App> = App::all().to_vec();
    let mut scale = WorkloadScale::paper();
    let mut csv_dir: Option<std::path::PathBuf> = None;
    let mut repeat: usize = 3;
    let mut out_path: Option<std::path::PathBuf> = None;
    let mut check_path: Option<std::path::PathBuf> = None;
    let mut tolerance: f64 = 0.30;
    let mut io_nodes: Option<usize> = None;
    let mut stripe_kb: Option<u64> = None;
    let mut cache_mb: Option<u64> = None;
    let mut buffer_mb: Option<u64> = None;
    let mut delta: Option<u32> = None;
    let mut theta: Option<u16> = None;
    let mut policy: Option<PolicyKind> = None;
    let mut trace_out: Option<std::path::PathBuf> = None;
    let mut metrics_out: Option<std::path::PathBuf> = None;
    let mut scenario = "light".to_owned();
    let mut scenario_explicit = false;
    let mut scene_scale: f64 = 0.25;
    let mut fault_seed: u64 = 42;
    let mut fuzz_seeds: u64 = 8;
    let mut online_scenes: Vec<String> = vec!["zipfian".to_owned(), "diurnal".to_owned()];
    let mut online_modes: Vec<sdds::OnlineMode> = sdds::OnlineMode::all().to_vec();
    let mut verbose = false;
    let mut scales: Vec<f64> = vec![1.0, 10.0, 100.0];
    let mut jobs_list: Vec<usize> = vec![1, 2, 4, 8];
    let mut shards = sdds_runtime::ShardPolicy::Auto;
    let mut epoch_us: Option<u64> = None;
    let mut digest_path: Option<std::path::PathBuf> = None;
    let mut check_speedup: Option<f64> = None;
    let mut scale_baseline = true;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--repeat" => {
                repeat = parse_num(&args, i);
                if repeat == 0 {
                    fail("--repeat must be at least 1");
                }
                i += 2;
            }
            "--out" => {
                out_path = Some(std::path::PathBuf::from(operand(&args, i)));
                i += 2;
            }
            "--check" => {
                check_path = Some(std::path::PathBuf::from(operand(&args, i)));
                i += 2;
            }
            "--tolerance" => {
                tolerance = parse_num(&args, i);
                if !(0.0..1.0).contains(&tolerance) {
                    fail("--tolerance must be in [0, 1)");
                }
                i += 2;
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return;
            }
            "--apps" => {
                apps = parse_apps(operand(&args, i));
                i += 2;
            }
            "--procs" => {
                scale.procs = parse_num(&args, i);
                i += 2;
            }
            "--factor" => {
                scale.factor = parse_num(&args, i);
                i += 2;
            }
            "--gap-factor" => {
                scale.gap_factor = parse_num(&args, i);
                i += 2;
            }
            "--io-nodes" => {
                io_nodes = Some(parse_num(&args, i));
                i += 2;
            }
            "--stripe-kb" => {
                stripe_kb = Some(parse_num(&args, i));
                i += 2;
            }
            "--cache-mb" => {
                cache_mb = Some(parse_num(&args, i));
                i += 2;
            }
            "--buffer-mb" => {
                buffer_mb = Some(parse_num(&args, i));
                i += 2;
            }
            "--delta" => {
                delta = Some(parse_num(&args, i));
                i += 2;
            }
            "--theta" => {
                theta = Some(parse_num(&args, i));
                i += 2;
            }
            "--policy" => {
                policy = Some(parse_policy(operand(&args, i)));
                i += 2;
            }
            "--trace-out" => {
                trace_out = Some(std::path::PathBuf::from(operand(&args, i)));
                i += 2;
            }
            "--metrics-out" => {
                metrics_out = Some(std::path::PathBuf::from(operand(&args, i)));
                i += 2;
            }
            "--scenario" => {
                scenario = operand(&args, i).to_owned();
                scenario_explicit = true;
                i += 2;
            }
            "--scene-scale" => {
                scene_scale = parse_num(&args, i);
                if !scene_scale.is_finite() || scene_scale <= 0.0 {
                    fail("--scene-scale must be a positive number");
                }
                i += 2;
            }
            "--seed" => {
                fault_seed = parse_num(&args, i);
                i += 2;
            }
            "--seeds" => {
                fuzz_seeds = parse_num(&args, i);
                if fuzz_seeds == 0 {
                    fail("--seeds must be at least 1");
                }
                i += 2;
            }
            "--scenes" => {
                online_scenes = operand(&args, i)
                    .split(',')
                    .map(|s| s.trim().to_owned())
                    .collect();
                if online_scenes.is_empty() {
                    fail("--scenes needs at least one scene");
                }
                i += 2;
            }
            "--modes" => {
                online_modes = operand(&args, i)
                    .split(',')
                    .map(|s| {
                        sdds::OnlineMode::parse(s.trim()).unwrap_or_else(|| {
                            fail(&format!(
                                "unknown mode `{}` (known: table, online, hybrid)",
                                s.trim()
                            ))
                        })
                    })
                    .collect();
                if online_modes.is_empty() {
                    fail("--modes needs at least one mode");
                }
                i += 2;
            }
            "--verbose" => {
                verbose = true;
                i += 1;
            }
            "--scales" => {
                let raw = operand(&args, i);
                scales = raw
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse()
                            .unwrap_or_else(|_| fail(&format!("invalid scale `{s}` in --scales")))
                    })
                    .collect();
                if scales.is_empty() {
                    fail("--scales needs at least one factor");
                }
                i += 2;
            }
            "--jobs-list" => {
                let raw = operand(&args, i);
                jobs_list = raw
                    .split(',')
                    .map(|s| {
                        let n: usize = s.trim().parse().unwrap_or_else(|_| {
                            fail(&format!("invalid worker count `{s}` in --jobs-list"))
                        });
                        if n == 0 {
                            fail("--jobs-list entries must be at least 1");
                        }
                        n
                    })
                    .collect();
                if jobs_list.is_empty() {
                    fail("--jobs-list needs at least one worker count");
                }
                i += 2;
            }
            "--shards" => {
                let raw = operand(&args, i);
                shards = if raw == "auto" {
                    sdds_runtime::ShardPolicy::Auto
                } else {
                    let n: usize = raw.parse().unwrap_or_else(|_| {
                        fail(&format!("--shards takes `auto` or a count, got `{raw}`"))
                    });
                    if n == 0 {
                        fail("--shards count must be at least 1");
                    }
                    sdds_runtime::ShardPolicy::Fixed(n)
                };
                i += 2;
            }
            "--epoch-us" => {
                epoch_us = Some(parse_num(&args, i));
                i += 2;
            }
            "--digest" => {
                digest_path = Some(std::path::PathBuf::from(operand(&args, i)));
                i += 2;
            }
            "--check-speedup" => {
                let x: f64 = parse_num(&args, i);
                if !x.is_finite() || x <= 0.0 {
                    fail("--check-speedup must be a positive number");
                }
                check_speedup = Some(x);
                i += 2;
            }
            "--no-baseline" => {
                scale_baseline = false;
                i += 1;
            }
            "--jobs" => {
                let jobs: usize = parse_num(&args, i);
                if jobs == 0 {
                    fail("--jobs must be at least 1");
                }
                simkit::pool::set_jobs(jobs);
                i += 2;
            }
            "--csv" => {
                let dir = std::path::PathBuf::from(operand(&args, i));
                if let Err(e) = std::fs::create_dir_all(&dir) {
                    fail(&format!(
                        "cannot create --csv directory {}: {e}",
                        dir.display()
                    ));
                }
                csv_dir = Some(dir);
                i += 2;
            }
            flag if flag.starts_with('-') => {
                fail(&format!("unknown option `{flag}`"));
            }
            name => {
                if !EXPERIMENTS.contains(&name) {
                    fail(&format!("unknown experiment `{name}`"));
                }
                experiment = name.to_owned();
                i += 1;
            }
        }
    }

    // Validate the full configuration up front: every knob the flags can
    // set goes through the builder, so a bad combination is rejected here
    // — with the config exit code — before any experiment runs.
    let mut builder = SystemConfig::builder().scale(scale);
    if let Some(n) = io_nodes {
        builder = builder.io_nodes(n);
    }
    if let Some(kb) = stripe_kb {
        builder = builder.stripe_kb(kb);
    }
    if let Some(mb) = cache_mb {
        builder = builder.cache_mb(mb);
    }
    if let Some(mb) = buffer_mb {
        builder = builder.buffer_mb(mb);
    }
    if let Some(d) = delta {
        builder = builder.delta(d);
    }
    if let Some(p) = policy.clone() {
        builder = builder.policy(p);
    }
    builder = builder.theta(theta.or(SystemConfig::paper_defaults().scheduler.theta));
    let base = match builder.build() {
        Ok(cfg) => cfg,
        Err(e) => {
            let e = SddsError::from(e);
            eprintln!("{}", render_diagnostic(&e, verbose));
            std::process::exit(e.exit_code());
        }
    };

    if experiment == "scale" {
        match run_scale_cmd(
            &scales,
            &jobs_list,
            shards,
            epoch_us,
            repeat,
            scale_baseline,
            out_path.as_deref(),
            digest_path.as_deref(),
            check_speedup,
        ) {
            Ok(ok) => std::process::exit(if ok { 0 } else { 1 }),
            Err(e) => {
                eprintln!("{}", render_diagnostic(&e, verbose));
                std::process::exit(e.exit_code());
            }
        }
    }

    if experiment == "perf" {
        match run_perf(
            &base,
            &apps,
            repeat,
            out_path.as_deref(),
            check_path.as_deref(),
            tolerance,
            trace_out.as_deref(),
        ) {
            Ok(ok) => std::process::exit(if ok { 0 } else { 1 }),
            Err(e) => {
                eprintln!("{}", render_diagnostic(&e, verbose));
                std::process::exit(e.exit_code());
            }
        }
    }

    if experiment == "trace" {
        // Default the traced cell to the paper's history-based strategy so
        // the trace shows power-state activity; --policy overrides.
        let cfg = match policy {
            Some(_) => base.clone(),
            None => base.with_policy(PolicyKind::history_based_default()),
        };
        match run_trace_cmd(&cfg, &apps, trace_out.as_deref(), metrics_out.as_deref()) {
            Ok(ok) => std::process::exit(if ok { 0 } else { 1 }),
            Err(e) => {
                eprintln!("{}", render_diagnostic(&e, verbose));
                std::process::exit(e.exit_code());
            }
        }
    }

    if experiment == "attrib" {
        match run_attrib(
            &base,
            &apps,
            scenario_explicit.then_some(scenario.as_str()),
            fault_seed,
            scene_scale,
            shards,
            out_path.as_deref(),
        ) {
            Ok(ok) => std::process::exit(if ok { 0 } else { 1 }),
            Err(e) => {
                eprintln!("{}", render_diagnostic(&e, verbose));
                std::process::exit(e.exit_code());
            }
        }
    }

    if experiment == "faults" {
        // Like `trace`, default to the history-based strategy so recovery
        // interacts with real power-state transitions; --policy overrides.
        let cfg = match policy {
            Some(_) => base.clone(),
            None => base.with_policy(PolicyKind::history_based_default()),
        };
        match run_faults(&cfg, &apps, &scenario, fault_seed, out_path.as_deref()) {
            Ok(ok) => std::process::exit(if ok { 0 } else { 1 }),
            Err(e) => {
                eprintln!("{}", render_diagnostic(&e, verbose));
                std::process::exit(e.exit_code());
            }
        }
    }

    if experiment == "rebuild" {
        let ok = run_rebuild_cmd(&scenario, fault_seed, out_path.as_deref());
        std::process::exit(if ok { 0 } else { 1 });
    }

    if experiment == "online" {
        match run_online(
            &base,
            &online_scenes,
            &online_modes,
            fault_seed,
            out_path.as_deref(),
        ) {
            Ok(ok) => std::process::exit(if ok { 0 } else { 1 }),
            Err(e) => {
                eprintln!("{}", render_diagnostic(&e, verbose));
                std::process::exit(e.exit_code());
            }
        }
    }

    if experiment == "fuzz" {
        // Like `trace`, default to the history-based strategy so shuffled
        // arbitration interacts with real power-state transitions;
        // --policy overrides.
        let cfg = match policy {
            Some(_) => base.clone(),
            None => base.with_policy(PolicyKind::history_based_default()),
        };
        match run_fuzz(&cfg, &apps, fuzz_seeds) {
            Ok(ok) => std::process::exit(if ok { 0 } else { 1 }),
            Err(e) => {
                eprintln!("{}", render_diagnostic(&e, verbose));
                std::process::exit(e.exit_code());
            }
        }
    }

    let run_one = |name: &str| -> Result<(), ExperimentError> {
        let started = Instant::now();
        let cache_before = CompileCache::global().stats();
        let cells_before = exp::cell_stats();
        match name {
            "table2" => {
                println!("Table II (simulation parameters)");
                println!("{:#?}", base);
            }
            "table3" => {
                let rows = exp::table3(&base, &apps)?;
                print!("{}", render_table3(&rows));
                if let Some(dir) = &csv_dir {
                    let lines: Vec<String> = rows
                        .iter()
                        .map(|r| {
                            format!(
                                "{},{:.3},{:.1},{},{}",
                                r.app.name(),
                                r.exec_minutes,
                                r.energy_joules,
                                r.paper_exec_minutes,
                                r.paper_energy_joules
                            )
                        })
                        .collect();
                    write_csv(
                        dir,
                        "table3",
                        "app,exec_min,energy_j,paper_exec_min,paper_energy_j",
                        &lines,
                    );
                }
            }
            "fig12a" | "fig12b" => {
                let scheme = name == "fig12b";
                let label = if scheme { "(b): with" } else { "(a): without" };
                println!("Fig. 12{label} the scheme — idle-period CDF");
                let rows = exp::fig12_cdf(&base, &apps, scheme)?;
                print!("{}", render_cdf_rows(&rows));
                if let Some(dir) = &csv_dir {
                    let mut lines = Vec::new();
                    for row in &rows {
                        for p in &row.points {
                            lines.push(format!(
                                "{},{},{:.6}",
                                row.app.name(),
                                p.upto.as_micros(),
                                p.fraction
                            ));
                        }
                    }
                    write_csv(dir, name, "app,upto_us,fraction", &lines);
                }
            }
            "fig12c" | "fig12d" => {
                let scheme = name == "fig12d";
                let label = if scheme { "(d): with" } else { "(c): without" };
                println!("Fig. 12{label} the scheme — normalized energy");
                let (rows, avg) = exp::fig12_energy(&base, &apps, scheme)?;
                print!("{}", render_energy(&rows, &avg));
                if let Some(dir) = &csv_dir {
                    let lines: Vec<String> = rows
                        .iter()
                        .map(|r| {
                            format!(
                                "{},{:.3},{:.3},{:.3},{:.3}",
                                r.app.name(),
                                r.normalized[0],
                                r.normalized[1],
                                r.normalized[2],
                                r.normalized[3]
                            )
                        })
                        .collect();
                    write_csv(dir, name, "app,simple,prediction,history,staggered", &lines);
                }
            }
            "fig13a" | "fig13b" => {
                let scheme = name == "fig13b";
                let label = if scheme { "(b): with" } else { "(a): without" };
                println!("Fig. 13{label} the scheme — performance degradation");
                let (rows, avg) = exp::fig13_perf(&base, &apps, scheme)?;
                print!("{}", render_perf(&rows, &avg));
                if let Some(dir) = &csv_dir {
                    let lines: Vec<String> = rows
                        .iter()
                        .map(|r| {
                            format!(
                                "{},{:.3},{:.3},{:.3},{:.3}",
                                r.app.name(),
                                r.degradation[0],
                                r.degradation[1],
                                r.degradation[2],
                                r.degradation[3]
                            )
                        })
                        .collect();
                    write_csv(dir, name, "app,simple,prediction,history,staggered", &lines);
                }
            }
            "fig13c" => {
                println!("Fig. 13(c): extra energy reduction vs number of I/O nodes");
                let pts = exp::fig13c_io_nodes(&base, &apps, &[2, 4, 8, 16, 32])?;
                print!("{}", render_sweep("io-nodes", &pts));
                if let Some(dir) = &csv_dir {
                    let lines: Vec<String> =
                        pts.iter().map(|(x, y)| format!("{x},{y:.4}")).collect();
                    write_csv(dir, name, "io_nodes,extra_reduction_pct", &lines);
                }
            }
            "fig13d" => {
                println!("Fig. 13(d): extra energy reduction vs delta");
                let pts = exp::fig13d_delta(&base, &apps, &[5, 10, 20, 40, 80])?;
                print!("{}", render_sweep("delta", &pts));
                if let Some(dir) = &csv_dir {
                    let lines: Vec<String> =
                        pts.iter().map(|(x, y)| format!("{x},{y:.4}")).collect();
                    write_csv(dir, name, "delta,extra_reduction_pct", &lines);
                }
            }
            "fig14" => {
                println!("Fig. 14: theta sensitivity (energy reduction, perf improvement)");
                let pts = exp::fig14_theta(&base, &apps, &[2, 4, 6, 8])?;
                print!("{}", render_theta(&pts));
                if let Some(dir) = &csv_dir {
                    let lines: Vec<String> = pts
                        .iter()
                        .map(|p| {
                            format!(
                                "{},{:.4},{:.4}",
                                p.theta, p.energy_reduction, p.perf_improvement
                            )
                        })
                        .collect();
                    write_csv(
                        dir,
                        name,
                        "theta,energy_reduction_pct,perf_improvement_pct",
                        &lines,
                    );
                }
            }
            "cache" => {
                println!("Cache-capacity sensitivity (S V-D)");
                let pts = exp::cache_sensitivity(&base, &apps, &[32, 64, 256])?;
                print!("{}", render_sweep("cache-MB", &pts));
            }
            "compiler-cost" => {
                println!("Compilation cost (S V-A; paper: <= 1.4 s)");
                for (app, secs) in exp::compile_cost(&base, &apps)? {
                    println!("{:<11} {:.3} s", app.name(), secs);
                }
            }
            "granularity" => {
                println!("Slot-granularity sweep on hf (S IV-A's d):");
                println!("d     scheme benefit   compile");
                for pt in exp::granularity_sweep(&base, App::Hf, &[1, 2, 4, 8])? {
                    println!(
                        "{:>2}    {}         {:6.2} s",
                        pt.d,
                        pct(pt.benefit),
                        pt.compile_seconds
                    );
                }
            }
            "oscillation" => {
                println!("Spin-down timeout sweep on hf (DESIGN.md S7):");
                println!("timeout    energy (% of default)   perf degradation");
                for pt in exp::timeout_sweep(&base, App::Hf, &[0.2, 1.0, 3.0, 10.0, 20.0, 40.0])? {
                    println!(
                        "{:>6.0} s   {:>10}             {:>10}",
                        pt.timeout_secs,
                        pct(pt.normalized_energy),
                        pct(pt.perf_degradation)
                    );
                }
            }
            "ablation" => {
                println!("Scheduler ablation on sar (history-based + scheme):");
                println!("variant                  energy     compile    moved");
                for row in exp::scheduler_ablation(&base, App::Sar)? {
                    println!(
                        "{:<24} {}   {:6.2} s   {:>6}",
                        row.variant,
                        pct(row.normalized_energy),
                        row.compile_seconds,
                        row.moved_earlier
                    );
                }
            }
            "multiapp" => {
                println!("Multi-application scenario (S VII future work), history-based");
                let pairs = [(App::Madbench2, App::Sar), (App::Hf, App::Apsi)];
                for row in exp::multi_app(&base, &pairs)? {
                    println!(
                        "{:<10} + {:<10}  policy {}  policy+scheme {}",
                        row.pair.0.name(),
                        row.pair.1.name(),
                        pct(row.policy_only),
                        pct(row.policy_with_scheme)
                    );
                }
            }
            "headline" => {
                println!("Headline averages (abstract)");
                let h = exp::headline(&base, &apps)?;
                println!("strategy          without      with");
                let names = ["simple", "prediction", "history", "staggered"];
                for (i, name) in names.iter().enumerate() {
                    println!(
                        "{:<16} {} {}",
                        name,
                        pct(h.without_scheme[i]),
                        pct(h.with_scheme[i])
                    );
                }
                if let Some(dir) = &csv_dir {
                    let lines: Vec<String> = names
                        .iter()
                        .enumerate()
                        .map(|(i, n)| {
                            format!("{n},{:.4},{:.4}", h.without_scheme[i], h.with_scheme[i])
                        })
                        .collect();
                    write_csv(dir, "headline", "strategy,without_pct,with_pct", &lines);
                }
            }
            other => fail(&format!("unknown experiment `{other}`")),
        }
        let cells = exp::cell_stats().since(&cells_before);
        let cache = CompileCache::global().stats().since(&cache_before);
        eprintln!(
            "[{name} took {:.1} s: {} cells / {:.1} s busy \
             ({:.1} s compile + {:.1} s sim) on {} workers; \
             compile cache {} hits / {} misses]\n",
            started.elapsed().as_secs_f64(),
            cells.cells,
            cells.busy_seconds,
            cells.compile_seconds,
            cells.sim_seconds,
            simkit::pool::jobs(),
            cache.trace_hits + cache.schedule_hits,
            cache.trace_misses + cache.schedule_misses,
        );
        Ok(())
    };

    if experiment == "all" {
        let started = Instant::now();
        // Continue on error: a failing experiment reports and the rest of
        // the suite still runs; the summary below aggregates every failed
        // cell and the process exits with the most severe class.
        let mut failed: Vec<(&str, ExperimentError)> = Vec::new();
        for name in [
            "table3",
            "fig12a",
            "fig12b",
            "fig12c",
            "fig12d",
            "fig13a",
            "fig13b",
            "fig13c",
            "fig13d",
            "fig14",
            "cache",
            "compiler-cost",
            "multiapp",
            "oscillation",
            "ablation",
            "granularity",
            "headline",
        ] {
            if let Err(e) = run_one(name) {
                eprintln!("{}", render_diagnostic(&e, verbose));
                failed.push((name, e));
            }
        }
        let cells = exp::cell_stats();
        let cache = CompileCache::global().stats();
        let (traces, schedules) = CompileCache::global().len();
        eprintln!(
            "[all took {:.1} s wall / {:.1} s busy \
             ({:.1} s compile + {:.1} s sim) over {} cells; \
             compile cache: {} distinct traces, {} distinct schedules, \
             {} hits / {} misses]",
            started.elapsed().as_secs_f64(),
            cells.busy_seconds,
            cells.compile_seconds,
            cells.sim_seconds,
            cells.cells,
            traces,
            schedules,
            cache.trace_hits + cache.schedule_hits,
            cache.trace_misses + cache.schedule_misses,
        );
        if !failed.is_empty() {
            let code = failed.iter().map(|(_, e)| e.exit_code()).max().unwrap_or(1);
            eprintln!("\nrepro: {} of 17 experiments failed:", failed.len());
            for (name, e) in &failed {
                eprintln!("  {name}: {e}");
            }
            std::process::exit(code);
        }
    } else if let Err(e) = run_one(&experiment) {
        eprintln!("{}", render_diagnostic(&e, verbose));
        std::process::exit(e.exit_code());
    }
}
