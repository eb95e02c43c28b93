//! The paper workloads: app × policy × scheme matrices run on the
//! discrete-event engine.
//!
//! One iteration is what a `repro` process does for the matrix: every
//! cell runs against one fresh compile cache, so the first cells of each
//! app pay for program generation, tracing, slack analysis and
//! scheduling, and the rest look them up. Untraced, each cell is one call
//! to the library's entry point `sdds::run_with`. Traced, the same work is
//! made as the public calls `run_with` makes, one by one, so a span can
//! go around each; every traced iteration is compared with an untraced
//! one, which ties the split-up calls to the entry point.

use std::time::Instant;

use sdds::cache::{CompileCache, CompiledSchedule, ScheduleKey, TraceKey};
use sdds::experiments::cell_stats;
use sdds::SystemConfig;
use sdds_compiler::analyze_slacks;
use sdds_power::PolicyKind;
use sdds_runtime::{CompiledPlan, Engine, RunResult};
use sdds_storage::{RaidLevel, StripingLayout};
use sdds_workloads::{App, WorkloadScale};
use simkit::fault::FaultSpec;
use simkit::telemetry::TraceEvent;

use crate::spans::Tracer;
use crate::{fnv1a, CellTimes, Counts, Iteration};

/// A paper-style matrix: every app under every policy, scheme off and on.
#[derive(Debug, Clone)]
pub struct PaperWorkload {
    /// Platform configuration shared by every cell.
    pub base: SystemConfig,
    /// Applications, in run order.
    pub apps: Vec<App>,
    /// Power policies, in run order.
    pub policies: Vec<PolicyKind>,
}

impl PaperWorkload {
    /// The paper's 48-cell matrix (Figs. 12–13): six apps × the four
    /// paper strategies × scheme off/on at `scale`.
    pub fn paper_matrix(scale: WorkloadScale) -> Self {
        PaperWorkload {
            base: SystemConfig {
                scale,
                ..SystemConfig::paper_defaults()
            },
            apps: App::all().to_vec(),
            policies: PolicyKind::paper_strategies(),
        }
    }

    /// Six apps × {no power management, history-based} × scheme off/on on
    /// RAID-5 with four disks per node, under the heavy fault scenario
    /// generated from `seed`.
    pub fn faulted_raid5(seed: u64, scale: WorkloadScale) -> Self {
        let base = SystemConfig {
            scale,
            raid_level: RaidLevel::Raid5,
            disks_per_node: 4,
            ..SystemConfig::paper_defaults()
        };
        PaperWorkload {
            base: base.with_fault(Some(FaultSpec::heavy(seed))),
            apps: App::all().to_vec(),
            policies: vec![PolicyKind::NoPm, PolicyKind::history_based_default()],
        }
    }

    /// The same matrix with the fault plan removed: the twin whose bytes
    /// moved every faulted cell must reproduce.
    pub fn without_faults(&self) -> Self {
        PaperWorkload {
            base: self.base.with_fault(None),
            ..self.clone()
        }
    }

    /// Cells in run order: app-major, then policy, then scheme off/on.
    pub fn cells(&self) -> Vec<(App, &PolicyKind, bool)> {
        let mut out = Vec::new();
        for &app in &self.apps {
            for policy in &self.policies {
                for scheme in [false, true] {
                    out.push((app, policy, scheme));
                }
            }
        }
        out
    }

    /// Slots the engine's calendar registers: one per process plus the
    /// submission, storage and timeout sources.
    pub fn calendar_slots(&self) -> usize {
        self.base.scale.procs + 3
    }
}

/// One cell rendered as the `key=value` fields of the golden parity
/// fixture, followed by the fault counters. Every simulated output of the
/// cell is in the line, so folding the lines pins the whole matrix.
pub fn cell_line(app: App, policy: &PolicyKind, scheme: bool, r: &RunResult) -> String {
    let b = &r.buffer;
    let p = &r.prefetch;
    let f = &r.faults;
    format!(
        "app={} policy={} scheme={} exec_us={} energy_bits={:016x} bytes_r={} bytes_w={} \
         mrr_bits={:016x} events={} finish_hash={:016x} issued={} deferred_producer={} \
         deferred_full={} became_sync={} timed_out={} admitted={} rejected_full={} hits={} \
         hits_in_flight={} misses={} idle_periods={} injected_transient={} \
         injected_bad_sector={} retried={} remapped={} reconstructed={} redirected={} \
         deferred={}",
        app.name(),
        policy.name(),
        u8::from(scheme),
        r.exec_time.as_micros(),
        r.energy_joules.to_bits(),
        r.bytes_moved.0,
        r.bytes_moved.1,
        r.mean_read_response.to_bits(),
        r.events,
        fnv1a(
            r.per_proc_finish
                .iter()
                .flat_map(|f| f.as_micros().to_le_bytes())
        ),
        p.issued,
        p.deferred_producer,
        p.deferred_full,
        p.became_sync,
        p.timed_out,
        b.admitted,
        b.rejected_full,
        b.hits,
        b.hits_in_flight,
        b.misses,
        r.idle_histogram.total(),
        f.injected_transient,
        f.injected_bad_sector,
        f.retried,
        f.remapped,
        f.reconstructed,
        f.redirected,
        f.deferred,
    )
}

/// Output checks on one finished cell. Returns one message per failed
/// check; an empty list means the cell is correct.
///
/// * The per-state energy account sums to the headline joules within
///   1e-9 J.
/// * With a fault-free `twin` (bytes read, bytes written), recovery moved
///   exactly the twin's bytes.
pub fn check_cell(r: &RunResult, twin: Option<(u64, u64)>) -> Vec<String> {
    let mut failures = Vec::new();
    let by_state: f64 = r.energy.iter().map(|(_, e)| e.joules).sum();
    if !r.energy_joules.is_finite() || (by_state - r.energy_joules).abs() > 1e-9 {
        failures.push(format!(
            "per-state energy {by_state} J does not sum to the headline {} J",
            r.energy_joules
        ));
    }
    if let Some(expected) = twin {
        if r.bytes_moved != expected {
            failures.push(format!(
                "bytes moved {:?} differ from the fault-free twin's {expected:?}",
                r.bytes_moved
            ));
        }
    }
    failures
}

/// Runs the matrix once against a fresh compile cache. `twin` holds the
/// fault-free bytes moved per cell (in [`PaperWorkload::cells`] order)
/// when the workload injects faults.
///
/// Untraced, every cell is one `sdds::run_with` call, and the library's
/// own phase counters (`sdds::experiments::cell_stats`) split the host
/// time into set-up (the compile side of each call) and simulation
/// (`Engine::run`). Traced, the cells are made as the public calls of
/// `run_with`, with a span around each; every engine also records
/// telemetry, and the per-layer counts are filled in.
pub fn run_iteration(
    w: &PaperWorkload,
    tracer: &mut Tracer,
    twin: Option<&[(u64, u64)]>,
) -> Iteration {
    if tracer.enabled() {
        run_split(w, tracer, twin)
    } else {
        run_library(w, twin)
    }
}

fn run_library(w: &PaperWorkload, twin: Option<&[(u64, u64)]>) -> Iteration {
    let started = Instant::now();
    let mut it = Iteration::default();
    let cache = CompileCache::new();
    let mut untraced = Tracer::new(false);
    for (i, (app, policy, scheme)) in w.cells().into_iter().enumerate() {
        let cfg = w.base.with_policy(policy.clone()).with_scheme(scheme);
        let cell_started = Instant::now();
        let phases_before = cell_stats();
        let outcome = sdds::run_with(app, &cfg, &cache)
            .map(|o| o.result)
            .map_err(|e| e.to_string());
        let phases = cell_stats().since(&phases_before);
        it.cell_times.push(CellTimes {
            wall_s: cell_started.elapsed().as_secs_f64(),
            setup_s: phases.compile_seconds,
            sim_s: phases.sim_seconds,
        });
        it.setup_s += phases.compile_seconds;
        it.sim_s += phases.sim_seconds;
        add_cell(
            &mut it,
            i,
            (app, policy, scheme),
            outcome,
            w,
            twin,
            &mut untraced,
        );
    }
    it.wall_s = started.elapsed().as_secs_f64();
    it
}

fn run_split(w: &PaperWorkload, tracer: &mut Tracer, twin: Option<&[(u64, u64)]>) -> Iteration {
    let started = Instant::now();
    let mut it = Iteration::default();
    let cache = CompileCache::new();
    let base = &w.base;
    let layout = StripingLayout::new(base.stripe_bytes, base.io_nodes);

    let setup_started = Instant::now();
    tracer.span("setup", |t| {
        for &app in &w.apps {
            match compile_app(base, app, &cache, layout.as_ref().ok(), t) {
                Ok((n, moved)) => {
                    it.counts.add("compiler.accesses", n as f64);
                    it.counts.add("compiler.moved_earlier", moved as f64);
                }
                Err(e) => it
                    .failures
                    .push(format!("{}: compile failed: {e}", app.name())),
            }
        }
    });
    it.setup_s = setup_started.elapsed().as_secs_f64();

    tracer.span("cells", |t| {
        for (i, (app, policy, scheme)) in w.cells().into_iter().enumerate() {
            let outcome = t
                .span("cell", |t| run_cell(w, app, policy, scheme, &cache, t))
                .map(|(r, sim_s)| {
                    it.sim_s += sim_s;
                    r
                });
            add_cell(&mut it, i, (app, policy, scheme), outcome, w, twin, t);
        }
    });

    let stats = cache.stats();
    let hits = stats.trace_hits + stats.schedule_hits;
    it.counts.add("core.cache_hits", hits as f64);
    it.counts.add(
        "core.cache_lookups",
        (hits + stats.trace_misses + stats.schedule_misses) as f64,
    );
    it.wall_s = started.elapsed().as_secs_f64();
    it
}

/// Adds cell `index`'s outcome to `it`: its simulated outputs, its layer
/// counts and its output checks.
fn add_cell(
    it: &mut Iteration,
    index: usize,
    (app, policy, scheme): (App, &PolicyKind, bool),
    outcome: Result<RunResult, String>,
    w: &PaperWorkload,
    twin: Option<&[(u64, u64)]>,
    t: &mut Tracer,
) {
    it.attempted += 1;
    match outcome {
        Ok(mut r) => {
            it.events += r.events;
            it.sim_energy_j += r.energy_joules;
            it.sim_time_s += r.exec_time.as_secs_f64();
            count_result(&mut it.counts, &mut r, w.base.io_nodes);
            let failures = t.span("bench.check", |_| {
                check_cell(&r, twin.and_then(|b| b.get(index).copied()))
            });
            it.lines.push(cell_line(app, policy, scheme, &r));
            it.bytes_moved.push(r.bytes_moved);
            it.record(index, failures);
        }
        Err(e) => {
            it.lines.push(format!(
                "app={} policy={} scheme={} error",
                app.name(),
                policy.name(),
                u8::from(scheme)
            ));
            it.bytes_moved.push((0, 0));
            it.record(index, vec![e]);
        }
    }
}

/// Fills `cache` with `app`'s trace and schedule. Returns (analyzed
/// accesses, accesses moved earlier).
fn compile_app(
    base: &SystemConfig,
    app: App,
    cache: &CompileCache,
    layout: Option<&StripingLayout>,
    t: &mut Tracer,
) -> Result<(usize, usize), String> {
    let key = trace_key(base, app);
    let trace = cache.trace_or_insert(&key, || {
        let program = t.span("workloads.program", |_| app.program(&base.scale));
        t.span("compiler.trace", |_| program.trace(base.granularity))
            .map_err(|e| e.to_string())
    })?;
    let layout = layout.ok_or("invalid striping layout")?;
    let compiled = cache.schedule_or_insert(&schedule_key(base, app), || {
        let started = Instant::now();
        let accesses = t
            .span("compiler.slack", |_| analyze_slacks(&trace, layout))
            .map_err(|e| e.to_string())?;
        let table = t
            .span("compiler.schedule", |_| {
                base.scheduler.schedule(&accesses, &trace)
            })
            .map_err(|e| e.to_string())?;
        Ok::<_, String>(CompiledSchedule {
            moved_earlier: table.moved_earlier(),
            mean_advance: table.mean_advance(),
            compile_seconds: started.elapsed().as_secs_f64(),
            accesses,
            table,
        })
    })?;
    Ok((compiled.accesses.len(), compiled.moved_earlier))
}

fn trace_key(base: &SystemConfig, app: App) -> TraceKey {
    TraceKey {
        app,
        scale: base.scale,
        granularity: base.granularity,
    }
}

fn schedule_key(base: &SystemConfig, app: App) -> ScheduleKey {
    ScheduleKey {
        trace: trace_key(base, app),
        io_nodes: base.io_nodes,
        stripe_bytes: base.stripe_bytes,
        scheduler: base.scheduler.clone(),
    }
}

/// One cell, split into the public calls `sdds::run_with` makes. Returns
/// the result and the seconds `Engine::run` took.
fn run_cell(
    w: &PaperWorkload,
    app: App,
    policy: &PolicyKind,
    scheme: bool,
    cache: &CompileCache,
    t: &mut Tracer,
) -> Result<(RunResult, f64), String> {
    let cfg = w.base.with_policy(policy.clone()).with_scheme(scheme);
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("{what}: {e}");
    cfg.validate().map_err(|e| fail("config", &e))?;
    let trace = cache
        .trace_or_insert(&trace_key(&cfg, app), || Err("trace missing after set-up"))
        .map_err(|e| fail("trace lookup", &e))?;
    let storage = t
        .span("runtime.storage_config", |_| cfg.storage_config())
        .map_err(|e| fail("storage config", &e))?;
    let mut engine = t
        .span("runtime.engine_new", |_| {
            Engine::new(cfg.engine.clone(), storage)
        })
        .map_err(|e| fail("engine", &e))?;
    t.span("runtime.enable_telemetry", |_| engine.enable_telemetry());
    let compiled = if scheme {
        Some(
            cache
                .schedule_or_insert(&schedule_key(&cfg, app), || {
                    Err("schedule missing after set-up")
                })
                .map_err(|e| fail("schedule lookup", &e))?,
        )
    } else {
        None
    };
    let plan = compiled
        .as_ref()
        .map(|c| CompiledPlan::new(&c.accesses, &c.table));
    let started = Instant::now();
    let result = t
        .span("runtime.engine_run", |_| engine.run(&trace, plan))
        .map_err(|e| fail("engine run", &e))?;
    Ok((result, started.elapsed().as_secs_f64()))
}

/// Adds one cell's layer counts: engine and fault counters always, and
/// storage, disk and power counts from the telemetry report when the run
/// recorded one (the report is dropped afterwards).
fn count_result(c: &mut Counts, r: &mut RunResult, io_nodes: usize) {
    c.add("runtime.events", r.events as f64);
    c.add("runtime.prefetch_issued", r.prefetch.issued as f64);
    c.add("runtime.prefetch_timed_out", r.prefetch.timed_out as f64);
    c.add(
        "runtime.prefetch_became_sync",
        r.prefetch.became_sync as f64,
    );
    c.add("runtime.buffer_hits", r.buffer.hits as f64);
    c.add(
        "runtime.buffer_reads",
        (r.buffer.hits + r.buffer.hits_in_flight + r.buffer.misses) as f64,
    );
    let f = &r.faults;
    c.add("storage.retried", f.retried as f64);
    c.add("storage.redirected", f.redirected as f64);
    c.add("storage.deferred", f.deferred as f64);
    c.add("storage.remapped", f.remapped as f64);
    c.add("storage.reconstructed", f.reconstructed as f64);
    let Some(report) = r.telemetry.take() else {
        return;
    };
    let m = &report.metrics;
    let counter = |name: String| m.get_counter(&name).unwrap_or(0) as f64;
    for n in 0..io_nodes {
        c.add(
            "storage.read_hits",
            counter(format!("storage.n{n}.cache.read_hits")),
        );
        c.add(
            "storage.read_lookups",
            counter(format!("storage.n{n}.cache.read_hits"))
                + counter(format!("storage.n{n}.cache.read_misses")),
        );
        c.add(
            "storage.writes",
            counter(format!("storage.n{n}.cache.writes")),
        );
        c.add(
            "storage.useful_prefetches",
            counter(format!("storage.n{n}.cache.useful_prefetches")),
        );
        c.add(
            "storage.issued_prefetches",
            counter(format!("storage.n{n}.cache.issued_prefetches")),
        );
        c.add(
            "power.idle",
            m.get_gauge(&format!("power.n{n}.total_idle_s"))
                .unwrap_or(0.0),
        );
    }
    for d in &report.disks {
        c.add("disk.requests_served", d.counters.requests_served as f64);
        c.add("disk.spin_ups", d.counters.spin_ups as f64);
        c.add("disk.spin_downs", d.counters.spin_downs as f64);
        c.add("disk.rpm_changes", d.counters.rpm_changes as f64);
    }
    for e in &report.events {
        match e {
            TraceEvent::PolicyDecision { .. } => c.add("power.decisions", 1.0),
            TraceEvent::Request { arrival, end, .. } => {
                c.add("disk.responses", 1.0);
                c.add("disk.response_total", (*end - *arrival).as_secs_f64());
            }
            _ => {}
        }
    }
}
