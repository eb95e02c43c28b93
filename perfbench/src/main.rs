//! Runs one benchmark workload for a time budget and prints its report.
//!
//! ```text
//! sdds-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!                [--revision REV] [--spans-out FILE]
//! ```
//!
//! With `--trace 0` the workload runs untraced as often as the budget
//! allows, and the host-time metrics sum each cell's fastest time over
//! those runs. With
//! `--trace 1` untraced and traced runs alternate; the per-layer metrics
//! come from the traced runs and the calendar probe. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. The exit code is 0 only if every output check passed.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use sdds_perfbench::paper::{self, PaperWorkload};
use sdds_perfbench::scene::{self, SceneWorkload};
use sdds_perfbench::spans::{self, Tracer};
use sdds_perfbench::{error_rate, fnv1a, probe, CellTimes, Counts, Iteration};
use sdds_workloads::WorkloadScale;

const SCHEMA: &str = "sdds-perfbench-v1";

/// Seconds the calendar probe runs for in a traced run.
const PROBE_SECONDS: f64 = 0.3;

/// Untraced/traced pairs a traced run makes at least, so that the
/// tracing overhead is a median of several paired differences.
const OVERHEAD_PAIRS: usize = 3;

enum Workload {
    Paper(Box<PaperWorkload>),
    Scene(SceneWorkload),
}

impl Workload {
    /// The named workload and how its inputs depend on the seed.
    fn named(name: &str, seed: u64) -> Option<(Workload, &'static str)> {
        const SEED_FREE: &str = "seed-free: the inputs do not depend on --seed";
        Some(match name {
            "paper-matrix" => (
                Workload::Paper(Box::new(PaperWorkload::paper_matrix(WorkloadScale {
                    factor: 0.25,
                    ..WorkloadScale::paper()
                }))),
                SEED_FREE,
            ),
            "faulted-raid5" => (
                Workload::Paper(Box::new(PaperWorkload::faulted_raid5(
                    seed,
                    WorkloadScale {
                        procs: 16,
                        factor: 0.5,
                        gap_factor: 1.0,
                    },
                ))),
                "the seed generates the heavy fault plan",
            ),
            "dc-scene-1shard" => (Workload::Scene(SceneWorkload::one_shard(25.0)), SEED_FREE),
            "dc-scene-sharded" => (Workload::Scene(SceneWorkload::sharded(100.0, 2)), SEED_FREE),
            _ => return None,
        })
    }

    fn config_hash(&self) -> u64 {
        let text = match self {
            Workload::Paper(w) => format!("{w:?}"),
            Workload::Scene(w) => format!("{w:?}"),
        };
        fnv1a(text.into_bytes())
    }

    fn calendar_slots(&self) -> usize {
        match self {
            Workload::Paper(w) => w.calendar_slots(),
            Workload::Scene(w) => w.calendar_slots(),
        }
    }
}

/// Bytes moved per cell by the fault-free twin of a faulted workload,
/// which every faulted run must reproduce.
fn fault_free_twin(w: &Workload) -> Option<Vec<(u64, u64)>> {
    match w {
        Workload::Paper(p) if p.base.fault.is_some() => {
            let clean = paper::run_iteration(&p.without_faults(), &mut Tracer::new(false), None);
            Some(clean.bytes_moved)
        }
        _ => None,
    }
}

fn run_once(w: &Workload, twin: Option<&[(u64, u64)]>, tracer: &mut Tracer) -> Iteration {
    match w {
        Workload::Paper(p) => paper::run_iteration(p, tracer, twin),
        Workload::Scene(s) => scene::run_iteration(s, tracer),
    }
}

/// Runs a scene once more through the library's one-call entry point
/// `sdds::run_scale` and fails `reference` if it differs. The scene
/// iterations are split into public calls so that set-up is timed apart
/// from the run; this proves they measure the program the library runs.
/// (Untraced paper iterations call `sdds::run_with` itself, and every
/// traced one is compared with them.)
fn scene_parity(w: &Workload, reference: &mut Iteration) {
    if let Workload::Scene(s) = w {
        let digest = match sdds::run_scale(&s.cfg, s.jobs) {
            Ok(r) => r.digest(),
            Err(e) => format!("error: {e}"),
        };
        reference.compare(&[digest], "sdds::run_scale");
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    revision: String,
    spans_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        revision: "unknown".to_owned(),
        spans_out: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        let bad = |what: &str| format!("{}: bad {what} `{value}`", argv[i]);
        match argv[i].as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("duration"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err(bad("duration"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                }
            }
            "--revision" => args.revision = value.clone(),
            "--spans-out" => args.spans_out = Some(value.clone()),
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 2;
    }
    if args.seconds == 0.0 {
        return Err("--seconds is required".to_owned());
    }
    Ok(args)
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// Host seconds of one part of the workload at the run's quietest
/// moments: the sum, over cells, of each cell's fastest time across the
/// timed repetitions. On a shared host other load only ever adds time,
/// in spells of seconds to minutes, so a cell's fastest repetition is its
/// steadiest estimate; the median of whole repetitions moves with the
/// spells.
fn fastest(timed: &[Iteration], part: fn(&CellTimes) -> f64) -> f64 {
    (0..timed[0].cell_times.len())
        .map(|k| {
            timed
                .iter()
                .map(|i| part(&i.cell_times[k]))
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

fn end_to_end(timed: &[Iteration]) -> Vec<Metric> {
    let first = &timed[0];
    let sim_s = fastest(timed, |c| c.sim_s);
    vec![
        ("wall_s", fastest(timed, |c| c.wall_s), "s"),
        ("setup_s", fastest(timed, |c| c.setup_s), "s"),
        ("sim_s", sim_s, "s"),
        ("events_per_s", first.events as f64 / sim_s.max(1e-9), "1/s"),
        ("peak_rss_mb", peak_rss_mb(), "MiB"),
        ("sim_energy_j", first.sim_energy_j, "J"),
        ("sim_time", first.sim_time_s, "sim_s"),
    ]
}

fn per_layer(
    timed: &[Iteration],
    traced: &[Iteration],
    self_s: &BTreeMap<&'static str, f64>,
    calendar_ns_per_op: f64,
) -> Vec<Metric> {
    let t = |name: &str| self_s.get(name).copied().unwrap_or(0.0);
    let empty = Counts::default();
    let c = traced.first().map_or(&empty, |i| &i.counts);
    let per = |secs: f64, n: f64| if n > 0.0 { secs * 1e9 / n } else { 0.0 };
    vec![
        (
            "workloads.program_s",
            t("workloads.program") + t("workloads.scene_spec"),
            "s",
        ),
        ("compiler.trace_s", t("compiler.trace"), "s"),
        ("compiler.slack_s", t("compiler.slack"), "s"),
        ("compiler.schedule_s", t("compiler.schedule"), "s"),
        ("compiler.accesses", c.get("compiler.accesses"), "count"),
        (
            "compiler.moved_earlier_ratio",
            c.ratio("compiler.moved_earlier", "compiler.accesses"),
            "fraction",
        ),
        ("core.cache_hits", c.get("core.cache_hits"), "count"),
        (
            "core.cache_misses",
            c.get("core.cache_lookups") - c.get("core.cache_hits"),
            "count",
        ),
        (
            "core.cache_hit_ratio",
            c.ratio("core.cache_hits", "core.cache_lookups"),
            "fraction",
        ),
        ("runtime.engine_run_s", t("runtime.engine_run"), "s"),
        ("runtime.events", c.get("runtime.events"), "count"),
        (
            "runtime.ns_per_event",
            per(t("runtime.engine_run"), c.get("runtime.events")),
            "ns",
        ),
        (
            "runtime.prefetch_issued",
            c.get("runtime.prefetch_issued"),
            "count",
        ),
        (
            "runtime.prefetch_timed_out",
            c.get("runtime.prefetch_timed_out"),
            "count",
        ),
        (
            "runtime.prefetch_became_sync",
            c.get("runtime.prefetch_became_sync"),
            "count",
        ),
        (
            "runtime.buffer_hit_ratio",
            c.ratio("runtime.buffer_hits", "runtime.buffer_reads"),
            "fraction",
        ),
        (
            "storage.read_hit_ratio",
            c.ratio("storage.read_hits", "storage.read_lookups"),
            "fraction",
        ),
        (
            "storage.useful_prefetch_ratio",
            c.ratio("storage.useful_prefetches", "storage.issued_prefetches"),
            "fraction",
        ),
        ("storage.writes", c.get("storage.writes"), "count"),
        ("storage.retried", c.get("storage.retried"), "count"),
        ("storage.redirected", c.get("storage.redirected"), "count"),
        ("storage.deferred", c.get("storage.deferred"), "count"),
        ("storage.remapped", c.get("storage.remapped"), "count"),
        (
            "storage.reconstructed",
            c.get("storage.reconstructed"),
            "count",
        ),
        (
            "disk.requests_served",
            c.get("disk.requests_served"),
            "count",
        ),
        ("disk.spin_ups", c.get("disk.spin_ups"), "count"),
        ("disk.spin_downs", c.get("disk.spin_downs"), "count"),
        ("disk.rpm_changes", c.get("disk.rpm_changes"), "count"),
        (
            "disk.response_mean",
            c.ratio("disk.response_total", "disk.responses"),
            "sim_s",
        ),
        ("power.decisions", c.get("power.decisions"), "count"),
        ("power.idle", c.get("power.idle"), "sim_s"),
        ("runtime.scene_build_s", t("runtime.build_scene"), "s"),
        (
            "runtime.scene_disk_requests",
            c.get("runtime.scene_disk_requests"),
            "count",
        ),
        (
            "runtime.scene_spin_ups",
            c.get("runtime.scene_spin_ups"),
            "count",
        ),
        (
            "runtime.scene_link_busy",
            c.get("runtime.scene_link_busy"),
            "sim_s",
        ),
        ("simkit.kernel_run_s", t("simkit.kernel_run"), "s"),
        (
            "simkit.kernel_events",
            c.get("simkit.kernel_events"),
            "count",
        ),
        (
            "simkit.kernel_ns_per_event",
            per(t("simkit.kernel_run"), c.get("simkit.kernel_events")),
            "ns",
        ),
        ("simkit.calendar_ns_per_op", calendar_ns_per_op, "ns"),
        ("simkit.shard_epochs", c.get("simkit.shard_epochs"), "count"),
        (
            "simkit.shard_messages",
            c.get("simkit.shard_messages"),
            "count",
        ),
        (
            "simkit.shard_stall_ratio",
            c.ratio("simkit.shard_stall_events", "simkit.shard_capacity"),
            "fraction",
        ),
        (
            "simkit.shard_imbalance",
            c.ratio("simkit.shard_capacity", "simkit.shard_events"),
            "ratio",
        ),
        (
            "simkit.telemetry_overhead_s",
            telemetry_overhead(timed, traced),
            "s",
        ),
    ]
}

/// Tracing cost: the median over adjacent (untraced, traced) pairs of the
/// traced run's wall time minus the untraced one's. Pairing keeps a slow
/// spell of the host out of the difference when it covers both runs of a
/// pair.
fn telemetry_overhead(timed: &[Iteration], traced: &[Iteration]) -> f64 {
    median(
        timed
            .iter()
            .zip(traced)
            .map(|(u, t)| t.wall_s - u.wall_s)
            .collect(),
    )
}

/// Median self time per span name over the traced runs, in seconds.
fn median_self_seconds(per_run: &[BTreeMap<&'static str, f64>]) -> BTreeMap<&'static str, f64> {
    let mut names: Vec<&'static str> = per_run.iter().flat_map(|m| m.keys().copied()).collect();
    names.sort_unstable();
    names.dedup();
    names
        .into_iter()
        .map(|n| {
            let v = per_run
                .iter()
                .map(|m| m.get(n).copied().unwrap_or(0.0))
                .collect();
            (n, median(v))
        })
        .collect()
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sdds-perfbench: {e}");
            eprintln!(
                "usage: sdds-perfbench --workload NAME --seed N --seconds S --trace 0|1 \
                 [--revision REV] [--spans-out FILE]"
            );
            return ExitCode::from(2);
        }
    };
    let Some((workload, seed_policy)) = Workload::named(&args.workload, args.seed) else {
        eprintln!(
            "sdds-perfbench: unknown workload `{}` (known: paper-matrix, faulted-raid5, \
             dc-scene-1shard, dc-scene-sharded)",
            args.workload
        );
        return ExitCode::from(2);
    };

    let started = Instant::now();
    let twin = fault_free_twin(&workload);
    let budget = args.seconds;
    let mut timed: Vec<Iteration> = Vec::new();
    let mut traced: Vec<Iteration> = Vec::new();
    let mut traced_self: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut spans_jsonl = String::new();
    // Alternate untraced and traced runs in a traced run so that both see
    // the same host conditions; stop when the next run would, by the mean
    // so far, end more than half a run past the budget.
    loop {
        let trace_next = args.trace && traced.len() < timed.len();
        let mut tracer = Tracer::new(trace_next);
        let mut it = tracer.span("workload", |t| run_once(&workload, twin.as_deref(), t));
        if let Some(first) = timed.first() {
            let reference = first.lines.clone();
            it.compare(
                &reference,
                if trace_next {
                    "the untraced run"
                } else {
                    "the first run"
                },
            );
        }
        eprintln!(
            "[{} run {}: wall {:.4} s, setup {:.4} s, sim {:.4} s]",
            if trace_next { "traced" } else { "timed" },
            if trace_next {
                traced.len()
            } else {
                timed.len()
            },
            it.wall_s,
            it.setup_s,
            it.sim_s
        );
        if trace_next {
            let spans = tracer.take_spans();
            traced_self.push(spans::self_seconds_by_name(&spans));
            spans_jsonl.push_str(&spans::to_jsonl(
                &spans,
                &format!("traced-{}", traced.len()),
            ));
            traced.push(it);
        } else {
            timed.push(it);
        }
        let runs = (timed.len() + traced.len()) as f64;
        let elapsed = started.elapsed().as_secs_f64();
        let done = !args.trace || traced.len() >= OVERHEAD_PAIRS;
        if done && elapsed + 0.5 * elapsed / runs > budget {
            break;
        }
    }
    scene_parity(&workload, &mut timed[0]);

    let metrics = if args.trace {
        let (ops, secs) = probe::calendar(workload.calendar_slots(), PROBE_SECONDS);
        let ns_per_op = secs * 1e9 / ops.max(1) as f64;
        if let Some(path) = &args.spans_out {
            if let Err(e) = std::fs::write(path, &spans_jsonl) {
                eprintln!("sdds-perfbench: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        per_layer(
            &timed,
            &traced,
            &median_self_seconds(&traced_self),
            ns_per_op,
        )
    } else {
        end_to_end(&timed)
    };

    let all: Vec<&Iteration> = timed.iter().chain(&traced).collect();
    let attempted: u64 = all.iter().map(|i| i.attempted).sum();
    let failed: u64 = all.iter().map(|i| i.failed()).sum();
    let failures: Vec<&String> = all.iter().flat_map(|i| &i.failures).collect();
    let first = &timed[0];

    println!(
        "{{\"schema\":\"{SCHEMA}\",\"workload\":\"{}\",\"seed\":{},\"seed_policy\":\"{seed_policy}\",\
         \"config_hash\":\"{:016x}\",\"revision\":\"{}\",\"digest\":\"{:016x}\",\"cells\":{},\
         \"timed_runs\":{},\"traced_runs\":{},\"error_rate\":{}}}",
        args.workload,
        args.seed,
        workload.config_hash(),
        args.revision,
        first.digest(),
        first.lines.len(),
        timed.len(),
        traced.len(),
        json_number(error_rate(failed, attempted)),
    );
    for f in &failures {
        println!("FAILED {f}");
    }
    for (name, value, unit) in &metrics {
        println!("{name:<32} {value:>20.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    let correct = failed == 0 && failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
