//! Regenerates the paper's tables and figures, and runs the reports
//! beyond them.
//!
//! ```text
//! cargo run --release -p sdds-bench --bin repro -- <experiment> [options]
//! ```
//!
//! `repro --help` lists every subcommand and prints the flag table below:
//! each flag's operand, default and meaning, and the subcommands that
//! read it. A flag the chosen subcommand does not read is a usage error,
//! as are unknown flags and bad operands. Exit codes: 0 success, 1 a
//! failed check or an unwritable output, 2 usage, 3 invalid
//! configuration, 4 compile, 5 storage, 6 engine failure.
//!
//! This binary only parses flags and dispatches; what each subcommand
//! runs and checks is documented on its `sdds_bench` library function.

use std::path::PathBuf;
use std::str::FromStr;

use sdds::{OnlineMode, SddsError, SystemConfig, SystemConfigBuilder};
use sdds_bench::timing::ScaleSweep;
use sdds_bench::{emit, observe, paper, timing, twins, CommandError, Outcome};
use sdds_power::PolicyKind;
use sdds_runtime::ShardPolicy;
use sdds_workloads::{App, WorkloadScale};

// Subcommand groups, as bits: a flag names the groups that read it.
const PAPER: u16 = 1;
const PERF: u16 = 1 << 1;
const TRACE: u16 = 1 << 2;
const ATTRIB: u16 = 1 << 3;
const FAULTS: u16 = 1 << 4;
const FUZZ: u16 = 1 << 5;
const SCALE: u16 = 1 << 6;
const ONLINE: u16 = 1 << 7;
const REBUILD: u16 = 1 << 8;
const GROUPS: [&str; 9] = [
    "paper", "perf", "trace", "attrib", "faults", "fuzz", "scale", "online", "rebuild",
];
/// Subcommands that simulate the paper's applications.
const APPS: u16 = PAPER | PERF | TRACE | ATTRIB | FAULTS | FUZZ;
/// Subcommands that build a storage system from the configuration flags.
const SYSTEM: u16 = APPS | ONLINE;
const ANY: u16 = (1 << GROUPS.len()) - 1;

/// One row of the flag table.
struct Flag {
    name: &'static str,
    /// Operand placeholder; empty for a switch.
    operand: &'static str,
    default: &'static str,
    help: &'static str,
    /// The subcommand groups that read the flag.
    readers: u16,
}

const fn flag(
    name: &'static str,
    operand: &'static str,
    default: &'static str,
    help: &'static str,
    readers: u16,
) -> Flag {
    Flag {
        name,
        operand,
        default,
        help,
        readers,
    }
}

#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    flag("--apps", "LIST", "all six", "applications, e.g. hf,sar (trace runs the first)", APPS),
    flag("--procs", "N", "32", "client processes", APPS),
    flag("--factor", "F", "1.0", "phase-count multiplier", APPS),
    flag("--gap-factor", "F", "1.0", "long-gap multiplier", APPS),
    flag("--io-nodes", "N", "8", "I/O nodes in the striping layout", SYSTEM),
    flag("--stripe-kb", "N", "64", "stripe size in KiB", SYSTEM),
    flag("--cache-mb", "N", "64", "per-node cache capacity in MiB", SYSTEM),
    flag("--buffer-mb", "N", "64", "client prefetch buffer in MiB", SYSTEM),
    flag("--delta", "N", "paper", "scheduler look-ahead window in slots", SYSTEM),
    flag("--theta", "N", "paper", "scheduler per-slot access bound", SYSTEM),
    flag("--policy", "NAME", "default; trace/faults/fuzz: history",
         "power policy: default, simple, prediction, history, staggered",
         PAPER | PERF | TRACE | FAULTS | FUZZ),
    flag("--jobs", "N", "available parallelism",
         "worker threads; results are identical for every N", PAPER),
    flag("--csv", "DIR", "none", "also write each series as DIR/<experiment>.csv", PAPER),
    flag("--repeat", "N", "3", "timed runs per perf cell or scale point", PERF | SCALE),
    flag("--out", "FILE", "none", "write the JSON report",
         PERF | SCALE | ATTRIB | FAULTS | ONLINE | REBUILD),
    flag("--check", "FILE", "none", "gate against a baseline written by perf --out", PERF),
    flag("--tolerance", "F", "0.30", "allowed fractional regression under --check", PERF),
    flag("--trace-out", "FILE", "none", "write trace events as JSONL and FILE.chrome.json",
         TRACE | PERF),
    flag("--metrics-out", "FILE", "none", "write the metrics registry as JSON", TRACE),
    flag("--scenario", "NAME", "light; attrib: none", "fault scenario: light or heavy",
         ATTRIB | FAULTS | REBUILD),
    flag("--seed", "N", "42", "fault, workload and placement seed",
         ATTRIB | FAULTS | ONLINE | REBUILD),
    flag("--scene-scale", "F", "0.25", "factor of the observed sharded scene", ATTRIB),
    flag("--shards", "auto|N", "auto", "shard policy of the sharded scene", ATTRIB | SCALE),
    flag("--seeds", "N", "8", "SeededShuffle seeds per cell", FUZZ),
    flag("--scenes", "LIST", "zipfian,diurnal", "keyed scenes", ONLINE),
    flag("--modes", "LIST", "table,online,hybrid", "decision layers", ONLINE),
    flag("--scales", "LIST", "1,10,100", "scene scale factors", SCALE),
    flag("--jobs-list", "LIST", "1,2,4,8", "worker counts per scale point", SCALE),
    flag("--epoch-us", "N", "hop latency", "epoch window in microseconds", SCALE),
    flag("--no-baseline", "", "off", "skip the single-shard baseline and speedups", SCALE),
    flag("--digest", "FILE", "none", "write one jobs-invariant digest line per scale", SCALE),
    flag("--check-speedup", "X", "none", "require X times single-shard at the largest scale",
         SCALE),
    flag("--verbose", "", "off", "print the full error cause chain on failure", ANY),
    flag("--help", "", "", "print this help", ANY),
];

/// Every flag value, after parsing. The scale flags live in `sweep`;
/// perf reads its `repeat` and attrib its `shards` from there too.
struct Options {
    command: &'static str,
    apps: Vec<App>,
    scale: WorkloadScale,
    /// The storage and scheduler flags, applied as they are parsed.
    system: SystemConfigBuilder,
    policy: Option<PolicyKind>,
    jobs: Option<usize>,
    csv: Option<PathBuf>,
    out: Option<PathBuf>,
    check: Option<PathBuf>,
    tolerance: f64,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    scenario: Option<String>,
    seed: u64,
    scene_scale: f64,
    seeds: u64,
    scenes: Vec<String>,
    modes: Vec<OnlineMode>,
    sweep: ScaleSweep,
    digest: Option<PathBuf>,
    verbose: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            command: ALL.0,
            apps: App::all().to_vec(),
            scale: WorkloadScale::paper(),
            system: SystemConfig::builder(),
            policy: None,
            jobs: None,
            csv: None,
            out: None,
            check: None,
            tolerance: 0.30,
            trace_out: None,
            metrics_out: None,
            scenario: None,
            seed: 42,
            scene_scale: 0.25,
            seeds: 8,
            scenes: twins::SCENES.map(|(name, _)| name.to_owned()).to_vec(),
            modes: OnlineMode::all().to_vec(),
            sweep: ScaleSweep {
                scales: vec![1.0, 10.0, 100.0],
                jobs_list: vec![1, 2, 4, 8],
                shards: ShardPolicy::Auto,
                epoch_us: None,
                repeat: 3,
                baseline: true,
                check_speedup: None,
            },
            digest: None,
            verbose: false,
        }
    }
}

fn num<T: FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("invalid value `{v}` for {flag}"))
}

/// `v` when `ok(v)`, else the usage error `{flag} {must}`.
fn require<T>(flag: &str, v: T, ok: impl Fn(&T) -> bool, must: &str) -> Result<T, String> {
    if ok(&v) {
        Ok(v)
    } else {
        Err(format!("{flag} {must}"))
    }
}

fn at_least_one<T: FromStr + PartialOrd + From<u8>>(flag: &str, v: &str) -> Result<T, String> {
    require(
        flag,
        num(flag, v)?,
        |n| *n >= T::from(1),
        "must be at least 1",
    )
}

/// Parses every comma-separated item of `v` with `item`; at least one.
fn list<T>(
    flag: &str,
    v: &str,
    item: impl Fn(&str) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let items = v
        .split(',')
        .map(|s| item(s.trim()))
        .collect::<Result<Vec<_>, _>>()?;
    require(flag, items, |l| !l.is_empty(), "needs at least one value")
}

fn known<T>(what: &str, name: &str, found: Option<T>, names: &str) -> Result<T, String> {
    found.ok_or_else(|| format!("unknown {what} `{name}` (known: {names})"))
}

/// Stores one flag's operand in `o`, validating it.
fn set(o: &mut Options, flag: &str, v: &str) -> Result<(), String> {
    let positive = |x: &f64| x.is_finite() && *x > 0.0;
    match flag {
        "--apps" => {
            let names: Vec<&str> = App::all().iter().map(|a| a.name()).collect();
            let app = |s: &str| {
                let found = App::all().into_iter().find(|a| a.name() == s);
                known("application", s, found, &names.join(", "))
            };
            o.apps = list(flag, v, app)?;
        }
        "--procs" => o.scale.procs = num(flag, v)?,
        "--factor" => o.scale.factor = num(flag, v)?,
        "--gap-factor" => o.scale.gap_factor = num(flag, v)?,
        "--io-nodes" => o.system = o.system.clone().io_nodes(num(flag, v)?),
        "--stripe-kb" => o.system = o.system.clone().stripe_kb(num(flag, v)?),
        "--cache-mb" => o.system = o.system.clone().cache_mb(num(flag, v)?),
        "--buffer-mb" => o.system = o.system.clone().buffer_mb(num(flag, v)?),
        "--delta" => o.system = o.system.clone().delta(num(flag, v)?),
        "--theta" => o.system = o.system.clone().theta(Some(num(flag, v)?)),
        "--policy" => {
            // The default (no power management) and the paper's four
            // strategies, by name or by name without `-based`.
            let name = if v == "nopm" { "default" } else { v };
            let found = [PolicyKind::NoPm]
                .into_iter()
                .chain(PolicyKind::paper_strategies())
                .find(|k| k.name() == name || k.name().strip_suffix("-based") == Some(name));
            let names = "default, simple, prediction, history, staggered";
            o.policy = Some(known("policy", v, found, names)?);
        }
        "--jobs" => o.jobs = Some(at_least_one(flag, v)?),
        "--csv" => o.csv = Some(PathBuf::from(v)),
        "--repeat" => o.sweep.repeat = at_least_one(flag, v)?,
        "--out" => o.out = Some(PathBuf::from(v)),
        "--check" => o.check = Some(PathBuf::from(v)),
        "--tolerance" => {
            let in_range = |x: &f64| (0.0..1.0).contains(x);
            o.tolerance = require(flag, num(flag, v)?, in_range, "must be in [0, 1)")?;
        }
        "--trace-out" => o.trace_out = Some(PathBuf::from(v)),
        "--metrics-out" => o.metrics_out = Some(PathBuf::from(v)),
        "--scenario" => {
            let found = simkit::fault::FaultSpec::scenario(v, 0).map(|_| v.to_owned());
            o.scenario = Some(known("fault scenario", v, found, "light, heavy")?);
        }
        "--seed" => o.seed = num(flag, v)?,
        "--scene-scale" => {
            o.scene_scale = require(flag, num(flag, v)?, positive, "must be a positive number")?;
        }
        "--shards" => {
            o.sweep.shards = match v {
                "auto" => ShardPolicy::Auto,
                _ => ShardPolicy::Fixed(at_least_one(flag, v)?),
            };
        }
        "--seeds" => o.seeds = at_least_one(flag, v)?,
        "--scenes" => {
            let scene = |s: &str| {
                let found = twins::SCENES.iter().any(|&(n, _)| n == s);
                known("scene", s, found.then(|| s.to_owned()), "zipfian, diurnal")
            };
            o.scenes = list(flag, v, scene)?;
        }
        "--modes" => {
            let mode = |s: &str| known("mode", s, OnlineMode::parse(s), "table, online, hybrid");
            o.modes = list(flag, v, mode)?;
        }
        "--scales" => o.sweep.scales = list(flag, v, |s| num(flag, s))?,
        "--jobs-list" => o.sweep.jobs_list = list(flag, v, |s| at_least_one(flag, s))?,
        "--epoch-us" => o.sweep.epoch_us = Some(num(flag, v)?),
        "--no-baseline" => o.sweep.baseline = false,
        "--digest" => o.digest = Some(PathBuf::from(v)),
        "--check-speedup" => {
            let x = require(flag, num(flag, v)?, positive, "must be a positive number")?;
            o.sweep.check_speedup = Some(x);
        }
        "--verbose" => o.verbose = true,
        _ => {}
    }
    Ok(())
}

/// Parses `args` once: every flag through its table row, the subcommand
/// through the dispatch table; then rejects any flag the subcommand does
/// not read. Returns the options and the subcommand's library call.
fn parse(args: &[String]) -> Result<(Options, Run), String> {
    let mut o = Options::default();
    let mut command = ALL;
    let mut seen: Vec<&Flag> = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if arg.starts_with('-') {
            let Some(flag) = FLAGS.iter().find(|f| f.name == arg) else {
                return Err(format!("unknown option `{arg}`"));
            };
            let value = match flag.operand {
                "" => "",
                _ => args
                    .next()
                    .ok_or_else(|| format!("{arg} requires a value"))?,
            };
            set(&mut o, flag.name, value)?;
            seen.push(flag);
        } else {
            let Some(&row) = COMMANDS.iter().find(|c| c.0 == arg) else {
                return Err(format!("unknown experiment `{arg}`"));
            };
            command = row;
        }
    }
    let (name, group, run) = command;
    if let Some(f) = seen.iter().find(|f| f.readers & group == 0) {
        return Err(format!(
            "`{name}` does not read {} (read by: {})",
            f.name,
            readers(f.readers)
        ));
    }
    o.command = name;
    Ok((o, run))
}

fn readers(mask: u16) -> String {
    if mask == ANY {
        return "every subcommand".to_owned();
    }
    let names: Vec<&str> = GROUPS
        .iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, g)| *g)
        .collect();
    names.join(", ")
}

/// The help text, generated from the flag and dispatch tables.
fn help() -> String {
    let names = |paper: bool| {
        let names: Vec<&str> = COMMANDS
            .iter()
            .filter(|c| (c.1 == PAPER) == paper)
            .map(|c| c.0)
            .collect();
        let lines: Vec<String> = names.chunks(8).map(|c| c.join(", ")).collect();
        lines.join(",\n  ")
    };
    let mut out = format!(
        "usage: repro [<experiment>] [options]\n\n\
         paper experiments (default: all):\n  {}\n\
         beyond the paper:\n  {}\n\n\
         options [default] (read by):\n",
        names(true),
        names(false)
    );
    for f in FLAGS {
        let default = match f.default {
            "" => String::new(),
            d => format!(" [{d}]"),
        };
        out.push_str(&format!(
            "  {:<22} {}{default}\n  {:<22} ({})\n",
            format!("{} {}", f.name, f.operand),
            f.help,
            "",
            readers(f.readers)
        ));
    }
    out.push_str(
        "\nexit codes: 0 ok, 1 failed check or unwritable output, 2 usage, 3 config,\n\
         4 compile, 5 storage, 6 engine",
    );
    out
}

/// The validated system configuration; `default_policy` applies when
/// `--policy` is absent.
fn config(o: &Options, default_policy: Option<PolicyKind>) -> Result<SystemConfig, CommandError> {
    let mut b = o.system.clone().scale(o.scale);
    if let Some(p) = o.policy.clone().or(default_policy) {
        b = b.policy(p);
    }
    Ok(b.build().map_err(SddsError::from)?)
}

/// Trace, faults and fuzz default to the history-based strategy, so their
/// runs meet real power-state transitions.
fn history(o: &Options) -> Result<SystemConfig, CommandError> {
    config(o, Some(PolicyKind::history_based_default()))
}

fn experiment(o: &Options) -> Result<Outcome, CommandError> {
    paper::experiment(o.command, &config(o, None)?, &o.apps, o.csv.as_deref())
}

type Run = fn(&Options) -> Result<Outcome, CommandError>;

const ALL: (&str, u16, Run) = ("all", PAPER, |o| {
    paper::all(&config(o, None)?, &o.apps, o.csv.as_deref(), o.verbose)
});

/// Every subcommand: its name, the group whose flags it reads, and its
/// library call.
#[rustfmt::skip]
const COMMANDS: &[(&str, u16, Run)] = &[
    ("table2", PAPER, experiment),
    ("table3", PAPER, experiment),
    ("fig12a", PAPER, experiment),
    ("fig12b", PAPER, experiment),
    ("fig12c", PAPER, experiment),
    ("fig12d", PAPER, experiment),
    ("fig13a", PAPER, experiment),
    ("fig13b", PAPER, experiment),
    ("fig13c", PAPER, experiment),
    ("fig13d", PAPER, experiment),
    ("fig14", PAPER, experiment),
    ("cache", PAPER, experiment),
    ("compiler-cost", PAPER, experiment),
    ("granularity", PAPER, experiment),
    ("oscillation", PAPER, experiment),
    ("ablation", PAPER, experiment),
    ("multiapp", PAPER, experiment),
    ("headline", PAPER, experiment),
    ALL,
    ("perf", PERF, |o| {
        let (check, out, trace) = (o.check.as_deref(), o.out.as_deref(), o.trace_out.as_deref());
        let (repeat, tolerance) = (o.sweep.repeat, o.tolerance);
        timing::perf(&config(o, None)?, &o.apps, repeat, tolerance, check, out, trace)
    }),
    ("trace", TRACE, |o| {
        let app = o.apps.first().copied().unwrap_or(App::Sar);
        observe::trace(&history(o)?, app, o.trace_out.as_deref(), o.metrics_out.as_deref())
    }),
    ("attrib", ATTRIB, |o| {
        let (scenario, out) = (o.scenario.as_deref(), o.out.as_deref());
        let (scale, shards) = (o.scene_scale, o.sweep.shards);
        observe::attrib(&config(o, None)?, &o.apps, scenario, o.seed, scale, shards, out)
    }),
    ("faults", FAULTS, |o| {
        let scenario = o.scenario.as_deref().unwrap_or("light");
        twins::faults(&history(o)?, &o.apps, scenario, o.seed, o.out.as_deref())
    }),
    ("fuzz", FUZZ, |o| twins::fuzz(&history(o)?, &o.apps, o.seeds)),
    ("scale", SCALE, |o| timing::scale(&o.sweep, o.out.as_deref(), o.digest.as_deref())),
    ("online", ONLINE, |o| {
        twins::online(&config(o, None)?, &o.scenes, &o.modes, o.seed, o.out.as_deref())
    }),
    ("rebuild", REBUILD, |o| {
        let scenario = o.scenario.as_deref().unwrap_or("light");
        twins::rebuild(scenario, o.seed, o.out.as_deref())
    }),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", help());
        return;
    }
    let code = match parse(&args) {
        Ok((o, run)) => {
            if let Some(jobs) = o.jobs {
                simkit::pool::set_jobs(jobs);
            }
            emit(run(&o), o.verbose)
        }
        Err(usage) => {
            let e = CommandError::new(2, format!("{usage} (see `repro --help`)"));
            emit(Err(e), false)
        }
    };
    std::process::exit(code);
}
