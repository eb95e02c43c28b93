//! Twin-run reports: each runs the same workload more than once and
//! checks that what must not change did not.
//!
//! * `repro faults` (`sdds-faults-v1`): every app under a fault scenario
//!   and fault-free; bytes moved must match.
//! * `repro rebuild` (`sdds-rebuild-v1`): the replicated object store
//!   routed, primary-only and fault-free; bytes, the energy split and the
//!   routed p99 win are checked.
//! * `repro fuzz`: every cell under Deterministic arbitration and under
//!   seeded shuffles; bytes and finished processes must match.
//! * `repro online` (`sdds-online-v1`): the table, online and hybrid
//!   decision layers on keyed scenes, with their energy/latency frontier.

use std::path::Path;

use sdds::{OnlineMode, SddsError, SystemConfig};
use sdds_runtime::{run_rebuild, RebuildParams, RebuildResult};
use sdds_workloads::{App, KeyedWorkloadSpec};
use simkit::fault::{FaultCounters, FaultSpec};
use simkit::kernel::ArbitrationPolicy;

use crate::json::{Json, Obj};
use crate::outcome::{Check, CommandError, Outcome};

/// The named fault scenario (`light` or `heavy`) at `seed`.
pub(crate) fn fault_spec(name: &str, seed: u64) -> Result<FaultSpec, CommandError> {
    FaultSpec::scenario(name, seed).ok_or_else(|| {
        CommandError::new(
            2,
            format!("unknown fault scenario `{name}` (known: light, heavy)"),
        )
    })
}

/// `repro faults`: runs every app with the scheme under the fault
/// `scenario` and fault-free, printing a recovery table and building
/// the byte-deterministic `sdds-faults-v1` report.
///
/// Checks: byte parity of every app with its fault-free twin.
pub fn faults(
    base: &SystemConfig,
    apps: &[App],
    scenario: &str,
    seed: u64,
    out: Option<&Path>,
) -> Result<Outcome, CommandError> {
    let spec = fault_spec(scenario, seed)?;
    let clean_cfg = base.with_scheme(true);
    let faulty_cfg = clean_cfg.with_fault(Some(spec));
    let mut o = Outcome::default();
    let mut parity = Check::new("byte parity");
    outln!(
        o.stdout,
        "Fault scenario `{scenario}` (seed {seed}) under `{}` + scheme",
        base.policy.name()
    );
    let row = |name: &str, f: &FaultCounters, delta: f64, ok: bool| {
        format!(
            "{:<11} {:>9} {:>8} {:>8} {:>12} {:>10} {:>9} {:>14.3} {:>7}",
            name,
            f.total_injected(),
            f.retried,
            f.remapped,
            f.reconstructed,
            f.redirected,
            f.deferred,
            delta,
            if ok { "ok" } else { "FAIL" }
        )
    };
    outln!(o.stdout, "app          injected  retried remapped reconstructed redirected  deferred      energy dJ  parity");
    let mut rows: Vec<Obj> = Vec::new();
    let mut total = FaultCounters::default();
    let mut total_delta = 0.0;
    for &app in apps {
        let clean = sdds::run(app, &clean_cfg)?.result;
        let faulty = sdds::run(app, &faulty_cfg)?.result;
        let same = parity.require(clean.bytes_moved == faulty.bytes_moved, || {
            format!(
                "{} moved {:?} bytes (read, written) under faults but {:?} fault-free; \
                 recovery lost data",
                app.name(),
                faulty.bytes_moved,
                clean.bytes_moved
            )
        });
        let f = faulty.faults;
        let delta = faulty.energy_joules - clean.energy_joules;
        total.merge(&f);
        total_delta += delta;
        outln!(o.stdout, "{}", row(app.name(), &f, delta, same));
        rows.push(
            Obj::inline()
                .field("name", app.name())
                .field("bytes_read", faulty.bytes_moved.0)
                .field("bytes_written", faulty.bytes_moved.1)
                .field("parity", same)
                .field(
                    "exec_seconds",
                    Json::fixed(faulty.exec_time.as_secs_f64(), 6),
                )
                .field("energy_joules", Json::fixed(faulty.energy_joules, 6))
                .field("fault_free_joules", Json::fixed(clean.energy_joules, 6))
                .field("energy_delta_joules", Json::fixed(delta, 6))
                .field(
                    "faults",
                    Obj::inline()
                        .field("injected_transient", f.injected_transient)
                        .field("injected_bad_sector", f.injected_bad_sector)
                        .field("retried", f.retried)
                        .field("remapped", f.remapped)
                        .field("reconstructed", f.reconstructed)
                        .field("redirected", f.redirected)
                        .field("deferred", f.deferred),
                ),
        );
    }
    outln!(
        o.stdout,
        "{}",
        row("TOTAL", &total, total_delta, parity.passed())
    );

    if let Some(path) = out {
        let report = Obj::block()
            .field("schema", "sdds-faults-v1")
            .field("scenario", scenario)
            .field("seed", seed)
            .field("policy", base.policy.name())
            .field("procs", base.scale.procs)
            .field("apps", Json::block_array(rows))
            .field(
                "total",
                Obj::inline()
                    .field("injected", total.total_injected())
                    .field("retried", total.retried)
                    .field("remapped", total.remapped)
                    .field("reconstructed", total.reconstructed)
                    .field("redirected", total.redirected)
                    .field("deferred", total.deferred)
                    .field("energy_delta_joules", Json::fixed(total_delta, 6))
                    .field("parity", parity.passed()),
            );
        o.files.push((path.to_path_buf(), report.document()));
    }
    o.checks.push(parity);
    Ok(o)
}

/// A keyed scene of `repro online`: its name and its workload at a seed.
pub type Scene = (&'static str, fn(u64) -> KeyedWorkloadSpec);

/// The keyed scenes `repro online` knows.
pub const SCENES: [Scene; 2] = [
    ("zipfian", KeyedWorkloadSpec::zipfian_hot_set),
    ("diurnal", KeyedWorkloadSpec::diurnal),
];

/// `repro online`: compares the compile-time, online and hybrid decision
/// layers on keyed workloads the compiler cannot characterize from loop
/// bounds, printing an energy/latency table per scene and its frontier
/// (the modes no other mode beats on both energy and mean read
/// response), and building the byte-deterministic `sdds-online-v1`
/// report. Every scene name is checked before any scene runs.
pub fn online(
    base: &SystemConfig,
    scenes: &[String],
    modes: &[OnlineMode],
    seed: u64,
    out: Option<&Path>,
) -> Result<Outcome, CommandError> {
    let specs = scenes
        .iter()
        .map(|scene| {
            let known = SCENES.iter().find(|(name, _)| name == scene);
            known.map(|(_, spec)| spec(seed)).ok_or_else(|| {
                CommandError::new(
                    2,
                    format!("unknown scene `{scene}` (known: zipfian, diurnal)"),
                )
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut o = Outcome::default();
    outln!(
        o.stdout,
        "Decision-layer comparison on keyed workloads (seed {seed})"
    );
    let mut scene_rows: Vec<Obj> = Vec::new();
    for (scene, spec) in scenes.iter().zip(&specs) {
        let trace = spec
            .program()
            .trace(sdds_compiler::SlotGranularity::unit())
            .map_err(|e| SddsError::Compile {
                app: scene.clone(),
                source: sdds::error::CompileError::from(e),
            })?;
        outln!(
            o.stdout,
            "\nscene `{scene}`: {} procs x {} ops, {} keys",
            spec.procs,
            spec.ops_per_proc,
            spec.keys
        );
        outln!(
            o.stdout,
            "mode     policy             energy (J)  read resp (s)   exec (s)    events"
        );
        // (mode, energy, mean read response) per cell, for the frontier.
        let mut points: Vec<(&'static str, f64, f64)> = Vec::new();
        let mut cells: Vec<Obj> = Vec::new();
        for &mode in modes {
            let r = sdds::run_mode(&trace, base, mode, seed)?.result;
            let policy = match mode {
                OnlineMode::Table => "table-lookup",
                OnlineMode::Online => "online-speed",
                OnlineMode::Hybrid => "hybrid",
            };
            let exec_s = r.exec_time.as_secs_f64();
            outln!(
                o.stdout,
                "{:<8} {:<16} {:>12.1} {:>14.6} {:>10.1} {:>9}",
                mode.name(),
                policy,
                r.energy_joules,
                r.mean_read_response,
                exec_s,
                r.events
            );
            points.push((mode.name(), r.energy_joules, r.mean_read_response));
            cells.push(
                Obj::inline()
                    .field("mode", mode.name())
                    .field("policy", policy)
                    .field("energy_j", Json::fixed(r.energy_joules, 6))
                    .field("mean_read_response_s", Json::fixed(r.mean_read_response, 6))
                    .field("exec_s", Json::fixed(exec_s, 6))
                    .field("events", r.events)
                    .field("bytes_read", r.bytes_moved.0)
                    .field("bytes_written", r.bytes_moved.1),
            );
        }
        let frontier: Vec<&str> = points
            .iter()
            .filter(|&&(_, e, t)| {
                !points
                    .iter()
                    .any(|&(_, oe, ot)| oe <= e && ot <= t && (oe < e || ot < t))
            })
            .map(|&(mode, _, _)| mode)
            .collect();
        outln!(
            o.stdout,
            "frontier (energy x latency): {}",
            frontier.join(", ")
        );
        scene_rows.push(
            Obj::inline()
                .field("scene", scene.as_str())
                .field("procs", spec.procs)
                .field("ops_per_proc", spec.ops_per_proc)
                .field("keys", spec.keys)
                .field("cells", Json::block_array(cells))
                .field("frontier", Json::array(frontier)),
        );
    }

    if let Some(path) = out {
        let report = Obj::block()
            .field("schema", "sdds-online-v1")
            .field("seed", seed)
            .field("scenes", Json::block_array(scene_rows));
        o.files.push((path.to_path_buf(), report.document()));
    }
    Ok(o)
}

/// `repro fuzz`: runs every (app, scheme) cell once under Deterministic
/// arbitration and once per SeededShuffle seed. Arbitration only
/// permutes same-instant events, so it may move *when* work happens but
/// never *what* work is done; timing-derived metrics (exec time, energy,
/// hit rates) may differ.
///
/// Checks: arbitration invariance (bytes moved and processes finished
/// equal the Deterministic run's for every seed).
pub fn fuzz(base: &SystemConfig, apps: &[App], seeds: u64) -> Result<Outcome, CommandError> {
    let mut o = Outcome::default();
    let mut invariance = Check::new("arbitration invariance");
    outln!(
        o.stdout,
        "Arbitration fuzz under `{}`: Deterministic baseline vs {seeds} SeededShuffle seeds",
        base.policy.name()
    );
    outln!(
        o.stdout,
        "cell                     bytes_read  bytes_written  procs  verdict"
    );
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
            let want = (det.bytes_moved, det.per_proc_finish.len());
            let mut cell_ok = true;
            for k in 0..seeds {
                // The seed values themselves are arbitrary (SplitMix64
                // scrambles them); only their count and distinctness matter.
                let seed = 0x5EED_0000 + k;
                let shuffled = cfg.with_arbitration(ArbitrationPolicy::SeededShuffle(seed));
                let r = sdds::run(app, &shuffled)?.result;
                let got = (r.bytes_moved, r.per_proc_finish.len());
                cell_ok &= invariance.require(got == want, || {
                    format!(
                        "seed {seed:#x} diverged on {name}: bytes {:?} vs {:?}, procs {} vs {}; \
                         same-instant event order leaked into the outcome",
                        got.0, want.0, got.1, want.1
                    )
                });
            }
            outln!(
                o.stdout,
                "{name:<20} {:>14} {:>14} {:>6} {:>8}",
                want.0 .0,
                want.0 .1,
                want.1,
                if cell_ok { "ok" } else { "FAIL" }
            );
        }
    }
    o.checks.push(invariance);
    Ok(o)
}

/// One twin of the `sdds-rebuild-v1` report.
fn rebuild_twin_json(name: &str, params: &RebuildParams, r: &RebuildResult) -> Obj {
    Obj::inline()
        .field("name", name)
        .field("routing", params.routing)
        .field("failure", params.inject_failure)
        .field("reads", r.reads)
        .field("writes", r.writes)
        .field("bytes_read", r.bytes_read)
        .field("bytes_written", r.bytes_written)
        .field("read_p50_us", r.read_p50_us)
        .field("read_p99_us", r.read_p99_us)
        .field("read_p999_us", r.read_p999_us)
        .field("queue_us", r.queue_us)
        .field("spin_up_wait_us", r.spin_up_wait_us)
        .field("service_us", r.service_us)
        .field("crash_wait_us", r.crash_wait_us)
        .field("response_us", r.response_us)
        .field("transient_retries", r.transient_retries)
        .field("deferred", r.deferred)
        .field("routed_skips", r.routed_skips)
        .field("failed_disk", r.failed_disk)
        .field("spare_disk", r.spare_disk)
        .field("rebuild_bytes", r.rebuild_bytes)
        .field("rebuild_chunks", r.rebuild_chunks)
        .field("rebuild_skipped_ticks", r.rebuild_skipped_ticks)
        .field("rebuild_done_us", r.rebuild_done_us)
        .field(
            "energy",
            Obj::inline()
                .field("active_j", Json::fixed(r.energy.active_j, 6))
                .field("idle_j", Json::fixed(r.energy.idle_j, 6))
                .field("standby_j", Json::fixed(r.energy.standby_j, 6))
                .field("spin_up_j", Json::fixed(r.energy.spin_up_j, 6))
                .field("total_j", Json::fixed(r.energy.total(), 6))
                .field("foreground_active_j", Json::fixed(r.foreground_active_j, 6))
                .field("rebuild_active_j", Json::fixed(r.rebuild_active_j, 6)),
        )
        .field("spin_downs", r.spin_downs)
        .field("spin_ups", r.spin_ups)
        .field("route_digest", format!("{:016x}", r.route_digest))
        .field("end_us", r.end_us)
}

/// `repro rebuild`: runs the replicated object-store scenario as three
/// twins (routed, primary-only, fault-free), prints the comparison and
/// builds the `sdds-rebuild-v1` report.
///
/// Checks: byte parity of the foreground traffic with the fault-free
/// twin (and a finished rebuild), energy reconciliation of the
/// foreground/rebuild split at 1e-9 J, and the p99 win of routing.
pub fn rebuild(scenario: &str, seed: u64, out: Option<&Path>) -> Result<Outcome, CommandError> {
    let routed_params = RebuildParams::paper_default(seed, Some(fault_spec(scenario, seed)?));
    let mut unrouted_params = routed_params.clone();
    unrouted_params.routing = false;
    let mut clean_params = routed_params.clone();
    clean_params.scenario = None;
    clean_params.inject_failure = false;
    let routed = run_rebuild(&routed_params, None)?;
    let unrouted = run_rebuild(&unrouted_params, None)?;
    let clean = run_rebuild(&clean_params, None)?;

    let twins = [
        ("routed", &routed),
        ("unrouted", &unrouted),
        ("fault-free", &clean),
    ];
    let mut o = Outcome::default();
    let geometry = &routed_params.placement;
    outln!(
        o.stdout,
        "Rebuild scenario `{scenario}` (seed {seed}): {}+{} disks, {} replicas, \
         member {} fails at {:.1} s, spare {}",
        geometry.data_disks,
        geometry.spares,
        geometry.replicas,
        routed.failed_disk.map_or(-1, i64::from),
        routed_params.fail_at.as_secs_f64(),
        routed.spare_disk.map_or(-1, i64::from),
    );
    outln!(o.stdout, "twin         reads writes    p50 ms    p99 ms   p999 ms    rb MiB   done s   energy kJ  spin u/d");
    for (name, r) in twins {
        outln!(
            o.stdout,
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

    let mut parity = Check::new("byte parity");
    parity.require(
        routed.reads == clean.reads
            && routed.writes == clean.writes
            && routed.bytes_read == clean.bytes_read
            && routed.bytes_written == clean.bytes_written
            && unrouted.bytes_read == clean.bytes_read
            && unrouted.bytes_written == clean.bytes_written
            && routed.rebuild_done_us.is_some()
            && unrouted.rebuild_done_us.is_some(),
        || "foreground traffic diverged from the fault-free twin — rebuild lost data".to_owned(),
    );
    let mut energy = Check::new("energy reconciliation");
    for (name, r) in twins {
        energy.require(
            (r.foreground_active_j + r.rebuild_active_j - r.energy.active_j).abs() <= 1e-9,
            || {
                format!(
                    "{name}: foreground + rebuild active joules do not reconcile with the headline"
                )
            },
        );
    }
    let mut p99 = Check::new("p99 win");
    p99.require(routed.read_p99_us < unrouted.read_p99_us, || {
        format!(
            "routing failed to improve p99 ({} us routed vs {} us unrouted)",
            routed.read_p99_us, unrouted.read_p99_us
        )
    });
    let speedup = unrouted.read_p99_us as f64 / (routed.read_p99_us as f64).max(1.0);
    outln!(
        o.stdout,
        "routing p99 speedup {speedup:.2}x; parity {}; energy split {} \
         (fg {:.1} J + rb {:.1} J)",
        if parity.passed() { "ok" } else { "FAIL" },
        if energy.passed() {
            "reconciled"
        } else {
            "FAIL"
        },
        routed.foreground_active_j,
        routed.rebuild_active_j,
    );

    if let Some(path) = out {
        let report = Obj::block()
            .field("schema", "sdds-rebuild-v1")
            .field("scenario", scenario)
            .field("seed", seed)
            .field(
                "geometry",
                Obj::inline()
                    .field("data_disks", geometry.data_disks)
                    .field("spares", geometry.spares)
                    .field("replicas", geometry.replicas)
                    .field("chunk_kib", routed_params.chunk_kib)
                    .field(
                        "rebuild_period_us",
                        routed_params.rebuild_period.as_micros(),
                    )
                    .field("fail_at_us", routed_params.fail_at.as_micros()),
            )
            .field(
                "twins",
                Json::block_array([
                    rebuild_twin_json("routed", &routed_params, &routed),
                    rebuild_twin_json("unrouted", &unrouted_params, &unrouted),
                    rebuild_twin_json("fault_free", &clean_params, &clean),
                ]),
            )
            .field(
                "checks",
                Obj::inline()
                    .field("bytes_parity", parity.passed())
                    .field("energy_reconciled", energy.passed())
                    .field("p99_improved", p99.passed())
                    .field("p99_speedup", Json::fixed(speedup, 6)),
            );
        o.files.push((path.to_path_buf(), report.document()));
    }
    o.checks.extend([parity, energy, p99]);
    Ok(o)
}
