//! Telemetry-backed reports: `repro trace` (per-disk energy table) and
//! `repro attrib` (`sdds-attrib-v1`).
//!
//! Both fold the trace stream of telemetry-enabled runs and check it
//! against the run's own totals: per-state energy must sum to the
//! headline joules within 1e-9, and every request's latency must split
//! exactly (response = queue + service, queue = spin-up + wait).

use std::collections::BTreeMap;
use std::path::Path;

use sdds::SystemConfig;
use sdds_runtime::ShardPolicy;
use sdds_workloads::App;
use simkit::span::{decompose, SpanForest};
use simkit::telemetry::TraceEvent;
use simkit::SimDuration;

use crate::json::{Json, Obj};
use crate::outcome::{Check, CommandError, Outcome};
use crate::timing::push_trace_files;
use crate::twins::fault_spec;

/// `repro trace`: runs `app` with the scheme and telemetry on, prints
/// the per-disk time-in-state / energy-by-state table, and optionally
/// writes the trace (JSONL plus a Chrome twin) and the metrics registry.
///
/// Checks: the table reconciles with the run's energy within 1e-9 J.
pub fn trace(
    base: &SystemConfig,
    app: App,
    trace_out: Option<&Path>,
    metrics_out: Option<&Path>,
) -> Result<Outcome, CommandError> {
    let mut o = Outcome::default();
    let cfg = base.with_scheme(true).with_telemetry(true);
    outln!(
        o.stdout,
        "Traced run: {} under `{}` + scheme",
        app.name(),
        cfg.policy.name()
    );
    let run = sdds::run(app, &cfg)?;
    let result = &run.result;
    let mut reconciliation = Check::new("energy reconciliation");
    let Some(t) = result.telemetry.as_ref() else {
        reconciliation.require(false, || {
            "telemetry was enabled but no report came back".to_owned()
        });
        o.checks.push(reconciliation);
        return Ok(o);
    };

    outln!(
        o.stdout,
        "{} trace events, {} metrics; exec {:.2} s, energy {:.2} J\n",
        t.events.len(),
        t.metrics.len(),
        result.exec_time.as_secs_f64(),
        result.energy_joules
    );
    outln!(
        o.stdout,
        "node disk  state            time (s)     energy (J)"
    );
    for d in &t.disks {
        for (i, (state, secs, joules)) in d.states.iter().enumerate() {
            let (n, k) = if i == 0 {
                (d.node.to_string(), d.disk.to_string())
            } else {
                (String::new(), String::new())
            };
            outln!(
                o.stdout,
                "{n:>4} {k:>4}  {state:<12} {secs:>12.3} {joules:>14.3}"
            );
        }
        let c = &d.counters;
        outln!(
            o.stdout,
            "           total                     {:>14.3}   \
             {} spin-ups, {} spin-downs, {} rpm changes, {} requests",
            d.total_joules,
            c.spin_ups,
            c.spin_downs,
            c.rpm_changes,
            c.requests_served
        );
    }
    let table_sum = t.summary_joules();
    let delta = (table_sum - result.energy_joules).abs();
    outln!(
        o.stdout,
        "\nenergy reconciliation: table {table_sum:.6} J vs run {:.6} J (|delta| = {delta:.3e} J)",
        result.energy_joules
    );
    reconciliation.require(delta < 1e-9, || {
        "per-disk energy table does not reconcile with the run's energy".to_owned()
    });
    o.checks.push(reconciliation);

    if let Some(path) = trace_out {
        push_trace_files(&mut o, t, path);
    }
    if let Some(path) = metrics_out {
        o.files.push((path.to_path_buf(), t.metrics.to_json()));
    }
    Ok(o)
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

/// Integer latency totals of one attribution cell.
#[derive(Default)]
struct Latency {
    requests: u64,
    response: u64,
    queue: u64,
    spin_up: u64,
    wait: u64,
    service: u64,
    recovery_requests: u64,
    recovery_response: u64,
}

/// `repro attrib`: runs the app × strategy × scheme matrix with telemetry
/// on (under the named fault `scenario`, if any) and builds the
/// deterministic `sdds-attrib-v1` report: per-disk / per-power-state
/// energy, the exact latency decomposition, policy-decision counts,
/// regret against the offline idle-window oracle, and per-shard barrier
/// stall from one observed sharded scene.
///
/// Checks: energy reconciliation (1e-9 J per cell), the latency identity
/// (every request), and the observer event count of the sharded scene.
pub fn attrib(
    base: &SystemConfig,
    apps: &[App],
    scenario: Option<&str>,
    seed: u64,
    scene_scale: f64,
    shards: ShardPolicy,
    out: Option<&Path>,
) -> Result<Outcome, CommandError> {
    let fault = scenario.map(|name| fault_spec(name, seed)).transpose()?;
    let model = sdds_disk::SpindlePowerModel::new(&base.disk)
        .map_err(|e| CommandError::new(3, format!("disk parameters reject a power model: {e}")))?;
    let mut o = Outcome::default();
    let mut reconciliation = Check::new("energy reconciliation");
    let mut identity = Check::new("latency identity");
    let mut telemetry = Check::new("telemetry");

    outln!(
        o.stdout,
        "Deterministic attribution matrix ({} apps x 4 strategies x 2 schemes{})",
        apps.len(),
        scenario.map_or_else(String::new, |s| format!(", faults `{s}` seed {seed}"))
    );
    outln!(o.stdout, "cell                      energy (J)  delta (J)     reqs   queue%  spinup%     svc% decisions regret (J)");

    let mut cells: Vec<Obj> = Vec::new();
    for &app in apps {
        for kind in sdds_power::PolicyKind::paper_strategies() {
            for scheme in [false, true] {
                let cfg = base
                    .with_policy(kind.clone())
                    .with_scheme(scheme)
                    .with_telemetry(true)
                    .with_fault(fault.clone());
                let run = sdds::run(app, &cfg)?;
                let result = &run.result;
                let label = format!("{}/{}/scheme={scheme}", app.name(), kind.name());
                let Some(t) = result.telemetry.as_ref() else {
                    telemetry.require(false, || format!("{label}: no telemetry came back"));
                    continue;
                };

                // Energy attribution: per-disk per-state cells must sum
                // to the headline joules. Each disk's states are summed
                // in sorted-label order (the same order its meter totals
                // them), then disks in (node, disk) order — the exact
                // accumulation sequence of the headline figure.
                let mut cells_sum = 0.0;
                let mut states: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
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
                reconciliation.require(delta < 1e-9, || {
                    format!(
                        "{label}: energy cells sum {cells_sum:.9} J but the run reports \
                         {:.9} J (|delta| = {delta:.3e})",
                        result.energy_joules
                    )
                });

                // Latency critical path: every request's decomposition
                // must reassemble exactly (integer microseconds).
                let mut lat = Latency::default();
                for l in &decompose(&t.events) {
                    identity.require(
                        l.response_us == l.queue_us + l.service_us
                            && l.queue_us == l.spin_up_us + l.wait_us,
                        || {
                            format!(
                                "{label}: request ({}, {}, {}) latency does not decompose \
                                 exactly: response {} != queue {} + service {} \
                                 (queue = spin-up {} + wait {})",
                                l.node,
                                l.disk,
                                l.id,
                                l.response_us,
                                l.queue_us,
                                l.service_us,
                                l.spin_up_us,
                                l.wait_us
                            )
                        },
                    );
                    lat.requests += 1;
                    lat.response += l.response_us;
                    lat.queue += l.queue_us;
                    lat.spin_up += l.spin_up_us;
                    lat.wait += l.wait_us;
                    lat.service += l.service_us;
                    if l.recovery {
                        lat.recovery_requests += 1;
                        lat.recovery_response += l.response_us;
                    }
                }

                // Causal span forest: access-rooted request trees.
                let forest = SpanForest::build(&t.events);
                let unparented = forest
                    .requests
                    .iter()
                    .filter(|r| r.access.is_none())
                    .count();

                // Policy decisions (with learner snapshots) and the
                // idle-window regret against the offline oracle.
                let mut decisions: u64 = 0;
                let mut by_action: BTreeMap<&'static str, u64> = BTreeMap::new();
                let mut by_mode: BTreeMap<&'static str, u64> = BTreeMap::new();
                let (mut idle_windows, mut idle_us, mut regret_j) = (0u64, 0u64, 0.0);
                for e in &t.events {
                    match e {
                        TraceEvent::PolicyDecision { action, mode, .. } => {
                            decisions += 1;
                            *by_action.entry(*action).or_insert(0) += 1;
                            if let Some(m) = *mode {
                                *by_mode.entry(m).or_insert(0) += 1;
                            }
                        }
                        TraceEvent::NodeIdle {
                            idle_us: window,
                            action,
                            ..
                        } => {
                            idle_windows += 1;
                            idle_us += window;
                            regret_j += window_regret(&base.disk, &model, *window, action)
                                * base.disks_per_node as f64;
                        }
                        _ => {}
                    }
                }

                let pfrac = |part: u64| {
                    if lat.response == 0 {
                        0.0
                    } else {
                        100.0 * part as f64 / lat.response as f64
                    }
                };
                outln!(
                    o.stdout,
                    "{:<24} {:>11.2} {:>10.1e} {:>8} {:>8.1} {:>8.1} {:>8.1} {:>9} {:>10.3}",
                    format!(
                        "{}/{}{}",
                        app.name(),
                        kind.name(),
                        if scheme { "+scheme" } else { "" }
                    ),
                    result.energy_joules,
                    delta,
                    lat.requests,
                    pfrac(lat.queue),
                    pfrac(lat.spin_up),
                    pfrac(lat.service),
                    decisions,
                    regret_j,
                );

                let counts = |m: &BTreeMap<&'static str, u64>| {
                    m.iter().fold(Obj::inline(), |obj, (k, v)| obj.field(k, *v))
                };
                let f = &result.faults;
                cells.push(
                    Obj::inline()
                        .field("app", app.name())
                        .field("policy", kind.name())
                        .field("scheme", scheme)
                        .field("energy_j", Json::fixed(result.energy_joules, 9))
                        .field("cells_sum_j", Json::fixed(cells_sum, 9))
                        .field("reconciliation_delta_j", Json::sci(delta, 3))
                        .field(
                            "states",
                            Json::array(states.iter().map(|(s, (secs, j))| {
                                Obj::inline()
                                    .field("state", *s)
                                    .field("seconds", Json::fixed(*secs, 6))
                                    .field("joules", Json::fixed(*j, 6))
                            })),
                        )
                        .field("requests", lat.requests)
                        .field(
                            "latency_us",
                            Obj::inline()
                                .field("response", lat.response)
                                .field("queue", lat.queue)
                                .field("spin_up", lat.spin_up)
                                .field("wait", lat.wait)
                                .field("service", lat.service),
                        )
                        .field(
                            "recovery",
                            Obj::inline()
                                .field("requests", lat.recovery_requests)
                                .field("response_us", lat.recovery_response),
                        )
                        .field(
                            "spans",
                            Obj::inline()
                                .field("accesses", forest.accesses.len())
                                .field("unparented", unparented)
                                .field("energy_nj", forest.total_energy_nj()),
                        )
                        .field(
                            "decisions",
                            Obj::inline()
                                .field("total", decisions)
                                .field("by_action", counts(&by_action))
                                .field("by_mode", counts(&by_mode)),
                        )
                        .field(
                            "idle",
                            Obj::inline()
                                .field("windows", idle_windows)
                                .field("total_us", idle_us)
                                .field("regret_j", Json::fixed(regret_j, 6)),
                        )
                        .field(
                            "faults",
                            Obj::inline().field("injected", f.total_injected()).field(
                                "recovered",
                                f.retried + f.remapped + f.reconstructed + f.redirected,
                            ),
                        ),
                );
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
    let per_shard: Vec<u64> = obs.iter().map(|o| o.events.len() as u64).collect();
    let observed_events: u64 = per_shard.iter().sum();
    let mut observer = Check::new("observer event count");
    observer.require(observed_events == scene.events, || {
        format!(
            "shard observer saw {observed_events} events but the kernel reports {}",
            scene.events
        )
    });
    let imbalance = simkit::shard::epoch_imbalance(&obs);
    let stall_events: u64 = imbalance.iter().map(|e| e.stall_events).sum();
    let max_epoch_stall = imbalance.iter().map(|e| e.stall_events).max().unwrap_or(0);
    outln!(
        o.stdout,
        "\nsharded scene (factor {scene_scale}): {} shards, {} epochs, {} events; \
         barrier stall {} event-slots (worst epoch {})",
        scene.shards,
        scene.epochs,
        scene.events,
        stall_events,
        max_epoch_stall
    );

    if let Some(path) = out {
        let report = Obj::block()
            .field("schema", "sdds-attrib-v1")
            .field("scenario", scenario)
            .field("seed", seed)
            .field("procs", base.scale.procs)
            .field("factor", Json::float(base.scale.factor))
            .field("cells", Json::block_array(cells))
            .field(
                "scene",
                Obj::inline()
                    .field("factor", Json::fixed(scene_scale, 3))
                    .field("shards", scene.shards)
                    .field("components", scene.components)
                    .field("epochs", scene.epochs)
                    .field("events", scene.events)
                    .field("messages", scene.messages)
                    .field("makespan_us", scene.makespan.as_micros())
                    .field("energy_j", Json::fixed(scene.energy.total(), 6))
                    .field("stall_event_slots", stall_events)
                    .field("worst_epoch_stall", max_epoch_stall)
                    .field("per_shard_events", Json::array(per_shard)),
            );
        o.files.push((path.to_path_buf(), report.document()));
    }
    o.checks
        .extend([telemetry, reconciliation, identity, observer]);
    Ok(o)
}
