//! The datacenter-scene workloads: the scaled scene on the sharded
//! time-domain kernel.
//!
//! One iteration is what `sdds::run_scale` does, made as its public
//! calls: generate the scene spec, build the sharded kernel, run it, and
//! fold the finished components into a [`SceneResult`]. The fold mirrors
//! the library's (which is private to it); a once-per-run comparison of
//! digests against `sdds::run_scale` proves the two agree.

use std::time::Instant;

use sdds::ScaleSceneConfig;
use sdds_runtime::scene::SceneComponent;
use sdds_runtime::{build_scene, SceneResult, ShardPolicy};
use sdds_storage::scene::SceneMsg;
use sdds_workloads::SceneSpec;
use simkit::shard::{epoch_imbalance, ShardRunStats, ShardedKernel};
use simkit::{SimDuration, SimTime};

use crate::spans::Tracer;
use crate::{CellTimes, Counts, Iteration};

/// A scene run: scale, shard policy and worker count.
#[derive(Debug, Clone, Copy)]
pub struct SceneWorkload {
    /// Scene scale, shard policy and epoch window.
    pub cfg: ScaleSceneConfig,
    /// Worker threads driving the shards.
    pub jobs: usize,
}

impl SceneWorkload {
    /// The scene at `factor` on exactly one shard and one worker: the
    /// single-calendar baseline.
    pub fn one_shard(factor: f64) -> Self {
        SceneWorkload {
            cfg: ScaleSceneConfig {
                factor,
                shards: ShardPolicy::Fixed(1),
                epoch: None,
            },
            jobs: 1,
        }
    }

    /// The scene at `factor` on automatically sized shards and `jobs`
    /// workers.
    pub fn sharded(factor: f64, jobs: usize) -> Self {
        SceneWorkload {
            cfg: ScaleSceneConfig {
                factor,
                shards: ShardPolicy::Auto,
                epoch: None,
            },
            jobs,
        }
    }

    /// Slots in each shard's calendar (the largest shard's share of the
    /// components).
    pub fn calendar_slots(&self) -> usize {
        let components = self.cfg.spec().component_count();
        components.div_ceil(self.cfg.shards.resolve(components))
    }
}

/// Runs the scene once. With `tracer` enabled, the kernel's per-shard
/// observer is switched on and the shard counts are filled in.
pub fn run_iteration(w: &SceneWorkload, tracer: &mut Tracer) -> Iteration {
    let started = Instant::now();
    let mut it = Iteration {
        attempted: 1,
        ..Iteration::default()
    };
    match run_scene(w, tracer, &mut it) {
        Ok((r, failures)) => {
            it.events = r.events;
            it.sim_energy_j = r.energy.total();
            it.sim_time_s = r.makespan.as_micros() as f64 * 1e-6;
            count_result(&mut it.counts, &r);
            it.lines.push(r.digest());
            it.record(0, failures);
        }
        Err(e) => {
            it.lines.push("error".to_owned());
            it.record(0, vec![e]);
        }
    }
    it.wall_s = started.elapsed().as_secs_f64();
    it.cell_times.push(CellTimes {
        wall_s: it.wall_s,
        setup_s: it.setup_s,
        sim_s: it.sim_s,
    });
    it
}

fn run_scene(
    w: &SceneWorkload,
    t: &mut Tracer,
    it: &mut Iteration,
) -> Result<(SceneResult, Vec<String>), String> {
    w.cfg.validate().map_err(|e| e.to_string())?;
    let setup_started = Instant::now();
    let (spec, window, shards, kernel) = t.span("setup", |t| {
        let spec = t.span("workloads.scene_spec", |_| w.cfg.spec());
        let window = w.cfg.epoch_for(&spec);
        let shards = w.cfg.shards.resolve(spec.component_count());
        let kernel = t.span("runtime.build_scene", |_| {
            build_scene(&spec, shards, window)
        });
        (spec, window, shards, kernel)
    });
    it.setup_s = setup_started.elapsed().as_secs_f64();
    let mut kernel = kernel.map_err(|e| e.to_string())?;
    let (r, group_total) = t.span("sim", |t| {
        if t.enabled() {
            t.span("simkit.enable_observer", |_| kernel.enable_observer());
        }
        let sim_started = Instant::now();
        let stats = t
            .span("simkit.kernel_run", |_| kernel.run(w.jobs, SimTime::MAX))
            .map_err(|e| e.to_string());
        it.sim_s = sim_started.elapsed().as_secs_f64();
        let stats = stats?;
        if t.enabled() {
            let obs = t.span("simkit.take_observations", |_| kernel.take_observations());
            let epochs = t.span("simkit.epoch_imbalance", |_| epoch_imbalance(&obs));
            let c = &mut it.counts;
            for e in &epochs {
                c.add("simkit.shard_stall_events", e.stall_events as f64);
                c.add(
                    "simkit.shard_capacity",
                    (e.max_events * obs.len() as u64) as f64,
                );
                c.add("simkit.shard_events", e.total_events as f64);
            }
            c.add("simkit.shards", obs.len() as f64);
        }
        t.span("bench.collect", |_| {
            collect(kernel, &spec, shards, window, stats)
        })
    })?;
    let failures = t.span("bench.check", |_| check_scene(&r, &spec, group_total));
    Ok((r, failures))
}

/// Folds a finished kernel into a [`SceneResult`], in global registration
/// order so every floating-point sum runs in a fixed sequence. Also
/// returns the energy summed group by group, which the checks hold
/// against the per-residency parts. Fails if any client never finished.
fn collect(
    kernel: ShardedKernel<SceneMsg, SceneComponent>,
    spec: &SceneSpec,
    shards: usize,
    window: SimDuration,
    stats: ShardRunStats,
) -> Result<(SceneResult, f64), String> {
    let mut group_total = 0.0;
    let mut r = SceneResult {
        scale: spec.scale,
        components: kernel.component_count(),
        shards,
        epoch_us: window.as_micros(),
        events: stats.events,
        messages: stats.messages,
        epochs: stats.epochs,
        end: stats.end,
        makespan: SimTime::ZERO,
        clients: 0,
        requests: 0,
        grants: 0,
        reads: 0,
        buffered_writes: 0,
        direct_writes: 0,
        bytes_read: 0,
        bytes_written: 0,
        bb_drained: 0,
        link_forwarded: 0,
        link_busy_us: 0,
        link_peak_backlog_us: 0,
        energy: Default::default(),
        spin_ups: 0,
        spin_downs: 0,
        disk_requests: 0,
        trace_hash: stats.trace_hash,
    };
    let mut unfinished = 0usize;
    for comp in kernel.into_components() {
        match comp {
            SceneComponent::Group(mut g) => {
                g.finish(stats.end);
                let e = g.power().energy();
                group_total += e.total();
                r.energy.active_j += e.active_j;
                r.energy.idle_j += e.idle_j;
                r.energy.standby_j += e.standby_j;
                r.energy.spin_up_j += e.spin_up_j;
                r.spin_ups += g.power().spin_ups;
                r.spin_downs += g.power().spin_downs;
                r.disk_requests += g.power().requests;
                r.reads += g.stats.reads;
                r.buffered_writes += g.stats.buffered_writes;
                r.direct_writes += g.stats.direct_writes;
                r.bytes_read += g.stats.bytes_read;
                r.bytes_written += g.stats.bytes_written;
                r.bb_drained += g.stats.bb_drained;
            }
            SceneComponent::Link(l) => {
                r.link_forwarded += l.stats.forwarded;
                r.link_busy_us += l.stats.busy_us;
                r.link_peak_backlog_us = r.link_peak_backlog_us.max(l.stats.peak_backlog_us);
            }
            SceneComponent::Client(c) => {
                r.clients += 1;
                r.requests += c.issued;
                match c.finished {
                    Some(t) => r.makespan = r.makespan.max(t),
                    None => unfinished += 1,
                }
            }
            SceneComponent::Scheduler(s) => r.grants += s.grants,
        }
    }
    if unfinished > 0 {
        return Err(format!("{unfinished} clients never finished"));
    }
    Ok((r, group_total))
}

/// Output checks on one finished scene. Returns one message per failed
/// check: every client of the spec finished, every request was answered
/// by a read or a write, and the per-residency energy parts are finite,
/// non-negative and sum to `group_total`, the energy summed group by
/// group.
pub fn check_scene(r: &SceneResult, spec: &SceneSpec, group_total: f64) -> Vec<String> {
    let mut failures = Vec::new();
    if r.clients != spec.clients.len() {
        failures.push(format!(
            "{} of {} clients finished",
            r.clients,
            spec.clients.len()
        ));
    }
    if r.requests != r.reads + r.buffered_writes + r.direct_writes {
        failures.push(format!(
            "{} requests but {} reads and {} writes served",
            r.requests,
            r.reads,
            r.buffered_writes + r.direct_writes
        ));
    }
    let e = &r.energy;
    let parts = [e.active_j, e.idle_j, e.standby_j, e.spin_up_j];
    if parts.iter().any(|p| !p.is_finite() || *p < 0.0)
        || (e.total() - group_total).abs() > 1e-9 * group_total.abs().max(1.0)
    {
        failures.push(format!(
            "energy parts {parts:?} do not sum to the groups' total {group_total} J"
        ));
    }
    failures
}

fn count_result(c: &mut Counts, r: &SceneResult) {
    c.add("simkit.kernel_events", r.events as f64);
    c.add("simkit.shard_epochs", r.epochs as f64);
    c.add("simkit.shard_messages", r.messages as f64);
    c.add("runtime.scene_disk_requests", r.disk_requests as f64);
    c.add("runtime.scene_spin_ups", r.spin_ups as f64);
    c.add("runtime.scene_link_busy", r.link_busy_us as f64 * 1e-6);
}
