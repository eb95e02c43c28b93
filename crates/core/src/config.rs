//! System configuration and the end-to-end runner.

use crate::cache::{CompileCache, CompiledSchedule, ScheduleKey, TraceKey};
use crate::error::{CompileError, ConfigError, EngineError, SddsError, StorageError};
use sdds_compiler::ir::Program;
use sdds_compiler::{analyze_slacks, ProgramTrace, SchedulerConfig, SlotGranularity};
use sdds_disk::DiskParams;
use sdds_power::PolicyKind;
use sdds_runtime::{CompiledPlan, Engine, EngineConfig, RunResult};
use sdds_storage::{CacheConfig, NodeConfig, RaidConfig, RaidLevel, StorageConfig, StripingLayout};
use sdds_workloads::{App, WorkloadScale};
use simkit::fault::{FaultPlan, FaultSpec};
use simkit::kernel::ArbitrationPolicy;
use simkit::SimDuration;
use std::time::Instant;

/// The full simulated platform plus framework knobs — one value per
/// experimental configuration.
///
/// Field defaults come from Table II; the sensitivity experiments of §V-D
/// vary exactly one field at a time.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Number of I/O nodes (Table II: 8).
    pub io_nodes: usize,
    /// Stripe size in bytes (Table II: 64 KB).
    pub stripe_bytes: u64,
    /// RAID organization inside each I/O node (Table II lists levels 5
    /// and 10; 5 is the default).
    pub raid_level: RaidLevel,
    /// Member disks per I/O node.
    pub disks_per_node: usize,
    /// Member-disk timing and power parameters.
    pub disk: DiskParams,
    /// Per-node storage-cache configuration (Table II: 64 MB).
    pub cache: CacheConfig,
    /// The hardware power-saving strategy.
    pub policy: PolicyKind,
    /// Client-side engine parameters (network, prefetch buffer).
    pub engine: EngineConfig,
    /// Compiler scheduling parameters (δ = 20, θ = 4 per Table II).
    pub scheduler: SchedulerConfig,
    /// Scheduling-slot granularity.
    pub granularity: SlotGranularity,
    /// Whether the software-directed scheduling framework is applied.
    pub scheme_enabled: bool,
    /// Workload scale (32 processes at paper scale).
    pub scale: WorkloadScale,
    /// Whether to collect structured trace events and metrics during the
    /// run (attached to the outcome as a
    /// [`TelemetryReport`](sdds_runtime::TelemetryReport)). Off by
    /// default; telemetry never changes simulated results.
    pub telemetry: bool,
    /// Optional fault-injection scenario. `None` (the default) leaves
    /// every simulated metric bit-for-bit identical to a build without
    /// the fault subsystem; `Some` expands deterministically into a
    /// per-disk [`FaultPlan`] inside
    /// [`storage_config`](SystemConfig::storage_config).
    pub fault: Option<FaultSpec>,
}

impl SystemConfig {
    /// Table II defaults with no power management and the scheme off (the
    /// paper's Default Scheme, which all results are normalized against).
    pub fn paper_defaults() -> Self {
        SystemConfig {
            io_nodes: 8,
            stripe_bytes: 64 * 1024,
            // Power management happens at the I/O-node level and the paper
            // "uses the terms I/O node and disk interchangeably" (§II), so
            // the default models one disk per node; RAID 5/10 remain
            // available for the intra-node organizations Table II lists.
            raid_level: RaidLevel::Single,
            disks_per_node: 1,
            disk: DiskParams::paper_defaults(),
            cache: CacheConfig::paper_defaults(),
            policy: PolicyKind::NoPm,
            engine: EngineConfig::paper_defaults(),
            scheduler: SchedulerConfig::paper_defaults(),
            granularity: SlotGranularity::unit(),
            scheme_enabled: false,
            scale: WorkloadScale::paper(),
            telemetry: false,
            fault: None,
        }
    }

    /// Returns a copy with a different power policy.
    pub fn with_policy(&self, policy: PolicyKind) -> Self {
        SystemConfig {
            policy,
            ..self.clone()
        }
    }

    /// Returns a copy with the software scheme switched on or off.
    pub fn with_scheme(&self, enabled: bool) -> Self {
        SystemConfig {
            scheme_enabled: enabled,
            ..self.clone()
        }
    }

    /// Returns a copy with telemetry collection switched on or off.
    pub fn with_telemetry(&self, enabled: bool) -> Self {
        SystemConfig {
            telemetry: enabled,
            ..self.clone()
        }
    }

    /// Returns a copy with a different same-time arbitration policy for
    /// the engine's event calendar ([`EngineConfig::arbitration`]), the
    /// only calendar a run keeps. The storage side steps each node's
    /// disks and policy timer in a fixed order, so the knob does not
    /// reach it.
    pub fn with_arbitration(&self, arbitration: ArbitrationPolicy) -> Self {
        let mut c = self.clone();
        c.engine.arbitration = arbitration;
        c
    }

    /// Returns a copy running under a fault-injection scenario (or with
    /// faults removed when `fault` is `None`).
    ///
    /// Enabling faults also arms the engine's prefetch timeout (when not
    /// already set) at 30 simulated seconds — far beyond any shipped
    /// crash window, so it never fires in practice but guarantees the
    /// engine cannot deadlock on a prefetch lost to a fault.
    pub fn with_fault(&self, fault: Option<FaultSpec>) -> Self {
        let mut c = self.clone();
        if fault.is_some() && c.engine.prefetch_timeout.is_none() {
            c.engine.prefetch_timeout = Some(SimDuration::from_secs(30));
        }
        c.fault = fault;
        c
    }

    /// Returns a copy with a different number of I/O nodes (Fig. 13(c)).
    pub fn with_io_nodes(&self, io_nodes: usize) -> Self {
        SystemConfig {
            io_nodes,
            ..self.clone()
        }
    }

    /// Returns a copy with a different δ (Fig. 13(d)).
    pub fn with_delta(&self, delta: u32) -> Self {
        let mut c = self.clone();
        c.scheduler.delta = delta;
        c
    }

    /// Returns a copy with a different θ (Fig. 14); `None` removes the
    /// constraint.
    pub fn with_theta(&self, theta: Option<u16>) -> Self {
        let mut c = self.clone();
        c.scheduler.theta = theta;
        c
    }

    /// Returns a copy with a different per-node storage-cache capacity
    /// (§V-D's cache sensitivity).
    pub fn with_cache_mb(&self, megabytes: u64) -> Self {
        let mut c = self.clone();
        c.cache.capacity_bytes = megabytes * 1024 * 1024;
        c
    }

    /// Checks every cross-layer constraint of this configuration:
    /// striping and RAID geometry, cache capacity, power-policy knobs,
    /// scheduler knobs, prefetch-buffer capacity versus stripe size,
    /// slot-granularity quanta, and the workload scale.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        StripingLayout::new(self.stripe_bytes, self.io_nodes)?;
        RaidConfig::new(
            self.raid_level,
            self.disks_per_node,
            self.stripe_bytes,
            self.disk.sector_bytes,
        )?;
        self.cache.validate()?;
        self.policy
            .validate(&self.disk)
            .map_err(sdds_storage::StorageError::from)?;
        self.scheduler.validate().map_err(ConfigError::Scheduler)?;
        if self.engine.buffer_capacity < self.stripe_bytes {
            return Err(ConfigError::BufferTooSmall {
                buffer_bytes: self.engine.buffer_capacity,
                stripe_bytes: self.stripe_bytes,
            });
        }
        if self.granularity.iterations_per_slot == 0
            || self.granularity.access_bytes_per_slot == Some(0)
        {
            return Err(ConfigError::ZeroGranularity);
        }
        if self.scale.procs == 0 {
            return Err(ConfigError::ZeroProcs);
        }
        for (field, value) in [
            ("factor", self.scale.factor),
            ("gap_factor", self.scale.gap_factor),
        ] {
            if !value.is_finite() || value <= 0.0 {
                return Err(ConfigError::BadScaleFactor { field, value });
            }
        }
        if let Some(spec) = &self.fault {
            spec.validate().map_err(ConfigError::Fault)?;
        }
        Ok(())
    }

    /// The storage-side configuration this system describes.
    ///
    /// # Errors
    ///
    /// Returns a [`StorageError`] when the striping or RAID geometry is
    /// invalid (never after a successful [`SystemConfig::validate`]).
    pub fn storage_config(&self) -> Result<StorageConfig, StorageError> {
        Ok(StorageConfig {
            layout: StripingLayout::new(self.stripe_bytes, self.io_nodes)?,
            node: NodeConfig {
                cache: self.cache.clone(),
                raid: RaidConfig::new(
                    self.raid_level,
                    self.disks_per_node,
                    self.stripe_bytes,
                    self.disk.sector_bytes,
                )?,
                disk: self.disk.clone(),
                policy: self.policy.clone(),
                hit_latency: SimDuration::from_micros(500),
                faults: self.fault.as_ref().map(|spec| {
                    FaultPlan::generate(
                        spec,
                        self.io_nodes,
                        self.disks_per_node,
                        self.disk.total_sectors(),
                    )
                }),
            },
        })
    }
}

/// The result of one end-to-end run, together with compile-side statistics.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Runtime results: execution time, energy, idle CDF, buffer stats.
    pub result: RunResult,
    /// Number of I/O accesses analyzed (0 when the scheme is off).
    pub analyzed_accesses: usize,
    /// Accesses moved earlier than their original points.
    pub moved_earlier: usize,
    /// Mean advance in slots over all accesses.
    pub mean_advance: f64,
    /// Wall-clock time the compiler pass took (slack analysis plus
    /// scheduling; the paper reports ~1.4 s worst case).
    pub compile_seconds: f64,
}

/// Maps an [`EngineError`] from one run onto [`SddsError`], peeling the
/// storage-rejection case out to its own class (and exit code).
fn engine_error(app: &str, e: EngineError) -> SddsError {
    match e {
        EngineError::Storage(source) => SddsError::Storage {
            app: app.to_string(),
            source,
        },
        source => SddsError::Engine {
            app: app.to_string(),
            source,
        },
    }
}

/// Runs `app` under `cfg` end to end, memoizing compiler work in the
/// process-wide [`CompileCache`](crate::cache::CompileCache).
///
/// # Errors
///
/// Returns [`SddsError::Config`] when `cfg` fails validation, and the
/// compile/storage/engine variants when the corresponding layer rejects
/// or aborts the run.
pub fn run(app: App, cfg: &SystemConfig) -> Result<Outcome, SddsError> {
    run_with(app, cfg, CompileCache::global())
}

/// [`run`] against an explicit compilation cache (tests use a private
/// cache to assert exact hit/miss/build counts).
///
/// # Errors
///
/// As for [`run`].
pub fn run_with(app: App, cfg: &SystemConfig, cache: &CompileCache) -> Result<Outcome, SddsError> {
    cfg.validate().map_err(SddsError::Config)?;
    let phase_started = Instant::now();
    let trace_key = TraceKey {
        app,
        scale: cfg.scale,
        granularity: cfg.granularity,
    };
    let trace = cache
        .trace_or_insert(&trace_key, || {
            app.program(&cfg.scale)
                .trace(cfg.granularity)
                .map_err(CompileError::from)
        })
        .map_err(|source| SddsError::Compile {
            app: app.name().to_string(),
            source,
        })?;
    let engine = engine_for(app.name(), cfg)?;
    let compiled = if cfg.scheme_enabled {
        let schedule_key = ScheduleKey {
            trace: trace_key,
            io_nodes: cfg.io_nodes,
            stripe_bytes: cfg.stripe_bytes,
            scheduler: cfg.scheduler.clone(),
        };
        Some(cache.schedule_or_insert(&schedule_key, || compile(&trace, cfg))?)
    } else {
        None
    };
    simulate(&trace, engine, compiled.as_deref(), phase_started)
}

/// One timed compiler pass over `trace`: slack analysis plus scheduling,
/// on the striping layout `cfg` describes.
pub(crate) fn compile(
    trace: &ProgramTrace,
    cfg: &SystemConfig,
) -> Result<CompiledSchedule, SddsError> {
    let layout = StripingLayout::new(cfg.stripe_bytes, cfg.io_nodes).map_err(|source| {
        SddsError::Storage {
            app: trace.name.clone(),
            source,
        }
    })?;
    let compile_error = |source| SddsError::Compile {
        app: trace.name.clone(),
        source,
    };
    let started = Instant::now();
    let accesses = analyze_slacks(trace, &layout).map_err(compile_error)?;
    let table = cfg
        .scheduler
        .schedule(&accesses, trace)
        .map_err(compile_error)?;
    let compile_seconds = started.elapsed().as_secs_f64();
    let moved_earlier = table.moved_earlier();
    let mean_advance = table.mean_advance();
    Ok(CompiledSchedule {
        accesses,
        table,
        compile_seconds,
        moved_earlier,
        mean_advance,
    })
}

/// The engine for one run under `cfg`, telemetry switched on if `cfg`
/// asks for it.
///
/// The runners build it before they compile a schedule: built after the
/// compile, with the same work done, it more than doubled the minor page
/// faults of a perfbench `paper-matrix` repetition (about 1,800 against
/// 700).
pub(crate) fn engine_for(app: &str, cfg: &SystemConfig) -> Result<Engine, SddsError> {
    let storage = cfg.storage_config().map_err(|source| SddsError::Storage {
        app: app.to_string(),
        source,
    })?;
    let mut engine = Engine::new(cfg.engine.clone(), storage).map_err(|e| engine_error(app, e))?;
    if cfg.telemetry {
        engine.enable_telemetry();
    }
    Ok(engine)
}

/// The simulate step every runner ends in: runs `trace` on `engine`
/// (following `compiled`'s schedule when there is one) and adds the run's
/// compile/simulation split, measured from `phase_started`, to the
/// process-wide phase counters.
pub(crate) fn simulate(
    trace: &ProgramTrace,
    engine: Engine,
    compiled: Option<&CompiledSchedule>,
    phase_started: Instant,
) -> Result<Outcome, SddsError> {
    let app = trace.name.as_str();
    let compile_elapsed = phase_started.elapsed();
    let sim_started = Instant::now();
    let plan = compiled.map(|c| CompiledPlan::new(&c.accesses, &c.table));
    let result = engine.run(trace, plan).map_err(|e| engine_error(app, e))?;
    crate::experiments::note_phase(compile_elapsed, sim_started.elapsed());
    Ok(match compiled {
        Some(c) => Outcome {
            result,
            analyzed_accesses: c.accesses.len(),
            moved_earlier: c.moved_earlier,
            mean_advance: c.mean_advance,
            compile_seconds: c.compile_seconds,
        },
        None => Outcome {
            result,
            analyzed_accesses: 0,
            moved_earlier: 0,
            mean_advance: 0.0,
            compile_seconds: 0.0,
        },
    })
}

/// Runs an arbitrary loop-nest program under `cfg`: traces it, optionally
/// compiles a schedule, and simulates execution. Arbitrary programs have
/// no cache identity, so this path never memoizes.
///
/// # Errors
///
/// As for [`run`]; a program that fails validation or exceeds the
/// supported slot count reports as [`SddsError::Compile`].
pub fn run_program(
    program: &Program,
    granularity: SlotGranularity,
    cfg: &SystemConfig,
) -> Result<Outcome, SddsError> {
    let trace = program.trace(granularity).map_err(|e| SddsError::Compile {
        app: program.name().to_string(),
        source: CompileError::from(e),
    })?;
    run_trace(&trace, cfg)
}

/// Runs an already-extracted program trace under `cfg` — the entry point
/// for multi-application workloads built with
/// [`ProgramTrace::merge`](sdds_compiler::ProgramTrace::merge). Merged
/// traces have no cache identity, so this path never memoizes.
///
/// # Errors
///
/// As for [`run`].
pub fn run_trace(trace: &ProgramTrace, cfg: &SystemConfig) -> Result<Outcome, SddsError> {
    cfg.validate().map_err(SddsError::Config)?;
    let phase_started = Instant::now();
    let engine = engine_for(&trace.name, cfg)?;
    let compiled = if cfg.scheme_enabled {
        Some(compile(trace, cfg)?)
    } else {
        None
    };
    simulate(trace, engine, compiled.as_ref(), phase_started)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_cfg() -> SystemConfig {
        let mut cfg = SystemConfig::paper_defaults();
        cfg.scale = WorkloadScale::test();
        cfg
    }

    #[test]
    fn default_scheme_runs_every_app() {
        let cfg = test_cfg();
        for app in App::all() {
            let o = run(app, &cfg).unwrap();
            assert!(o.result.exec_time > SimDuration::ZERO, "{app} ran");
            assert!(o.result.energy_joules > 0.0);
            assert_eq!(o.analyzed_accesses, 0);
        }
    }

    #[test]
    fn scheme_compiles_and_runs() {
        let cfg = test_cfg().with_scheme(true);
        let o = run(App::Sar, &cfg).unwrap();
        assert!(o.analyzed_accesses > 0);
        assert!(o.compile_seconds >= 0.0);
        assert!(o.result.exec_time > SimDuration::ZERO);
    }

    #[test]
    fn builders_change_one_knob() {
        let base = SystemConfig::paper_defaults();
        assert_eq!(base.with_io_nodes(16).io_nodes, 16);
        assert_eq!(base.with_delta(40).scheduler.delta, 40);
        assert_eq!(base.with_theta(Some(2)).scheduler.theta, Some(2));
        assert_eq!(base.with_theta(None).scheduler.theta, None);
        assert_eq!(
            base.with_cache_mb(32).cache.capacity_bytes,
            32 * 1024 * 1024
        );
        assert!(base.with_scheme(true).scheme_enabled);
        assert_eq!(
            base.with_policy(PolicyKind::staggered_default()).policy,
            PolicyKind::staggered_default()
        );
        // The base is untouched.
        assert_eq!(base.io_nodes, 8);
        assert!(!base.scheme_enabled);
    }

    #[test]
    fn storage_config_reflects_fields() {
        let cfg = SystemConfig::paper_defaults().with_io_nodes(4);
        let sc = cfg.storage_config().unwrap();
        assert_eq!(sc.layout.io_nodes(), 4);
        assert_eq!(sc.layout.stripe_bytes(), 64 * 1024);
        assert_eq!(sc.node.raid.disks(), 1);
        // The Table II RAID organizations remain available.
        let mut raid5 = SystemConfig::paper_defaults();
        raid5.raid_level = sdds_storage::RaidLevel::Raid5;
        raid5.disks_per_node = 4;
        assert_eq!(raid5.storage_config().unwrap().node.raid.disks(), 4);
    }

    #[test]
    fn deterministic_end_to_end() {
        let cfg = test_cfg()
            .with_policy(PolicyKind::history_based_default())
            .with_scheme(true);
        let a = run(App::Madbench2, &cfg).unwrap();
        let b = run(App::Madbench2, &cfg).unwrap();
        assert_eq!(a.result.exec_time, b.result.exec_time);
        assert_eq!(a.result.energy_joules, b.result.energy_joules);
    }

    #[test]
    fn policies_do_not_break_apps() {
        let cfg = test_cfg();
        for policy in PolicyKind::paper_strategies() {
            let o = run(App::Astro, &cfg.with_policy(policy.clone())).unwrap();
            assert!(
                o.result.exec_time > SimDuration::ZERO,
                "{} hangs",
                policy.name()
            );
        }
    }
}
