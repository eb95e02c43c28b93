//! Compile-time vs. online decision layers on the same workload.
//!
//! The paper's scheme needs the whole access pattern at compile time; the
//! online policy family (`sdds-power`) learns the same idleness signals
//! from the live request stream. This module puts both on one footing:
//!
//! * [`table_policy_for`] distills a compiled schedule into the per-node
//!   idle forecasts a [`PolicyKind::TableLookup`] policy replays — the
//!   compile-time tables expressed as just another [`EnergyPolicy`]
//!   (`sdds_power::EnergyPolicy`) implementation.
//! * [`OnlineMode`] names the three decision layers the `repro online`
//!   experiment compares, and [`run_mode`] runs one of them over an
//!   arbitrary trace.
//!
//! Everything here is deterministic: forecasts are integer microseconds
//! derived from the trace, and the online family draws its jitter from a
//! seeded [`DetRng`](simkit::rng::DetRng) substream.

use crate::cache::CompiledSchedule;
use crate::config::{compile, engine_for, run_trace, simulate, Outcome, SystemConfig};
use crate::error::SddsError;
use sdds_compiler::ProgramTrace;
use sdds_power::PolicyKind;
use sdds_storage::StripingLayout;
use simkit::SimDuration;
use std::sync::Arc;
use std::time::Instant;

/// Which decision layer drives the disks in an online-comparison cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnlineMode {
    /// The compile-time path: software scheme on, disks driven by a
    /// [`PolicyKind::TableLookup`] policy distilled from the schedule.
    Table,
    /// The online path: no compiler involvement at all — the scheme is
    /// off and the disks are driven by the learning
    /// [`PolicyKind::OnlineMultiSpeed`] policy.
    Online,
    /// The corrected path: scheme on, disks driven by
    /// [`PolicyKind::Hybrid`], which starts from table-calibrated
    /// predictions and switches to online learning once it has seen
    /// enough of the live stream.
    Hybrid,
}

impl OnlineMode {
    /// All modes in report order.
    pub fn all() -> [OnlineMode; 3] {
        [OnlineMode::Table, OnlineMode::Online, OnlineMode::Hybrid]
    }

    /// Stable name used in reports and on the command line.
    pub fn name(&self) -> &'static str {
        match self {
            OnlineMode::Table => "table",
            OnlineMode::Online => "online",
            OnlineMode::Hybrid => "hybrid",
        }
    }

    /// Parses a mode name as accepted on the command line.
    pub fn parse(s: &str) -> Option<OnlineMode> {
        OnlineMode::all().into_iter().find(|m| m.name() == s)
    }
}

impl std::fmt::Display for OnlineMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Distills a compiled schedule for `trace` into a
/// [`PolicyKind::TableLookup`] policy: per I/O node, the sequence of idle
/// gaps (in microseconds) the schedule predicts between consecutive
/// scheduled accesses on that node.
///
/// Slot boundaries are estimated barrier-style — each slot lasts as long
/// as the slowest process's compute phase in it — which is exactly the
/// signal the compiler's δ-window reasoning uses. Gaps shorter than one
/// scheduling slot are dropped: the runtime never sees them as idleness.
///
/// # Errors
///
/// Returns [`SddsError::Config`] when `cfg` fails validation and
/// [`SddsError::Compile`] when slack analysis or scheduling rejects the
/// trace.
pub fn table_policy_for(trace: &ProgramTrace, cfg: &SystemConfig) -> Result<PolicyKind, SddsError> {
    cfg.validate().map_err(SddsError::Config)?;
    distill(trace, cfg, &compile(trace, cfg)?)
}

/// The [`PolicyKind::TableLookup`] policy of [`table_policy_for`], from a
/// schedule already compiled for `trace` under `cfg`.
fn distill(
    trace: &ProgramTrace,
    cfg: &SystemConfig,
    compiled: &CompiledSchedule,
) -> Result<PolicyKind, SddsError> {
    let layout = StripingLayout::new(cfg.stripe_bytes, cfg.io_nodes).map_err(|source| {
        SddsError::Storage {
            app: trace.name.clone(),
            source,
        }
    })?;

    // Estimated wall-clock start of every slot: slot s begins once the
    // slowest process has finished its compute for slots 0..s.
    let total = trace.total_slots as usize;
    let mut start = vec![SimDuration::ZERO; total + 1];
    let mut acc = SimDuration::ZERO;
    for s in 0..total {
        let per_slot = trace
            .processes
            .iter()
            .filter_map(|p| p.compute.get(s))
            .max()
            .copied()
            .unwrap_or(SimDuration::ZERO);
        acc += per_slot;
        start[s + 1] = acc;
    }

    // Active slots per node under the *scheduled* points.
    let mut active: Vec<Vec<u32>> = vec![Vec::new(); cfg.io_nodes];
    for e in compiled.table.iter() {
        let node = layout.node_of(e.io.file, e.io.offset);
        active[node].push(e.slot);
    }

    let forecasts = active
        .into_iter()
        .map(|mut slots| {
            slots.sort_unstable();
            slots.dedup();
            slots
                .windows(2)
                .filter(|w| w[1] > w[0] + 1)
                .map(|w| {
                    // Idle runs from the end of the active slot to the
                    // start of the next one.
                    let gap = start[w[1] as usize].saturating_sub(start[w[0] as usize + 1]);
                    gap.as_micros()
                })
                .filter(|&us| us > 0)
                .collect::<Vec<u64>>()
        })
        .collect::<Vec<_>>();

    Ok(PolicyKind::TableLookup {
        forecasts: Arc::new(forecasts),
    })
}

/// Runs `trace` under one [`OnlineMode`], returning the end-to-end
/// [`Outcome`].
///
/// The mode overrides `cfg`'s `policy` and `scheme_enabled` fields (the
/// table and hybrid modes run with the scheme on, the online mode with it
/// off); every other knob is taken from `cfg` as given. `seed` feeds the
/// online family's jitter substreams and is ignored by the table mode.
///
/// # Errors
///
/// As for [`run_trace`](crate::run_trace).
pub fn run_mode(
    trace: &ProgramTrace,
    cfg: &SystemConfig,
    mode: OnlineMode,
    seed: u64,
) -> Result<Outcome, SddsError> {
    let cell = match mode {
        OnlineMode::Table => {
            // One compile serves both the distilled policy and the run. The
            // cell differs from `cfg` only in that policy, which has no
            // parameter to validate.
            cfg.validate().map_err(SddsError::Config)?;
            let phase_started = Instant::now();
            let compiled = compile(trace, cfg)?;
            let cell = cfg
                .with_policy(distill(trace, cfg, &compiled)?)
                .with_scheme(true);
            let engine = engine_for(&trace.name, &cell)?;
            return simulate(trace, engine, Some(&compiled), phase_started);
        }
        OnlineMode::Online => cfg
            .with_policy(PolicyKind::online_multi_speed_default(seed))
            .with_scheme(false),
        OnlineMode::Hybrid => cfg
            .with_policy(PolicyKind::hybrid_default(seed))
            .with_scheme(true),
    };
    run_trace(trace, &cell)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdds_workloads::{App, WorkloadScale};

    fn test_cfg() -> SystemConfig {
        let mut cfg = SystemConfig::paper_defaults();
        cfg.scale = WorkloadScale::test();
        cfg
    }

    fn test_trace() -> ProgramTrace {
        let cfg = test_cfg();
        App::Sar.program(&cfg.scale).trace(cfg.granularity).unwrap()
    }

    #[test]
    fn distilled_forecasts_cover_every_node() {
        let cfg = test_cfg();
        let trace = test_trace();
        let PolicyKind::TableLookup { forecasts } = table_policy_for(&trace, &cfg).unwrap() else {
            panic!("expected a table-lookup policy");
        };
        assert_eq!(forecasts.len(), cfg.io_nodes);
        // The workload leaves real gaps on at least one node.
        assert!(forecasts.iter().any(|rows| !rows.is_empty()));
        // Forecasts are strictly positive microsecond counts.
        assert!(forecasts.iter().flatten().all(|&us| us > 0));
    }

    #[test]
    fn distillation_is_deterministic() {
        let cfg = test_cfg();
        let trace = test_trace();
        let a = table_policy_for(&trace, &cfg).unwrap();
        let b = table_policy_for(&trace, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn modes_parse_and_roundtrip() {
        for mode in OnlineMode::all() {
            assert_eq!(OnlineMode::parse(mode.name()), Some(mode));
        }
        assert_eq!(OnlineMode::parse("nope"), None);
    }

    #[test]
    fn every_mode_runs_end_to_end() {
        let cfg = test_cfg();
        let trace = test_trace();
        for mode in OnlineMode::all() {
            let o = run_mode(&trace, &cfg, mode, 7).unwrap();
            assert!(
                o.result.exec_time > SimDuration::ZERO,
                "{mode} produced an empty run"
            );
            assert!(o.result.energy_joules > 0.0);
            // Scheme wiring follows the mode.
            match mode {
                OnlineMode::Online => assert_eq!(o.analyzed_accesses, 0),
                _ => assert!(o.analyzed_accesses > 0),
            }
        }
    }

    #[test]
    fn modes_are_deterministic() {
        let cfg = test_cfg();
        let trace = test_trace();
        for mode in OnlineMode::all() {
            let a = run_mode(&trace, &cfg, mode, 11).unwrap();
            let b = run_mode(&trace, &cfg, mode, 11).unwrap();
            assert_eq!(a.result.exec_time, b.result.exec_time, "{mode}");
            assert_eq!(a.result.energy_joules, b.result.energy_joules, "{mode}");
        }
    }
}
