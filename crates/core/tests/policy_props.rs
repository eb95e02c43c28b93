//! Cross-policy guarantees of the unified decision layer: every
//! `EnergyPolicy` behind the online comparison — the distilled table
//! lookup, the online learners and the hybrid — preserves the
//! application's bytes under fault injection, and each decision layer is
//! deterministic end to end.

use sdds::{run_mode, table_policy_for, OnlineMode, SystemConfig};
use sdds_compiler::{ProgramTrace, SlotGranularity};
use sdds_power::PolicyKind;
use sdds_workloads::KeyedWorkloadSpec;
use simkit::fault::FaultSpec;

fn base_cfg() -> SystemConfig {
    SystemConfig::paper_defaults()
}

fn keyed_trace(seed: u64) -> ProgramTrace {
    KeyedWorkloadSpec::zipfian_hot_set(seed)
        .program()
        .trace(SlotGranularity::unit())
        .unwrap()
}

/// Every (policy family, fault plan) cell moves exactly the bytes the
/// fault-free twin moves: recovery under any decision layer loses
/// nothing and duplicates nothing.
#[test]
fn no_policy_loses_bytes_under_faults() {
    let cfg = base_cfg();
    let trace = keyed_trace(17);
    let policies: Vec<(&str, PolicyKind)> = vec![
        ("table-lookup", table_policy_for(&trace, &cfg).unwrap()),
        ("online-speed", PolicyKind::online_multi_speed_default(17)),
        ("hybrid", PolicyKind::hybrid_default(17)),
    ];
    for (name, policy) in policies {
        for scheme in [false, true] {
            let clean_cfg = cfg.with_policy(policy.clone()).with_scheme(scheme);
            let clean = sdds::run_trace(&trace, &clean_cfg).unwrap();
            for (scenario, spec) in [
                ("light", FaultSpec::light(29)),
                ("heavy", FaultSpec::heavy(29)),
            ] {
                let faulty_cfg = clean_cfg.with_fault(Some(spec));
                let faulty = sdds::run_trace(&trace, &faulty_cfg).unwrap();
                assert_eq!(
                    clean.result.bytes_moved, faulty.result.bytes_moved,
                    "{name} (scheme={scheme}) lost bytes under the {scenario} scenario"
                );
            }
        }
    }
}

/// The three decision layers of `repro online` are deterministic: the
/// same seed reproduces execution time and energy bit-for-bit, and all
/// layers agree on the bytes the application moved.
#[test]
fn decision_layers_are_deterministic_and_byte_equal() {
    let cfg = base_cfg();
    let trace = keyed_trace(99);
    let mut bytes = None;
    for mode in OnlineMode::all() {
        let a = run_mode(&trace, &cfg, mode, 99).unwrap();
        let b = run_mode(&trace, &cfg, mode, 99).unwrap();
        assert_eq!(a.result.exec_time, b.result.exec_time, "{mode}");
        assert_eq!(
            a.result.energy_joules.to_bits(),
            b.result.energy_joules.to_bits(),
            "{mode}"
        );
        match bytes {
            None => bytes = Some(a.result.bytes_moved),
            Some(expected) => assert_eq!(
                a.result.bytes_moved, expected,
                "{mode} moved different application bytes"
            ),
        }
    }
}

/// The online policies' jitter comes from the seed: distinct seeds may
/// shift decisions, but never the bytes moved.
#[test]
fn online_seeds_never_change_bytes() {
    let cfg = base_cfg();
    let trace = keyed_trace(3);
    let a = run_mode(&trace, &cfg, OnlineMode::Online, 1).unwrap();
    let b = run_mode(&trace, &cfg, OnlineMode::Online, 2).unwrap();
    assert_eq!(a.result.bytes_moved, b.result.bytes_moved);
}

/// An exhausted or empty forecast table degrades to no power management
/// rather than crashing or stalling the run.
#[test]
fn empty_forecast_table_runs_clean() {
    let cfg = base_cfg();
    let trace = keyed_trace(5);
    let empty = PolicyKind::TableLookup {
        forecasts: std::sync::Arc::new(vec![Vec::new(); cfg.io_nodes]),
    };
    let nopm = sdds::run_trace(&trace, &cfg.with_policy(PolicyKind::NoPm)).unwrap();
    let degraded = sdds::run_trace(&trace, &cfg.with_policy(empty)).unwrap();
    assert_eq!(nopm.result.bytes_moved, degraded.result.bytes_moved);
    assert_eq!(
        nopm.result.energy_joules.to_bits(),
        degraded.result.energy_joules.to_bits(),
        "an empty table must behave exactly like NoPm"
    );
}
