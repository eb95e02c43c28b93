//! Golden diagnostics: the exact one-line `Display` rendering of each
//! rejected configuration, and the exit-code class it maps to.
//!
//! These strings are what the `repro` CLI prints (prefixed `repro: `) and
//! what scripted callers match on; a wording change here is a breaking
//! change and must be deliberate.

use sdds::{SddsError, SystemConfig};
use sdds_compiler::SlotGranularity;
use sdds_workloads::WorkloadScale;

/// Applies `set` to the paper defaults, asserts rejection, and returns
/// (message, exit code).
fn reject(set: impl FnOnce(&mut SystemConfig)) -> (String, i32) {
    let mut cfg = SystemConfig::paper_defaults();
    set(&mut cfg);
    let err = cfg.validate().expect_err("config should be rejected");
    let msg = err.to_string();
    let code = SddsError::from(err).exit_code();
    (msg, code)
}

#[test]
fn zero_io_nodes() {
    let (msg, code) = reject(|c| c.io_nodes = 0);
    assert_eq!(
        msg,
        "invalid storage configuration: I/O node count must be in 1..=64, got 0"
    );
    assert_eq!(code, 3);
}

#[test]
fn zero_stripe() {
    let (msg, code) = reject(|c| c.stripe_bytes = 0);
    assert_eq!(
        msg,
        "invalid storage configuration: stripe size must be positive"
    );
    assert_eq!(code, 3);
}

#[test]
fn zero_cache() {
    let (msg, code) = reject(|c| c.cache.capacity_bytes = 0);
    assert_eq!(
        msg,
        "invalid storage configuration: cache capacity (0 B) must hold at least one 65536 B block"
    );
    assert_eq!(code, 3);
}

#[test]
fn buffer_smaller_than_stripe() {
    let (msg, code) = reject(|c| c.engine.buffer_capacity = 0);
    assert_eq!(
        msg,
        "engine buffer (0 B) must hold at least one stripe (65536 B)"
    );
    assert_eq!(code, 3);
}

#[test]
fn zero_theta() {
    let (msg, code) = reject(|c| c.scheduler.theta = Some(0));
    assert_eq!(
        msg,
        "invalid scheduler configuration: scheduler knob `theta` must be >= 1 when set, got 0"
    );
    assert_eq!(code, 3);
}

#[test]
fn zero_procs() {
    let (msg, code) = reject(|c| {
        c.scale = WorkloadScale {
            procs: 0,
            factor: 1.0,
            gap_factor: 1.0,
        }
    });
    assert_eq!(msg, "workload scale needs at least one client process");
    assert_eq!(code, 3);
}

#[test]
fn non_finite_scale_factor() {
    let (msg, code) = reject(|c| {
        c.scale = WorkloadScale {
            procs: 4,
            factor: f64::NAN,
            gap_factor: 1.0,
        }
    });
    assert_eq!(
        msg,
        "workload scale `factor` must be a finite positive number, got NaN"
    );
    assert_eq!(code, 3);
}

#[test]
fn zero_granularity() {
    let (msg, code) = reject(|c| {
        c.granularity = SlotGranularity {
            iterations_per_slot: 0,
            access_bytes_per_slot: None,
        }
    });
    assert_eq!(msg, "slot granularity quanta must be positive");
    assert_eq!(code, 3);
}

#[test]
fn top_level_wrapping_adds_the_config_prefix() {
    let err = SystemConfig::paper_defaults()
        .with_io_nodes(0)
        .validate()
        .unwrap_err();
    let top = SddsError::from(err);
    assert_eq!(
        top.to_string(),
        "configuration rejected: invalid storage configuration: \
         I/O node count must be in 1..=64, got 0"
    );
}
