//! Property: a `SystemConfig` whose fields are set to arbitrary knob
//! values either validates or is rejected with a typed
//! [`sdds::ConfigError`]; validation never panics, whatever the inputs.

use proptest::prelude::*;
use sdds::{SddsError, SystemConfig};
use sdds_compiler::SlotGranularity;
use sdds_workloads::WorkloadScale;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Knobs drawn from ranges that straddle the valid/invalid boundary
    /// (zero node counts, zero stripes, empty buffers, non-finite scale
    /// factors, zero-quantum granularities).
    #[test]
    fn fields_validate_or_reject_without_panicking(
        io_nodes in 0usize..33,
        stripe_kb in 0u64..129,
        cache_mb in 0u64..65,
        buffer_mb in 0u64..65,
        procs in 0usize..5,
        factor in prop_oneof![
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(-1.0),
            Just(0.0),
            0.05f64..1.5,
        ],
        gap_factor in prop_oneof![Just(0.0), Just(-0.5), 0.05f64..1.5],
        delta in 0u32..50,
        theta in 0u16..9,
        iterations_per_slot in 0u32..4,
    ) {
        let mut cfg = SystemConfig::paper_defaults();
        cfg.io_nodes = io_nodes;
        cfg.stripe_bytes = stripe_kb * 1024;
        cfg.cache.capacity_bytes = cache_mb * 1024 * 1024;
        cfg.engine.buffer_capacity = buffer_mb * 1024 * 1024;
        cfg.scheduler.delta = delta;
        cfg.scheduler.theta = if theta == 0 { None } else { Some(theta) };
        cfg.granularity = SlotGranularity {
            iterations_per_slot,
            access_bytes_per_slot: None,
        };
        cfg.scale = WorkloadScale {
            procs,
            factor,
            gap_factor,
        };
        match cfg.validate() {
            Ok(()) => {
                // The inputs of a valid config really were inside every
                // constraint.
                prop_assert!(io_nodes > 0 && stripe_kb > 0 && procs > 0);
                prop_assert!(factor.is_finite() && factor > 0.0);
                prop_assert!(iterations_per_slot > 0);
                prop_assert!(buffer_mb * 1024 >= stripe_kb);
            }
            Err(e) => {
                // A rejection is a typed, printable error in the config
                // class — never a panic, never an empty message.
                prop_assert!(!e.to_string().is_empty());
                prop_assert_eq!(SddsError::from(e).exit_code(), 3);
            }
        }
    }
}
