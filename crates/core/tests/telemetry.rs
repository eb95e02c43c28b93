//! End-to-end telemetry guarantees: the layer is invisible to the
//! simulation (bit-for-bit identical outputs on or off), deterministic
//! across runs, and its per-disk energy table reconciles with the run's
//! headline energy.

use sdds::cache::CompileCache;
use sdds::{run_with, SystemConfig, TraceEvent};
use sdds_power::PolicyKind;
use sdds_workloads::{App, WorkloadScale};
use simkit::span::SpanForest;

fn test_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::paper_defaults()
        .with_policy(PolicyKind::history_based_default())
        .with_scheme(true);
    cfg.scale = WorkloadScale::test();
    cfg
}

#[test]
fn telemetry_is_off_by_default() {
    let cfg = test_cfg();
    assert!(!cfg.telemetry);
    let cache = CompileCache::new();
    let o = run_with(App::Sar, &cfg, &cache).unwrap();
    assert!(o.result.telemetry.is_none());
}

#[test]
fn telemetry_leaves_simulated_results_bit_for_bit_unchanged() {
    let cfg = test_cfg();
    let cache = CompileCache::new();
    let plain = run_with(App::Sar, &cfg, &cache).unwrap();
    let traced = run_with(App::Sar, &cfg.with_telemetry(true), &cache).unwrap();
    assert_eq!(
        plain.result.exec_time, traced.result.exec_time,
        "exec time must not move"
    );
    assert_eq!(
        plain.result.energy_joules.to_bits(),
        traced.result.energy_joules.to_bits(),
        "energy must be bit-for-bit identical"
    );
    assert_eq!(plain.result.energy, traced.result.energy);
    assert_eq!(
        plain.result.idle_histogram.counts(),
        traced.result.idle_histogram.counts()
    );
    assert_eq!(plain.result.buffer, traced.result.buffer);
    assert_eq!(plain.result.prefetch, traced.result.prefetch);
    assert_eq!(plain.result.per_proc_finish, traced.result.per_proc_finish);
    assert_eq!(plain.result.bytes_moved, traced.result.bytes_moved);
    assert_eq!(
        plain.result.mean_read_response.to_bits(),
        traced.result.mean_read_response.to_bits()
    );
}

#[test]
fn traces_are_deterministic_across_runs() {
    let cfg = test_cfg().with_telemetry(true);
    let cache = CompileCache::new();
    let a = run_with(App::Madbench2, &cfg, &cache).unwrap();
    let b = run_with(App::Madbench2, &cfg, &cache).unwrap();
    let (ta, tb) = (
        a.result.telemetry.expect("telemetry on"),
        b.result.telemetry.expect("telemetry on"),
    );
    assert_eq!(ta.jsonl(), tb.jsonl());
    assert_eq!(ta.chrome_trace(), tb.chrome_trace());
    assert_eq!(ta.metrics.to_json(), tb.metrics.to_json());
}

#[test]
fn per_disk_energy_table_reconciles_with_headline_energy() {
    let cfg = test_cfg().with_telemetry(true);
    let cache = CompileCache::new();
    let o = run_with(App::Astro, &cfg, &cache).unwrap();
    let t = o.result.telemetry.expect("telemetry on");
    assert_eq!(t.disks.len(), cfg.io_nodes * cfg.disks_per_node);
    let table_sum = t.summary_joules();
    assert!(
        (table_sum - o.result.energy_joules).abs() < 1e-9,
        "table sum {table_sum} vs run energy {}",
        o.result.energy_joules
    );
    // Each disk's rows also sum to its own total.
    for d in &t.disks {
        let row_sum: f64 = d.states.iter().map(|&(_, _, j)| j).sum();
        assert!((row_sum - d.total_joules).abs() < 1e-9);
    }
}

#[test]
fn span_forest_and_latency_decomposition_reconcile_end_to_end() {
    let cfg = test_cfg().with_telemetry(true);
    let cache = CompileCache::new();
    let o = run_with(App::Sar, &cfg, &cache).unwrap();
    let t = o.result.telemetry.expect("telemetry on");

    // The causal tree covers the run: access roots open and close, and
    // every completed request span carries its parent link and energy.
    let forest = SpanForest::build(&t.events);
    assert!(!forest.accesses.is_empty());
    assert!(forest.accesses.iter().all(|a| a.end.is_some()));
    assert!(forest.accesses.iter().all(|a| a
        .requests
        .iter()
        .all(|&rix| forest.requests[rix].completed())));
    assert!(forest.requests.iter().any(|r| r.access.is_some()));

    // Span energy is metered, not estimated: the fold equals the sum of
    // the raw completion events exactly.
    let raw_nj: u64 = t
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Request { energy_nj, .. } => Some(*energy_nj),
            _ => None,
        })
        .sum();
    assert!(raw_nj > 0);
    assert_eq!(forest.total_energy_nj(), raw_nj);

    // Every completed request's queue and service add up to its own
    // response, in integer microseconds, with the spin-up share inside
    // the queue wait; one span per completion event.
    let completed: Vec<_> = forest.requests.iter().filter(|r| r.completed()).collect();
    let raw_completions = t
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Request { .. }))
        .count();
    assert_eq!(completed.len(), raw_completions);
    for r in completed {
        assert!(r.latency_adds_up(), "latency does not add up: {r:?}");
    }
}

#[test]
fn spin_up_recovery_shows_up_in_the_queue_decomposition() {
    // Without the scheme, the simple spin-down policy parks disks between
    // bursts, so later requests must queue behind an on-demand spin-up —
    // and the span fold must attribute that wait to `spin_up_us`.
    let mut cfg = SystemConfig::paper_defaults()
        .with_policy(PolicyKind::simple_spin_down_default())
        .with_scheme(false)
        .with_telemetry(true);
    cfg.scale = WorkloadScale::test();
    // Keep the test()'s small phase count but paper-length gaps, so the
    // idle windows are long enough for the policy to park disks mid-run.
    cfg.scale.gap_factor = 1.0;
    let cache = CompileCache::new();
    let o = run_with(App::Sar, &cfg, &cache).unwrap();
    let t = o.result.telemetry.expect("telemetry on");
    let forest = SpanForest::build(&t.events);
    assert!(
        forest.requests.iter().any(|r| r.spin_up_us > 0),
        "no queue wait was attributed to spin-up recovery"
    );
    for r in forest.requests.iter().filter(|r| r.completed()) {
        assert!(r.latency_adds_up(), "latency does not add up: {r:?}");
    }
}

#[test]
fn event_stream_is_time_ordered_and_metrics_cover_every_layer() {
    let cfg = test_cfg().with_telemetry(true);
    let cache = CompileCache::new();
    let o = run_with(App::Sar, &cfg, &cache).unwrap();
    let t = o.result.telemetry.expect("telemetry on");
    assert!(!t.events.is_empty());
    assert!(
        t.events.windows(2).all(|w| w[0].at() <= w[1].at()),
        "events must be sorted by simulated time"
    );
    // At least one event from each instrumented layer.
    assert!(t
        .events
        .iter()
        .any(|e| matches!(e, TraceEvent::DiskState { .. })));
    assert!(t
        .events
        .iter()
        .any(|e| matches!(e, TraceEvent::CacheAccess { .. })));
    assert!(t
        .events
        .iter()
        .any(|e| matches!(e, TraceEvent::BufferRead { .. })));
    // Registry naming convention: every layer contributes under its
    // crate prefix.
    let json = t.metrics.to_json();
    for prefix in ["disk.n0.d0.", "power.n0.", "storage.n0.", "runtime.buffer."] {
        assert!(json.contains(prefix), "missing {prefix} in metrics dump");
    }
}
