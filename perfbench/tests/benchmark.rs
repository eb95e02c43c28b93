//! Tests of the benchmark's own machinery at small scale: span nesting
//! and self times, the output checks, and parity of the split-up calls
//! with the library's one-call entry points.

use sdds::cache::CompileCache;
use sdds_perfbench::paper::{self, PaperWorkload};
use sdds_perfbench::scene::{self, SceneWorkload};
use sdds_perfbench::spans::{self, Span, Tracer};
use sdds_perfbench::{error_rate, probe, Iteration};
use sdds_power::PolicyKind;
use sdds_workloads::{App, WorkloadScale};

fn small_matrix() -> PaperWorkload {
    let mut w = PaperWorkload::paper_matrix(WorkloadScale::test());
    w.apps = vec![App::Sar, App::Apsi];
    w.policies = vec![PolicyKind::NoPm, PolicyKind::history_based_default()];
    w
}

fn small_faulted() -> PaperWorkload {
    let mut w = PaperWorkload::faulted_raid5(7, WorkloadScale::test());
    w.apps = vec![App::Sar, App::Apsi];
    w
}

/// Runs `f` traced under a root span and returns the spans.
fn traced(f: impl FnOnce(&mut Tracer) -> Iteration) -> (Iteration, Vec<Span>) {
    let mut t = Tracer::new(true);
    let it = t.span("workload", f);
    (it, t.take_spans())
}

fn assert_spans_nest(spans: &[Span]) {
    assert!(!spans.is_empty());
    assert_eq!(spans[0].parent, None, "the first span is the root");
    for (i, s) in spans.iter().enumerate() {
        assert!(s.start_ns <= s.end_ns, "span {i} ends before it starts");
        if i > 0 {
            let p = &spans[s.parent.expect("only the first span is a root")];
            assert!(
                p.start_ns <= s.start_ns && s.end_ns <= p.end_ns,
                "span {i} ({}) lies outside its parent {}",
                s.name,
                p.name
            );
        }
    }
    // Children of one parent never overlap, so no self time is clamped
    // and the self times add up to the root span exactly.
    let mut own: Vec<i128> = spans.iter().map(|s| i128::from(s.duration_ns())).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= i128::from(s.duration_ns());
        }
    }
    assert!(own.iter().all(|&v| v >= 0), "negative self time");
    let self_ns = spans::self_times_ns(spans);
    assert_eq!(
        self_ns.iter().map(|&v| u128::from(v)).sum::<u128>(),
        u128::from(spans[0].duration_ns())
    );
}

#[test]
fn paper_spans_nest_and_self_times_sum_to_the_workload() {
    let w = small_matrix();
    let (it, spans) = traced(|t| paper::run_iteration(&w, t, None));
    assert_eq!(it.failed(), 0, "{:?}", it.failures);
    assert_spans_nest(&spans);
    let by_name = spans::self_seconds_by_name(&spans);
    for name in [
        "workloads.program",
        "compiler.trace",
        "compiler.slack",
        "compiler.schedule",
        "runtime.engine_new",
        "runtime.enable_telemetry",
        "runtime.engine_run",
    ] {
        assert!(by_name.contains_key(name), "no {name} span");
    }
    assert!(it.counts.get("disk.requests_served") > 0.0);
    assert!(it.counts.get("power.decisions") > 0.0);
}

#[test]
fn scene_spans_nest_and_self_times_sum_to_the_workload() {
    let w = SceneWorkload::sharded(4.0, 2);
    let (it, spans) = traced(|t| scene::run_iteration(&w, t));
    assert_eq!(it.failed(), 0, "{:?}", it.failures);
    assert_spans_nest(&spans);
    assert!(it.counts.get("simkit.shards") > 1.0);
    assert!(it.counts.get("simkit.shard_capacity") >= it.counts.get("simkit.shard_events"));
}

#[test]
fn traced_and_untraced_runs_simulate_the_same_cells() {
    let w = small_faulted();
    let twin = paper::run_iteration(&w.without_faults(), &mut Tracer::new(false), None);
    let untraced = paper::run_iteration(&w, &mut Tracer::new(false), Some(&twin.bytes_moved));
    let (mut traced, _) = traced(|t| paper::run_iteration(&w, t, Some(&twin.bytes_moved)));
    assert_eq!(untraced.failed(), 0, "{:?}", untraced.failures);
    assert_eq!(traced.compare(&untraced.lines, "untraced"), 0);
    assert_eq!(traced.digest(), untraced.digest());
    assert!(
        traced.counts.get("storage.retried") > 0.0,
        "no faults injected"
    );
}

#[test]
fn split_calls_match_the_library_entry_points() {
    let w = small_matrix();
    let (it, _) = traced(|t| paper::run_iteration(&w, t, None));
    let cache = CompileCache::new();
    for (i, (app, policy, scheme)) in w.cells().into_iter().enumerate() {
        let cfg = w.base.with_policy(policy.clone()).with_scheme(scheme);
        let o = sdds::run_with(app, &cfg, &cache).expect("cell runs");
        assert_eq!(
            it.lines[i],
            paper::cell_line(app, policy, scheme, &o.result)
        );
    }

    let s = SceneWorkload::one_shard(0.5);
    let it = scene::run_iteration(&s, &mut Tracer::new(false));
    let r = sdds::run_scale(&s.cfg, s.jobs).expect("scene runs");
    assert_eq!(it.lines, vec![r.digest()]);
}

#[test]
fn tampered_energy_fails_the_cell_and_counts_in_the_error_rate() {
    let w = small_matrix();
    let (app, policy, scheme) = w.cells()[1];
    let cfg = w.base.with_policy(policy.clone()).with_scheme(scheme);
    let good = sdds::run_with(app, &cfg, &CompileCache::new())
        .expect("cell runs")
        .result;
    assert!(paper::check_cell(&good, None).is_empty());
    assert!(paper::check_cell(&good, Some(good.bytes_moved)).is_empty());

    let mut tampered = good.clone();
    tampered.energy_joules += 1.0;
    let mut it = Iteration {
        attempted: 2,
        ..Iteration::default()
    };
    it.record(0, paper::check_cell(&good, None));
    it.record(1, paper::check_cell(&tampered, None));
    assert_eq!(it.failed(), 1);
    assert_eq!(error_rate(it.failed(), it.attempted), 0.5);

    let lost = (good.bytes_moved.0 + 1, good.bytes_moved.1);
    assert_eq!(paper::check_cell(&good, Some(lost)).len(), 1);
}

#[test]
fn tampered_scene_energy_fails_the_check() {
    let s = SceneWorkload::one_shard(0.5);
    let r = sdds::run_scale(&s.cfg, s.jobs).expect("scene runs");
    let spec = s.cfg.spec();
    let total = r.energy.total();
    assert!(scene::check_scene(&r, &spec, total).is_empty());
    let mut tampered = r.clone();
    tampered.energy.idle_j += 1.0;
    assert_eq!(scene::check_scene(&tampered, &spec, total).len(), 1);
    let mut unserved = r;
    unserved.reads -= 1;
    assert_eq!(scene::check_scene(&unserved, &spec, total).len(), 1);
}

#[test]
fn differing_runs_fail_the_cells_that_differ() {
    let mut it = Iteration {
        lines: vec!["a".into(), "b".into()],
        attempted: 2,
        ..Iteration::default()
    };
    assert_eq!(it.compare(&["a".into(), "c".into()], "the first run"), 1);
    assert_eq!(it.failed(), 1);
}

#[test]
fn calendar_probe_counts_every_operation() {
    let (ops, secs) = probe::calendar(35, 0.01);
    assert!(ops > 35 * 2, "at least one round of retargets and pops");
    assert!(secs >= 0.01);
}
