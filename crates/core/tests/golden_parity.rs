//! Golden parity: every simulated metric of the app × policy × scheme
//! matrix is pinned bit-for-bit against a committed fixture.
//!
//! The fixture (`golden_parity.txt`) was generated from the build that
//! predates the unified event kernel; any refactor of the event core must
//! keep the default `Deterministic` arbitration byte-identical to it.
//! A second fixture (`golden_parity_raid5.txt`) pins multi-disk nodes and
//! the fault-recovery path the same way: RAID-5 with four disks per node,
//! fault-free and under the heavy fault scenario, the latter also under
//! `SeededShuffle` arbitration, with the fault counters appended to each
//! line. A third (`golden_parity_engine.txt`) pins the
//! engine paths the matrix never takes: `SeededShuffle` arbitration, and a
//! prefetch buffer small enough that the scheduler thread defers
//! prefetches because it is full. Regenerate deliberately with:
//!
//! ```text
//! SDDS_REGEN_GOLDEN=1 cargo test -p sdds --test golden_parity
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use sdds::{run, SystemConfig};
use sdds_power::PolicyKind;
use sdds_storage::RaidLevel;
use sdds_workloads::{App, WorkloadScale};
use simkit::fault::FaultSpec;
use simkit::kernel::ArbitrationPolicy;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join(name)
}

/// FNV-1a over the per-process finish times, pinning each one.
fn finish_hash(finishes: &[simkit::SimDuration]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in finishes {
        for b in f.as_micros().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

/// The platform every fixture cell starts from: the paper defaults at
/// test scale.
fn test_scale() -> SystemConfig {
    SystemConfig {
        scale: WorkloadScale::test(),
        ..SystemConfig::paper_defaults()
    }
}

/// One matrix cell rendered as `key=value` tokens, one line per cell.
/// A `variant` token (`faults=`, `arb=` or `buffer_mb=`) starts the line
/// and names the platform the cell runs on; with `fault_counters`, the
/// line ends with every fault counter.
fn cell_line(
    base: &SystemConfig,
    variant: Option<&str>,
    fault_counters: bool,
    app: App,
    policy: &PolicyKind,
    scheme: bool,
) -> String {
    let cfg = base.with_policy(policy.clone()).with_scheme(scheme);
    let o =
        run(app, &cfg).unwrap_or_else(|e| panic!("{} under {}: {e}", app.name(), policy.name()));
    let r = &o.result;
    let b = &r.buffer;
    let p = &r.prefetch;
    let mut line = String::new();
    if let Some(token) = variant {
        write!(line, "{token} ").expect("writing to a String cannot fail");
    }
    write!(
        line,
        "app={} policy={} scheme={} exec_us={} energy_bits={:016x} bytes_r={} bytes_w={} \
         mrr_bits={:016x} events={} finish_hash={:016x} issued={} deferred_producer={} \
         deferred_full={} became_sync={} timed_out={} admitted={} rejected_full={} hits={} \
         hits_in_flight={} misses={} idle_periods={}",
        app.name(),
        policy.name(),
        u8::from(scheme),
        r.exec_time.as_micros(),
        r.energy_joules.to_bits(),
        r.bytes_moved.0,
        r.bytes_moved.1,
        r.mean_read_response.to_bits(),
        r.events,
        finish_hash(&r.per_proc_finish),
        p.issued,
        p.deferred_producer,
        p.deferred_full,
        p.became_sync,
        p.timed_out,
        b.admitted,
        b.rejected_full,
        b.hits,
        b.hits_in_flight,
        b.misses,
        r.idle_histogram.total(),
    )
    .expect("writing to a String cannot fail");
    if fault_counters {
        let f = &r.faults;
        write!(
            line,
            " injected_transient={} injected_bad_sector={} retried={} remapped={} \
             reconstructed={} redirected={} deferred={}",
            f.injected_transient,
            f.injected_bad_sector,
            f.retried,
            f.remapped,
            f.reconstructed,
            f.redirected,
            f.deferred,
        )
        .expect("writing to a String cannot fail");
    }
    line
}

fn current_matrix() -> Vec<String> {
    let base = test_scale();
    let mut lines = Vec::new();
    for app in App::all() {
        for policy in PolicyKind::paper_strategies() {
            for scheme in [false, true] {
                lines.push(cell_line(&base, None, false, app, &policy, scheme));
            }
        }
    }
    lines
}

/// RAID-5 with four disks per node, fault-free and under the heavy fault
/// scenario (seed 42): no power management, simple spin-down and the
/// history-based multi-speed policy, scheme off and on. Two apps keep the
/// debug run short: `hf` moves the most data, and `wupwise` exercises
/// retries, crash redirects and crash deferrals under the heavy plan.
/// The heavy plan runs again under `SeededShuffle(1|7)` (history-based,
/// scheme off and on): the shuffle permutes the engine's same-instant
/// order, which moves when requests reach the faulted nodes, and only a
/// fault plan sends an I/O node's array and its deferred-recovery queue
/// through the node's event stepping.
fn raid5_matrix() -> Vec<String> {
    let raid5 = SystemConfig {
        raid_level: RaidLevel::Raid5,
        disks_per_node: 4,
        ..test_scale()
    };
    let policies = [
        PolicyKind::NoPm,
        PolicyKind::simple_spin_down_default(),
        PolicyKind::history_based_default(),
    ];
    let mut lines = Vec::new();
    for (name, spec) in [("none", None), ("heavy42", Some(FaultSpec::heavy(42)))] {
        let base = raid5.with_fault(spec);
        let variant = format!("faults={name}");
        for app in [App::Hf, App::Wupwise] {
            for policy in &policies {
                for scheme in [false, true] {
                    lines.push(cell_line(&base, Some(&variant), true, app, policy, scheme));
                }
            }
        }
    }
    let heavy = raid5.with_fault(Some(FaultSpec::heavy(42)));
    let policy = PolicyKind::history_based_default();
    for seed in [1_u64, 7] {
        let base = heavy.with_arbitration(ArbitrationPolicy::SeededShuffle(seed));
        let variant = format!("faults=heavy42 arb=shuffle{seed}");
        for app in [App::Hf, App::Wupwise] {
            for scheme in [false, true] {
                lines.push(cell_line(&base, Some(&variant), true, app, &policy, scheme));
            }
        }
    }
    lines
}

/// The engine paths the paper matrix never takes, on one-disk nodes:
/// `SeededShuffle` arbitration under seeds 1 and 7 (no power management
/// and history-based, scheme off and on), and a 4 MiB prefetch buffer
/// under `Deterministic`, where the scheduler thread defers prefetches
/// because the buffer is full (`deferred_full > 0`).
fn engine_matrix() -> Vec<String> {
    let mut lines = Vec::new();
    for seed in [1_u64, 7] {
        let base = test_scale().with_arbitration(ArbitrationPolicy::SeededShuffle(seed));
        let variant = format!("arb=shuffle{seed}");
        for app in [App::Hf, App::Wupwise] {
            for policy in [PolicyKind::NoPm, PolicyKind::history_based_default()] {
                for scheme in [false, true] {
                    lines.push(cell_line(
                        &base,
                        Some(&variant),
                        false,
                        app,
                        &policy,
                        scheme,
                    ));
                }
            }
        }
    }
    let mut small = test_scale();
    small.engine.buffer_capacity = 4 * 1024 * 1024;
    for app in [App::Hf, App::Sar] {
        let policy = PolicyKind::history_based_default();
        lines.push(cell_line(
            &small,
            Some("buffer_mb=4"),
            false,
            app,
            &policy,
            true,
        ));
    }
    lines
}

/// Parses one fixture line into its key=value map (keyed by cell id).
fn parse_line(line: &str) -> (String, BTreeMap<String, String>) {
    let mut map = BTreeMap::new();
    for token in line.split_whitespace() {
        let (k, v) = token
            .split_once('=')
            .unwrap_or_else(|| panic!("malformed fixture token {token:?}"));
        map.insert(k.to_string(), v.to_string());
    }
    let mut id = format!("{}/{}/{}", map["app"], map["policy"], map["scheme"]);
    for key in ["faults", "arb", "buffer_mb"] {
        if let Some(v) = map.get(key) {
            id = format!("{key}={v}/{id}");
        }
    }
    (id, map)
}

/// Compares `lines` with the committed fixture `name` field by field, or
/// rewrites the fixture (under `header`) when `SDDS_REGEN_GOLDEN` is set.
fn check_fixture(name: &str, header: &str, lines: &[String]) {
    let path = fixture_path(name);
    if std::env::var_os("SDDS_REGEN_GOLDEN").is_some() {
        let mut out = String::from(header);
        for l in lines {
            out.push_str(l);
            out.push('\n');
        }
        std::fs::write(&path, out).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let fixture = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
    let expected: BTreeMap<_, _> = fixture
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(parse_line)
        .collect();
    let actual: BTreeMap<_, _> = lines.iter().map(|l| parse_line(l)).collect();
    assert_eq!(
        expected.keys().collect::<Vec<_>>(),
        actual.keys().collect::<Vec<_>>(),
        "cell set changed; regenerate the fixture deliberately if intended"
    );
    let mut diffs = Vec::new();
    for (id, exp) in &expected {
        let act = &actual[id];
        for (k, v) in exp {
            if act.get(k) != Some(v) {
                diffs.push(format!(
                    "{id}: {k} expected {v} got {}",
                    act.get(k).map_or("<missing>", |s| s.as_str())
                ));
            }
        }
    }
    assert!(
        diffs.is_empty(),
        "golden parity violated in {} place(s):\n{}",
        diffs.len(),
        diffs.join("\n")
    );
}

#[test]
fn matrix_matches_committed_fixture() {
    check_fixture(
        "golden_parity.txt",
        "# Golden parity fixture: app x policy x scheme at test scale.\n\
         # Regenerate with SDDS_REGEN_GOLDEN=1 cargo test -p sdds --test golden_parity\n",
        &current_matrix(),
    );
}

#[test]
fn raid5_matrix_matches_committed_fixture() {
    check_fixture(
        "golden_parity_raid5.txt",
        "# Golden parity fixture: RAID-5 x4 per node, fault-free and heavy(42),\n\
         # app x policy x scheme at test scale, with the fault counters.\n\
         # heavy(42) again under SeededShuffle(1|7), history-based.\n\
         # Regenerate with SDDS_REGEN_GOLDEN=1 cargo test -p sdds --test golden_parity\n",
        &raid5_matrix(),
    );
}

#[test]
fn engine_paths_match_committed_fixture() {
    check_fixture(
        "golden_parity_engine.txt",
        "# Golden parity fixture: SeededShuffle(1|7) x app x policy x scheme, and a\n\
         # 4 MiB prefetch buffer (deferred_full > 0), at test scale.\n\
         # Regenerate with SDDS_REGEN_GOLDEN=1 cargo test -p sdds --test golden_parity\n",
        &engine_matrix(),
    );
}
