//! Schedule fixture: the scheduling table of every application under
//! every scheduler variant is pinned bit-for-bit against a committed
//! digest file.
//!
//! `golden_parity.txt` sees only the paper-default tables, and only
//! through simulated outputs. This fixture pins the compiler's tables
//! directly, under each algorithm variant: the basic and extended
//! algorithms, exhaustive and sampled candidates, linear and table
//! weights, the θ-overflow fallback, and grouped slots. At this scale
//! most of `hf`'s movable reads have slacks longer than the 256-candidate
//! cap, so the sampled path is covered too.
//!
//! Regenerate deliberately with:
//!
//! ```text
//! SDDS_REGEN_GOLDEN=1 cargo test -p sdds --test schedule_fixture
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use sdds::SystemConfig;
use sdds_compiler::reuse::WeightFn;
use sdds_compiler::{analyze_slacks, SchedulerConfig, SlotGranularity};
use sdds_workloads::{App, WorkloadScale};

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("schedule_fixture.txt")
}

/// Twelve processes at a tenth of the phases: 564 of `hf`'s 1,068
/// movable reads have slacks above the candidate cap, θ = 4 binds in
/// five of the six applications, and θ = 1 overflows in `sar`.
fn scale() -> WorkloadScale {
    WorkloadScale {
        procs: 12,
        factor: 0.1,
        ..WorkloadScale::test()
    }
}

/// The seven scheduler variants, each with the slot granularity it runs
/// at.
fn variants() -> Vec<(&'static str, SlotGranularity, SchedulerConfig)> {
    let unit = SlotGranularity::unit();
    vec![
        ("paper_defaults", unit, SchedulerConfig::paper_defaults()),
        ("without_theta", unit, SchedulerConfig::without_theta()),
        ("exhaustive", unit, SchedulerConfig::exhaustive()),
        (
            "access_lengths_16k",
            SlotGranularity::with_access_lengths(16 * 1024),
            SchedulerConfig::paper_defaults(),
        ),
        (
            "sigma_table_delta4",
            unit,
            SchedulerConfig {
                delta: 4,
                weights: WeightFn::Table(vec![1.0, 0.7, 0.4, 0.2, 0.1]),
                ..SchedulerConfig::paper_defaults()
            },
        ),
        (
            "delta0_theta1",
            unit,
            SchedulerConfig {
                delta: 0,
                theta: Some(1),
                ..SchedulerConfig::paper_defaults()
            },
        ),
        (
            "grouped4",
            SlotGranularity::grouped(4),
            SchedulerConfig::paper_defaults(),
        ),
    ]
}

/// FNV-1a over every access's chosen slot, in access-index order.
fn points_hash(points: impl Iterator<Item = u32>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in points {
        for b in p.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

/// One line per (variant, app): the access count and the table digest.
fn current_lines() -> Vec<String> {
    let layout = SystemConfig::paper_defaults()
        .storage_config()
        .expect("paper defaults are valid")
        .layout;
    let mut lines = Vec::new();
    for (name, granularity, cfg) in variants() {
        for app in App::all() {
            let trace = app
                .program(&scale())
                .trace(granularity)
                .unwrap_or_else(|e| panic!("{} trace: {e}", app.name()));
            let accesses = analyze_slacks(&trace, &layout)
                .unwrap_or_else(|e| panic!("{} slacks: {e}", app.name()));
            let table = cfg
                .schedule(&accesses, &trace)
                .unwrap_or_else(|e| panic!("{} under {name}: {e}", app.name()));
            let digest = points_hash((0..table.scheduled_count()).map(|i| table.point_of(i)));
            let mut line = String::new();
            write!(
                line,
                "variant={name} app={} accesses={} digest={digest:016x}",
                app.name(),
                table.scheduled_count()
            )
            .expect("writing to a String cannot fail");
            lines.push(line);
        }
    }
    lines
}

#[test]
fn tables_match_committed_fixture() {
    let path = fixture_path();
    let lines = current_lines();
    if std::env::var_os("SDDS_REGEN_GOLDEN").is_some() {
        let mut out = String::from(
            "# Schedule fixture: FNV-1a of every access's scheduled slot, per variant and app.\n\
             # Regenerate with SDDS_REGEN_GOLDEN=1 cargo test -p sdds --test schedule_fixture\n",
        );
        for l in &lines {
            out.push_str(l);
            out.push('\n');
        }
        std::fs::write(&path, out).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let fixture = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
    let expected: Vec<&str> = fixture
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .collect();
    let diffs: Vec<String> = expected
        .iter()
        .zip(&lines)
        .filter(|(e, a)| **e != a.as_str())
        .map(|(e, a)| format!("expected {e}\n     got {a}"))
        .collect();
    assert_eq!(
        expected.len(),
        lines.len(),
        "variant/app set changed; regenerate the fixture deliberately if intended"
    );
    assert!(
        diffs.is_empty(),
        "schedule fixture violated in {} place(s):\n{}",
        diffs.len(),
        diffs.join("\n")
    );
}
