//! Report fixtures: every `repro` JSON report, the scale digest and the
//! stdout of the deterministic subcommands, pinned against committed
//! files under `tests/fixtures/`.
//!
//! Each test runs the real `repro` binary at a `.github/ci/smoke.sh`
//! configuration in a directory of its own. Reports compare byte for
//! byte, except that `sdds-perf-v1` and `sdds-scale-v1` have their
//! host-time fields (`seconds`, `*_per_sec`, `speedup_vs_single_shard`)
//! masked; event counts, kernel ops, compile accesses, shards and epochs
//! stay pinned. A second run of the same build would miss a change that
//! shifts every number the same way; these files do not.
//!
//! Regenerate deliberately with:
//!
//! ```text
//! SDDS_REGEN_GOLDEN=1 cargo test -p sdds-bench --test report_fixtures
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh scratch directory for one test, so tests running in parallel
/// never share an output path.
fn scratch(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("report_fixtures")
        .join(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory is creatable");
    dir
}

/// Runs `repro` in `dir`, requires exit 0, and returns its stdout.
fn repro(dir: &Path, args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("repro binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "repro {} failed:\n{}",
        args.join(" "),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// Compares `actual` with the committed fixture `name`, or rewrites the
/// fixture when `SDDS_REGEN_GOLDEN` is set.
fn pin(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join(name);
    if std::env::var_os("SDDS_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture path has a parent"))
            .expect("fixture directory is creatable");
        std::fs::write(&path, actual).expect("fixture is writable");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let expected = read(&path);
    if expected != actual {
        let first = expected
            .lines()
            .zip(actual.lines())
            .position(|(e, a)| e != a)
            .unwrap_or_else(|| expected.lines().count().min(actual.lines().count()));
        panic!(
            "{name} differs from the committed fixture at line {}:\n  want {:?}\n  got  {:?}\n\
             (regenerate deliberately with SDDS_REGEN_GOLDEN=1 if the change is intended)",
            first + 1,
            expected.lines().nth(first),
            actual.lines().nth(first)
        );
    }
}

/// Host-time fields of `sdds-perf-v1` and `sdds-scale-v1`: their values
/// depend on the machine, everything else is simulated.
const HOST_TIME_KEYS: &[&str] = &[
    "\"seconds\": ",
    "\"events_per_sec\": ",
    "\"ops_per_sec\": ",
    "\"accesses_per_sec\": ",
    "\"speedup_vs_single_shard\": ",
];

/// Replaces the number after every host-time key with `*`.
fn mask_host_times(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some((at, key)) = HOST_TIME_KEYS
        .iter()
        .filter_map(|k| rest.find(k).map(|i| (i, *k)))
        .min()
    {
        let value = at + key.len();
        out.push_str(&rest[..value]);
        out.push('*');
        rest = &rest[value..];
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
            .unwrap_or(rest.len());
        rest = &rest[end..];
    }
    out.push_str(rest);
    out
}

#[test]
fn mask_replaces_only_host_time_values() {
    assert_eq!(
        mask_host_times(
            "{\"events\": 12, \"seconds\": 0.001234, \"events_per_sec\": 9724.5, \
             \"speedup_vs_single_shard\": 1.25}"
        ),
        "{\"events\": 12, \"seconds\": *, \"events_per_sec\": *, \
         \"speedup_vs_single_shard\": *}"
    );
}

fn faults_cell(test: &str, scenario: &str, policy: &str) {
    let dir = scratch(test);
    let stdout = repro(
        &dir,
        &[
            "faults",
            "--procs",
            "4",
            "--factor",
            "0.25",
            "--gap-factor",
            "0.05",
            "--scenario",
            scenario,
            "--policy",
            policy,
            "--seed",
            "42",
            "--out",
            "faults.json",
        ],
    );
    pin(
        &format!("faults-{scenario}-{policy}.json"),
        &read(&dir.join("faults.json")),
    );
    pin(&format!("faults-{scenario}-{policy}.stdout"), &stdout);
}

#[test]
fn faults_light_default() {
    faults_cell("faults_light_default", "light", "default");
}

#[test]
fn faults_light_history() {
    faults_cell("faults_light_history", "light", "history");
}

#[test]
fn faults_heavy_default() {
    faults_cell("faults_heavy_default", "heavy", "default");
}

#[test]
fn faults_heavy_history() {
    faults_cell("faults_heavy_history", "heavy", "history");
}

#[test]
fn online_zipfian() {
    let dir = scratch("online_zipfian");
    let stdout = repro(
        &dir,
        &[
            "online",
            "--scenes",
            "zipfian",
            "--modes",
            "table,online,hybrid",
            "--seed",
            "42",
            "--out",
            "online.json",
        ],
    );
    pin("online.json", &read(&dir.join("online.json")));
    pin("online.stdout", &stdout);
}

#[test]
fn attrib_heavy() {
    let dir = scratch("attrib_heavy");
    let stdout = repro(
        &dir,
        &[
            "attrib",
            "--apps",
            "sar",
            "--procs",
            "8",
            "--factor",
            "0.2",
            "--gap-factor",
            "0.05",
            "--scenario",
            "heavy",
            "--seed",
            "42",
            "--shards",
            "4",
            "--out",
            "attrib.json",
        ],
    );
    pin("attrib.json", &read(&dir.join("attrib.json")));
    pin("attrib.stdout", &stdout);
}

#[test]
fn rebuild_light() {
    let dir = scratch("rebuild_light");
    let stdout = repro(
        &dir,
        &[
            "rebuild",
            "--scenario",
            "light",
            "--seed",
            "42",
            "--out",
            "rebuild.json",
        ],
    );
    pin("rebuild.json", &read(&dir.join("rebuild.json")));
    pin("rebuild.stdout", &stdout);
}

/// The digest smoke cells: the same scene at two worker counts must
/// write the pinned digest, and the no-baseline report shape is pinned
/// from the first of them.
#[test]
fn scale_digest_and_no_baseline_report() {
    let dir = scratch("scale_digest");
    for jobs in ["2", "8"] {
        let digest = format!("digest-j{jobs}.txt");
        let report = format!("scale-j{jobs}.json");
        repro(
            &dir,
            &[
                "scale",
                "--scales",
                "25",
                "--jobs-list",
                jobs,
                "--repeat",
                "1",
                "--no-baseline",
                "--digest",
                &digest,
                "--out",
                &report,
            ],
        );
        pin("scale-digest.txt", &read(&dir.join(&digest)));
        if jobs == "2" {
            pin(
                "scale-no-baseline.json",
                &mask_host_times(&read(&dir.join(&report))),
            );
        }
    }
}

#[test]
fn scale_report_with_baseline() {
    let dir = scratch("scale_baseline");
    repro(
        &dir,
        &[
            "scale",
            "--scales",
            "25",
            "--jobs-list",
            "1,4",
            "--repeat",
            "1",
            "--out",
            "scale.json",
        ],
    );
    pin(
        "scale-baseline.json",
        &mask_host_times(&read(&dir.join("scale.json"))),
    );
}

#[test]
fn perf_report() {
    let dir = scratch("perf_report");
    repro(
        &dir,
        &[
            "perf",
            "--procs",
            "4",
            "--factor",
            "0.1",
            "--apps",
            "sar",
            "--repeat",
            "2",
            "--out",
            "perf.json",
        ],
    );
    pin("perf.json", &mask_host_times(&read(&dir.join("perf.json"))));
}

#[test]
fn fuzz_stdout() {
    let dir = scratch("fuzz_stdout");
    let stdout = repro(
        &dir,
        &["fuzz", "--procs", "4", "--factor", "0.1", "--seeds", "2"],
    );
    pin("fuzz.stdout", &stdout);
}

#[test]
fn trace_stdout() {
    let dir = scratch("trace_stdout");
    let stdout = repro(
        &dir,
        &[
            "trace",
            "--procs",
            "4",
            "--factor",
            "0.1",
            "--apps",
            "sar",
            "--trace-out",
            "trace.jsonl",
            "--metrics-out",
            "metrics.json",
        ],
    );
    pin("trace.stdout", &stdout);
    for file in ["trace.jsonl", "trace.chrome.json", "metrics.json"] {
        assert!(!read(&dir.join(file)).is_empty(), "{file} is empty");
    }
}

#[test]
fn headline_stdout_and_csv() {
    let dir = scratch("headline");
    let stdout = repro(
        &dir,
        &[
            "headline", "--procs", "4", "--factor", "0.1", "--jobs", "2", "--csv", "csv",
        ],
    );
    pin("headline.stdout", &stdout);
    pin("headline.csv", &read(&dir.join("csv").join("headline.csv")));
}
