//! CLI contract tests: invalid configurations exit with the config exit
//! code (3) and print the pinned one-line diagnostic; usage errors exit 2,
//! including a flag the chosen subcommand does not read, a size flag too
//! large to count in bytes and a bad `--scenario`, `--scenes` or
//! `--modes` value, rejected before anything runs.
//!
//! These run the actual `repro` binary, so they pin the full scripted
//! interface: flag parsing, configuration validation, diagnostic
//! rendering, and the process exit code.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn help_exits_zero() {
    let out = repro(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage: repro"));
}

#[test]
fn unknown_experiment_is_a_usage_error() {
    let out = repro(&["fig99"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown experiment `fig99`"));
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let out = repro(&["table3", "--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown option `--frobnicate`"));
}

#[test]
fn unparsable_operand_is_a_usage_error() {
    let out = repro(&["table3", "--procs", "many"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("invalid value `many` for --procs"));
}

#[test]
fn zero_io_nodes_is_a_config_error() {
    let out = repro(&["table3", "--io-nodes", "0"]);
    assert_eq!(out.status.code(), Some(3));
    assert_eq!(
        stderr(&out).trim(),
        "repro: configuration rejected: invalid storage configuration: \
         I/O node count must be in 1..=64, got 0"
    );
}

#[test]
fn zero_stripe_is_a_config_error() {
    let out = repro(&["table3", "--stripe-kb", "0"]);
    assert_eq!(out.status.code(), Some(3));
    assert_eq!(
        stderr(&out).trim(),
        "repro: configuration rejected: invalid storage configuration: \
         stripe size must be positive"
    );
}

#[test]
fn zero_procs_is_a_config_error() {
    let out = repro(&["table3", "--procs", "0"]);
    assert_eq!(out.status.code(), Some(3));
    assert_eq!(
        stderr(&out).trim(),
        "repro: configuration rejected: workload scale needs at least one client process"
    );
}

#[test]
fn zero_theta_is_a_config_error() {
    let out = repro(&["table3", "--theta", "0"]);
    assert_eq!(out.status.code(), Some(3));
    assert_eq!(
        stderr(&out).trim(),
        "repro: configuration rejected: invalid scheduler configuration: \
         scheduler knob `theta` must be >= 1 when set, got 0"
    );
}

#[test]
fn zero_cache_is_a_config_error() {
    let out = repro(&["table3", "--cache-mb", "0"]);
    assert_eq!(out.status.code(), Some(3));
    assert_eq!(
        stderr(&out).trim(),
        "repro: configuration rejected: invalid storage configuration: \
         cache capacity (0 B) must hold at least one 65536 B block"
    );
}

#[test]
fn zero_buffer_is_a_config_error() {
    let out = repro(&["table3", "--buffer-mb", "0"]);
    assert_eq!(out.status.code(), Some(3));
    assert_eq!(
        stderr(&out).trim(),
        "repro: configuration rejected: engine buffer (0 B) must hold \
         at least one stripe (65536 B)"
    );
}

#[test]
fn verbose_appends_the_cause_chain() {
    let out = repro(&["table3", "--io-nodes", "0", "--verbose"]);
    assert_eq!(out.status.code(), Some(3));
    let err = stderr(&out);
    let mut lines = err.trim().lines();
    assert_eq!(
        lines.next().unwrap(),
        "repro: configuration rejected: invalid storage configuration: \
         I/O node count must be in 1..=64, got 0"
    );
    assert_eq!(
        lines.next().unwrap(),
        "  caused by: invalid storage configuration: I/O node count must be in 1..=64, got 0"
    );
    assert_eq!(
        lines.next().unwrap(),
        "  caused by: I/O node count must be in 1..=64, got 0"
    );
    assert_eq!(lines.next(), None);
}

/// Runs `repro` with `args`, requires the usage exit code 2, no stdout
/// (nothing ran) and `message` on stderr.
fn rejected(args: &[&str], message: &str) {
    let out = repro(args);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
    assert!(out.stdout.is_empty(), "{args:?} ran before rejecting");
    assert!(
        stderr(&out).contains(message),
        "{args:?}: want `{message}` in {}",
        stderr(&out)
    );
}

#[test]
fn rebuild_rejects_workload_flags() {
    rejected(
        &["rebuild", "--apps", "hf", "--procs", "99"],
        "`rebuild` does not read --apps",
    );
}

#[test]
fn trace_rejects_out() {
    rejected(&["trace", "--out", "x.json"], "`trace` does not read --out");
}

#[test]
fn scale_rejects_procs() {
    rejected(&["scale", "--procs", "64"], "`scale` does not read --procs");
}

#[test]
fn paper_experiments_reject_seed() {
    rejected(&["table3", "--seed", "7"], "`table3` does not read --seed");
}

#[test]
fn size_flags_that_overflow_a_byte_count_are_usage_errors() {
    rejected(
        &["table3", "--stripe-kb", "18446744073709551615"],
        "--stripe-kb must be at most 18014398509481983",
    );
    rejected(
        &["table3", "--cache-mb", "17592186044416"],
        "--cache-mb must be at most 17592186044415",
    );
    rejected(
        &["table3", "--buffer-mb", "17592186044416"],
        "--buffer-mb must be at most 17592186044415",
    );
}

#[test]
fn a_stripe_of_more_sectors_than_a_request_covers_is_a_config_error() {
    // 2^32 and 3 * 2^31 sectors of 512 B, which a 32-bit sector count
    // reads as 0 (a request of no sectors) and 2^31.
    for (stripe_kb, bytes) in [
        ("2147483648", "2199023255552"),
        ("3221225472", "3298534883328"),
    ] {
        let huge = "17592186044415";
        let out = repro(&[
            "headline",
            "--procs",
            "2",
            "--factor",
            "0.05",
            "--apps",
            "sar",
            "--stripe-kb",
            stripe_kb,
            "--buffer-mb",
            huge,
            "--cache-mb",
            huge,
        ]);
        assert_eq!(out.status.code(), Some(3), "{}", stderr(&out));
        assert_eq!(
            stderr(&out).trim(),
            format!(
                "repro: configuration rejected: invalid storage configuration: \
                 block size {bytes} holds more than 4294967295 sectors of 512 B"
            )
        );
    }
}

#[test]
fn unknown_scene_is_rejected_before_any_scene_runs() {
    rejected(
        &["online", "--scenes", "zipfian,bogus"],
        "unknown scene `bogus` (known: zipfian, diurnal)",
    );
}

#[test]
fn unknown_mode_is_rejected_at_parse_time() {
    rejected(
        &["online", "--modes", "table,bogus"],
        "unknown mode `bogus` (known: table, online, hybrid)",
    );
}

#[test]
fn unknown_scenario_is_rejected_at_parse_time() {
    rejected(
        &["faults", "--scenario", "bogus"],
        "unknown fault scenario `bogus` (known: light, heavy)",
    );
}
