//! The `repro` harness as a library.
//!
//! The `repro` binary (`cargo run --release -p sdds-bench --bin repro`)
//! regenerates every table and figure of the paper and runs the
//! reports beyond it. It is a thin shell: it parses flags and calls one
//! function of this library per subcommand. Every such function returns
//! an [`Outcome`] (stdout text, files to write, stderr notes and named
//! [`Check`]s) or a [`CommandError`], and [`emit`] turns either into
//! output and an exit code.
//!
//! * [`json`] — the one ordered JSON writer behind every report;
//! * [`outcome`] — [`Outcome`], [`Check`], [`CommandError`], [`emit`];
//! * [`paper`] — the paper's tables and figures, with CSV series;
//! * [`timing`] — host-time reports: `perf` and `scale`;
//! * [`observe`] — telemetry reports: `trace` and `attrib`;
//! * [`twins`] — twin-run reports: `faults`, `rebuild`, `fuzz`, `online`.
//!
//! The text renderers below format the paper's tables.

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

/// Appends one formatted line to a `String`.
macro_rules! outln {
    ($out:expr, $($arg:tt)*) => {{
        $out.push_str(&format!($($arg)*));
        $out.push('\n');
    }};
}

pub mod json;
pub mod observe;
pub mod outcome;
pub mod paper;
pub mod timing;
pub mod twins;

pub use outcome::{emit, Check, CommandError, Outcome};

use std::error::Error;

use sdds::experiments::{CdfRow, Table3Row, ThetaPoint};
use sdds::metrics::CdfPoint;
use sdds_workloads::App;

/// Formats a percentage with one decimal.
pub fn pct(v: f64) -> String {
    format!("{v:6.1}%")
}

/// Renders a CLI diagnostic for `err`: one `repro: <message>` line, and —
/// when `verbose` is set — the full `caused by:` source chain underneath,
/// one frame per line.
///
/// The one-line form is what scripted callers see by default; its exact
/// wording is pinned by golden tests, so treat changes as breaking.
pub fn render_diagnostic(err: &dyn Error, verbose: bool) -> String {
    let mut out = format!("repro: {err}");
    if verbose {
        let mut cur = err.source();
        while let Some(cause) = cur {
            out.push_str(&format!("\n  caused by: {cause}"));
            cur = cause.source();
        }
    }
    out
}

/// Renders Table III.
pub fn render_table3(rows: &[Table3Row]) -> String {
    let mut out = String::new();
    out.push_str("Table III: applications under the Default Scheme\n");
    out.push_str("app         exec (min)   energy (J)   paper exec (min)   paper energy (J)\n");
    for r in rows {
        out.push_str(&format!(
            "{:<11} {:>10.2} {:>12.1} {:>18.1} {:>18.1}\n",
            r.app.name(),
            r.exec_minutes,
            r.energy_joules,
            r.paper_exec_minutes,
            r.paper_energy_joules
        ));
    }
    out
}

/// Renders one CDF row as the paper's bucket series.
pub fn render_cdf(points: &[CdfPoint]) -> String {
    points
        .iter()
        .map(|p| format!("<= {:>9}: {:5.1}%", p.upto.to_string(), p.fraction * 100.0))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Renders a Fig. 12(a)/(b) CDF set.
pub fn render_cdf_rows(rows: &[CdfRow]) -> String {
    let mut out = String::new();
    for r in rows {
        out.push_str(&format!(
            "--- {} ---\n{}\n",
            r.app.name(),
            render_cdf(&r.points)
        ));
    }
    out
}

/// Renders Fig. 12(c)/(d) and 13(a)/(b): one value per app and
/// strategy (`what` names the quantity), then the averages.
pub fn render_strategies(what: &str, rows: &[(App, [f64; 4])], averages: &[f64; 4]) -> String {
    let line = |name: &str, v: &[f64; 4]| {
        let [a, b, c, d] = v.map(pct);
        format!("{name:<11} {a} {b}  {c} {d}\n")
    };
    let mut out = format!("app         simple   prediction   history   staggered  ({what})\n");
    for (app, v) in rows {
        out.push_str(&line(app.name(), v));
    }
    out.push_str(&line("average", averages));
    out
}

/// Renders a parameter sweep as `x -> y%` lines.
pub fn render_sweep<X: std::fmt::Display>(label: &str, points: &[(X, f64)]) -> String {
    let mut out = String::new();
    for (x, y) in points {
        out.push_str(&format!("{label} = {x:>6} -> {}\n", pct(*y)));
    }
    out
}

/// Renders the Fig. 14 θ sweep.
pub fn render_theta(points: &[ThetaPoint]) -> String {
    let mut out = String::new();
    out.push_str("theta   energy reduction   perf improvement\n");
    for p in points {
        out.push_str(&format!(
            "{:>5}   {}            {}\n",
            p.theta,
            pct(p.energy_reduction),
            pct(p.perf_improvement)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::SimDuration;

    #[test]
    fn table3_renders_all_apps() {
        let rows = vec![Table3Row {
            app: App::Hf,
            exec_minutes: 3.2,
            energy_joules: 1234.5,
            paper_exec_minutes: 27.9,
            paper_energy_joules: 3637.4,
        }];
        let s = render_table3(&rows);
        assert!(s.contains("hf"));
        assert!(s.contains("3.20"));
        assert!(s.contains("3637.4"));
    }

    #[test]
    fn cdf_renders_buckets() {
        let pts = vec![
            CdfPoint {
                upto: SimDuration::from_millis(5),
                fraction: 0.25,
            },
            CdfPoint {
                upto: SimDuration::from_millis(10),
                fraction: 1.0,
            },
        ];
        let s = render_cdf(&pts);
        assert!(s.contains("25.0%"));
        assert!(s.contains("100.0%"));
    }

    #[test]
    fn sweep_renders_pairs() {
        let s = render_sweep("delta", &[(5u32, 1.5), (10, 2.5)]);
        assert!(s.contains("delta =      5"));
        assert!(s.contains("2.5%"));
    }

    #[test]
    fn diagnostic_is_one_line_unless_verbose() {
        use sdds::{ConfigError, SddsError};
        use sdds_storage::StorageError;

        let err = SddsError::Config(ConfigError::Storage(StorageError::ZeroStripe));
        let terse = render_diagnostic(&err, false);
        assert_eq!(
            terse,
            "repro: configuration rejected: invalid storage configuration: \
             stripe size must be positive"
        );
        assert_eq!(terse.lines().count(), 1);

        let chain = render_diagnostic(&err, true);
        assert_eq!(chain.lines().count(), 3, "two causes below the headline");
        assert!(chain.contains("caused by: invalid storage configuration"));
        assert!(chain.contains("caused by: stripe size must be positive"));
    }

    #[test]
    fn energy_table_includes_average() {
        let rows = [(App::Sar, [95.0, 90.0, 75.0, 80.0])];
        let s = render_strategies("normalized energy", &rows, &[95.0, 90.0, 75.0, 80.0]);
        assert!(s.contains("average"));
        assert!(s.contains("75.0%"));
    }
}
