//! The paper's tables and figures (`repro table3`, `fig12a`, ... `all`).
//!
//! Each experiment renders its table for stdout, optionally adds a CSV
//! of its series, and notes its run statistics (cells, busy seconds,
//! compile-cache hits) for stderr.

use std::path::Path;
use std::time::Instant;

use sdds::cache::CompileCache;
use sdds::experiments as exp;
use sdds::SystemConfig;
use sdds_workloads::App;

use crate::outcome::{emit, CommandError, Outcome};
use crate::{pct, render_cdf_rows, render_strategies, render_sweep, render_table3, render_theta};

/// The experiments `repro all` runs, in order.
pub const ALL: [&str; 17] = [
    "table3",
    "fig12a",
    "fig12b",
    "fig12c",
    "fig12d",
    "fig13a",
    "fig13b",
    "fig13c",
    "fig13d",
    "fig14",
    "cache",
    "compiler-cost",
    "multiapp",
    "oscillation",
    "ablation",
    "granularity",
    "headline",
];

/// Queues `dir/<name>.csv` with `header` and one line per row.
fn csv(o: &mut Outcome, dir: Option<&Path>, name: &str, header: &str, rows: Vec<String>) {
    if let Some(dir) = dir {
        let mut text = format!("{header}\n");
        for r in rows {
            text.push_str(&r);
            text.push('\n');
        }
        o.files.push((dir.join(format!("{name}.csv")), text));
    }
}

/// Runs one paper experiment (`table2` or any of [`ALL`]) over `apps`,
/// writing its series as `csv/<name>.csv` where it has one.
pub fn experiment(
    name: &str,
    base: &SystemConfig,
    apps: &[App],
    csv_dir: Option<&Path>,
) -> Result<Outcome, CommandError> {
    if let Some(dir) = csv_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| CommandError::new(1, format!("cannot create {}: {e}", dir.display())))?;
    }
    let started = Instant::now();
    let cache_before = CompileCache::global().stats();
    let cells_before = exp::cell_stats();
    let mut o = Outcome::default();
    let text = &mut o.stdout;
    match name {
        "table2" => {
            outln!(text, "Table II (simulation parameters)");
            outln!(text, "{:#?}", base);
        }
        "table3" => {
            let rows = exp::table3(base, apps)?;
            text.push_str(&render_table3(&rows));
            let lines = rows
                .iter()
                .map(|r| {
                    let (exec, energy) = (r.exec_minutes, r.energy_joules);
                    let (paper_exec, paper_energy) = (r.paper_exec_minutes, r.paper_energy_joules);
                    format!(
                        "{},{exec:.3},{energy:.1},{paper_exec},{paper_energy}",
                        r.app.name()
                    )
                })
                .collect();
            let header = "app,exec_min,energy_j,paper_exec_min,paper_energy_j";
            csv(&mut o, csv_dir, name, header, lines);
        }
        "fig12a" | "fig12b" => {
            let scheme = name == "fig12b";
            let label = if scheme { "(b): with" } else { "(a): without" };
            outln!(text, "Fig. 12{label} the scheme — idle-period CDF");
            let rows = exp::fig12_cdf(base, apps, scheme)?;
            text.push_str(&render_cdf_rows(&rows));
            let mut lines = Vec::new();
            for row in &rows {
                for p in &row.points {
                    let (upto, fraction) = (p.upto.as_micros(), p.fraction);
                    lines.push(format!("{},{upto},{fraction:.6}", row.app.name()));
                }
            }
            csv(&mut o, csv_dir, name, "app,upto_us,fraction", lines);
        }
        "fig12c" | "fig12d" | "fig13a" | "fig13b" => {
            let scheme = matches!(name, "fig12d" | "fig13b");
            let label = match name {
                "fig12c" => "12(c): without the scheme — normalized energy",
                "fig12d" => "12(d): with the scheme — normalized energy",
                "fig13a" => "13(a): without the scheme — performance degradation",
                _ => "13(b): with the scheme — performance degradation",
            };
            outln!(text, "Fig. {label}");
            let (rows, avg, what): (Vec<(App, [f64; 4])>, _, _) = if name.starts_with("fig12") {
                let (rows, avg) = exp::fig12_energy(base, apps, scheme)?;
                let rows = rows.iter().map(|r| (r.app, r.normalized)).collect();
                (rows, avg, "normalized energy, % of Default")
            } else {
                let (rows, avg) = exp::fig13_perf(base, apps, scheme)?;
                let rows = rows.iter().map(|r| (r.app, r.degradation)).collect();
                (rows, avg, "performance degradation, %")
            };
            text.push_str(&render_strategies(what, &rows, &avg));
            let lines = rows
                .iter()
                .map(|(app, [a, b, c, d])| format!("{},{a:.3},{b:.3},{c:.3},{d:.3}", app.name()))
                .collect();
            let header = "app,simple,prediction,history,staggered";
            csv(&mut o, csv_dir, name, header, lines);
        }
        "fig13c" => {
            outln!(
                text,
                "Fig. 13(c): extra energy reduction vs number of I/O nodes"
            );
            let pts = exp::fig13c_io_nodes(base, apps, &[2, 4, 8, 16, 32])?;
            text.push_str(&render_sweep("io-nodes", &pts));
            let lines = pts.iter().map(|(x, y)| format!("{x},{y:.4}")).collect();
            csv(&mut o, csv_dir, name, "io_nodes,extra_reduction_pct", lines);
        }
        "fig13d" => {
            outln!(text, "Fig. 13(d): extra energy reduction vs delta");
            let pts = exp::fig13d_delta(base, apps, &[5, 10, 20, 40, 80])?;
            text.push_str(&render_sweep("delta", &pts));
            let lines = pts.iter().map(|(x, y)| format!("{x},{y:.4}")).collect();
            csv(&mut o, csv_dir, name, "delta,extra_reduction_pct", lines);
        }
        "fig14" => {
            outln!(
                text,
                "Fig. 14: theta sensitivity (energy reduction, perf improvement)"
            );
            let pts = exp::fig14_theta(base, apps, &[2, 4, 6, 8])?;
            text.push_str(&render_theta(&pts));
            let lines = pts
                .iter()
                .map(|p| (p.theta, p.energy_reduction, p.perf_improvement))
                .map(|(theta, energy, perf)| format!("{theta},{energy:.4},{perf:.4}"))
                .collect();
            let header = "theta,energy_reduction_pct,perf_improvement_pct";
            csv(&mut o, csv_dir, name, header, lines);
        }
        "cache" => {
            outln!(text, "Cache-capacity sensitivity (S V-D)");
            let pts = exp::cache_sensitivity(base, apps, &[32, 64, 256])?;
            text.push_str(&render_sweep("cache-MB", &pts));
        }
        "compiler-cost" => {
            outln!(text, "Compilation cost (S V-A; paper: <= 1.4 s)");
            for (app, secs) in exp::compile_cost(base, apps)? {
                outln!(text, "{:<11} {:.3} s", app.name(), secs);
            }
        }
        "granularity" => {
            outln!(text, "Slot-granularity sweep on hf (S IV-A's d):");
            outln!(text, "d     scheme benefit   compile");
            for pt in exp::granularity_sweep(base, App::Hf, &[1, 2, 4, 8])? {
                outln!(
                    text,
                    "{:>2}    {}         {:6.2} s",
                    pt.d,
                    pct(pt.benefit),
                    pt.compile_seconds
                );
            }
        }
        "oscillation" => {
            outln!(text, "Spin-down timeout sweep on hf (DESIGN.md S7):");
            outln!(text, "timeout    energy (% of default)   perf degradation");
            for pt in exp::timeout_sweep(base, App::Hf, &[0.2, 1.0, 3.0, 10.0, 20.0, 40.0])? {
                outln!(
                    text,
                    "{:>6.0} s   {:>10}             {:>10}",
                    pt.timeout_secs,
                    pct(pt.normalized_energy),
                    pct(pt.perf_degradation)
                );
            }
        }
        "ablation" => {
            outln!(text, "Scheduler ablation on sar (history-based + scheme):");
            outln!(text, "variant                  energy     compile    moved");
            for row in exp::scheduler_ablation(base, App::Sar)? {
                outln!(
                    text,
                    "{:<24} {}   {:6.2} s   {:>6}",
                    row.variant,
                    pct(row.normalized_energy),
                    row.compile_seconds,
                    row.moved_earlier
                );
            }
        }
        "multiapp" => {
            outln!(
                text,
                "Multi-application scenario (S VII future work), history-based"
            );
            let pairs = [(App::Madbench2, App::Sar), (App::Hf, App::Apsi)];
            for row in exp::multi_app(base, &pairs)? {
                outln!(
                    text,
                    "{:<10} + {:<10}  policy {}  policy+scheme {}",
                    row.pair.0.name(),
                    row.pair.1.name(),
                    pct(row.policy_only),
                    pct(row.policy_with_scheme)
                );
            }
        }
        "headline" => {
            outln!(text, "Headline averages (abstract)");
            let h = exp::headline(base, apps)?;
            outln!(text, "strategy          without      with");
            let names = ["simple", "prediction", "history", "staggered"];
            for (i, n) in names.iter().enumerate() {
                outln!(
                    text,
                    "{:<16} {} {}",
                    n,
                    pct(h.without_scheme[i]),
                    pct(h.with_scheme[i])
                );
            }
            let lines = names
                .iter()
                .enumerate()
                .map(|(i, n)| format!("{n},{:.4},{:.4}", h.without_scheme[i], h.with_scheme[i]))
                .collect();
            csv(
                &mut o,
                csv_dir,
                name,
                "strategy,without_pct,with_pct",
                lines,
            );
        }
        other => {
            return Err(CommandError::new(
                2,
                format!("unknown experiment `{other}`"),
            ))
        }
    }
    let cells = exp::cell_stats().since(&cells_before);
    let cache = CompileCache::global().stats().since(&cache_before);
    o.notes.push(format!(
        "[{name} took {:.1} s: {} cells / {:.1} s busy \
         ({:.1} s compile + {:.1} s sim) on {} workers; \
         compile cache {} hits / {} misses]\n",
        started.elapsed().as_secs_f64(),
        cells.cells,
        cells.busy_seconds,
        cells.compile_seconds,
        cells.sim_seconds,
        simkit::pool::jobs(),
        cache.trace_hits + cache.schedule_hits,
        cache.trace_misses + cache.schedule_misses,
    ));
    Ok(o)
}

/// Runs every experiment of [`ALL`] in order, emitting each as it
/// finishes. A failing experiment reports and the rest still run; the
/// result then fails with the most severe exit code among them.
pub fn all(
    base: &SystemConfig,
    apps: &[App],
    csv_dir: Option<&Path>,
    verbose: bool,
) -> Result<Outcome, CommandError> {
    let started = Instant::now();
    let mut failed: Vec<(&str, i32)> = Vec::new();
    for name in ALL {
        let code = emit(experiment(name, base, apps, csv_dir), verbose);
        if code != 0 {
            failed.push((name, code));
        }
    }
    let cells = exp::cell_stats();
    let cache = CompileCache::global().stats();
    let (traces, schedules) = CompileCache::global().len();
    let summary = format!(
        "[all took {:.1} s wall / {:.1} s busy \
         ({:.1} s compile + {:.1} s sim) over {} cells; \
         compile cache: {} distinct traces, {} distinct schedules, \
         {} hits / {} misses]",
        started.elapsed().as_secs_f64(),
        cells.busy_seconds,
        cells.compile_seconds,
        cells.sim_seconds,
        cells.cells,
        traces,
        schedules,
        cache.trace_hits + cache.schedule_hits,
        cache.trace_misses + cache.schedule_misses,
    );
    match failed.iter().map(|&(_, code)| code).max() {
        None => Ok(Outcome {
            notes: vec![summary],
            ..Outcome::default()
        }),
        Some(code) => {
            let names: Vec<&str> = failed.iter().map(|&(name, _)| name).collect();
            eprintln!("{summary}");
            Err(CommandError::new(
                code,
                format!(
                    "{} of {} experiments failed: {}",
                    failed.len(),
                    ALL.len(),
                    names.join(", ")
                ),
            ))
        }
    }
}
