//! The FLARE simulator's benchmark: end-to-end TTI throughput of
//! paper-length cells, plus per-layer timings taken around the public
//! stepping calls and a sharded-fleet probe. See `perfbench/README.md`.
//!
//! ```text
//! flare-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a provenance line, one line per metric, and as its last line a
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. When any
//! cell run panics, trips the invariant battery or loses determinism, the
//! object reports `"correct": false` with no metrics and the exit code is 1.

mod cell;
mod fleet;
mod probes;
mod stats;
mod workload;

use std::process::{Command, ExitCode};

use cell::CellKind;
use workload::{Report, Scale};

struct Args {
    workload: CellKind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: flare-perfbench --workload cell_static|cell_mobile_lossy \
     --seed N --seconds S --trace 0|1";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(CellKind::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("bad seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// First line of `program args…`'s standard output, or "unknown".
fn command_line(program: &str, args: &[&str]) -> String {
    let parent = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.as_os_str().to_owned()))
        .unwrap_or_default();
    Command::new(program)
        .args(args)
        // Keep git from reporting a repository that merely encloses the
        // working directory.
        .env("GIT_CEILING_DIRECTORIES", parent)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// JSON string literal for `s`.
fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn provenance(args: &Args, report: &Report) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"cells\": {}, \"cell_secs\": {}, \"fleet_jobs\": {}, \"host_cores\": {cores}, \
         \"rustc\": {}, \"git_head\": {}}}}}",
        quote(args.workload.name()),
        args.seed,
        args.seconds,
        args.trace,
        report.cells,
        cell::SESSION_SECS,
        fleet::JOBS,
        quote(&command_line("rustc", &["-V"])),
        quote(&command_line("git", &["rev-parse", "HEAD"])),
    )
}

/// The last output line: the result object with `correct`, `attempted`,
/// `failed` and `metrics`. A failed gate reports no metrics.
fn result_line(report: &Report) -> String {
    let correct = report.failed == 0;
    let metrics: Vec<String> = if correct {
        report
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(m.name),
                    m.value,
                    quote(m.unit)
                )
            })
            .collect()
    } else {
        Vec::new()
    };
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = workload::run(
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        Scale::FULL,
    );
    println!("{}", provenance(&args, &report));
    for m in &report.metrics {
        if m.name == "ttis_per_s" {
            println!(
                "{:<32} {:>16.0} {:<6} model.video_rate_kbps {:.1}",
                m.name, m.value, m.unit, report.video_rate_kbps
            );
        } else {
            println!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
        }
    }
    println!("{}", result_line(&report));
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "outcome gate failed: {} of {} cell runs; no timings reported",
            report.failed, report.attempted
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probes::ProbeSize;

    /// Short cells and tiny probes: every code path, in seconds.
    const QUICK: Scale = Scale {
        cell_secs: 20,
        probe: ProbeSize {
            ttis: 200,
            player_secs: 5,
            specs: 2,
            reps: 1,
        },
    };

    /// `(name, unit)` of every metric in one section of BENCHMARK.json.
    fn declared(section: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        let field = |obj: &str, key: &str| {
            let at = obj.find(&format!("\"{key}\"")).expect("key present");
            let rest = &obj[at + key.len() + 2..];
            let open = rest.find('"').expect("string value") + 1;
            let close = rest[open..].find('"').expect("closed string");
            rest[open..open + close].to_owned()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    fn emitted(report: &Report) -> Vec<(String, String)> {
        report
            .metrics
            .iter()
            .map(|m| (m.name.to_owned(), m.unit.to_owned()))
            .collect()
    }

    #[test]
    fn quick_mode_emits_every_declared_metric_with_its_unit() {
        let end_to_end = declared("end_to_end");
        let per_layer = declared("per_layer");
        assert!(end_to_end.len() >= 3 && per_layer.len() >= 30);
        for w in CellKind::WORKLOADS {
            for (trace, want) in [(false, &end_to_end), (true, &per_layer)] {
                let report = workload::run(w, 11, 0.0, trace, QUICK);
                assert_eq!(report.failed, 0, "{} trace={trace}", w.name());
                assert!(report.attempted >= 2 * report.cells as u64);
                assert_eq!(&emitted(&report), want, "{} trace={trace}", w.name());
                for m in &report.metrics {
                    assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
                }
                if !trace {
                    for m in &report.metrics {
                        assert!(m.value > 0.0, "{} must never be 0", m.name);
                    }
                }
                let line = result_line(&report);
                assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
                assert!(line.contains(&format!("\"{}\": {{\"value\": ", want[0].0)));
            }
        }
    }

    #[test]
    fn traced_runs_time_every_boundary() {
        let report = workload::run(CellKind::MobileLossy, 3, 0.0, true, QUICK);
        // One traced run of each cell; 20 s at a 10 s BAI.
        let cells = workload::CELLS as f64;
        assert_eq!(report.get("scenarios.bai_samples"), Some(2.0 * cells));
        assert!(report.get("harness.worker_imbalance").expect("emitted") >= 1.0);
    }

    #[test]
    fn a_failed_gate_reports_no_metrics() {
        let mut report = workload::run(CellKind::Static, 1, 0.0, false, QUICK);
        report.failed = 1;
        assert_eq!(
            result_line(&report),
            format!(
                "{{\"correct\": false, \"attempted\": {}, \"failed\": 1, \"metrics\": {{}}}}",
                report.attempted
            )
        );
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split(' ').map(str::to_owned).collect::<Vec<_>>();
        let ok = parse_args(&args(
            "--workload cell_mobile_lossy --seed 4 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(ok.workload, CellKind::MobileLossy);
        assert!(ok.trace && ok.seed == 4 && ok.seconds == 10.0);
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload fleet_mixed --seed 1 --seconds 1 --trace 0",
            "--workload cell_crowded --seed 1 --seconds 1 --trace 0",
            "--workload cell_static --seed x --seconds 1 --trace 0",
            "--workload cell_static --seed 1 --seconds -1 --trace 0",
            "--workload cell_static --seed 1 --seconds 1 --trace 2",
            "--workload cell_static --seed 1 --seconds 1",
            "--workload cell_static --seed 1 --seconds 1 --trace",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
