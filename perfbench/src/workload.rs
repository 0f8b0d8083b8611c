//! The workloads: what each runs, how it is timed, and the outcome gate
//! every run passes before a timing is reported.

use std::time::{Duration, Instant};

use flare_scenarios::CellSim;

use crate::cell::{best_run_secs, cell_seed, run_cell, CellKind, Spans, Summary};
use crate::fleet;
use crate::probes::{self, ProbeSize};
use crate::stats::{median, percentile};

/// Cells a workload steps, each with its own seed. More cells average out
/// placement luck; fewer give each BAI more repetitions in the window,
/// which `best_run_secs` needs on a noisy host.
pub const CELLS: usize = 2;

/// Set-up samples per cell in every pass.
const SETUP_REPS: usize = 5;

/// How much work a run does besides its timed window; tests shrink it.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Simulated seconds per cell.
    pub cell_secs: u64,
    pub probe: ProbeSize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        cell_secs: crate::cell::SESSION_SECS,
        probe: ProbeSize {
            ttis: 100_000,
            player_secs: 200,
            specs: 40,
            reps: 3,
        },
    };
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// A run's outcome: operations attempted and failed, and the metrics.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Cells in the workload (the deterministic counts are totals over
    /// them).
    pub cells: usize,
    /// Mean video rate over the workload's cells, printed beside
    /// `ttis_per_s`: a figure near the 100 kbps floor means the run
    /// measured start-up, not steady state.
    pub video_rate_kbps: f64,
}

impl Report {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// The outcome gate: every run of a cell must reproduce the digest of that
/// cell's first run (its same-seed twin), and must not panic.
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    first: Vec<Option<Summary>>,
}

impl Gate {
    pub fn new(cells: usize) -> Gate {
        Gate {
            attempted: 0,
            failed: 0,
            first: vec![None; cells],
        }
    }

    pub fn record(&mut self, cell: usize, summary: Option<&Summary>) {
        self.attempted += 1;
        let Some(summary) = summary else {
            self.failed += 1;
            return;
        };
        match &self.first[cell] {
            None => self.first[cell] = Some(summary.clone()),
            Some(first) if first.digest != summary.digest => self.failed += 1,
            Some(_) => {}
        }
    }

    /// First-run summaries of every cell, or `None` if any run failed.
    pub fn summaries(&self) -> Option<Vec<&Summary>> {
        if self.failed > 0 {
            return None;
        }
        self.first.iter().map(Option::as_ref).collect()
    }
}

/// Runs `workload` for at least `seconds` of timed work and returns its
/// metrics: the end-to-end set, or with `trace` the per-layer set.
pub fn run(kind: CellKind, seed: u64, seconds: f64, trace: bool, scale: Scale) -> Report {
    let n = CELLS;
    let config = |i: usize, check: bool| {
        let mut c = kind.config(cell_seed(seed, i), scale.cell_secs);
        c.check_invariants = check;
        c
    };
    let mut gate = Gate::new(n);
    let mut report = Report {
        cells: n,
        ..Report::default()
    };

    // Timed passes over every cell until the window is spent. Set-up is
    // sampled in every pass, so its samples spread over the window too.
    // A traced run also times every call of a second run of each cell.
    let mut setups: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut plain: Vec<Vec<Spans>> = vec![Vec::new(); n];
    let mut traced: Vec<Vec<Spans>> = vec![Vec::new(); n];
    let mut peak_rss = None;
    let started = Instant::now();
    loop {
        for i in 0..n {
            for _ in 0..SETUP_REPS {
                let c = config(i, false);
                let t = Instant::now();
                let stepper = CellSim::new(c).into_stepper();
                setups[i].push(t.elapsed().as_secs_f64());
                drop(stepper);
            }
            for per_call in [false, true] {
                if per_call && !trace {
                    continue;
                }
                let out = run_cell(config(i, false), per_call);
                gate.record(i, out.as_ref().map(|o| &o.0));
                let runs = if per_call { &mut traced } else { &mut plain };
                runs[i].extend(out.map(|o| o.1));
            }
        }
        // Later passes repeat the same work.
        peak_rss.get_or_insert_with(peak_rss_mb);
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    // Check pass: the same cells with the invariant battery on.
    for i in 0..n {
        let out = run_cell(config(i, true), false);
        gate.record(i, out.as_ref().map(|o| &o.0));
    }

    report.attempted = gate.attempted;
    report.failed = gate.failed;
    let Some(summaries) = gate.summaries() else {
        return report;
    };
    report.video_rate_kbps = summaries.iter().map(|s| s.video_rate_kbps).sum::<f64>() / n as f64;
    let ttis = (n as u64 * scale.cell_secs * 1000) as f64;
    let rate_of = |runs: &[Vec<Spans>]| ttis / runs.iter().map(|r| best_run_secs(r)).sum::<f64>();

    if !trace {
        // Set-up, like stepping, reports the fastest sample: the minimum
        // over the window of each cell's construction.
        let fastest = |xs: &Vec<f64>| xs.iter().copied().fold(f64::INFINITY, f64::min);
        report.push("ttis_per_s", rate_of(&plain), "1/s");
        report.push("setup_s", setups.iter().map(fastest).sum(), "s");
        report.push("peak_rss_mb", peak_rss.unwrap_or_else(peak_rss_mb), "MB");
        return report;
    }

    per_layer(&mut report, &traced, scale.cell_secs * 1000);
    let fleet = fleet::probe(seed, scale.cell_secs);
    report.attempted += fleet.attempted;
    report.failed += fleet.failed;
    if fleet.failed > 0 {
        return report;
    }
    report.push("harness.fleet_run_s", fleet.run_s, "s");
    report.push("harness.parallel_efficiency", fleet.efficiency, "ratio");
    report.push("harness.worker_imbalance", fleet.imbalance, "ratio");
    report.push("harness.barrier_wait_est_ms", fleet.barrier_wait_ms, "ms");

    // Layer probes, on this workload's flows.
    let cell0 = cell_seed(seed, 0);
    report.push(
        "lte.step_tti_ns.backlogged",
        probes::step_tti_ns(kind, cell0, true, scale.probe),
        "ns",
    );
    report.push(
        "lte.step_tti_ns.idle",
        probes::step_tti_ns(kind, cell0, false, scale.probe),
        "ns",
    );
    report.push(
        "has.player_step_ns",
        probes::player_step_ns(scale.probe),
        "ns",
    );
    for (n_clients, us, steps, share) in [
        (
            8,
            "solver.solve_us.n8",
            "solver.probe_steps.n8",
            "solver.overloaded_share.n8",
        ),
        (
            32,
            "solver.solve_us.n32",
            "solver.probe_steps.n32",
            "solver.overloaded_share.n32",
        ),
        (
            128,
            "solver.solve_us.n128",
            "solver.probe_steps.n128",
            "solver.overloaded_share.n128",
        ),
    ] {
        let p = probes::solver_probe(n_clients, seed, scale.probe);
        report.push(us, p.solve_us, "us");
        report.push(steps, p.steps, "count");
        report.push(share, p.overloaded_share, "ratio");
    }

    counts(&mut report, &summaries);
    // Per-call timing against per-BAI timing of the same cells.
    report.push(
        "trace.overhead",
        rate_of(&traced) / rate_of(&plain),
        "ratio",
    );
    report
}

/// Per-call timings of the span-timed runs.
fn per_layer(report: &mut Report, spans: &[Vec<Spans>], ttis: u64) {
    let all = || spans.iter().flatten();
    let advance: f64 = all()
        .flat_map(|s| &s.advance)
        .map(Duration::as_secs_f64)
        .sum();
    let runs = all().count() as f64;
    let bai_us: Vec<f64> = all()
        .flat_map(|s| &s.bai)
        .map(|d| d.as_secs_f64() * 1e6)
        .collect();
    let ms = |f: fn(&Spans) -> Duration| -> f64 {
        median(&all().map(|s| f(s).as_secs_f64() * 1e3).collect::<Vec<_>>())
    };
    report.push(
        "scenarios.tti_ns",
        advance * 1e9 / (runs * ttis as f64),
        "ns",
    );
    report.push("scenarios.bai_us.p50", percentile(&bai_us, 0.5), "us");
    report.push("scenarios.bai_us.p99", percentile(&bai_us, 0.99), "us");
    report.push("scenarios.bai_samples", bai_us.len() as f64, "count");
    report.push("scenarios.build_ms", ms(|s| s.build), "ms");
    report.push("scenarios.result_ms", ms(|s| s.result), "ms");
}

/// Deterministic program counts and model outcomes, totalled (counts) or
/// averaged (outcomes) over the workload's cells.
fn counts(report: &mut Report, cells: &[&Summary]) {
    let total = |f: fn(&Summary) -> f64| cells.iter().map(|s| f(s)).sum::<f64>();
    let mean = |f: fn(&Summary) -> f64| total(f) / cells.len() as f64;
    let hits = total(|s| s.warm_hits as f64);
    let base = hits + total(|s| s.warm_misses as f64);
    let solve_us: Vec<f64> = cells
        .iter()
        .flat_map(|s| &s.solve_times)
        .map(|d| d.as_secs_f64() * 1e6)
        .collect();
    report.push("solver.solves", total(|s| s.solves as f64), "count");
    report.push("solver.steps", total(|s| s.solver_steps), "count");
    report.push("solver.deferrals", total(|s| s.deferrals as f64), "count");
    report.push(
        "solver.warm_hit_ratio",
        if base > 0.0 { hits / base } else { 0.0 },
        "ratio",
    );
    report.push("solver.warm_base", base, "count");
    report.push("solver.in_situ_us.p50", median(&solve_us), "us");
    report.push("player.requests", total(|s| s.requests as f64), "count");
    report.push("player.stalls", total(|s| s.stalls as f64), "count");
    report.push("control.dropped", total(|s| s.dropped as f64), "count");
    report.push(
        "plugin.fallback_bais",
        total(|s| s.fallback_bais as f64),
        "count",
    );
    report.push("model.video_rate_kbps", mean(|s| s.video_rate_kbps), "kbps");
    report.push("model.stall_s", mean(|s| s.stall_s), "s");
    report.push(
        "model.bitrate_changes",
        mean(|s| s.bitrate_changes),
        "count",
    );
    report.push("model.jain", mean(|s| s.jain), "ratio");
}

/// Peak resident memory of this process so far (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .expect("VmHWM in /proc/self/status (Linux only)")
}
