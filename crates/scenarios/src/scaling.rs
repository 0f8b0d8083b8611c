//! Solver computation-time scaling (Figure 9).
//!
//! The paper plots CDFs of the per-BAI bitrate-selection time with 32, 64,
//! and 128 video clients in a cell, reporting times far below a segment
//! duration (≤ ~12 ms with KNITRO). We measure our solvers the same way:
//! per-BAI problems whose weights come from seeded, realistically
//! distributed channel states.

use std::time::{Duration, Instant};

use flare_core::{FlareConfig, SolveMode};
use flare_lte::mobility::MobilityConfig;
use flare_sim::rng::stream;
use flare_sim::TimeDelta;
use flare_solver::{round_down, solve_discrete, solve_relaxed, FlowSpec, ProblemSpec};
use rand::Rng;

use crate::cell::cell_config;
use crate::config::{ChannelKind, SchemeKind};
use crate::multicell::MultiCellSim;

/// Builds one per-BAI assignment problem with `n_clients` video flows whose
/// channel efficiencies are drawn from the full iTbs range.
pub fn synthetic_problem(n_clients: usize, seed: u64) -> ProblemSpec {
    let mut rng = stream(seed, "scaling", n_clients as u64);
    let ladder: Vec<f64> = vec![100e3, 250e3, 500e3, 1000e3, 2000e3, 3000e3];
    let flows: Vec<FlowSpec> = (0..n_clients)
        .map(|_| {
            // Bits per RB spanning iTbs 0..=26 with 2x MIMO: 32..=1424.
            let bits_per_rb = rng.gen_range(32.0..1424.0);
            let weight = 10.0 / bits_per_rb;
            let max_level = rng.gen_range(0..ladder.len());
            FlowSpec::new(ladder.clone(), 10.0, 0.2e6, weight, max_level)
        })
        .collect();
    ProblemSpec::builder()
        .total_rbs(500_000.0)
        .data_flows(4, 1.0)
        .flows(flows)
        .build()
        .expect("valid synthetic spec")
}

/// Measures `iterations` per-BAI solves with `n_clients` flows, returning
/// one wall-clock duration per solve.
///
/// Timing samples are **always collected serially on the calling thread**:
/// with `jobs > 1`, a first pass fans the solves across workers for their
/// *results* only (and the serially-timed solutions are asserted identical
/// to them, making the jobs-independence contract executable), then a
/// dedicated serial pass takes the wall-clock samples. Timing inside the
/// worker pool would let core contention inflate the Figure 9 numbers.
pub fn measure_solve_times(
    n_clients: usize,
    iterations: usize,
    mode: SolveMode,
    seed: u64,
    jobs: usize,
) -> Vec<Duration> {
    let solve = move |spec: &ProblemSpec| -> Vec<usize> {
        match mode {
            SolveMode::Exact => solve_discrete(spec).levels,
            SolveMode::Relaxed => round_down(spec, &solve_relaxed(spec)).levels,
        }
    };
    let parallel_levels = (jobs > 1).then(|| {
        flare_harness::run_indexed(iterations, jobs, |i| {
            solve(&synthetic_problem(n_clients, seed + i as u64))
        })
    });
    let mut times = Vec::with_capacity(iterations);
    for i in 0..iterations {
        let spec = synthetic_problem(n_clients, seed + i as u64);
        let started = Instant::now();
        let levels = solve(&spec);
        times.push(started.elapsed());
        if let Some(parallel) = &parallel_levels {
            assert_eq!(
                levels, parallel[i],
                "solve {i}: parallel result diverged from the serially timed one"
            );
        }
    }
    times
}

/// Milliseconds as `f64` for CDF construction.
pub fn as_millis(times: &[Duration]) -> Vec<f64> {
    times.iter().map(|t| t.as_secs_f64() * 1000.0).collect()
}

/// Outcome of one multi-cell scaling sweep: `cells` FLARE cells (the fig6
/// static workload) simulated on up to `jobs` worker threads.
///
/// This is the COMETS-style many-cell headroom demonstration: wall-clock to
/// simulate N cells, and the aggregate TTI rate the machine sustained.
#[derive(Debug, Clone)]
pub struct MultiCellScaling {
    /// Number of cells simulated.
    pub cells: usize,
    /// Simulated duration of each cell.
    pub duration: TimeDelta,
    /// Worker threads used (`0` = all cores, `1` = serial).
    pub jobs: usize,
    /// BAI barriers executed by [`MultiCellSim`].
    pub barriers: u64,
    /// Total wall-clock time for the whole sweep.
    pub wall: Duration,
    /// Total TTIs simulated across all cells (1 TTI per simulated ms).
    pub ttis: u64,
}

impl MultiCellScaling {
    /// Aggregate simulated TTIs per wall-clock second.
    pub fn ttis_per_sec(&self) -> f64 {
        self.ttis as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// Simulates `cells` FLARE cells of `duration` each (seeds
/// `seed..seed+cells`) through the sharded [`MultiCellSim`] engine —
/// concurrent shards with a deterministic barrier at every BAI boundary —
/// and reports the aggregate TTI throughput.
///
/// Results are bit-identical to `jobs = 1` per the engine's determinism
/// contract (DESIGN.md §12), so only the wall clock moves with `jobs`.
pub fn multi_cell_sweep(
    cells: usize,
    duration: TimeDelta,
    seed: u64,
    jobs: usize,
) -> MultiCellScaling {
    let started = Instant::now();
    // Each cell is the fig6 static scenario (8 stationary video UEs under
    // FLARE), seeded per cell.
    let outcome = MultiCellSim::new(cells, jobs, false, move |i| {
        cell_config(
            SchemeKind::Flare(FlareConfig::default()),
            ChannelKind::StationaryRandom(MobilityConfig::default()),
            8,
            0,
            seed + i as u64,
            duration,
        )
    })
    .run();
    let wall = started.elapsed();
    assert_eq!(
        outcome.results.len(),
        cells,
        "pool must complete every cell"
    );
    // A run that produced no video samples would mean the sweep measured an
    // empty simulation; guard against benchmarking a no-op.
    assert!(
        outcome.results.iter().all(|r| !r.videos.is_empty()),
        "every cell must simulate its video clients"
    );
    MultiCellScaling {
        cells,
        duration,
        jobs,
        barriers: outcome.barriers,
        wall,
        ttis: cells as u64 * duration.as_millis(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_problems_are_solvable() {
        for &n in &[32usize, 64, 128] {
            let spec = synthetic_problem(n, 5);
            assert_eq!(spec.flows().len(), n);
            let sol = solve_discrete(&spec);
            assert_eq!(sol.levels.len(), n);
            assert!(sol.objective.is_finite());
        }
    }

    #[test]
    fn solve_times_scale_but_stay_below_segment_duration() {
        let t32 = as_millis(&measure_solve_times(32, 10, SolveMode::Exact, 1, 1));
        let t128 = as_millis(&measure_solve_times(128, 10, SolveMode::Exact, 1, 1));
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        // The paper's headline: far below a segment duration (seconds).
        assert!(
            mean(&t128) < 1000.0,
            "128-client solve too slow: {} ms",
            mean(&t128)
        );
        // And not absurdly non-monotone (allow noise at these tiny times).
        assert!(mean(&t128) >= mean(&t32) * 0.2);
    }

    #[test]
    fn multi_cell_sweep_counts_every_tti() {
        let sweep = multi_cell_sweep(2, TimeDelta::from_secs(20), 11, 2);
        assert_eq!(sweep.cells, 2);
        assert_eq!(sweep.ttis, 40_000);
        assert_eq!(sweep.barriers, 2, "20 s at a 10 s BAI");
        assert!(sweep.wall > Duration::ZERO);
        assert!(sweep.ttis_per_sec() > 0.0);
    }

    #[test]
    fn relaxed_mode_measures_too() {
        let times = measure_solve_times(64, 5, SolveMode::Relaxed, 9, 2);
        assert_eq!(times.len(), 5);
        assert!(as_millis(&times).iter().all(|&ms| ms < 1000.0));
    }
}
