//! The sharded-fleet probe behind the `harness.*` metrics: a seeded mix of
//! cells run once serially with every call timed, then once as a
//! `MultiCellSim` on two workers.
//!
//! The fleet is a probe rather than a workload because a whole
//! `MultiCellSim::run` is the finest piece a caller can time, and on the
//! shared 2-vCPU host this was tuned on two threads are rarely both at
//! full speed for the few seconds a run takes: its throughput spread over
//! seeds was 20–50% of the median.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use flare_scenarios::{MultiCellSim, SimConfig};
use flare_sim::rng::{derive_seed, stream};
use rand::Rng;

use crate::cell::{run_cell, CellKind, Summary};
use crate::stats;
use crate::workload::Gate;

/// Workers stepping the fleet: the core count of the 2-core host the
/// benchmark was tuned on, fixed so results do not depend on the host.
pub const JOBS: usize = 2;

/// The fleet's cells before the seeded shuffle. The crowded cell costs
/// about as much as the seven others together, so whichever worker the
/// round-robin deal gives it to sets the fleet's wall time, for every
/// seed.
const MIX: [CellKind; 8] = [
    CellKind::Crowded,
    CellKind::Static,
    CellKind::Static,
    CellKind::Static,
    CellKind::Static,
    CellKind::MobileLossy,
    CellKind::MobileLossy,
    CellKind::MobileLossy,
];

/// What the probe measured, and its share of the outcome gate: every
/// sharded cell must match its serial twin.
#[derive(Debug, Clone, Copy)]
pub struct FleetProbe {
    pub attempted: u64,
    pub failed: u64,
    /// Wall time of `MultiCellSim::run`.
    pub run_s: f64,
    /// Σ cells' serial stepping / (workers × `run_s`).
    pub efficiency: f64,
    /// Busiest worker's serial load over the mean worker's, under the
    /// round-robin deal.
    pub imbalance: f64,
    /// Σ over barrier rounds and workers of (slowest worker's round load −
    /// own load), from the serial per-call times.
    pub barrier_wait_ms: f64,
}

/// The fleet's cell kinds for `seed`, in cell-index order.
pub fn kinds(seed: u64) -> Vec<CellKind> {
    let mut kinds = MIX.to_vec();
    let mut rng = stream(seed, "perfbench-fleet", 0);
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.gen_range(0..=i));
    }
    kinds
}

fn config(seed: u64, cell_secs: u64) -> impl Fn(usize) -> SimConfig + Send + Sync + 'static {
    let kinds = kinds(seed);
    move |i| {
        kinds[i].config(
            derive_seed(seed, "perfbench-fleet-cell", i as u64),
            cell_secs,
        )
    }
}

pub fn probe(seed: u64, cell_secs: u64) -> FleetProbe {
    let serial_config = config(seed, cell_secs);
    let n = MIX.len();
    let mut gate = Gate::new(n);
    let mut rounds = Vec::with_capacity(n);
    let mut serial_total = 0.0;
    for i in 0..n {
        let out = run_cell(serial_config(i), true);
        gate.record(i, out.as_ref().map(|o| &o.0));
        if let Some((_, spans)) = out {
            serial_total += spans.stepping().as_secs_f64();
            rounds.push(spans.rounds());
        }
    }

    let sim = MultiCellSim::new(n, JOBS, false, config(seed, cell_secs));
    let t = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| sim.run())).ok();
    let run_s = t.elapsed().as_secs_f64();
    let workers = outcome.as_ref().map_or(JOBS, |o| o.workers);
    match outcome {
        Some(o) => {
            for (i, r) in o.results.iter().enumerate() {
                gate.record(i, Some(&Summary::of(r)));
            }
        }
        None => (0..n).for_each(|i| gate.record(i, None)),
    }

    let loads = stats::dealt_loads(&rounds, workers);
    FleetProbe {
        attempted: gate.attempted,
        failed: gate.failed,
        run_s,
        efficiency: stats::parallel_efficiency(serial_total, workers, run_s),
        imbalance: stats::worker_imbalance(&loads),
        barrier_wait_ms: stats::barrier_wait(&loads) * 1e3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_shuffle_a_fixed_mix() {
        let sorted = |mut ks: Vec<CellKind>| {
            ks.sort_by_key(|&k| k as u8);
            ks
        };
        let a = kinds(1);
        assert_eq!(sorted(a.clone()), sorted(MIX.to_vec()));
        assert!(
            (0..20).any(|s| kinds(s) != a),
            "the seed must reorder cells"
        );
    }

    #[test]
    fn sharded_cells_match_their_serial_twins() {
        let p = probe(3, 20);
        assert_eq!((p.attempted, p.failed), (16, 0));
        assert!(p.efficiency > 0.0 && p.efficiency <= 1.5, "{p:?}");
        assert!(p.imbalance >= 1.0 && p.barrier_wait_ms >= 0.0, "{p:?}");
    }
}
