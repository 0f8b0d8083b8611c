//! Serial-vs-sharded multi-cell scaling benchmark.
//!
//! ```text
//! multicell_bench [--quick] [--seed K] [--secs S] [OUT.json]
//! ```
//!
//! Runs the sharded [`MultiCellSim`] engine at 1, 2, 4, and 8 workers and
//! reports each against the 1-worker (serial) run, on 32-cell and 128-cell
//! fleets of the fig6 static workload (8 stationary video UEs under FLARE,
//! 120 s per cell by default; `--quick` shrinks both fleets and the
//! duration for smoke use).
//!
//! Before timing anything, the determinism contract is re-proven on a
//! short traced fleet and the benchmark **refuses to report** otherwise
//! (the same pattern as `tti_bench`):
//!
//! 1. two same-seed 8-worker sharded runs must produce bit-identical
//!    per-cell JSONL traces, and
//! 2. the sharded traces must be byte-equal to a one-shard serial run.
//!
//! Honesty note: speedup is bounded by the physical cores of the host; the
//! output records `host_cores` so a reader can tell an engine limit from a
//! machine limit.

use flare_core::FlareConfig;
use flare_lte::mobility::MobilityConfig;
use flare_scenarios::cell::cell_config;
use flare_scenarios::scaling::multi_cell_sweep;
use flare_scenarios::{ChannelKind, MultiCellSim, SchemeKind, SimConfig};
use flare_sim::TimeDelta;

use flare_bench::parse_params;

/// The same per-cell shape the scaling sweep simulates: fig6, seeded per
/// cell.
fn fleet_cell(seed: u64, cell: usize, secs: u64) -> SimConfig {
    cell_config(
        SchemeKind::Flare(FlareConfig::default()),
        ChannelKind::StationaryRandom(MobilityConfig::default()),
        8,
        0,
        seed + cell as u64,
        TimeDelta::from_secs(secs),
    )
}

/// Per-cell JSONL traces of a short fleet run at the given worker count.
fn traced_fleet(cells: usize, jobs: usize, seed: u64, secs: u64) -> Vec<String> {
    let outcome = MultiCellSim::new(cells, jobs, true, move |i| fleet_cell(seed, i, secs)).run();
    outcome
        .traces
        .into_iter()
        .map(|t| t.expect("tracing was requested"))
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (params, rest) = parse_params(&args);
    let quick = args.iter().any(|a| a == "--quick");
    let mut out = "BENCH_multicell.json".to_owned();
    for arg in rest {
        out = arg;
    }

    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let seed = params.seed;
    // The acceptance shape: 32 cells at 8 workers. Quick mode keeps the
    // cell count (the contract is about fan-out, not duration) but shrinks
    // the traced window.
    let gate_cells = 32;
    let gate_secs = if quick { 10 } else { 20 };

    eprintln!("determinism gate: {gate_cells} cells, {gate_secs} s, 8 workers, traced ...");
    let first = traced_fleet(gate_cells, 8, seed, gate_secs);
    let second = traced_fleet(gate_cells, 8, seed, gate_secs);
    assert_eq!(
        first, second,
        "two same-seed sharded runs diverged; refusing to benchmark"
    );
    let serial = traced_fleet(gate_cells, 1, seed, gate_secs);
    assert_eq!(
        first, serial,
        "sharded traces deviate from the serial path; refusing to benchmark"
    );
    eprintln!("determinism gate: ok ({gate_cells} bit-identical per-cell traces)");

    let fleets: &[(usize, u64)] = if quick {
        &[(8, 10), (16, 10)]
    } else {
        &[(32, 120), (128, 120)]
    };
    const JOBS: [usize; 4] = [1, 2, 4, 8];

    let mut fleet_json = Vec::new();
    for &(cells, secs) in fleets {
        let duration = TimeDelta::from_secs(secs);
        let sweeps = JOBS.map(|jobs| {
            eprintln!("fleet {cells} x {secs} s: sharded, {jobs} worker(s) ...");
            multi_cell_sweep(cells, duration, seed, jobs)
        });
        // The 1-worker run is the serial baseline.
        let base = &sweeps[0];
        let mut sharded_json = Vec::new();
        for s in &sweeps {
            let speedup = base.wall.as_secs_f64() / s.wall.as_secs_f64().max(1e-9);
            sharded_json.push(format!(
                "        {{ \"jobs\": {}, \"bai_barriers\": {}, \"wall_ms\": {:.1}, \
                 \"ttis_per_sec\": {:.0}, \"speedup_vs_serial\": {speedup:.2} }}",
                s.jobs,
                s.barriers,
                s.wall.as_secs_f64() * 1000.0,
                s.ttis_per_sec(),
            ));
        }
        fleet_json.push(format!(
            "    {{\n      \"cells\": {cells},\n      \"cell_secs\": {secs},\n      \
             \"ttis\": {},\n      \"serial\": {{ \"wall_ms\": {:.1}, \"ttis_per_sec\": {:.0} }},\n      \
             \"sharded\": [\n{}\n      ]\n    }}",
            base.ttis,
            base.wall.as_secs_f64() * 1000.0,
            base.ttis_per_sec(),
            sharded_json.join(",\n"),
        ));
    }

    let json = format!(
        "{{\n  \"benchmark\": \"multi-cell serial vs sharded (BAI-barrier) scaling\",\n  \
         \"workload\": \"fig6 static cell per shard: FLARE, 8 video UEs\",\n  \
         \"seed\": {seed},\n  \"host_cores\": {host_cores},\n  \
         \"note\": \"speedup_vs_serial is bounded by host_cores; on a 1-core host the \
         sharded engine can only demonstrate overhead, not parallel speedup\",\n  \
         \"determinism\": {{\n    \"gate_cells\": {gate_cells},\n    \"gate_secs\": {gate_secs},\n    \
         \"same_seed_sharded_bit_identical\": true,\n    \
         \"sharded_matches_serial_traces\": true\n  }},\n  \
         \"fleets\": [\n{}\n  ]\n}}\n",
        fleet_json.join(",\n"),
    );
    std::fs::write(&out, &json).expect("write benchmark file");
    println!("{json}");
    eprintln!("wrote {out}");
}
