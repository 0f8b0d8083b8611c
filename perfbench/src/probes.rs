//! Direct probes of single layers, outside any cell: the eNodeB MAC
//! (`flare-lte`), one HAS player (`flare-has`) and the cold discrete solve
//! (`flare-solver`).

use std::hint::black_box;
use std::time::Instant;

use flare_abr::RateBased;
use flare_has::{BitrateLadder, Mpd, Player, PlayerConfig};
use flare_lte::channel::{ChannelModel, StaticChannel};
use flare_lte::mobility::{snr_to_itbs, MobilityChannel, MobilityConfig, Position};
use flare_lte::scheduler::PrioritySetScheduler;
use flare_lte::{CellConfig, ENodeB, FlowClass};
use flare_sim::rng::{standard_normal, stream};
use flare_sim::units::{ByteCount, Rate};
use flare_sim::{Time, TimeDelta, TTI};
use flare_solver::{solve_discrete, FlowSpec, ProblemSpec};
use rand::Rng;

use crate::cell::CellKind;
use crate::stats::median;

/// How much work each probe does; tests shrink it.
#[derive(Debug, Clone, Copy)]
pub struct ProbeSize {
    /// TTIs per timed `step_tti` repetition.
    pub ttis: u64,
    /// Simulated seconds of steady playback per timed player repetition.
    pub player_secs: u64,
    /// Solver problems per client count.
    pub specs: usize,
    /// Timed repetitions (the median is reported).
    pub reps: usize,
}

/// A channel like the one `CellSim` gives UE `ue` of a `kind` cell.
fn channel(kind: CellKind, seed: u64, ue: u64) -> Box<dyn ChannelModel> {
    let mc = MobilityConfig::default();
    if kind.mobile() {
        return Box::new(MobilityChannel::new(
            mc,
            stream(seed, "walk", ue),
            stream(seed, "fade", ue),
        ));
    }
    let mut rng = stream(seed, "position", ue);
    let pos = Position {
        x: rng.gen::<f64>() * mc.area.0,
        y: rng.gen::<f64>() * mc.area.1,
    };
    let enb = Position {
        x: mc.area.0 / 2.0,
        y: mc.area.1 / 2.0,
    };
    let shadow = standard_normal(&mut rng) * mc.propagation.shadowing_sigma_db;
    let snr = mc.propagation.mean_snr_db(pos.distance_to(enb)) + shadow;
    Box::new(StaticChannel::new(snr_to_itbs(snr)))
}

/// Nanoseconds per `ENodeB::step_tti` for a `kind` cell's flows under the
/// Priority Set Scheduler. `backlogged` gives every video flow a 500 kbps
/// GBR and an inexhaustible backlog; otherwise video flows are idle (data
/// flows are always greedy).
pub fn step_tti_ns(kind: CellKind, seed: u64, backlogged: bool, size: ProbeSize) -> f64 {
    let (videos, data) = kind.flows();
    let mut enb = ENodeB::new(
        CellConfig::default(),
        Box::new(PrioritySetScheduler::default()),
    );
    for ue in 0..videos {
        let flow = enb.add_flow(FlowClass::Video, channel(kind, seed, ue as u64));
        if backlogged {
            enb.set_gbr(flow, Some(Rate::from_kbps(500.0)));
            enb.push_backlog(flow, ByteCount::new(u64::MAX / 4));
        }
    }
    for ue in videos..videos + data {
        enb.add_flow(FlowClass::Data, channel(kind, seed, ue as u64));
    }
    let mut ms = 0u64;
    let mut step = |n: u64| {
        for _ in 0..n {
            black_box(enb.step_tti(Time::from_millis(ms)).len());
            ms += 1;
        }
    };
    // Settle averages and memo tables before timing.
    step(size.ttis / 10);
    let times: Vec<f64> = (0..size.reps)
        .map(|_| {
            let started = Instant::now();
            step(size.ttis);
            started.elapsed().as_nanos() as f64 / size.ttis as f64
        })
        .collect();
    median(&times)
}

/// Nanoseconds per simulated millisecond of one player in steady playback:
/// `Player::step` plus the `on_delivered` calls a 4 Mbps link makes. The
/// first 200 s (start-up) are not timed.
pub fn player_step_ns(size: ProbeSize) -> f64 {
    const WARMUP_SECS: u64 = 200;
    const BYTES_PER_MS: u64 = 500;
    let media = TimeDelta::from_secs(WARMUP_SECS + size.player_secs * size.reps as u64 + 60);
    let mpd = Mpd::new(
        "probe".to_owned(),
        BitrateLadder::simulation(),
        TimeDelta::from_secs(10),
        media,
    );
    let mut player = Player::new(mpd, PlayerConfig::default(), Box::new(RateBased::default()));
    let mut pending = 0u64;
    let mut ms = 0u64;
    let mut play = |n: u64| {
        for _ in 0..n {
            ms += 1;
            let now = Time::from_millis(ms);
            if let Some(req) = player.step(now, TTI) {
                pending += req.bytes.as_u64();
            }
            let chunk = pending.min(BYTES_PER_MS);
            if chunk > 0 {
                pending -= chunk;
                black_box(player.on_delivered(now, ByteCount::new(chunk)));
            }
        }
    };
    play(WARMUP_SECS * 1000);
    let ticks = size.player_secs * 1000;
    let times: Vec<f64> = (0..size.reps)
        .map(|_| {
            let started = Instant::now();
            play(ticks);
            started.elapsed().as_nanos() as f64 / ticks as f64
        })
        .collect();
    median(&times)
}

/// Resource blocks per client over one BAI. Scaling capacity with the
/// client count keeps every probe size at the per-client load of 32
/// clients in 500k RBs; a fixed 500k RBs overloads 256 and more clients,
/// which then solve in zero steps.
pub const RBS_PER_CLIENT: f64 = 500_000.0 / 32.0;

/// One per-BAI problem with `n` video flows whose channel efficiencies
/// span the iTbs range (as `flare_scenarios::scaling` draws them).
pub fn solver_spec(n: usize, seed: u64, index: usize) -> ProblemSpec {
    let mut rng = stream(seed, "perfbench-solver", ((n as u64) << 32) | index as u64);
    let ladder: Vec<f64> = vec![100e3, 250e3, 500e3, 1000e3, 2000e3, 3000e3];
    let flows: Vec<FlowSpec> = (0..n)
        .map(|_| {
            let bits_per_rb: f64 = rng.gen_range(32.0..1424.0);
            let max_level = rng.gen_range(0..ladder.len());
            FlowSpec::new(ladder.clone(), 10.0, 0.2e6, 10.0 / bits_per_rb, max_level)
        })
        .collect();
    ProblemSpec::builder()
        .total_rbs(RBS_PER_CLIENT * n as f64)
        .data_flows(4, 1.0)
        .flows(flows)
        .build()
        .expect("probe specs are valid by construction")
}

/// Cold `solve_discrete` at one client count.
#[derive(Debug, Clone, Copy)]
pub struct SolverProbe {
    /// Median microseconds per solve.
    pub solve_us: f64,
    /// Median accepted steps per solve.
    pub steps: f64,
    /// Share of problems whose floor assignment already exceeds capacity.
    pub overloaded_share: f64,
}

pub fn solver_probe(n: usize, seed: u64, size: ProbeSize) -> SolverProbe {
    let specs: Vec<ProblemSpec> = (0..size.specs).map(|i| solver_spec(n, seed, i)).collect();
    let steps: Vec<f64> = specs
        .iter()
        .map(|s| solve_discrete(s).steps as f64)
        .collect();
    let mut times = Vec::with_capacity(specs.len() * size.reps);
    for _ in 0..size.reps {
        for spec in &specs {
            let started = Instant::now();
            black_box(solve_discrete(black_box(spec)));
            times.push(started.elapsed().as_secs_f64() * 1e6);
        }
    }
    SolverProbe {
        solve_us: median(&times),
        steps: median(&steps),
        overloaded_share: specs.iter().filter(|s| s.is_overloaded()).count() as f64
            / specs.len().max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_capacity_keeps_large_probes_solvable() {
        let size = ProbeSize {
            ttis: 0,
            player_secs: 0,
            specs: 8,
            reps: 1,
        };
        for n in [8, 128, 512] {
            let probe = solver_probe(n, 5, size);
            assert_eq!(probe.overloaded_share, 0.0, "{n} clients overloaded");
            assert!(probe.steps > 0.0, "{n} clients solved in zero steps");
        }
    }
}
