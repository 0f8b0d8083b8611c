//! The three cell kinds the workloads and the fleet probe are built from,
//! one timed cell run through the public stepping API, and the outcome
//! digest the gate compares.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use flare_core::{FaultModel, FlareConfig, RobustnessConfig};
use flare_lte::mobility::MobilityConfig;
use flare_scenarios::{CellSim, ChannelKind, RunResult, SchemeKind, SimConfig};
use flare_sim::rng::derive_seed;
use flare_sim::TimeDelta;

/// The paper's Table III session length: long enough for players to leave
/// the lowest rung (at 120 s every fig6 player is still on it).
pub const SESSION_SECS: u64 = 1200;

/// One cell configuration family, and the workload that steps cells of
/// it. See `perfbench/README.md` for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellKind {
    /// fig6: 8 FLARE video UEs at stationary random positions.
    Static,
    /// fig7 mobility, FLARE-R over a control plane dropping 20% of
    /// messages.
    MobileLossy,
    /// 32 FLARE video UEs plus 8 always-backlogged data UEs, static.
    Crowded,
}

impl CellKind {
    /// The kinds that are workloads of their own. Crowded cells only run
    /// inside the fleet probe (see `perfbench/README.md`).
    pub const WORKLOADS: [CellKind; 2] = [CellKind::Static, CellKind::MobileLossy];

    /// The name of the kind's workload in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            CellKind::Static => "cell_static",
            CellKind::MobileLossy => "cell_mobile_lossy",
            CellKind::Crowded => "cell_crowded",
        }
    }

    pub fn parse(name: &str) -> Option<CellKind> {
        CellKind::WORKLOADS.into_iter().find(|k| k.name() == name)
    }

    /// Video and data UE counts.
    pub fn flows(self) -> (usize, usize) {
        match self {
            CellKind::Static | CellKind::MobileLossy => (8, 0),
            CellKind::Crowded => (32, 8),
        }
    }

    /// Whether UEs move (fading channels) or keep one seeded position.
    pub fn mobile(self) -> bool {
        self == CellKind::MobileLossy
    }

    /// The cell's configuration for `seed`, simulating `secs` seconds.
    pub fn config(self, seed: u64, secs: u64) -> SimConfig {
        let (videos, data) = self.flows();
        let mobility = MobilityConfig::default();
        let builder = SimConfig::builder()
            .seed(seed)
            .duration(TimeDelta::from_secs(secs))
            .videos(videos)
            .data_flows(data);
        match self {
            CellKind::Static | CellKind::Crowded => builder
                .channel(ChannelKind::StationaryRandom(mobility))
                .scheme(SchemeKind::Flare(FlareConfig::default())),
            CellKind::MobileLossy => builder
                .channel(ChannelKind::Mobile(mobility))
                .scheme(SchemeKind::Flare(
                    FlareConfig::default().with_robustness(RobustnessConfig::default()),
                ))
                .faults(FaultModel::perfect().with_drop_prob(0.2)),
        }
        .build()
    }
}

/// Seed of cell `index` in a workload drawn from `seed`.
pub fn cell_seed(seed: u64, index: usize) -> u64 {
    derive_seed(seed, "perfbench-cell", index as u64)
}

/// Timings of one cell run, taken around the public calls.
#[derive(Debug, Clone)]
pub struct Spans {
    /// `CellSim::new` + `into_stepper`.
    pub build: Duration,
    /// One entry per BAI: its `advance_to_bai` plus its `bai_boundary`.
    /// The last entry is the final advance, which exhausts the duration.
    pub chunks: Vec<Duration>,
    /// Per-call timings, recorded only by a traced run: `advance[r]` and
    /// `bai[r]` are the two barrier rounds of BAI `r`; the final advance
    /// has no `bai` partner.
    pub advance: Vec<Duration>,
    pub bai: Vec<Duration>,
    /// `into_result`.
    pub result: Duration,
}

impl Spans {
    /// This cell's serial time per barrier round, in seconds, in the order
    /// `MultiCellSim::run` executes them: advance, boundary, advance, …
    pub fn rounds(&self) -> Vec<f64> {
        let mut rounds = Vec::with_capacity(self.advance.len() + self.bai.len());
        for (i, a) in self.advance.iter().enumerate() {
            rounds.push(a.as_secs_f64());
            if let Some(b) = self.bai.get(i) {
                rounds.push(b.as_secs_f64());
            }
        }
        rounds
    }

    /// Time spent stepping: every advance and boundary call.
    pub fn stepping(&self) -> Duration {
        self.chunks.iter().sum()
    }
}

/// The fastest observed time to step and finish one cell: the sum over
/// BAI chunks of each chunk's minimum across `runs`, plus the fastest
/// `into_result`.
///
/// The host this was tuned on slows all work by up to about 2× for
/// stretches of seconds to minutes, yet single 10 s BAIs (a few ms of
/// work) still run at full speed now and then. The per-chunk minimum over
/// many repetitions finds those moments; a median over the run moves with
/// the share of it spent slow.
pub fn best_run_secs(runs: &[Spans]) -> f64 {
    let chunks = runs.iter().map(|s| s.chunks.len()).min().unwrap_or(0);
    let fastest = |f: &dyn Fn(&Spans) -> Duration| {
        runs.iter()
            .map(|s| f(s).as_secs_f64())
            .fold(f64::INFINITY, f64::min)
    };
    (0..chunks).map(|k| fastest(&|s| s.chunks[k])).sum::<f64>() + fastest(&|s| s.result)
}

/// Runs `config` to completion through `CellSim::new`, `into_stepper`,
/// `advance_to_bai`/`bai_boundary` and `into_result`, timing each BAI.
/// With `per_call`, the two stepping calls are timed separately as well.
///
/// Returns `None` if the run panicked (an invariant violation panics when
/// the battery is on).
pub fn run_cell(config: SimConfig, per_call: bool) -> Option<(Summary, Spans)> {
    catch_unwind(AssertUnwindSafe(|| {
        let t0 = Instant::now();
        let mut stepper = CellSim::new(config).into_stepper();
        let mut a = Instant::now();
        let build = a - t0;
        let (mut chunks, mut advance, mut bai) = (Vec::new(), Vec::new(), Vec::new());
        loop {
            let more = stepper.advance_to_bai().is_some();
            if per_call {
                let b = Instant::now();
                advance.push(b - a);
                if more {
                    stepper.bai_boundary();
                    bai.push(b.elapsed());
                }
            } else if more {
                stepper.bai_boundary();
            }
            let end = Instant::now();
            chunks.push(end - a);
            if !more {
                break;
            }
            a = end;
        }
        let t = Instant::now();
        let result = stepper.into_result();
        let spans = Spans {
            build,
            chunks,
            advance,
            bai,
            result: t.elapsed(),
        };
        (Summary::of(&result), spans)
    }))
    .ok()
}

/// The deterministic outcome of a cell run plus its in-cell solve times.
#[derive(Debug, Clone)]
pub struct Summary {
    /// FNV-1a over every rate, buffer and throughput sample, the player
    /// statistics, the control-plane report and the telemetry counters.
    pub digest: u64,
    pub video_rate_kbps: f64,
    pub stall_s: f64,
    pub bitrate_changes: f64,
    pub jain: f64,
    pub solves: u64,
    pub solver_steps: f64,
    pub deferrals: u64,
    pub warm_hits: u64,
    pub warm_misses: u64,
    pub requests: u64,
    pub stalls: u64,
    pub dropped: u64,
    pub fallback_bais: u64,
    pub solve_times: Vec<Duration>,
}

impl Summary {
    pub fn of(r: &RunResult) -> Summary {
        let t = &r.telemetry;
        Summary {
            digest: digest(r),
            video_rate_kbps: r.average_video_rate_kbps(),
            stall_s: r.average_underflow_secs(),
            bitrate_changes: r.average_bitrate_changes(),
            jain: r.jain_of_video_rates(),
            solves: t.counter("solver.solves"),
            solver_steps: t.histogram("solver.steps").map_or(0.0, |h| h.sum),
            deferrals: t.counter("solver.deferrals"),
            warm_hits: t.counter("solver.warm_hits"),
            warm_misses: t.counter("solver.warm_misses"),
            requests: t.counter("player.requests"),
            stalls: t.counter("player.stalls"),
            dropped: t.counter("control.dropped"),
            fallback_bais: t.counter("plugin.fallback_bais"),
            solve_times: r.solve_times.clone(),
        }
    }
}

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn series(&mut self, points: &[(f64, f64)]) {
        self.u64(points.len() as u64);
        for &(t, v) in points {
            self.f64(t);
            self.f64(v);
        }
    }
}

/// Digest of everything a run computes that does not depend on wall-clock
/// time (solve times and the `solver.wall_ms` histogram are left out).
pub fn digest(r: &RunResult) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for v in &r.videos {
        h.series(v.rate_series.points());
        h.series(v.buffer_series.points());
        h.series(v.throughput_series.points());
        let s = &v.stats;
        h.f64(s.average_rate.as_bps());
        h.u64(s.bitrate_changes);
        h.f64(s.underflow_time.as_secs_f64());
        h.u64(s.rebuffer_events);
        h.u64(s.segments);
    }
    for d in &r.data {
        h.series(d.throughput_series.points());
    }
    if let Some(rb) = &r.robustness {
        for v in [
            rb.delivered,
            rb.dropped,
            rb.lost_to_outage,
            rb.reordered,
            rb.fallback_bais,
            rb.stale_rejections,
            rb.installs,
            rb.expired_leases,
            rb.evicted_clients,
        ] {
            h.u64(v);
        }
    }
    let mut counters: Vec<&(String, u64)> = r.telemetry.counters.iter().collect();
    counters.sort();
    for (name, value) in counters {
        h.bytes(name.as_bytes());
        h.u64(*value);
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest_of(kind: CellKind, seed: u64) -> u64 {
        run_cell(kind.config(cell_seed(seed, 0), 30), false)
            .expect("cell runs")
            .0
            .digest
    }

    #[test]
    fn same_seed_same_digest_other_seed_other_digest() {
        for kind in [CellKind::Static, CellKind::MobileLossy] {
            let a = digest_of(kind, 1);
            assert_eq!(a, digest_of(kind, 1), "{kind:?} twin diverged");
            assert_ne!(a, digest_of(kind, 2), "{kind:?} ignored its seed");
        }
    }

    #[test]
    fn spans_match_the_bai_structure() {
        let config = CellKind::Static.config(3, 25);
        let (a, traced) = run_cell(config.clone(), true).expect("cell runs");
        // 25 s at a 10 s BAI: two boundaries, three advances.
        assert_eq!(traced.bai.len(), 2);
        assert_eq!(traced.advance.len(), 3);
        assert_eq!(traced.chunks.len(), 3);
        assert_eq!(traced.rounds().len(), 5);
        let (b, plain) = run_cell(config, false).expect("cell runs");
        assert_eq!(a.digest, b.digest);
        assert_eq!(plain.chunks.len(), 3);
        assert!(plain.advance.is_empty() && plain.bai.is_empty());
        let best = best_run_secs(&[traced.clone(), plain.clone()]);
        let once = |s: &Spans| (s.stepping() + s.result).as_secs_f64();
        assert!(best > 0.0 && best <= once(&traced).min(once(&plain)));
    }
}
