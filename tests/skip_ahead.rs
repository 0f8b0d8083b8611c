//! Differential oracle for the event-driven skip-ahead (DESIGN.md §11).
//!
//! `CellStepper` runs provably idle stretches of TTIs in closed form
//! (player coasting plus `ENodeB::skip_quiescent`), but never while the
//! invariant battery is on: a checked run observes every TTI, so it is the
//! per-TTI reference path. Each check below runs the same cell twice, with
//! invariants off (coasting) and on (reference), and demands byte-equal
//! outcomes: every result series, player statistics, the robustness
//! report, the telemetry registry (minus the wall-clock solve histogram)
//! and the debug-level JSONL trace.
//!
//! The eNodeB half is checked one level down as well: a cell whose channels
//! promise no hold (`ChannelModel::hold_until` is `None`) never goes
//! quiescent, so it steps every TTI in full and is the reference for a cell
//! driven through `skip_quiescent`.

use std::fmt::Write as _;

use flare_core::{FaultModel, FlareConfig, OutageWindow, RobustnessConfig};
use flare_has::PlayerConfig;
use flare_lte::channel::{ChannelModel, MarkovChannel, StaticChannel, TriangleWave};
use flare_lte::mobility::{generate_trace, MobilityChannel, MobilityConfig};
use flare_lte::scheduler::{
    MacScheduler, PrioritySetScheduler, ProportionalFair, RoundRobin, StrictGbrPartition,
    TwoPhaseGbr,
};
use flare_lte::{CellConfig, Delivered, ENodeB, FlowClass, FlowId, Itbs};
use flare_scenarios::{
    CellSim, ChannelKind, MultiCellSim, RunResult, SchedulerKind, SchemeKind, SimConfig,
};
use flare_sim::rng::stream;
use flare_sim::units::{ByteCount, Rate};
use flare_sim::{Time, TimeDelta};
use flare_trace::{Category, TraceConfig, TraceHandle};
use proptest::prelude::*;

/// One randomised cell: every field indexes a dimension of the oracle.
#[derive(Debug, Clone, Copy)]
struct Case {
    /// 0 FLARE, 1 FLARE-R, 2 FESTIVE, 3 GOOGLE.
    scheme: usize,
    /// 0 static, 1 mobile, 2 recorded mobility trace, 3 triangle wave,
    /// 4 recorded Markov random walk.
    channel: usize,
    /// Index into [`SCHEDULERS`].
    scheduler: usize,
    /// 0 perfect, 1 drop, 2 delay, 3 jitter, 4 reorder, 5 outage.
    fault: usize,
    videos: usize,
    data: usize,
    /// Trailing video UEs running a conventional FESTIVE player.
    legacy: usize,
    /// The players' request threshold in seconds (30 is the default).
    request_threshold_s: u64,
    request_jitter_ms: u64,
    seed: u64,
    /// Run length; off whole seconds, so the end of the run bounds a span
    /// on its own rather than through the per-second sample.
    duration_ms: u64,
    /// BAI length; off whole seconds for the same reason.
    bai_ms: u64,
}

const SCHEDULERS: [SchedulerKind; 5] = [
    SchedulerKind::ProportionalFair,
    SchedulerKind::TwoPhaseGbr,
    SchedulerKind::PrioritySet,
    SchedulerKind::StrictPartition,
    SchedulerKind::RoundRobin,
];

impl Case {
    fn config(self, check_invariants: bool, trace: TraceHandle) -> SimConfig {
        let flare = FlareConfig::default();
        let scheme = match self.scheme {
            0 => SchemeKind::Flare(flare),
            1 => SchemeKind::Flare(flare.with_robustness(RobustnessConfig::default())),
            2 => SchemeKind::Festive,
            _ => SchemeKind::Google,
        };
        let faults = match self.fault {
            0 => FaultModel::perfect(),
            1 => FaultModel::perfect().with_drop_prob(0.2),
            2 => FaultModel::perfect().with_delay(TimeDelta::from_millis(300)),
            3 => FaultModel::perfect().with_jitter(TimeDelta::from_millis(800)),
            4 => FaultModel::perfect().with_reorder_prob(0.3),
            _ => FaultModel::perfect().with_outage(OutageWindow::new(
                Time::from_secs(100),
                Time::from_secs(160),
            )),
        };
        let mut builder = SimConfig::builder()
            .seed(self.seed)
            .duration(TimeDelta::from_millis(self.duration_ms))
            .bai(TimeDelta::from_millis(self.bai_ms))
            .videos(self.videos)
            .data_flows(self.data)
            .legacy_video(self.legacy)
            .player(PlayerConfig {
                request_threshold: TimeDelta::from_secs(self.request_threshold_s),
                ..PlayerConfig::default()
            })
            .channel(self.channel_kind())
            .scheduler(SCHEDULERS[self.scheduler])
            .scheme(scheme)
            .request_jitter(TimeDelta::from_millis(self.request_jitter_ms))
            .trace(trace)
            .check_invariants(check_invariants);
        if self.fault > 0 {
            builder = builder.faults(faults);
        }
        builder.build()
    }

    fn channel_kind(self) -> ChannelKind {
        let n = (self.videos + self.data) as u64;
        let duration = TimeDelta::from_millis(self.duration_ms);
        match self.channel {
            0 => ChannelKind::Static {
                itbs: 2 + (self.seed % 12) as u8,
            },
            1 => ChannelKind::Mobile(MobilityConfig::default()),
            2 => ChannelKind::Traces(
                (0..n)
                    .map(|ue| {
                        generate_trace(
                            &MobilityConfig::default(),
                            duration,
                            stream(self.seed, "walk", ue),
                            stream(self.seed, "fade", ue),
                        )
                        .to_csv()
                    })
                    .collect(),
            ),
            3 => ChannelKind::Triangle {
                min: 1,
                max: 12,
                period: TimeDelta::from_secs(240),
            },
            _ => ChannelKind::Traces(
                (0..n)
                    .map(|ue| markov_csv(self.seed, ue, duration))
                    .collect(),
            ),
        }
    }
}

/// A Markov random-walk channel recorded to trace CSV (one row per move).
fn markov_csv(seed: u64, ue: u64, duration: TimeDelta) -> String {
    let mut ch = markov(seed, ue);
    let mut csv = String::new();
    let mut last = None;
    for ms in (0..=duration.as_millis()).step_by(10) {
        let v = ch.itbs_at(Time::from_millis(ms));
        if last != Some(v) {
            writeln!(csv, "{ms},{}", v.index()).unwrap();
            last = Some(v);
        }
    }
    csv
}

fn markov(seed: u64, ue: u64) -> MarkovChannel {
    MarkovChannel::new(
        Itbs::new(3),
        Itbs::new(16),
        Itbs::new(9),
        TimeDelta::from_millis(400 + 70 * ue),
        0.5,
        stream(seed, "markov", ue),
    )
}

/// What one run produced, rendered so that equality is bit equality.
struct Outcome {
    canonical: String,
    jsonl: String,
    coasted: u64,
    /// `CellStepper::lazy_player_ms`.
    lazy_ms: u64,
    result: RunResult,
}

/// Debug-level trace with MAC ticks sampled at an odd stride, so sampled
/// `tti` records land inside coasted spans.
fn recorder() -> TraceHandle {
    TraceHandle::new(
        TraceConfig::debug()
            .with_sampling(Category::Mac, 37)
            .with_capacity(1 << 18),
    )
}

fn run(case: Case, check_invariants: bool) -> Outcome {
    let trace = recorder();
    let mut stepper = CellSim::new(case.config(check_invariants, trace.clone())).into_stepper();
    while stepper.advance_to_bai().is_some() {
        stepper.bai_boundary();
    }
    let coasted = stepper.coasted_ttis();
    let lazy_ms = stepper.lazy_player_ms();
    let result = stepper.into_result();
    Outcome {
        canonical: canonical(&result),
        jsonl: trace.to_jsonl(),
        coasted,
        lazy_ms,
        result,
    }
}

/// Every deterministic part of a [`RunResult`], with floats in their
/// round-trip `Debug` form. Solve wall times (and their histogram) are
/// host timings, so only their count is kept.
fn canonical(r: &RunResult) -> String {
    let mut s = String::new();
    writeln!(
        s,
        "{} {:?} solves={}",
        r.scheme,
        r.duration,
        r.solve_times.len()
    )
    .unwrap();
    for v in &r.videos {
        writeln!(
            s,
            "video {} {:?}\n{:?}\n{:?}\n{:?}\n{:?}",
            v.index,
            v.stats,
            v.rate_series,
            v.buffer_series,
            v.throughput_series,
            v.average_throughput
        )
        .unwrap();
    }
    for d in &r.data {
        writeln!(
            s,
            "data {} {:?} {:?}",
            d.index, d.throughput_series, d.average_throughput
        )
        .unwrap();
    }
    writeln!(s, "{:?}", r.robustness).unwrap();
    let t = &r.telemetry;
    writeln!(s, "{:?}\n{:?}", t.counters, t.gauges).unwrap();
    for (name, h) in &t.histograms {
        if name != "solver.wall_ms" {
            writeln!(s, "{name} {h:?}").unwrap();
        }
    }
    s
}

/// Runs `case` with and without the invariant battery and asserts the two
/// are byte-equal. Returns the unchecked run.
fn assert_skip_ahead_is_exact(case: Case) -> Result<Outcome, TestCaseError> {
    let fast = run(case, false);
    let reference = run(case, true);
    prop_assert_eq!(reference.coasted, 0, "a checked run must step every TTI");
    prop_assert_eq!(
        reference.lazy_ms,
        0,
        "a checked run must step every player every TTI"
    );
    prop_assert!(!reference.jsonl.is_empty());
    prop_assert!(
        fast.canonical == reference.canonical,
        "results diverge for {:?}",
        case
    );
    prop_assert!(
        fast.jsonl == reference.jsonl,
        "traces diverge for {:?}",
        case
    );
    Ok(fast)
}

/// The benchmark's `cell_mobile_lossy` shape: vehicular FLARE-R under 20%
/// message loss. About half its TTIs are idle, so coasting must fire —
/// this is what keeps the oracle from passing vacuously.
#[test]
fn mobile_flare_r_under_loss_coasts_and_matches_the_per_tti_path() {
    let case = Case {
        scheme: 1,
        channel: 1,
        scheduler: 2,
        fault: 1,
        videos: 8,
        data: 0,
        legacy: 0,
        request_threshold_s: 30,
        request_jitter_ms: 0,
        seed: 5,
        duration_ms: 300_000,
        bai_ms: 10_000,
    };
    let coasted = assert_skip_ahead_is_exact(case).unwrap().coasted;
    assert!(
        coasted > 30_000,
        "only {coasted} of 300k TTIs coasted on the mobile FLARE-R cell"
    );
}

/// Static FLARE (the fig6 shape) and recorded traces coast too; data flows
/// keep the cell busy and must switch coasting off without a trace of it.
#[test]
fn named_cells_match_the_per_tti_path() {
    let base = Case {
        scheme: 0,
        channel: 0,
        scheduler: 2,
        fault: 0,
        videos: 8,
        data: 0,
        legacy: 0,
        request_threshold_s: 30,
        request_jitter_ms: 0,
        seed: 2,
        duration_ms: 300_000,
        bai_ms: 10_000,
    };
    let fig6 = assert_skip_ahead_is_exact(base).unwrap().coasted;
    assert!(fig6 > 0, "static FLARE cell never coasted");
    let traced = assert_skip_ahead_is_exact(Case {
        scheme: 2,
        channel: 2,
        scheduler: 0,
        videos: 4,
        ..base
    })
    .unwrap()
    .coasted;
    assert!(traced > 0, "trace-channel FESTIVE cell never coasted");
    // A BAI and a run end off whole seconds: the BAI boundary and the end
    // of the run, not the per-second sample, close these spans.
    let odd = assert_skip_ahead_is_exact(Case {
        scheme: 1,
        duration_ms: 300_457,
        bai_ms: 2_500,
        ..base
    })
    .unwrap()
    .coasted;
    assert!(odd > 0, "odd-BAI FLARE-R cell never coasted");
    let busy = assert_skip_ahead_is_exact(Case { data: 1, ..base })
        .unwrap()
        .coasted;
    assert_eq!(busy, 0, "a greedy data flow leaves no idle TTI");
}

/// Lazy player clocks: a player is stepped only when its horizon runs out
/// or a delivery completes its segment, and owes pure buffer drains in
/// between. Each case ends horizons a different way; each must match the
/// per-TTI path, and its players must have deferred more player-ms than
/// whole-cell coasting alone accounts for (so busy TTIs skipped steps too).
#[test]
fn lazy_player_clocks_match_the_per_tti_path() {
    let base = Case {
        scheme: 0,
        channel: 0,
        scheduler: 2,
        fault: 0,
        videos: 8,
        data: 0,
        legacy: 0,
        request_threshold_s: 30,
        request_jitter_ms: 0,
        seed: 2,
        duration_ms: 200_000,
        bai_ms: 10_000,
    };
    let check = |name: &str, case: Case| -> RunResult {
        let fast = assert_skip_ahead_is_exact(case).unwrap();
        assert!(
            fast.lazy_ms > case.videos as u64 * fast.coasted,
            "{name}: {} lazy player-ms, {} coasted TTIs",
            fast.lazy_ms,
            fast.coasted
        );
        fast.result
    };
    // An overloaded static cell (40 GOOGLE players at iTbs 2 need more
    // than its 3.2 Mbps even at 100 kbps): buffers run dry mid-download,
    // so horizons end in stalls, and stalled players resume.
    let dry = check(
        "overloaded",
        Case {
            scheme: 3,
            videos: 40,
            seed: 12,
            ..base
        },
    );
    let stalls: u64 = dry.videos.iter().map(|v| v.stats.rebuffer_events).sum();
    assert!(stalls > 0, "the overloaded cell never stalled");
    // A short run is mostly start-up: no horizon before playback starts.
    check(
        "start-up",
        Case {
            duration_ms: 20_457,
            bai_ms: 2_500,
            ..base
        },
    );
    // Requests held in transport flight while players lag.
    check(
        "request jitter",
        Case {
            request_jitter_ms: 200,
            ..base
        },
    );
    // Conventional FESTIVE players beside FLARE ones.
    check("legacy", Case { legacy: 3, ..base });
    // A request threshold past the media length: every segment is fetched
    // long before the run ends, and finished players step every TTI.
    let ended = check(
        "media end",
        Case {
            scheme: 2,
            videos: 2,
            request_threshold_s: 100_000,
            ..base
        },
    );
    // The runner's media outlasts the run by four 10 s segments.
    let segments = (base.duration_ms / 1000 + 40) / 10;
    assert!(
        ended.videos.iter().all(|v| v.stats.segments == segments),
        "players did not fetch all {segments} segments"
    );
}

/// Every fault model on the mobile FLARE-R cell, and the naive FLARE plugin
/// under jitter: delayed, reordered and outage-lost messages fall due
/// between BAIs, inside what would otherwise be one coasted span.
#[test]
fn every_fault_model_matches_the_per_tti_path() {
    let base = Case {
        scheme: 1,
        channel: 1,
        scheduler: 2,
        fault: 0,
        videos: 6,
        data: 0,
        legacy: 0,
        request_threshold_s: 30,
        request_jitter_ms: 0,
        seed: 9,
        duration_ms: 300_000,
        bai_ms: 10_000,
    };
    for fault in 1..=5 {
        let coasted = assert_skip_ahead_is_exact(Case { fault, ..base })
            .unwrap()
            .coasted;
        assert!(coasted > 0, "fault model {fault} never coasted");
    }
    let naive = assert_skip_ahead_is_exact(Case {
        scheme: 0,
        fault: 3,
        ..base
    })
    .unwrap()
    .coasted;
    assert!(naive > 0, "naive FLARE under jitter never coasted");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    /// Scheme × channel × scheduler × fault model × data flows × transport
    /// jitter × BAI and run lengths: coasting is invisible in every
    /// combination.
    #[test]
    fn skip_ahead_is_invisible(
        (scheme, channel, scheduler, fault) in (0usize..4, 0usize..5, 0usize..5, 0usize..6),
        videos in 1usize..=6,
        data in 0usize..=2,
        jitter in 0u64..4,
        seed in 0u64..1_000_000,
        bai in 0usize..3,
        extra_ms in 0u64..1_000,
    ) {
        let case = Case {
            scheme,
            channel,
            scheduler,
            fault,
            videos,
            data,
            legacy: 0,
            request_threshold_s: 30,
            // Three in four cases keep requests instantaneous; the rest
            // hold them in transport flight (which suspends coasting).
            request_jitter_ms: if jitter == 0 { 1500 } else { 0 },
            seed,
            duration_ms: 300_000 + extra_ms,
            bai_ms: [10_000, 2_500, 4_300][bai],
        };
        assert_skip_ahead_is_exact(case)?;
    }
}

/// A sharded fleet with invariants off coasts on its workers and still
/// reproduces, cell by cell, the per-TTI serial trace. (`tests/sharded.rs`
/// keeps the battery on, so its fleets never coast.)
#[test]
fn sharded_fleet_with_coasting_matches_the_per_tti_serial_path() {
    let cell = |i: usize| -> Case {
        Case {
            scheme: 1,
            channel: 1 + (i % 2) * 3,
            scheduler: 2,
            fault: 1,
            videos: 4,
            data: 0,
            legacy: 0,
            request_threshold_s: 30,
            request_jitter_ms: 0,
            seed: 40 + i as u64,
            duration_ms: 300_000,
            bai_ms: 10_000,
        }
    };
    let outcome = MultiCellSim::new(3, 2, true, move |i| cell(i).config(false, recorder())).run();
    for (i, sharded) in outcome.traces.iter().enumerate() {
        let trace = TraceHandle::new(TraceConfig::info());
        CellSim::new(cell(i).config(true, trace.clone())).run();
        let sharded = sharded.as_ref().expect("traces were requested");
        assert!(!sharded.is_empty());
        assert!(
            *sharded == trace.to_jsonl(),
            "cell {i}: coasting shard deviates from the per-TTI serial path"
        );
    }
}

/// Delegates to a channel but promises no hold, so a cell built from these
/// never goes quiescent and steps every TTI in full.
struct NoHold(Box<dyn ChannelModel>);

impl ChannelModel for NoHold {
    fn itbs_at(&mut self, t: Time) -> Itbs {
        self.0.itbs_at(t)
    }
}

fn channel(kind: usize, seed: u64, ue: u64) -> Box<dyn ChannelModel> {
    match kind {
        0 => Box::new(StaticChannel::new(Itbs::new(2 + ((seed + ue) % 20) as u8))),
        1 => Box::new(MobilityChannel::new(
            MobilityConfig::default(),
            stream(seed, "walk", ue),
            stream(seed, "fade", ue),
        )),
        2 => Box::new(generate_trace(
            &MobilityConfig::default(),
            TimeDelta::from_secs(30),
            stream(seed, "walk", ue),
            stream(seed, "fade", ue),
        )),
        3 => Box::new(TriangleWave::new(
            Itbs::new(1),
            Itbs::new(12),
            TimeDelta::from_secs(20),
            TimeDelta::from_millis(1_300 * ue),
        )),
        _ => Box::new(markov(seed, ue)),
    }
}

fn scheduler(kind: usize) -> Box<dyn MacScheduler> {
    match kind {
        0 => Box::new(ProportionalFair::default()),
        1 => Box::new(TwoPhaseGbr::default()),
        2 => Box::new(PrioritySetScheduler::default()),
        3 => Box::new(StrictGbrPartition::default()),
        _ => Box::new(RoundRobin::new()),
    }
}

/// One externally driven change to a cell, applied before the TTI at `ms`.
#[derive(Debug, Clone, Copy)]
struct Event {
    ms: u64,
    flow: usize,
    /// 0 backlog push, 1 lease, 2 persistent GBR, 3 MBR, 4 clear GBR.
    kind: u8,
    amount: u64,
}

fn apply(enb: &mut ENodeB, flows: &[FlowId], e: Event) {
    let flow = flows[e.flow % flows.len()];
    let now = Time::from_millis(e.ms);
    match e.kind {
        0 => enb.push_backlog(flow, ByteCount::new(e.amount)),
        1 => enb.set_gbr_lease(
            flow,
            Rate::from_kbps(e.amount as f64 / 100.0),
            now + TimeDelta::from_millis(1 + e.amount % 3_000),
        ),
        2 => enb.set_gbr(flow, Some(Rate::from_kbps(e.amount as f64 / 100.0))),
        3 => enb.set_mbr(flow, Some(Rate::from_kbps(e.amount as f64 / 50.0))),
        _ => enb.set_gbr(flow, None),
    }
}

fn cell(
    channels: usize,
    sched: usize,
    seed: u64,
    videos: usize,
    hold: bool,
) -> (ENodeB, Vec<FlowId>, TraceHandle) {
    let trace = TraceHandle::new(
        TraceConfig::debug()
            .with_sampling(Category::Mac, 3)
            .with_capacity(1 << 16),
    );
    let mut enb = ENodeB::new(CellConfig::default(), scheduler(sched));
    enb.set_trace(trace.clone());
    let flows = (0..videos as u64)
        .map(|ue| {
            let ch = channel(channels, seed, ue);
            let ch: Box<dyn ChannelModel> = if hold { ch } else { Box::new(NoHold(ch)) };
            enb.add_flow(FlowClass::Video, ch)
        })
        .collect();
    (enb, flows, trace)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// `ENodeB::skip_quiescent` over every quiescent window equals stepping
    /// a never-quiescent twin TTI by TTI: same deliveries, reports (with
    /// iTbs), lease expiries, trace bytes — for every channel kind,
    /// including the Markov walk the runner cannot configure.
    #[test]
    fn skip_quiescent_equals_full_ttis(
        channels in 0usize..5,
        sched in 0usize..5,
        videos in 1usize..=5,
        seed in 0u64..1_000_000,
        report_ms in 1u64..1_500,
        raw in prop::collection::vec((0u64..20_000, 0usize..5, 0u8..5, 1u64..400_000), 0..40),
    ) {
        const TTIS: u64 = 20_000;
        let mut events: Vec<Event> = raw
            .iter()
            .map(|&(ms, flow, kind, amount)| Event { ms, flow, kind, amount })
            .collect();
        events.sort_by_key(|e| e.ms);
        let (mut fast, flows, fast_trace) = cell(channels, sched, seed, videos, true);
        let (mut reference, _, ref_trace) = cell(channels, sched, seed, videos, false);
        let mut next_event = 0;
        let mut ms = 0;
        let mut skipped = 0;
        while ms < TTIS {
            while next_event < events.len() && events[next_event].ms == ms {
                apply(&mut fast, &flows, events[next_event]);
                apply(&mut reference, &flows, events[next_event]);
                next_event += 1;
            }
            // Reports read each flow's iTbs, so their odd period also
            // probes channel holds at arbitrary offsets.
            if ms % report_ms == 0 {
                let now = Time::from_millis(ms);
                prop_assert_eq!(fast.take_report(now), reference.take_report(now));
            }
            let now = Time::from_millis(ms);
            let quiet_ms = fast.quiescent_until().as_millis();
            if quiet_ms > ms {
                let event_ms = events.get(next_event).map_or(TTIS, |e| e.ms);
                let next_report = (ms / report_ms + 1) * report_ms;
                let n = (quiet_ms - ms).min(event_ms - ms).min(next_report - ms).min(TTIS - ms);
                fast.skip_quiescent(now, n);
                for k in 0..n {
                    let d = reference.step_tti(now + TimeDelta::from_millis(k));
                    prop_assert!(d.is_empty(), "quiescent TTI {} delivered {:?}", ms + k, d);
                }
                skipped += n;
                ms += n;
            } else {
                let a: Vec<Delivered> = fast.step_tti(now).to_vec();
                prop_assert_eq!(&a[..], reference.step_tti(now));
                ms += 1;
            }
        }
        prop_assert_eq!(reference.quiescent_until(), Time::ZERO);
        prop_assert_eq!(fast.expired_lease_count(), reference.expired_lease_count());
        for &f in &flows {
            prop_assert_eq!(fast.backlog(f), reference.backlog(f));
            prop_assert_eq!(fast.qos(f), reference.qos(f));
            prop_assert_eq!(fast.total_bytes(f), reference.total_bytes(f));
        }
        let end = Time::from_millis(TTIS);
        prop_assert_eq!(fast.take_report(end), reference.take_report(end));
        prop_assert!(fast_trace.to_jsonl() == ref_trace.to_jsonl(), "traces diverge");
        // Only the strict partition (no idle tick) and the triangle wave
        // (no hold) may never go quiescent.
        if sched != 3 && channels != 3 {
            prop_assert!(skipped > 0, "no quiescent window in {} TTIs", TTIS);
        }
    }
}
