//! Regression test: the per-TTI hot path must be allocation-free once the
//! cell's scratch buffers have warmed up.
//!
//! A counting global allocator wraps the system allocator; after a warm-up
//! period that lets every reused buffer (TTI flow states, grants, delivered
//! results, scheduler scratch, PF averages) reach its steady-state capacity,
//! ten thousand further TTIs must perform exactly zero heap operations.
//!
//! This test runs with `harness = false` (see the `[[test]]` entry in
//! Cargo.toml) so the process is truly single-threaded: libtest's harness
//! threads allocate at unpredictable times and would otherwise perturb the
//! global counter mid-measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use flare_core::{FaultModel, FlareConfig, RobustnessConfig};
use flare_lte::channel::{StaticChannel, TriangleWave};
use flare_lte::mobility::MobilityConfig;
use flare_lte::scheduler::{
    MacScheduler, PrioritySetScheduler, ProportionalFair, RoundRobin, StrictGbrPartition,
    TwoPhaseGbr,
};
use flare_lte::{CellConfig, ENodeB, FlowClass, Itbs};
use flare_scenarios::cell::cell_config;
use flare_scenarios::{CellSim, ChannelKind, SchemeKind, SimConfig};
use flare_sim::units::{ByteCount, Rate};
use flare_sim::{Time, TimeDelta};
use flare_trace::TraceHandle;

struct CountingAlloc;

static ALLOC_OPS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_OPS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_OPS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_OPS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// A loaded cell: four GBR video flows (two on moving channels, so the
/// iTbs→bits-per-RB cache is exercised through invalidations) and four
/// greedy data flows keeping every scheduler phase busy.
fn build_cell(scheduler: Box<dyn MacScheduler>) -> (ENodeB, Vec<flare_lte::FlowId>) {
    let mut enb = ENodeB::new(CellConfig::default(), scheduler);
    let mut videos = Vec::new();
    for i in 0..4u8 {
        let f = if i % 2 == 0 {
            enb.add_flow(
                FlowClass::Video,
                Box::new(StaticChannel::new(Itbs::new(6 + i))),
            )
        } else {
            enb.add_flow(
                FlowClass::Video,
                Box::new(TriangleWave::new(
                    Itbs::new(2),
                    Itbs::new(12 + i),
                    TimeDelta::from_millis(400),
                    TimeDelta::from_millis(u64::from(i) * 50),
                )),
            )
        };
        enb.set_gbr(f, Some(Rate::from_kbps(500.0)));
        enb.push_backlog(f, ByteCount::new(4_000_000));
        videos.push(f);
    }
    for i in 0..4u8 {
        enb.add_flow(
            FlowClass::Data,
            Box::new(StaticChannel::new(Itbs::new(4 + i))),
        );
    }
    (enb, videos)
}

fn main() {
    let schedulers: Vec<(&str, Box<dyn MacScheduler>)> = vec![
        ("pf", Box::new(ProportionalFair::default())),
        ("two-phase-gbr", Box::new(TwoPhaseGbr::default())),
        ("priority-set", Box::new(PrioritySetScheduler::default())),
        (
            "strict-gbr-partition",
            Box::new(StrictGbrPartition::default()),
        ),
        ("round-robin", Box::new(RoundRobin::new())),
    ];
    for (name, scheduler) in schedulers {
        let (mut enb, videos) = build_cell(scheduler);

        // Warm-up: let every scratch buffer reach steady-state capacity.
        for ms in 0..200u64 {
            let _ = enb.step_tti(Time::from_millis(ms));
        }

        let before = ALLOC_OPS.load(Ordering::Relaxed);
        let mut delivered_ttis = 0u64;
        for ms in 200..10_200u64 {
            delivered_ttis += u64::from(!enb.step_tti(Time::from_millis(ms)).is_empty());
            // Keep the video queues fed mid-measurement: ByteCount addition
            // on an existing backlog is part of the alloc-free contract.
            if ms % 1000 == 0 {
                for &f in &videos {
                    enb.push_backlog(f, ByteCount::new(500_000));
                }
            }
        }
        let ops = ALLOC_OPS.load(Ordering::Relaxed) - before;
        assert!(
            delivered_ttis > 9_000,
            "[{name}] cell went idle mid-measurement: {delivered_ttis} busy TTIs"
        );
        assert_eq!(
            ops, 0,
            "[{name}] hot path performed {ops} allocator operations over 10k TTIs"
        );
        println!("[{name}] 10k TTIs, 0 allocator operations ... ok");
    }

    // The sharded engine's steady-state contract (DESIGN.md §12): once a
    // cell's stepper has warmed up, a full between-barriers window
    // (`CellStepper::advance_to_bai`) performs zero allocator operations.
    // Shard-pool setup and BAI boundaries (solves, assignment installs,
    // control messages) may allocate; per-TTI stepping may not.
    // `MultiCellSim` drives exactly this path on its workers, so the gate
    // is measured here on the caller thread where the counter is quiet.
    let config = cell_config(
        SchemeKind::Flare(FlareConfig::default()),
        ChannelKind::StationaryRandom(MobilityConfig::default()),
        8,
        0,
        1,
        TimeDelta::from_secs(40),
    );
    let mut stepper = CellSim::new(config).into_stepper();
    for _ in 0..3 {
        stepper.advance_to_bai().expect("warm-up window");
        stepper.bai_boundary();
    }
    let before = ALLOC_OPS.load(Ordering::Relaxed);
    let boundary = stepper.advance_to_bai();
    let ops = ALLOC_OPS.load(Ordering::Relaxed) - before;
    assert!(boundary.is_some(), "measurement window must close a BAI");
    assert_eq!(
        ops, 0,
        "[stepper] one BAI window performed {ops} allocator operations"
    );
    println!("[stepper] one 10 s BAI window (10k TTIs), 0 allocator operations ... ok");

    // The skip-ahead path (DESIGN.md §11): a vehicular FLARE-R cell under
    // 20% control-message loss, past start-up, coasts through its idle
    // stretches inside the window — and coasting, like stepping, must not
    // allocate.
    let config = SimConfig::builder()
        .seed(7)
        .duration(TimeDelta::from_secs(200))
        .videos(8)
        .data_flows(0)
        .channel(ChannelKind::Mobile(MobilityConfig::default()))
        .scheme(SchemeKind::Flare(
            FlareConfig::default().with_robustness(RobustnessConfig::default()),
        ))
        .faults(FaultModel::perfect().with_drop_prob(0.2))
        .build();
    let mut stepper = CellSim::new(config).into_stepper();
    for _ in 0..12 {
        stepper.advance_to_bai().expect("warm-up window");
        stepper.bai_boundary();
    }
    let coasted_before = stepper.coasted_ttis();
    let before = ALLOC_OPS.load(Ordering::Relaxed);
    let boundary = stepper.advance_to_bai();
    let ops = ALLOC_OPS.load(Ordering::Relaxed) - before;
    let coasted = stepper.coasted_ttis() - coasted_before;
    assert!(boundary.is_some(), "measurement window must close a BAI");
    assert!(coasted > 0, "coasting never fired in the measured window");
    assert_eq!(
        ops, 0,
        "[skip-ahead] one BAI window performed {ops} allocator operations"
    );
    println!(
        "[skip-ahead] one 10 s BAI window ({coasted} of 10k TTIs coasted), 0 allocator operations ... ok"
    );

    // Transport request jitter: segment requests wait up to 200 ms in
    // transport flight before their bytes reach the eNodeB, and moving the
    // due ones out of the in-flight list must not allocate either.
    let trace = TraceHandle::registry_only();
    let config = SimConfig::builder()
        .seed(11)
        .duration(TimeDelta::from_secs(200))
        .videos(8)
        .data_flows(0)
        .request_jitter(TimeDelta::from_millis(200))
        .trace(trace.clone())
        .build();
    let mut stepper = CellSim::new(config).into_stepper();
    for _ in 0..12 {
        stepper.advance_to_bai().expect("warm-up window");
        stepper.bai_boundary();
    }
    let requests_before = trace.snapshot().counter("player.requests");
    let before = ALLOC_OPS.load(Ordering::Relaxed);
    let boundary = stepper.advance_to_bai();
    let ops = ALLOC_OPS.load(Ordering::Relaxed) - before;
    let requests = trace.snapshot().counter("player.requests") - requests_before;
    assert!(boundary.is_some(), "measurement window must close a BAI");
    assert!(requests > 0, "no request went into transport flight");
    assert_eq!(
        ops, 0,
        "[jitter] one BAI window performed {ops} allocator operations"
    );
    println!(
        "[jitter] one 10 s BAI window ({requests} jittered requests), 0 allocator operations ... ok"
    );
}
