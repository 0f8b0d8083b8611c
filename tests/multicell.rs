//! One OneAPI server managing two base stations (Section II-A: "A single
//! OneAPI server can manage multiple BSs, though the bitrates are
//! calculated independently for each network cell"). Since the bitrates
//! are computed per cell, the server runs one [`OneApiServer`] per cell.

use flare_core::{ClientInfo, FlareConfig, OneApiServer};
use flare_has::BitrateLadder;
use flare_lte::channel::StaticChannel;
use flare_lte::scheduler::TwoPhaseGbr;
use flare_lte::{CellConfig, ENodeB, FlowClass, FlowId, Itbs};
use flare_sim::units::ByteCount;
use flare_sim::Time;

fn cell(itbs: u8, n: usize) -> (ENodeB, Vec<FlowId>) {
    let mut enb = ENodeB::new(CellConfig::default(), Box::new(TwoPhaseGbr::default()));
    let flows = (0..n)
        .map(|_| {
            enb.add_flow(
                FlowClass::Video,
                Box::new(StaticChannel::new(Itbs::new(itbs))),
            )
        })
        .collect();
    (enb, flows)
}

fn server(flows: &[FlowId]) -> OneApiServer {
    let mut server = OneApiServer::new(FlareConfig::default().with_delta(1));
    for &f in flows {
        server.register_video(ClientInfo::new(f, BitrateLadder::simulation()));
    }
    server
}

fn run_bai(enb: &mut ENodeB, flows: &[FlowId], bai: u64) -> flare_lte::IntervalReport {
    for &f in flows {
        enb.push_backlog(f, ByteCount::new(50_000_000));
    }
    for ms in bai * 10_000..(bai + 1) * 10_000 {
        enb.step_tti(Time::from_millis(ms));
    }
    enb.take_report(Time::from_millis((bai + 1) * 10_000))
}

#[test]
fn one_server_drives_two_cells_end_to_end() {
    // A crowded low-quality cell and a lightly loaded high-quality cell,
    // one per-cell server each: each converges to its own regime, and
    // adding load to one never perturbs the other (per-cell independence).
    let (mut enb_a, flows_a) = cell(4, 6); // poor, crowded
    let (mut enb_b, flows_b) = cell(20, 2); // great, light
    let mut server_a = server(&flows_a);
    let mut server_b = server(&flows_b);

    let mut last_a = Vec::new();
    let mut last_b = Vec::new();
    let mut b_history = Vec::new();
    for bai in 0..20u64 {
        let report_a = run_bai(&mut enb_a, &flows_a, bai);
        let report_b = run_bai(&mut enb_b, &flows_b, bai);
        let la = enb_a.link_adaptation().clone();
        last_a = server_a.assign(&report_a, &la, 50);
        last_b = server_b.assign(&report_b, &la, 50);
        // Flow ids are dense per-cell indices (they overlap across cells),
        // so enforcement routes by which assignment list an entry came from.
        for a in &last_a {
            enb_a.set_gbr(a.flow, Some(a.rate));
        }
        for a in &last_b {
            enb_b.set_gbr(a.flow, Some(a.rate));
        }
        b_history.push(last_b.iter().map(|a| a.level.index()).max().unwrap_or(0));
    }

    // The light cell saturates the ladder; the crowded one cannot.
    let max_a = last_a.iter().map(|a| a.level.index()).max().unwrap();
    let max_b = last_b.iter().map(|a| a.level.index()).max().unwrap();
    assert!(
        max_b > max_a,
        "light cell {max_b} must out-level crowded cell {max_a}"
    );
    assert_eq!(max_b, 5, "light cell should reach the ladder top");

    // Independence: re-running cell B alone, with no cell A alongside,
    // yields exactly the same trajectory.
    let (mut enb_b2, flows_b2) = cell(20, 2);
    let mut solo = server(&flows_b2);
    let mut solo_history = Vec::new();
    for bai in 0..20u64 {
        let report = run_bai(&mut enb_b2, &flows_b2, bai);
        let la = enb_b2.link_adaptation().clone();
        let assignments = solo.assign(&report, &la, 50);
        for a in &assignments {
            enb_b2.set_gbr(a.flow, Some(a.rate));
        }
        solo_history.push(
            assignments
                .iter()
                .map(|a| a.level.index())
                .max()
                .unwrap_or(0),
        );
    }
    assert_eq!(b_history, solo_history, "cells must be fully independent");
}
