//! The cell: per-TTI scheduling, delivery, counters, and enforcement knobs.

use flare_sim::units::{ByteCount, Rate};
use flare_sim::{Time, TimeDelta};
use flare_trace::{Category, TraceHandle};

use crate::bearer::{BearerQos, TokenBucket};
use crate::channel::ChannelModel;
use crate::flows::{FlowClass, FlowId};
use crate::scheduler::{FlowTtiState, MacScheduler, RbAllocation};
use crate::stats::{FlowIntervalStats, IntervalReport};
use crate::tbs::{Itbs, LinkAdaptation};

/// Cell-wide radio configuration.
#[derive(Debug, Clone)]
pub struct CellConfig {
    /// Resource blocks available per TTI (50 for the paper's 10 MHz FDD
    /// femtocell).
    pub rbs_per_tti: u32,
    /// iTbs → bits-per-RB mapping.
    pub link_adaptation: LinkAdaptation,
    /// Burst window of the GBR credit bucket (how far behind its guaranteed
    /// rate the MAC lets a flow fall before credit stops accruing).
    pub gbr_burst_window: TimeDelta,
    /// Burst window of the MBR allowance bucket.
    pub mbr_burst_window: TimeDelta,
}

impl Default for CellConfig {
    fn default() -> Self {
        CellConfig {
            rbs_per_tti: 50,
            link_adaptation: LinkAdaptation::default(),
            gbr_burst_window: TimeDelta::from_millis(200),
            mbr_burst_window: TimeDelta::from_millis(200),
        }
    }
}

/// Bytes delivered to one flow during one TTI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivered {
    /// The receiving flow.
    pub flow: FlowId,
    /// Bytes handed to the flow this TTI.
    pub bytes: ByteCount,
}

#[derive(Debug)]
struct FlowState {
    class: FlowClass,
    channel: Box<dyn ChannelModel>,
    qos: BearerQos,
    gbr_bucket: Option<TokenBucket>,
    /// When set, the GBR is a *lease*: it clears itself at this time unless
    /// renewed. `None` means the GBR is persistent (classic bearer setup).
    gbr_expires: Option<Time>,
    mbr_bucket: Option<TokenBucket>,
    /// Pending bytes; `None` means always backlogged (greedy data flow).
    backlog: Option<ByteCount>,
    // Counters since the last report.
    interval_rbs: u64,
    interval_bytes: ByteCount,
    // Lifetime counters.
    total_bytes: ByteCount,
    last_itbs: Itbs,
    /// The channel's [`ChannelModel::hold_until`] after its last poll
    /// ([`Time::ZERO`] when it promised no hold): TTIs before this time
    /// reuse `last_itbs` without polling, and the channel catches up
    /// lazily at the first poll after it.
    channel_hold: Time,
    /// Memoized `bits_per_rb(last_itbs)`; refreshed only when the fading
    /// process actually moves the index (the channel→iTbs→TBS cache).
    cached_bits_per_rb: f64,
}

impl std::fmt::Debug for Box<dyn ChannelModel> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ChannelModel")
    }
}

/// A simulated LTE cell (eNodeB MAC + per-UE channels).
///
/// Drive it by calling [`ENodeB::step_tti`] once per millisecond with a
/// monotonically increasing time; collect `(n_u, b_u)` statistics with
/// [`ENodeB::take_report`] once per bitrate assignment interval.
pub struct ENodeB {
    config: CellConfig,
    scheduler: Box<dyn MacScheduler>,
    flows: Vec<FlowState>,
    report_start: Time,
    now: Time,
    expired_leases: u64,
    /// RBs granted in the most recent TTI (as summed over scheduler grants).
    last_tti_granted: u32,
    /// Test-only distortion added to [`ENodeB::last_tti_granted_rbs`]; lets
    /// invariant-layer tests observe a deliberately over-granted TTI without
    /// tripping the scheduler's internal assertion. Always 0 in real runs.
    reported_grant_inflation: u32,
    trace: TraceHandle,
    // Persistent per-TTI scratch buffers. Cleared and refilled every
    // [`ENodeB::step_tti`] so the hot path performs no allocation once their
    // capacities stabilize (after warm-up).
    tti_states: Vec<FlowTtiState>,
    tti_grants: Vec<RbAllocation>,
    tti_delivered: Vec<Delivered>,
    tti_expired: Vec<u64>,
    /// TTIs starting before this time are provably inert: no backlog, every
    /// bearer bucket at its burst cap, no lease due, every channel holding
    /// its index, and a scheduler whose idle TTI is a pure settle. Such a
    /// TTI reduces to that settle plus the trace tick — the outcome is
    /// bit-identical to the full path. Armed after each fully idle TTI as
    /// the earliest channel hold ([`ChannelModel::hold_until`]) or lease
    /// expiry; reset to [`Time::ZERO`] by any flow mutation (see
    /// [`ENodeB::flow_mut`]).
    quiescent_until: Time,
}

impl std::fmt::Debug for ENodeB {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ENodeB")
            .field("scheduler", &self.scheduler.name())
            .field("flows", &self.flows.len())
            .field("now", &self.now)
            .finish()
    }
}

impl ENodeB {
    /// Creates a cell with the given configuration and MAC scheduler.
    pub fn new(config: CellConfig, scheduler: Box<dyn MacScheduler>) -> Self {
        assert!(
            config.rbs_per_tti > 0,
            "cell must have at least one RB per TTI"
        );
        ENodeB {
            config,
            scheduler,
            flows: Vec::new(),
            report_start: Time::ZERO,
            now: Time::ZERO,
            expired_leases: 0,
            last_tti_granted: 0,
            reported_grant_inflation: 0,
            trace: TraceHandle::disabled(),
            tti_states: Vec::new(),
            tti_grants: Vec::new(),
            tti_delivered: Vec::new(),
            tti_expired: Vec::new(),
            quiescent_until: Time::ZERO,
        }
    }

    /// Attaches a trace recorder. MAC events ([`Category::Mac`]) are
    /// tick-sampled per the handle's configuration; enforcement events
    /// ([`Category::Enforce`]) record GBR/lease lifecycle.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// Attaches a flow with its own channel process. Data flows are greedy
    /// (always backlogged); video flows start with an empty queue.
    pub fn add_flow(&mut self, class: FlowClass, channel: Box<dyn ChannelModel>) -> FlowId {
        let id = FlowId(self.flows.len() as u32);
        self.quiescent_until = Time::ZERO;
        let initial_itbs = Itbs::new(0);
        let cached_bits_per_rb = self.config.link_adaptation.bits_per_rb(initial_itbs);
        self.flows.push(FlowState {
            class,
            channel,
            qos: BearerQos::default(),
            gbr_bucket: None,
            gbr_expires: None,
            mbr_bucket: None,
            backlog: match class {
                FlowClass::Video => Some(ByteCount::ZERO),
                FlowClass::Data => None,
            },
            interval_rbs: 0,
            interval_bytes: ByteCount::ZERO,
            total_bytes: ByteCount::ZERO,
            last_itbs: initial_itbs,
            channel_hold: Time::ZERO,
            cached_bits_per_rb,
        });
        id
    }

    /// Number of attached flows.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// The cell configuration.
    pub fn config(&self) -> &CellConfig {
        &self.config
    }

    /// The link adaptation table (shared with network-side optimizers).
    pub fn link_adaptation(&self) -> &LinkAdaptation {
        &self.config.link_adaptation
    }

    /// Sets or clears a flow's guaranteed bit rate (the Continuous GBR
    /// Updater: the paper re-assigns GBRs every BAI, not just at bearer
    /// setup).
    ///
    /// # Panics
    ///
    /// Panics if `flow` is unknown.
    pub fn set_gbr(&mut self, flow: FlowId, gbr: Option<Rate>) {
        let now = self.now;
        self.trace.record_debug(now, Category::Enforce, "gbr", |e| {
            e.u64("flow", flow.index() as u64);
            match gbr {
                Some(rate) => e.f64("kbps", rate.as_kbps()),
                None => e.bool("cleared", true),
            };
        });
        let window = self.config.gbr_burst_window;
        let st = self.flow_mut(flow);
        // A plain set is persistent: it cancels any outstanding lease.
        st.gbr_expires = None;
        st.qos.gbr = gbr;
        match (gbr, st.gbr_bucket.as_mut()) {
            (Some(rate), Some(bucket)) => bucket.set_rate(rate),
            (Some(rate), None) => {
                let mut bucket = TokenBucket::new(rate, window);
                bucket.advance(now);
                bucket.drain();
                st.gbr_bucket = Some(bucket);
            }
            (None, _) => st.gbr_bucket = None,
        }
    }

    /// Sets a flow's guaranteed bit rate as a *lease* that self-destructs at
    /// `expires_at` unless renewed (by another lease or a plain
    /// [`ENodeB::set_gbr`]).
    ///
    /// A robust control plane grants leases instead of persistent GBRs: if
    /// the OneAPI server dies mid-experiment, stale reservations evaporate
    /// after a bounded number of BAIs and the radio resources return to the
    /// proportional-fair pool, instead of staying pinned to whatever the
    /// last solve decided forever.
    ///
    /// # Panics
    ///
    /// Panics if `flow` is unknown or `expires_at` is not in the future.
    pub fn set_gbr_lease(&mut self, flow: FlowId, gbr: Rate, expires_at: Time) {
        assert!(
            expires_at > self.now,
            "a GBR lease must expire in the future"
        );
        self.trace
            .record(self.now, Category::Enforce, "lease_grant", |e| {
                e.u64("flow", flow.index() as u64)
                    .f64("kbps", gbr.as_kbps())
                    .u64("expires_ms", expires_at.as_millis());
            });
        self.trace.incr("enforce.lease_grants", 1);
        self.set_gbr(flow, Some(gbr));
        self.flow_mut(flow).gbr_expires = Some(expires_at);
    }

    /// When the flow's GBR lease expires (`None`: no GBR, or persistent).
    pub fn lease_expiry(&self, flow: FlowId) -> Option<Time> {
        self.flows[flow.index()].gbr_expires
    }

    /// GBR leases that expired without renewal since the cell was created.
    pub fn expired_lease_count(&self) -> u64 {
        self.expired_leases
    }

    /// Sets or clears a flow's maximum bit rate (AVIS-style cap).
    ///
    /// # Panics
    ///
    /// Panics if `flow` is unknown.
    pub fn set_mbr(&mut self, flow: FlowId, mbr: Option<Rate>) {
        let now = self.now;
        let window = self.config.mbr_burst_window;
        let st = self.flow_mut(flow);
        st.qos.mbr = mbr;
        match (mbr, st.mbr_bucket.as_mut()) {
            (Some(rate), Some(bucket)) => bucket.set_rate(rate),
            (Some(rate), None) => {
                let mut bucket = TokenBucket::new(rate, window);
                bucket.advance(now);
                // An MBR bucket starts full: the flow may immediately burst
                // one window's worth.
                st.mbr_bucket = Some(bucket);
            }
            (None, _) => st.mbr_bucket = None,
        }
    }

    /// Returns a flow's current QoS configuration.
    pub fn qos(&self, flow: FlowId) -> BearerQos {
        self.flows[flow.index()].qos
    }

    /// Queues `bytes` for downlink delivery on a video flow (one HAS segment
    /// arriving at the eNodeB from the media server).
    ///
    /// # Panics
    ///
    /// Panics if `flow` is a greedy data flow (those are always backlogged).
    pub fn push_backlog(&mut self, flow: FlowId, bytes: ByteCount) {
        let st = self.flow_mut(flow);
        match st.backlog.as_mut() {
            Some(b) => *b += bytes,
            None => panic!("cannot push backlog on an always-backlogged data flow"),
        }
    }

    /// Remaining queued bytes of a finite flow (`None` for greedy flows).
    pub fn backlog(&self, flow: FlowId) -> Option<ByteCount> {
        self.flows[flow.index()].backlog
    }

    /// The iTbs operating point a flow saw in the most recent TTI.
    pub fn current_itbs(&self, flow: FlowId) -> Itbs {
        self.flows[flow.index()].last_itbs
    }

    fn flow_mut(&mut self, flow: FlowId) -> &mut FlowState {
        // Every externally driven flow mutation (backlog, QoS, leases) comes
        // through here, so this is the one choke point that must re-arm the
        // full per-TTI path.
        self.quiescent_until = Time::ZERO;
        &mut self.flows[flow.index()]
    }

    /// Runs one TTI of MAC scheduling at time `now`, returning the bytes
    /// delivered to each flow.
    ///
    /// The returned slice borrows a scratch buffer owned by the cell; it is
    /// valid until the next `step_tti` call. Callers that need the results
    /// past that point must copy them out (`Delivered` is `Copy`).
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes a previous TTI, or if the scheduler
    /// over-allocates the RB budget (a scheduler bug).
    pub fn step_tti(&mut self, now: Time) -> &[Delivered] {
        debug_assert!(now >= self.now, "TTIs must advance monotonically");
        self.now = now;

        // Quiescent fast path: while the last full TTI's proof holds (see
        // the `quiescent_until` field), the full path below would rebuild an
        // identical flow snapshot, grant nothing, and deliver nothing.
        if now < self.quiescent_until {
            self.replay_idle_tti(now);
            self.tti_grants.clear();
            self.last_tti_granted = 0;
            self.tti_delivered.clear();
            return &self.tti_delivered;
        }

        // 0. Expire GBR leases that were not renewed.
        self.tti_expired.clear();
        for (i, st) in self.flows.iter_mut().enumerate() {
            if let Some(expires_at) = st.gbr_expires {
                if now >= expires_at {
                    st.gbr_expires = None;
                    st.qos.gbr = None;
                    st.gbr_bucket = None;
                    self.expired_leases += 1;
                    self.tti_expired.push(i as u64);
                }
            }
        }
        if !self.tti_expired.is_empty() {
            self.trace
                .incr("enforce.lease_expiries", self.tti_expired.len() as u64);
            for &f in &self.tti_expired {
                self.trace
                    .record(now, Category::Enforce, "lease_expired", |e| {
                        e.u64("flow", f);
                    });
            }
        }

        // 1. Refresh channels and bearer buckets.
        self.tti_states.clear();
        let mut any_backlog = false;
        for (i, st) in self.flows.iter_mut().enumerate() {
            if now >= st.channel_hold {
                let itbs = st.channel.itbs_at(now);
                st.channel_hold = st.channel.hold_until().unwrap_or(Time::ZERO);
                if itbs != st.last_itbs {
                    st.last_itbs = itbs;
                    st.cached_bits_per_rb = self.config.link_adaptation.bits_per_rb(itbs);
                }
            }
            if let Some(b) = st.gbr_bucket.as_mut() {
                b.advance(now);
            }
            if let Some(b) = st.mbr_bucket.as_mut() {
                b.advance(now);
            }
            let mbr_allowance = st
                .mbr_bucket
                .as_ref()
                .map_or(ByteCount::new(u64::MAX), |b| b.available());
            let raw_backlog = st.backlog.unwrap_or(ByteCount::new(u64::MAX / 2));
            let backlog = raw_backlog.min(mbr_allowance);
            any_backlog |= !backlog.is_zero();
            self.tti_states.push(FlowTtiState {
                flow: FlowId(i as u32),
                class: st.class,
                backlog,
                bits_per_rb: st.cached_bits_per_rb,
                gbr_credit: st
                    .gbr_bucket
                    .as_ref()
                    .map_or(ByteCount::ZERO, |b| b.available()),
            });
        }

        // 2. Schedule into the reused grants buffer. A backlog-free TTI
        // takes the scheduler's idle settle when the policy offers one
        // (grants stay empty either way, so the outcome is identical).
        let took_idle = !any_backlog && self.scheduler.idle_tick(&self.tti_states);
        if took_idle {
            self.tti_grants.clear();
        } else {
            self.scheduler.allocate_into(
                self.config.rbs_per_tti,
                &self.tti_states,
                &mut self.tti_grants,
            );
        }
        let granted_total: u32 = self.tti_grants.iter().map(|g| g.rbs).sum();
        assert!(
            granted_total <= self.config.rbs_per_tti,
            "scheduler over-allocated: {granted_total} > {}",
            self.config.rbs_per_tti
        );
        self.last_tti_granted = granted_total;

        // 3. Deliver.
        let mac_sampled = self.trace.tick(Category::Mac);
        let grant_debug = mac_sampled && self.trace.debug_enabled(Category::Mac);
        self.tti_delivered.clear();
        for gi in 0..self.tti_grants.len() {
            let g = self.tti_grants[gi];
            let state = self.tti_states[g.flow.index()];
            let capacity = state.bytes_for_rbs(g.rbs);
            let bytes = capacity.min(state.backlog);
            if grant_debug {
                let st = &self.flows[g.flow.index()];
                self.trace.record_debug(now, Category::Mac, "grant", |e| {
                    e.u64("flow", g.flow.index() as u64)
                        .u64("rbs", u64::from(g.rbs))
                        .u64("bytes", bytes.as_u64())
                        .u64("itbs", st.last_itbs.index() as u64);
                });
            }
            let st = &mut self.flows[g.flow.index()];
            if let Some(backlog) = st.backlog.as_mut() {
                *backlog = backlog.saturating_sub(bytes);
            }
            if let Some(b) = st.gbr_bucket.as_mut() {
                b.consume(bytes.min(b.available()));
            }
            if let Some(b) = st.mbr_bucket.as_mut() {
                b.consume(bytes);
            }
            st.interval_rbs += u64::from(g.rbs);
            st.interval_bytes += bytes;
            st.total_bytes += bytes;
            if !bytes.is_zero() || g.rbs > 0 {
                self.tti_delivered.push(Delivered {
                    flow: g.flow,
                    bytes,
                });
            }
        }
        if mac_sampled {
            let sched = self.tti_delivered.len() as u64;
            let n_flows = self.tti_states.len() as u64;
            self.trace.record(now, Category::Mac, "tti", |e| {
                e.u64("rbs", u64::from(granted_total))
                    .u64("sched", sched)
                    .u64("flows", n_flows);
            });
        }

        // Arm the quiescent fast path: an idle settle just happened and
        // every bucket is already at its cap, so each following TTI repeats
        // this one until a channel may move or a lease falls due.
        if took_idle {
            self.quiescent_until = self.quiet_horizon();
        }
        &self.tti_delivered
    }

    /// The earliest time at which a TTI could differ from an idle one just
    /// run, or [`Time::ZERO`] when it already can (a bucket below its cap,
    /// or a channel that makes no hold promise).
    fn quiet_horizon(&self) -> Time {
        let mut until = Time::MAX;
        for st in &self.flows {
            let buckets_full = st.gbr_bucket.as_ref().is_none_or(TokenBucket::is_full)
                && st.mbr_bucket.as_ref().is_none_or(TokenBucket::is_full);
            if !buckets_full || st.channel_hold == Time::ZERO {
                return Time::ZERO;
            }
            until = until
                .min(st.channel_hold)
                .min(st.gbr_expires.unwrap_or(Time::MAX));
        }
        until
    }

    /// TTIs starting before this time are quiescent: each is a pure idle
    /// settle that grants and delivers nothing (see
    /// [`ENodeB::skip_quiescent`]). At or before the current time when the
    /// cell is not quiescent.
    pub fn quiescent_until(&self) -> Time {
        self.quiescent_until
    }

    /// Runs `n` quiescent TTIs starting at `from`, one millisecond apart —
    /// exactly what `n` calls of [`ENodeB::step_tti`] would do there, but
    /// without building their empty results. Each TTI still replays the
    /// scheduler's idle settle and the MAC trace tick, so averages, trace
    /// sampling and recorded events stay byte-identical; channels are not
    /// polled and catch up lazily at the next full TTI.
    ///
    /// # Panics
    ///
    /// Panics if any of the `n` TTIs falls outside the quiescent window
    /// ([`ENodeB::quiescent_until`]) or precedes the previous TTI.
    pub fn skip_quiescent(&mut self, from: Time, n: u64) {
        if n == 0 {
            return;
        }
        let last = from + TimeDelta::from_millis(n - 1);
        assert!(
            from >= self.now && last < self.quiescent_until,
            "skip_quiescent outside the quiescent window"
        );
        // The TTI that armed the window left grants and deliveries empty,
        // and replays keep them so.
        for k in 0..n {
            self.replay_idle_tti(from + TimeDelta::from_millis(k));
        }
        self.now = last;
    }

    /// The observable effects of one quiescent TTI at `now`: the
    /// scheduler's idle settle and the MAC trace tick with its `tti` record.
    fn replay_idle_tti(&mut self, now: Time) {
        let idled = self.scheduler.idle_tick(&self.tti_states);
        debug_assert!(idled, "a quiescent cell's scheduler must idle");
        if self.trace.tick(Category::Mac) {
            let n_flows = self.tti_states.len() as u64;
            self.trace.record(now, Category::Mac, "tti", |e| {
                e.u64("rbs", 0).u64("sched", 0).u64("flows", n_flows);
            });
        }
    }

    /// Drains and returns the per-flow `(n_u, b_u)` counters accumulated
    /// since the previous report — the paper's periodic Statistics Reporter
    /// message to the OneAPI server.
    pub fn take_report(&mut self, now: Time) -> IntervalReport {
        let start = self.report_start;
        self.report_start = now;
        let flows = self
            .flows
            .iter_mut()
            .enumerate()
            .map(|(i, st)| {
                let s = FlowIntervalStats {
                    flow: FlowId(i as u32),
                    class: st.class,
                    rbs: st.interval_rbs,
                    bytes: st.interval_bytes,
                    itbs: st.last_itbs,
                };
                st.interval_rbs = 0;
                st.interval_bytes = ByteCount::ZERO;
                s
            })
            .collect();
        let report = IntervalReport {
            start,
            end: now,
            flows,
        };
        if self.trace.is_attached() {
            self.trace.incr("mac.reports", 1);
            self.trace.incr("mac.report_rbs", report.total_rbs());
            self.trace
                .incr("mac.report_bytes", report.total_bytes().as_u64());
            self.trace.gauge("mac.flows", self.flows.len() as f64);
        }
        report
    }

    /// Lifetime bytes delivered to a flow.
    pub fn total_bytes(&self, flow: FlowId) -> ByteCount {
        self.flows[flow.index()].total_bytes
    }

    /// RBs granted in the most recent TTI, as reported to external
    /// observers (the runtime invariant layer reads this after every
    /// [`ENodeB::step_tti`] to check RB conservation against
    /// [`CellConfig::rbs_per_tti`]).
    pub fn last_tti_granted_rbs(&self) -> u32 {
        self.last_tti_granted
            .saturating_add(self.reported_grant_inflation)
    }

    /// Test-only hook: inflates the grant total *reported* by
    /// [`ENodeB::last_tti_granted_rbs`] by `extra` RBs without touching the
    /// actual allocation. A real over-allocation trips the hard assertion in
    /// [`ENodeB::step_tti`] before any observer sees it; this hook lets
    /// tests verify that the invariant layer would catch one.
    #[doc(hidden)]
    pub fn debug_inflate_reported_grants(&mut self, extra: u32) {
        self.reported_grant_inflation = extra;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{StaticChannel, TraceChannel, TriangleWave};
    use crate::scheduler::{ProportionalFair, StrictGbrPartition, TwoPhaseGbr};
    use flare_sim::TTI;

    fn cell(scheduler: Box<dyn MacScheduler>) -> ENodeB {
        ENodeB::new(CellConfig::default(), scheduler)
    }

    fn run_ttis(enb: &mut ENodeB, start_ms: u64, n: u64) -> Vec<Vec<Delivered>> {
        (0..n)
            .map(|i| enb.step_tti(Time::from_millis(start_ms + i)).to_vec())
            .collect()
    }

    #[test]
    fn data_flow_absorbs_full_cell() {
        let mut enb = cell(Box::new(ProportionalFair::default()));
        let f = enb.add_flow(FlowClass::Data, Box::new(StaticChannel::new(Itbs::new(2))));
        run_ttis(&mut enb, 0, 1000);
        let report = enb.take_report(Time::from_secs(1));
        let stats = report.flow(f).unwrap();
        // iTbs 2 with default 2x MIMO = 64 bits/RB; 50 RB * 1000 TTI.
        assert_eq!(stats.rbs, 50_000);
        let tput = stats.throughput(report.duration());
        assert!((tput.as_mbps() - 3.2).abs() < 0.01, "tput {tput}");
    }

    #[test]
    fn video_flow_drains_exact_backlog() {
        let mut enb = cell(Box::new(ProportionalFair::default()));
        let f = enb.add_flow(
            FlowClass::Video,
            Box::new(StaticChannel::new(Itbs::new(12))),
        );
        enb.push_backlog(f, ByteCount::new(10_000));
        let mut total = ByteCount::ZERO;
        let mut t = Time::ZERO;
        while enb.backlog(f).unwrap() > ByteCount::ZERO {
            for d in enb.step_tti(t) {
                total += d.bytes;
            }
            t += TTI;
            assert!(t < Time::from_secs(10), "drain took too long");
        }
        assert_eq!(total, ByteCount::new(10_000));
        // Nothing more is delivered once the queue is empty.
        let extra: ByteCount = enb.step_tti(t).iter().map(|d| d.bytes).sum();
        assert_eq!(extra, ByteCount::ZERO);
    }

    #[test]
    fn gbr_flow_paced_at_guaranteed_rate() {
        let mut enb = cell(Box::new(TwoPhaseGbr::default()));
        let video = enb.add_flow(
            FlowClass::Video,
            Box::new(StaticChannel::new(Itbs::new(12))),
        );
        let _data = enb.add_flow(FlowClass::Data, Box::new(StaticChannel::new(Itbs::new(12))));
        enb.set_gbr(video, Some(Rate::from_kbps(790.0)));
        enb.push_backlog(video, ByteCount::new(10_000_000));
        run_ttis(&mut enb, 0, 10_000);
        let report = enb.take_report(Time::from_secs(10));
        let tput = report.flow(video).unwrap().throughput(report.duration());
        // Phase 2 also serves the video flow, so throughput >= GBR; with a
        // greedy data competitor the PF split gives each ~half the slack.
        assert!(tput.as_kbps() >= 780.0, "GBR not met: {tput}");
    }

    #[test]
    fn mbr_caps_data_flow() {
        let mut enb = cell(Box::new(ProportionalFair::default()));
        let f = enb.add_flow(FlowClass::Data, Box::new(StaticChannel::new(Itbs::new(12))));
        enb.set_mbr(f, Some(Rate::from_mbps(1.0)));
        run_ttis(&mut enb, 0, 10_000);
        let report = enb.take_report(Time::from_secs(10));
        let tput = report.flow(f).unwrap().throughput(report.duration());
        assert!(
            (tput.as_mbps() - 1.0).abs() < 0.05,
            "MBR cap violated or overly strict: {tput}"
        );
    }

    #[test]
    fn report_resets_counters() {
        let mut enb = cell(Box::new(ProportionalFair::default()));
        let f = enb.add_flow(FlowClass::Data, Box::new(StaticChannel::new(Itbs::new(5))));
        run_ttis(&mut enb, 0, 100);
        let r1 = enb.take_report(Time::from_millis(100));
        assert!(r1.flow(f).unwrap().rbs > 0);
        let r2 = enb.take_report(Time::from_millis(100));
        assert_eq!(r2.flow(f).unwrap().rbs, 0);
        assert_eq!(r2.duration(), TimeDelta::ZERO);
    }

    #[test]
    fn two_videos_share_via_gbr() {
        let mut enb = cell(Box::new(TwoPhaseGbr::default()));
        let a = enb.add_flow(FlowClass::Video, Box::new(StaticChannel::new(Itbs::new(8))));
        let b = enb.add_flow(FlowClass::Video, Box::new(StaticChannel::new(Itbs::new(8))));
        enb.set_gbr(a, Some(Rate::from_kbps(450.0)));
        enb.set_gbr(b, Some(Rate::from_kbps(1100.0)));
        enb.push_backlog(a, ByteCount::new(50_000_000));
        enb.push_backlog(b, ByteCount::new(50_000_000));
        run_ttis(&mut enb, 0, 20_000);
        let report = enb.take_report(Time::from_secs(20));
        let ta = report.flow(a).unwrap().throughput(report.duration());
        let tb = report.flow(b).unwrap().throughput(report.duration());
        assert!(ta.as_kbps() >= 440.0, "flow a below GBR: {ta}");
        assert!(tb.as_kbps() >= 1080.0, "flow b below GBR: {tb}");
        assert!(tb > ta);
    }

    #[test]
    fn total_bytes_accumulates_across_reports() {
        let mut enb = cell(Box::new(ProportionalFair::default()));
        let f = enb.add_flow(FlowClass::Data, Box::new(StaticChannel::new(Itbs::new(5))));
        run_ttis(&mut enb, 0, 100);
        enb.take_report(Time::from_millis(100));
        run_ttis(&mut enb, 100, 100);
        enb.take_report(Time::from_millis(200));
        assert!(enb.total_bytes(f).as_u64() > 0);
    }

    #[test]
    fn rb_conservation_under_many_flows() {
        let mut enb = cell(Box::new(TwoPhaseGbr::default()));
        for i in 0..8 {
            let class = if i % 2 == 0 {
                FlowClass::Video
            } else {
                FlowClass::Data
            };
            let f = enb.add_flow(class, Box::new(StaticChannel::new(Itbs::new(3 + i))));
            if class == FlowClass::Video {
                enb.set_gbr(f, Some(Rate::from_kbps(500.0)));
                enb.push_backlog(f, ByteCount::new(10_000_000));
            }
        }
        run_ttis(&mut enb, 0, 5000);
        let report = enb.take_report(Time::from_secs(5));
        // 50 RB/TTI * 5000 TTIs is the hard ceiling.
        assert!(report.total_rbs() <= 250_000);
        // With greedy data flows present the cell should be fully loaded.
        assert!(
            report.total_rbs() >= 249_000,
            "cell idle: {}",
            report.total_rbs()
        );
    }

    #[test]
    fn conservation_under_random_workloads() {
        use proptest::prelude::*;
        use proptest::test_runner::TestRunner;

        let mut runner = TestRunner::default();
        runner
            .run(
                &(
                    proptest::collection::vec(0u8..=26, 1..10),
                    proptest::collection::vec(1_000u64..5_000_000, 1..10),
                    1u64..u64::MAX,
                ),
                |(itbs_list, backlogs, _seed)| {
                    let mut enb = cell(Box::new(TwoPhaseGbr::default()));
                    let n = itbs_list.len().min(backlogs.len());
                    let mut flows = Vec::new();
                    for i in 0..n {
                        let f = enb.add_flow(
                            FlowClass::Video,
                            Box::new(StaticChannel::new(Itbs::new(itbs_list[i]))),
                        );
                        enb.push_backlog(f, ByteCount::new(backlogs[i]));
                        enb.set_gbr(f, Some(Rate::from_kbps(500.0)));
                        flows.push(f);
                    }
                    let mut delivered_total = ByteCount::ZERO;
                    for ms in 0..2_000u64 {
                        for d in enb.step_tti(Time::from_millis(ms)) {
                            delivered_total += d.bytes;
                        }
                    }
                    let report = enb.take_report(Time::from_secs(2));
                    // 1. RB conservation: never more than 50 RB/TTI * TTIs.
                    prop_assert!(report.total_rbs() <= 50 * 2_000);
                    // 2. Byte conservation: delivered == counted == pushed - left.
                    prop_assert_eq!(report.total_bytes(), delivered_total);
                    let pushed: u64 = backlogs[..n].iter().sum();
                    let left: u64 = flows
                        .iter()
                        .map(|&f| enb.backlog(f).unwrap().as_u64())
                        .sum();
                    prop_assert_eq!(delivered_total.as_u64() + left, pushed);
                    // 3. Physical limit: bytes <= RBs * best-channel bits/RB.
                    let best = itbs_list[..n]
                        .iter()
                        .map(|&i| enb.link_adaptation().bits_per_rb(Itbs::new(i)))
                        .fold(0.0f64, f64::max);
                    prop_assert!(
                        (report.total_bytes().as_bits() as f64)
                            <= report.total_rbs() as f64 * best + 1.0
                    );
                    Ok(())
                },
            )
            .unwrap();
    }

    #[test]
    #[should_panic(expected = "always-backlogged")]
    fn pushing_backlog_on_data_flow_panics() {
        let mut enb = cell(Box::new(ProportionalFair::default()));
        let f = enb.add_flow(FlowClass::Data, Box::new(StaticChannel::new(Itbs::new(2))));
        enb.push_backlog(f, ByteCount::new(1));
    }

    #[test]
    fn set_gbr_updates_and_clears() {
        let mut enb = cell(Box::new(TwoPhaseGbr::default()));
        let f = enb.add_flow(FlowClass::Video, Box::new(StaticChannel::new(Itbs::new(5))));
        enb.set_gbr(f, Some(Rate::from_kbps(500.0)));
        assert_eq!(enb.qos(f).gbr, Some(Rate::from_kbps(500.0)));
        enb.set_gbr(f, Some(Rate::from_kbps(790.0)));
        assert_eq!(enb.qos(f).gbr, Some(Rate::from_kbps(790.0)));
        enb.set_gbr(f, None);
        assert_eq!(enb.qos(f).gbr, None);
    }

    #[test]
    fn gbr_lease_expires_without_renewal() {
        let mut enb = cell(Box::new(TwoPhaseGbr::default()));
        let f = enb.add_flow(FlowClass::Video, Box::new(StaticChannel::new(Itbs::new(5))));
        enb.set_gbr_lease(f, Rate::from_kbps(500.0), Time::from_millis(100));
        assert_eq!(enb.qos(f).gbr, Some(Rate::from_kbps(500.0)));
        assert_eq!(enb.lease_expiry(f), Some(Time::from_millis(100)));
        run_ttis(&mut enb, 0, 99);
        assert_eq!(enb.qos(f).gbr, Some(Rate::from_kbps(500.0)));
        enb.step_tti(Time::from_millis(100));
        assert_eq!(enb.qos(f).gbr, None);
        assert_eq!(enb.lease_expiry(f), None);
        assert_eq!(enb.expired_lease_count(), 1);
    }

    #[test]
    fn renewed_lease_does_not_expire() {
        let mut enb = cell(Box::new(TwoPhaseGbr::default()));
        let f = enb.add_flow(FlowClass::Video, Box::new(StaticChannel::new(Itbs::new(5))));
        enb.set_gbr_lease(f, Rate::from_kbps(500.0), Time::from_millis(100));
        run_ttis(&mut enb, 0, 50);
        // Renewal pushes the expiry out; the old deadline passes harmlessly.
        enb.set_gbr_lease(f, Rate::from_kbps(790.0), Time::from_millis(200));
        run_ttis(&mut enb, 50, 100);
        assert_eq!(enb.qos(f).gbr, Some(Rate::from_kbps(790.0)));
        assert_eq!(enb.expired_lease_count(), 0);
    }

    #[test]
    fn plain_set_gbr_cancels_lease() {
        let mut enb = cell(Box::new(TwoPhaseGbr::default()));
        let f = enb.add_flow(FlowClass::Video, Box::new(StaticChannel::new(Itbs::new(5))));
        enb.set_gbr_lease(f, Rate::from_kbps(500.0), Time::from_millis(100));
        enb.set_gbr(f, Some(Rate::from_kbps(500.0)));
        assert_eq!(enb.lease_expiry(f), None);
        run_ttis(&mut enb, 0, 200);
        // Persistent GBR outlives the would-be lease deadline.
        assert_eq!(enb.qos(f).gbr, Some(Rate::from_kbps(500.0)));
        assert_eq!(enb.expired_lease_count(), 0);
    }

    #[test]
    fn expired_lease_returns_rbs_to_pf_pool() {
        // A leased video flow and a greedy data flow: while the lease is
        // live the video's GBR is honoured; after expiry the data flow's
        // share grows because nothing is reserved any more.
        let mut enb = cell(Box::new(TwoPhaseGbr::default()));
        let video = enb.add_flow(FlowClass::Video, Box::new(StaticChannel::new(Itbs::new(8))));
        let data = enb.add_flow(FlowClass::Data, Box::new(StaticChannel::new(Itbs::new(8))));
        enb.set_gbr_lease(video, Rate::from_kbps(1500.0), Time::from_secs(5));
        enb.push_backlog(video, ByteCount::new(100_000_000));
        run_ttis(&mut enb, 0, 5_000);
        let leased = enb.take_report(Time::from_secs(5));
        run_ttis(&mut enb, 5_000, 5_000);
        let expired = enb.take_report(Time::from_secs(10));
        assert_eq!(enb.expired_lease_count(), 1);
        let d_before = leased.flow(data).unwrap().rbs;
        let d_after = expired.flow(data).unwrap().rbs;
        assert!(
            d_after > d_before,
            "data flow RBs should grow after lease expiry: {d_before} -> {d_after}"
        );
    }

    #[test]
    #[should_panic(expected = "expire in the future")]
    fn lease_in_the_past_panics() {
        let mut enb = cell(Box::new(TwoPhaseGbr::default()));
        let f = enb.add_flow(FlowClass::Video, Box::new(StaticChannel::new(Itbs::new(5))));
        enb.step_tti(Time::from_millis(10));
        enb.set_gbr_lease(f, Rate::from_kbps(500.0), Time::from_millis(10));
    }

    #[test]
    fn quiescence_waits_for_full_buckets_and_ends_at_the_lease_expiry() {
        let mut enb = cell(Box::new(TwoPhaseGbr::default()));
        let f = enb.add_flow(FlowClass::Video, Box::new(StaticChannel::new(Itbs::new(9))));
        enb.set_gbr_lease(f, Rate::from_kbps(2_000.0), Time::from_secs(5));
        enb.push_backlog(f, ByteCount::new(60_000));
        let mut ms = 0;
        while enb.backlog(f) != Some(ByteCount::ZERO) {
            enb.step_tti(Time::from_millis(ms));
            ms += 1;
        }
        // Idle, but the GBR bucket is refilling: no TTI repeats yet.
        let drained = ms;
        enb.step_tti(Time::from_millis(ms));
        assert_eq!(enb.quiescent_until(), Time::ZERO);
        while enb.quiescent_until() == Time::ZERO {
            ms += 1;
            enb.step_tti(Time::from_millis(ms));
            assert!(ms < drained + 250, "bucket never refilled");
        }
        // A static channel holds forever, so the lease bounds the window.
        assert_eq!(enb.quiescent_until(), Time::from_secs(5));
        enb.skip_quiescent(Time::from_millis(ms + 1), 5_000 - ms - 1);
        assert_eq!(enb.qos(f).gbr, Some(Rate::from_kbps(2_000.0)));
        enb.step_tti(Time::from_secs(5));
        assert_eq!(enb.expired_lease_count(), 1);
        // Expiry mutated the flow; the next idle TTI re-arms without it.
        assert_eq!(enb.quiescent_until(), Time::MAX);
        enb.push_backlog(f, ByteCount::new(1));
        assert_eq!(enb.quiescent_until(), Time::ZERO);
    }

    #[test]
    fn quiescence_ends_at_the_earliest_channel_hold() {
        let mut enb = cell(Box::new(ProportionalFair::default()));
        enb.add_flow(FlowClass::Video, Box::new(StaticChannel::new(Itbs::new(3))));
        enb.add_flow(
            FlowClass::Video,
            Box::new(TraceChannel::new(vec![
                (Time::ZERO, Itbs::new(4)),
                (Time::from_millis(750), Itbs::new(6)),
            ])),
        );
        enb.step_tti(Time::ZERO);
        assert_eq!(enb.quiescent_until(), Time::from_millis(750));
        enb.skip_quiescent(Time::from_millis(1), 749);
        enb.step_tti(Time::from_millis(750));
        assert_eq!(enb.current_itbs(FlowId(1)), Itbs::new(6));
        assert_eq!(enb.quiescent_until(), Time::MAX);
    }

    #[test]
    fn cells_without_holds_or_idle_ticks_never_go_quiescent() {
        let mut wave = cell(Box::new(ProportionalFair::default()));
        wave.add_flow(
            FlowClass::Video,
            Box::new(TriangleWave::new(
                Itbs::new(1),
                Itbs::new(12),
                TimeDelta::from_secs(240),
                TimeDelta::ZERO,
            )),
        );
        let mut strict = cell(Box::new(StrictGbrPartition::default()));
        strict.add_flow(FlowClass::Video, Box::new(StaticChannel::new(Itbs::new(3))));
        for ms in 0..100 {
            wave.step_tti(Time::from_millis(ms));
            strict.step_tti(Time::from_millis(ms));
            assert_eq!(wave.quiescent_until(), Time::ZERO);
            assert_eq!(strict.quiescent_until(), Time::ZERO);
        }
    }

    #[test]
    #[should_panic(expected = "outside the quiescent window")]
    fn skipping_past_the_window_panics() {
        let mut enb = cell(Box::new(ProportionalFair::default()));
        enb.add_flow(
            FlowClass::Video,
            Box::new(TraceChannel::new(vec![
                (Time::ZERO, Itbs::new(4)),
                (Time::from_millis(20), Itbs::new(6)),
            ])),
        );
        enb.step_tti(Time::ZERO);
        enb.skip_quiescent(Time::from_millis(1), 20);
    }
}
