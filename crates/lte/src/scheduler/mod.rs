//! Per-TTI MAC schedulers.
//!
//! The policies match the systems the paper builds on, plus one classical
//! baseline:
//!
//! * [`ProportionalFair`] — the legacy PF scheduler every policy falls back
//!   to for non-GBR traffic.
//! * [`TwoPhaseGbr`] — the paper's femtocell Scheduler Module: phase 1
//!   serves video flows up to their GBR, phase 2 hands the remaining RBs to
//!   proportional fair across all backlogged flows (this is what lets FLARE
//!   opportunistically reuse data-flow RBs for video when the optimizer lags
//!   link dynamics, cf. Section IV-A).
//! * [`RoundRobin`] — the classical channel-blind baseline, for ablations
//!   quantifying proportional fair's multi-user-diversity gain.
//! * [`PrioritySetScheduler`] — the ns-3 scheduler used in Section IV-B:
//!   GBR flows below their target rate get strict priority ordered by
//!   deficit; the remainder is proportional fair. It also honours MBR caps,
//!   which is how AVIS enforces its per-flow allocations.

mod pf;
mod priority_set;
mod round_robin;
mod two_phase;

pub use pf::ProportionalFair;
pub use priority_set::PrioritySetScheduler;
pub use round_robin::RoundRobin;
pub use two_phase::{StrictGbrPartition, TwoPhaseGbr};

use flare_sim::units::ByteCount;

use crate::flows::{FlowClass, FlowId};

/// Everything a scheduler may consult about one flow in one TTI.
#[derive(Debug, Clone, Copy)]
pub struct FlowTtiState {
    /// The flow being scheduled.
    pub flow: FlowId,
    /// Its traffic class.
    pub class: FlowClass,
    /// Bytes waiting to be sent, already clamped by any MBR allowance.
    pub backlog: ByteCount,
    /// Deliverable bits per resource block at the flow's current iTbs.
    pub bits_per_rb: f64,
    /// Outstanding GBR service credit in bytes (zero for non-GBR bearers).
    pub gbr_credit: ByteCount,
}

impl FlowTtiState {
    /// RBs needed to move `bytes` at this flow's current operating point:
    /// `⌈bits / bits_per_rb⌉`, saturating at `u32::MAX`.
    pub fn rbs_for_bytes(&self, bytes: ByteCount) -> u32 {
        if bytes.is_zero() {
            return 0;
        }
        ceil_u32((bytes.as_bits() as f64) / self.bits_per_rb)
    }

    /// Whole bytes deliverable with `rbs` resource blocks:
    /// `⌊bits_per_rb · rbs / 8⌋`.
    pub fn bytes_for_rbs(&self, rbs: u32) -> ByteCount {
        // `as u64` truncates toward zero and saturates, which is exactly
        // `floor() as u64` for every f64 (negatives and NaN both give 0).
        ByteCount::new((self.bits_per_rb * f64::from(rbs) / 8.0) as u64)
    }
}

/// `x.ceil() as u32` for every `f64`, without the libm call: the
/// saturating cast truncates, and a truncation below `x` rounds up.
/// NaN and negatives give 0, values past `u32::MAX` saturate.
fn ceil_u32(x: f64) -> u32 {
    let t = x as u32;
    if f64::from(t) < x {
        t.saturating_add(1)
    } else {
        t
    }
}

/// One flow's share of a TTI's resource blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RbAllocation {
    /// The flow receiving the grant.
    pub flow: FlowId,
    /// Number of RBs granted this TTI.
    pub rbs: u32,
}

/// A per-TTI downlink MAC scheduler.
///
/// Implementations must be deterministic and must never allocate more than
/// `n_rbs` blocks in total (the eNodeB asserts this).
pub trait MacScheduler {
    /// Distributes `n_rbs` resource blocks among `flows` for one TTI,
    /// writing the grants into the caller-owned `grants` buffer.
    ///
    /// `grants` is cleared first and then filled; reusing one buffer across
    /// TTIs keeps the hot path allocation-free after warm-up (the eNodeB
    /// does exactly that). `flows` is ordered by flow id; implementations
    /// must break metric ties the same way to keep runs reproducible.
    fn allocate_into(&mut self, n_rbs: u32, flows: &[FlowTtiState], grants: &mut Vec<RbAllocation>);

    /// Distributes `n_rbs` resource blocks among `flows` for one TTI,
    /// returning a freshly allocated grant list.
    ///
    /// Convenience wrapper over [`MacScheduler::allocate_into`] for callers
    /// outside the per-TTI hot path; the vector is pre-sized to the flow
    /// count so grant pushes never reallocate mid-TTI.
    fn allocate(&mut self, n_rbs: u32, flows: &[FlowTtiState]) -> Vec<RbAllocation> {
        let mut grants = Vec::with_capacity(flows.len());
        self.allocate_into(n_rbs, flows, &mut grants);
        grants
    }

    /// Settles one all-idle TTI (every `flows[i].backlog` is zero) without a
    /// full allocation pass, returning `true` on success.
    ///
    /// Policies whose all-idle TTI provably grants nothing and only decays
    /// internal averages may override this with that cheaper settle; the
    /// default returns `false`, telling the eNodeB to run
    /// [`MacScheduler::allocate_into`] as usual. [`StrictGbrPartition`]
    /// must keep the default: it reserves RBs for idle sliced flows, so even
    /// a backlog-free TTI produces grants.
    fn idle_tick(&mut self, flows: &[FlowTtiState]) -> bool {
        let _ = flows;
        false
    }

    /// A short human-readable policy name (for experiment logs).
    fn name(&self) -> &'static str;
}

/// Shared helper: exponentially averaged per-flow throughput used by the PF
/// metric. The time constant is in TTIs (1 ms each); ns-3's PF default is
/// an effective window of about one second.
#[derive(Debug, Clone)]
pub(crate) struct PfAverages {
    /// `1 − 1/tc`, precomputed so the per-flow-per-TTI update divides never.
    decay: f64,
    /// `1/tc`, the complementary EWMA gain.
    gain: f64,
    avgs: Vec<f64>,
}

impl PfAverages {
    pub(crate) fn new(tc_ttis: f64) -> Self {
        assert!(tc_ttis >= 1.0, "PF time constant must be >= 1 TTI");
        PfAverages {
            decay: 1.0 - 1.0 / tc_ttis,
            gain: 1.0 / tc_ttis,
            avgs: Vec::new(),
        }
    }

    fn ensure(&mut self, flow: FlowId) {
        let idx = flow.index();
        if idx >= self.avgs.len() {
            // Small positive prior so brand-new flows don't divide by zero
            // and immediately win every RB forever.
            self.avgs.resize(idx + 1, 1.0);
        }
    }

    /// PF metric: achievable rate over averaged rate.
    pub(crate) fn metric(&mut self, state: &FlowTtiState) -> f64 {
        self.ensure(state.flow);
        let inst_bps = state.bits_per_rb * 1000.0; // one RB every TTI
        inst_bps / self.avgs[state.flow.index()]
    }

    /// Folds one TTI's delivered bits into the average of every flow.
    pub(crate) fn update(&mut self, flow: FlowId, delivered_bits: f64) {
        self.ensure(flow);
        ewma_step(
            &mut self.avgs[flow.index()],
            self.decay,
            self.gain,
            delivered_bits,
        );
    }
}

/// One TTI of the PF throughput EWMA for one flow.
fn ewma_step(avg: &mut f64, decay: f64, gain: f64, delivered_bits: f64) {
    // IEEE: `x + 0.0 == x` for the non-negative averages, so a zero
    // delivery is a pure decay — same value, half the flops.
    if delivered_bits == 0.0 {
        *avg *= decay;
    } else {
        *avg = decay * *avg + gain * delivered_bits * 1000.0;
    }
}

/// Reused per-TTI scratch for [`pf_pass`]: remaining backlog and the
/// memoized PF metric per eligible flow, plus an O(1) granted-RBs lookup
/// keyed by flow index (the grant list itself stays ordered for output).
/// Owned by each scheduler so the pass is allocation-free once capacities
/// stabilize.
#[derive(Debug, Clone, Default)]
pub(crate) struct PfScratch {
    remaining: Vec<ByteCount>,
    metrics: Vec<f64>,
    granted: Vec<u32>,
}

impl PfScratch {
    /// Resets the per-TTI granted-RBs table. Must be called once at the top
    /// of every `allocate_into` before any [`push_grant`].
    pub(crate) fn begin_tti(&mut self) {
        self.granted.clear();
    }

    /// RBs granted to `flow` so far this TTI.
    pub(crate) fn granted(&self, flow: FlowId) -> u32 {
        self.granted.get(flow.index()).copied().unwrap_or(0)
    }
}

/// Shared helper: greedy PF pass over whatever backlog remains.
///
/// Repeatedly grants the metric-argmax flow enough RBs to drain its backlog
/// (or whatever is left), updating `grants`. `eligible` restricts the pass
/// to a subset of `flows` by index (ascending, so metric ties still resolve
/// to the lowest flow id); `None` means every flow. PF metrics depend only
/// on the averages, which this pass never mutates, so they are computed
/// once per call instead of once per argmax iteration — same floats, same
/// selections. Returns the RBs still free.
///
/// With no RBs left the pass grants nothing and returns at once: the
/// metrics it would compute are only read by the argmax, and the
/// averages' lazy growth is left to [`settle_averages`], which runs after
/// every pass.
pub(crate) fn pf_pass(
    averages: &mut PfAverages,
    mut rbs_left: u32,
    flows: &[FlowTtiState],
    eligible: Option<&[usize]>,
    grants: &mut Vec<RbAllocation>,
    scratch: &mut PfScratch,
) -> u32 {
    if rbs_left == 0 {
        return 0;
    }
    let flow_at = |j: usize| match eligible {
        Some(idx) => &flows[idx[j]],
        None => &flows[j],
    };
    let n = eligible.map_or(flows.len(), <[usize]>::len);

    // Remaining backlog after earlier phases, plus the per-flow metric. The
    // metric (a float division) is only computed for flows that can still
    // receive a grant; zero-remaining flows are never examined by the argmax
    // below, so their placeholder is unobservable.
    scratch.remaining.clear();
    scratch.metrics.clear();
    for j in 0..n {
        let f = flow_at(j);
        let granted = scratch.granted(f.flow);
        let remaining = if granted == 0 {
            f.backlog
        } else {
            f.backlog.saturating_sub(f.bytes_for_rbs(granted))
        };
        scratch.remaining.push(remaining);
        scratch.metrics.push(if remaining.is_zero() {
            0.0
        } else {
            averages.metric(f)
        });
    }

    while rbs_left > 0 {
        let mut best: Option<(usize, f64)> = None;
        for (j, r) in scratch.remaining.iter().enumerate() {
            if r.is_zero() {
                continue;
            }
            let m = scratch.metrics[j];
            // Strictly-greater keeps ties on the lowest flow id.
            if best.is_none_or(|(_, bm)| m > bm) {
                best = Some((j, m));
            }
        }
        let Some((j, _)) = best else { break };
        let f = flow_at(j);
        let want = f.rbs_for_bytes(scratch.remaining[j]).min(rbs_left);
        let grant = want.max(1).min(rbs_left);
        push_grant(grants, scratch, f.flow, grant);
        let delivered = f.bytes_for_rbs(grant).min(scratch.remaining[j]);
        scratch.remaining[j] = scratch.remaining[j].saturating_sub(delivered);
        rbs_left -= grant;
    }
    rbs_left
}

/// Adds `rbs` to an existing grant for `flow`, or appends a new one, keeping
/// the scratch granted-RBs table in sync.
pub(crate) fn push_grant(
    grants: &mut Vec<RbAllocation>,
    scratch: &mut PfScratch,
    flow: FlowId,
    rbs: u32,
) {
    if rbs == 0 {
        return;
    }
    let idx = flow.index();
    if idx >= scratch.granted.len() {
        scratch.granted.resize(idx + 1, 0);
    }
    if scratch.granted[idx] > 0 {
        if let Some(g) = grants.iter_mut().find(|g| g.flow == flow) {
            g.rbs += rbs;
        }
    } else {
        grants.push(RbAllocation { flow, rbs });
    }
    scratch.granted[idx] += rbs;
}

/// Settles the PF averages for a grant-free TTI: every flow folds in a zero
/// delivery, i.e. a pure decay. Exactly [`settle_averages`] with no grants,
/// skipping the per-flow lookup machinery.
pub(crate) fn settle_all_idle(averages: &mut PfAverages, flows: &[FlowTtiState]) {
    for f in flows {
        averages.update(f.flow, 0.0);
    }
}

/// Folds one TTI's outcome into the PF averages for all flows.
///
/// One flat pass over the averages table, grown once up front; each
/// average takes exactly the [`PfAverages::update`] step.
pub(crate) fn settle_averages(
    averages: &mut PfAverages,
    flows: &[FlowTtiState],
    scratch: &PfScratch,
) {
    let Some(top) = flows.iter().map(|f| f.flow).max() else {
        return;
    };
    averages.ensure(top);
    let (decay, gain) = (averages.decay, averages.gain);
    for f in flows {
        let rbs = scratch.granted(f.flow);
        // `bytes_for_rbs(0)` is exactly zero, so ungranted flows fold in a
        // pure decay without the float round-trip.
        let delivered_bits = if rbs == 0 {
            0.0
        } else {
            f.bytes_for_rbs(rbs).min(f.backlog).as_bits() as f64
        };
        ewma_step(
            &mut averages.avgs[f.flow.index()],
            decay,
            gain,
            delivered_bits,
        );
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// Builds a flow TTI state for scheduler tests.
    pub(crate) fn flow(
        id: u32,
        class: FlowClass,
        backlog: u64,
        bits_per_rb: f64,
        gbr_credit: u64,
    ) -> FlowTtiState {
        FlowTtiState {
            flow: FlowId(id),
            class,
            backlog: ByteCount::new(backlog),
            bits_per_rb,
            gbr_credit: ByteCount::new(gbr_credit),
        }
    }

    /// Total RBs in a grant list.
    pub(crate) fn total(grants: &[RbAllocation]) -> u32 {
        grants.iter().map(|g| g.rbs).sum()
    }

    /// RBs granted to one flow.
    pub(crate) fn rbs_of(grants: &[RbAllocation], id: u32) -> u32 {
        grants
            .iter()
            .find(|g| g.flow == FlowId(id))
            .map_or(0, |g| g.rbs)
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;

    #[test]
    fn rbs_for_bytes_round_trip() {
        let f = flow(0, FlowClass::Video, 0, 128.0, 0);
        assert_eq!(f.rbs_for_bytes(ByteCount::new(0)), 0);
        // 16 bytes = 128 bits = exactly 1 RB.
        assert_eq!(f.rbs_for_bytes(ByteCount::new(16)), 1);
        assert_eq!(f.rbs_for_bytes(ByteCount::new(17)), 2);
        assert_eq!(f.bytes_for_rbs(2), ByteCount::new(32));
    }

    /// The libm forms the integer rounding replaced, kept as the oracle.
    fn libm_rbs_for_bytes(bits_per_rb: f64, bytes: ByteCount) -> u32 {
        if bytes.is_zero() {
            return 0;
        }
        ((bytes.as_bits() as f64) / bits_per_rb).ceil() as u32
    }

    fn libm_bytes_for_rbs(bits_per_rb: f64, rbs: u32) -> ByteCount {
        ByteCount::new((bits_per_rb * f64::from(rbs) / 8.0).floor() as u64)
    }

    /// Asserts the integer rounding equals the libm forms at one operating
    /// point, for `bytes` and `rbs` as well as the bytes of whole RBs.
    fn assert_rounding_matches(bits_per_rb: f64, bytes: u64, rbs: u32) {
        let f = flow(0, FlowClass::Video, 0, bits_per_rb, 0);
        let b = ByteCount::new(bytes);
        assert_eq!(
            f.rbs_for_bytes(b),
            libm_rbs_for_bytes(bits_per_rb, b),
            "rbs_for_bytes({bytes}) at {bits_per_rb:?} bits/RB"
        );
        assert_eq!(
            f.bytes_for_rbs(rbs),
            libm_bytes_for_rbs(bits_per_rb, rbs),
            "bytes_for_rbs({rbs}) at {bits_per_rb:?} bits/RB"
        );
        // Exact multiples: the bytes `rbs` whole RBs carry, and one more.
        let whole = f.bytes_for_rbs(rbs).as_u64();
        for b in [whole, whole.saturating_add(1)].map(ByteCount::new) {
            assert_eq!(f.rbs_for_bytes(b), libm_rbs_for_bytes(bits_per_rb, b));
        }
    }

    #[test]
    fn ceil_u32_edge_cases_match_libm() {
        let max = f64::from(u32::MAX);
        for x in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            -0.5,
            -1.0,
            f64::MIN_POSITIVE,
            5e-324,
            0.5,
            1.0,
            1.0 + f64::EPSILON,
            2.0 - f64::EPSILON,
            1e9,
            max - 0.5,
            max,
            max + 0.5,
            max + 1.0,
            1e300,
        ] {
            assert_eq!(ceil_u32(x), x.ceil() as u32, "ceil_u32({x:?})");
        }
    }

    #[test]
    fn integer_rounding_edge_cases_match_libm() {
        let la = crate::LinkAdaptation::default();
        for bits_per_rb in [
            la.bits_per_rb(crate::Itbs::new(0)),
            la.bits_per_rb(crate::Itbs::new(crate::ITBS_MAX)),
            128.0,
            0.0,
            -64.0,
            f64::NAN,
            f64::INFINITY,
            f64::MIN_POSITIVE,
        ] {
            // 0 bytes, 0 RBs, exact multiples of 8 and 16 bytes, and sizes
            // whose RB count saturates u32 (including the saturating
            // `as_bits` of a near-u64::MAX byte count).
            for bytes in [0, 1, 16, 17, 1 << 40, u64::MAX / 8, u64::MAX] {
                for rbs in [0, 1, 2, 50, u32::MAX] {
                    assert_rounding_matches(bits_per_rb, bytes, rbs);
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2_000))]
        /// The integer `rbs_for_bytes`/`bytes_for_rbs`/`bytes_per_tti`
        /// equal the libm `ceil`/`floor` forms: at every
        /// `LinkAdaptation` entry (under a random MIMO gain), at a random
        /// positive bits-per-RB, and at an arbitrary f64 bit pattern (NaN,
        /// infinities, subnormals, negatives).
        #[test]
        fn integer_rounding_matches_libm(
            mimo in 0.01f64..=8.0,
            bytes in 0u64..=u64::MAX,
            small_bytes in 0u64..2_000_000,
            rbs in 0u32..=u32::MAX,
            small_rbs in 0u32..=100,
            (random_bits, raw_bits) in (0.001f64..100_000.0, 0u64..=u64::MAX),
        ) {
            let la = crate::LinkAdaptation::new(mimo);
            for i in 0..=crate::ITBS_MAX {
                let itbs = crate::Itbs::new(i);
                let bits_per_rb = la.bits_per_rb(itbs);
                for n in [small_rbs, rbs] {
                    proptest::prop_assert_eq!(
                        la.bytes_per_tti(itbs, n),
                        libm_bytes_for_rbs(bits_per_rb, n)
                    );
                }
                assert_rounding_matches(bits_per_rb, small_bytes, small_rbs);
                assert_rounding_matches(bits_per_rb, bytes, rbs);
            }
            for bits_per_rb in [random_bits, f64::from_bits(raw_bits)] {
                assert_rounding_matches(bits_per_rb, small_bytes, small_rbs);
                assert_rounding_matches(bits_per_rb, bytes, rbs);
            }
        }
    }

    #[test]
    fn push_grant_merges() {
        let mut g = Vec::new();
        let mut scratch = PfScratch::default();
        push_grant(&mut g, &mut scratch, FlowId(1), 3);
        push_grant(&mut g, &mut scratch, FlowId(1), 2);
        push_grant(&mut g, &mut scratch, FlowId(2), 0);
        assert_eq!(scratch.granted(FlowId(1)), 5);
        assert_eq!(
            g,
            vec![RbAllocation {
                flow: FlowId(1),
                rbs: 5
            }]
        );
    }

    #[test]
    fn pf_averages_prior_prevents_div_by_zero() {
        let mut avg = PfAverages::new(1000.0);
        let f = flow(0, FlowClass::Data, 100, 128.0, 0);
        let m = avg.metric(&f);
        assert!(m.is_finite() && m > 0.0);
    }

    #[test]
    fn pf_averages_decay_towards_service_rate() {
        let mut avg = PfAverages::new(100.0);
        let id = FlowId(0);
        for _ in 0..5000 {
            avg.update(id, 1000.0); // 1000 bits per TTI = 1 Mbps
        }
        let f = flow(0, FlowClass::Data, 100, 128.0, 0);
        let m = avg.metric(&f);
        // metric = 128k / ~1M
        assert!((m - 0.128).abs() < 0.01, "metric {m}");
    }
}
