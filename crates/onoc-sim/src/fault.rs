//! Fault injection for the open/closed-loop engine: lane (wavelength)
//! failures and BER-driven message corruption, plus the
//! [`ReliabilityProbe`] folding the extended fact stream into a
//! reliability report.
//!
//! The paper's ring-WDM fabric is exactly where perfect-delivery
//! assumptions break: micro-ring resonators drift off resonance with
//! temperature (knocking a *lane* — one wavelength, ring-wide — out of
//! service until re-tuned) and high-loss paths run at SNRs where
//! transient bit errors are expected (the `onoc-photonics` BER/SNR
//! models quantify exactly this). A [`FaultPlan`] describes both:
//!
//! * **Lane failures** — [`LaneFault`] schedules deterministic
//!   `[at, at + duration)` outages; [`StochasticFaults`] draws
//!   exponential up/down times per lane from the plan's seed, so fault
//!   runs replay exactly.
//! * **Corruption** — [`CorruptionModel`] gives each flow a bit-error
//!   rate; an attempt transmitting `B` bits is corrupted with
//!   probability `1 − (1 − BER)^B`, drawn from a counter-based hash of
//!   `(seed, message id, attempt)` so the draw is independent of event
//!   interleaving.
//!
//! What happens to a failed attempt is the transport layer's decision
//! ([`TransportMode`](crate::TransportMode)): retransmit (go-back-N /
//! PFC) or drop. Either way the engine emits [`DropFact`]s, `lost`,
//! `recovered` and `lane_event` facts through
//! [`SimProbe`], and the [`ReliabilityProbe`] folds
//! them into delivered-vs-retransmitted bits, goodput, recovery latency
//! and per-lane downtime.

use std::collections::HashMap;

use onoc_topology::NodeId;
use onoc_wa::HealPolicy;

use crate::probe::SimProbe;
use crate::report::{LatencyHistogram, LatencyStats, MsgRecord};

/// One scheduled lane outage: lane `lane` is down during
/// `[at, at + duration)` (`duration == u64::MAX` means permanent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneFault {
    /// The failed wavelength (ring-wide: an MR drifting off resonance
    /// takes the channel out on every segment).
    pub lane: usize,
    /// First down cycle.
    pub at: u64,
    /// Outage length in cycles; `u64::MAX` never recovers.
    pub duration: u64,
}

/// A stochastic MR-failure process: every lane alternates exponential
/// up/down periods, drawn deterministically from the plan seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StochasticFaults {
    /// Mean cycles between failures of one lane (MTBF).
    pub mean_up: f64,
    /// Mean outage length in cycles (MTTR).
    pub mean_down: f64,
    /// No new failures are scheduled at or past this cycle (outages in
    /// progress still recover), bounding the process for finite runs.
    pub horizon: u64,
}

/// Per-flow transient-corruption probability, expressed as a bit-error
/// rate.
#[derive(Debug, Clone, PartialEq)]
pub enum CorruptionModel {
    /// No corruption.
    None,
    /// One BER for every flow.
    Uniform {
        /// Bit-error rate in `[0, 1)`.
        ber: f64,
    },
    /// A BER per ordered flow (`src × nodes + dst`), e.g. derived from
    /// each path's worst-case loss through the photonics SNR → BER
    /// chain.
    PerFlow(Vec<f64>),
    /// A per-lane two-state Gilbert–Elliott burst-error channel: each
    /// lane alternates *good* and *bad* sojourns (mean lengths
    /// `1 / p_gb` and `1 / p_bg` cycles, drawn from the plan seed like
    /// every other stochastic decision, so runs replay exactly), and an
    /// attempt sees the bad-state BER whenever any lane of its mask was
    /// bad during the transmission span. This models the correlated
    /// error bursts of a thermally drifting micro-ring — errors cluster
    /// while the resonance is off-peak instead of arriving i.i.d.
    GilbertElliott {
        /// Per-cycle good → bad transition probability in `(0, 1]`
        /// (mean good sojourn `1 / p_gb` cycles).
        p_gb: f64,
        /// Per-cycle bad → good transition probability in `(0, 1]`
        /// (mean bad sojourn `1 / p_bg` cycles).
        p_bg: f64,
        /// Bit-error rate while every lane of the attempt is good.
        ber_good: f64,
        /// Bit-error rate while any lane of the attempt is bad.
        ber_bad: f64,
    },
}

impl CorruptionModel {
    /// The bit-error rate applied to `flow`. For the time-varying
    /// [`CorruptionModel::GilbertElliott`] channel this is the
    /// good-state (baseline) rate; the engine swaps in `ber_bad` per
    /// attempt from the lane timelines.
    #[must_use]
    pub fn ber(&self, flow: usize) -> f64 {
        match self {
            CorruptionModel::None => 0.0,
            CorruptionModel::Uniform { ber } => *ber,
            CorruptionModel::PerFlow(bers) => bers[flow],
            CorruptionModel::GilbertElliott { ber_good, .. } => *ber_good,
        }
    }

    fn validate(&self, nodes: usize) {
        let check = |ber: f64| {
            assert!(
                ber.is_finite() && (0.0..1.0).contains(&ber),
                "a bit-error rate must be in [0, 1), got {ber}"
            );
        };
        match self {
            CorruptionModel::None => {}
            CorruptionModel::Uniform { ber } => check(*ber),
            CorruptionModel::PerFlow(bers) => {
                assert_eq!(
                    bers.len(),
                    nodes * nodes,
                    "per-flow BER table needs one entry per ordered (src, dst)"
                );
                bers.iter().copied().for_each(check);
            }
            CorruptionModel::GilbertElliott {
                p_gb,
                p_bg,
                ber_good,
                ber_bad,
            } => {
                for (name, p) in [("p_gb", *p_gb), ("p_bg", *p_bg)] {
                    assert!(
                        p.is_finite() && p > 0.0 && p <= 1.0,
                        "Gilbert–Elliott {name} must be in (0, 1], got {p}"
                    );
                }
                check(*ber_good);
                check(*ber_bad);
                assert!(
                    ber_bad >= ber_good,
                    "Gilbert–Elliott bad-state BER {ber_bad} below good-state BER {ber_good}"
                );
            }
        }
    }
}

/// A deterministic, replayable fault schedule for one engine run.
///
/// Attach with
/// [`OpenLoopSimulator::with_faults`](crate::OpenLoopSimulator::with_faults).
/// A plan with no scheduled faults, no stochastic process and
/// [`CorruptionModel::None`] (or an all-zero BER) routes every message
/// through the fault code path but changes nothing — reports stay
/// bit-identical to the fault-free engine (proptested).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of every stochastic draw (outage times, corruption).
    pub seed: u64,
    /// Deterministic lane outages.
    pub scheduled: Vec<LaneFault>,
    /// Stochastic per-lane failure process.
    pub stochastic: Option<StochasticFaults>,
    /// Transient message corruption.
    pub corruption: CorruptionModel,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given draw seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            scheduled: Vec::new(),
            stochastic: None,
            corruption: CorruptionModel::None,
        }
    }

    /// Sets a uniform bit-error rate.
    #[must_use]
    pub fn with_ber(mut self, ber: f64) -> Self {
        self.corruption = CorruptionModel::Uniform { ber };
        self
    }

    /// Sets a per-flow BER table (`src × nodes + dst`).
    #[must_use]
    pub fn with_per_flow_ber(mut self, bers: Vec<f64>) -> Self {
        self.corruption = CorruptionModel::PerFlow(bers);
        self
    }

    /// Sets a per-lane Gilbert–Elliott burst-error channel.
    #[must_use]
    pub fn with_gilbert_elliott(
        mut self,
        p_gb: f64,
        p_bg: f64,
        ber_good: f64,
        ber_bad: f64,
    ) -> Self {
        self.corruption = CorruptionModel::GilbertElliott {
            p_gb,
            p_bg,
            ber_good,
            ber_bad,
        };
        self
    }

    /// Adds one scheduled lane outage.
    #[must_use]
    pub fn with_scheduled(mut self, fault: LaneFault) -> Self {
        self.scheduled.push(fault);
        self
    }

    /// Sets the stochastic failure process.
    #[must_use]
    pub fn with_stochastic(mut self, process: StochasticFaults) -> Self {
        self.stochastic = Some(process);
        self
    }

    /// Whether the plan can actually perturb a run.
    #[must_use]
    pub fn is_vacuous(&self) -> bool {
        self.scheduled.is_empty()
            && self.stochastic.is_none()
            && matches!(self.corruption, CorruptionModel::None)
    }

    /// Validates the plan against a run geometry.
    ///
    /// # Panics
    ///
    /// Panics on a lane outside the comb, a zero-length outage, a
    /// non-positive stochastic mean, a BER outside `[0, 1)`, or a
    /// per-flow table of the wrong shape.
    pub fn validate(&self, nodes: usize, wavelengths: usize) {
        for f in &self.scheduled {
            assert!(
                f.lane < wavelengths,
                "scheduled fault on lane {} outside a {wavelengths}-λ comb",
                f.lane
            );
            assert!(f.duration >= 1, "a lane outage must last at least 1 cycle");
        }
        if let Some(st) = &self.stochastic {
            assert!(
                st.mean_up.is_finite() && st.mean_up > 0.0,
                "stochastic mean up-time must be positive, got {}",
                st.mean_up
            );
            assert!(
                st.mean_down.is_finite() && st.mean_down > 0.0,
                "stochastic mean down-time must be positive, got {}",
                st.mean_down
            );
        }
        self.corruption.validate(nodes);
    }
}

/// A counter-based splitmix-style hash: uniform 64-bit output for
/// `(seed, stream, counter)`. Corruption draws key on
/// `(message id, attempt)` and outage draws on `(lane, draw index)`, so
/// every stochastic decision is independent of event interleaving and
/// fault runs replay exactly.
#[must_use]
pub fn hash64(seed: u64, stream: u64, counter: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(counter.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a hash to the unit interval `[0, 1)` (53-bit mantissa).
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn unit_interval(hash: u64) -> f64 {
    (hash >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// An exponential draw with the given mean, in whole cycles (at least
/// 1), via inverse-transform sampling of `hash64(seed, stream, counter)`.
#[must_use]
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
pub fn exp_draw(seed: u64, stream: u64, counter: u64, mean: f64) -> u64 {
    let u = unit_interval(hash64(seed, stream, counter));
    let cycles = -mean * (1.0 - u).ln();
    (cycles.ceil() as u64).max(1)
}

/// Probability that a `bits`-bit message transmits with at least one bit
/// error at bit-error rate `ber`: `1 − (1 − BER)^bits`, computed in log
/// space so tiny BERs stay accurate.
#[must_use]
pub fn message_error_probability(ber: f64, bits: f64) -> f64 {
    if ber <= 0.0 || bits <= 0.0 {
        return 0.0;
    }
    if ber >= 1.0 {
        return 1.0;
    }
    -(bits * (-ber).ln_1p()).exp_m1()
}

/// Hash-stream namespace of the Gilbert–Elliott sojourn draws, disjoint
/// from both the per-message corruption streams (message ids) and the
/// stochastic-outage lane streams (`LANE_STREAM = 1 << 63` in the
/// engine).
pub(crate) const GE_STREAM: u64 = 3 << 62;

/// The deterministic per-lane good/bad state timeline of a
/// [`CorruptionModel::GilbertElliott`] channel.
///
/// Sojourn lengths are drawn lazily by inverse transform from
/// `hash64(seed, GE_STREAM | lane, k)` (the `k`-th sojourn of the lane,
/// mean `1 / p` cycles), so the timeline is a pure function of the plan
/// seed — independent of event interleaving and identical across
/// replays. Every lane starts in the *good* state at cycle 0; the
/// boundary list per lane holds cumulative sojourn end cycles, even
/// indices ending good sojourns.
#[derive(Debug, Clone)]
pub(crate) struct GeTimeline {
    seed: u64,
    p_gb: f64,
    p_bg: f64,
    bounds: Vec<Vec<u64>>,
}

impl GeTimeline {
    pub(crate) fn new(seed: u64, p_gb: f64, p_bg: f64, wavelengths: usize) -> Self {
        Self {
            seed,
            p_gb,
            p_bg,
            bounds: vec![Vec::new(); wavelengths],
        }
    }

    /// Extends lane `lane`'s boundary list until it covers cycle `t`.
    fn extend(&mut self, lane: usize, t: u64) {
        let bounds = &mut self.bounds[lane];
        while bounds.last().is_none_or(|&b| b <= t) {
            let k = bounds.len() as u64;
            // Even sojourn index = good state (mean 1 / p_gb).
            let mean = if k.is_multiple_of(2) {
                1.0 / self.p_gb
            } else {
                1.0 / self.p_bg
            };
            let len = exp_draw(self.seed, GE_STREAM | lane as u64, k, mean);
            let end = bounds.last().copied().unwrap_or(0).saturating_add(len);
            bounds.push(end);
        }
    }

    /// Whether lane `lane` is in the bad state at cycle `t`.
    pub(crate) fn is_bad(&mut self, lane: usize, t: u64) -> bool {
        self.extend(lane, t);
        self.bounds[lane].partition_point(|&b| b <= t) % 2 == 1
    }

    /// Whether lane `lane` spends any cycle of `[start, end)` in the bad
    /// state. Sojourns alternate, so either `start` already sits in a
    /// bad sojourn or the good sojourn containing `start` must end
    /// before `end`.
    pub(crate) fn bad_over(&mut self, lane: usize, start: u64, end: u64) -> bool {
        self.extend(lane, end.max(start));
        let idx = self.bounds[lane].partition_point(|&b| b <= start);
        idx % 2 == 1 || self.bounds[lane][idx] < end
    }

    /// End cycle of the bad sojourn containing `t` (the first cycle the
    /// lane is good again). Falls back to `t` if the lane is good at `t`.
    pub(crate) fn bad_until(&mut self, lane: usize, t: u64) -> u64 {
        if self.is_bad(lane, t) {
            let idx = self.bounds[lane].partition_point(|&b| b <= t);
            self.bounds[lane][idx]
        } else {
            t
        }
    }
}

/// Why a transmission attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultCause {
    /// The BER draw corrupted the payload (receiver CRC fails).
    Corrupt,
    /// A lane of the attempt was down during the transmission.
    LaneDown,
    /// Go-back-N receiver discarded an out-of-order frame (an earlier
    /// sequence number is still outstanding).
    OutOfOrder,
}

impl FaultCause {
    /// The machine-friendly name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultCause::Corrupt => "corrupt",
            FaultCause::LaneDown => "lane-down",
            FaultCause::OutOfOrder => "out-of-order",
        }
    }
}

impl core::fmt::Display for FaultCause {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// A failed transmission attempt: the busy interval it still drove, the
/// bits it wasted, and why it failed. Mirrors
/// [`TxFact`](crate::TxFact) for the drop path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DropFact {
    /// Cycle the attempt started.
    pub start: u64,
    /// Cycle the attempt would have delivered (the failure is detected
    /// at the receiver, so lanes were held for the whole span).
    pub end: u64,
    /// Bitmask of the wavelengths driven.
    pub lanes: u128,
    /// Directed segments the path crosses.
    pub hops: usize,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Message volume in bits (spent by this attempt without being
    /// delivered).
    pub bits: f64,
    /// Failure classification.
    pub cause: FaultCause,
    /// 1-based attempt number that failed.
    pub attempt: u32,
}

impl DropFact {
    /// Number of wavelengths driven.
    #[must_use]
    pub fn lane_count(&self) -> usize {
        self.lanes.count_ones() as usize
    }

    /// Attempt duration in cycles.
    #[must_use]
    pub fn span(&self) -> u64 {
        self.end - self.start
    }
}

/// One self-healing re-allocation attempt, emitted through
/// [`SimProbe::heal`] when a lane loss (or a Gilbert–Elliott channel
/// degrading past the configured BER threshold) triggers the
/// incremental re-allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealFact {
    /// Trigger cycle (the quiesce point the new map was swapped in at).
    pub at: u64,
    /// The lane whose outage triggered the heal.
    pub lane: usize,
    /// Heal policy that ran.
    pub policy: HealPolicy,
    /// Flows whose masks intersected a dark lane (the re-pack set).
    pub affected: usize,
    /// Flows whose lane mask actually changed.
    pub moved: usize,
    /// Lane-sharing pairs the relaxed policy accepted.
    pub shared: usize,
    /// Parked messages restarted by the swap.
    pub restarted: usize,
    /// Admission stall incurred: cycles the restarted messages had
    /// already spent parked (sum of `at − admitted`).
    pub stall_cycles: u64,
    /// Whether a new map was swapped in (`false` when the strict policy
    /// found the surviving comb infeasible, or the policy is
    /// [`HealPolicy::Park`] — the old map stays and flows park).
    pub feasible: bool,
}

/// One lane outage as seen by the [`ReliabilityProbe`]: when it
/// started, which flows it blocked, and when goodput was restored.
#[derive(Debug, Clone)]
struct OutageTrack {
    start: u64,
    /// Cycle goodput was restored: a feasible heal swapped a new map
    /// in, a blocked flow delivered again, or (when nothing was ever
    /// blocked) the outage itself. `None` until then — censored at the
    /// horizon.
    resolved: Option<u64>,
    /// Flows that lost an attempt to this outage.
    blocked: u32,
}

/// A [`SimProbe`] folding the fault/transport fact stream into a
/// [`ReliabilityReport`]: delivered vs retransmitted bits, goodput,
/// recovery latency, per-outage recovery, loss, and per-lane downtime.
#[derive(Debug, Clone)]
pub struct ReliabilityProbe {
    delivered_messages: u64,
    delivered_bits: f64,
    corrupt_attempts: u64,
    lane_down_attempts: u64,
    out_of_order_attempts: u64,
    retransmitted_bits: f64,
    lost_messages: u64,
    lost_bits: f64,
    recovered_messages: u64,
    recovery_hist: LatencyHistogram,
    lane_down_since: Vec<Option<u64>>,
    lane_downtime: Vec<u64>,
    outages: Vec<OutageTrack>,
    /// Index into `outages` of the open outage per lane.
    open_outage: Vec<Option<usize>>,
    /// Flow → outage it is currently blocked on (first drop wins).
    blocked_flows: HashMap<(NodeId, NodeId), usize>,
    heals: u64,
    flows_moved: u64,
    horizon: u64,
}

impl ReliabilityProbe {
    /// A probe for runs on a `wavelengths`-channel comb.
    #[must_use]
    pub fn new(wavelengths: usize) -> Self {
        Self {
            delivered_messages: 0,
            delivered_bits: 0.0,
            corrupt_attempts: 0,
            lane_down_attempts: 0,
            out_of_order_attempts: 0,
            retransmitted_bits: 0.0,
            lost_messages: 0,
            lost_bits: 0.0,
            recovered_messages: 0,
            recovery_hist: LatencyHistogram::new(),
            lane_down_since: vec![None; wavelengths],
            lane_downtime: vec![0; wavelengths],
            outages: Vec::new(),
            open_outage: vec![None; wavelengths],
            blocked_flows: HashMap::new(),
            heals: 0,
            flows_moved: 0,
            horizon: 0,
        }
    }

    /// Clears the folded state so the probe can observe another run.
    pub fn reset(&mut self) {
        let wavelengths = self.lane_downtime.len();
        *self = Self::new(wavelengths);
    }

    /// Assembles the reliability report of the observed run.
    #[must_use]
    pub fn report(&self) -> ReliabilityReport {
        let recovery = self
            .outages
            .iter()
            .map(|o| o.resolved.unwrap_or(self.horizon.max(o.start)) - o.start)
            .collect();
        ReliabilityReport {
            delivered_messages: self.delivered_messages,
            delivered_bits: self.delivered_bits,
            corrupt_attempts: self.corrupt_attempts,
            lane_down_attempts: self.lane_down_attempts,
            out_of_order_attempts: self.out_of_order_attempts,
            retransmitted_bits: self.retransmitted_bits,
            lost_messages: self.lost_messages,
            lost_bits: self.lost_bits,
            recovered_messages: self.recovered_messages,
            recovery_latency: self.recovery_hist.stats(),
            outages: self.outages.len() as u64,
            outage_recovery: LatencyStats::from_samples(recovery),
            heals: self.heals,
            flows_moved: self.flows_moved,
            lane_downtime: self.lane_downtime.clone(),
            horizon: self.horizon,
        }
    }
}

impl SimProbe for ReliabilityProbe {
    #[inline]
    fn retired(&mut self, record: &MsgRecord, volume_bits: f64, _hops: usize) {
        self.delivered_messages += 1;
        self.delivered_bits += volume_bits;
        // A delivery by a flow blocked on an outage restores goodput.
        // Retirement facts can trail their completion cycle (the engine
        // retires the message deque head-first, in id order), so a
        // record that completed *before* the outage opened is stale
        // evidence and resolves nothing.
        if let std::collections::hash_map::Entry::Occupied(e) =
            self.blocked_flows.entry((record.src, record.dst))
        {
            let outage = &mut self.outages[*e.get()];
            if record.completed >= outage.start {
                e.remove();
                if outage.resolved.is_none() {
                    outage.resolved = Some(record.completed);
                }
            }
        }
    }

    #[inline]
    fn dropped(&mut self, fact: DropFact) {
        match fact.cause {
            FaultCause::Corrupt => self.corrupt_attempts += 1,
            FaultCause::LaneDown => {
                self.lane_down_attempts += 1;
                // Attribute the flow to the open outage on a lane of the
                // attempt (lowest lane wins when several are down).
                let hit = (0..self.open_outage.len())
                    .filter(|&l| fact.lanes & (1 << l) != 0)
                    .find_map(|l| self.open_outage[l]);
                if let Some(idx) = hit
                    && let std::collections::hash_map::Entry::Vacant(e) =
                        self.blocked_flows.entry((fact.src, fact.dst))
                {
                    e.insert(idx);
                    self.outages[idx].blocked += 1;
                }
            }
            FaultCause::OutOfOrder => self.out_of_order_attempts += 1,
        }
        self.retransmitted_bits += fact.bits;
    }

    #[inline]
    fn lost(&mut self, _record: &MsgRecord, volume_bits: f64, _attempts: u32) {
        self.lost_messages += 1;
        self.lost_bits += volume_bits;
    }

    #[inline]
    fn recovered(&mut self, _record: &MsgRecord, _attempts: u32, recovery_cycles: u64) {
        self.recovered_messages += 1;
        self.recovery_hist.record(recovery_cycles);
    }

    #[inline]
    fn lane_event(&mut self, now: u64, lane: usize, down: bool) {
        if down {
            self.lane_down_since[lane] = Some(now);
            self.open_outage[lane] = Some(self.outages.len());
            self.outages.push(OutageTrack {
                start: now,
                resolved: None,
                blocked: 0,
            });
        } else if let Some(since) = self.lane_down_since[lane].take() {
            self.lane_downtime[lane] += now - since;
            if let Some(idx) = self.open_outage[lane].take() {
                let outage = &mut self.outages[idx];
                // Nothing ever lost an attempt to this outage: goodput
                // never dipped, so recovery is instantaneous.
                if outage.resolved.is_none() && outage.blocked == 0 {
                    outage.resolved = Some(outage.start);
                }
            }
        }
    }

    #[inline]
    fn heal(&mut self, fact: HealFact) {
        self.heals += u64::from(fact.feasible);
        self.flows_moved += fact.moved as u64;
        // A feasible heal re-packs the flows of *every* dark lane, so it
        // restores goodput for all open outages at once.
        if fact.feasible {
            for idx in self.open_outage.iter().flatten() {
                let outage = &mut self.outages[*idx];
                if outage.resolved.is_none() {
                    outage.resolved = Some(fact.at);
                }
            }
        }
    }

    #[inline]
    fn finished(&mut self, horizon: u64, _last_injection: u64) {
        self.horizon = horizon;
        // Close outages still open at the end of the run; unresolved
        // recoveries stay censored at the horizon (see `report`).
        for lane in 0..self.lane_down_since.len() {
            if let Some(since) = self.lane_down_since[lane].take() {
                self.lane_downtime[lane] += horizon.saturating_sub(since);
            }
        }
    }
}

/// The folded reliability outcome of one engine run.
#[derive(Debug, Clone, PartialEq)]
pub struct ReliabilityReport {
    /// Messages delivered (retired) by the run.
    pub delivered_messages: u64,
    /// Bits delivered; retransmitted bits are *not* in here — every
    /// message counts once, on its final successful attempt.
    pub delivered_bits: f64,
    /// Attempts failed by BER corruption.
    pub corrupt_attempts: u64,
    /// Attempts failed by a lane outage.
    pub lane_down_attempts: u64,
    /// Attempts discarded by the go-back-N receiver as out of order.
    pub out_of_order_attempts: u64,
    /// Bits spent on failed attempts (wasted fabric traffic).
    pub retransmitted_bits: f64,
    /// Messages permanently lost (retries exhausted, or no transport).
    pub lost_messages: u64,
    /// Bits of the lost messages.
    pub lost_bits: f64,
    /// Messages delivered after at least one failed attempt.
    pub recovered_messages: u64,
    /// Cycles from a message's first failure to its final delivery,
    /// over the recovered messages.
    pub recovery_latency: LatencyStats,
    /// Lane outages observed (one per lane-down event).
    pub outages: u64,
    /// Per-outage recovery latency — cycles from lane-down to goodput
    /// restored (a feasible heal, or the first delivery of a flow the
    /// outage had blocked; 0 when nothing was blocked, censored at the
    /// horizon when goodput never came back). The p50/p95/p99 here are
    /// the recovery-latency SLO numbers.
    pub outage_recovery: LatencyStats,
    /// Feasible self-healing map swaps performed.
    pub heals: u64,
    /// Flows moved to new lanes across all heals.
    pub flows_moved: u64,
    /// Down cycles per lane over the run.
    pub lane_downtime: Vec<u64>,
    /// Cycle of the last completion.
    pub horizon: u64,
}

impl ReliabilityReport {
    /// Total failed attempts across every cause.
    #[must_use]
    pub fn failed_attempts(&self) -> u64 {
        self.corrupt_attempts + self.lane_down_attempts + self.out_of_order_attempts
    }

    /// Goodput in delivered bits per cycle — retransmitted bits count
    /// zero here (0 for an empty run).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn goodput(&self) -> f64 {
        if self.horizon == 0 {
            0.0
        } else {
            self.delivered_bits / self.horizon as f64
        }
    }

    /// Fraction of offered messages delivered
    /// (`delivered / (delivered + lost)`, 1.0 for an empty run).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn delivery_ratio(&self) -> f64 {
        let total = self.delivered_messages + self.lost_messages;
        if total == 0 {
            1.0
        } else {
            self.delivered_messages as f64 / total as f64
        }
    }

    /// Fraction of transmitted bits that were wasted on failed attempts
    /// (`retransmitted / (delivered + retransmitted)`, 0 when idle).
    #[must_use]
    pub fn waste_fraction(&self) -> f64 {
        let total = self.delivered_bits + self.retransmitted_bits;
        if total <= 0.0 {
            0.0
        } else {
            self.retransmitted_bits / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_deterministic_and_spreads() {
        assert_eq!(hash64(1, 2, 3), hash64(1, 2, 3));
        assert_ne!(hash64(1, 2, 3), hash64(1, 2, 4));
        assert_ne!(hash64(1, 2, 3), hash64(2, 2, 3));
        // Unit-interval draws cover [0, 1) reasonably uniformly.
        let mean: f64 = (0..1000)
            .map(|k| unit_interval(hash64(42, 7, k)))
            .sum::<f64>()
            / 1000.0;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
        for k in 0..1000 {
            let u = unit_interval(hash64(42, 7, k));
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn exp_draws_have_the_requested_mean() {
        let mean = 100.0;
        let draws: f64 = (0..4000)
            .map(|k| exp_draw(9, 1, k, mean) as f64)
            .sum::<f64>()
            / 4000.0;
        assert!(
            (draws - mean).abs() < mean * 0.1,
            "empirical mean {draws} for requested {mean}"
        );
        assert!(exp_draw(9, 1, 0, 1e-9) >= 1, "draws are at least 1 cycle");
    }

    #[test]
    fn message_error_probability_is_calibrated() {
        assert_eq!(message_error_probability(0.0, 512.0), 0.0);
        assert_eq!(message_error_probability(1.0, 512.0), 1.0);
        // Small-p regime: p ≈ bits × ber.
        let p = message_error_probability(1e-9, 1000.0);
        assert!((p - 1e-6).abs() < 1e-9, "p {p}");
        // Exact check against the direct formula at a moderate BER.
        let exact = 1.0 - (1.0f64 - 1e-3).powi(512);
        let log = message_error_probability(1e-3, 512.0);
        assert!((log - exact).abs() < 1e-12);
    }

    #[test]
    fn plan_validation_rejects_bad_parameters() {
        let plan = FaultPlan::new(1).with_scheduled(LaneFault {
            lane: 8,
            at: 0,
            duration: 10,
        });
        assert!(std::panic::catch_unwind(|| plan.validate(4, 8)).is_err());
        let plan = FaultPlan::new(1).with_ber(1.5);
        assert!(std::panic::catch_unwind(|| plan.validate(4, 8)).is_err());
        let plan = FaultPlan::new(1).with_per_flow_ber(vec![0.0; 3]);
        assert!(std::panic::catch_unwind(|| plan.validate(4, 8)).is_err());
        FaultPlan::new(1)
            .with_ber(1e-6)
            .with_scheduled(LaneFault {
                lane: 0,
                at: 5,
                duration: u64::MAX,
            })
            .with_stochastic(StochasticFaults {
                mean_up: 1000.0,
                mean_down: 50.0,
                horizon: 10_000,
            })
            .validate(4, 8);
        assert!(FaultPlan::new(0).is_vacuous());
        assert!(!FaultPlan::new(0).with_ber(1e-9).is_vacuous());
    }

    #[test]
    fn reliability_probe_folds_hand_computed_facts() {
        let mut probe = ReliabilityProbe::new(4);
        let record = MsgRecord {
            src: NodeId(0),
            dst: NodeId(2),
            injected: 0,
            admitted: 0,
            started: 0,
            completed: 100,
            lanes: 1,
            attempts: 2,
        };
        probe.dropped(DropFact {
            start: 0,
            end: 50,
            lanes: 0b1,
            hops: 2,
            src: NodeId(0),
            dst: NodeId(2),
            bits: 128.0,
            cause: FaultCause::Corrupt,
            attempt: 1,
        });
        probe.recovered(&record, 2, 50);
        probe.retired(&record, 128.0, 2);
        probe.lost(&record, 64.0, 3);
        probe.lane_event(10, 1, true);
        probe.lane_event(30, 1, false);
        probe.lane_event(90, 3, true); // still down at the horizon
        probe.finished(100, 0);
        let r = probe.report();
        assert_eq!(r.corrupt_attempts, 1);
        assert_eq!(r.failed_attempts(), 1);
        assert_eq!((r.delivered_messages, r.lost_messages), (1, 1));
        assert!((r.delivered_bits - 128.0).abs() < 1e-12);
        assert!((r.retransmitted_bits - 128.0).abs() < 1e-12);
        assert!((r.lost_bits - 64.0).abs() < 1e-12);
        assert_eq!(r.recovered_messages, 1);
        assert_eq!(r.recovery_latency.max, 50);
        assert_eq!(r.lane_downtime, vec![0, 20, 0, 10]);
        assert!((r.goodput() - 1.28).abs() < 1e-12);
        assert!((r.delivery_ratio() - 0.5).abs() < 1e-12);
        assert!((r.waste_fraction() - 0.5).abs() < 1e-12);
    }

    /// A pinned seeded Gilbert–Elliott schedule: the first state
    /// boundaries of two lanes, plus point and interval queries against
    /// them. Any change to the sojourn-draw arithmetic (stream split,
    /// hash, inverse transform) shows up here first.
    #[test]
    fn golden_seeded_gilbert_elliott_schedule() {
        let mut ge = GeTimeline::new(42, 0.01, 0.1, 2);
        // Force both lanes out to cycle 2000 and snapshot the bounds.
        let summary = (0..2)
            .map(|lane| {
                ge.extend(lane, 2000);
                let bounds = &ge.bounds[lane];
                let shown = bounds.len().min(4);
                format!("lane{lane}={:?}", &bounds[..shown])
            })
            .collect::<Vec<_>>()
            .join(" ");
        assert_eq!(
            summary, "lane0=[74, 75, 125, 128] lane1=[3, 9, 21, 40]",
            "seeded Gilbert–Elliott schedule drifted"
        );
        // Point queries: cycle 0 is always good, the first boundary
        // flips to bad, the second back to good.
        assert!(!ge.is_bad(0, 0));
        assert!(ge.is_bad(0, 74) && !ge.is_bad(0, 75));
        // Interval queries: an attempt wholly inside the first good
        // sojourn is clean; one crossing its end sees the bad state.
        assert!(!ge.bad_over(0, 0, 74));
        assert!(ge.bad_over(0, 60, 80));
        assert!(ge.bad_over(0, 74, 75));
        // Quarantine horizon: the bad sojourn containing cycle 74 ends
        // at the next boundary; a good cycle maps to itself.
        assert_eq!(ge.bad_until(0, 74), 75);
        assert_eq!(ge.bad_until(0, 10), 10);
    }

    #[test]
    fn empty_probe_reports_clean_zeroes() {
        let r = ReliabilityProbe::new(2).report();
        assert_eq!(r.failed_attempts(), 0);
        assert_eq!(r.goodput(), 0.0);
        assert_eq!(r.delivery_ratio(), 1.0);
        assert_eq!(r.waste_fraction(), 0.0);
    }
}
