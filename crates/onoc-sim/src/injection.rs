//! The injection-policy layer of the event core: how sources react (or
//! don't) to network backpressure, and the wavelength arbiter that
//! runtime allocation shares between the task-graph and open-loop
//! engines.
//!
//! The open-loop engine historically hard-wired open-loop semantics:
//! every [`TrafficEvent`](crate::TrafficEvent) entered the network
//! interface at its offered time and queues grew without bound past
//! saturation. This module factors the injection decision out into an
//! [`InjectionMode`] — a policy over one shared event core — so the same
//! engine measures both regimes:
//!
//! * [`InjectionMode::Open`] — the classical open loop: offered time is
//!   admission time.
//! * [`InjectionMode::Credit`] — credit-based throttling: each source
//!   owns a window of `window` credits, admission consumes one, delivery
//!   of one of the source's messages returns one. A source with an empty
//!   credit pool *stalls* further messages at the source (recorded as
//!   stall time, separate from network-interface queueing), so in-flight
//!   traffic per source is bounded and sustained operating points near
//!   saturation are measurable.
//! * [`InjectionMode::Ecn`] — ECN-style AIMD: each source carries an
//!   offered-rate factor in `[ECN_MIN_FACTOR, 1]`. Messages whose
//!   transmission starts while ring occupancy exceeds `threshold` are
//!   *marked*; on delivery of a marked message the source halves its
//!   factor (multiplicative decrease), on an unmarked delivery it adds
//!   [`InjectionMode::ECN_ADDITIVE_STEP`] back (additive increase). A
//!   factor below 1 stretches the source's offered inter-injection gaps
//!   by `1/factor`, pacing admissions without a hard window.
//!
//! Both closed-loop modes gate *admission into the network interface*;
//! wavelength arbitration below the gate (dynamic claims from the
//! [`LaneArbiter`] under a [`DynamicPolicy`], or the static flow-map
//! checker) is unchanged and shared with the open loop.

use std::collections::VecDeque;

use onoc_photonics::WavelengthId;

/// How sources inject: open loop, or one of two closed-loop policies.
///
/// See the module docs for the exact semantics of each variant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InjectionMode {
    /// Pure open loop: admission time equals offered time.
    Open,
    /// Credit-based closed loop with a per-source window.
    Credit {
        /// Maximum in-flight (admitted but undelivered) messages per
        /// source. Must be at least 1.
        window: usize,
    },
    /// Credit-based closed loop with per-destination credit pools: each
    /// source owns `window` credits *per destination*, so one congested
    /// destination throttles only the flows targeting it rather than
    /// the source's whole output. The source FIFO is still drained in
    /// offered order, so a blocked head holds later messages to other
    /// destinations back (head-of-line blocking is part of the model).
    CreditPerDst {
        /// Maximum in-flight messages per `(source, destination)` pair.
        /// Must be at least 1.
        window: usize,
    },
    /// ECN-style AIMD closed loop.
    Ecn {
        /// Ring-occupancy fraction in `(0, 1]` above which a starting
        /// transmission is congestion-marked.
        threshold: f64,
    },
}

impl InjectionMode {
    /// Floor of the ECN rate factor (a source never throttles below
    /// 1/64 of its offered rate, so recovery always restarts).
    pub const ECN_MIN_FACTOR: f64 = 1.0 / 64.0;

    /// Additive-increase step applied to the rate factor on every
    /// unmarked delivery.
    pub const ECN_ADDITIVE_STEP: f64 = 0.05;

    /// The machine-friendly name (`open` / `credit` / `credit-dst` /
    /// `ecn`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            InjectionMode::Open => "open",
            InjectionMode::Credit { .. } => "credit",
            InjectionMode::CreditPerDst { .. } => "credit-dst",
            InjectionMode::Ecn { .. } => "ecn",
        }
    }

    /// `true` for the backpressure-aware modes.
    #[must_use]
    pub fn is_closed_loop(self) -> bool {
        !matches!(self, InjectionMode::Open)
    }

    /// Panics on degenerate parameters (zero credit window, ECN
    /// threshold outside `(0, 1]`).
    pub(crate) fn validate(self) {
        match self {
            InjectionMode::Open => {}
            InjectionMode::Credit { window } | InjectionMode::CreditPerDst { window } => {
                assert!(window >= 1, "credit window must be at least 1");
            }
            InjectionMode::Ecn { threshold } => {
                assert!(
                    threshold.is_finite() && threshold > 0.0 && threshold <= 1.0,
                    "ECN occupancy threshold must be in (0, 1], got {threshold}"
                );
            }
        }
    }
}

impl core::fmt::Display for InjectionMode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            InjectionMode::Open => write!(f, "open"),
            InjectionMode::Credit { window } => write!(f, "credit(window {window})"),
            InjectionMode::CreditPerDst { window } => write!(f, "credit-dst(window {window})"),
            InjectionMode::Ecn { threshold } => write!(f, "ecn(threshold {threshold})"),
        }
    }
}

/// The AIMD constants of the ECN closed loop, configurable per run
/// (defaults reproduce the historical hard-wired behaviour).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AimdParams {
    /// Additive-increase step applied to the rate factor on every
    /// unmarked delivery. Must be in `(0, 1]`.
    pub additive_step: f64,
    /// Multiplicative-decrease factor applied on every marked delivery.
    /// Must be in `(0, 1)`.
    pub md_factor: f64,
    /// Floor of the rate factor, so recovery always restarts. Must be
    /// in `(0, 1]`.
    pub min_factor: f64,
}

impl Default for AimdParams {
    fn default() -> Self {
        Self {
            additive_step: InjectionMode::ECN_ADDITIVE_STEP,
            md_factor: 0.5,
            min_factor: InjectionMode::ECN_MIN_FACTOR,
        }
    }
}

impl AimdParams {
    /// Panics on parameters outside their documented ranges.
    ///
    /// # Panics
    ///
    /// Panics when `additive_step` is outside `(0, 1]`, `md_factor`
    /// outside `(0, 1)`, or `min_factor` outside `(0, 1]`.
    pub fn validate(self) {
        assert!(
            self.additive_step.is_finite() && self.additive_step > 0.0 && self.additive_step <= 1.0,
            "AIMD additive step must be in (0, 1], got {}",
            self.additive_step
        );
        assert!(
            self.md_factor.is_finite() && self.md_factor > 0.0 && self.md_factor < 1.0,
            "AIMD multiplicative-decrease factor must be in (0, 1), got {}",
            self.md_factor
        );
        assert!(
            self.min_factor.is_finite() && self.min_factor > 0.0 && self.min_factor <= 1.0,
            "AIMD minimum factor must be in (0, 1], got {}",
            self.min_factor
        );
    }
}

/// How many wavelengths a ready transmission claims under runtime
/// allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DynamicPolicy {
    /// Claim exactly one free wavelength (classical dynamic lightpath
    /// assignment; First-Fit over the free set).
    Single,
    /// Claim every free wavelength up to `cap` (burst mode — an idealised
    /// upper bound on runtime allocation).
    Greedy {
        /// Maximum wavelengths per burst.
        cap: usize,
    },
}

impl DynamicPolicy {
    /// Wavelengths a ready transmission asks the arbiter for.
    #[must_use]
    pub fn lane_demand(self) -> usize {
        match self {
            DynamicPolicy::Single => 1,
            DynamicPolicy::Greedy { cap } => cap,
        }
    }
}

impl core::fmt::Display for DynamicPolicy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DynamicPolicy::Single => write!(f, "single"),
            DynamicPolicy::Greedy { cap } => write!(f, "greedy(cap {cap})"),
        }
    }
}

/// The runtime wavelength arbiter shared by the task-graph
/// [`Simulator`](crate::Simulator) and the open/closed-loop engine:
/// per-directed-segment busy masks with greedy lowest-index claims.
///
/// Segments index into the busy table through
/// [`DirectedSegment::segment_index`](onoc_topology::DirectedSegment::segment_index),
/// and the claims are bit masks over the comb, so claiming and releasing
/// allocate nothing; callers keep each route's segment indices in
/// precomputed `u16` slices.
#[derive(Debug, Clone)]
pub(crate) struct LaneArbiter {
    wavelengths: usize,
    /// Busy mask per directed segment, dense-indexed.
    busy: Vec<u128>,
    /// Lanes currently knocked out by the fault layer (ring-wide): the
    /// claim paths never grant them, while releases stay mask-based so
    /// in-flight claims drain normally when a lane dies under them.
    down: u128,
}

impl LaneArbiter {
    /// A fully idle arbiter over `2 * nodes` directed segments.
    pub(crate) fn new(nodes: usize, wavelengths: usize) -> Self {
        debug_assert!((1..=128).contains(&wavelengths));
        Self {
            wavelengths,
            busy: vec![0u128; onoc_topology::segment_count(nodes)],
            down: 0,
        }
    }

    /// Resets to fully idle, optionally for a different geometry, keeping
    /// the table allocation when it already fits.
    pub(crate) fn reset(&mut self, nodes: usize, wavelengths: usize) {
        debug_assert!((1..=128).contains(&wavelengths));
        self.wavelengths = wavelengths;
        self.busy.clear();
        self.busy.resize(onoc_topology::segment_count(nodes), 0);
        self.down = 0;
    }

    /// Marks one lane down (no new grants) or back up.
    pub(crate) fn set_down(&mut self, lane: usize, down: bool) {
        debug_assert!(lane < self.wavelengths);
        if down {
            self.down |= 1u128 << lane;
        } else {
            self.down &= !(1u128 << lane);
        }
    }

    fn all_mask(&self) -> u128 {
        if self.wavelengths == 128 {
            u128::MAX
        } else {
            (1u128 << self.wavelengths) - 1
        }
    }

    /// Claims up to `want` lanes free on *every* dense-indexed segment of
    /// `segs` (lowest indices first) as a bit mask, or `None` if not even
    /// one lane is free. Allocation-free — this is the hot path; callers
    /// pass precomputed flat route slices.
    pub(crate) fn claim_mask(&mut self, segs: &[u16], want: usize) -> Option<u128> {
        let mut free = self.all_mask() & !self.down;
        if free == 0 {
            return None;
        }
        for &seg in segs {
            free &= !self.busy[seg as usize];
            if free == 0 {
                return None;
            }
        }
        let mut mask = 0u128;
        for _ in 0..want {
            if free == 0 {
                break;
            }
            let lowest = free & free.wrapping_neg();
            mask |= lowest;
            free ^= lowest;
        }
        for &seg in segs {
            self.busy[seg as usize] |= mask;
        }
        Some(mask)
    }

    /// Releases a claim made by [`LaneArbiter::claim_mask`].
    pub(crate) fn release_mask(&mut self, segs: &[u16], mask: u128) {
        for &seg in segs {
            self.busy[seg as usize] &= !mask;
        }
    }
}

/// The lanes of a claim mask, lowest first.
pub(crate) fn mask_lanes(mask: u128) -> Vec<WavelengthId> {
    (0..128)
        .filter(|&lane| (mask >> lane) & 1 == 1)
        .map(WavelengthId)
        .collect()
}

/// Per-source injection state machine: the offered FIFO in front of the
/// network interface, the credit pool, and the AIMD rate factor.
///
/// One gate per ONI; the engine calls [`SourceGate::note_admit`] /
/// [`SourceGate::note_delivery`] at the corresponding events and reads
/// the admission verdict through the engine's `drain_gate` loop.
#[derive(Debug, Clone)]
pub(crate) struct SourceGate {
    /// Messages offered by the source but not yet admitted, in offered
    /// order.
    pub(crate) offered: VecDeque<usize>,
    /// Admitted but undelivered messages (the consumed credits).
    pub(crate) in_flight: usize,
    /// ECN rate factor in `[ECN_MIN_FACTOR, 1]`.
    pub(crate) factor: f64,
    /// Cycle of the most recent admission (meaningful once
    /// `has_admitted`).
    pub(crate) last_admit: u64,
    /// Whether any message was admitted yet (disambiguates
    /// `last_admit == 0`).
    pub(crate) has_admitted: bool,
    /// Offered time of the most recent offer, for gap bookkeeping.
    pub(crate) last_offered: Option<u64>,
    /// Earliest pending gate wake-up, to avoid duplicate events.
    pub(crate) wake_at: Option<u64>,
    /// Per-destination in-flight counts, sized lazily by the engine and
    /// used only under [`InjectionMode::CreditPerDst`].
    pub(crate) in_flight_by_dst: Vec<u32>,
    /// Time of the last `in_flight` change (credit-occupancy integral).
    credit_changed_at: u64,
    /// Accumulated `in_flight × cycles` (credit-occupancy integral).
    credit_cycles: f64,
}

impl SourceGate {
    pub(crate) fn new() -> Self {
        Self {
            offered: VecDeque::new(),
            in_flight: 0,
            factor: 1.0,
            last_admit: 0,
            has_admitted: false,
            last_offered: None,
            wake_at: None,
            in_flight_by_dst: Vec::new(),
            credit_changed_at: 0,
            credit_cycles: 0.0,
        }
    }

    /// Resets to the pristine state, keeping the offered queue's
    /// allocation for scratch reuse.
    pub(crate) fn reset(&mut self) {
        self.offered.clear();
        self.in_flight = 0;
        self.factor = 1.0;
        self.last_admit = 0;
        self.has_admitted = false;
        self.last_offered = None;
        self.wake_at = None;
        self.in_flight_by_dst.clear();
        self.credit_changed_at = 0;
        self.credit_cycles = 0.0;
    }

    /// Sizes the per-destination pools (all zero), for
    /// [`InjectionMode::CreditPerDst`] runs.
    pub(crate) fn ensure_dst_pools(&mut self, nodes: usize) {
        self.in_flight_by_dst.clear();
        self.in_flight_by_dst.resize(nodes, 0);
    }

    /// Offered-time gap to the previous offer from this source (0 for
    /// the first message), updating the bookkeeping.
    pub(crate) fn offered_gap(&mut self, time: u64) -> u64 {
        let gap = match self.last_offered {
            None => 0,
            Some(prev) => time.saturating_sub(prev),
        };
        self.last_offered = Some(time);
        gap
    }

    /// Earliest admission cycle for a message with offered time `time`
    /// and offered gap `gap` under the ECN pacing rule.
    ///
    /// A throttled source (`factor < 1`) paces even same-cycle bursts:
    /// the offered gap counts as at least one cycle, so a burst admits
    /// at `1/factor`-cycle spacing instead of bypassing congestion
    /// control with `gap == 0`. An unthrottled source keeps the offered
    /// timing exactly.
    pub(crate) fn ecn_allowed(&self, time: u64, gap: u64) -> u64 {
        if !self.has_admitted {
            return time;
        }
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss
        )]
        let scaled = if self.factor >= 1.0 {
            gap
        } else {
            (gap.max(1) as f64 / self.factor).ceil() as u64
        };
        time.max(self.last_admit.saturating_add(scaled))
    }

    fn integrate(&mut self, now: u64) {
        #[allow(clippy::cast_precision_loss)]
        {
            self.credit_cycles += self.in_flight as f64 * (now - self.credit_changed_at) as f64;
        }
        self.credit_changed_at = now;
    }

    /// Records an admission at `now`: one credit consumed.
    pub(crate) fn note_admit(&mut self, now: u64) {
        self.integrate(now);
        self.in_flight += 1;
        self.last_admit = now;
        self.has_admitted = true;
    }

    /// Records a delivery at `now`: the credit returns and, under ECN,
    /// the AIMD factor reacts to the congestion mark.
    pub(crate) fn note_delivery(
        &mut self,
        now: u64,
        mode: InjectionMode,
        marked: bool,
        aimd: &AimdParams,
    ) {
        self.integrate(now);
        debug_assert!(self.in_flight > 0, "delivery without admission");
        self.in_flight -= 1;
        if matches!(mode, InjectionMode::Ecn { .. }) {
            if marked {
                self.factor = (self.factor * aimd.md_factor).max(aimd.min_factor);
            } else {
                self.factor = (self.factor + aimd.additive_step).min(1.0);
            }
        }
    }

    /// The credit-occupancy integral (`in_flight × cycles`) over the run.
    pub(crate) fn credit_cycles(&self) -> f64 {
        debug_assert_eq!(self.in_flight, 0, "finalise after the ring drained");
        self.credit_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onoc_topology::{NodeId, RingPath, RingTopology};

    fn segs(path: &RingPath) -> Vec<u16> {
        path.segments().map(|s| s.segment_index() as u16).collect()
    }

    /// Claims on every segment of `path`, as a lane list.
    fn claim(arb: &mut LaneArbiter, path: &RingPath, want: usize) -> Option<Vec<WavelengthId>> {
        arb.claim_mask(&segs(path), want).map(mask_lanes)
    }

    fn release(arb: &mut LaneArbiter, path: &RingPath, lanes: &[WavelengthId]) {
        let mask = lanes.iter().fold(0u128, |m, lane| m | 1 << lane.index());
        arb.release_mask(&segs(path), mask);
    }

    #[test]
    fn mode_names_and_closed_loop_flags() {
        assert_eq!(InjectionMode::Open.name(), "open");
        assert_eq!(InjectionMode::Credit { window: 4 }.name(), "credit");
        assert_eq!(
            InjectionMode::CreditPerDst { window: 4 }.name(),
            "credit-dst"
        );
        assert_eq!(InjectionMode::Ecn { threshold: 0.5 }.name(), "ecn");
        assert!(!InjectionMode::Open.is_closed_loop());
        assert!(InjectionMode::Credit { window: 1 }.is_closed_loop());
        assert!(InjectionMode::CreditPerDst { window: 1 }.is_closed_loop());
        assert!(InjectionMode::Ecn { threshold: 0.5 }.is_closed_loop());
        assert_eq!(
            InjectionMode::CreditPerDst { window: 3 }.to_string(),
            "credit-dst(window 3)"
        );
    }

    #[test]
    #[should_panic(expected = "credit window")]
    fn zero_per_dst_credit_window_is_rejected() {
        InjectionMode::CreditPerDst { window: 0 }.validate();
    }

    #[test]
    fn aimd_params_default_and_validation() {
        let aimd = AimdParams::default();
        aimd.validate();
        assert!((aimd.additive_step - InjectionMode::ECN_ADDITIVE_STEP).abs() < 1e-12);
        assert!((aimd.md_factor - 0.5).abs() < 1e-12);
        assert!((aimd.min_factor - InjectionMode::ECN_MIN_FACTOR).abs() < 1e-12);
        for bad in [
            AimdParams {
                additive_step: 0.0,
                ..AimdParams::default()
            },
            AimdParams {
                md_factor: 1.0,
                ..AimdParams::default()
            },
            AimdParams {
                min_factor: 0.0,
                ..AimdParams::default()
            },
        ] {
            assert!(std::panic::catch_unwind(move || bad.validate()).is_err());
        }
    }

    #[test]
    #[should_panic(expected = "credit window")]
    fn zero_credit_window_is_rejected() {
        InjectionMode::Credit { window: 0 }.validate();
    }

    #[test]
    #[should_panic(expected = "occupancy threshold")]
    fn out_of_range_ecn_threshold_is_rejected() {
        InjectionMode::Ecn { threshold: 1.5 }.validate();
    }

    #[test]
    fn arbiter_claims_and_releases_lowest_lanes() {
        let ring = RingTopology::new(8);
        let path = RingPath::new(
            &ring,
            NodeId(0),
            NodeId(2),
            ring.shortest_direction(NodeId(0), NodeId(2)),
        );
        let mut arb = LaneArbiter::new(8, 4);
        let a = claim(&mut arb, &path, 2).unwrap();
        assert_eq!(a, vec![WavelengthId(0), WavelengthId(1)]);
        let b = claim(&mut arb, &path, 4).unwrap();
        assert_eq!(b, vec![WavelengthId(2), WavelengthId(3)]);
        assert!(
            claim(&mut arb, &path, 1).is_none(),
            "comb exhausted on the path"
        );
        release(&mut arb, &path, &a);
        let c = claim(&mut arb, &path, 1).unwrap();
        assert_eq!(c, vec![WavelengthId(0)]);
    }

    #[test]
    fn opposite_directions_do_not_share_masks() {
        let ring = RingTopology::new(8);
        let cw = RingPath::new(
            &ring,
            NodeId(0),
            NodeId(1),
            onoc_topology::Direction::Clockwise,
        );
        let ccw = RingPath::new(
            &ring,
            NodeId(1),
            NodeId(0),
            onoc_topology::Direction::CounterClockwise,
        );
        let mut arb = LaneArbiter::new(8, 1);
        assert!(claim(&mut arb, &cw, 1).is_some());
        assert!(claim(&mut arb, &ccw, 1).is_some());
    }

    #[test]
    fn gate_aimd_halves_and_recovers() {
        let mode = InjectionMode::Ecn { threshold: 0.5 };
        let aimd = AimdParams::default();
        let mut gate = SourceGate::new();
        gate.note_admit(0);
        gate.note_delivery(10, mode, true, &aimd);
        assert!((gate.factor - 0.5).abs() < 1e-12);
        gate.note_admit(10);
        gate.note_delivery(20, mode, false, &aimd);
        assert!((gate.factor - 0.55).abs() < 1e-12);
        for k in 0..64 {
            gate.note_admit(30 + k);
            gate.note_delivery(31 + k, mode, true, &aimd);
        }
        assert!(gate.factor >= InjectionMode::ECN_MIN_FACTOR);
    }

    #[test]
    fn gate_aimd_respects_custom_constants() {
        let mode = InjectionMode::Ecn { threshold: 0.5 };
        let aimd = AimdParams {
            additive_step: 0.25,
            md_factor: 0.75,
            min_factor: 0.7,
        };
        let mut gate = SourceGate::new();
        gate.note_admit(0);
        gate.note_delivery(10, mode, true, &aimd);
        assert!((gate.factor - 0.75).abs() < 1e-12, "MD factor applies");
        gate.note_admit(10);
        gate.note_delivery(20, mode, true, &aimd);
        assert!((gate.factor - 0.7).abs() < 1e-12, "clamped at the floor");
        gate.note_admit(20);
        gate.note_delivery(30, mode, false, &aimd);
        assert!((gate.factor - 0.95).abs() < 1e-12, "AI step applies");
    }

    #[test]
    fn down_lanes_are_never_granted() {
        let ring = RingTopology::new(8);
        let path = RingPath::new(
            &ring,
            NodeId(0),
            NodeId(2),
            ring.shortest_direction(NodeId(0), NodeId(2)),
        );
        let mut arb = LaneArbiter::new(8, 2);
        arb.set_down(0, true);
        let a = claim(&mut arb, &path, 2).unwrap();
        assert_eq!(a, vec![WavelengthId(1)], "only the healthy lane grants");
        release(&mut arb, &path, &a);
        arb.set_down(1, true);
        assert!(claim(&mut arb, &path, 1).is_none(), "whole comb down");
        arb.set_down(0, false);
        assert_eq!(claim(&mut arb, &path, 1).unwrap(), vec![WavelengthId(0)]);
    }

    #[test]
    fn gate_pacing_scales_offered_gaps() {
        let mut gate = SourceGate::new();
        assert_eq!(gate.offered_gap(100), 0, "first offer has no gap");
        assert_eq!(gate.ecn_allowed(100, 0), 100, "first message never paces");
        gate.note_admit(100);
        let gap = gate.offered_gap(110);
        assert_eq!(gap, 10);
        assert_eq!(
            gate.ecn_allowed(110, gap),
            110,
            "factor 1 keeps the offered time"
        );
        gate.factor = 0.5;
        assert_eq!(
            gate.ecn_allowed(110, gap),
            120,
            "halved rate doubles the gap"
        );
    }

    #[test]
    fn throttled_gate_paces_same_cycle_bursts() {
        // gap == 0 must not bypass a throttled source's pacing.
        let mut gate = SourceGate::new();
        gate.offered_gap(100);
        gate.note_admit(100);
        let gap = gate.offered_gap(100); // second offer in the same cycle
        assert_eq!(gap, 0);
        assert_eq!(gate.ecn_allowed(100, gap), 100, "unthrottled bursts pass");
        gate.factor = 0.25;
        assert_eq!(
            gate.ecn_allowed(100, gap),
            104,
            "quartered rate spaces by 4"
        );
    }

    #[test]
    fn credit_integral_accumulates_in_flight_cycles() {
        let aimd = AimdParams::default();
        let mut gate = SourceGate::new();
        gate.note_admit(0);
        gate.note_admit(10); // 1 credit busy for 10 cycles
        gate.note_delivery(30, InjectionMode::Credit { window: 2 }, false, &aimd); // 2 busy for 20
        gate.note_delivery(50, InjectionMode::Credit { window: 2 }, false, &aimd); // 1 busy for 20
        assert!((gate.credit_cycles() - (10.0 + 40.0 + 20.0)).abs() < 1e-9);
    }

    #[test]
    fn per_dst_pools_size_and_reset() {
        let mut gate = SourceGate::new();
        gate.ensure_dst_pools(4);
        assert_eq!(gate.in_flight_by_dst, vec![0; 4]);
        gate.in_flight_by_dst[2] = 3;
        gate.reset();
        assert!(gate.in_flight_by_dst.is_empty());
    }
}
