//! The open/closed-loop traffic engine: simulate *streams of timed
//! messages* instead of a closed task graph.
//!
//! The task-graph [`Simulator`](crate::Simulator) replays one application
//! whose communications are gated by task dependencies, on fixed or
//! runtime-arbitrated lanes. Saturation studies
//! (Dally & Towles ch. 23; Das et al., arXiv:1608.06972) instead drive the
//! network with timed message streams, and the figure of merit is the
//! latency distribution as offered load approaches capacity.
//!
//! [`OpenLoopSimulator`] polls a [`TrafficSource`] for timed
//! [`TrafficEvent`]s and services them on the ring WDM fabric. Two
//! orthogonal policies parameterise one shared event core:
//!
//! * **Wavelength discipline** ([`WavelengthMode`]):
//!   * **Dynamic** — runtime arbitration like
//!     [`Simulator::dynamic`](crate::Simulator::dynamic): a message claims
//!     free wavelengths along its whole path or waits. Every ONI keeps a FIFO
//!     injection queue — a node's messages transmit in order (head-of-line
//!     at the network interface), different nodes arbitrate independently.
//!     Per-source queues keep retry work O(nodes) per release, so saturated
//!     sweeps stay fast.
//!   * **Static** — every ordered `(src, dst)` flow owns a fixed wavelength
//!     set ([`StaticFlowMap`]); messages of one flow serialise on their own
//!     lanes, and the simulator *checks* rather than arbitrates: it counts
//!     every pair of transmission attempts that drive a common wavelength
//!     on a common directed segment at the same time
//!     ([`OpenLoopReport::conflict_count`]). This is the open-loop analogue
//!     of the §III-D static-validity checker.
//!
//! * **Injection policy** ([`InjectionMode`]): pure open loop (offered
//!   time is admission time, queues may grow without bound past
//!   saturation), credit-based closed loop (per-source in-flight window,
//!   credits returned on delivery), or ECN-style closed loop (sources
//!   halve their offered rate on congestion marks and additively
//!   recover). See the [`injection`](crate::InjectionMode) docs. Closed
//!   loops bound queue growth, so *sustained* operating points near the
//!   saturation knee are measurable — accepted throughput plateaus
//!   instead of queueing delay diverging.
//!
//! Synthetic traffic patterns that feed this interface live in the
//! `onoc-traffic` crate; the trait is defined here so the engine has no
//! dependency on how events are produced.

use std::collections::VecDeque;

use onoc_photonics::WavelengthId;
use onoc_topology::{DirectedSegment, NodeId, RingPath, RingTopology, segment_count};
use onoc_units::{Bits, BitsPerCycle};

use onoc_wa::{HealPolicy, reassign_flows_on_lane_loss};

use crate::DynamicPolicy;
use crate::calendar::EventQueue;
use crate::fault::{self, CorruptionModel, DropFact, FaultCause, FaultPlan, GeTimeline, HealFact};
use crate::injection::{AimdParams, InjectionMode, LaneArbiter, SourceGate};
use crate::probe::{NullProbe, ReportProbe, SimProbe, TxFact};
use crate::report::{MsgRecord, OpenLoopReport};
use crate::transport::TransportMode;

/// One injected message: `volume` bits from `src` to `dst`, offered to the
/// network interface at cycle `time`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficEvent {
    /// Offered injection cycle.
    pub time: u64,
    /// Producing ONI.
    pub src: NodeId,
    /// Consuming ONI.
    pub dst: NodeId,
    /// Message size.
    pub volume: Bits,
}

/// A pull-based producer of timed messages.
///
/// The engine polls `next_event` and requires the stream to be ordered by
/// nondecreasing `time` (violations are rejected at run time). Sources are
/// finite; an open-ended source is expressed by generating up to a horizon.
pub trait TrafficSource {
    /// Returns the next message, or `None` when the stream is exhausted.
    fn next_event(&mut self) -> Option<TrafficEvent>;
}

/// Blanket adapter: any iterator of events is a source.
impl<I: Iterator<Item = TrafficEvent>> TrafficSource for I {
    fn next_event(&mut self) -> Option<TrafficEvent> {
        self.next()
    }
}

/// A fixed design-time wavelength set per ordered `(src, dst)` flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticFlowMap {
    nodes: usize,
    wavelengths: usize,
    /// Indexed by `src * nodes + dst`; empty for the diagonal.
    lanes: Vec<Vec<WavelengthId>>,
}

impl StaticFlowMap {
    /// Stripes `lanes_per_flow` consecutive wavelengths over the flows in
    /// flow-id order (`src * nodes + dst`), wrapping around the comb.
    ///
    /// With enough wavelengths per concurrently-active segment the stripe
    /// is conflict-free; undersized combs intentionally collide so the
    /// checker has something to report.
    ///
    /// # Panics
    ///
    /// Panics if `nodes < 2`, `wavelengths == 0`, `lanes_per_flow == 0` or
    /// `lanes_per_flow > wavelengths`.
    #[must_use]
    pub fn striped(nodes: usize, wavelengths: usize, lanes_per_flow: usize) -> Self {
        assert!(nodes >= 2, "a ring needs at least 2 nodes, got {nodes}");
        assert!(wavelengths > 0, "the comb needs at least one wavelength");
        assert!(
            lanes_per_flow >= 1 && lanes_per_flow <= wavelengths,
            "lanes per flow must be in 1..={wavelengths}, got {lanes_per_flow}"
        );
        let mut lanes = vec![Vec::new(); nodes * nodes];
        let mut next = 0usize;
        for src in 0..nodes {
            for dst in 0..nodes {
                if src == dst {
                    continue;
                }
                let set = (0..lanes_per_flow)
                    .map(|k| WavelengthId((next + k) % wavelengths))
                    .collect();
                lanes[src * nodes + dst] = set;
                next = (next + lanes_per_flow) % wavelengths;
            }
        }
        Self {
            nodes,
            wavelengths,
            lanes,
        }
    }

    /// Builds a map from an explicit per-flow table (indexed
    /// `src * nodes + dst`; diagonal entries must be empty).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch, an empty off-diagonal entry, or a lane
    /// outside the comb.
    #[must_use]
    pub fn from_table(nodes: usize, wavelengths: usize, lanes: Vec<Vec<WavelengthId>>) -> Self {
        assert_eq!(lanes.len(), nodes * nodes, "need one entry per (src, dst)");
        for (i, set) in lanes.iter().enumerate() {
            let (src, dst) = (i / nodes, i % nodes);
            if src == dst {
                assert!(set.is_empty(), "diagonal flow n{src}→n{dst} must be empty");
            } else {
                assert!(!set.is_empty(), "flow n{src}→n{dst} has no wavelengths");
                let mut seen = 0u128;
                for lane in set {
                    assert!(
                        lane.index() < wavelengths,
                        "flow n{src}→n{dst} uses {lane} outside a {wavelengths}-λ comb"
                    );
                    assert!(
                        seen & (1 << lane.index()) == 0,
                        "flow n{src}→n{dst} lists {lane} twice"
                    );
                    seen |= 1 << lane.index();
                }
            }
        }
        Self {
            nodes,
            wavelengths,
            lanes,
        }
    }

    /// Internal constructor for synthesised maps (see `flows.rs`); unlike
    /// [`StaticFlowMap::from_table`], off-diagonal entries may stay empty —
    /// the engine rejects traffic on them with
    /// [`OpenLoopError::UnmappedFlow`].
    pub(crate) fn from_parts(
        nodes: usize,
        wavelengths: usize,
        lanes: Vec<Vec<WavelengthId>>,
    ) -> Self {
        debug_assert_eq!(lanes.len(), nodes * nodes);
        Self {
            nodes,
            wavelengths,
            lanes,
        }
    }

    /// The wavelengths owned by the `src → dst` flow.
    #[must_use]
    pub fn lanes(&self, src: NodeId, dst: NodeId) -> &[WavelengthId] {
        &self.lanes[src.0 * self.nodes + dst.0]
    }

    /// Comb size this map was built for.
    #[must_use]
    pub fn wavelengths(&self) -> usize {
        self.wavelengths
    }
}

/// How the engine assigns wavelengths to messages.
#[derive(Debug, Clone, PartialEq)]
pub enum WavelengthMode {
    /// Runtime arbitration with FIFO queueing (see crate docs).
    Dynamic(DynamicPolicy),
    /// Fixed per-flow lanes with conflict *checking* (see crate docs).
    Static(StaticFlowMap),
}

/// Errors raised by the open/closed-loop engine.
#[derive(Debug, Clone, PartialEq)]
pub enum OpenLoopError {
    /// The source produced events with decreasing timestamps.
    UnorderedSource {
        /// Timestamp that went backwards.
        time: u64,
        /// The previously seen timestamp.
        previous: u64,
    },
    /// An event references a node outside the ring.
    ForeignNode {
        /// The offending node.
        node: NodeId,
        /// Ring size.
        nodes: usize,
    },
    /// An event has `src == dst` (the optical layer is not used) or a
    /// nonpositive volume.
    DegenerateEvent {
        /// Index of the offending event in the stream.
        index: usize,
    },
    /// Static mode: the flow map owns no wavelengths for this flow (it was
    /// not in the measured matrix a synthesised map was built from).
    UnmappedFlow {
        /// Producing ONI.
        src: NodeId,
        /// Consuming ONI.
        dst: NodeId,
    },
}

impl core::fmt::Display for OpenLoopError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            OpenLoopError::UnorderedSource { time, previous } => {
                write!(f, "source time went backwards: {time} after {previous}")
            }
            OpenLoopError::ForeignNode { node, nodes } => {
                write!(f, "{node} is not on a {nodes}-node ring")
            }
            OpenLoopError::DegenerateEvent { index } => {
                write!(f, "event {index} is degenerate (self-loop or empty volume)")
            }
            OpenLoopError::UnmappedFlow { src, dst } => {
                write!(f, "static flow map owns no wavelengths for {src}→{dst}")
            }
        }
    }
}

impl std::error::Error for OpenLoopError {}

/// Engine events. Variant order is the tiebreak at equal timestamps:
/// completions release lanes and credits first, static transmissions
/// start, gates wake, and only then do fresh offers arrive — so released
/// capacity is reusable in the same cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// A transmission delivered its last bit. The payload carries
    /// everything completion processing needs (flow, lanes, start time),
    /// so handling it never has to reach into the in-flight message
    /// window — a random access into a potentially tens-of-megabytes
    /// deque on every completion was the engine's dominant cache miss.
    /// `id` is the first field, so the derived tie-break order (by
    /// message id) is unchanged.
    Completed(CompletedTx),
    /// A static-mode transmission begins driving its lanes
    /// (`(message id, flow, lane mask)`). The mask rides along because a
    /// fault-layer retransmission may drive a *subset* of the flow's
    /// nominal lanes; on the fault-free path it always equals the flow's
    /// full mask. `id` stays the first field, so the derived same-cycle
    /// tie-break (by message id) is unchanged.
    Started((usize, u32, u128)),
    /// A closed-loop gate retries admission for one source.
    GateWake(usize),
    /// A source offers a message to its injection gate.
    Offered(usize),
    /// Fault layer: the wavelength fails at this cycle. Appended after
    /// the fault-free variants, so their same-cycle tie-break order is
    /// untouched.
    LaneDown(u16),
    /// Fault layer: the wavelength recovers.
    LaneUp(u16),
    /// Transport layer: retransmit the message.
    Redo(usize),
    /// Fault layer: the message is declared lost at admission time (all
    /// of its lanes are down with no recovery pending). Deferred through
    /// the calendar so loss bookkeeping never recurses through the gate
    /// drains that admitted it.
    Abandon(usize),
}

/// Payload of [`Event::Completed`]: the transmission's identity and the
/// accounting inputs (`id` first — it is the same-cycle tie-break key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct CompletedTx {
    id: usize,
    start: u64,
    flow: u32,
    mask: u128,
}

/// Per-message flag bits kept in a compact deque parallel to the message
/// window (1 byte instead of a full `MsgState` cache line on the
/// completion path).
mod flag {
    /// Transmission completed; the message may retire.
    pub(super) const DONE: u8 = 1;
    /// ECN congestion mark, set when the transmission starts.
    pub(super) const MARKED: u8 = 2;
    /// Permanently lost (fault layer): retires silently, contributing to
    /// loss counters instead of delivery statistics.
    pub(super) const LOST: u8 = 4;
    /// At least one transmission attempt failed (recovery-latency
    /// tracking).
    pub(super) const FAILED: u8 = 8;
}

/// Hash-stream namespace for per-lane stochastic fault draws, disjoint
/// from the per-message corruption streams (which use the message id).
const LANE_STREAM: u64 = 1 << 63;

/// Configuration of the self-healing allocator: what the engine does
/// when a lane serving static flows goes dark mid-run.
///
/// Attach with [`OpenLoopSimulator::with_healing`]. With the default
/// ([`HealPolicy::Park`], no threshold) the engine behaves exactly as
/// if no healing were configured — affected flows park until repair.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HealingConfig {
    /// Re-allocation policy invoked at each lane-down quiesce point.
    pub policy: HealPolicy,
    /// Gilbert–Elliott degradation trigger: when an attempt is corrupted
    /// while a lane of its mask sits in the bad state and the bad-state
    /// BER is at least this threshold, the lane is administratively
    /// taken out of service for the rest of its bad sojourn (the same
    /// `LaneDown`/`LaneUp` pair a scheduled fault produces, so parked
    /// traffic and the healer see an ordinary outage). `None` disables
    /// the trigger.
    pub ber_threshold: Option<f64>,
}

/// The open/closed-loop engine. See the module docs for semantics.
#[derive(Debug)]
pub struct OpenLoopSimulator {
    ring: RingTopology,
    wavelengths: usize,
    rate: BitsPerCycle,
    mode: WavelengthMode,
    injection: InjectionMode,
    faults: Option<FaultPlan>,
    transport: TransportMode,
    aimd: AimdParams,
    healing: Option<HealingConfig>,
}

impl OpenLoopSimulator {
    /// Creates an open-loop engine over a `wavelengths`-channel comb
    /// (injection policy [`InjectionMode::Open`]).
    ///
    /// # Panics
    ///
    /// Panics if `wavelengths` is outside `1..=128`, `rate` is not
    /// strictly positive, a greedy policy has `cap == 0`, or a static map
    /// disagrees with `wavelengths`.
    #[must_use]
    pub fn new(
        ring: RingTopology,
        wavelengths: usize,
        rate: BitsPerCycle,
        mode: WavelengthMode,
    ) -> Self {
        Self::with_injection(ring, wavelengths, rate, mode, InjectionMode::Open)
    }

    /// Creates an engine with an explicit injection policy.
    ///
    /// # Panics
    ///
    /// Panics on the conditions of [`OpenLoopSimulator::new`], a zero
    /// credit window, or an ECN threshold outside `(0, 1]`.
    #[must_use]
    pub fn with_injection(
        ring: RingTopology,
        wavelengths: usize,
        rate: BitsPerCycle,
        mode: WavelengthMode,
        injection: InjectionMode,
    ) -> Self {
        assert!(
            wavelengths > 0 && wavelengths <= 128,
            "open-loop simulator supports 1..=128 wavelengths, got {wavelengths}"
        );
        assert!(
            rate.value() > 0.0,
            "per-wavelength data rate must be strictly positive, got {rate}"
        );
        match &mode {
            WavelengthMode::Dynamic(DynamicPolicy::Greedy { cap }) => {
                assert!(*cap > 0, "greedy burst cap must be at least 1");
            }
            WavelengthMode::Dynamic(DynamicPolicy::Single) => {}
            WavelengthMode::Static(map) => {
                assert_eq!(
                    map.wavelengths(),
                    wavelengths,
                    "static flow map was built for a different comb"
                );
                assert_eq!(
                    map.nodes,
                    ring.node_count(),
                    "static flow map was built for a different ring"
                );
            }
        }
        injection.validate();
        Self {
            ring,
            wavelengths,
            rate,
            mode,
            injection,
            faults: None,
            transport: TransportMode::None,
            aimd: AimdParams::default(),
            healing: None,
        }
    }

    /// Attaches a fault plan: scheduled/stochastic lane outages and/or
    /// BER-driven message corruption. Without one (and with
    /// [`TransportMode::None`]) the engine takes the fault-free fast
    /// path, bit-identical to a plain run.
    ///
    /// # Panics
    ///
    /// Panics if the plan references a lane outside the comb, schedules
    /// a zero-length outage, or carries degenerate rates (see
    /// [`FaultPlan::validate`]).
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        plan.validate(self.ring.node_count(), self.wavelengths);
        self.faults = Some(plan);
        self
    }

    /// Selects the reliable-transport recovery mode layered over the
    /// injection policy.
    ///
    /// # Panics
    ///
    /// Panics on degenerate windows (see [`TransportMode::validate`]).
    #[must_use]
    pub fn with_transport(mut self, transport: TransportMode) -> Self {
        transport.validate();
        self.transport = transport;
        self
    }

    /// Overrides the ECN AIMD pacing constants.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range constants (see [`AimdParams::validate`]).
    #[must_use]
    pub fn with_aimd(mut self, aimd: AimdParams) -> Self {
        aimd.validate();
        self.aimd = aimd;
        self
    }

    /// Attaches the self-healing allocator: at every lane-down quiesce
    /// point the engine re-packs the affected static flows onto
    /// surviving lanes per `healing.policy`, swaps the new map in, and
    /// emits a [`HealFact`]. With [`HealPolicy::Park`] and no BER
    /// threshold this is a no-op — runs stay bit-identical to an engine
    /// without healing (proptested).
    ///
    /// # Panics
    ///
    /// Panics if a re-pack policy is requested without a static flow
    /// map, or the BER threshold is outside `(0, 1)`.
    #[must_use]
    pub fn with_healing(mut self, healing: HealingConfig) -> Self {
        assert!(
            healing.policy == HealPolicy::Park || matches!(self.mode, WavelengthMode::Static(_)),
            "re-pack heal policies require a static flow map"
        );
        if let Some(th) = healing.ber_threshold {
            assert!(
                th.is_finite() && th > 0.0 && th < 1.0,
                "healing BER threshold must be in (0, 1), got {th}"
            );
        }
        self.healing = Some(healing);
        self
    }

    /// The attached healing configuration, if any.
    #[must_use]
    pub fn healing(&self) -> Option<HealingConfig> {
        self.healing
    }

    /// The injection policy this engine runs under.
    #[must_use]
    pub fn injection(&self) -> InjectionMode {
        self.injection
    }

    /// The attached fault plan, if any.
    #[must_use]
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// The transport recovery mode this engine runs under.
    #[must_use]
    pub fn transport(&self) -> TransportMode {
        self.transport
    }

    /// Routes a message along the shortest ring direction
    /// (clockwise on ties), matching `RouteStrategy::Shortest`.
    fn route(&self, src: NodeId, dst: NodeId) -> RingPath {
        let direction = self.ring.shortest_direction(src, dst);
        RingPath::new(&self.ring, src, dst, direction)
    }

    /// Drains `source` to completion, retaining every [`MsgRecord`]
    /// ([`ReportMode::Full`]).
    ///
    /// # Errors
    ///
    /// Returns [`OpenLoopError`] on unordered, foreign-node, degenerate
    /// or (static mode) unmapped events. The stream is validated as it is
    /// consumed.
    pub fn run<S: TrafficSource>(&self, source: S) -> Result<OpenLoopReport, OpenLoopError> {
        self.run_with_scratch(source, &mut SimScratch::new(), ReportMode::Full)
    }

    /// [`OpenLoopSimulator::run`] with an attached [`SimProbe`]: every
    /// simulation fact (admissions, transmission starts/completions,
    /// retirements, the final horizon) streams into `probe` while the
    /// report is produced exactly as without it.
    ///
    /// # Errors
    ///
    /// As for [`OpenLoopSimulator::run`].
    pub fn run_probed<S: TrafficSource, P: SimProbe>(
        &self,
        source: S,
        probe: &mut P,
    ) -> Result<OpenLoopReport, OpenLoopError> {
        self.run_with_scratch_probed(source, &mut SimScratch::new(), ReportMode::Full, probe)
    }

    /// Drains `source` in streaming mode: per-message records are folded
    /// into `O(bins + sources)` aggregates as soon as every earlier
    /// message has retired, so memory tracks the in-flight window instead
    /// of the trace length. See [`ReportMode::Streaming`].
    ///
    /// # Errors
    ///
    /// As for [`OpenLoopSimulator::run`].
    pub fn run_streaming<S: TrafficSource>(
        &self,
        source: S,
    ) -> Result<OpenLoopReport, OpenLoopError> {
        self.run_with_scratch(source, &mut SimScratch::new(), ReportMode::Streaming)
    }

    /// Drains `source` reusing `scratch`'s buffers, so back-to-back runs
    /// (sweep workers, benchmarks) stay allocation-free once warm.
    ///
    /// # Errors
    ///
    /// As for [`OpenLoopSimulator::run`]. The scratch is returned to a
    /// reusable state on both success and failure.
    pub fn run_with_scratch<S: TrafficSource>(
        &self,
        source: S,
        scratch: &mut SimScratch,
        mode: ReportMode,
    ) -> Result<OpenLoopReport, OpenLoopError> {
        self.run_with_scratch_probed(source, scratch, mode, &mut NullProbe)
    }

    /// The fully general entry point: caller-provided buffers, explicit
    /// [`ReportMode`], and an attached [`SimProbe`]. The probe receives
    /// every engine fact; a [`NullProbe`] run
    /// monomorphises to the probe-free engine, and the steady-state admit
    /// path stays allocation-free as long as the probe's does.
    ///
    /// # Errors
    ///
    /// As for [`OpenLoopSimulator::run`]. The scratch is returned to a
    /// reusable state on both success and failure; the probe observes
    /// only the facts emitted before the failure (and no `finished`).
    pub fn run_with_scratch_probed<S: TrafficSource, P: SimProbe>(
        &self,
        mut source: S,
        scratch: &mut SimScratch,
        mode: ReportMode,
        probe: &mut P,
    ) -> Result<OpenLoopReport, OpenLoopError> {
        let mut run = RunState::new(self, std::mem::take(scratch), mode, probe);
        let outcome = run.drive(&mut source);
        match outcome {
            Ok(()) => {
                let (report, spent) = run.finish();
                *scratch = spent;
                Ok(report)
            }
            Err(e) => {
                *scratch = run.into_scratch();
                Err(e)
            }
        }
    }

    /// Whole-cycle transmission duration over `lanes` wavelengths.
    fn duration(&self, volume: Bits, lanes: usize) -> u64 {
        ((volume.value() / (lanes as f64 * self.rate.value())).ceil() as u64).max(1)
    }
}

/// How an engine run retains per-message results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportMode {
    /// Retain one [`MsgRecord`] per message: exact (interpolated)
    /// quantiles and [`OpenLoopReport::latency_by_flow`]. Memory is
    /// `O(messages)`.
    Full,
    /// Fold every retired message into fixed-size aggregates (log-scale
    /// latency/stall histograms, exact count/sum/max, the conservation
    /// integrals). Memory is `O(bins + sources)` plus the in-flight
    /// message window. Quantiles follow the nearest-rank convention and
    /// sit within one histogram bin (≤ 12.5% relative) of exact. Every
    /// other report field, [`OpenLoopReport::conflict_count`] included,
    /// equals the full mode's.
    Streaming,
}

/// One in-flight message's state, kept compact (the public [`MsgRecord`]
/// is materialised only at retirement — its src/dst/injected fields
/// duplicate the event). Retired (folded) as soon as every earlier
/// message has completed, so the window tracks in-flight traffic rather
/// than trace length.
#[derive(Debug, Clone, Copy)]
struct MsgState {
    ev: TrafficEvent,
    admitted: u64,
    started: u64,
    completed: u64,
    /// Offered-time gap to the previous offer of the same source.
    gap: u64,
    /// Wavelength count the message transmitted on.
    lanes: u16,
    /// Transmission attempts so far (0 until the first start).
    attempts: u32,
    /// Go-back-N sequence number within the flow (assigned at
    /// admission).
    seq: u32,
    /// Cycle of the first failed attempt (valid when [`flag::FAILED`]
    /// is set; recovery-latency tracking).
    first_fail: u64,
}

impl MsgState {
    /// The public per-message record (materialised at retirement).
    fn record(&self) -> MsgRecord {
        MsgRecord {
            src: self.ev.src,
            dst: self.ev.dst,
            injected: self.ev.time,
            admitted: self.admitted,
            started: self.started,
            completed: self.completed,
            lanes: self.lanes as usize,
            attempts: self.attempts.max(1),
        }
    }
}

/// Reusable buffers for [`OpenLoopSimulator::run_with_scratch`]: the
/// calendar queue, message window, per-source FIFOs and gates, and the
/// flat dense-indexed occupancy tables. Runs leave the scratch warm, so
/// back-to-back runs on similar geometries make no allocations on the
/// steady-state admit path.
#[derive(Debug)]
pub struct SimScratch {
    msgs: VecDeque<MsgState>,
    /// Per-message [`flag`] bits, parallel to `msgs` — the completion
    /// path touches this 1-byte deque instead of the full message state.
    flags: VecDeque<u8>,
    queue: EventQueue<Event>,
    /// Dynamic-mode NI FIFOs of `(message id, flow)` — the flow rides
    /// along so failed head retries never touch the message window.
    ni_queues: Vec<VecDeque<(usize, u32)>>,
    gates: Vec<SourceGate>,
    arbiter: LaneArbiter,
    /// Static-mode next free cycle per flow, indexed `src * nodes + dst`.
    flow_free_at: Vec<u64>,
    /// Busy wavelength-cycles per dense segment index.
    segment_busy: Vec<u64>,
    /// Busy wavelength-cycles per lane.
    lane_busy: Vec<u64>,
    /// The conflict counter: live transmission attempts per
    /// `segment_index * wavelengths + lane`, sized only when
    /// [`shared_lanes`](Self::shared_lanes) is.
    active_per_lane_seg: Vec<u32>,
    /// Static mode: per dense segment, the lanes that two or more mapped
    /// flows drive there. Only these slots can ever hold overlapping
    /// attempts — a flow's own attempts serialise on `flow_free_at` — so
    /// the conflict counter walks these slots only. Every slot is marked
    /// when a re-pack policy may swap masks mid-run, since a swap can put
    /// a flow on lanes another flow drives. Empty when no slot is shared
    /// (and in dynamic mode), which skips the counter altogether.
    shared_lanes: Vec<u128>,
    /// Flat route table: `path_offsets[flow]..path_offsets[flow + 1]`
    /// slices `path_segs` into the flow's dense segment indices in
    /// traversal order. Replaces per-claim ring arithmetic.
    path_offsets: Vec<u32>,
    path_segs: Vec<u16>,
    /// Static mode: per-flow lane mask (`0` on the diagonal and for
    /// unmapped flows).
    flow_lane_masks: Vec<u128>,
    /// Dynamic mode: per dense segment, a bitset of sources whose blocked
    /// *head* message's path crosses it (`waiter_words` words per
    /// segment). A failed claim can only succeed after a release on its
    /// own path, so completions retry exactly these sources.
    waiters: Vec<u64>,
    waiter_words: usize,
    /// Per-release candidate accumulator (`waiter_words` long).
    candidates: Vec<u64>,
    /// Only build route/mask rows for these flows (sorted
    /// `src * nodes + dst` indices) — other rows stay empty, which is
    /// safe when the engine provably never admits them. `run_spec` and
    /// `run_sweep` list the flows their trace injects (through
    /// [`SimScratch::set_flow_rows`]). `None` builds the full table,
    /// whose cost is quadratic in ring size.
    flow_rows: Option<Vec<u32>>,
}

impl Default for SimScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl SimScratch {
    /// An empty scratch; buffers are sized on first use.
    #[must_use]
    pub fn new() -> Self {
        Self {
            msgs: VecDeque::new(),
            flags: VecDeque::new(),
            queue: EventQueue::new(),
            ni_queues: Vec::new(),
            gates: Vec::new(),
            arbiter: LaneArbiter::new(2, 1),
            flow_free_at: Vec::new(),
            segment_busy: Vec::new(),
            lane_busy: Vec::new(),
            active_per_lane_seg: Vec::new(),
            shared_lanes: Vec::new(),
            path_offsets: Vec::new(),
            path_segs: Vec::new(),
            flow_lane_masks: Vec::new(),
            waiters: Vec::new(),
            waiter_words: 0,
            candidates: Vec::new(),
            flow_rows: None,
        }
    }

    /// Restricts route/mask table setup to the given active flows
    /// (sorted, deduplicated `src * nodes + dst` row ids): the build
    /// then costs O(active flows) instead of O(n²) pairs, which
    /// dominates short runs on large rings. The restriction persists
    /// across runs of this scratch until replaced (pass `None` to
    /// restore full tables).
    ///
    /// Rows outside the list stay empty, so the caller must list every
    /// flow its trace injects — the engine trusts the list and a
    /// missing row makes the run meaningless (zero-hop routes, empty
    /// lane masks). Reports are bit-identical to a full-table run for
    /// traces that respect the contract.
    pub fn set_flow_rows(&mut self, rows: Option<Vec<u32>>) {
        debug_assert!(
            rows.as_deref()
                .is_none_or(|r| r.windows(2).all(|w| w[0] < w[1])),
            "flow rows must be sorted and deduplicated"
        );
        self.flow_rows = rows;
    }

    /// Clears and (re)sizes every buffer for a run on the given geometry.
    fn prepare(&mut self, nodes: usize, wavelengths: usize, static_mode: bool) {
        self.msgs.clear();
        self.flags.clear();
        self.queue.clear();
        self.ni_queues.truncate(nodes);
        for q in &mut self.ni_queues {
            q.clear();
        }
        self.ni_queues.resize_with(nodes, VecDeque::new);
        self.gates.truncate(nodes);
        for g in &mut self.gates {
            g.reset();
        }
        self.gates.resize_with(nodes, SourceGate::new);
        self.arbiter.reset(nodes, wavelengths);
        self.flow_free_at.clear();
        if static_mode {
            self.flow_free_at.resize(nodes * nodes, 0);
        }
        self.segment_busy.clear();
        self.segment_busy.resize(segment_count(nodes), 0);
        self.lane_busy.clear();
        self.lane_busy.resize(wavelengths, 0);
        self.active_per_lane_seg.clear();
        self.shared_lanes.clear();
        self.path_offsets.clear();
        self.path_segs.clear();
        self.flow_lane_masks.clear();
        self.waiter_words = nodes.div_ceil(64);
        self.waiters.clear();
        self.waiters
            .resize(segment_count(nodes) * self.waiter_words, 0);
        self.candidates.clear();
        self.candidates.resize(self.waiter_words, 0);
    }

    /// Builds the flat per-flow route table (and, in static mode, the
    /// per-flow lane masks and the shared-lane table) for the run's
    /// geometry.
    fn build_flow_tables(&mut self, sim: &OpenLoopSimulator) {
        let n = sim.ring.node_count();
        // Sorted-cursor membership test against `flow_rows`; flows are
        // visited in `src * n + dst` order, so one forward walk suffices.
        let rows = self.flow_rows.take();
        let keep = |cursor: &mut usize, flow: u32| match &rows {
            None => true,
            Some(rows) => {
                while *cursor < rows.len() && rows[*cursor] < flow {
                    *cursor += 1;
                }
                rows.get(*cursor) == Some(&flow)
            }
        };
        let mut cursor = 0usize;
        self.path_offsets.reserve(n * n + 1);
        for src in 0..n {
            for dst in 0..n {
                #[allow(clippy::cast_possible_truncation)]
                let flow = (src * n + dst) as u32;
                #[allow(clippy::cast_possible_truncation)]
                self.path_offsets.push(self.path_segs.len() as u32);
                if src != dst && keep(&mut cursor, flow) {
                    let route = sim.route(NodeId(src), NodeId(dst));
                    for seg in route.segments() {
                        #[allow(clippy::cast_possible_truncation)]
                        self.path_segs.push(seg.segment_index() as u16);
                    }
                }
            }
        }
        #[allow(clippy::cast_possible_truncation)]
        self.path_offsets.push(self.path_segs.len() as u32);
        if let WavelengthMode::Static(map) = &sim.mode {
            let mut cursor = 0usize;
            self.flow_lane_masks.reserve(n * n);
            for src in 0..n {
                for dst in 0..n {
                    #[allow(clippy::cast_possible_truncation)]
                    let flow = (src * n + dst) as u32;
                    let mask = if src == dst || !keep(&mut cursor, flow) {
                        0
                    } else {
                        map.lanes(NodeId(src), NodeId(dst))
                            .iter()
                            .fold(0u128, |m, l| m | (1 << l.index()))
                    };
                    self.flow_lane_masks.push(mask);
                }
            }
            let segments = segment_count(n);
            if sim.healing.is_some_and(|h| h.policy != HealPolicy::Park) {
                self.shared_lanes.resize(segments, u128::MAX);
            } else {
                self.shared_lanes.resize(segments, 0);
                let mut seen = vec![0u128; segments];
                for (flow, &mask) in self.flow_lane_masks.iter().enumerate() {
                    let (lo, hi) = (
                        self.path_offsets[flow] as usize,
                        self.path_offsets[flow + 1] as usize,
                    );
                    for &seg in &self.path_segs[lo..hi] {
                        let seg = seg as usize;
                        self.shared_lanes[seg] |= seen[seg] & mask;
                        seen[seg] |= mask;
                    }
                }
                if self.shared_lanes.iter().all(|&lanes| lanes == 0) {
                    self.shared_lanes.clear();
                }
            }
            if !self.shared_lanes.is_empty() {
                self.active_per_lane_seg
                    .resize(segments * sim.wavelengths, 0);
            }
        }
        self.flow_rows = rows;
    }
}

/// Mutable fault/transport state of one run, boxed off the fault-free
/// path: allocated only when a [`FaultPlan`] or an active
/// [`TransportMode`] is attached, so plain runs stay bit-identical and
/// allocation-free.
struct FaultState {
    /// Currently-down lanes.
    down_mask: u128,
    /// Cycle each currently-down lane went down (valid where
    /// `down_mask` is set).
    down_since: Vec<u64>,
    /// Closed `[down, up)` outage intervals per lane, in time order.
    down_history: Vec<Vec<(u64, u64)>>,
    /// Outstanding scheduled/stochastic recoveries per lane — a parked
    /// message may wait only on lanes that will come back.
    pending_ups: Vec<u32>,
    /// Per-lane count of stochastic draws consumed (the hash counter).
    lane_draws: Vec<u64>,
    /// Go-back-N: per-flow next sequence number to assign.
    next_seq: Vec<u32>,
    /// Go-back-N: per-flow next sequence number the receiver accepts.
    next_expected: Vec<u32>,
    /// Go-back-N: per-flow admitted-but-unresolved count (window gate).
    unacked: Vec<u32>,
    /// PFC: per-destination in-flight count across all sources.
    dst_in_flight: Vec<u32>,
    /// Static-mode messages parked on an all-lanes-down flow, waiting
    /// for a pending recovery (`(message id, flow)`).
    parked: Vec<(usize, u32)>,
    /// Gilbert–Elliott per-lane state timeline (lazily extended; a pure
    /// function of the plan seed).
    ge: Option<GeTimeline>,
    /// End cycle of the administrative (BER-threshold) outage in effect
    /// per lane — guards against quarantining a lane twice for one bad
    /// sojourn.
    admin_until: Vec<u64>,
    failed_attempts: usize,
    retransmitted_bits: f64,
    lost_messages: usize,
    lost_bits: f64,
}

impl FaultState {
    fn new(nodes: usize, wavelengths: usize, gbn: bool, pfc: bool) -> Self {
        let flows = nodes * nodes;
        Self {
            down_mask: 0,
            down_since: vec![0; wavelengths],
            down_history: vec![Vec::new(); wavelengths],
            pending_ups: vec![0; wavelengths],
            lane_draws: vec![0; wavelengths],
            next_seq: vec![0; if gbn { flows } else { 0 }],
            next_expected: vec![0; if gbn { flows } else { 0 }],
            unacked: vec![0; if gbn { flows } else { 0 }],
            dst_in_flight: vec![0; if pfc { nodes } else { 0 }],
            parked: Vec::new(),
            ge: None,
            admin_until: vec![0; wavelengths],
            failed_attempts: 0,
            retransmitted_bits: 0.0,
            lost_messages: 0,
            lost_bits: 0.0,
        }
    }

    /// Whether any lane of `mask` was down at any point of
    /// `[start, end)`.
    fn overlaps_down(&self, mask: u128, start: u64, end: u64) -> bool {
        let mut rest = mask;
        while rest != 0 {
            let lane = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            if self.down_mask & (1u128 << lane) != 0 && self.down_since[lane] < end {
                return true;
            }
            // Intervals are time-ordered; scan back until one ends
            // before the span starts.
            for &(a, b) in self.down_history[lane].iter().rev() {
                if b <= start {
                    break;
                }
                if a < end {
                    return true;
                }
            }
        }
        false
    }
}

/// All mutable state of one engine run: arbitration below the injection
/// gates, the gates themselves, and the fact consumers — the built-in
/// [`ReportProbe`] plus the caller's [`SimProbe`]. Bulky reusable buffers
/// live in the [`SimScratch`].
struct RunState<'a, P: SimProbe> {
    sim: &'a OpenLoopSimulator,
    n: usize,
    s: SimScratch,
    /// Message id of `s.msgs.front()` (ids are monotone; the window is
    /// the contiguous id range `base..next_id` minus retired prefixes).
    base: usize,
    next_id: usize,
    /// The built-in reporting probe (full/streaming accumulation).
    report: ReportProbe,
    /// The caller's probe, fed the same fact stream.
    probe: &'a mut P,
    peak_in_flight: usize,
    /// Lane-segments currently driven by in-transit messages (the
    /// instantaneous occupancy numerator for ECN marks).
    active_lane_segments: u64,
    /// `2 × nodes × wavelengths`: the occupancy denominator.
    capacity: f64,
    blocked_attempts: usize,
    /// Messages queued across all NI FIFOs (skip retries when zero).
    waiting: usize,
    /// Static mode: overlapping attempt pairs so far (see
    /// [`OpenLoopReport::conflict_count`]).
    conflicts: usize,
    offered_bits: f64,
    last_injection: u64,
    last_time: u64,
    horizon: u64,
    /// Fault/transport state; `None` on the fault-free fast path.
    fault: Option<Box<FaultState>>,
}

impl<'a, P: SimProbe> RunState<'a, P> {
    fn new(
        sim: &'a OpenLoopSimulator,
        mut scratch: SimScratch,
        mode: ReportMode,
        probe: &'a mut P,
    ) -> Self {
        let n = sim.ring.node_count();
        let static_mode = matches!(sim.mode, WavelengthMode::Static(_));
        scratch.prepare(n, sim.wavelengths, static_mode);
        scratch.build_flow_tables(sim);
        let mut fault = if sim.faults.is_some() || sim.transport.is_active() {
            Some(Box::new(FaultState::new(
                n,
                sim.wavelengths,
                matches!(sim.transport, TransportMode::GoBackN { .. }),
                matches!(sim.transport, TransportMode::Pfc { .. }),
            )))
        } else {
            None
        };
        if matches!(sim.injection, InjectionMode::CreditPerDst { .. }) {
            for g in &mut scratch.gates {
                g.ensure_dst_pools(n);
            }
        }
        if let Some(plan) = &sim.faults {
            let fs = fault
                .as_deref_mut()
                .expect("fault state exists with a plan");
            if let CorruptionModel::GilbertElliott { p_gb, p_bg, .. } = plan.corruption {
                fs.ge = Some(GeTimeline::new(plan.seed, p_gb, p_bg, sim.wavelengths));
            }
            for f in &plan.scheduled {
                #[allow(clippy::cast_possible_truncation)]
                let lane = f.lane as u16;
                scratch.queue.push(f.at, Event::LaneDown(lane));
                if f.duration != u64::MAX {
                    scratch
                        .queue
                        .push(f.at.saturating_add(f.duration), Event::LaneUp(lane));
                    fs.pending_ups[f.lane] += 1;
                }
            }
            if let Some(st) = plan.stochastic {
                for lane in 0..sim.wavelengths {
                    let at = fault::exp_draw(
                        plan.seed,
                        LANE_STREAM | lane as u64,
                        fs.lane_draws[lane],
                        st.mean_up,
                    );
                    fs.lane_draws[lane] += 1;
                    if at < st.horizon {
                        #[allow(clippy::cast_possible_truncation)]
                        scratch.queue.push(at, Event::LaneDown(lane as u16));
                    }
                }
            }
        }
        #[allow(clippy::cast_precision_loss)]
        let capacity = ((2 * n) * sim.wavelengths) as f64;
        Self {
            sim,
            n,
            s: scratch,
            base: 0,
            next_id: 0,
            report: ReportProbe::new(mode == ReportMode::Full),
            probe,
            peak_in_flight: 0,
            active_lane_segments: 0,
            capacity,
            blocked_attempts: 0,
            waiting: 0,
            conflicts: 0,
            offered_bits: 0.0,
            last_injection: 0,
            last_time: 0,
            horizon: 0,
            fault,
        }
    }

    /// The event loop: pull due source events, then process the earliest
    /// scheduled event, until both run dry.
    fn drive<S: TrafficSource>(&mut self, source: &mut S) -> Result<(), OpenLoopError> {
        let mut next_from_source = source.next_event();
        loop {
            // Pull every source event that is due before the next
            // scheduled event (or all of them if none is scheduled).
            while let Some(event) = next_from_source {
                let due_now = match self.s.queue.peek_time() {
                    Some(t) => event.time <= t,
                    None => true,
                };
                if !due_now {
                    break;
                }
                self.offer(event)?;
                next_from_source = source.next_event();
            }

            let Some((now, event)) = self.s.queue.pop() else {
                if next_from_source.is_none() && self.sweep_stranded() {
                    // Losses release window slots, which can re-admit
                    // (and even deliver) later traffic: resume on
                    // whatever the sweep scheduled.
                    continue;
                }
                break;
            };
            if let Event::GateWake(s) = event {
                // A wake superseded by a fresher, earlier one (the gate's
                // `wake_at` moved on) is a no-op: every admission it could
                // have triggered was already handled by the fresh wake or
                // a delivery re-drain. It must not extend the horizon —
                // stale wakes can outlive the last completion.
                if self.s.gates[s].wake_at != Some(now) {
                    continue;
                }
                self.s.gates[s].wake_at = None;
                self.horizon = self.horizon.max(now);
                self.drain_gate(s, now);
                continue;
            }
            if let Event::LaneDown(lane) = event {
                // Fault events don't extend the horizon: an outage after
                // the last delivery is not time the traffic spent.
                self.on_lane_down(lane as usize, now);
                continue;
            }
            if let Event::LaneUp(lane) = event {
                self.on_lane_up(lane as usize, now);
                continue;
            }
            self.horizon = self.horizon.max(now);

            match event {
                Event::Offered(id) => {
                    let src = self.msg(id).ev.src.0;
                    if self.sim.injection.is_closed_loop() || self.sim.transport.is_active() {
                        self.s.gates[src].offered.push_back(id);
                        self.drain_gate(src, now);
                    } else {
                        self.admit(id, now);
                    }
                }
                Event::GateWake(_) | Event::LaneDown(_) | Event::LaneUp(_) => {
                    unreachable!("handled above")
                }
                Event::Redo(id) => self.redo(id, now),
                Event::Abandon(id) => {
                    let (src, dst) = {
                        let m = self.msg(id);
                        (m.ev.src.0, m.ev.dst.0)
                    };
                    #[allow(clippy::cast_possible_truncation)]
                    let flow = (src * self.n + dst) as u32;
                    self.lose_message(id, flow, now);
                }
                Event::Started((id, flow, mask)) => {
                    let (start, end) = {
                        let m = self.msg(id);
                        (m.started, m.completed)
                    };
                    // Occupancy first, so the fact carries the mark the
                    // start itself produced (the bookkeeping emits no
                    // facts of its own).
                    let marked = self.note_transmission_start(flow, mask);
                    if marked {
                        self.s.flags[id - self.base] |= flag::MARKED;
                    }
                    let fact = TxFact {
                        start,
                        end,
                        lanes: mask,
                        hops: self.flow_hops(flow as usize),
                        src: NodeId(flow as usize / self.n),
                        dst: NodeId(flow as usize % self.n),
                        marked,
                    };
                    self.probe.started(fact);
                }
                Event::Completed(tx) => self.on_completed(tx, now),
            }
        }
        Ok(())
    }

    fn msg(&mut self, id: usize) -> &mut MsgState {
        &mut self.s.msgs[id - self.base]
    }

    /// Directed-segment count of `flow`'s path.
    fn flow_hops(&self, flow: usize) -> usize {
        (self.s.path_offsets[flow + 1] - self.s.path_offsets[flow]) as usize
    }

    /// Validates and registers one source event, scheduling its offer.
    fn offer(&mut self, event: TrafficEvent) -> Result<(), OpenLoopError> {
        if event.time < self.last_time {
            return Err(OpenLoopError::UnorderedSource {
                time: event.time,
                previous: self.last_time,
            });
        }
        self.last_time = event.time;
        for node in [event.src, event.dst] {
            if !self.sim.ring.contains(node) {
                return Err(OpenLoopError::ForeignNode {
                    node,
                    nodes: self.n,
                });
            }
        }
        if event.src == event.dst || event.volume.value() <= 0.0 {
            return Err(OpenLoopError::DegenerateEvent {
                index: self.next_id,
            });
        }
        if let WavelengthMode::Static(map) = &self.sim.mode {
            if map.lanes(event.src, event.dst).is_empty() {
                return Err(OpenLoopError::UnmappedFlow {
                    src: event.src,
                    dst: event.dst,
                });
            }
        }
        let id = self.next_id;
        self.next_id += 1;
        // The offered gap only feeds ECN pacing; skip the gate
        // bookkeeping entirely on the other policies' hot paths.
        let gap = if matches!(self.sim.injection, InjectionMode::Ecn { .. }) {
            self.s.gates[event.src.0].offered_gap(event.time)
        } else {
            0
        };
        self.probe.offered(event.time, event.src);
        self.s.msgs.push_back(MsgState {
            ev: event,
            admitted: 0,
            started: 0,
            completed: 0,
            gap,
            lanes: 0,
            attempts: 0,
            seq: 0,
            first_fail: 0,
        });
        self.s.flags.push_back(0);
        self.peak_in_flight = self.peak_in_flight.max(self.s.msgs.len());
        self.offered_bits += event.volume.value();
        self.last_injection = self.last_injection.max(event.time);
        self.s.queue.push(event.time, Event::Offered(id));
        Ok(())
    }

    /// Admits as many of source `s`'s offered messages as the injection
    /// policy allows at `now`, scheduling a wake-up when ECN pacing
    /// defers the head.
    fn drain_gate(&mut self, s: usize, now: u64) {
        loop {
            let Some(&head) = self.s.gates[s].offered.front() else {
                return;
            };
            // Transport windows gate the head before the injection
            // policy: a full go-back-N window or PFC destination pool
            // pauses the source (the wake-up is the next delivery or
            // loss that shrinks the window).
            match self.sim.transport {
                TransportMode::GoBackN { window, .. } => {
                    let flow = {
                        let m = &self.s.msgs[head - self.base];
                        m.ev.src.0 * self.n + m.ev.dst.0
                    };
                    let fs = self
                        .fault
                        .as_deref()
                        .expect("transport implies fault state");
                    if fs.unacked[flow] as usize >= window {
                        return;
                    }
                }
                TransportMode::Pfc { dst_window, .. } => {
                    let dst = self.s.msgs[head - self.base].ev.dst.0;
                    let fs = self
                        .fault
                        .as_deref()
                        .expect("transport implies fault state");
                    if fs.dst_in_flight[dst] as usize >= dst_window {
                        return;
                    }
                }
                TransportMode::None => {}
            }
            let allowed = match self.sim.injection {
                InjectionMode::Open => now,
                InjectionMode::Credit { window } => {
                    if self.s.gates[s].in_flight >= window {
                        // The wake-up is the next delivery of this source.
                        return;
                    }
                    now
                }
                InjectionMode::CreditPerDst { window } => {
                    let dst = self.s.msgs[head - self.base].ev.dst.0;
                    if self.s.gates[s].in_flight_by_dst[dst] as usize >= window {
                        // The wake-up is the next delivery (or loss) to
                        // this destination.
                        return;
                    }
                    now
                }
                InjectionMode::Ecn { .. } => {
                    let (time, gap) = {
                        let m = self.msg(head);
                        (m.ev.time, m.gap)
                    };
                    self.s.gates[s].ecn_allowed(time, gap)
                }
            };
            if allowed > now {
                if self.s.gates[s].wake_at.is_none_or(|w| w > allowed) {
                    self.s.gates[s].wake_at = Some(allowed);
                    self.s.queue.push(allowed, Event::GateWake(s));
                }
                return;
            }
            self.s.gates[s].offered.pop_front();
            // Any pending wake was scheduled for this head; admitting it
            // makes that wake obsolete — clear the marker so the leftover
            // queue event is recognised as stale (the loop schedules a
            // fresh wake if the next head still needs pacing).
            self.s.gates[s].wake_at = None;
            self.admit(head, now);
        }
    }

    /// Passes message `id` through its gate into the network interface.
    fn admit(&mut self, id: usize, now: u64) {
        let sim = self.sim;
        let (src_node, dst_node, offered) = {
            let m = self.msg(id);
            m.admitted = now;
            (m.ev.src, m.ev.dst, m.ev.time)
        };
        self.probe.admitted(now, now - offered, src_node);
        let src = src_node.0;
        if self.sim.injection.is_closed_loop() {
            self.s.gates[src].note_admit(now);
            if let InjectionMode::CreditPerDst { .. } = self.sim.injection {
                self.s.gates[src].in_flight_by_dst[dst_node.0] += 1;
            }
        }
        match self.sim.transport {
            TransportMode::GoBackN { .. } => {
                let flow = src * self.n + dst_node.0;
                let fs = self
                    .fault
                    .as_deref_mut()
                    .expect("transport implies fault state");
                let seq = fs.next_seq[flow];
                fs.next_seq[flow] += 1;
                fs.unacked[flow] += 1;
                self.msg(id).seq = seq;
            }
            TransportMode::Pfc { .. } => {
                let fs = self
                    .fault
                    .as_deref_mut()
                    .expect("transport implies fault state");
                fs.dst_in_flight[dst_node.0] += 1;
            }
            TransportMode::None => {}
        }
        match &sim.mode {
            WavelengthMode::Dynamic(policy) => {
                // The NI transmits in order: an earlier queued message
                // blocks this one even if its own path is free.
                #[allow(clippy::cast_possible_truncation)]
                let flow = (src * self.n + dst_node.0) as u32;
                let policy = *policy;
                self.enqueue_dynamic(id, flow, now, policy);
            }
            WavelengthMode::Static(_) => {
                #[allow(clippy::cast_possible_truncation)]
                let flow = (src * self.n + dst_node.0) as u32;
                let mask = self.s.flow_lane_masks[flow as usize];
                debug_assert!(mask != 0, "unmapped flows are rejected at offer");
                let avail = match self.fault.as_deref() {
                    Some(fs) => mask & !fs.down_mask,
                    None => mask,
                };
                if avail == 0 {
                    self.park_or_lose_static(id, flow, mask, now);
                } else {
                    self.start_static(id, flow, avail, now);
                }
            }
        }
    }

    /// Queues (or immediately starts) a dynamic-mode message at its
    /// source NI.
    fn enqueue_dynamic(&mut self, id: usize, flow: u32, now: u64, policy: DynamicPolicy) {
        let src = flow as usize / self.n;
        if !self.s.ni_queues[src].is_empty() {
            self.blocked_attempts += 1;
            self.s.ni_queues[src].push_back((id, flow));
            self.waiting += 1;
        } else if !self.try_start_dynamic(id, flow, now, policy) {
            self.blocked_attempts += 1;
            self.s.ni_queues[src].push_back((id, flow));
            self.waiting += 1;
            // This message is now the source's blocked head:
            // register it with its path's waiter sets.
            self.set_waiter(src, flow, true);
        }
    }

    /// Schedules a static-mode transmission on `avail` (the flow's
    /// nominal lanes minus any currently down), serialised on the flow's
    /// `flow_free_at` cursor.
    fn start_static(&mut self, id: usize, flow: u32, avail: u128, now: u64) {
        let volume = self.msg(id).ev.volume;
        let lanes = avail.count_ones() as usize;
        let free_at = self.s.flow_free_at[flow as usize];
        let start = now.max(free_at);
        if start > now {
            self.blocked_attempts += 1;
        }
        let duration = self.sim.duration(volume, lanes);
        let end = start + duration;
        self.s.flow_free_at[flow as usize] = end;
        {
            let m = self.msg(id);
            m.started = start;
            m.completed = end;
            #[allow(clippy::cast_possible_truncation)]
            {
                m.lanes = lanes as u16;
            }
            m.attempts += 1;
        }
        self.s.queue.push(start, Event::Started((id, flow, avail)));
        self.s.queue.push(
            end,
            Event::Completed(CompletedTx {
                id,
                start,
                flow,
                mask: avail,
            }),
        );
    }

    /// An all-lanes-down static admission: park until a pending recovery
    /// if one exists, otherwise the message is lost outright (deferred
    /// through the calendar so loss bookkeeping never recurses through
    /// the gate drain that admitted it).
    fn park_or_lose_static(&mut self, id: usize, flow: u32, mask: u128, now: u64) {
        let stochastic = self
            .sim
            .faults
            .as_ref()
            .is_some_and(|p| p.stochastic.is_some());
        let fs = self
            .fault
            .as_deref_mut()
            .expect("an all-down mask implies fault state");
        // Stochastic outages always repair; scheduled ones only if a
        // finite-duration recovery is still outstanding.
        let mut recovers = stochastic;
        let mut rest = mask;
        while !recovers && rest != 0 {
            let lane = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            recovers = fs.pending_ups[lane] > 0;
        }
        if recovers {
            fs.parked.push((id, flow));
        } else {
            self.s.queue.push(now, Event::Abandon(id));
        }
    }

    /// Re-attempts a static-mode message after a NACK/timeout redo or a
    /// lane recovery.
    fn restart_static(&mut self, id: usize, flow: u32, now: u64) {
        let mask = self.s.flow_lane_masks[flow as usize];
        let avail = match self.fault.as_deref() {
            Some(fs) => mask & !fs.down_mask,
            None => mask,
        };
        if avail == 0 {
            self.park_or_lose_static(id, flow, mask, now);
        } else {
            self.start_static(id, flow, avail, now);
        }
    }

    /// Retransmits message `id` (transport recovery).
    fn redo(&mut self, id: usize, now: u64) {
        let (src, dst) = {
            let m = self.msg(id);
            (m.ev.src.0, m.ev.dst.0)
        };
        #[allow(clippy::cast_possible_truncation)]
        let flow = (src * self.n + dst) as u32;
        match &self.sim.mode {
            WavelengthMode::Dynamic(policy) => {
                let policy = *policy;
                self.enqueue_dynamic(id, flow, now, policy);
            }
            WavelengthMode::Static(_) => self.restart_static(id, flow, now),
        }
    }

    /// Attempts to start a dynamic-mode transmission at `now`.
    fn try_start_dynamic(&mut self, id: usize, flow: u32, now: u64, policy: DynamicPolicy) -> bool {
        let flow = flow as usize;
        let (lo, hi) = (
            self.s.path_offsets[flow] as usize,
            self.s.path_offsets[flow + 1] as usize,
        );
        let Some(mask) = self
            .s
            .arbiter
            .claim_mask(&self.s.path_segs[lo..hi], policy.lane_demand())
        else {
            return false;
        };
        let lanes = mask.count_ones() as usize;
        let volume = self.msg(id).ev.volume;
        let duration = self.sim.duration(volume, lanes);
        {
            let m = self.msg(id);
            m.started = now;
            m.completed = now + duration;
            #[allow(clippy::cast_possible_truncation)]
            {
                m.lanes = lanes as u16;
            }
            m.attempts += 1;
        }
        #[allow(clippy::cast_possible_truncation)]
        let flow = flow as u32;
        self.s.queue.push(
            now + duration,
            Event::Completed(CompletedTx {
                id,
                start: now,
                flow,
                mask,
            }),
        );
        // Occupancy first, so the fact carries the mark the start itself
        // produced (the bookkeeping emits no facts of its own).
        let marked = self.note_transmission_start(flow, mask);
        if marked {
            self.s.flags[id - self.base] |= flag::MARKED;
        }
        let fact = TxFact {
            start: now,
            end: now + duration,
            lanes: mask,
            hops: hi - lo,
            src: NodeId(flow as usize / self.n),
            dst: NodeId(flow as usize % self.n),
            marked,
        };
        self.probe.started(fact);
        true
    }

    /// Occupancy bookkeeping and conflict counting when a transmission
    /// begins driving its lanes.
    /// Returns whether the transmission is ECN congestion-marked.
    fn note_transmission_start(&mut self, flow: u32, mask: u128) -> bool {
        let (lo, hi) = (
            self.s.path_offsets[flow as usize] as usize,
            self.s.path_offsets[flow as usize + 1] as usize,
        );
        let lanes = u64::from(mask.count_ones());
        self.active_lane_segments += (hi - lo) as u64 * lanes;
        let marked = if let InjectionMode::Ecn { threshold } = self.sim.injection {
            #[allow(clippy::cast_precision_loss)]
            let occupancy = self.active_lane_segments as f64 / self.capacity;
            occupancy > threshold
        } else {
            false
        };
        if !self.s.shared_lanes.is_empty() {
            // Completions at this cycle already released their slots
            // (Completed < Started in the tie-break), so every live
            // attempt here properly overlaps the one starting now.
            let w = self.sim.wavelengths;
            for &seg in &self.s.path_segs[lo..hi] {
                let seg = seg as usize;
                let mut rest = mask & self.s.shared_lanes[seg];
                while rest != 0 {
                    let slot = seg * w + rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    self.conflicts += self.s.active_per_lane_seg[slot] as usize;
                    self.s.active_per_lane_seg[slot] += 1;
                }
            }
        }
        marked
    }

    /// A transmission delivered its last bit: accumulate occupancy,
    /// release lanes and credits, and retry whoever waits on them.
    /// Everything it needs rides in the event payload — the message
    /// window is only touched through the 1-byte flags deque.
    fn on_completed(&mut self, tx: CompletedTx, now: u64) {
        let CompletedTx {
            id,
            start,
            flow,
            mask,
        } = tx;
        let span = now - start;
        let (lo, hi) = (
            self.s.path_offsets[flow as usize] as usize,
            self.s.path_offsets[flow as usize + 1] as usize,
        );
        let lanes = u64::from(mask.count_ones());
        let hops = (hi - lo) as u64;
        let verdict = self.classify_attempt(id, flow, mask, start, now);
        match verdict {
            None => {
                let fact = TxFact {
                    start,
                    end: now,
                    lanes: mask,
                    hops: hi - lo,
                    src: NodeId(flow as usize / self.n),
                    dst: NodeId(flow as usize % self.n),
                    marked: self.s.flags[id - self.base] & flag::MARKED != 0,
                };
                self.probe.completed(fact);
            }
            Some(cause) => {
                // A failed attempt drove its lanes for the full span:
                // the fact stream reports a drop instead of a
                // completion, but the occupancy accounting below is
                // shared with deliveries.
                if self.s.flags[id - self.base] & flag::FAILED == 0 {
                    self.s.flags[id - self.base] |= flag::FAILED;
                    self.msg(id).first_fail = now;
                }
                let (volume, attempt) = {
                    let m = self.msg(id);
                    (m.ev.volume.value(), m.attempts)
                };
                let fact = DropFact {
                    start,
                    end: now,
                    lanes: mask,
                    hops: hi - lo,
                    src: NodeId(flow as usize / self.n),
                    dst: NodeId(flow as usize % self.n),
                    bits: volume,
                    cause,
                    attempt,
                };
                self.probe.dropped(fact);
                let fs = self
                    .fault
                    .as_deref_mut()
                    .expect("a drop verdict implies fault state");
                fs.failed_attempts += 1;
                fs.retransmitted_bits += volume;
            }
        }
        if verdict == Some(FaultCause::Corrupt) {
            self.quarantine_degraded(mask, now);
        }
        for i in lo..hi {
            self.s.segment_busy[self.s.path_segs[i] as usize] += span * lanes;
        }
        let mut rest = mask;
        while rest != 0 {
            let lane = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            self.s.lane_busy[lane] += span * hops;
        }
        self.active_lane_segments -= hops * lanes;
        if !self.s.shared_lanes.is_empty() {
            let w = self.sim.wavelengths;
            for &seg in &self.s.path_segs[lo..hi] {
                let seg = seg as usize;
                let mut rest = mask & self.s.shared_lanes[seg];
                while rest != 0 {
                    self.s.active_per_lane_seg[seg * w + rest.trailing_zeros() as usize] -= 1;
                    rest &= rest - 1;
                }
            }
        }
        if let WavelengthMode::Dynamic(policy) = &self.sim.mode {
            let policy = *policy;
            self.s.arbiter.release_mask(&self.s.path_segs[lo..hi], mask);
            // Retry blocked heads. A head's claim can only change outcome
            // after a release on its own path, so only sources whose head
            // waits on one of the just-released segments are candidates —
            // identical starts (in identical source order) to retrying
            // everyone, without rescanning every wavelength × segment.
            if self.waiting > 0 {
                let words = self.s.waiter_words;
                self.s.candidates[..words].fill(0);
                for i in lo..hi {
                    let row = self.s.path_segs[i] as usize * words;
                    for w in 0..words {
                        self.s.candidates[w] |= self.s.waiters[row + w];
                    }
                }
                for w in 0..words {
                    let mut bits = self.s.candidates[w];
                    while bits != 0 {
                        let s = w * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        self.retry_source(s, now, policy);
                    }
                }
            }
        }
        match verdict {
            None => self.deliver(id, flow, now),
            Some(cause) => self.handle_drop(id, flow, start, now, cause),
        }
    }

    /// Decides whether the attempt that just delivered its last bit
    /// actually failed: a lane outage overlapping the span, a BER
    /// corruption draw, or a go-back-N sequence gap.
    fn classify_attempt(
        &mut self,
        id: usize,
        flow: u32,
        mask: u128,
        start: u64,
        now: u64,
    ) -> Option<FaultCause> {
        let sim = self.sim;
        let fs = self.fault.as_deref_mut()?;
        if fs.overlaps_down(mask, start, now) {
            return Some(FaultCause::LaneDown);
        }
        if let Some(plan) = &sim.faults {
            let ber = match &plan.corruption {
                // The burst channel: the attempt sees the bad-state BER
                // whenever any lane of its mask spent a cycle of the
                // span in the bad state. The timelines are pure
                // functions of the plan seed, so this stays replayable.
                CorruptionModel::GilbertElliott {
                    ber_good, ber_bad, ..
                } => {
                    let ge = fs.ge.as_mut().expect("GE model implies a timeline");
                    let mut rest = mask;
                    let mut bad = false;
                    while rest != 0 && !bad {
                        let lane = rest.trailing_zeros() as usize;
                        rest &= rest - 1;
                        bad = ge.bad_over(lane, start, now);
                    }
                    if bad { *ber_bad } else { *ber_good }
                }
                model => model.ber(flow as usize),
            };
            if ber > 0.0 {
                let m = &self.s.msgs[id - self.base];
                let p = fault::message_error_probability(ber, m.ev.volume.value());
                // Drawn from (message, attempt) so corruption outcomes
                // are independent of event interleaving — runs replay
                // exactly, and the corrupted sets nest as BER grows.
                let draw = fault::unit_interval(fault::hash64(
                    plan.seed,
                    id as u64,
                    u64::from(m.attempts),
                ));
                if draw < p {
                    return Some(FaultCause::Corrupt);
                }
            }
        }
        if let TransportMode::GoBackN { .. } = self.sim.transport {
            let seq = self.s.msgs[id - self.base].seq;
            // Frames *ahead* of the receiver's window go back; frames
            // *behind* it arrive late into a gap the receiver already
            // gave up on (a loss skipped past them) and are accepted,
            // so one exhausted frame can never wedge the flow.
            if seq > fs.next_expected[flow as usize] {
                return Some(FaultCause::OutOfOrder);
            }
        }
        None
    }

    /// Final (successful) delivery bookkeeping for message `id`.
    fn deliver(&mut self, id: usize, flow: u32, now: u64) {
        match self.sim.transport {
            TransportMode::GoBackN { .. } => {
                let seq = self.s.msgs[id - self.base].seq;
                let fs = self
                    .fault
                    .as_deref_mut()
                    .expect("transport implies fault state");
                let ne = &mut fs.next_expected[flow as usize];
                debug_assert!(
                    seq <= *ne,
                    "go-back-N never delivers ahead of the receiver window"
                );
                // `seq < ne` is a late frame filling a gap a loss
                // already skipped past — accepted without moving the
                // window.
                *ne = (*ne).max(seq + 1);
                fs.unacked[flow as usize] -= 1;
            }
            TransportMode::Pfc { .. } => {
                let fs = self
                    .fault
                    .as_deref_mut()
                    .expect("transport implies fault state");
                fs.dst_in_flight[flow as usize % self.n] -= 1;
            }
            TransportMode::None => {}
        }
        self.s.flags[id - self.base] |= flag::DONE;
        if self.sim.injection.is_closed_loop() {
            let src = flow as usize / self.n;
            let marked = self.s.flags[id - self.base] & flag::MARKED != 0;
            self.s.gates[src].note_delivery(now, self.sim.injection, marked, &self.sim.aimd);
            if let InjectionMode::CreditPerDst { .. } = self.sim.injection {
                self.s.gates[src].in_flight_by_dst[flow as usize % self.n] -= 1;
            }
            self.drain_gate(src, now);
        }
        self.drain_transport(flow, now);
        self.retire_front();
    }

    /// A failed attempt: decide between retransmission and loss.
    fn handle_drop(&mut self, id: usize, flow: u32, start: u64, now: u64, cause: FaultCause) {
        let attempts = self.s.msgs[id - self.base].attempts;
        match self.sim.transport {
            TransportMode::None => self.lose_message(id, flow, now),
            TransportMode::GoBackN {
                nack_delay,
                timeout,
                max_retries,
                ..
            } => {
                // Out-of-order completions are an artefact of go-back-N
                // ordering (not data loss), so they never exhaust the
                // retry budget.
                if cause != FaultCause::OutOfOrder && attempts > max_retries {
                    self.lose_message(id, flow, now);
                } else {
                    let at = match cause {
                        // Lane outages are detected by timeout, not NACK.
                        FaultCause::LaneDown => now.max(start.saturating_add(timeout)),
                        FaultCause::Corrupt | FaultCause::OutOfOrder => now + nack_delay,
                    };
                    self.s.queue.push(at, Event::Redo(id));
                }
            }
            TransportMode::Pfc { max_retries, .. } => {
                if attempts > max_retries {
                    self.lose_message(id, flow, now);
                } else {
                    self.s.queue.push(now + 1, Event::Redo(id));
                }
            }
        }
    }

    /// Marks message `id` permanently lost at `now`: it retires silently
    /// (delivery statistics exclude it), releasing whatever credits and
    /// transport window slots it held.
    fn lose_message(&mut self, id: usize, flow: u32, now: u64) {
        let (volume, attempts, seq) = {
            let m = self.msg(id);
            m.completed = now;
            if m.attempts == 0 {
                m.started = now;
            }
            (m.ev.volume.value(), m.attempts, m.seq)
        };
        {
            let fs = self.fault.as_deref_mut().expect("losses imply fault state");
            fs.lost_messages += 1;
            fs.lost_bits += volume;
        }
        match self.sim.transport {
            TransportMode::GoBackN { .. } => {
                let fs = self
                    .fault
                    .as_deref_mut()
                    .expect("transport implies fault state");
                let ne = &mut fs.next_expected[flow as usize];
                // The receiver gives up on the gap: later frames of the
                // flow become deliverable.
                *ne = (*ne).max(seq + 1);
                fs.unacked[flow as usize] -= 1;
            }
            TransportMode::Pfc { .. } => {
                let fs = self
                    .fault
                    .as_deref_mut()
                    .expect("transport implies fault state");
                fs.dst_in_flight[flow as usize % self.n] -= 1;
            }
            TransportMode::None => {}
        }
        self.s.flags[id - self.base] |= flag::DONE | flag::LOST;
        let record = self.s.msgs[id - self.base].record();
        self.probe.lost(&record, volume, attempts.max(1));
        if self.sim.injection.is_closed_loop() {
            let src = flow as usize / self.n;
            let marked = self.s.flags[id - self.base] & flag::MARKED != 0;
            self.s.gates[src].note_delivery(now, self.sim.injection, marked, &self.sim.aimd);
            if let InjectionMode::CreditPerDst { .. } = self.sim.injection {
                self.s.gates[src].in_flight_by_dst[flow as usize % self.n] -= 1;
            }
            self.drain_gate(src, now);
        }
        self.drain_transport(flow, now);
        self.retire_front();
    }

    /// Re-drains whichever gates a delivery or loss may have unblocked
    /// under the transport windows.
    fn drain_transport(&mut self, flow: u32, now: u64) {
        match self.sim.transport {
            TransportMode::None => {}
            TransportMode::GoBackN { .. } => {
                // Only this flow's source gained window.
                self.drain_gate(flow as usize / self.n, now);
            }
            TransportMode::Pfc { .. } => {
                // Any source may hold traffic for the freed destination.
                for s in 0..self.n {
                    if !self.s.gates[s].offered.is_empty() {
                        self.drain_gate(s, now);
                    }
                }
            }
        }
    }

    /// Administratively takes Gilbert–Elliott-degraded lanes out of
    /// service: when a corrupt attempt reveals a lane in the bad state
    /// and the bad-state BER meets the healing threshold, the lane gets
    /// the same `LaneDown`/`LaneUp` pair a scheduled fault would, for
    /// the rest of its bad sojourn — parked traffic and the healer then
    /// see an ordinary outage. Detection is traffic-driven: a silent
    /// (uncorrupted) bad sojourn is never quarantined, exactly as a real
    /// receiver could not have observed it.
    fn quarantine_degraded(&mut self, mask: u128, now: u64) {
        let sim = self.sim;
        let Some(cfg) = sim.healing else { return };
        let Some(threshold) = cfg.ber_threshold else {
            return;
        };
        let Some(plan) = &sim.faults else { return };
        let CorruptionModel::GilbertElliott { ber_bad, .. } = &plan.corruption else {
            return;
        };
        if *ber_bad < threshold {
            return;
        }
        let fs = self
            .fault
            .as_deref_mut()
            .expect("a corrupt verdict implies fault state");
        let mut rest = mask;
        while rest != 0 {
            let lane = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            if fs.down_mask & (1u128 << lane) != 0 || now < fs.admin_until[lane] {
                continue;
            }
            let until = fs
                .ge
                .as_mut()
                .expect("GE model implies a timeline")
                .bad_until(lane, now);
            if until <= now {
                // The lane already recovered (or was never bad at the
                // detection cycle — the burst hit another lane).
                continue;
            }
            fs.admin_until[lane] = until;
            fs.pending_ups[lane] += 1;
            #[allow(clippy::cast_possible_truncation)]
            {
                self.s.queue.push(now, Event::LaneDown(lane as u16));
                self.s.queue.push(until, Event::LaneUp(lane as u16));
            }
        }
    }

    /// The self-healing quiesce point, run as part of every lane-down
    /// event: re-pack every static flow whose nominal lanes intersect a
    /// dark lane onto the surviving comb, swap the healed masks into
    /// `flow_lane_masks`, restart parked traffic that regained lanes,
    /// and record the heal as a first-class [`HealFact`].
    ///
    /// In-flight attempts keep the mask they started with (it rides in
    /// their `Completed` event) and fail as lane-down drops; the swap
    /// governs every later start, including transport redos — so the
    /// lane-down event boundary is a true quiesce point and no event
    /// mid-flight observes a half-swapped map.
    fn try_heal(&mut self, lane: usize, now: u64) {
        let Some(cfg) = self.sim.healing else { return };
        if cfg.policy == HealPolicy::Park || !matches!(self.sim.mode, WavelengthMode::Static(_)) {
            return;
        }
        let dead = self
            .fault
            .as_deref()
            .expect("lane events imply fault state")
            .down_mask;
        // The affected set: flows intersecting *any* dark lane, not just
        // the trigger — a second outage re-packs the survivors of the
        // first again, against the current occupancy view.
        let mut affected: Vec<u32> = Vec::new();
        let mut old_masks: Vec<u128> = Vec::new();
        let row_list: Vec<u32> = match &self.s.flow_rows {
            Some(rows) => rows.clone(),
            None =>
            {
                #[allow(clippy::cast_possible_truncation)]
                (0..self.s.flow_lane_masks.len() as u32).collect()
            }
        };
        for &f in &row_list {
            let mask = self.s.flow_lane_masks[f as usize];
            if mask & dead != 0 {
                affected.push(f);
                old_masks.push(mask);
            }
        }
        if affected.is_empty() {
            return;
        }
        // Occupancy view per directed segment: the union of the frozen
        // (unaffected) flows' lanes crossing it, and which affected
        // flows cross it (pairwise conflict discovery).
        let segs = self.s.segment_busy.len();
        let mut frozen_occ = vec![0u128; segs];
        let mut touching: Vec<Vec<u32>> = vec![Vec::new(); segs];
        for &f in &row_list {
            let mask = self.s.flow_lane_masks[f as usize];
            if mask == 0 {
                continue;
            }
            let (lo, hi) = (
                self.s.path_offsets[f as usize] as usize,
                self.s.path_offsets[f as usize + 1] as usize,
            );
            match affected.binary_search(&f) {
                Ok(i) =>
                {
                    #[allow(clippy::cast_possible_truncation)]
                    for s in lo..hi {
                        touching[self.s.path_segs[s] as usize].push(i as u32);
                    }
                }
                Err(_) => {
                    for s in lo..hi {
                        frozen_occ[self.s.path_segs[s] as usize] |= mask;
                    }
                }
            }
        }
        let mut frozen = vec![0u128; affected.len()];
        for (i, &f) in affected.iter().enumerate() {
            let (lo, hi) = (
                self.s.path_offsets[f as usize] as usize,
                self.s.path_offsets[f as usize + 1] as usize,
            );
            for s in lo..hi {
                frozen[i] |= frozen_occ[self.s.path_segs[s] as usize];
            }
        }
        let mut conflicts: Vec<(usize, usize)> = Vec::new();
        for list in &touching {
            for (x, &a) in list.iter().enumerate() {
                for &b in &list[x + 1..] {
                    conflicts.push((a as usize, b as usize));
                }
            }
        }
        conflicts.sort_unstable();
        conflicts.dedup();
        // With every lane dark a relaxed re-pack would hand the affected
        // flows empty masks, which no repair ever refills: treat it as
        // infeasible, so they park as under `Park`.
        let live = !dead & (u128::MAX >> (128 - self.sim.wavelengths));
        let outcome = if live == 0 {
            None
        } else {
            reassign_flows_on_lane_loss(
                &old_masks,
                &conflicts,
                &frozen,
                dead,
                self.sim.wavelengths,
                cfg.policy,
            )
        };
        let (moved, shared, feasible) = match &outcome {
            Some(o) => (o.moved, o.shared, true),
            None => (0, 0, false),
        };
        let mut restarted = 0usize;
        let mut stall_cycles = 0u64;
        let parked = if let Some(o) = outcome {
            for (i, &f) in affected.iter().enumerate() {
                self.s.flow_lane_masks[f as usize] = o.masks[i];
            }
            let parked = {
                let fs = self.fault.as_deref_mut().expect("checked above");
                std::mem::take(&mut fs.parked)
            };
            for &(id, flow) in &parked {
                if self.s.flow_lane_masks[flow as usize] & !dead != 0 {
                    restarted += 1;
                    stall_cycles += now.saturating_sub(self.s.msgs[id - self.base].admitted);
                }
            }
            parked
        } else {
            Vec::new()
        };
        self.probe.heal(HealFact {
            at: now,
            lane,
            policy: cfg.policy,
            affected: affected.len(),
            moved,
            shared,
            restarted,
            stall_cycles,
            feasible,
        });
        // Parked messages whose flow regained live lanes start at the
        // swap; `restart_static` re-parks any that did not.
        for (id, flow) in parked {
            self.restart_static(id, flow, now);
        }
    }

    /// A wavelength fails at `now`.
    fn on_lane_down(&mut self, lane: usize, now: u64) {
        let stochastic = self.sim.faults.as_ref().and_then(|p| p.stochastic);
        let seed = self.sim.faults.as_ref().map_or(0, |p| p.seed);
        let fs = self
            .fault
            .as_deref_mut()
            .expect("lane events imply fault state");
        if let Some(st) = stochastic {
            // Under the stochastic model every outage repairs: draw the
            // repair time now so parked traffic knows the lane returns.
            let counter = fs.lane_draws[lane];
            fs.lane_draws[lane] += 1;
            let up_at =
                now + fault::exp_draw(seed, LANE_STREAM | lane as u64, counter, st.mean_down);
            fs.pending_ups[lane] += 1;
            #[allow(clippy::cast_possible_truncation)]
            self.s.queue.push(up_at, Event::LaneUp(lane as u16));
        }
        if fs.down_mask & (1u128 << lane) != 0 {
            // Already down (overlapping schedule entries): merge.
            return;
        }
        fs.down_mask |= 1 << lane;
        fs.down_since[lane] = now;
        self.s.arbiter.set_down(lane, true);
        self.probe.lane_event(now, lane, true);
        self.try_heal(lane, now);
    }

    /// A wavelength recovers at `now`.
    fn on_lane_up(&mut self, lane: usize, now: u64) {
        let stochastic = self.sim.faults.as_ref().and_then(|p| p.stochastic);
        let seed = self.sim.faults.as_ref().map_or(0, |p| p.seed);
        let fs = self
            .fault
            .as_deref_mut()
            .expect("lane events imply fault state");
        if fs.pending_ups[lane] > 0 {
            fs.pending_ups[lane] -= 1;
        }
        if fs.down_mask & (1u128 << lane) == 0 {
            // A merged outage already recovered this lane.
            return;
        }
        fs.down_mask &= !(1u128 << lane);
        fs.down_history[lane].push((fs.down_since[lane], now));
        if let Some(st) = stochastic {
            let counter = fs.lane_draws[lane];
            fs.lane_draws[lane] += 1;
            let down_at =
                now + fault::exp_draw(seed, LANE_STREAM | lane as u64, counter, st.mean_up);
            if down_at < st.horizon {
                #[allow(clippy::cast_possible_truncation)]
                self.s.queue.push(down_at, Event::LaneDown(lane as u16));
            }
        }
        self.s.arbiter.set_down(lane, false);
        self.probe.lane_event(now, lane, false);
        // Recovered lanes may unblock parked static messages and blocked
        // dynamic heads.
        let parked = {
            let fs = self.fault.as_deref_mut().expect("checked above");
            std::mem::take(&mut fs.parked)
        };
        for (id, flow) in parked {
            self.restart_static(id, flow, now);
        }
        if self.waiting > 0 {
            if let WavelengthMode::Dynamic(policy) = &self.sim.mode {
                let policy = *policy;
                for s in 0..self.n {
                    self.retry_source(s, now, policy);
                }
            }
        }
    }

    /// Once the calendar runs dry, traffic stranded by permanent faults
    /// — parked messages whose recovery never came, NI heads on dead
    /// lanes, gate-held messages whose window never opened — is swept as
    /// lost at the final horizon. Sweeping one batch at a time lets the
    /// released window slots re-admit (and genuinely deliver) later
    /// traffic before the next dry spell. Returns whether anything was
    /// swept.
    fn sweep_stranded(&mut self) -> bool {
        if self.fault.is_none() {
            return false;
        }
        let now = self.horizon;
        let parked = {
            let fs = self.fault.as_deref_mut().expect("checked above");
            std::mem::take(&mut fs.parked)
        };
        let mut swept = !parked.is_empty();
        for (id, flow) in parked {
            self.lose_message(id, flow, now);
        }
        if !swept {
            for s in 0..self.n {
                if let Some(&(id, flow)) = self.s.ni_queues[s].front() {
                    self.s.ni_queues[s].pop_front();
                    self.waiting -= 1;
                    // The head was registered in the waiter sets; its
                    // successor takes over the registration so genuine
                    // releases keep retrying it.
                    self.set_waiter(s, flow, false);
                    if let Some(&(_, f2)) = self.s.ni_queues[s].front() {
                        self.set_waiter(s, f2, true);
                    }
                    self.lose_message(id, flow, now);
                    if let WavelengthMode::Dynamic(policy) = &self.sim.mode {
                        let policy = *policy;
                        self.retry_source(s, now, policy);
                    }
                    swept = true;
                    break;
                }
            }
        }
        if !swept {
            for s in 0..self.n {
                if let Some(id) = self.s.gates[s].offered.pop_front() {
                    // Never admitted: lost without credits or transport
                    // slots to release.
                    let volume = {
                        let m = self.msg(id);
                        m.admitted = now;
                        m.started = now;
                        m.completed = now;
                        m.ev.volume.value()
                    };
                    {
                        let fs = self.fault.as_deref_mut().expect("checked above");
                        fs.lost_messages += 1;
                        fs.lost_bits += volume;
                    }
                    self.s.flags[id - self.base] |= flag::DONE | flag::LOST;
                    let record = self.s.msgs[id - self.base].record();
                    self.probe.lost(&record, volume, 1);
                    self.s.gates[s].wake_at = None;
                    self.retire_front();
                    swept = true;
                    break;
                }
            }
        }
        swept
    }

    /// Sets or clears source `s`'s waiter bit on every segment of `flow`'s
    /// path.
    fn set_waiter(&mut self, s: usize, flow: u32, on: bool) {
        let words = self.s.waiter_words;
        let (word, bit) = (s / 64, 1u64 << (s % 64));
        let (lo, hi) = (
            self.s.path_offsets[flow as usize] as usize,
            self.s.path_offsets[flow as usize + 1] as usize,
        );
        for i in lo..hi {
            let slot = self.s.path_segs[i] as usize * words + word;
            if on {
                self.s.waiters[slot] |= bit;
            } else {
                self.s.waiters[slot] &= !bit;
            }
        }
    }

    /// Retries source `s`'s head after a release touched its path; a
    /// started head unblocks the next message behind it, which is tried
    /// in turn (and becomes the newly registered blocked head if it
    /// fails).
    fn retry_source(&mut self, s: usize, now: u64, policy: DynamicPolicy) {
        // The candidate's current head is registered in the waiter sets;
        // later heads in the chain are not (yet).
        let mut head_registered = true;
        while let Some(&(head, flow)) = self.s.ni_queues[s].front() {
            if self.try_start_dynamic(head, flow, now, policy) {
                if head_registered {
                    self.set_waiter(s, flow, false);
                }
                self.s.ni_queues[s].pop_front();
                self.waiting -= 1;
                head_registered = false;
            } else {
                if !head_registered {
                    self.set_waiter(s, flow, true);
                }
                break;
            }
        }
    }

    /// Folds every completed message at the front of the window into the
    /// fact consumers (the built-in [`ReportProbe`] plus the caller's
    /// probe), in id order.
    fn retire_front(&mut self) {
        while let Some(&bits) = self.s.flags.front() {
            if bits & flag::DONE == 0 {
                break;
            }
            let m = self.s.msgs.pop_front().expect("flags parallel msgs");
            self.s.flags.pop_front();
            self.base += 1;
            if bits & flag::LOST != 0 {
                // Lost messages already fed the loss facts; they retire
                // silently (delivery statistics exclude them).
                continue;
            }
            let record = m.record();
            let flow = m.ev.src.0 * self.n + m.ev.dst.0;
            let hops = self.flow_hops(flow);
            if bits & flag::FAILED != 0 {
                self.probe
                    .recovered(&record, record.attempts, m.completed - m.first_fail);
            }
            self.report.retired(&record, m.ev.volume.value(), hops);
            self.probe.retired(&record, m.ev.volume.value(), hops);
        }
    }

    /// Hands the buffers back after a failed run.
    fn into_scratch(self) -> SimScratch {
        self.s
    }

    /// Assembles the report once the queue drained.
    fn finish(mut self) -> (OpenLoopReport, SimScratch) {
        self.retire_front();
        self.probe.finished(self.horizon, self.last_injection);
        debug_assert!(self.s.queue.is_empty(), "the event queue drained");
        debug_assert!(
            self.s.msgs.is_empty(),
            "every message completes once the queue drains"
        );
        debug_assert!(
            self.s.ni_queues.iter().all(VecDeque::is_empty),
            "completions always drain the NI queues"
        );
        debug_assert!(
            self.s.gates.iter().all(|g| g.offered.is_empty()),
            "deliveries and wake-ups always drain the gates"
        );
        debug_assert!(
            self.s.active_per_lane_seg.iter().all(|&live| live == 0),
            "every started attempt completed"
        );
        let segment_busy: Vec<(DirectedSegment, u64)> = self
            .s
            .segment_busy
            .iter()
            .enumerate()
            .filter(|&(_, &busy)| busy > 0)
            .map(|(dense, &busy)| (DirectedSegment::from_segment_index(dense), busy))
            .collect();
        let credit_occupancy = match self.sim.injection {
            InjectionMode::Credit { window } if self.horizon > 0 => {
                let used: f64 = self.s.gates.iter().map(SourceGate::credit_cycles).sum();
                #[allow(clippy::cast_precision_loss)]
                {
                    used / (self.horizon as f64 * self.n as f64 * window as f64)
                }
            }
            InjectionMode::CreditPerDst { window } if self.horizon > 0 => {
                // Full per-destination pools: each source owns
                // `(n - 1) × window` credits.
                let used: f64 = self.s.gates.iter().map(SourceGate::credit_cycles).sum();
                #[allow(clippy::cast_precision_loss)]
                {
                    used / (self.horizon as f64 * (self.n * (self.n - 1) * window) as f64)
                }
            }
            _ => 0.0,
        };
        let (failed_attempts, retransmitted_bits, lost_messages, lost_bits) =
            self.fault.as_deref().map_or((0, 0.0, 0, 0.0), |fs| {
                (
                    fs.failed_attempts,
                    fs.retransmitted_bits,
                    fs.lost_messages,
                    fs.lost_bits,
                )
            });
        let report = OpenLoopReport {
            nodes: self.n,
            wavelengths: self.sim.wavelengths,
            injection: self.sim.injection,
            horizon: self.horizon,
            last_injection: self.last_injection,
            message_count: self.next_id - lost_messages,
            records: self.report.records,
            latency_hist: self.report.latency_hist,
            stall_hist: self.report.stall_hist,
            peak_in_flight: self.peak_in_flight,
            offered_bits: self.offered_bits,
            delivered_bits: self.report.delivered_bits,
            blocked_attempts: self.blocked_attempts,
            conflict_count: self.conflicts,
            segment_busy,
            lane_busy: self.s.lane_busy.clone(),
            credit_occupancy,
            failed_attempts,
            retransmitted_bits,
            lost_messages,
            lost_bits,
        };
        (report, self.s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlowAllocPolicy, FlowMatrix};

    fn rate() -> BitsPerCycle {
        BitsPerCycle::new(1.0)
    }

    fn ring16() -> RingTopology {
        RingTopology::new(16)
    }

    fn event(time: u64, src: usize, dst: usize, bits: f64) -> TrafficEvent {
        TrafficEvent {
            time,
            src: NodeId(src),
            dst: NodeId(dst),
            volume: Bits::new(bits),
        }
    }

    fn dynamic_single() -> WavelengthMode {
        WavelengthMode::Dynamic(DynamicPolicy::Single)
    }

    #[test]
    fn empty_source_is_a_clean_zero_report() {
        let sim = OpenLoopSimulator::new(ring16(), 4, rate(), dynamic_single());
        let report = sim.run(std::iter::empty()).unwrap();
        assert_eq!(report.records.len(), 0);
        assert_eq!(report.horizon, 0);
        assert_eq!(report.accepted_throughput(), 0.0);
        assert_eq!(report.latency().count, 0);
        assert_eq!(report.injection, InjectionMode::Open);
    }

    #[test]
    fn restricted_flow_rows_are_bit_identical_to_the_full_table() {
        // A trace over three flows, replayed with the route/mask build
        // restricted to exactly those rows: the reports must match the
        // full-table run bit for bit, in both modes and both report
        // depths.
        let events = vec![
            event(0, 0, 3, 96.0),
            event(4, 5, 2, 128.0),
            event(9, 0, 3, 64.0),
            event(15, 11, 12, 256.0),
        ];
        let mut rows: Vec<u32> = events
            .iter()
            .map(|e| (e.src.0 * 16 + e.dst.0) as u32)
            .collect();
        rows.sort_unstable();
        rows.dedup();
        for mode in [
            dynamic_single(),
            WavelengthMode::Static(StaticFlowMap::striped(16, 4, 1)),
        ] {
            let sim = OpenLoopSimulator::new(ring16(), 4, rate(), mode);
            for depth in [ReportMode::Full, ReportMode::Streaming] {
                let full = sim
                    .run_with_scratch(events.clone().into_iter(), &mut SimScratch::new(), depth)
                    .unwrap();
                let mut scratch = SimScratch::new();
                scratch.set_flow_rows(Some(rows.clone()));
                let restricted = sim
                    .run_with_scratch(events.clone().into_iter(), &mut scratch, depth)
                    .unwrap();
                assert_eq!(full, restricted, "{depth:?} drifted under flow rows");
            }
        }
    }

    #[test]
    fn single_message_latency_is_transmission_time() {
        let sim = OpenLoopSimulator::new(ring16(), 4, rate(), dynamic_single());
        let report = sim.run(vec![event(10, 0, 3, 500.0)].into_iter()).unwrap();
        assert_eq!(report.records.len(), 1);
        // 500 bits over 1 λ at 1 bit/cycle.
        assert_eq!(report.records[0].latency(), 500);
        assert_eq!(report.records[0].queueing(), 0);
        assert_eq!(report.records[0].stall(), 0);
        assert_eq!(report.horizon, 510);
    }

    #[test]
    fn contention_queues_fifo_and_counts_blocking() {
        // Two messages on the same 1-λ path at the same instant: the
        // second waits for the first.
        let sim = OpenLoopSimulator::new(ring16(), 1, rate(), dynamic_single());
        let src = vec![event(0, 0, 3, 100.0), event(0, 0, 3, 100.0)];
        let report = sim.run(src.into_iter()).unwrap();
        assert_eq!(report.blocked_attempts, 1);
        assert_eq!(report.records[0].latency(), 100);
        assert_eq!(report.records[1].queueing(), 100);
        assert_eq!(report.records[1].latency(), 200);
    }

    #[test]
    fn disjoint_paths_do_not_interact() {
        let sim = OpenLoopSimulator::new(ring16(), 1, rate(), dynamic_single());
        // 0→2 rides segments 0,1 clockwise; 8→10 rides 8,9: no overlap.
        let src = vec![event(0, 0, 2, 100.0), event(0, 8, 10, 100.0)];
        let report = sim.run(src.into_iter()).unwrap();
        assert_eq!(report.blocked_attempts, 0);
        assert!(report.records.iter().all(|r| r.latency() == 100));
    }

    #[test]
    fn opposite_waveguides_are_independent() {
        // 0→1 (CW, segment 0) and 1→0 (CCW, segment 0) share the physical
        // span but not the waveguide.
        let sim = OpenLoopSimulator::new(ring16(), 1, rate(), dynamic_single());
        let src = vec![event(0, 0, 1, 100.0), event(0, 1, 0, 100.0)];
        let report = sim.run(src.into_iter()).unwrap();
        assert_eq!(report.blocked_attempts, 0);
    }

    #[test]
    fn greedy_mode_uses_the_free_comb() {
        let sim = OpenLoopSimulator::new(
            ring16(),
            8,
            rate(),
            WavelengthMode::Dynamic(DynamicPolicy::Greedy { cap: 8 }),
        );
        let report = sim.run(vec![event(0, 0, 3, 800.0)].into_iter()).unwrap();
        assert_eq!(report.records[0].lanes, 8);
        assert_eq!(report.records[0].latency(), 100);
    }

    #[test]
    fn unordered_source_is_rejected() {
        let sim = OpenLoopSimulator::new(ring16(), 4, rate(), dynamic_single());
        let src = vec![event(10, 0, 3, 100.0), event(5, 0, 3, 100.0)];
        assert_eq!(
            sim.run(src.into_iter()).unwrap_err(),
            OpenLoopError::UnorderedSource {
                time: 5,
                previous: 10
            }
        );
    }

    #[test]
    fn degenerate_and_foreign_events_are_rejected() {
        let sim = OpenLoopSimulator::new(ring16(), 4, rate(), dynamic_single());
        assert!(matches!(
            sim.run(vec![event(0, 3, 3, 100.0)].into_iter()),
            Err(OpenLoopError::DegenerateEvent { index: 0 })
        ));
        assert!(matches!(
            sim.run(vec![event(0, 0, 16, 100.0)].into_iter()),
            Err(OpenLoopError::ForeignNode { .. })
        ));
    }

    #[test]
    fn static_mode_serialises_per_flow() {
        let map = StaticFlowMap::striped(16, 8, 1);
        let sim = OpenLoopSimulator::new(ring16(), 8, rate(), WavelengthMode::Static(map));
        let src = vec![event(0, 0, 3, 100.0), event(10, 0, 3, 100.0)];
        let report = sim.run(src.into_iter()).unwrap();
        // Second message waits for the flow's lane: starts at 100, not 10.
        assert_eq!(report.records[1].started, 100);
        assert_eq!(report.blocked_attempts, 1);
        // Same flow reusing its own lane sequentially never conflicts.
        assert_eq!(report.conflict_count, 0);
    }

    #[test]
    fn static_mode_detects_cross_flow_collisions() {
        // Flows 0→2 (CW segments 0,1) and 1→2 (CW segment 1) share
        // segment 1; force both onto λ1 so they collide there.
        let nodes = 4;
        let mut table = vec![Vec::new(); nodes * nodes];
        table[2] = vec![WavelengthId(0)]; // flow 0→2
        table[nodes + 2] = vec![WavelengthId(0)]; // flow 1→2
        for src in 0..nodes {
            for dst in 0..nodes {
                if src != dst && table[src * nodes + dst].is_empty() {
                    table[src * nodes + dst] = vec![WavelengthId(1)];
                }
            }
        }
        let map = StaticFlowMap::from_table(nodes, 2, table);
        let sim = OpenLoopSimulator::new(
            RingTopology::new(nodes),
            2,
            rate(),
            WavelengthMode::Static(map),
        );
        let src = vec![event(0, 0, 2, 100.0), event(0, 1, 2, 100.0)];
        let report = sim.run(src.into_iter()).unwrap();
        assert_eq!(report.conflict_count, 1);
    }

    /// Every transmission attempt of a run, from its `completed` or
    /// `dropped` fact: `(src, dst, start, end, lane mask)`.
    #[derive(Default)]
    struct AttemptLog(Vec<(NodeId, NodeId, u64, u64, u128)>);

    impl SimProbe for AttemptLog {
        fn completed(&mut self, tx: TxFact) {
            self.0.push((tx.src, tx.dst, tx.start, tx.end, tx.lanes));
        }

        fn dropped(&mut self, drop: DropFact) {
            self.0
                .push((drop.src, drop.dst, drop.start, drop.end, drop.lanes));
        }
    }

    /// One `(segment, lane)` occupancy span of an attempt:
    /// `(segment_index() * wavelengths + lane, start, end)`.
    type FlatSpan = (u64, u64, u64);

    /// The span of every logged attempt on every slot it drove: each
    /// segment of its route × each lane of its mask.
    fn attempt_spans(sim: &OpenLoopSimulator, log: &AttemptLog) -> Vec<FlatSpan> {
        let w = sim.wavelengths as u64;
        let mut spans = Vec::new();
        for &(src, dst, start, end, mask) in &log.0 {
            for seg in sim.route(src, dst).segments() {
                let row = seg.segment_index() as u64 * w;
                for lane in (0..w).filter(|&l| mask & (1 << l) != 0) {
                    spans.push((row + lane, start, end));
                }
            }
        }
        spans
    }

    /// The oracle: counts overlapping span pairs per `(segment, lane)`
    /// key with one sort.
    fn sweep_conflicts_flat(spans: &mut [FlatSpan]) -> usize {
        spans.sort_unstable();
        let mut count = 0;
        // Ends of the spans still live at the current start, per key run.
        let mut active: Vec<u64> = Vec::new();
        let mut current_key = u64::MAX;
        for &(key, start, end) in spans.iter() {
            if key != current_key {
                current_key = key;
                active.clear();
            }
            active.retain(|&e| e > start);
            count += active.len();
            active.push(end);
        }
        count
    }

    /// Runs `events` in both report modes and checks the conflict count
    /// against the oracle sweep over every attempt; the full report with
    /// its records cleared must equal the streaming one. Returns the full
    /// report, the streaming run's scratch and the attempt spans.
    fn check_against_the_attempt_oracle(
        sim: &OpenLoopSimulator,
        events: &[TrafficEvent],
    ) -> (OpenLoopReport, SimScratch, Vec<FlatSpan>) {
        let mut scratch = SimScratch::new();
        let mut run = |mode| {
            let mut log = AttemptLog::default();
            let report = sim
                .run_with_scratch_probed(events.iter().copied(), &mut scratch, mode, &mut log)
                .unwrap();
            let spans = attempt_spans(sim, &log);
            let oracle = sweep_conflicts_flat(&mut spans.clone());
            assert_eq!(report.conflict_count, oracle, "{mode:?} conflict count");
            (report, spans)
        };
        let (full, spans) = run(ReportMode::Full);
        let (streaming, _) = run(ReportMode::Streaming);
        let without_records = OpenLoopReport {
            records: Vec::new(),
            ..full.clone()
        };
        assert_eq!(
            without_records, streaming,
            "the modes differ beyond the records"
        );
        (full, scratch, spans)
    }

    /// How many of `spans` sit on slots the conflict counter walks.
    fn gated(scratch: &SimScratch, spans: &[FlatSpan], wavelengths: usize) -> usize {
        let w = wavelengths as u64;
        spans
            .iter()
            .filter(|&&(key, _, _)| {
                scratch
                    .shared_lanes
                    .get((key / w) as usize)
                    .is_some_and(|&lanes| lanes & (1 << (key % w)) != 0)
            })
            .count()
    }

    /// 160 messages over 92 flows of a 16-node ring, three cycles apart.
    fn busy_trace() -> Vec<TrafficEvent> {
        (0..160usize)
            .map(|k| {
                let src = (k * 7) % 16;
                event(3 * k as u64, src, (src + 1 + (k * 5) % 15) % 16, 64.0)
            })
            .collect()
    }

    #[test]
    fn striped_map_count_matches_the_attempt_oracle() {
        let sim = OpenLoopSimulator::new(
            ring16(),
            4,
            rate(),
            WavelengthMode::Static(StaticFlowMap::striped(16, 4, 1)),
        );
        let (report, scratch, spans) = check_against_the_attempt_oracle(&sim, &busy_trace());
        assert!(report.conflict_count > 0);
        assert_eq!(
            gated(&scratch, &spans, 4),
            spans.len(),
            "every slot of a striped map is shared"
        );
    }

    #[test]
    fn relaxed_synthesis_count_matches_the_attempt_oracle() {
        let events = busy_trace();
        let flows = FlowMatrix::from_events(16, events.iter());
        let (map, summary) = StaticFlowMap::from_allocator_with_spares(
            &ring16(),
            4,
            &flows,
            FlowAllocPolicy::Relaxed,
            0,
        )
        .unwrap();
        assert!(!summary.is_disjoint());
        let sim = OpenLoopSimulator::new(ring16(), 4, rate(), WavelengthMode::Static(map));
        let (report, scratch, spans) = check_against_the_attempt_oracle(&sim, &events);
        assert!(report.conflict_count > 0);
        let counted = gated(&scratch, &spans, 4);
        assert!(
            0 < counted && counted < spans.len(),
            "{counted} of {} spans on shared slots",
            spans.len()
        );
    }

    #[test]
    fn disjoint_synthesis_count_matches_the_attempt_oracle() {
        let events = busy_trace();
        let flows = FlowMatrix::from_events(16, events.iter());
        let map = StaticFlowMap::from_allocator_with_spares(
            &ring16(),
            64,
            &flows,
            FlowAllocPolicy::Proportional {
                max_lanes_per_flow: 4,
            },
            0,
        )
        .unwrap()
        .0;
        let sim = OpenLoopSimulator::new(ring16(), 64, rate(), WavelengthMode::Static(map));
        let (report, scratch, spans) = check_against_the_attempt_oracle(&sim, &events);
        assert_eq!(report.conflict_count, 0);
        assert!(
            scratch.shared_lanes.is_empty() && scratch.active_per_lane_seg.is_empty(),
            "a disjoint map shares no slot, so the counter stays empty"
        );
        assert!(!spans.is_empty());
    }

    #[test]
    fn relaxed_heal_run_matches_the_unfiltered_sweep() {
        // 4-node ring, 2 lanes. X = 0→2 (CW s0, s1) alone on λ0 over s1;
        // Y = 1→2 (CW s1) and 1→3 (CW s1, s2) on λ1; W = 2→3 (CW s2)
        // holds the retirement window open. λ1 dies at 60 and the relaxed
        // re-pack moves Y onto λ0. Y's message ran at [2, 12) on λ1 and
        // retires after the heal, under its new mask, but it never drove
        // λ0: it collides with nothing.
        let nodes = 4;
        let mut table = vec![vec![WavelengthId(0)]; nodes * nodes];
        for d in 0..nodes {
            table[d * nodes + d].clear();
        }
        table[nodes + 2] = vec![WavelengthId(1)]; // Y = 1→2
        table[nodes + 3] = vec![WavelengthId(1)]; // 1→3
        let sim = OpenLoopSimulator::new(
            RingTopology::new(nodes),
            2,
            rate(),
            WavelengthMode::Static(StaticFlowMap::from_table(nodes, 2, table)),
        )
        .with_faults(FaultPlan::new(1).with_scheduled(fault::LaneFault {
            lane: 1,
            at: 60,
            duration: u64::MAX,
        }))
        .with_healing(HealingConfig {
            policy: HealPolicy::RePackRelaxed,
            ber_threshold: None,
        });
        let events = [
            event(0, 0, 2, 50.0),   // X: [0, 50)
            event(1, 2, 3, 1000.0), // W: [1, 1001)
            event(2, 1, 2, 10.0),   // Y: [2, 12)
        ];
        let (report, scratch, spans) = check_against_the_attempt_oracle(&sim, &events);
        assert_eq!(
            gated(&scratch, &spans, 2),
            spans.len(),
            "a run that may swap masks counts on every slot"
        );
        assert_eq!(report.conflict_count, 0);
    }

    #[test]
    fn relaxed_heal_with_every_lane_dark_parks_until_the_repair() {
        // The only lane is dark over [10, 60): a relaxed re-pack has no
        // lane to move the flows to, so they keep theirs, and a message
        // offered during the outage waits for the repair.
        let sim = OpenLoopSimulator::new(
            RingTopology::new(4),
            1,
            rate(),
            WavelengthMode::Static(StaticFlowMap::striped(4, 1, 1)),
        )
        .with_faults(FaultPlan::new(1).with_scheduled(fault::LaneFault {
            lane: 0,
            at: 10,
            duration: 50,
        }))
        .with_healing(HealingConfig {
            policy: HealPolicy::RePackRelaxed,
            ber_threshold: None,
        });
        let report = sim
            .run([event(20, 0, 1, 8.0), event(100, 0, 1, 8.0)].into_iter())
            .unwrap();
        assert_eq!((report.message_count, report.lost_messages), (2, 0));
        assert_eq!(report.records[0].started, 60);
    }

    #[test]
    fn occupancy_accounting_adds_up() {
        let sim = OpenLoopSimulator::new(ring16(), 4, rate(), dynamic_single());
        // One message, 2 hops, 100 cycles on one lane.
        let report = sim.run(vec![event(0, 0, 2, 100.0)].into_iter()).unwrap();
        let busy: u64 = report.segment_busy.iter().map(|&(_, b)| b).sum();
        assert_eq!(busy, 200);
        assert_eq!(report.lane_busy.iter().sum::<u64>(), 200);
        assert!(report.mean_wavelength_occupancy() > 0.0);
        assert!((report.lane_occupancy(WavelengthId(0)) - 200.0 / (100.0 * 32.0)).abs() < 1e-12);
        assert_eq!(report.lane_occupancy(WavelengthId(3)), 0.0);
    }

    #[test]
    fn throughput_matches_offered_when_unsaturated() {
        let sim = OpenLoopSimulator::new(ring16(), 8, rate(), dynamic_single());
        let src: Vec<_> = (0..10)
            .map(|k| event(k * 200, (k % 15) as usize, ((k % 15) + 1) as usize, 100.0))
            .collect();
        let report = sim.run(src.into_iter()).unwrap();
        assert_eq!(report.blocked_attempts, 0);
        assert_eq!(report.offered_bits, 1_000.0);
        assert_eq!(report.delivered_bits, 1_000.0);
        assert!(report.accepted_throughput() > 0.0);
    }

    #[test]
    fn flow_latency_grouping() {
        let sim = OpenLoopSimulator::new(ring16(), 8, rate(), dynamic_single());
        let src = vec![
            event(0, 0, 3, 100.0),
            event(0, 5, 9, 200.0),
            event(500, 0, 3, 100.0),
        ];
        let report = sim.run(src.into_iter()).unwrap();
        let by_flow = report.latency_by_flow();
        assert_eq!(by_flow.len(), 2);
        assert_eq!(by_flow[0].0, (NodeId(0), NodeId(3)));
        assert_eq!(by_flow[0].1.count, 2);
        assert_eq!(by_flow[1].1.count, 1);
    }

    // ------------------------------------------------- closed loop --

    /// A burst of same-source messages offered back to back.
    fn burst(count: usize, gap: u64, bits: f64) -> Vec<TrafficEvent> {
        (0..count)
            .map(|k| event(k as u64 * gap, 0, 3, bits))
            .collect()
    }

    #[test]
    fn credit_window_bounds_in_flight_and_records_stalls() {
        // Window 1 on a 1-λ comb: message k may only be admitted once
        // message k-1 delivered, so admissions serialise exactly.
        let sim = OpenLoopSimulator::with_injection(
            ring16(),
            1,
            rate(),
            dynamic_single(),
            InjectionMode::Credit { window: 1 },
        );
        let report = sim.run(burst(4, 0, 100.0).into_iter()).unwrap();
        assert_eq!(report.records.len(), 4);
        for (k, r) in report.records.iter().enumerate() {
            assert_eq!(r.admitted, k as u64 * 100, "admissions serialise");
            assert_eq!(r.queueing(), 0, "admitted messages never queue at the NI");
        }
        assert_eq!(report.stalled_count(), 3);
        assert_eq!(report.stall().max, 300);
        // The whole window is in flight the whole run.
        assert!((report.credit_occupancy - 1.0 / 16.0).abs() < 1e-9);
        // Open loop on the same input queues at the NI instead.
        let open = OpenLoopSimulator::new(ring16(), 1, rate(), dynamic_single())
            .run(burst(4, 0, 100.0).into_iter())
            .unwrap();
        assert_eq!(open.stalled_count(), 0);
        assert_eq!(open.records[3].queueing(), 300);
        // Both deliver everything with identical end-to-end latency here.
        assert_eq!(open.records[3].completed, report.records[3].completed);
    }

    #[test]
    fn large_credit_window_matches_open_loop() {
        let events: Vec<_> = (0..20)
            .map(|k| event(k * 7, (k % 5) as usize, ((k % 5) + 6) as usize, 256.0))
            .collect();
        let open = OpenLoopSimulator::new(ring16(), 4, rate(), dynamic_single())
            .run(events.clone().into_iter())
            .unwrap();
        let credit = OpenLoopSimulator::with_injection(
            ring16(),
            4,
            rate(),
            dynamic_single(),
            InjectionMode::Credit { window: 64 },
        )
        .run(events.into_iter())
        .unwrap();
        // A window no source ever exhausts never stalls: identical spans.
        assert_eq!(credit.stalled_count(), 0);
        for (a, b) in open.records.iter().zip(&credit.records) {
            assert_eq!((a.started, a.completed), (b.started, b.completed));
        }
    }

    #[test]
    fn closed_loop_conserves_messages_and_bits() {
        for injection in [
            InjectionMode::Credit { window: 2 },
            InjectionMode::Ecn { threshold: 0.05 },
        ] {
            let events: Vec<_> = (0..50)
                .map(|k| event(k * 2, (k % 8) as usize, ((k % 8) + 4) as usize, 320.0))
                .collect();
            let sim =
                OpenLoopSimulator::with_injection(ring16(), 2, rate(), dynamic_single(), injection);
            let report = sim.run(events.clone().into_iter()).unwrap();
            assert_eq!(report.records.len(), events.len(), "{injection}");
            assert_eq!(report.offered_bits, report.delivered_bits, "{injection}");
            for r in &report.records {
                assert!(r.injected <= r.admitted, "{injection}");
                assert!(r.admitted <= r.started, "{injection}");
                assert!(r.started < r.completed, "{injection}");
            }
        }
    }

    #[test]
    fn ecn_throttles_under_congestion() {
        // A sustained stream on a tiny comb crosses the 5% occupancy
        // threshold (one 3-hop transmission is 3/32 of the fabric) on
        // every delivery: AIMD halves the source's rate, stretching its
        // offered gaps, so the last admission lands later than the last
        // offer. The stream must outlast a delivery time for the first
        // mark to feed back while offers still arrive.
        let events = burst(60, 2, 50.0);
        let last_offer = events.last().unwrap().time;
        let sim = OpenLoopSimulator::with_injection(
            ring16(),
            1,
            rate(),
            dynamic_single(),
            InjectionMode::Ecn { threshold: 0.05 },
        );
        let report = sim.run(events.into_iter()).unwrap();
        assert!(report.stalled_count() > 0, "pacing must defer admissions");
        assert!(report.records.last().unwrap().admitted > last_offer);
        // Everything still delivers.
        assert_eq!(report.records.len(), 60);
    }

    #[test]
    fn stale_gate_wakes_do_not_extend_the_horizon() {
        // An AIMD recovery can reschedule a source's wake *earlier*,
        // leaving the superseded wake in the queue; when it pops after
        // the last completion it must not inflate the horizon (which
        // would dilute accepted throughput and every occupancy metric).
        let sim = OpenLoopSimulator::with_injection(
            ring16(),
            2,
            rate(),
            dynamic_single(),
            InjectionMode::Ecn { threshold: 0.15 },
        );
        let events = vec![
            event(0, 0, 8, 2000.0),
            event(1, 0, 3, 100.0),
            event(1801, 0, 3, 20.0),
        ];
        let report = sim.run(events.into_iter()).unwrap();
        let last_completion = report.records.iter().map(|r| r.completed).max().unwrap();
        assert_eq!(
            report.horizon, last_completion,
            "horizon is the cycle of the last completion"
        );
    }

    #[test]
    fn ecn_with_high_threshold_never_marks() {
        let events = burst(10, 50, 100.0);
        let report = OpenLoopSimulator::with_injection(
            ring16(),
            8,
            rate(),
            dynamic_single(),
            InjectionMode::Ecn { threshold: 1.0 },
        )
        .run(events.into_iter())
        .unwrap();
        assert_eq!(report.stalled_count(), 0, "unmarked sources never pace");
    }

    #[test]
    fn closed_loop_static_mode_keeps_the_conflict_checker() {
        let map = StaticFlowMap::striped(16, 8, 1);
        let sim = OpenLoopSimulator::with_injection(
            ring16(),
            8,
            rate(),
            WavelengthMode::Static(map),
            InjectionMode::Credit { window: 1 },
        );
        let src = vec![event(0, 0, 3, 100.0), event(0, 0, 3, 100.0)];
        let report = sim.run(src.into_iter()).unwrap();
        // Window 1 admits the second message only at delivery of the
        // first, so the flow never double-books its lane.
        assert_eq!(report.records[1].admitted, 100);
        assert_eq!(report.records[1].stall(), 100);
        assert_eq!(report.conflict_count, 0);
        assert_eq!(report.blocked_attempts, 0);
    }

    #[test]
    #[should_panic(expected = "credit window")]
    fn zero_credit_window_panics_at_construction() {
        let _ = OpenLoopSimulator::with_injection(
            ring16(),
            4,
            rate(),
            dynamic_single(),
            InjectionMode::Credit { window: 0 },
        );
    }

    proptest::proptest! {
        /// Conservation under closed-loop injection: for any credit
        /// window / ECN threshold, every offered message is delivered
        /// exactly once with ordered timestamps — none lost, none stuck.
        #[test]
        fn closed_loop_conserves_traffic(
            seed in 0u64..500,
            window in 1usize..6,
            wavelengths in 1usize..5,
            use_ecn in 0usize..2,
        ) {
            use proptest::prelude::*;
            // A deterministic pseudo-random ordered stream from the seed.
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut time = 0u64;
            let events: Vec<TrafficEvent> = (0..80)
                .map(|_| {
                    time += next() % 4;
                    let src = (next() % 16) as usize;
                    let dst = (src + 1 + (next() % 15) as usize) % 16;
                    event(time, src, dst, 64.0 + (next() % 512) as f64)
                })
                .collect();
            let injection = if use_ecn == 0 {
                InjectionMode::Credit { window }
            } else {
                InjectionMode::Ecn { threshold: 0.1 + window as f64 * 0.15 }
            };
            let sim = OpenLoopSimulator::with_injection(
                ring16(),
                wavelengths,
                rate(),
                dynamic_single(),
                injection,
            );
            let report = sim.run(events.clone().into_iter()).unwrap();
            prop_assert_eq!(report.records.len(), events.len());
            prop_assert!((report.offered_bits - report.delivered_bits).abs() < 1e-9);
            let last_completion = report.records.iter().map(|r| r.completed).max().unwrap();
            prop_assert_eq!(report.horizon, last_completion);
            for (r, e) in report.records.iter().zip(&events) {
                prop_assert_eq!(r.injected, e.time);
                prop_assert_eq!((r.src, r.dst), (e.src, e.dst));
                prop_assert!(r.injected <= r.admitted);
                prop_assert!(r.admitted <= r.started);
                prop_assert!(r.started < r.completed);
            }

            // The streaming path over the same corpus: every exact
            // metric agrees, and nearest-rank quantiles land within one
            // log histogram bin of the exact nearest-rank sample.
            let streaming = sim.run_streaming(events.clone().into_iter()).unwrap();
            prop_assert_eq!(streaming.message_count, events.len());
            prop_assert!(streaming.records.is_empty());
            prop_assert_eq!(streaming.horizon, report.horizon);
            prop_assert_eq!(&streaming.segment_busy, &report.segment_busy);
            prop_assert_eq!(streaming.stalled_count(), report.stalled_count());
            prop_assert_eq!(&streaming.latency_hist, &report.latency_hist);
            let mut latencies: Vec<u64> =
                report.records.iter().map(MsgRecord::latency).collect();
            latencies.sort_unstable();
            let stats = streaming.latency();
            for (q, approx) in [(0.50, stats.p50), (0.95, stats.p95), (0.99, stats.p99)] {
                #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
                let exact = latencies[(q * (latencies.len() - 1) as f64).round() as usize];
                #[allow(clippy::cast_precision_loss)]
                let exact_f = exact as f64;
                prop_assert!(
                    approx <= exact_f && exact_f <= approx * 1.125 + 1.0,
                    "q {}: exact nearest-rank {} vs streaming {}", q, exact, approx
                );
            }
        }
    }

    proptest::proptest! {
        /// The online conflict counter against the attempt oracle on
        /// random static maps (striped, relaxed synthesis, random tables
        /// of 1–2 lanes per flow) under an optional outage, transport
        /// recovery and healing, in both report modes.
        #[test]
        fn conflict_count_matches_the_attempt_oracle(
            seed in 0u64..1 << 32,
            nodes in 4usize..17,
            wavelengths in 1usize..9,
            map_kind in 0usize..3,
            count in 60usize..201,
            outage in 0usize..3,
            transport in 0usize..3,
            healing in 0usize..4,
        ) {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let n = nodes as u64;
            let mut time = 0u64;
            let events: Vec<TrafficEvent> = (0..count)
                .map(|_| {
                    time += next() % 6;
                    let src = (next() % n) as usize;
                    let dst = (src + 1 + (next() % (n - 1)) as usize) % nodes;
                    event(time, src, dst, 16.0 + (next() % 256) as f64)
                })
                .collect();
            let ring = RingTopology::new(nodes);
            let w = wavelengths as u64;
            let map = match map_kind {
                0 => StaticFlowMap::striped(nodes, wavelengths, 1 + (next() % w) as usize % 2),
                1 => {
                    let flows = FlowMatrix::from_events(nodes, events.iter());
                    StaticFlowMap::from_allocator_with_spares(
                        &ring,
                        wavelengths,
                        &flows,
                        FlowAllocPolicy::Relaxed,
                        0,
                    )
                    .unwrap()
                    .0
                }
                _ => {
                    let table = (0..nodes * nodes)
                        .map(|flow| {
                            if flow / nodes == flow % nodes {
                                return Vec::new();
                            }
                            let first = next() % w;
                            let mut lanes = vec![WavelengthId(first as usize)];
                            if w > 1 && next() % 2 == 0 {
                                lanes.push(WavelengthId(((first + 1 + next() % (w - 1)) % w) as usize));
                            }
                            lanes
                        })
                        .collect();
                    StaticFlowMap::from_table(nodes, wavelengths, table)
                }
            };
            let mut sim =
                OpenLoopSimulator::new(ring, wavelengths, rate(), WavelengthMode::Static(map));
            if outage > 0 {
                let fault = fault::LaneFault {
                    lane: (next() % w) as usize,
                    at: next() % (time + 1),
                    duration: if outage == 1 { 1 + next() % 400 } else { u64::MAX },
                };
                sim = sim.with_faults(FaultPlan::new(seed).with_scheduled(fault));
            }
            sim = sim.with_transport(match transport {
                0 => TransportMode::None,
                1 => TransportMode::go_back_n(),
                _ => TransportMode::pfc(),
            });
            if healing > 0 {
                let policy =
                    [HealPolicy::Park, HealPolicy::RePackStrict, HealPolicy::RePackRelaxed][healing - 1];
                sim = sim.with_healing(HealingConfig {
                    policy,
                    ber_threshold: None,
                });
            }
            check_against_the_attempt_oracle(&sim, &events);
        }
    }

    #[test]
    fn closed_loop_accepted_throughput_plateaus() {
        // Offered load doubles; sustained (credit-gated) accepted
        // throughput stays within a few percent — the finite knee.
        let run_at = |gap: u64| {
            let events: Vec<_> = (0..600)
                .flat_map(|k| {
                    (0..16).filter_map(move |s| {
                        if s % 2 == 0 {
                            Some(event(k * gap, s, (s + 8) % 16, 512.0))
                        } else {
                            None
                        }
                    })
                })
                .collect();
            OpenLoopSimulator::with_injection(
                ring16(),
                2,
                rate(),
                dynamic_single(),
                InjectionMode::Credit { window: 2 },
            )
            .run(events.into_iter())
            .unwrap()
        };
        let saturated = run_at(8); // offered well past capacity
        let doubled = run_at(4); // offered 2× that
        assert!(saturated.offered_load() < doubled.offered_load() * 0.6);
        let ratio = doubled.accepted_throughput() / saturated.accepted_throughput();
        assert!(
            (0.9..=1.1).contains(&ratio),
            "sustained throughput must plateau, got ratio {ratio}"
        );
    }
}
