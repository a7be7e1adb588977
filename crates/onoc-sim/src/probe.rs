//! The composable observer API of the open/closed-loop engine.
//!
//! The engine emits a small, stable stream of *simulation facts* —
//! admissions through the injection gates, transmission starts,
//! per-lane busy intervals, retirements with bits × lanes × hop count —
//! to anything implementing [`SimProbe`]. Reporting is built on the same
//! stream: the full and streaming reports are one built-in probe
//! ([`ReportProbe`], parameterised by
//! [`ReportMode`](crate::ReportMode)), and user probes such as the
//! [`EnergyProbe`](crate::EnergyProbe) attach *beside* it without
//! touching the engine.
//!
//! Design constraints, enforced by tests:
//!
//! * **Zero cost when unused** — every hook has an empty default body and
//!   the engine is generic over the probe, so a [`NullProbe`] run
//!   monomorphises to exactly the pre-probe code. The counting-allocator
//!   regression test runs with a probe attached.
//! * **Bit-identical reports** — [`ReportProbe`] folds retirements in
//!   the same order the old hard-wired accumulation did, so
//!   [`OpenLoopReport`](crate::OpenLoopReport)s are unchanged.
//! * **Composability** — probes compose structurally: `(&mut a, &mut b)`
//!   is a probe that forwards every fact to both.

use onoc_topology::NodeId;

use crate::fault::{DropFact, HealFact};
use crate::report::{LatencyHistogram, MsgRecord};

/// A transmission fact: one message began (or finished) driving its
/// wavelengths along its path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TxFact {
    /// Cycle the transmission started.
    pub start: u64,
    /// Cycle the last bit arrives (start + duration).
    pub end: u64,
    /// Bitmask of the wavelengths driven (bit *i* = λ*i*).
    pub lanes: u128,
    /// Directed waveguide segments the path crosses.
    pub hops: usize,
    /// Source node of the message driving the lanes.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Whether the start tripped the ECN congestion marker (always
    /// `false` outside [`InjectionMode::Ecn`](crate::InjectionMode)).
    pub marked: bool,
}

impl TxFact {
    /// Number of wavelengths driven.
    #[must_use]
    pub fn lane_count(&self) -> usize {
        self.lanes.count_ones() as usize
    }

    /// Transmission duration in cycles.
    #[must_use]
    pub fn span(&self) -> u64 {
        self.end - self.start
    }
}

/// A pull-free observer of engine facts. Every hook defaults to a no-op,
/// so probes implement only what they fold.
///
/// Hooks fire in simulation order: for one message,
/// `admitted` ≤ `started` < `completed` ≤ `retired` (retirement is
/// deferred until every earlier message has completed, preserving
/// injection order). `finished` fires exactly once, after the last
/// retirement.
pub trait SimProbe {
    /// Source `src` offered a message at `time` (before any injection or
    /// transport gate). Offered facts arrive in nondecreasing time
    /// order, which is what lets streaming probes close windows early.
    #[inline]
    fn offered(&mut self, time: u64, src: NodeId) {
        let _ = (time, src);
    }

    /// A message passed its injection gate into the network interface at
    /// `now`, after `stall` cycles held at source `src` (0 in open loop).
    #[inline]
    fn admitted(&mut self, now: u64, stall: u64, src: NodeId) {
        let _ = (now, stall, src);
    }

    /// A transmission began driving `fact.lanes` over `fact.hops`
    /// segments. In static mode this fires at the scheduled start cycle.
    #[inline]
    fn started(&mut self, fact: TxFact) {
        let _ = fact;
    }

    /// A transmission delivered its last bit; `fact` carries the whole
    /// busy interval, so per-lane laser-on accounting needs no other
    /// state.
    #[inline]
    fn completed(&mut self, fact: TxFact) {
        let _ = fact;
    }

    /// A message retired (all earlier messages have completed):
    /// the full per-message record plus its volume in bits and the hop
    /// count of its path.
    #[inline]
    fn retired(&mut self, record: &MsgRecord, volume_bits: f64, hops: usize) {
        let _ = (record, volume_bits, hops);
    }

    /// A transmission attempt failed (fault layer): the busy interval it
    /// drove, the bits wasted, and the failure cause. Fires at the
    /// attempt's would-be completion, before any retransmission.
    #[inline]
    fn dropped(&mut self, fact: DropFact) {
        let _ = fact;
    }

    /// A message was permanently lost: retries exhausted, no transport
    /// recovery, or the run ended with it undeliverable. Fires at the
    /// loss decision (`record.completed` holds that cycle); lost
    /// messages never reach `retired`.
    #[inline]
    fn lost(&mut self, record: &MsgRecord, volume_bits: f64, attempts: u32) {
        let _ = (record, volume_bits, attempts);
    }

    /// A message that had at least one failed attempt retired
    /// successfully; `recovery_cycles` spans its first failure to the
    /// final delivery. Fires immediately before the matching `retired`.
    #[inline]
    fn recovered(&mut self, record: &MsgRecord, attempts: u32, recovery_cycles: u64) {
        let _ = (record, attempts, recovery_cycles);
    }

    /// Lane `lane` went down (`down == true`) or recovered at `now`.
    #[inline]
    fn lane_event(&mut self, now: u64, lane: usize, down: bool) {
        let _ = (now, lane, down);
    }

    /// The self-healing allocator ran: a lane loss (or BER-threshold
    /// degradation) triggered an incremental re-pack. Fires after the
    /// triggering `lane_event`, whether or not the heal was feasible.
    #[inline]
    fn heal(&mut self, fact: HealFact) {
        let _ = fact;
    }

    /// The run drained; `horizon` is the cycle of the last completion and
    /// `last_injection` the last offered cycle.
    #[inline]
    fn finished(&mut self, horizon: u64, last_injection: u64) {
        let _ = (horizon, last_injection);
    }
}

/// The do-nothing probe: a run with it attached compiles to the
/// pre-observer engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullProbe;

impl SimProbe for NullProbe {}

/// Structural composition: a pair of probes receives every fact, left
/// first.
impl<A: SimProbe, B: SimProbe> SimProbe for (A, B) {
    #[inline]
    fn offered(&mut self, time: u64, src: NodeId) {
        self.0.offered(time, src);
        self.1.offered(time, src);
    }

    #[inline]
    fn admitted(&mut self, now: u64, stall: u64, src: NodeId) {
        self.0.admitted(now, stall, src);
        self.1.admitted(now, stall, src);
    }

    #[inline]
    fn started(&mut self, fact: TxFact) {
        self.0.started(fact);
        self.1.started(fact);
    }

    #[inline]
    fn completed(&mut self, fact: TxFact) {
        self.0.completed(fact);
        self.1.completed(fact);
    }

    #[inline]
    fn retired(&mut self, record: &MsgRecord, volume_bits: f64, hops: usize) {
        self.0.retired(record, volume_bits, hops);
        self.1.retired(record, volume_bits, hops);
    }

    #[inline]
    fn dropped(&mut self, fact: DropFact) {
        self.0.dropped(fact);
        self.1.dropped(fact);
    }

    #[inline]
    fn lost(&mut self, record: &MsgRecord, volume_bits: f64, attempts: u32) {
        self.0.lost(record, volume_bits, attempts);
        self.1.lost(record, volume_bits, attempts);
    }

    #[inline]
    fn recovered(&mut self, record: &MsgRecord, attempts: u32, recovery_cycles: u64) {
        self.0.recovered(record, attempts, recovery_cycles);
        self.1.recovered(record, attempts, recovery_cycles);
    }

    #[inline]
    fn lane_event(&mut self, now: u64, lane: usize, down: bool) {
        self.0.lane_event(now, lane, down);
        self.1.lane_event(now, lane, down);
    }

    #[inline]
    fn heal(&mut self, fact: HealFact) {
        self.0.heal(fact);
        self.1.heal(fact);
    }

    #[inline]
    fn finished(&mut self, horizon: u64, last_injection: u64) {
        self.0.finished(horizon, last_injection);
        self.1.finished(horizon, last_injection);
    }
}

/// An optional probe: `Some` forwards every fact and `None` observes
/// nothing, so a caller can attach a costly probe only when its output
/// is asked for.
impl<P: SimProbe> SimProbe for Option<P> {
    #[inline]
    fn offered(&mut self, time: u64, src: NodeId) {
        if let Some(probe) = self {
            probe.offered(time, src);
        }
    }

    #[inline]
    fn admitted(&mut self, now: u64, stall: u64, src: NodeId) {
        if let Some(probe) = self {
            probe.admitted(now, stall, src);
        }
    }

    #[inline]
    fn started(&mut self, fact: TxFact) {
        if let Some(probe) = self {
            probe.started(fact);
        }
    }

    #[inline]
    fn completed(&mut self, fact: TxFact) {
        if let Some(probe) = self {
            probe.completed(fact);
        }
    }

    #[inline]
    fn retired(&mut self, record: &MsgRecord, volume_bits: f64, hops: usize) {
        if let Some(probe) = self {
            probe.retired(record, volume_bits, hops);
        }
    }

    #[inline]
    fn dropped(&mut self, fact: DropFact) {
        if let Some(probe) = self {
            probe.dropped(fact);
        }
    }

    #[inline]
    fn lost(&mut self, record: &MsgRecord, volume_bits: f64, attempts: u32) {
        if let Some(probe) = self {
            probe.lost(record, volume_bits, attempts);
        }
    }

    #[inline]
    fn recovered(&mut self, record: &MsgRecord, attempts: u32, recovery_cycles: u64) {
        if let Some(probe) = self {
            probe.recovered(record, attempts, recovery_cycles);
        }
    }

    #[inline]
    fn lane_event(&mut self, now: u64, lane: usize, down: bool) {
        if let Some(probe) = self {
            probe.lane_event(now, lane, down);
        }
    }

    #[inline]
    fn heal(&mut self, fact: HealFact) {
        if let Some(probe) = self {
            probe.heal(fact);
        }
    }

    #[inline]
    fn finished(&mut self, horizon: u64, last_injection: u64) {
        if let Some(probe) = self {
            probe.finished(horizon, last_injection);
        }
    }
}

/// Forwarding through a mutable reference, so callers can keep ownership
/// of their probe across runs.
impl<P: SimProbe + ?Sized> SimProbe for &mut P {
    #[inline]
    fn offered(&mut self, time: u64, src: NodeId) {
        (**self).offered(time, src);
    }

    #[inline]
    fn admitted(&mut self, now: u64, stall: u64, src: NodeId) {
        (**self).admitted(now, stall, src);
    }

    #[inline]
    fn started(&mut self, fact: TxFact) {
        (**self).started(fact);
    }

    #[inline]
    fn completed(&mut self, fact: TxFact) {
        (**self).completed(fact);
    }

    #[inline]
    fn retired(&mut self, record: &MsgRecord, volume_bits: f64, hops: usize) {
        (**self).retired(record, volume_bits, hops);
    }

    #[inline]
    fn dropped(&mut self, fact: DropFact) {
        (**self).dropped(fact);
    }

    #[inline]
    fn lost(&mut self, record: &MsgRecord, volume_bits: f64, attempts: u32) {
        (**self).lost(record, volume_bits, attempts);
    }

    #[inline]
    fn recovered(&mut self, record: &MsgRecord, attempts: u32, recovery_cycles: u64) {
        (**self).recovered(record, attempts, recovery_cycles);
    }

    #[inline]
    fn lane_event(&mut self, now: u64, lane: usize, down: bool) {
        (**self).lane_event(now, lane, down);
    }

    #[inline]
    fn heal(&mut self, fact: HealFact) {
        (**self).heal(fact);
    }

    #[inline]
    fn finished(&mut self, horizon: u64, last_injection: u64) {
        (**self).finished(horizon, last_injection);
    }
}

/// The built-in reporting probe: folds retirements into the latency and
/// stall histograms, the delivered-bits integral and — in
/// [`ReportMode::Full`](crate::ReportMode) — the retained
/// [`MsgRecord`] list. The engine assembles the public
/// [`OpenLoopReport`](crate::OpenLoopReport) from this state, so full
/// and streaming reports are two parameterisations of one probe.
#[derive(Debug)]
pub(crate) struct ReportProbe {
    /// Whether retirements retain their [`MsgRecord`].
    retain_records: bool,
    /// Full-mode output, pushed in id order as messages retire.
    pub(crate) records: Vec<MsgRecord>,
    pub(crate) latency_hist: LatencyHistogram,
    pub(crate) stall_hist: LatencyHistogram,
    pub(crate) delivered_bits: f64,
}

impl ReportProbe {
    pub(crate) fn new(retain_records: bool) -> Self {
        Self {
            retain_records,
            records: Vec::new(),
            latency_hist: LatencyHistogram::new(),
            stall_hist: LatencyHistogram::new(),
            delivered_bits: 0.0,
        }
    }
}

impl SimProbe for ReportProbe {
    #[inline]
    fn retired(&mut self, record: &MsgRecord, volume_bits: f64, _hops: usize) {
        self.latency_hist.record(record.latency());
        self.stall_hist.record(record.stall());
        self.delivered_bits += volume_bits;
        if self.retain_records {
            self.records.push(*record);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onoc_topology::NodeId;

    fn record(injected: u64, completed: u64) -> MsgRecord {
        MsgRecord {
            src: NodeId(0),
            dst: NodeId(3),
            injected,
            admitted: injected,
            started: injected,
            completed,
            lanes: 1,
            attempts: 1,
        }
    }

    /// A probe counting every hook invocation.
    #[derive(Default, Debug, PartialEq)]
    struct Counter {
        offered: usize,
        admitted: usize,
        started: usize,
        completed: usize,
        retired: usize,
        dropped: usize,
        lost: usize,
        recovered: usize,
        lane_events: usize,
        heals: usize,
        finished: usize,
        bits: f64,
    }

    impl SimProbe for Counter {
        fn offered(&mut self, _: u64, _: NodeId) {
            self.offered += 1;
        }
        fn admitted(&mut self, _: u64, _: u64, _: NodeId) {
            self.admitted += 1;
        }
        fn started(&mut self, _: TxFact) {
            self.started += 1;
        }
        fn completed(&mut self, _: TxFact) {
            self.completed += 1;
        }
        fn retired(&mut self, _: &MsgRecord, volume: f64, _: usize) {
            self.retired += 1;
            self.bits += volume;
        }
        fn dropped(&mut self, _: DropFact) {
            self.dropped += 1;
        }
        fn lost(&mut self, _: &MsgRecord, _: f64, _: u32) {
            self.lost += 1;
        }
        fn recovered(&mut self, _: &MsgRecord, _: u32, _: u64) {
            self.recovered += 1;
        }
        fn lane_event(&mut self, _: u64, _: usize, _: bool) {
            self.lane_events += 1;
        }
        fn heal(&mut self, _: HealFact) {
            self.heals += 1;
        }
        fn finished(&mut self, _: u64, _: u64) {
            self.finished += 1;
        }
    }

    #[test]
    fn tx_fact_accessors() {
        let fact = TxFact {
            start: 10,
            end: 110,
            lanes: 0b1011,
            hops: 3,
            src: NodeId(0),
            dst: NodeId(3),
            marked: false,
        };
        assert_eq!(fact.lane_count(), 3);
        assert_eq!(fact.span(), 100);
    }

    /// Sends one of every fact to `probe`.
    fn every_fact<P: SimProbe>(probe: &mut P) {
        let fact = TxFact {
            start: 5,
            end: 15,
            lanes: 0b11,
            hops: 2,
            src: NodeId(0),
            dst: NodeId(3),
            marked: false,
        };
        probe.offered(5, NodeId(0));
        probe.admitted(5, 0, NodeId(0));
        probe.started(fact);
        probe.completed(fact);
        probe.retired(&record(5, 15), 64.0, 2);
        probe.dropped(crate::fault::DropFact {
            start: 5,
            end: 15,
            lanes: 1,
            hops: 2,
            src: NodeId(0),
            dst: NodeId(3),
            bits: 32.0,
            cause: crate::fault::FaultCause::Corrupt,
            attempt: 1,
        });
        probe.lost(&record(5, 15), 64.0, 2);
        probe.recovered(&record(5, 15), 2, 10);
        probe.lane_event(7, 0, true);
        probe.heal(HealFact {
            at: 7,
            lane: 0,
            policy: onoc_wa::HealPolicy::RePackStrict,
            affected: 1,
            moved: 1,
            shared: 0,
            restarted: 0,
            stall_cycles: 0,
            feasible: true,
        });
        probe.finished(15, 5);
    }

    #[test]
    fn pair_composition_forwards_every_fact_to_both() {
        let mut pair = (Counter::default(), Counter::default());
        every_fact(&mut pair);
        assert_eq!(pair.0, pair.1);
        assert_eq!(pair.0.offered, 1);
        assert_eq!(pair.0.admitted, 1);
        assert_eq!(pair.0.retired, 1);
        assert_eq!(pair.0.dropped, 1);
        assert_eq!(pair.0.lost, 1);
        assert_eq!(pair.0.recovered, 1);
        assert_eq!(pair.0.lane_events, 1);
        assert_eq!(pair.0.heals, 1);
        assert_eq!(pair.0.bits, 64.0);
        assert_eq!(pair.0.finished, 1);
    }

    #[test]
    fn an_optional_probe_forwards_only_when_present() {
        let mut direct = Counter::default();
        every_fact(&mut direct);
        let mut present = Some(Counter::default());
        every_fact(&mut present);
        assert_eq!(present, Some(direct));
        // An absent probe beside a present one leaves the other's view
        // unchanged and observes nothing itself.
        let mut pair = (Counter::default(), None::<Counter>);
        every_fact(&mut pair);
        assert_eq!(pair.0, present.unwrap());
        assert_eq!(pair.1, None);
        // Through a borrow, as the CLI attaches it.
        let mut owner = Counter::default();
        every_fact(&mut Some(&mut owner));
        assert_eq!(owner.finished, 1);
        assert_eq!(owner.bits, 64.0);
    }

    #[test]
    fn mut_ref_forwarding_reaches_the_owner() {
        // Drive the `&mut P` impl explicitly (a plain method call would
        // auto-deref to `Counter`'s own impl and bypass the forwarding).
        fn run<P: SimProbe>(mut probe: P) {
            probe.admitted(0, 0, NodeId(0));
            probe.finished(0, 0);
        }
        let mut counter = Counter::default();
        run(&mut counter);
        assert_eq!(counter.admitted, 1);
        assert_eq!(counter.finished, 1);
    }

    #[test]
    fn report_probe_folds_and_optionally_retains() {
        for (retain, expect_records) in [(true, 2usize), (false, 0)] {
            let mut probe = ReportProbe::new(retain);
            probe.retired(&record(0, 100), 64.0, 2);
            probe.retired(&record(10, 120), 32.0, 2);
            assert_eq!(probe.records.len(), expect_records);
            assert_eq!(probe.latency_hist.count(), 2);
            assert_eq!(probe.latency_hist.max(), 110);
            assert_eq!(probe.delivered_bits, 96.0);
        }
    }
}
