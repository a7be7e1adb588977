//! Simulation outputs: the closed task-graph report ([`SimReport`]) and
//! the open/closed-loop traffic report ([`OpenLoopReport`]) with its
//! latency, throughput, stall and credit-occupancy metrics.

use std::collections::HashMap;

use onoc_app::CommId;
use onoc_photonics::WavelengthId;
use onoc_topology::{DirectedSegment, NodeId};

use crate::injection::InjectionMode;

/// Two communications holding the same wavelength on the same directed
/// waveguide segment during overlapping cycle intervals.
///
/// For §III-D-valid allocations this never happens; for invalid ones the
/// list shows which static violations actually materialise at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelConflict {
    /// Where the collision happens.
    pub segment: DirectedSegment,
    /// The contested wavelength.
    pub channel: WavelengthId,
    /// The first (earlier-starting) communication.
    pub first: CommId,
    /// The second communication.
    pub second: CommId,
    /// The overlapping cycle interval `[start, end)`.
    pub overlap: (u64, u64),
}

impl core::fmt::Display for ChannelConflict {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} and {} both drive {} on {} during cycles {}..{}",
            self.first, self.second, self.channel, self.segment, self.overlap.0, self.overlap.1
        )
    }
}

/// The outcome of one task-graph simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Cycle at which the last task completed (the measured makespan).
    pub makespan: u64,
    /// Per task: `[start, end)` of its execution, task id order.
    pub task_spans: Vec<(u64, u64)>,
    /// Per communication: `[start, end)` of its transmission, comm id
    /// order (excluding any time spent waiting for lanes).
    pub comm_spans: Vec<(u64, u64)>,
    /// The lanes each communication held, comm id order: its allocation
    /// under fixed lanes, its runtime grant under arbitration.
    pub granted: Vec<Vec<WavelengthId>>,
    /// Times a ready communication found no free lane and waited for a
    /// release (0 under fixed lanes).
    pub blocked_attempts: usize,
    /// Runtime wavelength collisions (empty for §III-D-valid allocations,
    /// and under runtime arbitration by construction).
    pub conflicts: Vec<ChannelConflict>,
    /// Busy cycles accumulated per directed segment (summed over
    /// wavelengths), for utilisation studies.
    pub segment_busy: Vec<(DirectedSegment, u64)>,
}

impl SimReport {
    /// Fraction of `[0, makespan)` during which `segment` carried at least
    /// one busy wavelength-cycle, normalised per wavelength.
    ///
    /// Returns 0 for segments that never carried traffic.
    #[must_use]
    pub fn segment_utilization(&self, segment: DirectedSegment, wavelengths: usize) -> f64 {
        if self.makespan == 0 || wavelengths == 0 {
            return 0.0;
        }
        let busy = self
            .segment_busy
            .iter()
            .find(|(s, _)| *s == segment)
            .map_or(0, |&(_, b)| b);
        busy as f64 / (self.makespan as f64 * wavelengths as f64)
    }
}

/// Summary statistics over a latency (or any nonnegative) sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (linear interpolation between ranks).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Largest sample.
    pub max: u64,
}

impl LatencyStats {
    /// Computes the statistics, consuming and sorting the samples.
    /// Returns an all-zero record for an empty set.
    #[must_use]
    pub fn from_samples(mut samples: Vec<u64>) -> Self {
        if samples.is_empty() {
            return Self {
                count: 0,
                mean: 0.0,
                p50: 0.0,
                p95: 0.0,
                p99: 0.0,
                max: 0,
            };
        }
        samples.sort_unstable();
        let count = samples.len();
        let mean = samples.iter().map(|&s| s as f64).sum::<f64>() / count as f64;
        let pct = |q: f64| -> f64 {
            let rank = q * (count - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            let frac = rank - lo as f64;
            samples[lo] as f64 * (1.0 - frac) + samples[hi] as f64 * frac
        };
        Self {
            count,
            mean,
            p50: pct(0.50),
            p95: pct(0.95),
            p99: pct(0.99),
            max: *samples.last().expect("non-empty"),
        }
    }
}

/// Number of bins in a [`LatencyHistogram`]: one zero bin plus 8 log-scale
/// sub-bins per power of two across the whole `u64` range.
const HIST_BINS: usize = 1 + 64 * 8;

/// A fixed-size log-scale histogram over nonnegative cycle counts — the
/// streaming replacement for retaining every sample.
///
/// Values bucket into 8 sub-bins per octave (plus an exact zero bin), so
/// every bin spans at most a 9/8 ratio: any quantile read from the
/// histogram is the lower edge of the bin holding the exact nearest-rank
/// sample, i.e. within one bin (≤ 12.5% relative) of it. Values below 16
/// are exact. Count, sum (hence mean) and max are tracked exactly.
///
/// Memory is `O(bins)` — one fixed 513-slot table — independent of the
/// sample count, which is what lets sweep workers run millions of
/// messages without retaining [`MsgRecord`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Sub-bin resolution: `2^3 = 8` bins per octave.
    const SUB_BITS: u32 = 3;

    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            counts: vec![0; HIST_BINS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// The bin index of `value`.
    fn bin_of(value: u64) -> usize {
        if value == 0 {
            return 0;
        }
        let e = 63 - value.leading_zeros();
        let sub = if e >= Self::SUB_BITS {
            (value >> (e - Self::SUB_BITS)) & 7
        } else {
            (value << (Self::SUB_BITS - e)) & 7
        };
        1 + (e as usize) * 8 + sub as usize
    }

    /// The smallest value mapping to bin `idx` (the bin's representative).
    fn bin_lower(idx: usize) -> u64 {
        if idx == 0 {
            return 0;
        }
        let k = idx - 1;
        let (e, sub) = ((k / 8) as u32, (k % 8) as u64);
        if e >= Self::SUB_BITS {
            (8 + sub) << (e - Self::SUB_BITS)
        } else {
            (8 + sub) >> (Self::SUB_BITS - e)
        }
    }

    /// Adds one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bin_of(value)] += 1;
        self.count += 1;
        self.sum += u128::from(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of samples strictly greater than zero.
    #[must_use]
    pub fn nonzero_count(&self) -> u64 {
        self.count - self.counts[0]
    }

    /// Exact largest sample.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact arithmetic mean (sum and count are tracked exactly).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The nearest-rank `q`-quantile, reported as the lower edge of the
    /// bin holding that rank's sample — within one bin of the exact
    /// nearest-rank value (see the type docs for the error bound).
    #[must_use]
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q * (self.count - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > rank {
                return Self::bin_lower(idx) as f64;
            }
        }
        self.max as f64
    }

    /// Summary statistics in the same shape the exact path produces.
    /// Quantiles follow the nearest-rank convention (no interpolation).
    #[must_use]
    #[allow(clippy::cast_possible_truncation)]
    pub fn stats(&self) -> LatencyStats {
        LatencyStats {
            count: self.count as usize,
            mean: self.mean(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            max: self.max,
        }
    }
}

/// Everything recorded about one delivered message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MsgRecord {
    /// Producing ONI.
    pub src: NodeId,
    /// Consuming ONI.
    pub dst: NodeId,
    /// Offered (injection) cycle: when the source wanted to send.
    pub injected: u64,
    /// Cycle the injection gate admitted the message into the network
    /// interface (equals `injected` in open-loop mode).
    pub admitted: u64,
    /// Cycle the transmission actually started (after any queueing).
    pub started: u64,
    /// Cycle the last bit arrived.
    pub completed: u64,
    /// Wavelength count the message transmitted on.
    pub lanes: usize,
    /// Transmission attempts the message took (1 on the fault-free
    /// path; greater after transport-layer retransmissions).
    pub attempts: u32,
}

impl MsgRecord {
    /// End-to-end latency: offered time to last-bit arrival.
    #[must_use]
    pub fn latency(&self) -> u64 {
        self.completed - self.injected
    }

    /// Cycles the closed-loop gate held the message at the source
    /// (0 in open-loop mode).
    #[must_use]
    pub fn stall(&self) -> u64 {
        self.admitted - self.injected
    }

    /// Cycles spent waiting for wavelengths at the network interface
    /// after admission.
    #[must_use]
    pub fn queueing(&self) -> u64 {
        self.started - self.admitted
    }
}

/// Outcome of one open/closed-loop run.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenLoopReport {
    /// Ring size the run used.
    pub nodes: usize,
    /// Comb size the run used.
    pub wavelengths: usize,
    /// Injection policy the run used.
    pub injection: InjectionMode,
    /// Cycle of the last message completion (0 for an empty source).
    pub horizon: u64,
    /// Last offered injection cycle seen from the source.
    pub last_injection: u64,
    /// Messages the run delivered (always exact, in both report modes).
    pub message_count: usize,
    /// Per message, injection order. Populated by the record-retaining
    /// mode ([`ReportMode::Full`](crate::ReportMode)); empty in streaming
    /// mode, where only the histograms below are kept.
    pub records: Vec<MsgRecord>,
    /// Log-scale end-to-end latency histogram (always populated; the
    /// streaming mode's only latency state).
    pub latency_hist: LatencyHistogram,
    /// Log-scale source-stall histogram (always populated).
    pub stall_hist: LatencyHistogram,
    /// Largest number of messages simultaneously in flight through the
    /// engine (offered-but-unretired window) — the streaming mode's
    /// actual memory high-water in message slots.
    pub peak_in_flight: usize,
    /// Total bits offered by the source.
    pub offered_bits: f64,
    /// Total bits delivered (the engine delivers everything eventually;
    /// kept separate so truncated variants stay honest).
    pub delivered_bits: f64,
    /// Messages that could not start transmitting at their admission
    /// cycle: no free wavelength on the path, or an earlier message from
    /// the same ONI still queued (dynamic mode); flow lanes busy
    /// (static mode).
    pub blocked_attempts: usize,
    /// Wavelength collisions (static mode; 0 in dynamic mode, which
    /// arbitrates). Counts pairs of transmission attempts that drive a
    /// common lane on a common directed segment during overlapping
    /// cycles (half-open `[start, end)` spans, so back-to-back attempts
    /// do not collide). Failed attempts count, since they drove their
    /// lanes; a pair counts once per `(segment, lane)` slot it shares.
    /// The count is the same in both report modes.
    pub conflict_count: usize,
    /// Busy wavelength-cycles per directed segment.
    pub segment_busy: Vec<(DirectedSegment, u64)>,
    /// Busy wavelength-cycles per wavelength, summed over segments.
    pub lane_busy: Vec<u64>,
    /// Time-averaged fraction of the per-source credit windows in use
    /// over the run (0 outside credit mode). Under per-destination
    /// credit pools the denominator is the full
    /// `window × (nodes − 1)` pool per source.
    pub credit_occupancy: f64,
    /// Transmission attempts that failed (lane outage, corruption, or a
    /// go-back-N out-of-order discard). 0 on the fault-free path.
    pub failed_attempts: usize,
    /// Bits spent on those failed attempts (they drove lanes and burned
    /// energy without delivering).
    pub retransmitted_bits: f64,
    /// Messages permanently lost (never retired; excluded from
    /// `delivered_bits` and every latency statistic).
    pub lost_messages: usize,
    /// Bits of the lost messages.
    pub lost_bits: f64,
    /// What the event core did to produce this report (no artifact
    /// renders them).
    pub counters: EngineCounters,
}

/// Plain counts of the open-loop event core's work in one run: events by
/// kind, wavelength claims and the wake-ups of blocked heads. They do not
/// feed any other report field.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Events pushed onto the event queue. Every run drains the queue, so
    /// this equals [`EventCounts::total`] of `popped`.
    pub pushed: u64,
    /// Events popped, by kind.
    pub popped: EventCounts,
    /// Dynamic-mode claims: one per attempt to start a message on free
    /// lanes along its whole path.
    pub claims: u64,
    /// Claims that got lanes: one per dynamic transmission start.
    pub grants: u64,
    /// Blocked NI heads considered for a wake-up: after a release on
    /// their path, after a lane recovered, or after the stranded-traffic
    /// sweep lost the head in front of them.
    pub waiters_examined: u64,
    /// Those whose lane test passed, so that they made a full claim
    /// (whether or not it granted). The rest cost no claim.
    pub waiters_passed: u64,
}

/// Events popped by the open-loop event core, one count per kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Transmissions that drove their last bit (delivered or failed).
    pub completed: u64,
    /// Static-mode transmission starts.
    pub started: u64,
    /// Closed-loop gate wake-ups, stale ones included.
    pub gate_wakes: u64,
    /// Messages offered to their source's gate.
    pub offered: u64,
    /// Lane outages.
    pub lane_downs: u64,
    /// Lane recoveries.
    pub lane_ups: u64,
    /// Transport retransmissions.
    pub redos: u64,
    /// Messages lost at admission (every lane of their flow down).
    pub abandons: u64,
}

impl EventCounts {
    /// Events popped of every kind.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.completed
            + self.started
            + self.gate_wakes
            + self.offered
            + self.lane_downs
            + self.lane_ups
            + self.redos
            + self.abandons
    }
}

impl OpenLoopReport {
    /// Latency statistics over every delivered message: exact
    /// (interpolated quantiles) when [`OpenLoopReport::records`] are
    /// retained, histogram-based (nearest-rank quantiles, within one log
    /// bin of exact) in streaming mode.
    #[must_use]
    pub fn latency(&self) -> LatencyStats {
        if self.records.is_empty() {
            self.latency_hist.stats()
        } else {
            LatencyStats::from_samples(self.records.iter().map(MsgRecord::latency).collect())
        }
    }

    /// Stall-time statistics: cycles the closed-loop gate held messages
    /// at their source (all-zero in open-loop mode). Exact with retained
    /// records, histogram-based in streaming mode.
    #[must_use]
    pub fn stall(&self) -> LatencyStats {
        if self.records.is_empty() {
            self.stall_hist.stats()
        } else {
            LatencyStats::from_samples(self.records.iter().map(MsgRecord::stall).collect())
        }
    }

    /// Messages the gate stalled for at least one cycle (exact in both
    /// modes — the zero bin is exact).
    #[must_use]
    #[allow(clippy::cast_possible_truncation)]
    pub fn stalled_count(&self) -> usize {
        if self.records.is_empty() {
            self.stall_hist.nonzero_count() as usize
        } else {
            self.records.iter().filter(|r| r.stall() > 0).count()
        }
    }

    /// Latency statistics per ordered `(src, dst)` flow, sorted by flow.
    ///
    /// Requires retained records; the streaming mode returns an empty
    /// vector (per-flow distributions are exactly the per-message state
    /// it exists to drop).
    #[must_use]
    pub fn latency_by_flow(&self) -> Vec<((NodeId, NodeId), LatencyStats)> {
        let mut per_flow: HashMap<(NodeId, NodeId), Vec<u64>> = HashMap::new();
        for r in &self.records {
            per_flow
                .entry((r.src, r.dst))
                .or_default()
                .push(r.latency());
        }
        let mut out: Vec<_> = per_flow
            .into_iter()
            .map(|(flow, samples)| (flow, LatencyStats::from_samples(samples)))
            .collect();
        out.sort_by_key(|&((s, d), _)| (s, d));
        out
    }

    /// Offered load in bits per cycle over the offered window
    /// `[0, last_injection]` (a burst entirely at cycle 0 is a 1-cycle
    /// window, not a division by zero).
    #[must_use]
    pub fn offered_load(&self) -> f64 {
        if self.message_count == 0 {
            return 0.0;
        }
        self.offered_bits / (self.last_injection + 1) as f64
    }

    /// Accepted throughput in bits per cycle over the whole run (the
    /// saturation-curve y-axis companion). Under closed-loop injection
    /// the run stretches past the offered window when sources throttle,
    /// so this plateaus at the sustained knee instead of growing with
    /// queue depth.
    #[must_use]
    pub fn accepted_throughput(&self) -> f64 {
        if self.horizon == 0 {
            return 0.0;
        }
        self.delivered_bits / self.horizon as f64
    }

    /// Mean occupancy of the comb: busy wavelength-cycles over
    /// `horizon × 2·nodes segments × wavelengths` capacity.
    #[must_use]
    pub fn mean_wavelength_occupancy(&self) -> f64 {
        if self.horizon == 0 || self.wavelengths == 0 {
            return 0.0;
        }
        let busy: u64 = self.segment_busy.iter().map(|&(_, b)| b).sum();
        let capacity = self.horizon as f64 * (2 * self.nodes) as f64 * self.wavelengths as f64;
        busy as f64 / capacity
    }

    /// Occupancy of one wavelength across the whole ring.
    #[must_use]
    pub fn lane_occupancy(&self, lane: WavelengthId) -> f64 {
        if self.horizon == 0 {
            return 0.0;
        }
        let busy = self.lane_busy.get(lane.index()).copied().unwrap_or(0);
        busy as f64 / (self.horizon as f64 * (2 * self.nodes) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onoc_topology::Direction;

    fn seg(i: usize) -> DirectedSegment {
        DirectedSegment {
            index: i,
            direction: Direction::Clockwise,
        }
    }

    #[test]
    fn conflict_display_names_everything() {
        let c = ChannelConflict {
            segment: seg(3),
            channel: WavelengthId(1),
            first: CommId(0),
            second: CommId(4),
            overlap: (10, 20),
        };
        let msg = c.to_string();
        assert!(msg.contains("c0") && msg.contains("c4") && msg.contains("λ2"));
        assert!(msg.contains("10..20"));
    }

    #[test]
    fn utilization_arithmetic() {
        let report = SimReport {
            makespan: 100,
            task_spans: vec![],
            comm_spans: vec![],
            granted: vec![],
            blocked_attempts: 0,
            conflicts: vec![],
            segment_busy: vec![(seg(0), 50), (seg(1), 200)],
        };
        assert!((report.segment_utilization(seg(0), 1) - 0.5).abs() < 1e-12);
        assert!((report.segment_utilization(seg(1), 4) - 0.5).abs() < 1e-12);
        assert_eq!(report.segment_utilization(seg(2), 4), 0.0);
    }

    #[test]
    fn latency_stats_percentiles() {
        let stats = LatencyStats::from_samples((1..=100).collect());
        assert_eq!(stats.count, 100);
        assert!((stats.mean - 50.5).abs() < 1e-12);
        assert!((stats.p50 - 50.5).abs() < 1e-9);
        assert!((stats.p99 - 99.01).abs() < 1e-9);
        assert_eq!(stats.max, 100);
        let empty = LatencyStats::from_samples(Vec::new());
        assert_eq!(empty.count, 0);
        assert_eq!(empty.max, 0);
    }

    #[test]
    fn histogram_is_exact_for_small_values() {
        let mut h = LatencyHistogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 16);
        assert_eq!(h.max(), 15);
        assert_eq!(h.nonzero_count(), 15);
        // Values below 16 land in exact single-value bins.
        for v in 0..16u64 {
            assert_eq!(
                LatencyHistogram::bin_lower(LatencyHistogram::bin_of(v)),
                v,
                "value {v}"
            );
        }
        assert!((h.mean() - 7.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_bins_bound_relative_error() {
        // Every value's bin lower edge is within 12.5% below the value.
        for v in [
            1u64,
            17,
            100,
            513,
            4_095,
            1 << 20,
            (1 << 40) + 12345,
            u64::MAX,
        ] {
            let lower = LatencyHistogram::bin_lower(LatencyHistogram::bin_of(v));
            assert!(lower <= v, "lower {lower} > value {v}");
            assert!(
                (v - lower) as f64 <= v as f64 / 8.0,
                "value {v} lower {lower}"
            );
        }
    }

    #[test]
    fn histogram_quantiles_match_nearest_rank_bins() {
        let samples: Vec<u64> = (0..1000).map(|k| k * k % 7919).collect();
        let mut h = LatencyHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
            let exact = sorted[(q * (sorted.len() - 1) as f64).round() as usize];
            let approx = h.quantile(q);
            let lower = LatencyHistogram::bin_lower(LatencyHistogram::bin_of(exact)) as f64;
            assert!(
                (approx - lower).abs() < 1e-9,
                "q {q}: got {approx}, exact nearest-rank {exact} (bin lower {lower})"
            );
        }
        let empty = LatencyHistogram::new();
        assert_eq!(empty.quantile(0.5), 0.0);
        assert_eq!(empty.stats().count, 0);
    }

    #[test]
    fn record_splits_stall_queueing_and_latency() {
        let r = MsgRecord {
            src: NodeId(0),
            dst: NodeId(3),
            injected: 10,
            admitted: 25,
            started: 40,
            completed: 140,
            lanes: 1,
            attempts: 1,
        };
        assert_eq!(r.stall(), 15);
        assert_eq!(r.queueing(), 15);
        assert_eq!(r.latency(), 130);
    }

    #[test]
    fn utilization_degenerate_cases() {
        let report = SimReport {
            makespan: 0,
            task_spans: vec![],
            comm_spans: vec![],
            granted: vec![],
            blocked_attempts: 0,
            conflicts: vec![],
            segment_busy: vec![],
        };
        assert_eq!(report.segment_utilization(seg(0), 4), 0.0);
    }
}
