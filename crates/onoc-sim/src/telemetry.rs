//! Windowed time-series and attribution telemetry over the
//! [`SimProbe`] fact stream.
//!
//! The engine's observer API (admissions with stall and source,
//! transmission starts/completions with lanes × hops × endpoints × ECN
//! mark, retirements with the full [`MsgRecord`]) carries everything a
//! time-resolved view needs, so telemetry is pure fold state:
//!
//! * [`TimeSeriesProbe`] — fixed-window series of offered/accepted
//!   throughput, gate/queue/in-flight occupancy, stall cycles, ECN
//!   marks, lane and segment utilization, and a windowed Jain's
//!   fairness index over per-source accepted bits; plus per-source
//!   latency histograms (the 513-bin [`LatencyHistogram`]) and
//!   per-flow retired-bit totals.
//! * [`ChromeTraceProbe`] — retirements as Chrome trace-event
//!   ("Perfetto") duration events, one track per source, loadable in
//!   `ui.perfetto.dev`; fault runs additionally carry drop instants,
//!   lane-outage spans and retry counts.
//!
//! Both compose with any other probe through the `(A, B)` pair impl:
//!
//! ```
//! use onoc_sim::{
//!     DynamicPolicy, EnergyModel, EnergyProbe, OpenLoopSimulator, TimeSeriesProbe,
//!     TrafficEvent, WavelengthMode,
//! };
//! use onoc_topology::{NodeId, RingTopology};
//! use onoc_units::{Bits, BitsPerCycle};
//!
//! let sim = OpenLoopSimulator::new(
//!     RingTopology::new(16),
//!     8,
//!     BitsPerCycle::new(1.0),
//!     WavelengthMode::Dynamic(DynamicPolicy::Single),
//! );
//! let mut energy = EnergyProbe::new(EnergyModel::paper(16, 8), 16, 8);
//! let mut telemetry = TimeSeriesProbe::new(64, 16, 8);
//! let events = (0..32u64).map(|k| TrafficEvent {
//!     time: k,
//!     src: NodeId((k % 16) as usize),
//!     dst: NodeId(((k + 3) % 16) as usize),
//!     volume: Bits::new(128.0),
//! });
//! sim.run_probed(events, &mut (&mut energy, &mut telemetry)).unwrap();
//! let series = telemetry.report();
//! assert_eq!(series.total_retired(), 32);
//! ```
//!
//! Memory follows what the series reports. Per-source and per-flow
//! totals are sized at construction; per-window state grows with the
//! windows the run reaches (one bin and one per-source row each) and,
//! for the per-flow fairness index, with the `(window, flow)` pairs that
//! retire bits: one cell each, not a `windows × nodes²` matrix. Both
//! stores grow only past the capacity reserved by
//! [`TimeSeriesProbe::with_horizon_hint`], so a hinted probe keeps the
//! zero-alloc admit path allocation-free (the counting-allocator
//! regression test runs with one attached). The window count is capped
//! at [`MAX_TELEMETRY_WINDOWS`]: a fact past the cap is not booked and
//! the probe reports itself [truncated](TimeSeriesProbe::truncated).

use onoc_topology::NodeId;

use crate::fault::{DropFact, HealFact};
use crate::probe::{SimProbe, TxFact};
use crate::report::{LatencyHistogram, LatencyStats, MsgRecord};

/// One window's folded counters (internal accumulation form of
/// [`WindowStats`] — cumulative occupancies are derived at fold time).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct WindowBin {
    offered: u64,
    admitted: u64,
    started: u64,
    completed: u64,
    retired: u64,
    retired_bits: f64,
    stall_cycles: u64,
    ecn_marks: u64,
    lane_cycles: u64,
    seg_cycles: u64,
    failed: u64,
    retransmitted_bits: f64,
    lost: u64,
}

/// One window of a [`TimeSeries`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStats {
    /// First cycle of the window (`index × window`).
    pub start: u64,
    /// Messages offered (injection attempts) in the window.
    pub offered: u64,
    /// Messages passing their injection gate in the window.
    pub admitted: u64,
    /// Transmissions starting in the window.
    pub started: u64,
    /// Transmissions delivering their last bit in the window.
    pub completed: u64,
    /// Messages retiring (completion cycle) in the window.
    pub retired: u64,
    /// Bits retired in the window — accepted throughput × window.
    pub retired_bits: f64,
    /// Source-stall cycles of messages admitted in the window.
    pub stall_cycles: u64,
    /// ECN congestion marks set by starts in the window.
    pub ecn_marks: u64,
    /// Lane-on cycles overlapping the window (Σ lanes × overlap).
    pub lane_cycles: u64,
    /// Segment-busy cycles overlapping the window (Σ lanes × hops ×
    /// overlap).
    pub seg_cycles: u64,
    /// Transmission attempts failing (lane outage, corruption or
    /// go-back-N reorder) in the window.
    pub failed: u64,
    /// Bits of failed attempts ending in the window — the wasted
    /// transmission volume retransmissions must make up.
    pub retransmitted_bits: f64,
    /// Messages declared permanently lost in the window.
    pub lost: u64,
    /// Messages held at their source gate at the window's end
    /// (offered but not yet admitted — credit/ECN backpressure).
    /// Residual fault losses that never pass a gate keep this gauge
    /// non-zero through the tail of the run.
    pub gate_held: u64,
    /// Messages admitted but not yet transmitting at the window's end
    /// (approximate under fault retransmissions, where one admission
    /// spawns several starts; the engine clamps it at zero).
    pub queue_depth: u64,
    /// Transmissions in flight at the window's end.
    pub in_flight: u64,
    /// Jain's fairness index over per-source bits retired in the
    /// window: `(Σx)² / (n·Σx²)`, 1.0 for an idle window.
    pub fairness: f64,
    /// Jain's fairness index over per-flow (`src → dst`) bits retired
    /// in the window. Unlike [`fairness`](Self::fairness), whose
    /// population is the fixed set of sources, the flow population is
    /// sparse (at most `nodes² − nodes` directed pairs, most idle), so
    /// the index runs over the flows *active in the window* only:
    /// `(Σx)² / (k·Σx²)` with `k` the number of flows retiring bits.
    /// 1.0 for an idle window.
    pub flow_fairness: f64,
}

/// Most windows a [`TimeSeriesProbe`] folds. A fact that falls in a
/// later window is not booked, and the probe reports itself
/// [truncated](TimeSeriesProbe::truncated) instead of growing with
/// simulated time.
pub const MAX_TELEMETRY_WINDOWS: usize = 1 << 16;

/// The bits one flow retired in one window: the sparse form of a
/// `windows × nodes²` matrix, one cell per `(window, flow)` pair that
/// retires bits.
#[derive(Debug, Clone, Copy)]
struct FlowCell {
    bits: f64,
    window: u32,
    flow: usize,
    /// The flow's cell of the next older window it retired into
    /// ([`NO_CELL`] for its oldest), so each flow's cells form a chain,
    /// newest window first.
    older: usize,
}

/// The end of a flow's cell chain.
const NO_CELL: usize = usize::MAX;

/// Jain's index over one window's flow cells, in flow order: 1.0 when
/// no cell holds bits.
///
/// Folding only the cells gives the bits of the dense row fold: a zero
/// entry adds `+0.0`, which leaves a positive partial sum unchanged and
/// is not counted as active.
fn jain_over_cells(cells: &[FlowCell]) -> f64 {
    let sum: f64 = cells.iter().map(|c| c.bits).sum();
    if sum <= 0.0 {
        return 1.0;
    }
    let sq: f64 = cells.iter().map(|c| c.bits * c.bits).sum();
    #[allow(clippy::cast_precision_loss)]
    let active = cells.iter().filter(|c| c.bits > 0.0).count() as f64;
    sum * sum / (active * sq)
}

/// The folded time-series outcome of one engine run, from
/// [`TimeSeriesProbe::report`].
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    /// Window length in cycles.
    pub window: u64,
    /// Ring size.
    pub nodes: usize,
    /// Comb size.
    pub wavelengths: usize,
    /// Cycle of the last completion.
    pub horizon: u64,
    /// Last offered cycle.
    pub last_injection: u64,
    /// The per-window series, index `i` covering cycles
    /// `[i·window, (i+1)·window)`.
    pub windows: Vec<WindowStats>,
    /// Per-source end-to-end latency statistics (nearest-rank
    /// histogram quantiles, ≤ 12.5% relative).
    pub source_latency: Vec<LatencyStats>,
    /// Messages retired per source.
    pub source_retired: Vec<u64>,
    /// Bits retired per source.
    pub source_retired_bits: Vec<f64>,
    /// Bits retired per flow (`src × nodes + dst`).
    pub flow_bits: Vec<f64>,
    /// Messages retired per flow.
    pub flow_messages: Vec<u64>,
}

impl TimeSeries {
    /// Total messages offered across every window.
    #[must_use]
    pub fn total_offered(&self) -> u64 {
        self.windows.iter().map(|w| w.offered).sum()
    }

    /// Total messages admitted across every window.
    #[must_use]
    pub fn total_admitted(&self) -> u64 {
        self.windows.iter().map(|w| w.admitted).sum()
    }

    /// Total messages retired across every window.
    #[must_use]
    pub fn total_retired(&self) -> u64 {
        self.windows.iter().map(|w| w.retired).sum()
    }

    /// Total bits retired across every window.
    #[must_use]
    pub fn total_retired_bits(&self) -> f64 {
        self.windows.iter().map(|w| w.retired_bits).sum()
    }

    /// Total source-stall cycles across every window.
    #[must_use]
    pub fn total_stall_cycles(&self) -> u64 {
        self.windows.iter().map(|w| w.stall_cycles).sum()
    }

    /// Total ECN marks across every window.
    #[must_use]
    pub fn total_ecn_marks(&self) -> u64 {
        self.windows.iter().map(|w| w.ecn_marks).sum()
    }

    /// Total segment-busy (lane × hop) cycles across every window.
    #[must_use]
    pub fn total_seg_cycles(&self) -> u64 {
        self.windows.iter().map(|w| w.seg_cycles).sum()
    }

    /// Total failed transmission attempts across every window.
    #[must_use]
    pub fn total_failed(&self) -> u64 {
        self.windows.iter().map(|w| w.failed).sum()
    }

    /// Total wasted (failed-attempt) bits across every window.
    #[must_use]
    pub fn total_retransmitted_bits(&self) -> f64 {
        self.windows.iter().map(|w| w.retransmitted_bits).sum()
    }

    /// Total messages lost across every window.
    #[must_use]
    pub fn total_lost(&self) -> u64 {
        self.windows.iter().map(|w| w.lost).sum()
    }

    /// Accepted throughput of window `i` in bits/cycle.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn accepted_bits_per_cycle(&self, i: usize) -> f64 {
        self.windows[i].retired_bits / self.window as f64
    }

    /// Mean active-lane utilization of window `i`: lane-on cycles over
    /// the window's `wavelengths × window` lane-cycles.
    ///
    /// A lane carries spatially disjoint transmissions concurrently, so
    /// spatial reuse on the ring pushes this above 1.0; for a
    /// capacity-bounded view use
    /// [`segment_utilization`](Self::segment_utilization).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn lane_utilization(&self, i: usize) -> f64 {
        self.windows[i].lane_cycles as f64 / (self.window * self.wavelengths as u64) as f64
    }

    /// Mean directed-segment utilization of window `i`: segment-busy
    /// cycles over the window's `2·nodes × wavelengths × window`
    /// segment-lane-cycles.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn segment_utilization(&self, i: usize) -> f64 {
        let capacity = self.window * 2 * self.nodes as u64 * self.wavelengths as u64;
        self.windows[i].seg_cycles as f64 / capacity as f64
    }

    /// Fraction of window `i`'s source-cycles spent gate-stalled
    /// (stall cycles over `nodes × window`).
    ///
    /// A message's full stall is booked to the window that finally
    /// admits it, so deep closed-loop backlogs push individual windows
    /// above 1.0 while the run total stays conserved.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn stall_fraction(&self, i: usize) -> f64 {
        self.windows[i].stall_cycles as f64 / (self.window * self.nodes as u64) as f64
    }
}

/// A [`SimProbe`] folding the fact stream into a [`TimeSeries`].
///
/// Per-source and per-flow totals are sized at construction. The window
/// bins and the per-source rows grow with the windows the run reaches,
/// and the per-flow fairness cells with the `(window, flow)` pairs that
/// retire bits, allocation-free up to the capacity reserved with
/// [`with_horizon_hint`](Self::with_horizon_hint). Neither grows past
/// [`MAX_TELEMETRY_WINDOWS`] windows.
#[derive(Debug, Clone)]
pub struct TimeSeriesProbe {
    window: u64,
    nodes: usize,
    wavelengths: usize,
    bins: Vec<WindowBin>,
    /// Flat `bins.len() × nodes` matrix of per-source retired bits.
    src_window_bits: Vec<f64>,
    /// One cell per `(window, flow)` pair that retired bits, in the order
    /// the pairs first retired.
    flow_cells: Vec<FlowCell>,
    /// Per flow (`src × nodes + dst`), its newest-window cell
    /// ([`NO_CELL`] before its first retirement).
    flow_newest: Vec<usize>,
    /// Whether a fact fell past [`MAX_TELEMETRY_WINDOWS`] windows.
    truncated: bool,
    src_hists: Vec<LatencyHistogram>,
    src_retired: Vec<u64>,
    src_retired_bits: Vec<f64>,
    flow_bits: Vec<f64>,
    flow_messages: Vec<u64>,
    horizon: u64,
    last_injection: u64,
}

impl TimeSeriesProbe {
    /// A probe with `window`-cycle bins for runs on a `nodes`-core ring
    /// with a `wavelengths`-channel comb.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    #[must_use]
    pub fn new(window: u64, nodes: usize, wavelengths: usize) -> Self {
        assert!(window > 0, "the telemetry window must be at least 1 cycle");
        Self {
            window,
            nodes,
            wavelengths,
            bins: Vec::new(),
            src_window_bits: Vec::new(),
            flow_cells: Vec::new(),
            flow_newest: vec![NO_CELL; nodes * nodes],
            truncated: false,
            src_hists: vec![LatencyHistogram::new(); nodes],
            src_retired: vec![0; nodes],
            src_retired_bits: vec![0.0; nodes],
            flow_bits: vec![0.0; nodes * nodes],
            flow_messages: vec![0; nodes * nodes],
            horizon: 0,
            last_injection: 0,
        }
    }

    /// Reserves window capacity for a run expected to span `horizon`
    /// cycles (at most [`MAX_TELEMETRY_WINDOWS`] windows), with one flow
    /// cell per source per window, so folding it allocates nothing.
    #[must_use]
    pub fn with_horizon_hint(mut self, horizon: u64) -> Self {
        #[allow(clippy::cast_possible_truncation)]
        let bins = (horizon / self.window + 2).min(MAX_TELEMETRY_WINDOWS as u64) as usize;
        self.bins.reserve(bins);
        self.src_window_bits.reserve(bins * self.nodes);
        self.flow_cells.reserve(bins * self.nodes);
        self
    }

    /// Whether a fact fell past [`MAX_TELEMETRY_WINDOWS`] windows. The
    /// probe books no window past the cap, so its series then stops short
    /// of the run; its per-source and per-flow totals stay whole.
    #[must_use]
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// The window length in cycles.
    #[must_use]
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Clears the folded state so the probe can observe another run
    /// (buffers keep their capacity).
    pub fn reset(&mut self) {
        self.bins.clear();
        self.src_window_bits.clear();
        self.flow_cells.clear();
        self.flow_newest.fill(NO_CELL);
        self.truncated = false;
        for h in &mut self.src_hists {
            *h = LatencyHistogram::new();
        }
        self.src_retired.fill(0);
        self.src_retired_bits.fill(0.0);
        self.flow_bits.fill(0.0);
        self.flow_messages.fill(0);
        self.horizon = 0;
        self.last_injection = 0;
    }

    #[allow(clippy::cast_possible_truncation)]
    fn bin_index(&self, cycle: u64) -> usize {
        (cycle / self.window) as usize
    }

    /// Grows the window vector (and the per-source matrix in lockstep)
    /// to cover bin `idx`; `None`, and the probe truncated, past
    /// [`MAX_TELEMETRY_WINDOWS`].
    fn ensure_bin(&mut self, idx: usize) -> Option<&mut WindowBin> {
        if idx >= MAX_TELEMETRY_WINDOWS {
            self.truncated = true;
            return None;
        }
        if self.bins.len() <= idx {
            self.bins.resize(idx + 1, WindowBin::default());
            self.src_window_bits.resize((idx + 1) * self.nodes, 0.0);
        }
        Some(&mut self.bins[idx])
    }

    /// Adds `bits` to the cell of `(window, flow)`, creating it the first
    /// time the pair retires bits.
    ///
    /// Retirements come in message order, not window order, so a flow
    /// can return to a window older than its newest cell (a late head, a
    /// retried attempt): the walk down the flow's chain finds that cell,
    /// or the place to link a new one, after as many cells as the
    /// retirement is late.
    fn add_flow_bits(&mut self, window: usize, flow: usize, bits: f64) {
        // Below MAX_TELEMETRY_WINDOWS, so it fits.
        #[allow(clippy::cast_possible_truncation)]
        let window = window as u32;
        let (mut newer, mut at) = (NO_CELL, self.flow_newest[flow]);
        while at != NO_CELL && self.flow_cells[at].window > window {
            newer = at;
            at = self.flow_cells[at].older;
        }
        if at != NO_CELL && self.flow_cells[at].window == window {
            self.flow_cells[at].bits += bits;
            return;
        }
        let cell = self.flow_cells.len();
        self.flow_cells.push(FlowCell {
            bits,
            window,
            flow,
            older: at,
        });
        match newer {
            NO_CELL => self.flow_newest[flow] = cell,
            newer => self.flow_cells[newer].older = cell,
        }
    }

    /// Spreads the busy interval `[start, end)` of a transmission on
    /// `lanes` lanes over `hops` segments across every window it
    /// overlaps.
    #[inline]
    fn spread(&mut self, (start, end): (u64, u64), lanes: usize, hops: usize) {
        if end <= start {
            return;
        }
        let (lanes, hops) = (lanes as u64, hops as u64);
        let last = self.bin_index(end - 1);
        for idx in self.bin_index(start)..=last {
            let w_start = idx as u64 * self.window;
            let overlap = end.min(w_start.saturating_add(self.window)) - start.max(w_start);
            let Some(b) = self.ensure_bin(idx) else {
                break;
            };
            b.lane_cycles += overlap * lanes;
            b.seg_cycles += overlap * lanes * hops;
        }
    }

    /// Assembles the time series of the observed run.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn report(&self) -> TimeSeries {
        let (mut offered, mut admitted, mut started, mut completed, mut failed) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        // Each window's flow cells in flow order, so the fairness fold
        // adds them in the dense row's order.
        let mut cells = self.flow_cells.clone();
        cells.sort_unstable_by_key(|c| (c.window, c.flow));
        let mut rest = cells.as_slice();
        let windows = self
            .bins
            .iter()
            .enumerate()
            .map(|(i, bin)| {
                offered += bin.offered;
                admitted += bin.admitted;
                started += bin.started;
                completed += bin.completed;
                failed += bin.failed;
                let xs = &self.src_window_bits[i * self.nodes..(i + 1) * self.nodes];
                let sum: f64 = xs.iter().sum();
                let sq: f64 = xs.iter().map(|x| x * x).sum();
                let fairness = if sum > 0.0 {
                    sum * sum / (self.nodes as f64 * sq)
                } else {
                    1.0
                };
                let here = rest.partition_point(|c| c.window as usize == i);
                let (row, later) = rest.split_at(here);
                rest = later;
                let flow_fairness = jain_over_cells(row);
                WindowStats {
                    start: i as u64 * self.window,
                    offered: bin.offered,
                    admitted: bin.admitted,
                    started: bin.started,
                    completed: bin.completed,
                    retired: bin.retired,
                    retired_bits: bin.retired_bits,
                    stall_cycles: bin.stall_cycles,
                    ecn_marks: bin.ecn_marks,
                    lane_cycles: bin.lane_cycles,
                    seg_cycles: bin.seg_cycles,
                    failed: bin.failed,
                    retransmitted_bits: bin.retransmitted_bits,
                    lost: bin.lost,
                    // Saturating: a full engine stream keeps these
                    // ordered (offered ≥ admitted ≥ started ≥
                    // completed + failed), but partial hand-fed streams
                    // may not.
                    gate_held: offered.saturating_sub(admitted),
                    queue_depth: admitted.saturating_sub(started),
                    in_flight: started.saturating_sub(completed + failed),
                    fairness,
                    flow_fairness,
                }
            })
            .collect();
        TimeSeries {
            window: self.window,
            nodes: self.nodes,
            wavelengths: self.wavelengths,
            horizon: self.horizon,
            last_injection: self.last_injection,
            windows,
            source_latency: self.src_hists.iter().map(LatencyHistogram::stats).collect(),
            source_retired: self.src_retired.clone(),
            source_retired_bits: self.src_retired_bits.clone(),
            flow_bits: self.flow_bits.clone(),
            flow_messages: self.flow_messages.clone(),
        }
    }
}

impl SimProbe for TimeSeriesProbe {
    #[inline]
    fn offered(&mut self, time: u64, _src: NodeId) {
        // Booked from the engine's offer fact rather than derived from
        // `admitted − stall`, so messages a fault run loses before they
        // ever pass a gate still count as offered load.
        if let Some(b) = self.ensure_bin(self.bin_index(time)) {
            b.offered += 1;
        }
        self.last_injection = self.last_injection.max(time);
    }

    #[inline]
    fn admitted(&mut self, now: u64, stall: u64, _src: NodeId) {
        if let Some(b) = self.ensure_bin(self.bin_index(now)) {
            b.admitted += 1;
            b.stall_cycles += stall;
        }
    }

    #[inline]
    fn started(&mut self, fact: TxFact) {
        if let Some(b) = self.ensure_bin(self.bin_index(fact.start)) {
            b.started += 1;
            if fact.marked {
                b.ecn_marks += 1;
            }
        }
    }

    #[inline]
    fn completed(&mut self, fact: TxFact) {
        if let Some(b) = self.ensure_bin(self.bin_index(fact.end)) {
            b.completed += 1;
        }
        self.spread((fact.start, fact.end), fact.lane_count(), fact.hops);
    }

    #[inline]
    fn dropped(&mut self, fact: DropFact) {
        if let Some(b) = self.ensure_bin(self.bin_index(fact.end)) {
            b.failed += 1;
            b.retransmitted_bits += fact.bits;
        }
        // The failed attempt drove its lanes for the full span: spread
        // the busy interval exactly as a completion would.
        self.spread((fact.start, fact.end), fact.lane_count(), fact.hops);
    }

    #[inline]
    fn lost(&mut self, record: &MsgRecord, _volume_bits: f64, _attempts: u32) {
        if let Some(b) = self.ensure_bin(self.bin_index(record.completed)) {
            b.lost += 1;
        }
    }

    #[inline]
    fn retired(&mut self, record: &MsgRecord, volume_bits: f64, _hops: usize) {
        let (src, nodes) = (record.src.0, self.nodes);
        let flow = src * nodes + record.dst.0;
        let idx = self.bin_index(record.completed);
        if let Some(b) = self.ensure_bin(idx) {
            b.retired += 1;
            b.retired_bits += volume_bits;
            self.src_window_bits[idx * nodes + src] += volume_bits;
            self.add_flow_bits(idx, flow, volume_bits);
        }
        self.src_hists[src].record(record.latency());
        self.src_retired[src] += 1;
        self.src_retired_bits[src] += volume_bits;
        self.flow_bits[flow] += volume_bits;
        self.flow_messages[flow] += 1;
    }

    #[inline]
    fn finished(&mut self, horizon: u64, last_injection: u64) {
        self.horizon = horizon;
        self.last_injection = last_injection;
        // Materialise the trailing idle windows up to the horizon so the
        // series always covers the whole run.
        if horizon > 0 {
            let last = self.bin_index(horizon - 1);
            self.ensure_bin(last);
        }
    }
}

/// A [`SimProbe`] exporting every retirement as a Chrome trace-event
/// duration ("X") event — the JSON the Perfetto UI and
/// `chrome://tracing` load directly.
///
/// The trace timeline is in engine cycles, written as the format's
/// microsecond `ts`/`dur` fields (1 cycle = 1 µs on screen). Each
/// source is one track (`tid`), and every event carries the message's
/// destination, bits, hops, lane count, gate stall and NI queueing as
/// `args`. Under fault injection the trace is enriched: retirements
/// that needed retransmission carry an `attempts` arg, every dropped
/// attempt renders as an instant ("i") event on its source track, lane
/// outages render as duration spans on a separate `pid:1` process with
/// one track per lane, and every mid-run heal as a process-scoped
/// instant on the healed lane's track of that process. Fault-free runs
/// produce exactly the pre-fault document.
#[derive(Debug, Clone, Default)]
pub struct ChromeTraceProbe {
    events: Vec<(MsgRecord, f64, usize)>,
    drops: Vec<DropFact>,
    /// Closed lane outages as `(lane, down, up)`.
    lane_spans: Vec<(usize, u64, u64)>,
    /// Lanes currently down: `(lane, since)`.
    lane_open: Vec<(usize, u64)>,
    /// Mid-run heals, rendered as instants on the fault process.
    heals: Vec<HealFact>,
    horizon: u64,
}

impl ChromeTraceProbe {
    /// An empty exporter.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An exporter with room for `messages` retirements.
    #[must_use]
    pub fn with_capacity(messages: usize) -> Self {
        Self {
            events: Vec::with_capacity(messages),
            ..Self::default()
        }
    }

    /// Number of events captured.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events were captured.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Renders the captured run as Chrome trace-event JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(
            64 + self.events.len() * 160 + self.drops.len() * 120 + self.lane_spans.len() * 96,
        );
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        for (r, bits, hops) in &self.events {
            if !core::mem::take(&mut first) {
                out.push(',');
            }
            let attempts = if r.attempts > 1 {
                format!(",\"attempts\":{}", r.attempts)
            } else {
                String::new()
            };
            out.push_str(&format!(
                "{{\"name\":\"{src}->{dst}\",\"cat\":\"tx\",\"ph\":\"X\",\
                 \"ts\":{ts},\"dur\":{dur},\"pid\":0,\"tid\":{src},\
                 \"args\":{{\"dst\":{dst},\"bits\":{bits},\"hops\":{hops},\
                 \"lanes\":{lanes},\"stall\":{stall},\"queueing\":{queueing}{attempts}}}}}",
                src = r.src.0,
                dst = r.dst.0,
                ts = r.started,
                dur = r.completed - r.started,
                bits = bits,
                hops = hops,
                lanes = r.lanes,
                stall = r.stall(),
                queueing = r.queueing(),
            ));
        }
        for d in &self.drops {
            if !core::mem::take(&mut first) {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{name}\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"t\",\
                 \"ts\":{ts},\"pid\":0,\"tid\":{src},\
                 \"args\":{{\"dst\":{dst},\"bits\":{bits},\"attempt\":{attempt}}}}}",
                name = d.cause.name(),
                ts = d.end,
                src = d.src.0,
                dst = d.dst.0,
                bits = d.bits,
                attempt = d.attempt,
            ));
        }
        let opens = self
            .lane_open
            .iter()
            .map(|&(lane, since)| (lane, since, self.horizon.max(since)));
        for (lane, down, up) in self.lane_spans.iter().copied().chain(opens) {
            if !core::mem::take(&mut first) {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"\\u03bb{lane} down\",\"cat\":\"fault\",\"ph\":\"X\",\
                 \"ts\":{down},\"dur\":{dur},\"pid\":1,\"tid\":{lane}}}",
                dur = up - down,
            ));
        }
        for h in &self.heals {
            if !core::mem::take(&mut first) {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"heal {policy}\",\"cat\":\"heal\",\"ph\":\"i\",\"s\":\"p\",\
                 \"ts\":{ts},\"pid\":1,\"tid\":{lane},\
                 \"args\":{{\"affected\":{affected},\"moved\":{moved},\"shared\":{shared},\
                 \"restarted\":{restarted},\"stall_cycles\":{stall},\"feasible\":{feasible}}}}}",
                policy = h.policy,
                ts = h.at,
                lane = h.lane,
                affected = h.affected,
                moved = h.moved,
                shared = h.shared,
                restarted = h.restarted,
                stall = h.stall_cycles,
                feasible = h.feasible,
            ));
        }
        out.push_str("]}");
        out
    }
}

impl SimProbe for ChromeTraceProbe {
    #[inline]
    fn retired(&mut self, record: &MsgRecord, volume_bits: f64, hops: usize) {
        self.events.push((*record, volume_bits, hops));
    }

    #[inline]
    fn dropped(&mut self, fact: DropFact) {
        self.drops.push(fact);
    }

    #[inline]
    fn lane_event(&mut self, now: u64, lane: usize, down: bool) {
        if down {
            self.lane_open.push((lane, now));
        } else if let Some(pos) = self.lane_open.iter().position(|&(l, _)| l == lane) {
            let (_, since) = self.lane_open.swap_remove(pos);
            self.lane_spans.push((lane, since, now));
        }
    }

    #[inline]
    fn heal(&mut self, fact: HealFact) {
        self.heals.push(fact);
    }

    #[inline]
    fn finished(&mut self, horizon: u64, _last_injection: u64) {
        self.horizon = horizon;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultCause;

    fn fact(start: u64, end: u64, lanes: u128, hops: usize, src: usize, dst: usize) -> TxFact {
        TxFact {
            start,
            end,
            lanes,
            hops,
            src: NodeId(src),
            dst: NodeId(dst),
            marked: false,
        }
    }

    fn record(src: usize, dst: usize, injected: u64, completed: u64) -> MsgRecord {
        MsgRecord {
            src: NodeId(src),
            dst: NodeId(dst),
            injected,
            admitted: injected,
            started: injected,
            completed,
            lanes: 1,
            attempts: 1,
        }
    }

    #[test]
    fn windows_fold_hand_computed_counts() {
        let mut probe = TimeSeriesProbe::new(10, 4, 2);
        // Offered at 2, admitted at 3 after a 1-cycle stall: window 0.
        probe.offered(2, NodeId(0));
        probe.admitted(3, 1, NodeId(0));
        // A 2-lane transmission spanning windows 0..2 (cycles 5..25).
        probe.started(fact(5, 25, 0b11, 2, 0, 2));
        probe.completed(fact(5, 25, 0b11, 2, 0, 2));
        probe.retired(&record(0, 2, 2, 25), 40.0, 2);
        probe.finished(25, 2);
        let series = probe.report();
        assert_eq!(series.windows.len(), 3);
        let w0 = &series.windows[0];
        assert_eq!((w0.offered, w0.admitted, w0.started), (1, 1, 1));
        assert_eq!(w0.stall_cycles, 1);
        // Overlaps: window 0 holds cycles 5..10 → 5 × 2 lanes = 10.
        assert_eq!(w0.lane_cycles, 10);
        assert_eq!(series.windows[1].lane_cycles, 20);
        assert_eq!(series.windows[2].lane_cycles, 10);
        assert_eq!(w0.seg_cycles, 20);
        // The transmission completes and retires in window 2.
        assert_eq!(series.windows[2].completed, 1);
        assert_eq!(series.windows[2].retired, 1);
        assert!((series.windows[2].retired_bits - 40.0).abs() < 1e-12);
        // Occupancy at window ends: in flight through windows 0 and 1.
        assert_eq!(w0.in_flight, 1);
        assert_eq!(series.windows[1].in_flight, 1);
        assert_eq!(series.windows[2].in_flight, 0);
        assert_eq!(series.total_retired(), 1);
        assert!((series.total_retired_bits() - 40.0).abs() < 1e-12);
        // Only source 0 retired bits in window 2: J = 1/4 on 4 nodes.
        assert!((series.windows[2].fairness - 0.25).abs() < 1e-12);
        // Idle window 1 reports the trivially fair 1.0.
        assert!((series.windows[1].fairness - 1.0).abs() < 1e-12);
    }

    #[test]
    fn flow_fairness_runs_over_active_flows_only() {
        let mut probe = TimeSeriesProbe::new(100, 4, 1);
        // One source feeding two destinations unevenly: the per-source
        // index sees a single busy source (J = 1/4 over 4 nodes) while
        // the per-flow index sees two active flows at 300 vs 100 bits.
        probe.retired(&record(0, 1, 0, 50), 300.0, 1);
        probe.retired(&record(0, 2, 0, 60), 100.0, 1);
        probe.finished(70, 0);
        let series = probe.report();
        let w = &series.windows[0];
        assert!((w.fairness - 0.25).abs() < 1e-12);
        // J = (400)² / (2 · (300² + 100²)) = 160000 / 200000 = 0.8.
        assert!((w.flow_fairness - 0.8).abs() < 1e-12);
        // Two equal flows from different sources are perfectly fair on
        // both indices.
        let mut even = TimeSeriesProbe::new(100, 2, 1);
        even.retired(&record(0, 1, 0, 10), 64.0, 1);
        even.retired(&record(1, 0, 0, 20), 64.0, 1);
        even.finished(30, 0);
        let w = even.report().windows[0];
        assert!((w.fairness - 1.0).abs() < 1e-12);
        assert!((w.flow_fairness - 1.0).abs() < 1e-12);
        // Idle windows report the trivially fair 1.0.
        let mut idle = TimeSeriesProbe::new(10, 2, 1);
        idle.finished(9, 0);
        assert!((idle.report().windows[0].flow_fairness - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fairness_is_one_when_sources_are_equal() {
        let mut probe = TimeSeriesProbe::new(100, 4, 1);
        for src in 0..4 {
            probe.retired(&record(src, (src + 1) % 4, 0, 50), 64.0, 1);
        }
        probe.finished(50, 0);
        let series = probe.report();
        assert!((series.windows[0].fairness - 1.0).abs() < 1e-12);
        assert_eq!(series.source_retired, vec![1, 1, 1, 1]);
        assert_eq!(series.source_latency[0].count, 1);
        assert_eq!(series.source_latency[0].max, 50);
    }

    #[test]
    fn finished_materialises_trailing_idle_windows() {
        let mut probe = TimeSeriesProbe::new(10, 2, 1);
        probe.retired(&record(0, 1, 0, 5), 8.0, 1);
        probe.finished(95, 0);
        let series = probe.report();
        assert_eq!(series.windows.len(), 10);
        assert_eq!(series.windows[9].retired, 0);
        assert_eq!(series.horizon, 95);
    }

    #[test]
    fn horizon_hint_presizes_all_window_growth() {
        let mut probe = TimeSeriesProbe::new(8, 4, 2).with_horizon_hint(800);
        let bins_cap = probe.bins.capacity();
        let src_cap = probe.src_window_bits.capacity();
        let cell_cap = probe.flow_cells.capacity();
        for k in 0..100u64 {
            probe.offered(k * 8, NodeId(0));
            probe.admitted(k * 8, 0, NodeId(0));
            probe.retired(&record(0, 1, k * 8, k * 8 + 7), 8.0, 1);
        }
        probe.finished(799, 792);
        assert_eq!(probe.bins.capacity(), bins_cap, "bins reallocated");
        assert_eq!(
            probe.src_window_bits.capacity(),
            src_cap,
            "per-source matrix reallocated"
        );
        assert_eq!(
            probe.flow_cells.capacity(),
            cell_cap,
            "per-flow cell store reallocated"
        );
    }

    #[test]
    fn the_window_count_stops_at_the_cap() {
        let window = 4;
        let cap = MAX_TELEMETRY_WINDOWS as u64 * window;
        // The hint reserves no more than the cap.
        let mut probe = TimeSeriesProbe::new(window, 2, 1).with_horizon_hint(u64::MAX);
        assert!(probe.bins.capacity() < 2 * MAX_TELEMETRY_WINDOWS);
        probe.offered(0, NodeId(0));
        probe.retired(&record(0, 1, 0, 3), 8.0, 1);
        assert!(!probe.truncated());
        // A transmission running past the cap books its overlap with the
        // last window only, and later facts book nothing.
        probe.completed(fact(cap - 2, cap + 40, 1, 1, 0, 1));
        probe.offered(u64::MAX, NodeId(1));
        probe.retired(&record(1, 0, u64::MAX - 9, u64::MAX), 16.0, 1);
        probe.finished(u64::MAX, u64::MAX);
        assert!(probe.truncated());
        let series = probe.report();
        assert_eq!(series.windows.len(), MAX_TELEMETRY_WINDOWS);
        assert_eq!(series.windows.last().unwrap().lane_cycles, 2);
        assert_eq!((series.total_offered(), series.total_retired()), (1, 1));
        // Totals outside the windows stay whole.
        assert_eq!(series.source_retired, vec![1, 1]);
        assert_eq!(series.flow_messages, vec![0, 1, 1, 0]);
        assert_eq!(probe.flow_cells.len(), 1);
        probe.reset();
        assert!(!probe.truncated());
        assert!(probe.flow_cells.is_empty());
    }

    #[test]
    fn a_flow_returning_to_an_older_window_adds_to_its_cell() {
        let mut probe = TimeSeriesProbe::new(10, 3, 1);
        // Flow 0→1 retires into windows 0, 2 and 5, then late into 2 and
        // 0 again and into 1 for the first time; flow 2→0 interleaves.
        for (src, dst, completed, bits) in [
            (0, 1, 3, 1.0 / 3.0),
            (0, 1, 25, 2.0),
            (2, 0, 24, 5.0),
            (0, 1, 51, 7.0),
            (0, 1, 22, 0.1),
            (2, 0, 4, 0.7),
            (0, 1, 8, 0.2),
            (0, 1, 14, 3.0),
        ] {
            probe.retired(&record(src, dst, 0, completed), bits, 1);
        }
        probe.finished(60, 0);
        // Distinct pairs: (0, 0→1), (2, 0→1), (5, 0→1), (2, 2→0),
        // (0, 2→0), (1, 0→1).
        assert_eq!(probe.flow_cells.len(), 6);
        let mut chain = Vec::new();
        let mut at = probe.flow_newest[1];
        while at != NO_CELL {
            chain.push((probe.flow_cells[at].window, probe.flow_cells[at].bits));
            at = probe.flow_cells[at].older;
        }
        assert_eq!(
            chain,
            vec![(5, 7.0), (2, 2.0 + 0.1), (1, 3.0), (0, 1.0 / 3.0 + 0.2)]
        );
        // Window 2 folds flow 0→1 (2.0 + 0.1) before flow 2→0 (5.0).
        let w = &probe.report().windows;
        let (a, b) = (2.0 + 0.1, 5.0);
        let two: f64 = (a + b) * (a + b) / (2.0 * (a * a + b * b));
        assert_eq!(w[2].flow_fairness.to_bits(), two.to_bits());
        assert_eq!(w[3].flow_fairness, 1.0);
    }

    /// The dense per-flow fold, kept as the oracle of the sparse
    /// cells: each retirement adds its bits to its window's row of a
    /// `windows × nodes²` matrix, in retirement order, and each row folds
    /// to Jain's index over its active entries. The rows are built one
    /// window at a time from a log of the retirements, so the oracle's
    /// memory follows one row, not the whole matrix.
    #[derive(Debug)]
    struct DenseFlowOracle {
        window: u64,
        nodes: usize,
        /// `(window, flow, bits)` of every retirement, in order.
        log: Vec<(usize, usize, f64)>,
    }

    impl DenseFlowOracle {
        fn new(window: u64, nodes: usize) -> Self {
            Self {
                window,
                nodes,
                log: Vec::new(),
            }
        }

        /// The distinct `(window, flow)` pairs that retired bits.
        fn pairs(&self) -> usize {
            let pairs: std::collections::BTreeSet<(usize, usize)> =
                self.log.iter().map(|&(w, f, _)| (w, f)).collect();
            pairs.len()
        }

        /// `series` with every window's `flow_fairness` refolded from its
        /// dense row.
        fn fold(&self, mut series: TimeSeries) -> TimeSeries {
            let flows = self.nodes * self.nodes;
            let idle = jain_over_active(&vec![0.0; flows]);
            let mut log = self.log.clone();
            log.sort_by_key(|&(w, _, _)| w); // stable: retirement order within a row
            for (i, stats) in series.windows.iter_mut().enumerate() {
                let start = log.partition_point(|&(w, _, _)| w < i);
                let end = log.partition_point(|&(w, _, _)| w <= i);
                stats.flow_fairness = if start == end {
                    idle
                } else {
                    let mut row = vec![0.0; flows];
                    for &(_, flow, bits) in &log[start..end] {
                        row[flow] += bits;
                    }
                    jain_over_active(&row)
                };
            }
            series
        }
    }

    impl SimProbe for DenseFlowOracle {
        fn retired(&mut self, record: &MsgRecord, volume_bits: f64, _hops: usize) {
            #[allow(clippy::cast_possible_truncation)]
            let window = (record.completed / self.window) as usize;
            let flow = record.src.0 * self.nodes + record.dst.0;
            self.log.push((window, flow, volume_bits));
        }
    }

    /// The dense fold's Jain index over the active (nonzero) entries of
    /// `xs`: 1.0 when no entry is active.
    fn jain_over_active(xs: &[f64]) -> f64 {
        let sum: f64 = xs.iter().sum();
        if sum <= 0.0 {
            return 1.0;
        }
        let sq: f64 = xs.iter().map(|x| x * x).sum();
        #[allow(clippy::cast_precision_loss)]
        let active = xs.iter().filter(|&&x| x > 0.0).count() as f64;
        sum * sum / (active * sq)
    }

    /// Every number of a series, each `f64` as its bits.
    fn series_bits(series: &TimeSeries) -> Vec<u64> {
        let mut out = vec![
            series.window,
            series.nodes as u64,
            series.wavelengths as u64,
            series.horizon,
            series.last_injection,
        ];
        for w in &series.windows {
            out.extend([
                w.start,
                w.offered,
                w.admitted,
                w.started,
                w.completed,
                w.retired,
                w.retired_bits.to_bits(),
                w.stall_cycles,
                w.ecn_marks,
                w.lane_cycles,
                w.seg_cycles,
                w.failed,
                w.retransmitted_bits.to_bits(),
                w.lost,
                w.gate_held,
                w.queue_depth,
                w.in_flight,
                w.fairness.to_bits(),
                w.flow_fairness.to_bits(),
            ]);
        }
        for l in &series.source_latency {
            out.extend([
                l.count as u64,
                l.mean.to_bits(),
                l.p50.to_bits(),
                l.p95.to_bits(),
                l.p99.to_bits(),
                l.max,
            ]);
        }
        out.extend(&series.source_retired);
        out.extend(series.source_retired_bits.iter().map(|x| x.to_bits()));
        out.extend(series.flow_bits.iter().map(|x| x.to_bits()));
        out.extend(&series.flow_messages);
        out
    }

    /// The sparse probe against the dense oracle on one observed run:
    /// bit-identical series, and one cell per distinct pair.
    fn assert_matches_the_dense_fold(probe: &TimeSeriesProbe, oracle: &DenseFlowOracle) {
        let series = probe.report();
        let dense = oracle.fold(series.clone());
        assert_eq!(series_bits(&series), series_bits(&dense));
        assert_eq!(probe.flow_cells.len(), oracle.pairs());
    }

    /// A xorshift stream for the generated corpora.
    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    const WINDOWS: [u64; 12] = [1, 2, 3, 7, 16, 31, 64, 100, 256, 700, 2048, 4096];

    proptest::proptest! {
        /// The sparse fold against the dense oracle on engine runs:
        /// single- and multi-lane dynamic policies, corruption and lane
        /// outages with no recovery (lost messages), go-back-N or PFC,
        /// over message streams of mixed, non-dyadic sizes.
        #[test]
        fn sparse_fold_matches_the_dense_fold_on_engine_runs(
            seed in 0u64..1 << 32,
            nodes in 2usize..33,
            window_sel in 0usize..12,
            policy in 0usize..3,
            faults in 0usize..3,
            transport in 0usize..3,
        ) {
            use crate::fault::{FaultPlan, LaneFault};
            use crate::openloop::{OpenLoopSimulator, TrafficEvent, WavelengthMode};
            use crate::transport::TransportMode;
            use crate::DynamicPolicy;
            use onoc_topology::RingTopology;
            use onoc_units::{Bits, BitsPerCycle};

            let mut next = xorshift(seed);
            let n = nodes as u64;
            let mut time = 0u64;
            let events: Vec<TrafficEvent> = (0..40 + next() % 160)
                .map(|_| {
                    time += next() % 5;
                    let src = (next() % n) as usize;
                    let dst = (src + 1 + (next() % (n - 1)) as usize) % nodes;
                    // Mixed sizes whose sums round differently in
                    // different orders: short thirds and long sevenths.
                    let bits = if next().is_multiple_of(4) {
                        (500 + next() % 3000) as f64 / 7.0
                    } else {
                        (1 + next() % 600) as f64 / 3.0
                    };
                    TrafficEvent { time, src: NodeId(src), dst: NodeId(dst), volume: Bits::new(bits) }
                })
                .collect();
            let wavelengths = 1 + (next() % 4) as usize;
            let policy = match policy {
                0 => DynamicPolicy::Single,
                _ => DynamicPolicy::Greedy { cap: 1 + policy * (1 + (next() % 2) as usize) },
            };
            let mut sim = OpenLoopSimulator::new(
                RingTopology::new(nodes),
                wavelengths,
                BitsPerCycle::new(1.0),
                WavelengthMode::Dynamic(policy),
            );
            if faults > 0 {
                let mut plan = FaultPlan::new(seed).with_ber(1e-3);
                if faults == 2 {
                    plan = plan.with_scheduled(LaneFault {
                        lane: (next() % wavelengths as u64) as usize,
                        at: next() % (time + 1),
                        duration: 1 + next() % 600,
                    });
                }
                sim = sim.with_faults(plan);
            }
            sim = sim.with_transport(match transport {
                0 => TransportMode::None,
                1 => TransportMode::go_back_n(),
                _ => TransportMode::pfc(),
            });
            let window = WINDOWS[window_sel];
            let mut probe = TimeSeriesProbe::new(window, nodes, wavelengths);
            let mut oracle = DenseFlowOracle::new(window, nodes);
            sim.run_probed(events.into_iter(), &mut (&mut probe, &mut oracle)).unwrap();
            assert_matches_the_dense_fold(&probe, &oracle);
        }

        /// The sparse fold against the dense oracle on hand-fed
        /// retirements whose windows wander back and forth, so flows
        /// return to windows older than their newest cell.
        #[test]
        fn sparse_fold_matches_the_dense_fold_on_late_retirements(
            seed in 0u64..1 << 32,
            nodes in 2usize..33,
            window_sel in 0usize..12,
            count in 1usize..400,
        ) {
            let mut next = xorshift(seed);
            let window = WINDOWS[window_sel];
            let n = nodes as u64;
            // Few distinct flows, so each returns to its windows often.
            let flows: Vec<(usize, usize)> = (0..1 + next() % 12)
                .map(|_| {
                    let src = (next() % n) as usize;
                    (src, (src + 1 + (next() % (n - 1)) as usize) % nodes)
                })
                .collect();
            let mut probe = TimeSeriesProbe::new(window, nodes, 1);
            let mut oracle = DenseFlowOracle::new(window, nodes);
            let mut clock = 0u64;
            for _ in 0..count {
                clock += next() % (2 * window);
                let late = (next() % 5) * window;
                let completed = clock.saturating_sub(if next().is_multiple_of(3) { late } else { 0 });
                let (src, dst) = flows[(next() % flows.len() as u64) as usize];
                let bits = match next() % 8 {
                    0 => 0.0,
                    1 => (1 + next() % (1 << 20)) as f64 / 7.0,
                    _ => (1 + next() % 900) as f64 / 3.0,
                };
                let r = record(src, dst, completed.saturating_sub(3), completed);
                probe.retired(&r, bits, 1);
                oracle.retired(&r, bits, 1);
            }
            probe.finished(clock + 1, clock);
            assert_matches_the_dense_fold(&probe, &oracle);
        }
    }

    #[test]
    fn ecn_marks_count_marked_starts_only() {
        let mut probe = TimeSeriesProbe::new(10, 4, 1);
        let mut marked = fact(1, 5, 1, 1, 0, 1);
        marked.marked = true;
        probe.started(marked);
        probe.started(fact(2, 6, 1, 1, 1, 2));
        let series = probe.report();
        assert_eq!(series.windows[0].ecn_marks, 1);
        assert_eq!(series.windows[0].started, 2);
        assert_eq!(series.total_ecn_marks(), 1);
    }

    #[test]
    fn chrome_trace_renders_duration_events() {
        let mut probe = ChromeTraceProbe::with_capacity(2);
        let mut r = record(3, 7, 10, 25);
        r.started = 12;
        r.admitted = 11;
        probe.retired(&r, 128.0, 4);
        assert_eq!(probe.len(), 1);
        let json = probe.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"3->7\""));
        assert!(json.contains("\"ts\":12"));
        assert!(json.contains("\"dur\":13"));
        assert!(json.contains("\"tid\":3"));
        assert!(json.contains("\"stall\":1"));
        assert!(json.contains("\"queueing\":1"));
        // An empty capture still renders a valid document.
        assert_eq!(
            ChromeTraceProbe::new().to_json(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}"
        );
    }

    #[test]
    #[should_panic(expected = "window must be at least 1")]
    fn zero_window_panics() {
        let _ = TimeSeriesProbe::new(0, 4, 1);
    }

    #[test]
    fn chrome_trace_renders_fault_events() {
        let mut probe = ChromeTraceProbe::new();
        let mut r = record(1, 2, 0, 9);
        r.attempts = 3;
        probe.retired(&r, 8.0, 1);
        probe.dropped(DropFact {
            start: 0,
            end: 4,
            lanes: 1,
            hops: 1,
            src: NodeId(1),
            dst: NodeId(2),
            bits: 8.0,
            cause: FaultCause::LaneDown,
            attempt: 1,
        });
        probe.lane_event(2, 0, true);
        probe.lane_event(7, 0, false);
        probe.lane_event(8, 1, true); // still down at the horizon
        probe.finished(12, 0);
        let json = probe.to_json();
        assert!(json.contains("\"attempts\":3"));
        assert!(json.contains("\"cat\":\"fault\",\"ph\":\"i\""));
        assert!(json.contains("\"name\":\"lane-down\""));
        assert!(json.contains("\\u03bb0 down"));
        assert!(json.contains("\"ts\":2,\"dur\":5,\"pid\":1,\"tid\":0"));
        // The open outage on lane 1 is closed at the horizon.
        assert!(json.contains("\"ts\":8,\"dur\":4,\"pid\":1,\"tid\":1"));
        // A fault-free capture renders the pre-fault document shape.
        let mut clean = ChromeTraceProbe::new();
        clean.retired(&record(0, 1, 0, 5), 8.0, 1);
        clean.finished(10, 0);
        assert!(!clean.to_json().contains("fault"));
        assert!(!clean.to_json().contains("attempts"));
    }
}
