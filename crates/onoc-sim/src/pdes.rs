//! Conservative parallel discrete-event engine for
//! [`OpenLoopSimulator`]: shard the traffic by source ring group, run
//! the unmodified serial event core per shard on its own calendar
//! queue, and deterministically merge the shards' fact streams back
//! into the global serial order.
//!
//! # Sharding scheme
//!
//! Static-mode state is *source-owned*: a flow `(src, dst)` serialises
//! on `flow_free_at[flow]`, its injection gate and go-back-N window
//! live at `src`, and its calendar events (`Offered`, `Started`,
//! `Completed`, `Redo`, `Abandon`, `GateWake`) reference only that
//! state. Partitioning sources into contiguous ring groups
//! (`shard(src) = src · workers / nodes`) therefore partitions the
//! event dependency graph — each worker replays exactly the serial
//! engine restricted to its sources' traffic, over its own
//! [`EventQueue`]. The only *global* inputs, the fault-plan lane
//! timeline and the BER corruption draws, are pure functions of the
//! plan seed (and the global message id, which the tap threads through
//! [`EngineTap::global_id`]), so every worker reproduces them
//! identically.
//!
//! # Conservative synchronization and lookahead
//!
//! Workers stream their probe-visible facts to the merger over bounded
//! SPSC channels, each fact keyed by its *global* merge position
//! `(time, rank, tie, subseq)` — `rank` mirrors the serial
//! `Completed < Started < GateWake < Offered < …` same-cycle tie-break
//! and `tie` the in-rank key (global message id, source, or lane). The
//! k-way merge pops the lane whose *head* keys minimal — head order,
//! not a global key sort, is the serial order, because the serial
//! calendar pops the minimum of the union of the shards' pending sets
//! and a handler can push a same-cycle lower-rank event (an admission
//! starting immediately). Contexts that emit no facts but can push
//! such events (`Redo` retries, lane recoveries) ship barrier facts so
//! their shard's restarts never merge early; lane-event barriers are
//! replicated in every shard and consumed together. The merger
//! advances a lane only when its next fact cannot be undercut: a
//! lane's *floor* (null message) is a sound lower bound on its future
//! keys, advanced by every received fact and by explicit watermarks
//! the worker emits while it processes long fact-free stretches.
//! Lookahead never blocks progress — channels form an acyclic
//! worker → merger pipeline with backpressure, so the protocol is
//! deadlock-free by construction (there is no worker↔worker edge to
//! cycle through, even on an all-cross-shard hotspot flow map).
//!
//! # Determinism guarantee
//!
//! [`OpenLoopSimulator::run_parallel`] is bit-identical to the serial
//! engine for every worker count: the merger replays the merged fact
//! stream into the caller's [`SimProbe`] and the built-in report
//! accumulators in serial order, folding every floating-point sum in
//! the serial fold order. Configurations whose state is *not*
//! source-owned — dynamic arbitration, ECN occupancy feedback, PFC
//! receiver pools — fall back to the serial engine inside
//! `run_parallel`, keeping the API total.

use std::collections::VecDeque;
use std::sync::mpsc::{Receiver, SyncSender, sync_channel};

use onoc_topology::{DirectedSegment, NodeId, segment_count};

use crate::fault::{CorruptionModel, DropFact};
use crate::injection::{InjectionMode, SourceGate};
use crate::openloop::{
    EngineTap, OpenLoopError, OpenLoopSimulator, ReportMode, SimScratch, TrafficEvent,
    TrafficSource, WavelengthMode, flag, sweep_conflicts_flat,
};
use crate::probe::{NullProbe, ReportProbe, SimProbe, TxFact};
use crate::report::{MsgRecord, OpenLoopReport};
use crate::transport::TransportMode;

/// Facts per channel batch (amortises the send syscall-ish cost).
const BATCH_LEN: usize = 1024;
/// Bounded channel depth, in batches (backpressure on a slow merger).
const CHANNEL_DEPTH: usize = 4;
/// Minimum simulated-time advancement between watermarks while a worker
/// produces no facts.
const WATERMARK_STRIDE: u64 = 1024;

/// Global merge position of one fact: `(time, rank, tie, subseq)`.
/// Rank 0 is source-event registration; ranks 1.. mirror the serial
/// same-cycle `Event` tie-break. `subseq` orders facts within one
/// event's processing. Keys are strictly monotone per worker and
/// globally unique (every context is owned by exactly one worker).
type Key = (u64, u8, u64, u32);

/// A sound lower bound on every fact a worker can emit after the fact
/// (or context) keyed `k`. Streams are *not* key-monotone: a context
/// from rank 2 up can push a same-cycle rank-2 `Started` (an admission
/// starting immediately, a recovery restart), which pops later but
/// keys lower. Ranks 0 (registrations, gid-ordered) and 1 (completions,
/// pushed strictly in the future) cannot be undercut at their own rank,
/// so their successor is exact.
fn sound_floor(k: Key) -> Key {
    match k.1 {
        0 | 1 => (k.0, k.1, k.2, k.3 + 1),
        _ => (k.0, 2, 0, 0),
    }
}

/// One probe-visible engine fact, as shipped worker → merger.
enum FactKind {
    Offered {
        time: u64,
        src: NodeId,
        volume: f64,
    },
    Admitted {
        now: u64,
        stall: u64,
        src: NodeId,
    },
    Started {
        fact: TxFact,
        flow: u32,
    },
    Completed {
        fact: TxFact,
        flow: u32,
    },
    Dropped {
        fact: DropFact,
        flow: u32,
    },
    Lost {
        record: MsgRecord,
        volume: f64,
        attempts: u32,
    },
    /// The message resolved (delivered or lost) — fired where the serial
    /// engine retires the window front, carrying the final flag byte for
    /// the merger's global retirement replay.
    Resolved {
        gid: u64,
        record: MsgRecord,
        volume: f64,
        flags: u8,
        hops: u32,
        recovery: u64,
    },
    Lane {
        now: u64,
        lane: u32,
        down: bool,
        /// Every worker replays the identical lane timeline and ships a
        /// copy of this fact (the merger needs each copy as an ordering
        /// barrier for the shard's same-cycle restarts); exactly one —
        /// worker 0's — is `real` and reaches the probe.
        real: bool,
    },
    /// An ordering barrier with no probe-visible effect: marks a `Redo`
    /// context, whose retry can push a same-cycle `Started` that must
    /// not merge ahead of other shards' facts between the two ranks.
    Marker,
}

struct Fact {
    key: Key,
    kind: FactKind,
}

enum WorkerMsg {
    Batch(Vec<Fact>),
    /// Null message: every future fact of this worker has key ≥ the
    /// payload.
    Watermark(Key),
    Done(Box<WorkerDone>),
}

/// Per-worker aggregates that fold commutatively (integers) or in
/// worker-major source order (credit cycles), shipped once at the end.
struct WorkerDone {
    horizon: u64,
    blocked_attempts: usize,
    segment_busy: Vec<(DirectedSegment, u64)>,
    lane_busy: Vec<u64>,
    /// `SourceGate::credit_cycles` for the worker's owned source range,
    /// in source order (concatenating the workers reproduces the serial
    /// gate fold exactly).
    credit_cycles: Vec<f64>,
}

/// The [`EngineTap`] a PDES worker runs under: maps local ids to global
/// ids, keys every fact, and streams batches to the merger.
struct WorkerTap<'a> {
    /// Local message id → global id, in registration order.
    gids: &'a [u64],
    next_local: usize,
    ctx: (u64, u8, u64),
    subseq: u32,
    batch: Vec<Fact>,
    tx: &'a SyncSender<WorkerMsg>,
    /// Lane events are global (every worker replays the identical
    /// timeline); only worker 0 forwards them.
    emit_lanes: bool,
    last_watermark: u64,
}

impl<'a> WorkerTap<'a> {
    fn new(gids: &'a [u64], tx: &'a SyncSender<WorkerMsg>, emit_lanes: bool) -> Self {
        Self {
            gids,
            next_local: 0,
            ctx: (0, 0, 0),
            subseq: 0,
            batch: Vec::with_capacity(BATCH_LEN),
            tx,
            emit_lanes,
            last_watermark: 0,
        }
    }

    fn push(&mut self, kind: FactKind) {
        let key = (self.ctx.0, self.ctx.1, self.ctx.2, self.subseq);
        self.subseq += 1;
        self.batch.push(Fact { key, kind });
        if self.batch.len() >= BATCH_LEN {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if !self.batch.is_empty() {
            // A send error means the merger died (its panic propagates
            // through the thread scope); finish quietly.
            let _ = self
                .tx
                .send(WorkerMsg::Batch(std::mem::take(&mut self.batch)));
            self.batch.reserve(BATCH_LEN);
        }
    }
}

impl EngineTap for WorkerTap<'_> {
    const ACTIVE: bool = true;

    fn context(&mut self, time: u64, rank: u8, tie: u64) {
        self.ctx = (time, rank, tie);
        self.subseq = 0;
        // Null-message advancement: when this worker crosses a long
        // fact-free stretch (e.g. replaying remote shards' lane events),
        // tell the merger its floor moved so the other lanes can drain.
        // The advertised bound must be sound against same-cycle pushes:
        // any context from rank 2 up can still push a rank-2 `Started`
        // at this cycle.
        if self.batch.is_empty() && time >= self.last_watermark + WATERMARK_STRIDE {
            self.last_watermark = time;
            let wm = sound_floor((time, rank, tie, 0));
            let _ = self.tx.send(WorkerMsg::Watermark(wm));
        }
        if rank == 7 {
            // Redo contexts emit no facts of their own but can push a
            // same-cycle, lower-rank Started; ship a barrier so the
            // merger holds this shard's retry behind other shards'
            // facts between the two ranks.
            self.push(FactKind::Marker);
        }
    }

    fn offered(&mut self, time: u64, src: NodeId, volume: f64) {
        // Registrations key themselves: rank 0, tied on the global id —
        // the serial engine registers a source event before processing
        // any same-cycle queue event.
        let gid = self.gids[self.next_local];
        self.next_local += 1;
        self.batch.push(Fact {
            key: (time, 0, gid, 0),
            kind: FactKind::Offered { time, src, volume },
        });
        if self.batch.len() >= BATCH_LEN {
            self.flush();
        }
    }

    fn admitted(&mut self, now: u64, stall: u64, src: NodeId) {
        self.push(FactKind::Admitted { now, stall, src });
    }

    fn started(&mut self, fact: &TxFact, flow: u32) {
        self.push(FactKind::Started { fact: *fact, flow });
    }

    fn completed(&mut self, fact: &TxFact, flow: u32) {
        self.push(FactKind::Completed { fact: *fact, flow });
    }

    fn dropped(&mut self, fact: &DropFact, flow: u32) {
        self.push(FactKind::Dropped { fact: *fact, flow });
    }

    fn lost(&mut self, _id: usize, record: &MsgRecord, volume: f64, attempts: u32) {
        self.push(FactKind::Lost {
            record: *record,
            volume,
            attempts,
        });
    }

    fn resolved(
        &mut self,
        id: usize,
        record: &MsgRecord,
        volume: f64,
        flags: u8,
        hops: usize,
        recovery: u64,
    ) {
        #[allow(clippy::cast_possible_truncation)]
        self.push(FactKind::Resolved {
            gid: self.gids[id],
            record: *record,
            volume,
            flags,
            hops: hops as u32,
            recovery,
        });
    }

    fn lane_event(&mut self, now: u64, lane: usize, down: bool) {
        // Every worker ships its copy (identical key): the merger pops
        // all copies together, so no shard's same-cycle restarts surface
        // before every shard has reached the recovery.
        #[allow(clippy::cast_possible_truncation)]
        self.push(FactKind::Lane {
            now,
            lane: lane as u32,
            down,
            real: self.emit_lanes,
        });
    }

    fn global_id(&self, id: usize) -> u64 {
        self.gids[id]
    }

    fn stranded_sweep(&mut self) {
        // Stranded traffic is swept at the *local* horizon, which need
        // not equal the global one. Unreachable in eligible
        // configurations: every parked message holds a pending lane
        // recovery in its own queue (stochastic outages always schedule
        // their repair), NI queues are dynamic-only, and gate windows
        // are freed synchronously by the resolution that closed them.
        panic!(
            "PDES worker swept stranded traffic; this configuration \
             should have fallen back to the serial engine"
        );
    }
}

/// The validated, sharded trace.
struct Split {
    events: Vec<Vec<TrafficEvent>>,
    gids: Vec<Vec<u64>>,
    /// Owned source range per worker (contiguous, in worker order).
    ranges: Vec<(usize, usize)>,
    total: usize,
    /// Flows that appear in the trace (dense `src·n + dst` indices).
    used_flows: Vec<u32>,
}

/// Drains and validates the whole trace upfront, replicating the serial
/// engine's exact validation order, and routes each event to its
/// source's shard together with its global id.
fn split_source<S: TrafficSource>(
    sim: &OpenLoopSimulator,
    mut source: S,
    workers: usize,
) -> Result<Split, OpenLoopError> {
    let n = sim.ring.node_count();
    let mut events: Vec<Vec<TrafficEvent>> = vec![Vec::new(); workers];
    let mut gids: Vec<Vec<u64>> = vec![Vec::new(); workers];
    let mut used = vec![false; n * n];
    let mut last_time = 0u64;
    let mut next_id = 0usize;
    while let Some(event) = source.next_event() {
        if event.time < last_time {
            return Err(OpenLoopError::UnorderedSource {
                time: event.time,
                previous: last_time,
            });
        }
        last_time = event.time;
        for node in [event.src, event.dst] {
            if !sim.ring.contains(node) {
                return Err(OpenLoopError::ForeignNode { node, nodes: n });
            }
        }
        if event.src == event.dst || event.volume.value() <= 0.0 {
            return Err(OpenLoopError::DegenerateEvent { index: next_id });
        }
        if let WavelengthMode::Static(map) = &sim.mode {
            if map.lanes(event.src, event.dst).is_empty() {
                return Err(OpenLoopError::UnmappedFlow {
                    src: event.src,
                    dst: event.dst,
                });
            }
        }
        let w = event.src.0 * workers / n;
        events[w].push(event);
        gids[w].push(next_id as u64);
        used[event.src.0 * n + event.dst.0] = true;
        next_id += 1;
    }
    let ranges = (0..workers)
        .map(|w| (w * n).div_ceil(workers))
        .chain(std::iter::once(n))
        .collect::<Vec<_>>()
        .windows(2)
        .map(|p| (p[0], p[1]))
        .collect();
    #[allow(clippy::cast_possible_truncation)]
    let used_flows = used
        .iter()
        .enumerate()
        .filter(|&(_, &u)| u)
        .map(|(f, _)| f as u32)
        .collect();
    Ok(Split {
        events,
        gids,
        ranges,
        total: next_id,
        used_flows,
    })
}

/// One worker: the full serial engine over the shard's sub-trace, with
/// the streaming tap attached.
fn run_worker(
    sim: &OpenLoopSimulator,
    events: Vec<TrafficEvent>,
    gids: Vec<u64>,
    range: (usize, usize),
    rows: Vec<u32>,
    emit_lanes: bool,
    tx: &SyncSender<WorkerMsg>,
) {
    let mut scratch = SimScratch::new();
    // Only this shard's trace flows ever admit here, so only their
    // route/mask rows are built — at 256 nodes the full quadratic table
    // build is a meaningful slice of a run, and it would otherwise be
    // repeated per worker.
    scratch.flow_rows = Some(rows);
    let mut tap = WorkerTap::new(&gids, tx, emit_lanes);
    let report = sim
        .run_tapped(
            events.into_iter(),
            &mut scratch,
            ReportMode::Streaming,
            &mut NullProbe,
            &mut tap,
        )
        .expect("the splitter validated the shard's trace");
    tap.flush();
    let credit_cycles = scratch.gates[range.0..range.1]
        .iter()
        .map(SourceGate::credit_cycles)
        .collect();
    let _ = tx.send(WorkerMsg::Done(Box::new(WorkerDone {
        horizon: report.horizon,
        blocked_attempts: report.blocked_attempts,
        segment_busy: report.segment_busy,
        lane_busy: report.lane_busy,
        credit_cycles,
    })));
}

/// One worker's receive lane at the merger.
struct Lane {
    rx: Receiver<WorkerMsg>,
    queue: VecDeque<Fact>,
    /// Greatest lower bound on this lane's future fact keys ("next fact
    /// has key ≥ floor"); `None` until the first message.
    floor: Option<Key>,
    done: Option<Box<WorkerDone>>,
}

impl Lane {
    fn recv_one(&mut self) {
        match self.rx.recv() {
            Ok(WorkerMsg::Batch(facts)) => self.queue.extend(facts),
            Ok(WorkerMsg::Watermark(k)) => self.floor = Some(k),
            Ok(WorkerMsg::Done(d)) => self.done = Some(d),
            Err(_) => panic!("PDES worker disconnected before reporting completion"),
        }
    }
}

/// Pending retirement inputs for one resolved message.
struct Retire {
    record: MsgRecord,
    volume: f64,
    hops: u32,
    recovery: u64,
}

/// The deterministic merger: replays the merged fact stream into the
/// caller's probe and the built-in report accumulators, reproducing the
/// serial engine's fold order exactly.
struct Merger<'a, P: SimProbe> {
    probe: &'a mut P,
    report: ReportProbe,
    n: usize,
    wavelengths: usize,
    full_static: bool,
    /// Streaming static mode: live-transmission counts per
    /// `segment_index · wavelengths + lane`, replayed from Started /
    /// Completed / Dropped facts. Skipped entirely when no two trace
    /// flows share a `(segment, lane)` slot.
    track_conflicts: bool,
    online_conflicts: usize,
    /// Retirement window, indexed by `gid - base`.
    base: u64,
    registered: u64,
    retired: u64,
    flags: VecDeque<u8>,
    pending: VecDeque<Option<Retire>>,
    peak_in_flight: usize,
    offered_bits: f64,
    last_injection: u64,
    failed_attempts: usize,
    retransmitted_bits: f64,
    lost_messages: usize,
    lost_bits: f64,
    /// Path/lane tables (and the active-count + span buffers) on the
    /// merger's own scratch.
    s: SimScratch,
}

impl<'a, P: SimProbe> Merger<'a, P> {
    fn new(
        sim: &OpenLoopSimulator,
        mode: ReportMode,
        used_flows: &[u32],
        probe: &'a mut P,
    ) -> Self {
        let n = sim.ring.node_count();
        let mut s = SimScratch::new();
        s.prepare(n, sim.wavelengths, true, mode == ReportMode::Streaming);
        // The merger only ever walks trace flows (streaming active
        // counts, full-mode span synthesis), so only their rows are
        // built.
        s.flow_rows = Some(used_flows.to_vec());
        s.build_flow_tables(sim);
        // A slot touched by a single flow never counts a conflict: the
        // flow's own messages serialise on `flow_free_at`, and the
        // `Completed < Started` tie-break releases before re-claiming at
        // equal times. Only replay active counts when two trace flows
        // actually share a slot.
        let track_conflicts =
            mode == ReportMode::Streaming && s.shared_lanes.iter().any(|&lanes| lanes != 0);
        Self {
            probe,
            report: ReportProbe::new(mode == ReportMode::Full),
            n,
            wavelengths: sim.wavelengths,
            full_static: mode == ReportMode::Full,
            track_conflicts,
            online_conflicts: 0,
            base: 0,
            registered: 0,
            retired: 0,
            flags: VecDeque::new(),
            pending: VecDeque::new(),
            peak_in_flight: 0,
            offered_bits: 0.0,
            last_injection: 0,
            failed_attempts: 0,
            retransmitted_bits: 0.0,
            lost_messages: 0,
            lost_bits: 0.0,
            s,
        }
    }

    /// Walks `flow`'s path rows over `mask`, adjusting the live count on
    /// every slot (`inc` mirrors the serial conflict accumulation).
    fn walk_active(&mut self, flow: u32, mask: u128, inc: bool) {
        let (lo, hi) = (
            self.s.path_offsets[flow as usize] as usize,
            self.s.path_offsets[flow as usize + 1] as usize,
        );
        let w = self.wavelengths;
        for i in lo..hi {
            let row = self.s.path_segs[i] as usize * w;
            let mut rest = mask;
            while rest != 0 {
                let lane = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                let slot = row + lane;
                if inc {
                    self.online_conflicts += self.s.active_per_lane_seg[slot] as usize;
                    self.s.active_per_lane_seg[slot] += 1;
                } else {
                    self.s.active_per_lane_seg[slot] -= 1;
                }
            }
        }
    }

    fn replay(&mut self, fact: Fact) {
        match fact.kind {
            FactKind::Offered { time, src, volume } => {
                debug_assert_eq!(
                    fact.key.2, self.registered,
                    "registrations merge in global-id order"
                );
                self.probe.offered(time, src);
                self.registered += 1;
                self.flags.push_back(0);
                self.pending.push_back(None);
                #[allow(clippy::cast_possible_truncation)]
                let in_flight = (self.registered - self.retired) as usize;
                self.peak_in_flight = self.peak_in_flight.max(in_flight);
                self.offered_bits += volume;
                self.last_injection = self.last_injection.max(time);
            }
            FactKind::Admitted { now, stall, src } => self.probe.admitted(now, stall, src),
            FactKind::Started { fact, flow } => {
                if self.track_conflicts {
                    self.walk_active(flow, fact.lanes, true);
                }
                self.probe.started(fact);
            }
            FactKind::Completed { fact, flow } => {
                if self.track_conflicts {
                    self.walk_active(flow, fact.lanes, false);
                }
                self.probe.completed(fact);
            }
            FactKind::Dropped { fact, flow } => {
                if self.track_conflicts {
                    self.walk_active(flow, fact.lanes, false);
                }
                self.probe.dropped(fact);
                self.failed_attempts += 1;
                self.retransmitted_bits += fact.bits;
            }
            FactKind::Lost {
                record,
                volume,
                attempts,
            } => {
                self.lost_messages += 1;
                self.lost_bits += volume;
                self.probe.lost(&record, volume, attempts);
            }
            FactKind::Resolved {
                gid,
                record,
                volume,
                flags,
                hops,
                recovery,
            } => {
                let idx = (gid - self.base) as usize;
                self.flags[idx] = flags;
                self.pending[idx] = Some(Retire {
                    record,
                    volume,
                    hops,
                    recovery,
                });
                self.retire_front();
            }
            FactKind::Lane {
                now,
                lane,
                down,
                real,
            } => {
                if real {
                    self.probe.lane_event(now, lane as usize, down);
                }
            }
            FactKind::Marker => {}
        }
    }

    /// The merger's mirror of the serial `retire_front`: folds the
    /// resolved prefix of the global message window, in global id order.
    fn retire_front(&mut self) {
        while let Some(&bits) = self.flags.front() {
            if bits & flag::DONE == 0 {
                break;
            }
            self.flags.pop_front();
            let r = self
                .pending
                .pop_front()
                .expect("pending parallels flags")
                .expect("a DONE message carries its resolution");
            self.base += 1;
            self.retired += 1;
            if bits & flag::LOST != 0 {
                continue;
            }
            let record = r.record;
            if bits & flag::FAILED != 0 {
                self.probe.recovered(&record, record.attempts, r.recovery);
            }
            self.report.retired(&record, r.volume, r.hops as usize);
            self.probe.retired(&record, r.volume, r.hops as usize);
            if self.full_static {
                let w = self.wavelengths as u64;
                #[allow(clippy::cast_possible_truncation)]
                let id = (self.base - 1) as usize;
                let flow = record.src.0 * self.n + record.dst.0;
                let mask = self.s.flow_lane_masks[flow];
                let (lo, hi) = (
                    self.s.path_offsets[flow] as usize,
                    self.s.path_offsets[flow + 1] as usize,
                );
                for i in lo..hi {
                    let seg = self.s.path_segs[i];
                    let row = u64::from(seg) * w;
                    let mut rest = mask & self.s.shared_lanes[seg as usize];
                    while rest != 0 {
                        let lane = u64::from(rest.trailing_zeros());
                        rest &= rest - 1;
                        self.s
                            .spans
                            .push((row + lane, record.started, record.completed, id));
                    }
                }
            }
        }
    }
}

/// Whether the configuration's run state is fully source-owned, i.e.
/// genuinely shardable. Dynamic arbitration (global lane claims), ECN
/// (global occupancy feedback), and PFC (receiver-side pools drained
/// across all sources) are not; `run_parallel` falls back to the serial
/// engine for them. Self-healing configurations that can actually act —
/// a re-pack policy or a quarantine threshold — mutate the global flow
/// map (and lane timeline) mid-run, and Gilbert–Elliott corruption
/// consults a lazily-drawn per-lane state machine; both run serially
/// until the merger learns to replicate them (see ROADMAP).
fn shardable(sim: &OpenLoopSimulator) -> bool {
    matches!(sim.mode, WavelengthMode::Static(_))
        && matches!(
            sim.injection,
            InjectionMode::Open | InjectionMode::Credit { .. } | InjectionMode::CreditPerDst { .. }
        )
        && matches!(
            sim.transport,
            TransportMode::None | TransportMode::GoBackN { .. }
        )
        && sim
            .healing
            .is_none_or(|h| h.policy == onoc_wa::HealPolicy::Park && h.ber_threshold.is_none())
        && !matches!(
            sim.faults,
            Some(crate::fault::FaultPlan {
                corruption: CorruptionModel::GilbertElliott { .. },
                ..
            })
        )
}

pub(crate) fn run<S: TrafficSource, P: SimProbe>(
    sim: &OpenLoopSimulator,
    source: S,
    workers: usize,
    mode: ReportMode,
    probe: &mut P,
) -> Result<OpenLoopReport, OpenLoopError> {
    let n = sim.ring.node_count();
    let workers = workers.clamp(1, n);
    if workers == 1 || !shardable(sim) {
        return sim.run_with_scratch_probed(source, &mut SimScratch::new(), mode, probe);
    }
    let mut split = split_source(sim, source, workers)?;
    std::thread::scope(|scope| {
        let mut lanes: Vec<Lane> = Vec::with_capacity(workers);
        for w in 0..workers {
            let (tx, rx) = sync_channel::<WorkerMsg>(CHANNEL_DEPTH);
            let events = std::mem::take(&mut split.events[w]);
            let gids = std::mem::take(&mut split.gids[w]);
            let range = split.ranges[w];
            #[allow(clippy::cast_possible_truncation)]
            let rows: Vec<u32> = split
                .used_flows
                .iter()
                .copied()
                .filter(|&f| (f as usize / n) >= range.0 && (f as usize / n) < range.1)
                .collect();
            scope.spawn(move || run_worker(sim, events, gids, range, rows, w == 0, &tx));
            lanes.push(Lane {
                rx,
                queue: VecDeque::new(),
                floor: None,
                done: None,
            });
        }

        // Overlaps with the workers' warm-up: the merger's own path
        // tables and the contention scan.
        let mut merger = Merger::new(sim, mode, &split.used_flows, probe);

        // Conservative k-way merge: pop the lane whose *head* fact keys
        // globally minimal, receiving (blocking) from any lane that
        // could still undercut the candidate. Head order — not a global
        // key sort — is the serial order: the serial calendar pops the
        // minimum of the union of the shards' pending sets, and each
        // shard's stream head is exactly its local next pop.
        loop {
            let mut min: Option<(Key, usize)> = None;
            for (i, lane) in lanes.iter().enumerate() {
                if let Some(f) = lane.queue.front() {
                    if min.is_none_or(|(k, _)| f.key < k) {
                        min = Some((f.key, i));
                    }
                }
            }
            let needs_recv = lanes.iter().position(|lane| {
                lane.queue.is_empty()
                    && lane.done.is_none()
                    && match (lane.floor, min) {
                        (Some(floor), Some((mk, _))) => floor <= mk,
                        _ => true,
                    }
            });
            if let Some(i) = needs_recv {
                lanes[i].recv_one();
                continue;
            }
            let Some((key, i)) = min else {
                break;
            };
            let fact = lanes[i].queue.pop_front().expect("min came from this lane");
            let raise = |floor: &mut Option<Key>, to: Key| {
                *floor = Some(floor.map_or(to, |f| f.max(to)));
            };
            raise(&mut lanes[i].floor, sound_floor(key));
            let is_lane = matches!(fact.kind, FactKind::Lane { .. });
            merger.replay(fact);
            if is_lane {
                // Lane facts are replicated with identical keys across
                // every shard, and each copy is the barrier holding back
                // its own shard's same-cycle restarts. At this point all
                // copies have arrived (an absent copy would have kept
                // its lane's floor at or below `key`): pop them together
                // so no shard's restarts merge ahead of another's.
                for (j, lane) in lanes.iter_mut().enumerate() {
                    if j == i {
                        continue;
                    }
                    let dup = lane
                        .queue
                        .pop_front()
                        .expect("every shard replays every lane event");
                    debug_assert!(
                        dup.key == key && matches!(dup.kind, FactKind::Lane { .. }),
                        "lane-event copies merge as one"
                    );
                    raise(&mut lane.floor, sound_floor(key));
                    merger.replay(dup);
                }
            }
        }

        let dones: Vec<Box<WorkerDone>> = lanes
            .into_iter()
            .map(|l| l.done.expect("every lane finished with a Done"))
            .collect();
        Ok(assemble(sim, mode, &split, merger, &dones))
    })
}

/// Mirrors the serial `finish()`: assembles the global report from the
/// merged replay state and the workers' aggregates.
fn assemble<P: SimProbe>(
    sim: &OpenLoopSimulator,
    mode: ReportMode,
    split: &Split,
    mut merger: Merger<'_, P>,
    dones: &[Box<WorkerDone>],
) -> OpenLoopReport {
    let n = sim.ring.node_count();
    debug_assert_eq!(
        merger.registered as usize, split.total,
        "every registration replayed"
    );
    debug_assert_eq!(
        merger.retired, merger.registered,
        "every message resolved once the workers drained"
    );
    let horizon = dones.iter().map(|d| d.horizon).max().unwrap_or(0);
    merger.probe.finished(horizon, merger.last_injection);

    let (conflict_count, conflict_examples) = match mode {
        ReportMode::Full => sweep_conflicts_flat(&mut merger.s.spans, sim.wavelengths),
        ReportMode::Streaming => (merger.online_conflicts, Vec::new()),
    };
    let mut segment_dense = vec![0u64; segment_count(n)];
    let mut lane_busy = vec![0u64; sim.wavelengths];
    let mut blocked_attempts = 0usize;
    for d in dones {
        for &(seg, busy) in &d.segment_busy {
            segment_dense[seg.segment_index()] += busy;
        }
        for (acc, &busy) in lane_busy.iter_mut().zip(&d.lane_busy) {
            *acc += busy;
        }
        blocked_attempts += d.blocked_attempts;
    }
    let segment_busy: Vec<(DirectedSegment, u64)> = segment_dense
        .iter()
        .enumerate()
        .filter(|&(_, &busy)| busy > 0)
        .map(|(dense, &busy)| (DirectedSegment::from_segment_index(dense), busy))
        .collect();
    let credit_occupancy = match sim.injection {
        InjectionMode::Credit { window } if horizon > 0 => {
            let used: f64 = dones.iter().flat_map(|d| d.credit_cycles.iter()).sum();
            #[allow(clippy::cast_precision_loss)]
            {
                used / (horizon as f64 * n as f64 * window as f64)
            }
        }
        InjectionMode::CreditPerDst { window } if horizon > 0 => {
            let used: f64 = dones.iter().flat_map(|d| d.credit_cycles.iter()).sum();
            #[allow(clippy::cast_precision_loss)]
            {
                used / (horizon as f64 * (n * (n - 1) * window) as f64)
            }
        }
        _ => 0.0,
    };
    OpenLoopReport {
        nodes: n,
        wavelengths: sim.wavelengths,
        injection: sim.injection,
        horizon,
        last_injection: merger.last_injection,
        message_count: split.total - merger.lost_messages,
        records: merger.report.records,
        latency_hist: merger.report.latency_hist,
        stall_hist: merger.report.stall_hist,
        peak_in_flight: merger.peak_in_flight,
        offered_bits: merger.offered_bits,
        delivered_bits: merger.report.delivered_bits,
        blocked_attempts,
        conflict_count,
        conflict_examples,
        segment_busy,
        lane_busy,
        credit_occupancy,
        failed_attempts: merger.failed_attempts,
        retransmitted_bits: merger.retransmitted_bits,
        lost_messages: merger.lost_messages,
        lost_bits: merger.lost_bits,
    }
}

impl OpenLoopSimulator {
    /// Runs the engine sharded over `workers` conservative PDES workers.
    ///
    /// Bit-identical to [`OpenLoopSimulator::run`] /
    /// [`run_streaming`](OpenLoopSimulator::run_streaming) for every
    /// worker count: sources are partitioned into contiguous ring
    /// groups, each worker replays the serial event core over its own
    /// calendar queue, and a deterministic merger reassembles the
    /// report in the exact serial fact order (see the
    /// [module docs](self) for the sharding and synchronization
    /// scheme). `workers` is clamped to `1..=nodes`; configurations
    /// whose state is not source-owned (dynamic arbitration, ECN, PFC)
    /// run serially regardless of `workers`.
    ///
    /// # Errors
    ///
    /// As for [`OpenLoopSimulator::run`]. The trace is validated
    /// upfront, before any worker starts.
    pub fn run_parallel<S: TrafficSource>(
        &self,
        source: S,
        workers: usize,
        mode: ReportMode,
    ) -> Result<OpenLoopReport, OpenLoopError> {
        self.run_parallel_probed(source, workers, mode, &mut NullProbe)
    }

    /// [`run_parallel`](OpenLoopSimulator::run_parallel) with an
    /// attached [`SimProbe`]: the merger replays the merged fact stream
    /// into the probe in the exact serial order, so energy, telemetry,
    /// and reliability probes compose unchanged.
    ///
    /// # Errors
    ///
    /// As for [`OpenLoopSimulator::run`]. On a validation error the
    /// probe observes no facts (the serial engine reports the facts
    /// preceding the failure).
    pub fn run_parallel_probed<S: TrafficSource, P: SimProbe>(
        &self,
        source: S,
        workers: usize,
        mode: ReportMode,
        probe: &mut P,
    ) -> Result<OpenLoopReport, OpenLoopError> {
        run(self, source, workers, mode, probe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{
        CorruptionModel, FaultCause, FaultPlan, LaneFault, ReliabilityProbe, StochasticFaults,
    };
    use crate::openloop::StaticFlowMap;
    use onoc_topology::RingTopology;
    use onoc_units::{Bits, BitsPerCycle};
    use proptest::prelude::*;

    fn event(time: u64, src: usize, dst: usize, bits: f64) -> TrafficEvent {
        TrafficEvent {
            time,
            src: NodeId(src),
            dst: NodeId(dst),
            volume: Bits::new(bits),
        }
    }

    /// Deterministic mixed trace over `nodes` sources.
    fn mixed_trace(nodes: usize, count: usize, seed: u64) -> Vec<TrafficEvent> {
        let mut state = seed | 1;
        let mut t = 0u64;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            let r = state >> 33;
            t += r % 7;
            let src = (r / 7) as usize % nodes;
            let dst = (src + 1 + (r / 7 / nodes as u64) as usize % (nodes - 1)) % nodes;
            let bits = 64.0 + (r % 5) as f64 * 32.0;
            out.push(event(t, src, dst, bits));
        }
        out
    }

    fn sim_static(nodes: usize, wavelengths: usize, injection: InjectionMode) -> OpenLoopSimulator {
        OpenLoopSimulator::with_injection(
            RingTopology::new(nodes),
            wavelengths,
            BitsPerCycle::new(1.0),
            WavelengthMode::Static(StaticFlowMap::striped(nodes, wavelengths, 1)),
            injection,
        )
    }

    /// A probe that records every fact verbatim, to pin the *stream*
    /// (not just the report) between serial and parallel runs.
    #[derive(Default, Debug, PartialEq)]
    struct TapeProbe(Vec<String>);

    impl SimProbe for TapeProbe {
        fn offered(&mut self, time: u64, src: NodeId) {
            self.0.push(format!("off {time} {src:?}"));
        }
        fn admitted(&mut self, now: u64, stall: u64, src: NodeId) {
            self.0.push(format!("adm {now} {stall} {src:?}"));
        }
        fn started(&mut self, fact: TxFact) {
            self.0.push(format!("sta {fact:?}"));
        }
        fn completed(&mut self, fact: TxFact) {
            self.0.push(format!("com {fact:?}"));
        }
        fn retired(&mut self, record: &MsgRecord, volume_bits: f64, hops: usize) {
            self.0
                .push(format!("ret {record:?} {volume_bits:?} {hops}"));
        }
        fn dropped(&mut self, fact: DropFact) {
            self.0.push(format!("drp {fact:?}"));
        }
        fn lost(&mut self, record: &MsgRecord, volume_bits: f64, attempts: u32) {
            self.0
                .push(format!("los {record:?} {volume_bits:?} {attempts}"));
        }
        fn recovered(&mut self, record: &MsgRecord, attempts: u32, recovery_cycles: u64) {
            self.0
                .push(format!("rec {record:?} {attempts} {recovery_cycles}"));
        }
        fn lane_event(&mut self, now: u64, lane: usize, down: bool) {
            self.0.push(format!("lan {now} {lane} {down}"));
        }
        fn finished(&mut self, horizon: u64, last_injection: u64) {
            self.0.push(format!("fin {horizon} {last_injection}"));
        }
    }

    fn assert_parallel_matches(sim: &OpenLoopSimulator, trace: &[TrafficEvent], workers: usize) {
        for mode in [ReportMode::Full, ReportMode::Streaming] {
            let mut serial_tape = TapeProbe::default();
            let serial = sim
                .run_with_scratch_probed(
                    trace.iter().copied(),
                    &mut SimScratch::new(),
                    mode,
                    &mut serial_tape,
                )
                .unwrap();
            let mut par_tape = TapeProbe::default();
            let parallel = sim
                .run_parallel_probed(trace.iter().copied(), workers, mode, &mut par_tape)
                .unwrap();
            assert_eq!(serial, parallel, "{mode:?} report at {workers} workers");
            assert_eq!(
                serial_tape.0, par_tape.0,
                "{mode:?} fact stream at {workers} workers"
            );
        }
    }

    #[test]
    fn parallel_report_and_fact_stream_match_serial() {
        let trace = mixed_trace(16, 600, 0xC0FFEE);
        for injection in [
            InjectionMode::Open,
            InjectionMode::Credit { window: 2 },
            InjectionMode::CreditPerDst { window: 1 },
        ] {
            let sim = sim_static(16, 8, injection);
            for workers in [1, 2, 3, 4, 7, 16, 64] {
                assert_parallel_matches(&sim, &trace, workers);
            }
        }
    }

    #[test]
    fn parallel_matches_serial_under_faults_and_transport() {
        let trace = mixed_trace(16, 400, 0xFA57);
        let plan = FaultPlan {
            seed: 7,
            scheduled: vec![LaneFault {
                lane: 1,
                at: 40,
                duration: 300,
            }],
            stochastic: Some(StochasticFaults {
                mean_up: 700.0,
                mean_down: 90.0,
                horizon: 3_000,
            }),
            corruption: CorruptionModel::Uniform { ber: 2e-4 },
        };
        let sim = sim_static(16, 8, InjectionMode::Credit { window: 3 })
            .with_faults(plan)
            .with_transport(TransportMode::go_back_n());
        for workers in [2, 3, 4, 16] {
            assert_parallel_matches(&sim, &trace, workers);
        }
    }

    #[test]
    fn reliability_probe_composes_identically() {
        let trace = mixed_trace(12, 300, 0xBEEF);
        let plan = FaultPlan {
            seed: 3,
            scheduled: Vec::new(),
            stochastic: None,
            corruption: CorruptionModel::Uniform { ber: 1e-3 },
        };
        let sim = sim_static(12, 6, InjectionMode::Open)
            .with_faults(plan)
            .with_transport(TransportMode::go_back_n());
        let mut serial_probe = ReliabilityProbe::new(6);
        let serial = sim
            .run_with_scratch_probed(
                trace.iter().copied(),
                &mut SimScratch::new(),
                ReportMode::Streaming,
                &mut serial_probe,
            )
            .unwrap();
        let mut par_probe = ReliabilityProbe::new(6);
        let parallel = sim
            .run_parallel_probed(
                trace.iter().copied(),
                3,
                ReportMode::Streaming,
                &mut par_probe,
            )
            .unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(serial_probe.report(), par_probe.report());
        assert!(serial.failed_attempts > 0, "the BER actually bites");
        let _ = FaultCause::Corrupt;
    }

    #[test]
    fn all_cross_shard_hotspot_terminates_and_matches() {
        // Every source hammers node 0 (all flows cross shard boundaries
        // by destination); the acyclic worker → merger pipeline cannot
        // deadlock, and the result stays bit-identical.
        let nodes = 32;
        let mut trace = Vec::new();
        for round in 0..40u64 {
            for src in 1..nodes {
                trace.push(event(round * 3, src, 0, 96.0));
            }
        }
        trace.sort_by_key(|e| e.time);
        let sim = sim_static(nodes, 8, InjectionMode::Credit { window: 2 });
        for workers in [2, 4, 5] {
            assert_parallel_matches(&sim, &trace, workers);
        }
    }

    #[test]
    fn ineligible_configurations_fall_back_to_serial() {
        // ECN is globally coupled; run_parallel must still agree (it
        // runs the serial engine internally).
        let trace = mixed_trace(16, 200, 0xE01);
        let sim = sim_static(16, 8, InjectionMode::Ecn { threshold: 0.4 });
        let serial = sim.run_streaming(trace.iter().copied()).unwrap();
        let parallel = sim
            .run_parallel(trace.iter().copied(), 4, ReportMode::Streaming)
            .unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_trace_parallel_is_a_clean_zero_report() {
        let sim = sim_static(8, 4, InjectionMode::Open);
        let serial = sim.run(std::iter::empty()).unwrap();
        let parallel = sim
            .run_parallel(std::iter::empty(), 4, ReportMode::Full)
            .unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(parallel.message_count, 0);
    }

    #[test]
    fn validation_errors_match_serial_semantics() {
        let sim = sim_static(8, 4, InjectionMode::Open);
        let bad = [event(5, 0, 1, 64.0), event(3, 1, 2, 64.0)];
        let serial = sim.run(bad.iter().copied()).unwrap_err();
        let parallel = sim
            .run_parallel(bad.iter().copied(), 2, ReportMode::Full)
            .unwrap_err();
        assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
    }

    proptest! {
        #[test]
        fn parallel_is_bit_identical_across_worker_counts(
            seed in 0u64..1_000,
            count in 50usize..250,
            injection_pick in 0usize..3,
            faulty in any::<bool>(),
            workers in 2usize..5,
        ) {
            let injection = match injection_pick {
                0 => InjectionMode::Open,
                1 => InjectionMode::Credit { window: 2 },
                _ => InjectionMode::Ecn { threshold: 0.5 },
            };
            let trace = mixed_trace(16, count, seed * 2 + 1);
            let mut sim = sim_static(16, 8, injection);
            if faulty {
                sim = sim
                    .with_faults(FaultPlan {
                        seed,
                        scheduled: vec![LaneFault { lane: 0, at: 25, duration: 120 }],
                        stochastic: None,
                        corruption: CorruptionModel::Uniform { ber: 5e-4 },
                    })
                    .with_transport(TransportMode::go_back_n());
            }
            for mode in [ReportMode::Full, ReportMode::Streaming] {
                let serial = sim
                    .run_with_scratch_probed(
                        trace.iter().copied(),
                        &mut SimScratch::new(),
                        mode,
                        &mut NullProbe,
                    )
                    .unwrap();
                let one = sim.run_parallel(trace.iter().copied(), 1, mode).unwrap();
                let many = sim.run_parallel(trace.iter().copied(), workers, mode).unwrap();
                prop_assert_eq!(&serial, &one);
                prop_assert_eq!(&serial, &many);
            }
        }
    }
}
