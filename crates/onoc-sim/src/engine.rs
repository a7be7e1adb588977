//! The task-graph engine: one event loop over a mapped application, whose
//! communications take their lanes either from a fixed allocation or from
//! runtime arbitration.
//!
//! The related work of the paper (§II, after Zang et al.) distinguishes
//! *static-time* wavelength assignment — decided offline, the paper's and
//! this workspace's main subject — from *dynamic-time* assignment, where a
//! lightpath grabs wavelengths on demand when its data is ready and releases
//! them afterwards.
//!
//! [`Simulator::new`] runs the static class on an [`Allocation`].
//! [`Simulator::dynamic`] runs the dynamic class on the same ring: when a
//! communication becomes ready it claims free wavelengths on **every**
//! directed segment of its path (lowest indices first, per
//! [`DynamicPolicy`]); if none are free it waits for a release. This lets
//! the repository answer a question the paper leaves open: how much
//! performance does design-time allocation leave on the table compared
//! with an idealised runtime allocator that pays no arbitration cost?
//!
//! # Example
//!
//! ```
//! use onoc_sim::{DynamicPolicy, Simulator};
//! use onoc_units::BitsPerCycle;
//! use onoc_wa::ProblemInstance;
//!
//! let instance = ProblemInstance::paper_with_wavelengths(8);
//! let sim = Simulator::dynamic(
//!     instance.app(),
//!     8,
//!     BitsPerCycle::new(1.0),
//!     DynamicPolicy::Greedy { cap: 8 },
//! )
//! .unwrap();
//! let report = sim.run().unwrap();
//! // An unconstrained runtime allocator can use the full comb per burst and
//! // beats the best static allocation (23.7 kcc at 8 λ) — even though the
//! // full-comb bursts serialise simultaneous communications.
//! assert!(report.makespan <= 23_700);
//! assert!(report.conflicts.is_empty());
//! ```

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use onoc_app::{CommId, MappedApplication, TaskId};
use onoc_photonics::WavelengthId;
use onoc_topology::{DirectedSegment, segment_count};
use onoc_units::BitsPerCycle;
use onoc_wa::Allocation;

use crate::injection::{DynamicPolicy, LaneArbiter, mask_lanes};
use crate::{ChannelConflict, SimReport};

/// Errors raised by the simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The allocation shape does not match the application.
    ShapeMismatch {
        /// Communications in the application.
        comms: usize,
        /// Communications encoded in the allocation.
        encoded: usize,
    },
    /// A communication has no wavelengths: its consumer would wait forever.
    Deadlock {
        /// The starved communication.
        comm: CommId,
    },
    /// The task graph is cyclic; some tasks can never start.
    Cyclic,
    /// The ring is too large for runtime arbitration, which indexes
    /// directed segments in 16 bits (at most 32 768 nodes).
    RingTooLarge {
        /// Nodes on the ring.
        nodes: usize,
    },
    /// A task's or communication's duration, or the cycle it ends at,
    /// does not fit in `u64` cycles.
    Overflow {
        /// The task or communication that overflows.
        at: Activity,
    },
}

/// A task or a communication of the simulated task graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activity {
    /// A task's execution.
    Task(TaskId),
    /// A communication's transmission.
    Comm(CommId),
}

impl core::fmt::Display for SimError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SimError::ShapeMismatch { comms, encoded } => {
                write!(
                    f,
                    "allocation encodes {encoded} communications, application has {comms}"
                )
            }
            SimError::Deadlock { comm } => {
                write!(f, "{comm} has no wavelengths; its consumer never starts")
            }
            SimError::Cyclic => write!(f, "task graph contains a cycle"),
            SimError::RingTooLarge { nodes } => write!(
                f,
                "runtime arbitration runs on rings of at most 32768 nodes, got {nodes}"
            ),
            SimError::Overflow {
                at: Activity::Task(t),
            } => write!(f, "task {t} ends past the last u64 cycle"),
            SimError::Overflow {
                at: Activity::Comm(c),
            } => write!(f, "communication {c} ends past the last u64 cycle"),
        }
    }
}

impl std::error::Error for SimError {}

/// Event kinds, ordered so ties at one timestamp resolve deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    TaskCompleted(usize),
    CommArrived(usize),
}

/// Where a run's communications get their lanes.
#[derive(Debug)]
enum Lanes<'a> {
    /// A design-time allocation: each communication starts on its own
    /// lanes as soon as its producer finishes.
    Fixed(&'a Allocation),
    /// Runtime claims from a [`LaneArbiter`] over a `wavelengths` comb.
    Arbitrated {
        wavelengths: usize,
        policy: DynamicPolicy,
        /// Dense indices of every communication's route segments.
        segs: Vec<Vec<u16>>,
    },
}

/// An event-driven, integer-cycle simulator of one application run, with
/// its lanes fixed by an allocation ([`Simulator::new`]) or claimed at
/// runtime ([`Simulator::dynamic`]).
///
/// See the crate docs for the execution semantics. Propagation latency along
/// the ring is not modelled: light crosses the whole 27 mm ring in well
/// under one clock cycle at 1 GHz, and the paper's analytic model ignores it
/// too.
#[derive(Debug)]
pub struct Simulator<'a> {
    app: &'a MappedApplication,
    lanes: Lanes<'a>,
    rate: BitsPerCycle,
}

impl<'a> Simulator<'a> {
    /// Binds a simulator to an application and an allocation.
    ///
    /// Unlike the analytic evaluator, the allocation does **not** need to
    /// satisfy the static §III-D constraints — runtime collisions are
    /// reported in [`SimReport::conflicts`] instead.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if shapes disagree, a communication has no
    /// wavelengths, or the task graph is cyclic.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive.
    pub fn new(
        app: &'a MappedApplication,
        allocation: &'a Allocation,
        rate: BitsPerCycle,
    ) -> Result<Self, SimError> {
        assert!(
            rate.value() > 0.0,
            "per-wavelength data rate must be strictly positive, got {rate}"
        );
        if allocation.comm_count() != app.graph().comm_count() {
            return Err(SimError::ShapeMismatch {
                comms: app.graph().comm_count(),
                encoded: allocation.comm_count(),
            });
        }
        for (id, _) in app.graph().comms() {
            if allocation.channels(id).is_empty() {
                return Err(SimError::Deadlock { comm: id });
            }
        }
        Self::bind(app, Lanes::Fixed(allocation), rate)
    }

    /// Binds a simulator whose communications claim their lanes at
    /// runtime from a `wavelengths`-channel comb, as `policy` asks.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::RingTooLarge`] for a ring of more than 32 768
    /// nodes and [`SimError::Cyclic`] for a cyclic task graph.
    ///
    /// # Panics
    ///
    /// Panics if `wavelengths` is zero or exceeds 128, `rate` is not
    /// strictly positive, or the policy is degenerate (`cap == 0`).
    pub fn dynamic(
        app: &'a MappedApplication,
        wavelengths: usize,
        rate: BitsPerCycle,
        policy: DynamicPolicy,
    ) -> Result<Self, SimError> {
        assert!(
            wavelengths > 0 && wavelengths <= 128,
            "dynamic simulator supports 1..=128 wavelengths, got {wavelengths}"
        );
        assert!(
            rate.value() > 0.0,
            "per-wavelength data rate must be strictly positive, got {rate}"
        );
        if let DynamicPolicy::Greedy { cap } = policy {
            assert!(cap > 0, "greedy burst cap must be at least 1");
        }
        let nodes = app.ring().node_count();
        if segment_count(nodes) > usize::from(u16::MAX) + 1 {
            return Err(SimError::RingTooLarge { nodes });
        }
        let segs = (0..app.graph().comm_count())
            .map(|c| {
                let route = app.route(CommId(c)).segments();
                route.map(|s| s.segment_index() as u16).collect()
            })
            .collect();
        let lanes = Lanes::Arbitrated {
            wavelengths,
            policy,
            segs,
        };
        Self::bind(app, lanes, rate)
    }

    fn bind(
        app: &'a MappedApplication,
        lanes: Lanes<'a>,
        rate: BitsPerCycle,
    ) -> Result<Self, SimError> {
        if app.graph().topological_order().is_err() {
            return Err(SimError::Cyclic);
        }
        Ok(Self { app, lanes, rate })
    }

    /// Runs the simulation to completion.
    ///
    /// Under runtime arbitration a ready communication that finds no free
    /// lane joins one FIFO wait list and counts in
    /// [`SimReport::blocked_attempts`]; every delivery releases its lanes,
    /// wakes its consumer, then retries the whole list in order. The run
    /// always terminates: once the ring drains the full comb is free.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Overflow`] when a task's or communication's
    /// duration, or the cycle it ends at, does not fit in `u64` cycles.
    pub fn run(&self) -> Result<SimReport, SimError> {
        let graph = self.app.graph();
        let (nt, nl) = (graph.task_count(), graph.comm_count());
        let (granted, arbitration): (Vec<Vec<WavelengthId>>, _) = match &self.lanes {
            Lanes::Fixed(allocation) => {
                let lanes = (0..nl).map(|c| allocation.channels(CommId(c))).collect();
                (lanes, None)
            }
            Lanes::Arbitrated {
                wavelengths,
                policy,
                segs,
            } => {
                let arbiter = LaneArbiter::new(self.app.ring().node_count(), *wavelengths);
                (
                    vec![Vec::new(); nl],
                    Some((arbiter, segs.as_slice(), policy.lane_demand())),
                )
            }
        };
        let mut run = Run {
            sim: self,
            arbitration,
            task_spans: vec![(0, 0); nt],
            comm_spans: vec![(0, 0); nl],
            granted,
            // Task graphs hold tens of events, so a binary heap stays the
            // right queue here; the calendar queue pays off in the
            // high-rate open-loop engine, not at this scale.
            queue: BinaryHeap::new(),
        };
        let mut pending_inputs: Vec<usize> =
            (0..nt).map(|t| graph.incoming(TaskId(t)).len()).collect();
        let mut waiting: VecDeque<CommId> = VecDeque::new();
        let mut blocked_attempts = 0usize;

        // All dependency-free tasks start at cycle 0.
        for (t, &pending) in pending_inputs.iter().enumerate() {
            if pending == 0 {
                run.start_task(TaskId(t), 0)?;
            }
        }

        let mut makespan = 0u64;
        while let Some(Reverse((now, event))) = run.queue.pop() {
            makespan = makespan.max(now);
            match event {
                Event::TaskCompleted(t) => {
                    for &c in graph.outgoing(TaskId(t)) {
                        if !run.try_start(c, now)? {
                            blocked_attempts += 1;
                            waiting.push_back(c);
                        }
                    }
                }
                Event::CommArrived(c) => {
                    run.release(c);
                    let dst = graph.comm(CommId(c)).dst();
                    pending_inputs[dst.0] -= 1;
                    if pending_inputs[dst.0] == 0 {
                        run.start_task(dst, now)?;
                    }
                    // Retry the wait list in FIFO order.
                    for _ in 0..waiting.len() {
                        let w = waiting.pop_front().expect("counted above");
                        if !run.try_start(w, now)? {
                            waiting.push_back(w);
                        }
                    }
                }
            }
        }

        debug_assert!(
            pending_inputs.iter().all(|&p| p == 0),
            "validated DAGs always drain"
        );
        debug_assert!(waiting.is_empty(), "releases always drain the wait list");
        let conflicts = detect_conflicts(self.app, &run.comm_spans, &run.granted);
        debug_assert!(
            run.arbitration.is_none() || conflicts.is_empty(),
            "dynamic arbitration produced a conflict: {conflicts:?}"
        );
        let segment_busy = self.accumulate_utilization(&run.comm_spans, &run.granted);
        Ok(SimReport {
            makespan,
            task_spans: run.task_spans,
            comm_spans: run.comm_spans,
            granted: run.granted,
            blocked_attempts,
            conflicts,
            segment_busy,
        })
    }

    /// Busy wavelength-cycles per directed segment, accumulated in a flat
    /// dense-indexed table (the dense order *is* the canonical report
    /// order, so no sort is needed). Segments a route crosses are listed
    /// even when their accumulated busy time is zero, matching the old
    /// hash-map behaviour.
    fn accumulate_utilization(
        &self,
        comm_spans: &[(u64, u64)],
        granted: &[Vec<WavelengthId>],
    ) -> Vec<(DirectedSegment, u64)> {
        let ring_nodes = self.app.ring().node_count();
        let mut busy = vec![0u64; segment_count(ring_nodes)];
        let mut touched = vec![false; segment_count(ring_nodes)];
        for (k, &(start, end)) in comm_spans.iter().enumerate() {
            let lanes = granted[k].len() as u64;
            for segment in self.app.route(CommId(k)).segments() {
                let dense = segment.segment_index();
                busy[dense] += (end - start) * lanes;
                touched[dense] = true;
            }
        }
        busy.iter()
            .enumerate()
            .filter(|&(dense, _)| touched[dense])
            .map(|(dense, &b)| (DirectedSegment::from_segment_index(dense), b))
            .collect()
    }
}

/// The mutable state of one run: spans, lanes held, the event queue and,
/// under runtime arbitration, the arbiter with every route's segment
/// indices and the policy's lane demand.
struct Run<'s, 'a> {
    sim: &'s Simulator<'a>,
    arbitration: Option<(LaneArbiter, &'s [Vec<u16>], usize)>,
    task_spans: Vec<(u64, u64)>,
    comm_spans: Vec<(u64, u64)>,
    granted: Vec<Vec<WavelengthId>>,
    queue: BinaryHeap<Reverse<(u64, Event)>>,
}

impl Run<'_, '_> {
    /// Starts task `t` at `now` for `⌈exec⌉` cycles.
    fn start_task(&mut self, t: TaskId, now: u64) -> Result<(), SimError> {
        let exec = self.sim.app.graph().task(t).execution_time().value();
        let end = end_cycle(now, exec, Activity::Task(t))?;
        self.task_spans[t.0] = (now, end);
        self.queue.push(Reverse((end, Event::TaskCompleted(t.0))));
        Ok(())
    }

    /// Starts communication `c` at `now` for `⌈V / (lanes·B)⌉` cycles;
    /// `false` when runtime arbitration finds no lane free along its path.
    fn try_start(&mut self, c: CommId, now: u64) -> Result<bool, SimError> {
        if let Some((arbiter, segs, demand)) = &mut self.arbitration {
            let Some(mask) = arbiter.claim_mask(&segs[c.0], *demand) else {
                return Ok(false);
            };
            self.granted[c.0] = mask_lanes(mask);
        }
        let volume = self.sim.app.graph().comm(c).volume().value();
        let duration = volume / (self.granted[c.0].len() as f64 * self.sim.rate.value());
        let end = end_cycle(now, duration, Activity::Comm(c))?;
        self.comm_spans[c.0] = (now, end);
        self.queue.push(Reverse((end, Event::CommArrived(c.0))));
        Ok(true)
    }

    /// Returns the lanes of delivered communication `c` to the arbiter.
    fn release(&mut self, c: usize) {
        if let Some((arbiter, segs, _)) = &mut self.arbitration {
            let mask = self.granted[c]
                .iter()
                .fold(0u128, |m, lane| m | 1 << lane.index());
            arbiter.release_mask(&segs[c], mask);
        }
    }
}

/// `now` plus `duration` rounded up to whole cycles, or
/// [`SimError::Overflow`] naming `at` when either does not fit in `u64`.
fn end_cycle(now: u64, duration: f64, at: Activity) -> Result<u64, SimError> {
    let cycles = duration.ceil();
    // `u64::MAX as f64` rounds up to 2^64, the first value that overflows.
    if cycles < u64::MAX as f64 {
        if let Some(end) = now.checked_add(cycles as u64) {
            return Ok(end);
        }
    }
    Err(SimError::Overflow { at })
}

/// Cross-checks every pair of communications for simultaneous use of one
/// wavelength on one directed segment, given the lanes each one held.
fn detect_conflicts(
    app: &MappedApplication,
    comm_spans: &[(u64, u64)],
    lanes: &[Vec<WavelengthId>],
) -> Vec<ChannelConflict> {
    let graph = app.graph();
    let mut conflicts = Vec::new();
    for i in 0..graph.comm_count() {
        for j in (i + 1)..graph.comm_count() {
            let (s1, e1) = comm_spans[i];
            let (s2, e2) = comm_spans[j];
            let overlap = (s1.max(s2), e1.min(e2));
            if overlap.0 >= overlap.1 {
                continue; // disjoint in time
            }
            let (pi, pj) = (app.route(CommId(i)), app.route(CommId(j)));
            if !pi.overlaps(pj) {
                continue; // disjoint in space
            }
            let Some(channel) = lanes[i].iter().copied().find(|ch| lanes[j].contains(ch)) else {
                continue; // disjoint in wavelength
            };
            let segment = pj
                .segments()
                .find(|s| pi.contains_segment(*s))
                .expect("overlapping paths share a segment");
            conflicts.push(ChannelConflict {
                segment,
                channel,
                first: if s1 <= s2 { CommId(i) } else { CommId(j) },
                second: if s1 <= s2 { CommId(j) } else { CommId(i) },
                overlap,
            });
        }
    }
    conflicts
}

#[cfg(test)]
mod tests {
    use super::*;
    use onoc_app::Schedule;
    use onoc_wa::ProblemInstance;
    use proptest::prelude::*;

    fn rate() -> BitsPerCycle {
        BitsPerCycle::new(1.0)
    }

    #[test]
    fn paper_anchor_runs_match_analytic_model() {
        let inst4 = ProblemInstance::paper_with_wavelengths(4);
        for counts in [[1usize, 1, 1, 1, 1, 1], [2, 2, 4, 2, 2, 4]] {
            let alloc = inst4.allocation_from_counts(&counts).unwrap();
            let sim = Simulator::new(inst4.app(), &alloc, rate()).unwrap();
            let report = sim.run().unwrap();
            let schedule = Schedule::new(inst4.app().graph(), rate()).unwrap();
            let analytic = schedule.evaluate(&counts).unwrap().makespan;
            assert_eq!(
                report.makespan as f64,
                analytic.value(),
                "counts {counts:?}"
            );
            assert!(report.conflicts.is_empty());
        }
    }

    #[test]
    fn ceiling_effects_round_up() {
        // 8-λ optimum [3,4,8,5,3,8] has fractional comm times (6/5 = 1.2
        // cycles per kb → 1200 cycles exactly… choose counts with true
        // fractions): 6 kb over 7 λ = 857.14… cycles → 858 in the DES.
        let inst = ProblemInstance::paper_with_wavelengths(8);
        let counts = [1usize, 7, 1, 1, 1, 1];
        let alloc = inst.allocation_from_counts(&counts).unwrap();
        let report = Simulator::new(inst.app(), &alloc, rate())
            .unwrap()
            .run()
            .unwrap();
        let analytic = Schedule::new(inst.app().graph(), rate())
            .unwrap()
            .evaluate(&counts)
            .unwrap()
            .makespan;
        assert!(report.makespan as f64 >= analytic.value());
        assert!((report.makespan as f64) < analytic.value() + 6.0);
    }

    #[test]
    fn task_and_comm_spans_are_causal() {
        let inst = ProblemInstance::paper_with_wavelengths(8);
        let alloc = inst.allocation_from_counts(&[2, 3, 2, 2, 2, 2]).unwrap();
        let report = Simulator::new(inst.app(), &alloc, rate())
            .unwrap()
            .run()
            .unwrap();
        let graph = inst.app().graph();
        for (id, c) in graph.comms() {
            let (cs, ce) = report.comm_spans[id.0];
            let (_, src_end) = report.task_spans[c.src().0];
            let (dst_start, _) = report.task_spans[c.dst().0];
            assert_eq!(cs, src_end, "{id} starts when its producer ends");
            assert!(ce <= dst_start, "{id} arrives before its consumer starts");
        }
    }

    #[test]
    fn statically_invalid_allocation_reports_runtime_conflict() {
        // c0 and c1 share segments; give both λ1. They also overlap in time
        // (both start at cycle 5000), so the conflict is real.
        let inst = ProblemInstance::paper_with_wavelengths(4);
        let alloc = onoc_wa::Allocation::from_counts_dense(&[1, 1, 1, 1, 1, 1], 4).unwrap();
        assert!(!inst.checker().is_valid(&alloc));
        let report = Simulator::new(inst.app(), &alloc, rate())
            .unwrap()
            .run()
            .unwrap();
        assert!(
            report
                .conflicts
                .iter()
                .any(|c| (c.first, c.second) == (CommId(0), CommId(1))),
            "expected a c0/c1 collision, got {:?}",
            report.conflicts
        );
    }

    #[test]
    fn temporally_disjoint_violation_is_conflict_free() {
        // The static §III-D rule is purely spatial; the simulator shows it
        // is conservative. Build a chain T0@0 → T1@2 → T2@1 where c1 wraps
        // clockwise around the ring (2 → … → 15 → 0 → 1) and therefore
        // shares segment 0 with c0 (0 → 1 → 2). Statically that forbids a
        // common wavelength — but c1 only ever starts after c0 delivered
        // and T1 computed, so reusing the wavelength is safe at runtime.
        use onoc_app::{MappedApplication, Mapping, RouteStrategy, TaskGraph};
        use onoc_topology::{Direction, NodeId, RingTopology};
        use onoc_units::{Bits, Cycles};

        let mut graph = TaskGraph::new();
        let t0 = graph.add_task("t0", Cycles::new(100.0));
        let t1 = graph.add_task("t1", Cycles::new(100.0));
        let t2 = graph.add_task("t2", Cycles::new(100.0));
        graph.add_comm(t0, t1, Bits::new(500.0)).unwrap();
        graph.add_comm(t1, t2, Bits::new(500.0)).unwrap();
        let mapping = Mapping::new(&graph, vec![NodeId(0), NodeId(2), NodeId(1)]).unwrap();
        let app = MappedApplication::new(
            graph,
            mapping,
            RingTopology::new(16),
            RouteStrategy::Explicit(vec![Direction::Clockwise, Direction::Clockwise]),
        )
        .unwrap();
        assert_eq!(app.overlapping_pairs(), vec![(CommId(0), CommId(1))]);

        let alloc = onoc_wa::Allocation::from_counts_dense(&[1, 1], 4).unwrap();
        // Both communications hold λ1: statically invalid…
        assert!(!onoc_wa::ValidityChecker::new(&app, 4).is_valid(&alloc));
        // …but the run is conflict-free because they never overlap in time.
        let report = Simulator::new(&app, &alloc, rate()).unwrap().run().unwrap();
        assert!(
            report.conflicts.is_empty(),
            "sequential chain cannot collide: {:?}",
            report.conflicts
        );
    }

    #[test]
    fn empty_channel_comm_is_deadlock() {
        let inst = ProblemInstance::paper_with_wavelengths(4);
        let alloc = onoc_wa::Allocation::new(6, 4); // nothing reserved
        assert_eq!(
            Simulator::new(inst.app(), &alloc, rate()).unwrap_err(),
            SimError::Deadlock { comm: CommId(0) }
        );
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let inst = ProblemInstance::paper_with_wavelengths(4);
        let alloc = onoc_wa::Allocation::from_counts_dense(&[1, 1], 4).unwrap();
        assert!(matches!(
            Simulator::new(inst.app(), &alloc, rate()).unwrap_err(),
            SimError::ShapeMismatch {
                comms: 6,
                encoded: 2
            }
        ));
    }

    #[test]
    fn utilization_is_positive_on_used_segments() {
        let inst = ProblemInstance::paper_with_wavelengths(4);
        let alloc = inst.allocation_from_counts(&[1; 6]).unwrap();
        let report = Simulator::new(inst.app(), &alloc, rate())
            .unwrap()
            .run()
            .unwrap();
        // c5 rides segment 7 clockwise (nodes 7 → 8).
        let seg = onoc_topology::DirectedSegment {
            index: 7,
            direction: onoc_topology::Direction::Clockwise,
        };
        assert!(report.segment_utilization(seg, 4) > 0.0);
    }

    proptest! {
        /// DES and the analytic model agree up to ceiling effects, and the
        /// DES never reports conflicts for statically valid allocations.
        #[test]
        fn des_matches_analytic_on_valid_allocations(
            c0 in 1usize..3, c2 in 1usize..9, c3 in 1usize..4, c5 in 1usize..9,
        ) {
            let inst = ProblemInstance::paper_with_wavelengths(8);
            let counts = [c0, 3, c2, c3, 4, c5];
            prop_assume!(inst.allocation_from_counts(&counts).is_ok());
            let alloc = inst.allocation_from_counts(&counts).unwrap();
            let report = Simulator::new(inst.app(), &alloc, rate()).unwrap().run().unwrap();
            let analytic = Schedule::new(inst.app().graph(), rate())
                .unwrap()
                .evaluate(&counts)
                .unwrap()
                .makespan
                .value();
            prop_assert!(report.makespan as f64 >= analytic - 1e-9);
            prop_assert!((report.makespan as f64) <= analytic + 6.0);
            prop_assert!(report.conflicts.is_empty());
        }

        /// Random layered DAGs with first-fit allocations simulate cleanly
        /// and respect the analytic bound.
        #[test]
        fn random_dags_simulate_cleanly(seed in 0u64..200) {
            use onoc_app::{workloads, MappedApplication, Mapping, RouteStrategy};
            use onoc_topology::{OnocArchitecture, RingTopology};
            use rand::rngs::StdRng;
            use rand::SeedableRng;

            let mut rng = StdRng::seed_from_u64(seed);
            let graph = workloads::random_layered_dag(&mut rng, &workloads::LayeredDagConfig {
                layers: 3, width: 2, edge_probability: 0.4,
                exec_range: (500.0, 2_000.0), volume_range: (100.0, 2_000.0),
            });
            let nodes = workloads::random_mapping(&mut rng, graph.task_count(), 16);
            let mapping = Mapping::new(&graph, nodes).unwrap();
            let app = MappedApplication::new(
                graph, mapping, RingTopology::new(16), RouteStrategy::Shortest,
            ).unwrap();
            let arch = OnocArchitecture::paper_architecture(16);
            let inst = ProblemInstance::new(arch, app, onoc_wa::EvalOptions::default()).unwrap();
            if let Ok(alloc) = onoc_wa::heuristics::first_fit(&inst) {
                let report = Simulator::new(inst.app(), &alloc, rate()).unwrap().run().unwrap();
                prop_assert!(report.conflicts.is_empty());
                let analytic = Schedule::new(inst.app().graph(), rate())
                    .unwrap()
                    .evaluate(&alloc.counts())
                    .unwrap()
                    .makespan
                    .value();
                let slack = inst.app().graph().comm_count() as f64 + 1.0;
                prop_assert!(report.makespan as f64 >= analytic - 1e-9);
                prop_assert!((report.makespan as f64) <= analytic + slack);
            }
        }
    }

    #[test]
    fn paper_application_conflict_free_for_all_fig6_points() {
        for nw in [4usize, 8, 12] {
            let inst = ProblemInstance::paper_with_wavelengths(nw);
            let alloc = onoc_wa::heuristics::first_fit(&inst).unwrap();
            let report = Simulator::new(inst.app(), &alloc, rate())
                .unwrap()
                .run()
                .unwrap();
            assert!(report.conflicts.is_empty(), "NW = {nw}");
        }
    }

    #[test]
    fn paper_app_sim_is_deterministic() {
        let inst = ProblemInstance::paper_with_wavelengths(8);
        let alloc = inst.allocation_from_counts(&[3, 4, 8, 5, 3, 8]).unwrap();
        let a = Simulator::new(inst.app(), &alloc, rate())
            .unwrap()
            .run()
            .unwrap();
        let b = Simulator::new(inst.app(), &alloc, rate())
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(a.makespan, 23_700);
    }

    #[test]
    fn greedy_dynamic_beats_static_optimum() {
        // With the whole 8-λ comb per burst, transmissions serialise where
        // they collide (c1 waits for c0's burst once) but each runs at full
        // comb speed — netting out faster than the best static split.
        let inst = ProblemInstance::paper_with_wavelengths(8);
        let sim =
            Simulator::dynamic(inst.app(), 8, rate(), DynamicPolicy::Greedy { cap: 8 }).unwrap();
        let report = sim.run().unwrap();
        assert_eq!(report.makespan, 23_000, "dynamic got {}", report.makespan);
        assert_eq!(report.blocked_attempts, 1); // c1 waits for c0's burst
        assert!(report.conflicts.is_empty());
    }

    #[test]
    fn single_policy_matches_one_wavelength_static() {
        // One wavelength per burst with no contention = the static
        // [1,1,1,1,1,1] schedule (38 kcc).
        let inst = ProblemInstance::paper_with_wavelengths(8);
        let sim = Simulator::dynamic(inst.app(), 8, rate(), DynamicPolicy::Single).unwrap();
        let report = sim.run().unwrap();
        assert_eq!(report.makespan, 38_000);
        assert!(report.granted.iter().all(|l| l.len() == 1));
    }

    #[test]
    fn tight_comb_causes_blocking() {
        // One single wavelength for everything: c0 and c1 want the same
        // lane at the same instant, so one of them must wait.
        let inst = ProblemInstance::paper_with_wavelengths(1);
        let sim = Simulator::dynamic(inst.app(), 1, rate(), DynamicPolicy::Single).unwrap();
        let report = sim.run().unwrap();
        assert!(report.blocked_attempts > 0);
        assert!(report.conflicts.is_empty());
        // Serialisation makes it slower than the contention-free bound.
        assert!(report.makespan > 38_000);
    }

    #[test]
    fn grants_respect_the_burst_cap() {
        let inst = ProblemInstance::paper_with_wavelengths(8);
        let sim =
            Simulator::dynamic(inst.app(), 8, rate(), DynamicPolicy::Greedy { cap: 3 }).unwrap();
        let report = sim.run().unwrap();
        assert!(report.granted.iter().all(|l| !l.is_empty() && l.len() <= 3));
    }

    #[test]
    fn larger_caps_never_slow_the_run() {
        let inst = ProblemInstance::paper_with_wavelengths(8);
        let mut last = u64::MAX;
        for cap in [1usize, 2, 4, 8] {
            let sim =
                Simulator::dynamic(inst.app(), 8, rate(), DynamicPolicy::Greedy { cap }).unwrap();
            let makespan = sim.run().unwrap().makespan;
            assert!(
                makespan <= last,
                "cap {cap} slowed the run: {makespan} after {last}"
            );
            last = makespan;
        }
    }

    #[test]
    #[should_panic(expected = "burst cap")]
    fn zero_cap_rejected() {
        let inst = ProblemInstance::paper_with_wavelengths(8);
        let _ = Simulator::dynamic(inst.app(), 8, rate(), DynamicPolicy::Greedy { cap: 0 });
    }

    proptest! {
        /// Dynamic arbitration is conflict-free for any comb size and cap,
        /// and never beats the zero-communication bound.
        #[test]
        fn dynamic_runs_are_conflict_free(nw in 1usize..16, cap in 1usize..16) {
            let inst = ProblemInstance::paper_with_wavelengths(nw.max(1));
            let sim = Simulator::dynamic(
                inst.app(),
                nw.max(1),
                rate(),
                DynamicPolicy::Greedy { cap },
            )
            .unwrap();
            let report = sim.run().unwrap();
            prop_assert!(report.conflicts.is_empty());
            prop_assert!(report.makespan >= 20_000);
            prop_assert!(report.granted.iter().all(|l| !l.is_empty()));
        }
    }

    /// Two tasks of `exec` cycles on nodes 0 and 1 of a `nodes`-node
    /// ring, with one `volume`-bit transfer between them.
    fn chain(nodes: usize, exec: f64, volume: f64) -> MappedApplication {
        use onoc_app::{Mapping, RouteStrategy, TaskGraph};
        use onoc_topology::{NodeId, RingTopology};
        use onoc_units::{Bits, Cycles};

        let mut graph = TaskGraph::new();
        let t0 = graph.add_task("t0", Cycles::new(exec));
        let t1 = graph.add_task("t1", Cycles::new(exec));
        graph.add_comm(t0, t1, Bits::new(volume)).unwrap();
        let mapping = Mapping::new(&graph, vec![NodeId(0), NodeId(1)]).unwrap();
        let ring = RingTopology::new(nodes);
        MappedApplication::new(graph, mapping, ring, RouteStrategy::Shortest).unwrap()
    }

    /// `(exec, volume)` of a [`chain`] and the activity that overflows:
    /// a transfer or a task too long for `u64` cycles, then a task and a
    /// transfer whose own durations fit but whose end cycles do not.
    const OVERFLOWS: [(f64, f64, Activity); 4] = [
        (1.0, 1e300, Activity::Comm(CommId(0))),
        (1e300, 1.0, Activity::Task(TaskId(0))),
        (1e19, 1.0, Activity::Task(TaskId(1))),
        (1e19, 1e19, Activity::Comm(CommId(0))),
    ];

    #[test]
    fn fixed_lane_time_overflow_is_an_error() {
        let alloc = Allocation::from_counts_dense(&[1], 4).unwrap();
        for (exec, volume, at) in OVERFLOWS {
            let app = chain(16, exec, volume);
            let sim = Simulator::new(&app, &alloc, rate()).unwrap();
            assert_eq!(sim.run(), Err(SimError::Overflow { at }), "{exec} {volume}");
        }
    }

    #[test]
    fn arbitrated_time_overflow_is_an_error() {
        for (exec, volume, at) in OVERFLOWS {
            let app = chain(16, exec, volume);
            let sim = Simulator::dynamic(&app, 4, rate(), DynamicPolicy::Single).unwrap();
            assert_eq!(sim.run(), Err(SimError::Overflow { at }), "{exec} {volume}");
        }
        let err = Simulator::dynamic(&chain(16, 1.0, 1e300), 4, rate(), DynamicPolicy::Single)
            .unwrap()
            .run()
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "communication c0 ends past the last u64 cycle"
        );
    }

    #[test]
    fn cyclic_graphs_are_rejected_under_both_lane_sources() {
        use onoc_app::{Mapping, RouteStrategy, TaskGraph};
        use onoc_topology::{NodeId, RingTopology};
        use onoc_units::{Bits, Cycles};

        let mut graph = TaskGraph::new();
        let t0 = graph.add_task("t0", Cycles::new(10.0));
        let t1 = graph.add_task("t1", Cycles::new(10.0));
        graph.add_comm(t0, t1, Bits::new(8.0)).unwrap();
        graph.add_comm(t1, t0, Bits::new(8.0)).unwrap();
        let mapping = Mapping::new(&graph, vec![NodeId(0), NodeId(1)]).unwrap();
        let ring = RingTopology::new(16);
        let app = MappedApplication::new(graph, mapping, ring, RouteStrategy::Shortest).unwrap();
        let alloc = Allocation::from_counts_dense(&[1, 1], 4).unwrap();
        assert_eq!(
            Simulator::new(&app, &alloc, rate()).unwrap_err(),
            SimError::Cyclic
        );
        assert_eq!(
            Simulator::dynamic(&app, 4, rate(), DynamicPolicy::Single).unwrap_err(),
            SimError::Cyclic
        );
    }

    #[test]
    fn arbitration_needs_16_bit_segment_indices() {
        let policy = DynamicPolicy::Single;
        assert!(Simulator::dynamic(&chain(32_768, 1.0, 8.0), 4, rate(), policy).is_ok());
        assert_eq!(
            Simulator::dynamic(&chain(32_769, 1.0, 8.0), 4, rate(), policy).unwrap_err(),
            SimError::RingTooLarge { nodes: 32_769 }
        );
    }

    /// The dynamic task-graph loop as it stood before the fixed-lane and
    /// arbitrated engines merged, kept as the oracle the merged engine is
    /// checked against. It walks each route for its claims and releases
    /// on a busy table of its own.
    struct Oracle<'a> {
        app: &'a MappedApplication,
        wavelengths: usize,
        rate: BitsPerCycle,
        policy: DynamicPolicy,
    }

    /// What the oracle reports: every [`SimReport`] field except the
    /// conflicts and segment busy cycles, which it derives from these.
    struct OracleReport {
        makespan: u64,
        task_spans: Vec<(u64, u64)>,
        comm_spans: Vec<(u64, u64)>,
        granted: Vec<Vec<WavelengthId>>,
        blocked_attempts: usize,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum OracleEvent {
        TaskCompleted(usize),
        CommCompleted(usize),
    }

    type OracleQueue = BinaryHeap<Reverse<(u64, OracleEvent)>>;

    impl Oracle<'_> {
        fn run(&self) -> OracleReport {
            let graph = self.app.graph();
            let (nt, nl) = (graph.task_count(), graph.comm_count());

            let mut busy = vec![0u128; segment_count(self.app.ring().node_count())];
            let mut pending_inputs: Vec<usize> =
                (0..nt).map(|t| graph.incoming(TaskId(t)).len()).collect();
            let mut task_spans = vec![(0u64, 0u64); nt];
            let mut comm_spans = vec![(0u64, 0u64); nl];
            let mut granted: Vec<Vec<WavelengthId>> = vec![Vec::new(); nl];
            let mut waiting: VecDeque<CommId> = VecDeque::new();
            let mut blocked_attempts = 0usize;
            let mut queue = OracleQueue::new();

            for t in 0..nt {
                if pending_inputs[t] == 0 {
                    let end = graph.task(TaskId(t)).execution_time().value().ceil() as u64;
                    task_spans[t] = (0, end);
                    queue.push(Reverse((end, OracleEvent::TaskCompleted(t))));
                }
            }

            let mut makespan = 0u64;
            while let Some(Reverse((now, event))) = queue.pop() {
                makespan = makespan.max(now);
                match event {
                    OracleEvent::TaskCompleted(t) => {
                        for &c in graph.outgoing(TaskId(t)) {
                            if !self.try_start(
                                c,
                                now,
                                &mut busy,
                                &mut comm_spans,
                                &mut granted,
                                &mut queue,
                            ) {
                                blocked_attempts += 1;
                                waiting.push_back(c);
                            }
                        }
                    }
                    OracleEvent::CommCompleted(c) => {
                        let mask = granted[c].iter().fold(0u128, |m, ch| m | (1 << ch.index()));
                        for seg in self.app.route(CommId(c)).segments() {
                            busy[seg.segment_index()] &= !mask;
                        }
                        let dst = graph.comm(CommId(c)).dst();
                        pending_inputs[dst.0] -= 1;
                        if pending_inputs[dst.0] == 0 {
                            let end = now + graph.task(dst).execution_time().value().ceil() as u64;
                            task_spans[dst.0] = (now, end);
                            queue.push(Reverse((end, OracleEvent::TaskCompleted(dst.0))));
                        }
                        let mut still_waiting = VecDeque::new();
                        while let Some(w) = waiting.pop_front() {
                            if !self.try_start(
                                w,
                                now,
                                &mut busy,
                                &mut comm_spans,
                                &mut granted,
                                &mut queue,
                            ) {
                                still_waiting.push_back(w);
                            }
                        }
                        waiting = still_waiting;
                    }
                }
            }
            assert!(waiting.is_empty());
            OracleReport {
                makespan,
                task_spans,
                comm_spans,
                granted,
                blocked_attempts,
            }
        }

        /// Claims the lowest free lanes on every segment of `comm`'s
        /// route and schedules its completion; `false` when none is free.
        fn try_start(
            &self,
            comm: CommId,
            now: u64,
            busy: &mut [u128],
            comm_spans: &mut [(u64, u64)],
            granted: &mut [Vec<WavelengthId>],
            queue: &mut OracleQueue,
        ) -> bool {
            let path = self.app.route(comm);
            let mut free = if self.wavelengths == 128 {
                u128::MAX
            } else {
                (1u128 << self.wavelengths) - 1
            };
            for seg in path.segments() {
                free &= !busy[seg.segment_index()];
            }
            if free == 0 {
                return false;
            }
            let mut lanes = Vec::new();
            let mut mask = 0u128;
            for _ in 0..self.policy.lane_demand() {
                if free == 0 {
                    break;
                }
                let lowest = free & free.wrapping_neg();
                lanes.push(WavelengthId(lowest.trailing_zeros() as usize));
                mask |= lowest;
                free ^= lowest;
            }
            for seg in path.segments() {
                busy[seg.segment_index()] |= mask;
            }
            let volume = self.app.graph().comm(comm).volume();
            let duration =
                (volume.value() / (lanes.len() as f64 * self.rate.value())).ceil() as u64;
            comm_spans[comm.0] = (now, now + duration);
            granted[comm.0] = lanes;
            queue.push(Reverse((
                now + duration,
                OracleEvent::CommCompleted(comm.0),
            )));
            true
        }
    }

    /// Busy lane-cycles on every directed segment a route crosses, in
    /// dense segment order.
    fn busy_from(
        app: &MappedApplication,
        comm_spans: &[(u64, u64)],
        granted: &[Vec<WavelengthId>],
    ) -> Vec<(DirectedSegment, u64)> {
        let mut busy = std::collections::BTreeMap::new();
        for (k, &(start, end)) in comm_spans.iter().enumerate() {
            for seg in app.route(CommId(k)).segments() {
                *busy.entry(seg.segment_index()).or_insert(0) +=
                    (end - start) * granted[k].len() as u64;
            }
        }
        busy.into_iter()
            .map(|(dense, b)| (DirectedSegment::from_segment_index(dense), b))
            .collect()
    }

    proptest! {
        /// Under runtime arbitration the merged engine reproduces the
        /// pre-merge dynamic loop field by field, on random layered DAGs
        /// with injective random mappings, combs, policies and caps.
        #[test]
        fn arbitrated_runs_match_the_dynamic_oracle(
            seed in 0u64..1_000_000,
            nodes in 8usize..=32,
            layers in 2usize..=5,
            width in 1usize..=4,
            nw in 1usize..=16,
            cap in 1usize..=16,
            single in any::<bool>(),
        ) {
            use onoc_app::{workloads, Mapping, RouteStrategy};
            use onoc_topology::RingTopology;
            use rand::SeedableRng;
            use rand::rngs::StdRng;

            let mut rng = StdRng::seed_from_u64(seed);
            let graph = workloads::random_layered_dag(&mut rng, &workloads::LayeredDagConfig {
                layers, width: width.min(nodes / layers), edge_probability: 0.4,
                exec_range: (100.0, 3_000.0), volume_range: (100.0, 6_000.0),
            });
            let placement = workloads::random_mapping(&mut rng, graph.task_count(), nodes);
            let mapping = Mapping::new(&graph, placement).unwrap();
            let app = MappedApplication::new(
                graph, mapping, RingTopology::new(nodes), RouteStrategy::Shortest,
            ).unwrap();
            let policy = if single { DynamicPolicy::Single } else { DynamicPolicy::Greedy { cap } };
            let want = Oracle { app: &app, wavelengths: nw, rate: rate(), policy }.run();
            let got = Simulator::dynamic(&app, nw, rate(), policy).unwrap().run().unwrap();
            prop_assert_eq!(got.makespan, want.makespan);
            prop_assert_eq!(&got.task_spans, &want.task_spans);
            prop_assert_eq!(&got.comm_spans, &want.comm_spans);
            prop_assert_eq!(&got.granted, &want.granted);
            prop_assert_eq!(got.blocked_attempts, want.blocked_attempts);
            let conflicts = detect_conflicts(&app, &want.comm_spans, &want.granted);
            prop_assert_eq!(&got.conflicts, &conflicts);
            prop_assert!(conflicts.is_empty());
            let busy = busy_from(&app, &want.comm_spans, &want.granted);
            prop_assert_eq!(&got.segment_busy, &busy);
        }
    }
}
