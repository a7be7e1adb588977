//! Static-allocation synthesis from measured traffic: turn a flow matrix
//! into a [`StaticFlowMap`] by reusing the `onoc-wa` allocator.
//!
//! The paper allocates wavelengths at design time from an application's
//! *known* communications. Open-loop traffic has no task graph, but it has
//! the next best thing: a measured `(src, dst)` volume matrix. This module
//! closes the loop the ROADMAP asks for — measure a trace into a
//! [`FlowMatrix`], synthesise per-flow wavelength sets with
//! [`StaticFlowMap::from_allocator_with_spares`] (the same greedy disjoint-lane packer
//! behind `onoc_wa::heuristics::first_fit` and
//! `ProblemInstance::allocation_from_counts`), and replay the trace in
//! [`WavelengthMode::Static`](crate::WavelengthMode) to compare design-time
//! allocation against dynamic arbitration on identical input.
//!
//! Flows that share a directed waveguide segment receive disjoint sets, so
//! a synthesised map replayed against any trace over the *measured* flows
//! is conflict-free by construction; only unmeasured flows are rejected
//! (see [`OpenLoopError::UnmappedFlow`](crate::OpenLoopError)).

use onoc_photonics::WavelengthId;
use onoc_topology::{NodeId, RingPath, RingTopology};
use onoc_units::Bits;
use onoc_wa::heuristics::{ConflictGraph, assign_disjoint_lanes, assign_shared_lanes};

use crate::openloop::{StaticFlowMap, TrafficEvent};

/// Accumulated traffic volume per ordered `(src, dst)` flow.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowMatrix {
    nodes: usize,
    /// Indexed by `src * nodes + dst`; the diagonal stays zero.
    bits: Vec<f64>,
}

impl FlowMatrix {
    /// An all-zero matrix over an `nodes`-node ring.
    ///
    /// # Panics
    ///
    /// Panics if `nodes < 2`.
    #[must_use]
    pub fn new(nodes: usize) -> Self {
        assert!(nodes >= 2, "a ring needs at least 2 nodes, got {nodes}");
        Self {
            nodes,
            bits: vec![0.0; nodes * nodes],
        }
    }

    /// Measures a trace: one matrix cell accumulates each event's volume.
    ///
    /// # Panics
    ///
    /// Panics if an event references a node outside the ring or is a
    /// self-loop.
    #[must_use]
    pub fn from_events<'a>(
        nodes: usize,
        events: impl IntoIterator<Item = &'a TrafficEvent>,
    ) -> Self {
        let mut matrix = Self::new(nodes);
        for event in events {
            matrix.record(event.src, event.dst, event.volume);
        }
        matrix
    }

    /// Adds `volume` bits to the `src → dst` cell.
    ///
    /// # Panics
    ///
    /// Panics if a node is outside the ring or `src == dst`.
    pub fn record(&mut self, src: NodeId, dst: NodeId, volume: Bits) {
        assert!(
            src.0 < self.nodes && dst.0 < self.nodes,
            "{src}→{dst} is not on a {}-node ring",
            self.nodes
        );
        assert_ne!(src, dst, "self-addressed traffic never enters the ring");
        self.bits[src.0 * self.nodes + dst.0] += volume.value();
    }

    /// Ring size the matrix was measured on.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Measured bits on the `src → dst` flow (0 for unmeasured flows).
    ///
    /// # Panics
    ///
    /// Panics if a node is outside the ring.
    #[must_use]
    pub fn bits(&self, src: NodeId, dst: NodeId) -> f64 {
        assert!(
            src.0 < self.nodes && dst.0 < self.nodes,
            "{src}→{dst} is not on a {}-node ring",
            self.nodes
        );
        self.bits[src.0 * self.nodes + dst.0]
    }

    /// Every flow with nonzero volume, in `(src, dst)` order.
    #[must_use]
    pub fn flows(&self) -> Vec<(NodeId, NodeId, f64)> {
        let mut out = Vec::new();
        for src in 0..self.nodes {
            for dst in 0..self.nodes {
                let bits = self.bits[src * self.nodes + dst];
                if bits > 0.0 {
                    out.push((NodeId(src), NodeId(dst), bits));
                }
            }
        }
        out
    }

    /// Number of flows with nonzero volume.
    #[must_use]
    pub fn flow_count(&self) -> usize {
        self.bits.iter().filter(|&&b| b > 0.0).count()
    }

    /// Total measured volume.
    #[must_use]
    pub fn total_bits(&self) -> f64 {
        self.bits.iter().sum()
    }
}

/// How [`StaticFlowMap::from_allocator_with_spares`] sizes each flow's wavelength set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowAllocPolicy {
    /// One wavelength per measured flow — the classical single-lightpath
    /// First-Fit assignment, on the measured conflict graph.
    FirstFit,
    /// Start from one lane each, then repeatedly grant an extra lane to
    /// the flow with the most measured bits per lane (ties to the heavier
    /// flow, then flow order), re-packing after every grant; a flow whose
    /// grant no longer packs is saturated. The open-loop analogue of the
    /// paper's bandwidth-hungry allocations.
    Proportional {
        /// Upper bound on lanes per flow (use the comb size for "no cap").
        max_lanes_per_flow: usize,
    },
    /// One wavelength per measured flow like [`FlowAllocPolicy::FirstFit`],
    /// but dense flow sets that exceed the strict §III-D disjointness
    /// budget (more than `NW` mutually overlapping flows) *share* lanes
    /// between low-volume flows instead of failing: flows pack
    /// heaviest-first, so sharing lands on the light tail, and the
    /// predicted conflict budget is reported in the
    /// [`SynthesisSummary`].
    Relaxed,
}

/// One lane-sharing record of a relaxed packing: `((src, dst)` of the
/// flow that had to share, `(src, dst)` of the earlier-packed owner, and
/// the contested lane.
pub type SharedLanePair = ((NodeId, NodeId), (NodeId, NodeId), WavelengthId);

/// What [`StaticFlowMap::from_allocator_with_spares`] learned while
/// packing: the predicted conflict budget of a relaxed assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesisSummary {
    /// Every pair of flows that shares a lane, with the contested lane.
    /// Empty for strict policies and for relaxed runs that stayed
    /// disjoint.
    pub shared_pairs: Vec<SharedLanePair>,
    /// Measured bits on flows involved in at least one sharing pair —
    /// the traffic volume exposed to potential runtime conflicts.
    pub shared_bits: f64,
}

impl SynthesisSummary {
    /// A summary with no sharing (strict packings).
    #[must_use]
    pub fn disjoint() -> Self {
        Self {
            shared_pairs: Vec::new(),
            shared_bits: 0.0,
        }
    }

    /// `true` when the packing satisfies strict §III-D disjointness.
    #[must_use]
    pub fn is_disjoint(&self) -> bool {
        self.shared_pairs.is_empty()
    }
}

/// Why a flow map could not be synthesised from a matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlowSynthesisError {
    /// The matrix has no nonzero flow.
    NoFlows,
    /// Even one wavelength per flow cannot be packed: the flow's conflict
    /// neighbourhood exhausted the comb.
    Infeasible {
        /// Source of the flow that could not be served.
        src: NodeId,
        /// Destination of the flow that could not be served.
        dst: NodeId,
        /// Comb size that was available.
        wavelengths: usize,
    },
}

impl core::fmt::Display for FlowSynthesisError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FlowSynthesisError::NoFlows => {
                write!(f, "flow matrix has no nonzero flow to allocate for")
            }
            FlowSynthesisError::Infeasible {
                src,
                dst,
                wavelengths,
            } => write!(
                f,
                "no wavelength left for flow {src}→{dst} in a {wavelengths}-λ comb"
            ),
        }
    }
}

impl std::error::Error for FlowSynthesisError {}

impl StaticFlowMap {
    /// Synthesises per-flow wavelength sets from a measured [`FlowMatrix`]
    /// by reusing the `onoc-wa` greedy lane packers
    /// ([`assign_disjoint_lanes`], [`assign_shared_lanes`]), and returns
    /// the [`SynthesisSummary`]: the predicted conflict budget when the
    /// [`FlowAllocPolicy::Relaxed`] policy had to share lanes.
    ///
    /// Flows are routed along the shortest ring direction (clockwise on
    /// ties, matching the open-loop engine) and packed heaviest-first; any
    /// two flows sharing a directed segment receive disjoint sets — the
    /// §III-D constraint transplanted from communications to flows. Flows
    /// absent from the matrix get no lanes; replaying traffic on them
    /// fails with [`OpenLoopError::UnmappedFlow`](crate::OpenLoopError).
    ///
    /// The top `spares` lanes of the comb stay out of the synthesis:
    /// flows pack into the low `wavelengths - spares` channels, and
    /// λ`(NW-spares)`..λ`(NW-1)` stay unclaimed. A strict mid-run re-pack
    /// ([`onoc_wa::reassign_flows_on_lane_loss`]) or an online defrag then
    /// always has a disjoint re-home for up to `spares` lost lanes.
    ///
    /// # Errors
    ///
    /// Returns [`FlowSynthesisError`] when the matrix is empty or, under
    /// the strict policies, one lane per flow does not fit the packing
    /// comb (the `wavelengths` field of an `Infeasible` error reports the
    /// lanes that were actually packable).
    ///
    /// # Panics
    ///
    /// Panics if `wavelengths` is outside `1..=128`, the ring is smaller
    /// than the matrix, a `Proportional` policy has a zero lane cap, or
    /// `spares` does not leave at least one packable lane
    /// (`spares >= wavelengths`).
    pub fn from_allocator_with_spares(
        ring: &RingTopology,
        wavelengths: usize,
        flows: &FlowMatrix,
        policy: FlowAllocPolicy,
        spares: usize,
    ) -> Result<(Self, SynthesisSummary), FlowSynthesisError> {
        assert!(
            (1..=128).contains(&wavelengths),
            "flow maps support 1..=128 wavelengths, got {wavelengths}"
        );
        assert!(
            spares < wavelengths,
            "{spares} spare lanes leave nothing of a {wavelengths}-λ comb to pack into"
        );
        assert_eq!(
            ring.node_count(),
            flows.nodes(),
            "flow matrix was measured on a different ring"
        );
        // Flows pack into the low lanes only; the held-out top lanes are
        // still part of the map's comb, so the engine may re-home onto
        // them mid-run.
        let pack_comb = wavelengths - spares;
        let max_lanes = match policy {
            FlowAllocPolicy::FirstFit | FlowAllocPolicy::Relaxed => 1,
            FlowAllocPolicy::Proportional { max_lanes_per_flow } => {
                assert!(max_lanes_per_flow >= 1, "lane cap must be at least 1");
                max_lanes_per_flow.min(pack_comb)
            }
        };

        // Heaviest flows pack first (ties broken by (src, dst) so the
        // order — and therefore the map — is deterministic).
        let mut measured = flows.flows();
        if measured.is_empty() {
            return Err(FlowSynthesisError::NoFlows);
        }
        measured.sort_by(|a, b| {
            b.2.partial_cmp(&a.2)
                .expect("volumes are finite")
                .then_with(|| (a.0, a.1).cmp(&(b.0, b.1)))
        });

        // Conflict graph, built once for every pack below: flows whose
        // shortest-direction paths share a directed segment.
        let paths: Vec<RingPath> = measured
            .iter()
            .map(|&(src, dst, _)| RingPath::new(ring, src, dst, ring.shortest_direction(src, dst)))
            .collect();
        let mut pairs = Vec::new();
        for i in 0..paths.len() {
            for j in i + 1..paths.len() {
                if paths[i].overlaps(&paths[j]) {
                    pairs.push((i, j));
                }
            }
        }
        let graph = ConflictGraph::new(paths.len(), &pairs);
        let pack = |demands: &[usize]| assign_disjoint_lanes(demands, &graph, pack_comb);

        let (lanes, summary) = if matches!(policy, FlowAllocPolicy::Relaxed) {
            // The relaxed policy never fails: it shares lanes on the light
            // tail and reports the sharing pairs as the conflict budget.
            let relaxed = assign_shared_lanes(&vec![1; measured.len()], &graph, pack_comb);
            let flow = |k: usize| (measured[k].0, measured[k].1);
            let shared_pairs = relaxed
                .shared
                .iter()
                .map(|&(k, owner, lane)| (flow(k), flow(owner), lane))
                .collect();
            let mut involved: Vec<usize> = relaxed
                .shared
                .iter()
                .flat_map(|&(k, owner, _)| [k, owner])
                .collect();
            involved.sort_unstable();
            involved.dedup();
            let shared_bits = involved.iter().map(|&k| measured[k].2).sum();
            let summary = SynthesisSummary {
                shared_pairs,
                shared_bits,
            };
            (relaxed.lanes, summary)
        } else {
            // One lane per flow is the feasibility floor.
            let mut demands = vec![1usize; measured.len()];
            let mut lanes = pack(&demands).map_err(|e| FlowSynthesisError::Infeasible {
                src: measured[e.index].0,
                dst: measured[e.index].1,
                wavelengths: pack_comb,
            })?;
            // Proportional water-filling: grant the hungriest flow one
            // more lane while the packing still fits.
            if max_lanes > 1 {
                let mut saturated = vec![false; measured.len()];
                loop {
                    let candidate = (0..measured.len())
                        .filter(|&i| !saturated[i] && demands[i] < max_lanes)
                        .max_by(|&a, &b| {
                            let per_lane = |i: usize| measured[i].2 / demands[i] as f64;
                            per_lane(a)
                                .partial_cmp(&per_lane(b))
                                .expect("volumes are finite")
                                .then_with(|| b.cmp(&a)) // ties: earlier (heavier) flow
                        });
                    let Some(i) = candidate else { break };
                    demands[i] += 1;
                    match pack(&demands) {
                        Ok(packed) => lanes = packed,
                        Err(_) => {
                            demands[i] -= 1;
                            saturated[i] = true;
                        }
                    }
                }
            }
            (lanes, SynthesisSummary::disjoint())
        };

        let nodes = flows.nodes();
        let mut table = vec![Vec::new(); nodes * nodes];
        for (&(src, dst, _), lanes) in measured.iter().zip(lanes) {
            table[src.0 * nodes + dst.0] = lanes;
        }
        Ok((Self::from_parts(nodes, wavelengths, table), summary))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DynamicPolicy, OpenLoopError, OpenLoopSimulator, WavelengthMode};
    use onoc_units::BitsPerCycle;

    fn event(time: u64, src: usize, dst: usize, bits: f64) -> TrafficEvent {
        TrafficEvent {
            time,
            src: NodeId(src),
            dst: NodeId(dst),
            volume: Bits::new(bits),
        }
    }

    #[test]
    fn matrix_accumulates_per_flow() {
        let events = [
            event(0, 0, 3, 100.0),
            event(5, 0, 3, 50.0),
            event(7, 2, 1, 25.0),
        ];
        let m = FlowMatrix::from_events(8, events.iter());
        assert_eq!(m.bits(NodeId(0), NodeId(3)), 150.0);
        assert_eq!(m.bits(NodeId(2), NodeId(1)), 25.0);
        assert_eq!(m.bits(NodeId(3), NodeId(0)), 0.0);
        assert_eq!(m.flow_count(), 2);
        assert_eq!(m.total_bits(), 175.0);
        assert_eq!(m.flows().len(), 2);
    }

    #[test]
    #[should_panic(expected = "self-addressed")]
    fn matrix_rejects_self_loops() {
        let mut m = FlowMatrix::new(4);
        m.record(NodeId(1), NodeId(1), Bits::new(1.0));
    }

    #[test]
    fn first_fit_gives_disjoint_lanes_to_overlapping_flows() {
        // On a 4-ring, 0→2 (CW via 0-1, 1-2) and 1→3 (CW via 1-2, 2-3)
        // share segment 1-2; 3→0 is independent of 0→2.
        let mut m = FlowMatrix::new(4);
        m.record(NodeId(0), NodeId(2), Bits::new(100.0));
        m.record(NodeId(1), NodeId(3), Bits::new(50.0));
        let ring = RingTopology::new(4);
        let map =
            StaticFlowMap::from_allocator_with_spares(&ring, 2, &m, FlowAllocPolicy::FirstFit, 0)
                .unwrap()
                .0;
        let a = map.lanes(NodeId(0), NodeId(2));
        let b = map.lanes(NodeId(1), NodeId(3));
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        assert_ne!(a[0], b[0], "overlapping flows must get disjoint lanes");
        assert!(map.lanes(NodeId(3), NodeId(0)).is_empty(), "unmeasured");
    }

    #[test]
    fn infeasible_comb_is_reported() {
        let mut m = FlowMatrix::new(4);
        m.record(NodeId(0), NodeId(2), Bits::new(100.0));
        m.record(NodeId(1), NodeId(3), Bits::new(50.0));
        let ring = RingTopology::new(4);
        let err =
            StaticFlowMap::from_allocator_with_spares(&ring, 1, &m, FlowAllocPolicy::FirstFit, 0)
                .unwrap_err();
        assert_eq!(
            err,
            FlowSynthesisError::Infeasible {
                src: NodeId(1),
                dst: NodeId(3),
                wavelengths: 1
            }
        );
    }

    #[test]
    fn empty_matrix_is_rejected() {
        let ring = RingTopology::new(4);
        assert_eq!(
            StaticFlowMap::from_allocator_with_spares(
                &ring,
                4,
                &FlowMatrix::new(4),
                FlowAllocPolicy::FirstFit,
                0
            )
            .unwrap_err(),
            FlowSynthesisError::NoFlows
        );
    }

    #[test]
    fn proportional_grants_heavy_flows_more_lanes() {
        let mut m = FlowMatrix::new(8);
        m.record(NodeId(0), NodeId(2), Bits::new(10_000.0));
        m.record(NodeId(4), NodeId(6), Bits::new(100.0));
        let ring = RingTopology::new(8);
        let map = StaticFlowMap::from_allocator_with_spares(
            &ring,
            4,
            &m,
            FlowAllocPolicy::Proportional {
                max_lanes_per_flow: 4,
            },
            0,
        )
        .unwrap()
        .0;
        // Disjoint paths: both can take the whole comb under water-filling.
        assert_eq!(map.lanes(NodeId(0), NodeId(2)).len(), 4);
        assert_eq!(map.lanes(NodeId(4), NodeId(6)).len(), 4);
    }

    #[test]
    fn proportional_respects_conflicts_and_weights() {
        // Overlapping flows split the comb; the heavy one gets more.
        let mut m = FlowMatrix::new(4);
        m.record(NodeId(0), NodeId(2), Bits::new(3_000.0));
        m.record(NodeId(1), NodeId(3), Bits::new(1_000.0));
        let ring = RingTopology::new(4);
        let map = StaticFlowMap::from_allocator_with_spares(
            &ring,
            4,
            &m,
            FlowAllocPolicy::Proportional {
                max_lanes_per_flow: 4,
            },
            0,
        )
        .unwrap()
        .0;
        let heavy = map.lanes(NodeId(0), NodeId(2)).len();
        let light = map.lanes(NodeId(1), NodeId(3)).len();
        assert_eq!(heavy + light, 4, "shared segment bounds the total");
        assert!(heavy > light, "heavy {heavy} vs light {light}");
    }

    #[test]
    fn synthesised_map_replays_its_trace_conflict_free() {
        // Measure a trace, synthesise, replay statically: disjointness on
        // shared segments means zero recorded conflicts.
        let events: Vec<TrafficEvent> = (0..40)
            .map(|i| event(i * 3, (i % 7) as usize, ((i % 7) + 4) as usize % 16, 256.0))
            .collect();
        let m = FlowMatrix::from_events(16, events.iter());
        let ring = RingTopology::new(16);
        let map = StaticFlowMap::from_allocator_with_spares(
            &ring,
            8,
            &m,
            FlowAllocPolicy::Proportional {
                max_lanes_per_flow: 2,
            },
            0,
        )
        .unwrap()
        .0;
        let sim =
            OpenLoopSimulator::new(ring, 8, BitsPerCycle::new(1.0), WavelengthMode::Static(map));
        let report = sim.run(events.into_iter()).unwrap();
        assert_eq!(report.conflict_count, 0);
        assert_eq!(report.records.len(), 40);
    }

    #[test]
    fn relaxed_policy_matches_first_fit_when_feasible() {
        let mut m = FlowMatrix::new(4);
        m.record(NodeId(0), NodeId(2), Bits::new(100.0));
        m.record(NodeId(1), NodeId(3), Bits::new(50.0));
        let ring = RingTopology::new(4);
        let strict =
            StaticFlowMap::from_allocator_with_spares(&ring, 2, &m, FlowAllocPolicy::FirstFit, 0)
                .unwrap()
                .0;
        let (relaxed, summary) =
            StaticFlowMap::from_allocator_with_spares(&ring, 2, &m, FlowAllocPolicy::Relaxed, 0)
                .unwrap();
        assert_eq!(strict, relaxed);
        assert!(summary.is_disjoint());
        assert_eq!(summary.shared_bits, 0.0);
    }

    #[test]
    fn relaxed_policy_shares_lanes_on_the_light_tail() {
        // Both flows fight over segment 1-2 on a 1-λ comb: strict
        // synthesis is infeasible, relaxed shares the lane and charges
        // the conflict budget to the light flow.
        let mut m = FlowMatrix::new(4);
        m.record(NodeId(0), NodeId(2), Bits::new(1_000.0));
        m.record(NodeId(1), NodeId(3), Bits::new(10.0));
        let ring = RingTopology::new(4);
        assert!(
            StaticFlowMap::from_allocator_with_spares(&ring, 1, &m, FlowAllocPolicy::FirstFit, 0)
                .is_err()
        );
        let (map, summary) =
            StaticFlowMap::from_allocator_with_spares(&ring, 1, &m, FlowAllocPolicy::Relaxed, 0)
                .unwrap();
        assert_eq!(map.lanes(NodeId(0), NodeId(2)), &[WavelengthId(0)]);
        assert_eq!(map.lanes(NodeId(1), NodeId(3)), &[WavelengthId(0)]);
        assert_eq!(summary.shared_pairs.len(), 1);
        let (light, heavy, lane) = summary.shared_pairs[0];
        assert_eq!(light, (NodeId(1), NodeId(3)), "the light flow shares");
        assert_eq!(heavy, (NodeId(0), NodeId(2)));
        assert_eq!(lane, WavelengthId(0));
        assert_eq!(summary.shared_bits, 1_010.0);
        // The shared map still replays; conflicts are *predicted*, and the
        // checker confirms them only if transmissions actually overlap.
        let sim =
            OpenLoopSimulator::new(ring, 1, BitsPerCycle::new(1.0), WavelengthMode::Static(map));
        let quiet = sim
            .run(vec![event(0, 0, 2, 100.0), event(500, 1, 3, 10.0)].into_iter())
            .unwrap();
        assert_eq!(quiet.conflict_count, 0, "non-overlapping in time");
        let clash = sim
            .run(vec![event(0, 0, 2, 100.0), event(0, 1, 3, 10.0)].into_iter())
            .unwrap();
        assert_eq!(clash.conflict_count, 1, "overlap confirms the prediction");
    }

    #[test]
    fn relaxed_policy_still_rejects_empty_matrices() {
        let ring = RingTopology::new(4);
        assert_eq!(
            StaticFlowMap::from_allocator_with_spares(
                &ring,
                4,
                &FlowMatrix::new(4),
                FlowAllocPolicy::Relaxed,
                0
            )
            .unwrap_err(),
            FlowSynthesisError::NoFlows
        );
    }

    #[test]
    fn spares_hold_the_top_lanes_out_of_the_packing() {
        let mut m = FlowMatrix::new(8);
        m.record(NodeId(0), NodeId(2), Bits::new(10_000.0));
        m.record(NodeId(4), NodeId(6), Bits::new(100.0));
        let ring = RingTopology::new(8);
        let (map, summary) = StaticFlowMap::from_allocator_with_spares(
            &ring,
            4,
            &m,
            FlowAllocPolicy::Proportional {
                max_lanes_per_flow: 4,
            },
            2,
        )
        .unwrap();
        assert!(summary.is_disjoint());
        // Water-filling would flood all 4 lanes (disjoint paths); the two
        // spare lanes cap every flow at the reduced comb.
        for (src, dst) in [(NodeId(0), NodeId(2)), (NodeId(4), NodeId(6))] {
            let lanes = map.lanes(src, dst);
            assert_eq!(lanes.len(), 2);
            assert!(
                lanes.iter().all(|w| w.index() < 2),
                "{src}→{dst} claimed a spare lane: {lanes:?}"
            );
        }
    }

    #[test]
    fn spares_tighten_the_feasibility_floor() {
        // Two overlapping flows fit a 2-λ comb, but not once one lane is
        // held out as a spare.
        let mut m = FlowMatrix::new(4);
        m.record(NodeId(0), NodeId(2), Bits::new(100.0));
        m.record(NodeId(1), NodeId(3), Bits::new(50.0));
        let ring = RingTopology::new(4);
        assert!(
            StaticFlowMap::from_allocator_with_spares(&ring, 2, &m, FlowAllocPolicy::FirstFit, 0)
                .is_ok()
        );
        let err =
            StaticFlowMap::from_allocator_with_spares(&ring, 2, &m, FlowAllocPolicy::FirstFit, 1)
                .unwrap_err();
        assert_eq!(
            err,
            FlowSynthesisError::Infeasible {
                src: NodeId(1),
                dst: NodeId(3),
                wavelengths: 1
            }
        );
    }

    #[test]
    #[should_panic(expected = "spare lanes leave nothing")]
    fn spares_must_leave_a_packable_lane() {
        let mut m = FlowMatrix::new(4);
        m.record(NodeId(0), NodeId(2), Bits::new(100.0));
        let ring = RingTopology::new(4);
        let _ =
            StaticFlowMap::from_allocator_with_spares(&ring, 2, &m, FlowAllocPolicy::FirstFit, 2);
    }

    #[test]
    fn unmapped_flow_is_a_clean_error() {
        let mut m = FlowMatrix::new(16);
        m.record(NodeId(0), NodeId(3), Bits::new(100.0));
        let ring = RingTopology::new(16);
        let map =
            StaticFlowMap::from_allocator_with_spares(&ring, 4, &m, FlowAllocPolicy::FirstFit, 0)
                .unwrap()
                .0;
        let sim =
            OpenLoopSimulator::new(ring, 4, BitsPerCycle::new(1.0), WavelengthMode::Static(map));
        let err = sim.run(vec![event(0, 5, 9, 64.0)].into_iter()).unwrap_err();
        assert_eq!(
            err,
            OpenLoopError::UnmappedFlow {
                src: NodeId(5),
                dst: NodeId(9)
            }
        );
    }

    #[test]
    fn static_beats_or_matches_dynamic_on_the_measured_trace() {
        // The ROADMAP comparison: same trace, dynamic arbitration vs the
        // synthesised static map. Both deliver everything; the static map
        // dedicates lanes so its mean latency is not pathologically worse.
        let events: Vec<TrafficEvent> = (0..60)
            .map(|i| event(i * 10, (i % 4) as usize, 8 + (i % 4) as usize, 512.0))
            .collect();
        let m = FlowMatrix::from_events(16, events.iter());
        let ring = RingTopology::new(16);
        let map = StaticFlowMap::from_allocator_with_spares(
            &ring,
            8,
            &m,
            FlowAllocPolicy::Proportional {
                max_lanes_per_flow: 8,
            },
            0,
        )
        .unwrap()
        .0;
        let static_report =
            OpenLoopSimulator::new(ring, 8, BitsPerCycle::new(1.0), WavelengthMode::Static(map))
                .run(events.clone().into_iter())
                .unwrap();
        let dynamic_report = OpenLoopSimulator::new(
            ring,
            8,
            BitsPerCycle::new(1.0),
            WavelengthMode::Dynamic(DynamicPolicy::Single),
        )
        .run(events.into_iter())
        .unwrap();
        assert_eq!(static_report.records.len(), dynamic_report.records.len());
        assert_eq!(static_report.conflict_count, 0);
        assert!(static_report.latency().mean <= dynamic_report.latency().mean * 2.0);
    }
}
