//! Classical wavelength-assignment baselines.
//!
//! The related-work section of the paper (§II, citing Zang et al.) names the
//! standard heuristics used for WDM networks: Random, First-Fit, Most-Used
//! and Least-Used assignment. These assign *one* wavelength per connection —
//! they have no notion of the paper's bandwidth/crosstalk trade-off — so
//! they serve as baselines showing what the multi-objective search adds.
//! [`greedy_makespan`] is a stronger time-oriented baseline that spends the
//! comb greedily on the schedule's critical path.

use onoc_app::CommId;
use onoc_photonics::WavelengthId;
use rand::Rng;

use crate::{Allocation, Evaluator, ProblemInstance};

/// Why a heuristic could not produce an allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeuristicError {
    /// No wavelength remained for a communication given the §III-D
    /// disjointness constraints.
    OutOfWavelengths(CommId),
    /// Rejection sampling failed to find a valid allocation within the
    /// allowed number of attempts.
    ExhaustedAttempts {
        /// Attempts made.
        attempts: usize,
    },
}

impl core::fmt::Display for HeuristicError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            HeuristicError::OutOfWavelengths(c) => {
                write!(
                    f,
                    "no wavelength left for {c} under disjointness constraints"
                )
            }
            HeuristicError::ExhaustedAttempts { attempts } => {
                write!(f, "no valid allocation found in {attempts} random attempts")
            }
        }
    }
}

impl std::error::Error for HeuristicError {}

/// A demand that could not be packed by [`assign_disjoint_lanes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LanePackingError {
    /// Index of the demand that ran out of channels.
    pub index: usize,
    /// Channels it requested.
    pub requested: usize,
    /// Channels still disjoint from its already-assigned neighbours.
    pub available: usize,
}

impl core::fmt::Display for LanePackingError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "demand {} requests {} wavelengths but only {} remain disjoint from its neighbours",
            self.index, self.requested, self.available
        )
    }
}

impl std::error::Error for LanePackingError {}

/// The core greedy allocator shared by every static assignment in the
/// workspace: packs `demands[k]` wavelengths per item into a
/// `wavelengths`-channel comb so that any two items named by a `conflicts`
/// pair receive disjoint sets, always taking the lowest-indexed feasible
/// channel.
///
/// Items are processed in index order, so the result is deterministic.
/// This is the engine behind [`first_fit`],
/// [`ProblemInstance::allocation_from_counts`] and (via `onoc-sim`)
/// `StaticFlowMap::from_allocator` — the conflict graph is *abstract*, so
/// callers may pack task-graph communications, measured traffic flows, or
/// anything else that shares waveguide segments.
///
/// # Errors
///
/// Returns [`LanePackingError`] when an item cannot receive its full
/// demand in greedy order.
///
/// # Panics
///
/// Panics if `wavelengths` exceeds the 128-channel mask limit or a
/// conflict pair names an item out of range.
pub fn assign_disjoint_lanes(
    demands: &[usize],
    conflicts: &[(usize, usize)],
    wavelengths: usize,
) -> Result<Vec<Vec<WavelengthId>>, LanePackingError> {
    assert!(
        wavelengths <= 128,
        "{wavelengths} wavelengths exceed the 128-channel mask limit"
    );
    let n = demands.len();
    let neighbours = neighbour_lists(n, conflicts);
    let mut masks = vec![0u128; n];
    let mut lanes: Vec<Vec<WavelengthId>> = vec![Vec::new(); n];
    for (k, &count) in demands.iter().enumerate() {
        let occupied = neighbours[k].iter().fold(0u128, |m, &o| m | masks[o]);
        let assigned = fill_free_lanes(occupied, count, wavelengths, &mut lanes[k], &mut masks[k]);
        if assigned < count {
            return Err(LanePackingError {
                index: k,
                requested: count,
                available: assigned,
            });
        }
    }
    Ok(lanes)
}

/// Each item's conflict neighbours, in `conflicts` order (the order the
/// relaxed packer reports sharing pairs in). Built once per packing
/// call, so packing item `k` ORs only its own neighbours' masks instead
/// of rescanning every pair; OR does not depend on order, so the lanes
/// are those of [`conflict_neighbour_mask`].
///
/// # Panics
///
/// Panics if a conflict pair names an item outside `0..n`.
fn neighbour_lists(n: usize, conflicts: &[(usize, usize)]) -> Vec<Vec<usize>> {
    let mut neighbours = vec![Vec::new(); n];
    for &(a, b) in conflicts {
        assert!(
            a < n && b < n,
            "conflict pair ({a}, {b}) out of range 0..{n}"
        );
        neighbours[a].push(b);
        if a != b {
            neighbours[b].push(a);
        }
    }
    neighbours
}

/// Wavelengths already held by item `k`'s conflict neighbours.
pub(crate) fn conflict_neighbour_mask(
    k: usize,
    conflicts: &[(usize, usize)],
    masks: &[u128],
) -> u128 {
    conflicts.iter().fold(0u128, |m, &(a, b)| {
        if a == k {
            m | masks[b]
        } else if b == k {
            m | masks[a]
        } else {
            m
        }
    })
}

/// The greedy fill both packers share: assigns up to `count` channels
/// disjoint from `occupied`, lowest index first, into `lanes`/`mask`.
/// Returns how many were assigned (less than `count` when the
/// neighbourhood exhausted the comb).
pub(crate) fn fill_free_lanes(
    occupied: u128,
    count: usize,
    wavelengths: usize,
    lanes: &mut Vec<WavelengthId>,
    mask: &mut u128,
) -> usize {
    let mut assigned = 0usize;
    for w in 0..wavelengths {
        if assigned == count {
            break;
        }
        if occupied & (1 << w) == 0 {
            lanes.push(WavelengthId(w));
            *mask |= 1 << w;
            assigned += 1;
        }
    }
    assigned
}

/// Outcome of [`assign_shared_lanes`]: the per-item lane sets plus the
/// *predicted conflict budget* — every pair of conflicting items that
/// ended up sharing a lane because the comb ran out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelaxedAssignment {
    /// One wavelength set per item, in item order.
    pub lanes: Vec<Vec<WavelengthId>>,
    /// `(item, earlier item, lane)` triples for every lane an item had
    /// to share with a conflicting neighbour, in assignment order.
    pub shared: Vec<(usize, usize, WavelengthId)>,
}

impl RelaxedAssignment {
    /// `true` when the assignment is fully disjoint (the strict packer
    /// would have succeeded too).
    #[must_use]
    pub fn is_disjoint(&self) -> bool {
        self.shared.is_empty()
    }
}

/// The relaxed companion of [`assign_disjoint_lanes`]: instead of failing
/// when an item's conflict neighbourhood exhausts the comb, it *shares*
/// lanes — the item takes the feasible channels it can and fills the rest
/// with the lanes least claimed by its conflicting neighbours, recording
/// each sharing pair as a predicted conflict.
///
/// Callers order items most-important-first (the flow synthesiser passes
/// flows heaviest-first), so sharing lands on the low-volume tail. The
/// returned [`RelaxedAssignment::shared`] list is the conflict budget a
/// runtime replay may actually pay; an assignment with an empty list is
/// exactly what the strict packer would have produced.
///
/// Demands larger than the comb are clamped to `wavelengths` (an item
/// cannot hold one lane twice).
///
/// # Panics
///
/// Panics if `wavelengths` is 0 or exceeds the 128-channel mask limit, or
/// a conflict pair names an item out of range.
#[must_use]
pub fn assign_shared_lanes(
    demands: &[usize],
    conflicts: &[(usize, usize)],
    wavelengths: usize,
) -> RelaxedAssignment {
    assert!(
        (1..=128).contains(&wavelengths),
        "relaxed packing needs a comb of 1..=128 wavelengths, got {wavelengths}"
    );
    let n = demands.len();
    let all_neighbours = neighbour_lists(n, conflicts);
    let mut masks = vec![0u128; n];
    let mut lanes: Vec<Vec<WavelengthId>> = vec![Vec::new(); n];
    let mut shared = Vec::new();
    for (k, &count) in demands.iter().enumerate() {
        let count = count.min(wavelengths);
        let neighbours = &all_neighbours[k];
        let occupied = neighbours.iter().fold(0u128, |m, &o| m | masks[o]);
        // Free channels first — the same greedy fill as the strict
        // packer, so the two agree while the comb lasts.
        let mut assigned =
            fill_free_lanes(occupied, count, wavelengths, &mut lanes[k], &mut masks[k]);
        // Relaxation: fill the remaining demand with the lanes claimed by
        // the fewest conflicting neighbours (ties to the lowest index),
        // recording every sharing pair.
        while assigned < count {
            let choice = (0..wavelengths)
                .filter(|&w| masks[k] & (1 << w) == 0)
                .min_by_key(|&w| {
                    neighbours
                        .iter()
                        .filter(|&&o| masks[o] & (1 << w) != 0)
                        .count()
                })
                .expect("count is clamped to the comb size");
            for &o in neighbours {
                if masks[o] & (1 << choice) != 0 {
                    shared.push((k, o, WavelengthId(choice)));
                }
            }
            lanes[k].push(WavelengthId(choice));
            masks[k] |= 1 << choice;
            assigned += 1;
        }
        lanes[k].sort_unstable_by_key(|w| w.index());
    }
    RelaxedAssignment { lanes, shared }
}

/// Order in which single-wavelength heuristics pick channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PickPolicy {
    /// Feasible wavelength already reserved by the most communications
    /// (Most-Used), ties to the lowest index.
    MostUsed,
    /// Feasible wavelength reserved by the fewest communications
    /// (Least-Used), ties to the lowest index.
    LeastUsed,
}

fn assign_single(
    instance: &ProblemInstance,
    policy: PickPolicy,
) -> Result<Allocation, HeuristicError> {
    let nl = instance.comm_count();
    let nw = instance.wavelength_count();
    let pairs = instance.app().overlapping_pairs();
    let mut alloc = Allocation::new(nl, nw);
    let mut masks = vec![0u128; nl];
    let mut usage = vec![0usize; nw];
    for k in 0..nl {
        let mut blocked = 0u128;
        for &(a, b) in &pairs {
            if a.0 == k {
                blocked |= masks[b.0];
            } else if b.0 == k {
                blocked |= masks[a.0];
            }
        }
        let feasible = (0..nw).filter(|&w| blocked & (1 << w) == 0);
        let choice = match policy {
            PickPolicy::MostUsed => feasible.max_by_key(|&w| (usage[w], nw - w)),
            PickPolicy::LeastUsed => feasible.min_by_key(|&w| (usage[w], w)),
        };
        let w = choice.ok_or(HeuristicError::OutOfWavelengths(CommId(k)))?;
        alloc.set(CommId(k), WavelengthId(w), true);
        masks[k] |= 1 << w;
        usage[w] += 1;
    }
    Ok(alloc)
}

/// First-Fit: each communication takes the lowest-indexed wavelength that
/// stays disjoint from its waveguide neighbours.
///
/// # Errors
///
/// Returns [`HeuristicError::OutOfWavelengths`] if the comb is too small.
pub fn first_fit(instance: &ProblemInstance) -> Result<Allocation, HeuristicError> {
    let nl = instance.comm_count();
    let pairs: Vec<(usize, usize)> = instance
        .app()
        .overlapping_pairs()
        .iter()
        .map(|&(a, b)| (a.0, b.0))
        .collect();
    let lanes = assign_disjoint_lanes(&vec![1; nl], &pairs, instance.wavelength_count())
        .map_err(|e| HeuristicError::OutOfWavelengths(CommId(e.index)))?;
    let mut alloc = Allocation::new(nl, instance.wavelength_count());
    for (k, set) in lanes.iter().enumerate() {
        for &w in set {
            alloc.set(CommId(k), w, true);
        }
    }
    Ok(alloc)
}

/// Most-Used: prefer the wavelength already reserved by the most
/// communications (packs traffic onto few wavelengths).
///
/// # Errors
///
/// Returns [`HeuristicError::OutOfWavelengths`] if the comb is too small.
pub fn most_used(instance: &ProblemInstance) -> Result<Allocation, HeuristicError> {
    assign_single(instance, PickPolicy::MostUsed)
}

/// Least-Used: prefer the wavelength reserved by the fewest communications
/// (spreads traffic across the comb).
///
/// # Errors
///
/// Returns [`HeuristicError::OutOfWavelengths`] if the comb is too small.
pub fn least_used(instance: &ProblemInstance) -> Result<Allocation, HeuristicError> {
    assign_single(instance, PickPolicy::LeastUsed)
}

/// Random assignment: uniformly random single wavelength per communication,
/// re-drawn until the allocation is valid.
///
/// # Errors
///
/// Returns [`HeuristicError::ExhaustedAttempts`] after `max_attempts`
/// rejections.
pub fn random_single<R: Rng + ?Sized>(
    instance: &ProblemInstance,
    rng: &mut R,
    max_attempts: usize,
) -> Result<Allocation, HeuristicError> {
    let nl = instance.comm_count();
    let nw = instance.wavelength_count();
    let checker = instance.checker();
    for _ in 0..max_attempts {
        let mut alloc = Allocation::new(nl, nw);
        for k in 0..nl {
            alloc.set(CommId(k), WavelengthId(rng.random_range(0..nw)), true);
        }
        if checker.is_valid(&alloc) {
            return Ok(alloc);
        }
    }
    Err(HeuristicError::ExhaustedAttempts {
        attempts: max_attempts,
    })
}

/// Greedy makespan baseline: start from First-Fit (one wavelength each) and
/// repeatedly reserve the extra gene — or, when no single gene helps, the
/// pair of genes — that reduces the global execution time the most.
///
/// The pair lookahead matters because Eq. 12 takes a `max` over incoming
/// communications: when two branches are tied, no single extra wavelength
/// improves the makespan, but widening both branches does.
///
/// Improvement checks use [`Evaluator::makespan`] (no optical model), so the
/// search is cheap even inside the mapping-exploration loop.
///
/// # Errors
///
/// Returns [`HeuristicError::OutOfWavelengths`] if even the initial
/// single-wavelength assignment does not fit.
pub fn greedy_makespan(
    instance: &ProblemInstance,
    evaluator: &Evaluator<'_>,
) -> Result<Allocation, HeuristicError> {
    let mut alloc = first_fit(instance)?;
    let mut best = evaluator
        .makespan(&alloc)
        .expect("first-fit allocations are valid");
    let free_genes = |alloc: &Allocation| -> Vec<(CommId, WavelengthId)> {
        (0..instance.comm_count())
            .flat_map(|k| {
                (0..instance.wavelength_count()).map(move |w| (CommId(k), WavelengthId(w)))
            })
            .filter(|&(c, w)| !alloc.is_reserved(c, w))
            .collect()
    };
    loop {
        // Single-gene step.
        let mut improvement: Option<(Vec<(CommId, WavelengthId)>, _)> = None;
        for (comm, wave) in free_genes(&alloc) {
            alloc.set(comm, wave, true);
            if let Some(t) = evaluator.makespan(&alloc) {
                if t < best && improvement.as_ref().is_none_or(|&(_, b)| t < b) {
                    improvement = Some((vec![(comm, wave)], t));
                }
            }
            alloc.set(comm, wave, false);
        }
        // Pair lookahead when singles stall.
        if improvement.is_none() {
            let genes = free_genes(&alloc);
            for (i, &(c1, w1)) in genes.iter().enumerate() {
                for &(c2, w2) in &genes[i + 1..] {
                    alloc.set(c1, w1, true);
                    alloc.set(c2, w2, true);
                    if let Some(t) = evaluator.makespan(&alloc) {
                        if t < best && improvement.as_ref().is_none_or(|&(_, b)| t < b) {
                            improvement = Some((vec![(c1, w1), (c2, w2)], t));
                        }
                    }
                    alloc.set(c1, w1, false);
                    alloc.set(c2, w2, false);
                }
            }
        }
        match improvement {
            Some((genes, t)) => {
                for (comm, wave) in genes {
                    alloc.set(comm, wave, true);
                }
                best = t;
            }
            None => return Ok(alloc),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand::rngs::StdRng;

    fn instance(nw: usize) -> ProblemInstance {
        ProblemInstance::paper_with_wavelengths(nw)
    }

    #[test]
    fn first_fit_is_valid_and_minimal() {
        let inst = instance(4);
        let alloc = first_fit(&inst).unwrap();
        assert!(inst.checker().is_valid(&alloc));
        assert_eq!(alloc.counts(), vec![1; 6]);
        // c0 gets λ1; c1 overlaps c0 so it gets λ2; c2 is free again.
        assert_eq!(alloc.channels(CommId(0)), vec![WavelengthId(0)]);
        assert_eq!(alloc.channels(CommId(1)), vec![WavelengthId(1)]);
        assert_eq!(alloc.channels(CommId(2)), vec![WavelengthId(0)]);
    }

    #[test]
    fn most_used_packs_least_used_spreads() {
        let inst = instance(8);
        let packed = most_used(&inst).unwrap();
        let spread = least_used(&inst).unwrap();
        assert!(inst.checker().is_valid(&packed));
        assert!(inst.checker().is_valid(&spread));
        let distinct = |a: &Allocation| {
            let mut set = std::collections::HashSet::new();
            for k in 0..6 {
                set.extend(a.channels(CommId(k)));
            }
            set.len()
        };
        assert!(distinct(&packed) <= distinct(&spread));
    }

    #[test]
    fn random_single_is_valid_and_deterministic_per_seed() {
        let inst = instance(8);
        let a = random_single(&inst, &mut StdRng::seed_from_u64(4), 1000).unwrap();
        let b = random_single(&inst, &mut StdRng::seed_from_u64(4), 1000).unwrap();
        assert_eq!(a, b);
        assert!(inst.checker().is_valid(&a));
    }

    #[test]
    fn random_single_reports_exhaustion() {
        let inst = instance(4);
        // Zero attempts can never succeed.
        assert_eq!(
            random_single(&inst, &mut StdRng::seed_from_u64(0), 0).unwrap_err(),
            HeuristicError::ExhaustedAttempts { attempts: 0 }
        );
    }

    #[test]
    fn single_wavelength_heuristics_run_in_38kcc() {
        // All one-λ-per-comm baselines are schedule-equivalent: 38 kcc.
        let inst = instance(8);
        let ev = inst.evaluator();
        for alloc in [
            first_fit(&inst).unwrap(),
            most_used(&inst).unwrap(),
            least_used(&inst).unwrap(),
        ] {
            let o = ev.evaluate(&alloc).unwrap();
            assert_eq!(o.exec_time.to_kilocycles(), 38.0);
        }
    }

    #[test]
    fn greedy_makespan_reaches_the_4λ_optimum() {
        // The exhaustive oracle puts the 4-λ time optimum at 28 kcc
        // (paper: 28.3); greedy with pair lookahead reaches it.
        let inst4 = instance(4);
        let ev4 = inst4.evaluator();
        let a4 = greedy_makespan(&inst4, &ev4).unwrap();
        assert_eq!(ev4.evaluate(&a4).unwrap().exec_time.to_kilocycles(), 28.0);
    }

    #[test]
    fn greedy_makespan_close_to_8λ_optimum() {
        // True 8-λ optimum is 23.7 kcc (counts [3,4,8,5,3,8]); greedy is a
        // baseline and may stop slightly above it, but must beat 25 kcc.
        let inst8 = instance(8);
        let ev8 = inst8.evaluator();
        let a8 = greedy_makespan(&inst8, &ev8).unwrap();
        let t = ev8.evaluate(&a8).unwrap().exec_time.to_kilocycles();
        assert!((23.7..=25.0).contains(&t), "greedy reached {t} kcc");
    }

    #[test]
    fn disjoint_lanes_pack_lowest_index_first() {
        // 0 conflicts with 1; 2 is independent.
        let lanes = assign_disjoint_lanes(&[2, 1, 2], &[(0, 1)], 4).unwrap();
        assert_eq!(lanes[0], vec![WavelengthId(0), WavelengthId(1)]);
        assert_eq!(lanes[1], vec![WavelengthId(2)]);
        assert_eq!(lanes[2], vec![WavelengthId(0), WavelengthId(1)]);
    }

    #[test]
    fn disjoint_lanes_report_the_failing_demand() {
        // A triangle of mutual conflicts needs 3 channels for one each.
        let err = assign_disjoint_lanes(&[1, 1, 1], &[(0, 1), (1, 2), (0, 2)], 2).unwrap_err();
        assert_eq!(
            err,
            LanePackingError {
                index: 2,
                requested: 1,
                available: 0
            }
        );
    }

    #[test]
    fn disjoint_lanes_allow_zero_demands() {
        let lanes = assign_disjoint_lanes(&[0, 3, 0], &[(0, 1), (1, 2)], 4).unwrap();
        assert!(lanes[0].is_empty() && lanes[2].is_empty());
        assert_eq!(lanes[1].len(), 3);
    }

    #[test]
    fn comb_too_small_is_reported() {
        // One wavelength cannot serve the overlapping pair {c0, c1}.
        let inst = instance(1);
        assert_eq!(
            first_fit(&inst).unwrap_err(),
            HeuristicError::OutOfWavelengths(CommId(1))
        );
    }

    #[test]
    fn relaxed_matches_strict_while_the_comb_lasts() {
        let demands = [2, 1, 2];
        let conflicts = [(0, 1)];
        let strict = assign_disjoint_lanes(&demands, &conflicts, 4).unwrap();
        let relaxed = assign_shared_lanes(&demands, &conflicts, 4);
        assert_eq!(strict, relaxed.lanes);
        assert!(relaxed.is_disjoint());
    }

    #[test]
    fn relaxed_shares_instead_of_failing_on_a_triangle() {
        // Three mutually conflicting items on a 2-λ comb: the strict
        // packer fails; the relaxed one shares a lane and says which.
        let relaxed = assign_shared_lanes(&[1, 1, 1], &[(0, 1), (1, 2), (0, 2)], 2);
        assert_eq!(relaxed.lanes[0], vec![WavelengthId(0)]);
        assert_eq!(relaxed.lanes[1], vec![WavelengthId(1)]);
        assert_eq!(relaxed.lanes[2].len(), 1, "the tail item still gets a lane");
        assert_eq!(relaxed.shared.len(), 1, "exactly one predicted conflict");
        let (item, owner, lane) = relaxed.shared[0];
        assert_eq!(item, 2);
        assert_eq!(lane, relaxed.lanes[2][0]);
        assert!(relaxed.lanes[owner].contains(&lane));
    }

    #[test]
    fn relaxed_prefers_the_least_claimed_lane() {
        // Items 0 and 1 both hold λ0 (no mutual conflict), item 2 holds
        // λ1 alone; item 3 conflicts with all of them on a full comb.
        // Sharing should land on λ1 (one owner) over λ0 (two owners).
        let relaxed =
            assign_shared_lanes(&[1, 1, 1, 1], &[(0, 3), (1, 3), (2, 3), (0, 2), (1, 2)], 2);
        assert_eq!(relaxed.lanes[0], vec![WavelengthId(0)]);
        assert_eq!(relaxed.lanes[1], vec![WavelengthId(0)]);
        assert_eq!(relaxed.lanes[2], vec![WavelengthId(1)]);
        assert_eq!(relaxed.lanes[3], vec![WavelengthId(1)]);
        assert_eq!(relaxed.shared, vec![(3, 2, WavelengthId(1))]);
    }

    #[test]
    fn relaxed_clamps_oversized_demands() {
        let relaxed = assign_shared_lanes(&[5], &[], 3);
        assert_eq!(relaxed.lanes[0].len(), 3);
        assert!(relaxed.is_disjoint());
    }

    /// The strict packer before neighbour lists: every item rescans the
    /// whole pair list.
    fn list_scan_disjoint(
        demands: &[usize],
        conflicts: &[(usize, usize)],
        wavelengths: usize,
    ) -> Result<Vec<Vec<WavelengthId>>, LanePackingError> {
        let mut masks = vec![0u128; demands.len()];
        let mut lanes = vec![Vec::new(); demands.len()];
        for (k, &count) in demands.iter().enumerate() {
            let occupied = conflict_neighbour_mask(k, conflicts, &masks);
            let assigned =
                fill_free_lanes(occupied, count, wavelengths, &mut lanes[k], &mut masks[k]);
            if assigned < count {
                return Err(LanePackingError {
                    index: k,
                    requested: count,
                    available: assigned,
                });
            }
        }
        Ok(lanes)
    }

    /// The relaxed packer before neighbour lists.
    fn list_scan_shared(
        demands: &[usize],
        conflicts: &[(usize, usize)],
        wavelengths: usize,
    ) -> RelaxedAssignment {
        let mut masks = vec![0u128; demands.len()];
        let mut lanes: Vec<Vec<WavelengthId>> = vec![Vec::new(); demands.len()];
        let mut shared = Vec::new();
        for (k, &count) in demands.iter().enumerate() {
            let count = count.min(wavelengths);
            let neighbours: Vec<usize> = conflicts
                .iter()
                .filter_map(|&(a, b)| match () {
                    () if a == k => Some(b),
                    () if b == k => Some(a),
                    () => None,
                })
                .collect();
            let occupied = conflict_neighbour_mask(k, conflicts, &masks);
            let mut assigned =
                fill_free_lanes(occupied, count, wavelengths, &mut lanes[k], &mut masks[k]);
            while assigned < count {
                let choice = (0..wavelengths)
                    .filter(|&w| masks[k] & (1 << w) == 0)
                    .min_by_key(|&w| {
                        neighbours
                            .iter()
                            .filter(|&&o| masks[o] & (1 << w) != 0)
                            .count()
                    })
                    .unwrap();
                for &o in &neighbours {
                    if masks[o] & (1 << choice) != 0 {
                        shared.push((k, o, WavelengthId(choice)));
                    }
                }
                lanes[k].push(WavelengthId(choice));
                masks[k] |= 1 << choice;
                assigned += 1;
            }
            lanes[k].sort_unstable_by_key(|w| w.index());
        }
        RelaxedAssignment { lanes, shared }
    }

    proptest::proptest! {
        /// Neighbour lists pick the same lanes (and fail on the same
        /// demand) as rescanning every pair per item, on random graphs
        /// with repeated pairs and self-pairs.
        #[test]
        fn packers_match_the_list_scan_fold(
            items in 1usize..24,
            demands in proptest::collection::vec(0usize..5, 24),
            lhs in proptest::collection::vec(0usize..24, 0..80),
            rhs in proptest::collection::vec(0usize..24, 80),
            wavelengths in 1usize..12,
        ) {
            let demands = &demands[..items];
            let conflicts: Vec<(usize, usize)> =
                lhs.iter().zip(&rhs).map(|(&a, &b)| (a % items, b % items)).collect();
            proptest::prop_assert_eq!(
                assign_disjoint_lanes(demands, &conflicts, wavelengths),
                list_scan_disjoint(demands, &conflicts, wavelengths)
            );
            proptest::prop_assert_eq!(
                assign_shared_lanes(demands, &conflicts, wavelengths),
                list_scan_shared(demands, &conflicts, wavelengths)
            );
        }
    }
}
