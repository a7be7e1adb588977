//! Incremental re-allocation for mid-run healing.
//!
//! The static allocators ([`assign_disjoint_lanes`],
//! [`assign_shared_lanes`]) synthesise a whole map from scratch. When a
//! lane goes dark *during* a run, re-running them over every flow would
//! move traffic that the outage never touched — invalidating in-flight
//! transmissions and (in a real deployment) forcing a full reconfiguration
//! of the ring's micro-resonators. This module instead re-packs **only the
//! flows that actually used the dark lanes**, treating every untouched
//! flow as *frozen*: its lanes are occupied territory the re-pack must
//! route around.
//!
//! Each flow is packed by the one greedy step the static allocators and
//! the occupancy ledger use (lowest free lanes first, then, when sharing
//! is allowed, the least-claimed lane), so a heal on a fault-free map is
//! a no-op and the healed map obeys the exact §III-D disjointness
//! discipline of the original synthesis.
//!
//! [`assign_disjoint_lanes`]: crate::heuristics::assign_disjoint_lanes
//! [`assign_shared_lanes`]: crate::heuristics::assign_shared_lanes

use crate::heuristics::{ConflictGraph, comb_mask, pack_item};

/// What the engine should do when a lane serving static flows goes dark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HealPolicy {
    /// Do nothing: affected flows park until the lane repairs (the
    /// pre-healing behaviour, bit-identical to an engine without this
    /// module).
    #[default]
    Park,
    /// Re-pack affected flows onto surviving lanes, all-or-nothing: if
    /// any affected flow cannot recover its full lane count disjointly,
    /// no flow moves (the map is left untouched and flows park).
    RePackStrict,
    /// Re-pack affected flows onto surviving lanes, sharing lanes with
    /// conflicting neighbours when the surviving comb runs out — every
    /// flow keeps transmitting, at the cost of predicted conflicts.
    RePackRelaxed,
}

impl HealPolicy {
    /// Stable lower-case name used by spec files and CSV columns.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            HealPolicy::Park => "park",
            HealPolicy::RePackStrict => "re-pack-strict",
            HealPolicy::RePackRelaxed => "re-pack-relaxed",
        }
    }

    /// Parse the spec-file spelling produced by [`HealPolicy::name`]
    /// (also accepts the bare `re-pack` alias for the relaxed variant).
    #[must_use]
    pub fn parse(s: &str) -> Option<HealPolicy> {
        match s {
            "park" => Some(HealPolicy::Park),
            "re-pack-strict" => Some(HealPolicy::RePackStrict),
            "re-pack-relaxed" | "re-pack" => Some(HealPolicy::RePackRelaxed),
            _ => None,
        }
    }
}

impl core::fmt::Display for HealPolicy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Result of a successful [`reassign_flows_on_lane_loss`] re-pack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealOutcome {
    /// New lane mask per affected flow, in input order. Never claims a
    /// dark lane.
    pub masks: Vec<u128>,
    /// Flows whose mask actually changed (a flow that held no dark lane
    /// of its own may keep its mask verbatim).
    pub moved: usize,
    /// Lane-sharing pairs the relaxed policy had to accept (always 0
    /// for [`HealPolicy::RePackStrict`]).
    pub shared: usize,
}

/// Re-pack the affected flows of a lane outage onto the surviving comb.
///
/// * `old_masks[k]` — current lane mask of affected flow `k`; its
///   popcount is the lane demand the re-pack tries to restore.
/// * `conflicts` — conflict pairs **among the affected flows** (indices
///   into `old_masks`).
/// * `frozen[k]` — union of the lane masks of every *frozen* (unaffected)
///   flow that conflicts with affected flow `k`; the re-pack treats these
///   lanes as occupied, and a relaxed re-pack that must share counts each
///   as one claim, however many frozen flows hold it.
/// * `dead` — mask of dark lanes; the healed map never claims one.
/// * `wavelengths` — comb size (≤ 128).
/// * `policy` — [`HealPolicy::Park`] returns `None` (no swap); the
///   re-pack policies differ in how they handle an exhausted comb.
///
/// Flows are packed in input order (callers pass them in flow-id order,
/// so the result is deterministic). Under the relaxed policy a demand is
/// clamped to the surviving comb size; under the strict policy an
/// unsatisfiable demand aborts the whole heal and `None` is returned —
/// the engine keeps the old map and the affected flows park, exactly as
/// under [`HealPolicy::Park`].
///
/// # Panics
///
/// Panics if `wavelengths` exceeds the 128-channel mask limit, a conflict
/// pair names a flow out of range, or `frozen` is shorter than
/// `old_masks`.
#[must_use]
pub fn reassign_flows_on_lane_loss(
    old_masks: &[u128],
    conflicts: &[(usize, usize)],
    frozen: &[u128],
    dead: u128,
    wavelengths: usize,
    policy: HealPolicy,
) -> Option<HealOutcome> {
    assert!(
        wavelengths <= 128,
        "{wavelengths} wavelengths exceed the 128-channel mask limit"
    );
    let n = old_masks.len();
    assert!(
        frozen.len() >= n,
        "frozen mask table shorter than the affected-flow list"
    );
    let graph = ConflictGraph::new(n, conflicts);
    if policy == HealPolicy::Park {
        return None;
    }
    let relaxed = policy == HealPolicy::RePackRelaxed;
    let live = comb_mask(wavelengths) & !dead;
    // Seed every flow with its *surviving* lanes before filling any
    // deficit: the original map already made them disjoint, so keeping
    // them moves the minimum number of micro-resonators and lets each
    // flow's neighbours see the whole kept occupancy. The frozen union
    // is one more neighbour, so a lane it holds counts as one claim.
    let mut masks: Vec<u128> = old_masks.iter().map(|&m| m & !dead).collect();
    let mut shared = 0usize;
    for (k, &old) in old_masks.iter().enumerate() {
        let demand = old.count_ones() as usize;
        let held = graph.held(k, &masks).chain([frozen[k]]);
        masks[k] = pack_item(held, masks[k], live, demand, relaxed, |_, holders| {
            shared += holders;
        })
        .ok()?;
    }
    let moved = masks
        .iter()
        .zip(old_masks)
        .filter(|&(new, old)| new != old)
        .count();
    Some(HealOutcome {
        masks,
        moved,
        shared,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::list_scan::{conflict_neighbour_mask, fill_free_lanes};
    use onoc_photonics::WavelengthId;

    /// The heal packer before the one packing step: every flow rescans
    /// the whole pair list, for its free fill and for each claim count.
    fn list_scan_heal(
        old_masks: &[u128],
        conflicts: &[(usize, usize)],
        frozen: &[u128],
        dead: u128,
        wavelengths: usize,
        policy: HealPolicy,
    ) -> Option<HealOutcome> {
        if policy == HealPolicy::Park {
            return None;
        }
        let live = wavelengths - (dead & comb_mask(wavelengths)).count_ones() as usize;
        let mut masks: Vec<u128> = old_masks.iter().map(|&m| m & !dead).collect();
        let mut scratch: Vec<WavelengthId> = Vec::new();
        let mut shared = 0usize;
        for (k, &old) in old_masks.iter().enumerate() {
            let demand = old.count_ones() as usize;
            let count = match policy {
                HealPolicy::RePackStrict => demand,
                _ => demand.min(live),
            };
            let kept = masks[k].count_ones() as usize;
            let deficit = count.saturating_sub(kept);
            let occupied =
                dead | frozen[k] | conflict_neighbour_mask(k, conflicts, &masks) | masks[k];
            scratch.clear();
            let assigned =
                kept + fill_free_lanes(occupied, deficit, wavelengths, &mut scratch, &mut masks[k]);
            if assigned < count {
                if policy == HealPolicy::RePackStrict {
                    return None;
                }
                let claims = |w: usize, masks: &[u128]| -> usize {
                    let bit = 1u128 << w;
                    usize::from(frozen[k] & bit != 0)
                        + conflicts
                            .iter()
                            .filter(|&&(a, b)| {
                                (a == k && masks[b] & bit != 0) || (b == k && masks[a] & bit != 0)
                            })
                            .count()
                };
                for _ in assigned..count {
                    let choice = (0..wavelengths)
                        .filter(|&w| dead & (1 << w) == 0 && masks[k] & (1 << w) == 0)
                        .min_by_key(|&w| claims(w, &masks))
                        .expect("count is clamped to the surviving comb");
                    shared += claims(choice, &masks);
                    masks[k] |= 1 << choice;
                }
            }
        }
        let moved = masks
            .iter()
            .zip(old_masks)
            .filter(|&(new, old)| new != old)
            .count();
        Some(HealOutcome {
            masks,
            moved,
            shared,
        })
    }

    /// Deterministic xorshift stream for the oracle corpus.
    fn stream(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// Each lane of `within` with probability ½.
    fn random_mask(next: &mut impl FnMut() -> u64, within: u128) -> u128 {
        (u128::from(next()) << 64 | u128::from(next())) & within
    }

    /// Each lane of `within` with probability ¼.
    fn sparse_mask(next: &mut impl FnMut() -> u64, within: u128) -> u128 {
        random_mask(next, within) & random_mask(next, within)
    }

    proptest::proptest! {
        /// Every heal policy keeps the list-scan packer's masks, `moved`
        /// and `shared`, on random outages: repeated and self pairs,
        /// surviving lanes to keep, frozen unions of several flows, dead
        /// lanes up to an all-dark comb, full 128-lane combs, and flows
        /// holding lanes above the comb (demands the comb cannot meet).
        #[test]
        fn heal_matches_the_list_scan_packer(seed in 0u64..1_000_000) {
            use HealPolicy::{Park, RePackRelaxed, RePackStrict};
            let mut next = stream(seed);
            for _ in 0..16 {
                let nw = match next() % 8 {
                    0 => 128,
                    r => 1 + (r as usize) % 6,
                };
                let comb = comb_mask(nw);
                let wide = if next().is_multiple_of(4) {
                    comb_mask((nw + 2).min(128))
                } else {
                    comb
                };
                let flows = 1 + (next() % 7) as usize;
                let old: Vec<u128> = (0..flows).map(|_| random_mask(&mut next, wide)).collect();
                let frozen: Vec<u128> = (0..flows)
                    .map(|_| {
                        let owners = next() % 4;
                        (0..owners).fold(0, |m, _| m | sparse_mask(&mut next, comb))
                    })
                    .collect();
                let dead = match next() % 4 {
                    0 => comb,
                    1 => 0,
                    _ => sparse_mask(&mut next, comb),
                };
                let pairs: Vec<(usize, usize)> = (0..next() % 12)
                    .map(|_| (next() as usize % flows, next() as usize % flows))
                    .collect();
                for policy in [Park, RePackStrict, RePackRelaxed] {
                    proptest::prop_assert_eq!(
                        reassign_flows_on_lane_loss(&old, &pairs, &frozen, dead, nw, policy),
                        list_scan_heal(&old, &pairs, &frozen, dead, nw, policy),
                        "{} λ, old {:x?}, pairs {:?}, frozen {:x?}, dead {:x}, {}",
                        nw, old, pairs, frozen, dead, policy
                    );
                }
            }
        }
    }

    #[test]
    fn park_never_swaps() {
        assert_eq!(
            reassign_flows_on_lane_loss(&[0b1], &[], &[0], 0b1, 4, HealPolicy::Park),
            None
        );
    }

    #[test]
    fn healed_masks_never_claim_a_dark_lane() {
        // Flow 0 held λ0+λ1, flow 1 held λ2; λ1 and λ2 go dark.
        let dead = 0b110;
        for policy in [HealPolicy::RePackStrict, HealPolicy::RePackRelaxed] {
            let out =
                reassign_flows_on_lane_loss(&[0b011, 0b100], &[(0, 1)], &[0, 0], dead, 8, policy)
                    .unwrap();
            for mask in &out.masks {
                assert_eq!(mask & dead, 0, "{policy} claimed a dark lane");
            }
            assert_eq!(out.masks[0].count_ones(), 2, "demand restored");
            assert_eq!(out.masks[1].count_ones(), 1);
            assert_eq!(out.masks[0] & out.masks[1], 0, "conflict stays disjoint");
        }
    }

    #[test]
    fn frozen_lanes_are_routed_around() {
        // One affected single-lane flow; a frozen conflicting flow holds
        // λ1, and λ0 is dark — the heal must land on λ2.
        let out = reassign_flows_on_lane_loss(
            &[0b001],
            &[],
            &[0b010],
            0b001,
            4,
            HealPolicy::RePackStrict,
        )
        .unwrap();
        assert_eq!(out.masks, vec![0b100]);
        assert_eq!(out.moved, 1);
        assert_eq!(out.shared, 0);
    }

    #[test]
    fn strict_aborts_when_the_surviving_comb_is_too_small() {
        // Two mutually conflicting 1-lane flows, one surviving lane.
        assert_eq!(
            reassign_flows_on_lane_loss(
                &[0b01, 0b10],
                &[(0, 1)],
                &[0, 0],
                0b10,
                2,
                HealPolicy::RePackStrict,
            ),
            None
        );
    }

    #[test]
    fn relaxed_shares_instead_of_aborting() {
        let out = reassign_flows_on_lane_loss(
            &[0b01, 0b10],
            &[(0, 1)],
            &[0, 0],
            0b10,
            2,
            HealPolicy::RePackRelaxed,
        )
        .unwrap();
        assert_eq!(out.masks, vec![0b01, 0b01], "both flows share the survivor");
        assert_eq!(out.shared, 1);
    }

    #[test]
    fn relaxed_clamps_demand_to_the_surviving_comb() {
        // A 3-lane flow with only 2 surviving lanes keeps transmitting
        // on both survivors.
        let out =
            reassign_flows_on_lane_loss(&[0b0111], &[], &[0], 0b1100, 4, HealPolicy::RePackRelaxed)
                .unwrap();
        assert_eq!(out.masks, vec![0b0011]);
        assert_eq!(out.shared, 0, "clamping is not sharing");
    }

    #[test]
    fn untouched_flows_keep_their_masks() {
        // Flow 1 holds no dark lane and no conflict pressure: the greedy
        // re-pack hands it back its own lanes (lowest indices free of its
        // neighbourhood), so `moved` counts only real moves.
        let out = reassign_flows_on_lane_loss(
            &[0b100, 0b011],
            &[(0, 1)],
            &[0, 0],
            0b100,
            4,
            HealPolicy::RePackStrict,
        )
        .unwrap();
        assert_eq!(out.masks[1], 0b011);
        assert_eq!(out.masks[0], 0b1000);
        assert_eq!(out.moved, 1);
    }

    #[test]
    fn heal_on_a_healthy_map_is_a_no_op() {
        // No dark lanes: the greedy re-pack reproduces a first-fit map
        // exactly, so `moved == 0` and nothing needs swapping.
        let out = reassign_flows_on_lane_loss(
            &[0b0011, 0b1100, 0b0011],
            &[(0, 1), (1, 2)],
            &[0, 0, 0],
            0,
            4,
            HealPolicy::RePackStrict,
        )
        .unwrap();
        assert_eq!(out.moved, 0);
    }
}
