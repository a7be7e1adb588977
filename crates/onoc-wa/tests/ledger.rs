//! Occupancy-ledger guarantees under random session churn.
//!
//! Three invariants back the online serving layer:
//!
//! * grant→release round-trips restore the occupancy bit-identically —
//!   the ledger leaks no lanes, whatever the interleaving;
//! * live sessions named as conflicts never intersect under the disjoint
//!   policy, before or after a defrag re-pack;
//! * replaying a batch instance grant-by-grant reproduces
//!   `assign_disjoint_lanes` exactly (same lanes, same failure point), so
//!   the incremental and batch packers are one algorithm.

use onoc_wa::heuristics::{ConflictGraph, assign_disjoint_lanes};
use onoc_wa::ledger::{GrantPolicy, OccupancyLedger};

/// Deterministic pseudo-random stream (the conservation-corpus generator
/// used across the workspace's engine proptests).
fn stream(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

proptest::proptest! {
    /// Random churn: arrivals (with a random conflict neighbourhood over
    /// the live set), departures, and occasional defrag re-packs. At every
    /// step the disjointness discipline holds over the declared conflict
    /// pairs; at the end, releasing every survivor leaves a bit-identical
    /// empty comb.
    #[test]
    fn churn_conserves_lanes_and_disjointness(
        seed in 0u64..200,
        wavelengths in 1usize..17,
    ) {
        use proptest::prelude::*;
        let mut next = stream(seed);
        let mut ledger = OccupancyLedger::new(wavelengths);
        // Model: (id, mask, conflict neighbours) per live session.
        let mut live: Vec<(u64, u128, Vec<u64>)> = Vec::new();
        let mut counter = 0u64;
        for _ in 0..60 {
            match next() % 4 {
                0 | 1 => {
                    let id = counter;
                    counter += 1;
                    let demand = 1 + (next() % 3) as usize;
                    let conflicts: Vec<u64> = live
                        .iter()
                        .filter(|_| next().is_multiple_of(2))
                        .map(|(id, _, _)| *id)
                        .collect();
                    match ledger.grant(id, demand, &conflicts, GrantPolicy::Disjoint) {
                        Ok(grant) => {
                            prop_assert_eq!(grant.mask.count_ones() as usize, demand);
                            prop_assert_eq!(grant.shared, 0);
                            for (other, mask, neighbours) in &mut live {
                                if conflicts.contains(other) {
                                    prop_assert_eq!(grant.mask & *mask, 0);
                                    neighbours.push(id);
                                }
                            }
                            live.push((id, grant.mask, conflicts));
                        }
                        Err(_) => {
                            // A refused grant never touches the ledger.
                            prop_assert_eq!(ledger.session_mask(id), None);
                        }
                    }
                }
                2 if !live.is_empty() => {
                    let k = (next() as usize) % live.len();
                    let (id, mask, _) = live.swap_remove(k);
                    prop_assert_eq!(ledger.release(id), Some(mask));
                    for (_, _, neighbours) in &mut live {
                        neighbours.retain(|&n| n != id);
                    }
                }
                3 if next().is_multiple_of(4) => {
                    if let Some(outcome) = ledger.defrag(GrantPolicy::Disjoint) {
                        prop_assert_eq!(outcome.shared, 0);
                        // Demands survive the re-pack; refresh the model.
                        for (id, mask, _) in &mut live {
                            let new = ledger.session_mask(*id).expect("defrag keeps sessions");
                            prop_assert_eq!(new.count_ones(), mask.count_ones());
                            *mask = new;
                        }
                    }
                }
                _ => {}
            }
            // The global invariants, every step.
            let union = live.iter().fold(0u128, |m, (_, mask, _)| m | mask);
            prop_assert_eq!(ledger.occupancy_mask(), union, "lane leak");
            for (i, (_, mask_a, neighbours)) in live.iter().enumerate() {
                for (id_b, mask_b, _) in &live[i + 1..] {
                    if neighbours.contains(id_b) {
                        prop_assert_eq!(mask_a & mask_b, 0, "conflicting sessions intersect");
                    }
                }
            }
        }
        // Releasing every survivor restores the empty comb exactly.
        for (id, mask, _) in live.drain(..) {
            prop_assert_eq!(ledger.release(id), Some(mask));
        }
        prop_assert_eq!(ledger.occupancy_mask(), 0);
        prop_assert_eq!(ledger.live_sessions(), 0);
        let frag = ledger.fragmentation();
        prop_assert_eq!(frag.free_fraction, 1.0);
        prop_assert_eq!(frag.largest_free_run_fraction, 1.0);
        prop_assert_eq!(frag.occupancy_jain, 1.0);
    }

    /// Replaying a batch instance grant-by-grant reproduces the batch
    /// packer exactly: same lane sets on success, a refusal at the same
    /// index on failure.
    #[test]
    fn grant_replay_matches_the_batch_packer(
        seed in 0u64..200,
        n in 1usize..9,
        wavelengths in 1usize..9,
    ) {
        use proptest::prelude::*;
        let mut next = stream(seed);
        let demands: Vec<usize> = (0..n).map(|_| 1 + (next() % 3) as usize).collect();
        let mut conflicts: Vec<(usize, usize)> = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                if next().is_multiple_of(3) {
                    conflicts.push((a, b));
                }
            }
        }
        let batch = assign_disjoint_lanes(&demands, &ConflictGraph::new(n, &conflicts), wavelengths);
        let mut ledger = OccupancyLedger::new(wavelengths);
        let mut failed_at: Option<usize> = None;
        let mut lanes = Vec::new();
        for (k, &demand) in demands.iter().enumerate() {
            let neighbours: Vec<u64> = conflicts
                .iter()
                .filter_map(|&(a, b)| match () {
                    () if b == k && a < k => Some(a as u64),
                    () if a == k && b < k => Some(b as u64),
                    () => None,
                })
                .collect();
            match ledger.grant(k as u64, demand, &neighbours, GrantPolicy::Disjoint) {
                Ok(grant) => lanes.push(grant.lanes),
                Err(_) => {
                    failed_at = Some(k);
                    break;
                }
            }
        }
        match batch {
            Ok(expected) => {
                prop_assert_eq!(failed_at, None);
                prop_assert_eq!(lanes, expected);
            }
            Err(e) => prop_assert_eq!(failed_at, Some(e.index)),
        }
    }
}
