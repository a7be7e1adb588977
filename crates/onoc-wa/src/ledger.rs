//! Live occupancy ledger for online allocation-as-a-service.
//!
//! The static allocators ([`assign_disjoint_lanes`],
//! [`assign_shared_lanes`]) answer one batch question: given *all* flows
//! up front, synthesise a whole map. A serving system faces the
//! incremental question instead — sessions arrive and depart continuously,
//! and re-running the batch packer over every live session on each arrival
//! is both wasteful (the existing grants already encode the solution) and
//! disruptive (it would move lanes under sessions that are mid-transfer).
//!
//! [`OccupancyLedger`] keeps the persistent solver state between events:
//! each active session's lane mask and its conflict neighbourhood. A
//! [`OccupancyLedger::grant`] touches only the arriving session's
//! *conflicting* neighbours — `O(degree)` instead of the batch packer's
//! `O(sessions)` — and a [`OccupancyLedger::release`] is `O(degree)`
//! bookkeeping. A grant runs the very packing step the batch packers run
//! for each item (lowest free lanes first, then, under
//! [`GrantPolicy::Shared`], the least-claimed lane), so a ledger built by
//! replaying a batch instance grant-by-grant lands on the batch result
//! exactly.
//!
//! Long-running churn fragments the comb (sessions release from the
//! middle, later grants pack around survivors). [`OccupancyLedger::fragmentation`]
//! quantifies that — largest-contiguous-free-run fraction plus Jain over
//! per-lane claim counts — and [`OccupancyLedger::defrag`] re-packs every
//! live session from scratch in session-id order, the
//! `reassign_flows_on_lane_loss`-style move a serving policy triggers on
//! threshold or idle.
//!
//! [`assign_disjoint_lanes`]: crate::heuristics::assign_disjoint_lanes
//! [`assign_shared_lanes`]: crate::heuristics::assign_shared_lanes

use std::collections::BTreeMap;

use onoc_photonics::WavelengthId;

use crate::heuristics::{ConflictGraph, comb_mask, lanes, pack_batch, pack_item};

/// How a [`OccupancyLedger::grant`] treats an exhausted comb.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GrantPolicy {
    /// §III-D discipline: a session's lanes are disjoint from every
    /// conflicting live session, or the grant is refused.
    #[default]
    Disjoint,
    /// Relaxed discipline: when the comb runs out the session shares the
    /// least-claimed lanes of its conflict neighbourhood, as
    /// `assign_shared_lanes` does, and the grant reports how many sharing
    /// pairs it accepted.
    Shared,
}

impl GrantPolicy {
    /// Stable lower-case name used by spec files and CSV columns.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            GrantPolicy::Disjoint => "disjoint",
            GrantPolicy::Shared => "shared",
        }
    }

    /// Parse the spec-file spelling produced by [`GrantPolicy::name`].
    #[must_use]
    pub fn parse(s: &str) -> Option<GrantPolicy> {
        match s {
            "disjoint" => Some(GrantPolicy::Disjoint),
            "shared" => Some(GrantPolicy::Shared),
            _ => None,
        }
    }
}

impl core::fmt::Display for GrantPolicy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a [`OccupancyLedger::grant`] was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GrantError {
    /// The session id is already live in the ledger.
    DuplicateSession(u64),
    /// A conflict names a session that is not live.
    UnknownConflict {
        /// The arriving session.
        session: u64,
        /// The named (dead) neighbour.
        neighbour: u64,
    },
    /// Under [`GrantPolicy::Disjoint`] the conflict neighbourhood left too
    /// few free lanes.
    Exhausted {
        /// Lanes the session asked for.
        requested: usize,
        /// Lanes still disjoint from its live neighbours.
        available: usize,
    },
}

impl core::fmt::Display for GrantError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            GrantError::DuplicateSession(id) => write!(f, "session {id} is already live"),
            GrantError::UnknownConflict { session, neighbour } => write!(
                f,
                "session {session} names conflict neighbour {neighbour}, which is not live"
            ),
            GrantError::Exhausted {
                requested,
                available,
            } => write!(
                f,
                "session requests {requested} lanes but only {available} remain disjoint from its live neighbours"
            ),
        }
    }
}

impl std::error::Error for GrantError {}

/// A successful [`OccupancyLedger::grant`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grant {
    /// Lanes the session holds, lowest index first.
    pub lanes: Vec<WavelengthId>,
    /// The same lanes as a bit mask.
    pub mask: u128,
    /// Sharing pairs accepted (always 0 under [`GrantPolicy::Disjoint`]).
    pub shared: usize,
}

/// Fragmentation snapshot of the live comb occupancy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fragmentation {
    /// Lanes claimed by no live session, as a fraction of the comb.
    pub free_fraction: f64,
    /// Longest contiguous run of free lanes, as a fraction of the comb —
    /// the largest disjoint demand the next grant could satisfy without
    /// any neighbourhood pressure. 1.0 on an idle comb.
    pub largest_free_run_fraction: f64,
    /// Jain fairness index over per-lane claim counts: 1.0 when every
    /// lane carries the same number of sessions (perfectly level
    /// occupancy), approaching `1/comb` as claims pile onto one lane.
    /// 1.0 on an idle comb.
    pub occupancy_jain: f64,
}

/// Outcome of a [`OccupancyLedger::defrag`] re-pack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DefragOutcome {
    /// Sessions whose lane mask changed.
    pub moved: usize,
    /// Sharing pairs the re-packed map carries (0 under
    /// [`GrantPolicy::Disjoint`]).
    pub shared: usize,
}

#[derive(Debug, Clone)]
struct Session {
    mask: u128,
    demand: usize,
    /// Live conflict neighbours, kept symmetric by grant/release.
    conflicts: Vec<u64>,
}

/// Persistent solver state for online grant/release/defrag.
///
/// Sessions are keyed by caller-chosen `u64` ids (a serving loop passes
/// its arrival counter), and every operation iterates them in ascending
/// id order, so replaying the same event sequence reproduces the same
/// masks bit for bit.
#[derive(Debug, Clone, Default)]
pub struct OccupancyLedger {
    wavelengths: usize,
    sessions: BTreeMap<u64, Session>,
}

impl OccupancyLedger {
    /// An empty ledger over a `wavelengths`-channel comb.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= wavelengths <= 128` (the mask limit shared
    /// with the batch packers).
    #[must_use]
    pub fn new(wavelengths: usize) -> Self {
        assert!(
            (1..=128).contains(&wavelengths),
            "ledgers support 1..=128 wavelengths, got {wavelengths}"
        );
        OccupancyLedger {
            wavelengths,
            sessions: BTreeMap::new(),
        }
    }

    /// Comb size the ledger packs into.
    #[must_use]
    pub fn wavelengths(&self) -> usize {
        self.wavelengths
    }

    /// Number of live sessions.
    #[must_use]
    pub fn live_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Union of every live session's lane mask.
    #[must_use]
    pub fn occupancy_mask(&self) -> u128 {
        self.sessions.values().fold(0, |m, s| m | s.mask)
    }

    /// Lane mask of one live session, or `None` when the id is not live.
    #[must_use]
    pub fn session_mask(&self, id: u64) -> Option<u128> {
        self.sessions.get(&id).map(|s| s.mask)
    }

    /// Ids of the live sessions, ascending.
    #[must_use]
    pub fn session_ids(&self) -> Vec<u64> {
        self.sessions.keys().copied().collect()
    }

    /// Admit a session: pack `demand` lanes disjoint from (or, under
    /// [`GrantPolicy::Shared`], least-shared with) the live sessions
    /// named by `conflicts`. Work is proportional to the conflict
    /// neighbourhood, not the whole ledger — the incremental counterpart
    /// of `assign_disjoint_lanes` / `assign_shared_lanes`.
    ///
    /// Demands larger than the comb are clamped under the shared policy
    /// (a session cannot hold one lane twice), exactly as in
    /// `assign_shared_lanes`.
    ///
    /// # Errors
    ///
    /// [`GrantError::DuplicateSession`] when `id` is already live,
    /// [`GrantError::UnknownConflict`] when `conflicts` names a dead
    /// session, and [`GrantError::Exhausted`] when the disjoint policy
    /// runs out of comb (the ledger is left untouched — the caller queues
    /// or rejects the session).
    pub fn grant(
        &mut self,
        id: u64,
        demand: usize,
        conflicts: &[u64],
        policy: GrantPolicy,
    ) -> Result<Grant, GrantError> {
        if self.sessions.contains_key(&id) {
            return Err(GrantError::DuplicateSession(id));
        }
        for &neighbour in conflicts {
            if !self.sessions.contains_key(&neighbour) {
                return Err(GrantError::UnknownConflict {
                    session: id,
                    neighbour,
                });
            }
        }
        let mut shared = 0usize;
        let held = conflicts.iter().map(|n| self.sessions[n].mask);
        let share = policy == GrantPolicy::Shared;
        let comb = comb_mask(self.wavelengths);
        let packed = pack_item(held, 0, comb, demand, share, |_, holders| shared += holders);
        let mask = packed.map_err(|available| GrantError::Exhausted {
            requested: demand,
            available,
        })?;
        for neighbour in conflicts {
            let entry = self
                .sessions
                .get_mut(neighbour)
                .expect("checked live above");
            if !entry.conflicts.contains(&id) {
                entry.conflicts.push(id);
            }
        }
        let mut conflicts: Vec<u64> = conflicts.to_vec();
        conflicts.sort_unstable();
        conflicts.dedup();
        self.sessions.insert(
            id,
            Session {
                mask,
                demand: mask.count_ones() as usize,
                conflicts,
            },
        );
        Ok(Grant {
            lanes: lanes(mask).map(WavelengthId).collect(),
            mask,
            shared,
        })
    }

    /// Retire a session, freeing its lanes and unlinking it from its
    /// neighbours' conflict lists. Returns the freed mask, or `None` when
    /// the id was not live.
    pub fn release(&mut self, id: u64) -> Option<u128> {
        let session = self.sessions.remove(&id)?;
        for neighbour in &session.conflicts {
            if let Some(entry) = self.sessions.get_mut(neighbour) {
                entry.conflicts.retain(|&c| c != id);
            }
        }
        Some(session.mask)
    }

    /// Fragmentation snapshot of the live occupancy (see
    /// [`Fragmentation`]). All three components are 1.0 on an idle comb.
    #[must_use]
    pub fn fragmentation(&self) -> Fragmentation {
        let comb = self.wavelengths;
        let occupied = self.occupancy_mask();
        let mut claims = vec![0usize; comb];
        for session in self.sessions.values() {
            for (w, claim) in claims.iter_mut().enumerate() {
                *claim += usize::from(session.mask & (1 << w) != 0);
            }
        }
        let free = comb - (occupied.count_ones() as usize);
        let mut largest_run = 0usize;
        let mut run = 0usize;
        for w in 0..comb {
            if occupied & (1 << w) == 0 {
                run += 1;
                largest_run = largest_run.max(run);
            } else {
                run = 0;
            }
        }
        let sum: f64 = claims.iter().map(|&c| c as f64).sum();
        let sum_sq: f64 = claims.iter().map(|&c| (c * c) as f64).sum();
        let occupancy_jain = if sum_sq == 0.0 {
            1.0
        } else {
            (sum * sum) / (comb as f64 * sum_sq)
        };
        Fragmentation {
            free_fraction: free as f64 / comb as f64,
            largest_free_run_fraction: largest_run as f64 / comb as f64,
            occupancy_jain,
        }
    }

    /// Re-pack every live session from scratch in ascending id order with
    /// the same lowest-index greedy engine grants use — the
    /// defragmentation move a serving policy triggers on threshold or
    /// idle. Demands and the conflict graph are preserved; only lane
    /// choices change.
    ///
    /// Under [`GrantPolicy::Disjoint`] the re-pack is all-or-nothing: if
    /// any session cannot recover its full demand disjointly in greedy
    /// order, no session moves and `None` is returned (mirroring
    /// `HealPolicy::RePackStrict`). Under [`GrantPolicy::Shared`] the
    /// re-pack always succeeds, sharing where the comb runs out.
    #[must_use]
    pub fn defrag(&mut self, policy: GrantPolicy) -> Option<DefragOutcome> {
        let ids: Vec<u64> = self.sessions.keys().copied().collect();
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            for neighbour in &self.sessions[id].conflicts {
                let j = ids.binary_search(neighbour).expect("neighbours are live");
                if i < j {
                    pairs.push((i, j));
                }
            }
        }
        let graph = ConflictGraph::new(ids.len(), &pairs);
        let demands: Vec<usize> = ids.iter().map(|id| self.sessions[id].demand).collect();
        let share = policy == GrantPolicy::Shared;
        let (masks, shared) = pack_batch(&demands, &graph, self.wavelengths, share).ok()?;
        let mut moved = 0usize;
        for (k, id) in ids.iter().enumerate() {
            let session = self.sessions.get_mut(id).expect("id is live");
            if session.mask != masks[k] {
                session.mask = masks[k];
                moved += 1;
            }
        }
        Some(DefragOutcome {
            moved,
            shared: shared.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::list_scan::{conflict_neighbour_mask, fill_free_lanes};

    /// `OccupancyLedger::grant` before the one packing step: its own free
    /// fill and least-claimed loop over the live conflict list.
    fn list_scan_grant(
        ledger: &mut OccupancyLedger,
        id: u64,
        demand: usize,
        conflicts: &[u64],
        policy: GrantPolicy,
    ) -> Result<Grant, GrantError> {
        if ledger.sessions.contains_key(&id) {
            return Err(GrantError::DuplicateSession(id));
        }
        for &neighbour in conflicts {
            if !ledger.sessions.contains_key(&neighbour) {
                return Err(GrantError::UnknownConflict {
                    session: id,
                    neighbour,
                });
            }
        }
        let count = match policy {
            GrantPolicy::Disjoint => demand,
            GrantPolicy::Shared => demand.min(ledger.wavelengths),
        };
        let occupied = conflicts
            .iter()
            .fold(0u128, |m, n| m | ledger.sessions[n].mask);
        let mut lanes = Vec::new();
        let mut mask = 0u128;
        let assigned = fill_free_lanes(occupied, count, ledger.wavelengths, &mut lanes, &mut mask);
        let mut shared = 0usize;
        if assigned < count {
            if policy == GrantPolicy::Disjoint {
                return Err(GrantError::Exhausted {
                    requested: count,
                    available: assigned,
                });
            }
            let claims = |w: usize| -> usize {
                let bit = 1u128 << w;
                conflicts
                    .iter()
                    .filter(|n| ledger.sessions[*n].mask & bit != 0)
                    .count()
            };
            for _ in assigned..count {
                let choice = (0..ledger.wavelengths)
                    .filter(|&w| mask & (1 << w) == 0)
                    .min_by_key(|&w| claims(w))
                    .expect("count is clamped to the comb size");
                shared += claims(choice);
                lanes.push(WavelengthId(choice));
                mask |= 1 << choice;
            }
            lanes.sort_unstable_by_key(|w| w.index());
        }
        for neighbour in conflicts {
            let entry = ledger.sessions.get_mut(neighbour).unwrap();
            if !entry.conflicts.contains(&id) {
                entry.conflicts.push(id);
            }
        }
        let mut conflicts: Vec<u64> = conflicts.to_vec();
        conflicts.sort_unstable();
        conflicts.dedup();
        let session = Session {
            mask,
            demand: count,
            conflicts,
        };
        ledger.sessions.insert(id, session);
        Ok(Grant {
            lanes,
            mask,
            shared,
        })
    }

    /// `OccupancyLedger::defrag` before the one packing step: a pair
    /// list that every session rescans, for its free fill and for each
    /// claim count.
    fn list_scan_defrag(
        ledger: &mut OccupancyLedger,
        policy: GrantPolicy,
    ) -> Option<DefragOutcome> {
        let ids: Vec<u64> = ledger.sessions.keys().copied().collect();
        let index_of: BTreeMap<u64, usize> =
            ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            for neighbour in &ledger.sessions[id].conflicts {
                let j = index_of[neighbour];
                if i < j {
                    pairs.push((i, j));
                }
            }
        }
        let mut masks = vec![0u128; ids.len()];
        let mut shared_total = 0usize;
        let mut scratch: Vec<WavelengthId> = Vec::new();
        for (k, id) in ids.iter().enumerate() {
            let count = ledger.sessions[id].demand;
            let occupied = conflict_neighbour_mask(k, &pairs, &masks);
            scratch.clear();
            let wavelengths = ledger.wavelengths;
            let assigned =
                fill_free_lanes(occupied, count, wavelengths, &mut scratch, &mut masks[k]);
            if assigned < count {
                if policy == GrantPolicy::Disjoint {
                    return None;
                }
                let claims = |w: usize, masks: &[u128]| -> usize {
                    let bit = 1u128 << w;
                    pairs
                        .iter()
                        .filter(|&&(a, b)| {
                            (a == k && masks[b] & bit != 0) || (b == k && masks[a] & bit != 0)
                        })
                        .count()
                };
                for _ in assigned..count {
                    let choice = (0..wavelengths)
                        .filter(|&w| masks[k] & (1 << w) == 0)
                        .min_by_key(|&w| claims(w, &masks))
                        .expect("demand is clamped to the comb size at grant time");
                    shared_total += claims(choice, &masks);
                    masks[k] |= 1 << choice;
                }
            }
        }
        let mut moved = 0usize;
        for (k, id) in ids.iter().enumerate() {
            let session = ledger.sessions.get_mut(id).expect("id is live");
            if session.mask != masks[k] {
                session.mask = masks[k];
                moved += 1;
            }
        }
        Some(DefragOutcome {
            moved,
            shared: shared_total,
        })
    }

    /// Every session's state: id, mask, stored demand and conflict list.
    fn sessions(ledger: &OccupancyLedger) -> Vec<(u64, u128, usize, Vec<u64>)> {
        ledger
            .sessions
            .iter()
            .map(|(&id, s)| (id, s.mask, s.demand, s.conflicts.clone()))
            .collect()
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

    proptest::proptest! {
        /// Grants and defrags keep the list-scan packers' lanes, masks,
        /// `moved` and `shared` counts and refusals under both policies,
        /// on random churn: demands up to two above the comb, conflict
        /// lists with repeated neighbours (and, rarely, the arriving
        /// session itself), releases, and defrags under either policy.
        #[test]
        fn grant_and_defrag_match_the_list_scan_packers(seed in 0u64..1_000_000) {
            let mut next = stream(seed);
            let wavelengths = 1 + (next() % 8) as usize;
            for policy in [GrantPolicy::Disjoint, GrantPolicy::Shared] {
                let mut ledger = OccupancyLedger::new(wavelengths);
                let mut oracle = ledger.clone();
                let mut live: Vec<u64> = Vec::new();
                for id in 0..48u64 {
                    match next() % 6 {
                        0..=2 => {
                            let demand = (next() % (wavelengths as u64 + 3)) as usize;
                            let mut conflicts = live.clone();
                            conflicts.retain(|_| !next().is_multiple_of(3));
                            match next() % 8 {
                                0 | 1 if !conflicts.is_empty() => conflicts.push(conflicts[0]),
                                2 => conflicts.push(id),
                                _ => {}
                            }
                            let got = ledger.grant(id, demand, &conflicts, policy);
                            let want = list_scan_grant(&mut oracle, id, demand, &conflicts, policy);
                            proptest::prop_assert_eq!(&got, &want, "grant {} of {}", id, demand);
                            if got.is_ok() {
                                live.push(id);
                            }
                        }
                        3 | 4 if !live.is_empty() => {
                            let gone = live.swap_remove((next() % live.len() as u64) as usize);
                            proptest::prop_assert_eq!(ledger.release(gone), oracle.release(gone));
                        }
                        _ => {
                            let strict = next().is_multiple_of(2);
                            let pick = if strict { GrantPolicy::Disjoint } else { policy };
                            let got = ledger.defrag(pick);
                            proptest::prop_assert_eq!(got, list_scan_defrag(&mut oracle, pick));
                        }
                    }
                    proptest::prop_assert_eq!(sessions(&ledger), sessions(&oracle));
                }
            }
        }
    }

    #[test]
    fn grants_pack_lowest_index_first_like_the_batch_packer() {
        let mut ledger = OccupancyLedger::new(4);
        let a = ledger.grant(0, 2, &[], GrantPolicy::Disjoint).unwrap();
        let b = ledger.grant(1, 1, &[0], GrantPolicy::Disjoint).unwrap();
        let c = ledger.grant(2, 2, &[], GrantPolicy::Disjoint).unwrap();
        // Identical to assign_disjoint_lanes(&[2, 1, 2], &[(0, 1)], 4).
        assert_eq!(a.lanes, vec![WavelengthId(0), WavelengthId(1)]);
        assert_eq!(b.lanes, vec![WavelengthId(2)]);
        assert_eq!(c.lanes, vec![WavelengthId(0), WavelengthId(1)]);
        assert_eq!(a.shared + b.shared + c.shared, 0);
    }

    #[test]
    fn disjoint_grant_refuses_an_exhausted_neighbourhood() {
        let mut ledger = OccupancyLedger::new(2);
        ledger.grant(0, 2, &[], GrantPolicy::Disjoint).unwrap();
        let err = ledger.grant(1, 1, &[0], GrantPolicy::Disjoint).unwrap_err();
        assert_eq!(
            err,
            GrantError::Exhausted {
                requested: 1,
                available: 0
            }
        );
        // The refused session never entered the ledger.
        assert_eq!(ledger.live_sessions(), 1);
        assert_eq!(ledger.session_mask(1), None);
    }

    #[test]
    fn shared_grant_lands_on_the_least_claimed_lane() {
        let mut ledger = OccupancyLedger::new(2);
        ledger.grant(0, 1, &[], GrantPolicy::Shared).unwrap();
        ledger.grant(1, 1, &[], GrantPolicy::Shared).unwrap(); // both hold λ0
        ledger.grant(2, 1, &[0, 1], GrantPolicy::Shared).unwrap(); // λ1 free
        let g = ledger.grant(3, 1, &[0, 1, 2], GrantPolicy::Shared).unwrap();
        // λ0 has two claiming neighbours, λ1 one: sharing lands on λ1.
        assert_eq!(g.lanes, vec![WavelengthId(1)]);
        assert_eq!(g.shared, 1);
    }

    #[test]
    fn release_frees_lanes_for_the_next_grant() {
        let mut ledger = OccupancyLedger::new(2);
        ledger.grant(0, 2, &[], GrantPolicy::Disjoint).unwrap();
        assert!(ledger.grant(1, 1, &[0], GrantPolicy::Disjoint).is_err());
        assert_eq!(ledger.release(0), Some(0b11));
        let g = ledger.grant(1, 1, &[], GrantPolicy::Disjoint).unwrap();
        assert_eq!(g.lanes, vec![WavelengthId(0)]);
        assert_eq!(ledger.release(42), None, "dead ids release nothing");
    }

    #[test]
    fn duplicate_and_unknown_ids_are_refused() {
        let mut ledger = OccupancyLedger::new(4);
        ledger.grant(7, 1, &[], GrantPolicy::Disjoint).unwrap();
        assert_eq!(
            ledger.grant(7, 1, &[], GrantPolicy::Disjoint).unwrap_err(),
            GrantError::DuplicateSession(7)
        );
        assert_eq!(
            ledger.grant(8, 1, &[9], GrantPolicy::Disjoint).unwrap_err(),
            GrantError::UnknownConflict {
                session: 8,
                neighbour: 9
            }
        );
    }

    #[test]
    fn fragmentation_reads_the_comb_correctly() {
        let mut ledger = OccupancyLedger::new(8);
        let idle = ledger.fragmentation();
        assert_eq!(idle.free_fraction, 1.0);
        assert_eq!(idle.largest_free_run_fraction, 1.0);
        assert_eq!(idle.occupancy_jain, 1.0);
        ledger.grant(0, 2, &[], GrantPolicy::Disjoint).unwrap(); // λ0,λ1
        ledger.grant(1, 1, &[], GrantPolicy::Disjoint).unwrap(); // λ0 again (no conflict)
        ledger.grant(2, 3, &[0, 1], GrantPolicy::Disjoint).unwrap(); // λ2..λ4
        let frag = ledger.fragmentation();
        // λ5..λ7 are the only free lanes.
        assert_eq!(frag.free_fraction, 3.0 / 8.0);
        assert_eq!(frag.largest_free_run_fraction, 3.0 / 8.0);
        // Per-lane claims [2,1,1,1,1,0,0,0]: Jain = 36 / (8 * 8).
        assert_eq!(frag.occupancy_jain, 36.0 / 64.0);
    }

    #[test]
    fn defrag_compacts_a_fragmented_comb() {
        let mut ledger = OccupancyLedger::new(8);
        ledger.grant(0, 2, &[], GrantPolicy::Disjoint).unwrap(); // λ0,λ1
        ledger.grant(1, 2, &[0], GrantPolicy::Disjoint).unwrap(); // λ2,λ3
        ledger.grant(2, 2, &[0, 1], GrantPolicy::Disjoint).unwrap(); // λ4,λ5
        ledger.release(1);
        // Session 2 sits on λ4,λ5 with λ2,λ3 free in the middle.
        let before = ledger.fragmentation();
        let outcome = ledger.defrag(GrantPolicy::Disjoint).unwrap();
        assert_eq!(outcome.moved, 1, "only the stranded session moves");
        assert_eq!(outcome.shared, 0);
        assert_eq!(ledger.session_mask(2), Some(0b1100));
        let after = ledger.fragmentation();
        assert!(
            after.largest_free_run_fraction > before.largest_free_run_fraction,
            "defrag grew the largest free run ({} -> {})",
            before.largest_free_run_fraction,
            after.largest_free_run_fraction
        );
    }

    #[test]
    fn defrag_on_a_packed_comb_is_a_no_op() {
        let mut ledger = OccupancyLedger::new(4);
        ledger.grant(0, 1, &[], GrantPolicy::Disjoint).unwrap();
        ledger.grant(1, 1, &[0], GrantPolicy::Disjoint).unwrap();
        let outcome = ledger.defrag(GrantPolicy::Disjoint).unwrap();
        assert_eq!(outcome.moved, 0);
    }

    #[test]
    fn shared_defrag_reports_its_sharing_budget() {
        let mut ledger = OccupancyLedger::new(1);
        ledger.grant(0, 1, &[], GrantPolicy::Shared).unwrap();
        ledger.grant(1, 1, &[0], GrantPolicy::Shared).unwrap(); // shares λ0
        let outcome = ledger.defrag(GrantPolicy::Shared).unwrap();
        assert_eq!(outcome.moved, 0);
        assert_eq!(outcome.shared, 1);
    }
}
