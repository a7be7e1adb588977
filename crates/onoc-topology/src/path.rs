//! Source→destination paths along the ring.

use crate::{Direction, NodeId, RingTopology};

/// A physical waveguide segment together with the traversal direction.
///
/// The architecture has one waveguide per direction, so two transmissions
/// interact only if they share a `DirectedSegment` — same physical span *and*
/// same waveguide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DirectedSegment {
    /// Physical segment index (between ring positions `index` and `index+1`).
    pub index: usize,
    /// Which of the two waveguides carries the signal.
    pub direction: Direction,
}

impl DirectedSegment {
    /// The canonical dense index of this segment: `2 · index` for the
    /// clockwise waveguide, `2 · index + 1` for the counter-clockwise one.
    ///
    /// Dense indices enumerate the `2 · nodes` directed segments of an
    /// `nodes`-node ring (see [`segment_count`]) in the canonical report
    /// order — ascending physical index, clockwise before
    /// counter-clockwise — so flat per-segment tables replace hash maps
    /// in simulation hot paths and iterate in the canonical order for
    /// free.
    #[must_use]
    pub fn segment_index(self) -> usize {
        self.index * 2 + usize::from(self.direction == Direction::CounterClockwise)
    }

    /// Inverse of [`DirectedSegment::segment_index`].
    #[must_use]
    pub fn from_segment_index(dense: usize) -> Self {
        Self {
            index: dense / 2,
            direction: if dense.is_multiple_of(2) {
                Direction::Clockwise
            } else {
                Direction::CounterClockwise
            },
        }
    }
}

/// Number of directed segments on an `nodes`-node ring: one clockwise and
/// one counter-clockwise waveguide segment per physical span.
///
/// Valid [`DirectedSegment::segment_index`] values are
/// `0..segment_count(nodes)`.
#[must_use]
pub fn segment_count(nodes: usize) -> usize {
    2 * nodes
}

impl core::fmt::Display for DirectedSegment {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "s{}/{}", self.index, self.direction)
    }
}

/// A simple path from a source ONI to a destination ONI along one waveguide.
///
/// # Examples
///
/// ```
/// use onoc_topology::{Direction, NodeId, RingPath, RingTopology};
///
/// let ring = RingTopology::new(16);
/// let path = RingPath::new(&ring, NodeId(1), NodeId(4), Direction::Clockwise);
/// assert_eq!(path.hops(), 3);
/// assert_eq!(path.nodes().collect::<Vec<_>>(), vec![NodeId(1), NodeId(2), NodeId(3), NodeId(4)]);
/// assert!(path.passes_through(NodeId(2)));
/// assert!(!path.passes_through(NodeId(4))); // destination is not "passed through"
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RingPath {
    src: NodeId,
    dst: NodeId,
    direction: Direction,
    ring_size: usize,
}

impl RingPath {
    /// Creates the path `src → dst` travelling in `direction` on `ring`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is outside the ring or if `src == dst`
    /// (an ONI does not use the optical layer to talk to itself).
    #[must_use]
    pub fn new(ring: &RingTopology, src: NodeId, dst: NodeId, direction: Direction) -> Self {
        assert!(ring.contains(src), "{src} outside the ring");
        assert!(ring.contains(dst), "{dst} outside the ring");
        assert_ne!(src, dst, "a path needs distinct endpoints, got {src} twice");
        Self {
            src,
            dst,
            direction,
            ring_size: ring.node_count(),
        }
    }

    /// Source ONI.
    #[must_use]
    pub fn src(&self) -> NodeId {
        self.src
    }

    /// Destination ONI.
    #[must_use]
    pub fn dst(&self) -> NodeId {
        self.dst
    }

    /// Traversal direction.
    #[must_use]
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// Size of the ring this path lives on.
    #[must_use]
    pub fn ring_size(&self) -> usize {
        self.ring_size
    }

    /// Number of waveguide segments crossed.
    #[must_use]
    pub fn hops(&self) -> usize {
        self.arc().1
    }

    /// The physical segments crossed, as an arc `(start, hops)`: the
    /// segment indices `start, start + 1, …, start + hops − 1`, wrapping
    /// at the ring size. A clockwise path drives its arc from `src`; a
    /// counter-clockwise one drives the same kind of arc from `dst` back
    /// to `src`.
    fn arc(&self) -> (usize, usize) {
        let (from, to) = match self.direction {
            Direction::Clockwise => (self.src.0, self.dst.0),
            Direction::CounterClockwise => (self.dst.0, self.src.0),
        };
        (from, ring_offset(from, to, self.ring_size))
    }

    /// All visited nodes in traversal order, source first, destination last.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + use<> {
        let ring = RingTopology::new(self.ring_size);
        let direction = self.direction;
        let mut at = self.src;
        (0..=self.hops()).map(move |_| {
            let current = at;
            at = ring.successor(at, direction);
            current
        })
    }

    /// The nodes strictly between source and destination, in traversal order.
    pub fn intermediate_nodes(&self) -> impl Iterator<Item = NodeId> + use<> {
        let hops = self.hops();
        self.nodes()
            .enumerate()
            .filter(move |&(i, _)| i > 0 && i < hops)
            .map(|(_, n)| n)
    }

    /// The directed segments crossed, in traversal order.
    pub fn segments(&self) -> impl Iterator<Item = DirectedSegment> + use<> {
        let ring = RingTopology::new(self.ring_size);
        let direction = self.direction;
        let n = self.ring_size;
        let mut at = self.src;
        (0..self.hops()).map(move |_| {
            let index = match direction {
                Direction::Clockwise => at.0,
                Direction::CounterClockwise => (at.0 + n - 1) % n,
            };
            at = ring.successor(at, direction);
            DirectedSegment { index, direction }
        })
    }

    /// Returns `true` if the path crosses the given directed segment.
    ///
    /// Constant time: the segment lies on the path's arc iff its offset
    /// from the arc's start is below the hop count.
    #[must_use]
    pub fn contains_segment(&self, segment: DirectedSegment) -> bool {
        let (start, hops) = self.arc();
        segment.direction == self.direction
            && segment.index < self.ring_size
            && ring_offset(start, segment.index, self.ring_size) < hops
    }

    /// Returns `true` if the two paths share at least one directed segment —
    /// i.e. their signals co-propagate somewhere and must use disjoint
    /// wavelengths (the paper's validity constraint, §III-D).
    ///
    /// Constant time: two arcs on one waveguide share a segment iff one
    /// starts on the other.
    #[must_use]
    pub fn overlaps(&self, other: &RingPath) -> bool {
        debug_assert_eq!(
            self.ring_size, other.ring_size,
            "overlap of paths on rings of different sizes"
        );
        if self.direction != other.direction {
            return false;
        }
        let (a, a_hops) = self.arc();
        let (b, b_hops) = other.arc();
        ring_offset(a, b, self.ring_size) < a_hops || ring_offset(b, a, self.ring_size) < b_hops
    }

    /// Returns `true` if `node` lies strictly inside the path (crossed but
    /// neither source nor destination).
    #[must_use]
    pub fn passes_through(&self, node: NodeId) -> bool {
        self.intermediate_nodes().any(|n| n == node)
    }

    /// Returns `true` if the signal reaches the receiver stack of `node`:
    /// either it passes through the node or terminates there.
    #[must_use]
    pub fn reaches_receiver(&self, node: NodeId) -> bool {
        node == self.dst || self.passes_through(node)
    }
}

/// Clockwise distance from ring position `from` to `to` on an `n`-node
/// ring: `(to − from) mod n`, for `from, to < n`.
fn ring_offset(from: usize, to: usize, n: usize) -> usize {
    let d = to + n - from;
    if d >= n { d - n } else { d }
}

impl core::fmt::Display for RingPath {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}→{} ({})", self.src, self.dst, self.direction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ring16() -> RingTopology {
        RingTopology::new(16)
    }

    /// `RingPath::contains_segment` before the arc test: a walk over the
    /// path's segments, kept as its oracle.
    fn walk_contains_segment(path: &RingPath, segment: DirectedSegment) -> bool {
        segment.direction == path.direction && path.segments().any(|s| s == segment)
    }

    /// `RingPath::overlaps` before the arc test: for each segment of
    /// `other`, a walk over the segments of `path`.
    fn walk_overlaps(path: &RingPath, other: &RingPath) -> bool {
        if path.direction != other.direction {
            return false;
        }
        other.segments().any(|s| walk_contains_segment(path, s))
    }

    /// Every path on an `n`-node ring.
    fn all_paths(n: usize) -> Vec<RingPath> {
        let ring = RingTopology::new(n);
        let mut paths = Vec::new();
        for src in 0..n {
            for dst in (0..n).filter(|&dst| dst != src) {
                for d in Direction::BOTH {
                    paths.push(RingPath::new(&ring, NodeId(src), NodeId(dst), d));
                }
            }
        }
        paths
    }

    /// Compares `overlaps` (both ways round) and `contains_segment` on
    /// the segment `index` in both directions with the walks.
    fn check_against_walk(p: &RingPath, q: &RingPath, index: usize) -> Result<(), String> {
        let walked = walk_overlaps(p, q);
        if p.overlaps(q) != walked || q.overlaps(p) != walked {
            return Err(format!("{p} and {q}: the walk says overlap = {walked}"));
        }
        for direction in Direction::BOTH {
            let segment = DirectedSegment { index, direction };
            let walked = walk_contains_segment(p, segment);
            if p.contains_segment(segment) != walked {
                return Err(format!("{p} and {segment}: the walk says {walked}"));
            }
        }
        Ok(())
    }

    /// Checks the arc test on random paths of rings of up to 1 024 nodes:
    /// `overlaps` against the walk, and `contains_segment` on a random
    /// index, on the indices around both ends of the first path's arc and
    /// on the two indices past the ring.
    fn check_random_pair(draws: [u64; 6]) -> Result<(), String> {
        let n = 2 + (draws[0] % 1_023) as usize;
        let ring = RingTopology::new(n);
        let endpoints = |a: u64, b: u64| {
            let src = (a % n as u64) as usize;
            let dst = (src + 1 + (b % (n as u64 - 1)) as usize) % n;
            (NodeId(src), NodeId(dst))
        };
        let direction = |bit: u64| Direction::BOTH[(bit & 1) as usize];
        let (a, b) = endpoints(draws[1], draws[2]);
        let (c, d) = endpoints(draws[3], draws[4]);
        let p = RingPath::new(&ring, a, b, direction(draws[5]));
        let q = RingPath::new(&ring, c, d, direction(draws[5] >> 1));
        let (start, hops) = p.arc();
        let random = (draws[5] >> 2) as usize % (n + 2);
        let ends = [start + n - 1, start, start + hops - 1, start + hops].map(|i| i % n);
        for index in [random, n, n + 1].into_iter().chain(ends) {
            check_against_walk(&p, &q, index)?;
        }
        Ok(())
    }

    /// The arc test agrees with the segment walk on every pair of paths
    /// of every ring of 2–24 nodes, and `contains_segment` on every
    /// segment index in `0..n + 2` (the last two off the ring).
    #[test]
    fn arc_overlap_matches_segment_walk() {
        for n in 2..=24 {
            let paths = all_paths(n);
            for (i, p) in paths.iter().enumerate() {
                for q in &paths[i..] {
                    if let Err(e) = check_against_walk(p, q, 0) {
                        panic!("{n}-node ring: {e}");
                    }
                }
                for index in 0..n + 2 {
                    if let Err(e) = check_against_walk(p, p, index) {
                        panic!("{n}-node ring: {e}");
                    }
                }
            }
        }
    }

    /// [`check_random_pair`] on 10 000 seeded draws.
    #[test]
    #[ignore = "10 000 cases; run in release with --ignored"]
    fn arc_overlap_matches_segment_walk_at_10000_cases() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..10_000 {
            let draws = [next(), next(), next(), next(), next(), next()];
            if let Err(e) = check_random_pair(draws) {
                panic!("case {case}: {e}");
            }
        }
    }

    #[test]
    fn clockwise_segments_are_consecutive() {
        let p = RingPath::new(&ring16(), NodeId(1), NodeId(4), Direction::Clockwise);
        let segs: Vec<_> = p.segments().map(|s| s.index).collect();
        assert_eq!(segs, vec![1, 2, 3]);
    }

    #[test]
    fn counterclockwise_segments() {
        let p = RingPath::new(
            &ring16(),
            NodeId(1),
            NodeId(14),
            Direction::CounterClockwise,
        );
        let segs: Vec<_> = p.segments().map(|s| s.index).collect();
        assert_eq!(segs, vec![0, 15, 14]);
        assert_eq!(
            p.nodes().collect::<Vec<_>>(),
            vec![NodeId(1), NodeId(0), NodeId(15), NodeId(14)]
        );
    }

    #[test]
    fn wrapping_clockwise_path() {
        let p = RingPath::new(&ring16(), NodeId(14), NodeId(1), Direction::Clockwise);
        let segs: Vec<_> = p.segments().map(|s| s.index).collect();
        assert_eq!(segs, vec![14, 15, 0]);
    }

    #[test]
    fn overlap_requires_same_direction() {
        let ring = ring16();
        let cw = RingPath::new(&ring, NodeId(0), NodeId(3), Direction::Clockwise);
        let ccw = RingPath::new(&ring, NodeId(3), NodeId(0), Direction::CounterClockwise);
        // Same physical span, opposite waveguides: no interaction.
        assert!(!cw.overlaps(&ccw));
    }

    #[test]
    fn overlap_detects_shared_span() {
        let ring = ring16();
        let a = RingPath::new(&ring, NodeId(0), NodeId(3), Direction::Clockwise);
        let b = RingPath::new(&ring, NodeId(1), NodeId(3), Direction::Clockwise);
        let c = RingPath::new(&ring, NodeId(3), NodeId(7), Direction::Clockwise);
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c)); // meets only at node 3, no shared segment
    }

    #[test]
    fn intermediate_nodes_exclude_endpoints() {
        let p = RingPath::new(&ring16(), NodeId(1), NodeId(4), Direction::Clockwise);
        assert_eq!(
            p.intermediate_nodes().collect::<Vec<_>>(),
            vec![NodeId(2), NodeId(3)]
        );
        assert!(p.reaches_receiver(NodeId(4)));
        assert!(p.reaches_receiver(NodeId(2)));
        assert!(!p.reaches_receiver(NodeId(1)));
    }

    #[test]
    fn single_hop_has_no_intermediates() {
        let p = RingPath::new(&ring16(), NodeId(7), NodeId(8), Direction::Clockwise);
        assert_eq!(p.intermediate_nodes().count(), 0);
        assert_eq!(p.hops(), 1);
    }

    #[test]
    #[should_panic(expected = "distinct endpoints")]
    fn self_path_panics() {
        let _ = RingPath::new(&ring16(), NodeId(3), NodeId(3), Direction::Clockwise);
    }

    #[test]
    fn dense_segment_index_roundtrips_and_orders_canonically() {
        let n = 16;
        for dense in 0..segment_count(n) {
            let seg = DirectedSegment::from_segment_index(dense);
            assert_eq!(seg.segment_index(), dense);
            assert!(seg.index < n);
        }
        // Canonical order: ascending span, clockwise first — the order
        // reports have always sorted (index, direction != CW) by.
        let mut segs: Vec<DirectedSegment> = (0..segment_count(n))
            .map(DirectedSegment::from_segment_index)
            .collect();
        let reference = segs.clone();
        segs.sort_by_key(|s| (s.index, s.direction != Direction::Clockwise));
        assert_eq!(segs, reference);
    }

    proptest! {
        #[test]
        fn dense_index_is_a_bijection(i in 0usize..64, cw in any::<bool>()) {
            let seg = DirectedSegment {
                index: i,
                direction: if cw { Direction::Clockwise } else { Direction::CounterClockwise },
            };
            prop_assert_eq!(DirectedSegment::from_segment_index(seg.segment_index()), seg);
            prop_assert!(seg.segment_index() < segment_count(i + 1));
        }

        #[test]
        fn node_and_segment_counts_agree(
            n in 2usize..32, a in 0usize..32, b in 0usize..32,
        ) {
            prop_assume!(a < n && b < n && a != b);
            let ring = RingTopology::new(n);
            for d in Direction::BOTH {
                let p = RingPath::new(&ring, NodeId(a), NodeId(b), d);
                prop_assert_eq!(p.nodes().count(), p.hops() + 1);
                prop_assert_eq!(p.segments().count(), p.hops());
                prop_assert_eq!(p.intermediate_nodes().count(), p.hops() - 1);
            }
        }

        #[test]
        fn segments_are_distinct(n in 2usize..32, a in 0usize..32, b in 0usize..32) {
            prop_assume!(a < n && b < n && a != b);
            let ring = RingTopology::new(n);
            for d in Direction::BOTH {
                let p = RingPath::new(&ring, NodeId(a), NodeId(b), d);
                let set: std::collections::HashSet<_> = p.segments().collect();
                prop_assert_eq!(set.len(), p.hops());
            }
        }

        #[test]
        fn arc_overlap_matches_segment_walk_on_large_rings(
            draws in prop::collection::vec(0u64..=u64::MAX, 6),
        ) {
            let draws: [u64; 6] = draws.try_into().expect("six draws");
            if let Err(e) = check_random_pair(draws) {
                prop_assert!(false, "{}", e);
            }
        }

        #[test]
        fn overlap_is_symmetric(
            a in 0usize..16, b in 0usize..16, c in 0usize..16, d in 0usize..16,
        ) {
            prop_assume!(a != b && c != d);
            let ring = RingTopology::new(16);
            let p = RingPath::new(&ring, NodeId(a), NodeId(b), Direction::Clockwise);
            let q = RingPath::new(&ring, NodeId(c), NodeId(d), Direction::Clockwise);
            prop_assert_eq!(p.overlaps(&q), q.overlaps(&p));
        }

        #[test]
        fn opposite_full_paths_never_overlap(
            a in 0usize..16, b in 0usize..16,
        ) {
            prop_assume!(a != b);
            let ring = RingTopology::new(16);
            let p = RingPath::new(&ring, NodeId(a), NodeId(b), Direction::Clockwise);
            let q = RingPath::new(&ring, NodeId(a), NodeId(b), Direction::CounterClockwise);
            prop_assert!(!p.overlaps(&q));
        }
    }
}
