//! Non-dominated sorting: efficient non-dominated sort (ENS, Zhang et
//! al., 2015) emitting the fronts in the order of Deb et al.'s fast
//! non-dominated sort (2000).

use std::cmp::Ordering;

use crate::pareto::dominates;

/// Partitions `objectives` (minimisation vectors of equal arity) into
/// Pareto fronts: `front[0]` is the non-dominated set, `front[1]` becomes
/// non-dominated once `front[0]` is removed, and so on.
///
/// Ranks come from ENS with sequential search: points are visited in
/// lexicographic order, so a point's dominators all come before it, and
/// each point joins the first front that holds none of its dominators.
/// Equal vectors sort next to each other and share their dominators, so
/// only the first of a run of duplicates is searched for and only that one
/// is searched against. That costs O(M·D²) comparisons for D distinct
/// vectors in the worst case (one front), and far fewer when the points
/// spread over many fronts.
///
/// Within each front the order is the one Deb et al.'s fast
/// non-dominated sort produces, on which crowding ties and selection
/// depend: front 0 in ascending index order, front `k + 1` by the position
/// in front `k` of each member's last dominator there, then by index.
///
/// # Panics
///
/// Panics if the vectors do not all share one arity, or if a value is
/// NaN.
///
/// # Examples
///
/// ```
/// use onoc_wa::nsga2_sort::fast_nondominated_sort;
///
/// let objs = vec![
///     vec![1.0, 4.0], // front 0
///     vec![4.0, 1.0], // front 0
///     vec![2.0, 5.0], // dominated by the first: front 1
/// ];
/// let fronts = fast_nondominated_sort(&objs);
/// assert_eq!(fronts, vec![vec![0, 1], vec![2]]);
/// ```
#[must_use]
pub fn fast_nondominated_sort(objectives: &[Vec<f64>]) -> Vec<Vec<usize>> {
    let Some(first) = objectives.first() else {
        return Vec::new();
    };
    assert!(
        objectives.iter().all(|o| o.len() == first.len()),
        "objective vectors must have equal arity"
    );
    let dominated = |by: usize, p: usize| dominates(&objectives[by], &objectives[p]);
    let repeats = |previous: Option<usize>, p: usize| {
        previous.is_some_and(|q| objectives[q] == objectives[p])
    };

    let mut visit: Vec<usize> = (0..objectives.len()).collect();
    visit.sort_by(|&a, &b| lexicographic(&objectives[a], &objectives[b]));
    // `fronts[r]` fills in visit order; `distinct[r]` holds the first of
    // each run of equal vectors in it.
    let mut fronts: Vec<Vec<usize>> = Vec::new();
    let mut distinct: Vec<Vec<usize>> = Vec::new();
    let mut rank = 0;
    let mut previous = None;
    for p in visit {
        if !repeats(previous, p) {
            // The most recently placed members are the likeliest dominators.
            rank = distinct
                .iter()
                .position(|front| !front.iter().rev().any(|&q| dominated(q, p)))
                .unwrap_or(distinct.len());
            if rank == distinct.len() {
                fronts.push(Vec::new());
                distinct.push(Vec::new());
            }
            distinct[rank].push(p);
        }
        fronts[rank].push(p);
        previous = Some(p);
    }

    fronts[0].sort_unstable();
    for k in 1..fronts.len() {
        let (done, rest) = fronts.split_at_mut(k);
        let before = &done[k - 1];
        let mut keyed = Vec::with_capacity(rest[0].len());
        let (mut last, mut previous) = (0, None);
        for &q in &rest[0] {
            if !repeats(previous, q) {
                last = before
                    .iter()
                    .rposition(|&by| dominated(by, q))
                    .expect("every member of a later front has a dominator in the front before");
            }
            keyed.push((last, q));
            previous = Some(q);
        }
        keyed.sort_unstable();
        rest[0] = keyed.into_iter().map(|(_, q)| q).collect();
    }
    fronts
}

/// Lexicographic order of two objective vectors: a dominating vector
/// always sorts before the vectors it dominates.
fn lexicographic(a: &[f64], b: &[f64]) -> Ordering {
    a.iter()
        .zip(b)
        .map(|(x, y)| x.partial_cmp(y).expect("objective values are not NaN"))
        .find(|o| o.is_ne())
        .unwrap_or(Ordering::Equal)
}

/// Maps each index to its front rank (0 = best).
#[must_use]
pub fn ranks_from_fronts(fronts: &[Vec<usize>], n: usize) -> Vec<usize> {
    let mut ranks = vec![usize::MAX; n];
    for (r, front) in fronts.iter().enumerate() {
        for &i in front {
            ranks[i] = r;
        }
    }
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pareto::dominates;
    use proptest::prelude::*;

    /// Deb et al.'s fast non-dominated sort, the body the ENS version
    /// replaced, kept as its oracle: fronts *and* the order inside them.
    fn deb_sort(objectives: &[Vec<f64>]) -> Vec<Vec<usize>> {
        let n = objectives.len();
        if n == 0 {
            return Vec::new();
        }
        let mut dominated_by: Vec<Vec<usize>> = vec![Vec::new(); n]; // S_p
        let mut domination_count = vec![0usize; n]; // n_p
        for p in 0..n {
            for q in (p + 1)..n {
                if dominates(&objectives[p], &objectives[q]) {
                    dominated_by[p].push(q);
                    domination_count[q] += 1;
                } else if dominates(&objectives[q], &objectives[p]) {
                    dominated_by[q].push(p);
                    domination_count[p] += 1;
                }
            }
        }
        let mut fronts: Vec<Vec<usize>> = Vec::new();
        let mut current: Vec<usize> = (0..n).filter(|&p| domination_count[p] == 0).collect();
        while !current.is_empty() {
            let mut next = Vec::new();
            for &p in &current {
                for &q in &dominated_by[p] {
                    domination_count[q] -= 1;
                    if domination_count[q] == 0 {
                        next.push(q);
                    }
                }
            }
            fronts.push(std::mem::replace(&mut current, next));
        }
        fronts
    }

    #[test]
    fn single_point_is_front_zero() {
        assert_eq!(fast_nondominated_sort(&[vec![1.0, 1.0]]), vec![vec![0]]);
    }

    #[test]
    fn empty_input_gives_no_fronts() {
        assert!(fast_nondominated_sort(&[]).is_empty());
    }

    #[test]
    fn chain_of_dominated_points() {
        let objs = vec![vec![3.0, 3.0], vec![2.0, 2.0], vec![1.0, 1.0]];
        let fronts = fast_nondominated_sort(&objs);
        assert_eq!(fronts, vec![vec![2], vec![1], vec![0]]);
    }

    #[test]
    fn equal_points_share_a_front() {
        let objs = vec![vec![1.0, 1.0], vec![1.0, 1.0]];
        assert_eq!(fast_nondominated_sort(&objs), vec![vec![0, 1]]);
    }

    #[test]
    fn ranks_are_consistent() {
        let objs = vec![vec![1.0, 4.0], vec![4.0, 1.0], vec![2.0, 5.0]];
        let fronts = fast_nondominated_sort(&objs);
        let ranks = ranks_from_fronts(&fronts, objs.len());
        assert_eq!(ranks, vec![0, 0, 1]);
    }

    fn objective_vectors() -> impl Strategy<Value = Vec<Vec<f64>>> {
        proptest::collection::vec(proptest::collection::vec(0.0f64..10.0, 3), 1..40)
    }

    #[test]
    #[should_panic(expected = "equal arity")]
    fn mixed_arity_panics() {
        let _ = fast_nondominated_sort(&[vec![1.0, 2.0], vec![1.0]]);
    }

    proptest! {
        /// ENS gives Deb's fronts in Deb's order on inputs full of ties
        /// and duplicate points: each case is read at arity 1–3 with
        /// values on 1, 2, 3 or 6 integer levels, 0 to 150 points.
        #[test]
        fn ens_matches_deb_fronts_and_order(
            raw in proptest::collection::vec(proptest::collection::vec(0u8..6, 3), 0..151),
        ) {
            for arity in 1..=3 {
                for levels in [1, 2, 3, 6] {
                    let objs: Vec<Vec<f64>> = raw
                        .iter()
                        .map(|v| v[..arity].iter().map(|&x| f64::from(x % levels)).collect())
                        .collect();
                    prop_assert_eq!(
                        fast_nondominated_sort(&objs),
                        deb_sort(&objs),
                        "arity {}, {} levels",
                        arity,
                        levels
                    );
                }
            }
        }

        /// The fronts partition the population.
        #[test]
        fn fronts_partition(objs in objective_vectors()) {
            let fronts = fast_nondominated_sort(&objs);
            let mut seen = vec![false; objs.len()];
            for front in &fronts {
                for &i in front {
                    prop_assert!(!seen[i], "index {i} appears twice");
                    seen[i] = true;
                }
            }
            prop_assert!(seen.iter().all(|&s| s));
        }

        /// Front 0 is mutually non-dominating.
        #[test]
        fn front_zero_nondominated(objs in objective_vectors()) {
            let fronts = fast_nondominated_sort(&objs);
            let f0 = &fronts[0];
            for &a in f0 {
                for &b in f0 {
                    if a != b {
                        prop_assert!(!dominates(&objs[a], &objs[b]));
                    }
                }
            }
        }

        /// No point dominates any point in an earlier (better) front.
        #[test]
        fn no_cross_front_violations(objs in objective_vectors()) {
            let fronts = fast_nondominated_sort(&objs);
            let ranks = ranks_from_fronts(&fronts, objs.len());
            for a in 0..objs.len() {
                for b in 0..objs.len() {
                    if dominates(&objs[a], &objs[b]) {
                        prop_assert!(ranks[a] < ranks[b],
                            "dominating point must rank strictly better");
                    }
                }
            }
        }

        /// Every member of front k+1 is dominated by someone in front k.
        #[test]
        fn successive_fronts_are_justified(objs in objective_vectors()) {
            let fronts = fast_nondominated_sort(&objs);
            for w in fronts.windows(2) {
                for &q in &w[1] {
                    prop_assert!(
                        w[0].iter().any(|&p| dominates(&objs[p], &objs[q])),
                        "front member {q} has no dominator in the previous front"
                    );
                }
            }
        }
    }
}
