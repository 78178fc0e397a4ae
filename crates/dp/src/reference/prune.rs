//! The frozen engines' Pareto pruners: sort the whole option set, then
//! sweep it once, over `(cap, delay)` for delay-mode DP (van Ginneken
//! \[11\]) or `(cap, delay, width)` for power-mode DP (Lillis \[14\];
//! Section 2 of the paper). The production DPs' unit oracles replay them
//! to pin the incremental sweeps of [`crate::frontier`] bit for bit.

/// Prunes `items` to the 2D Pareto frontier: an item is removed when
/// another item has both keys `≤` (and is not an exact duplicate kept
/// earlier). Smaller is better for both keys.
///
/// O(n log n); the survivors are left sorted by the first key ascending.
pub(crate) fn prune_2d<T>(items: &mut Vec<T>, key: impl Fn(&T) -> (f64, f64)) {
    items.sort_by(|a, b| {
        let (a1, a2) = key(a);
        let (b1, b2) = key(b);
        a1.partial_cmp(&b1)
            .expect("finite DP keys")
            .then(a2.partial_cmp(&b2).expect("finite DP keys"))
    });
    let mut best_second = f64::INFINITY;
    items.retain(|item| {
        let (_, second) = key(item);
        if second < best_second {
            best_second = second;
            true
        } else {
            false
        }
    });
}

/// A monotone staircase over `(d, p)` pairs: `d` ascending, `p` strictly
/// descending. Supports "is (d, p) dominated by any inserted pair?" and
/// insertion, both O(log n) / amortized O(log n).
#[derive(Debug, Default)]
pub(crate) struct Staircase {
    /// Points sorted by `d` ascending with `p` strictly descending.
    pts: Vec<(f64, f64)>,
}

impl Staircase {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Forgets every inserted point, keeping the allocation (scratch
    /// reuse across prunes).
    pub(crate) fn clear(&mut self) {
        self.pts.clear();
    }

    /// Returns `true` when some inserted `(d', p')` has `d' ≤ d` and
    /// `p' ≤ p`.
    pub(crate) fn dominates(&self, d: f64, p: f64) -> bool {
        // Last point with d' <= d; p is minimized there because p
        // decreases along the staircase.
        let idx = self.pts.partition_point(|&(d2, _)| d2 <= d);
        idx > 0 && self.pts[idx - 1].1 <= p
    }

    /// Inserts `(d, p)`; the caller must have checked
    /// [`Staircase::dominates`] first. Points made redundant by the new
    /// one are removed.
    pub(crate) fn insert(&mut self, d: f64, p: f64) {
        debug_assert!(!self.dominates(d, p), "inserting a dominated point");
        let idx = self.pts.partition_point(|&(d2, _)| d2 < d);
        // Remove successors with p' >= p (they are now redundant for
        // dominance queries).
        let mut end = idx;
        while end < self.pts.len() && self.pts[end].1 >= p {
            end += 1;
        }
        if end == idx {
            self.pts.insert(idx, (d, p));
        } else {
            self.pts[idx] = (d, p);
            if end > idx + 1 {
                self.pts.drain(idx + 1..end);
            }
        }
    }
}

/// Prunes `items` to the 3D Pareto frontier (all three keys minimized).
///
/// Sorts by the first key, then sweeps with a [`Staircase`] over the
/// remaining two keys: an item is dominated iff an already-accepted item
/// (which necessarily has first key `≤`) has both remaining keys `≤`.
/// Exact multi-key duplicates collapse to one survivor.
///
/// O(n log n); survivors end up sorted by the first key ascending.
pub(crate) fn prune_3d<T>(items: &mut Vec<T>, key: impl Fn(&T) -> (f64, f64, f64)) {
    items.sort_by(|a, b| {
        let (a1, a2, a3) = key(a);
        let (b1, b2, b3) = key(b);
        a1.partial_cmp(&b1)
            .expect("finite DP keys")
            .then(a2.partial_cmp(&b2).expect("finite DP keys"))
            .then(a3.partial_cmp(&b3).expect("finite DP keys"))
    });
    let mut stairs = Staircase::new();
    items.retain(|item| {
        let (_, d, p) = key(item);
        if stairs.dominates(d, p) {
            false
        } else {
            stairs.insert(d, p);
            true
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_pareto_3d(items: &[(f64, f64, f64)]) -> Vec<(f64, f64, f64)> {
        let dominated = |x: &(f64, f64, f64)| {
            items
                .iter()
                .any(|y| y != x && y.0 <= x.0 && y.1 <= x.1 && y.2 <= x.2)
        };
        let mut out: Vec<_> = items.iter().copied().filter(|x| !dominated(x)).collect();
        out.sort_by(|a, b| a.partial_cmp(b).unwrap());
        out.dedup();
        out
    }

    #[test]
    fn prune_2d_keeps_frontier() {
        let mut items = vec![(1.0, 5.0), (2.0, 3.0), (2.5, 4.0), (3.0, 1.0), (1.0, 6.0)];
        prune_2d(&mut items, |&x| x);
        assert_eq!(items, vec![(1.0, 5.0), (2.0, 3.0), (3.0, 1.0)]);
    }

    #[test]
    fn prune_2d_collapses_duplicates() {
        let mut items = vec![(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)];
        prune_2d(&mut items, |&x| x);
        assert_eq!(items.len(), 1);
    }

    #[test]
    fn prune_3d_matches_brute_force() {
        // Deterministic pseudo-random triples (LCG) cross-checked against
        // the O(n^2) definition of dominance.
        let mut state = 0x2545F4914F6CDD1D_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 32) as f64 / u32::MAX as f64 * 10.0).round()
        };
        let items: Vec<(f64, f64, f64)> = (0..200).map(|_| (next(), next(), next())).collect();
        let mut pruned = items.clone();
        prune_3d(&mut pruned, |&x| x);
        let mut got = pruned.clone();
        got.sort_by(|a, b| a.partial_cmp(b).unwrap());
        got.dedup();
        assert_eq!(got, brute_pareto_3d(&items));
    }

    #[test]
    fn prune_3d_keeps_incomparable_options() {
        let mut items = vec![(1.0, 9.0, 9.0), (9.0, 1.0, 9.0), (9.0, 9.0, 1.0)];
        prune_3d(&mut items, |&x| x);
        assert_eq!(items.len(), 3);
    }

    #[test]
    fn staircase_dominance_queries() {
        let mut s = Staircase::new();
        s.insert(2.0, 8.0);
        s.insert(5.0, 3.0);
        assert!(s.dominates(2.0, 8.0)); // equal counts as dominated
        assert!(s.dominates(3.0, 9.0));
        assert!(s.dominates(6.0, 3.5));
        assert!(!s.dominates(1.0, 100.0));
        assert!(!s.dominates(4.0, 5.0));
        s.insert(4.0, 5.0);
        assert!(s.dominates(4.5, 5.0));
    }

    #[test]
    fn staircase_insert_removes_redundant_successors() {
        let mut s = Staircase::new();
        s.insert(5.0, 5.0);
        s.insert(6.0, 4.0);
        // (3, 3) makes both previous points redundant.
        s.insert(3.0, 3.0);
        assert_eq!(s.pts, vec![(3.0, 3.0)]);
    }

    /// Deterministic-seed LCG producing coarse quantized values so
    /// duplicates and dominance chains occur with high probability.
    fn quantized_stream(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 32) as f64 / u32::MAX as f64 * 12.0).round()
        }
    }

    fn naive_pareto_2d(items: &[(f64, f64)]) -> Vec<(f64, f64)> {
        let mut out: Vec<(f64, f64)> = items
            .iter()
            .copied()
            .filter(|x| !items.iter().any(|y| y != x && y.0 <= x.0 && y.1 <= x.1))
            .collect();
        out.sort_by(|a, b| a.partial_cmp(b).unwrap());
        out.dedup();
        out
    }

    #[test]
    fn prune_2d_fuzz_sorted_nondominated_and_set_identical_to_naive() {
        let mut next = quantized_stream(0xA11CE);
        for round in 0..60 {
            let n = 1 + (round * 7) % 120;
            let items: Vec<(f64, f64)> = (0..n).map(|_| (next(), next())).collect();
            let mut pruned = items.clone();
            prune_2d(&mut pruned, |&x| x);
            // Sorted by the first key ascending.
            assert!(
                pruned.windows(2).all(|w| w[0].0 <= w[1].0),
                "round {round}: survivors not sorted by first key"
            );
            // Mutually non-dominated.
            for (i, a) in pruned.iter().enumerate() {
                for (j, b) in pruned.iter().enumerate() {
                    assert!(
                        i == j || !(a.0 <= b.0 && a.1 <= b.1),
                        "round {round}: {a:?} dominates fellow survivor {b:?}"
                    );
                }
            }
            // Identical, as a set, to the naive O(n^2) reference.
            let mut got = pruned.clone();
            got.sort_by(|a, b| a.partial_cmp(b).unwrap());
            got.dedup();
            assert_eq!(got, naive_pareto_2d(&items), "round {round}");
        }
    }

    #[test]
    fn prune_3d_fuzz_sorted_nondominated_and_set_identical_to_naive() {
        let mut next = quantized_stream(0xB0B);
        for round in 0..60 {
            let n = 1 + (round * 11) % 150;
            let items: Vec<(f64, f64, f64)> = (0..n).map(|_| (next(), next(), next())).collect();
            let mut pruned = items.clone();
            prune_3d(&mut pruned, |&x| x);
            assert!(
                pruned.windows(2).all(|w| w[0].0 <= w[1].0),
                "round {round}: survivors not sorted by first key"
            );
            for (i, a) in pruned.iter().enumerate() {
                for (j, b) in pruned.iter().enumerate() {
                    assert!(
                        i == j || !(a.0 <= b.0 && a.1 <= b.1 && a.2 <= b.2),
                        "round {round}: {a:?} dominates fellow survivor {b:?}"
                    );
                }
            }
            let mut got = pruned.clone();
            got.sort_by(|a, b| a.partial_cmp(b).unwrap());
            got.dedup();
            assert_eq!(got, brute_pareto_3d(&items), "round {round}");
        }
    }

    #[test]
    fn staircase_insert_matches_splice_on_fuzz() {
        // Insertion writes in place, inserts or drains; the points must be
        // those of replacing the redundant run with one splice.
        let mut next = quantized_stream(0x57A1);
        let mut s = Staircase::new();
        let mut oracle: Vec<(f64, f64)> = Vec::new();
        let mut cases = [false; 3];
        for round in 0..2000 {
            if round % 50 == 0 {
                s.clear();
                oracle.clear();
            }
            let (d, p) = (next(), next());
            if s.dominates(d, p) {
                continue;
            }
            let idx = oracle.partition_point(|&(d2, _)| d2 < d);
            let end = idx + oracle[idx..].iter().take_while(|x| x.1 >= p).count();
            cases[(end - idx).min(2)] = true;
            oracle.splice(idx..end, std::iter::once((d, p)));
            s.insert(d, p);
            assert_eq!(s.pts, oracle, "round {round}");
        }
        assert_eq!(cases, [true; 3], "insert, overwrite and drain all occur");
    }

    #[test]
    fn staircase_clear_resets_state() {
        let mut s = Staircase::new();
        s.insert(1.0, 1.0);
        assert!(s.dominates(2.0, 2.0));
        s.clear();
        assert!(!s.dominates(2.0, 2.0));
    }
}
