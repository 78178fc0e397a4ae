//! DP option records and Pareto-dominance pruning.
//!
//! The DP engines carry sets of *options* through their sweeps. For
//! delay-mode DP (van Ginneken \[11\]) an option is `(cap, delay)`; for
//! power-mode DP (Lillis \[14\]) it is `(cap, delay, width)` — the
//! three-key dominance that makes the power problem pseudo-polynomial
//! (Section 2 of the paper). Pruning keeps exactly the non-dominated
//! frontier.
//!
//! The pruning functions are generic over the stored record type via key
//! extractors so the chain DP, tree DP, and tests share one
//! implementation.

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

/// Traceback arena for chain DP: records which repeater insertions
/// produced each surviving option, as a linked structure indexed by
/// `u32` handles. Handle 0 is the shared "no repeaters" root.
///
/// A sweep records all the insertions at one candidate in a row, in
/// ascending width, so each `(position, width)` pair is stored once, in
/// `pairs`, and a node holds its index: 8 bytes a node instead of 24,
/// on the largest buffer of a chain solve. Any other recording order
/// stays correct; it only shares fewer pairs.
#[derive(Debug)]
pub(crate) struct TraceArena {
    nodes: Vec<TraceNode>,
    /// Repeater `(position µm, width u)` pairs; consecutive nodes with
    /// one pair share an entry.
    pairs: Vec<(f64, f64)>,
}

#[derive(Debug, Clone, Copy)]
struct TraceNode {
    /// Index of the repeater's pair in `pairs` (unused for the root).
    pair: u32,
    /// Previous insertion (downstream of this one), or 0 for the root.
    prev: u32,
}

const _: () = assert!(std::mem::size_of::<TraceNode>() == 8);

/// The shared empty-trace handle.
pub(crate) const TRACE_ROOT: u32 = 0;

impl Default for TraceArena {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceArena {
    pub(crate) fn new() -> Self {
        Self {
            nodes: vec![TraceNode { pair: 0, prev: 0 }],
            pairs: Vec::new(),
        }
    }

    /// Forgets every recorded insertion, keeping the allocations and the
    /// shared root (scratch reuse across solves).
    pub(crate) fn reset(&mut self) {
        self.nodes.truncate(1);
        self.pairs.clear();
    }

    /// Records a repeater insertion on top of `prev`; returns the new
    /// handle.
    pub(crate) fn push(&mut self, position: f64, width: f64, prev: u32) -> u32 {
        let bits = |(p, w): (f64, f64)| (p.to_bits(), w.to_bits());
        if self.pairs.last().map(|&pair| bits(pair)) != Some(bits((position, width))) {
            self.pairs.push((position, width));
        }
        let idx = self.nodes.len() as u32;
        self.nodes.push(TraceNode {
            pair: (self.pairs.len() - 1) as u32,
            prev,
        });
        idx
    }

    /// Number of recorded nodes (including the root), for statistics.
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Walks a trace back to the root, yielding `(position, width)` pairs
    /// in ascending-position order (the DP sweeps sink→source, so the
    /// chain is naturally most-upstream-first).
    pub(crate) fn collect(&self, mut handle: u32) -> Vec<(f64, f64)> {
        let mut out = Vec::new();
        while handle != TRACE_ROOT {
            let node = self.nodes[handle as usize];
            out.push(self.pairs[node.pair as usize]);
            handle = node.prev;
        }
        out
    }
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

    #[test]
    fn trace_arena_reset_keeps_only_the_root() {
        let mut arena = TraceArena::new();
        let t = arena.push(1000.0, 80.0, TRACE_ROOT);
        assert_eq!(arena.collect(t).len(), 1);
        arena.reset();
        assert_eq!(arena.len(), 1);
        let t2 = arena.push(2000.0, 40.0, TRACE_ROOT);
        assert_eq!(arena.collect(t2), vec![(2000.0, 40.0)]);
    }

    #[test]
    fn trace_arena_collects_in_position_order() {
        let mut arena = TraceArena::new();
        // Sweep goes sink -> source: downstream repeaters pushed first.
        let t1 = arena.push(3000.0, 120.0, TRACE_ROOT);
        let t1b = arena.push(3000.0, 60.0, TRACE_ROOT);
        let t2 = arena.push(1000.0, 80.0, t1);
        // A position recorded again after another one gets a new entry.
        let t3 = arena.push(3000.0, 40.0, t2);
        assert_eq!(arena.collect(t2), vec![(1000.0, 80.0), (3000.0, 120.0)]);
        assert_eq!(arena.collect(t1b), vec![(3000.0, 60.0)]);
        assert_eq!(
            arena.collect(t3),
            vec![(3000.0, 40.0), (1000.0, 80.0), (3000.0, 120.0)]
        );
        assert!(arena.collect(TRACE_ROOT).is_empty());
        assert_eq!(arena.len(), 5);
    }

    #[test]
    fn trace_arena_returns_the_exact_pair_bits() {
        let bits = |pairs: Vec<(f64, f64)>| -> Vec<(u64, u64)> {
            pairs
                .into_iter()
                .map(|(p, w)| (p.to_bits(), w.to_bits()))
                .collect()
        };
        let (x1, x2) = (1500.0, 0.1 + 0.2);
        let (w1, w2) = (0.3, -0.0);
        let mut arena = TraceArena::new();
        // w1, w2, w1 at one position: the repeat of w1 follows w2, so it
        // gets a pair of its own.
        let a = arena.push(x1, w1, TRACE_ROOT);
        let b = arena.push(x1, w2, a);
        let c = arena.push(x1, w1, b);
        // A new position, then an earlier pair again after it.
        let d = arena.push(x2, w1, c);
        let e = arena.push(x1, w2, d);
        let f = arena.push(x1, w2, TRACE_ROOT);
        assert_eq!(arena.pairs.len(), 5, "only consecutive equal pairs share");
        assert_eq!(arena.len(), 7);
        assert_eq!(bits(arena.collect(a)), bits(vec![(x1, w1)]));
        assert_eq!(
            bits(arena.collect(e)),
            bits(vec![(x1, w2), (x2, w1), (x1, w1), (x1, w2), (x1, w1)])
        );
        assert_eq!(bits(arena.collect(f)), bits(vec![(x1, w2)]));
        // `-0.0` and `0.0` are kept apart, as are `0.3` and `0.1 + 0.2`.
        let g = arena.push(x1, 0.0, TRACE_ROOT);
        assert_eq!(bits(arena.collect(g)), bits(vec![(x1, 0.0)]));
        let h = arena.push(x2, w1, TRACE_ROOT);
        let i = arena.push(0.3, w1, TRACE_ROOT);
        assert_eq!(bits(arena.collect(h)), bits(vec![(x2, w1)]));
        assert_eq!(bits(arena.collect(i)), bits(vec![(0.3, w1)]));
        assert_eq!(arena.pairs.len(), 8);
    }
}
