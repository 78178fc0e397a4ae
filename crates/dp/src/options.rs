//! The chain DP's traceback arena: which repeater insertions produced
//! each surviving option. The dominance test both production DPs prune
//! with is [`crate::frontier`]'s width floor; the sort-and-sweep pruners
//! of the frozen engines live under [`crate::reference`].

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
