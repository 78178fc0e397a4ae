//! Sorted option frontiers in struct-of-arrays layout, with merge-based
//! dominance pruning and reusable scratch buffers.
//!
//! The seed implementation ([`crate::reference`]) re-sorts the *entire*
//! option set after every candidate position: each prune is an
//! `O(n log n)` sort of `n·(1+|B|)` freshly `clone`d records, repeated
//! once per candidate — the allocation and re-sorting of the
//! already-sorted survivor prefix dominates the DP runtime. This module
//! replaces that with an incremental scheme built on two invariants:
//!
//! 1. **The surviving frontier stays sorted** by its lexicographic key
//!    (`cap`, then `delay`, then `width`). Wire crossings preserve the
//!    order (they shift `cap` by a constant and change `delay`
//!    monotonically within equal-`cap` groups), so pruning after a
//!    candidate is a single linear **merge** of the sorted survivors
//!    with the freshly created insertion options — no full sort, ever.
//! 2. **Fresh insertion options are bucketed by library width.** Every
//!    option inserting width `w` has the same capacitance
//!    `C_in(w)`, so the library quantizes the fresh set into `|B|`
//!    equal-`cap` buckets that are trivially `cap`-sorted (libraries
//!    store ascending widths and `C_in` is strictly increasing). Each
//!    bucket is reduced to its own sorted sub-frontier — a single
//!    minimum-delay record in 2D delay mode, a `(delay, width)`
//!    staircase in 3D power mode — before the global merge, so the merge
//!    sees only options that could survive same-`cap` dominance.
//!
//! Dominance queries during the merge use the [`Staircase`] (binary
//! search insertion, amortized `O(log n)`), exactly as the reference
//! pruner does — the survivor *set and order* are byte-identical to the
//! reference (`tests/frontier_equivalence.rs` pins this on a 50-net
//! corpus), only the work to compute them changes.
//!
//! All buffers live in [`DpScratch`] so a warm solver allocates nothing:
//! `rip_core::Engine` pools scratches across batch solves, and the
//! crate's free functions fall back to a thread-local scratch.

use crate::options::{Staircase, TraceArena};
use std::cmp::Ordering;

/// Option records in struct-of-arrays layout: parallel columns indexed
/// by option number. Separating the key columns (`cap`, `delay`,
/// `width`) keeps the wire-crossing update and the merge comparisons on
/// dense `f64` arrays.
#[derive(Debug, Default)]
pub(crate) struct OptionBuf {
    /// Downstream load seen at the current position, fF.
    pub cap: Vec<f64>,
    /// Downstream delay from the current position to the sink, fs.
    pub delay: Vec<f64>,
    /// Accumulated downstream repeater width, u.
    pub width: Vec<f64>,
    /// Traceback handle into the [`TraceArena`].
    pub trace: Vec<u32>,
    /// Pending insertion width not yet materialized into the arena
    /// (`NaN` = none). Lets pruning run before arena allocation.
    pub pending: Vec<f64>,
}

impl OptionBuf {
    pub(crate) fn len(&self) -> usize {
        self.cap.len()
    }

    pub(crate) fn clear(&mut self) {
        self.cap.clear();
        self.delay.clear();
        self.width.clear();
        self.trace.clear();
        self.pending.clear();
    }

    pub(crate) fn push(&mut self, cap: f64, delay: f64, width: f64, trace: u32, pending: f64) {
        self.cap.push(cap);
        self.delay.push(delay);
        self.width.push(width);
        self.trace.push(trace);
        self.pending.push(pending);
    }

    /// Appends every option of `src`, column by column (the tree DP
    /// parks each node's finished frontier in its store arena this way).
    pub(crate) fn append_from(&mut self, src: &OptionBuf) {
        self.cap.extend_from_slice(&src.cap);
        self.delay.extend_from_slice(&src.delay);
        self.width.extend_from_slice(&src.width);
        self.trace.extend_from_slice(&src.trace);
        self.pending.extend_from_slice(&src.pending);
    }

    /// Drops every option whose delay exceeds `target_fs`, preserving
    /// order (in-place compaction across all columns).
    pub(crate) fn retain_delay_le(&mut self, target_fs: f64) {
        self.retain_by(|_, delay| delay <= target_fs);
    }

    /// Keeps the options for which `keep(cap, delay)` holds, preserving
    /// order (in-place compaction across all columns).
    pub(crate) fn retain_by(&mut self, keep: impl Fn(f64, f64) -> bool) {
        let mut w = 0;
        for i in 0..self.len() {
            if keep(self.cap[i], self.delay[i]) {
                if w != i {
                    self.cap[w] = self.cap[i];
                    self.delay[w] = self.delay[i];
                    self.width[w] = self.width[i];
                    self.trace[w] = self.trace[i];
                    self.pending[w] = self.pending[i];
                }
                w += 1;
            }
        }
        self.cap.truncate(w);
        self.delay.truncate(w);
        self.width.truncate(w);
        self.trace.truncate(w);
        self.pending.truncate(w);
    }
}

/// One fresh insertion option inside a width bucket, before the bucket
/// is reduced to its sub-frontier. `seq` records generation order so an
/// unstable sort on the full `(delay, width, seq)` key reproduces a
/// stable sort without its temporary allocation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BucketItem {
    pub delay: f64,
    pub width: f64,
    pub trace: u32,
    pub seq: u32,
}

/// Reusable scratch for the DP engines: option buffers, the traceback
/// arena, the dominance staircase, and the per-width generation bucket.
///
/// A scratch is plain reusable memory — it carries no configuration and
/// never influences results. Solvers reset it on entry, so a single
/// scratch can serve any interleaving of solves; reusing one across a
/// batch merely skips the per-solve allocations. `rip_core::Engine`
/// keeps a pool of these for its worker threads; the free functions
/// ([`crate::solve_min_power`] etc.) use a thread-local one.
///
/// # Examples
///
/// ```
/// use rip_dp::{solve_min_delay_with, solve_min_power_with, CandidateSet, DpScratch};
/// use rip_net::{NetBuilder, Segment};
/// use rip_tech::{RepeaterLibrary, Technology};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let tech = Technology::generic_180nm();
/// let net = NetBuilder::new()
///     .segment(Segment::new(9000.0, 0.08, 0.2))
///     .build()?;
/// let lib = RepeaterLibrary::paper_coarse();
/// let cands = CandidateSet::uniform(&net, 200.0);
/// let mut scratch = DpScratch::new();
/// // The warm-up solve allocates; subsequent solves reuse the buffers.
/// let tau_min = solve_min_delay_with(&mut scratch, &net, tech.device(), &lib, &cands).delay_fs;
/// for mult in [2.0, 1.5, 1.2] {
///     let target = tau_min * mult;
///     let sol = solve_min_power_with(&mut scratch, &net, tech.device(), &lib, &cands, target)?;
///     assert!(sol.meets(target));
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct DpScratch {
    pub(crate) cur: OptionBuf,
    pub(crate) fresh: OptionBuf,
    pub(crate) merged: OptionBuf,
    pub(crate) bucket: Vec<BucketItem>,
    pub(crate) stairs: Staircase,
    pub(crate) arena: TraceArena,
}

impl DpScratch {
    /// Creates an empty scratch. Buffers grow on first use and are
    /// retained across solves.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets per-solve state, keeping capacity.
    pub(crate) fn reset(&mut self) {
        self.cur.clear();
        self.fresh.clear();
        self.merged.clear();
        self.bucket.clear();
        self.stairs.clear();
        self.arena.reset();
    }
}

#[inline]
pub(crate) fn cmp_f64(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b).expect("finite DP keys")
}

/// Lexicographic `(cap, delay)` comparison between `cur[i]` and
/// `fresh[j]` — the 2D delay-mode sort key (width excluded, exactly as
/// the reference pruner sorts).
#[inline]
fn cmp2(cur: &OptionBuf, i: usize, fresh: &OptionBuf, j: usize) -> Ordering {
    cmp_f64(cur.cap[i], fresh.cap[j]).then_with(|| cmp_f64(cur.delay[i], fresh.delay[j]))
}

/// Lexicographic `(cap, delay, width)` comparison — the 3D power-mode
/// sort key.
#[inline]
fn cmp3(cur: &OptionBuf, i: usize, fresh: &OptionBuf, j: usize) -> Ordering {
    cmp2(cur, i, fresh, j).then_with(|| cmp_f64(cur.width[i], fresh.width[j]))
}

/// Reduces a generation bucket (equal-`cap` fresh options) to its 2D
/// delay-mode survivor and emits it: only the bucket's earliest
/// minimum-delay option can survive same-`cap` dominance. The emit
/// closure owns the storage layout, so the SoA chain engine and the
/// AoS tree engine share one reduction.
pub(crate) fn reduce_bucket_2d(bucket: &[BucketItem], mut emit: impl FnMut(&BucketItem)) {
    let Some(first) = bucket.first() else { return };
    let mut best = first;
    for item in &bucket[1..] {
        if item.delay < best.delay {
            best = item;
        }
    }
    emit(best);
}

/// Reduces a generation bucket to its `(delay, width)` staircase and
/// emits the survivors in order (delay strictly ascending, width
/// strictly descending — the bucket's sorted sub-frontier). Only these
/// can survive same-`cap` dominance in the global merge; exact
/// duplicates collapse to the generation-earliest record, matching the
/// reference pruner's stable sort.
pub(crate) fn reduce_bucket_3d(bucket: &mut [BucketItem], mut emit: impl FnMut(&BucketItem)) {
    // seq breaks ties deterministically, so the unstable sort is
    // allocation-free yet order-equivalent to a stable sort.
    bucket.sort_unstable_by(|a, b| {
        cmp_f64(a.delay, b.delay)
            .then_with(|| cmp_f64(a.width, b.width))
            .then_with(|| a.seq.cmp(&b.seq))
    });
    let mut best_width = f64::INFINITY;
    for item in bucket.iter() {
        if item.width < best_width {
            best_width = item.width;
            emit(item);
        }
    }
}

/// Merges the sorted surviving frontier `cur` with the sorted fresh
/// options into the 2D Pareto frontier, leaving the result (sorted, all
/// columns) in `cur`. Ties on the `(cap, delay)` key prefer `cur`,
/// reproducing the reference pruner's stable sort of
/// `[survivors.., fresh..]`.
pub(crate) fn merge_prune_2d(cur: &mut OptionBuf, fresh: &OptionBuf, merged: &mut OptionBuf) {
    merged.clear();
    let (mut i, mut j) = (0usize, 0usize);
    let mut best_delay = f64::INFINITY;
    while i < cur.len() || j < fresh.len() {
        let take_cur = if i >= cur.len() {
            false
        } else if j >= fresh.len() {
            true
        } else {
            cmp2(cur, i, fresh, j) != Ordering::Greater
        };
        let (buf, k) = if take_cur {
            let k = i;
            i += 1;
            (&*cur, k)
        } else {
            let k = j;
            j += 1;
            (fresh, k)
        };
        if buf.delay[k] < best_delay {
            best_delay = buf.delay[k];
            merged.push(
                buf.cap[k],
                buf.delay[k],
                buf.width[k],
                buf.trace[k],
                buf.pending[k],
            );
        }
    }
    std::mem::swap(cur, merged);
}

/// Merges the sorted surviving frontier `cur` with the sorted fresh
/// options into the 3D Pareto frontier (staircase dominance over
/// `(delay, width)` under the `cap`-sorted sweep), leaving the result in
/// `cur`. Ties on the full key prefer `cur`.
pub(crate) fn merge_prune_3d(
    cur: &mut OptionBuf,
    fresh: &OptionBuf,
    merged: &mut OptionBuf,
    stairs: &mut Staircase,
) {
    merged.clear();
    stairs.clear();
    let (mut i, mut j) = (0usize, 0usize);
    while i < cur.len() || j < fresh.len() {
        let take_cur = if i >= cur.len() {
            false
        } else if j >= fresh.len() {
            true
        } else {
            cmp3(cur, i, fresh, j) != Ordering::Greater
        };
        let (buf, k) = if take_cur {
            let k = i;
            i += 1;
            (&*cur, k)
        } else {
            let k = j;
            j += 1;
            (fresh, k)
        };
        if !stairs.dominates(buf.delay[k], buf.width[k]) {
            stairs.insert(buf.delay[k], buf.width[k]);
            merged.push(
                buf.cap[k],
                buf.delay[k],
                buf.width[k],
                buf.trace[k],
                buf.pending[k],
            );
        }
    }
    std::mem::swap(cur, merged);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{prune_2d, prune_3d};

    /// Deterministic quantized pseudo-random generator: coarse values so
    /// duplicates and dominance chains actually occur.
    fn lcg(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*state >> 33) as f64 / (1u64 << 31) as f64 * 8.0).round()
    }

    fn sorted_buf_from(items: &[(f64, f64, f64)]) -> OptionBuf {
        // Build a frontier the way the sweep would: prune an arbitrary
        // set first so it is sorted and non-dominated.
        let mut v: Vec<(f64, f64, f64)> = items.to_vec();
        prune_3d(&mut v, |&x| x);
        let mut buf = OptionBuf::default();
        for (i, &(c, d, w)) in v.iter().enumerate() {
            buf.push(c, d, w, i as u32, f64::NAN);
        }
        buf
    }

    /// The oracle: what the reference pruner produces from the
    /// concatenated survivors + fresh options.
    fn reference_3d(cur: &OptionBuf, fresh: &OptionBuf) -> Vec<(f64, f64, f64)> {
        let mut all: Vec<(f64, f64, f64)> = (0..cur.len())
            .map(|i| (cur.cap[i], cur.delay[i], cur.width[i]))
            .chain((0..fresh.len()).map(|j| (fresh.cap[j], fresh.delay[j], fresh.width[j])))
            .collect();
        prune_3d(&mut all, |&x| x);
        all
    }

    #[test]
    fn merge_prune_3d_matches_reference_pruner_on_fuzz() {
        let mut state = 0xDEADBEEFu64;
        for round in 0..50 {
            let cur_items: Vec<(f64, f64, f64)> = (0..40)
                .map(|_| (lcg(&mut state), lcg(&mut state), lcg(&mut state)))
                .collect();
            let mut cur = sorted_buf_from(&cur_items);
            // Fresh: a few equal-cap buckets with ascending caps, each
            // reduced to its sub-frontier, as the sweep generates them.
            let mut fresh = OptionBuf::default();
            let mut bucket = Vec::new();
            for b in 0..4 {
                let cap = 10.0 + b as f64; // above most cur caps, distinct
                bucket.clear();
                for s in 0..12u32 {
                    bucket.push(BucketItem {
                        delay: lcg(&mut state),
                        width: lcg(&mut state),
                        trace: s,
                        seq: s,
                    });
                }
                reduce_bucket_3d(&mut bucket, |item| {
                    fresh.push(cap, item.delay, item.width, item.trace, f64::NAN);
                });
            }
            let expect = reference_3d(&cur, &fresh);
            let mut merged = OptionBuf::default();
            let mut stairs = Staircase::new();
            merge_prune_3d(&mut cur, &fresh, &mut merged, &mut stairs);
            let got: Vec<(f64, f64, f64)> = (0..cur.len())
                .map(|i| (cur.cap[i], cur.delay[i], cur.width[i]))
                .collect();
            assert_eq!(got, expect, "round {round}");
        }
    }

    #[test]
    fn merge_prune_2d_matches_reference_pruner_on_fuzz() {
        let mut state = 0x1234_5678u64;
        for round in 0..50 {
            let cur_items: Vec<(f64, f64)> = (0..30)
                .map(|_| (lcg(&mut state), lcg(&mut state)))
                .collect();
            let mut v = cur_items.clone();
            prune_2d(&mut v, |&x| x);
            let mut cur = OptionBuf::default();
            for (i, &(c, d)) in v.iter().enumerate() {
                cur.push(c, d, 0.0, i as u32, f64::NAN);
            }
            let mut fresh = OptionBuf::default();
            for b in 0..5 {
                let cap = 9.0 + b as f64;
                let bucket: Vec<BucketItem> = (0..8u32)
                    .map(|s| BucketItem {
                        delay: lcg(&mut state),
                        width: 0.0,
                        trace: s,
                        seq: s,
                    })
                    .collect();
                reduce_bucket_2d(&bucket, |item| {
                    fresh.push(cap, item.delay, item.width, item.trace, f64::NAN);
                });
            }
            let mut all: Vec<(f64, f64)> = (0..cur.len())
                .map(|i| (cur.cap[i], cur.delay[i]))
                .chain((0..fresh.len()).map(|j| (fresh.cap[j], fresh.delay[j])))
                .collect();
            prune_2d(&mut all, |&x| x);
            let mut merged = OptionBuf::default();
            merge_prune_2d(&mut cur, &fresh, &mut merged);
            let got: Vec<(f64, f64)> = (0..cur.len()).map(|i| (cur.cap[i], cur.delay[i])).collect();
            assert_eq!(got, all, "round {round}");
        }
    }

    #[test]
    fn retain_delay_le_compacts_all_columns() {
        let mut buf = OptionBuf::default();
        buf.push(1.0, 5.0, 10.0, 1, f64::NAN);
        buf.push(2.0, 50.0, 20.0, 2, 7.0);
        buf.push(3.0, 6.0, 30.0, 3, f64::NAN);
        buf.retain_delay_le(10.0);
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.cap, vec![1.0, 3.0]);
        assert_eq!(buf.delay, vec![5.0, 6.0]);
        assert_eq!(buf.width, vec![10.0, 30.0]);
        assert_eq!(buf.trace, vec![1, 3]);
        assert!(buf.pending.iter().all(|p| p.is_nan()));
    }

    #[test]
    fn bucket_3d_reduction_keeps_earliest_exact_duplicate() {
        let mut bucket = vec![
            BucketItem {
                delay: 2.0,
                width: 3.0,
                trace: 7,
                seq: 0,
            },
            BucketItem {
                delay: 2.0,
                width: 3.0,
                trace: 9,
                seq: 1,
            },
        ];
        let mut fresh = OptionBuf::default();
        reduce_bucket_3d(&mut bucket, |item| {
            fresh.push(1.0, item.delay, item.width, item.trace, 5.0);
        });
        assert_eq!(fresh.len(), 1);
        assert_eq!(
            fresh.trace,
            vec![7],
            "generation-earliest duplicate survives"
        );
    }

    #[test]
    fn scratch_reset_keeps_capacity() {
        let mut s = DpScratch::new();
        for _ in 0..100 {
            s.cur.push(1.0, 2.0, 3.0, 0, f64::NAN);
        }
        let cap_before = s.cur.cap.capacity();
        s.reset();
        assert_eq!(s.cur.len(), 0);
        assert!(s.cur.cap.capacity() >= cap_before);
    }
}
