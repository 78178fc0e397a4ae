//! Sorted option frontiers in struct-of-arrays layout, and the one
//! buffer-insertion step that both DP sweeps run at every buffer site.
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
//!    buffer site is a single linear **merge** of the sorted survivors
//!    with the freshly created insertion options — no full sort, ever.
//! 2. **Fresh insertion options are bucketed by library width and
//!    reduced per width class.** Every option inserting width `w`
//!    presents the same load upstream, so the library quantizes the fresh
//!    set into `|B|` equal-`cap` buckets that are trivially `cap`-sorted
//!    (libraries store ascending widths and the load is strictly
//!    increasing in `w`). Inside a bucket an insertion's width is
//!    `width[i] + w`, so every insertion built on one frontier width class
//!    carries the same width bits: the class's `(delay, index)` minimum
//!    sorts before the rest of its class, and the bucket's `(delay,
//!    width)` staircase would drop the rest. The frontier is therefore
//!    grouped by exact width once per site ([`WidthRuns`]), and a bucket
//!    receives only each class's admitted minimum — one scan per (width
//!    class, library width) — before it is sorted and reduced to its
//!    staircase. Minima of distinct classes whose `+ w` sums round to the
//!    same bits are still resolved by that staircase, so the survivors
//!    and their order are those of reducing the full bucket. The
//!    min-delay objective ignores width: its frontier is one class, whose
//!    earliest minimum is the bucket's single survivor. Either way the
//!    merge sees only options that could survive same-`cap` dominance.
//!
//! [`InsertStep`] is that step, shared by the chain sweep
//! ([`crate::chain`]) and the tree DP ([`crate::tree`]):
//!
//! * [`InsertStep::generate`] tries every library width against every
//!   option, keeps each width class's best insertion among those the
//!   caller admits, and reduces each width bucket to its sub-frontier;
//! * [`InsertStep::merge_into`] merges the sub-frontiers into the
//!   caller's frontier and records a trace only for the insertions that
//!   survive;
//! * [`select`] picks the answer from a finished frontier.
//!
//! Each caller passes only what belongs to its own model: the load a
//! width presents, its stage-delay expression (the chain and the tree
//! round it differently, and each is pinned bit for bit by its oracle),
//! its admission test and how it records a surviving insertion. The
//! objective is dispatched here and nowhere else.
//!
//! Dominance queries during the merge use the [`Staircase`] (binary
//! search insertion, amortized `O(log n)`), exactly as the reference
//! pruner does — the survivor *set and order* are byte-identical to the
//! reference (`tests/frontier_equivalence.rs` and
//! `tests/tree_frontier_equivalence.rs` pin this on 50-net and 50-tree
//! corpora), only the work to compute them changes.
//!
//! All buffers live in [`DpScratch`] (or the tree's
//! [`TreeScratch`](crate::tree::TreeScratch)), one per thread behind
//! the crate's free functions, so a warm thread allocates nothing.

use crate::chain::Objective;
use crate::options::{Staircase, TraceArena};
use std::cmp::Ordering;
use std::ops::Range;

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
/// is reduced to its sub-frontier. `seq` is the index of the parent
/// frontier option, i.e. generation order, so an unstable sort on the
/// full `(delay, width, seq)` key reproduces a stable sort without its
/// temporary allocation.
#[derive(Debug, Clone, Copy)]
struct BucketItem {
    delay: f64,
    width: f64,
    trace: u32,
    seq: u32,
}

/// Reusable scratch for the chain DP: the option frontier, the
/// buffer-insertion step's buffers and the traceback arena.
///
/// A scratch is plain reusable memory — it carries no configuration and
/// never influences results. Solvers reset it on entry, so one scratch
/// serves any interleaving of solves. Each thread owns one, behind the
/// crate's free functions ([`crate::solve_min_power`] etc.), so a
/// thread's solves after its first allocate nothing.
#[derive(Debug, Default)]
pub(crate) struct DpScratch {
    pub(crate) cur: OptionBuf,
    pub(crate) step: InsertStep,
    pub(crate) arena: TraceArena,
}

impl DpScratch {
    /// Resets per-solve state, keeping capacity.
    pub(crate) fn reset(&mut self) {
        self.cur.clear();
        self.step.clear();
        self.arena.reset();
    }
}

/// The buffer-insertion step and its working memory: the frontier's
/// width classes, the fresh insertion options, the merge output, the
/// in-flight width bucket and the dominance staircase. The tree DP's
/// branch cross-merge borrows `merged` and `stairs` between steps.
#[derive(Debug, Default)]
pub(crate) struct InsertStep {
    /// The frontier grouped by exact width (one run in delay mode).
    runs: WidthRuns,
    /// Fresh insertion options: the reduced width buckets, `cap`-sorted.
    fresh: OptionBuf,
    /// Output buffer of the frontier merge.
    pub merged: OptionBuf,
    /// The width bucket being generated: one item per width class.
    bucket: Vec<BucketItem>,
    /// Binary-search dominance staircase.
    pub stairs: Staircase,
}

impl InsertStep {
    /// Forgets every buffered option, keeping capacity.
    pub(crate) fn clear(&mut self) {
        self.runs.clear();
        self.fresh.clear();
        self.merged.clear();
        self.bucket.clear();
        self.stairs.clear();
    }

    /// Generates the buffer insertions at one site. For each width `w`
    /// (ascending), every option of `front` is tried: the new option
    /// presents `load(w)` upstream, has delay
    /// `stage_delay(w, delay, cap)` and width `width + w`, and is
    /// admitted when `admits(new_delay, load(w))`. `load` must be
    /// strictly increasing in `w`.
    ///
    /// The width bucket receives one insertion per width class of
    /// `front` (exactly equal `width`; the whole frontier in delay mode):
    /// the class's admitted insertion of least delay, ties to the lowest
    /// frontier index. This is exact: every insertion of a class has the
    /// same width bits `width + w` and the same cap, so the others sort
    /// after that minimum on `(delay, width, index)` and the bucket's
    /// staircase would drop them. Minima of distinct classes whose sums
    /// round to the same bits all stay in the bucket, where the staircase
    /// keeps the lowest frontier index (`seq`). The bucket is then
    /// reduced to its sorted sub-frontier, which carries the parent trace
    /// and `w` as a pending insert, ready for [`InsertStep::merge_into`].
    ///
    /// Returns the options created at the site: every option of `front`
    /// plus every admitted insertion, class minimum or not.
    pub(crate) fn generate(
        &mut self,
        front: &OptionBuf,
        widths: &[f64],
        objective: Objective,
        load: impl Fn(f64) -> f64,
        stage_delay: impl Fn(f64, f64, f64) -> f64,
        admits: impl Fn(f64, f64) -> bool,
    ) -> u64 {
        let Self {
            runs,
            fresh,
            bucket,
            ..
        } = self;
        fresh.clear();
        let mut created = front.len() as u64;
        if widths.is_empty() {
            return created;
        }
        let by_width = matches!(objective, Objective::MinPowerUnderDelay { .. });
        runs.group(&front.width, 0..front.len(), by_width);
        for &w in widths {
            let cap = load(w);
            bucket.clear();
            for run in runs.runs() {
                let mut best: Option<(f64, usize)> = None;
                for &i in run {
                    let i = i as usize;
                    let delay = stage_delay(w, front.delay[i], front.cap[i]);
                    if admits(delay, cap) {
                        created += 1;
                        if best.map_or(true, |(least, _)| delay < least) {
                            best = Some((delay, i));
                        }
                    }
                }
                if let Some((delay, i)) = best {
                    bucket.push(BucketItem {
                        delay,
                        width: front.width[i] + w,
                        trace: front.trace[i],
                        seq: i as u32,
                    });
                }
            }
            reduce_bucket(bucket, |item| {
                fresh.push(cap, item.delay, item.width, item.trace, w);
            });
        }
        created
    }

    /// Merges the insertions of the last [`InsertStep::generate`] into
    /// the sorted frontier `front`, leaving the objective's Pareto
    /// frontier there, then records each surviving insertion:
    /// `record(w, parent_trace)` returns its new trace handle.
    pub(crate) fn merge_into(
        &mut self,
        front: &mut OptionBuf,
        objective: Objective,
        mut record: impl FnMut(f64, u32) -> u32,
    ) {
        let Self {
            fresh,
            merged,
            stairs,
            ..
        } = self;
        match objective {
            Objective::MinDelay => merge_prune::<false>(front, fresh, merged, stairs),
            Objective::MinPowerUnderDelay { .. } => {
                merge_prune::<true>(front, fresh, merged, stairs);
            }
        }
        for i in 0..front.len() {
            let pending = front.pending[i];
            if !pending.is_nan() {
                front.trace[i] = record(pending, front.trace[i]);
                front.pending[i] = f64::NAN;
            }
        }
    }
}

#[inline]
pub(crate) fn cmp_f64(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b).expect("finite DP keys")
}

/// Picks the answer from a finished frontier (total delays): the least
/// delay, then the least width, in delay mode; the least width among the
/// options meeting the target, then the least delay, in power mode. Ties
/// go to the earliest option, matching the reference engines. `None`
/// when no option meets the target.
pub(crate) fn select(front: &OptionBuf, objective: Objective) -> Option<usize> {
    let (delay, width) = (&front.delay, &front.width);
    match objective {
        Objective::MinDelay => (0..front.len())
            .min_by(|&a, &b| cmp_f64(delay[a], delay[b]).then(cmp_f64(width[a], width[b]))),
        Objective::MinPowerUnderDelay { target_fs } => (0..front.len())
            .filter(|&i| delay[i] <= target_fs)
            .min_by(|&a, &b| cmp_f64(width[a], width[b]).then(cmp_f64(delay[a], delay[b]))),
    }
}

/// Reduces a generation bucket (equal-`cap` fresh options) to its sorted
/// sub-frontier and emits it: the `(delay, width)` staircase, emitted
/// with delay strictly ascending and width strictly descending; exact
/// duplicates collapse to the generation-earliest record, matching the
/// reference pruner's stable sort. (A delay-mode bucket holds at most
/// one item, the frontier's earliest minimum-delay insertion.)
fn reduce_bucket(bucket: &mut [BucketItem], mut emit: impl FnMut(&BucketItem)) {
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

/// A frontier (or a range of one) regrouped into runs of exactly equal
/// width: the width classes of the buffer-insertion step and of the tree
/// DP's branch merge. Within a run the options keep their index order,
/// so their caps stay non-decreasing.
#[derive(Debug, Default)]
pub(crate) struct WidthRuns {
    /// Option indices, sorted by width, then index.
    order: Vec<u32>,
    /// Offset of each run in `order`, then `order.len()`.
    starts: Vec<u32>,
}

impl WidthRuns {
    pub(crate) fn clear(&mut self) {
        self.order.clear();
        self.starts.clear();
    }

    /// Groups the options `range` of a frontier by `widths`, or keeps
    /// them as one run when `by_width` is off.
    pub(crate) fn group(&mut self, widths: &[f64], range: Range<usize>, by_width: bool) {
        self.clear();
        self.order.extend(range.map(|i| i as u32));
        let width = |k: u32| widths[k as usize];
        if by_width {
            self.order
                .sort_unstable_by(|&x, &y| cmp_f64(width(x), width(y)).then(x.cmp(&y)));
        }
        for (k, &i) in self.order.iter().enumerate() {
            if k == 0 || (by_width && width(i) != width(self.order[k - 1])) {
                self.starts.push(k as u32);
            }
        }
        self.starts.push(self.order.len() as u32);
    }

    /// The runs in ascending width order, each listing its option
    /// indices in ascending order.
    pub(crate) fn runs(&self) -> impl Iterator<Item = &[u32]> {
        self.starts
            .windows(2)
            .map(|w| &self.order[w[0] as usize..w[1] as usize])
    }
}

/// Lexicographic comparison between `cur[i]` and `fresh[j]` on the
/// reference pruner's sort key: `(cap, delay)` in delay mode (width
/// excluded), `(cap, delay, width)` in power mode.
#[inline]
fn cmp_key<const POWER: bool>(cur: &OptionBuf, i: usize, fresh: &OptionBuf, j: usize) -> Ordering {
    let two = cmp_f64(cur.cap[i], fresh.cap[j]).then_with(|| cmp_f64(cur.delay[i], fresh.delay[j]));
    if POWER {
        two.then_with(|| cmp_f64(cur.width[i], fresh.width[j]))
    } else {
        two
    }
}

/// Merges the sorted surviving frontier `cur` with the sorted fresh
/// options into the Pareto frontier, leaving the result (sorted, all
/// columns) in `cur`: the 2D `(cap, delay)` frontier in delay mode, the
/// 3D one (staircase dominance over `(delay, width)` under the
/// `cap`-sorted sweep) in power mode. Ties on the key prefer `cur`,
/// reproducing the reference pruner's stable sort of
/// `[survivors.., fresh..]`.
fn merge_prune<const POWER: bool>(
    cur: &mut OptionBuf,
    fresh: &OptionBuf,
    merged: &mut OptionBuf,
    stairs: &mut Staircase,
) {
    merged.clear();
    stairs.clear();
    let (mut i, mut j) = (0usize, 0usize);
    let mut best_delay = f64::INFINITY;
    while i < cur.len() || j < fresh.len() {
        let take_cur = if i >= cur.len() {
            false
        } else if j >= fresh.len() {
            true
        } else {
            cmp_key::<POWER>(cur, i, fresh, j) != Ordering::Greater
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
        let (delay, width) = (buf.delay[k], buf.width[k]);
        let keep = if POWER {
            let keep = !stairs.dominates(delay, width);
            if keep {
                stairs.insert(delay, width);
            }
            keep
        } else {
            let keep = delay < best_delay;
            if keep {
                best_delay = delay;
            }
            keep
        };
        if keep {
            merged.push(buf.cap[k], delay, width, buf.trace[k], buf.pending[k]);
        }
    }
    std::mem::swap(cur, merged);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{prune_2d, prune_3d};

    const POWER: Objective = Objective::MinPowerUnderDelay { target_fs: 1.0 };

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
                reduce_bucket(&mut bucket, |item| {
                    fresh.push(cap, item.delay, item.width, item.trace, f64::NAN);
                });
            }
            let expect = reference_3d(&cur, &fresh);
            let mut merged = OptionBuf::default();
            let mut stairs = Staircase::new();
            merge_prune::<true>(&mut cur, &fresh, &mut merged, &mut stairs);
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
                let mut bucket: Vec<BucketItem> = (0..8u32)
                    .map(|s| BucketItem {
                        delay: lcg(&mut state),
                        width: 0.0,
                        trace: s,
                        seq: s,
                    })
                    .collect();
                // Equal widths: only the earliest least delay survives,
                // the one insertion a delay-mode bucket holds.
                reduce_bucket(&mut bucket, |item| {
                    fresh.push(cap, item.delay, item.width, item.trace, f64::NAN);
                });
            }
            let mut all: Vec<(f64, f64)> = (0..cur.len())
                .map(|i| (cur.cap[i], cur.delay[i]))
                .chain((0..fresh.len()).map(|j| (fresh.cap[j], fresh.delay[j])))
                .collect();
            prune_2d(&mut all, |&x| x);
            let mut merged = OptionBuf::default();
            let mut stairs = Staircase::new();
            merge_prune::<false>(&mut cur, &fresh, &mut merged, &mut stairs);
            let got: Vec<(f64, f64)> = (0..cur.len()).map(|i| (cur.cap[i], cur.delay[i])).collect();
            assert_eq!(got, all, "round {round}");
        }
    }

    /// One option as the reference pruner sees it: `(cap, delay, width,
    /// parent trace, pending width)`, pending `NaN` for a carried option.
    type Row = (f64, f64, f64, u32, f64);

    #[test]
    fn insert_step_matches_reference_pruner_on_fuzz() {
        // The whole step — generation, admission, width-class argmin,
        // bucket reduction, merge and trace materialisation — against the
        // reference pruner applied to `cur ∪ every admitted insertion` in
        // generation order. Integer caps, delays and widths make key ties,
        // exact duplicates and `width + w` sum collisions common. Every
        // third frontier has only three width classes, so classes hold
        // several options whose insertions tie on delay; every third has
        // just `0.3` and `0.2 + 0.1`, two classes one bit apart whose
        // `+ w` sums round to the same bits.
        let mut state = 0xF00Du64;
        let mut step = InsertStep::default();
        let (mut duplicated, mut tied) = (false, false);
        let (mut non_winner, mut class_tie, mut sum_collision) = (false, false, false);
        for round in 0..1000 {
            let objective = if round % 2 == 0 {
                Objective::MinDelay
            } else {
                POWER
            };
            let limit = if round % 4 < 2 {
                f64::INFINITY
            } else {
                10.0 + lcg(&mut state)
            };
            // A sorted frontier as a sweep holds it: pruned by the
            // objective, with distinct trace handles.
            let width = |state: &mut u64| {
                let k = lcg(state);
                match round % 3 {
                    0 => k,
                    1 => (k / 3.0).floor(),
                    // 0.3 in two roundings one bit apart.
                    _ if k >= 4.0 => 0.3,
                    _ => 0.2 + 0.1,
                }
            };
            let mut items: Vec<(f64, f64, f64)> = (0..1 + round % 23)
                .map(|_| (lcg(&mut state), lcg(&mut state), width(&mut state)))
                .collect();
            match objective {
                Objective::MinDelay => prune_2d(&mut items, |x| (x.0, x.1)),
                Objective::MinPowerUnderDelay { .. } => prune_3d(&mut items, |&x| x),
            }
            let mut cur = OptionBuf::default();
            for (i, &(c, d, w)) in items.iter().enumerate() {
                cur.push(c, d, w, 10 + i as u32, f64::NAN);
            }
            // A small ascending library of integer widths; its load ties
            // with the frontier's caps.
            let widths: Vec<f64> = (1..=6)
                .map(f64::from)
                .filter(|_| lcg(&mut state) >= 3.0)
                .collect();
            let load = |w: f64| w;
            let stage_delay =
                |w: f64, delay: f64, cap: f64| delay + ((7.0 - w) * cap / 4.0).floor();
            let admits = |delay: f64, cap: f64| delay + cap <= limit;

            let mut all: Vec<Row> = (0..cur.len())
                .map(|i| {
                    (
                        cur.cap[i],
                        cur.delay[i],
                        cur.width[i],
                        cur.trace[i],
                        f64::NAN,
                    )
                })
                .collect();
            for &w in &widths {
                // `(parent width, delay)` of this bucket's admitted
                // insertions so far, to spot the width-class cases.
                let mut bucket: Vec<(f64, f64)> = Vec::new();
                for i in 0..cur.len() {
                    let delay = stage_delay(w, cur.delay[i], cur.cap[i]);
                    if admits(delay, load(w)) {
                        let parent = cur.width[i];
                        if objective != Objective::MinDelay {
                            for &(other, other_delay) in &bucket {
                                if other.to_bits() == parent.to_bits() {
                                    non_winner = true;
                                    class_tie |= other_delay == delay;
                                } else {
                                    sum_collision |=
                                        (other + w).to_bits() == (parent + w).to_bits();
                                }
                            }
                        }
                        bucket.push((parent, delay));
                        all.push((load(w), delay, parent + w, cur.trace[i], w));
                    }
                }
            }
            // Every admitted insertion counts, not only the class minima
            // that reach the bucket (`non_winner` asserts the difference
            // occurs).
            let expect_created = all.len() as u64;
            let key = |r: &Row| (r.0, r.1, r.2);
            let sort_key = |r: &Row| match objective {
                Objective::MinDelay => (r.0, r.1, 0.0),
                Objective::MinPowerUnderDelay { .. } => key(r),
            };
            for (i, a) in all.iter().enumerate().filter(|(_, a)| !a.4.is_nan()) {
                duplicated |= all[..i].iter().any(|b| key(a) == key(b));
                tied |= all
                    .iter()
                    .any(|b| b.4.is_nan() && sort_key(a) == sort_key(b));
            }
            match objective {
                Objective::MinDelay => prune_2d(&mut all, |r| (r.0, r.1)),
                Objective::MinPowerUnderDelay { .. } => prune_3d(&mut all, key),
            }
            let mut expect_recorded = Vec::new();
            let expect: Vec<(f64, f64, f64, u32)> = all
                .iter()
                .map(|&(cap, delay, width, prev, pending)| {
                    let trace = if pending.is_nan() {
                        prev
                    } else {
                        expect_recorded.push((pending, prev));
                        1000 + expect_recorded.len() as u32 - 1
                    };
                    (cap, delay, width, trace)
                })
                .collect();

            let created = step.generate(&cur, &widths, objective, load, stage_delay, admits);
            let mut recorded = Vec::new();
            step.merge_into(&mut cur, objective, |w, prev| {
                recorded.push((w, prev));
                1000 + recorded.len() as u32 - 1
            });
            let got: Vec<(f64, f64, f64, u32)> = (0..cur.len())
                .map(|i| (cur.cap[i], cur.delay[i], cur.width[i], cur.trace[i]))
                .collect();
            let ctx = format!("round {round} {objective:?} limit {limit}");
            assert_eq!(created, expect_created, "{ctx}");
            assert_eq!(got, expect, "{ctx}");
            assert_eq!(recorded, expect_recorded, "{ctx}");
            assert!(cur.pending.iter().all(|p| p.is_nan()), "{ctx}");
        }
        assert!(duplicated, "no insertion ever duplicated another");
        assert!(tied, "no insertion ever tied a carried option");
        assert!(non_winner, "no width class ever admitted two insertions");
        assert!(
            class_tie,
            "no two insertions of a width class ever tied on delay"
        );
        assert!(
            sum_collision,
            "no two width classes ever summed to equal bits"
        );
    }

    #[test]
    fn insert_step_breaks_ties_across_width_classes_by_frontier_index() {
        // Two width classes one bit apart whose `+ w` sums round to the
        // same bits and whose insertions tie on delay: the duplicate from
        // the lower frontier index survives, although its class sorts
        // after the other.
        let mut front = OptionBuf::default();
        front.push(5.0, 1.0, 0.2 + 0.1, 7, f64::NAN);
        front.push(6.0, 1.0, 0.3, 9, f64::NAN);
        assert!(front.width[0] > front.width[1]);
        assert_eq!(
            (front.width[0] + 1.0).to_bits(),
            (front.width[1] + 1.0).to_bits()
        );
        let mut step = InsertStep::default();
        let created = step.generate(&front, &[1.0], POWER, |w| w, |_, d, _| d, |_, _| true);
        assert_eq!(created, 4);
        let mut recorded = Vec::new();
        step.merge_into(&mut front, POWER, |w, prev| {
            recorded.push((w, prev));
            100
        });
        assert_eq!(recorded, vec![(1.0, 7)]);
        assert_eq!(front.trace, vec![100, 7, 9]);
    }

    #[test]
    fn width_runs_group_equal_widths_in_index_order() {
        let widths = [30.0, 10.0, 30.0, 20.0, 10.0, 30.0];
        let mut runs = WidthRuns::default();
        runs.group(&widths, 1..6, true);
        let grouped: Vec<Vec<u32>> = runs.runs().map(<[u32]>::to_vec).collect();
        assert_eq!(grouped, vec![vec![1, 4], vec![3], vec![2, 5]]);
        runs.group(&widths, 0..3, false);
        assert_eq!(runs.runs().count(), 1);
    }

    #[test]
    fn select_breaks_ties_towards_the_earliest_option() {
        let mut front = OptionBuf::default();
        for (delay, width) in [(5.0, 3.0), (4.0, 9.0), (4.0, 9.0), (6.0, 3.0)] {
            front.push(0.0, delay, width, 0, f64::NAN);
        }
        assert_eq!(select(&front, Objective::MinDelay), Some(1));
        let target = |target_fs| Objective::MinPowerUnderDelay { target_fs };
        assert_eq!(select(&front, target(6.0)), Some(0));
        assert_eq!(select(&front, target(4.5)), Some(1));
        assert_eq!(select(&front, target(3.0)), None);
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
        reduce_bucket(&mut bucket, |item| {
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
        let mut s = DpScratch::default();
        for _ in 0..100 {
            s.cur.push(1.0, 2.0, 3.0, 0, f64::NAN);
        }
        let cap_before = s.cur.cap.capacity();
        s.reset();
        assert_eq!(s.cur.len(), 0);
        assert!(s.cur.cap.capacity() >= cap_before);
    }
}
