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
//!    grouped by exact width once per site ([`WidthRuns`]), in linear
//!    time (hash each width to its class, sort only the distinct widths,
//!    scatter the indices with a counting pass), and a bucket receives
//!    only each class's admitted minimum before it is sorted and reduced
//!    to its staircase. The minimum comes from a bounded scan: each
//!    class's prefix and suffix delay minima, built once per site and
//!    shared by every library width, bound the stage delay of every
//!    option before or after a position (the stage delay only grows with
//!    delay and cap, and a class's caps do not fall), so the scan starts
//!    where the previous width found its minimum and stops in each
//!    direction as soon as the bound shows nothing further can win. The
//!    admission test is asked once, on that minimum.
//!    Minima of distinct classes whose `+ w` sums round to the same bits
//!    are still resolved by that staircase, so the survivors and their
//!    order are those of reducing the full bucket. The
//!    min-delay objective ignores width: its frontier is one class, whose
//!    earliest minimum is the bucket's single survivor. Either way the
//!    merge sees only options that could survive same-`cap` dominance.
//!
//! [`InsertStep`] is that step, shared by the chain sweep
//! ([`crate::chain`]) and the tree DP ([`crate::tree`]):
//!
//! * [`InsertStep::generate`] finds, for every library width, each width
//!   class's least-delay insertion, keeps it if the caller admits it, and
//!   reduces each width bucket to its sub-frontier;
//! * [`InsertStep::merge_into`] merges the sub-frontiers into the
//!   caller's frontier and records a trace for each insertion as the
//!   merge keeps it, so the arena sees the survivors in merged order;
//! * [`select`] picks the answer from a finished frontier.
//!
//! Each caller passes only what belongs to its own model: the load a
//! width presents, its stage-delay expression (the chain and the tree
//! round it differently, and each is pinned bit for bit by its oracle),
//! its admission test and how it records a surviving insertion. The
//! objective is dispatched here and nowhere else.
//!
//! The merge feeds its options in key order to [`WidthFloor`], the one
//! dominance test of every production prune in both DPs. A site's
//! widths are already classed for generation, so the floor ranks the
//! classes once and drops an option iff the least kept delay at or below
//! its width rank is at or below its delay: the reference pruner's
//! `(delay, width)` staircase test without its binary searches. The
//! survivor *set and order* are byte-identical to the reference
//! (`tests/frontier_equivalence.rs` and
//! `tests/tree_frontier_equivalence.rs` pin this on 50-net and 50-tree
//! corpora), only the work to compute them changes.
//!
//! All buffers live in [`DpScratch`] (or the tree's
//! [`TreeScratch`](crate::tree::TreeScratch)), one per thread behind
//! the crate's free functions, so a warm thread allocates nothing.

use crate::chain::Objective;
use crate::options::TraceArena;
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
    /// Traceback handle into the [`TraceArena`] (for a fresh insertion
    /// before its merge, the handle of the option it was built on).
    pub trace: Vec<u32>,
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
    }

    pub(crate) fn push(&mut self, cap: f64, delay: f64, width: f64, trace: u32) {
        self.cap.push(cap);
        self.delay.push(delay);
        self.width.push(width);
        self.trace.push(trace);
    }

    /// Appends the options `range` of `src`, column by column (the tree
    /// DP parks each node's finished frontier in its store arena this
    /// way, and reads a first child's survivors back out of it).
    pub(crate) fn extend_from(&mut self, src: &OptionBuf, range: Range<usize>) {
        self.cap.extend_from_slice(&src.cap[range.clone()]);
        self.delay.extend_from_slice(&src.delay[range.clone()]);
        self.width.extend_from_slice(&src.width[range.clone()]);
        self.trace.extend_from_slice(&src.trace[range]);
    }

    /// Overwrites option `at` with the given columns.
    #[inline]
    pub(crate) fn set(&mut self, at: usize, cap: f64, delay: f64, width: f64, trace: u32) {
        self.cap[at] = cap;
        self.delay[at] = delay;
        self.width[at] = width;
        self.trace[at] = trace;
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
                }
                w += 1;
            }
        }
        self.cap.truncate(w);
        self.delay.truncate(w);
        self.width.truncate(w);
        self.trace.truncate(w);
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
/// width classes, the fresh insertion options and the library width
/// each inserts, the merge output, the width buckets being generated and
/// the merge's width floor. The tree DP's branch cross-merge borrows
/// `merged` between steps.
#[derive(Debug, Default)]
pub(crate) struct InsertStep {
    /// The frontier grouped by exact width (one run in delay mode).
    runs: WidthRuns,
    /// The run being scanned, with its delay minima.
    scan: ClassScan,
    /// Fresh insertion options: the reduced width buckets, `cap`-sorted,
    /// each carrying the trace of the option it was built on.
    fresh: OptionBuf,
    /// The library width each fresh option inserts.
    fresh_w: Vec<f64>,
    /// Output buffer of the frontier merge.
    pub merged: OptionBuf,
    /// The width buckets being generated, one per library width, each
    /// with at most one item per width class.
    buckets: Vec<Vec<BucketItem>>,
    /// The merge's dominance test.
    floor: WidthFloor,
}

impl InsertStep {
    /// Forgets every buffered option, keeping capacity.
    pub(crate) fn clear(&mut self) {
        self.runs.clear();
        self.fresh.clear();
        self.fresh_w.clear();
        self.merged.clear();
        self.buckets.iter_mut().for_each(Vec::clear);
    }

    /// Generates the buffer insertions at one site. For each width `w`
    /// (ascending), the options of `front` are candidates: an insertion
    /// presents `load(w)` upstream, has delay `stage_delay(w, delay, cap)`
    /// and width `width + w`, and is admitted when
    /// `admits(new_delay, load(w))`. `load` must be strictly increasing in
    /// `w`.
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
    /// and `w`, ready for [`InsertStep::merge_into`]. `front` is grouped
    /// even when `widths` is empty: the merge classes its widths.
    ///
    /// The class minimum comes from a bounded scan ([`bounded_argmin`]),
    /// not from evaluating every option. Each class is scanned for every
    /// library width in turn while its options are at hand, and each
    /// width's scan starts where the previous width found the minimum;
    /// the first starts at the class's last option. This is exact under
    /// three premises the callers keep:
    /// * `stage_delay` is non-decreasing in the delay and in the cap
    ///   under IEEE rounding. Both callers' forms are: the chain's
    ///   `d + (i + R·c)` and the tree's `(d + i) + R·c`, with `R ≥ 0`,
    ///   are compositions of monotone roundings.
    /// * Caps are non-decreasing inside a class run: `front` is sorted
    ///   by cap and a run keeps index order.
    /// * `admits` is down-closed in the delay: if it admits a delay, it
    ///   admits every smaller one at the same cap. The chain's
    ///   `delay <= limit` and the tree's `Bound::admits` are. So the
    ///   class's least admitted insertion is its least insertion if that
    ///   is admitted, and otherwise there is none: `admits` is asked once
    ///   per class, on the minimum.
    ///
    /// Returns the options the DP made at the site: every option of
    /// `front` plus each admitted class minimum (one per width class and
    /// library width at most).
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
            scan,
            fresh,
            fresh_w,
            buckets,
            ..
        } = self;
        fresh.clear();
        fresh_w.clear();
        let mut created = front.len() as u64;
        let by_width = matches!(objective, Objective::MinPowerUnderDelay { .. });
        runs.group(&front.width, 0..front.len(), by_width);
        if widths.is_empty() {
            return created;
        }
        debug_assert!(
            front.cap.windows(2).all(|c| c[0] <= c[1]),
            "the frontier must be cap-sorted"
        );
        if buckets.len() < widths.len() {
            buckets.resize_with(widths.len(), Vec::new);
        }
        for run in runs.runs() {
            scan.start(run, front);
            let mut at = run.len() - 1;
            for (&w, bucket) in widths.iter().zip(buckets.iter_mut()) {
                let (delay, argmin, _) = scan.argmin(at, |d, c| stage_delay(w, d, c));
                at = argmin;
                if admits(delay, load(w)) {
                    created += 1;
                    let i = run[at] as usize;
                    bucket.push(BucketItem {
                        delay,
                        width: front.width[i] + w,
                        trace: front.trace[i],
                        seq: i as u32,
                    });
                }
            }
        }
        for (&w, bucket) in widths.iter().zip(buckets.iter_mut()) {
            let cap = load(w);
            reduce_bucket(bucket, |item| {
                fresh.push(cap, item.delay, item.width, item.trace);
                fresh_w.push(w);
            });
            bucket.clear();
        }
        created
    }

    /// Whether the last [`InsertStep::generate`] left any insertion to
    /// merge. Without one, [`InsertStep::merge_into`] only re-runs the
    /// `(delay[, width])` dominance sweep over `front` in index order,
    /// which keeps every option of a frontier that already left such a
    /// sweep in key order: a constant cap shift or a subset cannot make
    /// an option dominate a later one. The tree DP skips the merge then;
    /// the chain sweep does not, because its wire crossing is not
    /// followed by a prune.
    pub(crate) fn generated_any(&self) -> bool {
        self.fresh.len() > 0
    }

    /// Merges the insertions of the last [`InsertStep::generate`] into
    /// the sorted frontier `front`, leaving the objective's Pareto
    /// frontier there, and records each insertion as the merge keeps it:
    /// `record(w, parent_trace)` returns its new trace handle. `front`
    /// must be the frontier generated from, or a subset of it, so that
    /// its widths were classed.
    pub(crate) fn merge_into(
        &mut self,
        front: &mut OptionBuf,
        objective: Objective,
        record: impl FnMut(f64, u32) -> u32,
    ) {
        let Self {
            runs,
            fresh,
            fresh_w,
            merged,
            floor,
            ..
        } = self;
        let table = &mut runs.table;
        match objective {
            Objective::MinDelay => {
                floor.start(None);
                merge_prune::<false>(front, fresh, fresh_w, merged, floor, table, record);
            }
            Objective::MinPowerUnderDelay { .. } => {
                for &width in &fresh.width {
                    table.insert(width);
                }
                floor.start(Some(table));
                merge_prune::<true>(front, fresh, fresh_w, merged, floor, table, record);
            }
        }
    }
}

/// The one dominance test of every production prune (both DPs'
/// buffer-insertion merge, the tree DP's first-child sweep and
/// branch-merge prune), fed options in key order `(cap, delay[,
/// width])`: an option `(d, p)` is dominated iff some option kept before
/// it has `d' ≤ d` and `p' ≤ p`. A sweep's widths fall into a few dozen
/// exact classes, so instead of a `(delay, width)` staircase the floor
/// keeps, for each width rank `r`, the least kept delay of width rank at
/// most `r`: the test is one comparison, and a survivor lowers the floor
/// from its rank up to the first entry at or below its delay. Ranks come
/// from the [`ClassTable`] that classed the widths, so `-0.0` and `0.0`
/// share one, and widths one bit apart get distinct, ordered ones. In
/// delay mode the floor is one scalar, the least kept delay, so the sweep
/// a `τ_min` solve starts at each fine-tree node costs no vector upkeep.
#[derive(Debug, Default)]
pub(crate) struct WidthFloor {
    /// Whether widths are classed (power mode) or ignored (delay mode).
    by_width: bool,
    /// Least kept delay (delay mode).
    least: f64,
    /// The width rank of each class of the table.
    rank_of: Vec<u32>,
    /// Least kept delay at or below each width rank; non-increasing.
    floor: Vec<f64>,
}

impl WidthFloor {
    /// Empties the floor for a sweep over the width classes of `table`,
    /// ranked here, or (`None`, delay mode) over width-blind options.
    pub(crate) fn start(&mut self, table: Option<&mut ClassTable>) {
        self.by_width = table.is_some();
        self.least = f64::INFINITY;
        if let Some(table) = table {
            table.rank(&mut self.rank_of);
            self.floor.clear();
            self.floor.resize(self.rank_of.len(), f64::INFINITY);
        }
    }

    /// Whether a kept option dominates a later one of `width` (classed
    /// in `widths`) and `delay`, without keeping it.
    #[inline]
    pub(crate) fn dominates(&self, widths: &ClassTable, width: f64, delay: f64) -> bool {
        if !self.by_width {
            return self.least <= delay;
        }
        self.floor[self.rank_of[widths.find(width) as usize] as usize] <= delay
    }

    /// Whether the next option, of `width` (classed in `widths`) and
    /// `delay`, survives; a survivor lowers the floor.
    #[inline]
    pub(crate) fn keeps(&mut self, widths: &ClassTable, width: f64, delay: f64) -> bool {
        if !self.by_width {
            let keep = delay < self.least;
            if keep {
                self.least = delay;
            }
            return keep;
        }
        let floor = &mut self.floor[self.rank_of[widths.find(width) as usize] as usize..];
        if floor[0] <= delay {
            return false;
        }
        for least in floor {
            if *least <= delay {
                break;
            }
            *least = delay;
        }
        true
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

/// Exact-value classes of `f64` keys: an open-addressing table from a
/// key's bits, `(x + 0.0).to_bits()` (so `-0.0` and `0.0` share a class),
/// to a dense class id, with each class's count. After
/// [`ClassTable::lay_out`] the classes are ranked by ascending key and
/// each count becomes its class's next free offset in a key-ordered
/// layout. This is the one hash table of every grouping pass: the width
/// classes of [`WidthRuns`] and of each [`WidthFloor`] sweep, and the
/// exact-cap buckets that order the tree DP's branch-merge products.
///
/// The table's slot is the top bits of a multiplicative hash: widths on
/// the library grid end in dozens of zero mantissa bits, so the
/// product's low bits are zero too and a low-bit slot would put every
/// class in slot 0.
#[derive(Debug, Default)]
pub(crate) struct ClassTable {
    /// Class ids (`EMPTY` = free slot), a power of two at most half full.
    slots: Vec<u32>,
    /// Each class's key bits.
    keys: Vec<u64>,
    /// Each class's count, then (after `lay_out`) its next free offset.
    counts: Vec<u32>,
    /// Class ids in ascending key order (after `lay_out`).
    ranked: Vec<u32>,
}

const EMPTY: u32 = u32::MAX;
/// Slots of the class table at the start of each grouping.
const MIN_SLOTS: usize = 64;

/// The table slot of key `bits` among `len` (a power of two) slots: the
/// top bits of a multiplicative (Fibonacci) hash, which depend on every
/// bit of the key.
#[inline]
fn slot_of(bits: u64, len: usize) -> usize {
    (bits.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - len.trailing_zeros())) as usize
}

impl ClassTable {
    /// Forgets every class, keeping capacity.
    pub(crate) fn reset(&mut self) {
        self.keys.clear();
        self.counts.clear();
        self.slots.clear();
        self.slots.resize(MIN_SLOTS, EMPTY);
    }

    /// The slot holding the class of key `bits`, or the free slot where
    /// it belongs.
    #[inline]
    fn probe(&self, bits: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut s = slot_of(bits, self.slots.len());
        loop {
            match self.slots[s] {
                EMPTY => return s,
                c if self.keys[c as usize] == bits => return s,
                _ => s = (s + 1) & mask,
            }
        }
    }

    /// Counts one occurrence of `x` and returns its class, created on
    /// first sight.
    #[inline]
    pub(crate) fn insert(&mut self, x: f64) -> u32 {
        let bits = (x + 0.0).to_bits();
        let s = self.probe(bits);
        let class = match self.slots[s] {
            EMPTY => {
                let class = self.keys.len() as u32;
                self.slots[s] = class;
                self.keys.push(bits);
                self.counts.push(0);
                if 2 * self.keys.len() > self.slots.len() {
                    self.grow();
                }
                class
            }
            c => c,
        };
        self.counts[class as usize] += 1;
        class
    }

    /// The class of `x`, which must have been inserted since the last
    /// reset.
    #[inline]
    pub(crate) fn find(&self, x: f64) -> u32 {
        let class = self.slots[self.probe((x + 0.0).to_bits())];
        debug_assert_ne!(class, EMPTY, "key {x} was never inserted");
        class
    }

    /// Doubles the table and re-inserts every class.
    fn grow(&mut self) {
        let len = 2 * self.slots.len();
        self.slots.clear();
        self.slots.resize(len, EMPTY);
        for (class, &bits) in self.keys.iter().enumerate() {
            let mut s = slot_of(bits, len);
            while self.slots[s] != EMPTY {
                s = (s + 1) & (len - 1);
            }
            self.slots[s] = class as u32;
        }
    }

    /// Lays the classes out in ascending key order, each as one
    /// contiguous run of its count: appends each run's start offset, in
    /// rank order, and then the total to `starts`, and turns each
    /// class's count into its run's start (see [`ClassTable::take`]).
    pub(crate) fn lay_out(&mut self, starts: &mut Vec<u32>) {
        self.sort_ranked();
        let mut offset = 0;
        for &c in &self.ranked {
            starts.push(offset);
            let count = self.counts[c as usize];
            self.counts[c as usize] = offset;
            offset += count;
        }
        starts.push(offset);
    }

    /// Sorts the class ids by ascending key into `ranked`. Distinct keys
    /// are distinct values, so the ranking has no ties.
    fn sort_ranked(&mut self) {
        let Self { keys, ranked, .. } = self;
        ranked.clear();
        ranked.extend(0..keys.len() as u32);
        let key = |c: &u32| f64::from_bits(keys[*c as usize]);
        ranked.sort_unstable_by(|x, y| cmp_f64(key(x), key(y)));
    }

    /// Writes each class's rank in ascending key order to
    /// `rank_of[class]`. Counts are not used, so classes may be inserted
    /// after [`ClassTable::lay_out`] and ranked with the rest.
    fn rank(&mut self, rank_of: &mut Vec<u32>) {
        self.sort_ranked();
        rank_of.clear();
        rank_of.resize(self.ranked.len(), 0);
        for (r, &c) in self.ranked.iter().enumerate() {
            rank_of[c as usize] = r as u32;
        }
    }

    /// The key of `class`.
    pub(crate) fn key(&self, class: u32) -> f64 {
        f64::from_bits(self.keys[class as usize])
    }

    /// The class ids in ascending key order, after
    /// [`ClassTable::lay_out`].
    pub(crate) fn ranked(&self) -> &[u32] {
        &self.ranked
    }

    /// The next free offset in `class`'s run, after
    /// [`ClassTable::lay_out`].
    #[inline]
    pub(crate) fn next(&self, class: u32) -> usize {
        self.counts[class as usize] as usize
    }

    /// Takes the next free offset in `class`'s run.
    #[inline]
    pub(crate) fn take(&mut self, class: u32) -> usize {
        let next = &mut self.counts[class as usize];
        *next += 1;
        *next as usize - 1
    }
}

/// A frontier (or a range of one) regrouped into runs of exactly equal
/// width: the width classes of the buffer-insertion step and of the tree
/// DP's branch merge. Within a run the options keep their index order,
/// so their caps stay non-decreasing.
///
/// Classing is linear in the options: the [`ClassTable`] gives each
/// option its class, only the few distinct widths are sorted, and a
/// counting pass scatters the indices stably into their runs. A frontier
/// holds about 30 classes among hundreds of options, so sorting the
/// classes costs far less than sorting every index.
#[derive(Debug, Default)]
pub(crate) struct WidthRuns {
    /// Option indices, sorted by width, then index.
    order: Vec<u32>,
    /// Offset of each run in `order`, then `order.len()`.
    starts: Vec<u32>,
    /// The width classes.
    table: ClassTable,
    /// The class of each option of the range, in index order.
    class_of: Vec<u32>,
}

impl WidthRuns {
    pub(crate) fn clear(&mut self) {
        self.order.clear();
        self.starts.clear();
    }

    /// Groups the options `range` of a frontier by `widths`, or keeps
    /// them as one run when `by_width` is off. Widths compare under
    /// `==`, so `-0.0` and `0.0` share a class.
    pub(crate) fn group(&mut self, widths: &[f64], range: Range<usize>, by_width: bool) {
        self.clear();
        if !by_width {
            self.order.extend(range.map(|i| i as u32));
            if !self.order.is_empty() {
                self.starts.push(0);
            }
            self.starts.push(self.order.len() as u32);
            return;
        }
        let Self {
            order,
            starts,
            table,
            class_of,
        } = self;
        table.reset();
        class_of.clear();
        class_of.extend(widths[range.clone()].iter().map(|&w| table.insert(w)));
        table.lay_out(starts);
        order.resize(
            *starts.last().expect("lay_out pushes the total") as usize,
            0,
        );
        for (&c, i) in class_of.iter().zip(range) {
            order[table.take(c)] = i as u32;
        }
    }

    /// The runs in ascending width order, each listing its option
    /// indices in ascending order.
    pub(crate) fn runs(&self) -> impl Iterator<Item = &[u32]> {
        self.starts
            .windows(2)
            .map(|w| &self.order[w[0] as usize..w[1] as usize])
    }
}

/// One width class of the buffer-insertion step, ready for
/// [`bounded_argmin`]: its caps and delays gathered in run order, with
/// their prefix and suffix delay minima. None of it depends on the
/// library width, so every width reuses it. One run at a time is held,
/// so the buffers grow to the largest class, not to the frontier.
#[derive(Debug, Default)]
struct ClassScan {
    cap: Vec<f64>,
    delay: Vec<f64>,
    /// Least delay of the run's options up to and including each one.
    pre: Vec<f64>,
    /// Least delay of the run's options from each one on.
    suf: Vec<f64>,
}

impl ClassScan {
    /// Gathers the options `run` of `front` and their delay minima.
    fn start(&mut self, run: &[u32], front: &OptionBuf) {
        let Self {
            cap,
            delay,
            pre,
            suf,
        } = self;
        cap.clear();
        delay.clear();
        pre.clear();
        let mut least = f64::INFINITY;
        for &i in run {
            let d = front.delay[i as usize];
            cap.push(front.cap[i as usize]);
            delay.push(d);
            if d < least {
                least = d;
            }
            pre.push(least);
        }
        suf.clear();
        suf.resize(run.len(), 0.0);
        let mut least = f64::INFINITY;
        for (d, s) in delay.iter().zip(suf.iter_mut()).rev() {
            if *d < least {
                least = *d;
            }
            *s = least;
        }
    }

    /// [`bounded_argmin`] of `f` over the run, from position `start`.
    #[inline]
    fn argmin(&self, start: usize, f: impl Fn(f64, f64) -> f64) -> (f64, usize, Range<usize>) {
        bounded_argmin(&self.delay, &self.cap, &self.pre, &self.suf, start, f)
    }
}

/// The least `f(delay[p], cap[p])` of a class run and the lowest
/// position `p` reaching it, as a full scan would find them, by a scan
/// from `start` that stops where a bound proves no further option wins.
/// Also returns the positions it evaluated.
///
/// `cap` must be non-decreasing, `pre` and `suf` the run's prefix and
/// suffix minima of `delay`, and `f` non-decreasing in both arguments
/// under its rounding. Then `f(suf[p], cap[p])` bounds every option
/// from `p` on, so the forward scan stops at the first `p` whose bound
/// is not below the least so far: none after it can beat that least,
/// and a tie keeps the lower position. And `f(pre[p], cap[0])` bounds
/// every option up to `p`, so the backward scan stops at the first `p`
/// whose bound exceeds the least; it takes ties, which lie lower.
fn bounded_argmin(
    delay: &[f64],
    cap: &[f64],
    pre: &[f64],
    suf: &[f64],
    start: usize,
    f: impl Fn(f64, f64) -> f64,
) -> (f64, usize, Range<usize>) {
    let mut least = f(delay[start], cap[start]);
    let mut at = start;
    let mut end = start + 1;
    while end < delay.len() && f(suf[end], cap[end]) < least {
        let d = f(delay[end], cap[end]);
        if d < least {
            least = d;
            at = end;
        }
        end += 1;
    }
    let mut begin = start;
    while begin > 0 && f(pre[begin - 1], cap[0]) <= least {
        begin -= 1;
        let d = f(delay[begin], cap[begin]);
        if d <= least {
            least = d;
            at = begin;
        }
    }
    (least, at, begin..end)
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
/// 3D one in power mode, under `floor`, started on the width classes of
/// `widths` in power mode and width-blind in delay mode. Ties
/// on the key prefer `cur`, reproducing the reference pruner's stable
/// sort of `[survivors.., fresh..]`. A kept fresh option gets its trace
/// from `record(w, parent_trace)`, `w` being its entry in `fresh_w`, in
/// merged order.
fn merge_prune<const POWER: bool>(
    cur: &mut OptionBuf,
    fresh: &OptionBuf,
    fresh_w: &[f64],
    merged: &mut OptionBuf,
    floor: &mut WidthFloor,
    widths: &ClassTable,
    mut record: impl FnMut(f64, u32) -> u32,
) {
    merged.clear();
    let (mut i, mut j) = (0usize, 0usize);
    while i < cur.len() || j < fresh.len() {
        let take_cur = if i >= cur.len() {
            false
        } else if j >= fresh.len() {
            true
        } else {
            cmp_key::<POWER>(cur, i, fresh, j) != Ordering::Greater
        };
        if take_cur {
            let (delay, width) = (cur.delay[i], cur.width[i]);
            if floor.keeps(widths, width, delay) {
                merged.push(cur.cap[i], delay, width, cur.trace[i]);
            }
            i += 1;
        } else {
            let (delay, width) = (fresh.delay[j], fresh.width[j]);
            if floor.keeps(widths, width, delay) {
                let trace = record(fresh_w[j], fresh.trace[j]);
                merged.push(fresh.cap[j], delay, width, trace);
            }
            j += 1;
        }
    }
    std::mem::swap(cur, merged);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::prune::{prune_2d, prune_3d, Staircase};

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
            buf.push(c, d, w, i as u32);
        }
        buf
    }

    fn rows(buf: &OptionBuf) -> Vec<(f64, f64, f64, u32)> {
        (0..buf.len())
            .map(|i| (buf.cap[i], buf.delay[i], buf.width[i], buf.trace[i]))
            .collect()
    }

    /// The oracle: what the reference pruner produces from the
    /// concatenated survivors + fresh options, each fresh survivor with
    /// the trace `record` gives it in merged order.
    fn reference_3d(
        cur: &OptionBuf,
        fresh: &OptionBuf,
        fresh_w: &[f64],
        mut record: impl FnMut(f64, u32) -> u32,
    ) -> Vec<(f64, f64, f64, u32)> {
        // `(cap, delay, width, trace, inserted width)`, `NaN` = carried.
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
            .chain((0..fresh.len()).map(|j| {
                let (c, d, w) = (fresh.cap[j], fresh.delay[j], fresh.width[j]);
                (c, d, w, fresh.trace[j], fresh_w[j])
            }))
            .collect();
        prune_3d(&mut all, |r| (r.0, r.1, r.2));
        all.iter()
            .map(|&(c, d, w, trace, inserted)| {
                let trace = if inserted.is_nan() {
                    trace
                } else {
                    record(inserted, trace)
                };
                (c, d, w, trace)
            })
            .collect()
    }

    /// The power-mode merge as [`InsertStep::merge_into`] runs it: every
    /// width of `cur` and `fresh` classed and ranked, then the floor.
    fn merge_power(
        cur: &mut OptionBuf,
        fresh: &OptionBuf,
        fresh_w: &[f64],
        record: impl FnMut(f64, u32) -> u32,
    ) {
        let mut table = ClassTable::default();
        table.reset();
        for &width in cur.width.iter().chain(&fresh.width) {
            table.insert(width);
        }
        let mut floor = WidthFloor::default();
        floor.start(Some(&mut table));
        let mut merged = OptionBuf::default();
        merge_prune::<true>(cur, fresh, fresh_w, &mut merged, &mut floor, &table, record);
    }

    /// A recorder handing out handles from 1000 up, logging each call.
    fn recorder(log: &mut Vec<(f64, u32)>) -> impl FnMut(f64, u32) -> u32 + '_ {
        |w, prev| {
            log.push((w, prev));
            1000 + log.len() as u32 - 1
        }
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
            let mut fresh_w = Vec::new();
            let mut bucket = Vec::new();
            for b in 0..4 {
                let cap = 10.0 + b as f64; // above most cur caps, distinct
                bucket.clear();
                for s in 0..12u32 {
                    bucket.push(BucketItem {
                        delay: lcg(&mut state),
                        width: lcg(&mut state),
                        trace: 100 + s,
                        seq: s,
                    });
                }
                reduce_bucket(&mut bucket, |item| {
                    fresh.push(cap, item.delay, item.width, item.trace);
                    fresh_w.push(cap);
                });
            }
            let (mut expect_log, mut log) = (Vec::new(), Vec::new());
            let expect = reference_3d(&cur, &fresh, &fresh_w, recorder(&mut expect_log));
            merge_power(&mut cur, &fresh, &fresh_w, recorder(&mut log));
            assert_eq!(rows(&cur), expect, "round {round}");
            assert_eq!(log, expect_log, "round {round}");
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
                cur.push(c, d, 0.0, i as u32);
            }
            let mut fresh = OptionBuf::default();
            let mut fresh_w = Vec::new();
            for b in 0..5 {
                let cap = 9.0 + b as f64;
                let mut bucket: Vec<BucketItem> = (0..8u32)
                    .map(|s| BucketItem {
                        delay: lcg(&mut state),
                        width: 0.0,
                        trace: 100 + s,
                        seq: s,
                    })
                    .collect();
                // Equal widths: only the earliest least delay survives,
                // the one insertion a delay-mode bucket holds.
                reduce_bucket(&mut bucket, |item| {
                    fresh.push(cap, item.delay, item.width, item.trace);
                    fresh_w.push(cap);
                });
            }
            let mut all: Vec<Row> = (0..cur.len())
                .map(|i| (cur.cap[i], cur.delay[i], 0.0, cur.trace[i], f64::NAN))
                .chain((0..fresh.len()).map(|j| {
                    (
                        fresh.cap[j],
                        fresh.delay[j],
                        0.0,
                        fresh.trace[j],
                        fresh_w[j],
                    )
                }))
                .collect();
            prune_2d(&mut all, |r| (r.0, r.1));
            let mut expect_log = Vec::new();
            let expect: Vec<(f64, f64, f64, u32)> = {
                let mut record = recorder(&mut expect_log);
                all.iter()
                    .map(|&(c, d, w, trace, inserted)| {
                        let trace = if inserted.is_nan() {
                            trace
                        } else {
                            record(inserted, trace)
                        };
                        (c, d, w, trace)
                    })
                    .collect()
            };
            let mut floor = WidthFloor::default();
            floor.start(None);
            let mut merged = OptionBuf::default();
            let mut log = Vec::new();
            merge_prune::<false>(
                &mut cur,
                &fresh,
                &fresh_w,
                &mut merged,
                &mut floor,
                &ClassTable::default(),
                recorder(&mut log),
            );
            assert_eq!(rows(&cur), expect, "round {round}");
            assert_eq!(log, expect_log, "round {round}");
        }
    }

    #[test]
    fn power_merge_without_insertions_prunes_a_wire_crossed_frontier() {
        // The chain's empty-generation path: a wire crossing adds
        // `R·cap` to each delay, so an option of larger cap but smaller
        // delay can fall behind one of smaller cap, and the merge that
        // follows must drop it although nothing was generated (no width
        // in the library, or every insertion over the target).
        let mut state = 0x3D3Du64;
        let mut step = InsertStep::default();
        let (mut dropped, mut kept_all) = (0, 0);
        for round in 0..200 {
            let items: Vec<(f64, f64, f64)> = (0..30)
                .map(|_| (lcg(&mut state), 3.0 * lcg(&mut state), lcg(&mut state)))
                .collect();
            let mut cur = sorted_buf_from(&items);
            for i in 0..cur.len() {
                cur.delay[i] += 1.0 + 2.0 * cur.cap[i];
                cur.cap[i] += 0.5;
            }
            let mut expect: Vec<(f64, f64, f64, u32)> = rows(&cur);
            prune_3d(&mut expect, |r| (r.0, r.1, r.2));
            let widths: &[f64] = if round % 2 == 0 { &[] } else { &[1.0, 2.0] };
            let created = step.generate(&cur, widths, POWER, |w| w, |_, d, _| d, |_, _| false);
            assert_eq!(created, cur.len() as u64);
            assert!(!step.generated_any());
            let before = cur.len();
            step.merge_into(&mut cur, POWER, |_, _| unreachable!("nothing to record"));
            assert_eq!(rows(&cur), expect, "round {round}");
            if cur.len() < before {
                dropped += 1;
            } else {
                kept_all += 1;
            }
        }
        assert!(
            dropped > 0,
            "no wire crossing ever made an option dominated"
        );
        assert!(kept_all > 0, "every wire crossing dropped an option");
    }

    #[test]
    fn width_floor_matches_staircase_on_fuzz() {
        // Key-ordered `(cap, delay, width)` streams, as every prune sweep
        // feeds them. Before each item the read-only `dominates` query
        // (the branch-merge pre-filter's test) must answer what the
        // staircase answers, and `keeps` must keep and drop exactly what
        // the staircase keeps and drops. The same streams with width
        // ignored pin the one-class floor of the delay objective to the
        // least-delay record.
        let mut state = 0xF100Fu64;
        let mut table = ClassTable::default();
        let (mut floor, mut one_class) = (WidthFloor::default(), WidthFloor::default());
        let (mut few, mut grew, mut signed_zero, mut neighbours) = (false, false, false, false);
        let (mut duplicate, mut delay_tie, mut summed) = (false, false, false);
        for round in 0..1000 {
            let n = 1 + round % 150;
            // A width the DP accumulates, on a fractional grid.
            let fraction = |state: &mut u64| 0.1 * lcg(state) + 0.7 * lcg(state);
            let mut items: Vec<(f64, f64, f64)> = (0..n)
                .map(|_| {
                    let k = lcg(&mut state);
                    let width = match round % 5 {
                        // Few classes on the 10 u grid.
                        0 => 10.0 * k,
                        // Up to 81 classes, so the table grows.
                        1 => 10.0 * (k * 9.0 + lcg(&mut state)),
                        // Bit neighbours and signed zeros.
                        2 => [0.3, 0.2 + 0.1, 0.0, -0.0, 370.0][k as usize % 5],
                        3 => fraction(&mut state),
                        // Sums of two such widths, as a branch merge adds
                        // its sides' widths: over 64 classes, some of them
                        // bit neighbours.
                        _ => fraction(&mut state) + fraction(&mut state),
                    };
                    (lcg(&mut state), lcg(&mut state), width)
                })
                .collect();
            items.sort_by(|a, b| {
                cmp_f64(a.0, b.0)
                    .then(cmp_f64(a.1, b.1))
                    .then(cmp_f64(a.2, b.2))
            });
            table.reset();
            for &(_, _, width) in &items {
                table.insert(width);
            }
            floor.start(Some(&mut table));
            one_class.start(None);
            let mut stairs = Staircase::new();
            let mut least = f64::INFINITY;
            for (i, &(_, delay, width)) in items.iter().enumerate() {
                let ctx = || format!("round {round} item {i}: {:?}", items[i]);
                let dominated = stairs.dominates(delay, width);
                assert_eq!(
                    floor.dominates(&table, width, delay),
                    dominated,
                    "{}",
                    ctx()
                );
                assert_eq!(floor.keeps(&table, width, delay), !dominated, "{}", ctx());
                if !dominated {
                    stairs.insert(delay, width);
                }
                let (d, k) = (delay >= least, delay < least);
                assert_eq!(one_class.dominates(&table, width, delay), d, "{}", ctx());
                assert_eq!(one_class.keeps(&table, width, delay), k, "{}", ctx());
                least = least.min(delay);
            }
            let classes = table.keys.len();
            few |= n >= 50 && classes <= 9;
            grew |= classes > 64 && table.slots.len() > MIN_SLOTS;
            let bits = |x: f64| x.to_bits();
            signed_zero |= items.iter().any(|x| bits(x.2) == bits(0.0))
                && items.iter().any(|x| bits(x.2) == bits(-0.0));
            neighbours |=
                items.iter().any(|x| x.2 == 0.3) && items.iter().any(|x| x.2 == 0.2 + 0.1);
            summed |= round % 5 == 4
                && classes > 64
                && items
                    .iter()
                    .any(|x| items.iter().any(|y| x.2 != y.2 && (x.2 - y.2).abs() < 1e-9));
            duplicate |= items.windows(2).any(|w| {
                (bits(w[0].0), bits(w[0].1), bits(w[0].2))
                    == (bits(w[1].0), bits(w[1].1), bits(w[1].2))
            });
            delay_tie |= items
                .iter()
                .enumerate()
                .any(|(i, a)| items[..i].iter().any(|b| b.1 == a.1 && b.2 != a.2));
        }
        assert!(few, "no stream had few classes");
        assert!(grew, "no stream had more than 64 classes");
        assert!(signed_zero, "no stream held both -0.0 and 0.0");
        assert!(neighbours, "no stream held both 0.3 and 0.2 + 0.1");
        assert!(
            summed,
            "no stream of summed widths had over 64 classes and bit neighbours"
        );
        assert!(duplicate, "no stream held an exact duplicate");
        assert!(delay_tie, "no stream held equal delays across classes");
    }

    /// One option as the reference pruner sees it: `(cap, delay, width,
    /// parent trace, inserted width)`, inserted `NaN` for a carried
    /// option.
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
                cur.push(c, d, w, 10 + i as u32);
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
            // The DP makes the frontier's options and one insertion per
            // (library width, width class) that admits any.
            let mut expect_created = cur.len() as u64;
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
                let mut classes: Vec<u64> = bucket
                    .iter()
                    .map(|&(parent, _)| match objective {
                        Objective::MinDelay => 0,
                        Objective::MinPowerUnderDelay { .. } => (parent + 0.0).to_bits(),
                    })
                    .collect();
                classes.sort_unstable();
                classes.dedup();
                expect_created += classes.len() as u64;
            }
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
                .map(|&(cap, delay, width, prev, inserted)| {
                    let trace = if inserted.is_nan() {
                        prev
                    } else {
                        expect_recorded.push((inserted, prev));
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

    /// The chain's stage delay `d + (i + R·c)` and the tree's
    /// `(d + i) + R·c`.
    fn stage_forms(i: f64, r: f64) -> [Box<dyn Fn(f64, f64) -> f64>; 2] {
        [
            Box::new(move |d, c| d + (i + r * c)),
            Box::new(move |d, c| (d + i) + r * c),
        ]
    }

    /// The full scan the bounded one replaces: the least `f` of the run,
    /// as bits, and its first position.
    fn full_scan(delay: &[f64], cap: &[f64], f: &dyn Fn(f64, f64) -> f64) -> (u64, usize) {
        let mut best = (f(delay[0], cap[0]), 0);
        for p in 1..delay.len() {
            let d = f(delay[p], cap[p]);
            if d < best.0 {
                best = (d, p);
            }
        }
        (best.0.to_bits(), best.1)
    }

    /// Prefix and suffix minima of `delay`.
    fn minima(delay: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let scan = |it: &mut dyn Iterator<Item = &f64>| {
            let mut least = f64::INFINITY;
            it.map(|&d| {
                least = least.min(d);
                least
            })
            .collect::<Vec<f64>>()
        };
        let pre = scan(&mut delay.iter());
        let mut suf = scan(&mut delay.iter().rev());
        suf.reverse();
        (pre, suf)
    }

    #[test]
    fn bounded_argmin_matches_full_scan_on_fuzz() {
        // A class run as the insertion step sees it: caps non-decreasing
        // (quantised, often equal, signed zeros at the low end) and
        // quantised delays that fall with cap as on a pruned frontier,
        // rise with it as after a wire crossing, or neither. From every
        // start, for several drive strengths and both roundings, the
        // bounded scan must return the full scan's `(delay bits, index)`.
        // An intrinsic of `-0.0` keeps a delay's sign in `f`, so picking
        // `-0.0` for `0.0` would show in the bits.
        let mut state = 0xA6F1u64;
        let (mut forward_stop, mut backward_stop) = (false, false);
        let (mut single, mut signed_zero, mut rising) = (false, false, false);
        for round in 0..600 {
            let n = if round % 10 == 0 { 1 } else { 1 + round % 37 };
            let mut cap = Vec::with_capacity(n);
            let mut c = if round % 3 == 0 { -0.0 } else { 0.0 };
            for _ in 0..n {
                let step = lcg(&mut state);
                if step >= 4.0 {
                    c += (step - 4.0) * 0.5;
                }
                cap.push(c);
            }
            let delay: Vec<f64> = (0..n)
                .map(|p| {
                    let noise = lcg(&mut state);
                    match round % 4 {
                        0 => 40.0 - 3.0 * p as f64 + noise,
                        1 => {
                            rising = true;
                            noise + 1.5 * cap[p]
                        }
                        2 => [0.0, -0.0, 1.0, 2.0][noise as usize % 4],
                        _ => noise,
                    }
                })
                .collect();
            signed_zero |= delay.iter().any(|d| d.to_bits() == (-0.0f64).to_bits())
                && delay.iter().any(|d| d.to_bits() == 0);
            single |= n == 1;
            let (pre, suf) = minima(&delay);
            for (i, r) in [
                (-0.0, 0.0),
                (0.5, 0.37),
                (1.0, 1.0),
                (0.0, 2.5),
                (3.25, 0.125),
            ] {
                for f in stage_forms(i, r) {
                    let expect = full_scan(&delay, &cap, &f);
                    for start in 0..n {
                        let (least, at, seen) = bounded_argmin(&delay, &cap, &pre, &suf, start, &f);
                        assert_eq!(
                            (least.to_bits(), at),
                            expect,
                            "round {round} start {start} i {i} r {r}: {delay:?} {cap:?}"
                        );
                        forward_stop |= seen.end < n;
                        backward_stop |= seen.start > 0;
                    }
                }
            }
        }
        assert!(forward_stop, "no forward scan ever stopped early");
        assert!(backward_stop, "no backward scan ever stopped early");
        assert!(single && signed_zero && rising);

        // The site flow: each class scanned for ascending widths from its
        // last argmin, then admitted once, against the full scan of every
        // class followed by the admission of each insertion. Generation
        // must emit the same width buckets and count the admitted class
        // minima.
        let mut step = InsertStep::default();
        let (mut inside, mut class_rejected, mut all_rejected) = (false, false, false);
        for round in 0..400 {
            let objective = if round % 3 == 0 {
                Objective::MinDelay
            } else {
                POWER
            };
            let rows: Vec<(f64, f64, f64)> = (0..1 + round % 41)
                .map(|_| {
                    let c = lcg(&mut state);
                    (
                        c,
                        30.0 - 2.0 * c + lcg(&mut state),
                        (lcg(&mut state) / 3.0).floor(),
                    )
                })
                .collect();
            let mut cur = sorted_buf_from(&rows);
            if round % 2 == 1 {
                // A wire crossing: delay rises with cap.
                for k in 0..cur.len() {
                    cur.delay[k] += 2.0 * cur.cap[k];
                }
            }
            let limit = if round % 5 == 4 {
                -1.0
            } else {
                20.0 + 4.0 * lcg(&mut state)
            };
            let widths = [1.0, 2.0, 4.0, 8.0];
            let rounding = round % 2;
            let drive = |w: f64, d: f64, c: f64| stage_forms(0.5, 8.0 / w)[rounding](d, c);
            let admits = |d: f64, _| d <= limit;
            let by_width = objective != Objective::MinDelay;
            let classes = sorted_runs(&cur.width, 0..cur.len(), by_width);
            let mut expect: Vec<(u64, u64, u64, u32, u64)> = Vec::new();
            let mut expect_created = cur.len() as u64;
            let mut last: Vec<usize> = classes.iter().map(|run| run.len() - 1).collect();
            for &w in &widths {
                let cap = w;
                let mut bucket = Vec::new();
                for (k, run) in classes.iter().enumerate() {
                    let d: Vec<f64> = run.iter().map(|&i| cur.delay[i as usize]).collect();
                    let c: Vec<f64> = run.iter().map(|&i| cur.cap[i as usize]).collect();
                    let (bits, at) = full_scan(&d, &c, &|d, c| drive(w, d, c));
                    inside |= 0 < last[k] && last[k] + 1 < run.len();
                    last[k] = at;
                    let i = run[at] as usize;
                    let admitted = (0..run.len()).any(|p| admits(drive(w, d[p], c[p]), cap));
                    assert_eq!(admitted, admits(f64::from_bits(bits), cap));
                    class_rejected |= !admitted && classes.len() > 1;
                    if admitted {
                        expect_created += 1;
                        bucket.push(BucketItem {
                            delay: f64::from_bits(bits),
                            width: cur.width[i] + w,
                            trace: cur.trace[i],
                            seq: i as u32,
                        });
                    }
                }
                reduce_bucket(&mut bucket, |item| {
                    let (d, wd) = (item.delay.to_bits(), item.width.to_bits());
                    expect.push((cap.to_bits(), d, wd, item.trace, w.to_bits()));
                });
            }
            all_rejected |= expect.is_empty();
            let created = step.generate(&cur, &widths, objective, |w| w, drive, admits);
            let got: Vec<(u64, u64, u64, u32, u64)> = (0..step.fresh.len())
                .map(|j| {
                    let f = &step.fresh;
                    let bits = (
                        f.cap[j].to_bits(),
                        f.delay[j].to_bits(),
                        f.width[j].to_bits(),
                    );
                    (
                        bits.0,
                        bits.1,
                        bits.2,
                        f.trace[j],
                        step.fresh_w[j].to_bits(),
                    )
                })
                .collect();
            assert_eq!(got, expect, "round {round} {objective:?} limit {limit}");
            assert_eq!(created, expect_created, "round {round}");
        }
        assert!(inside, "no scan ever started inside its run");
        assert!(class_rejected, "no class was ever rejected beside another");
        assert!(all_rejected, "no site ever rejected every insertion");
    }

    #[test]
    fn stage_delay_forms_are_monotone_on_fuzz() {
        // The premise of the bounded scan: both roundings of the stage
        // delay are non-decreasing in the delay and in the cap, for any
        // resistance `R >= 0`. Values span magnitudes, include signed
        // zeros and pairs one bit apart, where rounding is decisive.
        let mut state = 0x0DDu64;
        let value = |state: &mut u64| {
            let k = lcg(state);
            match k as u32 % 4 {
                0 => [0.0, -0.0, 1.0, 0.1][lcg(state) as usize % 4],
                1 => lcg(state) * 0.37 * 10f64.powi(lcg(state) as i32 - 4),
                2 => 0.2 + 0.1,
                _ => 1.0e5 * lcg(state) + 0.3,
            }
        };
        let bump = |x: f64| {
            if x == 0.0 {
                f64::from_bits(1)
            } else {
                f64::from_bits(x.to_bits() + 1)
            }
        };
        let mut checked = 0;
        for _ in 0..20_000 {
            let (i, r) = (value(&mut state), value(&mut state));
            let (d, c) = (value(&mut state), value(&mut state));
            let (d2, c2) = if lcg(&mut state) >= 4.0 {
                (bump(d), bump(c))
            } else {
                (d + value(&mut state), c + value(&mut state))
            };
            for f in stage_forms(i, r) {
                assert!(f(d, c) <= f(d2, c), "delay {d} -> {d2}, i {i} r {r} c {c}");
                assert!(f(d, c) <= f(d, c2), "cap {c} -> {c2}, i {i} r {r} d {d}");
                checked += 1;
            }
        }
        assert_eq!(checked, 40_000);
    }

    #[test]
    fn insert_step_breaks_ties_across_width_classes_by_frontier_index() {
        // Two width classes one bit apart whose `+ w` sums round to the
        // same bits and whose insertions tie on delay: the duplicate from
        // the lower frontier index survives, although its class sorts
        // after the other.
        let mut front = OptionBuf::default();
        front.push(5.0, 1.0, 0.2 + 0.1, 7);
        front.push(6.0, 1.0, 0.3, 9);
        assert!(front.width[0] > front.width[1]);
        assert_eq!(
            (front.width[0] + 1.0).to_bits(),
            (front.width[1] + 1.0).to_bits()
        );
        let mut step = InsertStep::default();
        let created = step.generate(&front, &[1.0], POWER, |w| w, |_, d, _| d, |_, _| true);
        assert_eq!(created, 4, "two options and two class minima");
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

    /// The grouping `WidthRuns::group` replaced: every index of `range`
    /// sorted by width, then index, and cut where the width changes.
    fn sorted_runs(widths: &[f64], range: Range<usize>, by_width: bool) -> Vec<Vec<u32>> {
        let mut order: Vec<u32> = range.map(|i| i as u32).collect();
        let width = |k: u32| widths[k as usize];
        if by_width {
            order.sort_unstable_by(|&x, &y| cmp_f64(width(x), width(y)).then(x.cmp(&y)));
        }
        let mut runs: Vec<Vec<u32>> = Vec::new();
        for (k, &i) in order.iter().enumerate() {
            if k == 0 || (by_width && width(i) != width(order[k - 1])) {
                runs.push(Vec::new());
            }
            runs.last_mut().expect("a run is open").push(i);
        }
        runs
    }

    #[test]
    fn width_runs_group_matches_sort_oracle_on_fuzz() {
        let mut state = 0xC1A55u64;
        let mut runs = WidthRuns::default();
        let (mut grew, mut signed_zero, mut neighbours) = (false, false, false);
        for round in 0..600 {
            let n = round % 97;
            let widths: Vec<f64> = (0..n)
                .map(|_| {
                    let k = lcg(&mut state);
                    match round % 4 {
                        // Few classes on the 10 u grid.
                        0 => 10.0 * k,
                        // Up to 97 classes, so the table grows.
                        1 => 10.0 * (k * 8.0 + lcg(&mut state)),
                        // Bit neighbours and signed zeros.
                        2 => [0.3, 0.2 + 0.1, 0.0, -0.0, 370.0][k as usize % 5],
                        // Fractional widths a DP accumulates.
                        _ => 0.1 * k + 0.7 * lcg(&mut state),
                    }
                })
                .collect();
            let start = if round % 3 == 0 { 0 } else { n / 3 };
            let end = if round % 5 == 0 { start } else { n };
            for by_width in [true, false] {
                runs.group(&widths, start..end, by_width);
                let got: Vec<Vec<u32>> = runs.runs().map(<[u32]>::to_vec).collect();
                let expect = sorted_runs(&widths, start..end, by_width);
                assert_eq!(got, expect, "round {round} by_width {by_width}");
            }
            grew |= runs.table.slots.len() > MIN_SLOTS;
            let slice = &widths[start..end];
            signed_zero |= slice.iter().any(|w| w.to_bits() == 0)
                && slice.iter().any(|w| w.to_bits() == (-0.0f64).to_bits());
            neighbours |= slice.contains(&0.3) && slice.contains(&(0.2 + 0.1));
        }
        assert!(grew, "the class table never grew");
        assert!(signed_zero, "no range held both -0.0 and 0.0");
        assert!(neighbours, "no range held both 0.3 and 0.2 + 0.1");
    }

    #[test]
    fn select_breaks_ties_towards_the_earliest_option() {
        let mut front = OptionBuf::default();
        for (delay, width) in [(5.0, 3.0), (4.0, 9.0), (4.0, 9.0), (6.0, 3.0)] {
            front.push(0.0, delay, width, 0);
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
        buf.push(1.0, 5.0, 10.0, 1);
        buf.push(2.0, 50.0, 20.0, 2);
        buf.push(3.0, 6.0, 30.0, 3);
        buf.retain_delay_le(10.0);
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.cap, vec![1.0, 3.0]);
        assert_eq!(buf.delay, vec![5.0, 6.0]);
        assert_eq!(buf.width, vec![10.0, 30.0]);
        assert_eq!(buf.trace, vec![1, 3]);
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
            fresh.push(1.0, item.delay, item.width, item.trace);
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
            s.cur.push(1.0, 2.0, 3.0, 0);
        }
        let cap_before = s.cur.cap.capacity();
        s.reset();
        assert_eq!(s.cur.len(), 0);
        assert!(s.cur.cap.capacity() >= cap_before);
    }
}
