//! Tree DP: van Ginneken / Lillis buffering on RC trees.
//!
//! The paper's final section announces an extension of the hybrid scheme
//! to interconnect trees; this module supplies the DP half of that
//! extension. Options propagate bottom-up: lifted across edges
//! (`delay += D_e + R_e·cap; cap += C_e`), cross-merged at branch points
//! (`cap` adds, `delay` maxes, `width` adds), and optionally cut by a
//! buffer at each legal node. Chains are the special case of path-shaped
//! trees, and the test suite pins tree-DP results to chain-DP results on
//! paths.
//!
//! Like the chain sweep, the engine runs on the sorted struct-of-arrays
//! frontier of [`crate::frontier`]:
//!
//! * per-node option sets are sorted `(cap, delay[, width])` frontiers
//!   parked in one append-only SoA **store arena** inside the thread's
//!   reusable [`TreeScratch`] — no per-node `Vec` allocations;
//! * edge propagation lifts the child frontier **in place**, and the
//!   first child is pruned where it lies: it is consumed exactly once,
//!   by its parent. Merged with the unit accumulator, its products are
//!   `(0 + cap, max(0, delay), 0 + width)` in range order, so when the
//!   admitted ones are non-decreasing in the key (one read-only check)
//!   the prune sweep reads them straight from the store and compacts the
//!   survivors inside the child's range. A node with one child and no
//!   buffer site (a **pass-through** node) then adds its tap and applies
//!   the bound there too, and its frontier is that range: nothing is
//!   staged or copied. When rounding in the lift breaks the key order
//!   (about 2 % of first children), the products are staged and ordered
//!   like a branch merge's;
//! * branch cross-merges stage only the products that can survive and
//!   sweep them in the full key plus the source indices `(a, b)` without
//!   sorting the whole set: the products are permuted into buckets by
//!   exact cap ([`ClassTable`]), a bucket drops what the earlier buckets'
//!   survivors dominate, and only the rest is sorted on
//!   `(delay[, width], a, b)`. `(a, b)` is unique, so the survivors and
//!   their order are those of a full sort (the reference's stable sort,
//!   since `(a, b)` is generation order). Every prune sweep tests
//!   dominance with one [`WidthFloor`];
//! * each legal node runs the buffer-insertion step that the chain sweep
//!   runs at each candidate ([`InsertStep`]): the tree supplies the load
//!   `tap + C_in(w)`, the stage delay `(d + i) + R·c`, the admission
//!   test [`Bound::admits`] and a [`TArena`] buffer record, and the
//!   step's linear merge combines the fresh insertions with the
//!   unbuffered options (skipped when no insertion was generated: the
//!   frontier just left a prune sweep, so the merge would keep it as
//!   is). The answer comes from the chain's final pick ([`select`]) over
//!   the root frontier.
//!
//! Two rules keep the staged products few without changing a survivor:
//!
//! * **Target-aware bound (power objective).** Every option below the
//!   root still has a driving stage above it — a buffer or the driver —
//!   which adds at least `intrinsic + r_min·cap`, where `r_min` is the
//!   smallest output resistance over the library and the driver. An
//!   option (staged product, fresh insertion or unbuffered survivor)
//!   whose `delay + intrinsic + r_min·cap` exceeds the target can never
//!   become feasible, so it is dropped; at the root the exact driver
//!   term `delay + (intrinsic + R_drv·(cap + tap))` is used. The bound
//!   repeats the stage delay's float operations, so it is monotone in
//!   `(cap, delay)`: whatever an option dominates fails the bound too,
//!   and the surviving feasible options and their order are unchanged.
//! * **Per-width two-pointer merges.** Once the accumulator holds more
//!   than the unit option, both sides of a branch merge are regrouped
//!   into runs of exactly equal width (one run in the min-delay
//!   objective, whose prune ignores width), each in index — hence
//!   non-decreasing cap — order. Each run pair is walked with two
//!   pointers: stage `(i, j)`, advance `i` if `d_a ≥ d_b` and `j` if
//!   `d_b ≥ d_a` (van Ginneken's linear merge; Lillis, Cheng & Lin,
//!   IEEE JSSC 1996). Every product the walk skips has the width of a
//!   staged product, no smaller cap or delay, and a later `(a, b)`, so
//!   it sorts after that product and the sweep would have dropped it:
//!   the pruner emits the same survivors in the same order as if all
//!   `|A|×|B|` products had been staged. The first child merges with
//!   the unit accumulator, without regrouping.
//!
//! Traces are lazy, as in the chain sweep: a staged product carries only
//! its source indices and a fresh insertion only its parent's trace and
//! its inserted width, and the trace arena records a join or a buffer
//! only as the prune or the merge keeps an option.
//!
//! The previous engine survives verbatim as [`crate::reference::tree`]
//! and `tests/tree_frontier_equivalence.rs` pins both to the same
//! answers ([`crate::reference::same_tree_solution`]: buffer widths,
//! delay and width bits). Every float expression matches the reference,
//! so only the work to compute the same survivors changes.

use crate::chain::{DpStats, Objective};
use crate::error::DpError;
use crate::frontier::{cmp_f64, select, ClassTable, InsertStep, OptionBuf, WidthFloor, WidthRuns};
use rip_delay::RcTree;
use rip_tech::{RepeaterDevice, RepeaterLibrary};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::ops::Range;

/// A buffered-tree solution.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeSolution {
    /// Per-node buffer widths (`None` = no buffer), indexed by tree node.
    pub buffer_widths: Vec<Option<f64>>,
    /// Maximum source-to-sink Elmore delay, fs.
    pub delay_fs: f64,
    /// Total buffer width, u.
    pub total_width: f64,
    /// Work counters.
    pub stats: DpStats,
}

/// Trace arena for trees: buffers chain via `prev`, branch merges join
/// two traces.
#[derive(Debug)]
enum TNode {
    Root,
    Buffer { node: usize, width: f64, prev: u32 },
    Join { a: u32, b: u32 },
}

#[derive(Debug)]
struct TArena {
    nodes: Vec<TNode>,
}

impl Default for TArena {
    fn default() -> Self {
        Self {
            nodes: vec![TNode::Root],
        }
    }
}

impl TArena {
    /// Forgets every recorded decision, keeping the allocation and the
    /// shared root (scratch reuse across solves).
    fn reset(&mut self) {
        self.nodes.truncate(1);
    }

    fn buffer(&mut self, node: usize, width: f64, prev: u32) -> u32 {
        self.nodes.push(TNode::Buffer { node, width, prev });
        (self.nodes.len() - 1) as u32
    }

    fn join(&mut self, a: u32, b: u32) -> u32 {
        // Joining with an empty trace is a no-op; skip the allocation.
        if a == 0 {
            return b;
        }
        if b == 0 {
            return a;
        }
        self.nodes.push(TNode::Join { a, b });
        (self.nodes.len() - 1) as u32
    }

    /// Collects `(node, width)` buffer decisions reachable from `handle`.
    fn collect(&self, handle: u32, out: &mut Vec<(usize, f64)>) {
        let mut stack = vec![handle];
        while let Some(h) = stack.pop() {
            match &self.nodes[h as usize] {
                TNode::Root => {}
                TNode::Buffer { node, width, prev } => {
                    out.push((*node, *width));
                    stack.push(*prev);
                }
                TNode::Join { a, b } => {
                    stack.push(*a);
                    stack.push(*b);
                }
            }
        }
    }
}

/// One staged cross-merge product before pruning: accumulator option `a`
/// joined with child store option `b`. Products are generated a-outer,
/// b-inner, so sweeping them in full `(cap, delay[, width], a, b)` key
/// order ([`Products::prune`]) reproduces the reference pruner's stable
/// sort without its clone or temporary allocation, and the trace join
/// can wait until the product survives.
#[derive(Debug, Clone, Copy)]
struct CrossItem {
    cap: f64,
    delay: f64,
    width: f64,
    a: u32,
    b: u32,
}

// The staging buffer holds the largest allocation of a paper-scale
// solve; the lazy trace must not widen it.
const _: () = assert!(std::mem::size_of::<CrossItem>() == 32);

/// The staged products of a cross-merge, the exact-cap buckets that
/// order them, and the width classes and floor of their prune sweep.
#[derive(Debug, Default)]
struct Products {
    /// Staged products, ordered and pruned in place.
    items: Vec<CrossItem>,
    /// The distinct caps of `items`.
    caps: ClassTable,
    /// Start of each bucket, in ascending cap order, then the total.
    starts: Vec<u32>,
    /// The width classes of the swept options (power mode).
    widths: ClassTable,
    /// The prune sweep's dominance test.
    floor: WidthFloor,
}

impl Products {
    /// Prunes the staged products to their non-dominated frontier and
    /// emits the survivors in `(cap, delay[, width], a, b)` order, the
    /// reference pruner's, without sorting the whole set. Each product is
    /// classed by its exact cap ([`ClassTable`], so `-0.0` and `0.0`
    /// share a bucket) and, in power mode, by its exact width for the
    /// [`WidthFloor`]. Only the distinct caps are sorted; the products are
    /// permuted in place into ascending-cap buckets by displacement
    /// cycles (American-flag sort). A filled bucket of several products
    /// drops what the floor already dominates, as the earlier buckets'
    /// smaller caps dominate it in the full order too, and sorts the rest
    /// on `(delay[, width], a, b)`. A paper-scale branch merge stages some
    /// 32K products on about 1.2K caps, and a quarter of the products pass
    /// the floor, so a product pays a few table probes, not `log₂ n`
    /// comparisons.
    /// No per-product side buffer is kept: a displaced product's class is
    /// looked up again. With more than [`GROUPED_ABOVE`] distinct caps
    /// the products are first grouped by cap ([`group_by_cap`]).
    fn prune(&mut self, objective: Objective, mut emit: impl FnMut(&CrossItem)) {
        let by_width = matches!(objective, Objective::MinPowerUnderDelay { .. });
        let Self {
            items: products,
            caps,
            starts,
            widths,
            floor,
        } = self;
        caps.reset();
        if by_width {
            widths.reset();
        }
        for p in products.iter() {
            caps.insert(p.cap);
            if by_width {
                widths.insert(p.width);
            }
        }
        starts.clear();
        caps.lay_out(starts);
        floor.start(by_width.then_some(&mut *widths));
        if starts.len() - 1 > GROUPED_ABOVE {
            group_by_cap(products, caps, starts);
        }
        for r in 0..starts.len() - 1 {
            let (c, end) = (caps.ranked()[r], starts[r + 1] as usize);
            // Fill bucket `c`: each product taken from its next free slot
            // goes to its own bucket's next free slot, and the displaced
            // one moves on, until a product of `c` closes the cycle.
            while caps.next(c) < end {
                let i = caps.next(c);
                let mut item = products[i];
                let mut k = caps.find(item.cap);
                while k != c {
                    std::mem::swap(&mut item, &mut products[caps.take(k)]);
                    k = caps.find(item.cap);
                }
                products[caps.take(c)] = item;
            }
            let mut bucket = &mut products[starts[r] as usize..end];
            if bucket.len() > 1 {
                // Drop what the earlier buckets' survivors dominate, so
                // only the rest is sorted.
                let mut live = 0;
                for i in 0..bucket.len() {
                    let p = bucket[i];
                    if !floor.dominates(widths, p.width, p.delay) {
                        bucket[live] = p;
                        live += 1;
                    }
                }
                bucket = &mut bucket[..live];
                bucket.sort_unstable_by(|x, y| {
                    cmp_f64(x.delay, y.delay)
                        .then_with(|| {
                            if by_width {
                                cmp_f64(x.width, y.width)
                            } else {
                                Ordering::Equal
                            }
                        })
                        .then_with(|| (x.a, x.b).cmp(&(y.a, y.b)))
                });
            }
            for p in bucket.iter() {
                if floor.keeps(widths, p.width, p.delay) {
                    emit(p);
                }
            }
        }
    }
}

/// Distinct caps above which [`Products::prune`] groups the products
/// first. Its cycles keep one cursor per distinct cap; past 2¹⁵ of them
/// (2 MB of cache lines) the cursors outgrow a core's cache and nearly
/// every step of a cycle misses: on stream tree 21 a 1.1M-product merge
/// on 122K caps spent 325 ms in the cycles, against 115 ms grouped.
const GROUPED_ABOVE: usize = 1 << 15;

/// Most groups [`group_by_cap`] makes: few enough cursors to stay cached.
const GROUPS: usize = 256;

/// Moves every product into its group of `2^shift` consecutive cap
/// ranks — at most [`GROUPS`] groups, laid out as [`ClassTable::lay_out`]
/// laid out the caps — by the same in-place cycles, with a product's group
/// found by binary search over the groups' least caps. The per-cap cycles
/// that follow then stay inside one group's span of the array.
fn group_by_cap(products: &mut [CrossItem], caps: &ClassTable, starts: &[u32]) {
    let classes = starts.len() - 1;
    let shift = classes
        .div_ceil(GROUPS)
        .next_power_of_two()
        .trailing_zeros();
    let groups = classes.div_ceil(1 << shift);
    let (mut least, mut next) = ([0.0; GROUPS], [0; GROUPS]);
    for g in 0..groups {
        least[g] = caps.key(caps.ranked()[g << shift]);
        next[g] = starts[g << shift] as usize;
    }
    let least = &least[..groups];
    let group = |cap: f64| least.partition_point(|&c| c <= cap) - 1;
    for g in 0..groups {
        let end = starts[((g + 1) << shift).min(classes)] as usize;
        while next[g] < end {
            let i = next[g];
            let mut item = products[i];
            let mut h = group(item.cap);
            while h != g {
                std::mem::swap(&mut item, &mut products[next[h]]);
                next[h] += 1;
                h = group(item.cap);
            }
            products[i] = item;
            next[g] += 1;
        }
    }
    debug_assert!(
        (0..groups).all(|g| {
            let span =
                starts[g << shift] as usize..starts[((g + 1) << shift).min(classes)] as usize;
            products[span].iter().all(|p| group(p.cap) == g)
        }),
        "a product left outside its cap group"
    );
}

/// Reusable working memory for the tree DP: the per-node frontier store
/// (one append-only SoA arena plus `(start, len)` ranges), the running
/// cross-merge accumulator, the width runs of both merge sides, the
/// staged cross-merge products and their cap buckets, the
/// buffer-insertion step's buffers, and the trace arena. A first child
/// in key order stages nothing: it is pruned inside the store, where a
/// pass-through node's frontier then stays.
///
/// A scratch is plain reusable memory — it carries no configuration and
/// never influences results. Solvers reset it on entry, so one scratch
/// serves any interleaving of solves. Each thread owns one, behind
/// [`tree_min_delay`] and [`tree_min_power`], so a thread's solves after
/// its first allocate nothing.
#[derive(Debug, Default)]
pub(crate) struct TreeScratch {
    /// Append-only SoA store: every finished per-node frontier lives
    /// here, addressed by `ranges`.
    store: OptionBuf,
    /// `ranges[v]` = `(start, len)` of node `v`'s frontier in `store`.
    ranges: Vec<(u32, u32)>,
    /// Running cross-merge accumulator (a sorted frontier).
    acc: OptionBuf,
    /// The accumulator side of a branch merge, grouped by width.
    runs_a: WidthRuns,
    /// The child side of a branch merge, grouped by width.
    runs_b: WidthRuns,
    /// Staged cross-merge products.
    products: Products,
    /// The buffer-insertion step; its merge buffer also serves the
    /// cross-merge.
    step: InsertStep,
    /// Trace arena (buffer/join decisions).
    arena: TArena,
}

impl TreeScratch {
    /// Resets per-solve state for a tree of `nodes` nodes, keeping
    /// capacity.
    fn reset(&mut self, nodes: usize) {
        self.store.clear();
        self.ranges.clear();
        self.ranges.resize(nodes, (0, 0));
        self.acc.clear();
        self.runs_a.clear();
        self.runs_b.clear();
        self.products.items.clear();
        self.step.clear();
        self.arena.reset();
    }
}

/// The target-aware lower bound on the final delay of any solution built
/// on an option (see the module docs). With an infinite target (the
/// min-delay objective) it admits everything.
#[derive(Debug, Clone, Copy)]
struct Bound {
    target: f64,
    intrinsic: f64,
    /// Smallest output resistance over the library and the driver.
    r_min: f64,
    r_driver: f64,
    /// Tap capacitance at the root, loading the driver.
    root_tap: f64,
}

impl Bound {
    /// Whether an option `(delay, cap)` below the root may still meet
    /// the target. The next driving stage is either a buffer,
    /// `(delay + intrinsic) + R·cap`, or the driver,
    /// `delay + (intrinsic + R·(cap + tap))`; the bound takes the
    /// smaller of the two roundings.
    #[inline]
    fn admits(&self, delay: f64, cap: f64) -> bool {
        let rc = self.r_min * cap;
        (delay + self.intrinsic) + rc <= self.target || delay + (self.intrinsic + rc) <= self.target
    }

    /// Whether a root option `(delay, cap)` may still meet the target:
    /// the exact driver stage, which only grows as more children merge.
    #[inline]
    fn admits_at_root(&self, delay: f64, cap: f64) -> bool {
        delay + (self.intrinsic + self.r_driver * (cap + self.root_tap)) <= self.target
    }
}

/// The `(cap, delay, width)` of the product of accumulator option `a`
/// and store option `b`.
#[inline]
fn product(acc: &OptionBuf, a: usize, store: &OptionBuf, b: usize) -> (f64, f64, f64) {
    (
        acc.cap[a] + store.cap[b],
        acc.delay[a].max(store.delay[b]),
        acc.width[a] + store.width[b],
    )
}

/// Stages the product of accumulator option `a` and store option `b`
/// when the bound admits it.
#[inline]
fn stage(
    products: &mut Vec<CrossItem>,
    acc: &OptionBuf,
    store: &OptionBuf,
    a: usize,
    b: usize,
    admits: &impl Fn(f64, f64) -> bool,
) {
    let (cap, delay, width) = product(acc, a, store, b);
    if admits(delay, cap) {
        products.push(CrossItem {
            cap,
            delay,
            width,
            a: a as u32,
            b: b as u32,
        });
    }
}

/// Stages every admitted product of `acc` with `store[range]`, in
/// generation order (acc outer, child inner).
fn stage_all(
    products: &mut Vec<CrossItem>,
    acc: &OptionBuf,
    store: &OptionBuf,
    range: Range<usize>,
    admits: &impl Fn(f64, f64) -> bool,
) {
    for a in 0..acc.len() {
        for b in range.clone() {
            stage(products, acc, store, a, b, admits);
        }
    }
}

/// Stages the admitted products of each run pair with the two-pointer
/// walk. A skipped product has the width of the staged product it
/// passed, no smaller cap or delay, and a later `(a, b)`, so
/// [`Products::prune`] would drop it anyway.
fn stage_walk(
    products: &mut Vec<CrossItem>,
    acc: &OptionBuf,
    store: &OptionBuf,
    runs_a: &WidthRuns,
    runs_b: &WidthRuns,
    admits: &impl Fn(f64, f64) -> bool,
) {
    for ra in runs_a.runs() {
        for rb in runs_b.runs() {
            let (mut i, mut j) = (0, 0);
            while i < ra.len() && j < rb.len() {
                let (a, b) = (ra[i] as usize, rb[j] as usize);
                stage(products, acc, store, a, b, admits);
                let (da, db) = (acc.delay[a], store.delay[b]);
                i += usize::from(da >= db);
                j += usize::from(db >= da);
            }
        }
    }
}

thread_local! {
    /// The thread's tree-DP working memory: every solve on this thread
    /// reuses it, and it is freed when the thread exits.
    static TREE_SCRATCH: RefCell<TreeScratch> = RefCell::default();
}

/// Cross-merges the unit accumulator `unit` with a node's first child,
/// the lifted frontier `store[range]`, and leaves the survivors at the
/// front of `range`. Returns the number of staged (admitted) products
/// and of survivors.
///
/// The unit's products are the child's options in range order, each
/// `(0 + cap, max(0, delay), 0 + width)` with the child's trace (the
/// unit's trace is empty). When the admitted ones are non-decreasing in
/// the objective's key — the generation index `b` then breaks ties, as
/// in a full sort — range order is key order: one read-only pass checks
/// that, classing their widths as it goes, and the [`WidthFloor`] sweep
/// reads them where they lie, writing each survivor at or before its own
/// slot. Otherwise the products are staged in `products`, pruned by
/// [`Products::prune`] into `merged`, and copied back.
fn merge_first_child(
    store: &mut OptionBuf,
    range: Range<usize>,
    unit: &OptionBuf,
    objective: Objective,
    admits: &impl Fn(f64, f64) -> bool,
    products: &mut Products,
    merged: &mut OptionBuf,
) -> (usize, usize) {
    debug_assert!(unit.len() == 1 && unit.trace[0] == 0);
    let by_width = matches!(objective, Objective::MinPowerUnderDelay { .. });
    let key = |p: (f64, f64, f64), q: (f64, f64, f64)| {
        let two = cmp_f64(p.0, q.0).then_with(|| cmp_f64(p.1, q.1));
        if by_width {
            two.then_with(|| cmp_f64(p.2, q.2))
        } else {
            two
        }
    };
    // The admitted products' key order, checked read-only, and their
    // width classes.
    let Products { widths, floor, .. } = products;
    if by_width {
        widths.reset();
    }
    let mut last = (f64::NEG_INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY);
    let in_order = range.clone().all(|b| {
        let p = product(unit, 0, store, b);
        if !admits(p.1, p.0) {
            return true;
        }
        if by_width {
            widths.insert(p.2);
        }
        let ordered = key(last, p) != Ordering::Greater;
        last = p;
        ordered
    });

    let start = range.start;
    if in_order {
        floor.start(by_width.then_some(&mut *widths));
        let (mut staged, mut kept) = (0, start);
        for b in range {
            let (cap, delay, width) = product(unit, 0, store, b);
            if admits(delay, cap) {
                staged += 1;
                if floor.keeps(widths, width, delay) {
                    let trace = store.trace[b];
                    store.set(kept, cap, delay, width, trace);
                    kept += 1;
                }
            }
        }
        return (staged, kept - start);
    }

    products.items.clear();
    stage_all(&mut products.items, unit, store, range, admits);
    merged.clear();
    products.prune(objective, |p| {
        merged.push(p.cap, p.delay, p.width, store.trace[p.b as usize]);
    });
    for i in 0..merged.len() {
        store.set(
            start + i,
            merged.cap[i],
            merged.delay[i],
            merged.width[i],
            merged.trace[i],
        );
    }
    (products.items.len(), merged.len())
}

/// Minimum-delay buffering of an RC tree.
///
/// * `allowed` — optional per-node buffer-legality mask (e.g. forbidden
///   zones mapped onto tree nodes); the root entry is ignored (the root
///   is the driver). Default: buffers allowed everywhere but the root.
///
/// Solves on the calling thread's reusable scratch memory.
///
/// # Errors
///
/// Returns [`DpError::BadAllowedMask`] for a mask of the wrong length.
///
/// # Examples
///
/// ```
/// use rip_delay::RcTree;
/// use rip_dp::tree_min_delay;
/// use rip_tech::{RepeaterLibrary, Technology};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let tech = Technology::generic_180nm();
/// let mut tree = RcTree::with_root();
/// let a = tree.add_uniform_child(0, 400.0, 1200.0)?;
/// let s1 = tree.add_uniform_child(a, 300.0, 800.0)?;
/// let s2 = tree.add_uniform_child(a, 250.0, 700.0)?;
/// tree.set_sink_cap(s1, 60.0)?;
/// tree.set_sink_cap(s2, 60.0)?;
/// let lib = RepeaterLibrary::range_step(10.0, 400.0, 40.0)?;
/// let sol = tree_min_delay(&tree, tech.device(), 120.0, &lib, None)?;
/// assert!(sol.delay_fs > 0.0);
/// # Ok(())
/// # }
/// ```
pub fn tree_min_delay(
    tree: &RcTree,
    device: &RepeaterDevice,
    driver_width: f64,
    library: &RepeaterLibrary,
    allowed: Option<&[bool]>,
) -> Result<TreeSolution, DpError> {
    TREE_SCRATCH.with(|s| {
        solve_tree(
            &mut s.borrow_mut(),
            tree,
            device,
            driver_width,
            library,
            allowed,
            Objective::MinDelay,
        )
    })
}

/// Minimum-total-width buffering of an RC tree under a timing target
/// (max over sinks).
///
/// Solves on the calling thread's reusable scratch memory.
///
/// # Errors
///
/// * [`DpError::InvalidTarget`] for a bad target;
/// * [`DpError::InfeasibleTarget`] when the target cannot be met;
/// * [`DpError::BadAllowedMask`] for a mask of the wrong length.
pub fn tree_min_power(
    tree: &RcTree,
    device: &RepeaterDevice,
    driver_width: f64,
    library: &RepeaterLibrary,
    allowed: Option<&[bool]>,
    target_fs: f64,
) -> Result<TreeSolution, DpError> {
    if !target_fs.is_finite() || target_fs <= 0.0 {
        return Err(DpError::InvalidTarget { target_fs });
    }
    TREE_SCRATCH.with(|s| {
        solve_tree(
            &mut s.borrow_mut(),
            tree,
            device,
            driver_width,
            library,
            allowed,
            Objective::MinPowerUnderDelay { target_fs },
        )
    })
}

/// One tree DP on a borrowed scratch. The infeasible fallback re-enters
/// here with the same scratch: the thread's scratch is already borrowed.
fn solve_tree(
    scratch: &mut TreeScratch,
    tree: &RcTree,
    device: &RepeaterDevice,
    driver_width: f64,
    library: &RepeaterLibrary,
    allowed: Option<&[bool]>,
    objective: Objective,
) -> Result<TreeSolution, DpError> {
    if let Some(mask) = allowed {
        if mask.len() != tree.len() {
            return Err(DpError::BadAllowedMask {
                got: mask.len(),
                expected: tree.len(),
            });
        }
    }
    let buffer_ok = |v: usize| v != 0 && allowed.map_or(true, |m| m[v]);
    let by_width = matches!(objective, Objective::MinPowerUnderDelay { .. });
    let r_driver = device.output_resistance(driver_width);
    let bound = Bound {
        target: objective.target_fs().unwrap_or(f64::INFINITY),
        intrinsic: device.intrinsic_delay(),
        r_min: library
            .widths()
            .iter()
            .map(|&w| device.output_resistance(w))
            .fold(r_driver, f64::min),
        r_driver,
        root_tap: tree.sink_cap(0),
    };

    scratch.reset(tree.len());
    let mut stats = DpStats {
        candidates: tree.len() - 1,
        library_size: library.len(),
        ..DpStats::default()
    };

    // Sweep state is destructured so the store, the accumulator and the
    // arena can be borrowed side by side.
    let best = {
        let TreeScratch {
            store,
            ranges,
            acc,
            runs_a,
            runs_b,
            products,
            step,
            arena,
        } = scratch;

        // Creation order guarantees parents before children, so a
        // reverse scan is a post-order. `store[ranges[v]]` holds the
        // non-dominated set looking into node v from its parent edge
        // (load the edge would see at v, worst delay from v's input to
        // any sink below, width spent below).
        'nodes: for v in (0..tree.len()).rev() {
            // Cross-merge the children (lifted across their edges).
            acc.clear();
            acc.push(0.0, 0.0, 0.0, 0);
            let admits = |delay: f64, cap: f64| {
                if v == 0 {
                    bound.admits_at_root(delay, cap)
                } else {
                    bound.admits(delay, cap)
                }
            };
            let children = tree.children(v);
            let tap = tree.sink_cap(v);
            for (k, &u) in children.iter().enumerate() {
                let wire = tree.wire(u);
                // Lift the child frontier across its edge, in place: it
                // is consumed exactly once, right here. The constant cap
                // shift and within-equal-cap-uniform delay shift keep
                // the order up to rounding.
                let (start, len) = ranges[u];
                let range = start as usize..(start + len) as usize;
                for i in range.clone() {
                    let c = store.cap[i];
                    store.delay[i] = store.delay[i] + wire.elmore + wire.resistance * c;
                    store.cap[i] = c + wire.capacitance;
                }
                let staged = if k == 0 {
                    let (staged, survivors) = merge_first_child(
                        store,
                        range.clone(),
                        acc,
                        objective,
                        &admits,
                        products,
                        &mut step.merged,
                    );
                    let survivors = range.start..range.start + survivors;
                    if v != 0 && children.len() == 1 && !buffer_ok(v) {
                        // Pass-through node: no insertion to generate or
                        // merge, so add the tap and apply the bound where
                        // the survivors lie; that range is v's frontier.
                        stats.options_created += (staged + survivors.len()) as u64;
                        stats.merge_products_max = stats.merge_products_max.max(staged as u64);
                        let mut kept = range.start;
                        for i in survivors {
                            let (cap, delay) = (store.cap[i] + tap, store.delay[i]);
                            if bound.admits(delay, cap) {
                                let (width, trace) = (store.width[i], store.trace[i]);
                                store.set(kept, cap, delay, width, trace);
                                kept += 1;
                            }
                        }
                        stats.options_peak = stats.options_peak.max(kept - range.start);
                        ranges[v] = (start, (kept - range.start) as u32);
                        continue 'nodes;
                    }
                    acc.clear();
                    acc.extend_from(store, survivors);
                    staged
                } else {
                    // Later merges walk each pair of equal-width runs.
                    products.items.clear();
                    runs_a.group(&acc.width, 0..acc.len(), by_width);
                    runs_b.group(&store.width, range, by_width);
                    stage_walk(&mut products.items, acc, store, runs_a, runs_b, &admits);
                    // Join traces for survivors only; they go to `merged`
                    // so `acc.trace` stays readable until the swap.
                    let merged = &mut step.merged;
                    merged.clear();
                    products.prune(objective, |p| {
                        let trace = arena.join(acc.trace[p.a as usize], store.trace[p.b as usize]);
                        merged.push(p.cap, p.delay, p.width, trace);
                    });
                    std::mem::swap(acc, merged);
                    products.items.len()
                };
                stats.options_created += staged as u64;
                stats.merge_products_max = stats.merge_products_max.max(staged as u64);
            }

            if v == 0 {
                // Driver stage at the root (tap at the root loads the
                // driver alongside the subtree).
                for i in 0..acc.len() {
                    acc.delay[i] += device.intrinsic_delay()
                        + device.output_resistance(driver_width) * (acc.cap[i] + tap);
                }
                break;
            }

            // Buffered at v: the buffer drives the merged subtree;
            // upstream sees tap + buffer input cap.
            let widths = if buffer_ok(v) { library.widths() } else { &[] };
            stats.options_created += step.generate(
                acc,
                widths,
                objective,
                |w| tap + device.input_cap(w),
                |w, delay, cap| {
                    delay + device.intrinsic_delay() + device.output_resistance(w) * cap
                },
                |delay, cap| bound.admits(delay, cap),
            );
            // Unbuffered at v: the node's tap joins the stage load (a
            // constant shift, so the sorted order survives and the prune
            // is a single linear merge, skipped when there is nothing to
            // merge: `acc` just left a prune sweep).
            for i in 0..acc.len() {
                acc.cap[i] += tap;
            }
            acc.retain_by(|cap, delay| bound.admits(delay, cap));
            if step.generated_any() {
                step.merge_into(acc, objective, |w, prev| arena.buffer(v, w, prev));
            }
            stats.options_peak = stats.options_peak.max(acc.len());
            // Park the finished frontier in the store arena.
            ranges[v] = (store.len() as u32, acc.len() as u32);
            store.extend_from(acc, 0..acc.len());
        }

        select(acc, objective).map(|i| (acc.delay[i], acc.width[i], acc.trace[i]))
    };

    let (delay_fs, total_width, trace) = match best {
        Some(parts) => parts,
        None => {
            let target_fs = objective
                .target_fs()
                .expect("only the power mode can be infeasible");
            let fastest = solve_tree(
                scratch,
                tree,
                device,
                driver_width,
                library,
                allowed,
                Objective::MinDelay,
            )?;
            return Err(DpError::InfeasibleTarget {
                target_fs,
                achievable_fs: fastest.delay_fs,
            });
        }
    };

    let mut buffers = Vec::new();
    scratch.arena.collect(trace, &mut buffers);
    let mut buffer_widths = vec![None; tree.len()];
    for (node, width) in buffers {
        buffer_widths[node] = Some(width);
    }
    stats.trace_nodes = scratch.arena.nodes.len() - 1;
    Ok(TreeSolution {
        buffer_widths,
        delay_fs,
        total_width,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::CandidateSet;
    use crate::chain::{solve_min_delay, solve_min_power};
    use crate::reference::prune::{prune_2d, prune_3d};
    use rip_net::{NetBuilder, Segment, TwoPinNet};
    use rip_tech::Technology;

    fn tech() -> Technology {
        Technology::generic_180nm()
    }

    /// Y-shaped tree: trunk then two branches with sinks.
    fn y_tree(dev: &RepeaterDevice) -> RcTree {
        let mut tree = RcTree::with_root();
        let trunk = tree.add_uniform_child(0, 400.0, 1200.0).unwrap();
        let s1 = tree.add_uniform_child(trunk, 300.0, 800.0).unwrap();
        let s2 = tree.add_uniform_child(trunk, 500.0, 1500.0).unwrap();
        tree.set_sink_cap(s1, dev.input_cap(60.0)).unwrap();
        tree.set_sink_cap(s2, dev.input_cap(40.0)).unwrap();
        tree
    }

    /// Nodes of the broom's trunk.
    const BROOM_TRUNK: usize = 12;

    /// A broom: a trunk of [`BROOM_TRUNK`] nodes above three branches of
    /// three nodes, each ending in a sink.
    fn broom_tree(dev: &RepeaterDevice) -> RcTree {
        let mut tree = RcTree::with_root();
        let mut top = 0;
        for _ in 0..BROOM_TRUNK {
            top = tree.add_uniform_child(top, 70.0, 210.0).unwrap();
        }
        for b in 0..3 {
            let mut v = top;
            for _ in 0..3 {
                v = tree
                    .add_uniform_child(v, 90.0 + 10.0 * b as f64, 300.0)
                    .unwrap();
            }
            tree.set_sink_cap(v, dev.input_cap(40.0 + 20.0 * b as f64))
                .unwrap();
        }
        tree
    }

    /// Maps a chain net + candidate set onto the equivalent path tree.
    fn chain_as_tree(net: &TwoPinNet, dev: &RepeaterDevice, cands: &CandidateSet) -> RcTree {
        let mut tree = RcTree::with_root();
        let mut prev_pos = 0.0;
        let mut prev_node = 0;
        for &x in cands.positions() {
            let wire = net.profile().interval(prev_pos, x);
            prev_node = tree.add_child(prev_node, wire, 0.0).unwrap();
            prev_pos = x;
        }
        let wire = net.profile().interval(prev_pos, net.total_length());
        let sink = tree.add_child(prev_node, wire, 0.0).unwrap();
        tree.set_sink_cap(sink, dev.input_cap(net.receiver_width()))
            .unwrap();
        tree
    }

    fn chain_net() -> TwoPinNet {
        NetBuilder::new()
            .segment(Segment::new(4000.0, 0.08, 0.20))
            .segment(Segment::new(5000.0, 0.06, 0.18))
            .driver_width(120.0)
            .receiver_width(60.0)
            .build()
            .unwrap()
    }

    #[test]
    fn tree_dp_matches_chain_dp_on_paths_min_delay() {
        let tech = tech();
        let net = chain_net();
        let lib = RepeaterLibrary::from_widths([40.0, 120.0, 280.0]).unwrap();
        let cands = CandidateSet::uniform(&net, 600.0);
        let chain_sol = solve_min_delay(&net, tech.device(), &lib, &cands);
        let tree = chain_as_tree(&net, tech.device(), &cands);
        let tree_sol =
            tree_min_delay(&tree, tech.device(), net.driver_width(), &lib, None).unwrap();
        assert!(
            (chain_sol.delay_fs - tree_sol.delay_fs).abs() < 1e-6,
            "chain {} vs tree {}",
            chain_sol.delay_fs,
            tree_sol.delay_fs
        );
        assert!((chain_sol.total_width - tree_sol.total_width).abs() < 1e-9);
    }

    #[test]
    fn tree_dp_matches_chain_dp_on_paths_min_power() {
        let tech = tech();
        let net = chain_net();
        let lib = RepeaterLibrary::from_widths([40.0, 120.0, 280.0]).unwrap();
        let cands = CandidateSet::uniform(&net, 600.0);
        let fastest = solve_min_delay(&net, tech.device(), &lib, &cands);
        let tree = chain_as_tree(&net, tech.device(), &cands);
        for mult in [1.1, 1.4, 1.9] {
            let target = fastest.delay_fs * mult;
            let chain_sol = solve_min_power(&net, tech.device(), &lib, &cands, target).unwrap();
            let tree_sol =
                tree_min_power(&tree, tech.device(), net.driver_width(), &lib, None, target)
                    .unwrap();
            assert!(
                (chain_sol.total_width - tree_sol.total_width).abs() < 1e-9,
                "mult {mult}: chain {} vs tree {}",
                chain_sol.total_width,
                tree_sol.total_width
            );
        }
    }

    #[test]
    fn solution_delay_matches_tree_evaluation() {
        let tech = tech();
        let tree = y_tree(tech.device());
        let lib = RepeaterLibrary::range_step(10.0, 400.0, 40.0).unwrap();
        let sol = tree_min_delay(&tree, tech.device(), 120.0, &lib, None).unwrap();
        let timing = tree.evaluate_buffered(tech.device(), 120.0, &sol.buffer_widths);
        assert!(
            (timing.max_sink_delay - sol.delay_fs).abs() < 1e-6,
            "DP {} vs evaluate {}",
            sol.delay_fs,
            timing.max_sink_delay
        );
    }

    #[test]
    fn tree_min_power_meets_target_with_less_width() {
        let tech = tech();
        let tree = y_tree(tech.device());
        let lib = RepeaterLibrary::range_step(10.0, 400.0, 40.0).unwrap();
        let fastest = tree_min_delay(&tree, tech.device(), 120.0, &lib, None).unwrap();
        let target = fastest.delay_fs * 1.5;
        let sol = tree_min_power(&tree, tech.device(), 120.0, &lib, None, target).unwrap();
        assert!(sol.delay_fs <= target * (1.0 + 1e-12));
        assert!(sol.total_width <= fastest.total_width);
        let timing = tree.evaluate_buffered(tech.device(), 120.0, &sol.buffer_widths);
        assert!((timing.max_sink_delay - sol.delay_fs).abs() < 1e-6);
    }

    #[test]
    fn infeasible_tree_target_reports_achievable() {
        let tech = tech();
        let tree = y_tree(tech.device());
        let lib = RepeaterLibrary::from_widths([20.0]).unwrap();
        let fastest = tree_min_delay(&tree, tech.device(), 120.0, &lib, None).unwrap();
        let err = tree_min_power(
            &tree,
            tech.device(),
            120.0,
            &lib,
            None,
            fastest.delay_fs * 0.5,
        )
        .unwrap_err();
        assert!(matches!(err, DpError::InfeasibleTarget { .. }));
    }

    #[test]
    fn allowed_mask_restricts_buffer_sites() {
        let tech = tech();
        let tree = y_tree(tech.device());
        let lib = RepeaterLibrary::range_step(10.0, 400.0, 40.0).unwrap();
        // Forbid everywhere: solution must be bufferless.
        let mask = vec![false; tree.len()];
        let sol = tree_min_delay(&tree, tech.device(), 120.0, &lib, Some(&mask)).unwrap();
        assert!(sol.buffer_widths.iter().all(Option::is_none));
        assert_eq!(sol.total_width, 0.0);
        // And matches the unbuffered evaluation.
        let unbuffered = tree.elmore_delays(tech.device(), 120.0).max_sink_delay;
        assert!((sol.delay_fs - unbuffered).abs() < 1e-6);
    }

    #[test]
    fn wrong_mask_length_is_rejected() {
        let tech = tech();
        let tree = y_tree(tech.device());
        let lib = RepeaterLibrary::paper_coarse();
        let err = tree_min_delay(&tree, tech.device(), 120.0, &lib, Some(&[true])).unwrap_err();
        assert!(matches!(
            err,
            DpError::BadAllowedMask {
                got: 1,
                expected: 4
            }
        ));
    }

    #[test]
    fn buffering_helps_an_unbalanced_tree() {
        let tech = tech();
        let dev = tech.device();
        let mut tree = RcTree::with_root();
        let trunk = tree.add_uniform_child(0, 800.0, 2500.0).unwrap();
        let near = tree.add_uniform_child(trunk, 50.0, 120.0).unwrap();
        let far1 = tree.add_uniform_child(trunk, 600.0, 1800.0).unwrap();
        let far2 = tree.add_uniform_child(far1, 600.0, 1800.0).unwrap();
        tree.set_sink_cap(near, dev.input_cap(50.0)).unwrap();
        tree.set_sink_cap(far2, dev.input_cap(50.0)).unwrap();
        let lib = RepeaterLibrary::range_step(10.0, 400.0, 40.0).unwrap();
        let sol = tree_min_delay(&tree, dev, 120.0, &lib, None).unwrap();
        let unbuffered = tree.elmore_delays(dev, 120.0).max_sink_delay;
        assert!(sol.delay_fs < unbuffered);
        assert!(sol.buffer_widths.iter().any(Option::is_some));
    }

    #[test]
    fn reused_tree_scratch_matches_fresh_scratch() {
        // A single scratch driven through an interleaving of solves must
        // give exactly what fresh scratches give: scratch is memory, not
        // state. The broom's masked trunk is a chain of pass-through
        // nodes, whose frontiers are pruned inside the store, and the
        // branch sums it lifts round out of key order there, so the staged
        // first-child fallback runs on a reused scratch too.
        let tech = tech();
        let dev = tech.device();
        let tree = y_tree(dev);
        let net = chain_net();
        let path = chain_as_tree(&net, dev, &CandidateSet::uniform(&net, 600.0));
        let broom = broom_tree(dev);
        let trunk: Vec<bool> = (0..broom.len()).map(|v| v > BROOM_TRUNK).collect();
        let lib = RepeaterLibrary::range_step(10.0, 400.0, 40.0).unwrap();

        for (tree, mask, other) in [(&tree, None, &path), (&broom, Some(&trunk[..]), &tree)] {
            // The free functions reuse this thread's scratch.
            let fastest = tree_min_delay(tree, dev, 120.0, &lib, mask);
            let fresh = solve_tree(
                &mut TreeScratch::default(),
                tree,
                dev,
                120.0,
                &lib,
                mask,
                Objective::MinDelay,
            );
            assert_eq!(format!("{fastest:?}"), format!("{fresh:?}"));
            let fastest = fastest.unwrap();
            for mult in [1.1, 1.6, 0.5, 1.3] {
                let target = fastest.delay_fs * mult;
                let reused = tree_min_power(tree, dev, 120.0, &lib, mask, target);
                let fresh = solve_tree(
                    &mut TreeScratch::default(),
                    tree,
                    dev,
                    120.0,
                    &lib,
                    mask,
                    Objective::MinPowerUnderDelay { target_fs: target },
                );
                assert_eq!(format!("{reused:?}"), format!("{fresh:?}"), "mult {mult}");
                // Interleave a different topology to try to poison the
                // scratch.
                let _ = tree_min_delay(other, dev, 120.0, &lib, None);
            }
        }
    }

    /// Deterministic quantized pseudo-random generator: coarse values so
    /// duplicates and dominance chains actually occur.
    fn lcg(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*state >> 33) as f64 / (1u64 << 31) as f64 * 8.0).round()
    }

    const POWER: Objective = Objective::MinPowerUnderDelay { target_fs: 1.0 };

    #[test]
    fn bound_admits_is_down_closed_in_delay() {
        // The premise that lets the insertion step ask `admits` only on a
        // width class's least delay: at a fixed cap, every delay below an
        // admitted one is admitted. Delays within a few ulps of the
        // target's boundary decide between the two roundings, so each
        // disjunct must be the only one to admit somewhere.
        let mut state = 0xB0DEu64;
        let ulps = |x: f64, k: i64| f64::from_bits((x.to_bits() as i64 + k) as u64);
        let (mut buffer_only, mut driver_only) = (false, false);
        for _ in 0..2000 {
            let bound = Bound {
                target: 4.0e5 + 1234.567 * lcg(&mut state) + 0.1 * lcg(&mut state),
                intrinsic: 3.0e4 + 0.3 * lcg(&mut state),
                r_min: 37.5 + 1.7 * lcg(&mut state),
                r_driver: 100.0,
                root_tap: 0.0,
            };
            let cap = 12.3 * lcg(&mut state) + 0.01 * lcg(&mut state);
            let edge = bound.target - (bound.intrinsic + bound.r_min * cap);
            let mut delays: Vec<f64> = (-6..=6).map(|k| ulps(edge, k)).collect();
            delays.extend((0..8).map(|_| edge + 1.0e3 * (lcg(&mut state) - 4.0)));
            delays.sort_by(|a, b| cmp_f64(*a, *b));
            let admitted: Vec<bool> = delays.iter().map(|&d| bound.admits(d, cap)).collect();
            for k in 1..delays.len() {
                assert!(
                    admitted[k - 1] || !admitted[k],
                    "{bound:?} cap {cap}: {} rejected, {} admitted",
                    delays[k - 1],
                    delays[k]
                );
            }
            for &d in &delays {
                let rc = bound.r_min * cap;
                let buffer = (d + bound.intrinsic) + rc <= bound.target;
                let driver = d + (bound.intrinsic + rc) <= bound.target;
                buffer_only |= buffer && !driver;
                driver_only |= driver && !buffer;
            }
        }
        assert!(buffer_only, "the buffer rounding never admitted alone");
        assert!(driver_only, "the driver rounding never admitted alone");
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

    fn naive_pareto_3d(items: &[(f64, f64, f64)]) -> Vec<(f64, f64, f64)> {
        let mut out: Vec<(f64, f64, f64)> = items
            .iter()
            .copied()
            .filter(|x| {
                !items
                    .iter()
                    .any(|y| y != x && y.0 <= x.0 && y.1 <= x.1 && y.2 <= x.2)
            })
            .collect();
        out.sort_by(|a, b| a.partial_cmp(b).unwrap());
        out.dedup();
        out
    }

    #[test]
    fn cross_merge_fuzz_matches_naive_oracle_min_delay() {
        // The staged-product pruner vs the O(n²) dominance definition:
        // survivors must be sorted, mutually non-dominated, and
        // set-identical to the naive oracle — mirroring the chain
        // engine's prune_2d/prune_3d fuzz suites.
        let mut state = 0xC0FFEEu64;
        let mut products = Products::default();
        for round in 0..50 {
            let n = 1 + (round * 5) % 80;
            products.items = (0..n)
                .map(|s| CrossItem {
                    cap: lcg(&mut state),
                    delay: lcg(&mut state),
                    width: 0.0,
                    a: s / 8,
                    b: s % 8,
                })
                .collect();
            let items: Vec<(f64, f64)> = products.items.iter().map(|p| (p.cap, p.delay)).collect();
            let mut got: Vec<(f64, f64)> = Vec::new();
            products.prune(Objective::MinDelay, |p| {
                got.push((p.cap, p.delay));
            });
            assert!(
                got.windows(2).all(|w| w[0] <= w[1]),
                "round {round}: survivors not sorted"
            );
            for (i, a) in got.iter().enumerate() {
                for (j, b) in got.iter().enumerate() {
                    assert!(
                        i == j || !(a.0 <= b.0 && a.1 <= b.1),
                        "round {round}: {a:?} dominates fellow survivor {b:?}"
                    );
                }
            }
            let mut sorted = got.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            sorted.dedup();
            assert_eq!(sorted, naive_pareto_2d(&items), "round {round}");
        }
    }

    #[test]
    fn cross_merge_fuzz_matches_naive_oracle_min_power() {
        let mut state = 0xBEEFu64;
        let mut products = Products::default();
        for round in 0..50 {
            let n = 1 + (round * 7) % 100;
            products.items = (0..n)
                .map(|s| CrossItem {
                    cap: lcg(&mut state),
                    delay: lcg(&mut state),
                    width: lcg(&mut state),
                    a: s / 8,
                    b: s % 8,
                })
                .collect();
            let items: Vec<(f64, f64, f64)> = products
                .items
                .iter()
                .map(|p| (p.cap, p.delay, p.width))
                .collect();
            let mut got: Vec<(f64, f64, f64)> = Vec::new();
            products.prune(POWER, |p| {
                got.push((p.cap, p.delay, p.width));
            });
            assert!(
                got.windows(2).all(|w| w[0] <= w[1]),
                "round {round}: survivors not sorted"
            );
            for (i, a) in got.iter().enumerate() {
                for (j, b) in got.iter().enumerate() {
                    assert!(
                        i == j || !(a.0 <= b.0 && a.1 <= b.1 && a.2 <= b.2),
                        "round {round}: {a:?} dominates fellow survivor {b:?}"
                    );
                }
            }
            let mut sorted = got.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            sorted.dedup();
            assert_eq!(sorted, naive_pareto_3d(&items), "round {round}");
        }
    }

    /// A random cap-sorted frontier of `n` options with quantised keys, so
    /// equal caps, exact duplicates and many width classes occur.
    fn random_frontier(state: &mut u64, n: usize) -> OptionBuf {
        let mut rows: Vec<(f64, f64, f64)> = (0..n)
            .map(|_| (lcg(state), lcg(state), lcg(state) * 10.0))
            .collect();
        rows.sort_by(|x, y| x.partial_cmp(y).unwrap());
        let mut buf = OptionBuf::default();
        for (cap, delay, width) in rows {
            buf.push(cap, delay, width, 0);
        }
        buf
    }

    #[test]
    fn walk_staging_prunes_to_the_all_pairs_survivors() {
        // The two-pointer walk may skip products, but `Products::prune`
        // must emit exactly the (a, b) sequence it emits when every
        // product is staged — with and without a finite bound.
        let mut state = 0x5EEDu64;
        let (mut runs_a, mut runs_b) = (WidthRuns::default(), WidthRuns::default());
        let mut skipped = 0;
        for round in 0..200 {
            let acc = random_frontier(&mut state, 1 + round % 23);
            let store = random_frontier(&mut state, 1 + (round * 7) % 31);
            let limit = if round % 3 == 0 { f64::INFINITY } else { 10.0 };
            let admits = |delay: f64, cap: f64| delay + cap <= limit;
            for objective in [Objective::MinDelay, POWER] {
                let by_width = objective != Objective::MinDelay;
                let emitted = |items: Vec<CrossItem>| {
                    let mut out = Vec::new();
                    let mut products = Products {
                        items,
                        ..Products::default()
                    };
                    products.prune(objective, |p| out.push((p.a, p.b)));
                    out
                };
                let mut all = Vec::new();
                stage_all(&mut all, &acc, &store, 0..store.len(), &admits);
                let mut walked = Vec::new();
                runs_a.group(&acc.width, 0..acc.len(), by_width);
                runs_b.group(&store.width, 0..store.len(), by_width);
                stage_walk(&mut walked, &acc, &store, &runs_a, &runs_b, &admits);
                assert!(walked.len() <= all.len());
                skipped += all.len() - walked.len();
                assert_eq!(emitted(walked), emitted(all), "round {round} {objective:?}");
            }
        }
        assert!(skipped > 0, "the walk never skipped a product");
    }

    #[test]
    fn cross_merge_collapses_duplicates_to_the_earliest_record() {
        let item = |a, b| CrossItem {
            cap: 1.0,
            delay: 2.0,
            width: 3.0,
            a,
            b,
        };
        // Staged out of generation order: the (a, b) key, not the slot,
        // decides which duplicate survives.
        let mut products = Products {
            items: vec![item(1, 0), item(0, 5), item(0, 2)],
            ..Products::default()
        };
        for objective in [Objective::MinDelay, POWER] {
            let mut survivors = Vec::new();
            products.prune(objective, |p| {
                survivors.push((p.a, p.b));
            });
            assert_eq!(
                survivors,
                vec![(0, 2)],
                "{objective:?}: generation-earliest duplicate survives"
            );
        }
    }

    /// The order the cap buckets reproduce: one comparison sort of every
    /// product on the full `(cap, delay[, width], a, b)` key.
    fn sort_oracle(products: &mut [CrossItem], objective: Objective) {
        let generation = |x: &CrossItem, y: &CrossItem| (x.a, x.b).cmp(&(y.a, y.b));
        match objective {
            Objective::MinDelay => products.sort_unstable_by(|x, y| {
                cmp_f64(x.cap, y.cap)
                    .then_with(|| cmp_f64(x.delay, y.delay))
                    .then_with(|| generation(x, y))
            }),
            Objective::MinPowerUnderDelay { .. } => products.sort_unstable_by(|x, y| {
                cmp_f64(x.cap, y.cap)
                    .then_with(|| cmp_f64(x.delay, y.delay))
                    .then_with(|| cmp_f64(x.width, y.width))
                    .then_with(|| generation(x, y))
            }),
        }
    }

    /// Every field of each product, floats as bits.
    fn bits(products: &[CrossItem]) -> Vec<(u64, u64, u64, u32, u32)> {
        products
            .iter()
            .map(|p| {
                (
                    p.cap.to_bits(),
                    p.delay.to_bits(),
                    p.width.to_bits(),
                    p.a,
                    p.b,
                )
            })
            .collect()
    }

    #[test]
    fn bucket_prune_matches_sort_oracle_on_fuzz() {
        // `Products::prune` against one full sort followed by the
        // reference pruner: the same survivors, field for field, in the
        // same order. Quantised caps, so buckets hold several products;
        // every third round mixes `-0.0` with `0.0` (one bucket, as they
        // compare equal); every third draws up to 81 caps, so the class
        // table grows; three rounds draw some 38K distinct caps among 40K
        // products, so the products are grouped before the per-cap
        // cycles. Products arrive shuffled, as the run-pair walk stages
        // them out of `(a, b)` order, and exact key duplicates differ only
        // in `(a, b)`.
        let mut state = 0xB0C4E7u64;
        let mut staged = Products::default();
        let (mut grew, mut grouped, mut signed_zero) = (false, false, false);
        let (mut duplicate, mut shared, mut filtered) = (false, false, false);
        for round in 0..600 {
            let wide = round % 200 == 199;
            let n = if wide { 40_000 } else { round % 211 };
            let mut products: Vec<CrossItem> = (0..n)
                .map(|s| {
                    let k = lcg(&mut state);
                    let cap = match round % 3 {
                        _ if wide => (0..5).fold(k, |c, _| c * 9.0 + lcg(&mut state)),
                        0 => k,
                        1 => k * 9.0 + lcg(&mut state),
                        _ => [0.0, -0.0, 0.5, -0.0, 2.0][k as usize % 5],
                    };
                    CrossItem {
                        cap,
                        delay: lcg(&mut state),
                        width: lcg(&mut state),
                        a: s as u32 / 13,
                        b: s as u32 % 13,
                    }
                })
                .collect();
            for i in (1..products.len()).rev() {
                lcg(&mut state);
                products.swap(i, (state >> 33) as usize % (i + 1));
            }
            for objective in [Objective::MinDelay, POWER] {
                staged.items.clone_from(&products);
                let mut got = Vec::new();
                staged.prune(objective, |p| got.push(*p));
                assert_eq!(staged.items.len(), products.len(), "round {round}");
                let mut expect = products.clone();
                sort_oracle(&mut expect, objective);
                match objective {
                    Objective::MinDelay => prune_2d(&mut expect, |p| (p.cap, p.delay)),
                    Objective::MinPowerUnderDelay { .. } => {
                        prune_3d(&mut expect, |p| (p.cap, p.delay, p.width))
                    }
                }
                assert_eq!(bits(&got), bits(&expect), "round {round} {objective:?}");
                // A product a smaller-cap survivor dominates: the floor
                // drops it, before its bucket is sorted when it shares one.
                filtered |= !wide
                    && products.iter().any(|p| {
                        products.iter().filter(|q| q.cap == p.cap).count() > 1
                            && expect.iter().any(|s| {
                                s.cap < p.cap
                                    && s.delay <= p.delay
                                    && (objective == Objective::MinDelay || s.width <= p.width)
                            })
                    });
            }
            let mut keys: Vec<[u64; 3]> = products
                .iter()
                .map(|p| [p.cap, p.delay, p.width].map(|x| (x + 0.0).to_bits()))
                .collect();
            keys.sort_unstable();
            duplicate |= keys.windows(2).any(|w| w[0] == w[1]);
            let mut caps: Vec<u64> = keys.iter().map(|k| k[0]).collect();
            caps.dedup();
            grew |= caps.len() > MIN_CLASSES;
            grouped |= caps.len() > GROUPED_ABOVE;
            shared |= caps.len() < products.len();
            signed_zero |= products.iter().any(|p| p.cap.to_bits() == 0)
                && products
                    .iter()
                    .any(|p| p.cap.to_bits() == (-0.0f64).to_bits());
        }
        assert!(grew, "no round held more than {MIN_CLASSES} distinct caps");
        assert!(
            grouped,
            "no round held more than {GROUPED_ABOVE} distinct caps"
        );
        assert!(shared, "no bucket ever held two products");
        assert!(signed_zero, "no round held both -0.0 and 0.0 caps");
        assert!(duplicate, "no two products ever shared a key");
        assert!(
            filtered,
            "no product was ever dominated by a smaller-cap survivor"
        );
    }

    /// Classes the cap table holds before it first grows, times two: a
    /// round with more distinct caps than this makes it grow twice.
    const MIN_CLASSES: usize = 64;

    #[test]
    fn first_child_fast_path_and_fallback_match_the_staged_path() {
        // A node's first child, merged with the unit accumulator. When its
        // lifted frontier is in key order the sweep runs inside the store;
        // a hand-swapped pair of neighbours (as rounding in a lift can
        // produce) makes it stage the products instead. Either way the
        // survivors, their traces and the staged count (what the node adds
        // to `options_created` and `merge_products_max`) must be those of
        // staging every admitted product and pruning them with the
        // reference pruner.
        let mut state = 0xF1857u64;
        let (mut fast, mut fallback) = (0, 0);
        let mut products = Products::default();
        let mut merged = OptionBuf::default();
        let mut unit = OptionBuf::default();
        unit.push(0.0, 0.0, 0.0, 0);
        for round in 0..400 {
            let objective = if round % 2 == 0 {
                Objective::MinDelay
            } else {
                POWER
            };
            // A child frontier as it is parked: pruned, sorted, lifted
            // (exactly, so the order holds), after other nodes' options.
            let mut rows: Vec<(f64, f64, f64)> = (0..1 + round % 29)
                .map(|_| (lcg(&mut state), lcg(&mut state), lcg(&mut state)))
                .collect();
            match objective {
                Objective::MinDelay => prune_2d(&mut rows, |x| (x.0, x.1)),
                Objective::MinPowerUnderDelay { .. } => prune_3d(&mut rows, |&x| x),
            }
            let swapped = round % 4 >= 2 && rows.len() >= 2;
            if swapped {
                let i = lcg(&mut state) as usize % (rows.len() - 1);
                rows.swap(i, i + 1);
            }
            let mut store = OptionBuf::default();
            for j in 0..3 {
                store.push(99.0, 99.0, 99.0, 500 + j);
            }
            for (i, &(cap, delay, width)) in rows.iter().enumerate() {
                store.push(cap + 3.0, delay + 1.0 + 2.0 * cap, width, 10 + i as u32);
            }
            let range = 3..store.len();
            let limit = if round % 3 == 0 { f64::INFINITY } else { 30.0 };
            let admits = |delay: f64, cap: f64| delay + cap <= limit;

            let mut staged: Vec<(f64, f64, f64, u32)> = range
                .clone()
                .filter_map(|b| {
                    let (cap, delay, width) = product(&unit, 0, &store, b);
                    admits(delay, cap).then_some((cap, delay, width, store.trace[b]))
                })
                .collect();
            let in_order = staged.windows(2).all(|w| match objective {
                Objective::MinDelay => (w[0].0, w[0].1) <= (w[1].0, w[1].1),
                Objective::MinPowerUnderDelay { .. } => {
                    (w[0].0, w[0].1, w[0].2) <= (w[1].0, w[1].1, w[1].2)
                }
            });
            let expect_staged = staged.len();
            match objective {
                Objective::MinDelay => prune_2d(&mut staged, |r| (r.0, r.1)),
                Objective::MinPowerUnderDelay { .. } => prune_3d(&mut staged, |r| (r.0, r.1, r.2)),
            }

            products.items.clear();
            let (n, kept) = merge_first_child(
                &mut store,
                range,
                &unit,
                objective,
                &admits,
                &mut products,
                &mut merged,
            );
            let got: Vec<(f64, f64, f64, u32)> = (3..3 + kept)
                .map(|i| (store.cap[i], store.delay[i], store.width[i], store.trace[i]))
                .collect();
            let ctx = format!("round {round} {objective:?} swapped {swapped}");
            assert_eq!(n, expect_staged, "{ctx}");
            assert_eq!(got, staged, "{ctx}");
            assert_eq!(store.trace[..3], [500, 501, 502], "{ctx}");
            if in_order {
                assert!(
                    products.items.is_empty(),
                    "{ctx}: an in-order child was staged"
                );
                fast += 1;
            } else {
                assert_eq!(
                    products.items.len(),
                    n,
                    "{ctx}: out of order, yet not staged"
                );
                fallback += 1;
            }
        }
        assert!(fast > 0, "the in-place sweep never ran");
        assert!(fallback > 0, "the staged fallback never ran");
    }
}
