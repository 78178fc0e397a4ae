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
//! * edge propagation is a linear **in-place** pass over the store's
//!   columns (the child frontier is consumed exactly once, by its
//!   parent, so it can be lifted where it lies);
//! * branch cross-merges stage only the products that can survive, then
//!   prune with an in-place unstable sort on the full key plus the
//!   product's source indices `(a, b)` (generation order, so the sort is
//!   order-equivalent to the reference's clone + stable sort, without
//!   either allocation) followed by a single binary-search [`Staircase`]
//!   dominance sweep;
//! * each legal node runs the buffer-insertion step that the chain sweep
//!   runs at each candidate ([`InsertStep`]): the tree supplies the load
//!   `tap + C_in(w)`, the stage delay `(d + i) + R·c`, the admission
//!   test [`Bound::admits`] and a [`TArena`] buffer record, and the
//!   step's linear merge combines the fresh insertions with the
//!   unbuffered options. The answer comes from the chain's final pick
//!   ([`select`]) over the root frontier.
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
//!   `|A|×|B|` products had been staged. The unit accumulator (each
//!   node's first child) stages in order, without regrouping.
//!
//! Traces are lazy, as in the chain sweep: a staged product carries only
//! its source indices and a fresh insertion only its pending width, and
//! the trace arena records a join or a buffer only for options that
//! survive pruning.
//!
//! The previous engine survives verbatim as [`crate::reference::tree`]
//! and `tests/tree_frontier_equivalence.rs` pins both to the same
//! answers ([`crate::reference::same_tree_solution`]: buffer widths,
//! delay and width bits). Every float expression matches the reference,
//! so only the work to compute the same survivors changes.

use crate::chain::{DpStats, Objective};
use crate::error::DpError;
use crate::frontier::{cmp_f64, select, InsertStep, OptionBuf, WidthRuns};
use crate::options::Staircase;
use rip_delay::RcTree;
use rip_tech::{RepeaterDevice, RepeaterLibrary};
use std::cell::RefCell;
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
/// b-inner, so an in-place unstable sort on the full
/// `(cap, delay[, width], a, b)` key reproduces the reference pruner's
/// stable sort without its clone or temporary allocation, and the trace
/// join can wait until the product survives.
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

/// Reusable working memory for the tree DP: the per-node frontier store
/// (one append-only SoA arena plus `(start, len)` ranges), the running
/// cross-merge accumulator, the width runs of both merge sides, the
/// staged cross-merge products, the buffer-insertion step's buffers, and
/// the trace arena.
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
    /// Staged cross-merge products, pruned in place.
    products: Vec<CrossItem>,
    /// The buffer-insertion step; its merge buffer and staircase also
    /// serve the cross-merge.
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
        self.products.clear();
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
    let delay = acc.delay[a].max(store.delay[b]);
    let cap = acc.cap[a] + store.cap[b];
    if admits(delay, cap) {
        products.push(CrossItem {
            cap,
            delay,
            width: acc.width[a] + store.width[b],
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
/// [`cross_merge_prune`] would drop it anyway.
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

/// Prunes the staged cross-merge products to their non-dominated
/// frontier and emits the survivors in sorted, reference order: an
/// in-place unstable sort on `(cap, delay[, width], a, b)` —
/// order-equivalent to the reference's stable `prune_2d`/`prune_3d`
/// sort — followed by one linear dominance sweep (min-delay record in
/// 2D, binary-search [`Staircase`] in 3D).
fn cross_merge_prune(
    products: &mut [CrossItem],
    objective: Objective,
    stairs: &mut Staircase,
    mut emit: impl FnMut(&CrossItem),
) {
    let generation = |x: &CrossItem, y: &CrossItem| (x.a, x.b).cmp(&(y.a, y.b));
    match objective {
        Objective::MinDelay => {
            products.sort_unstable_by(|x, y| {
                cmp_f64(x.cap, y.cap)
                    .then_with(|| cmp_f64(x.delay, y.delay))
                    .then_with(|| generation(x, y))
            });
            let mut best_delay = f64::INFINITY;
            for p in products.iter() {
                if p.delay < best_delay {
                    best_delay = p.delay;
                    emit(p);
                }
            }
        }
        Objective::MinPowerUnderDelay { .. } => {
            products.sort_unstable_by(|x, y| {
                cmp_f64(x.cap, y.cap)
                    .then_with(|| cmp_f64(x.delay, y.delay))
                    .then_with(|| cmp_f64(x.width, y.width))
                    .then_with(|| generation(x, y))
            });
            stairs.clear();
            for p in products.iter() {
                if !stairs.dominates(p.delay, p.width) {
                    stairs.insert(p.delay, p.width);
                    emit(p);
                }
            }
        }
    }
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
        for v in (0..tree.len()).rev() {
            // Cross-merge the children (lifted across their edges).
            acc.clear();
            acc.push(0.0, 0.0, 0.0, 0, f64::NAN);
            let admits = |delay: f64, cap: f64| {
                if v == 0 {
                    bound.admits_at_root(delay, cap)
                } else {
                    bound.admits(delay, cap)
                }
            };
            for (k, &u) in tree.children(v).iter().enumerate() {
                let wire = tree.wire(u);
                // Lift the child frontier across its edge, in place: it
                // is consumed exactly once, right here. The constant cap
                // shift and within-equal-cap-uniform delay shift
                // preserve the sort order.
                let (start, len) = ranges[u];
                let (start, end) = (start as usize, (start + len) as usize);
                for i in start..end {
                    let c = store.cap[i];
                    store.delay[i] = store.delay[i] + wire.elmore + wire.resistance * c;
                    store.cap[i] = c + wire.capacitance;
                }
                // The unit accumulator stages in order; later merges
                // walk each pair of equal-width runs.
                products.clear();
                if k == 0 {
                    stage_all(products, acc, store, start..end, &admits);
                } else {
                    runs_a.group(&acc.width, 0..acc.len(), by_width);
                    runs_b.group(&store.width, start..end, by_width);
                    stage_walk(products, acc, store, runs_a, runs_b, &admits);
                }
                stats.options_created += products.len() as u64;
                stats.merge_products_max = stats.merge_products_max.max(products.len() as u64);
                // Join traces for survivors only; they go to `merged`
                // so `acc.trace` stays readable until the swap.
                let merged = &mut step.merged;
                merged.clear();
                cross_merge_prune(products, objective, &mut step.stairs, |p| {
                    let trace = arena.join(acc.trace[p.a as usize], store.trace[p.b as usize]);
                    merged.push(p.cap, p.delay, p.width, trace, f64::NAN);
                });
                std::mem::swap(acc, merged);
            }

            if v == 0 {
                // Driver stage at the root (tap at the root loads the
                // driver alongside the subtree).
                let tap = tree.sink_cap(0);
                for i in 0..acc.len() {
                    acc.delay[i] += device.intrinsic_delay()
                        + device.output_resistance(driver_width) * (acc.cap[i] + tap);
                }
                break;
            }

            // Buffered at v: the buffer drives the merged subtree;
            // upstream sees tap + buffer input cap.
            let tap = tree.sink_cap(v);
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
            // is a single linear merge).
            for i in 0..acc.len() {
                acc.cap[i] += tap;
            }
            acc.retain_by(|cap, delay| bound.admits(delay, cap));
            step.merge_into(acc, objective, |w, prev| arena.buffer(v, w, prev));
            stats.options_peak = stats.options_peak.max(acc.len());
            // Park the finished frontier in the store arena.
            ranges[v] = (store.len() as u32, acc.len() as u32);
            store.append_from(acc);
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
        // state.
        let tech = tech();
        let tree = y_tree(tech.device());
        let net = chain_net();
        let cands = CandidateSet::uniform(&net, 600.0);
        let path = chain_as_tree(&net, tech.device(), &cands);
        let lib = RepeaterLibrary::range_step(10.0, 400.0, 40.0).unwrap();

        // The free functions reuse this thread's scratch.
        let fastest = tree_min_delay(&tree, tech.device(), 120.0, &lib, None).unwrap();
        for mult in [1.1, 1.6, 0.5, 1.3] {
            let target = fastest.delay_fs * mult;
            let reused = tree_min_power(&tree, tech.device(), 120.0, &lib, None, target);
            let fresh = solve_tree(
                &mut TreeScratch::default(),
                &tree,
                tech.device(),
                120.0,
                &lib,
                None,
                Objective::MinPowerUnderDelay { target_fs: target },
            );
            assert_eq!(format!("{reused:?}"), format!("{fresh:?}"), "mult {mult}");
            // Interleave a different topology to try to poison the
            // scratch.
            let _ = tree_min_delay(&path, tech.device(), 120.0, &lib, None);
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
        let mut stairs = Staircase::new();
        for round in 0..50 {
            let n = 1 + (round * 5) % 80;
            let mut products: Vec<CrossItem> = (0..n)
                .map(|s| CrossItem {
                    cap: lcg(&mut state),
                    delay: lcg(&mut state),
                    width: 0.0,
                    a: s / 8,
                    b: s % 8,
                })
                .collect();
            let items: Vec<(f64, f64)> = products.iter().map(|p| (p.cap, p.delay)).collect();
            let mut got: Vec<(f64, f64)> = Vec::new();
            cross_merge_prune(&mut products, Objective::MinDelay, &mut stairs, |p| {
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
        let mut stairs = Staircase::new();
        for round in 0..50 {
            let n = 1 + (round * 7) % 100;
            let mut products: Vec<CrossItem> = (0..n)
                .map(|s| CrossItem {
                    cap: lcg(&mut state),
                    delay: lcg(&mut state),
                    width: lcg(&mut state),
                    a: s / 8,
                    b: s % 8,
                })
                .collect();
            let items: Vec<(f64, f64, f64)> =
                products.iter().map(|p| (p.cap, p.delay, p.width)).collect();
            let mut got: Vec<(f64, f64, f64)> = Vec::new();
            cross_merge_prune(&mut products, POWER, &mut stairs, |p| {
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
            buf.push(cap, delay, width, 0, f64::NAN);
        }
        buf
    }

    #[test]
    fn walk_staging_prunes_to_the_all_pairs_survivors() {
        // The two-pointer walk may skip products, but cross_merge_prune
        // must emit exactly the (a, b) sequence it emits when every
        // product is staged — with and without a finite bound.
        let mut state = 0x5EEDu64;
        let mut stairs = Staircase::new();
        let (mut runs_a, mut runs_b) = (WidthRuns::default(), WidthRuns::default());
        let mut skipped = 0;
        for round in 0..200 {
            let acc = random_frontier(&mut state, 1 + round % 23);
            let store = random_frontier(&mut state, 1 + (round * 7) % 31);
            let limit = if round % 3 == 0 { f64::INFINITY } else { 10.0 };
            let admits = |delay: f64, cap: f64| delay + cap <= limit;
            for objective in [Objective::MinDelay, POWER] {
                let by_width = objective != Objective::MinDelay;
                let emitted = |products: &mut Vec<CrossItem>, stairs: &mut Staircase| {
                    let mut out = Vec::new();
                    cross_merge_prune(products, objective, stairs, |p| out.push((p.a, p.b)));
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
                assert_eq!(
                    emitted(&mut walked, &mut stairs),
                    emitted(&mut all, &mut stairs),
                    "round {round} {objective:?}"
                );
            }
        }
        assert!(skipped > 0, "the walk never skipped a product");
    }

    #[test]
    fn cross_merge_collapses_duplicates_to_the_earliest_record() {
        let mut stairs = Staircase::new();
        let item = |a, b| CrossItem {
            cap: 1.0,
            delay: 2.0,
            width: 3.0,
            a,
            b,
        };
        // Staged out of generation order: the (a, b) key, not the slot,
        // decides which duplicate survives.
        let mut products = vec![item(1, 0), item(0, 5), item(0, 2)];
        for objective in [Objective::MinDelay, POWER] {
            let mut survivors = Vec::new();
            cross_merge_prune(&mut products, objective, &mut stairs, |p| {
                survivors.push((p.a, p.b));
            });
            assert_eq!(
                survivors,
                vec![(0, 2)],
                "{objective:?}: generation-earliest duplicate survives"
            );
        }
    }
}
