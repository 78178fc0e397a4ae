//! The pre-SoA tree DP, preserved verbatim as a reference.
//!
//! The production tree engine ([`crate::tree_min_power`]) moved to the
//! sorted struct-of-arrays frontier on a reusable per-thread scratch.
//! This module keeps the previous
//! implementation — per-node option `Vec`s, clone + full re-sort
//! (`prune_2d`/`prune_3d`) cross-merges — for two jobs:
//!
//! * **equivalence**: `tests/tree_frontier_equivalence.rs` pins the
//!   production tree solver to the same [`TreeSolution`]s as this
//!   implementation on a 50-tree corpus, as judged by
//!   [`same_tree_solution`](super::same_tree_solution);
//! * **benchmarking**: `rip bench` (`rip_bench::tree_bench`) measures
//!   the production solver against this one in the same process, so the recorded speedup in
//!   `BENCH_tree.json` is machine-independent and reproducible
//!   anywhere.
//!
//! Do not "optimize" this module — its value is being the fixed point.

use super::prune::{prune_2d, prune_3d, Staircase};
use crate::chain::DpStats;
use crate::error::DpError;
use crate::tree::TreeSolution;
use rip_delay::RcTree;
use rip_tech::{RepeaterDevice, RepeaterLibrary};
use std::cmp::Ordering;

/// Tree option (internal): downstream load, worst downstream delay,
/// accumulated width, and a trace handle.
#[derive(Debug, Clone, Copy)]
struct TOpt {
    cap: f64,
    delay: f64,
    width: f64,
    trace: u32,
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

impl TArena {
    fn new() -> Self {
        Self {
            nodes: vec![TNode::Root],
        }
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

// This module keeps its own copy of the width-bucket reduction, so a
// change to the production reducer in `crate::frontier` cannot move the
// oracle with it.

/// One fresh insertion option inside a width bucket, before the bucket
/// is reduced to its sub-frontier. `seq` records generation order so an
/// unstable sort on the full `(delay, width, seq)` key reproduces a
/// stable sort without its temporary allocation.
#[derive(Debug, Clone, Copy)]
struct BucketItem {
    delay: f64,
    width: f64,
    trace: u32,
    seq: u32,
}

#[inline]
fn cmp_f64(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b).expect("finite DP keys")
}

/// Reduces a generation bucket (equal-`cap` fresh options) to its 2D
/// delay-mode survivor and emits it: only the bucket's earliest
/// minimum-delay option can survive same-`cap` dominance. The emit
/// closure owns the storage layout.
fn reduce_bucket_2d(bucket: &[BucketItem], mut emit: impl FnMut(&BucketItem)) {
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
fn reduce_bucket_3d(bucket: &mut [BucketItem], mut emit: impl FnMut(&BucketItem)) {
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

/// Tree objective selector (mirrors the chain's objective).
#[derive(Debug, Clone, Copy, PartialEq)]
enum TreeMode {
    MinDelay,
    MinPower { target_fs: f64 },
}

/// Reusable per-solve scratch for the buffer-combine step: the fresh
/// sub-frontiers, the in-flight width bucket, the dominance staircase,
/// and the child-lift buffer. Allocated once per [`solve_tree`] call
/// instead of once per tree node.
#[derive(Debug, Default)]
struct TreeScratch {
    fresh: Vec<TOpt>,
    bucket: Vec<BucketItem>,
    stairs: Staircase,
    lifted: Vec<TOpt>,
}

/// Lexicographic option key for `mode`: `(cap, delay)` in delay mode,
/// `(cap, delay, width)` in power mode — exactly the reference pruner's
/// sort keys.
fn cmp_opt(a: &TOpt, b: &TOpt, mode: TreeMode) -> Ordering {
    let two = cmp_f64(a.cap, b.cap).then_with(|| cmp_f64(a.delay, b.delay));
    match mode {
        TreeMode::MinDelay => two,
        TreeMode::MinPower { .. } => two.then_with(|| cmp_f64(a.width, b.width)),
    }
}

/// Merges the sorted unbuffered prefix with the sorted bucketed fresh
/// options into the non-dominated frontier (ties prefer the prefix,
/// reproducing the reference pruner's stable sort of
/// `[prefix.., fresh..]`). Returns the surviving options, sorted.
fn merge_combine(
    prefix: &[TOpt],
    fresh: &[TOpt],
    mode: TreeMode,
    stairs: &mut Staircase,
) -> Vec<TOpt> {
    let mut out = Vec::with_capacity(prefix.len() + fresh.len());
    stairs.clear();
    let mut best_delay = f64::INFINITY;
    let (mut i, mut j) = (0usize, 0usize);
    while i < prefix.len() || j < fresh.len() {
        let take_prefix = if i >= prefix.len() {
            false
        } else if j >= fresh.len() {
            true
        } else {
            cmp_opt(&prefix[i], &fresh[j], mode) != Ordering::Greater
        };
        let o = if take_prefix {
            i += 1;
            prefix[i - 1]
        } else {
            j += 1;
            fresh[j - 1]
        };
        let keep = match mode {
            TreeMode::MinDelay => {
                if o.delay < best_delay {
                    best_delay = o.delay;
                    true
                } else {
                    false
                }
            }
            TreeMode::MinPower { .. } => {
                if stairs.dominates(o.delay, o.width) {
                    false
                } else {
                    stairs.insert(o.delay, o.width);
                    true
                }
            }
        };
        if keep {
            out.push(o);
        }
    }
    out
}

/// Reduces a width bucket to its sorted sub-frontier and appends it to
/// `fresh` via [`reduce_bucket_2d`]/[`reduce_bucket_3d`]: only the
/// bucket's minimum-delay record (delay mode) or its `(delay, width)`
/// staircase (power mode) can survive same-`cap` dominance in
/// [`merge_combine`].
fn reduce_bucket(bucket: &mut [BucketItem], cap: f64, mode: TreeMode, fresh: &mut Vec<TOpt>) {
    let emit = |item: &BucketItem| {
        fresh.push(TOpt {
            cap,
            delay: item.delay,
            width: item.width,
            trace: item.trace,
        });
    };
    match mode {
        TreeMode::MinDelay => reduce_bucket_2d(bucket, emit),
        TreeMode::MinPower { .. } => reduce_bucket_3d(bucket, emit),
    }
}

/// Minimum-delay buffering of an RC tree with the pre-SoA sweep.
/// Semantics are identical to [`crate::tree_min_delay`]; only the data
/// structures differ (and the test suite pins even those to the same
/// results).
///
/// # Errors
///
/// Returns [`DpError::BadAllowedMask`] for a mask of the wrong length.
pub fn tree_min_delay(
    tree: &RcTree,
    device: &RepeaterDevice,
    driver_width: f64,
    library: &RepeaterLibrary,
    allowed: Option<&[bool]>,
) -> Result<TreeSolution, DpError> {
    solve_tree(
        tree,
        device,
        driver_width,
        library,
        allowed,
        TreeMode::MinDelay,
    )
}

/// Minimum-total-width buffering of an RC tree under a timing target
/// with the pre-SoA sweep. Semantics are identical to
/// [`crate::tree_min_power`].
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
    solve_tree(
        tree,
        device,
        driver_width,
        library,
        allowed,
        TreeMode::MinPower { target_fs },
    )
}

fn solve_tree(
    tree: &RcTree,
    device: &RepeaterDevice,
    driver_width: f64,
    library: &RepeaterLibrary,
    allowed: Option<&[bool]>,
    mode: TreeMode,
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
    let target = match mode {
        TreeMode::MinDelay => None,
        TreeMode::MinPower { target_fs } => Some(target_fs),
    };

    let mut arena = TArena::new();
    let mut scratch = TreeScratch::default();
    let mut stats = DpStats {
        candidates: tree.len() - 1,
        library_size: library.len(),
        ..DpStats::default()
    };
    // options[v]: the non-dominated set looking into node v from its
    // parent edge (load the edge would see at v, worst delay from v's
    // input to any sink below, width spent below).
    let mut options: Vec<Vec<TOpt>> = vec![Vec::new(); tree.len()];

    // Creation order guarantees parents before children, so a reverse
    // scan is a post-order.
    for v in (0..tree.len()).rev() {
        // Cross-merge the children (lifted across their edges).
        let mut acc = vec![TOpt {
            cap: 0.0,
            delay: 0.0,
            width: 0.0,
            trace: 0,
        }];
        for &u in tree.children(v) {
            let wire = tree.wire(u);
            scratch.lifted.clear();
            scratch.lifted.extend(options[u].iter().map(|o| TOpt {
                cap: o.cap + wire.capacitance,
                delay: o.delay + wire.elmore + wire.resistance * o.cap,
                width: o.width,
                trace: o.trace,
            }));
            options[u] = Vec::new(); // consumed; release the node storage
            let mut next = Vec::with_capacity(acc.len() * scratch.lifted.len());
            for a in &acc {
                for b in &scratch.lifted {
                    if target.is_some_and(|t| a.delay.max(b.delay) > t) {
                        continue;
                    }
                    next.push(TOpt {
                        cap: a.cap + b.cap,
                        delay: a.delay.max(b.delay),
                        width: a.width + b.width,
                        trace: arena.join(a.trace, b.trace),
                    });
                }
            }
            stats.options_created += next.len() as u64;
            stats.merge_products_max = stats.merge_products_max.max(next.len() as u64);
            prune(&mut next, mode);
            acc = next;
        }

        if v == 0 {
            // Driver stage at the root (tap at the root loads the driver
            // alongside the subtree).
            let tap = tree.sink_cap(0);
            for o in &mut acc {
                o.delay += device.intrinsic_delay()
                    + device.output_resistance(driver_width) * (o.cap + tap);
            }
            options[0] = acc;
            break;
        }

        // Buffered at v: the buffer drives the merged subtree; upstream
        // sees tap + buffer input cap. Generated per width bucket (each
        // bucket shares its cap and is reduced to its sub-frontier), with
        // the traceback allocated eagerly.
        let tap = tree.sink_cap(v);
        scratch.fresh.clear();
        let mut created = acc.len() as u64;
        if buffer_ok(v) {
            for &w in library.widths() {
                let new_cap = tap + device.input_cap(w);
                scratch.bucket.clear();
                for o in &acc {
                    let delay =
                        o.delay + device.intrinsic_delay() + device.output_resistance(w) * o.cap;
                    if target.is_some_and(|t| delay > t) {
                        continue;
                    }
                    let seq = scratch.bucket.len() as u32;
                    scratch.bucket.push(BucketItem {
                        delay,
                        width: o.width + w,
                        trace: arena.buffer(v, w, o.trace),
                        seq,
                    });
                }
                created += scratch.bucket.len() as u64;
                reduce_bucket(&mut scratch.bucket, new_cap, mode, &mut scratch.fresh);
            }
        }
        stats.options_created += created;
        // Unbuffered at v: the node's tap joins the stage load (a
        // constant shift, so the sorted order survives and the prune is
        // a single linear merge).
        for o in &mut acc {
            o.cap += tap;
        }
        let combined = merge_combine(&acc, &scratch.fresh, mode, &mut scratch.stairs);
        stats.options_peak = stats.options_peak.max(combined.len());
        options[v] = combined;
    }

    let finals = &options[0];
    let best =
        match mode {
            TreeMode::MinDelay => finals.iter().min_by(|a, b| {
                a.delay
                    .partial_cmp(&b.delay)
                    .expect("finite delays")
                    .then(a.width.partial_cmp(&b.width).expect("finite widths"))
            }),
            TreeMode::MinPower { target_fs } => finals
                .iter()
                .filter(|o| o.delay <= target_fs)
                .min_by(|a, b| {
                    a.width
                        .partial_cmp(&b.width)
                        .expect("finite widths")
                        .then(a.delay.partial_cmp(&b.delay).expect("finite delays"))
                }),
        };
    let best = match best {
        Some(b) => *b,
        None => {
            let fastest = solve_tree(
                tree,
                device,
                driver_width,
                library,
                allowed,
                TreeMode::MinDelay,
            )?;
            return Err(DpError::InfeasibleTarget {
                target_fs: target.expect("only the power mode can be infeasible"),
                achievable_fs: fastest.delay_fs,
            });
        }
    };

    let mut buffers = Vec::new();
    arena.collect(best.trace, &mut buffers);
    let mut buffer_widths = vec![None; tree.len()];
    for (node, width) in buffers {
        buffer_widths[node] = Some(width);
    }
    stats.trace_nodes = arena.nodes.len() - 1;
    Ok(TreeSolution {
        buffer_widths,
        delay_fs: best.delay,
        total_width: best.width,
        stats,
    })
}

fn prune(options: &mut Vec<TOpt>, mode: TreeMode) {
    match mode {
        TreeMode::MinDelay => prune_2d(options, |o| (o.cap, o.delay)),
        TreeMode::MinPower { .. } => prune_3d(options, |o| (o.cap, o.delay, o.width)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rip_tech::Technology;

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

    #[test]
    fn reference_tree_solver_agrees_with_production_solver() {
        let tech = Technology::generic_180nm();
        let tree = y_tree(tech.device());
        let lib = RepeaterLibrary::range_step(10.0, 400.0, 40.0).unwrap();

        let ref_fast = tree_min_delay(&tree, tech.device(), 120.0, &lib, None).unwrap();
        let new_fast = crate::tree_min_delay(&tree, tech.device(), 120.0, &lib, None).unwrap();
        assert!(
            crate::reference::same_tree_solution(&ref_fast, &new_fast),
            "min-delay tree solutions must be identical"
        );

        for mult in [1.1, 1.4, 2.0] {
            let target = ref_fast.delay_fs * mult;
            let a = tree_min_power(&tree, tech.device(), 120.0, &lib, None, target).unwrap();
            let b = crate::tree_min_power(&tree, tech.device(), 120.0, &lib, None, target).unwrap();
            assert!(
                crate::reference::same_tree_solution(&a, &b),
                "mult {mult}: min-power tree solutions must be identical"
            );
        }
    }
}
