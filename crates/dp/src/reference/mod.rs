//! The seed chain-DP implementation, preserved verbatim as a reference.
//!
//! The production sweep ([`crate::solve_min_power`]) moved to the sorted
//! struct-of-arrays frontier (the crate-private `frontier` module) with
//! reusable scratch. This module keeps the original array-of-structs
//! sweep — `clone` + full re-sort (`prune_2d`/`prune_3d`) after every
//! candidate — for two jobs:
//!
//! * **equivalence**: `tests/frontier_equivalence.rs` pins the
//!   production solver to the same answers as this implementation on a
//!   50-net corpus, as judged by [`same_solution`];
//! * **benchmarking**: `bench_dp_frontier` measures the production
//!   solver against this one in the same process, so the recorded
//!   speedup in `BENCH_dp_frontier.json` is machine-independent and
//!   reproducible anywhere.
//!
//! The [`tree`] submodule plays the same two roles for the tree DP:
//! it freezes the pre-SoA tree engine (per-node option `Vec`s,
//! clone+sort cross-merges) as the fixed point behind
//! `tests/tree_frontier_equivalence.rs` and `BENCH_tree.json`.
//!
//! [`same_solution`] and [`same_tree_solution`] are the one definition
//! of "same answer" that every equivalence test and bench gate uses.
//!
//! Do not "optimize" this module — its value is being the fixed point.

pub mod tree;

use crate::candidates::CandidateSet;
use crate::chain::{DpSolution, DpStats, Objective};
use crate::error::DpError;
use crate::options::{prune_2d, prune_3d, TraceArena, TRACE_ROOT};
use crate::tree::TreeSolution;
use rip_delay::{buffer_added_delay, wire_added_delay, Repeater, RepeaterAssignment};
use rip_net::TwoPinNet;
use rip_tech::{RepeaterDevice, RepeaterLibrary};

/// Whether two chain solutions give the same answer: the same repeaters
/// (positions and widths), delay and total width, bit for bit.
///
/// The work counters ([`DpStats`]) are not compared: they measure how an
/// engine reached the answer, and a faster engine is meant to change
/// them.
pub fn same_solution(a: &DpSolution, b: &DpSolution) -> bool {
    let (ra, rb) = (a.assignment.repeaters(), b.assignment.repeaters());
    ra.len() == rb.len()
        && ra.iter().zip(rb).all(|(x, y)| {
            x.position.to_bits() == y.position.to_bits() && x.width.to_bits() == y.width.to_bits()
        })
        && a.delay_fs.to_bits() == b.delay_fs.to_bits()
        && a.total_width.to_bits() == b.total_width.to_bits()
}

/// Whether two tree solutions give the same answer: the same buffer
/// width on every node, delay and total width, bit for bit. Like
/// [`same_solution`], it ignores the work counters.
pub fn same_tree_solution(a: &TreeSolution, b: &TreeSolution) -> bool {
    a.buffer_widths.len() == b.buffer_widths.len()
        && a.buffer_widths
            .iter()
            .zip(&b.buffer_widths)
            .all(|(x, y)| x.map(f64::to_bits) == y.map(f64::to_bits))
        && a.delay_fs.to_bits() == b.delay_fs.to_bits()
        && a.total_width.to_bits() == b.total_width.to_bits()
}

/// An in-flight DP option (internal to the reference sweep).
#[derive(Debug, Clone, Copy)]
struct Opt {
    cap: f64,
    delay: f64,
    width: f64,
    trace: u32,
    pending_pos: f64,
    pending_width: f64,
}

impl Opt {
    fn has_pending(&self) -> bool {
        !self.pending_width.is_nan()
    }
}

/// Minimum-delay repeater insertion with the seed sweep. Semantics are
/// identical to [`crate::solve_min_delay`]; only the pruning mechanics
/// differ (and the test suite pins even those to the same results).
pub fn solve_min_delay(
    net: &TwoPinNet,
    device: &RepeaterDevice,
    library: &RepeaterLibrary,
    candidates: &CandidateSet,
) -> DpSolution {
    let (mut options, arena, stats) = sweep(net, device, library, candidates, Objective::MinDelay);
    options.sort_by(|a, b| {
        a.delay
            .partial_cmp(&b.delay)
            .expect("finite delays")
            .then(a.width.partial_cmp(&b.width).expect("finite widths"))
    });
    let best = options
        .first()
        .expect("the unbuffered option always exists");
    materialize(best, &arena, stats)
}

/// Minimum-power repeater insertion with the seed sweep. Semantics are
/// identical to [`crate::solve_min_power`].
///
/// # Errors
///
/// Exactly as [`crate::solve_min_power`]: invalid and infeasible
/// targets.
pub fn solve_min_power(
    net: &TwoPinNet,
    device: &RepeaterDevice,
    library: &RepeaterLibrary,
    candidates: &CandidateSet,
    target_fs: f64,
) -> Result<DpSolution, DpError> {
    if !target_fs.is_finite() || target_fs <= 0.0 {
        return Err(DpError::InvalidTarget { target_fs });
    }
    let objective = Objective::MinPowerUnderDelay { target_fs };
    let (mut options, arena, stats) = sweep(net, device, library, candidates, objective);
    options.retain(|o| o.delay <= target_fs);
    if options.is_empty() {
        let fastest = solve_min_delay(net, device, library, candidates);
        return Err(DpError::InfeasibleTarget {
            target_fs,
            achievable_fs: fastest.delay_fs,
        });
    }
    options.sort_by(|a, b| {
        a.width
            .partial_cmp(&b.width)
            .expect("finite widths")
            .then(a.delay.partial_cmp(&b.delay).expect("finite delays"))
    });
    Ok(materialize(&options[0], &arena, stats))
}

fn materialize(best: &Opt, arena: &TraceArena, stats: DpStats) -> DpSolution {
    debug_assert!(
        !best.has_pending(),
        "final options never carry pending inserts"
    );
    let repeaters: Vec<Repeater> = arena
        .collect(best.trace)
        .into_iter()
        .map(|(x, w)| Repeater::new(x, w))
        .collect();
    let assignment = RepeaterAssignment::new(repeaters).expect("DP traces are valid assignments");
    DpSolution {
        assignment,
        delay_fs: best.delay,
        total_width: best.width,
        stats,
    }
}

/// The seed sink→source sweep: clones the option set at every candidate
/// and prunes with a full sort.
fn sweep(
    net: &TwoPinNet,
    device: &RepeaterDevice,
    library: &RepeaterLibrary,
    candidates: &CandidateSet,
    objective: Objective,
) -> (Vec<Opt>, TraceArena, DpStats) {
    let profile = net.profile();
    let target = match objective {
        Objective::MinDelay => None,
        Objective::MinPowerUnderDelay { target_fs } => Some(target_fs),
    };
    let mut arena = TraceArena::new();
    let mut stats = DpStats {
        candidates: candidates.len(),
        library_size: library.len(),
        ..DpStats::default()
    };
    let mut options = vec![Opt {
        cap: device.input_cap(net.receiver_width()),
        delay: 0.0,
        width: 0.0,
        trace: TRACE_ROOT,
        pending_pos: f64::NAN,
        pending_width: f64::NAN,
    }];
    stats.options_created = 1;

    let mut prev_pos = net.total_length();
    for &x in candidates.positions().iter().rev() {
        let wire = profile.interval(x, prev_pos);
        for o in &mut options {
            o.delay += wire_added_delay(wire, o.cap);
            o.cap += wire.capacitance;
        }
        if let Some(t) = target {
            options.retain(|o| o.delay <= t);
        }

        let mut combined = options.clone();
        for o in &options {
            for &w in library {
                let delay = o.delay + buffer_added_delay(device, w, o.cap);
                if target.is_some_and(|t| delay > t) {
                    continue;
                }
                combined.push(Opt {
                    cap: device.input_cap(w),
                    delay,
                    width: o.width + w,
                    trace: o.trace,
                    pending_pos: x,
                    pending_width: w,
                });
            }
        }
        stats.options_created += combined.len() as u64;

        match objective {
            Objective::MinDelay => prune_2d(&mut combined, |o| (o.cap, o.delay)),
            Objective::MinPowerUnderDelay { .. } => {
                prune_3d(&mut combined, |o| (o.cap, o.delay, o.width))
            }
        }

        for o in &mut combined {
            if o.has_pending() {
                o.trace = arena.push(o.pending_pos, o.pending_width, o.trace);
                o.pending_pos = f64::NAN;
                o.pending_width = f64::NAN;
            }
        }
        stats.options_peak = stats.options_peak.max(combined.len());
        options = combined;
        prev_pos = x;
    }

    let wire = profile.interval(0.0, prev_pos);
    for o in &mut options {
        o.delay += wire_added_delay(wire, o.cap);
        o.cap += wire.capacitance;
        o.delay += buffer_added_delay(device, net.driver_width(), o.cap);
    }
    stats.trace_nodes = arena.len() - 1;
    (options, arena, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rip_net::{NetBuilder, Segment};
    use rip_tech::Technology;

    #[test]
    fn reference_solver_agrees_with_production_solver() {
        let tech = Technology::generic_180nm();
        let net = NetBuilder::new()
            .segment(Segment::new(4000.0, 0.08, 0.20))
            .segment(Segment::new(5000.0, 0.06, 0.18))
            .driver_width(120.0)
            .receiver_width(60.0)
            .build()
            .unwrap();
        let lib = RepeaterLibrary::range_step(10.0, 400.0, 40.0).unwrap();
        let cands = CandidateSet::uniform(&net, 200.0);

        let ref_fast = solve_min_delay(&net, tech.device(), &lib, &cands);
        let new_fast = crate::solve_min_delay(&net, tech.device(), &lib, &cands);
        assert!(
            same_solution(&ref_fast, &new_fast),
            "min-delay solutions must be identical"
        );

        for mult in [1.1, 1.4, 2.0] {
            let target = ref_fast.delay_fs * mult;
            let a = solve_min_power(&net, tech.device(), &lib, &cands, target).unwrap();
            let b = crate::solve_min_power(&net, tech.device(), &lib, &cands, target).unwrap();
            assert!(
                same_solution(&a, &b),
                "mult {mult}: min-power solutions must be identical"
            );
        }
    }

    #[test]
    fn same_answer_ignores_counters_but_not_one_ulp_or_a_moved_buffer() {
        let bump = |x: f64| f64::from_bits(x.to_bits() + 1);
        let sol = DpSolution {
            assignment: RepeaterAssignment::new(vec![Repeater::new(1000.0, 120.0)]).unwrap(),
            delay_fs: 5.0e5,
            total_width: 120.0,
            stats: DpStats::default(),
        };
        let mut other = sol.clone();
        other.stats.trace_nodes = 7;
        assert!(same_solution(&sol, &other), "counters are not the answer");
        other.delay_fs = bump(sol.delay_fs);
        assert!(!same_solution(&sol, &other), "one-ulp delay change");
        let mut moved = sol.clone();
        moved.assignment = RepeaterAssignment::new(vec![Repeater::new(1200.0, 120.0)]).unwrap();
        assert!(!same_solution(&sol, &moved), "repeater moved");

        let tree = TreeSolution {
            buffer_widths: vec![None, Some(120.0), None],
            delay_fs: 5.0e5,
            total_width: 120.0,
            stats: DpStats::default(),
        };
        let mut other = tree.clone();
        other.stats.options_created = 42;
        assert!(
            same_tree_solution(&tree, &other),
            "counters are not the answer"
        );
        other.delay_fs = bump(tree.delay_fs);
        assert!(!same_tree_solution(&tree, &other), "one-ulp delay change");
        let mut moved = tree.clone();
        moved.buffer_widths = vec![None, None, Some(120.0)];
        assert!(
            !same_tree_solution(&tree, &moved),
            "buffer moved to another node"
        );
    }
}
