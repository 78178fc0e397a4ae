//! Chain DP engines: van Ginneken \[11\] (min-delay) and Lillis \[14\]
//! (min-power-under-delay), on non-uniform multi-layer two-pin nets with
//! forbidden zones.
//!
//! The sweep runs sink → source over the candidate positions. Each option
//! records the downstream load `cap`, the downstream delay `delay`, and —
//! in power mode — the accumulated repeater width `width` (the paper's
//! power objective, Eq. 4). Crossing a wire interval `(a, b)` updates
//! `delay += D_ab + R_ab·cap; cap += C_ab`; inserting a repeater of width
//! `w` yields `delay += Rs·Cp + (Rs/w)·cap; cap = Co·w; width += w`.
//! Dominated options are pruned after every candidate (2D in delay mode,
//! 3D in power mode — the pseudo-polynomial frontier the paper's
//! Section 2 discusses).
//!
//! Options live in the sorted struct-of-arrays frontier of
//! [`crate::frontier`]. Every candidate runs the buffer-insertion step
//! that the tree DP runs at each node
//! ([`InsertStep`](crate::frontier::InsertStep)); the chain supplies the
//! load `C_in(w)`, the stage delay `d + (i + R·c)` of
//! [`buffer_added_delay`], the admission test `delay ≤ target`, and a
//! [`TraceArena`] record at the candidate's position. The surviving set
//! stays sorted by capacitance, so each prune is a single linear merge
//! instead of a full re-sort. All working memory comes from the
//! thread's [`DpScratch`], so a thread's solves after its first
//! allocate nothing.
//! The seed implementation survives in [`crate::reference`] and the
//! test suite pins both to byte-identical solutions.

use crate::candidates::CandidateSet;
use crate::error::DpError;
use crate::frontier::{select, DpScratch, OptionBuf};
use crate::options::{TraceArena, TRACE_ROOT};
use rip_delay::{buffer_added_delay, wire_added_delay, Repeater, RepeaterAssignment};
use rip_net::TwoPinNet;
use rip_tech::{RepeaterDevice, RepeaterLibrary};
use std::cell::RefCell;

/// Optimization objective of a DP run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Objective {
    /// Minimize source-to-sink Elmore delay (van Ginneken); used to
    /// compute `τ_min` for the paper's timing targets.
    MinDelay,
    /// Minimize total repeater width subject to `delay ≤ target` fs
    /// (Lillis-style power mode; the paper's Problem LPRI).
    MinPowerUnderDelay {
        /// Timing target `τ_t`, fs.
        target_fs: f64,
    },
}

impl Objective {
    /// The timing target, if the objective has one.
    pub(crate) fn target_fs(self) -> Option<f64> {
        match self {
            Objective::MinDelay => None,
            Objective::MinPowerUnderDelay { target_fs } => Some(target_fs),
        }
    }
}

/// Counters describing the work a DP run performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DpStats {
    /// Candidate positions considered.
    pub candidates: usize,
    /// Library widths considered.
    pub library_size: usize,
    /// Total options created across the sweep (before pruning).
    pub options_created: u64,
    /// Largest surviving option set after any prune.
    pub options_peak: usize,
    /// Traceback nodes materialized (options that survived pruning with a
    /// fresh insertion decision).
    pub trace_nodes: usize,
    /// Largest number of products one tree branch merge staged before
    /// pruning (0 for chains, which have no branch merges).
    pub merge_products_max: u64,
}

/// Result of a DP run.
#[derive(Debug, Clone, PartialEq)]
pub struct DpSolution {
    /// The chosen repeater insertion solution.
    pub assignment: RepeaterAssignment,
    /// Its total Elmore delay (Eq. 2), fs.
    pub delay_fs: f64,
    /// Its total repeater width `Σwᵢ` (the power objective of Eq. 4), u.
    pub total_width: f64,
    /// Work counters.
    pub stats: DpStats,
}

impl DpSolution {
    /// Returns `true` when the solution meets a timing target (with a
    /// hair of tolerance for float noise).
    pub fn meets(&self, target_fs: f64) -> bool {
        self.delay_fs <= target_fs * (1.0 + 1e-12)
    }
}

thread_local! {
    /// The thread's chain-DP working memory: every solve on this thread
    /// reuses it, and it is freed when the thread exits.
    static SCRATCH: RefCell<DpScratch> = RefCell::default();
}

/// Minimum-delay repeater insertion (van Ginneken over the candidate
/// grid). Always succeeds: the unbuffered solution is in the search
/// space.
///
/// Solves on the calling thread's reusable scratch memory.
///
/// # Examples
///
/// ```
/// use rip_dp::{solve_min_delay, CandidateSet};
/// use rip_net::{NetBuilder, Segment};
/// use rip_tech::{RepeaterLibrary, Technology};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let tech = Technology::generic_180nm();
/// let net = NetBuilder::new()
///     .segment(Segment::new(12_000.0, 0.08, 0.2))
///     .build()?;
/// let lib = RepeaterLibrary::range_step(10.0, 400.0, 10.0)?;
/// let cands = CandidateSet::uniform(&net, 200.0);
/// let fastest = solve_min_delay(&net, tech.device(), &lib, &cands);
/// assert!(!fastest.assignment.is_empty()); // a 12 mm net wants repeaters
/// # Ok(())
/// # }
/// ```
pub fn solve_min_delay(
    net: &TwoPinNet,
    device: &RepeaterDevice,
    library: &RepeaterLibrary,
    candidates: &CandidateSet,
) -> DpSolution {
    SCRATCH.with(|s| min_delay_in(&mut s.borrow_mut(), net, device, library, candidates))
}

/// [`solve_min_delay`] on a borrowed scratch.
fn min_delay_in(
    scratch: &mut DpScratch,
    net: &TwoPinNet,
    device: &RepeaterDevice,
    library: &RepeaterLibrary,
    candidates: &CandidateSet,
) -> DpSolution {
    let objective = Objective::MinDelay;
    let stats = sweep(net, device, library, candidates, objective, scratch);
    let best = select(&scratch.cur, objective).expect("the unbuffered option always exists");
    materialize(&scratch.cur, best, &scratch.arena, stats)
}

/// Minimum-power repeater insertion under a timing target (Lillis-style
/// power-mode DP; the baseline scheme \[14\] of the paper's experiments).
///
/// Solves on the calling thread's reusable scratch memory.
///
/// # Errors
///
/// * [`DpError::InvalidTarget`] for a non-positive/non-finite target;
/// * [`DpError::InfeasibleTarget`] when no solution over this library and
///   candidate set meets the target — the error carries the minimum
///   achievable delay so callers can report the paper's `V_DP` timing
///   violations.
pub fn solve_min_power(
    net: &TwoPinNet,
    device: &RepeaterDevice,
    library: &RepeaterLibrary,
    candidates: &CandidateSet,
    target_fs: f64,
) -> Result<DpSolution, DpError> {
    SCRATCH.with(|s| {
        min_power_in(
            &mut s.borrow_mut(),
            net,
            device,
            library,
            candidates,
            target_fs,
        )
    })
}

/// [`solve_min_power`] on a borrowed scratch. The infeasible fallback
/// reuses that scratch: the thread's scratch is already borrowed here.
fn min_power_in(
    scratch: &mut DpScratch,
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
    let stats = sweep(net, device, library, candidates, objective, scratch);
    match select(&scratch.cur, objective) {
        Some(i) => Ok(materialize(&scratch.cur, i, &scratch.arena, stats)),
        None => {
            let fastest = min_delay_in(scratch, net, device, library, candidates);
            Err(DpError::InfeasibleTarget {
                target_fs,
                achievable_fs: fastest.delay_fs,
            })
        }
    }
}

fn materialize(cur: &OptionBuf, best: usize, arena: &TraceArena, stats: DpStats) -> DpSolution {
    debug_assert!(
        cur.pending[best].is_nan(),
        "final options never carry pending inserts"
    );
    let repeaters: Vec<Repeater> = arena
        .collect(cur.trace[best])
        .into_iter()
        .map(|(x, w)| Repeater::new(x, w))
        .collect();
    let assignment = RepeaterAssignment::new(repeaters).expect("DP traces are valid assignments");
    DpSolution {
        assignment,
        delay_fs: cur.delay[best],
        total_width: cur.width[best],
        stats,
    }
}

/// The sink→source sweep shared by both objectives. Leaves the final
/// option frontier (with *total* delays, i.e. the driver stage applied)
/// in `scratch.cur` and the traceback in `scratch.arena`; returns the
/// work counters.
fn sweep(
    net: &TwoPinNet,
    device: &RepeaterDevice,
    library: &RepeaterLibrary,
    candidates: &CandidateSet,
    objective: Objective,
    scratch: &mut DpScratch,
) -> DpStats {
    scratch.reset();
    let profile = net.profile();
    let target = objective.target_fs();
    let limit = target.unwrap_or(f64::INFINITY);
    let mut stats = DpStats {
        candidates: candidates.len(),
        library_size: library.len(),
        ..DpStats::default()
    };
    let DpScratch { cur, step, arena } = scratch;
    cur.push(
        device.input_cap(net.receiver_width()),
        0.0,
        0.0,
        TRACE_ROOT,
        f64::NAN,
    );
    stats.options_created = 1;

    let mut prev_pos = net.total_length();
    for &x in candidates.positions().iter().rev() {
        // Cross the wire from this candidate to the previous stop. The
        // constant capacitance shift and within-equal-cap-uniform delay
        // shift preserve the frontier's sort order.
        let wire = profile.interval(x, prev_pos);
        for i in 0..cur.len() {
            cur.delay[i] += wire_added_delay(wire, cur.cap[i]);
            cur.cap[i] += wire.capacitance;
        }
        if let Some(t) = target {
            // Upstream delay only grows; over-target options are dead.
            cur.retain_delay_le(t);
        }

        // Option to insert each library width here: the repeater
        // presents `C_in(w)` upstream and adds its stage delay.
        stats.options_created += step.generate(
            cur,
            library.widths(),
            objective,
            |w| device.input_cap(w),
            |w, delay, cap| delay + buffer_added_delay(device, w, cap),
            |delay, _| delay <= limit,
        );
        step.merge_into(cur, objective, |w, prev| arena.push(x, w, prev));
        stats.options_peak = stats.options_peak.max(cur.len());
        prev_pos = x;
    }

    // Close the wire back to the source and apply the driver stage.
    let wire = profile.interval(0.0, prev_pos);
    for i in 0..cur.len() {
        cur.delay[i] += wire_added_delay(wire, cur.cap[i]);
        cur.cap[i] += wire.capacitance;
        cur.delay[i] += buffer_added_delay(device, net.driver_width(), cur.cap[i]);
    }
    stats.trace_nodes = arena.len() - 1;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use rip_delay::evaluate;
    use rip_net::{NetBuilder, Segment};
    use rip_tech::Technology;

    fn tech() -> Technology {
        Technology::generic_180nm()
    }

    fn long_net() -> TwoPinNet {
        NetBuilder::new()
            .segment(Segment::new(4000.0, 0.08, 0.20))
            .segment(Segment::new(5000.0, 0.06, 0.18))
            .segment(Segment::new(3000.0, 0.08, 0.20))
            .driver_width(120.0)
            .receiver_width(60.0)
            .build()
            .unwrap()
    }

    fn zoned_net() -> TwoPinNet {
        NetBuilder::new()
            .segment(Segment::new(4000.0, 0.08, 0.20))
            .segment(Segment::new(5000.0, 0.06, 0.18))
            .segment(Segment::new(3000.0, 0.08, 0.20))
            .forbidden_zone(3000.0, 7000.0)
            .unwrap()
            .driver_width(120.0)
            .receiver_width(60.0)
            .build()
            .unwrap()
    }

    #[test]
    fn min_delay_beats_unbuffered_on_long_net() {
        let tech = tech();
        let net = long_net();
        let lib = RepeaterLibrary::range_step(10.0, 400.0, 10.0).unwrap();
        let cands = CandidateSet::uniform(&net, 200.0);
        let sol = solve_min_delay(&net, tech.device(), &lib, &cands);
        let unbuffered = evaluate(&net, tech.device(), &RepeaterAssignment::empty()).total_delay;
        assert!(sol.delay_fs < unbuffered);
        assert!(!sol.assignment.is_empty());
    }

    #[test]
    fn reported_delay_matches_independent_evaluation() {
        // The DP's internal bookkeeping must agree with the ground-truth
        // Eq. (2) evaluator - this pins the wire/buffer increments.
        let tech = tech();
        let net = long_net();
        let lib = RepeaterLibrary::paper_coarse();
        let cands = CandidateSet::uniform(&net, 200.0);
        let sol = solve_min_delay(&net, tech.device(), &lib, &cands);
        let timing = evaluate(&net, tech.device(), &sol.assignment);
        assert!(
            (timing.total_delay - sol.delay_fs).abs() < 1e-6,
            "DP {} vs evaluate {}",
            sol.delay_fs,
            timing.total_delay
        );

        let target = sol.delay_fs * 1.4;
        let psol = solve_min_power(&net, tech.device(), &lib, &cands, target).unwrap();
        let ptiming = evaluate(&net, tech.device(), &psol.assignment);
        assert!((ptiming.total_delay - psol.delay_fs).abs() < 1e-6);
        assert!((psol.assignment.total_width() - psol.total_width).abs() < 1e-9);
    }

    #[test]
    fn min_power_meets_target_and_uses_less_width() {
        let tech = tech();
        let net = long_net();
        let lib = RepeaterLibrary::range_step(10.0, 400.0, 10.0).unwrap();
        let cands = CandidateSet::uniform(&net, 200.0);
        let fastest = solve_min_delay(&net, tech.device(), &lib, &cands);
        let target = fastest.delay_fs * 1.5;
        let sol = solve_min_power(&net, tech.device(), &lib, &cands, target).unwrap();
        assert!(sol.meets(target));
        assert!(
            sol.total_width < fastest.total_width,
            "loose target should save width: {} vs {}",
            sol.total_width,
            fastest.total_width
        );
    }

    #[test]
    fn power_is_monotone_in_target() {
        let tech = tech();
        let net = long_net();
        let lib = RepeaterLibrary::uniform(10.0, 40.0, 10).unwrap();
        let cands = CandidateSet::uniform(&net, 400.0);
        let fastest = solve_min_delay(&net, tech.device(), &lib, &cands);
        let mut prev_width = f64::INFINITY;
        for mult in [1.05, 1.2, 1.5, 1.8, 2.05] {
            let sol = solve_min_power(&net, tech.device(), &lib, &cands, fastest.delay_fs * mult)
                .unwrap();
            assert!(
                sol.total_width <= prev_width + 1e-9,
                "width must not grow as the target loosens"
            );
            prev_width = sol.total_width;
        }
    }

    #[test]
    fn infeasible_target_reports_achievable_delay() {
        let tech = tech();
        let net = long_net();
        let lib = RepeaterLibrary::paper_coarse();
        let cands = CandidateSet::uniform(&net, 200.0);
        let fastest = solve_min_delay(&net, tech.device(), &lib, &cands);
        let err =
            solve_min_power(&net, tech.device(), &lib, &cands, fastest.delay_fs * 0.5).unwrap_err();
        match err {
            DpError::InfeasibleTarget { achievable_fs, .. } => {
                assert!((achievable_fs - fastest.delay_fs).abs() < 1e-6);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn solutions_avoid_forbidden_zones() {
        let tech = tech();
        let net = zoned_net();
        let lib = RepeaterLibrary::range_step(10.0, 400.0, 40.0).unwrap();
        let cands = CandidateSet::uniform(&net, 200.0);
        let fastest = solve_min_delay(&net, tech.device(), &lib, &cands);
        fastest.assignment.validate_on(&net).unwrap();
        let sol =
            solve_min_power(&net, tech.device(), &lib, &cands, fastest.delay_fs * 1.3).unwrap();
        sol.assignment.validate_on(&net).unwrap();
        assert!(sol
            .assignment
            .positions()
            .iter()
            .all(|&x| !(x > 3000.0 && x < 7000.0)));
    }

    #[test]
    fn empty_candidates_yield_unbuffered_solution() {
        let tech = tech();
        let net = long_net();
        let lib = RepeaterLibrary::paper_coarse();
        let cands = CandidateSet::from_positions(&net, vec![]).unwrap();
        let sol = solve_min_delay(&net, tech.device(), &lib, &cands);
        assert!(sol.assignment.is_empty());
        let unbuffered = evaluate(&net, tech.device(), &RepeaterAssignment::empty()).total_delay;
        assert!((sol.delay_fs - unbuffered).abs() < 1e-6);
    }

    #[test]
    fn richer_library_never_hurts_min_delay() {
        let tech = tech();
        let net = long_net();
        let cands = CandidateSet::uniform(&net, 200.0);
        let coarse = RepeaterLibrary::range_step(10.0, 400.0, 40.0).unwrap();
        let fine = RepeaterLibrary::range_step(10.0, 400.0, 10.0).unwrap();
        let d_coarse = solve_min_delay(&net, tech.device(), &coarse, &cands).delay_fs;
        let d_fine = solve_min_delay(&net, tech.device(), &fine, &cands).delay_fs;
        assert!(d_fine <= d_coarse + 1e-6);
    }

    #[test]
    fn finer_candidates_never_hurt_min_delay() {
        let tech = tech();
        let net = long_net();
        let lib = RepeaterLibrary::range_step(10.0, 400.0, 40.0).unwrap();
        let coarse = CandidateSet::uniform(&net, 400.0);
        let fine = CandidateSet::uniform(&net, 200.0); // superset of coarse
        let d_coarse = solve_min_delay(&net, tech.device(), &lib, &coarse).delay_fs;
        let d_fine = solve_min_delay(&net, tech.device(), &lib, &fine).delay_fs;
        assert!(d_fine <= d_coarse + 1e-6);
    }

    #[test]
    fn invalid_target_is_rejected() {
        let tech = tech();
        let net = long_net();
        let lib = RepeaterLibrary::paper_coarse();
        let cands = CandidateSet::uniform(&net, 200.0);
        assert!(matches!(
            solve_min_power(&net, tech.device(), &lib, &cands, -1.0),
            Err(DpError::InvalidTarget { .. })
        ));
        assert!(matches!(
            solve_min_power(&net, tech.device(), &lib, &cands, f64::NAN),
            Err(DpError::InvalidTarget { .. })
        ));
    }

    #[test]
    fn stats_are_populated() {
        let tech = tech();
        let net = long_net();
        let lib = RepeaterLibrary::paper_coarse();
        let cands = CandidateSet::uniform(&net, 200.0);
        let sol = solve_min_delay(&net, tech.device(), &lib, &cands);
        assert_eq!(sol.stats.library_size, 5);
        assert_eq!(sol.stats.candidates, cands.len());
        assert!(sol.stats.options_created > 0);
        assert!(sol.stats.options_peak > 0);
    }

    #[test]
    fn reused_scratch_matches_fresh_scratch() {
        // A single scratch driven through an interleaving of solves must
        // give exactly what fresh scratches give: scratch is memory, not
        // state.
        let tech = tech();
        let net = long_net();
        let zoned = zoned_net();
        let lib = RepeaterLibrary::range_step(10.0, 400.0, 40.0).unwrap();
        let cands = CandidateSet::uniform(&net, 200.0);
        let zcands = CandidateSet::uniform(&zoned, 200.0);

        // The free functions reuse this thread's scratch.
        let fastest = solve_min_delay(&net, tech.device(), &lib, &cands);
        for mult in [1.1, 1.6, 0.5, 1.3] {
            let target = fastest.delay_fs * mult;
            let reused = solve_min_power(&net, tech.device(), &lib, &cands, target);
            let fresh = min_power_in(
                &mut DpScratch::default(),
                &net,
                tech.device(),
                &lib,
                &cands,
                target,
            );
            assert_eq!(format!("{reused:?}"), format!("{fresh:?}"), "mult {mult}");
            // Interleave a different net to try to poison the scratch.
            let _ = solve_min_delay(&zoned, tech.device(), &lib, &zcands);
        }
    }
}
