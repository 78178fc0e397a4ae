//! Algorithm RIP (Fig. 6 of the paper): the hybrid pipeline.
//!
//! 1. **Coarse DP** — Lillis-style power DP with a 5-entry coarse library
//!    on a 200 µm grid: cheap, and good enough to seed the analytics.
//! 2. **REFINE** — continuous Lagrangian width solving + derivative
//!    movement from the coarse seed.
//! 3. **Synthesis** — round the refined widths to the layout grid (10u)
//!    into a tiny design-specific library `B`; collect candidate
//!    locations `S` as ±10 slots at 50 µm around each refined position.
//! 4. **Fine DP** — power DP over `(B, S)`: a few widths × a few dozen
//!    positions, so it runs fast regardless of how fine the underlying
//!    width/location grids are.
//!
//! The implementation lives in [`crate::Engine`]; the [`rip`] free
//! function here is a one-shot convenience wrapper over a fresh engine.
//! Multi-net workloads should construct an [`crate::Engine`] directly to
//! reuse its `τ_min` memo.

use crate::config::RipConfig;
use crate::engine::Engine;
use crate::error::RipError;
use rip_dp::DpSolution;
use rip_net::TwoPinNet;
use rip_refine::RefineOutcome;
use rip_tech::{RepeaterLibrary, Technology};
use std::time::Duration;

/// Wall-clock runtimes of the RIP stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RipRuntime {
    /// Stage 1: coarse DP.
    pub coarse: Duration,
    /// Stage 2: analytical refinement.
    pub refine: Duration,
    /// Stages 3–4: synthesis + fine DP.
    pub fine: Duration,
}

impl RipRuntime {
    /// Total pipeline runtime.
    pub fn total(&self) -> Duration {
        self.coarse + self.refine + self.fine
    }
}

/// Complete result of a RIP run, with per-stage diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct RipOutcome {
    /// The timing target this run solved for, fs (a batch's
    /// [`BatchTarget`](crate::BatchTarget) resolved for this net).
    pub target_fs: f64,
    /// The final solution (stage 4; falls back to the best earlier stage
    /// in the rare cases discussed in [`rip`]).
    pub solution: DpSolution,
    /// Stage 1 solution (coarse DP seed).
    pub coarse: DpSolution,
    /// Stage 2 outcome (continuous refinement), when repeaters exist.
    pub refined: Option<RefineOutcome>,
    /// The synthesized design-specific library `B` (stage 3).
    pub library: Option<RepeaterLibrary>,
    /// Size of the synthesized candidate set `S` (stage 3).
    pub candidate_count: usize,
    /// Per-stage wall-clock runtimes.
    pub runtime: RipRuntime,
}

/// Runs algorithm RIP (Fig. 6) on a two-pin net.
///
/// Robustness beyond the paper's pseudocode (each case is rare but real):
///
/// * if the coarse power DP cannot meet the target (coarse libraries lack
///   small widths, not large ones, so this happens only at extremely
///   tight targets), the coarse *min-delay* solution seeds REFINE
///   instead;
/// * if the refined solution has **zero** repeaters (very loose targets
///   where the bare wire meets timing), the empty assignment is already
///   power-optimal and stages 3–4 are skipped;
/// * if the fine DP cannot meet the target after width rounding, the
///   library is enriched upward ([`crate::FineDpConfig::enrich_steps`])
///   and retried; the coarse solution is the final fallback.
///
/// # Errors
///
/// * [`RipError::Infeasible`] when no stage can meet the target (the
///   target is below the net's achievable delay);
/// * [`RipError::Dp`] / [`RipError::Refine`] for invalid inputs
///   (non-positive target, illegal candidates).
///
/// # Examples
///
/// ```
/// use rip_core::{rip, RipConfig};
/// use rip_net::{NetBuilder, Segment};
/// use rip_tech::Technology;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let tech = Technology::generic_180nm();
/// let net = NetBuilder::new()
///     .segment(Segment::new(12_000.0, 0.08, 0.2))
///     .build()?;
/// let outcome = rip(&net, &tech, 2.5e6, &RipConfig::paper())?;
/// assert!(outcome.solution.delay_fs <= 2.5e6);
/// println!("{} repeaters, total width {:.0}u",
///          outcome.solution.assignment.len(),
///          outcome.solution.total_width);
/// # Ok(())
/// # }
/// ```
pub fn rip(
    net: &TwoPinNet,
    tech: &Technology,
    target_fs: f64,
    config: &RipConfig,
) -> Result<RipOutcome, RipError> {
    Engine::new(tech.clone(), config.clone()).solve(net, target_fs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tmin::tau_min_paper;
    use rip_delay::evaluate;
    use rip_net::{NetBuilder, NetGenerator, RandomNetConfig, Segment};

    fn tech() -> Technology {
        Technology::generic_180nm()
    }

    fn long_net() -> TwoPinNet {
        NetBuilder::new()
            .segment(Segment::new(4000.0, 0.08, 0.20))
            .segment(Segment::new(5000.0, 0.06, 0.18))
            .segment(Segment::new(4000.0, 0.08, 0.20))
            .driver_width(120.0)
            .receiver_width(60.0)
            .build()
            .unwrap()
    }

    #[test]
    fn rip_meets_target_and_matches_ground_truth() {
        let tech = tech();
        let net = long_net();
        let tmin = tau_min_paper(&net, tech.device());
        let target = tmin * 1.3;
        let out = rip(&net, &tech, target, &RipConfig::paper()).unwrap();
        assert!(out.solution.meets(target));
        out.solution.assignment.validate_on(&net).unwrap();
        let timing = evaluate(&net, tech.device(), &out.solution.assignment);
        assert!((timing.total_delay - out.solution.delay_fs).abs() < 1e-6);
        assert!(out.refined.is_some());
        assert!(out.library.is_some());
        assert!(out.candidate_count > 0);
    }

    #[test]
    fn synthesized_library_is_small_and_on_grid() {
        // The essence of RIP: the fine DP sees a tiny design-specific
        // library (a handful of 10u-grid widths), not a full range sweep.
        let tech = tech();
        let net = long_net();
        let tmin = tau_min_paper(&net, tech.device());
        let out = rip(&net, &tech, tmin * 1.4, &RipConfig::paper()).unwrap();
        let lib = out.library.unwrap();
        // A handful of distinct refined widths x (1 + 2*enrich_steps)
        // neighbours - still far smaller than a full-range sweep library.
        assert!(lib.len() <= 20, "library of {} widths", lib.len());
        for &w in lib.widths() {
            assert!(
                (w / 10.0 - (w / 10.0).round()).abs() < 1e-9,
                "width {w} off-grid"
            );
        }
    }

    #[test]
    fn rip_beats_or_ties_its_own_coarse_seed() {
        let tech = tech();
        let net = long_net();
        let tmin = tau_min_paper(&net, tech.device());
        for mult in [1.15, 1.4, 1.8] {
            let out = rip(&net, &tech, tmin * mult, &RipConfig::paper()).unwrap();
            if out.coarse.meets(tmin * mult) {
                assert!(
                    out.solution.total_width <= out.coarse.total_width + 1e-9,
                    "mult {mult}: final {} vs coarse {}",
                    out.solution.total_width,
                    out.coarse.total_width
                );
            }
        }
    }

    #[test]
    fn very_loose_target_returns_unbuffered() {
        let tech = tech();
        // A short net whose bare wire easily meets a huge target.
        let net = NetBuilder::new()
            .segment(Segment::new(1500.0, 0.08, 0.2))
            .build()
            .unwrap();
        let unbuffered =
            evaluate(&net, tech.device(), &rip_delay::RepeaterAssignment::empty()).total_delay;
        let out = rip(&net, &tech, unbuffered * 3.0, &RipConfig::paper()).unwrap();
        assert!(out.solution.assignment.is_empty());
        assert_eq!(out.solution.total_width, 0.0);
    }

    #[test]
    fn impossible_target_errors_with_achievable() {
        let tech = tech();
        let net = long_net();
        let err = rip(&net, &tech, 1.0, &RipConfig::paper()).unwrap_err();
        match err {
            RipError::Infeasible { achievable_fs, .. } => assert!(achievable_fs > 1.0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn tight_target_feasible_via_min_delay_seed() {
        // Target right at tau_min: the coarse power DP may fail, but the
        // pipeline must still deliver through the min-delay seeding path.
        let tech = tech();
        let net = long_net();
        let tmin = tau_min_paper(&net, tech.device());
        let out = rip(&net, &tech, tmin * 1.02, &RipConfig::paper()).unwrap();
        assert!(out.solution.meets(tmin * 1.02));
    }

    #[test]
    fn zoned_nets_stay_legal_through_the_pipeline() {
        let tech = tech();
        let mut gen = NetGenerator::from_seed(RandomNetConfig::default(), 17).unwrap();
        for _ in 0..5 {
            let net = gen.generate();
            let tmin = tau_min_paper(&net, tech.device());
            let out = rip(&net, &tech, tmin * 1.3, &RipConfig::paper()).unwrap();
            out.solution.assignment.validate_on(&net).unwrap();
            assert!(out.solution.meets(tmin * 1.3));
        }
    }

    #[test]
    fn runtime_totals_add_up() {
        let tech = tech();
        let net = long_net();
        let tmin = tau_min_paper(&net, tech.device());
        let out = rip(&net, &tech, tmin * 1.5, &RipConfig::paper()).unwrap();
        assert_eq!(
            out.runtime.total(),
            out.runtime.coarse + out.runtime.refine + out.runtime.fine
        );
    }
}
