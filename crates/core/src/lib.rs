//! # rip-core — RIP: An Efficient Hybrid Repeater Insertion Scheme for Low Power
//!
//! A from-scratch Rust reproduction of Liu, Peng & Papaefthymiou,
//! DATE 2005. Given a routed multi-layer two-pin interconnect with
//! forbidden zones and a timing budget, [`rip`] chooses the number,
//! widths and locations of repeaters so that the Elmore delay meets the
//! budget and the repeater power — equivalently the total repeater width
//! (Eq. 4) — is minimized.
//!
//! The hybrid pipeline (Fig. 6 of the paper):
//!
//! 1. coarse power-mode DP seeds the solution shape;
//! 2. algorithm REFINE (continuous Lagrangian widths + derivative-driven
//!    movement) polishes it analytically;
//! 3. the refined widths/locations are **rounded into a tiny
//!    design-specific library and candidate set**;
//! 4. a final power-mode DP over that tiny space picks the discrete
//!    optimum.
//!
//! Compared to the conventional fine-granularity DP baseline
//! ([`baseline_dp`], Lillis et al. \[14\]), this achieves comparable or
//! better power at a fraction of the runtime — the tradeoff reproduced by
//! this workspace's Table 1 / Table 2 / Figure 7 experiments.
//!
//! # Quickstart
//!
//! ```
//! use rip_core::{rip, tau_min_paper, RipConfig};
//! use rip_net::{NetBuilder, Segment};
//! use rip_tech::Technology;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let tech = Technology::generic_180nm();
//! let net = NetBuilder::new()
//!     .segment(Segment::new(6000.0, 0.08, 0.20)) // metal4 piece
//!     .segment(Segment::new(6000.0, 0.06, 0.18)) // metal5 piece
//!     .forbidden_zone(4000.0, 7000.0)?            // a macro in the way
//!     .build()?;
//!
//! let t_min = tau_min_paper(&net, tech.device());
//! let outcome = rip(&net, &tech, 1.3 * t_min, &RipConfig::paper())?;
//!
//! assert!(outcome.solution.delay_fs <= 1.3 * t_min);
//! for r in outcome.solution.assignment.repeaters() {
//!     println!("repeater: {:.0} um, width {:.0} u", r.position, r.width);
//! }
//! # Ok(())
//! # }
//! ```
//!
//! # Batch solving
//!
//! [`rip`] is a one-shot convenience. Anything that solves more than one
//! net — target sweeps, experiment grids, serving workloads — should hold
//! an [`Engine`] session instead: it memoizes each net's `τ_min`, pools
//! DP scratch memory across calls, and runs batches in parallel over all
//! cores with deterministic, input-ordered results
//! ([`Engine::solve_batch`]). Multi-sink trees get the same treatment
//! via [`Engine::solve_tree_batch_masked`] (pooled tree scratch,
//! memoized tree `τ_min`).
//!
//! The re-exported substrate crates ([`rip_tech`], [`rip_net`],
//! [`rip_delay`], [`rip_dp`], [`rip_refine`]) are available under
//! [`prelude`] for one-line imports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod baseline;
mod compare;
mod config;
mod engine;
mod error;
mod pipeline;
mod tmin;
mod tree_pipeline;

pub use baseline::{baseline_dp, BaselineConfig};
pub use compare::{power_saving_percent, summarize_savings, SavingsSummary};
pub use config::{CoarseDpConfig, FineDpConfig, RipConfig};
pub use engine::{BatchTarget, Engine, EngineStats};
pub use error::RipError;
pub use pipeline::{rip, RipOutcome, RipRuntime};
pub use rip_dp::{DpError, TreeSolution};
pub use tmin::{tau_min, tau_min_paper};
pub use tree_pipeline::{tree_rip, TreeRipConfig, TreeRipOutcome};

/// Convenient bulk imports for applications.
///
/// ```
/// use rip_core::prelude::*;
///
/// let tech = Technology::generic_180nm();
/// let _ = tech.device();
/// ```
pub mod prelude {
    pub use crate::{
        baseline_dp, power_saving_percent, rip, tau_min, tau_min_paper, tree_rip, BaselineConfig,
        BatchTarget, Engine, EngineStats, RipConfig, RipError, RipOutcome, TreeRipConfig,
    };
    pub use rip_delay::{evaluate, Repeater, RepeaterAssignment};
    pub use rip_dp::{solve_min_delay, solve_min_power, CandidateSet, DpSolution};
    pub use rip_net::{
        ForbiddenZone, NetBuilder, NetGenerator, RandomNetConfig, Segment, TwoPinNet,
    };
    pub use rip_refine::{refine, RefineConfig, RefineOutcome};
    pub use rip_tech::{RepeaterLibrary, Technology};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RipConfig>();
        assert_send_sync::<RipOutcome>();
        assert_send_sync::<RipError>();
        assert_send_sync::<BaselineConfig>();
        assert_send_sync::<SavingsSummary>();
    }
}
