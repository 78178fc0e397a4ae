//! # rip-delay — Elmore delay and power models for the RIP reproduction
//!
//! Implements Section 4.1 of the paper and the analytic machinery of
//! Sections 4.2–4.3:
//!
//! * [`stage_delay`] — the Eq. (1) delay of one repeater stage, with the
//!   incremental pieces ([`wire_added_delay`], [`buffer_added_delay`])
//!   that the DP engines compose;
//! * [`RepeaterAssignment`] / [`evaluate`] — complete solutions and their
//!   Eq. (2) evaluation, the ground truth all algorithms are checked
//!   against;
//! * [`assignment_power`] — conversion back to watts (Eqs. 3–4);
//! * [`ChainView`] — fixed positions, free widths: `τ(w)`, `∂τ/∂wᵢ`
//!   (Eq. 8) and the one-sided `(∂τ/∂xᵢ)±` (Eqs. 17–18) for REFINE;
//! * [`RcTree`] — RC trees with buffered Elmore evaluation, the substrate
//!   for the paper's announced tree extension.
//!
//! Elmore is the only delay model. Section 4.1 allows a more accurate
//! one, but the DP pruning and REFINE's derivatives rely on Elmore's
//! additivity and monotonicity, and every stage of the pipeline uses it.
//!
//! # Example
//!
//! ```
//! use rip_delay::{evaluate, Repeater, RepeaterAssignment};
//! use rip_net::{NetBuilder, Segment};
//! use rip_tech::Technology;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let tech = Technology::generic_180nm();
//! let net = NetBuilder::new()
//!     .segment(Segment::new(8000.0, 0.08, 0.2))
//!     .build()?;
//! let asg = RepeaterAssignment::new(vec![
//!     Repeater::new(2700.0, 95.0),
//!     Repeater::new(5400.0, 95.0),
//! ])?;
//! let timing = evaluate(&net, tech.device(), &asg);
//! println!("delay = {:.3} ns", rip_tech::units::ns_from_fs(timing.total_delay));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod assignment;
mod chain;
mod error;
mod power;
mod rctree;
mod stage;

pub use assignment::{evaluate, NetTiming, Repeater, RepeaterAssignment};
pub use chain::ChainView;
pub use error::DelayError;
pub use power::{assignment_power, PowerBreakdown};
pub use rctree::{RcTree, TreeTiming};
pub use stage::{buffer_added_delay, stage_delay, wire_added_delay};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Repeater>();
        assert_send_sync::<RepeaterAssignment>();
        assert_send_sync::<NetTiming>();
        assert_send_sync::<RcTree>();
        assert_send_sync::<DelayError>();
        assert_send_sync::<PowerBreakdown>();
    }
}
