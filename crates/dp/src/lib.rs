//! # rip-dp — dynamic-programming repeater insertion engines
//!
//! Implements the discrete half of the paper's hybrid scheme, and the
//! baseline it is evaluated against:
//!
//! * [`solve_min_delay`] — van Ginneken's algorithm \[11\] over a candidate
//!   grid and repeater library (used for `τ_min` and coarse seeding);
//! * [`solve_min_power`] — the Lillis-style power-mode DP \[14\]: minimum
//!   total repeater width subject to a timing target, with the 3D
//!   `(cap, delay, width)` Pareto pruning whose pseudo-polynomial growth
//!   motivates RIP (paper, Section 2);
//! * [`CandidateSet`] — validated candidate positions (uniform grids and
//!   RIP's refined windows);
//! * [`brute_min_delay`] / [`brute_min_power`] (and the tree
//!   counterparts [`brute_tree_min_delay`] / [`brute_tree_min_power`],
//!   which honor the same `allowed` legality masks as the tree DP) —
//!   exhaustive reference oracles for cross-validation on tiny
//!   instances;
//! * [`tree_min_delay`] / [`tree_min_power`] — the tree extension
//!   announced in the paper's conclusion, cross-validated against the
//!   chain engines on path topologies; like the chain sweep it runs on
//!   the sorted struct-of-arrays frontier, drops options that a
//!   target-aware bound proves infeasible, and merges branches with
//!   per-width two-pointer walks. Both sweeps run one shared
//!   buffer-insertion step at every buffer site (try each width, keep
//!   each width class's best insertion, reduce each width bucket, merge
//!   into the frontier, recording a trace as the merge keeps an
//!   insertion), one final pick, and one dominance test in every prune:
//!   a per-width-rank delay floor;
//! * one scratch per thread — the four DP functions solve on their
//!   thread's reusable working memory (frontiers, merge buffers, trace
//!   arenas), so a thread allocates nothing after its first solve and
//!   frees that memory when it exits;
//! * [`mod@reference`] — the seed chain sweep and the pre-SoA tree
//!   engine ([`mod@reference::tree`]), kept verbatim so the sorted
//!   struct-of-arrays frontiers that now power the production engines
//!   stay pinned to the same answers ([`reference::same_solution`],
//!   [`reference::same_tree_solution`]) and honestly measured speedups
//!   (`BENCH_dp_frontier.json`, `BENCH_tree.json`).
//!
//! # Example
//!
//! ```
//! use rip_dp::{solve_min_delay, solve_min_power, CandidateSet};
//! use rip_net::{NetBuilder, Segment};
//! use rip_tech::{RepeaterLibrary, Technology};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let tech = Technology::generic_180nm();
//! let net = NetBuilder::new()
//!     .segment(Segment::new(9000.0, 0.08, 0.2))
//!     .build()?;
//! let lib = RepeaterLibrary::uniform(10.0, 10.0, 10)?; // paper baseline
//! let cands = CandidateSet::uniform(&net, 200.0);
//!
//! let tau_min = solve_min_delay(&net, tech.device(), &lib, &cands).delay_fs;
//! let sol = solve_min_power(&net, tech.device(), &lib, &cands, 1.5 * tau_min)?;
//! assert!(sol.delay_fs <= 1.5 * tau_min);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod brute;
mod candidates;
mod chain;
mod error;
mod frontier;
mod options;
pub mod reference;
mod tree;

pub use brute::{brute_min_delay, brute_min_power, brute_tree_min_delay, brute_tree_min_power};
pub use candidates::CandidateSet;
pub use chain::{solve_min_delay, solve_min_power, DpSolution, DpStats};
pub use error::DpError;
pub use tree::{tree_min_delay, tree_min_power, TreeSolution};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CandidateSet>();
        assert_send_sync::<DpSolution>();
        assert_send_sync::<DpStats>();
        assert_send_sync::<TreeSolution>();
        assert_send_sync::<DpError>();
    }
}
