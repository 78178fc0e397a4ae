//! RIP for interconnect trees — the extension announced in the paper's
//! conclusion ("we are currently extending our hybrid scheme to the
//! design of low-power interconnect trees").
//!
//! The chain pipeline's four stages map onto trees as follows:
//!
//! 1. **Coarse tree DP** — candidate buffer sites from a coarse edge
//!    subdivision ([`rip_delay::RcTree::subdivided`]), coarse library;
//! 2. **Analytical width trim** — continuous per-buffer width
//!    minimization at fixed sites ([`rip_refine::trim_tree_widths`]),
//!    playing REFINE's width-solve role (location movement on trees is
//!    delegated to stage 4's windowed sites, consistent with RIP's
//!    philosophy of letting the DP handle discreteness);
//! 3. **Synthesis** — trimmed widths rounded to the layout grid into a
//!    tiny library `B`; candidate sites restricted to fine-subdivision
//!    nodes within a path-distance window of the chosen buffers;
//! 4. **Fine tree DP** over `(B, windowed sites)`.
//!
//! The implementation lives in [`crate::Engine::solve_tree_masked`]; the
//! [`tree_rip`] free function here is a one-shot convenience wrapper over
//! a fresh engine.

use crate::config::RipConfig;
use crate::engine::Engine;
use crate::error::RipError;
use rip_delay::RcTree;
use rip_dp::TreeSolution;
use rip_refine::TreeTrimConfig;
use rip_tech::{RepeaterLibrary, Technology};

use crate::pipeline::RipRuntime;

/// Configuration of the tree pipeline.
///
/// Reuses the chain [`RipConfig`] knobs where they carry over (coarse
/// library, width grid, enrichment, window width) and adds the
/// tree-specific subdivision steps.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeRipConfig {
    /// Chain-pipeline knobs reused for trees.
    pub base: RipConfig,
    /// Coarse candidate-site spacing along edges, µm (stage 1; the
    /// analogue of the chain's 200 µm grid).
    pub coarse_step_um: f64,
    /// Fine candidate-site spacing, µm (stage 4; the analogue of the
    /// chain's 50 µm windows).
    pub fine_step_um: f64,
    /// Width trimmer settings (stage 2).
    pub trim: TreeTrimConfig,
}

impl Default for TreeRipConfig {
    fn default() -> Self {
        Self {
            base: RipConfig::paper(),
            coarse_step_um: 200.0,
            fine_step_um: 50.0,
            trim: TreeTrimConfig::default(),
        }
    }
}

impl TreeRipConfig {
    /// The paper-analogous configuration (identical to `default`).
    pub fn paper() -> Self {
        Self::default()
    }
}

/// Result of a tree RIP run. Node indices refer to the **fine
/// subdivision** returned in [`TreeRipOutcome::fine_tree`].
#[derive(Debug, Clone, PartialEq)]
pub struct TreeRipOutcome {
    /// The timing target this run solved for, fs (a batch's
    /// [`BatchTarget`](crate::BatchTarget) resolved for this tree).
    pub target_fs: f64,
    /// The final buffered solution on the fine tree.
    pub solution: TreeSolution,
    /// The fine subdivision the solution indexes into.
    pub fine_tree: RcTree,
    /// Stage 1 coarse solution's total width, u (diagnostic).
    pub coarse_width: f64,
    /// Stage 2 trimmed (continuous) total width, u (diagnostic).
    pub trimmed_width: f64,
    /// The synthesized library `B`.
    pub library: RepeaterLibrary,
    /// Number of fine candidate sites offered to stage 4.
    pub candidate_count: usize,
    /// Per-stage wall-clock runtimes.
    pub runtime: RipRuntime,
}

/// Runs the hybrid RIP pipeline on an RC tree.
///
/// The tree must be built with physical edge lengths
/// ([`RcTree::add_line_child`]) so candidate sites can be generated along
/// its edges.
///
/// # Errors
///
/// * [`RipError::Infeasible`] when even min-delay buffering over the
///   coarse sites cannot meet the target;
/// * other [`RipError`] variants for invalid inputs.
///
/// # Examples
///
/// ```
/// use rip_core::{tree_rip, TreeRipConfig};
/// use rip_delay::RcTree;
/// use rip_tech::Technology;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let tech = Technology::generic_180nm();
/// let mut tree = RcTree::with_root();
/// let trunk = tree.add_line_child(0, 0.08, 0.2, 5000.0)?;
/// let s1 = tree.add_line_child(trunk, 0.06, 0.18, 4000.0)?;
/// let s2 = tree.add_line_child(trunk, 0.08, 0.2, 2500.0)?;
/// tree.set_sink_cap(s1, tech.device().input_cap(60.0))?;
/// tree.set_sink_cap(s2, tech.device().input_cap(40.0))?;
///
/// let outcome = tree_rip(&tree, &tech, 120.0, 1.0e6, &TreeRipConfig::paper())?;
/// assert!(outcome.solution.delay_fs <= 1.0e6);
/// # Ok(())
/// # }
/// ```
pub fn tree_rip(
    tree: &RcTree,
    tech: &Technology,
    driver_width: f64,
    target_fs: f64,
    config: &TreeRipConfig,
) -> Result<TreeRipOutcome, RipError> {
    let engine = Engine::new(tech.clone(), config.base.clone());
    engine.solve_tree_masked(tree, driver_width, target_fs, config, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rip_dp::{tree_min_delay, tree_min_power};

    fn tech() -> Technology {
        Technology::generic_180nm()
    }

    /// A 3-sink routed tree with line edges (total ~17 mm of wire).
    fn routed_tree(tech: &Technology) -> RcTree {
        let dev = tech.device();
        let mut tree = RcTree::with_root();
        let trunk = tree.add_line_child(0, 0.08, 0.2, 5000.0).unwrap();
        let near = tree.add_line_child(trunk, 0.08, 0.2, 2000.0).unwrap();
        let mid = tree.add_line_child(trunk, 0.06, 0.18, 4000.0).unwrap();
        let far_a = tree.add_line_child(mid, 0.08, 0.2, 3000.0).unwrap();
        let far_b = tree.add_line_child(mid, 0.06, 0.18, 3500.0).unwrap();
        tree.set_sink_cap(near, dev.input_cap(50.0)).unwrap();
        tree.set_sink_cap(far_a, dev.input_cap(60.0)).unwrap();
        tree.set_sink_cap(far_b, dev.input_cap(40.0)).unwrap();
        tree
    }

    fn tree_tau_min(tree: &RcTree, tech: &Technology) -> f64 {
        let (fine, _) = tree.subdivided(200.0);
        let lib = RepeaterLibrary::range_step(10.0, 400.0, 10.0).unwrap();
        tree_min_delay(&fine, tech.device(), 120.0, &lib, None)
            .unwrap()
            .delay_fs
    }

    #[test]
    fn tree_rip_meets_target_and_verifies() {
        let tech = tech();
        let tree = routed_tree(&tech);
        let tmin = tree_tau_min(&tree, &tech);
        let target = tmin * 1.3;
        let out = tree_rip(&tree, &tech, 120.0, target, &TreeRipConfig::paper()).unwrap();
        assert!(out.solution.delay_fs <= target * (1.0 + 1e-9));
        // Independent re-evaluation on the fine tree.
        let timing =
            out.fine_tree
                .evaluate_buffered(tech.device(), 120.0, &out.solution.buffer_widths);
        assert!((timing.max_sink_delay - out.solution.delay_fs).abs() < 1e-6);
        assert!(out.candidate_count > 0);
    }

    #[test]
    fn hybrid_beats_or_matches_its_coarse_seed() {
        let tech = tech();
        let tree = routed_tree(&tech);
        let tmin = tree_tau_min(&tree, &tech);
        for mult in [1.2, 1.6, 2.0] {
            let out = tree_rip(&tree, &tech, 120.0, tmin * mult, &TreeRipConfig::paper()).unwrap();
            assert!(
                out.solution.total_width <= out.coarse_width + 1e-9,
                "mult {mult}: final {} vs coarse {}",
                out.solution.total_width,
                out.coarse_width
            );
            // The continuous trim bounds the *coarse topology* from
            // below; the fine DP may pick a different (even cheaper)
            // topology, so only sanity-check the trim itself here.
            assert!(out.trimmed_width <= out.coarse_width + 1e-9);
        }
    }

    #[test]
    fn tree_rip_matches_fine_tree_dp_quality() {
        // Against a full fine-granularity tree DP (10u steps, 200 um
        // sites) the hybrid should land within a few percent.
        let tech = tech();
        let tree = routed_tree(&tech);
        let tmin = tree_tau_min(&tree, &tech);
        let target = tmin * 1.5;
        let out = tree_rip(&tree, &tech, 120.0, target, &TreeRipConfig::paper()).unwrap();
        let (coarse_sites, _) = tree.subdivided(200.0);
        let full_lib = RepeaterLibrary::range_step(10.0, 400.0, 10.0).unwrap();
        let full =
            tree_min_power(&coarse_sites, tech.device(), 120.0, &full_lib, None, target).unwrap();
        let gap = (out.solution.total_width - full.total_width) / full.total_width * 100.0;
        assert!(
            gap < 10.0,
            "hybrid is {gap:.1}% worse than the full fine DP"
        );
    }

    #[test]
    fn impossible_tree_target_errors() {
        let tech = tech();
        let tree = routed_tree(&tech);
        let err = tree_rip(&tree, &tech, 120.0, 1.0, &TreeRipConfig::paper()).unwrap_err();
        assert!(matches!(err, RipError::Infeasible { .. }));
    }

    #[test]
    fn very_loose_tree_target_can_go_bufferless() {
        let tech = tech();
        let dev = tech.device();
        // A short stubby tree that needs no buffers at a huge target.
        let mut tree = RcTree::with_root();
        let a = tree.add_line_child(0, 0.08, 0.2, 800.0).unwrap();
        let s = tree.add_line_child(a, 0.08, 0.2, 700.0).unwrap();
        tree.set_sink_cap(s, dev.input_cap(40.0)).unwrap();
        let unbuffered = tree.elmore_delays(dev, 120.0).max_sink_delay;
        let out = tree_rip(
            &tree,
            &tech,
            120.0,
            unbuffered * 2.0,
            &TreeRipConfig::paper(),
        )
        .unwrap();
        assert_eq!(out.solution.total_width, 0.0);
        assert!(out.solution.buffer_widths.iter().all(Option::is_none));
    }
}
