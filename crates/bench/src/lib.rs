//! # rip-bench — benchmarks and experiment binaries for the RIP
//! reproduction
//!
//! Binaries (all write their CSV next to `results/` in the workspace
//! root and print the paper-layout rendering to stdout):
//!
//! * `table1` — regenerates the paper's Table 1;
//! * `table2` — regenerates the paper's Table 2;
//! * `figure7` — regenerates Figure 7(a)/(b);
//! * `all_experiments` — runs everything (used to produce
//!   EXPERIMENTS.md).
//!
//! Pass `--quick` to any binary for a reduced run (fewer nets/targets)
//! when smoke-testing.
//!
//! The bench targets (std-only [`harness`], run via `cargo bench`) cover
//! the runtime claims: DP cost vs width granularity (`dp_granularity`,
//! the Table 2 runtime axis), the RIP pipeline and its stages
//! (`rip_pipeline`, `refine`), the Elmore substrate (`elmore`), pruning
//! pressure vs candidate density (`pruning`), configuration ablations
//! (`ablations`), and batch-engine throughput (`batch_engine`).
//!
//! The *statistical* benchmarks live in [`stats`] (median/MAD over
//! repeated runs with warm-up discard), with three standard workloads:
//!
//! * [`run_frontier_bench`] — production sorted-frontier DP vs the seed
//!   reference pruner, written to `BENCH_dp_frontier.json`;
//! * [`run_batch_bench`] — sequential `rip()` vs `Engine::solve_batch`,
//!   written to `BENCH_batch.json`;
//! * [`run_tree_bench`] — production SoA tree DP vs the frozen pre-SoA
//!   tree engine plus batch tree-pipeline throughput, written to
//!   `BENCH_tree.json`;
//! * [`run_serve_bench`] — `rip_serve` service throughput at 1/4/16
//!   concurrent connections with byte-identity verification against an
//!   in-process reference engine, written to `BENCH_serve.json`.
//!
//! `rip bench` runs all four and writes the JSON files; it is what CI's
//! bench-regression job runs against the committed baselines.

pub mod batch_bench;
pub mod frontier_bench;
pub mod harness;
pub mod serve_bench;
pub mod stats;
pub mod tree_bench;

pub use batch_bench::{run_batch_bench, BatchBenchConfig, BatchBenchReport};
pub use frontier_bench::{run_frontier_bench, FrontierBenchConfig, FrontierBenchReport};
pub use serve_bench::{run_serve_bench, ServeBenchConfig, ServeBenchReport, ServeLevel};
pub use tree_bench::{run_tree_bench, TreeBenchConfig, TreeBenchReport};

use std::path::PathBuf;

/// Returns the workspace-level `results/` directory, creating it if
/// needed.
///
/// # Panics
///
/// Panics when the directory cannot be created (no fallback makes sense
/// for the experiment binaries).
pub fn results_dir() -> PathBuf {
    let dir = workspace_root().join("results");
    std::fs::create_dir_all(&dir).expect("can create results directory");
    dir
}

/// Returns the workspace root (the parent of `crates/`), where benchmark
/// JSON artifacts like `BENCH_batch.json` live.
pub fn workspace_root() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; results live at the workspace
    // root so EXPERIMENTS.md can reference them stably.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    root.canonicalize().unwrap_or(root)
}

/// `true` when the binary was invoked with `--quick`.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Reads a `--flag value` usize argument from the command line.
pub fn arg_usize(name: &str) -> Option<usize> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

/// Scales (nets, targets): `--quick` shrinks to a smoke run; `--nets N`
/// and `--targets K` override explicitly.
pub fn scaled_counts(nets: usize, targets: usize) -> (usize, usize) {
    let (mut n, mut t) = if quick_mode() {
        (nets.min(3), targets.min(5))
    } else {
        (nets, targets)
    };
    if let Some(v) = arg_usize("--nets") {
        n = v;
    }
    if let Some(v) = arg_usize("--targets") {
        t = v;
    }
    (n, t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_is_creatable() {
        let dir = results_dir();
        assert!(dir.exists());
    }

    #[test]
    fn scaling_respects_quick_mode_flag_absence() {
        // Test binaries run without --quick.
        assert_eq!(scaled_counts(20, 20), (20, 20));
    }
}
