//! # rip-cli — command-line interface for the RIP reproduction
//!
//! Ships the `rip` binary:
//!
//! ```text
//! rip solve    <net-file> --target-ns 2.5        # hybrid RIP pipeline
//! rip solve    --tree <tree-file> --target-mult 1.4 # multi-sink tree pipeline
//! rip baseline <net-file> --target-mult 1.5 --granularity 20
//! rip tmin     <net-file>                        # minimum achievable delay
//! rip batch    --dir nets --target-mult 1.4      # many nets, one Engine session
//! rip batch    --tree --dir trees --target-mult 1.4 # multi-sink tree batch
//! rip generate --seed 7 --count 5 --out-dir nets # paper-distribution nets
//! rip bench    --quick --check-baseline          # statistical benches + CI gate
//! rip profile  --quick                           # per-stage pipeline breakdown
//! rip serve    --port 4817 --workers 4           # resident solver service
//! rip client   127.0.0.1:4817 --smoke            # scripted protocol check
//! rip client   127.0.0.1:4817 --metrics          # Prometheus-style metrics dump
//! ```
//!
//! Net and tree descriptions use minimal line-oriented text formats (see
//! [`parse_net`] and [`parse_tree_file`]). All solving uses the
//! synthetic 0.18 µm technology preset of the reproduction
//! (DESIGN.md §2). `rip serve` keeps one shared [`rip_core::Engine`]
//! session resident behind a newline-delimited JSON protocol
//! (`rip_serve`), so candidate grids, `τ_min` and synthesized libraries
//! amortize across requests and connections.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod commands;
mod netfile;
mod serve_cmd;
mod treefile;

pub use commands::{
    cmd_baseline, cmd_batch, cmd_batch_tree, cmd_bench, cmd_generate, cmd_generate_trees,
    cmd_profile, cmd_solve, cmd_solve_tree, cmd_tmin, run_profile, usage, BenchOptions, CliError,
    ProfileOptions, ProfileReport, ProfileStage, ProfileWork, Target,
};
pub use netfile::{format_net, parse_net, ParseError};
pub use serve_cmd::{cmd_client, cmd_serve, ClientOptions, ServeOptions};
pub use treefile::{format_tree_file, parse_tree_file};
