//! CLI command implementations, separated from I/O for testability.

use crate::netfile::{format_net, parse_net, ParseError};
use crate::treefile::{format_tree_file, parse_tree_file};
use rip_core::{BaselineConfig, BatchTarget, Engine, RipError, TreeRipConfig};
use rip_delay::{assignment_power, RcTree};
use rip_net::{NetGenerator, RandomNetConfig, RandomTreeConfig, TreeNetGenerator, TwoPinNet};
use rip_report::TextTable;
use rip_tech::units::{fs_from_ns, ns_from_fs};
use rip_tech::Technology;
use std::fmt::Write as _;
use std::time::Instant;

/// Everything that can go wrong while executing a command.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line.
    Usage(String),
    /// Net file could not be parsed.
    Parse(ParseError),
    /// The solver failed (e.g. infeasible target).
    Solve(RipError),
    /// Filesystem trouble.
    Io(std::io::Error),
    /// A DP answer differed from its reference, or `rip bench
    /// --check-baseline` found a DP slower than its reference. The
    /// run's summary is carried along so the binary can still print its
    /// figures before exiting nonzero.
    BenchRegression {
        /// The bench summary: both legs' figures and the files written.
        summary: String,
        /// Every failed check.
        failed: String,
    },
    /// One or more nets in a batch failed to solve. The rendered table
    /// (with the per-net failure rows) is carried along so the binary
    /// can still print it before exiting nonzero.
    BatchFailed {
        /// The full batch report, including the failure rows.
        report: String,
        /// How many nets failed.
        failed: usize,
    },
    /// The serve/client protocol failed (bad response, refused
    /// connection, server-side error).
    Protocol(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}"),
            CliError::Parse(e) => write!(f, "net file error: {e}"),
            CliError::Solve(e) => write!(f, "solver error: {e}"),
            CliError::Io(e) => write!(f, "io error: {e}"),
            CliError::BenchRegression { failed, .. } => write!(f, "bench regression: {failed}"),
            CliError::BatchFailed { failed, .. } => {
                write!(f, "batch failed: {failed} net(s) did not solve")
            }
            CliError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

rip_tech::impl_error_wrapper!(CliError {
    Parse(ParseError),
    Solve(RipError),
    Io(std::io::Error),
});

/// The timing target of a solve: absolute or relative to `τ_min`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Target {
    /// Absolute target in nanoseconds.
    Ns(f64),
    /// Multiplier over the net's `τ_min`.
    Multiplier(f64),
}

impl Target {
    fn resolve_fs(self, net: &TwoPinNet, engine: &Engine) -> f64 {
        match self {
            Target::Ns(ns) => fs_from_ns(ns),
            Target::Multiplier(m) => m * engine.tau_min(net),
        }
    }
}

/// `rip solve`: run the hybrid pipeline on a net description.
///
/// Returns the human-readable report.
///
/// # Errors
///
/// Returns [`CliError::Parse`] for bad input and [`CliError::Solve`] for
/// infeasible targets.
pub fn cmd_solve(net_text: &str, target: Target) -> Result<String, CliError> {
    let net = parse_net(net_text)?;
    let engine = Engine::paper(Technology::generic_180nm());
    let target_fs = target.resolve_fs(&net, &engine);
    let outcome = engine.solve(&net, target_fs)?;
    let sol = &outcome.solution;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "net: {:.1} mm, {} segments, {} zone(s)",
        net.total_length() / 1000.0,
        net.segments().len(),
        net.zones().len()
    );
    let _ = writeln!(
        out,
        "target: {:.4} ns   achieved: {:.4} ns",
        ns_from_fs(target_fs),
        ns_from_fs(sol.delay_fs)
    );
    let _ = writeln!(
        out,
        "repeaters: {}   total width: {:.0} u",
        sol.assignment.len(),
        sol.total_width
    );
    for r in sol.assignment.repeaters() {
        let _ = writeln!(out, "  x = {:9.1} um   w = {:5.0} u", r.position, r.width);
    }
    let tech = engine.technology();
    let power = assignment_power(&net, tech.device(), tech.power(), &sol.assignment);
    let _ = writeln!(
        out,
        "power: {:.4} mW repeaters + {:.4} mW wire = {:.4} mW",
        power.repeater * 1e3,
        power.wire * 1e3,
        power.total() * 1e3
    );
    Ok(out)
}

/// `rip tmin`: minimum achievable delay of a net description.
///
/// # Errors
///
/// Returns [`CliError::Parse`] for bad input.
pub fn cmd_tmin(net_text: &str) -> Result<String, CliError> {
    let net = parse_net(net_text)?;
    let engine = Engine::paper(Technology::generic_180nm());
    Ok(format!(
        "tau_min = {:.4} ns\n",
        ns_from_fs(engine.tau_min(&net))
    ))
}

/// `rip baseline`: run the Lillis-style DP baseline at a given width
/// granularity.
///
/// # Errors
///
/// Returns [`CliError::Solve`] when the baseline violates the target
/// (the paper's `V_DP` event) — the message carries the achievable
/// delay.
pub fn cmd_baseline(
    net_text: &str,
    target: Target,
    granularity_u: f64,
) -> Result<String, CliError> {
    if !(granularity_u.is_finite() && granularity_u > 0.0) {
        return Err(CliError::Usage("granularity must be positive".into()));
    }
    let net = parse_net(net_text)?;
    let engine = Engine::paper(Technology::generic_180nm());
    let target_fs = target.resolve_fs(&net, &engine);
    let config = BaselineConfig::paper_table2(granularity_u);
    let sol = engine
        .baseline(&net, &config, target_fs)
        .map_err(|e| CliError::Solve(e.into()))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "baseline DP (g = {granularity_u}u): delay {:.4} ns, total width {:.0} u, {} repeaters",
        ns_from_fs(sol.delay_fs),
        sol.total_width,
        sol.assignment.len()
    );
    for r in sol.assignment.repeaters() {
        let _ = writeln!(out, "  x = {:9.1} um   w = {:5.0} u", r.position, r.width);
    }
    Ok(out)
}

/// `rip generate`: emit `count` random paper-distribution nets in the
/// `.net` format, concatenated with `--- net <i> ---` separators (or
/// individually via the caller).
///
/// # Errors
///
/// Returns [`CliError::Usage`] for a zero count.
pub fn cmd_generate(seed: u64, count: usize) -> Result<Vec<String>, CliError> {
    if count == 0 {
        return Err(CliError::Usage("count must be at least 1".into()));
    }
    let nets = NetGenerator::suite(RandomNetConfig::default(), seed, count)
        .map_err(|e| CliError::Usage(e.to_string()))?;
    Ok(nets.iter().map(format_net).collect())
}

/// `rip generate --tree`: emit `count` random multi-sink tree nets in
/// the `.tree` format (see [`parse_tree_file`]).
///
/// # Errors
///
/// Returns [`CliError::Usage`] for a zero count.
pub fn cmd_generate_trees(seed: u64, count: usize) -> Result<Vec<String>, CliError> {
    if count == 0 {
        return Err(CliError::Usage("count must be at least 1".into()));
    }
    let nets = TreeNetGenerator::suite(RandomTreeConfig::default(), seed, count)
        .map_err(|e| CliError::Usage(e.to_string()))?;
    Ok(nets.iter().map(format_tree_file).collect())
}

/// `rip solve --tree`: run the hybrid tree pipeline on a `.tree`
/// description (driver width comes from the file). `blocked` nodes are
/// binding: the file's legality mask is threaded through every pipeline
/// stage, and `--target-mult` resolves against the *masked* minimum
/// delay.
///
/// # Errors
///
/// Returns [`CliError::Parse`] for bad input and [`CliError::Solve`] for
/// infeasible targets (including targets unreachable over the legal
/// nodes).
pub fn cmd_solve_tree(tree_text: &str, target: Target) -> Result<String, CliError> {
    let net = parse_tree_file(tree_text)?;
    let engine = Engine::paper(Technology::generic_180nm());
    let config = TreeRipConfig::paper();
    let tree = RcTree::from_tree_net(&net, engine.technology().device());
    let driver = net.driver_width();
    let allowed = net.allowed_mask();
    let target_fs = match target {
        Target::Ns(ns) => fs_from_ns(ns),
        Target::Multiplier(m) => {
            m * engine.tree_tau_min_masked(&tree, driver, &config, Some(&allowed))?
        }
    };
    let outcome = engine.solve_tree_masked(&tree, driver, target_fs, &config, Some(&allowed))?;
    let sol = &outcome.solution;
    let blocked = allowed.iter().filter(|ok| !**ok).count();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "tree: {:.1} mm total wire, {} node(s), {} sink(s), {} blocked node(s)",
        net.total_length() / 1000.0,
        net.len(),
        net.sinks().len(),
        blocked
    );
    let _ = writeln!(
        out,
        "target: {:.4} ns   achieved: {:.4} ns",
        ns_from_fs(target_fs),
        ns_from_fs(sol.delay_fs)
    );
    let buffers: Vec<(usize, f64)> = sol
        .buffer_widths
        .iter()
        .enumerate()
        .filter_map(|(v, w)| w.map(|w| (v, w)))
        .collect();
    let _ = writeln!(
        out,
        "buffers: {}   total width: {:.0} u",
        buffers.len(),
        sol.total_width
    );
    for (v, w) in &buffers {
        let _ = writeln!(
            out,
            "  node {v:4}   {:9.1} um from root   w = {w:5.0} u",
            outcome.fine_tree.root_distance(*v)
        );
    }
    Ok(out)
}

/// `rip batch`: solve many nets through one [`Engine`] session and render
/// a per-net + aggregate power/delay table.
///
/// Takes `(label, net text)` pairs so the command stays I/O-free; the
/// binary supplies file names or generated-net labels. Nets that cannot
/// meet their target are reported in the table (status `infeasible`),
/// and the batch then fails with [`CliError::BatchFailed`] carrying the
/// full report — so scripts get a nonzero exit code while humans still
/// see every per-net row.
///
/// # Errors
///
/// Returns [`CliError::Parse`] (with the offending label in the message)
/// for bad input, [`CliError::Usage`] for an empty batch, and
/// [`CliError::BatchFailed`] when any net fails to solve.
pub fn cmd_batch(named_nets: &[(String, String)], target: Target) -> Result<String, CliError> {
    if named_nets.is_empty() {
        return Err(CliError::Usage("batch needs at least one net".into()));
    }
    let mut nets = Vec::with_capacity(named_nets.len());
    for (label, text) in named_nets {
        let net = parse_net(text).map_err(|e| ParseError {
            line: e.line,
            reason: format!("net {label:?}: {}", e.reason),
        })?;
        nets.push(net);
    }

    let engine = Engine::paper(Technology::generic_180nm());
    // Hand the target rule to the engine unresolved: `τ_min` (the most
    // expensive per-net precomputation) is then computed inside the
    // parallel workers instead of serially up front.
    let batch_target = match target {
        Target::Ns(ns) => BatchTarget::AbsoluteFs(fs_from_ns(ns)),
        Target::Multiplier(m) => BatchTarget::TauMinMultiple(m),
    };
    let outcomes = engine.solve_batch(&nets, &batch_target);

    let tech = engine.technology();
    let mut table = TextTable::new(vec![
        "Net",
        "mm",
        "Reps",
        "Width (u)",
        "Target (ns)",
        "Delay (ns)",
        "Power (mW)",
        "Status",
    ]);
    let mut total_width = 0.0;
    let mut total_power = 0.0;
    let mut total_reps = 0usize;
    let mut infeasible = 0usize;
    for (((label, _), net), outcome) in named_nets.iter().zip(&nets).zip(&outcomes) {
        match outcome {
            Ok(out) => {
                let sol = &out.solution;
                let power = assignment_power(net, tech.device(), tech.power(), &sol.assignment);
                total_width += sol.total_width;
                total_power += power.total();
                total_reps += sol.assignment.len();
                table.row(vec![
                    label.clone(),
                    format!("{:.1}", net.total_length() / 1000.0),
                    format!("{}", sol.assignment.len()),
                    format!("{:.0}", sol.total_width),
                    format!("{:.4}", ns_from_fs(out.target_fs)),
                    format!("{:.4}", ns_from_fs(sol.delay_fs)),
                    format!("{:.4}", power.total() * 1e3),
                    "ok".into(),
                ]);
            }
            Err(RipError::Infeasible {
                target_fs,
                achievable_fs,
            }) => {
                infeasible += 1;
                table.row(vec![
                    label.clone(),
                    format!("{:.1}", net.total_length() / 1000.0),
                    "-".into(),
                    "-".into(),
                    format!("{:.4}", ns_from_fs(*target_fs)),
                    format!(">{:.4}", ns_from_fs(*achievable_fs)),
                    "-".into(),
                    "infeasible".into(),
                ]);
            }
            Err(e) => return Err(CliError::Solve(e.clone())),
        }
    }
    let solved = nets.len() - infeasible;
    table.row(vec![
        "TOTAL".into(),
        format!(
            "{:.1}",
            nets.iter().map(|n| n.total_length()).sum::<f64>() / 1000.0
        ),
        format!("{total_reps}"),
        format!("{total_width:.0}"),
        "-".into(),
        "-".into(),
        format!("{:.4}", total_power * 1e3),
        format!("{solved}/{} ok", nets.len()),
    ]);

    let stats = engine.stats();
    let mut out = table.to_string();
    let _ = writeln!(
        out,
        "\n{} net(s), {} infeasible; engine cache: {} hit(s), {} miss(es)",
        nets.len(),
        infeasible,
        stats.hits(),
        stats.misses()
    );
    if infeasible > 0 {
        return Err(CliError::BatchFailed {
            report: out,
            failed: infeasible,
        });
    }
    Ok(out)
}

/// `rip batch --tree`: solve a batch of `.tree` descriptions through
/// one [`Engine`] session ([`Engine::solve_tree_batch_masked`] — each
/// file's `blocked` nodes are binding) and render a per-tree +
/// aggregate table.
///
/// Takes `(label, tree text)` pairs like [`cmd_batch`]; the binary
/// supplies `.tree` file names ([`crate::parse_tree_file`]) or
/// generated-tree labels. Trees that cannot meet their target are
/// reported in the table (status `infeasible`) and the batch then fails
/// with [`CliError::BatchFailed`] carrying the full report.
///
/// # Errors
///
/// Returns [`CliError::Parse`] (with the offending label in the
/// message) for bad input, [`CliError::Usage`] for an empty batch,
/// [`CliError::BatchFailed`] when any tree fails to solve, and
/// [`CliError::Solve`] for solver failures other than infeasible
/// targets.
pub fn cmd_batch_tree(
    named_trees: &[(String, String)],
    target: Target,
) -> Result<String, CliError> {
    if named_trees.is_empty() {
        return Err(CliError::Usage("batch needs at least one tree".into()));
    }
    let mut nets = Vec::with_capacity(named_trees.len());
    for (label, text) in named_trees {
        let net = parse_tree_file(text).map_err(|e| ParseError {
            line: e.line,
            reason: format!("tree {label:?}: {}", e.reason),
        })?;
        nets.push(net);
    }
    let engine = Engine::paper(Technology::generic_180nm());
    let config = TreeRipConfig::paper();
    // Each tree carries its own legality mask — `blocked` nodes from
    // the `.tree` files are binding for the whole batch.
    let trees: Vec<(RcTree, f64, Option<Vec<bool>>)> = nets
        .iter()
        .map(|net| {
            (
                RcTree::from_tree_net(net, engine.technology().device()),
                net.driver_width(),
                Some(net.allowed_mask()),
            )
        })
        .collect();
    // Hand the target rule to the engine unresolved, as in `cmd_batch`:
    // per-tree `τ_min` is computed inside the parallel workers.
    let batch_target = match target {
        Target::Ns(ns) => BatchTarget::AbsoluteFs(fs_from_ns(ns)),
        Target::Multiplier(m) => BatchTarget::TauMinMultiple(m),
    };
    let outcomes = engine.solve_tree_batch_masked(&trees, &batch_target, &config);

    let mut table = TextTable::new(vec![
        "Tree",
        "Nodes",
        "Sinks",
        "Bufs",
        "Width (u)",
        "Target (ns)",
        "Delay (ns)",
        "Status",
    ]);
    let mut total_width = 0.0;
    let mut total_bufs = 0usize;
    let mut infeasible = 0usize;
    for (((label, _), (net, (tree, _, _))), outcome) in named_trees
        .iter()
        .zip(nets.iter().zip(&trees))
        .zip(&outcomes)
    {
        let label = label.clone();
        match outcome {
            Ok(out) => {
                let sol = &out.solution;
                let bufs = sol.buffer_widths.iter().flatten().count();
                total_width += sol.total_width;
                total_bufs += bufs;
                table.row(vec![
                    label,
                    format!("{}", tree.len()),
                    format!("{}", net.sinks().len()),
                    format!("{bufs}"),
                    format!("{:.0}", sol.total_width),
                    format!("{:.4}", ns_from_fs(out.target_fs)),
                    format!("{:.4}", ns_from_fs(sol.delay_fs)),
                    "ok".into(),
                ]);
            }
            Err(RipError::Infeasible {
                target_fs,
                achievable_fs,
            }) => {
                infeasible += 1;
                table.row(vec![
                    label,
                    format!("{}", tree.len()),
                    format!("{}", net.sinks().len()),
                    "-".into(),
                    "-".into(),
                    format!("{:.4}", ns_from_fs(*target_fs)),
                    format!(">{:.4}", ns_from_fs(*achievable_fs)),
                    "infeasible".into(),
                ]);
            }
            Err(e) => return Err(CliError::Solve(e.clone())),
        }
    }
    let solved = trees.len() - infeasible;
    table.row(vec![
        "TOTAL".into(),
        format!("{}", trees.iter().map(|(t, _, _)| t.len()).sum::<usize>()),
        format!("{}", nets.iter().map(|n| n.sinks().len()).sum::<usize>()),
        format!("{total_bufs}"),
        format!("{total_width:.0}"),
        "-".into(),
        "-".into(),
        format!("{solved}/{} ok", trees.len()),
    ]);

    let stats = engine.stats();
    let mut out = table.to_string();
    let _ = writeln!(
        out,
        "\n{} tree(s), {} infeasible; engine cache: {} hit(s), {} miss(es)",
        trees.len(),
        infeasible,
        stats.hits(),
        stats.misses()
    );
    if infeasible > 0 {
        return Err(CliError::BatchFailed {
            report: out,
            failed: infeasible,
        });
    }
    Ok(out)
}

/// Options for `rip bench`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BenchOptions {
    /// Reduced smoke-run workloads (CI uses this).
    pub quick: bool,
    /// Check the machine-independent regression gate (byte identity and
    /// the three in-process speedup ratios) and fail on regression.
    pub check_baseline: bool,
}

/// `rip bench`: time the production chain and tree DPs against their
/// frozen seed engines, write `BENCH_dp_frontier.json` and
/// `BENCH_tree.json` at the workspace root, and optionally run the
/// regression gate.
///
/// The committed JSONs are regenerated by this command, and CI's
/// bench-regression job runs it with `--check-baseline` at full scale.
/// Both sides of each ratio run in one process on one corpus, so the
/// gate is machine-independent; the absolute figures (nets/s, trees/s)
/// are recorded for trend-watching only. End-to-end throughput, latency
/// and memory are the repository benchmark's (`benchmark/run.py`).
///
/// # Errors
///
/// * [`CliError::BenchRegression`] when any DP solution differs from
///   its reference, or when `--check-baseline` finds a DP engine slower
///   than its in-process reference;
/// * [`CliError::Io`] when the JSON artifacts cannot be written.
pub fn cmd_bench(opts: &BenchOptions) -> Result<String, CliError> {
    let root = rip_bench::workspace_root();
    // The canonical files are the committed full-scale baselines; quick
    // runs write their own `.quick.json` sibling so a smoke run can
    // never silently replace a baseline.
    let name = |base: &str| {
        if opts.quick {
            root.join(format!("{base}.quick.json"))
        } else {
            root.join(format!("{base}.json"))
        }
    };
    let frontier_out = name("BENCH_dp_frontier");
    let tree_out = name("BENCH_tree");

    let frontier =
        rip_bench::run_frontier_bench(rip_bench::FrontierBenchConfig::preset(opts.quick));
    let tree = rip_bench::run_tree_bench(rip_bench::TreeBenchConfig::preset(opts.quick));

    std::fs::write(&frontier_out, frontier.to_json())?;
    std::fs::write(&tree_out, tree.to_json())?;

    let mut out = String::new();
    let _ = writeln!(out, "{}", frontier.summary_text());
    let _ = writeln!(out, "{}", tree.summary_text());
    for path in [&frontier_out, &tree_out] {
        let _ = writeln!(out, "wrote {}", path.display());
    }

    if opts.check_baseline {
        if let Err(failed) = bench_gate(&frontier, &tree) {
            return Err(CliError::BenchRegression {
                summary: out,
                failed,
            });
        }
        let _ = writeln!(out, "bench-regression gate: ok");
    } else if !(frontier.byte_identical && tree.byte_identical) {
        return Err(CliError::BenchRegression {
            summary: out,
            failed: "benchmark equivalence check failed: solutions are not byte-identical".into(),
        });
    }
    Ok(out)
}

/// The `--check-baseline` gate over a fresh pair of bench reports:
/// every DP answer equals its reference's, and every production DP
/// beats its in-process reference (`speedup_vs_reference` ≥ 1.0 —
/// chain, tree, and masked tree). The SoA engines hold a structural
/// margin there, so these are hard floors on any machine.
///
/// # Errors
///
/// Names every failed check, `; `-separated.
fn bench_gate(
    frontier: &rip_bench::FrontierBenchReport,
    tree: &rip_bench::TreeBenchReport,
) -> Result<(), String> {
    let identity = [
        ("frontier", frontier.byte_identical),
        ("tree", tree.byte_identical),
    ];
    let ratios = [
        (
            "frontier speedup_vs_reference",
            frontier.speedup_vs_reference,
        ),
        ("tree speedup_vs_reference", tree.speedup_vs_reference),
        (
            "tree masked_speedup_vs_reference",
            tree.masked_speedup_vs_reference,
        ),
    ];
    let failures: Vec<String> = identity
        .iter()
        .filter(|(_, same)| !same)
        .map(|(bench, _)| format!("{bench} byte_identical: false"))
        .chain(
            ratios
                .iter()
                .filter(|(_, ratio)| *ratio < 1.0)
                .map(|(name, ratio)| format!("{name} {ratio:.3} < 1.0")),
        )
        .collect();
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

/// Options for `rip profile`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProfileOptions {
    /// Smaller corpus for CI smoke runs (`--quick`).
    pub quick: bool,
    /// Corpus size override (`--trees`); `None` uses the preset (3
    /// quick / 8 full).
    pub trees: Option<usize>,
    /// Corpus seed override (`--seed`); `None` uses 2005.
    pub seed: Option<u64>,
}

/// One pipeline stage's share of a profile run.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileStage {
    /// The metric name in the engine registry
    /// (e.g. `engine_tree_coarse_dp_ns`).
    pub metric: String,
    /// Human-readable stage label.
    pub label: String,
    /// Times the stage ran across the corpus.
    pub calls: u64,
    /// Total time in the stage, ns.
    pub total_ns: u64,
}

/// One fine tree-DP work counter in a profile run (a count per fine
/// solve, not a time).
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileWork {
    /// The metric name in the engine registry
    /// (e.g. `engine_tree_fine_options`).
    pub metric: String,
    /// Human-readable label.
    pub label: String,
    /// Fine solves observed.
    pub solves: u64,
    /// Sum over those solves.
    pub total: u64,
    /// p99 over those solves (log2-bucket upper bound).
    pub p99: u64,
}

/// The measured result behind `rip profile`: per-stage totals of the
/// hybrid tree pipeline over a seeded corpus, against the wall clock of
/// the timed loop, plus the fine tree DP's work counters.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// Trees solved in the timed loop.
    pub trees: usize,
    /// The corpus seed.
    pub seed: u64,
    /// Wall clock of the timed loop, ns.
    pub wall_ns: u64,
    /// Per-stage totals, pipeline order.
    pub stages: Vec<ProfileStage>,
    /// Fine tree-DP work per solve.
    pub dp_work: Vec<ProfileWork>,
}

impl ProfileReport {
    /// The fraction of the wall clock accounted for by the stage
    /// timers (the tentpole's ≥ 0.9 instrumentation-coverage claim).
    pub fn coverage(&self) -> f64 {
        let covered: u64 = self.stages.iter().map(|s| s.total_ns).sum();
        covered as f64 / self.wall_ns.max(1) as f64
    }

    /// The human-readable breakdown table.
    pub fn render(&self) -> String {
        let mut table = TextTable::new(vec!["Stage", "Calls", "Total (ms)", "% of wall"]);
        for stage in &self.stages {
            table.row(vec![
                stage.label.clone(),
                format!("{}", stage.calls),
                format!("{:.2}", stage.total_ns as f64 / 1e6),
                format!(
                    "{:.1}",
                    stage.total_ns as f64 / self.wall_ns.max(1) as f64 * 100.0
                ),
            ]);
        }
        let mut out = format!(
            "profile: {} seeded compact tree(s) (seed {}), wall {:.2} ms\n",
            self.trees,
            self.seed,
            self.wall_ns as f64 / 1e6
        );
        out.push_str(&table.to_string());
        let _ = writeln!(
            out,
            "stage coverage: {:.1}% of wall",
            self.coverage() * 100.0
        );
        let mut work = TextTable::new(vec!["Fine DP work", "Solves", "Mean", "p99 (<=)"]);
        for w in &self.dp_work {
            work.row(vec![
                w.label.clone(),
                format!("{}", w.solves),
                format!("{:.0}", w.total as f64 / w.solves.max(1) as f64),
                format!("{}", w.p99),
            ]);
        }
        out.push_str(&work.to_string());
        out
    }
}

/// The tree-pipeline stages `rip profile` reports, with the registry
/// metric carrying each one (see the README's observability section).
const PROFILE_STAGES: [(&str, &str); 5] = [
    ("engine_tree_subdivide_coarse_ns", "coarse subdivision grid"),
    ("engine_tree_coarse_dp_ns", "coarse tree DP"),
    ("engine_tree_trim_ns", "window trim"),
    ("engine_tree_window_gen_ns", "window-set generation"),
    ("engine_tree_fine_dp_ns", "fine DP re-solves"),
];

/// The fine tree-DP work histograms `rip profile` reports after the
/// stages (counts per fine solve, not part of the wall-clock coverage).
const PROFILE_DP_WORK: [(&str, &str); 2] = [
    (
        "engine_tree_fine_options",
        "options made (frontier + class minima)",
    ),
    (
        "engine_tree_merge_products_max",
        "largest branch-merge staging",
    ),
];

/// Runs the profile workload: a seeded compact masked-tree corpus
/// solved in-process through one [`Engine`] session, with the engine's
/// stage histograms reset right before the timed loop so the breakdown
/// covers exactly that loop.
///
/// Targets are resolved (and `τ_min` warmed) *before* the reset — the
/// profile measures the solve pipeline, not target resolution.
///
/// # Errors
///
/// Returns [`CliError::Usage`] for a zero-tree corpus and
/// [`CliError::Solve`] if a generated tree fails to solve (the 1.4×
/// masked-`τ_min` targets are feasible by construction, so this
/// indicates an engine bug).
pub fn run_profile(opts: &ProfileOptions) -> Result<ProfileReport, CliError> {
    let count = opts.trees.unwrap_or(if opts.quick { 3 } else { 8 });
    let seed = opts.seed.unwrap_or(2005);
    if count == 0 {
        return Err(CliError::Usage("profile needs at least one tree".into()));
    }
    let nets = TreeNetGenerator::suite(RandomTreeConfig::compact(), seed, count)
        .map_err(|e| CliError::Usage(e.to_string()))?;
    let engine = Engine::paper(Technology::generic_180nm());
    let config = TreeRipConfig::paper();
    let mut prepared = Vec::with_capacity(nets.len());
    for net in &nets {
        let tree = RcTree::from_tree_net(net, engine.technology().device());
        let driver = net.driver_width();
        let allowed = net.allowed_mask();
        let target_fs = 1.4 * engine.tree_tau_min_masked(&tree, driver, &config, Some(&allowed))?;
        prepared.push((tree, driver, allowed, target_fs));
    }

    let registry = std::sync::Arc::clone(engine.metrics_registry());
    registry.reset();
    let t0 = Instant::now();
    for (tree, driver, allowed, target_fs) in &prepared {
        engine.solve_tree_masked(tree, *driver, *target_fs, &config, Some(allowed))?;
    }
    let wall_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);

    let snapshot = registry.snapshot();
    let stages = PROFILE_STAGES
        .iter()
        .map(|(metric, label)| {
            let h = snapshot.histogram(metric);
            ProfileStage {
                metric: (*metric).to_string(),
                label: (*label).to_string(),
                calls: h.map(|h| h.count).unwrap_or(0),
                total_ns: h.map(|h| h.sum).unwrap_or(0),
            }
        })
        .collect();
    let dp_work = PROFILE_DP_WORK
        .iter()
        .map(|(metric, label)| {
            let h = snapshot.histogram(metric).copied().unwrap_or_default();
            ProfileWork {
                metric: (*metric).to_string(),
                label: (*label).to_string(),
                solves: h.count,
                total: h.sum,
                p99: h.quantile(0.99),
            }
        })
        .collect();
    Ok(ProfileReport {
        trees: count,
        seed,
        wall_ns: wall_ns.max(1),
        stages,
        dp_work,
    })
}

/// `rip profile`: the per-stage wall-clock breakdown of the hybrid tree
/// pipeline over a seeded in-process corpus.
///
/// # Errors
///
/// See [`run_profile`].
pub fn cmd_profile(opts: &ProfileOptions) -> Result<String, CliError> {
    Ok(run_profile(opts)?.render())
}

/// The top-level usage text.
pub fn usage() -> &'static str {
    "rip - hybrid repeater insertion for low power (DATE 2005 reproduction)

USAGE:
    rip solve    <net-file> (--target-ns <x> | --target-mult <m>)
    rip solve    --tree <tree-file> (--target-ns <x> | --target-mult <m>)
    rip baseline <net-file> (--target-ns <x> | --target-mult <m>) --granularity <g_u>
    rip tmin     <net-file>
    rip batch    (--dir <dir> | --seed <n> --count <k>) (--target-ns <x> | --target-mult <m>)
    rip batch    --tree (--dir <dir> | [--seed <n>] --count <k>) (--target-ns <x> | --target-mult <m>)
    rip generate [--tree] --seed <n> --count <k> [--out-dir <dir>]
    rip bench    [--quick] [--check-baseline]
    rip profile  [--quick] [--trees <n>] [--seed <n>]
    rip serve    [--port <p>] [--bind <host>] [--workers <n>] [--max-conns <n>]
                 [--timeout-secs <s>] [--value-cache-cap <n>]
                 [--drain-secs <s>] [--log-slow-ms <ms>]
                 [--fault-panic-every <n>] [--fault-delay-every <n>]
                 [--fault-delay-ms <ms>] [--fault-drop-every <n>] [--fault-seed <n>]
    rip client   <addr> [--smoke | --metrics | --shutdown | --file <net-or-tree-file>
                 (--target-ns <x> | --target-mult <m>)]
                 [--retries <n>] [--backoff-ms <ms>]
                                                 # reads JSON lines from stdin otherwise
    rip help

`rip serve` runs `--workers` connection workers over one shared engine
session; unknown flags are usage errors. `--max-conns` rejects
over-limit connections with a typed `busy` error. Requests are
supervised: a panic becomes a typed `internal` error and the engine
respawns fresh. A `drain` request (default deadline `--drain-secs`)
finishes in-flight work, answers new requests with `shutting_down`, and
stops cleanly. The `--fault-*` flags inject deterministic panics,
delays, and connection drops for chaos testing (see the README's
resilience section). `rip client --retries N` retries transient
failures (busy/timeout/internal, resets) over fresh
connections with capped exponential backoff starting at --backoff-ms.

`rip batch` exits nonzero when any net in the batch fails to solve (the
per-net table, including the failure rows, is still printed).

`rip profile` solves a seeded compact masked-tree corpus in-process and
prints the hybrid tree pipeline's per-stage wall-clock breakdown from
the engine's stage histograms. `rip serve --log-slow-ms N` logs any
request slower than N ms to stderr with its total and solve spans;
`rip client --metrics` fetches the server's merged metrics registry as
Prometheus-style text (see the README's observability section).

NET FILE FORMAT (text, '#' comments):
    driver 140                 # driver width, u (optional)
    receiver 60                # receiver width, u (optional)
    segment 3000 0.08 0.20     # length_um r_per_um c_per_um
    zone 5000 8000             # forbidden zone, um from source

TREE FILE FORMAT (text, '#' comments; node lines append nodes 1, 2, ...):
    driver 140                 # driver width, u (optional)
    node 0 0.08 0.20 1500      # parent r_per_um c_per_um length_um
    node 1 0.06 0.18 2000 sink 60
    node 1 0.08 0.20 1200 blocked   # binding: no buffer here, ever

'blocked' nodes are binding for tree solves the way forbidden zones are
for chains: no stage places a buffer on them (or on subdivision points
of edges with a blocked endpoint), and --target-mult resolves against
the masked minimum delay.
"
}

#[cfg(test)]
mod tests {
    use super::*;

    const NET: &str = "\
driver 140
receiver 60
segment 6000 0.08 0.2
segment 6000 0.06 0.18
zone 4000 7000
";

    #[test]
    fn solve_reports_solution_and_meets_target() {
        let report = cmd_solve(NET, Target::Multiplier(1.4)).unwrap();
        assert!(report.contains("repeaters:"));
        assert!(report.contains("total width"));
        assert!(report.contains("mW"));
    }

    #[test]
    fn solve_with_absolute_target() {
        // Generous absolute target: equivalent to a loose multiplier.
        let report = cmd_solve(NET, Target::Ns(2.0)).unwrap();
        assert!(report.contains("target: 2.0000 ns"));
    }

    #[test]
    fn solve_rejects_impossible_targets() {
        let err = cmd_solve(NET, Target::Ns(1e-6)).unwrap_err();
        assert!(matches!(err, CliError::Solve(_)));
    }

    #[test]
    fn tmin_reports_nanoseconds() {
        let report = cmd_tmin(NET).unwrap();
        assert!(report.starts_with("tau_min = "));
        assert!(report.contains("ns"));
    }

    #[test]
    fn baseline_runs_and_violations_surface() {
        let ok = cmd_baseline(NET, Target::Multiplier(1.5), 40.0).unwrap();
        assert!(ok.contains("baseline DP"));
        // A 10u-granularity *size-10* library would violate; here the
        // table2-style full-range library at any granularity is feasible,
        // so provoke failure with an impossible absolute target instead.
        let err = cmd_baseline(NET, Target::Ns(1e-6), 40.0).unwrap_err();
        assert!(matches!(err, CliError::Solve(_)));
    }

    #[test]
    fn generate_is_deterministic() {
        let a = cmd_generate(7, 3).unwrap();
        let b = cmd_generate(7, 3).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        // Emitted nets parse back.
        for text in &a {
            crate::netfile::parse_net(text).unwrap();
        }
    }

    #[test]
    fn batch_renders_per_net_rows_and_aggregate() {
        let nets: Vec<(String, String)> = cmd_generate(2005, 3)
            .unwrap()
            .into_iter()
            .enumerate()
            .map(|(i, text)| (format!("net_{i:02}"), text))
            .collect();
        let report = cmd_batch(&nets, Target::Multiplier(1.4)).unwrap();
        assert!(report.contains("net_00"));
        assert!(report.contains("net_02"));
        assert!(report.contains("TOTAL"));
        assert!(report.contains("3/3 ok"));
        assert!(report.contains("engine cache"));
    }

    #[test]
    fn batch_with_infeasible_nets_fails_but_carries_the_report() {
        let nets: Vec<(String, String)> = cmd_generate(7, 2)
            .unwrap()
            .into_iter()
            .enumerate()
            .map(|(i, text)| (format!("net_{i:02}"), text))
            .collect();
        // An impossibly tight absolute target: every net is infeasible.
        // The batch exits with an error (nonzero exit code from the
        // binary) whose report still renders every per-net row.
        let err = cmd_batch(&nets, Target::Ns(1e-6)).unwrap_err();
        let CliError::BatchFailed { report, failed } = err else {
            panic!("expected BatchFailed, got {err:?}");
        };
        assert_eq!(failed, 2);
        assert!(report.contains("infeasible"));
        assert!(report.contains("0/2 ok"));
    }

    fn generated_trees(seed: u64, count: usize) -> Vec<(String, String)> {
        cmd_generate_trees(seed, count)
            .unwrap()
            .into_iter()
            .enumerate()
            .map(|(i, text)| (format!("tree_{seed}_{i:02}"), text))
            .collect()
    }

    #[test]
    fn tree_batch_renders_per_tree_rows_and_aggregate() {
        let report = cmd_batch_tree(&generated_trees(7, 2), Target::Multiplier(1.4)).unwrap();
        assert!(report.contains("tree_7_00"));
        assert!(report.contains("tree_7_01"));
        assert!(report.contains("TOTAL"));
        assert!(report.contains("2/2 ok"));
        assert!(report.contains("engine cache"));
    }

    #[test]
    fn tree_batch_with_infeasible_trees_fails_but_carries_the_report() {
        let err = cmd_batch_tree(&generated_trees(7, 2), Target::Ns(1e-6)).unwrap_err();
        let CliError::BatchFailed { report, failed } = err else {
            panic!("expected BatchFailed, got {err:?}");
        };
        assert_eq!(failed, 2);
        assert!(report.contains("infeasible"));
        assert!(report.contains("0/2 ok"));
    }

    #[test]
    fn tree_batch_rejects_empty_and_bad_input() {
        assert!(matches!(
            cmd_batch_tree(&[], Target::Ns(1.0)),
            Err(CliError::Usage(_))
        ));
        let bad = vec![("broken".to_string(), "node oops\n".to_string())];
        let err = cmd_batch_tree(&bad, Target::Ns(1.0)).unwrap_err();
        match &err {
            CliError::Parse(e) => assert_eq!(e.line, 1),
            other => panic!("expected Parse, got {other:?}"),
        }
        assert!(err.to_string().contains("broken"));
    }

    #[test]
    fn solve_tree_reports_buffers_and_meets_target() {
        let tree_text = cmd_generate_trees(5, 1).unwrap().remove(0);
        let report = cmd_solve_tree(&tree_text, Target::Multiplier(1.4)).unwrap();
        assert!(report.contains("tree:"));
        assert!(report.contains("buffers:"));
        assert!(report.contains("total width"));
        let err = cmd_solve_tree(&tree_text, Target::Ns(1e-6)).unwrap_err();
        assert!(matches!(err, CliError::Solve(_)));
    }

    #[test]
    fn solve_tree_blocked_nodes_are_binding() {
        // Every node blocked: a loose target must go bufferless, and a
        // tight one must fail as infeasible instead of placing illegal
        // buffers.
        let all_blocked = "\
driver 120
node 0 0.08 0.20 1500 blocked
node 1 0.06 0.18 2000 blocked
node 1 0.08 0.20 1200 sink 60 blocked
node 2 0.08 0.20 1400 sink 50 blocked
";
        let report = cmd_solve_tree(all_blocked, Target::Multiplier(1.5)).unwrap();
        assert!(report.contains("4 blocked node(s)"));
        assert!(
            report.contains("buffers: 0"),
            "illegal buffers placed:\n{report}"
        );
        let err = cmd_solve_tree(all_blocked, Target::Ns(1e-6)).unwrap_err();
        assert!(matches!(err, CliError::Solve(_)));
        // The same topology unblocked buffers freely under a tight-ish
        // relative target, so the mask is what forced bufferless above.
        let open = all_blocked.replace(" blocked", "");
        let report = cmd_solve_tree(&open, Target::Multiplier(1.25)).unwrap();
        assert!(report.contains("0 blocked node(s)"));
        assert!(!report.contains("buffers: 0"), "{report}");
    }

    #[test]
    fn generate_trees_is_deterministic_and_parses_back() {
        let a = cmd_generate_trees(7, 3).unwrap();
        let b = cmd_generate_trees(7, 3).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        for text in &a {
            crate::treefile::parse_tree_file(text).unwrap();
        }
        assert!(matches!(cmd_generate_trees(7, 0), Err(CliError::Usage(_))));
    }

    #[test]
    fn batch_rejects_empty_and_bad_input() {
        assert!(matches!(
            cmd_batch(&[], Target::Ns(1.0)),
            Err(CliError::Usage(_))
        ));
        let bad = vec![("broken".to_string(), "segment oops\n".to_string())];
        let err = cmd_batch(&bad, Target::Ns(1.0)).unwrap_err();
        // Parse failures keep their structured form (line number intact)
        // with the offending net's label prefixed to the reason.
        match &err {
            CliError::Parse(e) => assert_eq!(e.line, 1),
            other => panic!("expected Parse, got {other:?}"),
        }
        assert!(err.to_string().contains("broken"));
    }

    #[test]
    fn profile_stage_times_cover_at_least_ninety_percent_of_wall() {
        let report = run_profile(&ProfileOptions {
            quick: true,
            trees: Some(2),
            ..ProfileOptions::default()
        })
        .unwrap();
        assert_eq!(report.trees, 2);
        for stage in &report.stages {
            assert!(stage.calls > 0, "stage {} never fired", stage.metric);
        }
        assert!(
            report.coverage() >= 0.9,
            "stage timers must explain >= 90% of profile wall time, got {:.1}%",
            report.coverage() * 100.0
        );
        for work in &report.dp_work {
            assert_eq!(work.solves, 2, "{} per fine solve", work.metric);
            assert!(work.total > 0, "{} counted no work", work.metric);
        }
        let table = report.render();
        assert!(table.contains("fine DP"), "{table}");
        assert!(table.contains("% of wall"), "{table}");
        assert!(table.contains("largest branch-merge staging"), "{table}");
    }

    #[test]
    fn bad_inputs_are_usage_errors() {
        assert!(matches!(cmd_generate(1, 0), Err(CliError::Usage(_))));
        assert!(matches!(
            cmd_baseline(NET, Target::Ns(1.0), -4.0),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            cmd_solve("segment oops\n", Target::Ns(1.0)),
            Err(CliError::Parse(_))
        ));
    }

    /// A report pair that passes the gate: both answers identical,
    /// every ratio at its 1.0 floor (the floor itself passes).
    fn clean_bench_reports() -> (rip_bench::FrontierBenchReport, rip_bench::TreeBenchReport) {
        let runs = rip_bench::stats::summarize(&[1.0]);
        let frontier = rip_bench::FrontierBenchReport {
            config: rip_bench::FrontierBenchConfig::preset(true),
            library_widths: 11,
            options_per_pass: 1,
            frontier: runs,
            reference: runs,
            speedup_vs_reference: 1.0,
            byte_identical: true,
        };
        let tree = rip_bench::TreeBenchReport {
            config: rip_bench::TreeBenchConfig::preset(true),
            library_widths: 11,
            nodes_per_pass: 1,
            options_per_pass: 1,
            frontier: runs,
            reference: runs,
            speedup_vs_reference: 1.0,
            masked: runs,
            masked_reference: runs,
            masked_speedup_vs_reference: 1.0,
            byte_identical: true,
        };
        (frontier, tree)
    }

    #[test]
    fn bench_gate_names_each_failed_check_and_passes_a_clean_pair() {
        type Break = fn(&mut rip_bench::FrontierBenchReport, &mut rip_bench::TreeBenchReport);
        let (frontier, tree) = clean_bench_reports();
        assert_eq!(bench_gate(&frontier, &tree), Ok(()));
        let breaks: [(&str, Break); 5] = [
            ("frontier byte_identical", |f, _| f.byte_identical = false),
            ("tree byte_identical", |_, t| t.byte_identical = false),
            ("frontier speedup_vs_reference", |f, _| {
                f.speedup_vs_reference = 0.99
            }),
            ("tree speedup_vs_reference", |_, t| {
                t.speedup_vs_reference = 0.99
            }),
            ("tree masked_speedup_vs_reference", |_, t| {
                t.masked_speedup_vs_reference = 0.99
            }),
        ];
        let (mut all_f, mut all_t) = clean_bench_reports();
        for (name, break_check) in breaks {
            let (mut f, mut t) = clean_bench_reports();
            break_check(&mut f, &mut t);
            let msg = bench_gate(&f, &t).expect_err(name);
            // Named, and alone: no other check fires on its behalf.
            assert!(msg.starts_with(name) && !msg.contains(';'), "{name}: {msg}");
            break_check(&mut all_f, &mut all_t);
        }
        let msg = bench_gate(&all_f, &all_t).unwrap_err();
        for (name, _) in breaks {
            assert!(msg.contains(name), "{name} missing from {msg}");
        }
    }
}
