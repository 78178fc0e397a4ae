//! The in-process workloads: `tree_paper` (paper-scale masked trees
//! through `Engine::solve_tree_masked`) and `chain_table1` (the paper's
//! Table 1 grid through `Engine::solve`). Both solve one item at a time
//! on one thread through one `Engine`.

use crate::corpus;
use crate::measure::{
    host_speed_ms, median, ms, peak_rss_mb, quantile, ratio, reset_peak_rss, Metrics, Report,
    CALIBRATION_REFERENCE_MS,
};
use crate::Spec;
use rip_core::{Engine, EngineStats, RipOutcome, TreeRipConfig, TreeRipOutcome};
use rip_delay::RcTree;
use rip_net::TwoPinNet;
use rip_obs::RegistrySnapshot;
use rip_tech::Technology;
use std::time::Instant;

/// Timing targets per Table 1 net.
pub const TABLE1_TARGETS: usize = 20;

/// The `k`-th Table 1 target multiple of `τ_min`: 20 evenly spaced from
/// 1.05 to 2.05.
pub fn table1_mult(k: usize) -> f64 {
    1.05 + k as f64 / (TABLE1_TARGETS - 1) as f64
}

/// Tree targets are 1.3× the masked `τ_min` (ROADMAP's paper-scale
/// setting).
const TREE_TARGET_MULT: f64 = 1.3;

/// Fresh-engine set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Passes an untraced run makes at least; its figures are medians over
/// them.
const MIN_PASSES: usize = 3;

/// Runs `prepare` `SETUP_REPS` times, each on a fresh engine, and
/// returns every set-up time with the last set-up's result. The
/// previous result is dropped before each timing starts.
fn set_up<T>(prepare: impl Fn() -> Result<T, String>) -> Result<(Vec<f64>, T), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        let prepared = prepare()?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(prepared);
    }
    Ok((times, last.expect("at least one set-up")))
}

/// One timed item: its latency and the solver's answer.
struct Timed<T> {
    ms: f64,
    peak_mb: f64,
    result: Result<T, rip_core::RipError>,
}

/// One whole pass over the corpus, its wall-clock, and the mean of the
/// host calibrations taken just before and just after it.
struct Pass<T> {
    items: Vec<Timed<T>>,
    secs: f64,
    calib_ms: f64,
}

impl<T> Pass<T> {
    /// How much slower than the reference host this pass ran.
    fn slowdown(&self) -> f64 {
        self.calib_ms / CALIBRATION_REFERENCE_MS
    }
}

/// Runs whole passes over `count` items: at least `min_passes`, then
/// more while the next one is expected to end within `seconds`.
fn timed_passes<T>(
    count: usize,
    seconds: f64,
    min_passes: usize,
    traced: bool,
    mut solve: impl FnMut(usize) -> Result<T, rip_core::RipError>,
) -> Result<Vec<Pass<T>>, String> {
    let start = Instant::now();
    let mut passes: Vec<Pass<T>> = Vec::new();
    let mut calib_before = host_speed_ms()?;
    loop {
        let pass_start = Instant::now();
        let items = (0..count)
            .map(|i| {
                if traced {
                    reset_peak_rss();
                }
                let t = Instant::now();
                let result = solve(i);
                let ms = ms(t.elapsed());
                let peak_mb = if traced { peak_rss_mb(None) } else { 0.0 };
                Timed {
                    ms,
                    peak_mb,
                    result,
                }
            })
            .collect();
        let secs = pass_start.elapsed().as_secs_f64();
        let calib_after = host_speed_ms()?;
        let calib_ms = (calib_before + calib_after) / 2.0;
        calib_before = calib_after;
        eprintln!(
            "pass {}: {count} items in {secs:.3} s, calibration {calib_ms:.1} ms",
            passes.len() + 1
        );
        passes.push(Pass {
            items,
            secs,
            calib_ms,
        });
        let elapsed = start.elapsed().as_secs_f64();
        if passes.len() >= min_passes && elapsed + secs > seconds {
            return Ok(passes);
        }
    }
}

fn all_items<T>(passes: &[Pass<T>]) -> impl Iterator<Item = &Timed<T>> {
    passes.iter().flat_map(|p| &p.items)
}

/// Items per second of the median pass, at reference host speed: a
/// slow stretch of a shared host moves one pass, not the figure.
fn pass_rate<T>(passes: &[Pass<T>]) -> f64 {
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| p.items.len() as f64 / p.secs * p.slowdown())
        .collect();
    median(&rates)
}

/// Each item's median latency over the passes, at reference host speed.
fn item_latencies<T>(passes: &[Pass<T>]) -> Vec<f64> {
    (0..passes[0].items.len())
        .map(|i| {
            let ms: Vec<f64> = passes
                .iter()
                .map(|p| p.items[i].ms / p.slowdown())
                .collect();
            median(&ms)
        })
        .collect()
}

/// The run's median host calibration, ms.
fn calib_ms<T>(passes: &[Pass<T>]) -> f64 {
    median(&passes.iter().map(|p| p.calib_ms).collect::<Vec<_>>())
}

/// End-to-end figures shared by both offline workloads.
fn end_to_end<T>(metrics: &mut Metrics, setup: &[f64], passes: &[Pass<T>], total_width: f64) {
    let latencies = item_latencies(passes);
    let slowdown = calib_ms(passes) / CALIBRATION_REFERENCE_MS;
    let raw_rates: Vec<f64> = passes
        .iter()
        .map(|p| p.items.len() as f64 / p.secs)
        .collect();
    eprintln!(
        "raw: throughput {:.4}/s, p50 {:.3} ms",
        median(&raw_rates),
        median(&latencies) * slowdown
    );
    metrics.put("setup_s", median(setup) / slowdown, "s");
    metrics.put("throughput_per_s", pass_rate(passes), "1/s");
    metrics.put("latency_p50_ms", median(&latencies), "ms");
    metrics.put("latency_p95_ms", quantile(&latencies, 0.95), "ms");
    metrics.put("peak_rss_mb", peak_rss_mb(None), "MB");
    metrics.put("total_width_u", total_width, "u");
}

/// Per-item, run-level and memory figures shared by both traced runs.
fn item_layer<T>(metrics: &mut Metrics, passes: &[Pass<T>], untraced_rate: f64) {
    let latencies: Vec<f64> = all_items(passes).map(|t| t.ms).collect();
    let peak = all_items(passes).map(|t| t.peak_mb).fold(0.0, f64::max);
    metrics.put("mem.item_peak_rss_mb_max", peak, "MB");
    metrics.put("item.slowest_ms", quantile(&latencies, 1.0), "ms");
    metrics.put("item.p90_ms", quantile(&latencies, 0.9), "ms");
    let traced_rate = pass_rate(passes);
    metrics.put(
        "trace.overhead_pct",
        100.0 * ratio(untraced_rate - traced_rate, untraced_rate),
        "%",
    );
}

/// Exact total of one registry histogram, ms.
fn hist_ms(snap: &RegistrySnapshot, name: &str) -> f64 {
    snap.histogram(name).map_or(0.0, |h| h.sum as f64 / 1e6)
}

fn hist_mean_ns(snap: &RegistrySnapshot, name: &str) -> f64 {
    snap.histogram(name)
        .map_or(0.0, |h| ratio(h.sum as f64, h.count as f64))
}

/// Cache figures from `EngineStats` and the cache-lookup histograms.
fn cache_layer(metrics: &mut Metrics, stats: &EngineStats, snap: &RegistrySnapshot, items: f64) {
    metrics.put("core.cache_hit_rate", stats.hit_rate(), "ratio");
    metrics.put(
        "core.cache_hits",
        ratio(stats.hits() as f64, items),
        "count",
    );
    metrics.put(
        "core.cache_misses",
        ratio(stats.misses() as f64, items),
        "count",
    );
    metrics.put(
        "core.evictions",
        ratio(stats.evictions as f64, items),
        "count",
    );
    metrics.put(
        "core.cache_hit_ns_mean",
        hist_mean_ns(snap, "engine_cache_hit_ns"),
        "ns",
    );
    metrics.put(
        "core.cache_miss_ns_mean",
        hist_mean_ns(snap, "engine_cache_miss_ns"),
        "ns",
    );
}

/// Solve span and its unexplained remainder, per item.
fn core_layer(metrics: &mut Metrics, solve_ms: f64, stage_ms: f64, items: f64, tau_min_ms: f64) {
    metrics.put("core.solve_ms", ratio(solve_ms, items), "ms");
    metrics.put("core.self_ms", ratio(solve_ms - stage_ms, items), "ms");
    metrics.put(
        "core.stage_coverage_pct",
        100.0 * ratio(stage_ms, solve_ms),
        "%",
    );
    metrics.put("core.tau_min_ms", tau_min_ms, "ms");
}

// ---- tree_paper -----------------------------------------------------------

struct TreeItem {
    tree: RcTree,
    driver: f64,
    mask: Vec<bool>,
    target_fs: f64,
}

/// Re-evaluates a tree answer with `rip_delay` alone: the fine tree is
/// the item's own subdivision, no buffer sits on a blocked node, the
/// buffered Elmore delay meets the target and matches the reported
/// delay, and the widths add up to the reported total.
fn check_tree(item: &TreeItem, out: &TreeRipOutcome, config: &TreeRipConfig) -> Result<(), String> {
    let device = *Technology::generic_180nm().device();
    let (fine, map) = item.tree.subdivided(config.fine_step_um);
    if out.fine_tree != fine {
        return Err("fine tree differs from the independent subdivision".into());
    }
    let allowed = item.tree.project_allowed(&fine, &map, &item.mask);
    let sol = &out.solution;
    if let Some(v) = (0..fine.len()).find(|&v| sol.buffer_widths[v].is_some() && !allowed[v]) {
        return Err(format!("buffer on blocked fine node {v}"));
    }
    let delay = fine
        .evaluate_buffered(&device, item.driver, &sol.buffer_widths)
        .max_sink_delay;
    check_delay_and_width(
        delay,
        sol.delay_fs,
        item.target_fs,
        sol.buffer_widths.iter().flatten().sum(),
        sol.total_width,
    )
}

fn check_delay_and_width(
    delay: f64,
    reported_delay: f64,
    target: f64,
    width: f64,
    reported_width: f64,
) -> Result<(), String> {
    if delay > target * (1.0 + 1e-9) {
        return Err(format!("delay {delay} fs misses target {target} fs"));
    }
    if (delay - reported_delay).abs() > 1e-6 * target {
        return Err(format!(
            "reported delay {reported_delay} fs, re-evaluated {delay} fs"
        ));
    }
    if (width - reported_width).abs() > 1e-6 * reported_width.max(1.0) {
        return Err(format!(
            "reported width {reported_width} u, summed {width} u"
        ));
    }
    Ok(())
}

pub fn tree_paper(spec: &Spec) -> Result<Report, String> {
    let panel = corpus::tree_panel()?;
    let order = corpus::shuffled(panel.len(), spec.seed);
    let nets: Vec<_> = order.iter().map(|&i| panel[i].clone()).collect();
    spec.announce(&corpus::trees_fingerprint(&nets), &order);
    let config = TreeRipConfig::paper();

    // Set-up: engine start, tree conversion, masked τ_min targets.
    let prepare = || -> Result<(Engine, Vec<TreeItem>, f64), String> {
        let engine = Engine::paper(Technology::generic_180nm());
        let mut items = Vec::new();
        let mut tau_ms = 0.0;
        for net in &nets {
            let tree = RcTree::from_tree_net(net, engine.technology().device());
            let mask = net.allowed_mask();
            let t_tau = Instant::now();
            let tmin = engine
                .tree_tau_min_masked(&tree, net.driver_width(), &config, Some(&mask))
                .map_err(|e| e.to_string())?;
            tau_ms += ms(t_tau.elapsed());
            items.push(TreeItem {
                tree,
                driver: net.driver_width(),
                mask,
                target_fs: TREE_TARGET_MULT * tmin,
            });
        }
        Ok((engine, items, tau_ms / nets.len() as f64))
    };
    let solve = |engine: &Engine, it: &TreeItem| {
        engine.solve_tree_masked(&it.tree, it.driver, it.target_fs, &config, Some(&it.mask))
    };
    let (setup, (engine, items, _)) = set_up(prepare)?;
    // A traced run splits its time between an untraced and a traced
    // phase of at least one pass each.
    let (seconds, min_passes) = if spec.trace {
        (spec.seconds / 2.0, 1)
    } else {
        (spec.seconds, MIN_PASSES)
    };
    let passes = timed_passes(items.len(), seconds, min_passes, false, |i| {
        solve(&engine, &items[i])
    })?;
    let verdict = verify(
        &passes,
        |a, b| a.solution == b.solution,
        |i, out| check_tree(&items[i], out, &config),
    );
    let total_width = first_pass_width(&passes, |o| o.solution.total_width);
    let mut metrics = Metrics::default();
    if !spec.trace {
        end_to_end(&mut metrics, &setup, &passes, total_width);
        return Ok(verdict.report(metrics, calib_ms(&passes)));
    }

    let untraced_rate = pass_rate(&passes);
    drop((passes, engine));
    let (engine, items, tau_ms) = prepare()?;
    engine.reset_stats();
    let passes = timed_passes(items.len(), seconds, 1, true, |i| solve(&engine, &items[i]))?;
    let verdict = verdict.merge(verify(
        &passes,
        |a, b| a.solution == b.solution,
        |i, out| check_tree(&items[i], out, &config),
    ));
    let snap = engine.metrics_registry().snapshot();
    let outs: Vec<&TreeRipOutcome> = all_items(&passes)
        .filter_map(|t| t.result.as_ref().ok())
        .collect();
    let n = outs.len() as f64;
    let fine = hist_ms(&snap, "engine_tree_fine_dp_ns");
    let coarse = hist_ms(&snap, "engine_tree_coarse_dp_ns");
    let subdivide = hist_ms(&snap, "engine_tree_subdivide_coarse_ns");
    let trim = hist_ms(&snap, "engine_tree_trim_ns");
    let window = hist_ms(&snap, "engine_tree_window_gen_ns");
    let options: f64 = outs
        .iter()
        .map(|o| o.solution.stats.options_created as f64)
        .sum();
    let trace_nodes: f64 = outs
        .iter()
        .map(|o| o.solution.stats.trace_nodes as f64)
        .sum();
    let solve_ms: f64 = all_items(&passes).map(|t| t.ms).sum();

    metrics.put("dp.tree_fine_ms", ratio(fine, n), "ms");
    metrics.put("dp.tree_coarse_ms", ratio(coarse, n), "ms");
    metrics.put("dp.tree_options_created", ratio(options, n), "count");
    let peak = outs
        .iter()
        .map(|o| o.solution.stats.options_peak)
        .max()
        .unwrap_or(0);
    metrics.put("dp.tree_options_peak", peak as f64, "count");
    metrics.put("dp.tree_options_per_s", ratio(options, fine / 1e3), "1/s");
    metrics.put("dp.tree_trace_nodes", ratio(trace_nodes, n), "count");
    metrics.put(
        "dp.tree_trace_per_option",
        ratio(trace_nodes, options),
        "ratio",
    );
    chain_dp_absent(&mut metrics);
    metrics.put("refine.chain_ms", 0.0, "ms");
    metrics.put("refine.iterations", 0.0, "count");
    metrics.put("refine.moves_applied", 0.0, "count");
    metrics.put("refine.tree_trim_ms", ratio(trim, n), "ms");
    metrics.put("delay.grid_ms", 0.0, "ms");
    metrics.put("delay.tree_subdivide_ms", ratio(subdivide, n), "ms");
    core_layer(
        &mut metrics,
        solve_ms,
        fine + coarse + subdivide + trim + window,
        n,
        tau_ms,
    );
    cache_layer(&mut metrics, &engine.stats(), &snap, n);
    metrics.put("core.window_gen_ms", ratio(window, n), "ms");
    let cands: f64 = outs.iter().map(|o| o.candidate_count as f64).sum();
    let widths: f64 = outs.iter().map(|o| o.library.len() as f64).sum();
    metrics.put("core.fine_candidates", ratio(cands, n), "count");
    metrics.put("core.fine_library_widths", ratio(widths, n), "count");
    item_layer(&mut metrics, &passes, untraced_rate);
    crate::serve::serve_absent(&mut metrics);
    metrics.put("run.error_rate", verdict.error_rate(), "ratio");
    Ok(verdict.report(metrics, calib_ms(&passes)))
}

// ---- chain_table1 ---------------------------------------------------------

struct Cell {
    net: usize,
    target_fs: f64,
}

/// Re-evaluates a chain answer with `rip_delay` alone: every repeater
/// lies inside the net and outside its forbidden zones, and the Elmore
/// delay meets the target and matches the reported delay and width.
fn check_chain(net: &TwoPinNet, target_fs: f64, out: &RipOutcome) -> Result<(), String> {
    let device = *Technology::generic_180nm().device();
    let sol = &out.solution;
    sol.assignment.validate_on(net).map_err(|e| e.to_string())?;
    let delay = rip_delay::evaluate(net, &device, &sol.assignment).total_delay;
    check_delay_and_width(
        delay,
        sol.delay_fs,
        target_fs,
        sol.assignment.total_width(),
        sol.total_width,
    )
}

pub fn chain_table1(spec: &Spec) -> Result<Report, String> {
    let nets = corpus::net_panel()?;
    let order = corpus::shuffled(nets.len() * TABLE1_TARGETS, spec.seed);
    spec.announce(&corpus::nets_fingerprint(&nets), &order);

    // Set-up: engine start and the τ_min of every net (which fixes the
    // 20 targets per net).
    let prepare = || -> Result<(Engine, Vec<Cell>, f64), String> {
        let engine = Engine::paper(Technology::generic_180nm());
        let t_tau = Instant::now();
        let tmins: Vec<f64> = nets.iter().map(|net| engine.tau_min(net)).collect();
        let tau_ms = ms(t_tau.elapsed()) / nets.len() as f64;
        // Cell `c` of the grid is net `c / 20` at target `c % 20`; the
        // seed orders the cells.
        let cells = order
            .iter()
            .map(|&c| Cell {
                net: c / TABLE1_TARGETS,
                target_fs: table1_mult(c % TABLE1_TARGETS) * tmins[c / TABLE1_TARGETS],
            })
            .collect();
        Ok((engine, cells, tau_ms))
    };
    let solve = |engine: &Engine, cell: &Cell| engine.solve(&nets[cell.net], cell.target_fs);
    let (setup, (engine, cells, _)) = set_up(prepare)?;
    // A traced run splits its time between an untraced and a traced
    // phase of at least one pass each.
    let (seconds, min_passes) = if spec.trace {
        (spec.seconds / 2.0, 1)
    } else {
        (spec.seconds, MIN_PASSES)
    };
    let passes = timed_passes(cells.len(), seconds, min_passes, false, |i| {
        solve(&engine, &cells[i])
    })?;
    let verdict = verify(
        &passes,
        |a, b| a.solution == b.solution,
        |i, out| check_chain(&nets[cells[i].net], cells[i].target_fs, out),
    );
    let total_width = first_pass_width(&passes, |o| o.solution.total_width);
    let mut metrics = Metrics::default();
    if !spec.trace {
        end_to_end(&mut metrics, &setup, &passes, total_width);
        return Ok(verdict.report(metrics, calib_ms(&passes)));
    }

    let untraced_rate = pass_rate(&passes);
    drop((passes, engine));
    let (engine, cells, tau_ms) = prepare()?;
    engine.reset_stats();
    let passes = timed_passes(cells.len(), seconds, 1, true, |i| solve(&engine, &cells[i]))?;
    let verdict = verdict.merge(verify(
        &passes,
        |a, b| a.solution == b.solution,
        |i, out| check_chain(&nets[cells[i].net], cells[i].target_fs, out),
    ));
    let snap = engine.metrics_registry().snapshot();
    let outs: Vec<&RipOutcome> = all_items(&passes)
        .filter_map(|t| t.result.as_ref().ok())
        .collect();
    let n = outs.len() as f64;
    let grid = hist_ms(&snap, "engine_chain_grid_ns");
    let coarse = hist_ms(&snap, "engine_chain_coarse_dp_ns");
    let refine = hist_ms(&snap, "engine_chain_refine_ns");
    let fine = hist_ms(&snap, "engine_chain_fine_ns");
    let sum = |f: &dyn Fn(&RipOutcome) -> f64| outs.iter().map(|o| f(o)).sum::<f64>();
    let options =
        sum(&|o| (o.solution.stats.options_created + o.coarse.stats.options_created) as f64);
    let trace_nodes = sum(&|o| (o.solution.stats.trace_nodes + o.coarse.stats.trace_nodes) as f64);
    let solve_ms: f64 = all_items(&passes).map(|t| t.ms).sum();

    tree_dp_absent(&mut metrics);
    metrics.put("dp.chain_fine_ms", ratio(fine, n), "ms");
    metrics.put("dp.chain_coarse_ms", ratio(coarse, n), "ms");
    metrics.put("dp.chain_options_created", ratio(options, n), "count");
    metrics.put("dp.chain_trace_nodes", ratio(trace_nodes, n), "count");
    metrics.put(
        "dp.chain_options_per_s",
        ratio(options, (fine + coarse) / 1e3),
        "1/s",
    );
    metrics.put("refine.chain_ms", ratio(refine, n), "ms");
    let refined = |f: &dyn Fn(&rip_core::prelude::RefineOutcome) -> usize| {
        ratio(sum(&|o| o.refined.as_ref().map_or(0.0, |r| f(r) as f64)), n)
    };
    metrics.put("refine.iterations", refined(&|r| r.iterations), "count");
    metrics.put(
        "refine.moves_applied",
        refined(&|r| r.moves_applied),
        "count",
    );
    metrics.put("refine.tree_trim_ms", 0.0, "ms");
    metrics.put("delay.grid_ms", ratio(grid, n), "ms");
    metrics.put("delay.tree_subdivide_ms", 0.0, "ms");
    core_layer(
        &mut metrics,
        solve_ms,
        grid + coarse + refine + fine,
        n,
        tau_ms,
    );
    cache_layer(&mut metrics, &engine.stats(), &snap, n);
    metrics.put("core.window_gen_ms", 0.0, "ms");
    metrics.put(
        "core.fine_candidates",
        ratio(sum(&|o| o.candidate_count as f64), n),
        "count",
    );
    let widths = sum(&|o| o.library.as_ref().map_or(0.0, |l| l.len() as f64));
    metrics.put("core.fine_library_widths", ratio(widths, n), "count");
    item_layer(&mut metrics, &passes, untraced_rate);
    crate::serve::serve_absent(&mut metrics);
    metrics.put("run.error_rate", verdict.error_rate(), "ratio");
    Ok(verdict.report(metrics, calib_ms(&passes)))
}

/// Zeros for the tree-DP figures on a workload that bypasses it (the
/// prediction for a tree-DP change there is "no change").
pub fn tree_dp_absent(metrics: &mut Metrics) {
    for (name, unit) in [
        ("dp.tree_fine_ms", "ms"),
        ("dp.tree_coarse_ms", "ms"),
        ("dp.tree_options_created", "count"),
        ("dp.tree_options_peak", "count"),
        ("dp.tree_options_per_s", "1/s"),
        ("dp.tree_trace_nodes", "count"),
        ("dp.tree_trace_per_option", "ratio"),
    ] {
        metrics.put(name, 0.0, unit);
    }
}

/// Zeros for the chain-DP counters on a workload that does not expose
/// them.
pub fn chain_dp_absent(metrics: &mut Metrics) {
    for (name, unit) in [
        ("dp.chain_fine_ms", "ms"),
        ("dp.chain_coarse_ms", "ms"),
        ("dp.chain_options_created", "count"),
        ("dp.chain_trace_nodes", "count"),
        ("dp.chain_options_per_s", "1/s"),
    ] {
        metrics.put(name, 0.0, unit);
    }
}

// ---- verification ---------------------------------------------------------

/// Counts of one run's items and the first correctness failure.
struct Verdict {
    attempted: u64,
    failed: u64,
    error: Option<String>,
}

impl Verdict {
    /// Both phases of a traced run, counted together.
    fn merge(self, other: Verdict) -> Verdict {
        Verdict {
            attempted: self.attempted + other.attempted,
            failed: self.failed + other.failed,
            error: self.error.or(other.error),
        }
    }

    fn error_rate(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }

    fn report(self, metrics: Metrics, calib_ms: f64) -> Report {
        if let Some(e) = &self.error {
            eprintln!("correctness check failed: {e}");
        }
        Report {
            correct: self.error.is_none() && self.failed == 0,
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            calib_ms,
        }
    }
}

/// Checks every first-pass answer independently and every later pass
/// for byte-identical answers (the engine is deterministic).
fn verify<T>(
    passes: &[Pass<T>],
    same: impl Fn(&T, &T) -> bool,
    check: impl Fn(usize, &T) -> Result<(), String>,
) -> Verdict {
    let mut v = Verdict {
        attempted: 0,
        failed: 0,
        error: None,
    };
    for pass in passes {
        for (i, item) in pass.items.iter().enumerate() {
            v.attempted += 1;
            let outcome = match (&item.result, &passes[0].items[i].result) {
                (Err(e), _) => Err(format!("item {i} failed: {e}")),
                (Ok(out), Ok(first)) if std::ptr::eq(out, first) => check(i, out),
                (Ok(out), Ok(first)) if same(out, first) => Ok(()),
                _ => Err(format!("item {i} differs between passes")),
            };
            if let Err(e) = outcome {
                v.failed += u64::from(item.result.is_err());
                v.error.get_or_insert(e);
            }
        }
    }
    v
}

fn first_pass_width<T>(passes: &[Pass<T>], width: impl Fn(&T) -> f64) -> f64 {
    passes[0]
        .items
        .iter()
        .filter_map(|t| t.result.as_ref().ok())
        .map(width)
        .sum()
}
