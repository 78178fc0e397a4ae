//! The tree-workload benchmark behind `BENCH_tree.json`: the production
//! SoA tree DP vs the frozen pre-SoA engine (`rip_dp::reference::tree`)
//! on a generated multi-sink corpus — unmasked on the subdivided site
//! trees, and **masked** on the raw topologies (where each net's
//! forbidden-node run aligns index-for-index), making masked floorplans
//! a measured, byte-identity-gated scenario.
//!
//! Like the frontier bench, both DP sides run in the same process on the
//! same trees, so the recorded `speedup_vs_reference` is
//! machine-independent: `BENCH_tree.json` can be regenerated anywhere
//! and the ratio stays comparable — CI's bench-regression gate checks it.

use crate::stats::{summarize, JsonObject, StatSummary};
use rip_delay::RcTree;
use rip_dp::{reference, tree_min_power, TreeSolution};
use rip_net::{RandomTreeConfig, TreeNetGenerator};
use rip_tech::{RepeaterLibrary, Technology};
use std::time::Instant;

/// Workload and repetition parameters of the tree bench.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeBenchConfig {
    /// Trees in the corpus (deterministic seed 2005 suite).
    pub trees: usize,
    /// Timed DP runs per side.
    pub runs: usize,
    /// Discarded warm-up runs per side.
    pub warmup: usize,
    /// Edge-subdivision step for the raw-DP comparison, µm.
    pub step_um: f64,
    /// Timing target as a multiple of each tree's min-delay.
    pub target_mult: f64,
}

impl TreeBenchConfig {
    /// Full run (committed baseline) or `--quick` smoke run.
    pub fn preset(quick: bool) -> Self {
        if quick {
            Self {
                trees: 4,
                runs: 2,
                warmup: 1,
                step_um: 200.0,
                target_mult: 1.3,
            }
        } else {
            Self {
                trees: 30,
                runs: 5,
                warmup: 2,
                step_um: 200.0,
                target_mult: 1.3,
            }
        }
    }
}

/// Results of one tree-bench invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeBenchReport {
    /// The configuration that produced this report.
    pub config: TreeBenchConfig,
    /// Library widths used by the raw-DP comparison.
    pub library_widths: usize,
    /// Tree nodes solved per full DP pass (after subdivision).
    pub nodes_per_pass: u64,
    /// Options created per full DP pass by the production engine (at
    /// most the reference's count, since the bound and the merge walks
    /// only skip work; a work counter, so the equivalence check does not
    /// compare it).
    pub options_per_pass: u64,
    /// Run-time summary of the production (SoA frontier) tree DP.
    pub frontier: StatSummary,
    /// Run-time summary of the frozen pre-SoA tree DP.
    pub reference: StatSummary,
    /// `reference.median_s / frontier.median_s`.
    pub speedup_vs_reference: f64,
    /// Run-time summary of the production tree DP on the **masked** raw
    /// corpus (each net's forbidden-node mask in force).
    pub masked: StatSummary,
    /// Run-time summary of the frozen engine on the same masked corpus.
    pub masked_reference: StatSummary,
    /// `masked_reference.median_s / masked.median_s`.
    pub masked_speedup_vs_reference: f64,
    /// Whether both DP sides gave the same answer on every tree,
    /// unmasked *and* masked — the same buffer widths, delay and width
    /// bits, as judged by [`reference::same_tree_solution`] (checked
    /// during warm-up; work counters are not compared) — and no masked
    /// solution buffers a blocked node.
    pub byte_identical: bool,
}

impl TreeBenchReport {
    /// Trees solved per second by the production DP (median run).
    pub fn frontier_trees_per_s(&self) -> f64 {
        self.config.trees as f64 / self.frontier.median_s
    }

    /// The flat-JSON rendering written to `BENCH_tree.json`.
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .int("trees", self.config.trees as u64)
            .int("runs", self.config.runs as u64)
            .int("warmup", self.config.warmup as u64)
            .num("step_um", self.config.step_um)
            .num("target_mult", self.config.target_mult)
            .int("library_widths", self.library_widths as u64)
            .int("nodes_per_pass", self.nodes_per_pass)
            .int("options_per_pass", self.options_per_pass)
            .num("frontier_median_s", self.frontier.median_s)
            .num("frontier_mad_s", self.frontier.mad_s)
            .num("frontier_min_s", self.frontier.min_s)
            .num("frontier_trees_per_s", self.frontier_trees_per_s())
            .num("reference_median_s", self.reference.median_s)
            .num("reference_mad_s", self.reference.mad_s)
            .num("reference_min_s", self.reference.min_s)
            .num(
                "reference_trees_per_s",
                self.config.trees as f64 / self.reference.median_s,
            )
            .num("speedup_vs_reference", self.speedup_vs_reference)
            .num("masked_median_s", self.masked.median_s)
            .num("masked_mad_s", self.masked.mad_s)
            .num("masked_reference_median_s", self.masked_reference.median_s)
            .num(
                "masked_speedup_vs_reference",
                self.masked_speedup_vs_reference,
            )
            .bool("byte_identical", self.byte_identical)
            .finish()
    }

    /// One-paragraph human summary.
    pub fn summary_text(&self) -> String {
        format!(
            "tree_dp: {} trees ({} nodes subdivided), {} runs (+{} warmup), {} options/pass\n\
               frontier  median {:.4}s  mad {:.4}s  ({:.1} trees/s)\n\
               reference median {:.4}s  mad {:.4}s  ({:.1} trees/s)\n\
               speedup vs reference: {:.2}x   byte_identical: {}\n\
               masked raw corpus: median {:.4}s vs reference {:.4}s  ({:.2}x)",
            self.config.trees,
            self.nodes_per_pass,
            self.config.runs,
            self.config.warmup,
            self.options_per_pass,
            self.frontier.median_s,
            self.frontier.mad_s,
            self.frontier_trees_per_s(),
            self.reference.median_s,
            self.reference.mad_s,
            self.config.trees as f64 / self.reference.median_s,
            self.speedup_vs_reference,
            self.byte_identical,
            self.masked.median_s,
            self.masked_reference.median_s,
            self.masked_speedup_vs_reference,
        )
    }
}

/// Runs the tree bench with the given preset.
pub fn run_tree_bench(config: TreeBenchConfig) -> TreeBenchReport {
    let tech = Technology::generic_180nm();
    let device = tech.device();
    let library = RepeaterLibrary::range_step(10.0, 400.0, 40.0).expect("valid library");
    let nets = TreeNetGenerator::suite(RandomTreeConfig::default(), 2005, config.trees)
        .expect("valid config");
    let raw: Vec<(RcTree, f64)> = nets
        .iter()
        .map(|net| (RcTree::from_tree_net(net, device), net.driver_width()))
        .collect();
    // The raw-DP comparison solves each tree's subdivision (its
    // candidate buffer sites) directly, mirroring the chain frontier
    // bench's dense uniform grids.
    let sites: Vec<(RcTree, f64)> = raw
        .iter()
        .map(|(tree, driver)| (tree.subdivided(config.step_um).0, *driver))
        .collect();
    let nodes_per_pass: u64 = sites.iter().map(|(t, _)| t.len() as u64).sum();
    // Targets fixed outside the timed region so both sides solve the
    // exact same problems.
    let targets: Vec<f64> = sites
        .iter()
        .map(|(tree, driver)| {
            reference::tree::tree_min_delay(tree, device, *driver, &library, None)
                .expect("min-delay tree DP cannot fail without a mask")
                .delay_fs
                * config.target_mult
        })
        .collect();

    let solve_frontier = || -> Vec<TreeSolution> {
        sites
            .iter()
            .zip(&targets)
            .map(|((tree, driver), &t)| {
                tree_min_power(tree, device, *driver, &library, None, t)
                    .expect("1.3x targets are feasible")
            })
            .collect()
    };
    let solve_reference = || -> Vec<TreeSolution> {
        sites
            .iter()
            .zip(&targets)
            .map(|((tree, driver), &t)| {
                reference::tree::tree_min_power(tree, device, *driver, &library, None, t)
                    .expect("1.3x targets are feasible")
            })
            .collect()
    };

    // Warm-up (discarded) + the equivalence check.
    let mut byte_identical = true;
    let mut options_per_pass = 0u64;
    for pass in 0..config.warmup.max(1) {
        let a = solve_frontier();
        let b = solve_reference();
        if pass == 0 {
            options_per_pass = a.iter().map(|s| s.stats.options_created).sum();
            for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                if !reference::same_tree_solution(x, y) {
                    eprintln!("tree {i}: frontier solution differs from reference!");
                    byte_identical = false;
                }
            }
        }
    }

    // Timed DP runs, interleaved so slow drift hits both sides equally.
    let mut frontier_samples = Vec::with_capacity(config.runs);
    let mut reference_samples = Vec::with_capacity(config.runs);
    for _ in 0..config.runs {
        let t0 = Instant::now();
        let a = solve_frontier();
        frontier_samples.push(t0.elapsed().as_secs_f64());
        std::hint::black_box(&a);
        let t1 = Instant::now();
        let b = solve_reference();
        reference_samples.push(t1.elapsed().as_secs_f64());
        std::hint::black_box(&b);
    }

    // Masked leg: the same corpus on its *raw* topologies, each net's
    // forbidden-node mask in force (masks align index-for-index only on
    // the unsubdivided trees). Targets come from the reference engine's
    // masked min-delay, so both sides solve feasible masked problems.
    let masks: Vec<Vec<bool>> = nets.iter().map(|net| net.allowed_mask()).collect();
    let masked_targets: Vec<f64> = raw
        .iter()
        .zip(&masks)
        .map(|((tree, driver), mask)| {
            reference::tree::tree_min_delay(tree, device, *driver, &library, Some(mask))
                .expect("aligned masks cannot fail the min-delay tree DP")
                .delay_fs
                * config.target_mult
        })
        .collect();
    let solve_masked_frontier = || -> Vec<TreeSolution> {
        raw.iter()
            .zip(&masks)
            .zip(&masked_targets)
            .map(|(((tree, driver), mask), &t)| {
                tree_min_power(tree, device, *driver, &library, Some(mask), t)
                    .expect("targets above the masked min-delay are feasible")
            })
            .collect()
    };
    let solve_masked_reference = || -> Vec<TreeSolution> {
        raw.iter()
            .zip(&masks)
            .zip(&masked_targets)
            .map(|(((tree, driver), mask), &t)| {
                reference::tree::tree_min_power(tree, device, *driver, &library, Some(mask), t)
                    .expect("targets above the masked min-delay are feasible")
            })
            .collect()
    };
    {
        // Warm-up pass doubling as the masked equivalence + legality
        // check: the same answers, no buffer on a blocked node.
        let a = solve_masked_frontier();
        let b = solve_masked_reference();
        for (i, ((x, y), mask)) in a.iter().zip(&b).zip(&masks).enumerate() {
            if !reference::same_tree_solution(x, y) {
                eprintln!("masked tree {i}: frontier solution differs from reference!");
                byte_identical = false;
            }
            if mask
                .iter()
                .zip(&x.buffer_widths)
                .any(|(&ok, w)| !ok && w.is_some())
            {
                eprintln!("masked tree {i}: buffer on a blocked node!");
                byte_identical = false;
            }
        }
    }
    let mut masked_samples = Vec::with_capacity(config.runs);
    let mut masked_reference_samples = Vec::with_capacity(config.runs);
    for _ in 0..config.runs {
        let t0 = Instant::now();
        let a = solve_masked_frontier();
        masked_samples.push(t0.elapsed().as_secs_f64());
        std::hint::black_box(&a);
        let t1 = Instant::now();
        let b = solve_masked_reference();
        masked_reference_samples.push(t1.elapsed().as_secs_f64());
        std::hint::black_box(&b);
    }

    let frontier = summarize(&frontier_samples);
    let reference = summarize(&reference_samples);
    let masked = summarize(&masked_samples);
    let masked_reference = summarize(&masked_reference_samples);
    TreeBenchReport {
        config,
        library_widths: library.len(),
        nodes_per_pass,
        options_per_pass,
        speedup_vs_reference: reference.median_s / frontier.median_s,
        frontier,
        reference,
        masked_speedup_vs_reference: masked_reference.median_s / masked.median_s,
        masked,
        masked_reference,
        byte_identical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rip_serve::{parse_json, Json};

    #[test]
    fn tiny_tree_bench_is_byte_identical_and_serializes() {
        let config = TreeBenchConfig {
            trees: 2,
            runs: 1,
            warmup: 1,
            step_um: 400.0,
            target_mult: 1.4,
        };
        let report = run_tree_bench(config);
        assert!(report.byte_identical);
        assert!(report.options_per_pass > 0);
        assert!(report.nodes_per_pass > 0);
        let json = parse_json(&report.to_json()).unwrap();
        let num = |key: &str| json.get(key).and_then(Json::as_f64);
        assert_eq!(num("trees"), Some(2.0));
        assert!(num("speedup_vs_reference").is_some());
        assert!(num("masked_speedup_vs_reference").is_some());
        assert!(num("masked_median_s").unwrap() > 0.0);
        assert!(num("frontier_trees_per_s").unwrap() > 0.0);
        assert!(
            !report.to_json().contains("batch"),
            "the pipeline batch legs belong to the repository benchmark"
        );
        assert!(report.summary_text().contains("speedup"));
    }
}
