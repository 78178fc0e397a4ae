//! The DP-frontier benchmark: production sorted-SoA pruner vs the seed
//! reference pruner, in one process, on one machine.
//!
//! Measuring both sides in the same run makes the recorded speedup
//! machine-independent: `BENCH_dp_frontier.json` can be regenerated
//! anywhere and the `speedup_vs_reference` field remains comparable,
//! which is what CI's bench-regression gate checks (absolute
//! `nets_per_s` is recorded for trend-watching only).

use crate::stats::{summarize, JsonObject, StatSummary};
use rip_dp::{reference, solve_min_power, CandidateSet, DpSolution};
use rip_net::{NetGenerator, RandomNetConfig, TwoPinNet};
use rip_tech::{RepeaterLibrary, Technology};
use std::time::Instant;

/// Workload and repetition parameters of the frontier bench.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontierBenchConfig {
    /// Nets in the corpus (deterministic seed 2005 suite).
    pub nets: usize,
    /// Timed runs per side.
    pub runs: usize,
    /// Discarded warm-up runs per side.
    pub warmup: usize,
    /// Uniform candidate step, µm (denser than the paper's 200 µm to
    /// stress pruning).
    pub step_um: f64,
    /// Timing target as a multiple of each net's min-delay.
    pub target_mult: f64,
}

impl FrontierBenchConfig {
    /// Full run (committed baseline) or `--quick` smoke run.
    pub fn preset(quick: bool) -> Self {
        if quick {
            Self {
                nets: 6,
                runs: 3,
                warmup: 1,
                step_um: 100.0,
                target_mult: 1.3,
            }
        } else {
            Self {
                nets: 20,
                runs: 7,
                warmup: 2,
                step_um: 100.0,
                target_mult: 1.3,
            }
        }
    }
}

/// Results of one frontier-bench invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierBenchReport {
    /// The configuration that produced this report.
    pub config: FrontierBenchConfig,
    /// Library widths used.
    pub library_widths: usize,
    /// Options the production DP made per full pass over the corpus
    /// (`DpStats::options_created`). The reference builds every admitted
    /// insertion, the production DP only each width class's least-delay
    /// one, so the reference makes several times as many; this is a work
    /// counter, and the equivalence check does not compare it.
    pub options_per_pass: u64,
    /// Run-time summary of the production (sorted-frontier) pruner.
    pub frontier: StatSummary,
    /// Run-time summary of the seed reference pruner.
    pub reference: StatSummary,
    /// `reference.median_s / frontier.median_s`.
    pub speedup_vs_reference: f64,
    /// Whether both sides gave the same answer on every net — the same
    /// repeaters, delay and width bits, as judged by
    /// [`reference::same_solution`] (checked during warm-up; work
    /// counters are not compared).
    pub byte_identical: bool,
}

impl FrontierBenchReport {
    /// Nets solved per second by the production pruner (median run).
    pub fn frontier_nets_per_s(&self) -> f64 {
        self.config.nets as f64 / self.frontier.median_s
    }

    /// Options pruned per second by the production pruner (median run).
    pub fn frontier_options_per_s(&self) -> f64 {
        self.options_per_pass as f64 / self.frontier.median_s
    }

    /// The flat-JSON rendering written to `BENCH_dp_frontier.json`.
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .int("nets", self.config.nets as u64)
            .int("runs", self.config.runs as u64)
            .int("warmup", self.config.warmup as u64)
            .num("step_um", self.config.step_um)
            .num("target_mult", self.config.target_mult)
            .int("library_widths", self.library_widths as u64)
            .int("options_per_pass", self.options_per_pass)
            .num("frontier_median_s", self.frontier.median_s)
            .num("frontier_mad_s", self.frontier.mad_s)
            .num("frontier_min_s", self.frontier.min_s)
            .num("frontier_nets_per_s", self.frontier_nets_per_s())
            .num("frontier_options_per_s", self.frontier_options_per_s())
            .num("reference_median_s", self.reference.median_s)
            .num("reference_mad_s", self.reference.mad_s)
            .num("reference_min_s", self.reference.min_s)
            .num(
                "reference_nets_per_s",
                self.config.nets as f64 / self.reference.median_s,
            )
            .num("speedup_vs_reference", self.speedup_vs_reference)
            .bool("byte_identical", self.byte_identical)
            .finish()
    }

    /// One-paragraph human summary.
    pub fn summary_text(&self) -> String {
        format!(
            "dp_frontier: {} nets, {} runs (+{} warmup), {} options/pass\n\
               frontier  median {:.4}s  mad {:.4}s  ({:.1} nets/s, {:.0} options/s)\n\
               reference median {:.4}s  mad {:.4}s  ({:.1} nets/s)\n\
               speedup vs reference: {:.2}x   byte_identical: {}",
            self.config.nets,
            self.config.runs,
            self.config.warmup,
            self.options_per_pass,
            self.frontier.median_s,
            self.frontier.mad_s,
            self.frontier_nets_per_s(),
            self.frontier_options_per_s(),
            self.reference.median_s,
            self.reference.mad_s,
            self.config.nets as f64 / self.reference.median_s,
            self.speedup_vs_reference,
            self.byte_identical,
        )
    }
}

/// Runs the frontier bench with the given preset.
pub fn run_frontier_bench(config: FrontierBenchConfig) -> FrontierBenchReport {
    let tech = Technology::generic_180nm();
    let device = tech.device();
    let library = RepeaterLibrary::range_step(10.0, 400.0, 40.0).expect("valid library");
    let nets: Vec<TwoPinNet> =
        NetGenerator::suite(RandomNetConfig::default(), 2005, config.nets).expect("valid config");
    let grids: Vec<CandidateSet> = nets
        .iter()
        .map(|net| CandidateSet::uniform(net, config.step_um))
        .collect();
    // Targets fixed outside the timed region so both sides solve the
    // exact same problems.
    let targets: Vec<f64> = nets
        .iter()
        .zip(&grids)
        .map(|(net, cands)| {
            reference::solve_min_delay(net, device, &library, cands).delay_fs * config.target_mult
        })
        .collect();

    let solve_frontier = || -> Vec<DpSolution> {
        nets.iter()
            .zip(&grids)
            .zip(&targets)
            .map(|((net, cands), &t)| {
                solve_min_power(net, device, &library, cands, t).expect("1.3x targets are feasible")
            })
            .collect()
    };
    let solve_reference = || -> Vec<DpSolution> {
        nets.iter()
            .zip(&grids)
            .zip(&targets)
            .map(|((net, cands), &t)| {
                reference::solve_min_power(net, device, &library, cands, t)
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
                if !reference::same_solution(x, y) {
                    eprintln!("net {i}: frontier solution differs from reference!");
                    byte_identical = false;
                }
            }
        }
    }

    // Timed runs, interleaved so slow drift hits both sides equally.
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

    let frontier = summarize(&frontier_samples);
    let reference = summarize(&reference_samples);
    FrontierBenchReport {
        config,
        library_widths: library.len(),
        options_per_pass,
        speedup_vs_reference: reference.median_s / frontier.median_s,
        frontier,
        reference,
        byte_identical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rip_serve::{parse_json, Json};

    #[test]
    fn quick_frontier_bench_is_byte_identical_and_serializes() {
        let config = FrontierBenchConfig {
            nets: 2,
            runs: 1,
            warmup: 1,
            step_um: 400.0,
            target_mult: 1.4,
        };
        let report = run_frontier_bench(config);
        assert!(report.byte_identical);
        assert!(report.options_per_pass > 0);
        let json = parse_json(&report.to_json()).unwrap();
        let num = |key: &str| json.get(key).and_then(Json::as_f64);
        assert_eq!(num("nets"), Some(2.0));
        assert!(num("speedup_vs_reference").is_some());
        assert!(num("frontier_nets_per_s").unwrap() > 0.0);
        assert!(report.summary_text().contains("speedup"));
    }
}
