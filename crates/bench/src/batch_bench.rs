//! The batch-engine throughput benchmark behind `BENCH_batch.json`:
//! one `rip()` call per net in sequence vs `Engine::solve_batch` sessions
//! over the same deterministic net suite and the same absolute targets,
//! with the batch side repeated and summarized by median/MAD.
//!
//! Each timed batch run constructs a fresh engine. Targets are absolute,
//! so neither side looks up `τ_min`. Both sides solve on per-thread DP
//! scratch: the calling thread's is warm after the sequential pass, and
//! the batch's spawned threads start with empty ones.

use crate::stats::{summarize, JsonObject, StatSummary};
use rip_core::{rip, BatchTarget, Engine, RipConfig, RipOutcome};
use rip_net::{NetGenerator, RandomNetConfig, TwoPinNet};
use rip_tech::Technology;
use std::time::Instant;

/// Workload and repetition parameters of the batch bench.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchBenchConfig {
    /// Nets in the suite (deterministic seed 2005).
    pub nets: usize,
    /// Timed batch runs (each on a fresh engine).
    pub runs: usize,
}

impl BatchBenchConfig {
    /// Full run (committed baseline) or `--quick` smoke run.
    pub fn preset(quick: bool) -> Self {
        if quick {
            Self { nets: 10, runs: 1 }
        } else {
            Self { nets: 100, runs: 3 }
        }
    }
}

/// Results of one batch-bench invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchBenchReport {
    /// The configuration that produced this report.
    pub config: BatchBenchConfig,
    /// Worker threads available to the batch engine.
    pub threads: usize,
    /// Wall-clock of the sequential cold `rip()` pass, s.
    pub sequential_s: f64,
    /// Summary of the timed batch runs.
    pub batch: StatSummary,
    /// Whether the first batch run matched the sequential pass net by
    /// net, bit for bit.
    pub byte_identical: bool,
}

impl BatchBenchReport {
    /// Nets per second of the median batch run.
    pub fn batch_nets_per_s(&self) -> f64 {
        self.config.nets as f64 / self.batch.median_s
    }

    /// Sequential wall-clock over median batch wall-clock — the
    /// machine-independent batch-vs-sequential ratio the CI gate checks.
    pub fn speedup(&self) -> f64 {
        self.sequential_s / self.batch.median_s
    }

    /// The flat-JSON rendering written to `BENCH_batch.json` (a
    /// superset of the seed schema, so older tooling keeps parsing it).
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .int("nets", self.config.nets as u64)
            .int("threads", self.threads as u64)
            .int("runs", self.config.runs as u64)
            .num("sequential_s", self.sequential_s)
            .num("batch_s", self.batch.median_s)
            .num("batch_mad_s", self.batch.mad_s)
            .num("batch_min_s", self.batch.min_s)
            .num("speedup", self.speedup())
            .num(
                "sequential_nets_per_s",
                self.config.nets as f64 / self.sequential_s,
            )
            .num("batch_nets_per_s", self.batch_nets_per_s())
            .bool("byte_identical", self.byte_identical)
            .finish()
    }

    /// One-paragraph human summary.
    pub fn summary_text(&self) -> String {
        format!(
            "batch_engine: {} nets, {} batch run(s), {} thread(s)\n\
               sequential {:.3}s ({:.2} nets/s)   batch median {:.3}s  mad {:.4}s  ({:.2} nets/s)\n\
               byte_identical: {}",
            self.config.nets,
            self.config.runs,
            self.threads,
            self.sequential_s,
            self.config.nets as f64 / self.sequential_s,
            self.batch.median_s,
            self.batch.mad_s,
            self.batch_nets_per_s(),
            self.byte_identical,
        )
    }
}

/// Runs the batch bench with the given preset.
pub fn run_batch_bench(config: BatchBenchConfig) -> BatchBenchReport {
    let tech = Technology::generic_180nm();
    let rip_config = RipConfig::paper();
    let nets: Vec<TwoPinNet> =
        NetGenerator::suite(RandomNetConfig::default(), 2005, config.nets).expect("valid config");

    // Targets resolved once up front so both sides solve identical
    // problems.
    let probe = Engine::new(tech.clone(), rip_config.clone());
    let targets: Vec<f64> = nets.iter().map(|net| probe.tau_min(net) * 1.4).collect();
    drop(probe);

    // Side A: the pre-Engine workflow — a cold `rip()` call per net.
    let t0 = Instant::now();
    let sequential: Vec<RipOutcome> = nets
        .iter()
        .zip(&targets)
        .map(|(net, &t)| rip(net, &tech, t, &rip_config).expect("feasible target"))
        .collect();
    let sequential_s = t0.elapsed().as_secs_f64();

    // Side B: fresh engine sessions, one parallel batch each.
    let mut samples = Vec::with_capacity(config.runs);
    let mut byte_identical = true;
    for run in 0..config.runs.max(1) {
        let engine = Engine::new(tech.clone(), rip_config.clone());
        let t1 = Instant::now();
        let batch = engine.solve_batch(&nets, &BatchTarget::PerNetFs(targets.clone()));
        samples.push(t1.elapsed().as_secs_f64());
        if run == 0 {
            for (i, (seq, out)) in sequential.iter().zip(&batch).enumerate() {
                let b = out.as_ref().expect("feasible target");
                if format!("{:?}", seq.solution) != format!("{:?}", b.solution) {
                    eprintln!("net {i}: batch solution differs from sequential rip()!");
                    byte_identical = false;
                }
            }
        }
    }

    BatchBenchReport {
        config,
        threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        sequential_s,
        batch: summarize(&samples),
        byte_identical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rip_serve::{parse_json, Json};

    #[test]
    fn tiny_batch_bench_reports_and_serializes() {
        let report = run_batch_bench(BatchBenchConfig { nets: 2, runs: 1 });
        assert!(report.byte_identical);
        assert!(report.sequential_s > 0.0);
        let json = report.to_json();
        let doc = parse_json(&json).unwrap();
        // The seed schema keys survive for downstream tooling.
        for key in [
            "nets",
            "threads",
            "sequential_s",
            "batch_s",
            "speedup",
            "batch_nets_per_s",
        ] {
            assert!(
                doc.get(key).and_then(Json::as_f64).is_some(),
                "missing key {key} in {json}"
            );
        }
    }
}
