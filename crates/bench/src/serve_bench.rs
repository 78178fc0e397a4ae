//! The service-throughput benchmark behind `BENCH_serve.json`: an
//! in-process `rip_serve` server driven by the deterministic load
//! generator at several concurrency levels (1/4/16 connections by
//! default), with every deterministic response byte-checked against a
//! reference engine and the shared engine's cache hit rate recorded.
//! The request mix includes masked tree solves (`trees` > 0) so the
//! tree path is load-tested too.
//!
//! The byte-identity check and the hit rate are machine-independent and
//! gated by `rip bench --check-baseline`; the absolute requests/s
//! figures are recorded for
//! trend-watching only (runner classes differ too much for an absolute
//! gate — see the ROADMAP's runner-variance note).

use crate::stats::{summarize, JsonObject, StatSummary};
use rip_core::{Engine, RipConfig};
use rip_serve::{
    fire_load, prepare_load, start_server, LoadgenConfig, PreparedLoad, ServeConfig, ServeState,
    ServerHandle,
};
use rip_tech::Technology;

/// Workload and repetition parameters of the serve bench.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeBenchConfig {
    /// Concurrency levels to measure (connections).
    pub connections: Vec<usize>,
    /// Requests per connection at every level.
    pub requests_per_conn: usize,
    /// Distinct nets in the request pool.
    pub nets: usize,
    /// Distinct trees in the request pool (the mix's masked
    /// `solve_tree` slot activates when > 0).
    pub trees: usize,
    /// Timed loadgen runs per level (median/MAD over these).
    pub runs: usize,
    /// Server connection-worker threads.
    pub workers: usize,
}

impl ServeBenchConfig {
    /// Full run (committed baseline) or `--quick` smoke run.
    pub fn preset(quick: bool) -> Self {
        if quick {
            Self {
                connections: vec![1, 4],
                requests_per_conn: 6,
                nets: 6,
                trees: 2,
                runs: 1,
                workers: 4,
            }
        } else {
            Self {
                connections: vec![1, 4, 16],
                requests_per_conn: 24,
                nets: 12,
                trees: 3,
                runs: 3,
                workers: 16,
            }
        }
    }
}

/// One concurrency level's measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeLevel {
    /// Concurrent connections at this level.
    pub connections: usize,
    /// Requests sent per run at this level.
    pub requests: usize,
    /// Summary of the timed runs, s.
    pub elapsed: StatSummary,
    /// Deterministic responses byte-checked per run.
    pub verified: usize,
    /// Median over runs of the per-request p50 latency, s (log2-bucket
    /// upper bound — see [`rip_serve::LoadgenOutcome`]).
    pub p50_s: f64,
    /// Median over runs of the per-request p95 latency, s.
    pub p95_s: f64,
    /// Median over runs of the per-request p99 latency, s.
    pub p99_s: f64,
}

impl ServeLevel {
    /// Requests per second of the median run.
    pub fn requests_per_s(&self) -> f64 {
        self.requests as f64 / self.elapsed.median_s
    }
}

/// Results of one serve-bench invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeBenchReport {
    /// The configuration that produced this report.
    pub config: ServeBenchConfig,
    /// Hardware threads available to the process.
    pub threads: usize,
    /// Per-level measurements, in `config.connections` order.
    pub levels: Vec<ServeLevel>,
    /// The shared engine's cache hit rate at the end of the run (hits /
    /// lookups; the repeated scripts make this high by construction).
    pub hit_rate: f64,
    /// LRU promotions recorded by the engine.
    pub promotions: u64,
    /// Requests handled by the server across the whole bench.
    pub requests_total: u64,
    /// Responses that failed (`ok: false` or unparseable) without being
    /// byte-identity mismatches — kept separate so a failed request is
    /// never misreported as a determinism break.
    pub request_errors: u64,
    /// Whether every deterministic response was byte-identical to the
    /// in-process reference engine's answer.
    pub byte_identical: bool,
}

impl ServeBenchReport {
    /// The flat-JSON rendering written to `BENCH_serve.json`.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new()
            .int("nets", self.config.nets as u64)
            .int("trees", self.config.trees as u64)
            .int("requests_per_conn", self.config.requests_per_conn as u64)
            .int("runs", self.config.runs as u64)
            .int("workers", self.config.workers as u64)
            .int("threads", self.threads as u64);
        for level in &self.levels {
            let c = level.connections;
            obj = obj
                .num(&format!("c{c}_s"), level.elapsed.median_s)
                .num(&format!("c{c}_mad_s"), level.elapsed.mad_s)
                .num(&format!("c{c}_req_per_s"), level.requests_per_s())
                .num(&format!("c{c}_p50_s"), level.p50_s)
                .num(&format!("c{c}_p95_s"), level.p95_s)
                .num(&format!("c{c}_p99_s"), level.p99_s);
        }
        obj.num("hit_rate", self.hit_rate)
            .int("promotions", self.promotions)
            .int("requests_total", self.requests_total)
            .int("request_errors", self.request_errors)
            .bool("byte_identical", self.byte_identical)
            .finish()
    }

    /// One-paragraph human summary.
    pub fn summary_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "serve: {} nets + {} trees, {} req/conn, {} run(s), {} worker(s)\n",
            self.config.nets,
            self.config.trees,
            self.config.requests_per_conn,
            self.config.runs,
            self.config.workers,
        );
        for level in &self.levels {
            let _ = writeln!(
                out,
                "  {:>2} conn(s): median {:.3}s  mad {:.4}s  ({:.2} req/s, {} verified/run)  \
                 p50 {:.1}ms  p95 {:.1}ms  p99 {:.1}ms",
                level.connections,
                level.elapsed.median_s,
                level.elapsed.mad_s,
                level.requests_per_s(),
                level.verified,
                level.p50_s * 1e3,
                level.p95_s * 1e3,
                level.p99_s * 1e3,
            );
        }
        let _ = write!(
            out,
            "  hit_rate: {:.3}   request_errors: {}   byte_identical: {}",
            self.hit_rate, self.request_errors, self.byte_identical
        );
        out
    }
}

/// The timed runs at one level.
fn run_level(
    server: &ServerHandle,
    load: &PreparedLoad,
    connections: usize,
    runs: usize,
    byte_identical: &mut bool,
    request_errors: &mut u64,
) -> ServeLevel {
    let mut samples = Vec::with_capacity(runs.max(1));
    let mut p50s = Vec::with_capacity(runs.max(1));
    let mut p95s = Vec::with_capacity(runs.max(1));
    let mut p99s = Vec::with_capacity(runs.max(1));
    let mut requests = 0;
    let mut verified = 0;
    for _ in 0..runs.max(1) {
        let outcome =
            fire_load(server.addr(), load).expect("loadgen connections over loopback succeed");
        if !outcome.clean() {
            eprintln!(
                "serve bench: {} error(s), {} mismatch(es) at {connections} connection(s)!",
                outcome.errors, outcome.mismatches
            );
        }
        if outcome.mismatches > 0 {
            *byte_identical = false;
        }
        *request_errors += outcome.errors as u64;
        samples.push(outcome.elapsed_ns as f64 * 1e-9);
        p50s.push(outcome.p50_ns as f64 * 1e-9);
        p95s.push(outcome.p95_ns as f64 * 1e-9);
        p99s.push(outcome.p99_ns as f64 * 1e-9);
        requests = outcome.requests;
        verified = outcome.verified;
    }
    ServeLevel {
        connections,
        requests,
        elapsed: summarize(&samples),
        verified,
        p50_s: summarize(&p50s).median_s,
        p95_s: summarize(&p95s).median_s,
        p99_s: summarize(&p99s).median_s,
    }
}

/// Runs the serve bench: starts an in-process server, drives it with a
/// prepared load at every configured concurrency level, byte-checks
/// every response against the reference, and reads the final cache
/// stats.
///
/// # Panics
///
/// Panics when the server cannot bind a loopback port or a loadgen
/// connection fails at the transport level — a benchmark host without
/// loopback TCP has no meaningful result.
pub fn run_serve_bench(config: ServeBenchConfig) -> ServeBenchReport {
    let tech = Technology::generic_180nm();
    let rip_config = RipConfig::paper();
    let server_config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: config.workers,
        ..ServeConfig::default()
    };
    let server = start_server(
        Engine::new(tech.clone(), rip_config.clone()),
        &server_config,
    )
    .expect("bind a loopback port for the serve bench");
    let reference = ServeState::new(Engine::new(tech, rip_config));

    let mut levels = Vec::with_capacity(config.connections.len());
    let mut byte_identical = true;
    let mut request_errors = 0u64;
    for &connections in &config.connections {
        let loadgen = LoadgenConfig {
            connections,
            requests_per_conn: config.requests_per_conn,
            nets: config.nets,
            trees: config.trees,
            ..LoadgenConfig::default()
        };
        // Scripts and their expected responses are identical across the
        // repeated runs of a level: prepare (and drive the reference
        // engine) once, fire many times.
        let load = prepare_load(Some(&reference), &loadgen);
        levels.push(run_level(
            &server,
            &load,
            connections,
            config.runs,
            &mut byte_identical,
            &mut request_errors,
        ));
    }

    let monitor = server.monitor();
    server.shutdown();
    let stats = monitor.state().engine().stats();
    ServeBenchReport {
        config,
        threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        levels,
        hit_rate: stats.hit_rate(),
        promotions: stats.promotions,
        requests_total: monitor.requests_total(),
        request_errors,
        byte_identical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rip_serve::{parse_json, Json};

    #[test]
    fn tiny_serve_bench_reports_and_serializes() {
        let report = run_serve_bench(ServeBenchConfig {
            connections: vec![1, 2],
            requests_per_conn: 3,
            nets: 2,
            trees: 1,
            runs: 1,
            workers: 2,
        });
        assert!(report.byte_identical, "responses diverged from reference");
        assert_eq!(report.request_errors, 0);
        assert_eq!(report.levels.len(), 2);
        assert!(report.requests_total >= 9);
        // The repeated script re-solves the same nets: the shared
        // engine must be hitting its caches by the second level.
        assert!(report.hit_rate > 0.0);
        let json = report.to_json();
        let doc = parse_json(&json).unwrap();
        for key in [
            "nets",
            "trees",
            "workers",
            "c1_s",
            "c1_req_per_s",
            "c1_p50_s",
            "c1_p95_s",
            "c1_p99_s",
            "c2_req_per_s",
            "hit_rate",
            "requests_total",
        ] {
            assert!(
                doc.get(key).and_then(Json::as_f64).is_some(),
                "missing key {key} in {json}"
            );
        }
        assert!(report.summary_text().contains("hit_rate"));
    }
}
