//! The repository benchmark. Run it through `run.py`, which builds it
//! and the `rip` binary first:
//!
//! ```text
//! python3 benchmark/run.py --workload <tree_paper|chain_table1|serve_mixed>
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of standard output is the result object; see
//! README.md for the workloads and metrics.

mod corpus;
mod measure;
mod offline;
mod serve;

use measure::{host_calibration_ms, median};
use std::path::PathBuf;

/// One run's settings.
pub struct Spec {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Spec {
    /// Prints a fingerprint of the run's inputs in the order they are
    /// sent (the panel's pinned fingerprint plus the seeded order)
    /// before the result line, so a changed input shows in every log.
    pub fn announce(&self, panel_fingerprint: &str, order: &[usize]) {
        let mut h = corpus::Fnv::default();
        h.bytes(panel_fingerprint.as_bytes());
        order
            .iter()
            .for_each(|&i| h.bytes(&(i as u64).to_le_bytes()));
        println!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"inputs_fingerprint\": \"{}\"}}",
            self.workload,
            self.seed,
            h.hex()
        );
    }
}

const USAGE: &str = "usage: rip-benchmark --workload <tree_paper|chain_table1|serve_mixed> \
                     [--seed N] [--seconds S] [--trace 0|1] [--rip PATH]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["calibrate"] {
        println!("{}", median(&[(); 3].map(|_| host_calibration_ms())));
        return;
    }
    match parse(&args).and_then(|(spec, rip)| run(&spec, rip)) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("rip-benchmark: {e}");
            std::process::exit(1);
        }
    }
}

fn parse(args: &[String]) -> Result<(Spec, PathBuf), String> {
    let mut spec = Spec {
        workload: String::new(),
        seed: 2005,
        seconds: 30.0,
        trace: false,
    };
    let mut rip = PathBuf::from("rip");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value {value:?} for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => spec.workload = value.clone(),
            "--seed" => spec.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                spec.seconds = value.parse().map_err(|_| bad())?;
                if !(spec.seconds > 0.0 && spec.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                spec.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--rip" => rip = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    Ok((spec, rip))
}

fn run(spec: &Spec, rip: PathBuf) -> Result<String, String> {
    let mut report = match spec.workload.as_str() {
        "tree_paper" => offline::tree_paper(spec)?,
        "chain_table1" => offline::chain_table1(spec)?,
        "serve_mixed" => serve::serve_mixed(spec, &rip)?,
        other => return Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    if spec.trace {
        report.metrics.put("host.calib_ms", report.calib_ms, "ms");
    }
    Ok(report.to_json())
}
