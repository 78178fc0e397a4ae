//! Statistical benchmark summaries: the timed runs of each bench (which
//! discards its own warm-up runs) summarized by median and MAD (median
//! absolute deviation) — robust location/scale estimators that a single
//! scheduler hiccup cannot drag around, unlike mean/stddev.
//!
//! Every performance claim in this repository flows through here: the
//! `rip bench` CLI subcommand summarizes its runs with [`summarize`]
//! and serializes them with [`JsonObject`] into the committed
//! `BENCH_*.json` baselines (the workspace builds offline, so the writer
//! is deliberately tiny and flat).

/// Robust summary of repeated timed runs, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatSummary {
    /// Number of timed runs summarized.
    pub runs: usize,
    /// Median run time, s.
    pub median_s: f64,
    /// Median absolute deviation around the median, s.
    pub mad_s: f64,
    /// Fastest run, s.
    pub min_s: f64,
    /// Slowest run, s.
    pub max_s: f64,
    /// Mean run time, s (for eyeballing skew against the median).
    pub mean_s: f64,
}

/// Median of a sample (averages the middle pair for even sizes).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// Median absolute deviation around `center`.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn mad(samples: &[f64], center: f64) -> f64 {
    let deviations: Vec<f64> = samples.iter().map(|x| (x - center).abs()).collect();
    median(&deviations)
}

/// Summarizes a sample of run times.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn summarize(samples: &[f64]) -> StatSummary {
    let median_s = median(samples);
    let min_s = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let max_s = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mean_s = samples.iter().sum::<f64>() / samples.len() as f64;
    StatSummary {
        runs: samples.len(),
        median_s,
        mad_s: mad(samples, median_s),
        min_s,
        max_s,
        mean_s,
    }
}

/// A tiny flat-JSON object writer (the workspace builds without serde).
/// Keys are written in insertion order; numbers use Rust's shortest
/// round-trip `Display` so the files re-parse exactly.
#[derive(Debug, Default)]
pub struct JsonObject {
    fields: Vec<(String, String)>,
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a numeric field.
    pub fn num(mut self, key: &str, value: f64) -> Self {
        let rendered = if value.is_finite() {
            format!("{value}")
        } else {
            "null".to_string()
        };
        self.fields.push((key.to_string(), rendered));
        self
    }

    /// Adds an integer field.
    pub fn int(mut self, key: &str, value: u64) -> Self {
        self.fields.push((key.to_string(), format!("{value}")));
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> Self {
        self.fields.push((key.to_string(), format!("{value}")));
        self
    }

    /// Renders the object with one field per line.
    pub fn finish(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (key, value)) in self.fields.iter().enumerate() {
            let comma = if i + 1 == self.fields.len() { "" } else { "," };
            out.push_str(&format!("  \"{key}\": {value}{comma}\n"));
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn mad_is_robust_to_one_outlier() {
        let clean = [1.0, 1.1, 0.9, 1.05, 0.95];
        let spiked = [1.0, 1.1, 0.9, 1.05, 100.0];
        let m_clean = mad(&clean, median(&clean));
        let m_spiked = mad(&spiked, median(&spiked));
        // One outlier barely moves the MAD (it would explode a stddev).
        assert!(m_spiked < 0.2, "MAD {m_spiked} should shrug off the spike");
        assert!(m_clean <= m_spiked + 0.2);
    }

    #[test]
    fn summarize_orders_its_statistics() {
        let s = summarize(&[2.0, 1.0, 4.0, 3.0]);
        assert_eq!(s.runs, 4);
        assert_eq!(s.min_s, 1.0);
        assert_eq!(s.max_s, 4.0);
        assert_eq!(s.median_s, 2.5);
        assert_eq!(s.mean_s, 2.5);
        assert!(s.min_s <= s.median_s && s.median_s <= s.max_s);
    }
}
