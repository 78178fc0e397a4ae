//! Std-only observability primitives for the RIP reproduction.
//!
//! One instrument kind, lock-free on the hot path: [`Histogram`], a
//! fixed 64-bucket log2 histogram with an exact `count` and `sum`, from
//! which p50/p90/p99 estimates derive. It records latencies in
//! nanoseconds and per-solve work (DP options made, merge products)
//! as plain counts; a histogram's `count` doubles as an event counter.
//!
//! Histograms live behind a named [`MetricsRegistry`]: `get-or-create`
//! by name, so independently constructed components (an engine, its
//! serving edge, a respawned engine) resolve the *same*
//! histogram handles and their observations accumulate in one place.
//! Registries snapshot into plain data ([`RegistrySnapshot`]) that can
//! be merged across registries; the serve layer renders it as JSON and
//! `rip client --metrics` renders that JSON as Prometheus-style text.
//!
//! # Histogram bucket semantics
//!
//! Bucket 0 holds exact zeros. Bucket `i` (1 ≤ i ≤ 62) holds values in
//! `[2^(i-1), 2^i - 1]`; bucket 63 holds everything from `2^62` up. A
//! quantile estimate is the **upper bound** of the bucket containing
//! the requested rank, so for any nonzero exact quantile `x` the
//! estimate `e` satisfies `x ≤ e < 2·x` — at most one power of two
//! high, never low. `count` and `sum` are exact, so mean latency is
//! exact too.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Number of histogram buckets (log2 buckets over the `u64` range).
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A fixed 64-bucket log2 histogram over `u64` observations
/// (typically nanoseconds), with an exact count and sum.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// The bucket a value lands in: 0 for exact zeros, otherwise one bucket
/// per power of two (`[2^(i-1), 2^i - 1]`), clamped to bucket 63.
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (64 - value.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// The largest value bucket `index` can hold (the quantile estimate
/// reported for ranks landing in that bucket).
pub fn bucket_upper_bound(index: usize) -> u64 {
    match index {
        0 => 0,
        i if i >= HISTOGRAM_BUCKETS - 1 => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

impl Histogram {
    /// A fresh empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn observe(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds.
    pub fn observe_duration(&self, d: Duration) {
        self.observe(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Records the nanoseconds elapsed since `start`.
    pub fn observe_since(&self, start: Instant) {
        self.observe_duration(start.elapsed());
    }

    /// Observations so far (exact).
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of every observation (exact; `sum / count` is the exact
    /// mean).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// A quantile estimate from the live buckets (see
    /// [`HistogramSnapshot::quantile`]).
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }

    /// Rezeroes every bucket and the count/sum.
    pub fn reset(&self) {
        for bucket in &self.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }

    /// A point-in-time copy of the buckets (individually atomic reads:
    /// concurrent observers may skew count vs buckets by in-flight
    /// observations, never corrupt them).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Plain-data copy of a [`Histogram`], mergeable across registries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations (exact).
    pub count: u64,
    /// Sum of observations (exact).
    pub sum: u64,
    /// Per-bucket observation counts (see [`bucket_index`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// The quantile estimate for `q` in `[0, 1]`: the upper bound of
    /// the bucket containing rank `ceil(q · count)`. For a nonzero
    /// exact quantile `x` the estimate `e` satisfies `x ≤ e < 2·x`.
    /// Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(HISTOGRAM_BUCKETS - 1)
    }

    /// Folds `other` into `self` (bucket-wise sums) — how the serving
    /// edge folds the engine's histograms into its own.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
    }

    /// The non-empty buckets as `(upper_bound, count)` pairs — the
    /// compact wire rendering.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (bucket_upper_bound(i), n))
            .collect()
    }
}

/// A named set of histograms with get-or-create semantics: resolving
/// the same name twice (even from different components, even after a
/// worker respawn) yields the same histogram, so observations
/// accumulate across component lifetimes as long as the registry
/// itself is shared.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// A fresh empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolves (creating on first use) the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        Arc::clone(self.lock().entry(name.to_string()).or_default())
    }

    /// Rezeroes every registered histogram (names stay registered, so
    /// outstanding handles keep working) — the `reset_stats` hook.
    pub fn reset(&self) {
        for histogram in self.lock().values() {
            histogram.reset();
        }
    }

    /// A point-in-time copy of every histogram, sorted by name.
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            histograms: self
                .lock()
                .iter()
                .map(|(name, h)| (name.clone(), h.snapshot()))
                .collect(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Arc<Histogram>>> {
        self.histograms
            .lock()
            .expect("metrics registry lock is never poisoned")
    }
}

/// Plain-data copy of a whole registry: what the serve layer renders
/// into `metrics` responses, merging the edge and engine registries.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RegistrySnapshot {
    /// `(name, snapshot)` histograms, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl RegistrySnapshot {
    /// Folds `other` into `self`: histograms with the same name sum
    /// bucket-wise, and new names interleave in sorted order.
    pub fn merge(&mut self, other: &RegistrySnapshot) {
        let mut histograms: BTreeMap<String, HistogramSnapshot> =
            self.histograms.drain(..).collect();
        for (name, snapshot) in &other.histograms {
            histograms.entry(name.clone()).or_default().merge(snapshot);
        }
        self.histograms = histograms.into_iter().collect();
    }

    /// The histogram named `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64 — a tiny deterministic generator for oracle inputs
    /// (the crate stays dependency-free).
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), 63);
        assert_eq!(bucket_index(1 << 62), 63);
        assert_eq!(bucket_index((1 << 62) - 1), 62);
        // Every bucket's upper bound lands back in that bucket.
        for i in 0..HISTOGRAM_BUCKETS {
            assert_eq!(bucket_index(bucket_upper_bound(i)), i, "bucket {i}");
        }
    }

    /// The naive oracle: exact quantile over the sorted values with the
    /// same rank convention the histogram uses.
    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn histogram_quantiles_bound_the_naive_oracle_within_2x() {
        for seed in [7u64, 99, 2005] {
            let mut rng = Rng(seed);
            let hist = Histogram::new();
            let mut values: Vec<u64> = (0..5000)
                .map(|_| {
                    // Mix magnitudes: exercise small, medium and huge
                    // buckets (and exact zeros).
                    match rng.next() % 4 {
                        0 => rng.next() % 16,
                        1 => rng.next() % 10_000,
                        2 => rng.next() % 100_000_000,
                        _ => rng.next(),
                    }
                })
                .collect();
            for &v in &values {
                hist.observe(v);
            }
            values.sort_unstable();
            assert_eq!(hist.count(), 5000);
            let exact_sum: u64 = values.iter().fold(0u64, |a, &v| a.wrapping_add(v));
            assert_eq!(hist.sum(), exact_sum, "sum is exact");
            for q in [0.01, 0.25, 0.5, 0.9, 0.99, 1.0] {
                let exact = exact_quantile(&values, q);
                let estimate = hist.quantile(q);
                if exact == 0 {
                    assert_eq!(estimate, 0, "q={q} seed={seed}");
                } else {
                    assert!(
                        estimate >= exact,
                        "estimate must never undershoot: q={q} exact={exact} est={estimate}"
                    );
                    // Strictly under 2x for values below the clamp
                    // bucket; the top bucket saturates to u64::MAX.
                    if exact < (1 << 62) {
                        assert!(
                            estimate < exact.saturating_mul(2),
                            "estimate must stay under 2x: q={q} exact={exact} est={estimate}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn histogram_reset_rezeroes_everything() {
        let hist = Histogram::new();
        hist.observe(5);
        hist.observe(500);
        assert_eq!(hist.count(), 2);
        hist.reset();
        assert_eq!(hist.count(), 0);
        assert_eq!(hist.sum(), 0);
        assert_eq!(hist.quantile(0.5), 0);
        assert_eq!(hist.snapshot().nonzero_buckets(), Vec::new());
    }

    #[test]
    fn registry_get_or_create_is_idempotent_and_shared() {
        let registry = MetricsRegistry::new();
        let h1 = registry.histogram("latency_ns");
        let h2 = registry.histogram("latency_ns");
        h1.observe(10);
        h2.observe(20);
        assert_eq!(h1.count(), 2, "both handles hit one histogram");
        assert!(Arc::ptr_eq(&h1, &h2));
        registry.histogram("depth").observe(4);
        let snapshot = registry.snapshot();
        let names: Vec<&str> = snapshot
            .histograms
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert_eq!(names, vec!["depth", "latency_ns"]);
        assert_eq!(snapshot.histogram("latency_ns").unwrap().count, 2);
        assert_eq!(snapshot.histogram("latency_ns").unwrap().sum, 30);
        assert_eq!(snapshot.histogram("missing"), None);
        // Reset zeroes values but keeps names and handles live.
        registry.reset();
        assert_eq!(h1.count(), 0);
        h1.observe(7);
        let after = registry.snapshot();
        assert_eq!(after.histograms.len(), 2, "reset keeps every name");
        assert_eq!(after.histogram("latency_ns").unwrap().count, 1);
        assert_eq!(after.histogram("latency_ns").unwrap().sum, 7);
        assert_eq!(after.histogram("depth").unwrap().count, 0);
    }

    #[test]
    fn snapshot_merge_sums_by_name_and_unions_the_rest() {
        let r1 = MetricsRegistry::new();
        let r2 = MetricsRegistry::new();
        r1.histogram("lat").observe(100);
        r2.histogram("lat").observe(200);
        r2.histogram("only_b").observe(1);
        r1.histogram("only_a").observe(3);
        let mut merged = r1.snapshot();
        merged.merge(&r2.snapshot());
        let lat = merged.histogram("lat").unwrap();
        assert_eq!(lat.count, 2);
        assert_eq!(lat.sum, 300);
        assert_eq!(
            lat.nonzero_buckets(),
            vec![(bucket_upper_bound(7), 1), (bucket_upper_bound(8), 1)]
        );
        assert_eq!(merged.histogram("only_a").unwrap().sum, 3);
        assert_eq!(merged.histogram("only_b").unwrap().sum, 1);
        // Merged names stay sorted.
        let names: Vec<&str> = merged.histograms.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["lat", "only_a", "only_b"]);
    }
}
