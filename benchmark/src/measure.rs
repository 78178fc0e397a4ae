//! Measurement plumbing shared by the workloads: exact quantiles over
//! the benchmark's own timings, `/proc` readers, the host-calibration
//! kernel, and the result line.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One named metric with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Accumulates metrics in report order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// The benchmark's verdict on one run.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Median calibration time over the run, ms.
    pub calib_ms: f64,
}

impl Report {
    /// The result object: the last line the benchmark prints.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.0.iter().enumerate() {
            // A non-finite value is a benchmark bug; report it as 0 so
            // the line stays valid JSON, and flag it on stderr.
            let value = if m.value.is_finite() {
                m.value
            } else {
                eprintln!("warning: metric {} is not finite", m.name);
                0.0
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Exact quantile of `values` (linear interpolation between order
/// statistics, as `numpy.quantile`'s default); 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn status_field_kb(pid: Option<u32>, field: &str) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// Peak resident set size (`VmHWM`) of a process, MB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    status_field_kb(pid, "VmHWM:") / 1024.0
}

/// Resets this process's peak-RSS mark to its current RSS, so the next
/// `peak_rss_mb` reading covers only what follows.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// User + system CPU time of a process, ms (`/proc/<pid>/stat` fields
/// 14 and 15, in clock ticks of 1/100 s).
pub fn cpu_ms(pid: u32) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesized command name, which may hold spaces.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // `rest` starts at field 3 (state), so utime (14) is index 11.
    (tick(11) + tick(12)) * 10.0
}

/// The calibration kernel's time on the 2-vCPU reference host the
/// bounds were set on. Timed figures are scaled by `calibration /
/// CALIBRATION_REFERENCE_MS`, so they read as on that host.
pub const CALIBRATION_REFERENCE_MS: f64 = 170.0;

/// Times the calibration kernel in a child process (so its buffer never
/// shows in this process's peak RSS): the median of three runs, ms.
pub fn host_speed_ms() -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .arg("calibrate")
        .output()
        .map_err(|e| format!("calibration: {e}"))?;
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|_| "calibration printed no time".to_string())
}

/// A fixed host-calibration kernel: an integer ALU loop plus a strided
/// sweep over a 64 MiB buffer. Its time tracks host speed, not the
/// code under test: a shared VM's speed drifts by up to 30% over
/// minutes, and the timed figures are normalized by it.
pub fn host_calibration_ms() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    for _ in 0..40_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    let mut buf = vec![0u64; 8 << 20];
    for pass in 0..6u64 {
        for i in (0..buf.len()).step_by(8) {
            buf[i] = buf[i].wrapping_add(pass ^ x);
        }
    }
    std::hint::black_box((x, buf.iter().step_by(4096).sum::<u64>()));
    ms(t.elapsed())
}
