//! Shared plumbing: seeded inputs, order statistics, memory readings and
//! the per-run report.

use rand::rngs::StdRng;
use rand::SeedableRng;
use selfstab_graph::{generators, Graph, Ids};
use std::time::Instant;

/// One workload run's outcome: operations attempted and failed, the
/// metrics of the JSON result, and the figures printed for people.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)`; units come from the metric tables in `main.rs`.
    pub metrics: Vec<(String, f64)>,
    /// Human-readable lines printed before the metrics.
    pub lines: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// Count one operation, failed when `check` is an error (printed once
    /// per distinct message so a systematic fault does not flood stdout).
    pub fn op(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = check {
            self.failed += 1;
            let line = format!("FAILED: {e}");
            if !self.lines.contains(&line) && self.failed <= 20 {
                self.lines.push(line);
            }
        }
    }
}

/// SplitMix64 of `seed` and a purpose tag: independent, reproducible
/// sub-seeds for each input the benchmark generates.
pub fn derive(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The radius the experiment suite (`bench::suite`) uses for its
/// unit-disk instances: √(2.2 ln n / n), connected with few rejections.
pub fn suite_radius(n: usize) -> f64 {
    (2.2 * (n as f64).ln() / n as f64).sqrt().min(1.0)
}

/// A seeded connected unit-disk graph with random IDs.
pub fn unit_disk(n: usize, seed: u64) -> (Graph, Ids) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = generators::random_geometric_connected(n, suite_radius(n), &mut rng);
    let ids = Ids::random(g.n(), &mut rng);
    (g, ids)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Median of a sample (mean of the two middle values for even sizes).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` of a sample; NaN when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// A `VmHWM`/`VmRSS`-style field of `/proc/<pid>/status`, in MiB.
pub fn proc_mb(pid: Option<u32>, field: &str) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line
        .trim_start_matches(field)
        .trim_start_matches(':')
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
