//! The one noise discipline every measurement in this benchmark shares:
//! a timing is reported as the median over passes (or over per-batch
//! samples, with the sample count printed), never as a mean or a best
//! round, and every output carries a provenance block. Also the small
//! seeded generator the key-sampling replays use.

use std::process::Command;

/// Median of `values` (mean of the two middle samples for an even count).
/// Panics on an empty slice: a metric with no samples is a benchmark bug.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of an ascending slice: the
/// smallest sample with at least `p` % of the samples at or below it.
pub fn percentile_sorted<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method) — what the benchmark driver uses
/// for its spread check, so `--repeat` reports the same figure.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// SplitMix64: the seeded generator for sampled lookup keys. The library
/// only ever sees inputs derived from `--seed`.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

fn first_line(text: &str) -> String {
    text.lines().next().unwrap_or("").trim().to_string()
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok().map(|s| first_line(&s)).filter(|s| !s.is_empty())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| first_line(&String::from_utf8_lossy(&out.stdout)))
}

/// Where and how a result was measured: `(key, value)` pairs printed with
/// every run. Anything unreadable on this host reads `unknown`.
pub fn provenance(seed: u64, seconds: f64) -> Vec<(&'static str, String)> {
    let unknown = || "unknown".to_string();
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(unknown);
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    vec![
        ("cpu", cpu),
        ("nproc", nproc.to_string()),
        (
            "governor",
            read_trimmed("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
                .unwrap_or_else(unknown),
        ),
        ("kernel", read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_else(unknown)),
        ("rustc", command_line("rustc", &["--version"]).unwrap_or_else(unknown)),
        ("git_commit", command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        ("seed", seed.to_string()),
        ("run_seconds", seconds.to_string()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50);
        assert_eq!(percentile_sorted(&v, 99.0), 99);
        assert_eq!(percentile_sorted(&v, 100.0), 100);
        assert_eq!(percentile_sorted(&v, 0.0), 1);
        // 1000 samples: p99 leaves exactly ten samples beyond it.
        let w: Vec<u32> = (0..1000).collect();
        assert_eq!(percentile_sorted(&w, 99.0), 989);
        assert_eq!(percentile_sorted(&[7u32], 99.0), 7);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let (q1, q3) = quartiles(&[10.0, 20.0]);
        assert!((q1 - 7.5).abs() < 1e-12 && (q3 - 22.5).abs() < 1e-12);
    }

    #[test]
    fn splitmix_is_deterministic_and_bounded() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
            assert!(a.below(13) < 13);
            b.below(13);
        }
        assert_ne!(SplitMix64::new(7).next_u64(), SplitMix64::new(8).next_u64());
    }
}
