//! Timing plumbing: the [`Stats`] every printed number goes through, the
//! self-calibrating timed window ([`measure`]) and the process's peak
//! resident set.
//!
//! Everything here is **host** time. Simulated seconds never pass
//! through this module; they are compared as bit patterns in
//! [`crate::digest`].

use std::io;
use std::time::Instant;

/// Summary of a sample set: what `amrbench` prints for every number.
///
/// Quartiles follow Python's `statistics.quantiles(values, n=4)`
/// (exclusive method), so a spread computed here equals the one the
/// benchmark driver computes from the same values.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stats {
    /// Number of samples.
    pub n: usize,
    /// Median sample.
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// First quartile (equals the median when `n < 2`).
    pub q1: f64,
    /// Third quartile (equals the median when `n < 2`).
    pub q3: f64,
}

impl Stats {
    /// Summarises `samples`; `None` when empty or when a sample is NaN.
    pub fn from_samples(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() || samples.iter().any(|v| v.is_nan()) {
            return None;
        }
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let n = s.len();
        // Python's exclusive method: the k-th of m cut points sits at
        // position k*(n+1)/m (1-based), clamped into the data.
        let cut = |k: usize| -> f64 {
            if n == 1 {
                return s[0];
            }
            let pos = k * (n + 1);
            let j = (pos / 4).clamp(1, n - 1);
            let delta = pos as f64 / 4.0 - j as f64;
            s[j - 1] + (s[j] - s[j - 1]) * delta
        };
        Some(Self {
            n,
            median: cut(2),
            min: s[0],
            max: s[n - 1],
            q1: cut(1),
            q3: cut(3),
        })
    }

    /// A single observation (counts, exact simulated values).
    pub fn single(value: f64) -> Self {
        Self {
            n: 1,
            median: value,
            min: value,
            max: value,
            q1: value,
            q3: value,
        }
    }

    /// Interquartile range as a share of the median (0 when the median
    /// is 0): the run-to-run spread the benchmark contract bounds.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Shortest timed window [`measure`] accepts for one sample.
pub const MIN_WINDOW_S: f64 = 0.2;

/// Times `f`, self-calibrated: the repetition count grows until one
/// window of calls lasts at least `min_window_s`, then `windows` (at
/// least 3) such windows are taken. Returns the per-call seconds of each
/// window as [`Stats`] and the repetition count, so no reported number
/// rests on a sub-millisecond interval.
pub fn measure(min_window_s: f64, windows: usize, mut f: impl FnMut()) -> (Stats, usize) {
    let mut window = |reps: usize| {
        let t = Instant::now();
        for _ in 0..reps {
            f();
        }
        t.elapsed().as_secs_f64()
    };
    // The first calls run cold, so one call is no basis for the count:
    // scale up from what each longer window really took.
    let mut reps = 1usize;
    loop {
        let took = window(reps).max(1e-9);
        if took >= min_window_s {
            break;
        }
        let scale = (1.2 * min_window_s / took).clamp(2.0, 100.0);
        reps = (reps as f64 * scale).ceil() as usize;
    }
    let per_call: Vec<f64> = (0..windows.max(3))
        .map(|_| window(reps) / reps as f64)
        .collect();
    let stats = Stats::from_samples(&per_call).expect("at least three finite samples");
    (stats, reps)
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .ok_or_else(|| invalid("/proc/self/status: no VmHWM".into()))?;
    Ok(kb as f64 / 1024.0)
}

/// Resets the kernel's peak-resident-set mark to the current resident
/// set, so the next [`peak_rss_mb`] reads the peak since this call.
pub fn reset_peak_rss() -> io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Stats::from_samples(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.n, s.min, s.max), (10, 1.0, 10.0));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Stats::from_samples(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Stats::from_samples(&[2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn degenerate_sample_sets() {
        assert!(Stats::from_samples(&[]).is_none());
        assert!(Stats::from_samples(&[1.0, f64::NAN]).is_none());
        let one = Stats::from_samples(&[4.0]).unwrap();
        assert_eq!(one, Stats::single(4.0));
        assert_eq!(one.spread(), 0.0);
        assert_eq!(Stats::single(0.0).spread(), 0.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Stats::from_samples(&v).unwrap();
        assert!((s.spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn measure_fills_the_window_and_takes_three_samples() {
        let mut calls = 0usize;
        let (stats, reps) = measure(0.01, 1, || {
            calls += 1;
            std::hint::black_box((0..200).sum::<u64>());
        });
        assert_eq!(stats.n, 3, "fewer than three windows are never taken");
        assert!(reps >= 1);
        assert!(
            calls >= 4 * reps,
            "calibration windows, then three of {reps}"
        );
        assert!(stats.min > 0.0 && stats.min <= stats.median && stats.median <= stats.max);
        // Each window really lasted about the requested time.
        assert!(stats.median * reps as f64 > 0.002);
    }

    #[test]
    fn peak_rss_resets_to_the_current_resident_set() {
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        let with_big = peak_rss_mb().unwrap();
        assert!(with_big >= 64.0);
        drop(big);
        // Where /proc is read-only the runner falls back to the peak at
        // exit; where the reset works, the mark must really drop.
        if reset_peak_rss().is_ok() {
            assert!(peak_rss_mb().unwrap() < with_big - 32.0);
        }
    }
}
