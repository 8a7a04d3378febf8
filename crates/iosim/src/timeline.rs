//! Burst timelines: when I/O happened, not just how much.
//!
//! The paper describes AMR output as a "burst buffer traditional pattern":
//! compute for a while, then a synchronized write burst per plot step.
//! `BurstTimeline` records each burst so the dynamic characteristics —
//! duty cycle, peak and mean bandwidth, burstiness — can be reported
//! (`io_burstiness` example and the `ablations` bench).

use serde::{Deserialize, Serialize};

/// One recorded I/O burst (a plot-step write phase).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Burst {
    /// Output step that triggered the burst.
    pub step: u32,
    /// Simulated time the burst began.
    pub t_start: f64,
    /// Simulated time the last write completed.
    pub t_end: f64,
    /// Payload bytes written in the burst.
    pub bytes: u64,
}

impl Burst {
    /// Burst duration in seconds.
    pub fn duration(&self) -> f64 {
        (self.t_end - self.t_start).max(0.0)
    }

    /// Achieved bandwidth during the burst (bytes/second).
    pub fn bandwidth(&self) -> f64 {
        let d = self.duration();
        if d > 0.0 {
            self.bytes as f64 / d
        } else {
            0.0
        }
    }
}

/// An append-only sequence of bursts.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct BurstTimeline {
    bursts: Vec<Burst>,
}

impl BurstTimeline {
    /// Appends a burst.
    ///
    /// # Panics
    /// Panics if the burst ends before it starts.
    pub fn push(&mut self, burst: Burst) {
        assert!(
            burst.t_end >= burst.t_start,
            "BurstTimeline: burst ends before it starts"
        );
        self.bursts.push(burst);
    }

    /// All bursts in insertion order.
    pub fn bursts(&self) -> &[Burst] {
        &self.bursts
    }

    /// Number of bursts.
    pub fn len(&self) -> usize {
        self.bursts.len()
    }

    /// True when no bursts were recorded.
    pub fn is_empty(&self) -> bool {
        self.bursts.is_empty()
    }

    /// Total bytes across all bursts.
    pub(crate) fn total_bytes(&self) -> u64 {
        self.bursts.iter().map(|b| b.bytes).sum()
    }

    /// Fraction of the covered wall time spent inside bursts (0 when the
    /// timeline is empty): the I/O duty cycle. Low duty cycle = "bursty".
    pub fn duty_cycle(&self) -> f64 {
        if self.bursts.is_empty() {
            return 0.0;
        }
        let span_start = self
            .bursts
            .iter()
            .map(|b| b.t_start)
            .fold(f64::INFINITY, f64::min);
        let span_end = self.bursts.iter().map(|b| b.t_end).fold(0.0, f64::max);
        let span = span_end - span_start;
        if span <= 0.0 {
            return 1.0;
        }
        let busy: f64 = self.bursts.iter().map(Burst::duration).sum();
        (busy / span).min(1.0)
    }

    /// Highest single-burst bandwidth.
    pub fn peak_bandwidth(&self) -> f64 {
        self.bursts.iter().map(Burst::bandwidth).fold(0.0, f64::max)
    }

    /// Mean bandwidth over the full covered span (bytes / total span).
    pub(crate) fn mean_bandwidth(&self) -> f64 {
        if self.bursts.is_empty() {
            return 0.0;
        }
        let span_start = self
            .bursts
            .iter()
            .map(|b| b.t_start)
            .fold(f64::INFINITY, f64::min);
        let span_end = self.bursts.iter().map(|b| b.t_end).fold(0.0, f64::max);
        let span = span_end - span_start;
        if span > 0.0 {
            self.total_bytes() as f64 / span
        } else {
            0.0
        }
    }

    /// Peak-to-mean bandwidth ratio; `>= 1`, larger = burstier.
    pub fn burstiness(&self) -> f64 {
        let mean = self.mean_bandwidth();
        if mean > 0.0 {
            self.peak_bandwidth() / mean
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn burst(step: u32, t0: f64, t1: f64, bytes: u64) -> Burst {
        Burst {
            step,
            t_start: t0,
            t_end: t1,
            bytes,
        }
    }

    #[test]
    fn burst_metrics() {
        let b = burst(0, 1.0, 3.0, 200);
        assert_eq!(b.duration(), 2.0);
        assert_eq!(b.bandwidth(), 100.0);
        assert_eq!(burst(0, 1.0, 1.0, 5).bandwidth(), 0.0);
    }

    #[test]
    fn duty_cycle_reflects_gaps() {
        let mut tl = BurstTimeline::default();
        tl.push(burst(0, 0.0, 1.0, 100)); // busy 1s
        tl.push(burst(1, 9.0, 10.0, 100)); // busy 1s, span 10s
        assert!((tl.duty_cycle() - 0.2).abs() < 1e-12);
        assert_eq!(tl.total_bytes(), 200);
    }

    #[test]
    fn burstiness_of_spiky_vs_steady() {
        let mut spiky = BurstTimeline::default();
        spiky.push(burst(0, 0.0, 0.1, 1000));
        spiky.push(burst(1, 10.0, 10.1, 1000));
        let mut steady = BurstTimeline::default();
        steady.push(burst(0, 0.0, 5.0, 1000));
        steady.push(burst(1, 5.0, 10.1, 1000));
        assert!(spiky.burstiness() > steady.burstiness());
        assert!(spiky.duty_cycle() < steady.duty_cycle());
    }

    #[test]
    fn empty_timeline_is_benign() {
        let tl = BurstTimeline::default();
        assert_eq!(tl.duty_cycle(), 0.0);
        assert_eq!(tl.peak_bandwidth(), 0.0);
        assert_eq!(tl.mean_bandwidth(), 0.0);
        assert!(tl.is_empty());
    }

    #[test]
    #[should_panic(expected = "ends before it starts")]
    fn inverted_burst_panics() {
        BurstTimeline::default().push(burst(0, 2.0, 1.0, 1));
    }
}
