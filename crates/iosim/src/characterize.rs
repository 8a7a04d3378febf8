//! Darshan-style I/O characterization reports.
//!
//! The paper's background (Carns et al., MSST 2011) motivates continuous,
//! lightweight I/O characterization; this module condenses a run's
//! [`IoTracker`] records and [`BurstTimeline`] into the counter set such
//! tools report: request-size distribution, per-kind byte split, file
//! counts, and burstiness — the quantities an I/O autotuner consumes.

use crate::timeline::BurstTimeline;
use crate::tracker::{IoKind, IoTracker};
use serde::{Deserialize, Serialize};

/// Summary statistics of one run's I/O.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct IoCharacterization {
    /// Total bytes written.
    pub total_bytes: u64,
    /// Total files created.
    pub total_files: u64,
    /// Bytes of field data.
    pub data_bytes: u64,
    /// Bytes of metadata (headers, Cell_H, root files).
    pub metadata_bytes: u64,
    /// Number of output steps.
    pub steps: usize,
    /// Number of AMR levels seen.
    pub levels: usize,
    /// Highest task id that wrote data.
    pub max_task: u32,
    /// Mean bytes per file.
    pub mean_file_bytes: f64,
    /// Percentiles of per-(step,level,task) write sizes:
    /// `[p10, p50, p90, p99]`.
    pub write_size_percentiles: [u64; 4],
    /// Bytes per step: min, mean, max.
    pub step_bytes_min_mean_max: (u64, f64, u64),
    /// I/O duty cycle from the burst timeline (0 when untimed).
    pub duty_cycle: f64,
    /// Peak-to-mean bandwidth ratio (0 when untimed).
    pub burstiness: f64,
}

/// Builds the characterization from tracker records and an optional
/// timeline.
pub fn characterize(tracker: &IoTracker, timeline: Option<&BurstTimeline>) -> IoCharacterization {
    let records = tracker.export();
    let mut sizes: Vec<u64> = records.iter().map(|(_, _, bytes, _)| *bytes).collect();
    sizes.sort_unstable();
    let pct = |p: f64| -> u64 {
        if sizes.is_empty() {
            return 0;
        }
        let idx = ((sizes.len() as f64 - 1.0) * p).round() as usize;
        sizes[idx]
    };

    let per_step = tracker.bytes_per_step();
    let (mut s_min, mut s_max, mut s_sum) = (u64::MAX, 0u64, 0u64);
    for &b in per_step.values() {
        s_min = s_min.min(b);
        s_max = s_max.max(b);
        s_sum += b;
    }
    let steps = per_step.len();
    let total_files = tracker.total_files();
    let total_bytes = tracker.total_bytes();

    IoCharacterization {
        total_bytes,
        total_files,
        data_bytes: tracker.total_bytes_of(IoKind::Data),
        metadata_bytes: tracker.total_bytes_of(IoKind::Metadata),
        steps,
        levels: tracker.levels().len(),
        max_task: records.iter().map(|(k, _, _, _)| k.task).max().unwrap_or(0),
        mean_file_bytes: if total_files > 0 {
            total_bytes as f64 / total_files as f64
        } else {
            0.0
        },
        write_size_percentiles: [pct(0.10), pct(0.50), pct(0.90), pct(0.99)],
        step_bytes_min_mean_max: (
            if steps > 0 { s_min } else { 0 },
            if steps > 0 {
                s_sum as f64 / steps as f64
            } else {
                0.0
            },
            s_max,
        ),
        duty_cycle: timeline.map(BurstTimeline::duty_cycle).unwrap_or(0.0),
        burstiness: timeline.map(BurstTimeline::burstiness).unwrap_or(0.0),
    }
}

impl IoCharacterization {
    /// Renders the report as an aligned text table (Darshan-summary
    /// style).
    pub fn render(&self) -> String {
        let mut s = String::new();
        use std::fmt::Write as _;
        let _ = writeln!(s, "{:<26} {}", "total bytes", self.total_bytes);
        let _ = writeln!(s, "{:<26} {}", "total files", self.total_files);
        let _ = writeln!(s, "{:<26} {}", "data bytes", self.data_bytes);
        let _ = writeln!(s, "{:<26} {}", "metadata bytes", self.metadata_bytes);
        let _ = writeln!(s, "{:<26} {}", "output steps", self.steps);
        let _ = writeln!(s, "{:<26} {}", "amr levels", self.levels);
        let _ = writeln!(s, "{:<26} {}", "max task id", self.max_task);
        let _ = writeln!(s, "{:<26} {:.1}", "mean file bytes", self.mean_file_bytes);
        let [p10, p50, p90, p99] = self.write_size_percentiles;
        let _ = writeln!(
            s,
            "{:<26} p10={p10} p50={p50} p90={p90} p99={p99}",
            "write sizes"
        );
        let (mn, mean, mx) = self.step_bytes_min_mean_max;
        let _ = writeln!(s, "{:<26} min={mn} mean={mean:.1} max={mx}", "step bytes");
        let _ = writeln!(s, "{:<26} {:.4}", "duty cycle", self.duty_cycle);
        let _ = writeln!(s, "{:<26} {:.2}", "burstiness", self.burstiness);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::Burst;
    use crate::tracker::IoKey;

    fn tracker() -> IoTracker {
        let t = IoTracker::new();
        for step in 1..=4u32 {
            for task in 0..4u32 {
                t.record(
                    IoKey {
                        step,
                        level: 0,
                        task,
                    },
                    IoKind::Data,
                    1000 * (task as u64 + 1),
                );
            }
            t.record(
                IoKey {
                    step,
                    level: 1,
                    task: 0,
                },
                IoKind::Metadata,
                100,
            );
        }
        t
    }

    #[test]
    fn counters_add_up() {
        let t = tracker();
        let c = characterize(&t, None);
        assert_eq!(c.total_bytes, 4 * (1000 + 2000 + 3000 + 4000) + 4 * 100);
        assert_eq!(c.data_bytes + c.metadata_bytes, c.total_bytes);
        assert_eq!(c.steps, 4);
        assert_eq!(c.levels, 2);
        assert_eq!(c.max_task, 3);
        assert_eq!(c.total_files, 20);
    }

    #[test]
    fn percentiles_are_ordered() {
        let c = characterize(&tracker(), None);
        let [p10, p50, p90, p99] = c.write_size_percentiles;
        assert!(p10 <= p50 && p50 <= p90 && p90 <= p99);
        assert_eq!(p99, 4000);
        assert_eq!(p10, 100);
    }

    #[test]
    fn step_stats() {
        let c = characterize(&tracker(), None);
        let (mn, mean, mx) = c.step_bytes_min_mean_max;
        assert_eq!(mn, 10100);
        assert_eq!(mx, 10100);
        assert!((mean - 10100.0).abs() < 1e-9);
    }

    #[test]
    fn timeline_metrics_flow_through() {
        let mut tl = BurstTimeline::default();
        tl.push(Burst {
            step: 1,
            t_start: 0.0,
            t_end: 1.0,
            bytes: 100,
        });
        tl.push(Burst {
            step: 2,
            t_start: 9.0,
            t_end: 10.0,
            bytes: 100,
        });
        let c = characterize(&tracker(), Some(&tl));
        assert!((c.duty_cycle - 0.2).abs() < 1e-12);
        assert!(c.burstiness > 1.0);
    }

    #[test]
    fn render_contains_all_sections() {
        let c = characterize(&tracker(), None);
        let text = c.render();
        for needle in [
            "total bytes",
            "write sizes",
            "step bytes",
            "duty cycle",
            "burstiness",
        ] {
            assert!(text.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn empty_tracker_is_benign() {
        let c = characterize(&IoTracker::new(), None);
        assert_eq!(c.total_bytes, 0);
        assert_eq!(c.write_size_percentiles, [0, 0, 0, 0]);
        assert_eq!(c.mean_file_bytes, 0.0);
    }
}
