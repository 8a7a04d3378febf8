//! Sample extraction: the paper's Eqs. (1) and (2).
//!
//! The independent variable is cumulative: `x = output_counter * ncells`
//! where `ncells = Nx * Ny` at level 0 and the output counter runs from 1
//! to the number of plot dumps. The dependent variable `y` is bytes at
//! the `(time step, level, task)` granularity of the tracker.

use iosim::IoTracker;
use serde::{Deserialize, Serialize};

/// One `(x, y)` sample of the cumulative model.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Cumulative independent variable (Eq. 1).
    pub x: f64,
    /// Output bytes (Eq. 2), cumulative across steps.
    pub y: f64,
}

/// A labelled series of samples (one run of the campaign).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct XySeries {
    /// Run label, e.g. `case4_cfl0.4_maxl4`.
    pub label: String,
    /// Samples ordered by output counter.
    pub points: Vec<Sample>,
}

impl XySeries {
    /// Builds the Eq. (1)/(2) cumulative series from a tracker: the k-th
    /// output event contributes `x = k * ncells_l0` and `y = ` total bytes
    /// of the first k events.
    pub fn from_tracker(label: impl Into<String>, tracker: &IoTracker, ncells_l0: i64) -> Self {
        let mut points = Vec::new();
        for (counter, (_step, cum_bytes)) in tracker.cumulative_per_step().iter().enumerate() {
            points.push(Sample {
                x: (counter as f64 + 1.0) * ncells_l0 as f64,
                y: *cum_bytes as f64,
            });
        }
        Self {
            label: label.into(),
            points,
        }
    }

    /// Builds a series from raw `(x, y)` pairs — the bridge from the
    /// results-store query plane (`amrproxy::store::Query::xy`) and any
    /// other tabular source into the regression plane.
    pub fn from_pairs(label: impl Into<String>, pairs: &[(f64, f64)]) -> Self {
        Self {
            label: label.into(),
            points: pairs.iter().map(|&(x, y)| Sample { x, y }).collect(),
        }
    }

    /// Least-squares line over this series (`linear_fit`); requires at
    /// least two points.
    pub fn fit(&self) -> crate::LinearFit {
        crate::linear_fit(&self.xs(), &self.ys())
    }

    /// x values.
    pub fn xs(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.x).collect()
    }

    /// y values.
    pub fn ys(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.y).collect()
    }

    /// Final cumulative output size.
    pub fn final_bytes(&self) -> f64 {
        self.points.last().map(|p| p.y).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosim::{IoKey, IoKind};

    fn tracker_with(steps: &[(u32, u64)]) -> IoTracker {
        let t = IoTracker::new();
        for &(step, bytes) in steps {
            t.record(
                IoKey {
                    step,
                    level: 0,
                    task: 0,
                },
                IoKind::Data,
                bytes,
            );
        }
        t
    }

    #[test]
    fn x_is_counter_times_ncells() {
        let t = tracker_with(&[(1, 100), (20, 150), (40, 200)]);
        let s = XySeries::from_tracker("run", &t, 1024);
        assert_eq!(s.points.len(), 3);
        assert_eq!(s.points[0].x, 1024.0);
        assert_eq!(s.points[1].x, 2048.0); // counter, not step number
        assert_eq!(s.points[2].x, 3072.0);
    }

    #[test]
    fn y_is_cumulative() {
        let t = tracker_with(&[(1, 100), (2, 150), (3, 200)]);
        let s = XySeries::from_tracker("run", &t, 4);
        assert_eq!(s.ys(), vec![100.0, 250.0, 450.0]);
        assert_eq!(s.final_bytes(), 450.0);
    }

    #[test]
    fn empty_tracker_gives_empty_series() {
        let t = IoTracker::new();
        let s = XySeries::from_tracker("run", &t, 4);
        assert!(s.points.is_empty());
        assert_eq!(s.final_bytes(), 0.0);
    }

    #[test]
    fn from_pairs_round_trips_and_fits() {
        let s = XySeries::from_pairs("store", &[(1.0, 2.0), (2.0, 4.0), (3.0, 6.0)]);
        assert_eq!(s.label, "store");
        assert_eq!(s.xs(), vec![1.0, 2.0, 3.0]);
        assert_eq!(s.ys(), vec![2.0, 4.0, 6.0]);
        let fit = s.fit();
        assert!((fit.slope - 2.0).abs() < 1e-12);
        assert!(fit.intercept.abs() < 1e-9);
        assert!((fit.r2 - 1.0).abs() < 1e-12);
    }
}
