//! Predictive model of the calibration parameters — the paper's stated
//! follow-up ("predictive I/O sizes ... could potentially benefit from
//! machine-learning approaches as more data becomes available").
//!
//! A deliberately simple, fully deterministic learner: ordinary least
//! squares on the feature vector `(1, cfl, max_level, log2(n_cell))`
//! predicting the calibrated `dataset_growth` (and `f`) from completed
//! calibrations, so new AMR configurations get a proxy setup without
//! running the simulation first.

use serde::{Deserialize, Serialize};

/// One training observation: inputs and their calibrated parameters.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Observation {
    /// `castro.cfl`.
    pub cfl: f64,
    /// `amr.max_level`.
    pub max_level: usize,
    /// Level-0 cells per side.
    pub n_cell: i64,
    /// Calibrated growth factor.
    pub dataset_growth: f64,
    /// Calibrated Eq. (3) correction factor.
    pub f: f64,
}

/// Linear predictor over `(1, cfl, max_level, log2 n_cell)`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GrowthPredictor {
    /// Coefficients for `dataset_growth`.
    pub growth_coefs: [f64; 4],
    /// Coefficients for `f`.
    pub f_coefs: [f64; 4],
    /// Number of observations used.
    pub n_obs: usize,
}

fn features(cfl: f64, max_level: usize, n_cell: i64) -> [f64; 4] {
    [1.0, cfl, max_level as f64, (n_cell as f64).log2()]
}

/// Solves the 4x4 normal equations `X^T X beta = X^T y` by Gaussian
/// elimination with partial pivoting; a ridge term keeps degenerate
/// designs (e.g. constant features) solvable.
#[allow(clippy::needless_range_loop)] // textbook index form across row borrows
fn least_squares(xs: &[[f64; 4]], ys: &[f64]) -> [f64; 4] {
    let mut ata = [[0.0f64; 4]; 4];
    let mut aty = [0.0f64; 4];
    for (x, &y) in xs.iter().zip(ys) {
        for i in 0..4 {
            for j in 0..4 {
                ata[i][j] += x[i] * x[j];
            }
            aty[i] += x[i] * y;
        }
    }
    for (i, row) in ata.iter_mut().enumerate() {
        row[i] += 1e-9; // ridge
    }
    // Gaussian elimination.
    let mut m = [[0.0f64; 5]; 4];
    for i in 0..4 {
        m[i][..4].copy_from_slice(&ata[i]);
        m[i][4] = aty[i];
    }
    for col in 0..4 {
        let pivot = (col..4)
            .max_by(|&a, &b| m[a][col].abs().total_cmp(&m[b][col].abs()))
            .expect("rows");
        m.swap(col, pivot);
        let d = m[col][col];
        assert!(d.abs() > 1e-30, "singular normal equations");
        for j in col..5 {
            m[col][j] /= d;
        }
        for row in 0..4 {
            if row != col {
                let factor = m[row][col];
                for j in col..5 {
                    m[row][j] -= factor * m[col][j];
                }
            }
        }
    }
    [m[0][4], m[1][4], m[2][4], m[3][4]]
}

impl GrowthPredictor {
    /// Fits the predictor to calibration observations.
    ///
    /// # Panics
    /// Panics with fewer than 4 observations (under-determined).
    pub fn fit(observations: &[Observation]) -> Self {
        assert!(
            observations.len() >= 4,
            "GrowthPredictor::fit: need at least 4 observations"
        );
        let xs: Vec<[f64; 4]> = observations
            .iter()
            .map(|o| features(o.cfl, o.max_level, o.n_cell))
            .collect();
        let g: Vec<f64> = observations.iter().map(|o| o.dataset_growth).collect();
        let f: Vec<f64> = observations.iter().map(|o| o.f).collect();
        Self {
            growth_coefs: least_squares(&xs, &g),
            f_coefs: least_squares(&xs, &f),
            n_obs: observations.len(),
        }
    }

    /// Predicted growth factor for a configuration (clamped to the
    /// paper's plausible band `[0.99, 1.10]`).
    pub fn predict_growth(&self, cfl: f64, max_level: usize, n_cell: i64) -> f64 {
        let x = features(cfl, max_level, n_cell);
        let raw: f64 = x.iter().zip(&self.growth_coefs).map(|(a, b)| a * b).sum();
        raw.clamp(0.99, 1.10)
    }

    /// Predicted Eq. (3) correction factor (clamped positive).
    pub fn predict_f(&self, cfl: f64, max_level: usize, n_cell: i64) -> f64 {
        let x = features(cfl, max_level, n_cell);
        let raw: f64 = x.iter().zip(&self.f_coefs).map(|(a, b)| a * b).sum();
        raw.max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic truth mirroring the paper's monotonicity: growth rises
    /// with CFL and level count.
    fn synth(cfl: f64, max_level: usize, n_cell: i64) -> Observation {
        Observation {
            cfl,
            max_level,
            n_cell,
            dataset_growth: 1.0 + 0.01 * cfl + 0.002 * max_level as f64,
            f: 20.0 + cfl + 0.5 * max_level as f64,
        }
    }

    fn grid() -> Vec<Observation> {
        let mut out = Vec::new();
        for &cfl in &[0.3, 0.4, 0.5, 0.6] {
            for &maxl in &[2usize, 3, 4] {
                for &n in &[256i64, 512] {
                    out.push(synth(cfl, maxl, n));
                }
            }
        }
        out
    }

    #[test]
    fn recovers_linear_truth_exactly() {
        let obs = grid();
        let p = GrowthPredictor::fit(&obs);
        for o in &obs {
            let g = p.predict_growth(o.cfl, o.max_level, o.n_cell);
            assert!((g - o.dataset_growth).abs() < 1e-6, "{g}");
            let f = p.predict_f(o.cfl, o.max_level, o.n_cell);
            assert!((f - o.f).abs() < 1e-4, "{f}");
        }
    }

    #[test]
    fn interpolates_unseen_configurations() {
        let p = GrowthPredictor::fit(&grid());
        // cfl = 0.45, maxl = 3 was never observed exactly at n=384.
        let truth = synth(0.45, 3, 384);
        let g = p.predict_growth(0.45, 3, 384);
        assert!((g - truth.dataset_growth).abs() < 1e-4, "{g}");
    }

    #[test]
    fn predictions_keep_paper_monotonicity() {
        let p = GrowthPredictor::fit(&grid());
        let low = p.predict_growth(0.3, 2, 512);
        let hi_cfl = p.predict_growth(0.6, 2, 512);
        let hi_lvl = p.predict_growth(0.3, 4, 512);
        assert!(hi_cfl > low);
        assert!(hi_lvl > low);
    }

    #[test]
    fn clamps_extrapolation() {
        let p = GrowthPredictor::fit(&grid());
        assert!(p.predict_growth(10.0, 40, 512) <= 1.10);
        assert!(p.predict_growth(-10.0, 0, 2) >= 0.99);
        assert!(p.predict_f(-100.0, 0, 2) >= 1.0);
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn too_few_observations_panics() {
        GrowthPredictor::fit(&[synth(0.3, 2, 64)]);
    }
}
