//! Ordinary least-squares linear regression.
//!
//! The paper applies linear regression to the cumulative `(x, y)` samples
//! to separate the near-linear runs (L0-dominated) from the non-linear
//! family driven by refinement (Figs. 5-7).

use serde::{Deserialize, Serialize};

/// A fitted line `y = intercept + slope * x` with its goodness of fit.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LinearFit {
    /// Slope.
    pub slope: f64,
    /// Intercept.
    pub intercept: f64,
    /// Coefficient of determination in `[0, 1]`.
    pub r2: f64,
}

/// Fits `y = a + b x` by least squares.
///
/// # Panics
/// Panics when fewer than 2 samples are given or all x are identical.
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> LinearFit {
    assert_eq!(xs.len(), ys.len(), "linear_fit: length mismatch");
    assert!(xs.len() >= 2, "linear_fit: need at least 2 samples");
    let n = xs.len() as f64;
    let mean_x = xs.iter().sum::<f64>() / n;
    let mean_y = ys.iter().sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        sxx += (x - mean_x) * (x - mean_x);
        sxy += (x - mean_x) * (y - mean_y);
        syy += (y - mean_y) * (y - mean_y);
    }
    assert!(sxx > 0.0, "linear_fit: degenerate x values");
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    let r2 = if syy > 0.0 {
        (sxy * sxy) / (sxx * syy)
    } else {
        1.0 // constant y is fit perfectly by slope ~ 0
    };
    LinearFit {
        slope,
        intercept,
        r2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_is_recovered() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 + 2.0 * x).collect();
        let fit = linear_fit(&xs, &ys);
        assert!((fit.slope - 2.0).abs() < 1e-12);
        assert!((fit.intercept - 3.0).abs() < 1e-12);
        assert!((fit.r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn noise_lowers_r2() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 2.0 * x + if i % 2 == 0 { 25.0 } else { -25.0 })
            .collect();
        let fit = linear_fit(&xs, &ys);
        assert!(fit.r2 < 0.95);
        assert!((fit.slope - 2.0).abs() < 0.2);
    }

    #[test]
    fn constant_y_has_zero_slope() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [5.0, 5.0, 5.0];
        let fit = linear_fit(&xs, &ys);
        assert_eq!(fit.slope, 0.0);
        assert_eq!(fit.intercept, 5.0);
        assert_eq!(fit.r2, 1.0);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn too_few_samples_panics() {
        linear_fit(&[1.0], &[1.0]);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn identical_x_panics() {
        linear_fit(&[2.0, 2.0], &[1.0, 3.0]);
    }
}
