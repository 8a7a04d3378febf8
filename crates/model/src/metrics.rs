//! Error metrics for model-vs-measurement comparison.

/// Root-mean-square error between two equal-length series.
///
/// # Panics
/// Panics on length mismatch or empty input.
pub(crate) fn rmse(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "rmse: length mismatch");
    assert!(!a.is_empty(), "rmse: empty input");
    let sum: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    (sum / a.len() as f64).sqrt()
}

/// Mean absolute percentage error (relative to `reference`), in percent.
/// Reference entries of zero are skipped.
pub fn mape(reference: &[f64], predicted: &[f64]) -> f64 {
    assert_eq!(reference.len(), predicted.len(), "mape: length mismatch");
    let mut sum = 0.0;
    let mut n = 0usize;
    for (&r, &p) in reference.iter().zip(predicted) {
        if r != 0.0 {
            sum += ((p - r) / r).abs();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        100.0 * sum / n as f64
    }
}

/// Relative error of the final entries: `(pred_last - ref_last)/ref_last`.
pub fn final_rel_err(reference: &[f64], predicted: &[f64]) -> f64 {
    match (reference.last(), predicted.last()) {
        (Some(&r), Some(&p)) if r != 0.0 => (p - r) / r,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmse_basics() {
        assert_eq!(rmse(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert!((rmse(&[0.0, 0.0], &[3.0, 4.0]) - (12.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn mape_percentage() {
        let m = mape(&[100.0, 200.0], &[110.0, 180.0]);
        assert!((m - 10.0).abs() < 1e-12);
        // Zero references are skipped.
        assert_eq!(mape(&[0.0, 100.0], &[5.0, 100.0]), 0.0);
    }

    #[test]
    fn final_error_sign() {
        assert!((final_rel_err(&[10.0, 100.0], &[0.0, 110.0]) - 0.1).abs() < 1e-12);
        assert!(final_rel_err(&[10.0, 100.0], &[0.0, 90.0]) < 0.0);
        assert_eq!(final_rel_err(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rmse_mismatch_panics() {
        rmse(&[1.0], &[1.0, 2.0]);
    }
}
