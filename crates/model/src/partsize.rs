//! The part-size model: Eq. (3) of the paper.
//!
//! `part_size = f * 8 * Nx * Ny / nprocs` bytes, where the correction
//! factor `f` absorbs the plot-variable count, refined-level contribution,
//! and format differences. The paper finds `f ~ [23, 25]` for the Sedov
//! cases; [`fit_f`] recovers the factor empirically from measured
//! first-dump output.

use serde::{Deserialize, Serialize};

/// The paper's reported range for `f` (Sedov, `derive_plot_vars=ALL`).
pub const PAPER_F_RANGE: (f64, f64) = (23.0, 25.0);

/// Eq. (3): part size in bytes for correction factor `f`, an `nx` by `ny`
/// level-0 mesh, and `nprocs` tasks.
pub fn part_size(f: f64, nx: i64, ny: i64, nprocs: usize) -> u64 {
    assert!(f > 0.0, "part_size: non-positive f");
    assert!(nprocs > 0, "part_size: zero ranks");
    (f * 8.0 * nx as f64 * ny as f64 / nprocs as f64).round() as u64
}

/// Inverts Eq. (3): the correction factor implied by a measured per-rank
/// first-dump byte count.
pub(crate) fn fit_f(measured_rank_bytes: f64, nx: i64, ny: i64, nprocs: usize) -> f64 {
    assert!(nprocs > 0, "fit_f: zero ranks");
    measured_rank_bytes * nprocs as f64 / (8.0 * nx as f64 * ny as f64)
}

/// The paper's worked constant: `1550000 ~ 23.65 * 512^2 * 8 / 32` for
/// the case4 pivot (512^2 mesh, 32 tasks).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Case4Constant;

impl Case4Constant {
    /// The initial data size the paper fixes for case4.
    pub(crate) const INITIAL_DATA_SIZE: u64 = 1_550_000;

    /// The implied correction factor.
    pub fn implied_f() -> f64 {
        fit_f(Self::INITIAL_DATA_SIZE as f64, 512, 512, 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq3_matches_paper_worked_example() {
        // part_size = 23.65 * 512^2 * 8 / 32 ~ 1550000 (paper Section IV.B).
        let ps = part_size(23.65, 512, 512, 32);
        let rel = (ps as f64 - 1_550_000.0).abs() / 1_550_000.0;
        assert!(rel < 0.01, "part_size {ps}");
    }

    #[test]
    fn implied_f_is_in_paper_range() {
        let f = Case4Constant::implied_f();
        assert!(
            (PAPER_F_RANGE.0..=PAPER_F_RANGE.1).contains(&f),
            "implied f = {f}"
        );
    }

    #[test]
    fn fit_inverts_model() {
        let f0 = 24.2;
        let ps = part_size(f0, 1024, 1024, 64) as f64;
        let f1 = fit_f(ps, 1024, 1024, 64);
        // part_size rounds to whole bytes, so the inversion is exact only
        // to that rounding.
        assert!((f0 - f1).abs() < 1e-5);
    }

    #[test]
    fn part_size_scales_inversely_with_ranks() {
        let a = part_size(24.0, 512, 512, 32);
        let b = part_size(24.0, 512, 512, 64);
        assert!((a as f64 / b as f64 - 2.0).abs() < 1e-6);
    }
}
