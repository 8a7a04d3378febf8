//! Collective operations over per-rank values.
//!
//! In the simulated runtime a "collective" is a pure function over the
//! rank-ordered result vector of a rank loop. The one left is the
//! reduction a rank loop's finish times need.

/// Maximum reduction (MPI_Allreduce with MPI_MAX) for floats.
///
/// Returns `f64::NEG_INFINITY` for an empty world.
pub fn allreduce_max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_reduction() {
        assert_eq!(allreduce_max(&[3.0, -1.0, 2.0]), 3.0);
        assert_eq!(allreduce_max(&[]), f64::NEG_INFINITY);
    }
}
