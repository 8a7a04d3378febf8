//! Synthetic mesh-part construction.
//!
//! MACSio marshals rectangular "mesh parts" with a configurable nominal
//! size; the part dimensions must form a valid 2-D rectilinear topology,
//! which rounds the actual size up from the request — the paper calls this
//! out as one source of its correction factor.
//!
//! The synthetic field is separable, `sin(i * fx + phase) * cos(j * fy) + 2`:
//! a variable is generated from an `nx`-entry sine table and one cosine per
//! row — `nx + ny` libm calls with the per-cell loop's exact arguments and
//! its multiply-add per cell, so the same bits as `2 * nx * ny` calls (no
//! recurrence, no approximation; the per-cell loop is the tests' oracle).

use serde::{Deserialize, Serialize};

/// A rectangular mesh part: `nx * ny` cells with `vars` variables.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MeshPart {
    /// Global part id.
    pub id: usize,
    /// Cells along x.
    pub nx: usize,
    /// Cells along y.
    pub ny: usize,
    /// Number of variables.
    pub vars: usize,
}

impl MeshPart {
    /// Builds a near-square part whose single-variable payload is at least
    /// `nominal_bytes` (8 bytes per cell), the topology-validity rounding
    /// MACSio performs.
    pub fn from_nominal_size(id: usize, nominal_bytes: u64, vars: usize) -> Self {
        assert!(vars > 0, "MeshPart: zero variables");
        let cells = (nominal_bytes as f64 / 8.0).ceil().max(1.0) as usize;
        let nx = (cells as f64).sqrt().ceil() as usize;
        let ny = cells.div_ceil(nx);
        Self { id, nx, ny, vars }
    }

    /// Cells in the part.
    pub(crate) fn cells(&self) -> usize {
        self.nx * self.ny
    }

    /// Payload bytes of one variable (8 bytes per cell).
    pub(crate) fn var_bytes(&self) -> u64 {
        self.cells() as u64 * 8
    }

    /// Payload bytes of all variables.
    pub(crate) fn payload_bytes(&self) -> u64 {
        self.var_bytes() * self.vars as u64
    }

    /// Feeds one variable's synthetic field to `put` one row at a time
    /// (row-major, `ny` rows of `nx` values) without materializing it:
    /// a deterministic smooth function of cell index, part id, and dump
    /// index (content is irrelevant to the workload; determinism matters).
    pub(crate) fn for_each_row(&self, var: usize, dump: u32, mut put: impl FnMut(&[f64])) {
        let fx = 2.0 * std::f64::consts::PI / self.nx.max(1) as f64;
        let fy = 2.0 * std::f64::consts::PI / self.ny.max(1) as f64;
        let phase = (self.id as f64) * 0.7 + (var as f64) * 1.3 + (dump as f64) * 0.1;
        let sin_x: Vec<f64> = (0..self.nx)
            .map(|i| (i as f64 * fx + phase).sin())
            .collect();
        let mut row = vec![0.0; self.nx];
        for j in 0..self.ny {
            let cos_y = (j as f64 * fy).cos();
            for (v, &s) in row.iter_mut().zip(&sin_x) {
                *v = s * cos_y + 2.0;
            }
            put(&row);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The field [`MeshPart::for_each_row`] streams, materialized.
    fn var_data(part: &MeshPart, var: usize, dump: u32) -> Vec<f64> {
        let mut out = Vec::with_capacity(part.cells());
        part.for_each_row(var, dump, |row| out.extend_from_slice(row));
        out
    }

    /// The per-cell loop the field was before the separable kernel,
    /// verbatim: the bit-equality oracle.
    pub(crate) fn var_data_oracle(part: &MeshPart, var: usize, dump: u32) -> Vec<f64> {
        let mut out = Vec::with_capacity(part.cells());
        let fx = 2.0 * std::f64::consts::PI / part.nx.max(1) as f64;
        let fy = 2.0 * std::f64::consts::PI / part.ny.max(1) as f64;
        let phase = (part.id as f64) * 0.7 + (var as f64) * 1.3 + (dump as f64) * 0.1;
        for j in 0..part.ny {
            for i in 0..part.nx {
                out.push((i as f64 * fx + phase).sin() * (j as f64 * fy).cos() + 2.0);
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn separable_kernel_matches_the_per_cell_loop_bit_for_bit(
            id in 0usize..5000,
            nx in 1usize..260,
            ny in 1usize..200,
            vars in 1usize..5,
            dump in 0u32..301,
        ) {
            let part = MeshPart { id, nx, ny, vars };
            for var in 0..vars {
                let fast = var_data(&part, var, dump);
                let slow = var_data_oracle(&part, var, dump);
                prop_assert_eq!(fast.len(), slow.len());
                for (k, (a, b)) in fast.iter().zip(&slow).enumerate() {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "cell {} of var {}", k, var);
                }
            }
        }
    }

    #[test]
    fn separable_kernel_matches_on_degenerate_and_paper_sized_shapes() {
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        let shapes = [(1, 1), (1, 37), (37, 1), (2, 3)].map(|(nx, ny)| MeshPart {
            id: 11,
            nx,
            ny,
            vars: 1,
        });
        // The Listing-1 part: 1.55 MB, 441 x 440 cells.
        let paper = MeshPart::from_nominal_size(31, 1_550_000, 1);
        for part in shapes.iter().chain([&paper]) {
            assert_eq!(
                bits(var_data(part, 0, 9)),
                bits(var_data_oracle(part, 0, 9)),
                "{part:?}"
            );
        }
    }

    #[test]
    fn nominal_size_is_met_or_exceeded() {
        for req in [1u64, 7, 8, 100, 1_000, 1_550_000, 12_345_677] {
            let p = MeshPart::from_nominal_size(0, req, 1);
            assert!(p.var_bytes() >= req, "request {req} got {}", p.var_bytes());
            // Rounding is bounded: never more than one extra row/col.
            let slack = p.var_bytes() as f64 / req.max(8) as f64;
            assert!(slack < 1.6, "request {req} slack {slack}");
        }
    }

    #[test]
    fn parts_are_near_square() {
        let p = MeshPart::from_nominal_size(0, 8 * 10_000, 1);
        let aspect = p.nx as f64 / p.ny as f64;
        assert!((0.5..=2.0).contains(&aspect));
        assert_eq!(p.cells(), p.nx * p.ny);
    }

    #[test]
    fn payload_scales_with_vars() {
        let p1 = MeshPart::from_nominal_size(0, 8_000, 1);
        let p3 = MeshPart::from_nominal_size(0, 8_000, 3);
        assert_eq!(p3.payload_bytes(), 3 * p1.payload_bytes());
    }

    #[test]
    fn var_data_is_deterministic_and_sized() {
        let p = MeshPart::from_nominal_size(7, 8_000, 2);
        let a = var_data(&p, 0, 3);
        let b = var_data(&p, 0, 3);
        assert_eq!(a, b);
        assert_eq!(a.len(), p.cells());
        // Different var / dump give different fields.
        assert_ne!(var_data(&p, 1, 3), a);
        assert_ne!(var_data(&p, 0, 4), a);
        // All finite.
        assert!(a.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn tiny_request_yields_single_cell() {
        let p = MeshPart::from_nominal_size(0, 1, 1);
        assert_eq!(p.cells(), 1);
        assert_eq!(p.var_bytes(), 8);
    }
}
