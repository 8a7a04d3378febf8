//! Per-patch floating-point data arrays.
//!
//! `FArrayBox` mirrors AMReX's Fortran-ordered array box: multi-component
//! double-precision data over an [`IndexBox`], with x varying fastest.

use crate::index_box::IndexBox;
use crate::intvect::IntVect;
use std::ops::Range;

/// Multi-component `f64` data over a box of cells.
///
/// Storage is component-major: all cells of component 0, then component 1,
/// and within a component y-major with x fastest (Fortran order), matching
/// the byte layout the AMReX plotfile `Cell_D` format expects.
#[derive(Clone, Debug, PartialEq)]
pub struct FArrayBox {
    domain: IndexBox,
    ncomp: usize,
    data: Vec<f64>,
}

impl FArrayBox {
    /// Allocates a zero-initialized fab over `domain` with `ncomp`
    /// components.
    ///
    /// # Panics
    /// Panics if `domain` is invalid or `ncomp == 0`.
    pub fn new(domain: IndexBox, ncomp: usize) -> Self {
        assert!(domain.is_valid(), "FArrayBox: invalid domain {domain}");
        assert!(ncomp > 0, "FArrayBox: zero components");
        let n = domain.num_pts() as usize * ncomp;
        Self {
            domain,
            ncomp,
            data: vec![0.0; n],
        }
    }

    /// The index region this fab covers (including any ghost cells the
    /// caller built into it).
    #[inline]
    pub fn domain(&self) -> IndexBox {
        self.domain
    }

    /// Number of components.
    #[inline]
    pub fn ncomp(&self) -> usize {
        self.ncomp
    }

    /// Cells per component.
    #[inline]
    pub(crate) fn cells_per_comp(&self) -> usize {
        self.domain.num_pts() as usize
    }

    /// Flat storage index of `(p, comp)`.
    #[inline]
    fn idx(&self, p: IntVect, comp: usize) -> usize {
        debug_assert!(comp < self.ncomp, "component {comp} out of range");
        comp * self.cells_per_comp() + self.domain.offset(p)
    }

    /// Value at cell `p`, component `comp`.
    #[inline]
    pub fn get(&self, p: IntVect, comp: usize) -> f64 {
        self.data[self.idx(p, comp)]
    }

    /// Sets the value at cell `p`, component `comp`.
    #[inline]
    pub fn set(&mut self, p: IntVect, comp: usize, v: f64) {
        let i = self.idx(p, comp);
        self.data[i] = v;
    }

    /// Adds to the value at cell `p`, component `comp`.
    #[inline]
    pub fn add(&mut self, p: IntVect, comp: usize, v: f64) {
        let i = self.idx(p, comp);
        self.data[i] += v;
    }

    /// Read-only slice of one component in layout order.
    pub fn comp(&self, comp: usize) -> &[f64] {
        let n = self.cells_per_comp();
        &self.data[comp * n..(comp + 1) * n]
    }

    /// Mutable slice of one component in layout order.
    pub(crate) fn comp_mut(&mut self, comp: usize) -> &mut [f64] {
        let n = self.cells_per_comp();
        &mut self.data[comp * n..(comp + 1) * n]
    }

    /// Mutable slices of every component at once, in component order.
    pub fn comps_mut(&mut self) -> std::slice::ChunksExactMut<'_, f64> {
        let n = self.cells_per_comp();
        self.data.chunks_exact_mut(n)
    }

    /// Full backing storage (component-major).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Flat index ranges, within one component's slice, of the rows of
    /// `region` (one per y, low to high), which must lie inside the fab.
    pub fn rows(&self, region: &IndexBox) -> impl Iterator<Item = Range<usize>> {
        debug_assert!(self.domain.contains_box(region));
        let size = region.size();
        let start = if region.is_valid() {
            self.domain.offset(region.lo())
        } else {
            0
        };
        let (width, nx) = (self.domain.length(0) as usize, size.x as usize);
        (0..size.y as usize).map(move |r| {
            let s = start + r * width;
            s..s + nx
        })
    }

    /// Copies all matching components from `src` over `region`.
    pub(crate) fn copy_all_from(&mut self, src: &FArrayBox, region: &IndexBox) {
        for c in 0..self.ncomp.min(src.ncomp) {
            self.copy_comp(src, region, c, c);
        }
    }

    /// Copies component `sc` of `src` into component `dc` over `region`,
    /// one row slice at a time.
    fn copy_comp(&mut self, src: &FArrayBox, region: &IndexBox, sc: usize, dc: usize) {
        debug_assert!(self.domain.contains_box(region));
        debug_assert!(src.domain.contains_box(region));
        let from = src.comp(sc);
        let rows = self.rows(region).zip(src.rows(region));
        let to = self.comp_mut(dc);
        for (d, s) in rows {
            to[d].copy_from_slice(&from[s]);
        }
    }

    /// Minimum over component `comp` restricted to `region`.
    pub fn min_in(&self, region: &IndexBox, comp: usize) -> f64 {
        region
            .intersection(&self.domain)
            .map(|r| {
                r.cells()
                    .map(|p| self.get(p, comp))
                    .fold(f64::INFINITY, f64::min)
            })
            .unwrap_or(f64::INFINITY)
    }

    /// Maximum over component `comp` restricted to `region`.
    pub fn max_in(&self, region: &IndexBox, comp: usize) -> f64 {
        region
            .intersection(&self.domain)
            .map(|r| {
                r.cells()
                    .map(|p| self.get(p, comp))
                    .fold(f64::NEG_INFINITY, f64::max)
            })
            .unwrap_or(f64::NEG_INFINITY)
    }

    /// Sum over component `comp` restricted to `region`.
    pub(crate) fn sum_in(&self, region: &IndexBox, comp: usize) -> f64 {
        region
            .intersection(&self.domain)
            .map(|r| r.cells().map(|p| self.get(p, comp)).sum())
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Test oracle for [`FArrayBox::copy_all_from`]: one `get` / `set` per cell.
    fn copy_from_reference(dst: &mut FArrayBox, src: &FArrayBox, region: &IndexBox) {
        for c in 0..dst.ncomp.min(src.ncomp) {
            for p in region.cells() {
                let v = src.get(p, c);
                dst.set(p, c, v);
            }
        }
    }

    /// A fab over `domain` whose every value is distinct.
    fn numbered(domain: IndexBox, ncomp: usize, offset: f64) -> FArrayBox {
        let mut f = FArrayBox::new(domain, ncomp);
        for (i, v) in f.data.iter_mut().enumerate() {
            *v = offset + i as f64;
        }
        f
    }

    proptest! {
        /// Row-slice copies write exactly the reference's cells and values,
        /// for any sub-region of two overlapping fabs and any component map.
        #[test]
        fn copy_from_matches_reference(
            a in (-5i64..5, -5i64..5, 1i64..12, 1i64..12),
            b in (-5i64..5, -5i64..5, 1i64..12, 1i64..12),
            cut in (0i64..12, 0i64..12, 0i64..12, 0i64..12),
        ) {
            let da = IndexBox::from_lo_size(IntVect::new(a.0, a.1), IntVect::new(a.2, a.3));
            let db = IndexBox::from_lo_size(IntVect::new(b.0, b.1), IntVect::new(b.2, b.3));
            prop_assume!(da.intersects(&db));
            let overlap = da.intersection(&db).unwrap();
            let (lo, size) = (overlap.lo(), overlap.size());
            let region = IndexBox::from_lo_size(
                lo + IntVect::new(cut.0 % size.x, cut.1 % size.y),
                IntVect::new(1 + cut.2 % size.x, 1 + cut.3 % size.y),
            )
            .intersection(&overlap)
            .unwrap();
            let src = numbered(db, 3, 1e6);
            let mut dst = numbered(da, 3, 0.0);
            let mut oracle = dst.clone();
            dst.copy_all_from(&src, &region);
            copy_from_reference(&mut oracle, &src, &region);
            prop_assert!(dst == oracle);
            dst.copy_all_from(&src, &overlap);
            copy_from_reference(&mut oracle, &src, &overlap);
            prop_assert!(dst == oracle);
        }
    }

    fn dom() -> IndexBox {
        IndexBox::at_origin(IntVect::new(4, 3))
    }

    #[test]
    fn zero_initialized() {
        let f = FArrayBox::new(dom(), 2);
        assert_eq!(f.ncomp(), 2);
        assert_eq!(f.cells_per_comp(), 12);
        assert!(f.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn get_set_round_trip() {
        let mut f = FArrayBox::new(dom(), 2);
        f.set(IntVect::new(2, 1), 1, 7.0);
        assert_eq!(f.get(IntVect::new(2, 1), 1), 7.0);
        assert_eq!(f.get(IntVect::new(2, 1), 0), 0.0);
        f.add(IntVect::new(2, 1), 1, 1.0);
        assert_eq!(f.get(IntVect::new(2, 1), 1), 8.0);
    }

    #[test]
    fn component_layout_is_x_fastest() {
        let mut f = FArrayBox::new(dom(), 1);
        f.set(IntVect::new(1, 0), 0, 1.0);
        f.set(IntVect::new(0, 1), 0, 2.0);
        let c = f.comp(0);
        assert_eq!(c[1], 1.0); // x=1,y=0 is the second entry
        assert_eq!(c[4], 2.0); // x=0,y=1 starts the second row (width 4)
    }

    #[test]
    fn copy_from_subregion() {
        let mut a = FArrayBox::new(dom(), 1);
        let mut b = FArrayBox::new(dom(), 1);
        b.comp_mut(0).fill(2.0);
        let region = IndexBox::at_origin(IntVect::new(2, 2));
        a.copy_all_from(&b, &region);
        assert_eq!(a.get(IntVect::new(0, 0), 0), 2.0);
        assert_eq!(a.get(IntVect::new(1, 1), 0), 2.0);
        assert_eq!(a.get(IntVect::new(2, 2), 0), 0.0);
    }

    #[test]
    fn reductions_respect_region() {
        let mut f = FArrayBox::new(dom(), 1);
        f.set(IntVect::new(0, 0), 0, -5.0);
        f.set(IntVect::new(3, 2), 0, 9.0);
        assert_eq!(f.min_in(&dom(), 0), -5.0);
        assert_eq!(f.max_in(&dom(), 0), 9.0);
        assert_eq!(f.sum_in(&dom(), 0), 4.0);
        let corner = IndexBox::at_origin(IntVect::new(1, 1));
        assert_eq!(f.max_in(&corner, 0), -5.0);
        // Region outside the fab gives identity elements.
        let outside = IndexBox::from_lo_size(IntVect::new(100, 100), IntVect::UNIT);
        assert_eq!(f.sum_in(&outside, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid domain")]
    fn invalid_domain_panics() {
        FArrayBox::new(IndexBox::empty(), 1);
    }
}
