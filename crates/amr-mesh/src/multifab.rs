//! Level-wide distributed data: one fab per grid patch.
//!
//! `MultiFab` mirrors AMReX's `MultiFab`: the data of one AMR level spread
//! over the boxes of a [`BoxArray`], owned by ranks according to a
//! [`DistributionMapping`]. In this simulated-MPI substrate every fab is
//! resident in the single address space, but ownership is tracked so the
//! I/O path can reproduce exactly which rank writes which bytes.

use crate::box_array::BoxArray;
use crate::distribution::DistributionMapping;
use crate::fab::FArrayBox;
use crate::index_box::IndexBox;
use crate::intvect::Coord;

/// One entry of a copy plan: the cells of `region` from fab `src` into fab
/// `dst` (AMReX's `CopyComTag`). Which multifabs the indices name is the
/// plan's business.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FabCopy {
    /// Source fab index.
    pub src: usize,
    /// Destination fab index.
    pub dst: usize,
    /// The cells copied.
    pub region: IndexBox,
}

/// Distributed per-level data container.
#[derive(Clone, Debug)]
pub struct MultiFab {
    ba: BoxArray,
    dm: DistributionMapping,
    ncomp: usize,
    ngrow: Coord,
    fabs: Vec<FArrayBox>,
}

impl MultiFab {
    /// Allocates a zeroed multifab: one fab per box of `ba`, each grown by
    /// `ngrow` ghost cells on every side.
    ///
    /// # Panics
    /// Panics if `ba` and `dm` have different lengths, `ncomp == 0`, or
    /// `ngrow < 0`.
    pub fn new(ba: BoxArray, dm: DistributionMapping, ncomp: usize, ngrow: Coord) -> Self {
        assert_eq!(ba.len(), dm.len(), "MultiFab: BoxArray/DM length mismatch");
        assert!(ncomp > 0, "MultiFab: zero components");
        assert!(ngrow >= 0, "MultiFab: negative ghost width");
        let fabs = ba
            .iter()
            .map(|b| FArrayBox::new(b.grow(ngrow), ncomp))
            .collect();
        Self {
            ba,
            dm,
            ncomp,
            ngrow,
            fabs,
        }
    }

    /// The level's box array.
    #[inline]
    pub fn box_array(&self) -> &BoxArray {
        &self.ba
    }

    /// The rank ownership map.
    #[inline]
    pub fn distribution_map(&self) -> &DistributionMapping {
        &self.dm
    }

    /// Number of components.
    #[inline]
    pub fn ncomp(&self) -> usize {
        self.ncomp
    }

    /// Ghost-cell width.
    #[inline]
    pub fn ngrow(&self) -> Coord {
        self.ngrow
    }

    /// Number of fabs (== number of boxes).
    #[inline]
    pub fn nfabs(&self) -> usize {
        self.fabs.len()
    }

    /// The valid (non-ghost) region of fab `i`.
    #[inline]
    pub fn valid_box(&self, i: usize) -> IndexBox {
        self.ba.get(i)
    }

    /// Read access to fab `i` (valid + ghost region).
    #[inline]
    pub fn fab(&self, i: usize) -> &FArrayBox {
        &self.fabs[i]
    }

    /// Mutable access to fab `i`.
    #[inline]
    pub fn fab_mut(&mut self, i: usize) -> &mut FArrayBox {
        &mut self.fabs[i]
    }

    /// Mutable access to all fabs at once.
    pub fn fabs_mut(&mut self) -> &mut [FArrayBox] {
        &mut self.fabs
    }

    /// Pairs of `(valid_box, fab)` for iteration.
    pub fn iter(&self) -> impl Iterator<Item = (IndexBox, &FArrayBox)> {
        self.ba.iter().copied().zip(self.fabs.iter())
    }

    /// Sets every cell (including ghosts) of component `comp` to `v`.
    pub fn set_val(&mut self, comp: usize, v: f64) {
        for f in &mut self.fabs {
            f.comp_mut(comp).fill(v);
        }
    }

    /// Fills ghost cells of every fab from the valid regions of neighbouring
    /// fabs on the same level (AMReX `FillBoundary`, non-periodic): builds
    /// the copy list with [`BoxArray::copies_into`] and applies it with
    /// [`MultiFab::copy_within`]. A caller that fills the same level again
    /// keeps the list instead.
    ///
    /// Ghost cells with no same-level neighbour (physical boundary or
    /// coarse-fine boundary) are left untouched.
    pub fn fill_boundary(&mut self) {
        let copies: Vec<FabCopy> = (0..self.nfabs())
            .flat_map(|i| self.ba.copies_into(i, self.ba.get(i).grow(self.ngrow)))
            .collect();
        self.copy_within(&copies);
    }

    /// Applies a same-level copy list in order: every matching component of
    /// `region` from fab `src` into fab `dst`.
    ///
    /// # Panics
    /// Panics if a copy names one fab as both source and destination, or a
    /// region either fab does not hold.
    pub fn copy_within(&mut self, copies: &[FabCopy]) {
        for c in copies {
            assert_ne!(c.src, c.dst, "copy_within: fab {} onto itself", c.src);
            let (src, dst) = if c.src < c.dst {
                let (a, b) = self.fabs.split_at_mut(c.dst);
                (&a[c.src], &mut b[0])
            } else {
                let (a, b) = self.fabs.split_at_mut(c.src);
                (&b[0], &mut a[c.dst])
            };
            dst.copy_all_from(src, &c.region);
        }
    }

    /// Copies valid-region data from `src` (possibly with a different
    /// BoxArray) into the valid regions of `self` where they overlap
    /// (AMReX `ParallelCopy`).
    pub fn parallel_copy_from(&mut self, src: &MultiFab) {
        for (dst_valid, dst) in self.ba.iter().zip(&mut self.fabs) {
            for (src_valid, sfab) in src.iter() {
                if let Some(overlap) = dst_valid.intersection(&src_valid) {
                    dst.copy_all_from(sfab, &overlap);
                }
            }
        }
    }

    /// Minimum of component `comp` over all valid regions.
    pub fn min(&self, comp: usize) -> f64 {
        self.iter()
            .map(|(b, f)| f.min_in(&b, comp))
            .fold(f64::INFINITY, f64::min)
    }

    /// Maximum of component `comp` over all valid regions.
    pub fn max(&self, comp: usize) -> f64 {
        self.iter()
            .map(|(b, f)| f.max_in(&b, comp))
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Sum of component `comp` over all valid regions.
    pub fn sum(&self, comp: usize) -> f64 {
        self.iter().map(|(b, f)| f.sum_in(&b, comp)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::DistributionStrategy;
    use crate::intvect::IntVect;
    use proptest::prelude::*;

    /// Test oracle for [`MultiFab::fill_boundary`]: every pair of fabs
    /// scanned and copied on the spot.
    fn fill_boundary_reference(mf: &mut MultiFab) {
        for i in 0..mf.fabs.len() {
            let ghost_region = mf.ba.get(i).grow(mf.ngrow);
            for j in 0..mf.fabs.len() {
                if i == j {
                    continue;
                }
                if let Some(overlap) = ghost_region.intersection(&mf.ba.get(j)) {
                    let src = mf.fabs[j].clone();
                    mf.fabs[i].copy_all_from(&src, &overlap);
                }
            }
        }
    }

    /// Test oracle for [`MultiFab::parallel_copy_from`]: the overlap list
    /// built per destination fab.
    fn parallel_copy_reference(dst: &mut MultiFab, src: &MultiFab) {
        for di in 0..dst.fabs.len() {
            let dst_valid = dst.ba.get(di);
            for (si, overlap) in src.ba.intersections(&dst_valid) {
                dst.fabs[di].copy_all_from(src.fab(si), &overlap);
            }
        }
    }

    /// A level over `n` x `n` cells at `lo`, chopped to `max`, whose every
    /// stored value (ghosts included) is distinct.
    fn numbered(
        lo: IntVect,
        n: Coord,
        max: Coord,
        ncomp: usize,
        ngrow: Coord,
        offset: f64,
    ) -> MultiFab {
        let ba = BoxArray::single(IndexBox::from_lo_size(lo, IntVect::splat(n))).max_size(max);
        let dm = DistributionMapping::new(&ba, 1, DistributionStrategy::Sfc);
        let mut mf = MultiFab::new(ba, dm, ncomp, ngrow);
        let mut next = offset;
        for f in &mut mf.fabs {
            for c in f.comps_mut() {
                for v in c {
                    *v = next;
                    next += 1.0;
                }
            }
        }
        mf
    }

    proptest! {
        /// Allocation-free copies between levels of different layouts and
        /// component counts match the per-fab overlap-list reference.
        #[test]
        fn parallel_copy_matches_reference(
            shift in (-6i64..6, -6i64..6),
            n in (1i64..14, 1i64..14),
            max in (1i64..8, 1i64..8),
            ncomp in (1usize..4, 1usize..4),
            ngrow in (0i64..3, 0i64..3),
        ) {
            let mut dst = numbered(IntVect::ZERO, n.0, max.0, ncomp.0, ngrow.0, 0.0);
            let src = numbered(IntVect::new(shift.0, shift.1), n.1, max.1, ncomp.1, ngrow.1, 1e6);
            let mut oracle = dst.clone();
            dst.parallel_copy_from(&src);
            parallel_copy_reference(&mut oracle, &src);
            prop_assert!(dst.fabs == oracle.fabs);
        }

        /// The planned exchange writes what the pairwise scan writes, on
        /// levels cut into fabs of any size down to one cell.
        #[test]
        fn fill_boundary_matches_reference(
            lo in (-6i64..6, -6i64..6),
            n in 1i64..20,
            max in 1i64..9,
            ncomp in 1usize..4,
            ngrow in 0i64..4,
        ) {
            let mut mf = numbered(IntVect::new(lo.0, lo.1), n, max, ncomp, ngrow, 0.0);
            let mut oracle = mf.clone();
            mf.fill_boundary();
            fill_boundary_reference(&mut oracle);
            prop_assert!(mf.fabs == oracle.fabs);
        }
    }

    fn make(n: Coord, max: Coord, nranks: usize, ncomp: usize, ngrow: Coord) -> MultiFab {
        let ba = BoxArray::single(IndexBox::at_origin(IntVect::splat(n))).max_size(max);
        let dm = DistributionMapping::new(&ba, nranks, DistributionStrategy::Sfc);
        MultiFab::new(ba, dm, ncomp, ngrow)
    }

    #[test]
    fn construction_allocates_grown_fabs() {
        let mf = make(32, 16, 2, 3, 2);
        assert_eq!(mf.nfabs(), 4);
        assert_eq!(mf.ncomp(), 3);
        for i in 0..mf.nfabs() {
            assert_eq!(mf.fab(i).domain(), mf.valid_box(i).grow(2));
        }
    }

    #[test]
    fn set_val_and_reductions() {
        let mut mf = make(16, 8, 1, 1, 0);
        mf.set_val(0, 2.0);
        assert_eq!(mf.sum(0), 2.0 * 256.0);
        assert_eq!(mf.min(0), 2.0);
        assert_eq!(mf.max(0), 2.0);
    }

    #[test]
    fn fill_boundary_copies_neighbor_valid_data() {
        let mut mf = make(16, 8, 1, 1, 1);
        // Fill each fab's valid region with its own box index.
        for i in 0..mf.nfabs() {
            let vb = mf.valid_box(i);
            let f = mf.fab_mut(i);
            for p in vb.cells() {
                f.set(p, 0, (i + 1) as f64);
            }
        }
        mf.fill_boundary();
        // Fab 0 is [0..7]^2; its ghost column x=8 should now hold fab 1's
        // value (fab 1 is [8..15]x[0..7] in max_size order).
        let g = mf.fab(0).get(IntVect::new(8, 3), 0);
        assert_eq!(g, 2.0);
        // Ghosts at the physical boundary stay zero.
        assert_eq!(mf.fab(0).get(IntVect::new(-1, 3), 0), 0.0);
        // Corner ghost shared with fab 3 ([8..15]x[8..15]).
        assert_eq!(mf.fab(0).get(IntVect::new(8, 8), 0), 4.0);
    }

    #[test]
    fn fill_boundary_preserves_valid_data() {
        let mut mf = make(16, 8, 1, 1, 1);
        mf.set_val(0, 0.0);
        for i in 0..mf.nfabs() {
            let vb = mf.valid_box(i);
            let f = mf.fab_mut(i);
            for p in vb.cells() {
                f.set(p, 0, (i + 1) as f64);
            }
        }
        let before: Vec<f64> = (0..mf.nfabs())
            .map(|i| mf.fab(i).sum_in(&mf.valid_box(i), 0))
            .collect();
        mf.fill_boundary();
        let after: Vec<f64> = (0..mf.nfabs())
            .map(|i| mf.fab(i).sum_in(&mf.valid_box(i), 0))
            .collect();
        assert_eq!(before, after);
    }

    #[test]
    fn parallel_copy_between_different_layouts() {
        let mut dst = make(16, 8, 1, 1, 0);
        let mut src = make(16, 4, 1, 1, 0); // finer chopping, same domain
        src.set_val(0, 5.0);
        dst.parallel_copy_from(&src);
        assert_eq!(dst.min(0), 5.0);
        assert_eq!(dst.sum(0), 5.0 * 256.0);
    }

    #[test]
    fn parallel_copy_partial_overlap() {
        let ba_dst = BoxArray::single(IndexBox::at_origin(IntVect::splat(8)));
        let dm_dst = DistributionMapping::new(&ba_dst, 1, DistributionStrategy::RoundRobin);
        let mut dst = MultiFab::new(ba_dst, dm_dst, 1, 0);

        let ba_src = BoxArray::single(IndexBox::from_lo_size(
            IntVect::new(4, 4),
            IntVect::splat(8),
        ));
        let dm_src = DistributionMapping::new(&ba_src, 1, DistributionStrategy::RoundRobin);
        let mut src = MultiFab::new(ba_src, dm_src, 1, 0);
        src.set_val(0, 1.0);

        dst.parallel_copy_from(&src);
        // Only the [4..7]^2 corner overlaps.
        assert_eq!(dst.sum(0), 16.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_dm_panics() {
        let ba = BoxArray::single(IndexBox::at_origin(IntVect::splat(8)));
        let dm = DistributionMapping::from_owners(vec![0, 0], 1);
        MultiFab::new(ba, dm, 1, 0);
    }
}
