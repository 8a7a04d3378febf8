//! Rectangular regions of cell index space.
//!
//! `IndexBox` mirrors AMReX's cell-centered `Box`: an inclusive `[lo, hi]`
//! rectangle of cell indices. All grid generation, intersection, and
//! refinement logic in the workspace is built on this type.

use crate::intvect::{Coord, IntVect, SPACEDIM};
use serde::{Deserialize, Serialize};

/// An inclusive rectangle `[lo, hi]` of 2-D cell indices.
///
/// A box is *valid* when `lo <= hi` component-wise; invalid boxes represent
/// the empty region and are produced by, e.g., empty intersections.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct IndexBox {
    lo: IntVect,
    hi: IntVect,
}

impl IndexBox {
    /// Creates the box `[lo, hi]` (inclusive on both ends).
    #[inline]
    pub const fn new(lo: IntVect, hi: IntVect) -> Self {
        Self { lo, hi }
    }

    /// Creates a box from a low corner and a size (cell counts per side).
    ///
    /// # Panics
    /// Panics if any size component is `<= 0`.
    #[inline]
    pub fn from_lo_size(lo: IntVect, size: IntVect) -> Self {
        assert!(
            size.x > 0 && size.y > 0,
            "IndexBox::from_lo_size: non-positive size {size}"
        );
        Self::new(lo, lo + size - IntVect::UNIT)
    }

    /// The box `[0, n-1]^2` for an `n.x` by `n.y` cell domain at the origin.
    #[inline]
    pub fn at_origin(n: IntVect) -> Self {
        Self::from_lo_size(IntVect::ZERO, n)
    }

    /// A canonical invalid (empty) box.
    #[inline]
    pub(crate) fn empty() -> Self {
        Self::new(IntVect::UNIT, IntVect::ZERO)
    }

    /// Low corner.
    #[inline]
    pub fn lo(&self) -> IntVect {
        self.lo
    }

    /// High corner (inclusive).
    #[inline]
    pub fn hi(&self) -> IntVect {
        self.hi
    }

    /// True when the box contains at least one cell.
    #[inline]
    pub(crate) fn is_valid(&self) -> bool {
        self.lo.all_le(self.hi)
    }

    /// Cell counts per side; zero vector for invalid boxes.
    #[inline]
    pub fn size(&self) -> IntVect {
        if self.is_valid() {
            self.hi - self.lo + IntVect::UNIT
        } else {
            IntVect::ZERO
        }
    }

    /// Extent along direction `dir`.
    #[inline]
    pub fn length(&self, dir: usize) -> Coord {
        self.size().get(dir)
    }

    /// Longest side length.
    #[inline]
    pub fn longest_side(&self) -> Coord {
        self.size().max_component()
    }

    /// Direction of the longest side (ties favour x).
    #[inline]
    pub(crate) fn longest_dir(&self) -> usize {
        self.size().max_dir()
    }

    /// Number of cells in the box (0 if invalid).
    #[inline]
    pub fn num_pts(&self) -> Coord {
        self.size().prod()
    }

    /// True if cell `p` lies inside the box.
    #[inline]
    pub fn contains(&self, p: IntVect) -> bool {
        self.lo.all_le(p) && p.all_le(self.hi)
    }

    /// True if `other` lies entirely inside `self` (empty boxes are contained
    /// in everything).
    #[inline]
    pub fn contains_box(&self, other: &IndexBox) -> bool {
        !other.is_valid() || (self.contains(other.lo) && self.contains(other.hi))
    }

    /// True if the two boxes share at least one cell.
    #[inline]
    pub fn intersects(&self, other: &IndexBox) -> bool {
        self.intersection(other).is_some()
    }

    /// The overlapping region, or `None` when disjoint or either box is empty.
    #[inline]
    pub fn intersection(&self, other: &IndexBox) -> Option<IndexBox> {
        let b = IndexBox::new(self.lo.max(other.lo), self.hi.min(other.hi));
        b.is_valid().then_some(b)
    }

    /// Smallest box containing both inputs (invalid inputs are ignored).
    #[inline]
    pub fn bounding(&self, other: &IndexBox) -> IndexBox {
        match (self.is_valid(), other.is_valid()) {
            (true, true) => IndexBox::new(self.lo.min(other.lo), self.hi.max(other.hi)),
            (true, false) => *self,
            (false, true) => *other,
            (false, false) => IndexBox::empty(),
        }
    }

    /// Grows the box by `n` cells on every face (negative shrinks).
    #[inline]
    pub fn grow(&self, n: Coord) -> IndexBox {
        IndexBox::new(self.lo - IntVect::splat(n), self.hi + IntVect::splat(n))
    }

    /// Grows by a per-direction amount on both faces of each direction.
    #[inline]
    pub fn grow_vect(&self, n: IntVect) -> IndexBox {
        IndexBox::new(self.lo - n, self.hi + n)
    }

    /// Refines the box by `ratio`: each coarse cell becomes a `ratio.x` by
    /// `ratio.y` block of fine cells (AMReX `Box::refine` semantics).
    #[inline]
    pub fn refine(&self, ratio: IntVect) -> IndexBox {
        IndexBox::new(
            self.lo.refine(ratio),
            (self.hi + IntVect::UNIT).refine(ratio) - IntVect::UNIT,
        )
    }

    /// Coarsens the box by `ratio` with floor semantics (AMReX
    /// `Box::coarsen`): the result covers every coarse cell that overlaps
    /// any fine cell of `self`.
    #[inline]
    pub fn coarsen(&self, ratio: IntVect) -> IndexBox {
        IndexBox::new(self.lo.coarsen(ratio), self.hi.coarsen(ratio))
    }

    /// True when the box, refined then coarsened by `ratio`, is unchanged;
    /// i.e. its corners are aligned to the `ratio` lattice.
    #[inline]
    pub fn is_aligned(&self, ratio: IntVect) -> bool {
        self.coarsen(ratio).refine(ratio) == *self
    }

    /// Splits at index `at` along `dir`: returns `(low part, high part)`
    /// where the low part is `[lo, at-1]` and the high part `[at, hi]`.
    ///
    /// # Panics
    /// Panics unless `lo.get(dir) < at <= hi.get(dir)` (both halves must be
    /// non-empty).
    pub fn chop(&self, dir: usize, at: Coord) -> (IndexBox, IndexBox) {
        assert!(dir < SPACEDIM, "chop: invalid direction {dir}");
        assert!(
            self.lo.get(dir) < at && at <= self.hi.get(dir),
            "chop: position {at} outside the interior of {self:?} along dir {dir}"
        );
        let mut lo_hi = self.hi;
        lo_hi.set(dir, at - 1);
        let mut hi_lo = self.lo;
        hi_lo.set(dir, at);
        (IndexBox::new(self.lo, lo_hi), IndexBox::new(hi_lo, self.hi))
    }

    /// Iterates over all cells of the box in y-major (row) order, i.e. the x
    /// index varies fastest — matching the Fortran storage order AMReX uses.
    pub fn cells(&self) -> impl Iterator<Item = IntVect> + '_ {
        let (lo, hi) = (self.lo, self.hi);
        let valid = self.is_valid();
        (lo.y..=hi.y)
            .flat_map(move |y| (lo.x..=hi.x).map(move |x| IntVect::new(x, y)))
            .filter(move |_| valid)
    }

    /// Linear offset of cell `p` within the box in y-major order.
    ///
    /// # Panics
    /// Panics (debug only) if `p` is outside the box.
    #[inline]
    pub fn offset(&self, p: IntVect) -> usize {
        debug_assert!(self.contains(p), "offset: {p} outside {self:?}");
        let s = self.size();
        ((p.y - self.lo.y) * s.x + (p.x - self.lo.x)) as usize
    }
}

impl std::fmt::Display for IndexBox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{} .. {}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(lx: Coord, ly: Coord, hx: Coord, hy: Coord) -> IndexBox {
        IndexBox::new(IntVect::new(lx, ly), IntVect::new(hx, hy))
    }

    #[test]
    fn sizes_and_validity() {
        let v = b(0, 0, 3, 1);
        assert!(v.is_valid());
        assert_eq!(v.size(), IntVect::new(4, 2));
        assert_eq!(v.num_pts(), 8);
        assert_eq!(v.longest_side(), 4);
        assert_eq!(v.longest_dir(), 0);
        assert!(!IndexBox::empty().is_valid());
        assert_eq!(IndexBox::empty().num_pts(), 0);
    }

    #[test]
    fn from_lo_size_round_trip() {
        let v = IndexBox::from_lo_size(IntVect::new(-2, 5), IntVect::new(3, 7));
        assert_eq!(v.lo(), IntVect::new(-2, 5));
        assert_eq!(v.size(), IntVect::new(3, 7));
        assert_eq!(IndexBox::at_origin(IntVect::splat(8)), b(0, 0, 7, 7));
    }

    #[test]
    fn containment() {
        let v = b(0, 0, 7, 7);
        assert!(v.contains(IntVect::new(0, 0)));
        assert!(v.contains(IntVect::new(7, 7)));
        assert!(!v.contains(IntVect::new(8, 0)));
        assert!(v.contains_box(&b(2, 2, 5, 5)));
        assert!(!v.contains_box(&b(2, 2, 8, 5)));
        assert!(v.contains_box(&IndexBox::empty()));
    }

    #[test]
    fn intersection_cases() {
        let v = b(0, 0, 7, 7);
        assert_eq!(v.intersection(&b(4, 4, 10, 10)), Some(b(4, 4, 7, 7)));
        assert_eq!(v.intersection(&b(8, 0, 9, 7)), None);
        assert_eq!(v.intersection(&v), Some(v));
        assert!(!v.intersects(&b(-3, -3, -1, -1)));
        // Touching at a single cell counts as intersecting.
        assert!(v.intersects(&b(7, 7, 9, 9)));
    }

    #[test]
    fn bounding_ignores_empty() {
        let v = b(0, 0, 1, 1);
        let w = b(4, 4, 5, 5);
        assert_eq!(v.bounding(&w), b(0, 0, 5, 5));
        assert_eq!(v.bounding(&IndexBox::empty()), v);
        assert_eq!(IndexBox::empty().bounding(&w), w);
    }

    #[test]
    fn grow() {
        let v = b(0, 0, 3, 3);
        assert_eq!(v.grow(2), b(-2, -2, 5, 5));
        assert_eq!(v.grow(2).grow(-2), v);
        assert_eq!(v.grow_vect(IntVect::new(1, 0)), b(-1, 0, 4, 3));
    }

    #[test]
    fn refine_coarsen_semantics() {
        let r = IntVect::splat(2);
        let v = b(1, 1, 2, 3);
        // Refine: covers all fine cells of each coarse cell.
        assert_eq!(v.refine(r), b(2, 2, 5, 7));
        assert_eq!(v.refine(r).num_pts(), v.num_pts() * 4);
        // Coarsen is the left inverse of refine.
        assert_eq!(v.refine(r).coarsen(r), v);
        // Coarsening an unaligned box rounds outward (floor on both corners).
        assert_eq!(b(1, 1, 4, 4).coarsen(r), b(0, 0, 2, 2));
        assert!(b(2, 2, 5, 7).is_aligned(r));
        assert!(!b(1, 2, 5, 7).is_aligned(r));
    }

    #[test]
    fn chop_partitions() {
        let v = b(0, 0, 7, 3);
        let (lo, hi) = v.chop(0, 4);
        assert_eq!(lo, b(0, 0, 3, 3));
        assert_eq!(hi, b(4, 0, 7, 3));
        assert_eq!(lo.num_pts() + hi.num_pts(), v.num_pts());
        assert!(lo.intersection(&hi).is_none());
    }

    #[test]
    #[should_panic(expected = "outside the interior")]
    fn chop_at_lo_panics() {
        b(0, 0, 7, 3).chop(0, 0);
    }

    #[test]
    fn cell_iteration_order_matches_offset() {
        let v = b(1, 2, 3, 4);
        let cells: Vec<_> = v.cells().collect();
        assert_eq!(cells.len(), v.num_pts() as usize);
        assert_eq!(cells[0], IntVect::new(1, 2));
        assert_eq!(cells[1], IntVect::new(2, 2)); // x fastest
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(v.offset(*c), i);
        }
        assert_eq!(IndexBox::empty().cells().count(), 0);
    }
}
