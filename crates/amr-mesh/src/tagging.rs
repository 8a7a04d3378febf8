//! Cell tagging for refinement.
//!
//! A `TagMap` is a level-wide bitmap of cells flagged for refinement,
//! the input to the Berger–Rigoutsos grid generator in [`crate::cluster`](crate::cluster()).
//! It plays the role of AMReX's `TagBoxArray` collapsed to a global view
//! (legitimate here because the simulated-MPI runtime shares one address
//! space; ownership only matters for I/O, not for tagging).

use crate::index_box::IndexBox;
use crate::intvect::{Coord, IntVect};

/// Level-wide refinement-tag bitmap.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TagMap {
    domain: IndexBox,
    tags: Vec<bool>,
}

impl TagMap {
    /// Creates an untagged map over `domain`.
    ///
    /// # Panics
    /// Panics if `domain` is invalid.
    pub fn new(domain: IndexBox) -> Self {
        assert!(domain.is_valid(), "TagMap: invalid domain");
        Self {
            domain,
            tags: vec![false; domain.num_pts() as usize],
        }
    }

    /// The tag map's domain.
    #[inline]
    pub fn domain(&self) -> IndexBox {
        self.domain
    }

    /// True if cell `p` is tagged. Cells outside the domain are untagged.
    #[inline]
    pub fn get(&self, p: IntVect) -> bool {
        self.domain.contains(p) && self.tags[self.domain.offset(p)]
    }

    /// Tags or untags cell `p`; out-of-domain cells are ignored.
    #[inline]
    pub fn set(&mut self, p: IntVect, v: bool) {
        if self.domain.contains(p) {
            let i = self.domain.offset(p);
            self.tags[i] = v;
        }
    }

    /// Tags every cell in `region` (clipped to the domain).
    pub fn tag_region(&mut self, region: &IndexBox) {
        if let Some(r) = self.domain.intersection(region) {
            for p in r.cells() {
                let i = self.domain.offset(p);
                self.tags[i] = true;
            }
        }
    }

    /// Number of tagged cells.
    pub fn count(&self) -> usize {
        self.tags.iter().filter(|&&t| t).count()
    }

    /// True when no cell is tagged.
    pub fn is_empty(&self) -> bool {
        !self.tags.iter().any(|&t| t)
    }

    /// Smallest box containing all tagged cells (invalid box when empty).
    pub(crate) fn bounding_box(&self) -> IndexBox {
        let mut lo = IntVect::new(Coord::MAX, Coord::MAX);
        let mut hi = IntVect::new(Coord::MIN, Coord::MIN);
        let mut any = false;
        for p in self.domain.cells() {
            if self.tags[self.domain.offset(p)] {
                lo = lo.min(p);
                hi = hi.max(p);
                any = true;
            }
        }
        if any {
            IndexBox::new(lo, hi)
        } else {
            IndexBox::empty()
        }
    }

    /// Number of tagged cells inside `region`.
    pub fn count_in(&self, region: &IndexBox) -> usize {
        match self.domain.intersection(region) {
            Some(r) => r
                .cells()
                .filter(|p| self.tags[self.domain.offset(*p)])
                .count(),
            None => 0,
        }
    }

    /// Grows every tag by `n` cells in all directions (clipped to the
    /// domain). This is AMReX's `n_error_buf` buffering: refined regions
    /// must extend past steep gradients so features do not escape between
    /// regrids.
    pub fn buffer(&mut self, n: Coord) {
        if n <= 0 {
            return;
        }
        let src = self.clone();
        for p in src.domain.cells() {
            if src.tags[src.domain.offset(p)] {
                self.tag_region(&IndexBox::new(p, p).grow(n));
            }
        }
    }

    /// Coarsens the map by `ratio`: a coarse cell is tagged when any of its
    /// fine cells is tagged. Grid generation runs at `blocking_factor`
    /// granularity in AMReX; this provides that view.
    pub fn coarsen(&self, ratio: IntVect) -> TagMap {
        let mut out = TagMap::new(self.domain.coarsen(ratio));
        for p in self.domain.cells() {
            if self.tags[self.domain.offset(p)] {
                let cp = p.coarsen(ratio);
                out.set(cp, true);
            }
        }
        out
    }

    /// Per-row/column tag counts ("signatures") over `region`, the core
    /// quantity of the Berger–Rigoutsos algorithm.
    pub(crate) fn signatures(&self, region: &IndexBox, dir: usize) -> Vec<usize> {
        let Some(r) = self.domain.intersection(region) else {
            return Vec::new();
        };
        let len = r.length(dir) as usize;
        let mut sig = vec![0usize; len];
        for p in r.cells() {
            if self.tags[self.domain.offset(p)] {
                sig[(p.get(dir) - r.lo().get(dir)) as usize] += 1;
            }
        }
        sig
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dom(n: Coord) -> IndexBox {
        IndexBox::at_origin(IntVect::splat(n))
    }

    #[test]
    fn starts_empty() {
        let t = TagMap::new(dom(8));
        assert!(t.is_empty());
        assert_eq!(t.count(), 0);
        assert!(!t.bounding_box().is_valid());
    }

    #[test]
    fn set_get_out_of_domain_is_safe() {
        let mut t = TagMap::new(dom(8));
        t.set(IntVect::new(100, 100), true); // ignored
        assert!(t.is_empty());
        assert!(!t.get(IntVect::new(100, 100)));
        t.set(IntVect::new(3, 3), true);
        assert!(t.get(IntVect::new(3, 3)));
        assert_eq!(t.count(), 1);
    }

    #[test]
    fn tag_region_clips() {
        let mut t = TagMap::new(dom(8));
        t.tag_region(&IndexBox::new(IntVect::new(6, 6), IntVect::new(12, 12)));
        assert_eq!(t.count(), 4); // [6..7]^2
        assert_eq!(
            t.bounding_box(),
            IndexBox::new(IntVect::new(6, 6), IntVect::new(7, 7))
        );
    }

    #[test]
    fn count_in_subregion() {
        let mut t = TagMap::new(dom(8));
        t.tag_region(&IndexBox::at_origin(IntVect::splat(4)));
        assert_eq!(t.count_in(&dom(8)), 16);
        assert_eq!(t.count_in(&IndexBox::at_origin(IntVect::splat(2))), 4);
        let outside = IndexBox::from_lo_size(IntVect::new(100, 0), IntVect::UNIT);
        assert_eq!(t.count_in(&outside), 0);
    }

    #[test]
    fn buffer_grows_tags() {
        let mut t = TagMap::new(dom(9));
        t.set(IntVect::new(4, 4), true);
        t.buffer(1);
        assert_eq!(t.count(), 9);
        assert_eq!(
            t.bounding_box(),
            IndexBox::new(IntVect::new(3, 3), IntVect::new(5, 5))
        );
        // Buffering at the edge clips to the domain.
        let mut e = TagMap::new(dom(4));
        e.set(IntVect::ZERO, true);
        e.buffer(2);
        assert_eq!(e.count(), 9); // [0..2]^2
    }

    #[test]
    fn buffer_zero_is_noop() {
        let mut t = TagMap::new(dom(4));
        t.set(IntVect::new(1, 1), true);
        let before = t.clone();
        t.buffer(0);
        assert_eq!(t, before);
    }

    #[test]
    fn coarsen_ors_fine_tags() {
        let mut t = TagMap::new(dom(8));
        t.set(IntVect::new(3, 3), true); // coarse cell (1,1) at ratio 2
        t.set(IntVect::new(6, 0), true); // coarse cell (3,0)
        let c = t.coarsen(IntVect::splat(2));
        assert_eq!(c.domain(), dom(4));
        assert!(c.get(IntVect::new(1, 1)));
        assert!(c.get(IntVect::new(3, 0)));
        assert_eq!(c.count(), 2);
    }

    #[test]
    fn signatures_count_per_slice() {
        let mut t = TagMap::new(dom(4));
        t.tag_region(&IndexBox::new(IntVect::new(1, 0), IntVect::new(2, 3)));
        let sx = t.signatures(&dom(4), 0);
        assert_eq!(sx, vec![0, 4, 4, 0]);
        let sy = t.signatures(&dom(4), 1);
        assert_eq!(sy, vec![2, 2, 2, 2]);
        let total: usize = sx.iter().sum();
        assert_eq!(total, t.count());
    }
}
