//! Collections of boxes describing the grids of one AMR level.
//!
//! `BoxArray` mirrors AMReX's `BoxArray`: the list of (disjoint) grid patches
//! at a level, together with the `max_grid_size` chopping and
//! `blocking_factor` alignment logic that `amr.max_grid_size` /
//! `amr.blocking_factor` control in a Castro input file.

use crate::index_box::IndexBox;
use crate::intvect::{Coord, IntVect};
use crate::multifab::FabCopy;
use serde::{Deserialize, Serialize};

/// An ordered list of boxes covering (part of) an AMR level.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BoxArray {
    boxes: Vec<IndexBox>,
}

impl BoxArray {
    /// Creates a box array from a list of boxes. Invalid boxes are dropped.
    pub fn new(boxes: Vec<IndexBox>) -> Self {
        Self {
            boxes: boxes.into_iter().filter(IndexBox::is_valid).collect(),
        }
    }

    /// A box array containing the single box `b`.
    pub fn single(b: IndexBox) -> Self {
        Self::new(vec![b])
    }

    /// An empty box array.
    pub fn empty() -> Self {
        Self { boxes: Vec::new() }
    }

    /// Number of boxes.
    #[inline]
    pub fn len(&self) -> usize {
        self.boxes.len()
    }

    /// True when there are no boxes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.boxes.is_empty()
    }

    /// The `i`-th box.
    #[inline]
    pub fn get(&self, i: usize) -> IndexBox {
        self.boxes[i]
    }

    /// Iterates over the boxes.
    pub fn iter(&self) -> impl Iterator<Item = &IndexBox> {
        self.boxes.iter()
    }

    /// Slice view of the boxes.
    pub fn as_slice(&self) -> &[IndexBox] {
        &self.boxes
    }

    /// Total number of cells across all boxes.
    pub fn num_pts(&self) -> Coord {
        self.boxes.iter().map(IndexBox::num_pts).sum()
    }

    /// Smallest box containing every box in the array (empty box if none).
    pub fn minimal_box(&self) -> IndexBox {
        self.boxes
            .iter()
            .fold(IndexBox::empty(), |acc, b| acc.bounding(b))
    }

    /// True if no two boxes share a cell.
    pub fn is_disjoint(&self) -> bool {
        for (i, a) in self.boxes.iter().enumerate() {
            for b in &self.boxes[i + 1..] {
                if a.intersects(b) {
                    return false;
                }
            }
        }
        true
    }

    /// True if cell `p` lies in any box.
    pub fn contains_cell(&self, p: crate::intvect::IntVect) -> bool {
        self.boxes.iter().any(|b| b.contains(p))
    }

    /// Coarsens every box by `ratio`.
    pub fn coarsen(&self, ratio: IntVect) -> BoxArray {
        Self {
            boxes: self.boxes.iter().map(|b| b.coarsen(ratio)).collect(),
        }
    }

    /// Splits every box so that no side exceeds `max_grid_size` cells,
    /// mirroring AMReX's `BoxArray::maxSize`. Splitting is even: a side of
    /// length `L` is divided into `ceil(L / max)` near-equal pieces.
    ///
    /// # Panics
    /// Panics if `max_grid_size <= 0`.
    pub fn max_size(&self, max_grid_size: Coord) -> BoxArray {
        assert!(max_grid_size > 0, "max_size: non-positive {max_grid_size}");
        let mut out = Vec::with_capacity(self.boxes.len());
        for b in &self.boxes {
            split_box_max_size(*b, max_grid_size, &mut out);
        }
        Self { boxes: out }
    }

    /// Indices and overlap regions of all boxes intersecting `region`.
    pub fn intersections(&self, region: &IndexBox) -> Vec<(usize, IndexBox)> {
        self.boxes
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.intersection(region).map(|isect| (i, isect)))
            .collect()
    }

    /// The copies that fill `region`, the ghost cells of box `dst`, from the
    /// valid cells of every other box: AMReX's `FillBoundary` metadata for
    /// one destination region, in box order.
    pub fn copies_into(&self, dst: usize, region: IndexBox) -> impl Iterator<Item = FabCopy> + '_ {
        self.boxes
            .iter()
            .enumerate()
            .filter(move |&(src, _)| src != dst)
            .filter_map(move |(src, b)| {
                b.intersection(&region)
                    .map(|region| FabCopy { src, dst, region })
            })
    }

    /// The portion of `region` not covered by any box, as a list of disjoint
    /// boxes (AMReX `complementIn`). Used to detect coverage gaps.
    pub fn complement_in(&self, region: &IndexBox) -> Vec<IndexBox> {
        let mut remaining = vec![*region];
        for b in &self.boxes {
            let mut next = Vec::with_capacity(remaining.len());
            for r in remaining {
                subtract_box(&r, b, &mut next);
            }
            remaining = next;
            if remaining.is_empty() {
                break;
            }
        }
        remaining
    }

    /// True when the boxes exactly tile `region` (disjoint and covering).
    pub fn tiles(&self, region: &IndexBox) -> bool {
        self.is_disjoint()
            && self.complement_in(region).is_empty()
            && self.num_pts() == region.num_pts()
    }
}

impl From<Vec<IndexBox>> for BoxArray {
    fn from(v: Vec<IndexBox>) -> Self {
        Self::new(v)
    }
}

impl std::ops::Index<usize> for BoxArray {
    type Output = IndexBox;
    fn index(&self, i: usize) -> &IndexBox {
        &self.boxes[i]
    }
}

/// Splits `b` into pieces with every side `<= max`, pushing results to `out`.
fn split_box_max_size(b: IndexBox, max: Coord, out: &mut Vec<IndexBox>) {
    let size = b.size();
    let nx = (size.x + max - 1) / max;
    let ny = (size.y + max - 1) / max;
    if nx <= 1 && ny <= 1 {
        out.push(b);
        return;
    }
    // Even split: piece k along a side of length L in n pieces gets
    // [k*L/n, (k+1)*L/n) which differs by at most one cell between pieces.
    for jy in 0..ny {
        let y0 = b.lo().y + jy * size.y / ny;
        let y1 = b.lo().y + (jy + 1) * size.y / ny - 1;
        for jx in 0..nx {
            let x0 = b.lo().x + jx * size.x / nx;
            let x1 = b.lo().x + (jx + 1) * size.x / nx - 1;
            out.push(IndexBox::new(IntVect::new(x0, y0), IntVect::new(x1, y1)));
        }
    }
}

/// Computes `a \ b` as up to four disjoint boxes, pushed onto `out`.
fn subtract_box(a: &IndexBox, b: &IndexBox, out: &mut Vec<IndexBox>) {
    let Some(isect) = a.intersection(b) else {
        out.push(*a);
        return;
    };
    // Slabs below/above along y, then left/right along x at the
    // intersection's y-range; all disjoint by construction.
    if a.lo().y < isect.lo().y {
        out.push(IndexBox::new(
            a.lo(),
            IntVect::new(a.hi().x, isect.lo().y - 1),
        ));
    }
    if isect.hi().y < a.hi().y {
        out.push(IndexBox::new(
            IntVect::new(a.lo().x, isect.hi().y + 1),
            a.hi(),
        ));
    }
    if a.lo().x < isect.lo().x {
        out.push(IndexBox::new(
            IntVect::new(a.lo().x, isect.lo().y),
            IntVect::new(isect.lo().x - 1, isect.hi().y),
        ));
    }
    if isect.hi().x < a.hi().x {
        out.push(IndexBox::new(
            IntVect::new(isect.hi().x + 1, isect.lo().y),
            IntVect::new(a.hi().x, isect.hi().y),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(lx: Coord, ly: Coord, hx: Coord, hy: Coord) -> IndexBox {
        IndexBox::new(IntVect::new(lx, ly), IntVect::new(hx, hy))
    }

    #[test]
    fn construction_drops_invalid() {
        let ba = BoxArray::new(vec![b(0, 0, 1, 1), IndexBox::empty(), b(4, 4, 5, 5)]);
        assert_eq!(ba.len(), 2);
        assert_eq!(ba.num_pts(), 8);
        assert!(!ba.is_empty());
        assert!(BoxArray::empty().is_empty());
    }

    #[test]
    fn minimal_box_bounds_all() {
        let ba = BoxArray::new(vec![b(0, 0, 1, 1), b(6, 3, 7, 9)]);
        assert_eq!(ba.minimal_box(), b(0, 0, 7, 9));
        assert!(!BoxArray::empty().minimal_box().is_valid());
    }

    #[test]
    fn disjointness() {
        assert!(BoxArray::new(vec![b(0, 0, 1, 1), b(2, 0, 3, 1)]).is_disjoint());
        assert!(!BoxArray::new(vec![b(0, 0, 2, 2), b(2, 2, 3, 3)]).is_disjoint());
    }

    #[test]
    fn refine_coarsen() {
        let ba = BoxArray::new(vec![b(0, 0, 3, 3), b(4, 0, 7, 3)]);
        let r = IntVect::splat(2);
        let fine = BoxArray::new(ba.iter().map(|b| b.refine(r)).collect());
        assert_eq!(fine.num_pts(), ba.num_pts() * 4);
        assert_eq!(fine.coarsen(r), ba);
    }

    #[test]
    fn max_size_tiles_original() {
        let domain = b(0, 0, 127, 63);
        let ba = BoxArray::single(domain).max_size(32);
        assert_eq!(ba.len(), 8); // 4 x 2
        assert!(ba.tiles(&domain));
        for bx in ba.iter() {
            assert!(bx.longest_side() <= 32);
        }
    }

    #[test]
    fn max_size_uneven_lengths() {
        let domain = b(0, 0, 99, 0); // length 100, max 32 -> 4 pieces of 25
        let ba = BoxArray::single(domain).max_size(32);
        assert_eq!(ba.len(), 4);
        assert!(ba.tiles(&domain));
        for bx in ba.iter() {
            assert_eq!(bx.num_pts(), 25);
        }
    }

    #[test]
    fn max_size_noop_when_small() {
        let ba = BoxArray::single(b(0, 0, 7, 7)).max_size(32);
        assert_eq!(ba.len(), 1);
    }

    #[test]
    fn intersections_finds_overlaps() {
        let ba = BoxArray::new(vec![b(0, 0, 3, 3), b(4, 0, 7, 3), b(0, 4, 3, 7)]);
        let hits = ba.intersections(&b(2, 2, 5, 5));
        let idx: Vec<usize> = hits.iter().map(|(i, _)| *i).collect();
        assert_eq!(idx, vec![0, 1, 2]);
        assert_eq!(hits[0].1, b(2, 2, 3, 3));
        assert_eq!(hits[1].1, b(4, 2, 5, 3));
        assert_eq!(hits[2].1, b(2, 4, 3, 5));
    }

    #[test]
    fn complement_in_detects_gap() {
        let ba = BoxArray::new(vec![b(0, 0, 3, 7), b(4, 0, 7, 3)]);
        let gaps = ba.complement_in(&b(0, 0, 7, 7));
        let gap_pts: Coord = gaps.iter().map(IndexBox::num_pts).sum();
        assert_eq!(gap_pts, 16); // missing quadrant [4..7]x[4..7]
        assert_eq!(ba.complement_in(&b(0, 0, 3, 3)), vec![]);
    }

    #[test]
    fn tiles_detects_exact_cover() {
        let domain = b(0, 0, 7, 7);
        assert!(BoxArray::new(vec![b(0, 0, 3, 7), b(4, 0, 7, 7)]).tiles(&domain));
        assert!(!BoxArray::new(vec![b(0, 0, 3, 7)]).tiles(&domain));
        // Overlapping cover is not a tiling.
        assert!(!BoxArray::new(vec![b(0, 0, 4, 7), b(4, 0, 7, 7)]).tiles(&domain));
    }

    #[test]
    fn subtract_box_partitions() {
        let mut out = Vec::new();
        subtract_box(&b(0, 0, 7, 7), &b(2, 2, 5, 5), &mut out);
        let total: Coord = out.iter().map(IndexBox::num_pts).sum();
        assert_eq!(total, 64 - 16);
        // Pieces are mutually disjoint.
        assert!(BoxArray::new(out).is_disjoint());
    }
}
