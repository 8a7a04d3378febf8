//! Two-dimensional integer index vectors.
//!
//! `IntVect` is the index-space coordinate type used throughout the mesh
//! substrate, mirroring AMReX's `IntVect` restricted to `AMREX_SPACEDIM = 2`
//! (the paper's study is the 2-D Sedov case).

use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Signed index coordinate. 64-bit so that global cell counts at the paper's
/// largest scale (131,072 per side, ~17 G cells) stay comfortably in range.
pub type Coord = i64;

/// Number of spatial dimensions supported by this substrate.
pub(crate) const SPACEDIM: usize = 2;

/// A point in 2-D cell index space.
#[derive(
    Copy, Clone, PartialEq, Eq, Hash, Debug, Default, PartialOrd, Ord, Serialize, Deserialize,
)]
pub struct IntVect {
    /// Index along the x (first) direction.
    pub x: Coord,
    /// Index along the y (second) direction.
    pub y: Coord,
}

impl IntVect {
    /// Creates an index vector from its components.
    #[inline]
    pub const fn new(x: Coord, y: Coord) -> Self {
        Self { x, y }
    }

    /// The zero vector.
    pub(crate) const ZERO: IntVect = IntVect::new(0, 0);

    /// The unit vector (1, 1).
    pub(crate) const UNIT: IntVect = IntVect::new(1, 1);

    /// Creates a vector with both components equal to `v`.
    #[inline]
    pub const fn splat(v: Coord) -> Self {
        Self { x: v, y: v }
    }

    /// Returns the component along dimension `dir` (0 = x, 1 = y).
    ///
    /// # Panics
    /// Panics if `dir >= SPACEDIM`.
    #[inline]
    pub fn get(&self, dir: usize) -> Coord {
        match dir {
            0 => self.x,
            1 => self.y,
            _ => panic!("IntVect::get: invalid direction {dir}"),
        }
    }

    /// Sets the component along dimension `dir` (0 = x, 1 = y).
    ///
    /// # Panics
    /// Panics if `dir >= SPACEDIM`.
    #[inline]
    pub fn set(&mut self, dir: usize, v: Coord) {
        match dir {
            0 => self.x = v,
            1 => self.y = v,
            _ => panic!("IntVect::set: invalid direction {dir}"),
        }
    }

    /// Component-wise minimum.
    #[inline]
    pub(crate) fn min(self, other: Self) -> Self {
        Self::new(self.x.min(other.x), self.y.min(other.y))
    }

    /// Component-wise maximum.
    #[inline]
    pub(crate) fn max(self, other: Self) -> Self {
        Self::new(self.x.max(other.x), self.y.max(other.y))
    }

    /// True if every component of `self` is `<=` the matching component of
    /// `other` (the partial order used for box validity).
    #[inline]
    pub(crate) fn all_le(self, other: Self) -> bool {
        self.x <= other.x && self.y <= other.y
    }

    /// Coarsens each component by `ratio` using floor division, matching
    /// AMReX's `amrex::coarsen` semantics for negative indices.
    ///
    /// # Panics
    /// Panics if any ratio component is `<= 0`.
    #[inline]
    pub fn coarsen(self, ratio: IntVect) -> Self {
        Self::new(div_floor(self.x, ratio.x), div_floor(self.y, ratio.y))
    }

    /// Refines each component by `ratio` (plain multiplication).
    #[inline]
    pub(crate) fn refine(self, ratio: IntVect) -> Self {
        Self::new(self.x * ratio.x, self.y * ratio.y)
    }

    /// Product of components (e.g. cell counts from box extents).
    #[inline]
    pub fn prod(self) -> Coord {
        self.x * self.y
    }

    /// Largest component value.
    #[inline]
    pub(crate) fn max_component(self) -> Coord {
        self.x.max(self.y)
    }

    /// Direction (0 or 1) of the largest component; ties favour x.
    #[inline]
    pub(crate) fn max_dir(self) -> usize {
        if self.y > self.x {
            1
        } else {
            0
        }
    }
}

/// Floor division (rounds toward negative infinity).
///
/// # Panics
/// Panics if `b <= 0` (refinement ratios must be positive).
#[inline]
pub(crate) fn div_floor(a: Coord, b: Coord) -> Coord {
    assert!(b > 0, "div_floor: non-positive divisor {b}");
    let d = a / b;
    if a % b != 0 && a < 0 {
        d - 1
    } else {
        d
    }
}

impl Add for IntVect {
    type Output = IntVect;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for IntVect {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Sub for IntVect {
    type Output = IntVect;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for IntVect {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

impl Neg for IntVect {
    type Output = IntVect;
    #[inline]
    fn neg(self) -> Self {
        Self::new(-self.x, -self.y)
    }
}

impl Mul<Coord> for IntVect {
    type Output = IntVect;
    #[inline]
    fn mul(self, rhs: Coord) -> Self {
        Self::new(self.x * rhs, self.y * rhs)
    }
}

impl Mul<IntVect> for IntVect {
    type Output = IntVect;
    #[inline]
    fn mul(self, rhs: IntVect) -> Self {
        Self::new(self.x * rhs.x, self.y * rhs.y)
    }
}

impl Div<Coord> for IntVect {
    type Output = IntVect;
    /// Truncating division; use [`IntVect::coarsen`] for AMR coarsening.
    #[inline]
    fn div(self, rhs: Coord) -> Self {
        Self::new(self.x / rhs, self.y / rhs)
    }
}

impl From<(Coord, Coord)> for IntVect {
    #[inline]
    fn from((x, y): (Coord, Coord)) -> Self {
        Self::new(x, y)
    }
}

impl From<[Coord; 2]> for IntVect {
    #[inline]
    fn from(a: [Coord; 2]) -> Self {
        Self::new(a[0], a[1])
    }
}

impl std::fmt::Display for IntVect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let v = IntVect::new(3, -4);
        assert_eq!(v.get(0), 3);
        assert_eq!(v.get(1), -4);
        assert_eq!(IntVect::splat(7), IntVect::new(7, 7));
        assert_eq!(IntVect::from((1, 2)), IntVect::new(1, 2));
        assert_eq!(IntVect::from([1, 2]), IntVect::new(1, 2));
    }

    #[test]
    fn set_components() {
        let mut v = IntVect::ZERO;
        v.set(0, 5);
        v.set(1, -2);
        assert_eq!(v, IntVect::new(5, -2));
    }

    #[test]
    #[should_panic(expected = "invalid direction")]
    fn get_invalid_dir_panics() {
        IntVect::ZERO.get(2);
    }

    #[test]
    fn arithmetic() {
        let a = IntVect::new(1, 2);
        let b = IntVect::new(3, 5);
        assert_eq!(a + b, IntVect::new(4, 7));
        assert_eq!(b - a, IntVect::new(2, 3));
        assert_eq!(-a, IntVect::new(-1, -2));
        assert_eq!(a * 3, IntVect::new(3, 6));
        assert_eq!(a * b, IntVect::new(3, 10));
        let mut c = a;
        c += b;
        assert_eq!(c, IntVect::new(4, 7));
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn min_max_order() {
        let a = IntVect::new(1, 9);
        let b = IntVect::new(4, 2);
        assert_eq!(a.min(b), IntVect::new(1, 2));
        assert_eq!(a.max(b), IntVect::new(4, 9));
        assert!(IntVect::new(0, 0).all_le(IntVect::new(0, 1)));
        assert!(!IntVect::new(0, 2).all_le(IntVect::new(0, 1)));
    }

    #[test]
    fn div_floor_matches_mathematical_floor() {
        assert_eq!(div_floor(7, 2), 3);
        assert_eq!(div_floor(-7, 2), -4);
        assert_eq!(div_floor(-8, 2), -4);
        assert_eq!(div_floor(0, 4), 0);
        assert_eq!(div_floor(-1, 4), -1);
    }

    #[test]
    fn coarsen_refine_round_trip_for_aligned_points() {
        let r = IntVect::splat(4);
        let v = IntVect::new(8, -12);
        assert_eq!(v.coarsen(r).refine(r), v);
        // Non-aligned points coarsen toward -inf.
        assert_eq!(IntVect::new(9, -11).coarsen(r), IntVect::new(2, -3));
    }

    #[test]
    fn reductions() {
        let v = IntVect::new(3, 4);
        assert_eq!(v.prod(), 12);
        assert_eq!(v.max_component(), 4);
        assert_eq!(v.max_dir(), 1);
        assert_eq!(IntVect::new(4, 4).max_dir(), 0);
    }
}
