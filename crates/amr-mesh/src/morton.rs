//! Morton (Z-order) space-filling-curve encoding.
//!
//! Used by the SFC distribution-mapping strategy to order grid patches so
//! that index-space locality maps to rank locality, mirroring AMReX's
//! `DistributionMapping::SFCProcessorMap`.

use crate::intvect::{Coord, IntVect};

/// Number of low bits per coordinate that participate in the interleave.
/// 31 bits per axis fills a `u64` key and covers domains up to 2^31 cells
/// per side — far beyond the paper's largest 131,072-cell side.
const BITS: u32 = 31;

/// Interleaves the low 31 bits of `x` into even bit positions.
fn spread(x: u64) -> u64 {
    // Classic bit-twiddling spread for 2-D Morton codes.
    let mut v = x & 0x7fff_ffff;
    v = (v | (v << 16)) & 0x0000_ffff_0000_ffff;
    v = (v | (v << 8)) & 0x00ff_00ff_00ff_00ff;
    v = (v | (v << 4)) & 0x0f0f_0f0f_0f0f_0f0f;
    v = (v | (v << 2)) & 0x3333_3333_3333_3333;
    v = (v | (v << 1)) & 0x5555_5555_5555_5555;
    v
}

/// Morton key for a (non-negative) 2-D index. Coordinates are clamped to the
/// supported 31-bit range.
///
/// # Panics
/// Panics (debug only) on negative coordinates; callers should shift their
/// index space to be non-negative first (see `morton_key_in`).
pub fn morton_key(p: IntVect) -> u64 {
    debug_assert!(
        p.x >= 0 && p.y >= 0,
        "morton_key: negative coordinate {p}; shift to a non-negative frame"
    );
    let mask = (1u64 << BITS) - 1;
    let x = (p.x as u64) & mask;
    let y = (p.y as u64) & mask;
    spread(x) | (spread(y) << 1)
}

/// Morton key of `p` relative to a frame origin, so that negative global
/// indices are supported as long as `p >= origin` component-wise.
pub(crate) fn morton_key_in(p: IntVect, origin: IntVect) -> u64 {
    morton_key(p - origin)
}

/// Center cell of a box (rounded toward the low corner).
pub(crate) fn box_center(b: &crate::index_box::IndexBox) -> IntVect {
    IntVect::new(avg_floor(b.lo().x, b.hi().x), avg_floor(b.lo().y, b.hi().y))
}

fn avg_floor(a: Coord, b: Coord) -> Coord {
    // Overflow-safe midpoint.
    a + (b - a) / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index_box::IndexBox;

    #[test]
    fn key_zero_is_zero() {
        assert_eq!(morton_key(IntVect::ZERO), 0);
    }

    #[test]
    fn keys_interleave_bits() {
        // (1,0) -> bit 0, (0,1) -> bit 1, (2,0) -> bit 2, (0,2) -> bit 3.
        assert_eq!(morton_key(IntVect::new(1, 0)), 0b0001);
        assert_eq!(morton_key(IntVect::new(0, 1)), 0b0010);
        assert_eq!(morton_key(IntVect::new(1, 1)), 0b0011);
        assert_eq!(morton_key(IntVect::new(2, 0)), 0b0100);
        assert_eq!(morton_key(IntVect::new(0, 2)), 0b1000);
        assert_eq!(morton_key(IntVect::new(3, 3)), 0b1111);
    }

    #[test]
    fn keys_are_unique_in_a_tile() {
        let mut keys = Vec::new();
        for y in 0..16 {
            for x in 0..16 {
                keys.push(morton_key(IntVect::new(x, y)));
            }
        }
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 256);
    }

    #[test]
    fn z_order_visits_quadrants_in_order() {
        // Quadrant order for a 4x4 tile: lower-left, lower-right(x-high),
        // upper-left, upper-right.
        let k_ll = morton_key(IntVect::new(0, 0));
        let k_lr = morton_key(IntVect::new(2, 0));
        let k_ul = morton_key(IntVect::new(0, 2));
        let k_ur = morton_key(IntVect::new(2, 2));
        assert!(k_ll < k_lr && k_lr < k_ul && k_ul < k_ur);
    }

    #[test]
    fn relative_frame_supports_negative_coords() {
        let origin = IntVect::new(-8, -8);
        let a = IntVect::new(-8, -8);
        let c = IntVect::new(-7, -8);
        assert_eq!(morton_key_in(a, origin), 0);
        assert_eq!(morton_key_in(c, origin), 1);
    }

    #[test]
    fn large_coordinates_do_not_collide() {
        let a = IntVect::new(131_072, 0);
        let b = IntVect::new(0, 131_072);
        assert_ne!(morton_key(a), morton_key(b));
    }

    #[test]
    fn box_center_rounds_low() {
        let bx = IndexBox::new(IntVect::new(0, 0), IntVect::new(3, 4));
        assert_eq!(box_center(&bx), IntVect::new(1, 2));
        let single = IndexBox::new(IntVect::new(5, 5), IntVect::new(5, 5));
        assert_eq!(box_center(&single), IntVect::new(5, 5));
    }
}
