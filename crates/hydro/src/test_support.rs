//! Random fabs and states for the oracle tests: each flat kernel is
//! compared bit for bit with the per-cell reference it must reproduce.

use crate::eos::GammaLaw;
use crate::state::{Conserved, Primitive, NCOMP, SMALL_DENS, SMALL_PRES};
use amr_mesh::prelude::*;

/// SplitMix64: enough randomness to fill a fab from one proptest seed.
pub(crate) struct Rng(u64);

impl Rng {
    pub(crate) fn new(seed: u64) -> Self {
        Self(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub(crate) fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) * (hi - lo)
    }

    /// Log-uniform in `[lo, hi)`, both positive.
    fn log_range(&mut self, lo: f64, hi: f64) -> f64 {
        (self.range(lo.ln(), hi.ln())).exp()
    }
}

/// Families of states the kernels must agree on.
pub(crate) const KINDS: u8 = 4;

/// One conserved state of family `kind`:
/// 0. physical: moderate density, velocity and pressure;
/// 1. near the floors: density and pressure within 10x of `SMALL_DENS` /
///    `SMALL_PRES`, some raw conserved values below them;
/// 2. strong shocks: a hot, fast or dense state beside a cold one, many
///    decades apart;
/// 3. any of the above, chosen per cell.
pub(crate) fn state(rng: &mut Rng, kind: u8, eos: &GammaLaw) -> Conserved {
    let kind = if kind == 3 {
        (rng.next_u64() % 3) as u8
    } else {
        kind
    };
    match kind {
        0 => Primitive::new(
            rng.range(0.05, 10.0),
            rng.range(-3.0, 3.0),
            rng.range(-3.0, 3.0),
            rng.range(0.01, 10.0),
        )
        .to_conserved(eos),
        1 => {
            if rng.next_u64().is_multiple_of(4) {
                // Raw values around and below the floors, energy possibly
                // under the kinetic part.
                Conserved::new(
                    rng.range(-SMALL_DENS, 10.0 * SMALL_DENS),
                    rng.range(-1e-12, 1e-12),
                    rng.range(-1e-12, 1e-12),
                    rng.range(-SMALL_PRES, 10.0 * SMALL_PRES),
                )
            } else {
                Primitive::new(
                    rng.log_range(0.1 * SMALL_DENS, 10.0 * SMALL_DENS),
                    rng.range(-1e-3, 1e-3),
                    rng.range(-1e-3, 1e-3),
                    rng.log_range(0.1 * SMALL_PRES, 10.0 * SMALL_PRES),
                )
                .to_conserved(eos)
            }
        }
        _ => {
            if rng.next_u64().is_multiple_of(2) {
                Primitive::new(
                    rng.log_range(1.0, 1e3),
                    rng.range(-50.0, 50.0),
                    rng.range(-50.0, 50.0),
                    rng.log_range(1e2, 1e6),
                )
                .to_conserved(eos)
            } else {
                Primitive::new(rng.log_range(1e-3, 1.0), 0.0, 0.0, 1e-5).to_conserved(eos)
            }
        }
    }
}

/// Fills every cell of `fab` (ghosts included) with states of `kind`.
pub(crate) fn fill(fab: &mut FArrayBox, rng: &mut Rng, kind: u8, eos: &GammaLaw) {
    for p in fab.domain().cells() {
        let u = state(rng, kind, eos);
        for (c, v) in [u.rho, u.mx, u.my, u.e].into_iter().enumerate() {
            fab.set(p, c, v);
        }
    }
}

/// A fab over `valid` grown by `ngrow`, filled with states of `kind`.
pub(crate) fn random_fab(valid: IndexBox, ngrow: Coord, seed: u64, kind: u8) -> FArrayBox {
    let mut fab = FArrayBox::new(valid.grow(ngrow), NCOMP);
    fill(&mut fab, &mut Rng::new(seed), kind, &GammaLaw::default());
    fab
}

/// A box with low corner `(x, y)` and size `(nx, ny)`.
pub(crate) fn boxed(x: Coord, y: Coord, nx: Coord, ny: Coord) -> IndexBox {
    IndexBox::from_lo_size(IntVect::new(x, y), IntVect::new(nx, ny))
}

/// A level: `domain` cut into boxes of at most `max` cells a side, each
/// fab (ghosts included) filled with states of `kind`.
pub(crate) fn random_level(
    domain: IndexBox,
    max: Coord,
    ngrow: Coord,
    seed: u64,
    kind: u8,
) -> MultiFab {
    let ba = BoxArray::single(domain).max_size(max);
    let dm = DistributionMapping::new(&ba, 1, DistributionStrategy::Sfc);
    let mut mf = MultiFab::new(ba, dm, NCOMP, ngrow);
    let mut rng = Rng::new(seed);
    let eos = GammaLaw::default();
    for fab in mf.fabs_mut() {
        fill(fab, &mut rng, kind, &eos);
    }
    mf
}

/// Every stored bit of every fab of `mf`, ghosts included.
pub(crate) fn multifab_bits(mf: &MultiFab) -> Vec<u64> {
    (0..mf.nfabs()).flat_map(|i| fab_bits(mf.fab(i))).collect()
}

/// Every stored bit of `fab`, ghosts included.
pub(crate) fn fab_bits(fab: &FArrayBox) -> Vec<u64> {
    fab.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// A coarse level over a domain with a negative low corner and a fine
/// level over an unaligned sub-box of its refinement, both cut into many
/// fabs and filled (ghosts included) with random states; with the fine
/// level's domain.
pub(crate) fn two_levels(
    lo: (Coord, Coord),
    size: (Coord, Coord),
    sub: (Coord, Coord, Coord, Coord),
    ratio: Coord,
    max: Coord,
    ngrow: Coord,
    seed: u64,
) -> (MultiFab, MultiFab, IndexBox) {
    let cdomain = boxed(lo.0, lo.1, size.0, size.1);
    let coarse = random_level(cdomain, max, ngrow, seed, 3);
    let fdomain = cdomain.refine(IntVect::splat(ratio));
    let (fl, fs) = (fdomain.lo(), fdomain.size());
    let region = boxed(
        fl.x + sub.0 % fs.x,
        fl.y + sub.1 % fs.y,
        1 + sub.2 % fs.x,
        1 + sub.3 % fs.y,
    )
    .intersection(&fdomain)
    .expect("the sub-box starts inside the fine domain");
    let fine = random_level(region, max + 1, ngrow, seed ^ 1, 3);
    (coarse, fine, fdomain)
}
