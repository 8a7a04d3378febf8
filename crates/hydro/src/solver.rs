//! Dimensionally split MUSCL–HLLC level solver.
//!
//! Second-order Godunov scheme in the Castro family: limited linear
//! reconstruction of primitives, HLLC fluxes, conservative update, one
//! sweep per direction with a ghost refill in between. Each grid patch is
//! updated independently, relying on 2 ghost cells, and the patches of a
//! level are swept one after another on the calling thread: a campaign
//! runs its cells in parallel, so the solve inside a cell stays serial.
//!
//! A sweep works over flat component slices one pencil at a time — the
//! cells of one row (x sweep) or column (y sweep) plus two ghosts at each
//! end — in the sweep's own frame: the normal velocity and momentum sit in
//! the `u` / `mx` slots, so one kernel serves both directions. Each pass
//! (primitives, predicted face states, HLLC fluxes, update) is a loop over
//! structure-of-arrays rows of a caller-owned [`SweepScratch`].
//!
//! The pencil loop has one source body compiled twice: for the target's
//! baseline (SSE2 on x86-64, two f64 lanes per vector) and with AVX2
//! enabled (four lanes). [`sweep_fab`] takes the AVX2 copy when
//! `is_x86_feature_detected!("avx2")` holds — std caches the answer, so
//! the check is one load per fab — and the baseline copy on every other
//! CPU. The copies agree bit for bit: `+ - * /` and `sqrt` are correctly
//! rounded and `min` / `max` keep one semantics at any vector width, and
//! Rust never contracts `a * b + c` into an FMA.

use crate::eos::GammaLaw;
use crate::riemann::hllc_flux;
use crate::state::{flux_from, Conserved, Primitive, NCOMP, SMALL_DENS, SMALL_PRES};
use amr_mesh::{BoxArray, Coord, FArrayBox, Geometry, IndexBox, IntVect, MultiFab};

/// Ghost-cell width the solver requires.
pub const NGROW: i64 = 2;

/// Row scratch of `sweep_fab`, reused across fabs, directions, levels
/// and steps: one pencil's primitives, its predicted low/high face states
/// and its face fluxes, each as `NCOMP` rows in the sweep's frame. Rows
/// only grow, so a steady run allocates nothing.
#[derive(Debug, Default)]
pub struct SweepScratch {
    w: [Vec<f64>; NCOMP],
    lo: [Vec<f64>; NCOMP],
    hi: [Vec<f64>; NCOMP],
    flux: [Vec<f64>; NCOMP],
}

/// Monotonized-central slope limiter (the default in Castro's PLM),
/// written as a select so a loop of it vectorizes.
#[inline]
fn mc_limit(dm: f64, dp: f64) -> f64 {
    let dc = 0.5 * (dm + dp);
    let lim = 2.0 * dm.abs().min(dp.abs());
    let limited = dc.signum() * dc.abs().min(lim);
    if dm * dp <= 0.0 {
        0.0
    } else {
        limited
    }
}

#[inline]
fn limited_slope(wm: &Primitive, w0: &Primitive, wp: &Primitive) -> Primitive {
    Primitive {
        rho: mc_limit(w0.rho - wm.rho, wp.rho - w0.rho),
        u: mc_limit(w0.u - wm.u, wp.u - w0.u),
        v: mc_limit(w0.v - wm.v, wp.v - w0.v),
        p: mc_limit(w0.p - wm.p, wp.p - w0.p),
    }
}

#[inline]
fn half(w: &Primitive, d: &Primitive, sign: f64) -> Primitive {
    Primitive {
        rho: (w.rho + sign * 0.5 * d.rho).max(SMALL_DENS),
        u: w.u + sign * 0.5 * d.u,
        v: w.v + sign * 0.5 * d.v,
        p: (w.p + sign * 0.5 * d.p).max(SMALL_PRES),
    }
}

#[inline]
fn load(rows: [&[f64]; NCOMP], i: usize) -> Primitive {
    Primitive::new(rows[0][i], rows[1][i], rows[2][i], rows[3][i])
}

#[inline]
fn store(rows: &mut [&mut [f64]; NCOMP], i: usize, v: [f64; NCOMP]) {
    (rows[0][i], rows[1][i], rows[2][i], rows[3][i]) = (v[0], v[1], v[2], v[3]);
}

#[inline]
fn prim_fields(w: Primitive) -> [f64; NCOMP] {
    [w.rho, w.u, w.v, w.p]
}

/// The first `len` entries of each row.
fn head(rows: &[Vec<f64>; NCOMP], len: usize) -> [&[f64]; NCOMP] {
    rows.each_ref().map(|r| &r[..len])
}

fn head_mut(rows: &mut [Vec<f64>; NCOMP], len: usize) -> [&mut [f64]; NCOMP] {
    rows.each_mut().map(|r| &mut r[..len])
}

/// The conserved component slices of `fab`, in component order.
fn conserved_mut(fab: &mut FArrayBox) -> [&mut [f64]; NCOMP] {
    let mut comps = fab.comps_mut();
    std::array::from_fn(|_| comps.next().expect("fab holds NCOMP components"))
}

impl SweepScratch {
    /// Grows every row to at least `cells` entries.
    fn fit(&mut self, cells: usize) {
        for row in self
            .w
            .iter_mut()
            .chain(&mut self.lo)
            .chain(&mut self.hi)
            .chain(&mut self.flux)
        {
            if row.len() < cells {
                row.resize(cells, 0.0);
            }
        }
    }

    /// Sweeps one pencil of `len` valid cells. `u` holds the fab's
    /// components in the sweep's frame (density, normal momentum,
    /// transverse momentum, energy); the pencil's cells, two ghosts at
    /// each end included, sit at `first + i * stride` for `i` in
    /// `0..len + 4`.
    #[inline(always)]
    fn pencil(
        &mut self,
        u: &mut [&mut [f64]; NCOMP],
        first: usize,
        stride: usize,
        len: usize,
        dt_over_dx: f64,
        eos: &GammaLaw,
    ) {
        // Primitives, once per cell.
        let mut w = head_mut(&mut self.w, len + 4);
        for i in 0..len + 4 {
            let k = first + i * stride;
            let prim = Conserved::new(u[0][k], u[1][k], u[2][k], u[3][k]).to_primitive(eos);
            store(&mut w, i, prim_fields(prim));
        }

        // Predicted low/high face states of every cell whose faces border
        // a valid cell: pencil cells 1..len + 3. The Hancock half-time
        // predictor evolves both reconstructed face states of each cell by
        // `dt/2` before the Riemann solve — without it the scheme develops
        // post-shock oscillations at high resolution.
        let w = head(&self.w, len + 4);
        let mut lo = head_mut(&mut self.lo, len + 2);
        let mut hi = head_mut(&mut self.hi, len + 2);
        let coef = 0.5 * dt_over_dx;
        for i in 0..len + 2 {
            let w0 = load(w, i + 1);
            let d = limited_slope(&load(w, i), &w0, &load(w, i + 2));
            let face_lo = half(&w0, &d, -1.0);
            let face_hi = half(&w0, &d, 1.0);
            let u_lo = face_lo.to_conserved(eos);
            let u_hi = face_hi.to_conserved(eos);
            let f_lo = flux_from(&face_lo, &u_lo, 0);
            let f_hi = flux_from(&face_hi, &u_hi, 0);
            let evolve = |u: &Conserved| -> Primitive {
                Conserved {
                    rho: u.rho + coef * (f_lo.rho - f_hi.rho),
                    mx: u.mx + coef * (f_lo.mx - f_hi.mx),
                    my: u.my + coef * (f_lo.my - f_hi.my),
                    e: u.e + coef * (f_lo.e - f_hi.e),
                }
                .to_primitive(eos)
            };
            store(&mut lo, i, prim_fields(evolve(&u_lo)));
            store(&mut hi, i, prim_fields(evolve(&u_hi)));
        }

        // Flux at the low face of each valid cell plus one at the high
        // end: face `j` lies between face-state cells `j` and `j + 1`.
        let (lo, hi) = (head(&self.lo, len + 2), head(&self.hi, len + 2));
        let mut flux = head_mut(&mut self.flux, len + 1);
        for j in 0..len + 1 {
            let f = hllc_flux(&load(hi, j), &load(lo, j + 1), eos, 0);
            store(&mut flux, j, [f.rho, f.mx, f.my, f.e]);
        }

        let flux = head(&self.flux, len + 1);
        for (comp, f) in u.iter_mut().zip(flux) {
            for j in 0..len {
                comp[first + (j + 2) * stride] += -dt_over_dx * (f[j + 1] - f[j]);
            }
        }
    }
}

/// One directional MUSCL–Hancock sweep over the valid region of a fab.
///
/// `fab` holds conserved components over a domain grown by [`NGROW`]; its
/// ghost cells must be filled before the call. Only `valid` cells are
/// updated. `scratch` is working storage only; reusing one across calls
/// is what keeps the sweep allocation-free.
///
/// # Panics
/// Panics unless the fab covers `valid` grown by [`NGROW`] along `dir`.
pub(crate) fn sweep_fab(
    fab: &mut FArrayBox,
    valid: &IndexBox,
    dir: usize,
    dt_over_dx: f64,
    eos: &GammaLaw,
    scratch: &mut SweepScratch,
) {
    sweep(fab, valid, dir, dt_over_dx, eos, scratch, true);
}

/// [`sweep_fab`], running the AVX2 copy of [`lanes`] when `wide` is set
/// and the CPU has AVX2, and the baseline copy otherwise — the tests pin
/// each copy in turn.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn sweep(
    fab: &mut FArrayBox,
    valid: &IndexBox,
    dir: usize,
    dt_over_dx: f64,
    eos: &GammaLaw,
    scratch: &mut SweepScratch,
    wide: bool,
) {
    let dom = fab.domain();
    let ghosts = if dir == 0 {
        IntVect::new(NGROW, 0)
    } else {
        IntVect::new(0, NGROW)
    };
    assert!(
        dom.contains_box(&valid.grow_vect(ghosts)),
        "sweep_fab: {dom:?} lacks {NGROW} ghosts around {valid:?} along {dir}"
    );
    let width = dom.length(0) as usize;
    let size = valid.size();
    // Pencils run along `dir`; consecutive pencils are one cell apart
    // across it.
    let (stride, len, count, lane_step) = if dir == 0 {
        (1, size.x, size.y, width)
    } else {
        (width, size.y, size.x, 1)
    };
    let pencils = Pencils {
        first: dom.offset(valid.lo() - ghosts),
        lane_step,
        count: count as usize,
        stride,
        len: len as usize,
    };
    let [rho, mx, my, e] = conserved_mut(fab);
    let mut u = if dir == 0 {
        [rho, mx, my, e]
    } else {
        [rho, my, mx, e]
    };
    scratch.fit(pencils.len + 4);
    #[cfg(target_arch = "x86_64")]
    if wide && std::arch::is_x86_feature_detected!("avx2") {
        #[allow(unsafe_code)]
        // SAFETY: `lanes_avx2` requires only that the CPU support AVX2,
        // which `is_x86_feature_detected!("avx2")` has just confirmed.
        unsafe {
            lanes_avx2(scratch, &mut u, &pencils, dt_over_dx, eos)
        };
        return;
    }
    lanes(scratch, &mut u, &pencils, dt_over_dx, eos);
}

/// Where a fab's pencils lie in its component slices: `count` pencils of
/// `len` valid cells, the first starting (ghosts included) at `first`,
/// consecutive pencils `lane_step` apart and a pencil's cells `stride`
/// apart.
struct Pencils {
    first: usize,
    lane_step: usize,
    count: usize,
    stride: usize,
    len: usize,
}

/// Sweeps every pencil of a fab: the one loop body of the sweep, inlined
/// into [`sweep`] at the target's baseline width and into [`lanes_avx2`]
/// at AVX2 width.
#[inline(always)]
fn lanes(
    scratch: &mut SweepScratch,
    u: &mut [&mut [f64]; NCOMP],
    pencils: &Pencils,
    dt_over_dx: f64,
    eos: &GammaLaw,
) {
    for lane in 0..pencils.count {
        scratch.pencil(
            u,
            pencils.first + lane * pencils.lane_step,
            pencils.stride,
            pencils.len,
            dt_over_dx,
            eos,
        );
    }
}

/// [`lanes`] compiled with AVX2 enabled; the module doc says why its
/// results equal the baseline copy's bit for bit. Only `avx2` is enabled:
/// with `fma` off, no fused multiply-add can round differently from the
/// baseline.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn lanes_avx2(
    scratch: &mut SweepScratch,
    u: &mut [&mut [f64]; NCOMP],
    pencils: &Pencils,
    dt_over_dx: f64,
    eos: &GammaLaw,
) {
    lanes(scratch, u, pencils, dt_over_dx, eos);
}

/// Advances one level by `dt` with Strang-ordered directional sweeps.
///
/// `fill_ghosts` must refill ghost cells (same-level exchange, coarse-fine
/// interpolation, physical boundaries); it is invoked before each sweep.
pub fn advance_level<F>(
    mf: &mut MultiFab,
    geom: &Geometry,
    dt: f64,
    eos: &GammaLaw,
    scratch: &mut SweepScratch,
    mut fill_ghosts: F,
) where
    F: FnMut(&mut MultiFab),
{
    let whole: Vec<[Vec<IndexBox>; 2]> =
        mf.box_array().iter().map(|&v| [vec![v], vec![v]]).collect();
    advance_level_in(mf, geom, dt, eos, scratch, &whole, |m, _| fill_ghosts(m));
}

/// [`advance_level`] over part of each fab: `regions[i][dir]` are the
/// boxes of fab `i` that the sweep along `dir` updates, floors included,
/// and `fill_ghosts(mf, dir)` fills at least the ghosts that sweep reads.
/// Two boxes of one fab must not put cells of one lane fewer than
/// [`NGROW`] cells apart, or the later pencil reads the earlier one's
/// updated cells.
pub(crate) fn advance_level_in<F>(
    mf: &mut MultiFab,
    geom: &Geometry,
    dt: f64,
    eos: &GammaLaw,
    scratch: &mut SweepScratch,
    regions: &[[Vec<IndexBox>; 2]],
    mut fill_ghosts: F,
) where
    F: FnMut(&mut MultiFab, usize),
{
    assert_eq!(mf.ncomp(), NCOMP, "advance_level: wrong component count");
    assert!(mf.ngrow() >= NGROW, "advance_level: need {NGROW} ghosts");
    assert_eq!(
        regions.len(),
        mf.nfabs(),
        "advance_level: one region list per fab"
    );
    let dx = geom.dx();
    #[allow(clippy::needless_range_loop)] // `dir` is a spatial dimension, not an index
    for dir in 0..2 {
        fill_ghosts(mf, dir);
        let dt_over_dx = dt / dx[dir];
        for (i, boxes) in regions.iter().enumerate() {
            let fab = mf.fab_mut(i);
            for b in &boxes[dir] {
                sweep_fab(fab, b, dir, dt_over_dx, eos, scratch);
            }
            for b in &boxes[dir] {
                enforce_floors(fab, b);
            }
        }
    }
}

/// Applies Castro-style density/energy floors over `valid`: transient
/// undershoots at coarse-fine boundaries (the subcycled scheme has no
/// reflux) are clipped instead of propagating NaNs.
fn enforce_floors(fab: &mut FArrayBox, valid: &IndexBox) {
    let rows = fab.rows(valid);
    let [rho, mx, my, e] = conserved_mut(fab);
    for k in rows.flatten() {
        if rho[k] < SMALL_DENS {
            rho[k] = SMALL_DENS;
            mx[k] = 0.0;
            my[k] = 0.0;
        }
        let r = rho[k];
        let kin = 0.5 * (mx[k].powi(2) + my[k].powi(2)) / r;
        if e[k] - kin < r * SMALL_PRES {
            e[k] = kin + r * SMALL_PRES;
        }
    }
}

/// Fills ghost cells lying outside `domain` with the nearest interior
/// value (outflow / zero-gradient boundary, Castro BC code 2).
pub fn apply_outflow_bc(mf: &mut MultiFab, domain: &IndexBox) {
    let inside = BoxArray::single(*domain);
    for fab in mf.fabs_mut() {
        for region in inside.complement_in(&fab.domain()) {
            outflow(fab, &region, domain);
        }
    }
}

/// [`apply_outflow_bc`] on the cells of `region`, which lie in `fab` and
/// outside `domain`: each copies the clamped cell inside `domain` when
/// `fab` holds it. The sources lie inside `domain`, so the cells may be
/// filled in any order.
pub(crate) fn outflow(fab: &mut FArrayBox, region: &IndexBox, domain: &IndexBox) {
    let g = fab.domain();
    let (dlo, dhi) = (domain.lo(), domain.hi());
    let at = |x: Coord, y: Coord| g.offset(IntVect::new(x, y));
    for comp in fab.comps_mut().take(NCOMP) {
        for y in region.lo().y..=region.hi().y {
            let cy = y.clamp(dlo.y, dhi.y);
            if !(g.lo().y..=g.hi().y).contains(&cy) {
                continue;
            }
            for x in region.lo().x..=region.hi().x {
                let cx = x.clamp(dlo.x, dhi.x);
                if (g.lo().x..=g.hi().x).contains(&cx) {
                    comp[at(x, y)] = comp[at(cx, cy)];
                }
            }
        }
    }
}

/// Test oracles: the per-cell sweep, floors and outflow fill the flat
/// kernels above must reproduce bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    use crate::eos::GammaLaw;
    use crate::riemann::reference::hllc_flux;
    use crate::state::{flux, Conserved, Primitive, NCOMP, UEDEN, UMX, UMY, URHO};
    use amr_mesh::{FArrayBox, IndexBox, IntVect, MultiFab};

    fn mc_limit(dm: f64, dp: f64) -> f64 {
        if dm * dp <= 0.0 {
            0.0
        } else {
            let dc = 0.5 * (dm + dp);
            let lim = 2.0 * dm.abs().min(dp.abs());
            dc.signum() * dc.abs().min(lim)
        }
    }

    fn prim_at(fab: &FArrayBox, p: IntVect, eos: &GammaLaw) -> Primitive {
        Conserved::new(
            fab.get(p, URHO),
            fab.get(p, UMX),
            fab.get(p, UMY),
            fab.get(p, UEDEN),
        )
        .to_primitive(eos)
    }

    fn limited_slope(wm: &Primitive, w0: &Primitive, wp: &Primitive) -> Primitive {
        Primitive {
            rho: mc_limit(w0.rho - wm.rho, wp.rho - w0.rho),
            u: mc_limit(w0.u - wm.u, wp.u - w0.u),
            v: mc_limit(w0.v - wm.v, wp.v - w0.v),
            p: mc_limit(w0.p - wm.p, wp.p - w0.p),
        }
    }

    fn half(w: &Primitive, d: &Primitive, sign: f64) -> Primitive {
        Primitive {
            rho: (w.rho + sign * 0.5 * d.rho).max(crate::state::SMALL_DENS),
            u: w.u + sign * 0.5 * d.u,
            v: w.v + sign * 0.5 * d.v,
            p: (w.p + sign * 0.5 * d.p).max(crate::state::SMALL_PRES),
        }
    }

    /// The per-cell sweep: three primitive conversions per cell, `get` /
    /// `add` addressing and per-call face and flux vectors.
    pub(crate) fn sweep_fab(
        fab: &mut FArrayBox,
        valid: &IndexBox,
        dir: usize,
        dt_over_dx: f64,
        eos: &GammaLaw,
    ) {
        let unit = if dir == 0 {
            IntVect::new(1, 0)
        } else {
            IntVect::new(0, 1)
        };
        let ext = valid.grow_vect(unit);
        let npts = ext.num_pts() as usize;
        let mut w_lo: Vec<Primitive> = Vec::with_capacity(npts);
        let mut w_hi: Vec<Primitive> = Vec::with_capacity(npts);
        for c in ext.cells() {
            let wm = prim_at(fab, c - unit, eos);
            let w0 = prim_at(fab, c, eos);
            let wp = prim_at(fab, c + unit, eos);
            let d = limited_slope(&wm, &w0, &wp);
            let face_lo = half(&w0, &d, -1.0);
            let face_hi = half(&w0, &d, 1.0);
            let f_lo = flux(&face_lo, eos, dir);
            let f_hi = flux(&face_hi, eos, dir);
            let coef = 0.5 * dt_over_dx;
            let evolve = |w: &Primitive| -> Primitive {
                let u = w.to_conserved(eos);
                Conserved {
                    rho: u.rho + coef * (f_lo.rho - f_hi.rho),
                    mx: u.mx + coef * (f_lo.mx - f_hi.mx),
                    my: u.my + coef * (f_lo.my - f_hi.my),
                    e: u.e + coef * (f_lo.e - f_hi.e),
                }
                .to_primitive(eos)
            };
            w_lo.push(evolve(&face_lo));
            w_hi.push(evolve(&face_hi));
        }

        let mut sz = valid.size();
        sz.set(dir, sz.get(dir) + 1);
        let face_box = IndexBox::from_lo_size(valid.lo(), sz);
        let mut fluxes: Vec<Conserved> = Vec::with_capacity(face_box.num_pts() as usize);
        for f in face_box.cells() {
            let left = w_hi[ext.offset(f - unit)];
            let right = w_lo[ext.offset(f)];
            fluxes.push(hllc_flux(&left, &right, eos, dir));
        }

        for c in valid.cells() {
            let f_lo = fluxes[face_box.offset(c)];
            let f_hi = fluxes[face_box.offset(c + unit)];
            let upd = |lo: f64, hi: f64| -dt_over_dx * (hi - lo);
            fab.add(c, URHO, upd(f_lo.rho, f_hi.rho));
            fab.add(c, UMX, upd(f_lo.mx, f_hi.mx));
            fab.add(c, UMY, upd(f_lo.my, f_hi.my));
            fab.add(c, UEDEN, upd(f_lo.e, f_hi.e));
        }
    }

    pub(crate) fn enforce_floors(fab: &mut FArrayBox, valid: &IndexBox) {
        use crate::state::{SMALL_DENS, SMALL_PRES};
        for p in valid.cells() {
            let rho = fab.get(p, URHO);
            if rho < SMALL_DENS {
                fab.set(p, URHO, SMALL_DENS);
                fab.set(p, UMX, 0.0);
                fab.set(p, UMY, 0.0);
            }
            let rho = fab.get(p, URHO);
            let kin = 0.5 * (fab.get(p, UMX).powi(2) + fab.get(p, UMY).powi(2)) / rho;
            let e = fab.get(p, UEDEN);
            if e - kin < rho * SMALL_PRES {
                fab.set(p, UEDEN, kin + rho * SMALL_PRES);
            }
        }
    }

    /// The outflow fill that walks every cell of each boundary fab.
    pub(crate) fn apply_outflow_bc(mf: &mut MultiFab, domain: &IndexBox) {
        let (dlo, dhi) = (domain.lo(), domain.hi());
        for fab in mf.fabs_mut() {
            let g = fab.domain();
            if domain.contains_box(&g) {
                continue;
            }
            for p in g.cells() {
                if !domain.contains(p) {
                    let clamped = IntVect::new(p.x.clamp(dlo.x, dhi.x), p.y.clamp(dlo.y, dhi.y));
                    if g.contains(clamped) {
                        for c in 0..NCOMP {
                            let v = fab.get(clamped, c);
                            fab.set(p, c, v);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{UEDEN, UMX, UMY, URHO};
    use crate::test_support::{boxed, fab_bits, multifab_bits, random_fab, random_level, KINDS};
    use amr_mesh::prelude::*;
    use proptest::prelude::*;

    /// Total conserved quantities over the valid region: `(mass, energy)`.
    fn totals(mf: &MultiFab, geom: &Geometry) -> (f64, f64) {
        let area = geom.cell_area();
        (mf.sum(URHO) * area, mf.sum(UEDEN) * area)
    }

    fn uniform_mf(n: i64, max: i64, w: &Primitive, eos: &GammaLaw) -> (MultiFab, Geometry) {
        let geom = Geometry::unit_square(IntVect::splat(n));
        let ba = BoxArray::single(geom.domain).max_size(max);
        let dm = DistributionMapping::new(&ba, 1, DistributionStrategy::Sfc);
        let mut mf = MultiFab::new(ba, dm, NCOMP, NGROW);
        let u = w.to_conserved(eos);
        mf.set_val(URHO, u.rho);
        mf.set_val(UMX, u.mx);
        mf.set_val(UMY, u.my);
        mf.set_val(UEDEN, u.e);
        (mf, geom)
    }

    fn fill(domain: IndexBox) -> impl FnMut(&mut MultiFab) {
        move |mf: &mut MultiFab| {
            mf.fill_boundary();
            apply_outflow_bc(mf, &domain);
        }
    }

    fn advance(mf: &mut MultiFab, geom: &Geometry, dt: f64, eos: &GammaLaw) {
        let mut scratch = SweepScratch::default();
        advance_level(mf, geom, dt, eos, &mut scratch, fill(geom.domain));
    }

    proptest! {
        /// Both sweep directions, one after the other on one scratch, and
        /// the floors after each, reproduce the per-cell reference bit for
        /// bit on every component of the whole fab: boxes from 1x1 to
        /// 17x17 with a negative low corner, physical, near-floor and
        /// strong-shock states. Each case runs the baseline copy of the
        /// pencil loop, then (on a CPU with AVX2) the AVX2 copy, each on
        /// its own fab.
        #[test]
        fn sweep_and_floors_match_reference_bits(
            lo in (-9i64..4, -9i64..4),
            size in (1i64..18, 1i64..18),
            ngrow in 2i64..4,
            seed in 0u64..u64::MAX,
            kind in 0u8..KINDS,
            first_dir in 0usize..2,
            dt_over_dx in 0.0f64..0.8,
        ) {
            let eos = GammaLaw::default();
            let valid = boxed(lo.0, lo.1, size.0, size.1);
            let start = random_fab(valid, ngrow, seed, kind);
            for wide in [false, true] {
                let mut fab = start.clone();
                let mut oracle = start.clone();
                let mut scratch = SweepScratch::default();
                for dir in [first_dir, 1 - first_dir] {
                    sweep(&mut fab, &valid, dir, dt_over_dx, &eos, &mut scratch, wide);
                    reference::sweep_fab(&mut oracle, &valid, dir, dt_over_dx, &eos);
                    prop_assert_eq!(fab_bits(&fab), fab_bits(&oracle), "sweep {:?} dir {} wide {}", valid, dir, wide);
                    enforce_floors(&mut fab, &valid);
                    reference::enforce_floors(&mut oracle, &valid);
                    prop_assert_eq!(fab_bits(&fab), fab_bits(&oracle), "floors {:?} dir {} wide {}", valid, dir, wide);
                }
            }
        }

        /// The outflow fill touches exactly the reference's cells with
        /// the reference's values, for fabs on every side and corner of
        /// the domain and fabs inside it.
        #[test]
        fn outflow_matches_reference_bits(
            lo in (-6i64..6, -6i64..6),
            size in (1i64..14, 1i64..14),
            max in 1i64..9,
            ngrow in 0i64..4,
            seed in 0u64..u64::MAX,
        ) {
            let domain = boxed(lo.0, lo.1, size.0, size.1);
            let mut mf = random_level(domain, max, ngrow, seed, 0);
            let mut oracle = mf.clone();
            apply_outflow_bc(&mut mf, &domain);
            reference::apply_outflow_bc(&mut oracle, &domain);
            prop_assert_eq!(multifab_bits(&mf), multifab_bits(&oracle));
        }
    }

    #[test]
    fn uniform_state_is_steady() {
        let eos = GammaLaw::default();
        let w = Primitive::new(1.0, 0.0, 0.0, 1.0);
        let (mut mf, geom) = uniform_mf(16, 8, &w, &eos);
        let before = totals(&mf, &geom);
        advance(&mut mf, &geom, 1e-3, &eos);
        let after = totals(&mf, &geom);
        assert!((before.0 - after.0).abs() < 1e-12);
        assert!((before.1 - after.1).abs() < 1e-12);
        // Field stays exactly uniform.
        assert!((mf.max(URHO) - mf.min(URHO)).abs() < 1e-12);
    }

    #[test]
    fn uniform_advection_is_steady() {
        let eos = GammaLaw::default();
        let w = Primitive::new(1.0, 0.5, -0.25, 1.0);
        let (mut mf, geom) = uniform_mf(16, 8, &w, &eos);
        advance(&mut mf, &geom, 1e-3, &eos);
        assert!((mf.max(URHO) - mf.min(URHO)).abs() < 1e-11);
        assert!((mf.max(UMX) - mf.min(UMX)).abs() < 1e-11);
    }

    #[test]
    fn interior_mass_is_conserved_without_boundary_flux() {
        // A blast in the center; before the wave reaches the boundary,
        // total mass and energy are conserved.
        let eos = GammaLaw::default();
        let w = Primitive::new(1.0, 0.0, 0.0, 1e-5);
        let (mut mf, geom) = uniform_mf(32, 16, &w, &eos);
        // Hot spot at the center.
        let hot = Primitive::new(1.0, 0.0, 0.0, 10.0).to_conserved(&eos);
        let center = IndexBox::from_lo_size(IntVect::new(14, 14), IntVect::splat(4));
        for i in 0..mf.nfabs() {
            let fab = mf.fab_mut(i);
            if let Some(r) = fab.domain().intersection(&center) {
                for p in r.cells() {
                    fab.set(p, URHO, hot.rho);
                    fab.set(p, UEDEN, hot.e);
                }
            }
        }
        let before = totals(&mf, &geom);
        let dx = geom.dx()[0];
        let c_max = eos.sound_speed(1.0, 10.0);
        let dt = 0.2 * dx / c_max;
        for _ in 0..5 {
            advance(&mut mf, &geom, dt, &eos);
        }
        let after = totals(&mf, &geom);
        assert!(
            (before.0 - after.0).abs() < 1e-10 * before.0,
            "mass drifted: {} -> {}",
            before.0,
            after.0
        );
        assert!((before.1 - after.1).abs() < 1e-10 * before.1);
        // The wave actually moved: density is no longer uniform outside
        // the initial hot spot.
        assert!(mf.max(URHO) > 1.0 + 1e-6);
    }

    #[test]
    fn multi_fab_matches_single_fab() {
        // The same blast problem partitioned differently must evolve
        // bit-identically (ghost exchange correctness).
        let eos = GammaLaw::default();
        let w = Primitive::new(1.0, 0.0, 0.0, 1e-3);
        let run = |max: i64| {
            let (mut mf, geom) = uniform_mf(32, max, &w, &eos);
            let hot = Primitive::new(2.0, 0.0, 0.0, 5.0).to_conserved(&eos);
            let center = IndexBox::from_lo_size(IntVect::new(12, 12), IntVect::splat(8));
            for i in 0..mf.nfabs() {
                let fab = mf.fab_mut(i);
                if let Some(r) = fab.domain().intersection(&center) {
                    for p in r.cells() {
                        fab.set(p, URHO, hot.rho);
                        fab.set(p, UEDEN, hot.e);
                    }
                }
            }
            let dt = 0.1 * geom.dx()[0] / eos.sound_speed(1.0, 5.0);
            for _ in 0..4 {
                advance(&mut mf, &geom, dt, &eos);
            }
            // Collapse every component to a single array for comparison.
            let mut out = vec![0u64; NCOMP * 32 * 32];
            for (b, fab) in mf.iter() {
                for p in b.cells() {
                    for c in 0..NCOMP {
                        out[(c * 32 * 32) + (p.y * 32 + p.x) as usize] = fab.get(p, c).to_bits();
                    }
                }
            }
            out
        };
        let a = run(32);
        let b = run(8);
        assert!(a == b, "partitioning changed the bits");
    }

    #[test]
    fn outflow_bc_copies_edge_values() {
        let eos = GammaLaw::default();
        let w = Primitive::new(3.0, 0.0, 0.0, 1.0);
        let (mut mf, geom) = uniform_mf(8, 8, &w, &eos);
        mf.set_val(URHO, 3.0);
        apply_outflow_bc(&mut mf, &geom.domain);
        let fab = mf.fab(0);
        assert_eq!(fab.get(IntVect::new(-1, 0), URHO), 3.0);
        assert_eq!(fab.get(IntVect::new(-2, 9), URHO), 3.0);
        assert_eq!(fab.get(IntVect::new(8, 8), URHO), 3.0);
    }
}
