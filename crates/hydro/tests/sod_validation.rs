//! Sod shock-tube verification: the MUSCL–HLLC scheme against the exact
//! Riemann solution, in both sweep directions.

use amr_mesh::prelude::*;
use hydro::exact_riemann::sample_exact;
use hydro::{
    advance_level, apply_outflow_bc, GammaLaw, Primitive, SweepScratch, NCOMP, NGROW, UEDEN, UMX,
    UMY, URHO,
};

/// Runs a 1-D Sod tube along direction `dir` embedded in a thin 2-D strip
/// and returns `(x_centers, numerical_density, exact_density)` at `t_end`.
fn run_sod(dir: usize, n: i64) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let eos = GammaLaw::new(1.4);
    let (nx, ny) = if dir == 0 { (n, 8) } else { (8, n) };
    let geom = Geometry::new(
        IndexBox::at_origin(IntVect::new(nx, ny)),
        [0.0, 0.0],
        if dir == 0 {
            [1.0, 8.0 / n as f64]
        } else {
            [8.0 / n as f64, 1.0]
        },
    );
    let ba = BoxArray::single(geom.domain).max_size(n / 2);
    let dm = DistributionMapping::new(&ba, 1, DistributionStrategy::Sfc);
    let mut mf = MultiFab::new(ba, dm, NCOMP, NGROW);

    let wl = Primitive::new(1.0, 0.0, 0.0, 1.0);
    let wr = Primitive::new(0.125, 0.0, 0.0, 0.1);
    for i in 0..mf.nfabs() {
        let fab = mf.fab_mut(i);
        let dom = fab.domain();
        for p in dom.cells() {
            let c = geom.cell_center(p);
            let coord = c[dir];
            let w = if coord < 0.5 { wl } else { wr };
            let u = w.to_conserved(&eos);
            fab.set(p, URHO, u.rho);
            fab.set(p, UMX, u.mx);
            fab.set(p, UMY, u.my);
            fab.set(p, UEDEN, u.e);
        }
    }

    let t_end = 0.2;
    let mut t = 0.0;
    let dx = geom.dx()[dir];
    let mut scratch = SweepScratch::default();
    while t < t_end {
        let dt = (0.4 * dx / 2.0).min(t_end - t); // max speed < 2 for Sod
        let domain = geom.domain;
        advance_level(
            &mut mf,
            &geom,
            dt,
            &eos,
            &mut scratch,
            |m: &mut MultiFab| {
                m.fill_boundary();
                apply_outflow_bc(m, &domain);
            },
        );
        t += dt;
    }

    // Extract the centerline profile.
    let mut xs = Vec::new();
    let mut num = Vec::new();
    let mut exact = Vec::new();
    let mid = 4; // transverse row
    for k in 0..n {
        let p = if dir == 0 {
            IntVect::new(k, mid)
        } else {
            IntVect::new(mid, k)
        };
        for (valid, fab) in mf.iter() {
            if valid.contains(p) {
                let c = geom.cell_center(p);
                let coord = c[dir];
                xs.push(coord);
                num.push(fab.get(p, URHO));
                let xi = (coord - 0.5) / t_end;
                // The exact solver treats `u` as the normal velocity.
                let w = sample_exact(&wl, &wr, &eos, xi);
                exact.push(w.rho);
                break;
            }
        }
    }
    (xs, num, exact)
}

fn l1_error(num: &[f64], exact: &[f64]) -> f64 {
    num.iter()
        .zip(exact)
        .map(|(a, b)| (a - b).abs())
        .sum::<f64>()
        / num.len() as f64
}

#[test]
fn sod_profile_converges_to_exact_in_x() {
    let (_, num, exact) = run_sod(0, 256);
    let err = l1_error(&num, &exact);
    assert!(err < 0.012, "L1 density error {err}");
    // The shock plateau is captured: density between the contact and the
    // shock must reach ~0.2656.
    let plateau = num
        .iter()
        .zip(&exact)
        .filter(|(_, e)| (**e - 0.26557).abs() < 1e-3)
        .map(|(n, _)| *n)
        .collect::<Vec<_>>();
    assert!(!plateau.is_empty());
    let mean: f64 = plateau.iter().sum::<f64>() / plateau.len() as f64;
    assert!((mean - 0.26557).abs() < 0.02, "plateau {mean}");
}

#[test]
fn sod_profile_converges_to_exact_in_y() {
    // Dimensional symmetry: the y sweep must match the x sweep quality.
    let (_, num, exact) = run_sod(1, 256);
    let err = l1_error(&num, &exact);
    assert!(err < 0.012, "L1 density error {err}");
}

#[test]
fn sod_error_decreases_with_resolution() {
    let (_, n1, e1) = run_sod(0, 128);
    let (_, n2, e2) = run_sod(0, 512);
    let err_coarse = l1_error(&n1, &e1);
    let err_fine = l1_error(&n2, &e2);
    assert!(
        err_fine < 0.6 * err_coarse,
        "no convergence: {err_coarse} -> {err_fine}"
    );
}
