//! Physics validation of the Sedov solve against the similarity solution —
//! the evidence that the large-scale oracle substitutes faithfully for the
//! PDE solver (docs/MODEL.md, "Documented substitutions").

use amr_mesh::prelude::*;
use hydro::{
    AmrConfig, AmrSim, Conserved, SedovProblem, TagCriteria, TimestepControl, UEDEN, UMX, UMY, URHO,
};

fn sim(n_cell: i64, max_level: usize) -> AmrSim {
    AmrSim::new(AmrConfig {
        n_cell,
        max_level,
        grid: GridParams {
            ref_ratio: 2,
            blocking_factor: 8,
            max_grid_size: 64,
            n_error_buf: 2,
            grid_eff: 0.7,
        },
        regrid_int: 2,
        nranks: 4,
        strategy: DistributionStrategy::Sfc,
        ctrl: TimestepControl {
            cfl: 0.5,
            init_shrink: 0.5,
            change_max: 1.4,
        },
        tag: TagCriteria::default(),
        problem: SedovProblem::default(),
    })
}

/// Radius of the density maximum on level 0 (the shock front proxy).
fn density_peak_radius(sim: &AmrSim) -> f64 {
    let l0 = &sim.levels()[0];
    let mut best = (0.0f64, 0.0f64); // (rho, r)
    for (valid, fab) in l0.mf.iter() {
        for p in valid.cells() {
            let rho = fab.get(p, URHO);
            if rho > best.0 {
                let c = l0.geom.cell_center(p);
                let r = ((c[0] - 0.5f64).powi(2) + (c[1] - 0.5f64).powi(2)).sqrt();
                best = (rho, r);
            }
        }
    }
    best.1
}

#[test]
fn blast_stays_four_fold_symmetric() {
    let mut s = sim(64, 1);
    for _ in 0..30 {
        s.step();
    }
    let l0 = &s.levels()[0];
    let n = 64i64;
    // Reflecting a cell through the center must give the same density:
    // the scheme is symmetric and the IC is centered.
    for (valid, fab) in l0.mf.iter() {
        for p in valid.cells() {
            let q = IntVect::new(n - 1 - p.x, n - 1 - p.y);
            let rho_p = fab.get(p, URHO);
            let rho_q = {
                // Find the fab holding q.
                let mut v = None;
                for (vb, f2) in l0.mf.iter() {
                    if vb.contains(q) {
                        v = Some(f2.get(q, URHO));
                        break;
                    }
                }
                v.expect("mirror cell exists")
            };
            assert!(
                (rho_p - rho_q).abs() < 1e-8 * rho_p.abs().max(1.0),
                "asymmetry at {p}: {rho_p} vs {rho_q}"
            );
        }
    }
}

#[test]
fn shock_radius_tracks_similarity_solution() {
    let mut s = sim(128, 1);
    // March until the blast is well into the self-similar regime.
    let mut samples: Vec<(f64, f64)> = Vec::new();
    for _ in 0..220 {
        let info = s.step();
        if info.step.is_multiple_of(20) {
            let r = density_peak_radius(&s);
            if r > 0.08 {
                samples.push((info.time, r));
            }
        }
        if s.time() > 0.05 {
            break;
        }
    }
    assert!(
        samples.len() >= 3,
        "need self-similar samples, got {samples:?}"
    );
    // r ~ xi (E t^2 / rho)^(1/4): check the measured exponent by log-log
    // regression and the prefactor against the oracle's assumption.
    let prob = SedovProblem::default();
    for &(t, r) in &samples {
        let pred = prob.shock_radius(t);
        let rel = (r - pred).abs() / pred;
        assert!(
            rel < 0.25,
            "shock at t={t}: measured {r}, similarity {pred}, rel {rel}"
        );
    }
    // Radius grows monotonically.
    assert!(samples.windows(2).all(|w| w[1].1 >= w[0].1 - 1e-12));
}

#[test]
fn total_energy_matches_deposit_during_expansion() {
    let mut s = sim(64, 1);
    let area = s.levels()[0].geom.cell_area();
    let e0: f64 = s.levels()[0].mf.sum(UEDEN) * area;
    for _ in 0..20 {
        s.step();
    }
    let e1: f64 = s.levels()[0].mf.sum(UEDEN) * area;
    // Energy conserved to the no-reflux tolerance while the wave is
    // interior.
    assert!((e1 - e0).abs() < 5e-3 * e0, "energy {e0} -> {e1}");
}

#[test]
fn momentum_stays_centered() {
    let mut s = sim(64, 1);
    for _ in 0..25 {
        s.step();
    }
    let l0 = &s.levels()[0];
    // Net momentum of a centered symmetric blast is zero.
    let mx: f64 = l0.mf.sum(UMX);
    let my: f64 = l0.mf.sum(UMY);
    let scale: f64 = l0
        .mf
        .iter()
        .map(|(b, f)| b.cells().map(|p| f.get(p, UMX).abs()).sum::<f64>())
        .sum::<f64>()
        .max(1e-300);
    assert!(mx.abs() / scale < 1e-8, "net x momentum {mx}");
    assert!(my.abs() / scale < 1e-8, "net y momentum {my}");
}

#[test]
fn post_shock_density_approaches_strong_shock_limit() {
    let mut s = sim(128, 1);
    for _ in 0..250 {
        s.step();
        if s.time() > 0.02 {
            break;
        }
    }
    let peak = s.levels()[0].mf.max(URHO);
    // post_shock_density() is 6 for gamma = 1.4. Numerical diffusion smears
    // the peak; it must sit well above the ambient density and below the
    // analytic limit.
    let limit = SedovProblem::default().post_shock_density();
    assert!(peak > 2.0, "peak density {peak} too low");
    assert!(
        peak < limit * 1.05,
        "peak density {peak} above RH limit {limit}"
    );
    // And the state is physical everywhere.
    for l in s.levels() {
        for (b, f) in l.mf.iter() {
            for p in b.cells() {
                let w = Conserved::new(
                    f.get(p, URHO),
                    f.get(p, UMX),
                    f.get(p, UMY),
                    f.get(p, UEDEN),
                )
                .to_primitive(s.eos());
                assert!(w.rho > 0.0 && w.p > 0.0 && w.rho.is_finite());
            }
        }
    }
}
