//! CFL time-step control.
//!
//! Reproduces Castro's step-size logic, which the paper identifies as an
//! I/O driver: `castro.cfl` changes how far the blast travels per step,
//! which changes the refined area at each plot step and therefore the
//! bytes written (Fig. 6).

use crate::eos::GammaLaw;
use crate::state::{Conserved, UEDEN, UMX, UMY, URHO};
use amr_mesh::{Geometry, MultiFab};
use serde::{Deserialize, Serialize};

/// Time-step controller parameters (Castro input names).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TimestepControl {
    /// CFL number (`castro.cfl`).
    pub cfl: f64,
    /// First-step shrink factor (`castro.init_shrink`).
    pub init_shrink: f64,
    /// Maximum growth of `dt` between steps (`castro.change_max`).
    pub change_max: f64,
}

impl Default for TimestepControl {
    /// Listing 2 defaults: `cfl = 0.5`, `init_shrink = 0.01`,
    /// `change_max = 1.1`.
    fn default() -> Self {
        Self {
            cfl: 0.5,
            init_shrink: 0.01,
            change_max: 1.1,
        }
    }
}

/// Largest stable `dt` for one level under the CFL condition:
/// `cfl * min over cells, dirs of dx_d / (|u_d| + c)`.
pub(crate) fn cfl_dt(mf: &MultiFab, geom: &Geometry, eos: &GammaLaw, cfl: f64) -> f64 {
    let dx = geom.dx();
    let mut dt = f64::INFINITY;
    for (valid, fab) in mf.iter() {
        let [rho, mx, my, e] = [URHO, UMX, UMY, UEDEN].map(|c| fab.comp(c));
        for k in fab.rows(&valid).flatten() {
            let w = Conserved::new(rho[k], mx[k], my[k], e[k]).to_primitive(eos);
            let c = w.sound_speed(eos);
            dt = dt.min(dx[0] / (w.u.abs() + c));
            dt = dt.min(dx[1] / (w.v.abs() + c));
        }
    }
    cfl * dt
}

/// Applies Castro's step-to-step limiting: the first step is shrunk by
/// `init_shrink`; later steps may grow at most `change_max` per step.
pub(crate) fn limit_dt(ctrl: &TimestepControl, dt_cfl: f64, dt_prev: Option<f64>) -> f64 {
    match dt_prev {
        None => dt_cfl * ctrl.init_shrink,
        Some(prev) => dt_cfl.min(prev * ctrl.change_max),
    }
}

/// Test oracle for [`cfl_dt`]: the same scan with `get` addressing.
#[cfg(test)]
fn cfl_dt_reference(mf: &MultiFab, geom: &Geometry, eos: &GammaLaw, cfl: f64) -> f64 {
    let dx = geom.dx();
    let mut dt = f64::INFINITY;
    for (valid, fab) in mf.iter() {
        for p in valid.cells() {
            let w = Conserved::new(
                fab.get(p, URHO),
                fab.get(p, UMX),
                fab.get(p, UMY),
                fab.get(p, UEDEN),
            )
            .to_primitive(eos);
            let c = w.sound_speed(eos);
            dt = dt.min(dx[0] / (w.u.abs() + c));
            dt = dt.min(dx[1] / (w.v.abs() + c));
        }
    }
    cfl * dt
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::NGROW;
    use crate::state::{Primitive, NCOMP};
    use crate::test_support::{boxed, random_level, KINDS};
    use amr_mesh::prelude::*;
    use proptest::prelude::*;

    proptest! {
        /// The flat scan returns the reference's bits on multi-fab levels
        /// of physical, near-floor and strong-shock states.
        #[test]
        fn cfl_dt_matches_reference_bits(
            size in (1i64..20, 1i64..20),
            max in 1i64..12,
            ngrow in 0i64..3,
            seed in 0u64..u64::MAX,
            kind in 0u8..KINDS,
            cfl in 0.1f64..1.0,
        ) {
            let domain = boxed(0, 0, size.0, size.1);
            let geom = Geometry::new(domain, [0.0, 0.0], [1.0, size.1 as f64 / size.0 as f64]);
            let mf = random_level(domain, max, ngrow, seed, kind);
            let eos = GammaLaw::default();
            prop_assert_eq!(
                cfl_dt(&mf, &geom, &eos, cfl).to_bits(),
                cfl_dt_reference(&mf, &geom, &eos, cfl).to_bits()
            );
        }
    }

    fn static_mf(n: i64, p: f64) -> (MultiFab, Geometry) {
        let geom = Geometry::unit_square(IntVect::splat(n));
        let ba = BoxArray::single(geom.domain).max_size(n);
        let dm = DistributionMapping::new(&ba, 1, DistributionStrategy::Sfc);
        let mut mf = MultiFab::new(ba, dm, NCOMP, NGROW);
        let eos = GammaLaw::default();
        let u = Primitive::new(1.0, 0.0, 0.0, p).to_conserved(&eos);
        mf.set_val(URHO, u.rho);
        mf.set_val(UEDEN, u.e);
        (mf, geom)
    }

    #[test]
    fn static_gas_dt_is_dx_over_c() {
        let eos = GammaLaw::default();
        let (mf, geom) = static_mf(32, 1.0);
        let dt = cfl_dt(&mf, &geom, &eos, 1.0);
        let expect = geom.dx()[0] / eos.sound_speed(1.0, 1.0);
        assert!((dt - expect).abs() < 1e-14);
    }

    #[test]
    fn cfl_scales_linearly() {
        let eos = GammaLaw::default();
        let (mf, geom) = static_mf(32, 1.0);
        let a = cfl_dt(&mf, &geom, &eos, 0.3);
        let b = cfl_dt(&mf, &geom, &eos, 0.6);
        assert!((b / a - 2.0).abs() < 1e-12);
    }

    #[test]
    fn hotter_gas_shrinks_dt() {
        let eos = GammaLaw::default();
        let (mf1, geom) = static_mf(32, 1.0);
        let (mf2, _) = static_mf(32, 100.0);
        assert!(cfl_dt(&mf2, &geom, &eos, 0.5) < cfl_dt(&mf1, &geom, &eos, 0.5));
    }

    #[test]
    fn first_step_is_shrunk() {
        let ctrl = TimestepControl::default();
        assert!((limit_dt(&ctrl, 1.0, None) - 0.01).abs() < 1e-15);
    }

    #[test]
    fn growth_is_capped() {
        let ctrl = TimestepControl::default();
        assert!((limit_dt(&ctrl, 1.0, Some(0.01)) - 0.011).abs() < 1e-15);
        // When CFL dt is the binding constraint, it wins.
        assert!((limit_dt(&ctrl, 0.005, Some(0.01)) - 0.005).abs() < 1e-15);
    }
}
