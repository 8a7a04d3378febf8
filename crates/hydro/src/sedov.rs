//! Sedov blast-wave problem setup and similarity solution.
//!
//! The paper's pivot workload: the Castro `Sedov` hydro test, 2-D cylinder
//! in Cartesian coordinates (a cylindrical charge viewed in the x-y
//! plane). This module provides the initial conditions and the
//! Sedov–Taylor similarity solution used by the large-scale oracle.

use crate::eos::GammaLaw;
use crate::state::{Primitive, NCOMP, UEDEN, UMX, UMY, URHO};
use amr_mesh::{Geometry, MultiFab};
use serde::{Deserialize, Serialize};

/// Sedov problem parameters (Castro `probin` names).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SedovProblem {
    /// Ambient density (`dens_ambient`).
    pub dens_ambient: f64,
    /// Ambient pressure (`p_ambient`).
    pub p_ambient: f64,
    /// Total deposited blast energy per unit length (`exp_energy`).
    pub exp_energy: f64,
    /// Initial radius of the energy deposit (`r_init`), in domain units.
    pub r_init: f64,
    /// Blast center in physical coordinates.
    pub center: [f64; 2],
    /// Ratio of specific heats.
    pub gamma: f64,
}

impl Default for SedovProblem {
    /// The Castro 2-D `cyl_in_cartcoords` setup: unit ambient density,
    /// cold background, unit blast energy at the domain center.
    fn default() -> Self {
        Self {
            dens_ambient: 1.0,
            p_ambient: 1e-5,
            exp_energy: 1.0,
            r_init: 0.01,
            center: [0.5, 0.5],
            gamma: 1.4,
        }
    }
}

impl SedovProblem {
    /// The EOS implied by the problem.
    pub(crate) fn eos(&self) -> GammaLaw {
        GammaLaw::new(self.gamma)
    }

    /// Effective deposit radius for a grid of spacing `dx`: at least
    /// `r_init` but never under-resolved (Castro smooths the deposit over
    /// a few fine cells for the same reason).
    pub(crate) fn deposit_radius(&self, dx: f64) -> f64 {
        self.r_init.max(2.5 * dx)
    }

    /// Fills a level's conserved state with the initial condition.
    ///
    /// Cells inside the deposit radius share the blast energy uniformly
    /// (energy density `E / (pi r^2)` for the cylindrical charge); all
    /// cells start at ambient density and zero velocity.
    pub(crate) fn init_level(&self, mf: &mut MultiFab, geom: &Geometry) {
        assert_eq!(mf.ncomp(), NCOMP, "init_level: wrong component count");
        let eos = self.eos();
        let dx = geom.dx();
        let r_dep = self.deposit_radius(dx[0].max(dx[1]));
        let e_blast = self.exp_energy / (std::f64::consts::PI * r_dep * r_dep);
        let ambient =
            Primitive::new(self.dens_ambient, 0.0, 0.0, self.p_ambient).to_conserved(&eos);
        let e_ambient = ambient.e;
        let nfabs = mf.nfabs();
        for i in 0..nfabs {
            let fab = mf.fab_mut(i);
            let dom = fab.domain();
            for p in dom.cells() {
                let c = geom.cell_center(p);
                let r = ((c[0] - self.center[0]).powi(2) + (c[1] - self.center[1]).powi(2)).sqrt();
                fab.set(p, URHO, self.dens_ambient);
                fab.set(p, UMX, 0.0);
                fab.set(p, UMY, 0.0);
                let e = if r <= r_dep {
                    self.dens_ambient * eos.internal_energy(self.dens_ambient, 1.0) * 0.0 + e_blast
                } else {
                    e_ambient
                };
                fab.set(p, UEDEN, e);
            }
        }
    }

    /// Sedov–Taylor shock radius at time `t` for the 2-D (cylindrical)
    /// blast: `r_s(t) = xi0 * (E t^2 / rho)^(1/4)`.
    ///
    /// `xi0` is the dimensionless similarity constant; for `gamma = 1.4`
    /// in cylindrical symmetry it is close to 1 (we use 1.0, adequate for
    /// workload geometry).
    pub fn shock_radius(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return self.deposit_radius(0.0);
        }
        (self.exp_energy * t * t / self.dens_ambient).powf(0.25)
    }

    /// Shock speed `dr_s/dt` at time `t` (infinite at `t = 0` is clamped
    /// by evaluating from the deposit radius).
    pub(crate) fn shock_speed(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return f64::INFINITY;
        }
        0.5 * self.shock_radius(t) / t
    }

    /// Time at which the shock reaches radius `r` (inverse of
    /// [`SedovProblem::shock_radius`]).
    pub(crate) fn time_at_radius(&self, r: f64) -> f64 {
        (r.powi(4) * self.dens_ambient / self.exp_energy).sqrt()
    }

    /// Immediate post-shock density from the strong-shock Rankine–Hugoniot
    /// jump: `rho2 = rho1 (gamma+1)/(gamma-1)`.
    pub fn post_shock_density(&self) -> f64 {
        self.dens_ambient * (self.gamma + 1.0) / (self.gamma - 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::NGROW;
    use amr_mesh::prelude::*;

    fn make_level(n: i64) -> (MultiFab, Geometry) {
        let geom = Geometry::unit_square(IntVect::splat(n));
        let ba = BoxArray::single(geom.domain).max_size(n);
        let dm = DistributionMapping::new(&ba, 1, DistributionStrategy::Sfc);
        (MultiFab::new(ba, dm, NCOMP, NGROW), geom)
    }

    #[test]
    fn init_deposits_total_energy() {
        let prob = SedovProblem::default();
        let (mut mf, geom) = make_level(128);
        prob.init_level(&mut mf, &geom);
        let total_e = mf.sum(UEDEN) * geom.cell_area();
        // Total energy ~ exp_energy up to pixelation of the small deposit
        // disc (only ~20 cells at this resolution); ambient energy is
        // negligible.
        assert!(
            (total_e - prob.exp_energy).abs() < 0.25 * prob.exp_energy,
            "E = {total_e}"
        );
    }

    #[test]
    fn init_is_ambient_far_away() {
        let prob = SedovProblem::default();
        let (mut mf, geom) = make_level(64);
        prob.init_level(&mut mf, &geom);
        let corner = mf.fab(0).get(IntVect::new(0, 0), URHO);
        assert_eq!(corner, 1.0);
        let e_corner = mf.fab(0).get(IntVect::new(0, 0), UEDEN);
        assert!(e_corner < 1e-3);
        assert_eq!(mf.fab(0).get(IntVect::new(0, 0), UMX), 0.0);
    }

    #[test]
    fn shock_radius_grows_as_sqrt_t() {
        let prob = SedovProblem::default();
        let r1 = prob.shock_radius(0.01);
        let r2 = prob.shock_radius(0.04);
        assert!((r2 / r1 - 2.0).abs() < 1e-12, "t^(1/2) scaling in 2D");
    }

    #[test]
    fn time_radius_round_trip() {
        let prob = SedovProblem::default();
        let t = prob.time_at_radius(0.3);
        assert!((prob.shock_radius(t) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn shock_speed_decays() {
        let prob = SedovProblem::default();
        assert!(prob.shock_speed(0.01) > prob.shock_speed(0.02));
        assert!(prob.shock_speed(0.0).is_infinite());
    }

    #[test]
    fn strong_shock_jump_for_gamma_14() {
        let prob = SedovProblem::default();
        assert!((prob.post_shock_density() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn deposit_radius_respects_resolution() {
        let prob = SedovProblem::default();
        assert_eq!(prob.deposit_radius(1.0 / 4096.0), 0.01);
        assert!(prob.deposit_radius(1.0 / 32.0) > 0.01);
    }
}
