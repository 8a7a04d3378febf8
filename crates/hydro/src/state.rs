//! Conserved and primitive state of the 2-D Euler equations.

use crate::eos::GammaLaw;

/// Number of conserved components.
pub const NCOMP: usize = 4;
/// Density component index.
pub const URHO: usize = 0;
/// x-momentum component index.
pub const UMX: usize = 1;
/// y-momentum component index.
pub const UMY: usize = 2;
/// Total energy density component index.
pub const UEDEN: usize = 3;

/// Conserved state at one cell: `(rho, rho u, rho v, rho E)`.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct Conserved {
    /// Mass density.
    pub rho: f64,
    /// x momentum density.
    pub mx: f64,
    /// y momentum density.
    pub my: f64,
    /// Total energy density (internal + kinetic).
    pub e: f64,
}

/// Primitive state at one cell: `(rho, u, v, p)`.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct Primitive {
    /// Mass density.
    pub rho: f64,
    /// x velocity.
    pub u: f64,
    /// y velocity.
    pub v: f64,
    /// Pressure.
    pub p: f64,
}

/// Density floor applied during conversions; the Sedov ambient state is
/// far above this, so the floor only guards against transient negativity.
pub(crate) const SMALL_DENS: f64 = 1e-12;
/// Pressure floor.
pub(crate) const SMALL_PRES: f64 = 1e-14;

impl Conserved {
    /// Creates a conserved state from components.
    pub fn new(rho: f64, mx: f64, my: f64, e: f64) -> Self {
        Self { rho, mx, my, e }
    }

    /// Converts to primitives under `eos`, applying floors.
    #[inline]
    pub fn to_primitive(&self, eos: &GammaLaw) -> Primitive {
        let rho = self.rho.max(SMALL_DENS);
        let u = self.mx / rho;
        let v = self.my / rho;
        let kin = 0.5 * rho * (u * u + v * v);
        let e_int = ((self.e - kin) / rho).max(SMALL_PRES);
        Primitive {
            rho,
            u,
            v,
            p: eos.pressure(rho, e_int).max(SMALL_PRES),
        }
    }
}

impl Primitive {
    /// Creates a primitive state from components.
    pub fn new(rho: f64, u: f64, v: f64, p: f64) -> Self {
        Self { rho, u, v, p }
    }

    /// Converts to conserved form under `eos`.
    #[inline]
    pub fn to_conserved(&self, eos: &GammaLaw) -> Conserved {
        let e_int = eos.internal_energy(self.rho, self.p);
        Conserved {
            rho: self.rho,
            mx: self.rho * self.u,
            my: self.rho * self.v,
            e: self.rho * e_int + 0.5 * self.rho * (self.u * self.u + self.v * self.v),
        }
    }

    /// Sound speed under `eos`.
    #[inline]
    pub fn sound_speed(&self, eos: &GammaLaw) -> f64 {
        eos.sound_speed(self.rho, self.p)
    }

    /// Velocity component along direction `dir` (0 = x, 1 = y).
    #[inline]
    pub(crate) fn vel(&self, dir: usize) -> f64 {
        if dir == 0 {
            self.u
        } else {
            self.v
        }
    }

    /// Flow Mach number.
    pub fn mach(&self, eos: &GammaLaw) -> f64 {
        (self.u * self.u + self.v * self.v).sqrt() / self.sound_speed(eos)
    }
}

/// Physical flux of the conserved state along `dir` given primitives.
pub fn flux(w: &Primitive, eos: &GammaLaw, dir: usize) -> Conserved {
    flux_from(w, &w.to_conserved(eos), dir)
}

/// [`flux`] of `w` whose conserved form `cons` the caller already holds.
#[inline]
pub(crate) fn flux_from(w: &Primitive, cons: &Conserved, dir: usize) -> Conserved {
    let un = w.vel(dir);
    let mut f = Conserved {
        rho: cons.rho * un,
        mx: cons.mx * un,
        my: cons.my * un,
        e: (cons.e + w.p) * un,
    };
    if dir == 0 {
        f.mx += w.p;
    } else {
        f.my += w.p;
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_conversion() {
        let eos = GammaLaw::default();
        let w = Primitive::new(1.2, 0.3, -0.4, 2.5);
        let u = w.to_conserved(&eos);
        let w2 = u.to_primitive(&eos);
        assert!((w.rho - w2.rho).abs() < 1e-13);
        assert!((w.u - w2.u).abs() < 1e-13);
        assert!((w.v - w2.v).abs() < 1e-13);
        assert!((w.p - w2.p).abs() < 1e-13);
    }

    #[test]
    fn floors_guard_negative_energy() {
        let eos = GammaLaw::default();
        let u = Conserved::new(1.0, 10.0, 0.0, 1.0); // kinetic > total
        let w = u.to_primitive(&eos);
        assert!(w.p > 0.0);
        assert!(w.rho > 0.0);
    }

    #[test]
    fn static_state_flux_is_pressure_only() {
        let eos = GammaLaw::default();
        let w = Primitive::new(1.0, 0.0, 0.0, 3.0);
        let fx = flux(&w, &eos, 0);
        assert_eq!(fx.rho, 0.0);
        assert_eq!(fx.mx, 3.0);
        assert_eq!(fx.my, 0.0);
        assert_eq!(fx.e, 0.0);
        let fy = flux(&w, &eos, 1);
        assert_eq!(fy.my, 3.0);
        assert_eq!(fy.mx, 0.0);
    }

    #[test]
    fn advective_flux_carries_mass() {
        let eos = GammaLaw::default();
        let w = Primitive::new(2.0, 3.0, 0.0, 1.0);
        let fx = flux(&w, &eos, 0);
        assert!((fx.rho - 6.0).abs() < 1e-14);
    }

    #[test]
    fn mach_number() {
        let eos = GammaLaw::default();
        let w = Primitive::new(1.0, eos.sound_speed(1.0, 1.0), 0.0, 1.0);
        assert!((w.mach(&eos) - 1.0).abs() < 1e-13);
    }
}
