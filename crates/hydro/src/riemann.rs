//! HLLC approximate Riemann solver.
//!
//! The flux scheme Castro-class codes use for compressible hydro: a
//! three-wave (left, contact, right) approximation that resolves shocks
//! and contact discontinuities — essential for the Sedov blast, whose
//! refined-region geometry (and therefore the I/O workload) is set by the
//! shock front.

use crate::eos::GammaLaw;
use crate::state::{flux_from, Conserved, Primitive};

/// HLLC flux across an interface with left state `wl`, right state `wr`,
/// along direction `dir` (0 = x, 1 = y).
///
/// Branch-free in the data: every candidate is computed and the result is
/// selected, so a loop of these solves vectorizes. The upwind state is
/// converted to conserved form once and shared by its physical flux and
/// the star-state construction.
#[inline]
pub fn hllc_flux(wl: &Primitive, wr: &Primitive, eos: &GammaLaw, dir: usize) -> Conserved {
    let cl = wl.sound_speed(eos);
    let cr = wr.sound_speed(eos);
    let ul = wl.vel(dir);
    let ur = wr.vel(dir);

    // Davis wave-speed estimates.
    let s_l = (ul - cl).min(ur - cr);
    let s_r = (ul + cl).max(ur + cr);

    // Contact (star) speed.
    let denom = wl.rho * (s_l - ul) - wr.rho * (s_r - ur);
    let s_star = if denom.abs() < 1e-300 {
        0.5 * (ul + ur)
    } else {
        (wr.p - wl.p + wl.rho * ul * (s_l - ul) - wr.rho * ur * (s_r - ur)) / denom
    };

    // Supersonic to the right takes the left flux, supersonic to the left
    // the right flux; inside the fan (NaN speeds included) the contact
    // picks the side, which then gets the star correction.
    let (to_right, to_left) = (s_l >= 0.0, s_r <= 0.0);
    let in_fan = !to_right && !to_left;
    let left = to_right || (in_fan && s_star >= 0.0);
    let sel = |a: f64, b: f64| if left { a } else { b };
    let w = Primitive {
        rho: sel(wl.rho, wr.rho),
        u: sel(wl.u, wr.u),
        v: sel(wl.v, wr.v),
        p: sel(wl.p, wr.p),
    };
    let (s, u_n) = (sel(s_l, s_r), sel(ul, ur));
    // Both sides' momenta, selected: `w.rho * w.u` bit for bit, and each
    // velocity load gets a second use, so LLVM keeps a select of loaded
    // values instead of a load through a selected pointer, which the loop
    // vectorizer cannot bound.
    let cons = Conserved {
        mx: sel(wl.rho * wl.u, wr.rho * wr.u),
        my: sel(wl.rho * wl.v, wr.rho * wr.v),
        ..w.to_conserved(eos)
    };
    let f = flux_from(&w, &cons, dir);

    // Star-region conserved state (Toro's HLLC construction).
    let factor = w.rho * (s - u_n) / (s - s_star);
    let mut u_star = Conserved {
        rho: factor,
        mx: factor * w.u,
        my: factor * w.v,
        e: factor * (cons.e / w.rho + (s_star - u_n) * (s_star + w.p / (w.rho * (s - u_n)))),
    };
    if dir == 0 {
        u_star.mx = factor * s_star;
    } else {
        u_star.my = factor * s_star;
    }

    let star = Conserved {
        rho: f.rho + s * (u_star.rho - cons.rho),
        mx: f.mx + s * (u_star.mx - cons.mx),
        my: f.my + s * (u_star.my - cons.my),
        e: f.e + s * (u_star.e - cons.e),
    };
    if in_fan {
        star
    } else {
        f
    }
}

/// Test oracle for [`hllc_flux`]: the same solve written with one early
/// return per wave configuration.
#[cfg(test)]
pub(crate) mod reference {
    use crate::eos::GammaLaw;
    use crate::state::{flux, Conserved, Primitive};

    /// HLLC flux, one branch per wave configuration.
    pub(crate) fn hllc_flux(
        wl: &Primitive,
        wr: &Primitive,
        eos: &GammaLaw,
        dir: usize,
    ) -> Conserved {
        let cl = wl.sound_speed(eos);
        let cr = wr.sound_speed(eos);
        let ul = wl.vel(dir);
        let ur = wr.vel(dir);

        // Davis wave-speed estimates.
        let s_l = (ul - cl).min(ur - cr);
        let s_r = (ul + cl).max(ur + cr);

        if s_l >= 0.0 {
            return flux(wl, eos, dir);
        }
        if s_r <= 0.0 {
            return flux(wr, eos, dir);
        }

        // Contact (star) speed.
        let denom = wl.rho * (s_l - ul) - wr.rho * (s_r - ur);
        let s_star = if denom.abs() < 1e-300 {
            0.5 * (ul + ur)
        } else {
            (wr.p - wl.p + wl.rho * ul * (s_l - ul) - wr.rho * ur * (s_r - ur)) / denom
        };

        let (w, s, u_n) = if s_star >= 0.0 {
            (wl, s_l, ul)
        } else {
            (wr, s_r, ur)
        };
        let cons = w.to_conserved(eos);
        let f = flux(w, eos, dir);

        // Star-region conserved state (Toro's HLLC construction).
        let factor = w.rho * (s - u_n) / (s - s_star);
        let mut u_star = Conserved {
            rho: factor,
            mx: factor * if dir == 0 { s_star } else { w.u },
            my: factor * if dir == 1 { s_star } else { w.v },
            e: factor * (cons.e / w.rho + (s_star - u_n) * (s_star + w.p / (w.rho * (s - u_n)))),
        };
        if dir == 0 {
            u_star.mx = factor * s_star;
        } else {
            u_star.my = factor * s_star;
        }

        Conserved {
            rho: f.rho + s * (u_star.rho - cons.rho),
            mx: f.mx + s * (u_star.mx - cons.mx),
            my: f.my + s * (u_star.my - cons.my),
            e: f.e + s * (u_star.e - cons.e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::flux;
    use crate::test_support::{state, Rng, KINDS};
    use proptest::prelude::*;

    fn eos() -> GammaLaw {
        GammaLaw::default()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The selecting solve reproduces the branching one bit for bit
        /// on physical, near-floor and strong-shock interface pairs.
        #[test]
        fn hllc_matches_reference_bits(seed in 0u64..u64::MAX, kind in 0u8..KINDS, dir in 0usize..2) {
            let eos = eos();
            let mut rng = Rng::new(seed);
            for _ in 0..16 {
                let wl = state(&mut rng, kind, &eos).to_primitive(&eos);
                let wr = state(&mut rng, kind, &eos).to_primitive(&eos);
                let f = hllc_flux(&wl, &wr, &eos, dir);
                let g = reference::hllc_flux(&wl, &wr, &eos, dir);
                let bits = |c: Conserved| [c.rho, c.mx, c.my, c.e].map(f64::to_bits);
                prop_assert_eq!(bits(f), bits(g), "{:?} | {:?} dir {}", wl, wr, dir);
            }
        }
    }

    #[test]
    fn symmetric_states_give_zero_mass_flux() {
        let w = Primitive::new(1.0, 0.0, 0.0, 1.0);
        let f = hllc_flux(&w, &w, &eos(), 0);
        assert!(f.rho.abs() < 1e-14);
        assert!((f.mx - 1.0).abs() < 1e-12); // pressure term
        assert!(f.e.abs() < 1e-14);
    }

    #[test]
    fn consistency_with_exact_flux_for_uniform_flow() {
        // Supersonic uniform flow: HLLC must return the upwind flux.
        let w = Primitive::new(1.0, 10.0, 0.5, 1.0);
        let f = hllc_flux(&w, &w, &eos(), 0);
        let exact = flux(&w, &eos(), 0);
        assert!((f.rho - exact.rho).abs() < 1e-12);
        assert!((f.mx - exact.mx).abs() < 1e-12);
        assert!((f.my - exact.my).abs() < 1e-12);
        assert!((f.e - exact.e).abs() < 1e-12);
    }

    #[test]
    fn upwinding_for_supersonic_right_moving_flow() {
        let wl = Primitive::new(2.0, 10.0, 0.0, 1.0);
        let wr = Primitive::new(1.0, 10.0, 0.0, 0.5);
        let f = hllc_flux(&wl, &wr, &eos(), 0);
        let fl = flux(&wl, &eos(), 0);
        assert!((f.rho - fl.rho).abs() < 1e-12);
    }

    #[test]
    fn sod_flux_moves_mass_rightward() {
        // Classic Sod setup: high pressure left, low right.
        let wl = Primitive::new(1.0, 0.0, 0.0, 1.0);
        let wr = Primitive::new(0.125, 0.0, 0.0, 0.1);
        let f = hllc_flux(&wl, &wr, &eos(), 0);
        assert!(f.rho > 0.0, "mass must flow into the low-pressure side");
        assert!(f.e > 0.0);
    }

    #[test]
    fn direction_1_mirrors_direction_0() {
        let wl = Primitive::new(1.0, 0.0, 0.3, 1.0);
        let wr = Primitive::new(0.5, 0.0, -0.1, 0.4);
        let fy = hllc_flux(&wl, &wr, &eos(), 1);
        // Swap axes and solve along x.
        let wl_x = Primitive::new(1.0, 0.3, 0.0, 1.0);
        let wr_x = Primitive::new(0.5, -0.1, 0.0, 0.4);
        let fx = hllc_flux(&wl_x, &wr_x, &eos(), 0);
        assert!((fy.rho - fx.rho).abs() < 1e-12);
        assert!((fy.my - fx.mx).abs() < 1e-12);
        assert!((fy.e - fx.e).abs() < 1e-12);
    }

    #[test]
    fn transverse_momentum_is_advected() {
        // Uniform rightward flow carrying transverse momentum.
        let w = Primitive::new(1.0, 2.0, 3.0, 1.0);
        let f = hllc_flux(&w, &w, &eos(), 0);
        // my flux = rho*v*u = 6.
        assert!((f.my - 6.0).abs() < 1e-11);
    }
}
