//! Gamma-law equation of state.
//!
//! Castro's Sedov setup uses an ideal gas; this mirrors the `gamma_law`
//! EOS with a configurable ratio of specific heats.

use serde::{Deserialize, Serialize};

/// Ideal-gas EOS: `p = (gamma - 1) rho e`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct GammaLaw {
    /// Ratio of specific heats.
    pub gamma: f64,
}

impl Default for GammaLaw {
    fn default() -> Self {
        Self { gamma: 1.4 }
    }
}

impl GammaLaw {
    /// Creates an EOS with the given `gamma`.
    ///
    /// # Panics
    /// Panics unless `gamma > 1`.
    pub fn new(gamma: f64) -> Self {
        assert!(gamma > 1.0, "GammaLaw: gamma must exceed 1, got {gamma}");
        Self { gamma }
    }

    /// Pressure from density and specific internal energy.
    #[inline]
    pub(crate) fn pressure(&self, rho: f64, e_int: f64) -> f64 {
        (self.gamma - 1.0) * rho * e_int
    }

    /// Specific internal energy from density and pressure.
    #[inline]
    pub(crate) fn internal_energy(&self, rho: f64, p: f64) -> f64 {
        p / ((self.gamma - 1.0) * rho)
    }

    /// Adiabatic sound speed.
    #[inline]
    pub(crate) fn sound_speed(&self, rho: f64, p: f64) -> f64 {
        (self.gamma * p / rho).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pressure_energy_round_trip() {
        let eos = GammaLaw::new(1.4);
        let (rho, p) = (1.3, 2.7);
        let e = eos.internal_energy(rho, p);
        assert!((eos.pressure(rho, e) - p).abs() < 1e-14);
    }

    #[test]
    fn sound_speed_scales() {
        let eos = GammaLaw::default();
        let c1 = eos.sound_speed(1.0, 1.0);
        let c2 = eos.sound_speed(1.0, 4.0);
        assert!((c2 / c1 - 2.0).abs() < 1e-14);
        assert!((c1 * c1 - 1.4).abs() < 1e-14);
    }

    #[test]
    #[should_panic(expected = "gamma must exceed 1")]
    fn bad_gamma_panics() {
        GammaLaw::new(1.0);
    }
}
