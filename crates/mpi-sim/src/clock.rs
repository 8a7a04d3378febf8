//! Simulated per-rank wall clocks.
//!
//! Each simulated MPI rank owns a `SimClock`; compute phases and I/O
//! operations advance it. A rank loop's barrier is the maximum of its
//! clocks ([`crate::collectives::allreduce_max`]), which is exactly how
//! the paper's "burst" I/O pattern arises: compute for a while, then
//! everyone writes at once.

/// A monotonically advancing simulated clock (seconds).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimClock {
    t: f64,
}

impl SimClock {
    /// A clock starting at `t` seconds.
    pub fn at(t: f64) -> Self {
        assert!(t.is_finite() && t >= 0.0, "SimClock: bad start time {t}");
        Self { t }
    }

    /// Current simulated time in seconds.
    #[inline]
    pub fn now(&self) -> f64 {
        self.t
    }

    /// Advances the clock by `dt` seconds.
    ///
    /// # Panics
    /// Panics if `dt` is negative or not finite.
    #[inline]
    pub fn advance(&mut self, dt: f64) {
        assert!(dt.is_finite() && dt >= 0.0, "SimClock: bad advance {dt}");
        self.t += dt;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_accumulates() {
        let mut c = SimClock::at(0.0);
        c.advance(1.5);
        c.advance(0.25);
        assert_eq!(c.now(), 1.75);
    }

    #[test]
    #[should_panic(expected = "bad advance")]
    fn negative_advance_panics() {
        SimClock::at(0.0).advance(-1.0);
    }
}
