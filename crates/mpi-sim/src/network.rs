//! Modeled interconnect links: per-link bandwidth/latency and a
//! transfer-timing API on the simulated clock.
//!
//! The storage plane prices bytes through `iosim`'s burst model; this
//! module prices the *other* road bytes can take off a compute node — a
//! point-to-point transfer over the machine's interconnect (the
//! in-transit staging pattern of ADIOS2/SST-style streaming, where
//! analysis consumers receive steps over the network instead of reading
//! them back from the filesystem). The model is the classic
//! latency/bandwidth ("postal") cost:
//!
//! ```text
//! t(transfer of n bytes) = link_latency + n / link_bandwidth
//! ```
//!
//! deterministic by construction — no RNG — so streamed runs replay
//! bit-identically, the same contract the rest of `mpi-sim` keeps.

use crate::clock::SimClock;

/// A point-to-point interconnect link: fixed per-transfer latency plus a
/// byte rate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetworkModel {
    /// Sustained link bandwidth in bytes per second.
    pub link_bandwidth: f64,
    /// Fixed per-transfer setup latency in seconds.
    pub link_latency: f64,
}

impl NetworkModel {
    /// A link with the given bandwidth (bytes/s) and per-transfer
    /// latency (seconds).
    ///
    /// # Panics
    /// Panics when the bandwidth is not positive or the latency is
    /// negative/non-finite (a link that loses time has no meaning on the
    /// simulated clock).
    pub fn new(link_bandwidth: f64, link_latency: f64) -> Self {
        assert!(
            link_bandwidth.is_finite() && link_bandwidth > 0.0,
            "NetworkModel: non-positive link bandwidth"
        );
        assert!(
            link_latency.is_finite() && link_latency >= 0.0,
            "NetworkModel: negative link latency"
        );
        Self {
            link_bandwidth,
            link_latency,
        }
    }

    /// A zero-latency link — pure bandwidth, handy in tests.
    pub fn ideal(link_bandwidth: f64) -> Self {
        Self::new(link_bandwidth, 0.0)
    }

    /// Seconds a point-to-point transfer of `bytes` occupies the link.
    pub fn transfer_seconds(&self, bytes: u64) -> f64 {
        self.link_latency + bytes as f64 / self.link_bandwidth
    }

    /// Times a transfer of `bytes` on `clock`: advances the clock past
    /// the transfer and returns its duration. This is the transfer
    /// analogue of an `iosim` burst — the caller's simulated time
    /// moves, nothing else does.
    pub fn send(&self, clock: &mut SimClock, bytes: u64) -> f64 {
        let dt = self.transfer_seconds(bytes);
        clock.advance(dt);
        dt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_is_latency_plus_bytes_over_bandwidth() {
        let net = NetworkModel::new(1e8, 2e-3);
        assert!((net.transfer_seconds(0) - 2e-3).abs() < 1e-12);
        assert!((net.transfer_seconds(100_000_000) - 1.002).abs() < 1e-9);
        let ideal = NetworkModel::ideal(5e7);
        assert_eq!(ideal.transfer_seconds(0), 0.0);
        assert!((ideal.transfer_seconds(5_000_000) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn send_advances_the_simulated_clock() {
        let net = NetworkModel::ideal(1e6);
        let mut clock = SimClock::at(1.0);
        let dt = net.send(&mut clock, 2_000_000);
        assert!((dt - 2.0).abs() < 1e-12);
        assert!((clock.now() - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-positive link bandwidth")]
    fn zero_bandwidth_panics() {
        NetworkModel::new(0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "negative link latency")]
    fn negative_latency_panics() {
        NetworkModel::new(1e9, -1.0);
    }
}
