//! Bit-pattern views of fabric results, shared by the fabric tests: two
//! runs agree on these only if they agree on every simulated float.

use amr_proxy_io::iosim::{BurstResult, TenantStats};

/// Every burst's `finish` and `t_end`, as bits.
pub fn burst_bits(results: &[BurstResult]) -> Vec<(Vec<u64>, u64)> {
    results
        .iter()
        .map(|r| {
            let finish = r.finish.iter().map(|t| t.to_bits()).collect();
            (finish, r.t_end.to_bits())
        })
        .collect()
}

/// Every `TenantStats` field, floats as bits.
pub type StatsBits = (usize, String, [u64; 3], [u64; 3]);

pub fn stats_bits(s: &TenantStats) -> StatsBits {
    let floats = [s.shared_wall, s.solo_wall, s.contention_stall];
    (
        s.tenant,
        s.name.clone(),
        [s.bursts, s.write_bytes, s.read_bytes],
        floats.map(f64::to_bits),
    )
}
