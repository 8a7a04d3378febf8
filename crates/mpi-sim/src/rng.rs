//! Deterministic per-rank seeds.
//!
//! Every simulated rank derives an independent 64-bit seed from a global
//! seed and its rank id, so experiments are reproducible regardless of
//! the order in which the ranks are evaluated.

/// Mixes a global seed with a rank id into an independent 64-bit seed
/// (SplitMix64 finalizer, which decorrelates consecutive ranks).
/// `rank_seed(s, 0..n)` are SplitMix64's first `n` outputs from state `s`.
#[inline]
pub fn rank_seed(global_seed: u64, rank: usize) -> u64 {
    let mut z = global_seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(rank as u64 + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_differ_across_ranks() {
        let s: Vec<u64> = (0..64).map(|r| rank_seed(42, r)).collect();
        let mut d = s.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), s.len());
    }

    #[test]
    fn seeds_differ_across_global_seeds() {
        assert_ne!(rank_seed(1, 0), rank_seed(2, 0));
    }
}
