//! Simulated communicator: the world of ranks.
//!
//! `SimComm` plays the role of `MPI_COMM_WORLD` for the paper's Summit
//! runs: `nranks` MPI tasks and the seed their per-rank values derive
//! from. A rank loop ([`SimComm::run`]) runs the ranks one after another,
//! each with its own [`RankCtx`], so its results depend only on
//! `(seed, rank)`. A per-rank value that is a pure function of
//! `(seed, rank, ..)` needs no context: loop over the ranks and reduce
//! directly, as `amrproxy`'s compute barrier does
//! (`amrproxy::run::compute_phase`).

use crate::clock::SimClock;

/// The simulated world: rank count and seed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimComm {
    nranks: usize,
    seed: u64,
}

/// Per-rank execution context handed to rank loops.
pub struct RankCtx {
    /// This rank's id in `[0, nranks)`.
    pub rank: usize,
    /// World size.
    pub nranks: usize,
    /// This rank's simulated wall clock.
    pub clock: SimClock,
}

impl SimComm {
    /// A world of `nranks` ranks, as in the paper's Summit runs, whose
    /// per-rank values derive from `seed`.
    ///
    /// # Panics
    /// Panics if `nranks == 0`.
    pub fn summit(nranks: usize, seed: u64) -> Self {
        assert!(nranks > 0, "SimComm: zero ranks");
        Self { nranks, seed }
    }

    /// World size.
    #[inline]
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// Global seed.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Runs `f` once per rank, in rank order, returning the results in
    /// that order. Each rank gets a fresh context with its clock at `t0`.
    pub fn run<T>(&self, t0: f64, mut f: impl FnMut(&mut RankCtx) -> T) -> Vec<T> {
        (0..self.nranks)
            .map(|rank| {
                f(&mut RankCtx {
                    rank,
                    nranks: self.nranks,
                    clock: SimClock::at(t0),
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summit_layout() {
        let c = SimComm::summit(1024, 7);
        assert_eq!(c.nranks(), 1024);
        assert_eq!(c.seed(), 7);
    }

    #[test]
    fn run_returns_rank_ordered_results() {
        let c = SimComm::summit(16, 0);
        let out = c.run(0.0, |ctx| ctx.rank * 10);
        assert_eq!(out, (0..16).map(|r| r * 10).collect::<Vec<_>>());
    }

    #[test]
    fn contexts_start_at_t0() {
        let c = SimComm::summit(4, 0);
        let times = c.run(3.5, |ctx| ctx.clock.now());
        assert!(times.iter().all(|&t| t == 3.5));
    }

    #[test]
    #[should_panic(expected = "zero ranks")]
    fn zero_ranks_panics() {
        SimComm::summit(0, 0);
    }
}
