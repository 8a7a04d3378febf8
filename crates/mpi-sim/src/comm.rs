//! Simulated communicator: the world of ranks and their node topology.
//!
//! `SimComm` plays the role of `MPI_COMM_WORLD` plus the `jsrun` resource
//! layout on Summit: `nranks` MPI tasks packed `ranks_per_node` to a node.
//! A rank loop runs the ranks one after another, each with its own
//! [`RankCtx`], so its results depend only on `(seed, rank)`.
//!
//! **When [`SimComm::run`] is the right tool.** A rank loop builds one
//! [`RankCtx`] per rank per call, and that seeds a ChaCha [`StdRng`]
//! stream for the rank — far more work than most closures do with it.
//! Use it for closures that draw from `ctx.rng` or carry `ctx.clock`
//! through several operations (`ctx.send`, staged phases). A per-rank
//! value that is a pure function of `(seed, rank, ..)` needs neither:
//! loop over the ranks and reduce directly, as `amrproxy`'s compute
//! barrier does (`amrproxy::run::compute_phase`).

use crate::clock::SimClock;
use crate::network::NetworkModel;
use crate::rng::rank_rng;
use rand::rngs::StdRng;

/// The simulated world: rank count and node topology.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimComm {
    nranks: usize,
    ranks_per_node: usize,
    seed: u64,
}

/// Per-rank execution context handed to rank loops.
pub struct RankCtx {
    /// This rank's id in `[0, nranks)`.
    pub rank: usize,
    /// World size.
    pub nranks: usize,
    /// Node hosting this rank.
    pub node: usize,
    /// This rank's simulated wall clock.
    pub clock: SimClock,
    /// This rank's deterministic RNG stream.
    pub rng: StdRng,
}

impl RankCtx {
    /// Times a point-to-point send of `bytes` over `net` on this rank's
    /// clock and returns the transfer duration — the rank-loop spelling
    /// of [`NetworkModel::send`].
    pub fn send(&mut self, net: &NetworkModel, bytes: u64) -> f64 {
        net.send(&mut self.clock, bytes)
    }
}

impl SimComm {
    /// Creates a world of `nranks` ranks, `ranks_per_node` per node,
    /// with RNG streams derived from `seed`.
    ///
    /// # Panics
    /// Panics if `nranks == 0` or `ranks_per_node == 0`.
    pub fn new(nranks: usize, ranks_per_node: usize, seed: u64) -> Self {
        assert!(nranks > 0, "SimComm: zero ranks");
        assert!(ranks_per_node > 0, "SimComm: zero ranks per node");
        Self {
            nranks,
            ranks_per_node,
            seed,
        }
    }

    /// The paper's typical Summit layout: 2 ranks per node (e.g. 1,024
    /// ranks on 512 nodes).
    pub fn summit(nranks: usize, seed: u64) -> Self {
        Self::new(nranks, 2, seed)
    }

    /// World size.
    #[inline]
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// Ranks packed per node.
    #[inline]
    pub fn ranks_per_node(&self) -> usize {
        self.ranks_per_node
    }

    /// Node hosting `rank`.
    #[inline]
    pub fn node_of(&self, rank: usize) -> usize {
        rank / self.ranks_per_node
    }

    /// Global RNG seed.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Builds the context for one rank, with its clock at `t0` and its
    /// RNG stream seeded from `(seed, rank)` (one ChaCha key set-up).
    pub fn rank_ctx(&self, rank: usize, t0: f64) -> RankCtx {
        RankCtx {
            rank,
            nranks: self.nranks,
            node: self.node_of(rank),
            clock: SimClock::at(t0),
            rng: rank_rng(self.seed, rank),
        }
    }

    /// Runs `f` once per rank, in rank order, returning the results in
    /// that order. Each rank gets a fresh context with its clock at `t0`
    /// — and a freshly seeded ChaCha stream, on every call: see the
    /// module docs for when that is worth paying.
    pub fn run<T>(&self, t0: f64, mut f: impl FnMut(&mut RankCtx) -> T) -> Vec<T> {
        (0..self.nranks)
            .map(|rank| f(&mut self.rank_ctx(rank, t0)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_packing() {
        let c = SimComm::new(7, 3, 0);
        assert_eq!(c.node_of(0), 0);
        assert_eq!(c.node_of(2), 0);
        assert_eq!(c.node_of(3), 1);
        assert_eq!(c.node_of(6), 2);
    }

    #[test]
    fn summit_layout() {
        let c = SimComm::summit(1024, 0);
        assert_eq!(c.node_of(1023), 511);
        assert_eq!(c.ranks_per_node(), 2);
    }

    #[test]
    fn run_returns_rank_ordered_results() {
        let c = SimComm::new(16, 4, 0);
        let out = c.run(0.0, |ctx| ctx.rank * 10);
        assert_eq!(out, (0..16).map(|r| r * 10).collect::<Vec<_>>());
    }

    #[test]
    fn contexts_start_at_t0() {
        let c = SimComm::new(4, 2, 0);
        let times = c.run(3.5, |ctx| ctx.clock.now());
        assert!(times.iter().all(|&t| t == 3.5));
    }

    #[test]
    #[should_panic(expected = "zero ranks")]
    fn zero_ranks_panics() {
        SimComm::new(0, 1, 0);
    }

    #[test]
    fn rank_send_prices_the_transfer_on_the_rank_clock() {
        let c = SimComm::new(2, 2, 0);
        let net = NetworkModel::new(1e6, 0.5);
        let ends = c.run(0.0, |ctx| {
            let dt = ctx.send(&net, 1_000_000);
            assert!((dt - 1.5).abs() < 1e-12);
            ctx.clock.now()
        });
        assert!(ends.iter().all(|&t| (t - 1.5).abs() < 1e-12));
    }
}
