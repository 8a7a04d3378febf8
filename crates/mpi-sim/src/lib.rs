//! Deterministic simulated MPI runtime.
//!
//! The paper's experiments ran 1-1,024 MPI ranks on Summit. For workload
//! *modeling* purposes, what matters is not message passing but (a) which
//! rank owns which data, (b) when ranks synchronize, and (c) how long each
//! rank's compute and I/O phases take. This crate provides exactly that:
//!
//! * [`SimComm`] — the world of ranks and the seed their values derive
//!   from;
//! * [`RankCtx`] — a rank's id and simulated clock inside a rank loop;
//! * [`collectives`] — the max-reduction over a rank loop's results,
//!   which is the barrier that produces the "burst" I/O timing pattern
//!   the paper describes;
//! * [`rank_seed`] — the SplitMix64 hash of `(seed, rank)` that per-rank
//!   jitter and `iosim`'s storage noise draw from;
//! * [`NetworkModel`] — per-link bandwidth/latency with a
//!   transfer-timing API on the simulated clock, for in-transit
//!   streaming backends that ship steps over the interconnect instead
//!   of through storage.
//!
//! Rank loops run the ranks in order and are bit-reproducible: each
//! rank's context is derived only from `(t0, rank)`. A per-rank value
//! computable from `(seed, rank)` alone is cheaper as a plain loop (see
//! [`comm`]).
//!
//! **Layer position:** the very bottom of the workspace — no other
//! workspace crate sits below it; `iosim` and the workloads build on its
//! clocks and seeds. Key types: [`SimComm`], [`RankCtx`], [`SimClock`].
//!
//! ```
//! use mpi_sim::{collectives::allreduce_max, SimComm};
//!
//! // Four ranks each advance their clock; the barrier takes the max.
//! let comm = SimComm::summit(4, 0xC0FFEE);
//! let finish = comm.run(0.0, |ctx| {
//!     ctx.clock.advance(1.0 + ctx.rank as f64 * 0.25);
//!     ctx.clock.now()
//! });
//! assert_eq!(finish.len(), 4);
//! assert_eq!(allreduce_max(&finish), 1.75);
//! ```

#![forbid(unsafe_code)]

pub mod clock;
pub mod collectives;
pub mod comm;
pub mod network;
pub mod rng;

pub use clock::SimClock;
pub use comm::{RankCtx, SimComm};
pub use network::NetworkModel;
pub use rng::rank_seed;
