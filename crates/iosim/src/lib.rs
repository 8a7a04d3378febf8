//! Parallel I/O simulation substrate.
//!
//! Stands in for the pieces of the paper's testbed we cannot use: Summit's
//! GPFS (Alpine) filesystem and the instrumentation that measured output
//! sizes. Three orthogonal pieces:
//!
//! * `vfs` — a filesystem abstraction with an exact-size in-memory
//!   backend ([`MemFs`]) and an OS backend ([`RealFs`]); writers emit real
//!   bytes either way, so byte accounting is honest.
//! * `tracker` — byte accounting at the paper's `(step, level, task)`
//!   granularity (Eqs. 1-2).
//! * `storage` + `timeline` — a seeded, deterministic timing model of a
//!   striped parallel filesystem (fair-share servers, metadata latency,
//!   lognormal variability) for the paper's *dynamic* burstiness
//!   discussion. A burst — write or read (restart and selective
//!   analysis fetches), on a private model or a shared [`Fabric`] — is
//!   priced once (placement, seeded demand, the class's bandwidth and
//!   per-file charge) and served by one processor-sharing server core,
//!   driven two ways: a private model runs each server to exhaustion,
//!   the fabric interleaves all servers' events in global time order.
//!
//! **Layer position:** the bottom I/O substrate — everything above
//! (`io-engine` backends, `plotfile`/`macsio` writers, `core`
//! campaigns) funnels bytes and requests down here. Key types: [`Vfs`] /
//! [`MemFs`], [`IoTracker`] (write + read planes, `(step, level, task)`
//! keys), [`StorageModel`], [`BurstScheduler`].
//!
//! ```
//! use iosim::{IoKey, IoKind, IoTracker, MemFs, StorageModel, Vfs, WriteRequest};
//!
//! let fs = MemFs::new();
//! fs.write_file("/plt/Cell_D_00000", b"payload").unwrap();
//! assert_eq!(fs.total_bytes(), 7);
//!
//! let tracker = IoTracker::new();
//! tracker.record(IoKey { step: 1, level: 0, task: 0 }, IoKind::Data, 7);
//! assert_eq!(tracker.total_bytes(), 7);
//!
//! // Time the burst: 7 bytes at 7 B/s on one server takes one second.
//! let model = StorageModel::ideal(1, 7.0);
//! let burst = model.simulate_burst(&[WriteRequest {
//!     rank: 0,
//!     path: "/plt/Cell_D_00000".into(),
//!     bytes: 7,
//!     start: 0.0,
//! }]);
//! assert!((burst.t_end - 1.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]

pub mod characterize;
pub(crate) mod fabric;
pub(crate) mod schedule;
mod server;
pub(crate) mod storage;
pub(crate) mod timeline;
pub(crate) mod tracker;
pub(crate) mod vfs;

pub use characterize::characterize;
pub use fabric::{
    block_on, Fabric, FabricHandle, SoloMemo, SoloPricing, StorageAttach, TenantStats,
};
pub use schedule::BurstScheduler;
pub use storage::{BurstResult, Fnv1a, ReadRequest, StorageModel, WriteRequest};
pub use timeline::{Burst, BurstTimeline};
pub use tracker::{IoKey, IoKind, IoTracker};
pub use vfs::{MemFs, RealFs, Vfs};
