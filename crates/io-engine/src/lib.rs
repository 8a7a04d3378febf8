//! Pluggable I/O backend engine.
//!
//! The paper's measurements hinge on *which* parallel I/O backend a
//! workload drives — MACSio's MIF/SIF file modes versus AMReX plotfiles —
//! and related work (ADIOS2's two-level aggregation, AMRIC's deferred
//! staging) shows backend choice is the biggest lever on burst time.
//! This crate abstracts the write path behind an [`IoBackend`] trait so
//! every workload in the workspace becomes a backend-sweep scenario:
//!
//! * [`FilePerProcess`] — the classic N-to-N pattern: each logical file
//!   path becomes one physical file (MACSio MIF groups and AMReX
//!   `Cell_D` files fall out of the paths the writers choose).
//! * `Aggregated` — ADIOS2-BP-style two-level aggregation: data puts
//!   from N producers funnel into `ceil(N / ratio)` aggregator subfiles
//!   per step plus one index/metadata file, with chunk coalescing.
//! * `Deferred` — a burst-buffer model: puts stage in memory,
//!   double-buffered, and land one step late; the simulated clock
//!   overlaps the drain with the next compute phase.
//! * [`Streaming`] — ADIOS2/SST-style in-transit staging: steps ship to
//!   consumer ranks as point-to-point transfers over a modeled
//!   interconnect ([`mpi_sim::NetworkModel`]), and analysis reads are
//!   served from a bounded in-memory consumer window — zero physical
//!   bytes on either plane, network bytes a priced column of their own,
//!   producer stalls on window back-pressure accounted like staging
//!   waits.
//!
//! In front of any backend sits an optional **compression stage**
//! ([`CompressionStage`]) applying a [`Codec`] — `Identity`, lossless
//! [`Rle`], or block-wise `LossyQuant` — to every data put. The stage
//! splits byte accounting into two planes:
//!
//! * **logical bytes** — what the workload produced, recorded in the
//!   tracker at `(step, level, task)` granularity. Backend- *and*
//!   codec-invariant: the Eq. (1)/(2) samples see the workload, never the
//!   wire format (enforced by property tests).
//! * **physical bytes** — what reaches storage after encoding, carried by
//!   file sizes, [`iosim::WriteRequest`]s, and therefore the simulated
//!   burst timing. At most the logical count, strictly less whenever a
//!   non-identity codec compresses.
//!
//! The stage writes one small sidecar per step recording
//! `logical physical method path` per chunk, and its modeled CPU cost is
//! charged as application compute time by the burst scheduler — the
//! compression trade (CPU for wire bytes) is simulated on both sides.
//!
//! Underneath, every backend shares one private **layout plane**: a
//! backend is only a *placement rule* (which physical file a put is
//! appended to — per path, per aggregator, per level) plus a *delivery*
//! (write now, stage one step late, ship to a consumer window). A put's
//! span inside a physical file, the file being assembled and retained,
//! and the selective reader that cuts spans back out are stated once,
//! for all of them (`docs/MODEL.md` has the table).
//!
//! That plane is what serves the **read plane**
//! ([`IoBackend::read_step`] / [`IoBackend::read_selection`]): the
//! restart/analysis path that reads a written step — or a selected
//! subset of it ([`ReadSelection`]: one level, one field, a `(level,
//! task)` key box) — back into logical chunks. [`FilePerProcess`],
//! `Deferred` and [`Streaming`] walk their retained per-path files
//! (deferred barriers any in-flight drain first — read-after-write
//! consistency; streaming serves from the window at zero physical cost);
//! `Aggregated` seeks through its on-disk per-step `md.idx` chunk
//! table; the compression stage decodes each chunk through its codec, so
//! restart bytes round-trip to the logical bytes written (byte-exact for
//! lossless codecs, an error-bounded reconstruction of the same length
//! for the lossy quantizer). File content is outside input by read time:
//! a span that no longer fits its file is an `InvalidData` error, never a
//! panic. Reads are recorded in the tracker's separate read plane at
//! logical size, and `ReadStats::requests` — one request per maximal
//! contiguous byte range fetched — feed `iosim`'s read-burst timing
//! (`simulate_read_burst`: own bandwidth, per-file open charge), so a
//! selection scattered across a write-optimized layout costs more than
//! the same bytes clustered.
//!
//! That scatter is what the `reorg` module removes: an **online
//! reorganization pass** ([`Reorganizer`], after Wan et al.) rewrites a
//! written step into a read-optimized layout — chunks re-clustered by
//! level and field with a segmented, partially-fetchable index — and
//! serves selective reads from it at strictly fewer physical bytes for
//! by-level and by-field queries, with both the rewrite and the reads
//! priced like any other I/O.
//!
//! Finally, the **scenario plane**: the `scenario` module hosts the
//! workload grammar — a [`Scenario`] program
//! (`write;fail@17;restart;analyze:level:2,reorg`) names how a campaign
//! interleaves writes, checkpoints, mid-run failures/restarts, and
//! in-run analysis reads — and the `driver` module compiles it against
//! a workload's [`Cadence`] into a phase program and executes that
//! program ([`run_program`]) over a [`Producer`]: `amrproxy`'s hierarchy
//! engines and `macsio`'s part marshaller differ only in how a step's
//! bytes are produced, never in how its phases are sequenced and priced.
//!
//! **Layer position:** between the proxy writers (`plotfile`, `macsio`)
//! and the `iosim` substrate: writers choose logical paths, this crate
//! chooses the physical layout on both planes. Key types: [`IoBackend`],
//! [`BackendSpec`], [`CodecSpec`], [`Put`]/[`Payload`], [`StepRead`],
//! [`ReadSelection`], [`Reorganizer`], [`Scenario`].
//!
//! ```
//! use io_engine::{BackendSpec, CodecSpec, Payload, Put, ReadSelection};
//! use iosim::{IoKey, IoKind, IoTracker, MemFs, Vfs};
//!
//! let fs = MemFs::new();
//! let tracker = IoTracker::new();
//! let mut backend = BackendSpec::Aggregated(2).build_with_codec(
//!     CodecSpec::Identity,
//!     &fs as &dyn Vfs,
//!     &tracker,
//! );
//! backend.begin_step(1, "/plt");
//! for (level, task) in [(0u32, 0u32), (0, 1), (1, 0)] {
//!     backend
//!         .put(Put {
//!             key: IoKey { step: 1, level, task },
//!             kind: IoKind::Data,
//!             path: format!("/plt/L{level}/density_{task:05}"),
//!             payload: Payload::Bytes(vec![level as u8; 64].into()),
//!         })
//!         .unwrap();
//! }
//! backend.end_step().unwrap();
//!
//! // Full restart read round-trips; a by-level selection fetches the
//! // matching slice only.
//! let full = backend.read_step(1, "/plt").unwrap();
//! assert_eq!(full.chunks.len(), 3);
//! let level1 = backend
//!     .read_selection(1, "/plt", &ReadSelection::Level(1))
//!     .unwrap();
//! assert_eq!(level1.chunks.len(), 1);
//! assert_eq!(level1.stats.logical_bytes, 64);
//! assert_eq!(tracker.total_read_bytes(), 3 * 64 + 64);
//! ```

#![forbid(unsafe_code)]

pub(crate) mod aggregated;
pub(crate) mod backend;
pub(crate) mod codec;
pub(crate) mod deferred;
pub(crate) mod driver;
pub(crate) mod fpp;
pub mod grammar;
mod layout;
pub(crate) mod reorg;
pub(crate) mod scenario;
pub(crate) mod selection;
pub(crate) mod spec;
pub(crate) mod stage;
pub(crate) mod streaming;

pub use backend::{ChunkRead, EngineReport, IoBackend, Payload, Put, StepRead, StepStats};
pub use codec::{Codec, CodecContext, CodecSpec, Rle};
pub use driver::{
    compile, run_program, Cadence, Dump, DumpSource, Phase, Producer, RunTotals, ScheduledPhase,
};
pub use fpp::FilePerProcess;
pub use grammar::Matrix;
pub use reorg::Reorganizer;
pub use scenario::{Scenario, ScenarioOp};
pub use selection::{KeyBox, ReadSelection};
pub use spec::{BackendSpec, StreamSpec};
pub use stage::CompressionStage;
pub use streaming::Streaming;

/// The cores this process may run on: `available_parallelism()`, read
/// once. The OS query walks cgroup and affinity state (~10 µs on some
/// kernels), and every fan-out asks for it — the codec stage per step,
/// MACSio per run, the spec executor per pass.
pub fn cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}
