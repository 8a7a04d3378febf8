//! The backend trait and the types flowing through it.

use crate::selection::ReadSelection;
use bytes::Bytes;
use iosim::{IoKey, IoKind, ReadRequest, WriteRequest};
use std::io;

/// Payload of one [`Put`]: real bytes, or a size for account-only runs
/// (the oracle engine sizes terabyte-scale dumps without materializing
/// them; backends then skip physical writes but keep layout, file-count,
/// and request accounting identical).
///
/// Materialized content is held as shared, zero-copy [`Bytes`]: cloning
/// a payload or slicing a chunk back out of a subfile shares the same
/// allocation, so stage → backend → filesystem → read-back never
/// re-copies the buffer (the throughput plane's ownership contract; see
/// `docs/MODEL.md`).
///
/// The `Encoded*` variants are produced by the compression stage and
/// carry **two** byte counts: the *physical* size (what reaches storage,
/// [`Payload::len`]) and the *logical* size the workload produced
/// ([`Payload::logical_len`]). Trackers always account logical bytes, so
/// the `(step, level, task)` samples are codec-invariant; file sizes,
/// write requests, and burst timing use physical bytes.
#[derive(Clone, Debug)]
pub enum Payload {
    /// Materialized content to write (shared, zero-copy).
    Bytes(Bytes),
    /// Exact byte count of content that is not materialized.
    Size(u64),
    /// Compressed materialized content plus its logical byte count.
    Encoded {
        /// The encoded bytes (what is physically written), shared
        /// zero-copy across layer crossings.
        data: Bytes,
        /// Pre-compression byte count.
        logical: u64,
    },
    /// Compressed account-only payload: physical and logical byte counts.
    EncodedSize {
        /// Modeled physical byte count.
        physical: u64,
        /// Pre-compression byte count.
        logical: u64,
    },
}

impl Payload {
    /// Physical payload length in bytes (what reaches storage).
    pub fn len(&self) -> u64 {
        match self {
            Payload::Bytes(b) => b.len() as u64,
            Payload::Size(n) => *n,
            Payload::Encoded { data, .. } => data.len() as u64,
            Payload::EncodedSize { physical, .. } => *physical,
        }
    }

    /// Logical (pre-compression) length in bytes — what the tracker
    /// records. Equals [`Payload::len`] for uncompressed payloads.
    pub fn logical_len(&self) -> u64 {
        match self {
            Payload::Bytes(b) => b.len() as u64,
            Payload::Size(n) => *n,
            Payload::Encoded { logical, .. } => *logical,
            Payload::EncodedSize { logical, .. } => *logical,
        }
    }

    /// True when the payload is zero physical bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the payload carries real bytes ([`Payload::Bytes`] or
    /// [`Payload::Encoded`]) rather than a byte count.
    pub(crate) fn is_materialized(&self) -> bool {
        matches!(self, Payload::Bytes(_) | Payload::Encoded { .. })
    }
}

/// One logical write submitted to a backend.
#[derive(Clone, Debug)]
pub struct Put {
    /// Tracker key: `(output step, AMR level, task)`.
    pub key: IoKey,
    /// Data or metadata classification.
    pub kind: IoKind,
    /// Logical file path the producer would write N-to-N.
    pub path: String,
    /// The bytes (or their size).
    pub payload: Payload,
}

/// One logical chunk read back from a step — the read-side mirror of a
/// [`Put`]. The payload is the *logical* view of the chunk:
///
/// * [`Payload::Bytes`] — the chunk's logical bytes (raw on the wire, or
///   already decoded by a [`crate::CompressionStage`]);
/// * [`Payload::Encoded`] — the physical (encoded) bytes plus the logical
///   length, as returned by a bare backend under a chunk that a
///   compression stage encoded (the stage decodes these);
/// * [`Payload::Size`] — logical length only, for account-only writes
///   (nothing was materialized; the read is modeled).
#[derive(Clone, Debug)]
pub struct ChunkRead {
    /// Tracker key the chunk was written under.
    pub key: IoKey,
    /// Data or metadata classification.
    pub kind: IoKind,
    /// Logical file path the producer wrote.
    pub path: String,
    /// The chunk's logical payload (see above).
    pub payload: Payload,
}

/// Physical accounting of one [`IoBackend::read_step`] call, mirroring
/// [`StepStats`] on the read side.
#[derive(Clone, Debug, Default)]
pub struct ReadStats {
    /// The step that was read back.
    pub step: u32,
    /// Physical files opened.
    pub files: u64,
    /// Physical bytes fetched from storage (encoded sizes, index tables,
    /// sidecars).
    pub bytes: u64,
    /// Logical bytes delivered to the workload.
    pub logical_bytes: u64,
    /// Modeled codec CPU seconds spent decoding (0 without a compression
    /// stage).
    pub codec_seconds: f64,
    /// Read requests for burst-timing simulation: one per maximal
    /// contiguous byte range fetched (a seek + transfer). Whole-file
    /// restart reads issue one request per file; selective reads over
    /// scattered layouts issue one per matched range, so contiguity is
    /// a priced quantity.
    pub requests: Vec<ReadRequest>,
}

impl ReadStats {
    /// Books one whole-file fetch a selection cannot narrow (an index, a
    /// sidecar): one open, one request, attributed to rank 0.
    pub(crate) fn add_fetch(&mut self, path: String, bytes: u64) {
        self.files += 1;
        self.bytes += bytes;
        self.requests.push(ReadRequest {
            rank: 0,
            path,
            bytes,
            start: 0.0,
        });
    }
}

/// Everything [`IoBackend::read_step`] returns: the logical chunks plus
/// the physical read accounting.
#[derive(Clone, Debug, Default)]
pub struct StepRead {
    /// Chunks of the step. Order groups chunks of one logical path in
    /// their original submission order (so concatenating a path's chunk
    /// payloads reconstructs the path's logical content).
    pub chunks: Vec<ChunkRead>,
    /// Physical read accounting.
    pub stats: ReadStats,
}

impl StepRead {
    /// Concatenated logical bytes of one path, when every chunk of the
    /// path is materialized and decoded (`None` as soon as one chunk is
    /// account-only or still encoded).
    pub fn logical_content(&self, path: &str) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        let mut seen = false;
        for c in self.chunks.iter().filter(|c| c.path == path) {
            seen = true;
            match &c.payload {
                Payload::Bytes(b) => out.extend_from_slice(b),
                _ => return None,
            }
        }
        seen.then_some(out)
    }

    /// Sorted unique logical paths of the step.
    pub fn paths(&self) -> Vec<String> {
        let mut v: Vec<String> = self.chunks.iter().map(|c| c.path.clone()).collect();
        v.sort();
        v.dedup();
        v
    }
}

/// Per-step outcome returned by [`IoBackend::end_step`].
#[derive(Clone, Debug, Default)]
pub struct StepStats {
    /// The step these stats describe.
    pub step: u32,
    /// Physical files created this step.
    pub files: u64,
    /// Physical bytes written this step (payloads + backend overhead).
    pub bytes: u64,
    /// Logical (pre-compression) payload bytes this step — the tracker's
    /// view. Equals `bytes - overhead_bytes` without compression.
    pub logical_bytes: u64,
    /// Backend bookkeeping bytes (aggregation index tables, compression
    /// sidecars); not part of the workload's tracker accounting.
    pub overhead_bytes: u64,
    /// Modeled codec CPU seconds spent compressing this step's payloads
    /// (0 without a compression stage); charged as application compute
    /// time by the burst scheduler.
    pub codec_seconds: f64,
    /// Write requests for burst-timing simulation, in write order.
    pub requests: Vec<WriteRequest>,
    /// Bytes shipped over the modeled interconnect instead of through
    /// storage this step (0 for storage-backed backends) — the
    /// in-transit plane's priced column.
    pub net_bytes: u64,
    /// Link-transfer seconds for `net_bytes` on the simulated clock
    /// (latency + bytes/bandwidth; 0 for storage-backed backends).
    pub net_seconds: f64,
    /// Producer seconds stalled on consumer-window back-pressure this
    /// step, never negative.
    pub window_stall: f64,
}

impl StepStats {
    /// Stats of `step`, nothing written yet.
    pub(crate) fn of(step: u32) -> Self {
        Self {
            step,
            ..Self::default()
        }
    }

    /// Books one physical file of the step: its physical and logical
    /// payload bytes and its write request, in write order.
    pub(crate) fn add_file(&mut self, rank: usize, path: String, bytes: u64, logical_bytes: u64) {
        self.files += 1;
        self.bytes += bytes;
        self.logical_bytes += logical_bytes;
        self.requests.push(WriteRequest {
            rank,
            path,
            bytes,
            start: 0.0,
        });
    }
}

/// Whole-run totals returned by [`IoBackend::close`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EngineReport {
    /// Steps completed.
    pub steps: u32,
    /// Physical files created.
    pub files: u64,
    /// Physical bytes written (payloads + overhead).
    pub bytes: u64,
    /// Logical (pre-compression) payload bytes across the run.
    pub logical_bytes: u64,
    /// Backend bookkeeping bytes.
    pub overhead_bytes: u64,
}

impl EngineReport {
    /// Folds one finished step into the run totals.
    pub(crate) fn add_step(&mut self, stats: &StepStats) {
        self.steps += 1;
        self.files += stats.files;
        self.bytes += stats.bytes;
        self.logical_bytes += stats.logical_bytes;
        self.overhead_bytes += stats.overhead_bytes;
    }
}

/// The open step of a backend, with the step-lifecycle contract of
/// [`IoBackend`] checked in one place: one step open at a time, puts and
/// `end_step` only inside one, reads and `close` only outside. Breaking
/// it is a bug in the calling producer, hence the panics.
pub(crate) struct OpenStep<T>(Option<T>);

impl<T> OpenStep<T> {
    /// No step open.
    pub(crate) fn closed() -> Self {
        Self(None)
    }

    /// `begin_step`: opens `step`.
    pub(crate) fn begin(&mut self, step: T) {
        assert!(self.0.is_none(), "begin_step: step already open");
        self.0 = Some(step);
    }

    /// `put`: the open step.
    pub(crate) fn get(&mut self) -> &mut T {
        self.0.as_mut().expect("put: no open step")
    }

    /// `end_step`: takes the open step.
    pub(crate) fn end(&mut self) -> T {
        self.0.take().expect("end_step: no open step")
    }

    /// `read_selection` / `close`: no step may be open.
    pub(crate) fn assert_closed(&self, call: &str) {
        assert!(self.0.is_none(), "{call}: step still open");
    }
}

/// A pluggable write path: producers open a step, submit [`Put`]s, and
/// close the step; the backend decides the physical file layout, performs
/// (or stages) the writes, and reports the requests to time.
///
/// Contract shared by all implementations:
///
/// * every put is recorded in the tracker with its own key/kind and its
///   **logical** length ([`Payload::logical_len`]), so `(step, level,
///   task)` byte totals are backend- and codec-invariant;
/// * physical accounting (file sizes, [`WriteRequest::bytes`], step and
///   run byte totals) uses [`Payload::len`] — what actually reaches
///   storage after any compression stage;
/// * `end_step` returns one [`WriteRequest`] per physical file created
///   for the step, in write order;
/// * `close` flushes anything still staged and returns run totals.
pub trait IoBackend: Send {
    /// Short human-readable backend name (e.g. `"fpp"`, `"agg:4"`).
    fn name(&self) -> String;

    /// True when the backend drains asynchronously, overlapping the next
    /// compute phase (consumed by `iosim`'s burst scheduler).
    fn overlapped(&self) -> bool {
        false
    }

    /// True when the backend ships steps over the modeled interconnect
    /// instead of through storage (in-transit streaming). Wrapping
    /// stages consult this: a [`crate::CompressionStage`] over an
    /// in-transit backend keeps its sidecar out of the storage plane,
    /// so streamed runs touch zero physical bytes end to end.
    fn in_transit(&self) -> bool {
        false
    }

    /// Opens a step. `container` is the logical directory of the dump
    /// (e.g. the plotfile directory, or `"/"` for MACSio's flat layout);
    /// aggregating backends place their subfiles under it.
    fn begin_step(&mut self, step: u32, container: &str);

    /// Creates a directory through the backend's filesystem.
    fn create_dir_all(&mut self, path: &str) -> io::Result<()>;

    /// Submits one logical write to the open step.
    fn put(&mut self, put: Put) -> io::Result<()>;

    /// Closes the step: materializes (or stages) the physical files and
    /// returns what was written.
    fn end_step(&mut self) -> io::Result<StepStats>;

    /// Reads back every chunk written for `step` under `container` — the
    /// restart path. Exactly `read_selection` with
    /// [`ReadSelection::Full`]; see there for the contract.
    fn read_step(&mut self, step: u32, container: &str) -> io::Result<StepRead> {
        self.read_selection(step, container, &ReadSelection::Full)
    }

    /// Reads back the chunks of `step` under `container` that belong to
    /// `sel` — the restart/analysis path, generalized over a
    /// [`ReadSelection`]. Callable any time after the step's `end_step`
    /// (no step may be open). Contract shared by all implementations:
    ///
    /// * the returned chunks are exactly the chunks of a full-step read
    ///   for which [`ReadSelection::matches`] holds (on the key the
    ///   chunk was written under and its logical path), in the backend's
    ///   layout order — pinned by property tests across the backend ×
    ///   codec × layout cube;
    /// * chunks carry **logical** payloads: for materialized writes
    ///   without a compression stage, reading back a written chunk
    ///   returns its bytes exactly; with a stage, the stage decodes
    ///   through its codec before returning;
    /// * account-only writes read back as [`Payload::Size`] (modeled
    ///   read, physical request accounting intact);
    /// * every *returned* chunk is recorded in the tracker's *read*
    ///   plane at its logical length, so read totals are backend- and
    ///   codec-invariant like the write totals;
    /// * backends with staged/deferred writes barrier any in-flight
    ///   drain first (read-after-write consistency);
    /// * file content is outside input by read time: a materialized file
    ///   that is gone is `NotFound`, and a span that no longer fits its
    ///   file (truncated or replaced on disk, an index row past its
    ///   subfile) is `InvalidData` — never a panic;
    /// * `stats.requests` holds one [`ReadRequest`] per maximal
    ///   contiguous byte range fetched (whole-file for full reads), for
    ///   `simulate_read_burst` timing. Physical accounting
    ///   is layout-honest: coalesced per-path files are seeked through
    ///   their retained spans (only matched spans are fetched), while
    ///   the aggregated layout always fetches its whole per-step index
    ///   blob before seeking subfiles — the write-optimized-layout
    ///   penalty the `reorg` module exists to remove. A selection that
    ///   matches nothing fetches no data (index-bearing layouts still
    ///   pay the index fetch that discovered the emptiness).
    ///
    /// The default errors with `Unsupported` so write-only adapters keep
    /// compiling.
    fn read_selection(
        &mut self,
        step: u32,
        container: &str,
        sel: &ReadSelection,
    ) -> io::Result<StepRead> {
        let _ = container;
        Err(unsupported_read(
            &self.name(),
            step,
            sel,
            "backend has no read path",
        ))
    }

    /// Flushes staged work and returns run totals.
    fn close(&mut self) -> io::Result<EngineReport>;
}

/// The typed error every backend returns for a selection it cannot
/// serve: [`io::ErrorKind::Unsupported`], naming the backend, the step,
/// the selection, and the reason. One constructor so the driver's
/// `analyze:SEL` error path reads identically across the whole backend
/// matrix (and so tests can pin the shape without string drift).
pub(crate) fn unsupported_read(
    backend: &str,
    step: u32,
    sel: &ReadSelection,
    why: &str,
) -> io::Error {
    io::Error::new(
        io::ErrorKind::Unsupported,
        format!(
            "backend '{backend}' cannot serve read selection '{}' for step {step}: {why}",
            sel.name()
        ),
    )
}
