//! The compression stage: a [`Codec`] applied in front of any
//! [`IoBackend`].
//!
//! The stage intercepts every data put, encodes its payload (real bytes
//! are actually compressed, account-only sizes use the codec's modeled
//! size), and forwards a [`Payload::Encoded`]/[`Payload::EncodedSize`]
//! carrying *both* byte counts downstream. The inner backend records the
//! **logical** length in the tracker and ships the **physical** length to
//! storage, so:
//!
//! * `(step, level, task)` tracker samples are codec-invariant (the
//!   paper's Eq. (1)/(2) model sees the workload, not the wire format);
//! * file sizes, write requests, and burst timing shrink with the codec's
//!   real or modeled ratio.
//!
//! Metadata puts pass through uncompressed — headers stay readable, as in
//! AMRIC, where only field blocks are compressed. Payloads that fail to
//! compress are forwarded raw (the stage never expands data); the
//! per-chunk method lands in the *sidecar*: one small
//! `compression_<step>.csc` file per step recording
//! `logical physical method path` for every data chunk, the
//! uncompressed-logical-size record a reader needs to undo the stage.
//! Sidecar bytes are counted as backend overhead, like the aggregation
//! index — they never enter the tracker.
//!
//! ## Parallel encode
//!
//! By default the stage buffers the open step's puts and encodes every
//! data chunk at seal time (per-chunk encode is a pure function of the
//! chunk and its [`CodecContext`]), then forwards all puts to the inner
//! backend in their original submission order. The encode fans out over
//! scoped threads **only when the step carries real bytes** (a data put
//! with a [`Payload::Bytes`] or [`Payload::Encoded`] payload). A
//! size-only step's encoded sizes are closed forms
//! ([`Codec::encoded_size`]), so it encodes inline on the calling
//! thread: an account-only cell spawns no thread at all, and its cores
//! stay with the executor that fans the cells out. Either way the output
//! is byte-identical to the serial reference mode
//! ([`CompressionStage::serial`]) — file contents, sidecar line order,
//! and modeled `codec_seconds` alike — which a 3×3 backend × codec
//! property test pins, over real and size-only payloads.
//!
//! The seal-time buffers form a reused *encode arena*: the pending-put
//! list, the per-put result slots, the chunk records, and the sidecar
//! body all keep their capacity from step to step, so a steady-state
//! step allocates only the encoded payloads themselves.

use crate::backend::{EngineReport, IoBackend, OpenStep, Payload, Put, StepRead, StepStats};
use crate::codec::{encode_payload, Codec, CodecContext};
use crate::selection::ReadSelection;
use iosim::{IoKind, Vfs};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io;

/// Decodes every data chunk of `read` that a codec encoded back to its
/// logical bytes — the read-side tail shared by the compression stage
/// and the reorganizer. Raw-fallback chunks come back as `Bytes` already
/// (physical == logical) and pass through untouched. The decode CPU cost
/// mirrors the encode side: charged per logical byte of every returned
/// data chunk, summed in chunk order.
pub(crate) fn decode_chunks(codec: &dyn Codec, read: &mut StepRead) {
    let mut decode_ns = 0.0f64;
    for chunk in &mut read.chunks {
        if chunk.kind != IoKind::Data {
            continue;
        }
        decode_ns += chunk.payload.logical_len() as f64 * codec.cpu_ns_per_byte();
        if let Payload::Encoded { data, logical } = &chunk.payload {
            let ctx = CodecContext {
                level: chunk.key.level,
                kind: chunk.kind,
                path: &chunk.path,
            };
            let decoded = codec.decode(data, *logical, &ctx);
            debug_assert_eq!(decoded.len() as u64, *logical, "decode length");
            chunk.payload = Payload::Bytes(decoded.into());
        }
    }
    read.stats.codec_seconds += decode_ns / 1e9;
}

/// One data chunk the stage processed in the open step.
struct ChunkRec {
    path: String,
    logical: u64,
    physical: u64,
    encoded: bool,
}

struct StageStep {
    step: u32,
    dir: String,
    chunks: Vec<ChunkRec>,
    any_materialized: bool,
    codec_ns: f64,
}

/// Per-step sidecar record retained for the read path.
struct SidecarInfo {
    dir: String,
    bytes: u64,
}

/// A codec in front of an inner backend (see module docs).
pub struct CompressionStage<'a> {
    inner: Box<dyn IoBackend + 'a>,
    codec: Box<dyn Codec>,
    vfs: &'a dyn Vfs,
    /// Encode data chunks at seal time, in parallel when the step carries
    /// real bytes (the default); the serial mode is the byte-identical
    /// reference implementation.
    parallel: bool,
    /// Buffered puts of the open step (parallel mode only), in
    /// submission order.
    pending: Vec<Put>,
    /// Seal-time encode results, one slot per buffered put (`None` =
    /// metadata, forwarded untouched). Part of the reused encode arena:
    /// `pending`, `results`, the chunk records, and the sidecar body all
    /// keep their capacity across steps, so a steady-state step
    /// allocates only the encoded payloads themselves.
    results: Vec<Option<(Payload, bool)>>,
    /// Recycled chunk-record buffer handed to each step's `StageStep`.
    chunk_pool: Vec<ChunkRec>,
    /// Recycled sidecar body.
    sidecar_buf: String,
    cur: OpenStep<StageStep>,
    /// Steps that wrote (or modeled) a sidecar, for read accounting.
    sidecars: HashMap<u32, SidecarInfo>,
    /// Sidecar files written across the run (added to the close report).
    sidecar_files: u64,
    /// Sidecar bytes written across the run.
    sidecar_bytes: u64,
}

impl<'a> CompressionStage<'a> {
    /// Wraps `inner` with `codec`, writing sidecars through `vfs` (the
    /// same filesystem the inner backend writes to). Data chunks are
    /// encoded at seal time, in parallel when the step carries real
    /// bytes; use
    /// [`CompressionStage::serial`] for the reference serial mode.
    pub fn new(inner: Box<dyn IoBackend + 'a>, codec: Box<dyn Codec>, vfs: &'a dyn Vfs) -> Self {
        Self::with_parallel(inner, codec, vfs, true)
    }

    /// The serial reference stage: encodes each put inline on the
    /// calling thread. Byte-identical output to the parallel default —
    /// kept for the property tests that pin that equivalence.
    pub fn serial(inner: Box<dyn IoBackend + 'a>, codec: Box<dyn Codec>, vfs: &'a dyn Vfs) -> Self {
        Self::with_parallel(inner, codec, vfs, false)
    }

    fn with_parallel(
        inner: Box<dyn IoBackend + 'a>,
        codec: Box<dyn Codec>,
        vfs: &'a dyn Vfs,
        parallel: bool,
    ) -> Self {
        Self {
            inner,
            codec,
            vfs,
            parallel,
            pending: Vec::new(),
            results: Vec::new(),
            chunk_pool: Vec::new(),
            sidecar_buf: String::new(),
            cur: OpenStep::closed(),
            sidecars: HashMap::new(),
            sidecar_files: 0,
            sidecar_bytes: 0,
        }
    }

    /// Sidecar path for a step under `container`.
    fn sidecar_path(container: &str, step: u32) -> String {
        let base = container.trim_end_matches('/');
        format!("{base}/compression_{step:05}.csc")
    }

    /// Books one encoded data chunk and forwards it to the inner
    /// backend — the common tail of the serial and parallel paths, so
    /// chunk records, codec-time accumulation (same f64 summation
    /// order), and forwarding order are identical by construction.
    fn forward_encoded(
        cur: &mut StageStep,
        inner: &mut (dyn IoBackend + 'a),
        codec_ns_per_byte: f64,
        put: Put,
        payload: Payload,
        encoded: bool,
    ) -> io::Result<()> {
        let logical = put.payload.logical_len();
        cur.codec_ns += logical as f64 * codec_ns_per_byte;
        cur.any_materialized |= put.payload.is_materialized();
        cur.chunks.push(ChunkRec {
            path: put.path.clone(),
            logical,
            physical: payload.len(),
            encoded,
        });
        inner.put(Put { payload, ..put })
    }
}

impl IoBackend for CompressionStage<'_> {
    fn name(&self) -> String {
        format!("{}+{}", self.inner.name(), self.codec.name())
    }

    fn overlapped(&self) -> bool {
        self.inner.overlapped()
    }

    fn in_transit(&self) -> bool {
        self.inner.in_transit()
    }

    fn begin_step(&mut self, step: u32, container: &str) {
        self.cur.begin(StageStep {
            step,
            dir: container.to_string(),
            chunks: std::mem::take(&mut self.chunk_pool),
            any_materialized: false,
            codec_ns: 0.0,
        });
        self.inner.begin_step(step, container);
    }

    fn create_dir_all(&mut self, path: &str) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn put(&mut self, put: Put) -> io::Result<()> {
        let cur = self.cur.get();
        if self.parallel {
            // Defer: the whole step encodes in parallel at seal time,
            // then forwards in this submission order.
            self.pending.push(put);
            return Ok(());
        }
        if put.kind != IoKind::Data {
            // Metadata stays uncompressed and readable.
            return self.inner.put(put);
        }
        let ctx = CodecContext {
            level: put.key.level,
            kind: put.kind,
            path: &put.path,
        };
        let (payload, encoded) = encode_payload(self.codec.as_ref(), put.payload.clone(), &ctx);
        Self::forward_encoded(
            cur,
            self.inner.as_mut(),
            self.codec.cpu_ns_per_byte(),
            put,
            payload,
            encoded,
        )
    }

    fn end_step(&mut self) -> io::Result<StepStats> {
        let mut cur = self.cur.end();
        if self.parallel {
            // Map over the buffered puts: each data chunk is encoded
            // independently (payload clones are O(1) shared views, not
            // copies) into its slot of the reused result table, so
            // results line up with submissions and the arena keeps its
            // capacity across steps. Only real bytes are worth a thread:
            // a size-only step's encoded sizes are closed forms.
            let codec = self.codec.as_ref();
            self.results.clear();
            self.results.resize_with(self.pending.len(), || None);
            let encode_slot = |p: &Put, out: &mut Option<(Payload, bool)>| {
                if p.kind != IoKind::Data {
                    return;
                }
                let ctx = CodecContext {
                    level: p.key.level,
                    kind: p.kind,
                    path: &p.path,
                };
                *out = Some(encode_payload(codec, p.payload.clone(), &ctx));
            };
            let real_bytes = self
                .pending
                .iter()
                .any(|p| p.kind == IoKind::Data && p.payload.is_materialized());
            let threads = if real_bytes {
                crate::cores().min(self.pending.len())
            } else {
                1
            };
            if threads <= 1 {
                for (p, out) in self.pending.iter().zip(self.results.iter_mut()) {
                    encode_slot(p, out);
                }
            } else {
                let chunk_len = self.pending.len().div_ceil(threads);
                std::thread::scope(|scope| {
                    for (puts, outs) in self
                        .pending
                        .chunks(chunk_len)
                        .zip(self.results.chunks_mut(chunk_len))
                    {
                        let encode_slot = &encode_slot;
                        scope.spawn(move || {
                            for (p, out) in puts.iter().zip(outs) {
                                encode_slot(p, out);
                            }
                        });
                    }
                });
            }
            // Serial drain in submission order: bookkeeping and the
            // forwarding sequence the inner backend sees are exactly the
            // serial mode's.
            let ns_per_byte = self.codec.cpu_ns_per_byte();
            for (put, result) in self.pending.drain(..).zip(self.results.drain(..)) {
                match result {
                    Some((payload, encoded)) => Self::forward_encoded(
                        &mut cur,
                        self.inner.as_mut(),
                        ns_per_byte,
                        put,
                        payload,
                        encoded,
                    )?,
                    // Metadata stays uncompressed and readable.
                    None => self.inner.put(put)?,
                }
            }
        }
        let mut stats = self.inner.end_step()?;
        stats.codec_seconds += cur.codec_ns / 1e9;
        // In-transit backends never touch the storage plane: the stream
        // carries each chunk's logical/physical framing in-band (the
        // consumer window retains the spans), so no sidecar exists to
        // write — or to fetch back on the read side.
        if !cur.chunks.is_empty() && !self.inner.in_transit() {
            // The uncompressed-logical-size sidecar, composed in the
            // recycled body buffer.
            let codec_name = self.codec.name();
            self.sidecar_buf.clear();
            let body = &mut self.sidecar_buf;
            let _ = writeln!(
                body,
                "# io-engine compression sidecar, codec {codec_name}, step {}",
                cur.step
            );
            for c in &cur.chunks {
                let _ = writeln!(
                    body,
                    "{logical} {physical} {method} {path}",
                    logical = c.logical,
                    physical = c.physical,
                    method = if c.encoded { &codec_name } else { "raw" },
                    path = c.path,
                );
            }
            let path = Self::sidecar_path(&cur.dir, cur.step);
            let bytes = body.len() as u64;
            self.sidecars.insert(
                cur.step,
                SidecarInfo {
                    dir: cur.dir.clone(),
                    bytes,
                },
            );
            // Mirror the backends' account-only handling: a step whose
            // data never materialized stays write-free end to end.
            if cur.any_materialized {
                let written = self.vfs.write_file(&path, body.as_bytes())?;
                debug_assert_eq!(written, bytes);
            }
            stats.add_file(0, path, bytes, 0);
            stats.overhead_bytes += bytes;
            self.sidecar_files += 1;
            self.sidecar_bytes += bytes;
        }
        // Recycle the step's chunk records into the arena.
        cur.chunks.clear();
        self.chunk_pool = cur.chunks;
        Ok(stats)
    }

    fn read_selection(
        &mut self,
        step: u32,
        container: &str,
        sel: &ReadSelection,
    ) -> io::Result<StepRead> {
        self.cur.assert_closed("read_step");
        let mut read = self.inner.read_selection(step, container, sel)?;
        decode_chunks(self.codec.as_ref(), &mut read);
        // A reader consults the uncompressed-logical-size sidecar before
        // touching data: account its fetch. The sidecar is one small flat
        // file fetched whole even for narrow selections (it has no
        // per-chunk directory of its own).
        if let Some(info) = self.sidecars.get(&step) {
            read.stats
                .add_fetch(Self::sidecar_path(&info.dir, step), info.bytes);
        }
        Ok(read)
    }

    fn close(&mut self) -> io::Result<EngineReport> {
        self.cur.assert_closed("close");
        let mut report = self.inner.close()?;
        // The inner backend never saw the sidecars; fold them into the
        // run totals so per-step stats and the close report agree.
        report.files += self.sidecar_files;
        report.bytes += self.sidecar_bytes;
        report.overhead_bytes += self.sidecar_bytes;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{LossyQuant, Rle};
    use crate::FilePerProcess;
    use iosim::{IoKey, IoTracker, MemFs};

    fn put(task: u32, kind: IoKind, path: &str, payload: Payload) -> Put {
        Put {
            key: IoKey {
                step: 1,
                level: 0,
                task,
            },
            kind,
            path: path.to_string(),
            payload,
        }
    }

    fn stage<'a>(
        fs: &'a MemFs,
        tracker: &'a IoTracker,
        codec: Box<dyn Codec>,
    ) -> CompressionStage<'a> {
        let inner = Box::new(FilePerProcess::new(fs as &dyn Vfs, tracker));
        CompressionStage::new(inner, codec, fs as &dyn Vfs)
    }

    #[test]
    fn tracker_sees_logical_files_see_physical() {
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let mut b = stage(&fs, &tracker, Box::new(Rle::default()));
        b.begin_step(1, "/");
        b.put(put(
            0,
            IoKind::Data,
            "/f",
            Payload::Bytes(vec![0u8; 4096].into()),
        ))
        .unwrap();
        let stats = b.end_step().unwrap();
        b.close().unwrap();
        // Logical accounting is codec-invariant.
        assert_eq!(tracker.total_bytes(), 4096);
        assert_eq!(stats.logical_bytes, 4096);
        // Physical bytes shrink; the file on disk is the encoded stream.
        let on_disk = fs.file_size("/f").unwrap();
        assert!(on_disk < 4096, "on disk: {on_disk}");
        assert_eq!(
            stats.bytes,
            on_disk + stats.overhead_bytes,
            "stats cover file + sidecar"
        );
        // The encoded file round-trips.
        assert_eq!(Rle::decode(&fs.read_file("/f").unwrap()), vec![0u8; 4096]);
    }

    #[test]
    fn sidecar_records_logical_physical_and_method() {
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let mut b = stage(&fs, &tracker, Box::new(Rle::default()));
        b.begin_step(3, "/plt");
        b.put(put(
            0,
            IoKind::Data,
            "/plt/a",
            Payload::Bytes(vec![1u8; 500].into()),
        ))
        .unwrap();
        // Incompressible payload falls back to raw.
        let noise: Vec<u8> = (0..500u32).map(|i| (i * 131 % 251) as u8).collect();
        b.put(put(
            1,
            IoKind::Data,
            "/plt/b",
            Payload::Bytes(noise.clone().into()),
        ))
        .unwrap();
        b.end_step().unwrap();
        let sc = String::from_utf8(fs.read_file("/plt/compression_00003.csc").unwrap()).unwrap();
        assert!(sc.starts_with("# io-engine compression sidecar, codec rle:2"));
        assert!(sc.contains(" /plt/a"));
        assert!(sc.contains("500 500 raw /plt/b"), "{sc}");
        // The raw file is byte-identical to its logical payload.
        assert_eq!(fs.read_file("/plt/b"), Some(noise));
    }

    #[test]
    fn metadata_passes_through_uncompressed() {
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let mut b = stage(&fs, &tracker, Box::new(Rle::default()));
        b.begin_step(1, "/");
        b.put(put(
            0,
            IoKind::Metadata,
            "/hdr",
            Payload::Bytes(vec![7u8; 300].into()),
        ))
        .unwrap();
        let stats = b.end_step().unwrap();
        assert_eq!(fs.read_file("/hdr"), Some(vec![7u8; 300]));
        // No data chunks: no sidecar either.
        assert_eq!(stats.files, 1);
        assert_eq!(fs.nfiles(), 1);
        assert_eq!(stats.codec_seconds, 0.0);
    }

    #[test]
    fn account_only_steps_stay_write_free() {
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let mut b = stage(&fs, &tracker, Box::new(LossyQuant::new(8)));
        b.begin_step(1, "/");
        b.put(put(0, IoKind::Data, "/big", Payload::Size(1 << 20)))
            .unwrap();
        let stats = b.end_step().unwrap();
        b.close().unwrap();
        assert_eq!(fs.nfiles(), 0, "nothing materialized");
        // Accounting still covers the modeled physical file + sidecar.
        assert_eq!(stats.files, 2);
        assert_eq!(stats.logical_bytes, 1 << 20);
        assert!(
            stats.bytes - stats.overhead_bytes < 1 << 20,
            "modeled ratio"
        );
        assert_eq!(tracker.total_bytes(), 1 << 20);
        assert!(stats.codec_seconds > 0.0, "cpu cost charged");
    }

    #[test]
    fn quant_materialized_size_matches_account_only_size() {
        // The same logical payload must cost the same physical bytes
        // whether materialized or size-only (oracle-path equivalence).
        let data: Vec<u8> = (0..2048u32)
            .flat_map(|i| (i as f64).cos().to_le_bytes())
            .collect();
        let run = |payload: Payload| {
            let fs = MemFs::new();
            let tracker = IoTracker::new();
            let mut b = stage(&fs, &tracker, Box::new(LossyQuant::new(8)));
            b.begin_step(1, "/");
            b.put(put(0, IoKind::Data, "/f", payload)).unwrap();
            let stats = b.end_step().unwrap();
            stats.bytes - stats.overhead_bytes
        };
        assert_eq!(
            run(Payload::Bytes(data.clone().into())),
            run(Payload::Size(data.len() as u64))
        );
    }

    #[test]
    fn close_report_includes_sidecars() {
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let mut b = stage(&fs, &tracker, Box::new(Rle::default()));
        let mut step_files = 0u64;
        let mut step_bytes = 0u64;
        for step in 1..=3u32 {
            b.begin_step(step, "/");
            b.put(put(
                0,
                IoKind::Data,
                &format!("/f{step}"),
                Payload::Bytes(vec![0u8; 600].into()),
            ))
            .unwrap();
            let stats = b.end_step().unwrap();
            step_files += stats.files;
            step_bytes += stats.bytes;
        }
        let report = b.close().unwrap();
        assert_eq!(report.files, step_files, "per-step and run totals agree");
        assert_eq!(report.bytes, step_bytes);
        assert_eq!(report.logical_bytes, 3 * 600);
        assert!(report.overhead_bytes > 0, "sidecars are overhead");
    }

    #[test]
    fn read_step_decodes_back_to_logical_bytes() {
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let mut b = stage(&fs, &tracker, Box::new(Rle::default()));
        let compressible = vec![3u8; 4096];
        let noise: Vec<u8> = (0..500u32).map(|i| (i * 131 % 251) as u8).collect();
        b.begin_step(1, "/");
        b.put(put(
            0,
            IoKind::Data,
            "/a",
            Payload::Bytes(compressible.clone().into()),
        ))
        .unwrap();
        b.put(put(
            1,
            IoKind::Data,
            "/b",
            Payload::Bytes(noise.clone().into()),
        ))
        .unwrap();
        b.put(put(
            0,
            IoKind::Metadata,
            "/hdr",
            Payload::Bytes(vec![7u8; 64].into()),
        ))
        .unwrap();
        b.end_step().unwrap();

        let read = b.read_step(1, "/").unwrap();
        // Compressed chunk decodes to the exact logical bytes; the raw
        // fallback and metadata pass through.
        assert_eq!(read.logical_content("/a"), Some(compressible));
        assert_eq!(read.logical_content("/b"), Some(noise));
        assert_eq!(read.logical_content("/hdr"), Some(vec![7u8; 64]));
        // Physical read bytes < logical bytes (the wire was compressed),
        // and the sidecar fetch is accounted.
        assert!(read.stats.bytes < read.stats.logical_bytes + 64);
        assert!(read
            .stats
            .requests
            .iter()
            .any(|r| r.path.contains("compression_00001.csc")));
        assert!(read.stats.codec_seconds > 0.0, "decode CPU charged");
        // Tracker read plane is codec-invariant: logical bytes only.
        assert_eq!(tracker.total_read_bytes(), 4096 + 500 + 64);
    }

    #[test]
    fn read_step_models_account_only_chunks() {
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let mut b = stage(&fs, &tracker, Box::new(LossyQuant::new(8)));
        b.begin_step(1, "/");
        b.put(put(0, IoKind::Data, "/big", Payload::Size(1 << 20)))
            .unwrap();
        b.end_step().unwrap();
        let read = b.read_step(1, "/").unwrap();
        assert!(matches!(read.chunks[0].payload, Payload::Size(n) if n == 1 << 20));
        assert_eq!(read.stats.logical_bytes, 1 << 20);
        assert!(
            read.stats.bytes < 1 << 20,
            "physical read is the modeled encoded size"
        );
        assert!(read.stats.codec_seconds > 0.0);
    }

    /// Parallel encode must not let worker scheduling leak into the
    /// sidecar: chunk lines appear in submission order, every run, and
    /// match the serial reference byte for byte.
    #[test]
    fn sidecar_chunk_order_is_deterministic_under_parallel_encode() {
        let run = |parallel: bool| {
            let fs = MemFs::new();
            let tracker = IoTracker::new();
            let inner = Box::new(FilePerProcess::new(&fs as &dyn Vfs, &tracker));
            let codec: Box<dyn Codec> = Box::new(Rle::default());
            let mut b = if parallel {
                CompressionStage::new(inner, codec, &fs as &dyn Vfs)
            } else {
                CompressionStage::serial(inner, codec, &fs as &dyn Vfs)
            };
            b.begin_step(1, "/plt");
            // Mix of compressible and raw-fallback chunks, sizes varied
            // so encode times differ across workers.
            for task in 0..32u32 {
                let data: Vec<u8> = if task % 3 == 0 {
                    (0..(200 + task * 37))
                        .map(|i| (i * 131 % 251) as u8)
                        .collect()
                } else {
                    vec![task as u8; (64 + task * 97) as usize]
                };
                b.put(put(
                    task,
                    IoKind::Data,
                    &format!("/plt/L{}/f_{task:05}", task % 4),
                    Payload::Bytes(data.into()),
                ))
                .unwrap();
            }
            b.end_step().unwrap();
            String::from_utf8(fs.read_file("/plt/compression_00001.csc").unwrap()).unwrap()
        };
        let parallel_a = run(true);
        let parallel_b = run(true);
        let serial = run(false);
        assert_eq!(parallel_a, parallel_b, "repeat runs agree");
        assert_eq!(parallel_a, serial, "parallel matches serial reference");
        // Lines after the header follow submission order.
        for (i, line) in parallel_a.lines().skip(1).enumerate() {
            assert!(
                line.ends_with(&format!("/f_{i:05}")),
                "line {i} out of order: {line}"
            );
        }
    }

    /// A codec that records the thread of every `encode` and
    /// `encoded_size` call (bytes pass through; sizes halve).
    #[derive(Clone, Default)]
    struct ThreadLog(std::sync::Arc<std::sync::Mutex<Vec<std::thread::ThreadId>>>);

    impl ThreadLog {
        fn record(&self) {
            self.0.lock().unwrap().push(std::thread::current().id());
        }
    }

    impl Codec for ThreadLog {
        fn name(&self) -> String {
            "threadlog".to_string()
        }

        fn encode(&self, data: &[u8], _ctx: &CodecContext<'_>) -> Vec<u8> {
            self.record();
            data.to_vec()
        }

        fn decode(&self, data: &[u8], _logical_len: u64, _ctx: &CodecContext<'_>) -> Vec<u8> {
            data.to_vec()
        }

        fn encoded_size(&self, logical: u64, _ctx: &CodecContext<'_>) -> u64 {
            self.record();
            logical / 2
        }

        fn cpu_ns_per_byte(&self) -> f64 {
            1.0
        }
    }

    /// The threads one 16-chunk step's encode ran on, one per chunk.
    fn encode_threads(payload: impl Fn(u32) -> Payload) -> Vec<std::thread::ThreadId> {
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let log = ThreadLog::default();
        let mut b = stage(&fs, &tracker, Box::new(log.clone()));
        b.begin_step(1, "/");
        for task in 0..16 {
            b.put(put(task, IoKind::Data, &format!("/f{task}"), payload(task)))
                .unwrap();
        }
        b.end_step().unwrap();
        let ids = log.0.lock().unwrap().clone();
        assert_eq!(ids.len(), 16, "one encode call per data chunk");
        ids
    }

    #[test]
    fn size_only_step_encodes_on_the_calling_thread() {
        let me = std::thread::current().id();
        let ids = encode_threads(|_| Payload::Size(4096));
        assert!(ids.iter().all(|&id| id == me), "a size-only step spawned");
    }

    #[test]
    fn step_with_real_bytes_still_fans_out() {
        let me = std::thread::current().id();
        let all_bytes = encode_threads(|task| Payload::Bytes(vec![task as u8; 4096].into()));
        // One real chunk is enough to fan the whole step out.
        let one_real = encode_threads(|task| match task {
            0 => Payload::Bytes(vec![7u8; 4096].into()),
            _ => Payload::Size(4096),
        });
        for ids in [all_bytes, one_real] {
            let spawned = ids.iter().any(|&id| id != me);
            assert_eq!(spawned, crate::cores() > 1, "{ids:?}");
        }
    }

    #[test]
    fn stage_names_compose() {
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let b = stage(&fs, &tracker, Box::new(LossyQuant::new(4)));
        assert_eq!(b.name(), "fpp+quant:4");
    }
}
