//! Online data-layout reorganization: rewriting a written step from its
//! write-optimized layout into a read-optimized one.
//!
//! What it adds to the shared layout plane (`layout.rs`): a third
//! **placement** — data chunks cluster by level, path-sorted inside each
//! level file, with a *segmented* index — delivered by writing now; its
//! reads run through the same span reader as every backend's.
//!
//! Wan et al. ("Improving I/O Performance for Exascale Applications
//! through Online Data Layout Reorganization") show that the layout a
//! parallel writer produces — per-rank coalesced files, BP-style
//! aggregator subfiles with one monolithic index — is the wrong layout
//! for the selective reads post-hoc analysis issues, and that rewriting
//! the data *online* (while it is still hot, charged like any other I/O)
//! makes those reads cheap. This module is that pass:
//!
//! 1. [`Reorganizer::reorganize`] reads a finished step back through its
//!    source backend (the full stack, so compressed chunks arrive
//!    decoded), re-clusters the data chunks **by level, then by logical
//!    path** (the field axis), re-encodes them through the
//!    reorganizer's own codec, and writes one coalesced file per level
//!    plus a rewritten, *segmented* index:
//!
//!    ```text
//!    <container>/reorg00004/level.0     level-0 chunks, path-sorted
//!    <container>/reorg00004/level.1
//!    <container>/reorg00004/reorg.idx   directory + per-level chunk
//!                                       tables + metadata blob
//!    ```
//!
//! 2. [`Reorganizer::read_selection`] then serves analysis reads from
//!    the new layout. Where the write-optimized layouts pay a
//!    whole-index fetch and touch every subfile a selection's chunks
//!    were scattered across, the reorganized reader fetches the small
//!    index *directory*, only the chunk-table segments of the levels
//!    the selection can touch ([`ReadSelection::level_range`]), the
//!    matched metadata bytes, and one contiguous run per touched level
//!    file — strictly fewer physical bytes and fewer file opens for
//!    by-level and by-field queries (`specs/analysis.toml` prices it,
//!    regression tests pin the inequality).
//!
//! Both sides of the trade are priced: [`ReorgStats`] carries the source
//! read's accounting, the rewrite's write requests, and the
//! decode+re-encode CPU, so a campaign can answer "how many selective
//! reads amortize one reorganization?" with simulated numbers instead
//! of an assumption. Reorganization I/O flows through the same tracker
//! read plane and burst scheduler as every other phase.
//!
//! One modeled trade to know about: clustering concentrates a level's
//! bytes into one file, and `iosim`'s storage model assigns whole files
//! to single servers — so on wide stripes the raw layout's scatter can
//! buy back transfer parallelism that the clustered layout gives up.
//! The byte-volume and open-count wins are unconditional; the
//! wall-clock win is cleanest on bandwidth-bound (few-server) storage,
//! which is where the examples and regression tests pin it.

use crate::backend::{IoBackend, ReadStats, StepRead, StepStats};
use crate::codec::{encode_payload, Codec, CodecContext, CodecSpec};
use crate::layout::{index_tail, read_file_exact, FileBuild, Source, Span, SpanReader};
use crate::selection::ReadSelection;
use crate::stage::decode_chunks;
use bytes::Bytes;
use iosim::{IoKind, IoTracker, Vfs, WriteRequest};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::io;

/// Everything retained about one reorganized step.
struct ReorgStep {
    /// The step's directory: `reorg.idx` and the `level.N` files.
    dir: String,
    /// Directory header bytes (always fetched by a reader).
    header_bytes: u64,
    /// Byte length of the metadata table segment.
    meta_table_bytes: u64,
    /// Offset of the metadata blob inside the index file.
    blob_offset: u64,
    /// True when the index was physically written.
    index_written: bool,
    /// Level clusters, coarsest first: the coalesced level file (chunks
    /// path-sorted, stable) and the byte length of its chunk-table
    /// segment in the index.
    levels: BTreeMap<u32, (FileBuild, u64)>,
    /// Metadata chunks in submission order, embedded in the index blob.
    meta: FileBuild,
}

/// Accounting of one [`Reorganizer::reorganize`] pass: what the rewrite
/// cost, on both planes, so callers can charge it to the simulated
/// clock like any other burst.
#[derive(Clone, Debug, Default)]
pub struct ReorgStats {
    /// The step that was reorganized.
    pub step: u32,
    /// The source fetch: a full-step read through the source backend
    /// (its requests time the read burst; its `codec_seconds` is the
    /// decode CPU of the source's compression stage).
    pub read: ReadStats,
    /// Physical files written in the read-optimized layout (level
    /// clusters + index).
    pub files: u64,
    /// Physical bytes written (cluster payloads + index).
    pub bytes: u64,
    /// Index bytes inside `bytes` (directory, tables, metadata blob —
    /// bookkeeping, like the aggregation index).
    pub overhead_bytes: u64,
    /// Modeled CPU seconds spent *re-encoding* chunks into the new
    /// layout (the decode side is in `read.codec_seconds`).
    pub codec_seconds: f64,
    /// Write requests of the rewrite, for burst timing.
    pub requests: Vec<WriteRequest>,
}

/// The online reorganization pass and the read-optimized layout it
/// produces (see module docs).
pub struct Reorganizer<'a> {
    vfs: &'a dyn Vfs,
    tracker: &'a IoTracker,
    codec: Box<dyn Codec>,
    steps: HashMap<u32, ReorgStep>,
}

impl<'a> Reorganizer<'a> {
    /// A reorganizer writing through `vfs`, recording its analysis reads
    /// into `tracker`'s read plane, and re-encoding data chunks through
    /// `codec` (pass the run's codec to keep the reorganized layout at
    /// wire size; [`CodecSpec::Identity`] stores logical bytes).
    pub fn new(vfs: &'a dyn Vfs, tracker: &'a IoTracker, codec: CodecSpec) -> Self {
        Self {
            vfs,
            tracker,
            codec: codec.build(),
            steps: HashMap::new(),
        }
    }

    fn step_dir(container: &str, step: u32) -> String {
        let base = container.trim_end_matches('/');
        format!("{base}/reorg{step:05}")
    }

    /// Rewrites `step` (already written under `container` through
    /// `source`) into the read-optimized layout. The source read goes
    /// through `source`'s full read path — deferred backends barrier
    /// their drains, compression stages decode — and its accounting is
    /// returned in `ReorgStats::read` so the caller can price the
    /// fetch; the rewrite's files land next to the originals under
    /// `<container>/reorg<step>/`.
    pub fn reorganize(
        &mut self,
        source: &mut dyn IoBackend,
        step: u32,
        container: &str,
    ) -> io::Result<ReorgStats> {
        let src = source.read_step(step, container)?;
        let dir = Self::step_dir(container, step);
        self.vfs.create_dir_all(&dir)?;

        // Split and re-cluster: data by (level, path) — stable sort, so
        // chunks of one path keep their submission order and concatenate
        // back to the path's logical content — metadata into the index
        // blob in submission order.
        let (mut data, meta_src): (Vec<_>, Vec<_>) =
            src.chunks.into_iter().partition(|c| c.kind == IoKind::Data);
        data.sort_by(|a, b| a.key.level.cmp(&b.key.level).then(a.path.cmp(&b.path)));

        // Each level's file and its chunk-table segment of the index.
        let mut levels: BTreeMap<u32, (FileBuild, String)> = BTreeMap::new();
        let mut encode_ns = 0.0f64;
        for c in data {
            let ctx = CodecContext {
                level: c.key.level,
                kind: c.kind,
                path: &c.path,
            };
            // Re-encode through the reorganizer's codec: the source stack
            // delivered logical bytes (or a logical size), and the new
            // layout should cost what the old one did on the wire.
            encode_ns += c.payload.logical_len() as f64 * self.codec.cpu_ns_per_byte();
            let (encoded, _) = encode_payload(self.codec.as_ref(), c.payload, &ctx);
            let (file, table) = levels.entry(c.key.level).or_default();
            file.push(c.key, c.kind, Some(c.path), encoded);
            file.write_last_row(table);
        }

        // Metadata blob (uncompressed, like the compression stage).
        let mut meta = FileBuild::default();
        let mut meta_table = String::new();
        for c in meta_src {
            meta.push(c.key, c.kind, Some(c.path), c.payload);
            meta.write_last_row(&mut meta_table);
        }
        // Only materialized metadata is in the blob.
        let blob_len: u64 = meta.segs().iter().map(|s| s.len() as u64).sum();

        // The rewritten index: a small directory (one line per segment)
        // followed by per-level chunk tables, the metadata table, and the
        // metadata blob. The directory is what makes the index
        // *partially* fetchable — a selective reader pulls the directory
        // plus only the segments its level range touches, instead of the
        // monolithic blob the write-optimized layouts store.
        let mut index = format!(
            "# io-engine reorg index, step {step}, codec {}\n",
            self.codec.name()
        );
        for (level, (file, table)) in &levels {
            let _ = writeln!(
                index,
                "L {level} {dir}/level.{level} {bytes} {table} {n}",
                bytes = file.bytes(),
                table = table.len(),
                n = file.spans.len(),
            );
        }
        let _ = writeln!(
            index,
            "M {n} {table} {blob_len}",
            n = meta.spans.len(),
            table = meta_table.len(),
        );
        let header_bytes = index.len() as u64;
        for (_, table) in levels.values() {
            index.push_str(table);
        }
        index.push_str(&meta_table);
        let blob_offset = index.len() as u64;
        let index_path = format!("{dir}/reorg.idx");
        let index_bytes = blob_offset + blob_len;

        // Physical writes: level files whose content fully materialized,
        // and the index whenever anything did (mirrors the backends'
        // account-only rule: a fully modeled step stays write-free).
        let any_materialized = levels
            .values()
            .any(|(f, _)| !f.account_only && f.bytes() > 0)
            || blob_len > 0;
        let mut written = StepStats::of(step);
        let mut retained = BTreeMap::new();
        for (level, (mut file, table)) in levels {
            // Attributed to the lowest task with data at this level.
            file.rank = file.spans.iter().map(|c| c.key.task).min().unwrap_or(0);
            let path = format!("{dir}/level.{level}");
            file.write_now(self.vfs, &path)?;
            written.add_file(file.rank as usize, path, file.bytes(), 0);
            retained.insert(level, (file, table.len() as u64));
        }
        let index_written = any_materialized && !meta.account_only;
        let mut index_segs = vec![Bytes::from(index)];
        index_segs.extend(meta.seal());
        if index_written {
            let bytes = self.vfs.write_file_concat(&index_path, &index_segs)?;
            debug_assert_eq!(bytes, index_bytes);
        }
        written.add_file(0, index_path, index_bytes, 0);

        self.steps.insert(
            step,
            ReorgStep {
                dir,
                header_bytes,
                meta_table_bytes: meta_table.len() as u64,
                blob_offset,
                index_written,
                levels: retained,
                meta,
            },
        );
        Ok(ReorgStats {
            step,
            read: src.stats,
            files: written.files,
            bytes: written.bytes,
            overhead_bytes: index_bytes,
            codec_seconds: encode_ns / 1e9,
            requests: written.requests,
        })
    }

    /// Serves an analysis read from the reorganized layout of `step`.
    ///
    /// Physical accounting, per the layout's design:
    ///
    /// * one index request covering the directory, the chunk-table
    ///   segments of the levels the selection can touch, the metadata
    ///   table, and the *matched* metadata bytes (cut out of the blob at
    ///   directory-known offsets);
    /// * one request per touched level file carrying only the matched
    ///   chunk bytes (matched chunks of one path are contiguous by
    ///   construction); level files outside the selection's
    ///   `ReadSelection::level_range` — and level files with no
    ///   matching chunk — are not opened.
    ///
    /// Returned chunks are the same set a source-backend
    /// `read_selection` would return (data re-clustered in layout
    /// order), decoded through the reorganizer's codec, and recorded in
    /// the tracker's read plane at logical size.
    pub fn read_selection(&self, step: u32, sel: &ReadSelection) -> io::Result<StepRead> {
        let info = self.steps.get(&step).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("reorg read: step {step} was never reorganized"),
            )
        })?;
        let mut reader = SpanReader::new(self.tracker, step, sel);

        // Index fetch: directory + touched table segments + metadata
        // table + matched metadata bytes.
        let level_range = sel.level_range();
        let in_range = |level: &u32| match level_range {
            None => true,
            Some((lo, hi)) => (lo..=hi).contains(level),
        };
        let index_path = format!("{}/reorg.idx", info.dir);
        let meta = &info.meta;
        let matched_meta: Vec<&Span> = (meta.spans.iter().enumerate())
            .filter(|(i, m)| sel.matches(&m.key, meta.logical_path(*i, &index_path)))
            .map(|(_, m)| m)
            .collect();
        let index_fetch = info.header_bytes
            + info.meta_table_bytes
            + info
                .levels
                .iter()
                .filter(|(level, _)| in_range(level))
                .map(|(_, (_, table_bytes))| table_bytes)
                .sum::<u64>()
            + matched_meta.iter().map(|m| m.len).sum::<u64>();
        reader.out.stats.add_fetch(index_path.clone(), index_fetch);

        // The on-disk metadata blob — loaded only when a matched metadata
        // entry will consume it (data-only queries, the common analysis
        // case, skip the fetch).
        let blob = (!matched_meta.is_empty() && !info.meta.account_only && info.index_written)
            .then(|| read_file_exact(self.vfs, &index_path))
            .flatten()
            .map(|content| index_tail(&content, &index_path, info.blob_offset))
            .transpose()?;

        // Data: matched chunks per level cluster, then matched metadata.
        for (level, (file, _)) in info.levels.iter().filter(|(level, _)| in_range(level)) {
            let path = format!("{}/level.{level}", info.dir);
            reader.read_file(&path, file, Source::Stored(self.vfs))?;
        }
        reader.read_file(&index_path, &info.meta, Source::Fetched(blob.as_ref()))?;

        // Decode what the rewrite encoded.
        let mut read = reader.out;
        decode_chunks(self.codec.as_ref(), &mut read);
        Ok(read)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{ChunkRead, Payload, Put};
    use crate::spec::BackendSpec;
    use iosim::{IoKey, MemFs};

    const FIELDS: [&str; 3] = ["density", "pressure", "velocity"];

    /// Writes a 3-level, 3-field synthetic AMR step through the given
    /// stack and returns the backend for reading.
    fn write_step<'a>(
        fs: &'a MemFs,
        tracker: &'a IoTracker,
        backend: BackendSpec,
        codec: CodecSpec,
        ntasks: u32,
    ) -> Box<dyn IoBackend + 'a> {
        let mut b = backend.build_with_codec(codec, fs as &dyn Vfs, tracker);
        b.begin_step(1, "/plt");
        b.create_dir_all("/plt").unwrap();
        for level in 0..3u32 {
            for task in 0..ntasks {
                for field in FIELDS {
                    let data: Vec<u8> = (0..64u32)
                        .flat_map(|i| ((i + task + level) as f64).to_le_bytes())
                        .collect();
                    b.put(Put {
                        key: IoKey {
                            step: 1,
                            level,
                            task,
                        },
                        kind: IoKind::Data,
                        path: format!("/plt/L{level}/{field}_{task:05}"),
                        payload: Payload::Bytes(data.into()),
                    })
                    .unwrap();
                }
            }
        }
        b.put(Put {
            key: IoKey {
                step: 1,
                level: 0,
                task: 0,
            },
            kind: IoKind::Metadata,
            path: "/plt/Header".to_string(),
            payload: Payload::Bytes(vec![b'h'; 400].into()),
        })
        .unwrap();
        b.end_step().unwrap();
        b
    }

    /// Canonical identity of a chunk: `(step, level, task, is_meta, path)`.
    type ChunkId = (u32, u32, u32, u8, String);

    fn chunk_key(c: &ChunkRead) -> ChunkId {
        (
            c.key.step,
            c.key.level,
            c.key.task,
            matches!(c.kind, IoKind::Metadata) as u8,
            c.path.clone(),
        )
    }

    fn sorted_contents(read: &StepRead) -> Vec<(ChunkId, Vec<u8>)> {
        let mut v: Vec<_> = read
            .chunks
            .iter()
            .map(|c| {
                let bytes = match &c.payload {
                    Payload::Bytes(b) => b.to_vec(),
                    Payload::Size(n) => format!("size:{n}").into_bytes(),
                    other => panic!("undecoded payload in read: {other:?}"),
                };
                (chunk_key(c), bytes)
            })
            .collect();
        v.sort();
        v
    }

    #[test]
    fn reorganized_reads_return_the_same_chunks() {
        for codec in [CodecSpec::Identity, CodecSpec::Rle(2.0)] {
            let fs = MemFs::new();
            let tracker = IoTracker::new();
            let mut src = write_step(&fs, &tracker, BackendSpec::Aggregated(2), codec, 4);
            let mut reorg = Reorganizer::new(&fs as &dyn Vfs, &tracker, codec);
            reorg.reorganize(src.as_mut(), 1, "/plt").unwrap();
            for sel in [
                ReadSelection::Full,
                ReadSelection::Level(1),
                ReadSelection::Field("pressure".into()),
                ReadSelection::parse("box:0-1,1-2").unwrap(),
            ] {
                let raw = src.read_selection(1, "/plt", &sel).unwrap();
                let reorganized = reorg.read_selection(1, &sel).unwrap();
                assert_eq!(
                    sorted_contents(&raw),
                    sorted_contents(&reorganized),
                    "codec {} sel {}",
                    codec.name(),
                    sel.name()
                );
                assert_eq!(raw.stats.logical_bytes, reorganized.stats.logical_bytes);
            }
        }
    }

    #[test]
    fn selective_reads_fetch_fewer_bytes_and_files_than_raw() {
        // The Wan et al. claim, as a regression: by-level and by-field
        // reads of the reorganized layout beat the same selection on the
        // raw aggregated layout on physical bytes AND file opens.
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let mut src = write_step(
            &fs,
            &tracker,
            BackendSpec::Aggregated(2),
            CodecSpec::Identity,
            8,
        );
        let mut reorg = Reorganizer::new(&fs as &dyn Vfs, &tracker, CodecSpec::Identity);
        reorg.reorganize(src.as_mut(), 1, "/plt").unwrap();
        for sel in [
            ReadSelection::Level(1),
            ReadSelection::Field("density".into()),
        ] {
            let raw = src.read_selection(1, "/plt", &sel).unwrap();
            let opt = reorg.read_selection(1, &sel).unwrap();
            assert!(
                opt.stats.bytes < raw.stats.bytes,
                "{}: reorg {} must beat raw {}",
                sel.name(),
                opt.stats.bytes,
                raw.stats.bytes
            );
            assert!(
                opt.stats.files <= raw.stats.files,
                "{}: reorg opens {} vs raw {}",
                sel.name(),
                opt.stats.files,
                raw.stats.files
            );
            assert_eq!(opt.stats.logical_bytes, raw.stats.logical_bytes);
        }
    }

    #[test]
    fn level_files_cluster_chunks_by_path() {
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let mut src = write_step(
            &fs,
            &tracker,
            BackendSpec::FilePerProcess,
            CodecSpec::Identity,
            2,
        );
        let mut reorg = Reorganizer::new(&fs as &dyn Vfs, &tracker, CodecSpec::Identity);
        let stats = reorg.reorganize(src.as_mut(), 1, "/plt").unwrap();
        // 3 level files + 1 index.
        assert_eq!(stats.files, 4);
        assert!(fs.file_size("/plt/reorg00001/level.0").is_some());
        assert!(fs.file_size("/plt/reorg00001/level.2").is_some());
        let idx = String::from_utf8(fs.read_file("/plt/reorg00001/reorg.idx").unwrap()).unwrap();
        assert!(idx.starts_with("# io-engine reorg index, step 1"));
        assert!(idx.contains("L 0 /plt/reorg00001/level.0"), "{idx}");
        assert!(idx.contains("M 1 "), "metadata directory line: {idx}");
        // Within the level file, the two density chunks precede pressure
        // (path-sorted clustering).
        let full = reorg.read_selection(1, &ReadSelection::Full).unwrap();
        let level0: Vec<&ChunkRead> = full
            .chunks
            .iter()
            .filter(|c| c.kind == IoKind::Data && c.key.level == 0)
            .collect();
        let paths: Vec<&str> = level0.iter().map(|c| c.path.as_str()).collect();
        let mut sorted = paths.clone();
        sorted.sort();
        assert_eq!(paths, sorted, "cluster order is path-sorted");
        // The rewrite priced both planes.
        assert!(stats.read.bytes > 0);
        assert!(stats.bytes > 0);
        assert!(!stats.requests.is_empty());
    }

    #[test]
    fn account_only_steps_reorganize_as_modeled_layouts() {
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let mut b = BackendSpec::Aggregated(2).build_with_codec(
            CodecSpec::Identity,
            &fs as &dyn Vfs,
            &tracker,
        );
        b.begin_step(1, "/plt");
        for task in 0..4u32 {
            b.put(Put {
                key: IoKey {
                    step: 1,
                    level: task % 2,
                    task,
                },
                kind: IoKind::Data,
                path: format!("/plt/f{task}"),
                payload: Payload::Size(1000),
            })
            .unwrap();
        }
        b.end_step().unwrap();
        let before = fs.nfiles();
        let mut reorg = Reorganizer::new(&fs as &dyn Vfs, &tracker, CodecSpec::Identity);
        let stats = reorg.reorganize(b.as_mut(), 1, "/plt").unwrap();
        assert_eq!(fs.nfiles(), before, "modeled rewrite stays write-free");
        assert_eq!(stats.files, 3, "2 level clusters + index, all modeled");
        let read = reorg.read_selection(1, &ReadSelection::Level(1)).unwrap();
        assert_eq!(read.chunks.len(), 2);
        assert!(read
            .chunks
            .iter()
            .all(|c| matches!(c.payload, Payload::Size(1000))));
        assert!(read.stats.bytes > 0, "modeled fetch is still accounted");
    }

    #[test]
    fn quant_reorg_round_trips_the_reconstruction() {
        // Lossy pipeline: the reorganized read must return the *same*
        // reconstruction the raw read returns (decode∘encode is a fixed
        // point), at the same wire size.
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let codec = CodecSpec::LossyQuant(8);
        let mut src = write_step(&fs, &tracker, BackendSpec::FilePerProcess, codec, 2);
        let mut reorg = Reorganizer::new(&fs as &dyn Vfs, &tracker, codec);
        let stats = reorg.reorganize(src.as_mut(), 1, "/plt").unwrap();
        let sel = ReadSelection::Field("velocity".into());
        let raw = src.read_selection(1, "/plt", &sel).unwrap();
        let opt = reorg.read_selection(1, &sel).unwrap();
        assert_eq!(sorted_contents(&raw), sorted_contents(&opt));
        assert!(stats.codec_seconds > 0.0, "re-encode CPU charged");
        assert!(opt.stats.codec_seconds > 0.0, "decode CPU charged");
        // Wire stays compressed: the level files hold encoded bytes.
        let level_bytes: u64 = (0..3)
            .filter_map(|l| fs.file_size(&format!("/plt/reorg00001/level.{l}")))
            .sum();
        let logical: u64 = reorg
            .read_selection(1, &ReadSelection::Full)
            .unwrap()
            .stats
            .logical_bytes;
        assert!(level_bytes < logical, "{level_bytes} vs {logical}");
    }

    #[test]
    fn unreorganized_step_errors() {
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let reorg = Reorganizer::new(&fs as &dyn Vfs, &tracker, CodecSpec::Identity);
        assert!(reorg.read_selection(7, &ReadSelection::Full).is_err());
    }
}
