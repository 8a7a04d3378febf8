//! Two-level aggregation backend, modelled on ADIOS2's BP format.
//!
//! What it adds to the shared layout plane (`layout.rs`):
//!
//! * **placement** — data puts from N producer tasks funnel into
//!   `A = ceil(N / ratio)` aggregator subfiles per step (aggregator of
//!   task `t` is `t / ratio`), coalesced in arrival order — the "data
//!   layout reorganization" of Wan et al.; metadata puts embed in one
//!   per-step index file after the chunk table. A step with data on `A`
//!   aggregators creates exactly `A + 1` physical files:
//!
//!   ```text
//!   <container>/bp00001/data.0       aggregator subfile (coalesced chunks)
//!   <container>/bp00001/data.1
//!   <container>/bp00001/md.idx       chunk table + embedded metadata puts
//!   ```
//!
//! * **delivery** — write now, with the index streamed: each subfile's
//!   table rows are formatted at put time, so sealing a step concatenates
//!   segments instead of rebuilding one index buffer.
//!
//! The index file holds a plain-text chunk table (one line per chunk:
//! subfile, then the shared span row — offset, physical length, logical
//! length, key, logical path) followed by the raw bytes of every metadata
//! put. Table bytes are counted as backend *overhead*; payload bytes keep
//! their producer attribution in the tracker — at *logical*
//! (pre-compression) size — so byte accounting at `(step, level, task)`
//! granularity is identical to the other backends and invariant under
//! the compression stage. The per-chunk logical column lets readers
//! recover pre-compression sizes (the format a golden-file test pins
//! byte-exactly).
//!
//! Reads seek through the *on-disk* `md.idx` whenever the step
//! materialized one — the honest restart path, and outside input by
//! then: rows that do not fit their subfile are typed errors — and always
//! fetch the whole index first: the write-optimized BP layout stores one
//! monolithic index blob, the per-query penalty the `reorg` module's
//! rewritten index removes.

use crate::backend::{
    unsupported_read, EngineReport, IoBackend, OpenStep, Put, StepRead, StepStats,
};
use crate::layout::{index_tail, read_file_exact, FileBuild, Source, Span, SpanReader};
use crate::selection::ReadSelection;
use bytes::Bytes;
use iosim::{IoKind, IoTracker, Vfs};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::io;

/// The open step: one file per aggregator plus the index's embedded
/// metadata region.
struct AggStep {
    step: u32,
    dir: String,
    /// Per aggregator id: the subfile, and its rows of the index chunk
    /// table — grown per put, so `end_step` only concatenates them.
    aggs: BTreeMap<usize, (FileBuild, String)>,
    /// Metadata puts, embedded in `md.idx` after the chunk table.
    meta: FileBuild,
}

/// What the backend remembers about a finished step so `read_step` can
/// serve it: the chunk table comes back from the on-disk `md.idx` index
/// whenever it was materialized; the retained subfiles are the fallback
/// for account-only (modeled) steps, and `meta` carries the metadata
/// boundaries the flat index format does not store.
#[derive(Clone)]
struct RetainedStep {
    dir: String,
    /// Byte length of the chunk table inside the index file (the
    /// embedded metadata blob starts there).
    table_len: u64,
    index_bytes: u64,
    index_written: bool,
    /// The subfiles per aggregator id.
    subfiles: BTreeMap<usize, FileBuild>,
    meta: FileBuild,
}

/// The aggregating backend (see module docs).
pub(crate) struct Aggregated<'a> {
    vfs: &'a dyn Vfs,
    tracker: &'a IoTracker,
    /// Producer tasks per aggregator (>= 1).
    ratio: usize,
    cur: OpenStep<AggStep>,
    retained: HashMap<u32, RetainedStep>,
    report: EngineReport,
}

impl<'a> Aggregated<'a> {
    /// A backend aggregating `ratio` producer tasks per subfile.
    pub(crate) fn new(vfs: &'a dyn Vfs, tracker: &'a IoTracker, ratio: usize) -> Self {
        Self {
            vfs,
            tracker,
            ratio: ratio.max(1),
            cur: OpenStep::closed(),
            retained: HashMap::new(),
            report: EngineReport::default(),
        }
    }

    fn step_dir(container: &str, step: u32) -> String {
        let base = container.trim_end_matches('/');
        format!("{base}/bp{step:05}")
    }

    /// Parses the plain-text chunk table of an index file back into
    /// subfiles shaped like the retained ones. `Ok(None)` on any
    /// malformed line (the caller then falls back to its retained copy);
    /// a row naming a subfile the step never had is a typed error.
    fn parse_index_table(
        table: &str,
        retained: &BTreeMap<usize, FileBuild>,
    ) -> io::Result<Option<BTreeMap<usize, FileBuild>>> {
        let mut subfiles: BTreeMap<usize, FileBuild> = BTreeMap::new();
        for line in table.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let row = line.split_once(' ').and_then(|(subfile, row)| {
                let agg: usize = subfile.rsplit_once('.')?.1.parse().ok()?;
                Some((agg, Span::parse_row(row)?))
            });
            let Some((agg, (span, path))) = row else {
                return Ok(None);
            };
            let kept = retained.get(&agg).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("read_step: unknown subfile data.{agg} in index"),
                )
            })?;
            subfiles
                .entry(agg)
                .or_insert_with(|| {
                    let mut subfile = FileBuild::for_rank(kept.rank);
                    subfile.account_only = kept.account_only;
                    subfile
                })
                .push_span(span, Some(path));
        }
        Ok(Some(subfiles))
    }
}

impl IoBackend for Aggregated<'_> {
    fn name(&self) -> String {
        format!("agg:{}", self.ratio)
    }

    fn begin_step(&mut self, step: u32, container: &str) {
        self.cur.begin(AggStep {
            step,
            dir: Self::step_dir(container, step),
            aggs: BTreeMap::new(),
            meta: FileBuild::default(),
        });
    }

    fn create_dir_all(&mut self, path: &str) -> io::Result<()> {
        self.vfs.create_dir_all(path)
    }

    fn put(&mut self, put: Put) -> io::Result<()> {
        let cur = self.cur.get();
        self.tracker
            .record(put.key, put.kind, put.payload.logical_len());
        match put.kind {
            IoKind::Data => {
                let agg = put.key.task as usize / self.ratio;
                // Requests are attributed to the aggregator's lowest
                // producer task.
                let (file, table) = cur.aggs.entry(agg).or_insert_with(|| {
                    (
                        FileBuild::for_rank((agg * self.ratio) as u32),
                        String::new(),
                    )
                });
                file.push(put.key, put.kind, Some(put.path), put.payload);
                // Stream this chunk's index-table row now — the subfile
                // path, offset, and spans are all known at put time, so
                // end_step only concatenates per-subfile table segments.
                let _ = write!(table, "{}/data.{agg} ", cur.dir);
                file.write_last_row(table);
            }
            IoKind::Metadata => cur
                .meta
                .push(put.key, put.kind, Some(put.path), put.payload),
        }
        Ok(())
    }

    fn end_step(&mut self) -> io::Result<StepStats> {
        let mut cur = self.cur.end();
        let mut stats = StepStats::of(cur.step);

        // Index segments: header line, then each subfile's table rows
        // (already formatted incrementally at put time), then the raw
        // metadata payload segments — streamed to the filesystem without
        // ever assembling one contiguous index buffer.
        let header = format!("# io-engine BP-style index, step {}\n", cur.step);
        let table_len =
            header.len() as u64 + cur.aggs.values().map(|(_, t)| t.len() as u64).sum::<u64>();
        // The index is physically written only when the step materialized
        // content: metadata payloads must all be real bytes, and a step
        // whose every put was size-only stays write-free end to end.
        let wrote_any_data = cur.aggs.values().any(|(f, _)| !f.account_only);
        let index_written = !cur.meta.account_only && (wrote_any_data || cur.meta.bytes() > 0);
        let mut index_segs = Vec::with_capacity(1 + cur.aggs.len() + cur.meta.segs().len());
        index_segs.push(Bytes::from(header));

        // Account-only is decided per subfile (a size-only chunk makes
        // that subfile's coalesced content incomplete), mirroring the
        // per-file handling of the file-per-process backend.
        let mut subfiles = BTreeMap::new();
        for (agg, (mut file, table)) in cur.aggs {
            let path = format!("{}/data.{agg}", cur.dir);
            file.write_now(self.vfs, &path)?;
            file.book(path, &mut stats);
            if !table.is_empty() {
                index_segs.push(Bytes::from(table));
            }
            subfiles.insert(agg, file);
        }

        // Index file: chunk table + embedded metadata payloads.
        let index_path = format!("{}/md.idx", cur.dir);
        let index_bytes = table_len + cur.meta.bytes();
        index_segs.extend(cur.meta.seal());
        if index_written {
            let written = self.vfs.write_file_concat(&index_path, &index_segs)?;
            debug_assert_eq!(written, index_bytes);
        }
        stats.add_file(0, index_path, index_bytes, cur.meta.logical_bytes());
        stats.overhead_bytes += table_len;

        self.retained.insert(
            cur.step,
            RetainedStep {
                dir: cur.dir,
                table_len,
                index_bytes,
                index_written,
                subfiles,
                meta: cur.meta,
            },
        );
        self.report.add_step(&stats);
        Ok(stats)
    }

    fn read_selection(
        &mut self,
        step: u32,
        _container: &str,
        sel: &ReadSelection,
    ) -> io::Result<StepRead> {
        self.cur.assert_closed("read_step");
        let info = self
            .retained
            .get(&step)
            .ok_or_else(|| unsupported_read(&self.name(), step, sel, "step was never written"))?;
        let mut reader = SpanReader::new(self.tracker, step, sel);

        // Resolve the chunk table: seek through the on-disk md.idx when
        // the step materialized one (the honest restart path), falling
        // back to the retained copy for account-only (modeled) steps.
        let index_path = format!("{}/md.idx", info.dir);
        let index_content = info
            .index_written
            .then(|| read_file_exact(self.vfs, &index_path))
            .flatten();
        let (on_disk, meta_blob) = match &index_content {
            Some(content) => {
                let blob = index_tail(content, &index_path, info.table_len)?;
                let table = match std::str::from_utf8(&content[..info.table_len as usize]) {
                    Ok(table) => Self::parse_index_table(table, &info.subfiles)?,
                    Err(_) => None,
                };
                (table, Some(blob))
            }
            None => (None, None),
        };
        // One read request for the index itself (table + embedded
        // metadata), modeled at its declared size when not materialized,
        // and fetched whole regardless of the selection: a reader must
        // pull the monolithic blob in full to locate *any* chunk.
        reader
            .out
            .stats
            .add_fetch(index_path.clone(), info.index_bytes);

        // Data chunks: seek into each aggregator subfile by the index's
        // (offset, len) ranges for the chunks the selection touches —
        // scattered selections over the arrival-ordered layout cost more
        // requests than clustered ones, and subfiles none of whose chunks
        // match stay unopened.
        for (agg, subfile) in on_disk.as_ref().unwrap_or(&info.subfiles) {
            let path = format!("{}/data.{agg}", info.dir);
            reader.read_file(&path, subfile, Source::Stored(self.vfs))?;
        }
        // Metadata chunks: cut out of the index file's embedded blob
        // (already fetched with the index request), filtered like data.
        reader.read_file(&index_path, &info.meta, Source::Fetched(meta_blob.as_ref()))?;
        Ok(reader.out)
    }

    fn close(&mut self) -> io::Result<EngineReport> {
        self.cur.assert_closed("close");
        Ok(self.report.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Payload;
    use iosim::{IoKey, MemFs};

    fn put(task: u32, kind: IoKind, path: &str, data: &[u8]) -> Put {
        Put {
            key: IoKey {
                step: 1,
                level: 0,
                task,
            },
            kind,
            path: path.to_string(),
            payload: Payload::Bytes(data.to_vec().into()),
        }
    }

    #[test]
    fn files_equal_aggregators_plus_one() {
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let mut b = Aggregated::new(&fs as &dyn Vfs, &tracker, 4);
        b.begin_step(1, "/");
        for task in 0..16u32 {
            b.put(put(task, IoKind::Data, &format!("/f{task}"), b"datadata"))
                .unwrap();
        }
        b.put(put(0, IoKind::Metadata, "/root", b"meta")).unwrap();
        let stats = b.end_step().unwrap();
        // 16 tasks / ratio 4 = 4 aggregators, + 1 index.
        assert_eq!(stats.files, 4 + 1);
        assert_eq!(fs.nfiles(), 5);
        assert!(fs.file_size("/bp00001/data.0").is_some());
        assert!(fs.file_size("/bp00001/data.3").is_some());
        assert!(fs.file_size("/bp00001/md.idx").is_some());
    }

    /// Regression: a ratio of 0 must clamp to 1 at construction — a
    /// zero ratio would divide by zero when mapping tasks to
    /// aggregators. `BackendSpec::parse` rejects `agg:0`, but specs
    /// built programmatically (or deserialized from a config) bypass
    /// that validation and still must not panic.
    #[test]
    fn ratio_zero_clamps_to_one() {
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let mut b = Aggregated::new(&fs as &dyn Vfs, &tracker, 0);
        assert_eq!(b.ratio, 1);
        b.begin_step(1, "/");
        for task in 0..3u32 {
            b.put(put(task, IoKind::Data, &format!("/f{task}"), b"dddd"))
                .unwrap();
        }
        let stats = b.end_step().unwrap();
        // Clamped to ratio 1: one subfile per task, plus the index.
        assert_eq!(stats.files, 3 + 1);
    }

    /// Same clamp through the spec layer: a directly-constructed
    /// `Aggregated(0)` spec (which `parse` — and therefore serde, which
    /// round-trips through the CLI spelling — would have rejected)
    /// builds a working ratio-1 backend instead of panicking.
    #[test]
    fn spec_built_ratio_zero_does_not_panic() {
        let spec = crate::BackendSpec::Aggregated(0);
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let mut b = spec.build(&fs as &dyn Vfs, &tracker);
        b.begin_step(1, "/");
        b.put(put(0, IoKind::Data, "/f0", b"dddd")).unwrap();
        let stats = b.end_step().unwrap();
        assert_eq!(stats.files, 1 + 1);
        assert_eq!(b.read_step(1, "/").unwrap().chunks.len(), 1);
    }

    #[test]
    fn chunks_coalesce_in_arrival_order() {
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let mut b = Aggregated::new(&fs as &dyn Vfs, &tracker, 2);
        b.begin_step(1, "/plt");
        b.put(put(0, IoKind::Data, "/plt/L0/a", b"AA")).unwrap();
        b.put(put(1, IoKind::Data, "/plt/L0/b", b"BB")).unwrap();
        b.put(put(0, IoKind::Data, "/plt/L1/a", b"CC")).unwrap();
        let stats = b.end_step().unwrap();
        assert_eq!(stats.files, 2); // one aggregator + index
        assert_eq!(
            fs.read_file("/plt/bp00001/data.0"),
            Some(b"AABBCC".to_vec())
        );
        // The index names every logical path with its offset.
        let idx = String::from_utf8(fs.read_file("/plt/bp00001/md.idx").unwrap()).unwrap();
        assert!(idx.contains("/plt/L0/a"));
        assert!(idx.contains("/plt/L1/a"));
        assert!(idx.contains(" 2 2 2 "), "offset 2, len 2, logical 2: {idx}");
    }

    #[test]
    fn tracker_attribution_is_backend_invariant() {
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let mut b = Aggregated::new(&fs as &dyn Vfs, &tracker, 8);
        b.begin_step(1, "/");
        b.put(put(3, IoKind::Data, "/f3", b"12345")).unwrap();
        b.put(put(0, IoKind::Metadata, "/h", b"67")).unwrap();
        b.end_step().unwrap();
        assert_eq!(tracker.total_bytes_of(IoKind::Data), 5);
        assert_eq!(tracker.total_bytes_of(IoKind::Metadata), 2);
        assert_eq!(tracker.bytes_per_task(1, 0), vec![2, 0, 0, 5]);
    }

    #[test]
    fn overhead_is_separated_from_payload() {
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let mut b = Aggregated::new(&fs as &dyn Vfs, &tracker, 1);
        b.begin_step(2, "/");
        b.put(put(0, IoKind::Data, "/f", b"xyz")).unwrap();
        let stats = b.end_step().unwrap();
        assert!(stats.overhead_bytes > 0);
        assert_eq!(stats.bytes, 3 + stats.overhead_bytes);
        assert_eq!(tracker.total_bytes(), 3, "tracker sees payload only");
    }

    #[test]
    fn mixed_payloads_write_materialized_subfiles() {
        // One aggregator gets real bytes, another only a size: the real
        // subfile and the index must still land on the filesystem.
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let mut b = Aggregated::new(&fs as &dyn Vfs, &tracker, 1);
        b.begin_step(1, "/");
        b.put(put(0, IoKind::Data, "/real", b"bytes")).unwrap();
        b.put(Put {
            key: IoKey {
                step: 1,
                level: 0,
                task: 1,
            },
            kind: IoKind::Data,
            path: "/sized".into(),
            payload: Payload::Size(999),
        })
        .unwrap();
        b.put(put(0, IoKind::Metadata, "/h", b"meta")).unwrap();
        let stats = b.end_step().unwrap();
        assert_eq!(stats.files, 3); // 2 aggregators + index
        assert_eq!(fs.read_file("/bp00001/data.0"), Some(b"bytes".to_vec()));
        assert!(fs.file_size("/bp00001/data.1").is_none(), "size-only");
        assert!(fs.file_size("/bp00001/md.idx").is_some());
    }

    #[test]
    fn read_step_seeks_through_the_index() {
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let mut b = Aggregated::new(&fs as &dyn Vfs, &tracker, 2);
        b.begin_step(1, "/plt");
        b.put(put(0, IoKind::Data, "/plt/L0/a", b"AA")).unwrap();
        b.put(put(1, IoKind::Data, "/plt/L0/b", b"BBB")).unwrap();
        b.put(put(2, IoKind::Data, "/plt/L1/c", b"CCCC")).unwrap();
        b.put(put(0, IoKind::Metadata, "/plt/Header", b"hdr1"))
            .unwrap();
        b.put(put(0, IoKind::Metadata, "/plt/job_info", b"jobinfo"))
            .unwrap();
        b.end_step().unwrap();

        let read = b.read_step(1, "/plt").unwrap();
        // Every logical path round-trips byte-exactly, with keys intact.
        assert_eq!(read.logical_content("/plt/L0/a"), Some(b"AA".to_vec()));
        assert_eq!(read.logical_content("/plt/L0/b"), Some(b"BBB".to_vec()));
        assert_eq!(read.logical_content("/plt/L1/c"), Some(b"CCCC".to_vec()));
        assert_eq!(
            read.logical_content("/plt/Header"),
            Some(b"hdr1".to_vec()),
            "metadata comes back out of the index blob"
        );
        assert_eq!(
            read.logical_content("/plt/job_info"),
            Some(b"jobinfo".to_vec())
        );
        // Physical accounting: index + two touched subfiles, seeked bytes.
        assert_eq!(read.stats.files, 3);
        assert_eq!(read.stats.requests.len(), 3);
        assert!(read
            .stats
            .requests
            .iter()
            .any(|r| r.path == "/plt/bp00001/md.idx"));
        // The tracker read plane sees logical bytes only (no table).
        assert_eq!(tracker.total_read_bytes_of(IoKind::Data), 9);
        assert_eq!(tracker.total_read_bytes_of(IoKind::Metadata), 11);
    }

    #[test]
    fn read_step_errors_on_missing_materialized_subfile() {
        // A lost write must surface as NotFound, not silently degrade to
        // a modeled read (mirrors the fpp/deferred behaviour).
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let mut b = Aggregated::new(&fs as &dyn Vfs, &tracker, 2);
        b.begin_step(1, "/");
        b.put(put(0, IoKind::Data, "/f", b"bytes")).unwrap();
        b.end_step().unwrap();
        // Simulate the loss: a filesystem holding the index but not the
        // subfile (MemFs has no delete), served to a reader that carries
        // the writer's retained step state.
        let empty = MemFs::new();
        let idx = fs.read_file("/bp00001/md.idx").unwrap();
        empty.write_file("/bp00001/md.idx", &idx).unwrap();
        let mut reader = Aggregated::new(&empty as &dyn Vfs, &tracker, 2);
        reader.retained = b.retained.clone();
        let err = reader.read_step(1, "/").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound, "{err}");
    }

    #[test]
    fn index_paths_with_spaces_round_trip() {
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let mut b = Aggregated::new(&fs as &dyn Vfs, &tracker, 2);
        b.begin_step(1, "/");
        b.put(put(0, IoKind::Data, "/run 1/Cell D", b"spaced"))
            .unwrap();
        b.end_step().unwrap();
        let read = b.read_step(1, "/").unwrap();
        assert_eq!(
            read.logical_content("/run 1/Cell D"),
            Some(b"spaced".to_vec())
        );
    }

    #[test]
    fn read_step_models_account_only_steps() {
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let mut b = Aggregated::new(&fs as &dyn Vfs, &tracker, 2);
        b.begin_step(1, "/");
        for task in 0..4u32 {
            b.put(Put {
                key: IoKey {
                    step: 1,
                    level: 0,
                    task,
                },
                kind: IoKind::Data,
                path: format!("/f{task}"),
                payload: Payload::Size(1000),
            })
            .unwrap();
        }
        b.end_step().unwrap();
        assert_eq!(fs.nfiles(), 0);
        let read = b.read_step(1, "/").unwrap();
        assert_eq!(read.chunks.len(), 4);
        assert!(read
            .chunks
            .iter()
            .all(|c| matches!(c.payload, Payload::Size(1000))));
        // Index + 2 subfiles, all modeled.
        assert_eq!(read.stats.files, 3);
        assert_eq!(tracker.total_read_bytes(), 4000);
    }

    #[test]
    fn account_only_step_writes_nothing() {
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let mut b = Aggregated::new(&fs as &dyn Vfs, &tracker, 2);
        b.begin_step(1, "/");
        for task in 0..4u32 {
            b.put(Put {
                key: IoKey {
                    step: 1,
                    level: 0,
                    task,
                },
                kind: IoKind::Data,
                path: format!("/f{task}"),
                payload: Payload::Size(1000),
            })
            .unwrap();
        }
        let stats = b.end_step().unwrap();
        assert_eq!(fs.nfiles(), 0);
        assert_eq!(stats.files, 3); // 2 aggregators + index
        assert_eq!(stats.requests.len(), 3);
        assert_eq!(tracker.total_bytes(), 4000);
    }
}
