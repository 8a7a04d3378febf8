//! The layout plane: a put's place inside a physical file, and how to
//! read it back.
//!
//! The paper's model counts bytes "for each rank, mesh level and
//! simulation time step", and those bytes are the same whatever file
//! layout carries them — the layout is the one thing a writer chooses
//! (Wan et al., PAPERS.md). So a backend is only a **placement rule**
//! (which physical file a put is appended to) plus a **delivery** (what
//! happens to a sealed file: written now, staged one step late, shipped
//! to a consumer window). Everything in between is stated once, here:
//!
//! * [`Span`] — the boundaries of one put inside a physical file;
//! * [`FileBuild`] — one physical file being assembled, which is also
//!   what is retained for the read path once its segments are dropped
//!   (spans and paths only, never content — kept for every step because
//!   wr-mode workloads read all dumps back);
//! * [`SpanReader`] — the selective reader: filter a file's spans by a
//!   [`ReadSelection`], fetch the file at most once, cut the matched
//!   payloads out zero-copy, record the tracker's read plane, and price
//!   the fetch as one [`ReadRequest`] per maximal contiguous range.

use crate::backend::{ChunkRead, Payload, ReadStats, StepRead, StepStats};
use crate::selection::ReadSelection;
use bytes::Bytes;
use iosim::{IoKey, IoKind, IoTracker, ReadRequest, Vfs};
use std::fmt::Write as _;
use std::io;

/// Boundaries of one put inside a physical file — what a reader needs to
/// cut the file back into logical chunks. The put's logical path is the
/// file's own path unless the file carries one per span
/// ([`FileBuild::logical_path`]).
#[derive(Clone, Debug)]
pub(crate) struct Span {
    pub key: IoKey,
    pub kind: IoKind,
    /// Physical offset inside the file.
    pub offset: u64,
    /// Physical length.
    pub len: u64,
    /// Logical (pre-compression) length.
    pub logical_len: u64,
}

impl Span {
    /// Parses a data row written by [`FileBuild::write_last_row`] into
    /// the span and its logical path; `None` when malformed.
    pub(crate) fn parse_row(row: &str) -> Option<(Span, String)> {
        // Split off exactly the 6 leading fixed fields and keep the
        // remainder (the path) verbatim.
        let mut f = row.splitn(7, ' ');
        let offset = f.next()?.parse().ok()?;
        let len = f.next()?.parse().ok()?;
        let logical_len = f.next()?.parse().ok()?;
        let key = IoKey {
            step: f.next()?.parse().ok()?,
            level: f.next()?.parse().ok()?,
            task: f.next()?.parse().ok()?,
        };
        let span = Span {
            key,
            kind: IoKind::Data,
            offset,
            len,
            logical_len,
        };
        Some((span, f.next()?.to_string()))
    }

    /// The span's bytes as an O(1) view into `content`, the fetched bytes
    /// of `file`. The content may be outside input by now (a file
    /// truncated or replaced on disk, an index row naming a range past
    /// its subfile), so a span that does not fit is a typed error.
    fn cut(&self, content: &Bytes, file: &str) -> io::Result<Bytes> {
        match self.offset.checked_add(self.len) {
            Some(end) if end <= content.len() as u64 => {
                Ok(content.slice(self.offset as usize..end as usize))
            }
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "read_step: span {}+{} (key {:?}) does not fit '{file}' ({} bytes)",
                    self.offset,
                    self.len,
                    self.key,
                    content.len()
                ),
            )),
        }
    }
}

/// The region of an index file from `offset` on (its embedded metadata
/// blob), as a zero-copy view; a typed error when the on-disk index is
/// shorter than the layout the writer retained.
pub(crate) fn index_tail(content: &Bytes, file: &str, offset: u64) -> io::Result<Bytes> {
    if offset > content.len() as u64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "read_step: index '{file}' is {} bytes, shorter than its {offset}-byte table",
                content.len()
            ),
        ));
    }
    Ok(content.slice(offset as usize..))
}

/// One physical file being assembled for the open step — and, once
/// sealed, the file as retained for the read path.
///
/// Retained files are kept for every step of a run, and at paper scale
/// the common one is a per-path file holding a single account-only put;
/// so the record is the spans plus one word: byte totals derive from the
/// spans, and what only some files carry sits behind [`Extra`].
#[derive(Clone, Debug, Default)]
pub(crate) struct FileBuild {
    /// Rank the file's requests are attributed to.
    pub rank: u32,
    /// True when any payload arrived as a bare size: the file's content
    /// is incomplete, so it is modeled, never materialized.
    pub account_only: bool,
    /// Per-put boundaries, in submission order.
    pub spans: Vec<Span>,
    extra: Option<Box<Extra>>,
}

/// Per-span companions only some files have.
#[derive(Clone, Debug, Default)]
struct Extra {
    /// Materialized content as shared segments in submission order, one
    /// per span, adopted zero-copy from the puts (gone once delivered).
    segs: Vec<Bytes>,
    /// Logical paths, one per span, where the placement rule files puts
    /// under another name (aggregator subfiles, level clusters, index
    /// blobs); empty under per-path placement.
    paths: Vec<String>,
}

impl FileBuild {
    /// An empty file whose requests are attributed to `rank`, sized for
    /// the one put most per-path files ever get.
    pub(crate) fn for_rank(rank: u32) -> Self {
        Self {
            rank,
            spans: Vec::with_capacity(1),
            ..Self::default()
        }
    }

    /// Appends a put at the current end of the file. `path` is the put's
    /// logical path where the placement rule files it under another name
    /// (for every put of the file, or for none).
    pub(crate) fn push(
        &mut self,
        key: IoKey,
        kind: IoKind,
        path: Option<String>,
        payload: Payload,
    ) {
        let span = Span {
            key,
            kind,
            offset: self.bytes(),
            len: payload.len(),
            logical_len: payload.logical_len(),
        };
        self.push_span(span, path);
        match payload {
            Payload::Bytes(b) | Payload::Encoded { data: b, .. } => {
                self.extra.get_or_insert_default().segs.push(b)
            }
            Payload::Size(_) | Payload::EncodedSize { .. } => self.account_only = true,
        }
    }

    /// Appends a span as given (a parsed index row names its own offset).
    pub(crate) fn push_span(&mut self, span: Span, path: Option<String>) {
        if let Some(path) = path {
            self.extra.get_or_insert_default().paths.push(path);
        }
        self.spans.push(span);
    }

    /// Total physical payload bytes (spans are contiguous from 0).
    pub(crate) fn bytes(&self) -> u64 {
        self.spans.last().map_or(0, |s| s.offset + s.len)
    }

    /// Total logical (pre-compression) payload bytes.
    pub(crate) fn logical_bytes(&self) -> u64 {
        self.spans.iter().map(|s| s.logical_len).sum()
    }

    /// The retained segments (empty once sealed or account-only).
    pub(crate) fn segs(&self) -> &[Bytes] {
        self.extra.as_ref().map_or(&[], |e| &e.segs)
    }

    /// The logical path of span `i`, given the path of the file itself.
    pub(crate) fn logical_path<'a>(&'a self, i: usize, file: &'a str) -> &'a str {
        match &self.extra {
            Some(extra) if !extra.paths.is_empty() => &extra.paths[i],
            _ => file,
        }
    }

    /// Appends the index-table row of the put just pushed — the one row
    /// format `md.idx` and `reorg.idx` share: `offset len logical_len
    /// step level task path`. The logical path comes last because it may
    /// contain spaces.
    pub(crate) fn write_last_row(&self, table: &mut String) {
        let i = self.spans.len() - 1;
        let (span, path) = (&self.spans[i], self.logical_path(i, ""));
        let _ = writeln!(
            table,
            "{} {} {} {} {} {} {path}",
            span.offset, span.len, span.logical_len, span.key.step, span.key.level, span.key.task,
        );
    }

    /// Books the file into its step's stats as written at `path`.
    pub(crate) fn book(&self, path: String, stats: &mut StepStats) {
        stats.add_file(self.rank as usize, path, self.bytes(), self.logical_bytes());
    }

    /// Seals the file for retention: hands its segments to the delivery
    /// and keeps the rest at exact size (growth slack would be the
    /// dominant cost of a one-put file).
    pub(crate) fn seal(&mut self) -> Vec<Bytes> {
        self.spans.shrink_to_fit();
        let Some(extra) = &mut self.extra else {
            return Vec::new();
        };
        let segs = std::mem::take(&mut extra.segs);
        extra.paths.shrink_to_fit();
        if extra.paths.is_empty() {
            self.extra = None;
        }
        segs
    }

    /// The "write now" delivery: seals the file and lands it at `path`
    /// unless it is modeled.
    pub(crate) fn write_now(&mut self, vfs: &dyn Vfs, path: &str) -> io::Result<()> {
        let segs = self.seal();
        if !self.account_only {
            let written = vfs.write_file_concat(path, &segs)?;
            debug_assert_eq!(written, self.bytes());
        }
        Ok(())
    }
}

/// Coalesces byte spans of one file into maximal contiguous ranges — a
/// selective reader issues one request (one seek + fetch) per range, so
/// scattered matches cost more opens than clustered ones. This is the
/// accounting that makes layout *contiguity*, not just byte volume, a
/// simulated quantity (the lever online reorganization pulls).
struct RangeCoalescer {
    ranges: Vec<(u64, u64)>,
}

impl RangeCoalescer {
    fn new() -> Self {
        Self { ranges: Vec::new() }
    }

    /// Adds a span, merging it into the previous range when contiguous.
    /// Spans must arrive in non-decreasing offset order (files keep their
    /// spans in layout order).
    fn push(&mut self, offset: u64, len: u64) {
        match self.ranges.last_mut() {
            Some((start, rlen)) if *start + *rlen == offset => *rlen += len,
            _ => self.ranges.push((offset, len)),
        }
    }

    /// Books the ranges as one file open: their bytes, and one
    /// [`ReadRequest`] per contiguous range.
    fn book(&self, rank: usize, path: &str, stats: &mut ReadStats) {
        stats.files += 1;
        for &(_, len) in &self.ranges {
            stats.bytes += len;
            stats.requests.push(ReadRequest {
                rank,
                path: path.to_string(),
                bytes: len,
                start: 0.0,
            });
        }
    }
}

/// Where a retained file's bytes come from when a selection touches it.
#[derive(Clone, Copy)]
pub(crate) enum Source<'a> {
    /// On the filesystem: fetched on first match and priced — the file
    /// counts as opened, and its matched ranges become read requests.
    Stored(&'a dyn Vfs),
    /// A region the caller already fetched and priced (the metadata blob
    /// of an index file); `None` when the index never materialized.
    Fetched(Option<&'a Bytes>),
    /// The streaming consumer window: the file's own retained segments,
    /// one per span — no storage plane at all.
    Window,
}

/// Exact full content of a stored file, zero-copy (the returned [`Bytes`]
/// shares the filesystem's buffer, and chunk sub-slices of it share it
/// too): `None` when the file is absent *or* its retained content is
/// truncated below its size (content-limited in-memory filesystems) —
/// readers then fall back to modeled reads.
pub(crate) fn read_file_exact(vfs: &dyn Vfs, path: &str) -> Option<Bytes> {
    let size = vfs.file_size(path)?;
    let content = vfs.read_file_shared(path)?;
    (content.len() as u64 == size).then_some(content)
}

/// The one selective span reader (see module docs): backends walk their
/// retained files through it in layout order and add their own index
/// fetches to `out.stats`.
pub(crate) struct SpanReader<'a> {
    tracker: &'a IoTracker,
    sel: &'a ReadSelection,
    /// The read being assembled.
    pub out: StepRead,
}

impl<'a> SpanReader<'a> {
    /// A reader for `step` under `sel`, recording into `tracker`'s read
    /// plane.
    pub(crate) fn new(tracker: &'a IoTracker, step: u32, sel: &'a ReadSelection) -> Self {
        let mut out = StepRead::default();
        out.stats.step = step;
        Self { tracker, sel, out }
    }

    /// Reads the spans of `file` (at physical `path`) that belong to the
    /// selection. A file none of whose spans match is not opened at all;
    /// a partially matching one is seeked through its spans, so its
    /// requests carry only the matched bytes.
    ///
    /// Payload rules, for every layout: a modeled file — account-only, or
    /// present but with content-limited retention ([`iosim::MemFs`]) —
    /// reads back as [`Payload::Size`]; a stored file that is absent is a
    /// lost write (`NotFound`); materialized spans come back as
    /// [`Payload::Bytes`], or [`Payload::Encoded`] when a compression
    /// stage shrank them (the stage, or the caller, decodes with the
    /// logical length).
    pub(crate) fn read_file(
        &mut self,
        path: &str,
        file: &FileBuild,
        source: Source<'_>,
    ) -> io::Result<()> {
        let sel = self.sel;
        let mut matched = file
            .spans
            .iter()
            .enumerate()
            .filter(|(i, span)| sel.matches(&span.key, file.logical_path(*i, path)))
            .peekable();
        if matched.peek().is_none() {
            return Ok(()); // file untouched: no open, no bytes
        }
        // What the matched spans are cut from.
        enum Held<'h> {
            Modeled,
            Whole(Bytes),
            PerSpan(&'h [Bytes]),
        }
        let held = match source {
            _ if file.account_only => Held::Modeled,
            Source::Stored(vfs) => match read_file_exact(vfs, path) {
                Some(content) => Held::Whole(content),
                None if vfs.file_size(path).is_none() => {
                    return Err(io::Error::new(
                        io::ErrorKind::NotFound,
                        format!("read_step: missing file '{path}'"),
                    ));
                }
                None => Held::Modeled,
            },
            Source::Fetched(region) => region.cloned().map_or(Held::Modeled, Held::Whole),
            Source::Window => Held::PerSpan(file.segs()),
        };
        let priced = matches!(source, Source::Stored(_));
        let mut ranges = RangeCoalescer::new();
        for (i, span) in matched {
            let data = match &held {
                Held::Whole(content) => Some(span.cut(content, path)?),
                Held::PerSpan(segs) => Some(segs[i].clone()),
                Held::Modeled => None,
            };
            let payload = match data {
                Some(data) if span.len == span.logical_len => Payload::Bytes(data),
                Some(data) => Payload::Encoded {
                    data,
                    logical: span.logical_len,
                },
                None => Payload::Size(span.logical_len),
            };
            self.tracker
                .record_read(span.key, span.kind, span.logical_len);
            if priced {
                ranges.push(span.offset, span.len);
            }
            self.out.stats.logical_bytes += span.logical_len;
            self.out.chunks.push(ChunkRead {
                key: span.key,
                kind: span.kind,
                path: file.logical_path(i, path).to_string(),
                payload,
            });
        }
        if priced {
            ranges.book(file.rank as usize, path, &mut self.out.stats);
        }
        Ok(())
    }

    /// Reads a whole per-path file list from one source — the read path
    /// of the per-path placements (fpp, deferred, streaming).
    pub(crate) fn read_files(
        mut self,
        files: &[(String, FileBuild)],
        source: Source<'_>,
    ) -> io::Result<StepRead> {
        for (path, file) in files {
            self.read_file(path, file, source)?;
        }
        Ok(self.out)
    }
}

#[cfg(test)]
mod tests {
    use crate::aggregated::Aggregated;
    use crate::backend::{IoBackend, Payload, Put};
    use crate::{CodecSpec, FilePerProcess, Reorganizer};
    use iosim::{IoKey, IoKind, IoTracker, MemFs, Vfs};
    use std::io::ErrorKind;

    /// Writes steps 1 and 2 — two 64-byte data chunks and a header each.
    fn write_two_steps(b: &mut dyn IoBackend) {
        for step in 1..=2u32 {
            b.begin_step(step, "/plt");
            for task in 0..2u32 {
                b.put(Put {
                    key: IoKey {
                        step,
                        level: 0,
                        task,
                    },
                    kind: IoKind::Data,
                    path: format!("/plt/s{step}/Cell_D_{task:05}"),
                    payload: Payload::Bytes(vec![task as u8 + 1; 64].into()),
                })
                .unwrap();
            }
            b.put(Put {
                key: IoKey {
                    step,
                    level: 0,
                    task: 0,
                },
                kind: IoKind::Metadata,
                path: format!("/plt/s{step}/Header"),
                payload: Payload::Bytes(vec![b'h'; 16].into()),
            })
            .unwrap();
            b.end_step().unwrap();
        }
    }

    /// The corrupted step fails typed, naming the file; the untouched one
    /// still round-trips.
    fn assert_step1_invalid_step2_intact(b: &mut dyn IoBackend, file: &str) {
        let err = b.read_step(1, "/plt").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains(file), "{err}");
        let intact = b.read_step(2, "/plt").unwrap();
        assert_eq!(
            intact.logical_content("/plt/s2/Cell_D_00001"),
            Some(vec![2u8; 64])
        );
        assert_eq!(
            intact.logical_content("/plt/s2/Header"),
            Some(vec![b'h'; 16])
        );
    }

    #[test]
    fn index_row_past_its_subfile_is_invalid_data() {
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let mut b = Aggregated::new(&fs as &dyn Vfs, &tracker, 2);
        write_two_steps(&mut b);
        // Same length, one offset changed: the second chunk of data.0 now
        // claims bytes 94..158 of a 128-byte subfile.
        let idx = String::from_utf8(fs.read_file("/plt/bp00001/md.idx").unwrap()).unwrap();
        let forged = idx.replacen("data.0 64 64 ", "data.0 94 64 ", 1);
        assert_ne!(idx, forged);
        assert_eq!(idx.len(), forged.len());
        fs.write_file("/plt/bp00001/md.idx", forged.as_bytes())
            .unwrap();
        assert_step1_invalid_step2_intact(&mut b, "/plt/bp00001/data.0");
    }

    #[test]
    fn index_shorter_than_its_table_is_invalid_data() {
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let mut b = Aggregated::new(&fs as &dyn Vfs, &tracker, 2);
        write_two_steps(&mut b);
        let idx = fs.read_file("/plt/bp00001/md.idx").unwrap();
        fs.write_file("/plt/bp00001/md.idx", &idx[..10]).unwrap();
        assert_step1_invalid_step2_intact(&mut b, "/plt/bp00001/md.idx");
    }

    #[test]
    fn file_shorter_than_its_spans_is_invalid_data() {
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let mut b = FilePerProcess::new(&fs as &dyn Vfs, &tracker);
        write_two_steps(&mut b);
        fs.write_file("/plt/s1/Cell_D_00000", &[0u8; 10]).unwrap();
        assert_step1_invalid_step2_intact(&mut b, "/plt/s1/Cell_D_00000");
    }

    #[test]
    fn level_file_shorter_than_its_spans_is_invalid_data() {
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let mut b = FilePerProcess::new(&fs as &dyn Vfs, &tracker);
        write_two_steps(&mut b);
        let mut reorg = Reorganizer::new(&fs as &dyn Vfs, &tracker, CodecSpec::Identity);
        reorg.reorganize(&mut b, 1, "/plt").unwrap();
        reorg.reorganize(&mut b, 2, "/plt").unwrap();
        fs.write_file("/plt/reorg00001/level.0", &[0u8; 10])
            .unwrap();
        let err = reorg
            .read_selection(1, &crate::ReadSelection::Full)
            .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("/plt/reorg00001/level.0"), "{err}");
        let intact = reorg
            .read_selection(2, &crate::ReadSelection::Full)
            .unwrap();
        assert_eq!(
            intact.logical_content("/plt/s2/Cell_D_00001"),
            Some(vec![2u8; 64])
        );
    }
}
