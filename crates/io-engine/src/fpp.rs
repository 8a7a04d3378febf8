//! File-per-process backend: the workspace's original N-to-N write path,
//! refactored behind [`IoBackend`].
//!
//! What it adds to the shared layout plane (`layout.rs`):
//!
//! * **placement** — per path (`StepBuild`, shared with
//!   [`crate::deferred::Deferred`] and [`crate::Streaming`]): every distinct put
//!   path in a step becomes one physical file whose content is the
//!   concatenation of its puts in submission order. That single rule
//!   reproduces both prior behaviours: AMReX plotfile writers choose one
//!   path per `(rank, level)` (true N-to-N), and MACSio's MIF mode points
//!   the ranks of a file group at one shared group path (baton-passing
//!   appends).
//! * **delivery** — write now: `end_step` lands each file before it
//!   returns.
//!
//! The file format itself stores no put boundaries (exactly like the
//! original writers), so what makes this write-optimized layout
//! selectively readable is the retained file list: a file none of whose
//! spans match a selection is not opened, and a partially matching one
//! is seeked through its spans.

use crate::backend::{
    unsupported_read, EngineReport, IoBackend, OpenStep, Put, StepRead, StepStats,
};
use crate::layout::{FileBuild, Source, SpanReader};
use crate::selection::ReadSelection;
use iosim::{IoTracker, Vfs};
use std::collections::HashMap;
use std::io;

/// The per-path placement rule: coalesces puts by path, preserving
/// first-put order.
#[derive(Debug, Default)]
pub(crate) struct StepBuild {
    pub step: u32,
    order: Vec<String>,
    files: HashMap<String, FileBuild>,
}

impl StepBuild {
    pub(crate) fn new(step: u32) -> Self {
        Self {
            step,
            order: Vec::new(),
            files: HashMap::new(),
        }
    }

    /// Appends a put to its file, creating the file on first use
    /// (attributed to its first producer).
    pub(crate) fn push(&mut self, put: Put) {
        let build = match self.files.get_mut(&put.path) {
            Some(b) => b,
            None => {
                self.order.push(put.path.clone());
                self.files
                    .entry(put.path)
                    .or_insert(FileBuild::for_rank(put.key.task))
            }
        };
        build.push(put.key, put.kind, None, put.payload);
    }

    /// Finished files in first-put order.
    pub(crate) fn into_files(mut self) -> StepFiles {
        self.order
            .drain(..)
            .map(|path| {
                let build = self.files.remove(&path).expect("ordered path exists");
                (path, build)
            })
            .collect()
    }
}

/// The files of one step under per-path placement, in first-put order —
/// while being delivered, and as retained for the read path.
pub(crate) type StepFiles = Vec<(String, FileBuild)>;

/// The N-to-N backend (see module docs).
pub struct FilePerProcess<'a> {
    vfs: &'a dyn Vfs,
    tracker: &'a IoTracker,
    cur: OpenStep<StepBuild>,
    /// Per-step retained files for the read path.
    retained: HashMap<u32, StepFiles>,
    report: EngineReport,
}

impl<'a> FilePerProcess<'a> {
    /// A backend writing through `vfs` and recording into `tracker`.
    pub fn new(vfs: &'a dyn Vfs, tracker: &'a IoTracker) -> Self {
        Self {
            vfs,
            tracker,
            cur: OpenStep::closed(),
            retained: HashMap::new(),
            report: EngineReport::default(),
        }
    }
}

impl IoBackend for FilePerProcess<'_> {
    fn name(&self) -> String {
        "fpp".to_string()
    }

    fn begin_step(&mut self, step: u32, _container: &str) {
        self.cur.begin(StepBuild::new(step));
    }

    fn create_dir_all(&mut self, path: &str) -> io::Result<()> {
        self.vfs.create_dir_all(path)
    }

    fn put(&mut self, put: Put) -> io::Result<()> {
        let cur = self.cur.get();
        self.tracker
            .record(put.key, put.kind, put.payload.logical_len());
        cur.push(put);
        Ok(())
    }

    fn end_step(&mut self) -> io::Result<StepStats> {
        let cur = self.cur.end();
        let mut stats = StepStats::of(cur.step);
        let mut files = cur.into_files();
        for (path, build) in &mut files {
            build.write_now(self.vfs, path)?;
            build.book(path.clone(), &mut stats);
        }
        self.retained.insert(stats.step, files);
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
        let files = self
            .retained
            .get(&step)
            .ok_or_else(|| unsupported_read(&self.name(), step, sel, "step was never written"))?;
        SpanReader::new(self.tracker, step, sel).read_files(files, Source::Stored(self.vfs))
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
    use iosim::{IoKey, IoKind, MemFs};

    fn put(step: u32, task: u32, path: &str, data: &[u8]) -> Put {
        Put {
            key: IoKey {
                step,
                level: 0,
                task,
            },
            kind: IoKind::Data,
            path: path.to_string(),
            payload: Payload::Bytes(data.to_vec().into()),
        }
    }

    #[test]
    fn one_file_per_distinct_path() {
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let mut b = FilePerProcess::new(&fs as &dyn Vfs, &tracker);
        b.begin_step(1, "/");
        b.put(put(1, 0, "/f0", b"aa")).unwrap();
        b.put(put(1, 1, "/f1", b"bbb")).unwrap();
        let stats = b.end_step().unwrap();
        assert_eq!(stats.files, 2);
        assert_eq!(stats.bytes, 5);
        assert_eq!(fs.nfiles(), 2);
        assert_eq!(fs.read_file("/f1"), Some(b"bbb".to_vec()));
        assert_eq!(stats.requests[0].rank, 0);
        assert_eq!(stats.requests[1].rank, 1);
    }

    #[test]
    fn shared_path_coalesces_like_mif_baton_passing() {
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let mut b = FilePerProcess::new(&fs as &dyn Vfs, &tracker);
        b.begin_step(1, "/");
        b.put(put(1, 0, "/group0", b"r0")).unwrap();
        b.put(put(1, 1, "/group0", b"r1")).unwrap();
        let stats = b.end_step().unwrap();
        assert_eq!(stats.files, 1);
        assert_eq!(fs.read_file("/group0"), Some(b"r0r1".to_vec()));
        // Request attributed to the first rank in the group.
        assert_eq!(stats.requests[0].rank, 0);
        // Tracker still records per-rank bytes.
        assert_eq!(tracker.bytes_per_task(1, 0), vec![2, 2]);
    }

    #[test]
    fn account_only_skips_physical_writes() {
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let mut b = FilePerProcess::new(&fs as &dyn Vfs, &tracker);
        b.begin_step(3, "/");
        b.put(Put {
            key: IoKey {
                step: 3,
                level: 1,
                task: 2,
            },
            kind: IoKind::Data,
            path: "/big".into(),
            payload: Payload::Size(1 << 30),
        })
        .unwrap();
        let stats = b.end_step().unwrap();
        assert_eq!(fs.nfiles(), 0, "no physical write");
        assert_eq!(stats.bytes, 1 << 30);
        assert_eq!(stats.requests[0].bytes, 1 << 30);
        assert_eq!(tracker.total_bytes(), 1 << 30);
    }

    #[test]
    fn read_step_round_trips_written_chunks() {
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let mut b = FilePerProcess::new(&fs as &dyn Vfs, &tracker);
        b.begin_step(1, "/");
        b.put(put(1, 0, "/group", b"r0r0")).unwrap();
        b.put(put(1, 1, "/group", b"r1")).unwrap();
        b.put(put(1, 2, "/own", b"solo")).unwrap();
        b.end_step().unwrap();

        let read = b.read_step(1, "/").unwrap();
        // Chunk-level round trip with keys intact.
        assert_eq!(read.chunks.len(), 3);
        assert_eq!(read.logical_content("/group"), Some(b"r0r0r1".to_vec()));
        assert_eq!(read.logical_content("/own"), Some(b"solo".to_vec()));
        assert_eq!(read.chunks[1].key.task, 1);
        // Physical accounting: one request per file, whole-file bytes.
        assert_eq!(read.stats.files, 2);
        assert_eq!(read.stats.bytes, 10);
        assert_eq!(read.stats.logical_bytes, 10);
        assert_eq!(read.stats.requests.len(), 2);
        // The tracker's read plane mirrors the write plane.
        assert_eq!(tracker.total_read_bytes(), 10);
        assert_eq!(tracker.total_bytes(), 10, "writes untouched");
    }

    #[test]
    fn read_step_models_account_only_chunks() {
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let mut b = FilePerProcess::new(&fs as &dyn Vfs, &tracker);
        b.begin_step(2, "/");
        b.put(Put {
            key: IoKey {
                step: 2,
                level: 1,
                task: 0,
            },
            kind: IoKind::Data,
            path: "/big".into(),
            payload: Payload::Size(1 << 20),
        })
        .unwrap();
        b.end_step().unwrap();
        let read = b.read_step(2, "/").unwrap();
        assert!(matches!(read.chunks[0].payload, Payload::Size(n) if n == 1 << 20));
        assert_eq!(read.stats.bytes, 1 << 20, "modeled physical read");
        assert_eq!(read.stats.requests[0].bytes, 1 << 20);
        assert_eq!(tracker.total_read_bytes(), 1 << 20);
    }

    #[test]
    fn read_step_of_unwritten_step_errors() {
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let mut b = FilePerProcess::new(&fs as &dyn Vfs, &tracker);
        assert!(b.read_step(9, "/").is_err());
    }

    #[test]
    fn close_reports_run_totals() {
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let mut b = FilePerProcess::new(&fs as &dyn Vfs, &tracker);
        for step in 1..=3 {
            b.begin_step(step, "/");
            b.put(put(step, 0, &format!("/s{step}"), b"xy")).unwrap();
            b.end_step().unwrap();
        }
        let report = b.close().unwrap();
        assert_eq!(report.steps, 3);
        assert_eq!(report.files, 3);
        assert_eq!(report.bytes, 6);
        assert_eq!(report.logical_bytes, 6, "no codec: physical == logical");
        assert_eq!(report.overhead_bytes, 0);
    }
}
