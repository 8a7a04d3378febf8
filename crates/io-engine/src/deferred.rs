//! Deferred (burst-buffer) backend: double-buffered staging, flushed one
//! step late.
//!
//! What it adds to the shared layout plane (`layout.rs`): placement is
//! [`crate::FilePerProcess`]'s — one file per logical path, so the read
//! path is the same retained file list — and only the **delivery**
//! differs: a sealed file is *staged*, not written. Puts stage in memory
//! at full speed (the "burst buffer absorb" phase); the physical flush of
//! step `k` happens at the next `end_step` / read / `close`, modelling
//! in-transit staging (AMRIC-style) with two staging buffers.
//!
//! The overlap itself is simulated, not performed: [`IoBackend::overlapped`]
//! reports `true`, and the burst scheduler in `iosim` overlaps the
//! simulated drain with the following compute phase — which is what
//! makes deferred runs finish in less simulated wall-clock than
//! file-per-process for the same byte volume. Reads barrier the staged
//! step first (read-after-write consistency), and a failed drain write
//! surfaces at the next barrier with its original [`io::ErrorKind`], the
//! file's path and the step.

use crate::backend::{
    unsupported_read, EngineReport, IoBackend, OpenStep, Put, StepRead, StepStats,
};
use crate::fpp::{StepBuild, StepFiles};
use crate::layout::{Source, SpanReader};
use crate::selection::ReadSelection;
use bytes::Bytes;
use iosim::{IoTracker, Vfs};
use std::collections::HashMap;
use std::io;

/// One staged physical file awaiting drain. Content is the put
/// payloads' shared segments — staging holds references to the same
/// buffers the producer filled, and the drain ships them zero-copy.
/// Modeled (account-only) files have nothing to land and are never
/// staged.
struct StagedFile {
    step: u32,
    path: String,
    content: Vec<Bytes>,
}

impl StagedFile {
    /// Lands the file. A failure keeps its kind and gains the path and
    /// step it belongs to.
    fn drain(&self, vfs: &dyn Vfs) -> io::Result<()> {
        vfs.write_file_concat(&self.path, &self.content)
            .map(|_| ())
            .map_err(|e| {
                io::Error::new(
                    e.kind(),
                    format!(
                        "deferred drain: writing '{}' of step {} failed: {e}",
                        self.path, self.step
                    ),
                )
            })
    }
}

/// The burst-buffer backend (see module docs).
pub(crate) struct Deferred<'a> {
    vfs: &'a dyn Vfs,
    tracker: &'a IoTracker,
    /// The previous step's staged files, flushed at the next barrier.
    pending: Vec<StagedFile>,
    cur: OpenStep<StepBuild>,
    /// Per-step retained files for the read path (layout == fpp).
    retained: HashMap<u32, StepFiles>,
    report: EngineReport,
}

impl<'a> Deferred<'a> {
    /// A deferred backend over `vfs`.
    pub(crate) fn new(vfs: &'a dyn Vfs, tracker: &'a IoTracker) -> Self {
        Self {
            vfs,
            tracker,
            pending: Vec::new(),
            cur: OpenStep::closed(),
            retained: HashMap::new(),
            report: EngineReport::default(),
        }
    }

    /// Flushes the previous step's staging.
    fn drain_previous(&mut self) -> io::Result<()> {
        for f in self.pending.drain(..) {
            f.drain(self.vfs)?;
        }
        Ok(())
    }
}

impl IoBackend for Deferred<'_> {
    fn name(&self) -> String {
        "deferred".to_string()
    }

    fn overlapped(&self) -> bool {
        true
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
        // Double buffering: the buffer we are about to fill must have
        // finished draining.
        self.drain_previous()?;

        let mut stats = StepStats::of(cur.step);
        let mut files = cur.into_files();
        let mut staged = Vec::new();
        for (path, build) in &mut files {
            build.book(path.clone(), &mut stats);
            let content = build.seal();
            if !build.account_only {
                staged.push(StagedFile {
                    step: stats.step,
                    path: path.clone(),
                    content,
                });
            }
        }
        self.retained.insert(stats.step, files);
        self.pending = staged;
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
        // Read-after-write consistency: the requested step may still be
        // staged — flush it before touching the filesystem.
        self.drain_previous()?;
        let files = self
            .retained
            .get(&step)
            .ok_or_else(|| unsupported_read(&self.name(), step, sel, "step was never written"))?;
        SpanReader::new(self.tracker, step, sel).read_files(files, Source::Stored(self.vfs))
    }

    fn close(&mut self) -> io::Result<EngineReport> {
        self.cur.assert_closed("close");
        self.drain_previous()?;
        Ok(self.report.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Payload;
    use iosim::{IoKey, IoKind, IoTracker, MemFs, Vfs};

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
    fn writes_are_deferred_one_step() {
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let mut b = Deferred::new(&fs, &tracker);

        b.begin_step(1, "/");
        b.put(put(1, 0, "/s1", b"one")).unwrap();
        b.end_step().unwrap();
        // Step 1 is staged, not yet on the filesystem.
        assert_eq!(fs.nfiles(), 0);

        b.begin_step(2, "/");
        b.put(put(2, 0, "/s2", b"two")).unwrap();
        b.end_step().unwrap();
        // Draining step 1 happened at the step-2 swap.
        assert_eq!(fs.read_file("/s1"), Some(b"one".to_vec()));
        assert_eq!(fs.nfiles(), 1);

        b.close().unwrap();
        assert_eq!(fs.read_file("/s2"), Some(b"two".to_vec()));
        assert_eq!(fs.nfiles(), 2);
    }

    #[test]
    fn stats_match_fpp_layout() {
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let mut b = Deferred::new(&fs, &tracker);
        b.begin_step(1, "/");
        b.put(put(1, 0, "/shared", b"aa")).unwrap();
        b.put(put(1, 1, "/shared", b"bb")).unwrap();
        b.put(put(1, 2, "/own", b"cc")).unwrap();
        let stats = b.end_step().unwrap();
        assert_eq!(stats.files, 2);
        assert_eq!(stats.bytes, 6);
        assert_eq!(stats.requests.len(), 2);
        b.close().unwrap();
        assert_eq!(fs.read_file("/shared"), Some(b"aabb".to_vec()));
    }

    #[test]
    fn read_step_barriers_staged_drains() {
        // The just-ended step is still staged; a restart read must flush
        // it first and then round-trip.
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let mut b = Deferred::new(&fs, &tracker);
        b.begin_step(1, "/");
        b.put(put(1, 0, "/s1", b"staged")).unwrap();
        b.end_step().unwrap();
        assert_eq!(fs.nfiles(), 0, "still staged");
        let read = b.read_step(1, "/").unwrap();
        assert_eq!(fs.nfiles(), 1, "read barriered the drain");
        assert_eq!(read.logical_content("/s1"), Some(b"staged".to_vec()));
        assert_eq!(tracker.total_read_bytes(), 6);
    }

    #[test]
    fn reports_overlap_capability() {
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let b = Deferred::new(&fs, &tracker);
        assert!(b.overlapped());
    }

    /// A filesystem with one poisoned path: writing it is refused.
    struct PoisonFs {
        inner: MemFs,
        poisoned: &'static str,
    }

    impl Vfs for PoisonFs {
        fn create_dir_all(&self, path: &str) -> io::Result<()> {
            self.inner.create_dir_all(path)
        }
        fn write_file(&self, path: &str, data: &[u8]) -> io::Result<u64> {
            if path == self.poisoned {
                return Err(io::Error::new(
                    io::ErrorKind::PermissionDenied,
                    "poisoned path",
                ));
            }
            self.inner.write_file(path, data)
        }
        fn file_size(&self, path: &str) -> Option<u64> {
            self.inner.file_size(path)
        }
        fn read_file(&self, path: &str) -> Option<Vec<u8>> {
            self.inner.read_file(path)
        }
        fn list(&self, prefix: &str) -> Vec<String> {
            self.inner.list(prefix)
        }
        fn total_bytes(&self) -> u64 {
            self.inner.total_bytes()
        }
        fn nfiles(&self) -> usize {
            self.inner.nfiles()
        }
    }

    /// A failed drain write surfaces at the next barrier — `end_step`,
    /// `read_step` or `close` — with the original kind, the path and the
    /// step.
    #[test]
    fn drain_failure_keeps_its_kind_path_and_step() {
        fn poison() -> PoisonFs {
            PoisonFs {
                inner: MemFs::new(),
                poisoned: "/s7/bad",
            }
        }
        type Barrier = fn(&mut Deferred<'_>) -> io::Result<()>;
        // Stages step 7 (one good file, one poisoned), then hits `barrier`.
        fn check(mut b: Deferred<'_>, barrier: Barrier, label: &str) {
            b.begin_step(7, "/");
            b.put(put(7, 0, "/s7/good", b"fine")).unwrap();
            b.put(put(7, 1, "/s7/bad", b"lost")).unwrap();
            b.end_step().unwrap();
            let err = barrier(&mut b).unwrap_err();
            assert_eq!(
                err.kind(),
                io::ErrorKind::PermissionDenied,
                "{label}: {err}"
            );
            let msg = err.to_string();
            assert!(msg.contains("'/s7/bad'"), "{label}: {msg}");
            assert!(msg.contains("step 7"), "{label}: {msg}");
        }
        let barriers: [(&str, Barrier); 3] = [
            ("end_step", |b| {
                b.begin_step(8, "/");
                b.end_step().map(|_| ())
            }),
            ("read_step", |b| b.read_step(7, "/").map(|_| ())),
            ("close", |b| b.close().map(|_| ())),
        ];
        for (name, barrier) in barriers {
            let fs = poison();
            let tracker = IoTracker::new();
            check(Deferred::new(&fs, &tracker), barrier, name);
        }
    }
}
