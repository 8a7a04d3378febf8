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
use iosim::{Fnv1a, IoTracker, Vfs};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::io;

/// The per-path placement rule: coalesces puts by path, preserving
/// first-put order.
///
/// An account-only dump is one put per file, so this is per-file cost:
/// the files sit in one `Vec` in first-put order, each under the path its
/// first put brought (moved, never cloned), and an index from the path's
/// [`Fnv1a`] hash to the file finds it in one probe. Two paths with one hash
/// fall back to comparing strings: the hash is unkeyed, so paths made to
/// collide cost a scan, never a wrong file.
#[derive(Debug)]
pub(crate) struct StepBuild {
    pub step: u32,
    files: StepFiles,
    /// Path hash -> position in `files` of the first file with that hash.
    index: HashMap<u64, usize, BuildHasherDefault<PreHashed>>,
    hash: fn(&str) -> u64,
}

impl StepBuild {
    pub(crate) fn new(step: u32) -> Self {
        Self::with_hash(step, |path| Fnv1a::default().then(path.as_bytes()).0)
    }

    fn with_hash(step: u32, hash: fn(&str) -> u64) -> Self {
        Self {
            step,
            files: Vec::new(),
            index: HashMap::default(),
            hash,
        }
    }

    /// Appends a put to its file, creating the file on first use
    /// (attributed to its first producer).
    pub(crate) fn push(&mut self, put: Put) {
        let at = match self.index.entry((self.hash)(&put.path)) {
            Entry::Vacant(slot) => {
                slot.insert(self.files.len());
                None
            }
            Entry::Occupied(slot) if self.files[*slot.get()].0 == put.path => Some(*slot.get()),
            Entry::Occupied(_) => self.files.iter().position(|(path, _)| *path == put.path),
        };
        let build = match at {
            Some(i) => &mut self.files[i].1,
            None => {
                // Retained for every step: no growth slack (a put's path
                // may come from `format!`).
                let mut path = put.path;
                path.shrink_to_fit();
                self.files.push((path, FileBuild::for_rank(put.key.task)));
                &mut self.files.last_mut().expect("just pushed").1
            }
        };
        build.push(put.key, put.kind, None, put.payload);
    }

    /// Finished files in first-put order, at exact size (they are
    /// retained for the read path).
    pub(crate) fn into_files(mut self) -> StepFiles {
        self.files.shrink_to_fit();
        self.files
    }
}

/// The hasher of a map keyed by hashes: passes the key through, folding
/// FNV's well-mixed high half into the low bits buckets are chosen by.
#[derive(Default)]
struct PreHashed(u64);

impl Hasher for PreHashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("PreHashed hashes u64 keys only")
    }

    fn write_u64(&mut self, h: u64) {
        self.0 = h ^ (h >> 32);
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
    use crate::backend::{Payload, StepStats};
    use crate::deferred::Deferred;
    use crate::Streaming;
    use iosim::{IoKey, IoKind, MemFs};
    use mpi_sim::NetworkModel;
    use proptest::prelude::*;

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

    /// The placement rule as it was before its files moved into one
    /// `Vec` behind a hash index: a first-put order list beside a
    /// path-keyed map. The oracle [`StepBuild`] is proptested against.
    #[derive(Default)]
    struct OracleBuild {
        order: Vec<String>,
        files: HashMap<String, FileBuild>,
    }

    impl OracleBuild {
        fn push(&mut self, put: Put) {
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

        fn into_files(mut self) -> StepFiles {
            self.order
                .drain(..)
                .map(|path| {
                    let build = self.files.remove(&path).expect("ordered path exists");
                    (path, build)
                })
                .collect()
        }
    }

    /// Steps of puts whose paths repeat: a third go to one of four
    /// shared group paths (MACSio MIF baton passing), the rest to a
    /// per-`(task, level)` path that recurs whenever the pair does. Every
    /// payload variant appears, so some files are account-only.
    fn any_steps() -> impl Strategy<Value = Vec<Vec<Put>>> {
        let put = (
            0..3u32,
            0..4u32,
            0..12u32,
            0..3u32,
            0..2u32,
            0..4u32,
            0..40usize,
        );
        let step = proptest::collection::vec(put, 0..60);
        proptest::collection::vec(step, 1..4).prop_map(|steps| {
            (steps.into_iter().enumerate())
                .map(|(s, puts)| {
                    (puts.into_iter())
                        .map(|(shared, group, task, level, meta, variant, len)| {
                            let step = s as u32;
                            let path = match shared {
                                0 => format!("/s{step}/group{group}"),
                                _ => format!("/s{step}/r{task}/l{level}"),
                            };
                            let data = || {
                                let v: Vec<u8> =
                                    (0..len).map(|i| (task as usize * 7 + i) as u8).collect();
                                v.into()
                            };
                            let len = len as u64;
                            let payload = match variant {
                                0 => Payload::Bytes(data()),
                                1 => Payload::Size(len * 100),
                                2 => Payload::Encoded {
                                    data: data(),
                                    logical: len * 2,
                                },
                                _ => Payload::EncodedSize {
                                    physical: len,
                                    logical: len * 3,
                                },
                            };
                            Put {
                                key: IoKey { step, level, task },
                                kind: [IoKind::Data, IoKind::Metadata][meta as usize],
                                path,
                                payload,
                            }
                        })
                        .collect()
                })
                .collect()
        })
    }

    /// A test hash under which every path collides.
    fn constant_hash(_: &str) -> u64 {
        7
    }

    /// A test hash under which paths of one length collide.
    fn length_hash(path: &str) -> u64 {
        path.len() as u64
    }

    /// Checks `steps` against the oracle placement: the files of every
    /// step (paths, ranks, spans, segments) under FNV-1a and under
    /// colliding hashes, then what fpp, deferred and streaming report,
    /// land and read back.
    fn check_placement(steps: &[Vec<Put>]) {
        let oracle: Vec<StepFiles> = (steps.iter())
            .map(|puts| {
                let mut b = OracleBuild::default();
                puts.iter().for_each(|p| b.push(p.clone()));
                b.into_files()
            })
            .collect();
        let fnv1a = |path: &str| Fnv1a::default().then(path.as_bytes()).0;
        let hashes: [fn(&str) -> u64; 3] = [fnv1a, constant_hash, length_hash];
        for hash in hashes {
            for (s, puts) in steps.iter().enumerate() {
                let mut b = StepBuild::with_hash(s as u32, hash);
                puts.iter().for_each(|p| b.push(p.clone()));
                assert_eq!(format!("{:?}", b.into_files()), format!("{:?}", oracle[s]));
            }
        }

        let want_stats = |s: usize| {
            let mut stats = StepStats::of(s as u32);
            for (path, build) in &oracle[s] {
                build.book(path.clone(), &mut stats);
            }
            stats
        };
        let want_chunks = |s: usize| -> Vec<_> {
            (oracle[s].iter())
                .flat_map(|(path, b)| {
                    b.spans
                        .iter()
                        .map(move |sp| (sp.key, sp.kind, path.clone(), sp.logical_len))
                })
                .collect()
        };
        let fs = [MemFs::new(), MemFs::new(), MemFs::new()];
        let tracker = IoTracker::new();
        let mut backends: [Box<dyn IoBackend>; 3] = [
            Box::new(FilePerProcess::new(&fs[0], &tracker)),
            Box::new(Deferred::new(&fs[1], &tracker)),
            Box::new(Streaming::new(
                &tracker,
                NetworkModel::ideal(1e6),
                None,
                None,
            )),
        ];
        for (which, b) in backends.iter_mut().enumerate() {
            for (s, puts) in steps.iter().enumerate() {
                b.begin_step(s as u32, "/");
                for p in puts {
                    b.put(p.clone()).unwrap();
                }
                let (got, want) = (b.end_step().unwrap(), want_stats(s));
                if which < 2 {
                    assert_eq!(format!("{got:?}"), format!("{want:?}"), "{}", b.name());
                } else {
                    assert_eq!((got.files, got.bytes, got.requests.len()), (0, 0, 0));
                    assert_eq!(got.logical_bytes, want.logical_bytes);
                    assert_eq!(got.net_bytes, want.bytes);
                }
            }
            b.close().unwrap();
            for s in 0..steps.len() {
                let read = b.read_step(s as u32, "/").unwrap();
                let got: Vec<_> = (read.chunks.iter())
                    .map(|c| (c.key, c.kind, c.path.clone(), c.payload.logical_len()))
                    .collect();
                assert_eq!(got, want_chunks(s), "{}", b.name());
            }
        }
        for files in &oracle {
            for (path, build) in files.iter().filter(|(_, b)| !b.account_only) {
                let content: Vec<u8> = build
                    .segs()
                    .iter()
                    .flat_map(|b| b.iter().copied())
                    .collect();
                assert_eq!(fs[0].read_file(path).as_ref(), Some(&content), "fpp {path}");
                assert_eq!(
                    fs[1].read_file(path).as_ref(),
                    Some(&content),
                    "deferred {path}"
                );
            }
        }
        let landed = (oracle.iter().flatten())
            .filter(|(_, b)| !b.account_only)
            .count();
        assert_eq!((fs[0].nfiles(), fs[1].nfiles()), (landed, landed));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The hash-indexed placement rule places, books, lands and reads
        /// back every put sequence exactly as the order-list + map rule
        /// it replaced, under each backend that shares it.
        #[test]
        fn placement_matches_the_order_and_map_oracle(steps in any_steps()) {
            check_placement(&steps);
        }
    }
}
