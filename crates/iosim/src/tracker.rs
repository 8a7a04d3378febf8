//! Byte accounting at the paper's (timestep, level, task) granularity.
//!
//! Every write the plotfile and MACSio writers perform is recorded here.
//! The model crate consumes these records to build the Eq. (1)/(2)
//! samples: `y = data_output(i)`, `i = (time step, level, task)`.
//!
//! Recording is an append; the per-key totals are folded lazily (see
//! [`IoTracker`]). The `BTreeMap` tracker this replaced stays as the
//! test oracle (`tracker/oracle.rs`).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Identifies one output record in the AMR hierarchy.
///
/// MACSio has no level concept; its records use `level = 0`.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct IoKey {
    /// Simulation output step (the paper's `output counter`).
    pub step: u32,
    /// AMR refinement level.
    pub level: u32,
    /// MPI task (rank) id.
    pub task: u32,
}

/// Kind of bytes written.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum IoKind {
    /// Field data (Cell_D files, MACSio part payloads).
    Data,
    /// Headers and per-level metadata (Header, Cell_H, job_info, MACSio
    /// root files).
    Metadata,
}

/// Aggregated byte counts per `(key, kind)`.
///
/// Writes and reads are tracked in separate planes: `record` feeds the
/// Eq. (1)/(2) write samples, `record_read` the restart/analysis read
/// side. Both store *logical* bytes, so read totals are backend- and
/// codec-invariant like the write totals.
///
/// A plane is an append log in front of a sorted table. Recording is a
/// push: an account-only dump records one entry per file, hundreds of
/// thousands per campaign cell, and a sorted-map insert per entry was a
/// tenth of such a cell's time. The log is folded into the table before
/// any query, and whenever it grows as long as the table, so a plane
/// holds O(keys) entries however many records it took. Queries walk the
/// table in `(key, kind)` order.
#[derive(Default, Debug)]
pub struct IoTracker {
    records: Mutex<Plane>,
    read_records: Mutex<Plane>,
}

/// Takes `m`, recovering it from a panicking holder: a plane update
/// panics only when a byte total overflows `u64` (debug builds).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[derive(Default, Debug, Clone, Copy)]
struct Record {
    bytes: u64,
    files: u64,
}

type Key = (IoKey, IoKind);

/// One plane of an [`IoTracker`].
#[derive(Default, Debug)]
struct Plane {
    /// Records not yet folded into `table`, in arrival order.
    log: Vec<(Key, u64)>,
    /// Per-key totals, sorted by key, one entry per key.
    table: Vec<(Key, Record)>,
}

/// The log length at which a plane folds even when its table is
/// shorter, so a plane of few keys does not fold on every record.
const MIN_FOLD: usize = 1024;

impl Plane {
    fn push(&mut self, key: Key, bytes: u64) {
        self.log.push((key, bytes));
        if self.log.len() >= self.table.len().max(MIN_FOLD) {
            self.fold();
        }
    }

    /// Folds the log into the table: sorts it, then merges it with the
    /// table, each logged record adding its bytes and one file to its
    /// key.
    fn fold(&mut self) {
        if self.log.is_empty() {
            return;
        }
        self.log.sort_unstable_by_key(|&(key, _)| key);
        let mut old = std::mem::take(&mut self.table).into_iter().peekable();
        let mut table = Vec::with_capacity(old.len() + self.log.len());
        for &(key, bytes) in &self.log {
            table.extend(std::iter::from_fn(|| old.next_if(|(k, _)| *k <= key)));
            add(&mut table, key, bytes);
        }
        table.extend(old);
        self.table = table;
        self.log.clear();
    }

    /// The per-key totals of every record so far, in key order.
    fn table(&mut self) -> &[(Key, Record)] {
        self.fold();
        &self.table
    }
}

/// Adds one record to a sorted table whose last key is at most `key`.
fn add(table: &mut Vec<(Key, Record)>, key: Key, bytes: u64) {
    match table.last_mut() {
        Some((last, r)) if *last == key => {
            r.bytes += bytes;
            r.files += 1;
        }
        _ => table.push((key, Record { bytes, files: 1 })),
    }
}

impl IoTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `bytes` written for `key`, counting one file.
    pub fn record(&self, key: IoKey, kind: IoKind, bytes: u64) {
        lock(&self.records).push((key, kind), bytes);
    }

    /// Total bytes across everything.
    pub fn total_bytes(&self) -> u64 {
        lock(&self.records)
            .table()
            .iter()
            .map(|(_, r)| r.bytes)
            .sum()
    }

    /// Total bytes of one kind.
    pub fn total_bytes_of(&self, kind: IoKind) -> u64 {
        lock(&self.records)
            .table()
            .iter()
            .filter(|((_, k), _)| *k == kind)
            .map(|(_, r)| r.bytes)
            .sum()
    }

    /// Total number of files written.
    pub fn total_files(&self) -> u64 {
        lock(&self.records)
            .table()
            .iter()
            .map(|(_, r)| r.files)
            .sum()
    }

    /// Bytes per output step (data + metadata), ordered by step.
    pub fn bytes_per_step(&self) -> BTreeMap<u32, u64> {
        let mut out = BTreeMap::new();
        for ((key, _), r) in lock(&self.records).table().iter() {
            *out.entry(key.step).or_insert(0) += r.bytes;
        }
        out
    }

    /// Cumulative bytes after each output step, ordered by step — the
    /// paper's Fig. 5 dependent variable.
    pub fn cumulative_per_step(&self) -> Vec<(u32, u64)> {
        let mut acc = 0u64;
        self.bytes_per_step()
            .into_iter()
            .map(|(s, b)| {
                acc += b;
                (s, acc)
            })
            .collect()
    }

    /// Bytes per AMR level, ordered by level — the Fig. 7 decomposition.
    pub fn bytes_per_level(&self) -> BTreeMap<u32, u64> {
        let mut out = BTreeMap::new();
        for ((key, _), r) in lock(&self.records).table().iter() {
            *out.entry(key.level).or_insert(0) += r.bytes;
        }
        out
    }

    /// Cumulative bytes per level after each step: `(step, level) -> bytes
    /// so far` — the Fig. 7 series.
    pub fn cumulative_per_level_step(&self) -> BTreeMap<u32, Vec<(u32, u64)>> {
        // level -> Vec<(step, cumulative bytes)>
        let mut per_level_step: BTreeMap<u32, BTreeMap<u32, u64>> = BTreeMap::new();
        for ((key, _), r) in lock(&self.records).table().iter() {
            *per_level_step
                .entry(key.level)
                .or_default()
                .entry(key.step)
                .or_insert(0) += r.bytes;
        }
        per_level_step
            .into_iter()
            .map(|(level, steps)| {
                let mut acc = 0u64;
                let series = steps
                    .into_iter()
                    .map(|(s, b)| {
                        acc += b;
                        (s, acc)
                    })
                    .collect();
                (level, series)
            })
            .collect()
    }

    /// Bytes per task for one `(step, level)` — the Fig. 8 view. The result
    /// is indexed densely from task 0 to the largest task seen; tasks that
    /// wrote nothing hold 0 (AMReX writes no file for them).
    pub fn bytes_per_task(&self, step: u32, level: u32) -> Vec<u64> {
        let mut plane = lock(&self.records);
        let map = plane.table();
        let mut max_task = 0u32;
        let mut any = false;
        for ((key, _), _) in map.iter() {
            max_task = max_task.max(key.task);
            any = true;
        }
        if !any {
            return Vec::new();
        }
        let mut out = vec![0u64; max_task as usize + 1];
        for ((key, _), r) in map.iter() {
            if key.step == step && key.level == level {
                out[key.task as usize] += r.bytes;
            }
        }
        out
    }

    /// Like [`IoTracker::bytes_per_task`] but restricted to one kind —
    /// e.g. `Data` only, excluding rank 0's metadata attribution.
    pub fn bytes_per_task_of(&self, step: u32, level: u32, kind: IoKind) -> Vec<u64> {
        let mut plane = lock(&self.records);
        let map = plane.table();
        let mut max_task = 0u32;
        let mut any = false;
        for ((key, _), _) in map.iter() {
            max_task = max_task.max(key.task);
            any = true;
        }
        if !any {
            return Vec::new();
        }
        let mut out = vec![0u64; max_task as usize + 1];
        for ((key, k), r) in map.iter() {
            if key.step == step && key.level == level && *k == kind {
                out[key.task as usize] += r.bytes;
            }
        }
        out
    }

    /// Sorted list of steps with any output.
    pub fn steps(&self) -> Vec<u32> {
        let mut v: Vec<u32> = lock(&self.records)
            .table()
            .iter()
            .map(|((k, _), _)| k.step)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Sorted list of levels with any output.
    pub fn levels(&self) -> Vec<u32> {
        let mut v: Vec<u32> = lock(&self.records)
            .table()
            .iter()
            .map(|((k, _), _)| k.level)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Flat export of all records as `(key, kind, bytes, files)` for
    /// serialization.
    pub fn export(&self) -> Vec<(IoKey, IoKind, u64, u64)> {
        lock(&self.records)
            .table()
            .iter()
            .map(|((k, kind), r)| (*k, *kind, r.bytes, r.files))
            .collect()
    }

    // ---------------------------------------------------------------- reads

    /// Records `bytes` read back for `key`, counting one chunk read.
    pub fn record_read(&self, key: IoKey, kind: IoKind, bytes: u64) {
        lock(&self.read_records).push((key, kind), bytes);
    }

    /// Total logical bytes read back across everything.
    pub fn total_read_bytes(&self) -> u64 {
        lock(&self.read_records)
            .table()
            .iter()
            .map(|(_, r)| r.bytes)
            .sum()
    }

    /// Total logical bytes read back of one kind.
    pub fn total_read_bytes_of(&self, kind: IoKind) -> u64 {
        lock(&self.read_records)
            .table()
            .iter()
            .filter(|((_, k), _)| *k == kind)
            .map(|(_, r)| r.bytes)
            .sum()
    }

    /// Number of chunk reads recorded.
    pub fn total_read_records(&self) -> u64 {
        lock(&self.read_records)
            .table()
            .iter()
            .map(|(_, r)| r.files)
            .sum()
    }

    /// Logical bytes read back per output step, ordered by step.
    pub fn read_bytes_per_step(&self) -> BTreeMap<u32, u64> {
        let mut out = BTreeMap::new();
        for ((key, _), r) in lock(&self.read_records).table().iter() {
            *out.entry(key.step).or_insert(0) += r.bytes;
        }
        out
    }

    /// Logical bytes read back per AMR level, ordered by level — the
    /// read-plane mirror of `bytes_per_level`. Selective by-level
    /// analysis reads land exactly one key here, which is what tests of
    /// the selection read plane pin.
    pub fn read_bytes_per_level(&self) -> BTreeMap<u32, u64> {
        let mut out = BTreeMap::new();
        for ((key, _), r) in lock(&self.read_records).table().iter() {
            *out.entry(key.level).or_insert(0) += r.bytes;
        }
        out
    }

    /// Flat export of all read records as `(key, kind, bytes, reads)`.
    pub fn export_reads(&self) -> Vec<(IoKey, IoKind, u64, u64)> {
        lock(&self.read_records)
            .table()
            .iter()
            .map(|((k, kind), r)| (*k, *kind, r.bytes, r.files))
            .collect()
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn key(step: u32, level: u32, task: u32) -> IoKey {
        IoKey { step, level, task }
    }

    #[test]
    fn totals_accumulate() {
        let t = IoTracker::new();
        t.record(key(0, 0, 0), IoKind::Data, 100);
        t.record(key(0, 0, 0), IoKind::Data, 50);
        t.record(key(0, 0, 0), IoKind::Metadata, 10);
        assert_eq!(t.total_bytes(), 160);
        assert_eq!(t.total_bytes_of(IoKind::Data), 150);
        assert_eq!(t.total_bytes_of(IoKind::Metadata), 10);
        assert_eq!(t.total_files(), 3);
    }

    #[test]
    fn per_step_and_cumulative() {
        let t = IoTracker::new();
        t.record(key(0, 0, 0), IoKind::Data, 10);
        t.record(key(2, 0, 0), IoKind::Data, 20);
        t.record(key(2, 1, 0), IoKind::Data, 5);
        let per = t.bytes_per_step();
        assert_eq!(per[&0], 10);
        assert_eq!(per[&2], 25);
        assert_eq!(t.cumulative_per_step(), vec![(0, 10), (2, 35)]);
    }

    #[test]
    fn per_level_decomposition() {
        let t = IoTracker::new();
        t.record(key(0, 0, 0), IoKind::Data, 10);
        t.record(key(0, 1, 0), IoKind::Data, 20);
        t.record(key(1, 1, 1), IoKind::Data, 30);
        let per = t.bytes_per_level();
        assert_eq!(per[&0], 10);
        assert_eq!(per[&1], 50);
        let series = t.cumulative_per_level_step();
        assert_eq!(series[&1], vec![(0, 20), (1, 50)]);
    }

    #[test]
    fn per_task_dense_with_gaps() {
        let t = IoTracker::new();
        t.record(key(3, 2, 0), IoKind::Data, 7);
        t.record(key(3, 2, 4), IoKind::Data, 9);
        t.record(key(3, 1, 2), IoKind::Data, 100); // other level
        let v = t.bytes_per_task(3, 2);
        assert_eq!(v, vec![7, 0, 0, 0, 9]);
        assert_eq!(t.bytes_per_task(9, 9), vec![0, 0, 0, 0, 0]);
    }

    #[test]
    fn steps_levels_sorted_unique() {
        let t = IoTracker::new();
        t.record(key(5, 1, 0), IoKind::Data, 1);
        t.record(key(1, 0, 0), IoKind::Data, 1);
        t.record(key(5, 0, 0), IoKind::Data, 1);
        assert_eq!(t.steps(), vec![1, 5]);
        assert_eq!(t.levels(), vec![0, 1]);
    }

    #[test]
    fn empty_tracker_queries() {
        let t = IoTracker::new();
        assert_eq!(t.total_bytes(), 0);
        assert!(t.bytes_per_step().is_empty());
        assert!(t.cumulative_per_step().is_empty());
        assert!(t.bytes_per_task(0, 0).is_empty());
        assert_eq!(t.total_read_bytes(), 0);
        assert!(t.read_bytes_per_step().is_empty());
    }

    #[test]
    fn read_plane_is_separate_from_write_plane() {
        let t = IoTracker::new();
        t.record(key(1, 0, 0), IoKind::Data, 100);
        t.record_read(key(1, 0, 0), IoKind::Data, 40);
        t.record_read(key(2, 0, 1), IoKind::Metadata, 7);
        assert_eq!(t.total_bytes(), 100, "writes unaffected by reads");
        assert_eq!(t.total_read_bytes(), 47);
        assert_eq!(t.total_read_bytes_of(IoKind::Data), 40);
        assert_eq!(t.total_read_bytes_of(IoKind::Metadata), 7);
        assert_eq!(t.total_read_records(), 2);
        let per = t.read_bytes_per_step();
        assert_eq!(per[&1], 40);
        assert_eq!(per[&2], 7);
        assert_eq!(t.export_reads().len(), 2);
        assert_eq!(t.export().len(), 1);
    }

    #[test]
    fn read_bytes_group_by_level() {
        let t = IoTracker::new();
        t.record_read(key(1, 0, 0), IoKind::Data, 10);
        t.record_read(key(1, 1, 0), IoKind::Data, 20);
        t.record_read(key(1, 1, 3), IoKind::Data, 5);
        let per = t.read_bytes_per_level();
        assert_eq!(per[&0], 10);
        assert_eq!(per[&1], 25);
        assert_eq!(per.len(), 2);
        // A by-level selective read touches exactly one level key.
        let t2 = IoTracker::new();
        t2.record_read(key(1, 1, 0), IoKind::Data, 20);
        assert_eq!(
            t2.read_bytes_per_level()
                .keys()
                .copied()
                .collect::<Vec<_>>(),
            vec![1]
        );
    }

    /// However many records a plane takes, it holds O(keys) entries: a
    /// log no longer than `MIN_FOLD` or its table, whichever is longer.
    #[test]
    fn a_plane_holds_o_keys_entries() {
        let t = IoTracker::new();
        for i in 0..100_000u32 {
            t.record(key(i % 3, 0, i % 7), IoKind::Data, 1);
        }
        let plane = lock(&t.records);
        assert_eq!(plane.table.len(), 21);
        assert!(plane.log.len() < MIN_FOLD, "{}", plane.log.len());
        drop(plane);
        for i in 0..100_000u32 {
            t.record_read(key(i, 0, 0), IoKind::Data, 1);
        }
        let plane = lock(&t.read_records);
        assert!(plane.log.len() <= plane.table.len(), "{}", plane.log.len());
        assert_eq!(plane.log.len() + plane.table.len(), 100_000);
    }

    /// One tracker call of a random session.
    #[derive(Clone, Debug)]
    enum Op {
        Write(IoKey, IoKind, u64),
        Read(IoKey, IoKind, u64),
        /// Every query, on both trackers.
        Query,
    }

    /// Sessions over few keys (so keys repeat), with queries between the
    /// records at one of three rates; at the lowest, the log folds on
    /// its own. `monotone` sessions only ever grow the step, as a run
    /// does; the others revisit keys already folded.
    fn any_session() -> impl Strategy<Value = Vec<Op>> {
        let op = (
            0..1000u32,
            0..8u32,
            0..3u32,
            0..9u32,
            0..2u32,
            0..1u64 << 40,
        );
        let sessions = (0..2u32, prop_oneof![Just(0), Just(3), Just(30)]);
        (sessions, proptest::collection::vec(op, 0..3000)).prop_map(
            |((monotone, query_rate), ops)| {
                (ops.into_iter().enumerate())
                    .map(|(i, (what, step, level, task, meta, bytes))| {
                        let step = if monotone == 1 { i as u32 / 200 } else { step };
                        let key = key(step, level, task);
                        let kind = if meta == 1 {
                            IoKind::Metadata
                        } else {
                            IoKind::Data
                        };
                        match what {
                            w if w < query_rate => Op::Query,
                            w if w < 300 => Op::Read(key, kind, bytes),
                            _ => Op::Write(key, kind, bytes),
                        }
                    })
                    .collect()
            },
        )
    }

    /// Every query of both planes, rendered for comparison; `step` and
    /// `level` pick the per-task views.
    macro_rules! queries {
        ($t:expr, $step:expr, $level:expr) => {{
            let t = &$t;
            format!(
                "{:?}",
                (
                    (t.total_bytes(), t.total_bytes_of(IoKind::Data)),
                    (t.total_bytes_of(IoKind::Metadata), t.total_files()),
                    (t.bytes_per_step(), t.cumulative_per_step()),
                    (t.bytes_per_level(), t.cumulative_per_level_step()),
                    t.bytes_per_task($step, $level),
                    (t.bytes_per_task_of($step, $level, IoKind::Data))
                        .into_iter()
                        .chain(t.bytes_per_task_of($step, $level, IoKind::Metadata))
                        .collect::<Vec<_>>(),
                    (t.steps(), t.levels(), t.export()),
                    (t.total_read_bytes(), t.total_read_records()),
                    (
                        t.total_read_bytes_of(IoKind::Data),
                        t.total_read_bytes_of(IoKind::Metadata)
                    ),
                    (
                        t.read_bytes_per_step(),
                        t.read_bytes_per_level(),
                        t.export_reads()
                    ),
                )
            )
        }};
    }

    /// Replays `ops` on an append-log tracker and on the oracle,
    /// comparing every query whenever the session asks and at its end.
    fn replay(ops: &[Op], step: u32, level: u32) {
        let (t, oracle) = (IoTracker::new(), oracle::BTreeTracker::new());
        for op in ops.iter().chain([&Op::Query]) {
            match *op {
                Op::Write(key, kind, bytes) => {
                    t.record(key, kind, bytes);
                    oracle.record(key, kind, bytes);
                }
                Op::Read(key, kind, bytes) => {
                    t.record_read(key, kind, bytes);
                    oracle.record_read(key, kind, bytes);
                }
                Op::Query => {
                    prop_assert_eq!(queries!(t, step, level), queries!(oracle, step, level));
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The append-log tracker answers every query on both planes
        /// exactly as the `BTreeMap` tracker it replaced, at every point
        /// of a session.
        #[test]
        fn append_log_matches_the_btree_oracle(
            ops in any_session(),
            step in 0..8u32,
            level in 0..3u32,
        ) {
            replay(&ops, step, level);
        }
    }
}
