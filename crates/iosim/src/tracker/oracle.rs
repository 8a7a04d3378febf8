//! The tracker as it was before its planes became append logs: one
//! `BTreeMap` per plane, updated in place on every record. Kept as the
//! oracle the append-log [`super::IoTracker`] is proptested against.

use super::{IoKey, IoKind};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Aggregated byte counts per `(key, kind)` (the oracle tracker).
///
/// Writes and reads are tracked in separate planes: `record` feeds the
/// Eq. (1)/(2) write samples, `record_read` the restart/analysis read
/// side. Both store *logical* bytes, so read totals are backend- and
/// codec-invariant like the write totals.
#[derive(Default, Debug)]
pub(crate) struct BTreeTracker {
    records: Mutex<BTreeMap<(IoKey, IoKind), Record>>,
    read_records: Mutex<BTreeMap<(IoKey, IoKind), Record>>,
}

/// Takes `m`, recovering it from a panicking writer (no update leaves
/// a record map half-written).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[derive(Default, Debug, Clone, Copy)]
struct Record {
    bytes: u64,
    files: u64,
}

impl BTreeTracker {
    /// An empty tracker.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Records `bytes` written for `key`, counting one file.
    pub(crate) fn record(&self, key: IoKey, kind: IoKind, bytes: u64) {
        let mut map = lock(&self.records);
        let r = map.entry((key, kind)).or_default();
        r.bytes += bytes;
        r.files += 1;
    }

    /// Total bytes across everything.
    pub(crate) fn total_bytes(&self) -> u64 {
        lock(&self.records).values().map(|r| r.bytes).sum()
    }

    /// Total bytes of one kind.
    pub(crate) fn total_bytes_of(&self, kind: IoKind) -> u64 {
        lock(&self.records)
            .iter()
            .filter(|((_, k), _)| *k == kind)
            .map(|(_, r)| r.bytes)
            .sum()
    }

    /// Total number of files written.
    pub(crate) fn total_files(&self) -> u64 {
        lock(&self.records).values().map(|r| r.files).sum()
    }

    /// Bytes per output step (data + metadata), ordered by step.
    pub(crate) fn bytes_per_step(&self) -> BTreeMap<u32, u64> {
        let mut out = BTreeMap::new();
        for ((key, _), r) in lock(&self.records).iter() {
            *out.entry(key.step).or_insert(0) += r.bytes;
        }
        out
    }

    /// Cumulative bytes after each output step, ordered by step — the
    /// paper's Fig. 5 dependent variable.
    pub(crate) fn cumulative_per_step(&self) -> Vec<(u32, u64)> {
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
    pub(crate) fn bytes_per_level(&self) -> BTreeMap<u32, u64> {
        let mut out = BTreeMap::new();
        for ((key, _), r) in lock(&self.records).iter() {
            *out.entry(key.level).or_insert(0) += r.bytes;
        }
        out
    }

    /// Cumulative bytes per level after each step: `(step, level) -> bytes
    /// so far` — the Fig. 7 series.
    pub(crate) fn cumulative_per_level_step(&self) -> BTreeMap<u32, Vec<(u32, u64)>> {
        // level -> Vec<(step, cumulative bytes)>
        let mut per_level_step: BTreeMap<u32, BTreeMap<u32, u64>> = BTreeMap::new();
        for ((key, _), r) in lock(&self.records).iter() {
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
    pub(crate) fn bytes_per_task(&self, step: u32, level: u32) -> Vec<u64> {
        let map = lock(&self.records);
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

    /// Like [`BTreeTracker::bytes_per_task`] but restricted to one kind —
    /// e.g. `Data` only, excluding rank 0's metadata attribution.
    pub(crate) fn bytes_per_task_of(&self, step: u32, level: u32, kind: IoKind) -> Vec<u64> {
        let map = lock(&self.records);
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
    pub(crate) fn steps(&self) -> Vec<u32> {
        let mut v: Vec<u32> = lock(&self.records).keys().map(|(k, _)| k.step).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Sorted list of levels with any output.
    pub(crate) fn levels(&self) -> Vec<u32> {
        let mut v: Vec<u32> = lock(&self.records).keys().map(|(k, _)| k.level).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Flat export of all records as `(key, kind, bytes, files)` for
    /// serialization.
    pub(crate) fn export(&self) -> Vec<(IoKey, IoKind, u64, u64)> {
        lock(&self.records)
            .iter()
            .map(|((k, kind), r)| (*k, *kind, r.bytes, r.files))
            .collect()
    }

    // ---------------------------------------------------------------- reads

    /// Records `bytes` read back for `key`, counting one chunk read.
    pub(crate) fn record_read(&self, key: IoKey, kind: IoKind, bytes: u64) {
        let mut map = lock(&self.read_records);
        let r = map.entry((key, kind)).or_default();
        r.bytes += bytes;
        r.files += 1;
    }

    /// Total logical bytes read back across everything.
    pub(crate) fn total_read_bytes(&self) -> u64 {
        lock(&self.read_records).values().map(|r| r.bytes).sum()
    }

    /// Total logical bytes read back of one kind.
    pub(crate) fn total_read_bytes_of(&self, kind: IoKind) -> u64 {
        lock(&self.read_records)
            .iter()
            .filter(|((_, k), _)| *k == kind)
            .map(|(_, r)| r.bytes)
            .sum()
    }

    /// Number of chunk reads recorded.
    pub(crate) fn total_read_records(&self) -> u64 {
        lock(&self.read_records).values().map(|r| r.files).sum()
    }

    /// Logical bytes read back per output step, ordered by step.
    pub(crate) fn read_bytes_per_step(&self) -> BTreeMap<u32, u64> {
        let mut out = BTreeMap::new();
        for ((key, _), r) in lock(&self.read_records).iter() {
            *out.entry(key.step).or_insert(0) += r.bytes;
        }
        out
    }

    /// Logical bytes read back per AMR level, ordered by level — the
    /// read-plane mirror of `bytes_per_level`. Selective by-level
    /// analysis reads land exactly one key here, which is what tests of
    /// the selection read plane pin.
    pub(crate) fn read_bytes_per_level(&self) -> BTreeMap<u32, u64> {
        let mut out = BTreeMap::new();
        for ((key, _), r) in lock(&self.read_records).iter() {
            *out.entry(key.level).or_insert(0) += r.bytes;
        }
        out
    }

    /// Flat export of all read records as `(key, kind, bytes, reads)`.
    pub(crate) fn export_reads(&self) -> Vec<(IoKey, IoKind, u64, u64)> {
        lock(&self.read_records)
            .iter()
            .map(|((k, kind), r)| (*k, *kind, r.bytes, r.files))
            .collect()
    }
}
