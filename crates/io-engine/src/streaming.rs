//! In-transit streaming backend: steps leave the node over the modeled
//! interconnect instead of through the storage plane.
//!
//! What it adds to the shared layout plane (`layout.rs`): placement is
//! [`crate::FilePerProcess`]'s per-path rule, and the **delivery** is a
//! *ship*: sealed files keep their segments in a bounded consumer window
//! instead of landing on storage, so the shared reader serves selections
//! from the window's own segments and prices nothing.
//!
//! The pre-exascale pattern this reproduces is ADIOS2/SST-style
//! streaming (see "Accelerating WRF I/O with ADIOS2 and network-based
//! streaming", PAPERS.md): producers publish each output step to
//! consumer ranks as point-to-point transfers, and analysis reads are
//! served from the consumers' in-memory window — so an `analyze:SEL`
//! workload touches **zero physical read bytes**, while the tracker's
//! logical planes stay byte-identical to every storage backend.
//!
//! Three planes, kept strictly apart:
//!
//! * **logical** — every put is recorded in the tracker at its logical
//!   length, and window-served chunks are recorded in the read plane,
//!   exactly like `fpp`/`agg`/`deferred` (the backend-equivalence
//!   property suite pins this);
//! * **physical** — always zero: no files, no write/read requests, no
//!   storage bursts;
//! * **network** — a new priced column: shipped bytes cost
//!   [`NetworkModel::transfer_seconds`] on the simulated clock, plus a
//!   producer stall whenever the bounded consumer window is full.
//!
//! The consumer window is a fluid model: the consumer drains at a fixed
//! byte rate while the producer pushes at link bandwidth. When the
//! window cap is reached, the producer is throttled to the consumer's
//! rate — the surplus push time is `window_stall`. Occupancy can never
//! exceed the cap by construction, and a consumer at least as fast as
//! the link never stalls the producer (the defaults).

use crate::backend::{
    unsupported_read, EngineReport, IoBackend, OpenStep, Put, StepRead, StepStats,
};
use crate::fpp::{StepBuild, StepFiles};
use crate::layout::{Source, SpanReader};
use crate::selection::ReadSelection;
use iosim::IoTracker;
use mpi_sim::NetworkModel;
use std::collections::HashMap;
use std::io;

/// The in-transit streaming backend (see module docs).
pub struct Streaming<'a> {
    tracker: &'a IoTracker,
    net: NetworkModel,
    /// Window capacity in bytes (`u64::MAX` = unbounded).
    window_cap: u64,
    /// Consumer drain rate in bytes/s (`f64::INFINITY` = keeps up).
    consumer_rate: f64,
    cur: OpenStep<StepBuild>,
    /// Shipped steps, retained (segments and spans, never materialized)
    /// for window-served analysis reads.
    window: HashMap<u32, StepFiles>,
    /// Fluid window occupancy in bytes.
    occupancy: f64,
    peak_occupancy: f64,
    net_bytes: u64,
    net_seconds: f64,
    window_stall: f64,
    report: EngineReport,
}

impl<'a> Streaming<'a> {
    /// A streaming backend publishing over `net` into a consumer window
    /// of `window_cap` bytes (`None` = unbounded), drained at
    /// `consumer_rate` bytes/s (`None` = the consumer always keeps up).
    ///
    /// # Panics
    /// Panics when `window_cap` or `consumer_rate` is zero — a window
    /// that can hold nothing (or a consumer that never drains) deadlocks
    /// the producer by construction.
    pub fn new(
        tracker: &'a IoTracker,
        net: NetworkModel,
        window_cap: Option<u64>,
        consumer_rate: Option<f64>,
    ) -> Self {
        if let Some(cap) = window_cap {
            assert!(cap > 0, "Streaming: zero-byte consumer window");
        }
        if let Some(rate) = consumer_rate {
            assert!(
                rate.is_finite() && rate > 0.0,
                "Streaming: non-positive consumer rate"
            );
        }
        Self {
            tracker,
            net,
            window_cap: window_cap.unwrap_or(u64::MAX),
            consumer_rate: consumer_rate.unwrap_or(f64::INFINITY),
            cur: OpenStep::closed(),
            window: HashMap::new(),
            occupancy: 0.0,
            peak_occupancy: 0.0,
            net_bytes: 0,
            net_seconds: 0.0,
            window_stall: 0.0,
            report: EngineReport::default(),
        }
    }

    /// Peak window occupancy over the run so far, in bytes — never
    /// exceeds the cap (pinned by the property suite).
    pub fn peak_window_bytes(&self) -> u64 {
        self.peak_occupancy.ceil() as u64
    }

    /// Total producer stall on window back-pressure so far.
    pub fn window_stall(&self) -> f64 {
        self.window_stall
    }

    /// Ships `bytes` through the bounded window: returns
    /// `(transfer_seconds, stall_seconds)` and updates occupancy.
    ///
    /// Fluid model: the producer pushes at link bandwidth `b`; the
    /// consumer drains concurrently at rate `c`. With `c >= b` the
    /// window only empties — no stall. With `c < b` the window fills at
    /// rate `b - c` until the cap, after which the producer is
    /// throttled to `c`; the extra time past the unthrottled push is
    /// the `window_stall`.
    fn ship(&mut self, bytes: u64) -> (f64, f64) {
        let b = self.net.link_bandwidth;
        let c = self.consumer_rate;
        let cap = if self.window_cap == u64::MAX {
            f64::INFINITY
        } else {
            self.window_cap as f64
        };
        let push = bytes as f64 / b;
        let transfer = self.net.transfer_seconds(bytes);
        let occ0 = self.occupancy;
        let (stall, occ_end, peak);
        if c >= b {
            // Consumer drains at least as fast as bytes arrive: the
            // window never grows past its starting occupancy.
            let consumed = (c * push).min(occ0 + bytes as f64);
            occ_end = occ0 + bytes as f64 - consumed;
            peak = occ0.max(occ_end);
            stall = 0.0;
        } else {
            let free = cap - occ0;
            let t_fill = free / (b - c);
            if push <= t_fill {
                stall = 0.0;
                occ_end = occ0 + (b - c) * push;
                peak = occ_end;
            } else {
                // Window full mid-push: the rest trickles at the
                // consumer's rate.
                let sent_at_fill = b * t_fill;
                let throttled = (bytes as f64 - sent_at_fill) / c;
                stall = t_fill + throttled - push;
                occ_end = cap;
                peak = cap;
            }
        }
        self.occupancy = occ_end;
        self.peak_occupancy = self.peak_occupancy.max(peak);
        self.net_bytes += bytes;
        self.net_seconds += transfer;
        self.window_stall += stall;
        (transfer, stall)
    }
}

impl IoBackend for Streaming<'_> {
    fn name(&self) -> String {
        "streaming".to_string()
    }

    fn in_transit(&self) -> bool {
        true
    }

    fn begin_step(&mut self, step: u32, _container: &str) {
        self.cur.begin(StepBuild::new(step));
    }

    fn create_dir_all(&mut self, _path: &str) -> io::Result<()> {
        // Streamed steps have no filesystem footprint; directories are
        // a storage-plane concept.
        Ok(())
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
        let files = cur.into_files();
        let mut ship_bytes = 0u64;
        for (_, build) in &files {
            stats.logical_bytes += build.logical_bytes();
            ship_bytes += build.bytes();
        }
        let (transfer, stall) = self.ship(ship_bytes);
        stats.net_bytes = ship_bytes;
        stats.net_seconds = transfer;
        stats.window_stall = stall;
        // The storage plane stays untouched: no files, no bytes, no
        // write requests to burst-time.
        self.window.insert(stats.step, files);
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
        let ship = self
            .window
            .get(&step)
            .ok_or_else(|| unsupported_read(&self.name(), step, sel, "step was never streamed"))?;
        // Window-served: logical read plane recorded, physical plane
        // untouched (no files, no bytes, no requests).
        SpanReader::new(self.tracker, step, sel).read_files(ship, Source::Window)
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
    use iosim::{IoKey, IoKind};

    fn put(step: u32, level: u32, task: u32, path: &str, data: &[u8]) -> Put {
        Put {
            key: IoKey { step, level, task },
            kind: IoKind::Data,
            path: path.to_string(),
            payload: Payload::Bytes(data.to_vec().into()),
        }
    }

    #[test]
    fn ships_bytes_over_the_link_with_zero_physical_footprint() {
        let tracker = IoTracker::new();
        let mut b = Streaming::new(&tracker, NetworkModel::ideal(1e6), None, None);
        b.begin_step(1, "/");
        b.put(put(1, 0, 0, "/f0", b"aaaa")).unwrap();
        b.put(put(1, 1, 1, "/f1", b"bb")).unwrap();
        let stats = b.end_step().unwrap();
        assert_eq!(stats.files, 0, "no physical files");
        assert_eq!(stats.bytes, 0, "no physical bytes");
        assert!(stats.requests.is_empty(), "no storage bursts");
        assert_eq!(stats.net_bytes, 6);
        assert!((stats.net_seconds - 6.0 / 1e6).abs() < 1e-12);
        assert_eq!(stats.window_stall, 0.0);
        assert_eq!(stats.logical_bytes, 6);
        // Tracker write plane identical to a storage backend's.
        assert_eq!(tracker.total_bytes(), 6);
    }

    #[test]
    fn window_reads_match_storage_semantics_with_zero_physical_bytes() {
        let tracker = IoTracker::new();
        let mut b = Streaming::new(&tracker, NetworkModel::ideal(1e6), None, None);
        b.begin_step(1, "/");
        b.put(put(1, 0, 0, "/group", b"r0r0")).unwrap();
        b.put(put(1, 0, 1, "/group", b"r1")).unwrap();
        b.put(put(1, 1, 2, "/own", b"solo")).unwrap();
        b.end_step().unwrap();

        let read = b.read_step(1, "/").unwrap();
        assert_eq!(read.chunks.len(), 3);
        assert_eq!(read.logical_content("/group"), Some(b"r0r0r1".to_vec()));
        assert_eq!(read.logical_content("/own"), Some(b"solo".to_vec()));
        assert_eq!(read.stats.bytes, 0, "window-served: zero physical");
        assert_eq!(read.stats.files, 0);
        assert!(read.stats.requests.is_empty());
        assert_eq!(read.stats.logical_bytes, 10);
        assert_eq!(tracker.total_read_bytes(), 10);

        let level = b.read_selection(1, "/", &ReadSelection::Level(1)).unwrap();
        assert_eq!(level.chunks.len(), 1);
        assert_eq!(level.logical_content("/own"), Some(b"solo".to_vec()));
        assert_eq!(level.stats.bytes, 0);
    }

    #[test]
    fn slow_consumer_fills_the_window_and_stalls_the_producer() {
        let tracker = IoTracker::new();
        // 1 MB/s link, 10-byte window, 10 B/s consumer: a 100-byte step
        // blows straight past the cap.
        let mut b = Streaming::new(&tracker, NetworkModel::ideal(1e6), Some(10), Some(10.0));
        b.begin_step(1, "/");
        b.put(put(1, 0, 0, "/f", &[0u8; 100])).unwrap();
        let stats = b.end_step().unwrap();
        assert!(stats.window_stall > 0.0, "producer must stall");
        assert!(b.peak_window_bytes() <= 10, "cap never exceeded");
        assert!((b.occupancy - 10.0).abs() < 1e-9, "window left full");

        // The unbounded window never stalls.
        let t2 = IoTracker::new();
        let mut free = Streaming::new(&t2, NetworkModel::ideal(1e6), None, Some(10.0));
        free.begin_step(1, "/");
        free.put(put(1, 0, 0, "/f", &[0u8; 100])).unwrap();
        let free_stats = free.end_step().unwrap();
        assert_eq!(free_stats.window_stall, 0.0);
        assert_eq!(free_stats.net_seconds, stats.net_seconds, "same transfer");
    }

    #[test]
    fn fast_consumer_never_stalls_and_drains_the_window() {
        let tracker = IoTracker::new();
        let mut b = Streaming::new(&tracker, NetworkModel::ideal(1e6), Some(1000), Some(2e6));
        for step in 1..=3 {
            b.begin_step(step, "/");
            b.put(put(step, 0, 0, &format!("/s{step}"), &[7u8; 500]))
                .unwrap();
            let stats = b.end_step().unwrap();
            assert_eq!(stats.window_stall, 0.0);
        }
        assert_eq!(b.occupancy, 0.0, "consumer kept up");
        assert!(b.peak_window_bytes() <= 1000);
    }

    #[test]
    fn unstreamed_step_is_a_typed_unsupported_error() {
        let tracker = IoTracker::new();
        let mut b = Streaming::new(&tracker, NetworkModel::ideal(1e6), None, None);
        let err = b
            .read_selection(9, "/", &ReadSelection::Level(1))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Unsupported);
        let msg = err.to_string();
        assert!(msg.contains("'streaming'"), "{msg}");
        assert!(msg.contains("level:1"), "{msg}");
    }

    #[test]
    fn account_only_puts_stream_as_modeled_sizes() {
        let tracker = IoTracker::new();
        let mut b = Streaming::new(&tracker, NetworkModel::ideal(1e6), None, None);
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
        let stats = b.end_step().unwrap();
        assert_eq!(stats.net_bytes, 1 << 20, "modeled bytes still ship");
        assert_eq!(stats.bytes, 0);
        let read = b.read_step(2, "/").unwrap();
        assert!(matches!(read.chunks[0].payload, Payload::Size(n) if n == 1 << 20));
        assert_eq!(read.stats.bytes, 0);
        assert_eq!(tracker.total_read_bytes(), 1 << 20);
    }

    #[test]
    fn close_reports_logical_totals_and_zero_physical() {
        let tracker = IoTracker::new();
        let mut b = Streaming::new(&tracker, NetworkModel::ideal(1e6), None, None);
        for step in 1..=3 {
            b.begin_step(step, "/");
            b.put(put(step, 0, 0, &format!("/s{step}"), b"xy")).unwrap();
            b.end_step().unwrap();
        }
        let report = b.close().unwrap();
        assert_eq!(report.steps, 3);
        assert_eq!(report.files, 0);
        assert_eq!(report.bytes, 0);
        assert_eq!(report.logical_bytes, 6);
        assert_eq!(b.net_bytes, 6);
    }
}
