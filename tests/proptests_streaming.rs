//! Backend-equivalence property suite for the in-transit streaming
//! backend (PR-9's pinned invariants):
//!
//! * (a) the tracker's logical planes are byte-identical across all four
//!   backends × three codecs — streaming is indistinguishable from the
//!   storage backends on the logical plane;
//! * (b) a streamed `analyze` selection returns the same decoded chunks
//!   as a storage read of the same step;
//! * (c) streamed analysis touches exactly zero physical read bytes;
//! * (d) the bounded consumer window never exceeds its cap and producer
//!   stall is non-negative;
//! * plus the typed error path: `read_selection` of a step no backend
//!   ever wrote is an `ErrorKind::Unsupported` naming the backend, for
//!   all four backends — never a panic;
//! * and the stored-vs-streamed trade on the simulated clock: a fast
//!   link beats bandwidth-bound disks, a throttled one loses to them.

use amr_proxy_io::amrproxy::{run_simulation, CastroSedovConfig, Engine};
use amr_proxy_io::io_engine::{
    BackendSpec, CodecSpec, CompressionStage, IoBackend, Payload, Put, ReadSelection, Scenario,
    Streaming,
};
use amr_proxy_io::iosim::{IoKey, IoKind, IoTracker, MemFs, StorageModel, Vfs};
use amr_proxy_io::mpi_sim::NetworkModel;
use proptest::prelude::*;

const BACKENDS: [&str; 4] = ["fpp", "agg:2", "deferred", "streaming"];
const CODECS: [&str; 3] = ["identity", "rle:2", "quant:8"];

/// One tracker export row: `(key, kind, bytes, files)`.
type TrackerRow = (IoKey, IoKind, u64, u64);

fn base_config(n_cell: i64, max_step: u64, plot_int: u64, nprocs: usize) -> CastroSedovConfig {
    CastroSedovConfig {
        name: "prop".into(),
        engine: Engine::Oracle,
        n_cell,
        max_step,
        plot_int,
        nprocs,
        account_only: true,
        ..Default::default()
    }
}

/// Writes `puts` as step 1 through `backend` wrapped in `codec`, then
/// reads `sel` back through the same stage (decoded). Returns the read
/// plus the tracker for plane comparisons.
fn write_then_select(
    backend: &str,
    codec: &str,
    fs: &MemFs,
    tracker: &IoTracker,
    puts: &[(u32, Vec<u8>)],
    sel: &ReadSelection,
) -> amr_proxy_io::io_engine::StepRead {
    let inner = BackendSpec::parse(backend)
        .unwrap()
        .build(fs as &dyn Vfs, tracker);
    let mut live = CompressionStage::new(
        inner,
        CodecSpec::parse(codec).unwrap().build(),
        fs as &dyn Vfs,
    );
    live.begin_step(1, "/plt");
    for (task, (level, data)) in puts.iter().enumerate() {
        live.put(Put {
            key: IoKey {
                step: 1,
                level: *level,
                task: task as u32,
            },
            kind: IoKind::Data,
            // Chunks of one level share a logical path, like Cell_D
            // files — exercises multi-chunk path reassembly.
            path: format!("/plt/L{level}"),
            payload: Payload::Bytes(data.clone().into()),
        })
        .unwrap();
    }
    live.end_step().unwrap();
    let read = live.read_selection(1, "/plt", sel).unwrap();
    live.close().unwrap();
    read
}

/// Normalizes a decoded read for order-insensitive comparison:
/// `(level, task, path, logical bytes)` per chunk, sorted.
fn normalize(read: &amr_proxy_io::io_engine::StepRead) -> Vec<(u32, u32, String, Vec<u8>)> {
    let mut rows: Vec<_> = read
        .chunks
        .iter()
        .map(|c| {
            let bytes = match &c.payload {
                Payload::Bytes(b) => b.to_vec(),
                other => panic!("stage must return decoded bytes, got {other:?}"),
            };
            (c.key.level, c.key.task, c.path.clone(), bytes)
        })
        .collect();
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// (a) Logical tracker totals are byte-identical across all four
    /// backends × three codecs for arbitrary small campaigns: neither
    /// the write path's shape (N-to-N, aggregated, staged, streamed)
    /// nor the codec may leak into the logical plane.
    #[test]
    fn logical_planes_are_backend_and_codec_invariant(
        n_cell in (0usize..2).prop_map(|i| [32i64, 48][i]),
        max_step in 4u64..9,
        plot_int in 1u64..4,
        nprocs in 1usize..5,
    ) {
        let mut reference: Option<(Vec<TrackerRow>, u64)> = None;
        for backend in BACKENDS {
            for codec in CODECS {
                let mut cfg = base_config(n_cell, max_step, plot_int, nprocs);
                cfg.backend = BackendSpec::parse(backend).unwrap();
                cfg.codec = CodecSpec::parse(codec).unwrap();
                let r = run_simulation(&cfg, None, None);
                let export = r.tracker.export();
                match &reference {
                    None => reference = Some((export, r.totals.engine.logical_bytes)),
                    Some((ref_export, ref_logical)) => {
                        prop_assert_eq!(
                            &export, ref_export,
                            "tracker plane diverged at {}/{}", backend, codec
                        );
                        prop_assert_eq!(r.totals.engine.logical_bytes, *ref_logical);
                    }
                }
            }
        }
    }

    /// (b) + (c): for arbitrary put sets, codecs, and selections, the
    /// streamed read returns exactly the chunks a storage read of the
    /// same step returns — same keys, same decoded bytes — while its
    /// physical read plane stays at exactly zero.
    #[test]
    fn streamed_selections_match_storage_reads_at_zero_physical_cost(
        puts in prop::collection::vec(
            (0u32..3, prop::collection::vec(0u8..=255, 1..64)),
            1..8,
        ),
        codec_idx in 0usize..3,
        // 3 encodes "no level filter": a Full-step selection.
        level_sel in (0u32..4).prop_map(|v| (v < 3).then_some(v)),
    ) {
        let codec = CODECS[codec_idx];
        let sel = match level_sel {
            Some(l) => ReadSelection::Level(l),
            None => ReadSelection::Full,
        };
        let fs_stored = MemFs::new();
        let t_stored = IoTracker::new();
        let stored = write_then_select("fpp", codec, &fs_stored, &t_stored, &puts, &sel);
        let fs_streamed = MemFs::new();
        let t_streamed = IoTracker::new();
        let streamed =
            write_then_select("streaming", codec, &fs_streamed, &t_streamed, &puts, &sel);

        // (b) Same decoded chunks, bit for bit.
        prop_assert_eq!(normalize(&streamed), normalize(&stored));
        prop_assert_eq!(streamed.stats.logical_bytes, stored.stats.logical_bytes);
        prop_assert_eq!(t_streamed.total_read_bytes(), t_stored.total_read_bytes());
        // Write planes: logical identical, physical zero only streamed.
        prop_assert_eq!(t_streamed.total_bytes(), t_stored.total_bytes());
        prop_assert_eq!(fs_streamed.total_bytes(), 0, "nothing hits the fs");

        // (c) The streamed read plane is physically free...
        prop_assert_eq!(streamed.stats.bytes, 0);
        prop_assert_eq!(streamed.stats.files, 0);
        prop_assert!(streamed.stats.requests.is_empty());
        // ...while the storage read pays for whatever it returned.
        if !stored.chunks.is_empty() {
            prop_assert!(stored.stats.bytes > 0);
        }
    }

    /// (d) For arbitrary window caps, consumer rates, and step sizes,
    /// the bounded window never exceeds its cap and every step's
    /// producer stall is non-negative.
    #[test]
    fn bounded_window_respects_cap_and_stall_is_nonnegative(
        cap in 16u64..4096,
        consumer in 10.0f64..2e6,
        sizes in prop::collection::vec(1usize..2048, 1..12),
    ) {
        let tracker = IoTracker::new();
        let mut b = Streaming::new(
            &tracker,
            NetworkModel::ideal(1e6),
            Some(cap),
            Some(consumer),
        );
        for (i, len) in sizes.iter().enumerate() {
            let step = i as u32 + 1;
            b.begin_step(step, "/");
            b.put(Put {
                key: IoKey { step, level: 0, task: 0 },
                kind: IoKind::Data,
                path: format!("/s{step}"),
                payload: Payload::Bytes(vec![0xA5u8; *len].into()),
            })
            .unwrap();
            let stats = b.end_step().unwrap();
            prop_assert!(stats.window_stall >= 0.0);
            prop_assert!(b.peak_window_bytes() <= cap, "cap breached");
        }
        prop_assert!(b.window_stall() >= 0.0);
        prop_assert!(b.peak_window_bytes() <= cap);
    }
}

/// Satellite 4: `read_selection` against a step that was never written
/// is a typed `Unsupported` error naming the backend — for all four
/// backends, never a panic (the driver propagates it as `io::Error`).
#[test]
fn unwritten_step_reads_are_typed_unsupported_errors_for_every_backend() {
    for spec in BACKENDS {
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let mut b = BackendSpec::parse(spec)
            .unwrap()
            .build(&fs as &dyn Vfs, &tracker);
        // The backend is live (step 1 written) — step 7 is not.
        b.begin_step(1, "/plt");
        b.put(Put {
            key: IoKey {
                step: 1,
                level: 0,
                task: 0,
            },
            kind: IoKind::Data,
            path: "/plt/L0".into(),
            payload: Payload::Bytes(b"data".to_vec().into()),
        })
        .unwrap();
        b.end_step().unwrap();

        let sel = ReadSelection::Level(1);
        let err = b.read_selection(7, "/plt", &sel).unwrap_err();
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::Unsupported,
            "{spec}: wrong kind"
        );
        let msg = err.to_string();
        let name = b.name();
        assert!(msg.contains(&format!("'{name}'")), "{spec}: {msg}");
        assert!(msg.contains("step 7"), "{spec}: {msg}");
        assert!(msg.contains(&sel.name()), "{spec}: {msg}");
        b.close().unwrap();
    }
}

/// In-transit is a bandwidth trade, not a free lunch: with dumps bound
/// by a 50 MB/s disk array, streaming over the default 12.5 GB/s link
/// wins the wall clock and a 10 MB/s link loses it — while throttling
/// changes timing only, never the shipped volume.
#[test]
fn fast_link_beats_bandwidth_bound_disks_and_a_throttled_link_loses() {
    let storage = StorageModel::ideal(2, 2.5e7);
    let run = |backend: &str| {
        let mut cfg = base_config(128, 20, 4, 8);
        cfg.max_level = 2;
        cfg.compute_ns_per_cell = 40_000.0;
        cfg.scenario = Some(Scenario::in_run_analysis(2, ReadSelection::Level(1)));
        cfg.backend = BackendSpec::parse(backend).unwrap();
        run_simulation(&cfg, None, Some(&storage))
    };
    let stored = run("fpp");
    let streamed = run("streaming");
    let throttled = run("streaming:10");
    assert!(
        streamed.totals.wall_time < stored.totals.wall_time,
        "12.5 GB/s link must beat 50 MB/s disks: {} vs {}",
        streamed.totals.wall_time,
        stored.totals.wall_time
    );
    assert!(
        throttled.totals.wall_time > stored.totals.wall_time,
        "10 MB/s link must lose to 50 MB/s disks: {} vs {}",
        throttled.totals.wall_time,
        stored.totals.wall_time
    );
    assert_eq!(
        throttled.totals.net_bytes, streamed.totals.net_bytes,
        "throttling changes timing, not shipped volume"
    );
    assert_eq!(
        streamed.totals.net_bytes, streamed.totals.engine.logical_bytes,
        "identity codec: every logical byte ships exactly once"
    );
    // Re-routing the bytes never changes what the workload logically
    // wrote or analyzed.
    assert_eq!(streamed.tracker.export(), stored.tracker.export());
    assert_eq!(
        streamed.tracker.export_reads(),
        stored.tracker.export_reads()
    );
}
