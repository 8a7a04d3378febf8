//! Property tests for the selection-driven read plane: for any workload
//! and any selection, `read_selection` returns *exactly* the chunks of a
//! full-step read for which the selection predicate holds — across the
//! whole backend × codec × {raw, reorganized} cube (the three storage
//! backends and the streaming window) — and the physical bytes fetched
//! never exceed the full read's. Plus deterministic edge
//! cases: empty selections, boxes touching no chunks, selections on
//! account-only (modeled) steps, and selections through the lossy
//! quantizer.

use amr_proxy_io::io_engine::{
    BackendSpec, ChunkRead, CodecSpec, IoBackend, Payload, Put, ReadSelection, Reorganizer,
    StepRead, StreamSpec,
};
use amr_proxy_io::iosim::{IoKey, IoKind, IoTracker, MemFs, Vfs};
use proptest::prelude::*;

const FIELDS: [&str; 3] = ["density", "pressure", "velocity"];

/// Canonical identity of a chunk: `(step, level, task, is_meta, path)`.
type ChunkId = (u32, u32, u32, u8, String);
/// Sorted `(identity, payload)` view of a read, for set comparison.
type Contents = Vec<(ChunkId, Vec<u8>)>;

/// Writes a synthetic AMR-ish step (per-field paths, multiple levels and
/// tasks) through the given stack; returns the backend for reading.
#[allow(clippy::too_many_arguments)] // one knob per workload axis
fn write_step<'a>(
    fs: &'a MemFs,
    tracker: &'a IoTracker,
    backend: BackendSpec,
    codec: CodecSpec,
    nlevels: u32,
    ntasks: u32,
    values_per_chunk: u32,
    account_only: bool,
) -> Box<dyn IoBackend + 'a> {
    let mut b = backend.build_with_codec(codec, fs as &dyn Vfs, tracker);
    b.begin_step(1, "/plt");
    b.create_dir_all("/plt").unwrap();
    for level in 0..nlevels {
        for task in 0..ntasks {
            for (fi, field) in FIELDS.iter().enumerate() {
                let payload = if account_only {
                    Payload::Size(values_per_chunk as u64 * 8)
                } else {
                    Payload::Bytes(
                        (0..values_per_chunk)
                            .flat_map(|i| {
                                ((i + task * 7 + level * 31 + fi as u32) as f64 * 0.5).to_le_bytes()
                            })
                            .collect::<Vec<u8>>()
                            .into(),
                    )
                };
                b.put(Put {
                    key: IoKey {
                        step: 1,
                        level,
                        task,
                    },
                    kind: IoKind::Data,
                    path: format!("/plt/L{level}/{field}_{task:05}"),
                    payload,
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
        payload: if account_only {
            Payload::Size(300)
        } else {
            Payload::Bytes(vec![b'h'; 300].into())
        },
    })
    .unwrap();
    b.end_step().unwrap();
    b
}

/// Canonical multiset view of a read: `(key, kind, path) -> payload`,
/// sorted (backends may order layouts differently; content must agree).
fn contents(read: &StepRead) -> Contents {
    let mut v: Vec<_> = read
        .chunks
        .iter()
        .map(|c| {
            let bytes = match &c.payload {
                Payload::Bytes(b) => b.to_vec(),
                Payload::Size(n) => format!("size:{n}").into_bytes(),
                other => panic!("undecoded payload in read: {other:?}"),
            };
            (
                (
                    c.key.step,
                    c.key.level,
                    c.key.task,
                    matches!(c.kind, IoKind::Metadata) as u8,
                    c.path.clone(),
                ),
                bytes,
            )
        })
        .collect();
    v.sort();
    v
}

fn filtered(full: &StepRead, sel: &ReadSelection) -> Contents {
    let subset = StepRead {
        chunks: full
            .chunks
            .iter()
            .filter(|c| sel.matches(&c.key, &c.path))
            .cloned()
            .collect::<Vec<ChunkRead>>(),
        ..StepRead::default()
    };
    contents(&subset)
}

/// The in-transit backend: selections are served from the consumer
/// window through the same span reader as the storage layouts.
const STREAMING: BackendSpec = BackendSpec::Streaming(StreamSpec {
    link_mbps: 12_500,
    window_mib: 0,
    consumer_mbps: 0,
});
const BACKENDS: [BackendSpec; 4] = [
    BackendSpec::FilePerProcess,
    BackendSpec::Aggregated(2),
    BackendSpec::Deferred(1),
    STREAMING,
];
const CODECS: [CodecSpec; 3] = [
    CodecSpec::Identity,
    CodecSpec::Rle(2.0),
    CodecSpec::LossyQuant(8),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Selection reads equal the matching slice of a full read, for the
    /// whole backend × codec × {raw, reorganized} cube, materialized and
    /// account-only alike.
    #[test]
    fn selection_equals_filtered_full_read_across_the_cube(
        nlevels in 1u32..4,
        ntasks in 1u32..5,
        values in 16u32..200,
        account_only in prop_oneof![Just(false), Just(true)],
        sel_pick in 0usize..5,
        sel_level in 0u32..4,
        sel_task in 0u32..5,
    ) {
        let sel = match sel_pick {
            0 => ReadSelection::Full,
            1 => ReadSelection::Level(sel_level),
            2 => ReadSelection::Field(FIELDS[sel_level as usize % 3].to_string()),
            3 => ReadSelection::parse(&format!(
                "box:0-{sel_level},{}-{}", sel_task / 2, sel_task)).unwrap(),
            _ => ReadSelection::Field("no_such_field".to_string()),
        };
        for backend in BACKENDS {
            for codec in CODECS {
                let fs = MemFs::new();
                let tracker = IoTracker::new();
                let mut b = write_step(
                    &fs, &tracker, backend, codec, nlevels, ntasks, values, account_only,
                );
                let full = b.read_step(1, "/plt").unwrap();
                let label = format!("{}/{}/{}", backend.name(), codec.name(), sel.name());

                // Raw layout.
                let got = b.read_selection(1, "/plt", &sel).unwrap();
                prop_assert_eq!(contents(&got), filtered(&full, &sel), "raw {}", &label);
                prop_assert!(got.stats.bytes <= full.stats.bytes, "raw bytes {}", &label);
                prop_assert!(got.stats.files <= full.stats.files, "raw files {}", &label);
                if backend == STREAMING {
                    // Window-served: the per-path layout's chunk set at
                    // zero physical cost.
                    prop_assert_eq!(got.stats.files, 0, "window files {}", &label);
                    prop_assert_eq!(got.stats.bytes, 0, "window bytes {}", &label);
                    prop_assert!(got.stats.requests.is_empty(), "window requests {}", &label);
                    let fs_fpp = MemFs::new();
                    let tracker_fpp = IoTracker::new();
                    let mut fpp = write_step(
                        &fs_fpp, &tracker_fpp, BackendSpec::FilePerProcess, codec,
                        nlevels, ntasks, values, account_only,
                    );
                    let stored = fpp.read_selection(1, "/plt", &sel).unwrap();
                    prop_assert_eq!(contents(&got), contents(&stored), "window vs fpp {}", &label);
                }

                // Reorganized layout returns the same chunk set.
                let mut reorg = Reorganizer::new(&fs as &dyn Vfs, &tracker, codec);
                reorg.reorganize(b.as_mut(), 1, "/plt").unwrap();
                let opt = reorg.read_selection(1, &sel).unwrap();
                prop_assert_eq!(contents(&opt), filtered(&full, &sel), "reorg {}", &label);
            }
        }
    }
}

// ---------------------------------------------------------------- edges

/// An empty selection returns no chunks and fetches no data; only
/// index-bearing layouts pay the index fetch that discovered emptiness.
#[test]
fn empty_selection_fetches_no_data() {
    for backend in BACKENDS {
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let mut b = write_step(&fs, &tracker, backend, CodecSpec::Identity, 2, 3, 32, false);
        let sel = ReadSelection::Level(99);
        let read = b.read_selection(1, "/plt", &sel).unwrap();
        assert!(read.chunks.is_empty(), "{}", backend.name());
        assert_eq!(read.stats.logical_bytes, 0);
        assert_eq!(tracker.total_read_bytes(), 0, "read plane untouched");
        match backend {
            BackendSpec::Aggregated(_) => {
                // The monolithic index was consulted (and priced).
                assert_eq!(read.stats.files, 1, "index only");
                assert!(read.stats.bytes > 0);
            }
            _ => {
                // The manifest lives with the writer: nothing opens.
                assert_eq!(read.stats.files, 0, "{}", backend.name());
                assert_eq!(read.stats.bytes, 0);
                assert!(read.stats.requests.is_empty());
            }
        }
    }
}

/// A key box that intersects no written chunk behaves as empty, on the
/// raw and the reorganized layout alike.
#[test]
fn box_touching_no_chunks_is_empty() {
    let fs = MemFs::new();
    let tracker = IoTracker::new();
    let mut b = write_step(
        &fs,
        &tracker,
        BackendSpec::Aggregated(2),
        CodecSpec::Identity,
        2,
        3,
        32,
        false,
    );
    // Levels exist (0..2) and tasks exist (0..3), but never jointly in
    // this box: tasks 10..=20 are unpopulated.
    let sel = ReadSelection::parse("box:0-1,10-20").unwrap();
    let read = b.read_selection(1, "/plt", &sel).unwrap();
    assert!(read.chunks.is_empty());

    let mut reorg = Reorganizer::new(&fs as &dyn Vfs, &tracker, CodecSpec::Identity);
    reorg.reorganize(b.as_mut(), 1, "/plt").unwrap();
    let opt = reorg.read_selection(1, &sel).unwrap();
    assert!(opt.chunks.is_empty());
    // The reorganized reader consulted only the directory + in-range
    // table segments; no level file opened.
    assert_eq!(opt.stats.files, 1, "index directory only");
    assert_eq!(opt.stats.logical_bytes, 0);
}

/// Selections on an account-only (modeled) step return modeled sizes
/// with intact physical accounting — and the same logical volume a
/// materialized run of the same shape returns.
#[test]
fn selection_on_account_only_step_is_modeled() {
    let sel = ReadSelection::Level(1);
    for backend in BACKENDS {
        let fs_m = MemFs::new();
        let t_m = IoTracker::new();
        let mut real = write_step(&fs_m, &t_m, backend, CodecSpec::Identity, 3, 2, 64, false);
        let fs_a = MemFs::new();
        let t_a = IoTracker::new();
        let mut modeled = write_step(&fs_a, &t_a, backend, CodecSpec::Identity, 3, 2, 64, true);
        assert_eq!(fs_a.nfiles(), 0, "account-only writes nothing");

        let r = real.read_selection(1, "/plt", &sel).unwrap();
        let m = modeled.read_selection(1, "/plt", &sel).unwrap();
        let label = backend.name();
        assert!(
            m.chunks
                .iter()
                .all(|c| matches!(c.payload, Payload::Size(_))),
            "{label}"
        );
        assert_eq!(m.stats.logical_bytes, r.stats.logical_bytes, "{label}");
        assert_eq!(m.stats.files, r.stats.files, "{label}");
        assert_eq!(m.stats.bytes, r.stats.bytes, "{label}");
        assert_eq!(
            t_m.read_bytes_per_level().get(&1),
            t_a.read_bytes_per_level().get(&1),
            "{label}"
        );
    }
}

/// Selections through the lossy quantizer return the error-bounded
/// reconstruction (same length, decode∘encode fixed point) — identical
/// between a selective read and the matching slice of a full read.
#[test]
fn selection_through_lossy_quantizer_reconstructs() {
    let fs = MemFs::new();
    let tracker = IoTracker::new();
    let codec = CodecSpec::LossyQuant(6);
    let mut b = write_step(
        &fs,
        &tracker,
        BackendSpec::Aggregated(2),
        codec,
        2,
        3,
        128,
        false,
    );
    let full = b.read_step(1, "/plt").unwrap();
    let sel = ReadSelection::Field("pressure".into());
    let got = b.read_selection(1, "/plt", &sel).unwrap();
    assert_eq!(contents(&got), filtered(&full, &sel));
    // Reconstructions are same-length f64 streams within the bound.
    for c in got.chunks.iter().filter(|c| c.kind == IoKind::Data) {
        let Payload::Bytes(bytes) = &c.payload else {
            panic!("quant read must be materialized")
        };
        assert_eq!(bytes.len(), 128 * 8, "logical length preserved");
    }
    // The wire was compressed: selective physical data bytes are less
    // than the logical volume delivered.
    assert!(got.stats.bytes < got.stats.logical_bytes);
    assert!(got.stats.codec_seconds > 0.0, "decode CPU charged");
}
