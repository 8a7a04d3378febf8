//! Property tests pinning the compression stage's parallel-encode
//! equivalence: for any workload, the default parallel stage
//! ([`CompressionStage::new`]) and the serial reference
//! ([`CompressionStage::serial`]) must be observationally identical
//! across the full backend × codec matrix —
//!
//! * every file on disk byte-identical (subfiles, `md.idx` aggregation
//!   indexes, `.csc` compression sidecars alike);
//! * per-step [`StepStats`] equal field by field, including the modeled
//!   `codec_seconds` (same f64 summation order) and the write-request
//!   sequence that feeds burst timing;
//! * the close [`EngineReport`] and both tracker planes equal.
//!
//! The same holds for account-only steps (every payload a
//! [`Payload::Size`]), which the default stage encodes inline instead of
//! fanning out: equal step stats, sidecar records and `codec_seconds`
//! bits.
//!
//! This is the contract that lets the throughput plane encode on all
//! cores without perturbing a single modeled number.

use std::collections::BTreeMap;

use amr_proxy_io::io_engine::{
    BackendSpec, CodecSpec, CompressionStage, EngineReport, IoBackend, Payload, Put,
};
use amr_proxy_io::iosim::{IoKey, IoKind, IoTracker, MemFs, Vfs};
use proptest::prelude::*;

/// One generated data chunk: `(level, task, size, seed)`. The seed picks
/// the fill pattern so the mix covers compressible runs, incompressible
/// noise, and floating-point-looking payloads (quantizer blocks).
type ChunkSpec = (u32, u32, usize, u8);

fn chunk_bytes(&(level, task, size, seed): &ChunkSpec) -> Vec<u8> {
    match seed % 3 {
        0 => vec![(level * 31 + task) as u8; size],
        1 => (0..size)
            .map(|i| ((i as u32 * 131 + task * 7 + seed as u32) % 251) as u8)
            .collect(),
        _ => (0..size)
            .flat_map(|i| ((i as f64 + task as f64) * 0.25).to_le_bytes())
            .take(size)
            .collect(),
    }
}

/// One step's flattened `StepStats` row: step, files, physical, logical,
/// overhead, the bits of the codec seconds, and the (path, bytes) write
/// requests (sidecars included).
type StatRow = (u32, u64, u64, u64, u64, u64, Vec<(String, u64)>);

/// Everything observable about one run: the full filesystem image plus
/// every accounting surface.
struct Snapshot {
    files: BTreeMap<String, Vec<u8>>,
    step_stats: Vec<StatRow>,
    report: EngineReport,
    writes: Vec<(IoKey, IoKind, u64, u64)>,
    reads: Vec<(IoKey, IoKind, u64, u64)>,
    read_back: Vec<(String, Option<Vec<u8>>)>,
}

/// One chunk's payload: its bytes, or only their count when
/// `account_only`.
fn payload(bytes: Vec<u8>, account_only: bool) -> Payload {
    if account_only {
        Payload::Size(bytes.len() as u64)
    } else {
        Payload::Bytes(bytes.into())
    }
}

fn run(
    parallel: bool,
    account_only: bool,
    backend: BackendSpec,
    codec: CodecSpec,
    steps: &[Vec<ChunkSpec>],
) -> Snapshot {
    let fs = MemFs::new();
    let tracker = IoTracker::new();
    let inner = backend.build(&fs as &dyn Vfs, &tracker);
    let mut stack = if parallel {
        CompressionStage::new(inner, codec.build(), &fs as &dyn Vfs)
    } else {
        CompressionStage::serial(inner, codec.build(), &fs as &dyn Vfs)
    };

    let mut step_stats = Vec::new();
    for (si, chunks) in steps.iter().enumerate() {
        let step = si as u32 + 1;
        let dir = format!("/plt{step:05}");
        stack.begin_step(step, &dir);
        for (ci, spec) in chunks.iter().enumerate() {
            let (level, task, ..) = *spec;
            stack
                .put(Put {
                    key: IoKey { step, level, task },
                    kind: IoKind::Data,
                    path: format!("{dir}/L{level}/f{ci:04}_{task:05}"),
                    payload: payload(chunk_bytes(spec), account_only),
                })
                .unwrap();
        }
        stack
            .put(Put {
                key: IoKey {
                    step,
                    level: 0,
                    task: 0,
                },
                kind: IoKind::Metadata,
                path: format!("{dir}/Header"),
                payload: payload(vec![b'#'; 120], account_only),
            })
            .unwrap();
        let s = stack.end_step().unwrap();
        step_stats.push((
            s.step,
            s.files,
            s.bytes,
            s.logical_bytes,
            s.overhead_bytes,
            s.codec_seconds.to_bits(),
            s.requests
                .iter()
                .map(|r| (r.path.clone(), r.bytes))
                .collect(),
        ));
    }

    // Read plane: restart-read the last step and keep the decoded
    // logical content per path.
    let last = steps.len() as u32;
    let read = stack.read_step(last, &format!("/plt{last:05}")).unwrap();
    let mut read_back: Vec<(String, Option<Vec<u8>>)> = read
        .chunks
        .iter()
        .map(|c| {
            let bytes = match &c.payload {
                Payload::Bytes(b) => Some(b.to_vec()),
                _ => None,
            };
            (c.path.clone(), bytes)
        })
        .collect();
    read_back.sort();

    let report = stack.close().unwrap();
    let files = fs
        .list("/")
        .into_iter()
        .map(|p| {
            let content = fs.read_file(&p).unwrap();
            (p, content)
        })
        .collect();
    Snapshot {
        files,
        step_stats,
        report,
        writes: tracker.export(),
        reads: tracker.export_reads(),
        read_back,
    }
}

/// Serial vs parallel encode across 3 backends × 3 codecs: every
/// observable byte and number agrees.
fn assert_parallel_equals_serial(
    account_only: bool,
    steps: &[Vec<ChunkSpec>],
    agg_ratio: usize,
    quant_bits: u8,
) {
    let backends = [
        BackendSpec::FilePerProcess,
        BackendSpec::Aggregated(agg_ratio),
        BackendSpec::Deferred(1),
    ];
    let codecs = [
        CodecSpec::Identity,
        CodecSpec::Rle(2.0),
        CodecSpec::LossyQuant(quant_bits),
    ];
    for backend in backends {
        for codec in codecs {
            let serial = run(false, account_only, backend, codec, steps);
            let parallel = run(true, account_only, backend, codec, steps);
            let tag = format!("{}+{}", backend.name(), codec.name());

            // Filesystem images byte-identical — subfiles, md.idx
            // indexes, and .csc sidecars alike (none of them for an
            // account-only run, which stays write-free).
            assert_eq!(
                &serial.files, &parallel.files,
                "file images differ for {tag}"
            );
            assert_eq!(serial.files.is_empty(), account_only, "{tag}");
            // Every step books its sidecar, written or modeled.
            assert!(
                serial
                    .step_stats
                    .iter()
                    .all(|row| row.6.iter().any(|(p, _)| p.ends_with(".csc"))),
                "a step booked no sidecar for {tag}"
            );

            // Accounting surfaces equal.
            assert_eq!(
                &serial.step_stats, &parallel.step_stats,
                "step stats differ for {tag}"
            );
            assert_eq!(
                &serial.report, &parallel.report,
                "close report differs for {tag}"
            );
            assert_eq!(
                &serial.writes, &parallel.writes,
                "tracker write plane differs for {tag}"
            );
            assert_eq!(
                &serial.reads, &parallel.reads,
                "tracker read plane differs for {tag}"
            );
            assert_eq!(
                &serial.read_back, &parallel.read_back,
                "decoded restart reads differ for {tag}"
            );
        }
    }
}

/// Steps of 1-23 generated chunks each.
fn arb_steps() -> impl Strategy<Value = Vec<Vec<ChunkSpec>>> {
    prop::collection::vec(
        prop::collection::vec((0u32..3, 0u32..8, 1usize..3000, 0u8..=255), 1..24),
        1..3,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Real bytes: the parallel stage fans the encode out.
    #[test]
    fn parallel_encode_is_byte_identical_to_serial(
        steps in arb_steps(),
        agg_ratio in 1usize..5,
        quant_bits in 2u8..13,
    ) {
        assert_parallel_equals_serial(false, &steps, agg_ratio, quant_bits);
    }

    /// Size-only payloads: the parallel stage encodes inline.
    #[test]
    fn account_only_parallel_encode_equals_serial(
        steps in arb_steps(),
        agg_ratio in 1usize..5,
        quant_bits in 2u8..13,
    ) {
        assert_parallel_equals_serial(true, &steps, agg_ratio, quant_bits);
    }
}
