//! Property tests for the compression stage's byte-accounting contract:
//! logical `(step, level, task)` tracker totals are invariant across the
//! full backend × codec matrix, physical payload bytes never exceed
//! logical bytes — with equality exactly on the identity codec for the
//! modeled (account-only) path — and the read plane round-trips:
//! `read_step(write(x)) == x` per logical path for every backend × codec
//! combination.

use amr_proxy_io::amrproxy::{run_simulation, CastroSedovConfig, Engine};
use amr_proxy_io::io_engine::{BackendSpec, Codec, CodecContext, CodecSpec, Payload, Put, Rle};
use amr_proxy_io::iosim::{IoKey, IoKind, IoTracker, MemFs, Vfs};
use amr_proxy_io::macsio::{self, FileMode, MacsioConfig, RunMode};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The PackBits encoder round-trips arbitrary byte streams losslessly.
    /// A small alphabet forces run/literal boundary interactions (the
    /// 128-caps) that uniform random bytes almost never produce.
    #[test]
    fn rle_round_trips_arbitrary_bytes(
        noise in prop::collection::vec(0u8..=255, 0..2048),
        runs in prop::collection::vec(0u8..=2, 0..2048),
    ) {
        let codec = Rle::default();
        let ctx = CodecContext { level: 0, kind: IoKind::Data, path: "/f" };
        for data in [noise, runs] {
            let encoded = codec.encode(&data, &ctx);
            prop_assert_eq!(Rle::decode(&encoded), data);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// MACSio (materialized bytes): the tracker export is byte-identical
    /// across all 3 backends x 3 codecs, and physical payloads never
    /// expand.
    #[test]
    fn macsio_tracker_invariant_across_backend_codec_matrix(
        nprocs in 1usize..6,
        dumps in 1u32..4,
        part_size in 1_000u64..40_000,
        agg_ratio in 1usize..5,
        quant_bits in 2u8..13,
    ) {
        let cfg = MacsioConfig {
            nprocs,
            num_dumps: dumps,
            part_size,
            parallel_file_mode: FileMode::Mif(nprocs),
            ..Default::default()
        };
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
        let mut baseline: Option<Vec<_>> = None;
        for backend in backends {
            for codec in codecs {
                let cfg = MacsioConfig { io_backend: backend, compression: codec, ..cfg.clone() };
                let fs = MemFs::new();
                let tracker = IoTracker::new();
                let report = macsio::run(&cfg, &fs, &tracker, None).expect("macsio run");
                let label = format!("{}/{}", backend.name(), codec.name());

                // (1) Logical tracker totals: backend- and codec-invariant.
                let export = tracker.export();
                prop_assert!(!export.is_empty());
                match &baseline {
                    None => baseline = Some(export),
                    Some(b) => prop_assert_eq!(b, &export, "tracker drift in {}", label),
                }

                // (2) Physical payload bytes <= logical bytes, equality on
                // identity (payload = total minus declared bookkeeping).
                let payload = report.total_bytes - report.overhead_bytes;
                prop_assert!(
                    payload <= report.logical_bytes,
                    "{}: payload {} > logical {}", label, payload, report.logical_bytes
                );
                if codec == CodecSpec::Identity {
                    prop_assert_eq!(payload, report.logical_bytes, "identity must be 1:1 in {}", label);
                    prop_assert_eq!(report.codec_seconds, 0.0);
                } else {
                    prop_assert!(report.codec_seconds > 0.0, "{}: cpu cost missing", label);
                }
                // LossyQuant payloads are large f64 streams: always strictly
                // compressed.
                if let CodecSpec::LossyQuant(_) = codec {
                    prop_assert!(payload < report.logical_bytes, "{}", label);
                }
                // (3) The filesystem agrees with the report.
                prop_assert_eq!(report.total_bytes, fs.total_bytes());
            }
        }
    }
}

/// `nvals` f64 values on the 8-bit quantization lattice: integers in
/// [0, 255] with 0 and 255 anchored per 256-value block, so `quant:8`
/// stores them exactly (scale = 1.0, q = v) and even the lossy codec
/// round-trips bit-exactly.
fn lattice_field(nvals: usize, salt: u32) -> Vec<u8> {
    let mut vals: Vec<f64> = (0..nvals)
        .map(|i| ((i as u32).wrapping_mul(37).wrapping_add(salt * 13) % 256) as f64)
        .collect();
    for block in vals.chunks_mut(256) {
        block[0] = 0.0;
        let last = block.len() - 1;
        block[last] = 255.0;
    }
    vals.iter().flat_map(|v| v.to_le_bytes()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The read plane: for every backend × codec combination, reading a
    /// written step back returns byte-identical logical payloads —
    /// `read_step(write(x)) == x` per logical path. Fields are lattice-
    /// valued f64s so the property is byte-exact even for the lossy
    /// quantizer; shared paths (MIF-style groups) exercise chunk
    /// reassembly order.
    #[test]
    fn read_back_round_trips_across_backend_codec_matrix(
        ntasks in 1u32..7,
        nvals in 1usize..700,
        group in 1u32..4,
        agg_ratio in 1usize..5,
        steps in 1u32..3,
    ) {
        let backends = [
            BackendSpec::FilePerProcess,
            BackendSpec::Aggregated(agg_ratio),
            BackendSpec::Deferred(1),
        ];
        let codecs = [
            CodecSpec::Identity,
            CodecSpec::Rle(2.0),
            CodecSpec::LossyQuant(8),
        ];
        for backend in backends {
            for codec in codecs {
                let fs = MemFs::new();
                let tracker = IoTracker::new();
                let mut stack = backend.build_with_codec(codec, &fs as &dyn Vfs, &tracker);
                let label = format!("{}/{}", backend.name(), codec.name());
                for step in 1..=steps {
                    // Logical reference: path -> concatenated logical bytes.
                    let mut expected: Vec<(String, Vec<u8>)> = Vec::new();
                    stack.begin_step(step, "/plt");
                    for task in 0..ntasks {
                        // Tasks share group files MIF-style.
                        let path = format!("/plt/s{step}/g{:03}", task / group);
                        let data = lattice_field(nvals, task + step);
                        match expected.iter_mut().find(|(p, _)| *p == path) {
                            Some((_, acc)) => acc.extend_from_slice(&data),
                            None => expected.push((path.clone(), data.clone())),
                        }
                        stack.put(Put {
                            key: IoKey { step, level: task % 3, task },
                            kind: IoKind::Data,
                            path,
                            payload: Payload::Bytes(data.into()),
                        }).expect("put");
                    }
                    stack.put(Put {
                        key: IoKey { step, level: 0, task: 0 },
                        kind: IoKind::Metadata,
                        path: format!("/plt/s{step}/hdr"),
                        payload: Payload::Bytes(vec![b'h'; 100].into()),
                    }).expect("meta put");
                    stack.end_step().expect("end_step");

                    let read = stack.read_step(step, "/plt").expect("read_step");
                    for (path, data) in &expected {
                        let back = read.logical_content(path);
                        prop_assert_eq!(
                            back.as_ref(),
                            Some(data),
                            "restart bytes differ for {} in {}", path, label
                        );
                    }
                    prop_assert_eq!(
                        read.logical_content(&format!("/plt/s{step}/hdr")),
                        Some(vec![b'h'; 100]),
                        "metadata round trip in {}", label
                    );
                    // The read plane records logical bytes, codec- and
                    // backend-invariantly.
                    let logical: u64 =
                        expected.iter().map(|(_, d)| d.len() as u64).sum::<u64>() + 100;
                    prop_assert_eq!(read.stats.logical_bytes, logical, "{}", label);
                }
                prop_assert_eq!(
                    tracker.total_read_bytes(),
                    tracker.total_bytes(),
                    "full read-back equals full write in {}", label
                );
                stack.close().expect("close");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// MACSio wr-mode: the read phase's logical totals equal the write
    /// totals for every backend (lossless codec), and the report's read
    /// accounting is consistent.
    #[test]
    fn macsio_write_read_mode_round_trips(
        nprocs in 1usize..5,
        dumps in 1u32..3,
        part_size in 1_000u64..20_000,
        agg_ratio in 1usize..4,
    ) {
        for backend in [
            BackendSpec::FilePerProcess,
            BackendSpec::Aggregated(agg_ratio),
            BackendSpec::Deferred(1),
        ] {
            let cfg = MacsioConfig {
                nprocs,
                num_dumps: dumps,
                part_size,
                io_backend: backend,
                compression: CodecSpec::Rle(2.0),
                mode: RunMode::WriteRead,
                ..Default::default()
            };
            let fs = MemFs::new();
            let tracker = IoTracker::new();
            let report = macsio::run(&cfg, &fs, &tracker, None).expect("macsio run");
            prop_assert_eq!(tracker.total_read_bytes(), tracker.total_bytes());
            prop_assert_eq!(report.read_bytes, report.logical_bytes);
            prop_assert!(report.physical_read_bytes <= report.total_bytes + report.read_bytes);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Account-only AMR runs (the oracle path, size-only payloads): the
    /// Eq. (1)/(2) series is invariant across the matrix and the modeled
    /// physical volume satisfies `physical <= logical` with equality iff
    /// the codec is identity.
    #[test]
    fn oracle_series_invariant_and_sizes_modeled(
        n_cell in prop_oneof![Just(32i64), Just(64i64)],
        nprocs in 1usize..5,
        max_step in 2u64..7,
        agg_ratio in 1usize..4,
    ) {
        let base = CastroSedovConfig {
            name: "prop".into(),
            engine: Engine::Oracle,
            n_cell,
            max_level: 2,
            max_step,
            plot_int: 2,
            nprocs,
            account_only: true,
            ..Default::default()
        };
        let backends = [
            BackendSpec::FilePerProcess,
            BackendSpec::Aggregated(agg_ratio),
            BackendSpec::Deferred(1),
        ];
        let codecs = [
            CodecSpec::Identity,
            CodecSpec::Rle(2.0),
            CodecSpec::LossyQuant(8),
        ];
        let mut baseline: Option<Vec<(f64, f64)>> = None;
        for backend in backends {
            for codec in codecs {
                let cfg = CastroSedovConfig { backend, codec, ..base.clone() };
                let r = run_simulation(&cfg, None, None);
                let label = format!("{}/{}", backend.name(), codec.name());
                let series: Vec<(f64, f64)> =
                    r.xy_series().points.iter().map(|p| (p.x, p.y)).collect();
                match &baseline {
                    None => baseline = Some(series),
                    Some(b) => prop_assert_eq!(b, &series, "series drift in {}", label),
                }
                let payload = r.totals.engine.bytes - r.totals.engine.overhead_bytes;
                if codec == CodecSpec::Identity {
                    prop_assert_eq!(payload, r.totals.engine.logical_bytes, "identity 1:1 in {}", label);
                } else {
                    // Modeled ratios are > 1 on every dump: strictly less.
                    prop_assert!(
                        payload < r.totals.engine.logical_bytes,
                        "{}: payload {} !< logical {}", label, payload, r.totals.engine.logical_bytes
                    );
                }
            }
        }
    }
}
