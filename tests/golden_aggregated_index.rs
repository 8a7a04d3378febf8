//! Golden-file regression tests for the `Aggregated` backend's per-step
//! index layout, the compression stage's sidecar format, the reorganized
//! layout's files, and the read accounting of every layout.
//!
//! One small, fully deterministic campaign step is serialized through the
//! aggregated backend and compared **byte-exactly** against checked-in
//! fixtures. The index file is the contract readers (and the paper's
//! byte-accounting model) depend on; this pins it against accidental
//! format drift and against optimization-dependent layout bugs (CI runs
//! these under both debug and release). The same step, written through
//! each layout × codec and read back under five selections, pins the
//! ordered request and chunk lists the storage model prices.
//!
//! Regenerate fixtures after an *intentional* format change with:
//!
//! ```text
//! BLESS_GOLDEN=1 cargo test --test golden_aggregated_index
//! ```

use amr_proxy_io::amr_mesh::prelude::*;
use amr_proxy_io::io_engine::{
    BackendSpec, CodecSpec, IoBackend, Payload, ReadSelection, Reorganizer, StepRead,
};
use amr_proxy_io::iosim::{IoKind, IoTracker, MemFs, Vfs};
use amr_proxy_io::plotfile::{write_plotfile_with, PlotLevel, PlotfileSpec, PlotfileStats};
use std::fmt::Write as _;
use std::path::PathBuf;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Compares `actual` against the named fixture, or regenerates it when
/// `BLESS_GOLDEN` is set.
fn assert_golden(name: &str, actual: &[u8]) {
    let path = fixture_path(name);
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir fixtures");
        std::fs::write(&path, actual).expect("write fixture");
        return;
    }
    let expected = std::fs::read(&path).unwrap_or_else(|e| {
        panic!("missing fixture {path:?} ({e}); regenerate with BLESS_GOLDEN=1")
    });
    assert_eq!(
        actual,
        expected.as_slice(),
        "{name} drifted from the checked-in fixture; if the format change \
         is intentional, regenerate with BLESS_GOLDEN=1"
    );
}

/// The deterministic one-step campaign workload: 64^2 cells on 4 ranks,
/// two variables at fixed values, SFC distribution. Everything that
/// reaches the index (paths, offsets, lengths, metadata bytes) is a pure
/// function of this layout. Returns the open stack (for reads) and the
/// step's write stats.
fn write_dump<'a>(
    fs: &'a MemFs,
    tracker: &'a IoTracker,
    backend: BackendSpec,
    codec: CodecSpec,
) -> (Box<dyn IoBackend + 'a>, PlotfileStats) {
    let ba = BoxArray::single(IndexBox::at_origin(IntVect::splat(64))).max_size(16);
    let dm = DistributionMapping::new(&ba, 4, DistributionStrategy::Sfc);
    let mut mf = MultiFab::new(ba, dm, 2, 0);
    mf.set_val(0, 1.25);
    mf.set_val(1, 2.5);
    let spec = PlotfileSpec {
        dir: "/plt00000".to_string(),
        output_counter: 1,
        time: 0.5,
        var_names: vec!["density".into(), "pressure".into()],
        ref_ratio: 2,
        levels: vec![PlotLevel {
            geom: Geometry::unit_square(IntVect::splat(64)),
            mf: &mf,
            level_steps: 4,
        }],
        inputs: vec![("amr.n_cell".into(), "64 64".into())],
    };
    let mut stack = backend.build_with_codec(codec, fs as &dyn Vfs, tracker);
    let stats = write_plotfile_with(stack.as_mut(), &spec).expect("dump");
    (stack, stats)
}

/// The dump through the aggregated backend, closed: the filesystem the
/// byte-exact index and sidecar fixtures are cut from.
fn dump_step(codec: CodecSpec) -> MemFs {
    let fs = MemFs::new();
    let tracker = IoTracker::new();
    let (mut stack, _) = write_dump(&fs, &tracker, BackendSpec::Aggregated(2), codec);
    stack.close().expect("close");
    drop(stack);
    fs
}

#[test]
fn aggregated_index_layout_is_byte_exact() {
    let fs = dump_step(CodecSpec::Identity);
    let idx = fs
        .read_file("/plt00000/bp00001/md.idx")
        .expect("index exists");
    assert_golden("aggregated_md.idx", &idx);
}

#[test]
fn aggregated_file_set_and_sizes_are_stable() {
    let fs = dump_step(CodecSpec::Identity);
    let mut listing = String::new();
    let mut files = fs.list("/");
    files.sort();
    for f in files {
        listing.push_str(&format!("{} {}\n", fs.file_size(&f).unwrap(), f));
    }
    assert_golden("aggregated_file_set.txt", listing.as_bytes());
}

#[test]
fn compression_sidecar_layout_is_byte_exact() {
    let fs = dump_step(CodecSpec::LossyQuant(8));
    let sidecar = fs
        .read_file("/plt00000/compression_00001.csc")
        .expect("sidecar exists");
    assert_golden("aggregated_quant_sidecar.csc", &sidecar);
}

#[test]
fn compressed_index_records_both_byte_counts() {
    // Not a golden file: a structural check that the quantized index's
    // chunk lines carry physical < logical for every data chunk.
    let fs = dump_step(CodecSpec::LossyQuant(8));
    let idx = String::from_utf8(fs.read_file("/plt00000/bp00001/md.idx").unwrap()).unwrap();
    let mut data_lines = 0;
    for line in idx.lines().filter(|l| l.contains("/data.")) {
        let cols: Vec<&str> = line.split_whitespace().collect();
        let physical: u64 = cols[2].parse().expect("physical len column");
        let logical: u64 = cols[3].parse().expect("logical len column");
        assert!(physical < logical, "chunk must be compressed: {line}");
        data_lines += 1;
    }
    assert!(data_lines >= 4, "one chunk per rank: {idx}");
}

/// Renders one read the way the storage model consumes it: totals, then
/// the ordered request list, then the ordered chunk list.
fn render_read(out: &mut String, read: &StepRead) {
    let s = &read.stats;
    let _ = writeln!(
        out,
        "files {} bytes {} logical_bytes {} codec_seconds_bits {:#018x}",
        s.files,
        s.bytes,
        s.logical_bytes,
        s.codec_seconds.to_bits()
    );
    for r in &s.requests {
        let _ = writeln!(out, "R {} {} {}", r.path, r.bytes, r.rank);
    }
    for c in &read.chunks {
        let kind = match c.kind {
            IoKind::Data => "data",
            IoKind::Metadata => "meta",
        };
        let payload = match &c.payload {
            Payload::Bytes(_) => "bytes",
            Payload::Size(_) => "size",
            Payload::Encoded { .. } => "encoded",
            Payload::EncodedSize { .. } => "encoded_size",
        };
        let _ = writeln!(
            out,
            "C {}/{}/{} {kind} {} {payload} {}",
            c.key.step,
            c.key.level,
            c.key.task,
            c.path,
            c.payload.len()
        );
    }
}

const CODECS: [CodecSpec; 2] = [CodecSpec::Identity, CodecSpec::Rle(2.0)];

/// One whole step, one level, one path substring, one key box, and a
/// level that matches nothing.
fn selections() -> [ReadSelection; 5] {
    [
        ReadSelection::Full,
        ReadSelection::Level(0),
        ReadSelection::Field("Cell_D_00002".into()),
        ReadSelection::parse("box:0-0,1-2").expect("box"),
        ReadSelection::Level(9),
    ]
}

/// The ordered `(path, bytes, rank)` request list, the totals and the
/// ordered chunk list of every layout × codec × selection. The storage
/// model seeds its noise by request count and draws it in request order,
/// so this order — not just the sums — is what simulated wall time
/// depends on. Generated at commit ddb55657da30 (before the io-engine
/// layout plane was unified) and committed unchanged.
#[test]
fn read_accounting_is_stable_across_layouts() {
    let mut out = String::from(
        "# read accounting per layout x codec x selection; generated at ddb55657da30\n",
    );
    for codec in CODECS {
        for backend in [
            BackendSpec::FilePerProcess,
            BackendSpec::Aggregated(2),
            BackendSpec::Deferred(1),
        ] {
            let fs = MemFs::new();
            let tracker = IoTracker::new();
            let (mut stack, written) = write_dump(&fs, &tracker, backend, codec);
            let _ = writeln!(out, "== write {} {}", backend.name(), codec.name());
            let _ = writeln!(
                out,
                "files {} bytes {} logical_bytes {}",
                written.nfiles, written.total_bytes, written.logical_bytes
            );
            for r in &written.requests {
                let _ = writeln!(out, "W {} {} {}", r.path, r.bytes, r.rank);
            }
            for sel in selections() {
                let _ = writeln!(
                    out,
                    "== read {} {} {}",
                    backend.name(),
                    codec.name(),
                    sel.name()
                );
                let read = stack.read_selection(1, "/plt00000", &sel).expect("read");
                render_read(&mut out, &read);
            }
        }
        // The reorganized layout, rewritten from the aggregated one.
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let (mut stack, _) = write_dump(&fs, &tracker, BackendSpec::Aggregated(2), codec);
        let mut reorg = Reorganizer::new(&fs as &dyn Vfs, &tracker, codec);
        let rewrite = reorg
            .reorganize(stack.as_mut(), 1, "/plt00000")
            .expect("reorganize");
        let _ = writeln!(out, "== write agg:2->reorg {}", codec.name());
        let _ = writeln!(
            out,
            "files {} bytes {} overhead_bytes {} codec_seconds_bits {:#018x}",
            rewrite.files,
            rewrite.bytes,
            rewrite.overhead_bytes,
            rewrite.codec_seconds.to_bits()
        );
        for r in &rewrite.requests {
            let _ = writeln!(out, "W {} {} {}", r.path, r.bytes, r.rank);
        }
        for sel in selections() {
            let _ = writeln!(out, "== read agg:2->reorg {} {}", codec.name(), sel.name());
            let read = reorg.read_selection(1, &sel).expect("reorg read");
            render_read(&mut out, &read);
        }
    }
    assert_golden("read_accounting.txt", out.as_bytes());
}

/// The reorganized files themselves: the segmented index and the
/// path-sorted level cluster, byte for byte (run-length coded, so the
/// cluster fixture also pins the rewrite's re-encode).
#[test]
fn reorganized_layout_is_byte_exact() {
    for (codec, idx, level) in [
        (
            CodecSpec::Identity,
            "reorg_identity.idx",
            "reorg_identity_level.0",
        ),
        (CodecSpec::Rle(2.0), "reorg_rle.idx", "reorg_rle_level.0"),
    ] {
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let (mut stack, _) = write_dump(&fs, &tracker, BackendSpec::Aggregated(2), codec);
        let mut reorg = Reorganizer::new(&fs as &dyn Vfs, &tracker, codec);
        reorg
            .reorganize(stack.as_mut(), 1, "/plt00000")
            .expect("reorganize");
        let dir = "/plt00000/reorg00001";
        assert_golden(
            idx,
            &fs.read_file(&format!("{dir}/reorg.idx")).expect("index"),
        );
        assert_golden(
            level,
            &fs.read_file(&format!("{dir}/level.0")).expect("level file"),
        );
    }
}
