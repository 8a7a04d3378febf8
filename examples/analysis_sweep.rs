//! Analysis-read campaign: selective reads × layouts × backends × codecs.
//!
//! The read plane's Wan-et-al. question, priced end to end: AMR dumps
//! are written once in a *write-optimized* layout and read many times by
//! analysis that wants a subset — one level, one field, a spatial box.
//! How much does rewriting the dump into a *read-optimized* layout
//! (online reorganization) buy each read pattern, and how many reads
//! amortize the rewrite?
//!
//! Two parts:
//!
//! 1. **Layout proof** (io-engine level): a synthetic 3-level × 3-field
//!    AMR step written through BP-style aggregation (identity and rle
//!    codec points), then read selectively from the raw layout and from
//!    the reorganized layout. For every shown backend × codec point the
//!    by-level and by-field reads of the reorganized step fetch
//!    **strictly fewer physical bytes** and cost **strictly less
//!    simulated wall** than the same selection on the raw layout
//!    (asserted, not just printed).
//! 2. **Analysis campaign** (oracle scale): an `ExperimentSpec` crosses
//!    a Sedov slice over backends × codecs × read patterns × {raw,
//!    reorganized} on a bandwidth-bound storage model; the summary
//!    table prices each pattern on each layout, the selective-read
//!    regression (`model::fit_selective_read`) recovers the effective
//!    selective-read bandwidth, and the amortization count (reorg cost
//!    over per-read saving) is computed per pattern.
//!
//! ```text
//! cargo run --release --example analysis_sweep
//! ```

use amr_proxy_io::amrproxy::{run_campaign, CastroSedovConfig, Engine, ExperimentSpec, Layout};
use amr_proxy_io::io_engine::{
    BackendSpec, CodecSpec, IoBackend, Payload, Put, ReadSelection, Reorganizer,
};
use amr_proxy_io::iosim::{IoKey, IoKind, IoTracker, MemFs, StorageModel, Vfs};
use amr_proxy_io::model;

const FIELDS: [&str; 3] = ["density", "pressure", "velocity"];
const NLEVELS: u32 = 3;
const NTASKS: u32 = 16;
const VALUES_PER_CHUNK: u32 = 512;

/// Writes the synthetic step: per-field logical paths (so `field:` is a
/// by-variable query), three levels, sixteen writers.
fn write_step<'a>(
    fs: &'a MemFs,
    tracker: &'a IoTracker,
    backend: BackendSpec,
    codec: CodecSpec,
) -> Box<dyn IoBackend + 'a> {
    let mut b = backend.build_with_codec(codec, fs as &dyn Vfs, tracker);
    b.begin_step(1, "/plt");
    b.create_dir_all("/plt").unwrap();
    for task in 0..NTASKS {
        for level in 0..NLEVELS {
            for (fi, field) in FIELDS.iter().enumerate() {
                // Smooth-ish field bytes; rle-friendly runs mixed in.
                let data: Vec<u8> = (0..VALUES_PER_CHUNK)
                    .flat_map(|i| {
                        let v = ((i / 8 + task + level * 5 + fi as u32) % 32) as f64;
                        v.to_le_bytes()
                    })
                    .collect();
                b.put(Put {
                    key: IoKey {
                        step: 1,
                        level,
                        task,
                    },
                    kind: IoKind::Data,
                    path: format!("/plt/L{level}/{field}_{task:05}"),
                    payload: Payload::Bytes(data.into()),
                })
                .unwrap();
            }
        }
    }
    for meta in ["Header", "job_info"] {
        b.put(Put {
            key: IoKey {
                step: 1,
                level: 0,
                task: 0,
            },
            kind: IoKind::Metadata,
            path: format!("/plt/{meta}"),
            payload: Payload::Bytes(vec![b'#'; 600].into()),
        })
        .unwrap();
    }
    b.end_step().unwrap();
    b
}

/// Simulated wall of one read burst on `storage`.
fn read_wall(storage: &StorageModel, requests: &[amr_proxy_io::iosim::ReadRequest]) -> f64 {
    let r = storage.simulate_read_burst(requests);
    r.t_end - r.t_start
}

fn main() {
    // Bandwidth-bound storage (one server class, per-open charge): wall
    // tracks bytes moved + ranges fetched. See the reorg module docs on
    // the striping-parallelism trade this isolates.
    let storage = StorageModel {
        open_latency: 0.5e-3,
        ..StorageModel::ideal(1, 2e8)
    };

    println!("== Part 1: layout proof (synthetic step, agg:4 backend) ==");
    println!(
        "{:<10} {:<16} {:>12} {:>12} {:>9} {:>11} {:>11}",
        "codec", "pattern", "raw_bytes", "reorg_bytes", "saving", "raw_wall", "reorg_wall"
    );
    for codec in [CodecSpec::Identity, CodecSpec::Rle(2.0)] {
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let mut src = write_step(&fs, &tracker, BackendSpec::Aggregated(4), codec);
        let mut reorg = Reorganizer::new(&fs as &dyn Vfs, &tracker, codec);
        let rstats = reorg.reorganize(src.as_mut(), 1, "/plt").unwrap();
        for sel in [
            ReadSelection::Level(1),
            ReadSelection::Field("density".into()),
            ReadSelection::parse("box:1-2,4-7").unwrap(),
        ] {
            let raw = src.read_selection(1, "/plt", &sel).unwrap();
            let opt = reorg.read_selection(1, &sel).unwrap();
            let raw_wall = read_wall(&storage, &raw.stats.requests);
            let opt_wall = read_wall(&storage, &opt.stats.requests);
            println!(
                "{:<10} {:<16} {:>12} {:>12} {:>8.1}% {:>9.2}ms {:>9.2}ms",
                codec.name(),
                sel.name(),
                raw.stats.bytes,
                opt.stats.bytes,
                100.0 * (1.0 - opt.stats.bytes as f64 / raw.stats.bytes as f64),
                raw_wall * 1e3,
                opt_wall * 1e3,
            );
            // Bytes: the reorganized layout fetches strictly fewer
            // physical bytes for every pattern (segmented index, no
            // whole-blob fetch), at identical logical volume.
            assert_eq!(raw.stats.logical_bytes, opt.stats.logical_bytes);
            assert!(
                opt.stats.bytes < raw.stats.bytes,
                "{}/{}: reorg bytes {} !< raw {}",
                codec.name(),
                sel.name(),
                opt.stats.bytes,
                raw.stats.bytes
            );
            // Wall: strictly less for the patterns the level/field
            // clustering serves — the acceptance rows. A task-aligned
            // box is the honest counter-case: the write-optimized
            // layout already stores one task's chunks contiguously, so
            // re-clustering by level/field scatters *that* query (the
            // printed row shows it; no layout wins every pattern).
            if !matches!(sel, ReadSelection::Box(_)) {
                assert!(
                    opt_wall < raw_wall,
                    "{}/{}: reorg wall {} !< raw {}",
                    codec.name(),
                    sel.name(),
                    opt_wall,
                    raw_wall
                );
            }
        }
        println!(
            "  (one-time reorg cost, {}: moved {} physical bytes)",
            codec.name(),
            rstats.read.bytes + rstats.bytes
        );
    }

    println!("\n== Part 2: oracle-scale analysis campaign ==");
    let base = CastroSedovConfig {
        name: "sedov".into(),
        engine: Engine::Oracle,
        n_cell: 128,
        max_step: 8,
        plot_int: 2,
        nprocs: 8,
        account_only: true,
        compute_ns_per_cell: 40_000.0,
        ..Default::default()
    };
    let patterns = [
        ReadSelection::Level(1),
        ReadSelection::Level(2),
        ReadSelection::parse("box:0-1,0-3").unwrap(),
    ];
    let matrix = ExperimentSpec::over("analysis_sweep", &[base])
        .backends(&[BackendSpec::Aggregated(2), BackendSpec::FilePerProcess])
        .codecs(&[CodecSpec::Identity, CodecSpec::LossyQuant(8)])
        .patterns(&patterns)
        .layouts(&[Layout::Raw, Layout::Reorg])
        .compile_configs()
        .expect("analysis sweep compiles");
    let campaign_storage = StorageModel {
        open_latency: 0.5e-3,
        ..StorageModel::ideal(1, 5e7)
    };
    let summaries = run_campaign(&matrix, Some(&campaign_storage));
    println!(
        "{:<42} {:>12} {:>12} {:>11} {:>11}",
        "scenario", "sel_logical", "sel_physical", "sel_wall", "reorg_wall"
    );
    for s in &summaries {
        println!(
            "{:<42} {:>12} {:>12} {:>9.2}ms {:>9.2}ms",
            s.name,
            s.selective_read_bytes,
            s.selective_physical_read_bytes,
            s.selective_read_wall * 1e3,
            s.reorg_wall * 1e3,
        );
    }

    // Per (backend, codec, pattern): amortization of the rewrite on the
    // aggregated layout — how many selective reads pay for one reorg.
    println!("\n-- amortization (agg:2 rows) --");
    for s in summaries
        .iter()
        .filter(|s| s.reorganized && s.backend == "agg:2")
    {
        let raw = summaries
            .iter()
            .find(|r| {
                !r.reorganized
                    && r.backend == s.backend
                    && r.codec == s.codec
                    && r.read_pattern == s.read_pattern
            })
            .expect("raw twin");
        assert_eq!(s.selective_read_bytes, raw.selective_read_bytes);
        assert!(
            s.selective_physical_read_bytes < raw.selective_physical_read_bytes,
            "{}: {} !< {}",
            s.name,
            s.selective_physical_read_bytes,
            raw.selective_physical_read_bytes
        );
        let saving = raw.selective_read_wall - s.selective_read_wall;
        assert!(saving > 0.0, "{}: no wall saving", s.name);
        println!(
            "{:<24} {:<10} saving {:>8.3}ms/read, reorg {:>8.2}ms -> {:>6.0} reads to amortize",
            s.codec.as_str(),
            s.read_pattern,
            saving * 1e3,
            s.reorg_wall * 1e3,
            (s.reorg_wall / saving).ceil(),
        );
    }

    // The selective-read regression across every scenario.
    let xs: Vec<f64> = summaries
        .iter()
        .map(|s| s.selective_physical_read_bytes as f64)
        .collect();
    let ys: Vec<f64> = summaries.iter().map(|s| s.selective_read_wall).collect();
    let fit = model::fit_selective_read(&xs, &ys);
    println!(
        "\nselective-read fit: wall = {:.3e} + {:.3e} * bytes (r2 {:.3}) -> {:.1} MB/s effective",
        fit.intercept,
        fit.slope,
        fit.r2,
        1.0 / fit.slope / 1e6
    );
    println!("\nanalysis_sweep: all layout inequalities held.");
}
