//! Cross-crate backend tests at the plotfile layer: the same AMR dump
//! emitted through each io-engine backend keeps its byte accounting and
//! reshapes only the physical file set.
//!
//! Timing assertions in this file use the **simulated** clock only (the
//! `StorageModel` / `BurstScheduler` pair): no wall-clock reads, sleeps,
//! or host-speed-dependent thresholds — the deferred backend's staged
//! delivery is checked for correctness (every staged byte lands), never
//! timed against the host.

use amr_proxy_io::amr_mesh::prelude::*;
use amr_proxy_io::amrproxy::{run_simulation, CastroSedovConfig, Engine};
use amr_proxy_io::io_engine::BackendSpec;
use amr_proxy_io::iosim::{IoTracker, MemFs, StorageModel, Vfs};
use amr_proxy_io::plotfile::{write_plotfile_with, PlotLevel, PlotfileSpec};

fn level_mf(n: i64, max: i64, nranks: usize) -> MultiFab {
    let ba = BoxArray::single(IndexBox::at_origin(IntVect::splat(n))).max_size(max);
    let dm = DistributionMapping::new(&ba, nranks, DistributionStrategy::Sfc);
    let mut mf = MultiFab::new(ba, dm, 2, 0);
    mf.set_val(0, 1.25);
    mf.set_val(1, 2.5);
    mf
}

fn dump_through(backend: BackendSpec, mf: &MultiFab) -> (MemFs, IoTracker, u64, u64) {
    let fs = MemFs::new();
    let tracker = IoTracker::new();
    let spec = PlotfileSpec {
        dir: "/plt00000".to_string(),
        output_counter: 1,
        time: 0.5,
        var_names: vec!["density".into(), "pressure".into()],
        ref_ratio: 2,
        levels: vec![PlotLevel {
            geom: Geometry::unit_square(IntVect::splat(64)),
            mf,
            level_steps: 4,
        }],
        inputs: vec![("amr.n_cell".into(), "64 64".into())],
    };
    let mut live = backend.build(&fs as &dyn Vfs, &tracker);
    let stats = write_plotfile_with(live.as_mut(), &spec).unwrap();
    live.close().unwrap();
    drop(live);
    (fs, tracker, stats.nfiles, stats.total_bytes)
}

#[test]
fn plotfile_tracker_is_backend_invariant() {
    let mf = level_mf(64, 16, 4);
    let (_, t_fpp, files_fpp, _) = dump_through(BackendSpec::FilePerProcess, &mf);
    let (_, t_agg, files_agg, _) = dump_through(BackendSpec::Aggregated(2), &mf);
    let (_, t_def, files_def, _) = dump_through(BackendSpec::Deferred(1), &mf);
    assert_eq!(t_fpp.export(), t_agg.export());
    assert_eq!(t_fpp.export(), t_def.export());
    // fpp: 4 Cell_D + Cell_H + Header + job_info = 7 files.
    assert_eq!(files_fpp, 7);
    assert_eq!(files_def, files_fpp, "deferred keeps the N-to-N layout");
    // agg: ceil(4/2) subfiles + 1 index = 3 files.
    assert_eq!(files_agg, 3);
}

#[test]
fn aggregated_plotfile_embeds_all_payload_bytes() {
    let mf = level_mf(32, 16, 4);
    let (fs_fpp, tracker, _, _) = dump_through(BackendSpec::FilePerProcess, &mf);
    let (fs_agg, _, _, bytes_agg) = dump_through(BackendSpec::Aggregated(4), &mf);
    // Payload (tracker) bytes are conserved; the index table is the only
    // addition.
    assert_eq!(tracker.total_bytes(), fs_fpp.total_bytes());
    assert!(fs_agg.total_bytes() >= tracker.total_bytes());
    assert_eq!(bytes_agg, fs_agg.total_bytes());
    // The index names the logical Cell_D paths for readers.
    let idx = fs_agg
        .read_file("/plt00000/bp00001/md.idx")
        .expect("index exists");
    let head = String::from_utf8_lossy(&idx);
    assert!(head.contains("Cell_D_00000"), "{head}");
}

#[test]
fn full_run_backend_sweep_preserves_series() {
    let base = CastroSedovConfig {
        name: "stack".into(),
        engine: Engine::Oracle,
        n_cell: 64,
        max_level: 2,
        max_step: 8,
        plot_int: 2,
        nprocs: 4,
        account_only: true,
        ..Default::default()
    };
    let series: Vec<Vec<(f64, f64)>> = [
        BackendSpec::FilePerProcess,
        BackendSpec::Aggregated(2),
        BackendSpec::Deferred(1),
    ]
    .into_iter()
    .map(|backend| {
        let cfg = CastroSedovConfig {
            backend,
            ..base.clone()
        };
        let r = run_simulation(&cfg, None, None);
        let xy = r.xy_series();
        xy.points.iter().map(|p| (p.x, p.y)).collect()
    })
    .collect();
    assert_eq!(series[0], series[1], "Eq. (1)/(2) series backend-invariant");
    assert_eq!(series[0], series[2]);
}

#[test]
fn deferred_drain_timing_is_simulated_not_wall_clock() {
    // The deferred backend's overlap claim is asserted on the simulated
    // clock: a deterministic storage model times both runs, so the test
    // is exact and immune to host scheduling (no sleeps, no tolerances).
    let base = CastroSedovConfig {
        name: "clock".into(),
        engine: Engine::Oracle,
        n_cell: 64,
        max_level: 2,
        max_step: 8,
        plot_int: 2,
        nprocs: 4,
        account_only: true,
        compute_ns_per_cell: 40_000.0,
        ..Default::default()
    };
    let storage = StorageModel::ideal(2, 5e7);
    let run = |backend| {
        let cfg = CastroSedovConfig {
            backend,
            ..base.clone()
        };
        run_simulation(&cfg, None, Some(&storage))
    };
    let fpp = run(BackendSpec::FilePerProcess);
    let deferred = run(BackendSpec::Deferred(2));

    // Identical byte volumes, deterministically reproducible wall times.
    assert_eq!(fpp.tracker.export(), deferred.tracker.export());
    let deferred_again = run(BackendSpec::Deferred(2));
    assert_eq!(
        deferred.totals.wall_time, deferred_again.totals.wall_time,
        "simulated clock is exactly reproducible"
    );

    // Overlap strictly beats the synchronous drain on the simulated clock.
    assert!(
        deferred.totals.wall_time < fpp.totals.wall_time,
        "deferred {} must beat fpp {}",
        deferred.totals.wall_time,
        fpp.totals.wall_time
    );

    // Burst structure on the simulated timeline: both policies keep at
    // most one drain in flight (bursts never overlap each other), and the
    // deferred run's closing barrier waits for its last drain.
    let fpp_bursts = fpp.totals.timeline.bursts();
    assert!(fpp_bursts
        .windows(2)
        .all(|w| w[1].t_start >= w[0].t_end - 1e-12));
    let def_bursts = deferred.totals.timeline.bursts();
    assert_eq!(def_bursts.len(), fpp_bursts.len());
    assert!(def_bursts
        .windows(2)
        .all(|w| w[1].t_start >= w[0].t_end - 1e-12));
    let last_drain_end = def_bursts.last().expect("bursts exist").t_end;
    assert!(
        deferred.totals.wall_time >= last_drain_end - 1e-12,
        "closing flush barriers against the in-flight drain"
    );
    // The drains themselves take the same simulated time per byte; the
    // win comes purely from hiding them behind compute.
    let drain_time = |bursts: &[amr_proxy_io::iosim::Burst]| -> f64 {
        bursts.iter().map(|b| b.t_end - b.t_start).sum()
    };
    assert!(drain_time(def_bursts) > 0.0);
    assert!(
        (drain_time(def_bursts) - drain_time(fpp_bursts)).abs() < 0.05 * drain_time(fpp_bursts),
        "same bytes, same drain work: {} vs {}",
        drain_time(def_bursts),
        drain_time(fpp_bursts)
    );
}

#[test]
fn deferred_drain_pool_lands_every_staged_byte() {
    // Correctness of the staged delivery, asserted on filesystem content
    // only (no timing): every staged file arrives intact after close,
    // whatever worker count the cell's name carries.
    let fs = MemFs::new();
    let tracker = IoTracker::new();
    let mut backend = BackendSpec::Deferred(3).build(&fs, &tracker);
    for step in 1..=5u32 {
        backend.begin_step(step, "/");
        for task in 0..4u32 {
            backend
                .put(amr_proxy_io::io_engine::Put {
                    key: amr_proxy_io::iosim::IoKey {
                        step,
                        level: 0,
                        task,
                    },
                    kind: amr_proxy_io::iosim::IoKind::Data,
                    path: format!("/s{step}_t{task}"),
                    payload: amr_proxy_io::io_engine::Payload::Bytes(vec![task as u8; 256].into()),
                })
                .unwrap();
        }
        backend.end_step().unwrap();
    }
    let report = backend.close().unwrap();
    assert_eq!(report.files, 20);
    assert_eq!(fs.nfiles(), 20);
    for step in 1..=5u32 {
        for task in 0..4u32 {
            assert_eq!(
                fs.read_file(&format!("/s{step}_t{task}")),
                Some(vec![task as u8; 256]),
                "staged file must land intact"
            );
        }
    }
    assert_eq!(tracker.total_bytes(), 20 * 256);
}
