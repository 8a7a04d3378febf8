//! Cross-crate integration tests: the full pipeline from the hydro (or
//! oracle) hierarchy through plotfile writing, byte tracking, model
//! fitting, and the MACSio proxy.

use amr_proxy_io::amrproxy::{
    case4_hydro_scaled, compare_with_macsio, run_simulation, CastroSedovConfig, Engine,
};
use amr_proxy_io::iosim::{IoKind, MemFs, StorageModel, Vfs};
use amr_proxy_io::model::linear_fit;

fn small(engine: Engine, n: i64, max_level: usize, steps: u64) -> CastroSedovConfig {
    CastroSedovConfig {
        name: format!("it_{engine:?}_{n}_{max_level}"),
        engine,
        n_cell: n,
        max_level,
        max_step: steps,
        plot_int: 2,
        nprocs: 4,
        grid: amr_proxy_io::amr_mesh::GridParams {
            ref_ratio: 2,
            blocking_factor: 8,
            max_grid_size: 32,
            n_error_buf: 2,
            grid_eff: 0.7,
        },
        ctrl: amr_proxy_io::hydro::TimestepControl {
            cfl: 0.5,
            init_shrink: 0.5,
            change_max: 1.4,
        },
        account_only: true,
        ..Default::default()
    }
}

#[test]
fn hydro_and_oracle_engines_agree_on_structure() {
    // Same configuration through both engines: identical L0 accounting
    // (L0 bytes depend only on n_cell / chopping / variable count), and
    // refined levels in the same order of magnitude.
    let rh = run_simulation(&small(Engine::Hydro, 64, 2, 16), None, None);
    let ro = run_simulation(&small(Engine::Oracle, 64, 2, 16), None, None);
    assert_eq!(rh.totals.outputs, ro.totals.outputs);
    // Compare L0 *data* bytes: metadata at level 0 includes the Header,
    // which lists every level's grids and legitimately differs.
    for step in rh.tracker.steps() {
        let h: u64 = rh
            .tracker
            .bytes_per_task_of(step, 0, IoKind::Data)
            .iter()
            .sum();
        let o: u64 = ro
            .tracker
            .bytes_per_task_of(step, 0, IoKind::Data)
            .iter()
            .sum();
        assert_eq!(h, o, "L0 data accounting must be engine-independent");
    }
    // Both refine the blast.
    assert!(rh.tracker.levels().len() >= 2);
    assert!(ro.tracker.levels().len() >= 2);
}

#[test]
fn plotfile_bytes_flow_into_model_samples() {
    let r = run_simulation(&small(Engine::Oracle, 128, 2, 20), None, None);
    let xy = r.xy_series();
    assert_eq!(xy.points.len() as u32, r.totals.outputs);
    // Eq. (1): x spacing equals ncells(L0).
    let dx = xy.points[1].x - xy.points[0].x;
    assert_eq!(dx, (128 * 128) as f64);
    // The cumulative series regresses with a positive slope.
    let fit = linear_fit(&xy.xs(), &xy.ys());
    assert!(fit.slope > 0.0);
    assert!(fit.r2 > 0.9);
}

#[test]
fn real_writes_match_accounting_through_the_full_stack() {
    let mut cfg = small(Engine::Hydro, 64, 1, 8);
    cfg.account_only = false;
    let fs = MemFs::with_retention(64);
    let r = run_simulation(&cfg, Some(&fs), None);
    // Every accounted byte exists in the filesystem.
    assert_eq!(r.tracker.total_bytes(), fs.total_bytes());
    assert_eq!(r.tracker.total_files() as usize, fs.nfiles());
    // The N-to-N structure of Fig. 2 is on disk.
    let files = fs.list("/");
    assert!(files.iter().any(|f| f.contains("plt00000/Header")));
    assert!(files.iter().any(|f| f.contains("Level_0/Cell_D_00000")));
}

#[test]
fn end_to_end_proxy_quality_on_hydro_engine() {
    // The paper's whole point, on the real solver: a calibrated MACSio
    // run reproduces the per-step byte series of the AMR run.
    let cfg = case4_hydro_scaled(0.5, 2);
    let amr = run_simulation(&cfg, None, None);
    let cmp = compare_with_macsio(&amr, 2);
    assert!(cmp.mape_percent < 15.0, "MAPE {}", cmp.mape_percent);
    assert!(cmp.final_error.abs() < 0.10, "final {}", cmp.final_error);
    assert!(cmp.calibration.f > 5.0, "f {}", cmp.calibration.f);
}

#[test]
fn burst_timing_is_deterministic() {
    let cfg = small(Engine::Oracle, 128, 2, 12);
    let storage = StorageModel::summit_alpine(0.05);
    let a = run_simulation(&cfg, None, Some(&storage));
    let b = run_simulation(&cfg, None, Some(&storage));
    assert_eq!(
        a.totals.timeline, b.totals.timeline,
        "same seed, same timeline"
    );
    assert_eq!(a.totals.wall_time, b.totals.wall_time);
    assert!(a.totals.timeline.len() as u32 == a.totals.outputs);
}

#[test]
fn metadata_and_data_are_tracked_separately() {
    let r = run_simulation(&small(Engine::Oracle, 64, 2, 8), None, None);
    let data = r.tracker.total_bytes_of(IoKind::Data);
    let meta = r.tracker.total_bytes_of(IoKind::Metadata);
    assert!(data > 0 && meta > 0);
    // Data dominates; metadata is a small but nonzero share (headers,
    // Cell_H, job_info).
    assert!(data > 10 * meta, "data {data} meta {meta}");
}

#[test]
fn tracker_step_keys_are_output_counters_not_sim_steps() {
    let mut cfg = small(Engine::Oracle, 64, 1, 20);
    cfg.plot_int = 5;
    let r = run_simulation(&cfg, None, None);
    // Dumps at step 0, 5, 10, 15, 20 -> counters 1..=5.
    assert_eq!(r.tracker.steps(), vec![1, 2, 3, 4, 5]);
}
