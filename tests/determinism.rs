//! Determinism guarantees: the whole stack is seeded, so every experiment
//! must produce byte-identical results across runs — the property that
//! makes the paper's calibration methodology reproducible here.

use amr_proxy_io::amrproxy::{run_simulation, CastroSedovConfig, Engine};
use amr_proxy_io::iosim::{MemFs, StorageModel, Vfs};
use amr_proxy_io::macsio::{self, MacsioConfig};
use amr_proxy_io::model::XySeries;

fn cfg(engine: Engine) -> CastroSedovConfig {
    CastroSedovConfig {
        name: "det".into(),
        engine,
        n_cell: 64,
        max_level: 2,
        max_step: 14,
        plot_int: 2,
        check_int: 7,
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
fn amr_runs_are_byte_identical() {
    for engine in [Engine::Hydro, Engine::Oracle] {
        let a = run_simulation(&cfg(engine), None, None);
        let b = run_simulation(&cfg(engine), None, None);
        assert_eq!(a.tracker.export(), b.tracker.export(), "{engine:?}");
        assert_eq!(
            XySeries::from_tracker("run", &a.tracker, 64 * 64).points,
            XySeries::from_tracker("run", &b.tracker, 64 * 64).points,
        );
    }
}

#[test]
fn step_sequences_are_identical() {
    let a = run_simulation(&cfg(Engine::Hydro), None, None);
    let b = run_simulation(&cfg(Engine::Hydro), None, None);
    assert_eq!(a.steps.len(), b.steps.len());
    for (x, y) in a.steps.iter().zip(&b.steps) {
        assert_eq!(x, y);
    }
}

#[test]
fn macsio_files_are_byte_identical() {
    let mcfg = MacsioConfig {
        nprocs: 4,
        num_dumps: 3,
        part_size: 50_000,
        dataset_growth: 1.01,
        ..Default::default()
    };
    let fs_a = MemFs::new();
    let fs_b = MemFs::new();
    let t = amr_proxy_io::iosim::IoTracker::new();
    macsio::run(&mcfg, &fs_a, &t, None).unwrap();
    macsio::run(&mcfg, &fs_b, &t, None).unwrap();
    for f in fs_a.list("/") {
        assert_eq!(fs_a.read_file(&f), fs_b.read_file(&f), "{f}");
    }
}

#[test]
fn timed_runs_have_identical_timelines() {
    let storage = StorageModel::summit_alpine(0.1);
    let a = run_simulation(&cfg(Engine::Oracle), None, Some(&storage));
    let b = run_simulation(&cfg(Engine::Oracle), None, Some(&storage));
    assert_eq!(a.totals.timeline, b.totals.timeline);
    assert_eq!(a.totals.wall_time, b.totals.wall_time);
}

#[test]
fn vfs_and_tracker_stay_consistent_with_checkpoints() {
    // Real writes with checkpoints interleaved: the filesystem, tracker,
    // and stats must agree on every byte.
    let mut c = cfg(Engine::Hydro);
    c.account_only = false;
    c.check_int = 4;
    let fs = MemFs::with_retention(0);
    let r = run_simulation(&c, Some(&fs), None);
    // Checkpoint accounting is size-only (not written), so the filesystem
    // holds exactly the plotfile bytes.
    let plot_files: u64 = fs.nfiles() as u64;
    assert!(r.tracker.total_files() >= plot_files);
    let chk_outputs = 14 / 4;
    let plot_outputs = 14 / 2 + 1;
    assert_eq!(r.totals.outputs as u64, plot_outputs + chk_outputs);
}
