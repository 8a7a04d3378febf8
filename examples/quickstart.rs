//! Quickstart: run a small AMR Sedov simulation, look at the I/O it
//! produces, and translate it into an equivalent MACSio proxy invocation.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use amr_proxy_io::amrproxy::{compare_with_macsio, run_simulation, CastroSedovConfig, Engine};

fn main() {
    // A 128^2 Sedov run with 2 refinement levels on 8 simulated ranks —
    // the Listing 2 input file, scaled down.
    let cfg = CastroSedovConfig {
        name: "quickstart".into(),
        engine: Engine::Hydro,
        n_cell: 128,
        max_level: 2,
        max_step: 30,
        plot_int: 2,
        nprocs: 8,
        grid: amr_proxy_io::amr_mesh::GridParams {
            ref_ratio: 2,
            blocking_factor: 8,
            max_grid_size: 64,
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
    };

    println!(
        "running {}: {}^2 cells, {} levels, {} ranks ...",
        cfg.name,
        cfg.n_cell,
        cfg.max_level + 1,
        cfg.nprocs
    );
    let result = run_simulation(&cfg, None, None);

    println!("\nplot dumps: {}", result.totals.outputs);
    println!("total bytes: {}", result.tracker.total_bytes());
    println!("total files: {}", result.tracker.total_files());

    println!("\ncumulative output per plot step (Eq. 1/2 of the paper):");
    println!(
        "{:>6} {:>16} {:>16}",
        "dump", "x (cum. cells)", "y (cum. bytes)"
    );
    for p in result.xy_series().points.iter() {
        println!("{:>6} {:>16.4e} {:>16.4e}", "", p.x, p.y);
    }

    println!("\nper-level byte share:");
    for (level, bytes) in result.tracker.bytes_per_level() {
        println!(
            "  L{level}: {bytes:>14}  ({:.1}%)",
            100.0 * bytes as f64 / result.tracker.total_bytes() as f64
        );
    }

    // Translate + calibrate the MACSio proxy against this run.
    let cmp = compare_with_macsio(&result, 2);
    println!("\ncalibrated MACSio equivalent (Listing 1 of the paper):");
    println!("  {}", cmp.macsio_command);
    println!(
        "  fit: dataset_growth = {:.6}, f = {:.2}, per-step MAPE = {:.2}%",
        cmp.calibration.dataset_growth, cmp.calibration.f, cmp.mape_percent
    );
}
