//! Backend sweep: the same Sedov campaign slice pushed through every
//! io-engine backend, sweeping aggregation ratios {1, 4, 16, N}, with
//! per-backend dump times from the storage model.
//!
//! ```text
//! cargo run --release --example backend_sweep
//! ```

use amr_proxy_io::amrproxy::{run_campaign, CastroSedovConfig, Engine, ExperimentSpec};
use amr_proxy_io::io_engine::BackendSpec;
use amr_proxy_io::iosim::StorageModel;

fn main() {
    let nprocs = 32;
    let base = CastroSedovConfig {
        name: "sedov256".into(),
        engine: Engine::Oracle,
        n_cell: 256,
        max_level: 2,
        max_step: 24,
        plot_int: 2,
        nprocs,
        account_only: true,
        compute_ns_per_cell: 2_000.0,
        ..Default::default()
    };

    // Aggregation ratios 1, 4, 16, N (ratio N -> a single subfile), plus
    // the N-to-N baseline and the deferred burst-buffer path.
    let backends = [
        BackendSpec::FilePerProcess,
        BackendSpec::Aggregated(1),
        BackendSpec::Aggregated(4),
        BackendSpec::Aggregated(16),
        BackendSpec::Aggregated(nprocs),
        BackendSpec::Deferred(1),
    ];
    let matrix = ExperimentSpec::over("backend_sweep", &[base])
        .backends(&backends)
        .compile_configs()
        .expect("unique run labels");
    println!(
        "running {} scenarios ({} backends) on a 1/9-Summit storage model ...\n",
        matrix.len(),
        backends.len()
    );
    let storage = StorageModel::summit_alpine(1.0 / 9.0);
    let summaries = run_campaign(&matrix, Some(&storage));

    println!(
        "{:<24} {:>10} {:>12} {:>12} {:>12} {:>14}",
        "scenario", "backend", "bytes", "files", "wall (s)", "mean dump (s)"
    );
    let mut fpp_wall = None;
    for s in &summaries {
        let dumps = s.series.len().max(1) as f64;
        println!(
            "{:<24} {:>10} {:>12} {:>12} {:>12.4} {:>14.4}",
            s.name,
            s.backend,
            s.total_bytes,
            s.physical_files,
            s.wall_time,
            s.wall_time / dumps,
        );
        if s.backend == "fpp" {
            fpp_wall = Some(s.wall_time);
        }
    }

    if let Some(fpp) = fpp_wall {
        println!("\nspeedup over the N-to-N baseline:");
        for s in &summaries {
            println!("  {:>10}: {:>6.3}x", s.backend, fpp / s.wall_time);
        }
    }
    // The workload's data production is backend-invariant; only the
    // physical layout and timing move.
    let bytes: Vec<u64> = summaries.iter().map(|s| s.total_bytes).collect();
    assert!(bytes.windows(2).all(|w| w[0] == w[1]), "bytes invariant");
    println!("\nbyte accounting identical across all backends: OK");
}
