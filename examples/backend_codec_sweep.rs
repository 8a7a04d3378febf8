//! Backend × codec sweep: the Sedov campaign slice pushed through every
//! io-engine backend crossed with every compression codec, reporting
//! physical bytes, logical bytes, and wall-clock per cell.
//!
//! ```text
//! cargo run --release --example backend_codec_sweep
//! ```

use amr_proxy_io::amrproxy::{run_campaign, CastroSedovConfig, Engine, ExperimentSpec};
use amr_proxy_io::io_engine::{BackendSpec, CodecSpec};
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

    let backends = [
        BackendSpec::FilePerProcess,
        BackendSpec::Aggregated(4),
        BackendSpec::Deferred(1),
    ];
    let codecs = [
        CodecSpec::Identity,
        CodecSpec::Rle(2.0),
        CodecSpec::LossyQuant(8),
    ];
    let matrix = ExperimentSpec::over("backend_codec_sweep", &[base])
        .backends(&backends)
        .codecs(&codecs)
        .compile_configs()
        .expect("unique run labels");
    println!(
        "running {} scenarios ({} backends x {} codecs) on a bandwidth-bound storage model ...\n",
        matrix.len(),
        backends.len(),
        codecs.len()
    );
    // A deliberately bandwidth-bound configuration: with Alpine-scale
    // peaks the transfers vanish and only the codec CPU cost would show.
    let storage = StorageModel::ideal(8, 2.5e8);
    let summaries = run_campaign(&matrix, Some(&storage));

    println!(
        "{:<10} {:>10} {:>14} {:>14} {:>7} {:>10} {:>14}",
        "backend", "codec", "logical", "physical", "ratio", "wall (s)", "wall/cell (ns)"
    );
    for s in &summaries {
        println!(
            "{:<10} {:>10} {:>14} {:>14} {:>6.2}x {:>10.4} {:>14.3}",
            s.backend,
            s.codec,
            s.logical_bytes,
            s.physical_bytes,
            s.compression_ratio(),
            s.wall_time,
            s.wall_per_cell() * 1e9,
        );
    }

    let of = |backend: &str, codec: &str| {
        summaries
            .iter()
            .find(|s| s.backend == backend && s.codec == codec)
            .expect("scenario present")
    };
    println!("\nspeedup of quant:8 over identity, per backend:");
    for b in ["fpp", "agg:4", "deferred:1"] {
        let id = of(b, "identity");
        let q = of(b, "quant:8");
        println!(
            "  {:>10}: {:>6.3}x wall, {:>6.2}x bytes",
            b,
            id.wall_time / q.wall_time,
            id.physical_bytes as f64 / q.physical_bytes as f64
        );
        assert!(q.physical_bytes < id.physical_bytes);
        assert!(q.wall_time < id.wall_time, "{b}: compression must pay off");
    }
    // The workload's logical data production is invariant across the
    // whole backend x codec matrix.
    let logical: Vec<u64> = summaries.iter().map(|s| s.total_bytes).collect();
    assert!(logical.windows(2).all(|w| w[0] == w[1]), "bytes invariant");
    println!("\nlogical byte accounting identical across all 9 scenarios: OK");
}
