//! Backend × codec comparison: one fixed AMR workload driven through
//! every io-engine backend and compression codec, reporting per-scenario
//! dump times, file counts, physical volume, and wall clock from the
//! storage model — the backend-level counterpart of the paper's MIF/SIF
//! comparison, extended with the AMRIC-style data-reduction lever.
//!
//! Results persist in the append-only store at
//! `results/store/backend_compare/`; re-running the bench resumes every
//! already-persisted cell instead of re-executing it.

use amrproxy::{run_spec, CastroSedovConfig, Engine, ExperimentSpec, ResultsStore};
use bench::{banner, human_bytes};
use io_engine::{BackendSpec, CodecSpec};
use iosim::StorageModel;

struct Row {
    backend: String,
    codec: String,
    total_bytes: u64,
    physical_bytes: u64,
    total_files: u64,
    wall_time: f64,
    speedup_vs_fpp: f64,
}

fn main() {
    banner(
        "backend_compare",
        "io-engine backend sweep (ADIOS2/AMRIC-style levers over the Fig. 2 workload)",
        "N-to-N vs BP-style aggregation vs deferred burst-buffer staging",
    );
    let nprocs = 64;
    let base = CastroSedovConfig {
        name: "cmp".into(),
        engine: Engine::Oracle,
        n_cell: 512,
        max_level: 2,
        max_step: 20,
        plot_int: 2,
        nprocs,
        account_only: true,
        compute_ns_per_cell: 1_000.0,
        ..Default::default()
    };
    let backends = [
        BackendSpec::FilePerProcess,
        BackendSpec::Aggregated(4),
        BackendSpec::Aggregated(16),
        BackendSpec::Aggregated(nprocs),
        BackendSpec::Deferred(1),
    ];
    let codecs = [CodecSpec::Identity, CodecSpec::LossyQuant(8)];
    let storage = StorageModel::summit_alpine(1.0 / 9.0);

    // The sweep as a declarative spec, executed against the append-only
    // store: already-persisted cells are served back from disk.
    let spec = ExperimentSpec::over("backend_compare", &[base])
        .backends(&backends)
        .codecs(&codecs);
    let mut store = ResultsStore::open(bench::results_dir().join("store/backend_compare"))
        .expect("open results store");
    let report = run_spec(&spec, &mut store, Some(&storage)).expect("run spec");
    println!(
        "store {}: {} cells executed, {} resumed",
        store.dir().display(),
        report.executed,
        report.resumed
    );
    let summaries = report.summaries;

    // The baseline wall comes back out through the query plane.
    let fpp_walls = store
        .query()
        .filter("backend", "fpp")
        .filter("codec", "identity")
        .numbers("wall_time");
    let fpp_wall = *fpp_walls.first().expect("fpp baseline present");
    let mut rows = Vec::new();
    println!(
        "\n{:<12} {:>10} {:>12} {:>12} {:>8} {:>12} {:>10}",
        "backend", "codec", "logical", "physical", "files", "wall (s)", "speedup"
    );
    for s in &summaries {
        let row = Row {
            backend: s.backend.clone(),
            codec: s.codec.clone(),
            total_bytes: s.total_bytes,
            physical_bytes: s.physical_bytes,
            total_files: s.physical_files,
            wall_time: s.wall_time,
            speedup_vs_fpp: fpp_wall / s.wall_time,
        };
        println!(
            "{:<12} {:>10} {:>12} {:>12} {:>8} {:>12.4} {:>9.3}x",
            row.backend,
            row.codec,
            human_bytes(row.total_bytes),
            human_bytes(row.physical_bytes),
            row.total_files,
            row.wall_time,
            row.speedup_vs_fpp
        );
        rows.push(row);
    }

    // The levers must actually lever: aggregation and overlap beat the
    // N-to-N baseline on this metadata-heavy workload, and compression
    // never ships more physical bytes than the identity column.
    let best_agg = rows
        .iter()
        .filter(|r| r.backend.starts_with("agg") && r.codec == "identity")
        .map(|r| r.wall_time)
        .fold(f64::INFINITY, f64::min);
    let deferred = rows
        .iter()
        .find(|r| r.backend.starts_with("deferred") && r.codec == "identity")
        .expect("deferred present")
        .wall_time;
    assert!(best_agg < fpp_wall, "aggregation must beat N-to-N");
    assert!(deferred < fpp_wall, "overlap must beat N-to-N");
    assert!(
        rows.iter().all(|r| r.total_bytes == rows[0].total_bytes),
        "logical byte accounting backend- and codec-invariant"
    );
    for r in rows.iter().filter(|r| r.codec != "identity") {
        let id = rows
            .iter()
            .find(|i| i.backend == r.backend && i.codec == "identity")
            .expect("identity twin");
        assert!(
            r.physical_bytes < id.physical_bytes,
            "{}: compression must shrink the wire volume",
            r.backend
        );
    }

    // The per-backend aggregate, straight from the store.
    println!("\nmean wall by backend (store group_mean):");
    for (backend, wall) in store.query().group_mean("backend", "wall_time") {
        println!("  {backend:<12} {wall:.4} s");
    }
}
