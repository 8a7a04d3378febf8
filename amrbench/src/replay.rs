//! The traced run's staged replay.
//!
//! The library crates carry no spans of their own, so a traced run
//! cannot look inside `run_spec` or `macsio::run`. Instead, for each
//! cell it records (a) a **root span** around the real public entry
//! point, then (b) re-runs each layer in isolation on inputs captured
//! from the stage before it, one **child span** per call:
//!
//! * spec cells — `compile_phases` (`core`) → `SimComm::summit` and one
//!   `SimComm::run` per compute step (`mpi-sim`) → `StepSource::advance`
//!   and `layout_levels` (`hydro`) → `account_plotfile_with` against the
//!   cell's real backend (`io-engine`) with the same call against a
//!   counting [`NullBackend`] as *its* child (`plotfile`; the difference
//!   is the backend's own share) → `StorageModel::simulate_burst`, or the
//!   fabric-attached `BurstScheduler` for tenancy cells (`iosim`);
//! * MACSio runs — `marshal_part` over the run's parts (`macsio`) →
//!   `begin_step`/`put`/`end_step` through codec stage and backend
//!   (`io-engine`) → `simulate_burst` → `read_selection` and
//!   `simulate_read_burst` for read-back scenarios;
//! * proxy corners — `run_simulation`, `translate`,
//!   `calibrate_two_parameter` (`model`), then a real `macsio::run` whose
//!   children are the MACSio stages above.
//!
//! The replay must reproduce the root's totals (bytes, files) — checked
//! per cell — and what the stages do not explain is reported as
//! `core.driver_residual_s`, never dropped. Calls that are not part of
//! any root (store operations, what-if fabric tenancies, codecs run
//! serially, regrid clustering already inside `advance`) are **probes**.

use crate::digest::Digest;
use crate::proxy_workloads::{
    record_corner, record_matrix_cell, run_corner, run_matrix_cell, EngineMatrix, ProxyPipeline,
};
use crate::spec_workloads::{digest_of, fittable, query_set, SpecWorkload};
use crate::trace::Tracer;
use crate::workload::{Checks, PassResult};
use amr_mesh::{make_fine_grids, BoxArray, DistributionMapping, IndexBox, IntVect, TagMap};
use amrproxy::campaign::{
    run_campaign_fabric_cloned, run_campaign_serial, run_campaign_timed_serial,
};
use amrproxy::{
    compile_phases, run_simulation, run_spec, run_spec_serial, AmrSource, CastroSedovConfig,
    Engine, OracleSource, Phase, ResultsStore, RunSummary, ScheduledPhase, SpecCell, StepSource,
};
use io_engine::{
    BackendSpec, CodecContext, CodecSpec, EngineReport, IoBackend, Payload, Put, ScenarioOp,
    StepStats,
};
use iosim::{
    BurstScheduler, Fabric, IoKey, IoKind, IoTracker, MemFs, SoloMemo, SoloPricing, StorageModel,
    Vfs, WriteRequest,
};
use macsio::{marshal_part, marshal_root, FileMode, MacsioConfig, MeshPart};
use mpi_sim::{collectives::allreduce_max, SimClock, SimComm};
use plotfile::{account_plotfile_with, castro_sedov_plot_vars, PlotfileLayout};
use std::collections::BTreeSet;
use std::io;
use std::path::Path;
use std::time::Instant;

/// A backend that counts puts and keeps nothing: what
/// `account_plotfile_with` costs by itself.
#[derive(Default)]
pub struct NullBackend {
    step: u32,
    /// Puts received.
    pub puts: u64,
}

impl IoBackend for NullBackend {
    fn name(&self) -> String {
        "null".to_string()
    }

    fn begin_step(&mut self, step: u32, _container: &str) {
        self.step = step;
    }

    fn create_dir_all(&mut self, _path: &str) -> io::Result<()> {
        Ok(())
    }

    fn put(&mut self, _put: Put) -> io::Result<()> {
        self.puts += 1;
        Ok(())
    }

    fn end_step(&mut self) -> io::Result<StepStats> {
        Ok(StepStats {
            step: self.step,
            ..StepStats::default()
        })
    }

    fn close(&mut self) -> io::Result<EngineReport> {
        Ok(EngineReport::default())
    }
}

/// Metric suffix of a backend (`fpp`, `agg`, `deferred`, `streaming`).
fn backend_slot(spec: BackendSpec, metrics: [&'static str; 4]) -> &'static str {
    match spec {
        BackendSpec::FilePerProcess => metrics[0],
        BackendSpec::Aggregated(_) => metrics[1],
        BackendSpec::Deferred(_) => metrics[2],
        BackendSpec::Streaming(_) => metrics[3],
    }
}

const ACCOUNT_PUT: [&str; 4] = [
    "io-engine.account_put_busy_s.fpp",
    "io-engine.account_put_busy_s.agg",
    "io-engine.account_put_busy_s.deferred",
    // Spec cells never stream in this benchmark; the replay refuses them.
    "io-engine.account_put_busy_s.fpp",
];
const PUT: [&str; 4] = [
    "io-engine.put_busy_s.fpp",
    "io-engine.put_busy_s.agg",
    "io-engine.put_busy_s.deferred",
    "io-engine.put_busy_s.streaming",
];
const READ_STEP: [&str; 4] = [
    "io-engine.read_step_busy_s.fpp",
    "io-engine.read_step_busy_s.agg",
    "io-engine.read_step_busy_s.deferred",
    // Streamed runs are write-only in this benchmark.
    "io-engine.read_step_busy_s.fpp",
];

/// `(encode, decode)` metric of a codec.
fn codec_metrics(codec: CodecSpec) -> (&'static str, &'static str) {
    match codec {
        CodecSpec::Identity => (
            "io-engine.encode_busy_s.identity",
            "io-engine.decode_busy_s.identity",
        ),
        CodecSpec::Rle(_) => ("io-engine.encode_busy_s.rle", "io-engine.decode_busy_s.rle"),
        CodecSpec::LossyQuant(_) => (
            "io-engine.encode_busy_s.quant8",
            "io-engine.decode_busy_s.quant8",
        ),
    }
}

fn unsupported(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::Unsupported, what)
}

// ---------------------------------------------------------------------------
// Spec cells

/// The real entry point a cell executes through: what
/// `amrproxy::store`'s private `execute_cell`/`execute_cell_fast` call.
fn execute_cell(
    cell: &SpecCell,
    storage: Option<&StorageModel>,
    memo: &SoloMemo,
) -> io::Result<Vec<RunSummary>> {
    if cell.tenants > 1 {
        let storage = storage.ok_or_else(|| {
            unsupported(format!(
                "throughput cell '{}' has no storage",
                cell.config.name
            ))
        })?;
        let clones: Vec<CastroSedovConfig> = (0..cell.tenants)
            .map(|i| CastroSedovConfig {
                name: format!("{}_t{i}", cell.config.name),
                ..cell.config.clone()
            })
            .collect();
        return Ok(run_campaign_fabric_cloned(
            &clones,
            storage,
            Some((memo, &cell.solo_key)),
        ));
    }
    let cfg = std::slice::from_ref(&cell.config);
    Ok(match storage {
        Some(s) => run_campaign_timed_serial(cfg, s),
        None => run_campaign_serial(cfg),
    })
}

fn cell_storage(cell: &SpecCell, default: Option<&StorageModel>) -> Option<StorageModel> {
    cell.storage.map(|p| p.build()).or(default.copied())
}

/// What the burst stage of a cell drains into.
enum Sink<'a> {
    /// No storage model: dumps only charge codec CPU.
    Untimed,
    /// A private model: `StorageModel::simulate_burst` directly.
    Model(&'a StorageModel),
    /// One clone group on a shared fabric, through the scheduler.
    Fabric(BurstScheduler<'a>),
}

/// One captured dump of a cell: the inputs of the side probes.
struct CapturedDump {
    requests: Vec<WriteRequest>,
    /// Each level's domain and box array, coarsest first.
    levels: Vec<(IndexBox, BoxArray)>,
}

/// Replays one cell's layers under `root`; returns what the probes need.
#[allow(clippy::too_many_arguments)]
fn replay_cell_stages<S: StepSource>(
    tr: &mut Tracer,
    root: usize,
    cell: &SpecCell,
    storage: Option<&StorageModel>,
    solo_known: Option<f64>,
    mut src: S,
    program: &[ScheduledPhase],
    root_summary: &RunSummary,
    checks: &mut Checks,
) -> io::Result<Vec<CapturedDump>> {
    let cfg = &cell.config;
    let hydro = cfg.engine == Engine::Hydro;
    let (advance_name, step_metric) = if hydro {
        ("AmrSource::advance", "hydro.amr_step_busy_s")
    } else {
        ("OracleSource::advance", "hydro.oracle_step_busy_s")
    };

    let comm = tr
        .child(
            root,
            "mpi-sim",
            "SimComm::summit",
            Some("mpi-sim.comm_setup_busy_s"),
            || SimComm::summit(cfg.nprocs, 0x5ED0),
        )
        .1;
    tr.count("mpi-sim.comm_ranks", cfg.nprocs as f64);

    let fs = MemFs::with_retention(0);
    let tracker = IoTracker::new();
    let mut backend = tr
        .child(root, "io-engine", "build_with_codec", None, || {
            cfg.backend
                .build_with_codec(cfg.codec, &fs as &dyn Vfs, &tracker)
        })
        .1;
    let fabric;
    let mut sink = match storage {
        None => Sink::Untimed,
        Some(model) if cell.tenants > 1 => {
            fabric = Fabric::new(*model);
            let names: Vec<String> = (0..cell.tenants).map(|i| format!("t{i}")).collect();
            let names: Vec<&str> = names.iter().map(String::as_str).collect();
            let overlapped = backend.overlapped();
            let sched = tr
                .child(root, "iosim", "Fabric::tenant_clones", None, || {
                    let mut group = fabric.tenant_clones(&names);
                    if let Some(wall) = solo_known {
                        group.set_solo_pricing(SoloPricing::Known(wall));
                    }
                    BurstScheduler::on_fabric(group, overlapped)
                })
                .1;
            Sink::Fabric(sched)
        }
        Some(model) => Sink::Model(model),
    };

    let var_names = castro_sedov_plot_vars();
    let inputs = cfg.inputs();
    let account_metric = backend_slot(cfg.backend, ACCOUNT_PUT);
    let mut clock = 0.0f64;
    let mut outputs = 0u32;
    let mut halted_at: Option<u64> = None;
    let mut dumps = Vec::new();
    for sp in program {
        if let (Some(h), Some(g)) = (halted_at, sp.gate) {
            if g >= h {
                continue;
            }
        }
        match &sp.phase {
            Phase::Compute => {
                if src.time() >= cfg.stop_time {
                    halted_at = Some(sp.gate.unwrap_or(u64::MAX));
                    continue;
                }
                let info = tr
                    .child(root, "hydro", advance_name, Some(step_metric), || {
                        src.advance()
                    })
                    .1;
                let cells: i64 = info.cells.iter().sum();
                if hydro {
                    tr.count("hydro.amr_cell_updates", cells as f64);
                } else {
                    tr.count("hydro.oracle_steps", 1.0);
                }
                // The compute phase: every rank advances its clock, then
                // the barrier (`amrproxy::run::compute_phase`, minus its
                // private per-rank jitter).
                let per_rank = cells as f64 * cfg.compute_ns_per_cell / 1e9 / cfg.nprocs as f64;
                clock = tr
                    .child(
                        root,
                        "mpi-sim",
                        "SimComm::run",
                        Some("mpi-sim.rank_sweep_busy_s"),
                        || {
                            allreduce_max(&comm.run(clock, |ctx| {
                                ctx.clock.advance(per_rank);
                                ctx.clock.now()
                            }))
                        },
                    )
                    .1;
                tr.count("mpi-sim.rank_sweeps", 1.0);
            }
            Phase::PlotDump => {
                outputs += 1;
                let levels = tr
                    .child(root, "hydro", "layout_levels", None, || src.layout_levels())
                    .1;
                let boxes: Vec<(IndexBox, BoxArray)> = levels
                    .iter()
                    .map(|l| (l.geom.domain, l.ba.clone()))
                    .collect();
                let layout = PlotfileLayout {
                    dir: cfg.plot_dir(src.step_count()),
                    output_counter: outputs,
                    time: src.time(),
                    var_names: var_names.clone(),
                    ref_ratio: cfg.grid.ref_ratio,
                    levels,
                    inputs: inputs.clone(),
                };
                let (real, mut stats) = tr.child(
                    root,
                    "io-engine",
                    "account_plotfile_with(backend)",
                    None,
                    || account_plotfile_with(backend.as_mut(), &layout),
                );
                let mut null = NullBackend::default();
                let (bare, _) = tr.child(
                    real,
                    "plotfile",
                    "account_plotfile_with(null)",
                    Some("plotfile.account_busy_s"),
                    || account_plotfile_with(&mut null, &layout),
                );
                tr.count(account_metric, tr.duration(real) - tr.duration(bare));
                tr.count("plotfile.account_puts", null.puts as f64);
                tr.count("io-engine.account_puts", null.puts as f64);

                let start = clock + stats.codec_seconds;
                match &mut sink {
                    Sink::Untimed => clock = start,
                    Sink::Model(model) => {
                        tr.count("iosim.burst_requests", stats.requests.len() as f64);
                        for r in &mut stats.requests {
                            r.start = start;
                        }
                        let result = tr
                            .child(
                                root,
                                "iosim",
                                "simulate_burst",
                                Some("iosim.burst_busy_s"),
                                || model.simulate_burst(&stats.requests),
                            )
                            .1;
                        clock = if stats.requests.is_empty() {
                            start
                        } else {
                            result.t_end
                        };
                    }
                    Sink::Fabric(sched) => {
                        clock = tr
                            .child(
                                root,
                                "iosim",
                                "BurstScheduler::submit(fabric)",
                                None,
                                || {
                                    sched.submit_with_compute(
                                        outputs,
                                        clock,
                                        stats.codec_seconds,
                                        &mut stats.requests,
                                        stats.total_bytes,
                                    )
                                },
                            )
                            .1
                             .1;
                    }
                }
                dumps.push(CapturedDump {
                    requests: stats.requests,
                    levels: boxes,
                });
            }
            Phase::Drain => {}
            other => {
                return Err(unsupported(format!(
                    "{}: the staged replay covers write-only scenarios, not {other:?}",
                    cfg.name
                )))
            }
        }
    }
    let report = tr
        .child(root, "io-engine", "close", None, || backend.close())
        .1?;
    drop(backend);
    if let Sink::Fabric(sched) = &mut sink {
        tr.child(root, "iosim", "BurstScheduler::seal", None, || {
            sched.seal(clock)
        });
    }

    // The replay must reproduce what the real call reported.
    let replayed = (
        report.bytes,
        report.logical_bytes,
        report.files,
        tracker.total_files(),
    );
    let real = (
        root_summary.physical_bytes,
        root_summary.logical_bytes,
        root_summary.physical_files,
        root_summary.total_files,
    );
    checks.check(replayed == real, || {
        format!(
            "{}: replay (physical, logical, files, records) {replayed:?} != root {real:?}",
            cfg.name
        )
    });

    // The tracker's share sits inside the backend spans above; measured
    // on the side so it is not counted twice.
    let records = tracker.export();
    tr.count("iosim.tracker_records", records.len() as f64);
    tr.probe(
        "iosim",
        "IoTracker::record",
        &cfg.name,
        Some("iosim.tracker_busy_s"),
        || {
            let t = IoTracker::new();
            for (key, kind, bytes, _) in &records {
                t.record(*key, *kind, *bytes);
            }
            (t.total_bytes(), t.total_files())
        },
    );
    Ok(dumps)
}

/// Side probes on one cell's captured dumps: the same request lists on a
/// shared fabric at 2 and 16 tenants, `DistributionMapping::new` on each
/// captured box array, and (hydro cells) `make_fine_grids` on tag maps
/// rebuilt by coarsening each captured fine box array.
fn probe_cell(
    tr: &mut Tracer,
    cell: &SpecCell,
    storage: Option<&StorageModel>,
    dumps: &[CapturedDump],
) {
    let cfg = &cell.config;
    if let Some(model) = storage {
        for (tenants, metric) in [
            (2usize, "iosim.fabric_burst_busy_s.t2"),
            (16, "iosim.fabric_burst_busy_s.t16"),
        ] {
            let fabric = Fabric::new(*model);
            let names: Vec<String> = (0..tenants).map(|i| format!("t{i}")).collect();
            let names: Vec<&str> = names.iter().map(String::as_str).collect();
            let group = fabric.tenant_clones(&names);
            let mut clock = 0.0f64;
            for dump in dumps.iter().filter(|d| !d.requests.is_empty()) {
                let mut requests = dump.requests.clone();
                for r in &mut requests {
                    r.start = clock;
                }
                clock = tr
                    .probe(
                        "iosim",
                        "FabricHandle::simulate_burst",
                        &cfg.name,
                        Some(metric),
                        || group.simulate_burst(&requests),
                    )
                    .t_end;
                tr.count("iosim.fabric_bursts", 1.0);
            }
        }
    }
    let ratio = IntVect::splat(cfg.grid.ref_ratio);
    for dump in dumps {
        for (lev, (_, ba)) in dump.levels.iter().enumerate() {
            tr.probe(
                "amr-mesh",
                "DistributionMapping::new",
                &cfg.name,
                Some("amr-mesh.distmap_busy_s"),
                || DistributionMapping::new(ba, cfg.nprocs, cfg.strategy),
            );
            tr.count("amr-mesh.distmap_boxes", ba.len() as f64);
            // Only the hydro engine regrids through `make_fine_grids`
            // (the oracle places annulus grids analytically).
            if cfg.engine == Engine::Hydro && lev > 0 {
                let coarse_domain = dump.levels[lev - 1].0;
                let mut tags = TagMap::new(coarse_domain);
                for b in ba.coarsen(ratio).iter() {
                    if let Some(inside) = b.intersection(&coarse_domain) {
                        tags.tag_region(&inside);
                    }
                }
                tr.count("amr-mesh.cluster_tagged_cells", tags.count() as f64);
                tr.probe(
                    "amr-mesh",
                    "make_fine_grids",
                    &cfg.name,
                    Some("amr-mesh.cluster_busy_s"),
                    || make_fine_grids(&tags, coarse_domain, &cfg.grid),
                );
            }
        }
    }
}

/// Root span and staged replay of one cell.
fn replay_cell(
    tr: &mut Tracer,
    cell: &SpecCell,
    default_storage: Option<&StorageModel>,
    memo: &SoloMemo,
    probed: &mut BTreeSet<String>,
    checks: &mut Checks,
) -> io::Result<Vec<RunSummary>> {
    let cfg = &cell.config;
    if !cfg.account_only || cfg.backend.in_transit() {
        return Err(unsupported(format!(
            "{}: the staged replay covers account-only, stored cells",
            cfg.name
        )));
    }
    let storage = cell_storage(cell, default_storage);
    // Whether the real call replays the solo shadow or is served from
    // the memo decides what the fabric stage must do.
    let solo_known = memo.get(&cell.solo_key);
    let (root, summaries) = tr.root(
        "execute_cell",
        &cfg.name,
        Some("core.run_cell_busy_s"),
        || execute_cell(cell, storage.as_ref(), memo),
    );
    let summaries = summaries?;
    tr.count("core.run_cells", 1.0);
    checks.ops(1);
    let Some(first) = summaries.first() else {
        checks.fail(format!("{}: the cell produced no row", cfg.name));
        return Ok(summaries);
    };

    let program = tr
        .child(
            root,
            "core",
            "compile_phases",
            Some("core.phase_compile_busy_s"),
            || compile_phases(cfg),
        )
        .1
        .map_err(io::Error::other)?;
    let storage_ref = storage.as_ref();
    let dumps = match cfg.engine {
        Engine::Hydro => {
            let src = tr
                .child(root, "hydro", "AmrSource::new", None, || {
                    AmrSource::new(cfg)
                })
                .1;
            replay_cell_stages(
                tr,
                root,
                cell,
                storage_ref,
                solo_known,
                src,
                &program,
                first,
                checks,
            )?
        }
        Engine::Oracle => {
            let src = tr
                .child(root, "hydro", "OracleSource::new", None, || {
                    OracleSource::new(cfg)
                })
                .1;
            replay_cell_stages(
                tr,
                root,
                cell,
                storage_ref,
                solo_known,
                src,
                &program,
                first,
                checks,
            )?
        }
    };
    // Every tenancy rung over one base shares its hierarchy and request
    // lists: probe each distinct solo profile once.
    if probed.insert(cell.solo_key.clone()) {
        probe_cell(tr, cell, storage_ref, &dumps);
    }
    Ok(summaries)
}

/// The `core.store` probes: what `run_spec` does around the cells.
fn probe_store(
    tr: &mut Tracer,
    cells: &[SpecCell],
    rows: &[Vec<RunSummary>],
    dir: &Path,
    checks: &mut Checks,
) -> io::Result<()> {
    let name = tr.workload();
    let mut store = ResultsStore::open(dir)?;
    for (cell, summaries) in cells.iter().zip(rows) {
        tr.probe(
            "core",
            "ResultsStore::append_cell",
            name,
            Some("core.store_append_busy_s"),
            || store.append_cell(&cell.key, summaries),
        )?;
        tr.count("core.store_append_rows", summaries.len() as f64);
    }
    drop(store);
    let store = tr.probe(
        "core",
        "ResultsStore::open",
        name,
        Some("core.store_open_busy_s"),
        || ResultsStore::open(dir),
    )?;
    tr.count("core.store_open_rows", store.len() as f64);
    let mut served = 0usize;
    for cell in cells {
        served += tr.probe(
            "core",
            "ResultsStore::contains+get",
            name,
            Some("core.store_get_busy_s"),
            || {
                if store.contains(&cell.key) {
                    store.get(&cell.key).len()
                } else {
                    0
                }
            },
        );
    }
    let expected: usize = rows.iter().map(Vec::len).sum();
    checks.check(served == expected && store.len() == expected, || {
        format!(
            "trace store: {expected} rows appended, {} reopened, {served} served",
            store.len()
        )
    });
    let fit = fittable(&store);
    tr.probe(
        "core",
        "Query filter+group_mean+fit",
        name,
        Some("core.store_query_busy_s"),
        || query_set(&store, fit),
    );
    // One query set scans the store twice.
    tr.count("core.store_query_rows", 2.0 * store.len() as f64);
    let series = store.query().xy("physical_bytes", "wall_time", "fit");
    if fit {
        tr.count("model.fit_points", series.points.len() as f64);
        tr.probe(
            "model",
            "linear_fit",
            name,
            Some("model.fit_busy_s"),
            || series.fit(),
        );
    }
    checks.ops(4);
    Ok(())
}

fn spec_err(e: amrproxy::SpecError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, e.to_string())
}

/// Records the residual, the serial pass and what tracing cost.
fn finish_core_metrics(tr: &mut Tracer, untraced_roots_s: f64, serial_s: f64, parallel_s: f64) {
    tr.count("core.driver_residual_s", tr.root_residual_seconds());
    tr.count("core.serial_pass_s", serial_s);
    if parallel_s > 0.0 {
        tr.count("core.parallel_speedup", serial_s / parallel_s);
    }
    if untraced_roots_s > 0.0 {
        tr.count(
            "core.trace_overhead_pct",
            100.0 * (tr.root_seconds() / untraced_roots_s - 1.0),
        );
    }
}

/// The traced run of a spec workload.
pub fn replay_spec(
    tr: &mut Tracer,
    w: &SpecWorkload,
    store_dir: &Path,
    serial_dir: &Path,
    parallel_dir: &Path,
) -> io::Result<PassResult> {
    let replay = Instant::now();
    let mut checks = Checks::default();
    let default_storage = w.default_storage();

    // Executor level, untraced: one parallel and one serial pass.
    let t = Instant::now();
    run_spec(
        w.spec(),
        &mut ResultsStore::open(parallel_dir)?,
        default_storage,
    )
    .map_err(spec_err)?;
    let parallel_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let serial = run_spec_serial(
        w.spec(),
        &mut ResultsStore::open(serial_dir)?,
        default_storage,
    )
    .map_err(spec_err)?;
    let serial_s = t.elapsed().as_secs_f64();

    let cells = tr
        .probe(
            "core",
            "ExperimentSpec::compile",
            w.spec().name.as_str(),
            Some("core.spec_compile_busy_s"),
            || w.spec().compile(),
        )
        .map_err(spec_err)?;
    tr.count("core.spec_cells", cells.len() as f64);

    // The same real calls without a span around them: what tracing costs.
    let memo = SoloMemo::new();
    let t = Instant::now();
    for cell in &cells {
        let storage = cell_storage(cell, default_storage);
        std::hint::black_box(execute_cell(cell, storage.as_ref(), &memo)?);
    }
    let untraced_roots_s = t.elapsed().as_secs_f64();

    let memo = SoloMemo::new();
    let mut probed = BTreeSet::new();
    let mut rows = Vec::with_capacity(cells.len());
    for cell in &cells {
        rows.push(replay_cell(
            tr,
            cell,
            default_storage,
            &memo,
            &mut probed,
            &mut checks,
        )?);
    }
    probe_store(tr, &cells, &rows, store_dir, &mut checks)?;
    finish_core_metrics(tr, untraced_roots_s, serial_s, parallel_s);

    let flat: Vec<RunSummary> = rows.into_iter().flatten().collect();
    let digest = digest_of(&cells, &flat, &mut checks);
    let serial_digest = digest_of(&cells, &serial.summaries, &mut checks);
    checks.check(digest == serial_digest, || {
        format!(
            "traced roots differ from run_spec_serial: {:?}",
            digest.diff(&serial_digest)
        )
    });
    Ok(PassResult {
        wall_s: replay.elapsed().as_secs_f64(),
        digest,
        checks,
        details: Vec::new(),
    })
}

// ---------------------------------------------------------------------------
// MACSio runs

/// Totals of a replayed MACSio run, compared with the real report.
#[derive(Debug, Default, PartialEq, Eq)]
struct MacsioTotals {
    bytes: u64,
    logical_bytes: u64,
    files: u64,
    read_bytes: u64,
    bytes_per_dump: Vec<u64>,
}

/// The puts of one dump, built the way `macsio::dump` builds them.
fn dump_puts(
    cfg: &MacsioConfig,
    dump: u32,
    blobs: Vec<Vec<u8>>,
    parts_per_rank: &[usize],
) -> Vec<Put> {
    let step = dump + 1;
    let nfiles = cfg.parallel_file_mode.files_per_dump(cfg.nprocs);
    let group_size = cfg.nprocs.div_ceil(nfiles);
    let mut puts = Vec::with_capacity(cfg.nprocs + 1);
    for (rank, blob) in blobs.into_iter().enumerate() {
        let group = rank / group_size;
        let path = match cfg.parallel_file_mode {
            FileMode::Sif => format!("/macsio_json_{dump:03}.json"),
            FileMode::Mif(_) => format!("/macsio_json_{group:05}_{dump:03}.json"),
        };
        puts.push(Put {
            key: IoKey {
                step,
                level: 0,
                task: rank as u32,
            },
            kind: IoKind::Data,
            path,
            payload: Payload::Bytes(blob.into()),
        });
    }
    let root = marshal_root(dump, cfg.nprocs, parts_per_rank, cfg.meta_size);
    puts.push(Put {
        key: IoKey {
            step,
            level: 0,
            task: 0,
        },
        kind: IoKind::Metadata,
        path: format!("/macsio_json_root_{dump:03}.json"),
        payload: Payload::Bytes(root.into()),
    });
    puts
}

/// Side probes on one dump's puts: the codec run serially (the stage
/// encodes on several threads inside `end_step`), the memory filesystem
/// alone, and the modeled link alone.
fn probe_puts(tr: &mut Tracer, cell: &str, cfg: &MacsioConfig, puts: &[Put]) {
    let data: Vec<(&Put, &[u8])> = puts
        .iter()
        .filter(|p| p.kind == IoKind::Data)
        .filter_map(|p| match &p.payload {
            Payload::Bytes(b) => Some((p, b.as_ref())),
            _ => None,
        })
        .collect();
    let mb = data.iter().map(|(_, b)| b.len()).sum::<usize>() as f64 / 1e6;

    let codec = cfg.compression.build();
    let (encode_metric, decode_metric) = codec_metrics(cfg.compression);
    let ctx = |p: &'_ Put| CodecContext {
        level: p.key.level,
        kind: p.kind,
        path: "",
    };
    let encoded: Vec<Vec<u8>> = tr.probe(
        "io-engine",
        "Codec::encode",
        cell,
        Some(encode_metric),
        || data.iter().map(|(p, b)| codec.encode(b, &ctx(p))).collect(),
    );
    tr.probe(
        "io-engine",
        "Codec::decode",
        cell,
        Some(decode_metric),
        || {
            for ((p, b), enc) in data.iter().zip(&encoded) {
                std::hint::black_box(codec.decode(enc, b.len() as u64, &ctx(p)));
            }
        },
    );
    tr.count("io-engine.codec_mb", mb);

    let fs = MemFs::new();
    tr.probe(
        "iosim",
        "MemFs::write_file_concat+read_file_shared",
        cell,
        Some("iosim.memfs_busy_s"),
        || {
            for (i, p) in puts.iter().enumerate() {
                if let Payload::Bytes(b) = &p.payload {
                    let path = format!("{}.{i}", p.path);
                    let written = fs.write_file_concat(&path, std::slice::from_ref(b));
                    std::hint::black_box((written.ok(), fs.read_file_shared(&path)));
                }
            }
        },
    );
    tr.count(
        "iosim.memfs_mb",
        puts.iter().map(|p| p.payload.len()).sum::<u64>() as f64 / 1e6,
    );

    if let BackendSpec::Streaming(spec) = cfg.io_backend {
        let net = spec.network();
        tr.probe(
            "mpi-sim",
            "NetworkModel::send",
            cell,
            Some("mpi-sim.link_send_busy_s"),
            || {
                let mut clock = SimClock::at(0.0);
                for p in puts {
                    net.send(&mut clock, p.payload.len());
                }
                clock.now()
            },
        );
        tr.count("mpi-sim.link_sends", puts.len() as f64);
    }
}

/// Replays one MACSio run's layers under `parent` and returns its totals.
fn replay_macsio_stages(
    tr: &mut Tracer,
    parent: usize,
    cell: &str,
    cfg: &MacsioConfig,
    fs: &MemFs,
    storage: Option<&StorageModel>,
) -> io::Result<MacsioTotals> {
    let scenario = cfg.effective_scenario();
    if scenario.fail_step().is_some()
        || scenario.check_every().is_some()
        || !scenario.analyze_every_ops().is_empty()
    {
        return Err(unsupported(format!(
            "{cell}: the staged replay covers write[;restart|;readall] scenarios"
        )));
    }
    let tracker = IoTracker::new();
    let mut backend = tr
        .child(parent, "io-engine", "build_with_codec", None, || {
            cfg.io_backend
                .build_with_codec(cfg.compression, fs as &dyn Vfs, &tracker)
        })
        .1;
    let put_metric = backend_slot(cfg.io_backend, PUT);
    let read_metric = backend_slot(cfg.io_backend, READ_STEP);
    let parts_per_rank: Vec<usize> = (0..cfg.nprocs).map(|r| cfg.parts_of_rank(r)).collect();
    let mut first_part_id = vec![0usize; cfg.nprocs];
    for r in 1..cfg.nprocs {
        first_part_id[r] = first_part_id[r - 1] + parts_per_rank[r - 1];
    }

    let mut totals = MacsioTotals::default();
    let mut clock = 0.0f64;
    for dump in 0..cfg.num_dumps {
        clock += cfg.compute_time;
        let nominal = cfg.grown_part_size(dump);
        let blobs: Vec<Vec<u8>> = tr
            .child(
                parent,
                "macsio",
                "marshal_part",
                Some("macsio.marshal_busy_s"),
                || {
                    (0..cfg.nprocs)
                        .map(|rank| {
                            let mut blob = Vec::new();
                            for p in 0..parts_per_rank[rank] {
                                let part = MeshPart::from_nominal_size(
                                    first_part_id[rank] + p,
                                    nominal,
                                    cfg.vars_per_part,
                                );
                                blob.extend_from_slice(&marshal_part(&part, dump, cfg.interface));
                            }
                            blob
                        })
                        .collect()
                },
            )
            .1;
        tr.count(
            "macsio.marshal_mb",
            blobs.iter().map(Vec::len).sum::<usize>() as f64 / 1e6,
        );
        let puts = dump_puts(cfg, dump, blobs, &parts_per_rank);
        tr.count(
            "io-engine.put_mb",
            puts.iter().map(|p| p.payload.logical_len()).sum::<u64>() as f64 / 1e6,
        );
        let mut stats = tr
            .child(
                parent,
                "io-engine",
                "begin_step+put+end_step",
                Some(put_metric),
                || {
                    backend.begin_step(dump + 1, "/");
                    for put in &puts {
                        backend.put(put.clone())?;
                    }
                    backend.end_step()
                },
            )
            .1?;
        probe_puts(tr, cell, cfg, &puts);
        drop(puts);

        totals.bytes += stats.bytes;
        totals.logical_bytes += stats.logical_bytes;
        totals.files += stats.files;
        totals.bytes_per_dump.push(stats.bytes);
        clock += stats.codec_seconds;
        if backend.in_transit() {
            clock += stats.net_seconds + stats.window_stall;
        } else if let Some(model) = storage {
            for r in &mut stats.requests {
                r.start = clock;
            }
            tr.count("iosim.burst_requests", stats.requests.len() as f64);
            let result = tr
                .child(
                    parent,
                    "iosim",
                    "simulate_burst",
                    Some("iosim.burst_busy_s"),
                    || model.simulate_burst(&stats.requests),
                )
                .1;
            if !stats.requests.is_empty() {
                clock = result.t_end;
            }
        }
    }

    let read_steps: Vec<u32> = scenario
        .trailing_ops()
        .iter()
        .flat_map(|op| match op {
            ScenarioOp::Restart => vec![cfg.num_dumps],
            ScenarioOp::ReadAll => (1..=cfg.num_dumps).collect(),
            _ => Vec::new(),
        })
        .collect();
    for step in read_steps {
        let read = tr
            .child(
                parent,
                "io-engine",
                "read_selection",
                Some(read_metric),
                || backend.read_selection(step, "/", &cfg.read_pattern),
            )
            .1?;
        totals.read_bytes += read.stats.logical_bytes;
        if let Some(model) = storage {
            let mut requests = read.stats.requests;
            for r in &mut requests {
                r.start = clock;
            }
            tr.count("iosim.read_burst_requests", requests.len() as f64);
            let result = tr
                .child(
                    parent,
                    "iosim",
                    "simulate_read_burst",
                    Some("iosim.read_burst_busy_s"),
                    || model.simulate_read_burst(&requests),
                )
                .1;
            if !requests.is_empty() {
                clock = result.t_end;
            }
        }
        clock += read.stats.codec_seconds;
    }
    tr.child(parent, "io-engine", "close", None, || backend.close())
        .1?;
    Ok(totals)
}

/// The traced run of `engine_matrix`.
pub fn replay_matrix(tr: &mut Tracer, w: &EngineMatrix) -> io::Result<PassResult> {
    let replay = Instant::now();
    let mut checks = Checks::default();
    let mut digest = Digest::new();

    let t = Instant::now();
    for run in w.runs() {
        std::hint::black_box(run_matrix_cell(run, w.storage())?);
    }
    let untraced_roots_s = t.elapsed().as_secs_f64();

    for run in w.runs() {
        let (root, real) = tr.root("macsio::run", &run.label, Some("macsio.run_busy_s"), || {
            run_matrix_cell(run, w.storage())
        });
        let (report, tracker) = real?;
        tr.count("macsio.runs", 1.0);
        checks.ops(1);
        record_matrix_cell(run, &report, &tracker, &mut digest, &mut checks);

        let fs = MemFs::new();
        let totals = replay_macsio_stages(tr, root, &run.label, &run.cfg, &fs, Some(w.storage()))?;
        let real_totals = MacsioTotals {
            bytes: report.total_bytes,
            logical_bytes: report.logical_bytes,
            files: report.files_written,
            read_bytes: report.read_bytes,
            bytes_per_dump: report.bytes_per_dump.clone(),
        };
        checks.check(totals == real_totals, || {
            format!(
                "{}: replay {totals:?} != macsio::run {real_totals:?}",
                run.label
            )
        });
    }
    // A pass is serial already: no executor above the runs.
    finish_core_metrics(tr, untraced_roots_s, untraced_roots_s, untraced_roots_s);
    Ok(PassResult {
        wall_s: replay.elapsed().as_secs_f64(),
        digest,
        checks,
        details: Vec::new(),
    })
}

// ---------------------------------------------------------------------------
// Proxy corners

/// The traced run of `proxy_pipeline`.
pub fn replay_proxy(tr: &mut Tracer, w: &ProxyPipeline) -> io::Result<PassResult> {
    let replay = Instant::now();
    let mut checks = Checks::default();
    let mut digest = Digest::new();
    let (mut mape, mut final_err) = (0.0f64, 0.0f64);

    let t = Instant::now();
    for cfg in w.corners() {
        std::hint::black_box(run_corner(cfg));
    }
    let untraced_roots_s = t.elapsed().as_secs_f64();

    for cfg in w.corners() {
        let (root, (amr_bytes, cmp)) = tr.root(
            "run_simulation+compare_with_macsio",
            &cfg.name,
            Some("core.run_cell_busy_s"),
            || run_corner(cfg),
        );
        tr.count("core.run_cells", 1.0);
        checks.ops(1);
        let (m, f) = record_corner(cfg, amr_bytes, &cmp, &mut digest, &mut checks);
        mape = mape.max(m);
        final_err = final_err.max(f);

        // The stages of `compare_with_macsio`, rebuilt from its inputs.
        let amr = tr
            .child(root, "core", "run_simulation", None, || {
                run_simulation(cfg, None, None)
            })
            .1;
        let target = amr.per_step_bytes();
        let inputs = amr.config.amr_inputs();
        let mut base = tr
            .child(root, "model", "translate", None, || {
                model::translate(
                    &inputs,
                    &model::TranslationModel {
                        f: 24.0,
                        dataset_growth: model::default_growth_guess(inputs.cfl, inputs.max_level),
                        compute_time: 0.0,
                        meta_size: 0,
                        compression_ratio: 1.0,
                    },
                )
            })
            .1;
        base.num_dumps = target.len() as u32;
        let calibration = tr
            .child(
                root,
                "model",
                "calibrate_two_parameter",
                Some("model.calibrate_busy_s"),
                || model::calibrate_two_parameter(&base, &target, inputs.n_cell, 2),
            )
            .1;
        tr.count("model.calibrate_evals", calibration.trace.len() as f64);
        let mut final_cfg = base;
        final_cfg.dataset_growth = calibration.dataset_growth;
        final_cfg.part_size = model::part_size(
            calibration.f,
            inputs.n_cell.0,
            inputs.n_cell.1,
            inputs.nprocs,
        );
        checks.check(final_cfg.command_line() == cmp.macsio_command, || {
            format!(
                "{}: replayed calibration gives '{}', the real one '{}'",
                cfg.name,
                final_cfg.command_line(),
                cmp.macsio_command
            )
        });

        let fs = MemFs::with_retention(0);
        let (proxy_run, report) = tr.child(
            root,
            "macsio",
            "macsio::run",
            Some("macsio.run_busy_s"),
            || macsio::run(&final_cfg, &fs, &IoTracker::new(), None),
        );
        let report = report?;
        tr.count("macsio.runs", 1.0);
        let fs = MemFs::with_retention(0);
        let totals = replay_macsio_stages(tr, proxy_run, &cfg.name, &final_cfg, &fs, None)?;
        let per_dump: Vec<f64> = totals.bytes_per_dump.iter().map(|&b| b as f64).collect();
        checks.check(
            totals.bytes_per_dump == report.bytes_per_dump && per_dump == cmp.macsio_per_step,
            || format!("{}: replayed dumps differ from the proxy run's", cfg.name),
        );

        let series = amr.xy_series();
        tr.count("model.fit_points", series.points.len() as f64);
        tr.probe(
            "model",
            "linear_fit",
            &cfg.name,
            Some("model.fit_busy_s"),
            || series.fit(),
        );
    }
    tr.count("model.proxy_mape_pct", mape);
    tr.count("model.proxy_final_err_pct", final_err);
    finish_core_metrics(tr, untraced_roots_s, untraced_roots_s, untraced_roots_s);
    Ok(PassResult {
        wall_s: replay.elapsed().as_secs_f64(),
        digest,
        checks,
        details: vec![("proxy_mape_pct", mape), ("proxy_final_err_pct", final_err)],
    })
}
