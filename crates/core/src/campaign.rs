//! The Table III parameter campaign.
//!
//! The paper performed 47 Summit runs sweeping `amr.n_cell`,
//! `amr.max_level`, `amr.plot_int`, `castro.cfl`, and the task count.
//! This module defines the equivalent 47-run campaign (hydro engine at
//! small scales, oracle at paper scales) and executes it in parallel.

use crate::config::{CastroSedovConfig, Engine};
use crate::run::{run_simulation, try_run_simulation_attached, RunResult};
use amr_mesh::GridParams;
use hydro::TimestepControl;
use serde::{Deserialize, Serialize};

/// Summary of one campaign run (serializable for the figure benches).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Run label.
    pub name: String,
    /// Level-0 cells per direction.
    pub n_cell: i64,
    /// `amr.max_level`.
    pub max_level: usize,
    /// `amr.plot_int`.
    pub plot_int: u64,
    /// `castro.cfl`.
    pub cfl: f64,
    /// Task count.
    pub nprocs: usize,
    /// Engine used.
    pub oracle: bool,
    /// I/O backend the run wrote through (`fpp`, `agg:<r>`, `deferred:<w>`).
    pub backend: String,
    /// Compression codec applied to plot data (`identity`, `rle:<r>`,
    /// `quant:<b>`).
    pub codec: String,
    /// Eq. (1)/(2) cumulative series.
    pub series: Vec<(f64, f64)>,
    /// Total logical bytes the workload produced (backend- and
    /// codec-invariant; the tracker's view).
    pub total_bytes: u64,
    /// Logical payload bytes through the backend plus checkpoint state
    /// (equals `physical_bytes - overhead_bytes` under the identity
    /// codec).
    pub logical_bytes: u64,
    /// Physical bytes shipped to storage (what compression reduces).
    pub physical_bytes: u64,
    /// Declared bookkeeping bytes inside `physical_bytes` (aggregation
    /// index tables, compression sidecars).
    pub overhead_bytes: u64,
    /// Logical output records in the tracker (backend-invariant).
    pub total_files: u64,
    /// Physical files the backend created (what aggregation reduces).
    pub physical_files: u64,
    /// Simulated wall-clock seconds (compute + I/O; 0 without a storage
    /// model).
    pub wall_time: f64,
    /// Modeled codec CPU seconds inside `wall_time`.
    pub codec_seconds: f64,
    /// True when the run restart-read its last dump back (the
    /// read-after-write campaign axis).
    pub restart: bool,
    /// Logical bytes restart-read back (0 for write-only runs;
    /// backend- and codec-invariant).
    pub read_bytes: u64,
    /// Physical bytes fetched from storage during the restart read
    /// (what compression and aggregation shrink).
    pub physical_read_bytes: u64,
    /// Simulated seconds of the restart-read phase (inside `wall_time`).
    pub read_wall: f64,
    /// Selective analysis-read pattern of the run (`none` without one;
    /// otherwise the `ReadSelection` spelling: `level:1`, `field:...`,
    /// `box:...`, `full`).
    pub read_pattern: String,
    /// True when the analysis read was served from the reorganized
    /// (read-optimized) layout instead of the raw written one.
    pub reorganized: bool,
    /// Logical bytes the selective analysis read delivered (layout- and
    /// codec-invariant: the matched chunks' logical volume).
    pub selective_read_bytes: u64,
    /// Physical bytes the selective analysis read fetched — the column
    /// the raw-vs-reorganized comparison prices.
    pub selective_physical_read_bytes: u64,
    /// Simulated seconds of the selective analysis read (inside
    /// `wall_time`; excludes the reorganization pass).
    pub selective_read_wall: f64,
    /// Simulated seconds of the reorganization pass itself (0 for raw
    /// runs) — what selective-read savings must amortize.
    pub reorg_wall: f64,
    /// Canonical spelling of the scenario the run executed (`write`,
    /// `write;restart`, `write;check@4;fail@10;restart`, ...).
    pub scenario: String,
    /// Restart reads performed (mid-run recoveries + trailing reads).
    pub restarts: u32,
    /// Physical bytes of checkpoint dumps inside `physical_bytes` (the
    /// checkpoint plane is priced through the same backend/codec stack
    /// but reported separately from plot totals).
    pub check_bytes: u64,
    /// Physical files of checkpoint dumps inside `physical_files`.
    pub check_files: u64,
    /// Simulated seconds of checkpoint bursts (inside `wall_time`).
    pub check_wall: f64,
    /// Simulated seconds of compute phases (inside `wall_time`; includes
    /// compute re-paid after mid-run restarts).
    pub compute_wall: f64,
    /// Simulated seconds of plot-dump bursts on the application clock.
    pub plot_wall: f64,
    /// Simulated seconds the closing flush barrier waited on drains.
    pub drain_wall: f64,
    /// Tenant index on the shared fabric (0 for solo runs; defaulted so
    /// pre-tenancy summary blobs still deserialize).
    #[serde(default)]
    pub tenant: usize,
    /// Tenants sharing the fabric during this run (1 for solo runs).
    #[serde(default)]
    pub tenants: usize,
    /// Wall the same workload would have taken alone on the same
    /// storage (equals `wall_time` for solo runs; 0 in pre-tenancy
    /// blobs).
    #[serde(default)]
    pub solo_wall: f64,
    /// `wall_time / solo_wall` — the interference slowdown (1.0 solo).
    #[serde(default)]
    pub slowdown: f64,
    /// Simulated seconds lost to other tenants' traffic (fair share
    /// below solo rate).
    #[serde(default)]
    pub contention_stall: f64,
    /// Always 0; kept so stored rows and artifacts keep their bytes.
    #[serde(default)]
    pub throttle_stall: f64,
    /// Always 0; kept so stored rows and artifacts keep their bytes.
    #[serde(default)]
    pub staging_wait: f64,
    /// Bytes shipped over the modeled interconnect instead of storage
    /// (in-transit streaming backends only; defaulted so pre-streaming
    /// summary blobs still deserialize).
    #[serde(default)]
    pub net_bytes: u64,
    /// Link-transfer seconds for `net_bytes` (inside
    /// `plot_wall`/`check_wall`).
    #[serde(default)]
    pub net_wall: f64,
    /// Producer seconds stalled on consumer-window back-pressure
    /// (disjoint from `net_wall`).
    #[serde(default)]
    pub window_stall: f64,
}

impl RunSummary {
    pub(crate) fn from_result(r: &RunResult) -> Self {
        let xy = r.xy_series();
        let t = &r.totals;
        // The scenario and read-plane columns derive from the *effective*
        // scenario, so scenario-first configs and legacy boolean configs
        // report identically.
        let scenario = r.config.effective_scenario();
        let analyze = scenario.ops.iter().find_map(|op| match op {
            io_engine::ScenarioOp::Analyze { sel, reorganize }
            | io_engine::ScenarioOp::AnalyzeEvery {
                sel, reorganize, ..
            } => Some((sel.clone(), *reorganize)),
            _ => None,
        });
        Self {
            name: r.config.name.clone(),
            n_cell: r.config.n_cell,
            max_level: r.config.max_level,
            plot_int: r.config.plot_int,
            cfl: r.config.cfl(),
            nprocs: r.config.nprocs,
            oracle: r.config.engine == Engine::Oracle,
            backend: r.config.backend.name(),
            codec: r.config.codec.name(),
            series: xy.points.iter().map(|p| (p.x, p.y)).collect(),
            total_bytes: xy.final_bytes() as u64,
            logical_bytes: t.engine.logical_bytes,
            physical_bytes: t.engine.bytes,
            overhead_bytes: t.engine.overhead_bytes,
            total_files: r.tracker.total_files(),
            physical_files: t.engine.files,
            wall_time: t.wall_time,
            codec_seconds: t.all_codec_seconds(),
            restart: t.restarts > 0,
            read_bytes: t.restart.bytes,
            physical_read_bytes: t.restart.physical_bytes,
            read_wall: t.restart.wall,
            read_pattern: analyze
                .as_ref()
                .map_or_else(|| "none".to_string(), |(sel, _)| sel.name()),
            // Reorganization only runs as part of an analysis read; a
            // config with the flag set but no pattern rewrote nothing.
            reorganized: analyze.as_ref().is_some_and(|(_, reorg)| *reorg),
            selective_read_bytes: t.analysis.bytes,
            selective_physical_read_bytes: t.analysis.physical_bytes,
            selective_read_wall: t.analysis.wall,
            reorg_wall: t.reorg_wall,
            scenario: scenario.name(),
            restarts: t.restarts,
            check_bytes: t.check_bytes,
            check_files: t.check_files,
            check_wall: t.check_wall,
            compute_wall: t.compute_wall,
            plot_wall: t.plot_wall,
            drain_wall: t.drain_wall,
            // Solo tenancy defaults; `run_campaign_fabric` overlays the
            // shared-fabric columns after the tenants join.
            tenant: 0,
            tenants: 1,
            solo_wall: t.wall_time,
            slowdown: 1.0,
            contention_stall: 0.0,
            throttle_stall: 0.0,
            staging_wait: 0.0,
            net_bytes: t.net_bytes,
            net_wall: t.net_wall,
            window_stall: t.window_stall,
        }
    }
}

/// Builds the 47-run campaign of Table III.
///
/// Scales and ranks follow the paper's ladder (32^2 on 1 task up to
/// 8192^2 on the equivalent of 64 nodes); the paper's two largest
/// configurations (17 G cells) are represented by the 8192^2 oracle runs,
/// as documented in docs/MODEL.md ("Documented substitutions").
pub fn table3_campaign() -> Vec<CastroSedovConfig> {
    let mut runs = Vec::new();
    let grid = GridParams {
        ref_ratio: 2,
        blocking_factor: 8,
        max_grid_size: 256,
        n_error_buf: 2,
        grid_eff: 0.7,
    };
    // (n_cell, nprocs, engine) ladder.
    let ladder: &[(i64, usize, Engine)] = &[
        (32, 1, Engine::Hydro),
        (64, 2, Engine::Hydro),
        (128, 4, Engine::Hydro),
        (256, 8, Engine::Hydro),
        (512, 32, Engine::Oracle),
        (1024, 64, Engine::Oracle),
        (2048, 128, Engine::Oracle),
        (4096, 512, Engine::Oracle),
        (8192, 1024, Engine::Oracle),
    ];
    let mut push = |n: i64, p: usize, e: Engine, maxl: usize, cfl: f64, plot_int: u64| {
        let max_grid = grid.max_grid_size.min(n.max(grid.blocking_factor));
        // The hydro engine needs Castro's protective ramp but a faster one
        // than init_shrink=0.01 so the blast ignites within the campaign's
        // step budget; the oracle starts CFL-limited (see cases.rs).
        let ctrl = match e {
            Engine::Hydro => TimestepControl {
                cfl,
                init_shrink: 0.5,
                change_max: 1.4,
            },
            Engine::Oracle => TimestepControl {
                cfl,
                init_shrink: 1.0,
                change_max: 1.1,
            },
        };
        runs.push(CastroSedovConfig {
            name: format!("n{n}_p{p}_l{maxl}_cfl{cfl}_pi{plot_int}"),
            engine: e,
            n_cell: n,
            max_level: maxl,
            max_step: 120,
            stop_time: 0.5,
            plot_int,
            regrid_int: 2,
            grid: GridParams {
                max_grid_size: max_grid,
                ..grid
            },
            nprocs: p,
            ctrl,
            account_only: true,
            ..Default::default()
        });
    };
    // Base sweep: every rung at the Listing 2 defaults.
    for &(n, p, e) in ladder {
        push(n, p, e, 2, 0.5, 2);
    }
    // Level sweep on the middle rungs (the Fig. 6 driver).
    for &(n, p, e) in &ladder[2..7] {
        for maxl in [3, 4] {
            push(n, p, e, maxl, 0.5, 2);
        }
    }
    // CFL sweep (Table III range 0.3-0.6; the smallest rung keeps only
    // the extremes, which is what lands the campaign at 47 runs).
    for &(n, p, e) in &ladder[2..7] {
        for cfl in [0.3, 0.4, 0.6] {
            if n == 128 && cfl == 0.4 {
                continue;
            }
            push(n, p, e, 2, cfl, 2);
        }
    }
    // Output-frequency sweep (plot_int 1-20).
    for &(n, p, e) in &ladder[3..7] {
        for pi in [1, 5, 20] {
            push(n, p, e, 2, 0.5, pi);
        }
    }
    // The paper's heavy pivot combinations (case4/case27 relatives).
    push(512, 32, Engine::Oracle, 4, 0.4, 1);
    push(1024, 64, Engine::Oracle, 3, 0.5, 10);
    debug_assert_eq!(runs.len(), 47, "Table III count");
    runs
}

/// Runs each configuration in turn, untimed (walls are zero), returning
/// summaries in the input order. `amrbench` is its only consumer outside
/// this crate's tests; a campaign runs through
/// [`run_spec`](crate::run_spec).
pub fn run_campaign_serial(configs: &[CastroSedovConfig]) -> Vec<RunSummary> {
    configs
        .iter()
        .map(|cfg| RunSummary::from_result(&run_simulation(cfg, None, None)))
        .collect()
}

/// Runs each configuration in turn, timed against `storage`, returning
/// summaries in the input order. `amrbench` is its only consumer outside
/// this crate's tests; a campaign runs through
/// [`run_spec`](crate::run_spec).
pub fn run_campaign_timed_serial(
    configs: &[CastroSedovConfig],
    storage: &iosim::StorageModel,
) -> Vec<RunSummary> {
    configs
        .iter()
        .map(|cfg| RunSummary::from_result(&run_simulation(cfg, None, Some(storage))))
        .collect()
}

/// Serves the solo shadow of one fabric run's tenants from `memo` when
/// it already holds the key (see [`run_campaign_fabric`]). On a miss
/// the memo comes back for the caller to fill from the first tenant's
/// sealed solo wall.
fn price_solo<'m>(
    memo: Option<(&'m iosim::SoloMemo, &'m str)>,
    handles: &mut [iosim::FabricHandle],
) -> Option<(&'m iosim::SoloMemo, &'m str)> {
    let (solo_memo, key) = memo?;
    let Some(wall) = solo_memo.get(key) else {
        return memo;
    };
    for handle in handles {
        handle.set_solo_pricing(iosim::SoloPricing::Known(wall));
    }
    None
}

/// Overlays the shared-fabric columns on a tenant's summary.
fn stamp_tenancy(summary: &mut RunSummary, stats: &iosim::TenantStats, tenants: usize) {
    summary.tenant = stats.tenant;
    summary.tenants = tenants;
    summary.solo_wall = stats.solo_wall;
    summary.slowdown = stats.slowdown();
    summary.contention_stall = stats.contention_stall;
}

/// Runs a set of configurations *concurrently* against one shared
/// storage fabric — the machine-room campaign. Every config becomes a
/// tenant on the fabric (registration order = input order), all runs
/// overlap in simulated time, and the returned summaries carry the
/// tenancy columns: shared wall (`wall_time`), the exact solo wall the
/// same workload would have taken alone (`solo_wall`), their ratio
/// (`slowdown`), and the service lost to neighbour traffic
/// (`contention_stall`).
///
/// Every tenant's run is a future, and [`iosim::Fabric::run`] drives
/// them all on the calling thread: each runs until it waits on a burst,
/// then the fabric advances its clock. A panicking tenant's panic
/// propagates out of this call.
///
/// `memo` memoizes the solo shadow under a key: the solo baseline is
/// priced once per key across a campaign. On a hit every tenant's
/// scheduler gets [`iosim::SoloPricing::Known`] and skips its shadow
/// replay; on a miss the replay runs cold and the first tenant's solo
/// wall fills the memo. The shadow is a passive observer (a private
/// model copy), so pricing mode never perturbs the shared simulation —
/// `known_solo_pricing_matches_the_cold_shadow_bit_for_bit` in
/// `iosim::schedule` pins that.
///
/// The memo is also the *semantic anchor* for the solo columns: one
/// configuration has one solo baseline, taken from the first cell that
/// prices it. Re-deriving it per tenancy rung reproduces the same number
/// only to within an ulp (the shared clock's magnitude leaks into the
/// float rounding of the replayed compute deltas), so the spec executors
/// — serial and parallel alike — route every tenancy cell through a memo
/// to keep their outputs bit-identical.
pub fn run_campaign_fabric(
    configs: &[CastroSedovConfig],
    storage: &iosim::StorageModel,
    memo: Option<(&iosim::SoloMemo, &str)>,
) -> Vec<RunSummary> {
    if configs.is_empty() {
        return Vec::new();
    }
    let fabric = iosim::Fabric::new(*storage);
    // Register every tenant before the first burst (the fabric's
    // conservative clock must know every tenant up front).
    let mut handles: Vec<iosim::FabricHandle> =
        configs.iter().map(|cfg| fabric.tenant(&cfg.name)).collect();
    let unfilled = price_solo(memo, &mut handles);
    let mut summaries = fabric.run(configs.iter().zip(handles).map(|(cfg, handle)| async move {
        let attach = iosim::StorageAttach::Fabric(handle);
        let run = try_run_simulation_attached(cfg, None, attach).await;
        RunSummary::from_result(&run.unwrap_or_else(|e| panic!("scenario I/O: {e}")))
    }));
    let stats = fabric.tenant_stats();
    if let Some((memo, key)) = unfilled {
        memo.fill(key, stats[0].solo_wall);
    }
    for (summary, stats) in summaries.iter_mut().zip(&stats) {
        stamp_tenancy(summary, stats, configs.len());
    }
    summaries
}

/// [`run_campaign_fabric`] specialized to *identical clones* — the
/// throughput-scaling cells, N copies of one configuration differing
/// only in display name. Instead of N application runs, the single real
/// run drives a clone group
/// ([`iosim::Fabric::tenant_clones`]): each of its requests is one
/// server record standing for all N clones, so contention is priced over
/// the full N-tenant load at a single tenant's cost, and the clones'
/// summaries are composed from the real run plus each mirror slot's
/// stats (its leader's, under the mirror's name). Clone symmetry makes
/// this bit-identical to the fleet of N runs (request paths and noise
/// draws are independent of the display name), which the spec-parallel
/// property tests pin against [`run_campaign_fabric`].
///
/// `memo` optionally memoizes the solo shadow replay under `solo_key`
/// (the cell's label/tenancy-independent config key), exactly as
/// [`run_campaign_fabric`]'s `memo` does for the fleet.
///
/// # Panics
/// Panics if `configs` are not identical modulo `name` — the caller
/// (the spec executor) constructs them as clones by definition.
pub fn run_campaign_fabric_cloned(
    configs: &[CastroSedovConfig],
    storage: &iosim::StorageModel,
    memo: Option<(&iosim::SoloMemo, &str)>,
) -> Vec<RunSummary> {
    if configs.is_empty() {
        return Vec::new();
    }
    assert!(
        configs.iter().all(|c| {
            let mut normalized = c.clone();
            normalized.name.clone_from(&configs[0].name);
            normalized == configs[0]
        }),
        "run_campaign_fabric_cloned: configs must be identical modulo name"
    );
    let fabric = iosim::Fabric::new(*storage);
    let names: Vec<&str> = configs.iter().map(|c| c.name.as_str()).collect();
    let mut group = fabric.tenant_clones(&names);
    let unfilled = price_solo(memo, std::slice::from_mut(&mut group));
    // One real application run; its requests carry the mirror slots'
    // copies, and the mirrors report its stats. The group is the
    // fabric's only driver, so the run advances the engine inline.
    let real = iosim::block_on(try_run_simulation_attached(
        &configs[0],
        None,
        iosim::StorageAttach::Fabric(group),
    ))
    .unwrap_or_else(|e| panic!("scenario I/O: {e}"));
    let real = RunSummary::from_result(&real);
    let stats = fabric.tenant_stats();
    if let Some((memo, key)) = unfilled {
        memo.fill(key, stats[0].solo_wall);
    }
    configs
        .iter()
        .zip(&stats)
        .map(|(cfg, st)| {
            let mut summary = real.clone();
            summary.name.clone_from(&cfg.name);
            stamp_tenancy(&mut summary, st, configs.len());
            summary
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ExperimentSpec, Layout, RunMode};
    use io_engine::{BackendSpec, CodecSpec, ReadSelection, Scenario};

    /// A 64^2 four-rank oracle run with enough modelled compute for
    /// walls to be comparable across the axes.
    fn sedov64(name: &str, max_step: u64, plot_int: u64) -> CastroSedovConfig {
        CastroSedovConfig {
            name: name.into(),
            engine: Engine::Oracle,
            n_cell: 64,
            max_step,
            plot_int,
            nprocs: 4,
            account_only: true,
            compute_ns_per_cell: 40_000.0,
            ..Default::default()
        }
    }

    /// The declared matrix over `bases`, compiled to its configurations.
    fn matrix_of(
        bases: &[CastroSedovConfig],
        axes: impl FnOnce(ExperimentSpec) -> ExperimentSpec,
    ) -> Vec<CastroSedovConfig> {
        let cells = axes(ExperimentSpec::over("matrix", bases)).compile();
        let cells = cells.expect("base run labels are distinct");
        cells.into_iter().map(|c| c.config).collect()
    }

    #[test]
    fn campaign_has_exactly_47_runs() {
        assert_eq!(table3_campaign().len(), 47);
    }

    #[test]
    fn campaign_covers_table3_ranges() {
        let runs = table3_campaign();
        let ncells: Vec<i64> = runs.iter().map(|r| r.n_cell).collect();
        assert!(ncells.contains(&32));
        assert!(ncells.contains(&8192));
        let cfls: Vec<f64> = runs.iter().map(|r| r.ctrl.cfl).collect();
        assert!(cfls.contains(&0.3));
        assert!(cfls.contains(&0.6));
        let pis: Vec<u64> = runs.iter().map(|r| r.plot_int).collect();
        assert!(pis.contains(&1));
        assert!(pis.contains(&20));
        let nprocs: Vec<usize> = runs.iter().map(|r| r.nprocs).collect();
        assert!(nprocs.contains(&1));
        assert!(nprocs.contains(&1024));
        let levels: Vec<usize> = runs.iter().map(|r| r.max_level).collect();
        assert!(levels.contains(&2));
        assert!(levels.contains(&4));
    }

    #[test]
    fn run_names_are_unique() {
        let runs = table3_campaign();
        let mut names: Vec<String> = runs.iter().map(|r| r.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), runs.len());
    }

    #[test]
    fn backend_sweep_is_a_scenario_matrix() {
        let base = vec![
            CastroSedovConfig {
                name: "a".into(),
                ..Default::default()
            },
            CastroSedovConfig {
                name: "b".into(),
                ..Default::default()
            },
        ];
        let backends = [
            BackendSpec::FilePerProcess,
            BackendSpec::Aggregated(4),
            BackendSpec::Deferred(1),
        ];
        let matrix = matrix_of(&base, |s| s.backends(&backends));
        assert_eq!(matrix.len(), 6);
        let mut names: Vec<String> = matrix.iter().map(|c| c.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 6, "scenario names stay unique");
        assert!(matrix
            .iter()
            .any(|c| c.backend == BackendSpec::Aggregated(4)));
        assert!(matrix.iter().any(|c| c.name == "a_agg4"));
    }

    #[test]
    fn streamed_tenant_attributes_stall_to_the_window_not_contention() {
        // A lone streamed tenant on a fabric: the slow consumer (10 MB/s
        // behind its 100 MB/s link) stalls the producer, and the stall
        // lands in `window_stall` — never in the fabric's
        // `contention_stall`, which belongs to server-plane neighbours.
        let cfg = CastroSedovConfig {
            name: "streamed".into(),
            engine: Engine::Oracle,
            n_cell: 64,
            max_step: 8,
            plot_int: 2,
            nprocs: 4,
            account_only: true,
            backend: BackendSpec::parse("streaming:100:1:10").unwrap(),
            ..Default::default()
        };
        let storage = iosim::StorageModel::ideal(2, 5e7);
        let summaries = run_campaign_fabric(&[cfg], &storage, None);
        let s = &summaries[0];
        assert!(s.net_bytes > 0, "the run streamed");
        assert!(s.net_wall > 0.0);
        assert!(s.window_stall > 0.0, "slow consumer must back-pressure");
        assert_eq!(s.contention_stall, 0.0, "no server-plane neighbours");
        assert_eq!(s.physical_bytes, 0, "nothing reached the servers");
    }

    #[test]
    fn backend_axis_preserves_byte_totals_and_orders_wall_clock() {
        let base = sedov64("axis", 8, 2);
        let matrix = matrix_of(&[base], |s| {
            s.backends(&[
                BackendSpec::FilePerProcess,
                BackendSpec::Aggregated(4),
                BackendSpec::Deferred(1),
            ])
        });
        let storage = iosim::StorageModel::ideal(2, 5e7);
        let summaries = run_campaign_timed_serial(&matrix, &storage);
        // The workload's byte accounting is backend-invariant.
        assert_eq!(summaries[0].total_bytes, summaries[1].total_bytes);
        assert_eq!(summaries[0].total_bytes, summaries[2].total_bytes);
        // Deferred overlaps drains with compute: strictly less wall-clock
        // than the synchronous N-to-N run of the same byte volume.
        let fpp = summaries[0].wall_time;
        let deferred = summaries[2].wall_time;
        assert!(deferred < fpp, "deferred {deferred} must beat fpp {fpp}");
    }

    #[test]
    fn backend_codec_sweep_is_the_full_matrix() {
        let base = vec![CastroSedovConfig {
            name: "m".into(),
            ..Default::default()
        }];
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
        let matrix = matrix_of(&base, |s| s.backends(&backends).codecs(&codecs));
        assert_eq!(matrix.len(), 9);
        let mut names: Vec<String> = matrix.iter().map(|c| c.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 9, "scenario names stay unique");
        // Fractional codec parameters stay distinguishable in names.
        let tricky = matrix_of(&base, |s| {
            s.backends(&[BackendSpec::FilePerProcess])
                .codecs(&[CodecSpec::Rle(2.1), CodecSpec::Rle(21.0)])
        });
        assert_ne!(tricky[0].name, tricky[1].name, "{:?}", tricky[0].name);
        assert!(matrix.iter().any(
            |c| c.backend == BackendSpec::Aggregated(4) && c.codec == CodecSpec::LossyQuant(8)
        ));
        // The identity column matches backend_sweep's spelling convention.
        assert!(matrix.iter().any(|c| c.name == "m_fpp_identity"));
    }

    #[test]
    fn codec_axis_reduces_physical_bytes_and_wall_clock() {
        // The acceptance slice: 3 backends x 3 codecs on the Sedov case,
        // reporting physical bytes, logical bytes, and wall-clock.
        let base = sedov64("sedov", 8, 2);
        let matrix = matrix_of(&[base], |s| {
            s.backends(&[
                BackendSpec::FilePerProcess,
                BackendSpec::Aggregated(4),
                BackendSpec::Deferred(1),
            ])
            .codecs(&[
                CodecSpec::Identity,
                CodecSpec::Rle(2.0),
                CodecSpec::LossyQuant(8),
            ])
        });
        let storage = iosim::StorageModel::ideal(2, 5e7);
        let summaries = run_campaign_timed_serial(&matrix, &storage);
        assert_eq!(summaries.len(), 9);
        // Logical accounting is invariant across the whole matrix, and
        // physical payload bytes (net of declared bookkeeping) never
        // exceed logical bytes.
        for s in &summaries {
            assert_eq!(s.total_bytes, summaries[0].total_bytes, "{}", s.name);
            assert!(
                s.physical_bytes - s.overhead_bytes <= s.logical_bytes,
                "{}",
                s.name
            );
            assert!(s.wall_time > 0.0);
        }
        // LossyQuant strictly reduces physical bytes and wall-clock vs
        // identity on every backend.
        for backend in ["fpp", "agg:4", "deferred:1"] {
            let of = |codec: &str| {
                summaries
                    .iter()
                    .find(|s| s.backend == backend && s.codec == codec)
                    .unwrap_or_else(|| panic!("{backend}/{codec} present"))
            };
            let id = of("identity");
            let quant = of("quant:8");
            assert_eq!(
                id.physical_bytes - id.overhead_bytes,
                id.logical_bytes,
                "identity is 1:1 on payload bytes"
            );
            assert!(
                quant.physical_bytes < id.physical_bytes,
                "{backend}: quant {} must beat identity {}",
                quant.physical_bytes,
                id.physical_bytes
            );
            assert!(
                quant.wall_time < id.wall_time,
                "{backend}: quant {} s must beat identity {} s",
                quant.wall_time,
                id.wall_time
            );
            assert!(quant.codec_seconds > 0.0);
            let payload = quant.physical_bytes - quant.overhead_bytes;
            assert!(
                quant.logical_bytes as f64 / payload as f64 > 3.0,
                "{backend}"
            );
        }
    }

    #[test]
    fn restart_sweep_crosses_the_full_cube() {
        let base = vec![CastroSedovConfig {
            name: "m".into(),
            ..Default::default()
        }];
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
        let matrix = matrix_of(&base, |s| {
            s.backends(&backends)
                .codecs(&codecs)
                .modes(&[RunMode::Write, RunMode::Restart])
        });
        assert_eq!(matrix.len(), 18, "3 backends x 3 codecs x 2 modes");
        assert_eq!(matrix.iter().filter(|c| c.read_after_write).count(), 9);
        let mut names: Vec<String> = matrix.iter().map(|c| c.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 18, "scenario names stay unique");
        assert!(matrix
            .iter()
            .any(|c| c.name == "m_agg4_quant8_restart" && c.read_after_write));
    }

    #[test]
    fn restart_axis_prices_recovery_reads() {
        let base = sedov64("rst", 6, 2);
        let matrix = matrix_of(&[base], |s| {
            s.backends(&[BackendSpec::FilePerProcess, BackendSpec::Aggregated(4)])
                .codecs(&[CodecSpec::Identity, CodecSpec::LossyQuant(8)])
                .modes(&[RunMode::Write, RunMode::Restart])
        });
        let storage = iosim::StorageModel::ideal(2, 5e7);
        let summaries = run_campaign_timed_serial(&matrix, &storage);
        for s in &summaries {
            if s.restart {
                assert!(s.read_bytes > 0, "{}", s.name);
                assert!(s.read_wall > 0.0, "{}", s.name);
                assert!(s.physical_read_bytes > 0, "{}", s.name);
            } else {
                assert_eq!(s.read_bytes, 0, "{}", s.name);
                assert_eq!(s.read_wall, 0.0, "{}", s.name);
            }
        }
        // Logical read bytes are backend- and codec-invariant; physical
        // read bytes shrink under compression (restart reads less wire).
        let restarts: Vec<_> = summaries.iter().filter(|s| s.restart).collect();
        assert!(restarts
            .windows(2)
            .all(|w| w[0].read_bytes == w[1].read_bytes));
        let of = |backend: &str, codec: &str| {
            restarts
                .iter()
                .find(|s| s.backend == backend && s.codec == codec)
                .copied()
                .unwrap_or_else(|| panic!("{backend}/{codec}"))
        };
        for b in ["fpp", "agg:4"] {
            let id = of(b, "identity");
            let q = of(b, "quant:8");
            assert!(
                q.physical_read_bytes < id.physical_read_bytes,
                "{b}: compressed restart fetches less wire"
            );
            assert!(q.read_wall < id.read_wall, "{b}: and finishes faster");
            // Decode CPU lands in codec_seconds next to the encode cost.
            let q_write = summaries
                .iter()
                .find(|s| !s.restart && s.backend == b && s.codec == "quant:8")
                .unwrap();
            assert!(
                q.codec_seconds > q_write.codec_seconds,
                "{b}: restart adds decode CPU to codec_seconds"
            );
        }
    }

    #[test]
    fn analysis_sweep_crosses_patterns_and_layouts() {
        let base = vec![CastroSedovConfig {
            name: "m".into(),
            ..Default::default()
        }];
        let backends = [BackendSpec::FilePerProcess, BackendSpec::Aggregated(4)];
        let codecs = [CodecSpec::Identity, CodecSpec::LossyQuant(8)];
        let patterns = [
            ReadSelection::Level(1),
            ReadSelection::parse("box:0-1,0-3").unwrap(),
        ];
        let matrix = matrix_of(&base, |s| {
            s.backends(&backends)
                .codecs(&codecs)
                .patterns(&patterns)
                .layouts(&[Layout::Raw, Layout::Reorg])
        });
        assert_eq!(matrix.len(), 2 * 2 * 2 * 2, "b x c x pattern x layout");
        let mut names: Vec<String> = matrix.iter().map(|c| c.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), matrix.len(), "scenario names stay unique");
        assert!(matrix
            .iter()
            .any(|c| c.name == "m_agg4_quant8_level1_reorg" && c.reorganize));
        assert!(matrix
            .iter()
            .any(|c| c.name == "m_fpp_identity_box0to1_0to3_raw"));
        assert!(matrix
            .iter()
            .all(|c| c.analysis_read.is_some() && !c.read_after_write));

        // Lossy tag flattening must not collapse distinct patterns into
        // one scenario name: colliding tags are index-disambiguated.
        let colliding = matrix_of(&base, |s| {
            s.backends(&[BackendSpec::FilePerProcess])
                .codecs(&[CodecSpec::Identity])
                .patterns(&[
                    ReadSelection::Field("a,b".into()),
                    ReadSelection::Field("a.b".into()),
                ])
                .layouts(&[Layout::Raw, Layout::Reorg])
        });
        let mut names: Vec<String> = colliding.iter().map(|c| c.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), colliding.len(), "{names:?}");
    }

    #[test]
    fn reorganized_column_requires_an_analysis_read() {
        // A config with the reorganize flag but no analysis pattern
        // rewrites nothing; the summary must not claim it did.
        let cfg = CastroSedovConfig {
            name: "noop".into(),
            engine: Engine::Oracle,
            n_cell: 64,
            max_step: 4,
            plot_int: 2,
            nprocs: 2,
            account_only: true,
            reorganize: true,
            ..Default::default()
        };
        let s = &run_campaign_serial(&[cfg])[0];
        assert!(!s.reorganized);
        assert_eq!(s.read_pattern, "none");
        assert_eq!(s.reorg_wall, 0.0);
    }

    #[test]
    fn analysis_axis_prices_reorganization_against_selective_reads() {
        // The acceptance slice at campaign level: on the aggregated
        // backend, a by-level analysis read of the reorganized layout
        // fetches strictly fewer physical bytes and strictly less wall
        // than the same selection on the raw layout — and the logical
        // volume delivered is layout-invariant.
        let base = sedov64("ana", 6, 2);
        let matrix = matrix_of(&[base], |s| {
            s.backends(&[BackendSpec::Aggregated(2)])
                .codecs(&[CodecSpec::Identity])
                .patterns(&[ReadSelection::Level(1)])
                .layouts(&[Layout::Raw, Layout::Reorg])
        });
        // Bandwidth-bound storage (one server class): wall tracks bytes
        // moved + files opened. On wide stripes the raw layout's scatter
        // can buy parallelism back — the reorg module docs call out that
        // trade; here we pin the volume/open-count win.
        let storage = iosim::StorageModel {
            open_latency: 1e-3,
            ..iosim::StorageModel::ideal(1, 5e7)
        };
        let summaries = run_campaign_timed_serial(&matrix, &storage);
        assert_eq!(summaries.len(), 2);
        let raw = summaries.iter().find(|s| !s.reorganized).unwrap();
        let opt = summaries.iter().find(|s| s.reorganized).unwrap();
        assert_eq!(raw.read_pattern, "level:1");
        assert!(raw.selective_read_bytes > 0);
        assert_eq!(raw.selective_read_bytes, opt.selective_read_bytes);
        assert!(
            opt.selective_physical_read_bytes < raw.selective_physical_read_bytes,
            "reorg {} must fetch less than raw {}",
            opt.selective_physical_read_bytes,
            raw.selective_physical_read_bytes
        );
        assert!(
            opt.selective_read_wall < raw.selective_read_wall,
            "reorg {} s must beat raw {} s",
            opt.selective_read_wall,
            raw.selective_read_wall
        );
        // The rewrite itself is priced, not free.
        assert!(opt.reorg_wall > 0.0);
        assert_eq!(raw.reorg_wall, 0.0);
    }

    #[test]
    fn scenario_sweep_crosses_configs_and_scenarios() {
        let base = vec![CastroSedovConfig {
            name: "m".into(),
            ..Default::default()
        }];
        let scenarios = [
            Scenario::write_only(),
            Scenario::parse("write;check@4;fail@10;restart").unwrap(),
            Scenario::in_run_analysis(2, ReadSelection::Level(1)),
        ];
        let matrix = matrix_of(&base, |s| s.scenarios(&scenarios));
        assert_eq!(matrix.len(), 3);
        let mut names: Vec<String> = matrix.iter().map(|c| c.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 3, "scenario names stay unique");
        assert!(matrix.iter().all(|c| c.scenario.is_some()));
        assert!(matrix.iter().any(|c| c.name == "m_write"));
        assert!(matrix
            .iter()
            .any(|c| c.name == "m_write_check4_fail10_restart"));

        // Lossy tag flattening must not collapse distinct scenarios.
        let colliding = matrix_of(&base, |s| {
            s.scenarios(&[
                Scenario::parse("write;analyze:field:a,b").unwrap(),
                Scenario::parse("write;analyze:field:a.b").unwrap(),
            ])
        });
        let mut names: Vec<String> = colliding.iter().map(|c| c.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), colliding.len(), "{names:?}");

        // Regression: a disambiguating rename must not collide with a
        // *third* scenario whose flattening already looks renamed
        // (field `xy_s1` flattens to exactly what `xy`'s rename
        // produces). The dedup iterates to a fixed point.
        let adversarial = matrix_of(&base, |s| {
            s.scenarios(&[
                Scenario::parse("write;analyze:field:xy").unwrap(),
                Scenario::parse("write;analyze:field:x.y").unwrap(),
                Scenario::parse("write;analyze:field:xy_s1").unwrap(),
            ])
        });
        let mut names: Vec<String> = adversarial.iter().map(|c| c.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), adversarial.len(), "{names:?}");
    }

    #[test]
    fn scenario_axis_prices_failures_and_in_run_analysis() {
        // The tentpole acceptance at campaign level: one base workload
        // crossed with three scenario shapes, each summary carrying the
        // scenario spelling and its per-phase walls.
        let base = sedov64("sc", 12, 4);
        let matrix = matrix_of(&[base], |s| {
            s.scenarios(&[
                Scenario::write_only(),
                Scenario::parse("write;check@4;fail@10;restart").unwrap(),
                Scenario::in_run_analysis(2, ReadSelection::Level(1)),
            ])
        });
        let storage = iosim::StorageModel::ideal(2, 5e7);
        let summaries = run_campaign_timed_serial(&matrix, &storage);
        let clean = &summaries[0];
        let failed = &summaries[1];
        let insitu = &summaries[2];
        assert_eq!(clean.scenario, "write");
        assert_eq!(clean.restarts, 0);
        assert_eq!(failed.scenario, "write;check@4;fail@10;restart");
        // The failure re-pays compute and the recovery read, on top of
        // the checkpoint cadence's own write cost.
        assert_eq!(failed.restarts, 1);
        assert!(failed.check_bytes > 0);
        assert!(failed.check_wall > 0.0);
        assert!(failed.compute_wall > clean.compute_wall);
        assert!(failed.read_bytes > 0);
        assert!(failed.wall_time > clean.wall_time);
        // In-run analysis pays selective reads between writes; the
        // write plane stays untouched.
        assert_eq!(insitu.total_bytes, clean.total_bytes);
        assert!(insitu.selective_read_bytes > 0);
        assert!(insitu.wall_time > clean.wall_time);
    }

    #[test]
    fn small_campaign_subset_executes() {
        // Run the four smallest configurations end to end.
        let runs: Vec<CastroSedovConfig> = table3_campaign()
            .into_iter()
            .filter(|c| c.n_cell <= 64)
            .collect();
        assert!(!runs.is_empty());
        let summaries = run_campaign_serial(&runs);
        for s in &summaries {
            assert!(s.total_bytes > 0, "{} wrote nothing", s.name);
            assert!(!s.series.is_empty());
            // Cumulative series is monotone.
            assert!(s.series.windows(2).all(|w| w[1].1 >= w[0].1));
        }
    }
}
