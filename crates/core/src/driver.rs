//! The scenario plane: one engine-agnostic phase driver.
//!
//! Historically `run.rs` carried two nearly identical run loops —
//! `run_hydro` and `run_oracle` — each hard-coding one workload shape
//! (write everything, then optionally restart-read, then optionally
//! analyze). This module replaces both with a three-part plane:
//!
//! 1. a [`StepSource`] trait over whatever advances the hierarchy (the
//!    MUSCL-HLLC solve, the Sedov similarity oracle);
//! 2. a compiler ([`compile_phases`]) from an [`io_engine::Scenario`]
//!    program (`write;fail@17;restart;analyze:level:2,reorg`) to a flat
//!    list of [`Phase`]s against the run's cadences (`plot_int`,
//!    `check_int` or a `check@K` override, `max_step`);
//! 3. a driver ([`try_run_scenario_attached`]) that executes the
//!    compiled program against the backend/scheduler/tracker stack
//!    exactly once — there is no second copy of the
//!    dump/restart/analysis sequencing.
//!
//! Mid-run restart semantics: a `RestartRead` phase reads the newest
//! restart dump at or before `from_step` back through the backend (a
//! priced read burst), then the *next* `Compute` phase rewinds the
//! source and silently replays the hierarchy to the restored step — the
//! replay itself is free (the state came off storage), but the compiled
//! program re-emits `Compute` phases for every step lost between the
//! restart point and the failure, so the lost compute is re-paid on the
//! simulated clock while the dumps already flushed are *not* re-written.
//! In-run `AnalysisRead` phases interleave with subsequent write bursts
//! (they read the newest plot dump mid-stream), rather than running
//! after the campaign like the legacy boolean axis did.

use crate::config::CastroSedovConfig;
use crate::run::{compute_phase, dump_burst, RunResult};
use hydro::{AmrConfig, AmrSim, OracleConfig, OracleSim, StepInfo};
use io_engine::{IoBackend, ReadSelection, Reorganizer, ScenarioOp};
use iosim::{BurstScheduler, BurstTimeline, IoTracker, StorageAttach, Vfs};
use mpi_sim::SimComm;
use plotfile::{
    account_checkpoint_with, account_plotfile_with, castro_sedov_plot_vars, write_plotfile_with,
    CheckpointLevel, CheckpointSpec, LayoutLevel, PlotLevel, PlotfileLayout, PlotfileSpec,
    PlotfileStats,
};

/// Which dump registry a [`Phase::RestartRead`] recovers from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DumpSource {
    /// A plot dump (the legacy read-after-write restart source, and the
    /// fallback when the run writes no checkpoints).
    Plot,
    /// A checkpoint dump (the proper restart state).
    Checkpoint,
}

/// One executable phase of a compiled scenario program.
#[derive(Clone, Debug, PartialEq)]
pub enum Phase {
    /// Advance the hierarchy one step and charge the compute time (all
    /// ranks work, then barrier — the paper's pre-burst pattern).
    Compute,
    /// Write a plot dump of the current hierarchy through the backend.
    PlotDump,
    /// Write a checkpoint (restart state) through the backend.
    Checkpoint,
    /// Read the newest `source` dump at or before `from_step` back (a
    /// restart): barriers in-flight drains, prices the read burst, and
    /// arms the rewind the next [`Phase::Compute`] performs.
    RestartRead {
        /// Upper bound on the restored step.
        from_step: u64,
        /// Which dump kind restores the state.
        source: DumpSource,
    },
    /// Selective analysis read of the newest plot dump (optionally
    /// served from the reorganized layout, rewrite priced).
    AnalysisRead {
        /// What the read fetches.
        sel: ReadSelection,
        /// Rewrite the dump into the read-optimized layout first.
        reorganize: bool,
    },
    /// Barrier any in-flight drain (the run's closing flush).
    Drain,
}

/// A [`Phase`] plus its gate: the simulation step the phase belongs to.
/// Gated phases are skipped when the run halts (on `stop_time`) before
/// their step; ungated phases (the step-0 dump, trailing reads, the
/// final drain) always execute.
#[derive(Clone, Debug, PartialEq)]
pub struct ScheduledPhase {
    /// Minimum executed step this phase requires (`None` = always runs).
    pub gate: Option<u64>,
    /// The phase.
    pub phase: Phase,
}

impl ScheduledPhase {
    fn at(gate: u64, phase: Phase) -> Self {
        Self {
            gate: Some(gate),
            phase,
        }
    }

    fn always(phase: Phase) -> Self {
        Self { gate: None, phase }
    }
}

/// Compiles the run's effective scenario into its phase program.
///
/// The program mirrors the legacy loop exactly for `write[;restart]
/// [;analyze:..]` scenarios: step-0 plot dump, then per step a
/// `Compute` followed by its cadenced `PlotDump`/`Checkpoint`, then the
/// trailing reads, then `Drain`. `fail@K;restart` injects a mid-run
/// `RestartRead` right after step `K`'s phases plus one replay
/// `Compute` per lost step; `analyze_every:M:SEL` follows every `M`-th
/// plot dump with an in-run `AnalysisRead`.
pub fn compile_phases(cfg: &CastroSedovConfig) -> Result<Vec<ScheduledPhase>, String> {
    let sc = cfg.effective_scenario();
    sc.validate()?;
    let check_int = sc.check_every().unwrap_or(cfg.check_int);
    let analyze_every = sc.analyze_every_ops();
    let fail = sc.fail_step();
    if let Some(k) = fail {
        if k > cfg.max_step {
            return Err(format!(
                "fail@{k} is beyond max_step {} (the failure would never happen)",
                cfg.max_step
            ));
        }
    }

    let mut out = Vec::new();
    let mut plot_count = 0u64;
    let mut plot_steps = Vec::new();
    let mut emit_plot = |out: &mut Vec<ScheduledPhase>, gate: Option<u64>, step: u64| {
        out.push(ScheduledPhase {
            gate,
            phase: Phase::PlotDump,
        });
        plot_steps.push((gate, step));
        plot_count += 1;
        for (every, sel, reorganize) in &analyze_every {
            if plot_count.is_multiple_of(*every) {
                out.push(ScheduledPhase {
                    gate,
                    phase: Phase::AnalysisRead {
                        sel: sel.clone(),
                        reorganize: *reorganize,
                    },
                });
            }
        }
    };

    // AMReX writes plt00000 before the first step.
    emit_plot(&mut out, None, 0);
    for step in 1..=cfg.max_step {
        out.push(ScheduledPhase::at(step, Phase::Compute));
        if step.is_multiple_of(cfg.plot_int) {
            emit_plot(&mut out, Some(step), step);
        }
        if check_int > 0 && step.is_multiple_of(check_int) {
            out.push(ScheduledPhase::at(step, Phase::Checkpoint));
        }
        if fail == Some(step) {
            // The crash loses in-memory state; recovery restores the
            // newest persisted restart dump (checkpoint if the run
            // writes any, else the newest plot dump) and re-computes
            // every step after it.
            let (restore, source) = if check_int > 0 && step >= check_int {
                ((step / check_int) * check_int, DumpSource::Checkpoint)
            } else {
                // With plot_int 0 only the step-0 dump exists: recovery
                // recomputes the whole run.
                let last_plot = step.checked_div(cfg.plot_int).unwrap_or(0) * cfg.plot_int;
                (last_plot, DumpSource::Plot)
            };
            out.push(ScheduledPhase::at(
                step,
                Phase::RestartRead {
                    from_step: restore,
                    source,
                },
            ));
            for _lost in restore + 1..=step {
                out.push(ScheduledPhase::at(step, Phase::Compute));
            }
        }
    }

    for op in sc.trailing_ops() {
        match op {
            ScenarioOp::Restart => out.push(ScheduledPhase::always(Phase::RestartRead {
                from_step: cfg.max_step,
                source: DumpSource::Plot,
            })),
            ScenarioOp::ReadAll => {
                for &(gate, step) in &plot_steps {
                    out.push(ScheduledPhase {
                        gate,
                        phase: Phase::RestartRead {
                            from_step: step,
                            source: DumpSource::Plot,
                        },
                    });
                }
            }
            ScenarioOp::Analyze { sel, reorganize } => {
                out.push(ScheduledPhase::always(Phase::AnalysisRead {
                    sel,
                    reorganize,
                }))
            }
            _ => unreachable!("trailing_ops yields only read ops"),
        }
    }
    out.push(ScheduledPhase::always(Phase::Drain));
    Ok(out)
}

/// What advances the grid hierarchy: the engine-specific half of a run.
/// Everything the phase driver needs — advancing, rebuilding for a
/// restart replay, and describing the current hierarchy to the plotfile
/// and checkpoint writers.
pub trait StepSource {
    /// Advances one step, returning its summary.
    fn advance(&mut self) -> StepInfo;

    /// Steps taken since construction (or the last [`StepSource::reset`]).
    fn step_count(&self) -> u64;

    /// Current simulation time.
    fn time(&self) -> f64;

    /// Rebuilds the hierarchy at `t = 0` (the driver then replays to the
    /// restored step — deterministic engines make the replayed hierarchy
    /// identical to the checkpointed one).
    fn reset(&mut self);

    /// Account-only layout of the current hierarchy (every engine).
    fn layout_levels(&self) -> Vec<LayoutLevel>;

    /// Materialized plot levels when the engine holds field data
    /// (the hydro solve); `None` for analytic engines (the oracle).
    fn plot_levels(&self) -> Option<Vec<PlotLevel<'_>>>;

    /// Checkpoint layout of the current hierarchy at time-step `dt`.
    fn checkpoint_levels(&self, dt: f64) -> Vec<CheckpointLevel>;
}

/// The MUSCL-HLLC solve as a [`StepSource`].
pub struct AmrSource {
    cfg: AmrConfig,
    sim: AmrSim,
}

impl AmrSource {
    /// Builds the solve for `cfg`.
    pub fn new(cfg: &CastroSedovConfig) -> Self {
        let amr_cfg = AmrConfig {
            n_cell: cfg.n_cell,
            max_level: cfg.max_level,
            grid: cfg.grid,
            regrid_int: cfg.regrid_int,
            nranks: cfg.nprocs,
            strategy: cfg.strategy,
            ctrl: cfg.ctrl,
            tag: cfg.tag,
            problem: cfg.problem,
        };
        Self {
            sim: AmrSim::new(amr_cfg.clone()),
            cfg: amr_cfg,
        }
    }
}

impl StepSource for AmrSource {
    fn advance(&mut self) -> StepInfo {
        self.sim.step()
    }

    fn step_count(&self) -> u64 {
        self.sim.step_count()
    }

    fn time(&self) -> f64 {
        self.sim.time()
    }

    fn reset(&mut self) {
        self.sim = AmrSim::new(self.cfg.clone());
    }

    fn layout_levels(&self) -> Vec<LayoutLevel> {
        self.sim
            .levels()
            .iter()
            .map(|l| LayoutLevel {
                geom: l.geom,
                ba: l.mf.box_array().clone(),
                dm: l.mf.distribution_map().clone(),
                level_steps: l.steps,
            })
            .collect()
    }

    fn plot_levels(&self) -> Option<Vec<PlotLevel<'_>>> {
        Some(
            self.sim
                .levels()
                .iter()
                .map(|l| PlotLevel {
                    geom: l.geom,
                    mf: &l.mf,
                    level_steps: l.steps,
                })
                .collect(),
        )
    }

    fn checkpoint_levels(&self, dt: f64) -> Vec<CheckpointLevel> {
        self.sim
            .levels()
            .iter()
            .map(|l| CheckpointLevel {
                geom: l.geom,
                ba: l.mf.box_array().clone(),
                dm: l.mf.distribution_map().clone(),
                level_steps: l.steps,
                dt,
            })
            .collect()
    }
}

/// The Sedov–Taylor similarity oracle as a [`StepSource`].
pub struct OracleSource {
    cfg: OracleConfig,
    sim: OracleSim,
}

impl OracleSource {
    /// Builds the oracle for `cfg`.
    pub fn new(cfg: &CastroSedovConfig) -> Self {
        let oracle_cfg = OracleConfig {
            n_cell: cfg.n_cell,
            max_level: cfg.max_level,
            grid: cfg.grid,
            regrid_int: cfg.regrid_int,
            nranks: cfg.nprocs,
            strategy: cfg.strategy,
            ctrl: cfg.ctrl,
            problem: cfg.problem,
            shock_halfwidth_cells: 6.0,
        };
        Self {
            sim: OracleSim::new(oracle_cfg.clone()),
            cfg: oracle_cfg,
        }
    }
}

impl StepSource for OracleSource {
    fn advance(&mut self) -> StepInfo {
        self.sim.step()
    }

    fn step_count(&self) -> u64 {
        self.sim.step_count()
    }

    fn time(&self) -> f64 {
        self.sim.time()
    }

    fn reset(&mut self) {
        self.sim = OracleSim::new(self.cfg.clone());
    }

    fn layout_levels(&self) -> Vec<LayoutLevel> {
        self.sim
            .levels()
            .iter()
            .map(|l| LayoutLevel {
                geom: l.geom,
                ba: l.ba.clone(),
                dm: l.dm.clone(),
                level_steps: l.steps,
            })
            .collect()
    }

    fn plot_levels(&self) -> Option<Vec<PlotLevel<'_>>> {
        None // the oracle carries no field data; dumps are account-only
    }

    fn checkpoint_levels(&self, dt: f64) -> Vec<CheckpointLevel> {
        self.sim
            .levels()
            .iter()
            .map(|l| CheckpointLevel {
                geom: l.geom,
                ba: l.ba.clone(),
                dm: l.dm.clone(),
                level_steps: l.steps,
                dt,
            })
            .collect()
    }
}

/// Totals of one restart-read phase.
#[derive(Clone, Copy, Debug, Default)]
struct ReadPhase {
    read_bytes: u64,
    physical_read_bytes: u64,
    read_files: u64,
    read_wall: f64,
    codec_seconds: f64,
}

/// Restart-reads a dump back through the backend: the backend barriers
/// in-flight drains, the scheduler prices the read burst at the storage
/// model's read bandwidth (recorded in the burst timeline like every
/// write burst), and decode CPU lands on the application clock after
/// the bytes arrive. Advances `clock` past the read phase.
fn restart_read(
    backend: &mut dyn IoBackend,
    scheduler: &mut Option<BurstScheduler<'_>>,
    timeline: &mut BurstTimeline,
    clock: &mut f64,
    output_counter: u32,
    dir: &str,
) -> std::io::Result<ReadPhase> {
    let read_start = match &scheduler {
        // Recovery starts after the in-flight drain lands.
        Some(sched) => sched.finish(*clock),
        None => *clock,
    };
    *clock = read_start;
    let read = backend.read_step(output_counter, dir)?;
    let mut requests = read.stats.requests;
    if let Some(sched) = scheduler.as_mut() {
        let (burst, next_clock) =
            sched.submit_read(output_counter, *clock, &mut requests, read.stats.bytes);
        timeline.push(burst);
        *clock = next_clock;
    }
    *clock += read.stats.codec_seconds;
    Ok(ReadPhase {
        read_bytes: read.stats.logical_bytes,
        physical_read_bytes: read.stats.bytes,
        read_files: read.stats.files,
        read_wall: *clock - read_start,
        codec_seconds: read.stats.codec_seconds,
    })
}

/// Totals of one selective analysis phase.
#[derive(Clone, Copy, Debug, Default)]
struct AnalysisPhase {
    selective_read_bytes: u64,
    selective_physical_read_bytes: u64,
    selective_read_files: u64,
    selective_read_wall: f64,
    reorg_wall: f64,
    reorg_bytes: u64,
    codec_seconds: f64,
}

/// Performs one selective analysis read of a plot dump: with
/// `reorganize`, the dump is first rewritten into the read-optimized
/// layout (source fetch + rewrite both priced as bursts on the simulated
/// clock), then the selection is served from whichever layout applies.
/// Advances `clock` past the whole phase.
// One argument per simulation plane the phase touches, mirroring
// `restart_read` plus the rewrite's filesystem/tracker dependencies.
#[allow(clippy::too_many_arguments)]
fn analysis_read(
    codec: io_engine::CodecSpec,
    sel: &ReadSelection,
    reorganize: bool,
    backend: &mut dyn IoBackend,
    fs: &dyn Vfs,
    tracker: &IoTracker,
    scheduler: &mut Option<BurstScheduler<'_>>,
    timeline: &mut BurstTimeline,
    clock: &mut f64,
    output_counter: u32,
    dir: &str,
) -> std::io::Result<AnalysisPhase> {
    let mut phase = AnalysisPhase::default();
    // Analysis barriers the in-flight drain, like a restart.
    let start = match &scheduler {
        Some(sched) => sched.finish(*clock),
        None => *clock,
    };
    *clock = start;

    let read = if reorganize {
        let mut reorg = Reorganizer::new(fs, tracker, codec);
        let stats = reorg.reorganize(backend, output_counter, dir)?;
        // Price the rewrite: the source fetch as a read burst, its
        // decode CPU, then the clustered rewrite as a write burst with
        // the re-encode CPU charged up front.
        let mut read_reqs = stats.read.requests.clone();
        let mut write_reqs = stats.requests.clone();
        if let Some(sched) = scheduler.as_mut() {
            let (burst, next) =
                sched.submit_read(output_counter, *clock, &mut read_reqs, stats.read.bytes);
            timeline.push(burst);
            *clock = next + stats.read.codec_seconds;
            let (burst, next) = sched.submit_with_compute(
                output_counter,
                *clock,
                stats.codec_seconds,
                &mut write_reqs,
                stats.bytes,
            );
            timeline.push(burst);
            *clock = sched.finish(next);
        } else {
            *clock += stats.read.codec_seconds + stats.codec_seconds;
        }
        phase.reorg_wall = *clock - start;
        phase.reorg_bytes = stats.read.bytes + stats.bytes;
        phase.codec_seconds += stats.read.codec_seconds + stats.codec_seconds;
        reorg.read_selection(output_counter, sel)?
    } else {
        backend.read_selection(output_counter, dir, sel)?
    };

    let sel_start = *clock;
    let mut requests = read.stats.requests;
    if let Some(sched) = scheduler.as_mut() {
        let (burst, next) =
            sched.submit_read(output_counter, *clock, &mut requests, read.stats.bytes);
        timeline.push(burst);
        *clock = next;
    }
    *clock += read.stats.codec_seconds;
    phase.selective_read_bytes = read.stats.logical_bytes;
    phase.selective_physical_read_bytes = read.stats.bytes;
    phase.selective_read_files = read.stats.files;
    phase.selective_read_wall = *clock - sel_start;
    phase.codec_seconds += read.stats.codec_seconds;
    Ok(phase)
}

/// Executes a compiled scenario program over `src` — the single run loop
/// behind [`crate::run::run_simulation`], shared by every engine.
/// Public so custom [`StepSource`] implementations (other hierarchy
/// generators) can ride the same phase pipeline.
///
/// `storage` is the attachment: none, a private [`iosim::StorageModel`],
/// or one tenant's [`iosim::FabricHandle`] on a shared [`iosim::Fabric`]
/// — the machine-room path, where this run's bursts contend with every
/// other tenant's and the scheduler reports shared vs solo-equivalent
/// walls into the fabric's [`iosim::TenantStats`] when the run seals.
///
/// Phase I/O errors propagate instead of panicking: a scenario that
/// asks a backend for a read it cannot serve (the typed
/// [`std::io::ErrorKind::Unsupported`] error from
/// [`io_engine::unsupported_read`], naming the backend and selection)
/// surfaces as an `Err`, never a panic.
///
/// # Panics
/// Panics when the config's scenario fails to compile (malformed
/// program, `fail@` beyond `max_step`) — a configuration error, not an
/// I/O outcome.
pub fn try_run_scenario_attached<S: StepSource>(
    cfg: &CastroSedovConfig,
    mut src: S,
    fs: &dyn Vfs,
    storage: StorageAttach<'_>,
) -> std::io::Result<RunResult> {
    let program = compile_phases(cfg).unwrap_or_else(|e| panic!("scenario compile: {e}"));
    let scenario_name = cfg.effective_scenario().name();
    let tracker = IoTracker::new();
    let comm = SimComm::summit(cfg.nprocs, 0x5ED0);
    let mut backend = cfg.backend.build_with_codec(cfg.codec, fs, &tracker);
    // On a machine room with an interconnect, a streamed tenant draws
    // its fair share of the shared link — the stream-plane twin of
    // stored tenants sharing the servers.
    if backend.in_transit() {
        if let StorageAttach::Fabric(h) = &storage {
            if let Some(net) = h.stream_link() {
                backend.attach_network(net);
            }
        }
    }
    let in_transit = backend.in_transit();
    let mut scheduler = storage.scheduler(backend.overlapped());
    let mut timeline = BurstTimeline::new();
    let var_names = castro_sedov_plot_vars();
    let inputs = cfg.inputs();

    let mut clock = 0.0f64;
    let mut outputs = 0u32;
    let mut codec_seconds = 0.0f64;
    let mut steps: Vec<StepInfo> = Vec::new();
    let mut last_dt = 0.0f64;
    // Dump registries: (simulation step, output counter, directory).
    let mut plot_dumps: Vec<(u64, u32, String)> = Vec::new();
    let mut check_dumps: Vec<(u64, u32, String)> = Vec::new();
    // Set when `stop_time` halts the run: phases gated at or after this
    // step are skipped (their steps never executed).
    let mut halted_at: Option<u64> = None;
    // Set by a restart read: the next Compute rewinds the source and
    // silently replays the hierarchy to this step first.
    let mut pending_rewind: Option<u64> = None;

    // Per-phase wall accounting and read/checkpoint totals.
    let mut compute_wall = 0.0f64;
    let mut plot_wall = 0.0f64;
    let mut check_wall = 0.0f64;
    let mut drain_wall = 0.0f64;
    let mut check_bytes = 0u64;
    let mut check_files = 0u64;
    let mut read_phase = ReadPhase::default();
    let mut analysis = AnalysisPhase::default();
    let mut restarts = 0u32;
    // The network plane: bytes and seconds streamed dumps spend on the
    // modeled link instead of a storage burst, plus producer stall on
    // consumer-window back-pressure.
    let mut net_bytes = 0u64;
    let mut net_wall = 0.0f64;
    let mut window_stall = 0.0f64;
    // Ships one in-transit dump on the application clock: encode CPU,
    // then the link transfer, then any back-pressure stall — no storage
    // burst, no timeline entry.
    let ship_dump = |clock: &mut f64,
                     net_bytes: &mut u64,
                     net_wall: &mut f64,
                     window_stall: &mut f64,
                     stats: &PlotfileStats| {
        *clock += stats.codec_seconds + stats.net_seconds + stats.window_stall;
        *net_bytes += stats.net_bytes;
        *net_wall += stats.net_seconds;
        *window_stall += stats.window_stall;
    };

    for sp in &program {
        if let (Some(h), Some(g)) = (halted_at, sp.gate) {
            if g >= h {
                continue;
            }
        }
        match &sp.phase {
            Phase::Compute => {
                if let Some(restore) = pending_rewind.take() {
                    if src.step_count() != restore {
                        // Rebuild the hierarchy from the restart dump:
                        // deterministic replay off the simulated clock
                        // (the state came from storage, not compute).
                        src.reset();
                        while src.step_count() < restore {
                            let _ = src.advance();
                        }
                    }
                }
                if src.time() >= cfg.stop_time {
                    halted_at = Some(sp.gate.unwrap_or(u64::MAX));
                    continue;
                }
                let info = src.advance();
                let cells: i64 = info.cells.iter().sum();
                let before = clock;
                clock = compute_phase(&comm, info.step, clock, cells, cfg.compute_ns_per_cell);
                compute_wall += clock - before;
                last_dt = info.dt;
                steps.push(info);
            }
            Phase::PlotDump => {
                let step = src.step_count();
                outputs += 1;
                let dir = cfg.plot_dir(step);
                let mut stats = plot_dump_stats(
                    cfg,
                    &src,
                    backend.as_mut(),
                    outputs,
                    &dir,
                    &var_names,
                    &inputs,
                )?;
                codec_seconds += stats.codec_seconds;
                let before = clock;
                if in_transit {
                    ship_dump(
                        &mut clock,
                        &mut net_bytes,
                        &mut net_wall,
                        &mut window_stall,
                        &stats,
                    );
                } else {
                    dump_burst(
                        &mut timeline,
                        &mut clock,
                        &mut scheduler,
                        outputs,
                        stats.codec_seconds,
                        &mut stats.requests,
                        stats.total_bytes,
                    );
                }
                plot_wall += clock - before;
                plot_dumps.push((step, outputs, dir));
            }
            Phase::Checkpoint => {
                let step = src.step_count();
                outputs += 1;
                let spec = CheckpointSpec {
                    dir: cfg.check_dir(step),
                    output_counter: outputs,
                    time: src.time(),
                    ncomp: hydro::NCOMP,
                    ref_ratio: cfg.grid.ref_ratio,
                    levels: src.checkpoint_levels(last_dt),
                };
                let mut stats = account_checkpoint_with(backend.as_mut(), &spec)?;
                codec_seconds += stats.codec_seconds;
                check_bytes += stats.total_bytes;
                check_files += stats.nfiles;
                let before = clock;
                if in_transit {
                    ship_dump(
                        &mut clock,
                        &mut net_bytes,
                        &mut net_wall,
                        &mut window_stall,
                        &stats,
                    );
                } else {
                    dump_burst(
                        &mut timeline,
                        &mut clock,
                        &mut scheduler,
                        outputs,
                        stats.codec_seconds,
                        &mut stats.requests,
                        stats.total_bytes,
                    );
                }
                check_wall += clock - before;
                check_dumps.push((step, outputs, spec.dir));
            }
            Phase::RestartRead { from_step, source } => {
                let registry = match source {
                    DumpSource::Plot => &plot_dumps,
                    DumpSource::Checkpoint => &check_dumps,
                };
                // Newest dump at or before the requested step; nothing
                // to recover means the phase is a no-op (e.g. the run
                // halted before any dump in range).
                let Some((step, counter, dir)) = registry
                    .iter()
                    .rev()
                    .find(|(s, _, _)| s <= from_step)
                    .cloned()
                else {
                    continue;
                };
                let phase = restart_read(
                    backend.as_mut(),
                    &mut scheduler,
                    &mut timeline,
                    &mut clock,
                    counter,
                    &dir,
                )?;
                read_phase.read_bytes += phase.read_bytes;
                read_phase.physical_read_bytes += phase.physical_read_bytes;
                read_phase.read_files += phase.read_files;
                read_phase.read_wall += phase.read_wall;
                read_phase.codec_seconds += phase.codec_seconds;
                restarts += 1;
                pending_rewind = Some(step);
            }
            Phase::AnalysisRead { sel, reorganize } => {
                let Some((_, counter, dir)) = plot_dumps.last().cloned() else {
                    continue;
                };
                let phase = analysis_read(
                    cfg.codec,
                    sel,
                    *reorganize,
                    backend.as_mut(),
                    fs,
                    &tracker,
                    &mut scheduler,
                    &mut timeline,
                    &mut clock,
                    counter,
                    &dir,
                )?;
                analysis.selective_read_bytes += phase.selective_read_bytes;
                analysis.selective_physical_read_bytes += phase.selective_physical_read_bytes;
                analysis.selective_read_files += phase.selective_read_files;
                analysis.selective_read_wall += phase.selective_read_wall;
                analysis.reorg_wall += phase.reorg_wall;
                analysis.reorg_bytes += phase.reorg_bytes;
                analysis.codec_seconds += phase.codec_seconds;
            }
            Phase::Drain => {
                let before = clock;
                if let Some(sched) = &scheduler {
                    clock = sched.finish(clock);
                }
                drain_wall += clock - before;
            }
        }
    }

    let engine_report = backend.close()?;
    drop(backend);
    // Seal rather than just barrier: on the fabric path this reports the
    // run's shared and solo-equivalent walls to its tenant stats and
    // retires the tenant from the machine room's quorum.
    let wall_time = match &mut scheduler {
        Some(sched) => sched.seal(clock),
        None => clock,
    };
    Ok(RunResult {
        config: cfg.clone(),
        scenario: scenario_name,
        tracker,
        steps,
        outputs,
        restarts,
        files_written: engine_report.files,
        physical_bytes: engine_report.bytes,
        logical_bytes: engine_report.logical_bytes,
        overhead_bytes: engine_report.overhead_bytes,
        codec_seconds: codec_seconds + read_phase.codec_seconds + analysis.codec_seconds,
        check_bytes,
        check_files,
        check_wall,
        read_bytes: read_phase.read_bytes,
        physical_read_bytes: read_phase.physical_read_bytes,
        read_files: read_phase.read_files,
        read_wall: read_phase.read_wall,
        selective_read_bytes: analysis.selective_read_bytes,
        selective_physical_read_bytes: analysis.selective_physical_read_bytes,
        selective_read_files: analysis.selective_read_files,
        selective_read_wall: analysis.selective_read_wall,
        reorg_wall: analysis.reorg_wall,
        reorg_bytes: analysis.reorg_bytes,
        compute_wall,
        plot_wall,
        drain_wall,
        net_bytes,
        net_wall,
        window_stall,
        timeline,
        wall_time,
    })
}

/// Writes (or accounts) one plot dump of the source's current hierarchy
/// through the backend: materialized when the engine holds field data
/// and the run is not account-only, exact size accounting otherwise.
fn plot_dump_stats<S: StepSource>(
    cfg: &CastroSedovConfig,
    src: &S,
    backend: &mut dyn IoBackend,
    output_counter: u32,
    dir: &str,
    var_names: &[String],
    inputs: &[(String, String)],
) -> std::io::Result<PlotfileStats> {
    if !cfg.account_only {
        if let Some(levels) = src.plot_levels() {
            let spec = PlotfileSpec {
                dir: dir.to_string(),
                output_counter,
                time: src.time(),
                var_names: var_names.to_vec(),
                ref_ratio: cfg.grid.ref_ratio,
                levels,
                inputs: inputs.to_vec(),
            };
            return write_plotfile_with(backend, &spec);
        }
    }
    let layout = PlotfileLayout {
        dir: dir.to_string(),
        output_counter,
        time: src.time(),
        var_names: var_names.to_vec(),
        ref_ratio: cfg.grid.ref_ratio,
        levels: src.layout_levels(),
        inputs: inputs.to_vec(),
    };
    Ok(account_plotfile_with(backend, &layout))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Engine;
    use io_engine::Scenario;

    fn cfg(max_step: u64, plot_int: u64, check_int: u64) -> CastroSedovConfig {
        CastroSedovConfig {
            engine: Engine::Oracle,
            max_step,
            plot_int,
            check_int,
            ..Default::default()
        }
    }

    fn counts(program: &[ScheduledPhase]) -> (usize, usize, usize, usize, usize, usize) {
        let of = |f: fn(&Phase) -> bool| program.iter().filter(|sp| f(&sp.phase)).count();
        (
            of(|p| matches!(p, Phase::Compute)),
            of(|p| matches!(p, Phase::PlotDump)),
            of(|p| matches!(p, Phase::Checkpoint)),
            of(|p| matches!(p, Phase::RestartRead { .. })),
            of(|p| matches!(p, Phase::AnalysisRead { .. })),
            of(|p| matches!(p, Phase::Drain)),
        )
    }

    #[test]
    fn write_only_program_mirrors_the_legacy_loop() {
        let program = compile_phases(&cfg(8, 2, 0)).unwrap();
        // Step-0 dump, 8 computes, dumps at 2,4,6,8, one drain.
        assert_eq!(counts(&program), (8, 5, 0, 0, 0, 1));
        assert_eq!(program[0], ScheduledPhase::always(Phase::PlotDump));
        assert_eq!(program.last().unwrap().phase, Phase::Drain);
        // Every in-loop phase is gated by its step.
        assert!(program[1..program.len() - 1]
            .iter()
            .all(|sp| sp.gate.is_some()));
    }

    #[test]
    fn checkpoint_cadence_inserts_checkpoints_after_plots() {
        let program = compile_phases(&cfg(8, 4, 4)).unwrap();
        let (_, plots, checks, _, _, _) = counts(&program);
        assert_eq!(plots, 3, "plot dumps at steps 0, 4, 8");
        assert_eq!(checks, 2, "checkpoints at steps 4, 8");
        // At a coinciding step the plot dump precedes the checkpoint
        // (the legacy output-counter order).
        let step4: Vec<&Phase> = program
            .iter()
            .filter(|sp| sp.gate == Some(4))
            .map(|sp| &sp.phase)
            .collect();
        assert_eq!(
            step4,
            vec![&Phase::Compute, &Phase::PlotDump, &Phase::Checkpoint]
        );
    }

    #[test]
    fn check_op_overrides_the_config_cadence() {
        let mut c = cfg(8, 4, 4);
        c.scenario = Some(Scenario::parse("write;check@2").unwrap());
        let program = compile_phases(&c).unwrap();
        let (_, _, checks, _, _, _) = counts(&program);
        assert_eq!(checks, 4, "check@2 wins over check_int=4");
    }

    #[test]
    fn fail_restart_program_replays_the_lost_window() {
        let mut c = cfg(12, 4, 0);
        c.scenario = Some(Scenario::fail_restart(10));
        let program = compile_phases(&c).unwrap();
        // Restart point: plot dump at step 8 -> 2 replay computes.
        let (computes, plots, _, restarts, _, _) = counts(&program);
        assert_eq!(computes, 14, "12 steps + 2 replayed");
        assert_eq!(plots, 4, "no dump is re-emitted");
        assert_eq!(restarts, 1);
        let restart = program
            .iter()
            .find(|sp| matches!(sp.phase, Phase::RestartRead { .. }))
            .unwrap();
        assert_eq!(
            restart.phase,
            Phase::RestartRead {
                from_step: 8,
                source: DumpSource::Plot,
            }
        );
        assert_eq!(restart.gate, Some(10), "skipped if the run halts early");

        // With a checkpoint cadence the restart source switches.
        let mut c = cfg(12, 4, 4);
        c.scenario = Some(Scenario::fail_restart(10));
        let program = compile_phases(&c).unwrap();
        let restart = program
            .iter()
            .find(|sp| matches!(sp.phase, Phase::RestartRead { .. }))
            .unwrap();
        assert_eq!(
            restart.phase,
            Phase::RestartRead {
                from_step: 8,
                source: DumpSource::Checkpoint,
            }
        );
    }

    #[test]
    fn in_run_analysis_follows_its_dump_inside_the_loop() {
        let mut c = cfg(8, 2, 0);
        c.scenario = Some(Scenario::parse("write;analyze_every:2:level:1").unwrap());
        let program = compile_phases(&c).unwrap();
        // Dumps 2 and 4 (steps 2 and 6) get an analysis phase, gated at
        // the same step as their dump — in the loop, not trailing.
        let analyses: Vec<Option<u64>> = program
            .iter()
            .filter(|sp| matches!(sp.phase, Phase::AnalysisRead { .. }))
            .map(|sp| sp.gate)
            .collect();
        assert_eq!(analyses, vec![Some(2), Some(6)]);
    }

    #[test]
    fn trailing_ops_compile_in_order_before_the_drain() {
        let mut c = cfg(4, 2, 0);
        c.scenario = Some(Scenario::parse("write;restart;analyze:level:1").unwrap());
        let program = compile_phases(&c).unwrap();
        let n = program.len();
        assert!(matches!(
            program[n - 3].phase,
            Phase::RestartRead {
                source: DumpSource::Plot,
                ..
            }
        ));
        assert!(program[n - 3].gate.is_none(), "trailing reads always run");
        assert!(matches!(program[n - 2].phase, Phase::AnalysisRead { .. }));
        assert_eq!(program[n - 1].phase, Phase::Drain);
    }

    #[test]
    fn readall_compiles_one_gated_read_per_dump() {
        let mut c = cfg(4, 2, 0);
        c.scenario = Some(Scenario::parse("write;readall").unwrap());
        let program = compile_phases(&c).unwrap();
        let reads: Vec<(Option<u64>, u64)> = program
            .iter()
            .filter_map(|sp| match &sp.phase {
                Phase::RestartRead { from_step, .. } => Some((sp.gate, *from_step)),
                _ => None,
            })
            .collect();
        assert_eq!(reads, vec![(None, 0), (Some(2), 2), (Some(4), 4)]);
    }

    #[test]
    fn fail_with_zero_plot_int_restores_from_the_step_zero_dump() {
        // Regression: the restart-point arithmetic divided by plot_int,
        // so the (supported) plot_int=0 config panicked. Only the step-0
        // dump exists there — recovery replays the whole run.
        let mut c = cfg(6, 0, 0);
        c.scenario = Some(Scenario::fail_restart(4));
        let program = compile_phases(&c).unwrap();
        let restart = program
            .iter()
            .find(|sp| matches!(sp.phase, Phase::RestartRead { .. }))
            .unwrap();
        assert_eq!(
            restart.phase,
            Phase::RestartRead {
                from_step: 0,
                source: DumpSource::Plot,
            }
        );
        let (computes, plots, _, _, _, _) = counts(&program);
        assert_eq!(computes, 6 + 4, "all 4 lost steps replayed");
        assert_eq!(plots, 1, "only the step-0 dump exists");
        // And the program executes end to end.
        let r = crate::run::run_simulation(&c, None, None);
        assert_eq!(r.restarts, 1);
        assert_eq!(r.read_bytes, r.tracker.bytes_per_step()[&1]);
    }

    #[test]
    fn compile_rejects_unreachable_failures() {
        let mut c = cfg(8, 2, 0);
        c.scenario = Some(Scenario::fail_restart(9));
        assert!(compile_phases(&c).is_err(), "fail@9 > max_step 8");
        c.scenario = Some(Scenario::fail_restart(8));
        assert!(compile_phases(&c).is_ok());
    }
}
