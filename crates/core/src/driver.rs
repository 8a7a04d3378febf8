//! The AMR side of the scenario plane: hierarchy engines as producers
//! for the shared phase driver.
//!
//! The phase vocabulary, the scenario compiler and the run loop live in
//! [`io_engine::driver`], shared with MACSio. This module supplies what
//! is specific to an AMR run:
//!
//! 1. a [`StepSource`] trait over whatever advances the hierarchy (the
//!    MUSCL-HLLC solve, the Sedov similarity oracle);
//! 2. the run's cadence ([`compile_phases`]: step-0 plot dump, `plot_int`,
//!    `check_int` or a `check@K` override, `max_step`);
//! 3. the producer over a `StepSource` that [`try_run_scenario_attached`]
//!    hands to [`io_engine::run_program`]: compute charged per cell with
//!    per-rank jitter and a barrier, `stop_time` halting, plotfile and
//!    checkpoint dumps of the current hierarchy, and the rewind-and-replay
//!    restore after a restart read (deterministic engines make the
//!    replayed hierarchy identical to the checkpointed one, and the
//!    replay is off the simulated clock — the state came from storage).

use crate::config::CastroSedovConfig;
use crate::run::{compute_phase, RunResult};
use hydro::{AmrConfig, AmrSim, OracleConfig, OracleSim, StepInfo};
use io_engine::{Cadence, Dump, IoBackend, Producer, ReadSelection, StepStats};
pub use io_engine::{Phase, ScheduledPhase};
use iosim::{IoTracker, StorageAttach, Vfs};
use mpi_sim::SimComm;
use plotfile::{
    account_checkpoint_with, account_plotfile_with, castro_sedov_plot_vars, write_plotfile_with,
    CheckpointLevel, CheckpointSpec, LayoutLevel, PlotLevel, PlotfileLayout, PlotfileSpec,
    PlotfileStats,
};
use std::io;

/// The cadence an AMR run's scenario compiles against: AMReX writes
/// `plt00000` before the first step, then dumps every `plot_int` steps
/// and checkpoints every `check_int`.
pub(crate) fn cadence(cfg: &CastroSedovConfig) -> Cadence {
    Cadence {
        steps: cfg.max_step,
        plot_int: cfg.plot_int,
        check_int: cfg.check_int,
        step0_dump: true,
    }
}

/// Compiles the run's effective scenario into its phase program
/// ([`io_engine::compile`] against the run's cadence; trailing
/// `restart`/`readall` ops read whole dumps back).
pub fn compile_phases(cfg: &CastroSedovConfig) -> Result<Vec<ScheduledPhase>, String> {
    io_engine::compile(
        &cfg.effective_scenario(),
        &cadence(cfg),
        &ReadSelection::Full,
    )
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

    /// Layout of the current hierarchy (every engine): what account-only
    /// plot dumps and every checkpoint describe.
    fn layout_levels(&self) -> Vec<LayoutLevel>;

    /// Materialized plot levels when the engine holds field data
    /// (the hydro solve); `None` for analytic engines (the oracle).
    fn plot_levels(&self) -> Option<Vec<PlotLevel<'_>>>;
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
}

/// A [`StepSource`] as the phase driver's producer.
struct AmrProducer<'a, S> {
    cfg: &'a CastroSedovConfig,
    src: S,
    comm: SimComm,
    var_names: Vec<String>,
    inputs: Vec<(String, String)>,
    /// Per-step advance summaries, in the order the clock paid for them.
    steps: Vec<StepInfo>,
    last_dt: f64,
}

/// A dump's stats in the driver's currency. `PlotfileStats` keeps no
/// per-step overhead split; run totals take it from the backend's close
/// report.
fn step_stats(output_counter: u32, stats: PlotfileStats) -> StepStats {
    StepStats {
        step: output_counter,
        files: stats.nfiles,
        bytes: stats.total_bytes,
        logical_bytes: stats.logical_bytes,
        codec_seconds: stats.codec_seconds,
        requests: stats.requests,
        net_bytes: stats.net_bytes,
        net_seconds: stats.net_seconds,
        window_stall: stats.window_stall,
        ..StepStats::default()
    }
}

impl<S: StepSource> Producer for AmrProducer<'_, S> {
    fn compute(&mut self, clock: f64) -> Option<f64> {
        if self.src.time() >= self.cfg.stop_time {
            return None;
        }
        let info = self.src.advance();
        let cells: i64 = info.cells.iter().sum();
        let next = compute_phase(
            &self.comm,
            info.step,
            clock,
            cells,
            self.cfg.compute_ns_per_cell,
        );
        self.last_dt = info.dt;
        self.steps.push(info);
        Some(next)
    }

    /// Writes (or accounts) one plot dump of the current hierarchy:
    /// materialized when the engine holds field data and the run is not
    /// account-only, exact size accounting otherwise.
    fn plot_dump(&mut self, backend: &mut dyn IoBackend, output_counter: u32) -> io::Result<Dump> {
        let cfg = self.cfg;
        let dir = cfg.plot_dir(self.src.step_count());
        let fields = if cfg.account_only {
            None
        } else {
            self.src.plot_levels()
        };
        let stats = match fields {
            Some(levels) => {
                let spec = PlotfileSpec {
                    dir: dir.clone(),
                    output_counter,
                    time: self.src.time(),
                    var_names: self.var_names.clone(),
                    ref_ratio: cfg.grid.ref_ratio,
                    levels,
                    inputs: self.inputs.clone(),
                };
                write_plotfile_with(backend, &spec)?
            }
            None => {
                let layout = PlotfileLayout {
                    dir: dir.clone(),
                    output_counter,
                    time: self.src.time(),
                    var_names: self.var_names.clone(),
                    ref_ratio: cfg.grid.ref_ratio,
                    levels: self.src.layout_levels(),
                    inputs: self.inputs.clone(),
                };
                account_plotfile_with(backend, &layout)
            }
        };
        Ok(Dump {
            dir,
            stats: step_stats(output_counter, stats),
        })
    }

    fn checkpoint(&mut self, backend: &mut dyn IoBackend, output_counter: u32) -> io::Result<Dump> {
        let spec = CheckpointSpec {
            dir: self.cfg.check_dir(self.src.step_count()),
            output_counter,
            time: self.src.time(),
            ncomp: hydro::NCOMP,
            ref_ratio: self.cfg.grid.ref_ratio,
            levels: self
                .src
                .layout_levels()
                .into_iter()
                .map(|l| CheckpointLevel {
                    geom: l.geom,
                    ba: l.ba,
                    dm: l.dm,
                    level_steps: l.level_steps,
                    dt: self.last_dt,
                })
                .collect(),
        };
        let stats = account_checkpoint_with(backend, &spec)?;
        Ok(Dump {
            dir: spec.dir,
            stats: step_stats(output_counter, stats),
        })
    }

    fn restore(&mut self, step: u64) {
        if self.src.step_count() != step {
            // Rebuild the hierarchy from the restart dump: deterministic
            // replay off the simulated clock (the state came from
            // storage, not compute).
            self.src.reset();
            while self.src.step_count() < step {
                let _ = self.src.advance();
            }
        }
    }
}

/// Runs `cfg`'s scenario over `src` on the shared phase driver
/// ([`io_engine::run_program`]) — the entry point behind
/// [`crate::run::run_simulation`], shared by every engine. Public so
/// custom [`StepSource`] implementations (other hierarchy generators)
/// can ride the same phase pipeline.
///
/// `storage` is the attachment: none, a private [`iosim::StorageModel`],
/// or one tenant's [`iosim::FabricHandle`] on a shared [`iosim::Fabric`],
/// as for [`io_engine::run_program`].
///
/// A scenario that fails to compile (malformed program, `fail@` beyond
/// `max_step`) is an [`std::io::ErrorKind::InvalidInput`] error, and
/// phase I/O errors propagate: a scenario that asks a backend for a read
/// it cannot serve surfaces the typed
/// [`std::io::ErrorKind::Unsupported`] error naming the backend and
/// selection. Neither panics.
pub(crate) async fn try_run_scenario_attached<S: StepSource>(
    cfg: &CastroSedovConfig,
    src: S,
    fs: &dyn Vfs,
    storage: StorageAttach<'_>,
) -> io::Result<RunResult> {
    let program =
        compile_phases(cfg).map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    let tracker = IoTracker::new();
    let mut backend = cfg.backend.build_with_codec(cfg.codec, fs, &tracker);
    let mut producer = AmrProducer {
        cfg,
        src,
        comm: SimComm::summit(cfg.nprocs, 0x5ED0),
        var_names: castro_sedov_plot_vars(),
        inputs: cfg.inputs(),
        steps: Vec::new(),
        last_dt: 0.0,
    };
    let totals = io_engine::run_program(
        &program,
        &mut producer,
        backend.as_mut(),
        fs,
        &tracker,
        cfg.codec,
        storage,
    )
    .await?;
    drop(backend);
    Ok(RunResult {
        config: cfg.clone(),
        tracker,
        steps: producer.steps,
        totals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Engine;
    use io_engine::{DumpSource, Scenario};

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
        assert_eq!(
            program[0],
            ScheduledPhase {
                gate: None,
                phase: Phase::PlotDump,
            }
        );
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
                sel: ReadSelection::Full,
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
                sel: ReadSelection::Full,
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
                sel: ReadSelection::Full,
            }
        );
        let (computes, plots, _, _, _, _) = counts(&program);
        assert_eq!(computes, 6 + 4, "all 4 lost steps replayed");
        assert_eq!(plots, 1, "only the step-0 dump exists");
        // And the program executes end to end.
        let r = crate::run::run_simulation(&c, None, None);
        assert_eq!(r.totals.restarts, 1);
        assert_eq!(r.totals.restart.bytes, r.tracker.bytes_per_step()[&1]);
    }

    #[test]
    fn uncompilable_scenarios_are_invalid_input_errors_not_panics() {
        let fs = iosim::MemFs::with_retention(0);
        let mut c = cfg(8, 2, 0);
        for scenario in [
            Scenario::fail_restart(99),
            // Malformed (no `write`): only constructible past `parse`.
            Scenario { ops: Vec::new() },
        ] {
            c.scenario = Some(scenario);
            let run = try_run_scenario_attached(&c, OracleSource::new(&c), &fs, None.into());
            let err = iosim::block_on(run)
                .err()
                .expect("the scenario must not run");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
        }
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
