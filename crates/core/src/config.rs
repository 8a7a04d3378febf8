//! Full run configuration: the Castro input-file surface of Listing 2.

use amr_mesh::{DistributionStrategy, GridParams};
use hydro::{SedovProblem, TagCriteria, TimestepControl};
use io_engine::{BackendSpec, CodecSpec, ReadSelection, Scenario, ScenarioOp};
use serde::{Deserialize, Serialize};

/// Which engine generates the grid hierarchy.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Engine {
    /// Full MUSCL-HLLC solve (exact; used up to ~512^2 level-0 cells).
    Hydro,
    /// Sedov-Taylor similarity oracle (paper-scale meshes).
    Oracle,
}

/// A Castro-Sedov run description (Table I + Listing 2 + execution).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CastroSedovConfig {
    /// Run label (e.g. `case4_cfl0.4_maxl4`).
    pub name: String,
    /// Hierarchy engine.
    pub engine: Engine,
    /// `amr.n_cell` per direction.
    pub n_cell: i64,
    /// `amr.max_level`.
    pub max_level: usize,
    /// `amr.max_step`.
    pub max_step: u64,
    /// `stop_time`.
    pub stop_time: f64,
    /// `amr.plot_int` (steps between plot dumps).
    pub plot_int: u64,
    /// `amr.check_int` (steps between checkpoint dumps; 0 disables).
    /// The paper studies plot files only, so the default is 0; Listing 2
    /// sets 20.
    pub check_int: u64,
    /// Checkpoint directory prefix (`amr.check_file`).
    pub check_file: String,
    /// `amr.regrid_int`.
    pub regrid_int: u64,
    /// Grid-generation parameters.
    pub grid: GridParams,
    /// MPI tasks.
    pub nprocs: usize,
    /// Box-to-rank strategy.
    pub strategy: DistributionStrategy,
    /// Time-step control (`castro.cfl` etc.).
    pub ctrl: TimestepControl,
    /// Tagging criteria.
    pub tag: TagCriteria,
    /// Problem setup.
    pub problem: SedovProblem,
    /// Plotfile directory prefix (`amr.plot_file`).
    pub plot_file: String,
    /// Per-cell compute cost in nanoseconds (drives the compute phase of
    /// the burst timeline; a platform constant, not an I/O quantity).
    pub compute_ns_per_cell: f64,
    /// When true, account plotfile bytes exactly without materializing
    /// payloads (always true for the oracle engine).
    pub account_only: bool,
    /// I/O backend the plot dumps write through (the campaign's backend
    /// axis): N-to-N, BP-style aggregation, deferred staging, or
    /// in-transit streaming over the modeled interconnect.
    pub backend: BackendSpec,
    /// In-situ compression codec applied to plot data (the campaign's
    /// compression axis, crossed with the backend axis).
    pub codec: CodecSpec,
    /// When true, the run restart-reads its last plot dump back through
    /// the backend after the simulation finishes (the campaign's
    /// read-after-write axis); `RunResult`/`RunSummary` then carry read
    /// bytes and read wall-clock.
    ///
    /// *Deprecated boolean axis:* compiles to the `write;restart`
    /// scenario (see [`CastroSedovConfig::effective_scenario`]); prefer
    /// setting [`CastroSedovConfig::scenario`] directly. Ignored when
    /// `scenario` is set.
    pub read_after_write: bool,
    /// When set, the run performs a *selective* analysis read of its
    /// last plot dump after the simulation (and any restart phase):
    /// one level, one field, or a spatial key box — the campaign's
    /// analysis-read axis. `RunResult`/`RunSummary` then carry
    /// selective-read bytes and wall-clock.
    ///
    /// *Deprecated boolean axis:* compiles to a trailing `analyze:SEL`
    /// scenario op; prefer [`CastroSedovConfig::scenario`]. Ignored when
    /// `scenario` is set.
    pub analysis_read: Option<ReadSelection>,
    /// When true (and `analysis_read` is set), the last dump is first
    /// rewritten from its write-optimized layout into a read-optimized
    /// one (`io_engine::Reorganizer`) and the analysis read is served
    /// from the reorganized layout; the rewrite's read+write bursts are
    /// charged to the simulated clock like any other I/O.
    ///
    /// *Deprecated boolean axis:* compiles to the `,reorg` suffix of the
    /// trailing `analyze:` op; prefer [`CastroSedovConfig::scenario`].
    /// Ignored when `scenario` is set.
    pub reorganize: bool,
    /// The run's phase program (the scenario plane): how writes,
    /// checkpoints, mid-run failures/restarts, and analysis reads
    /// interleave. `None` compiles the legacy boolean axes above into
    /// their equivalent scenario ([`CastroSedovConfig::effective_scenario`]),
    /// so old configs keep working bit-identically.
    pub scenario: Option<Scenario>,
}

impl Default for CastroSedovConfig {
    /// Listing 2 defaults on a small mesh.
    fn default() -> Self {
        Self {
            name: "sedov".to_string(),
            engine: Engine::Hydro,
            n_cell: 64,
            max_level: 2,
            max_step: 40,
            stop_time: 0.1,
            plot_int: 2,
            check_int: 0,
            check_file: "sedov_2d_cyl_in_cart_chk".to_string(),
            regrid_int: 2,
            grid: GridParams {
                ref_ratio: 2,
                blocking_factor: 8,
                max_grid_size: 256,
                n_error_buf: 2,
                grid_eff: 0.7,
            },
            nprocs: 4,
            strategy: DistributionStrategy::Sfc,
            ctrl: TimestepControl::default(),
            tag: TagCriteria::default(),
            problem: SedovProblem::default(),
            plot_file: "sedov_2d_cyl_in_cart_plt".to_string(),
            compute_ns_per_cell: 100.0,
            account_only: false,
            backend: BackendSpec::default(),
            codec: CodecSpec::default(),
            read_after_write: false,
            analysis_read: None,
            reorganize: false,
            scenario: None,
        }
    }
}

impl CastroSedovConfig {
    /// `castro.cfl` accessor (the knob Table I varies).
    pub fn cfl(&self) -> f64 {
        self.ctrl.cfl
    }

    /// The input-file parameter echo written into `job_info` (and used by
    /// the Table I bench).
    pub fn inputs(&self) -> Vec<(String, String)> {
        vec![
            ("max_step".into(), self.max_step.to_string()),
            ("stop_time".into(), format!("{}", self.stop_time)),
            (
                "amr.n_cell".into(),
                format!("{} {}", self.n_cell, self.n_cell),
            ),
            ("amr.max_level".into(), self.max_level.to_string()),
            ("amr.plot_int".into(), self.plot_int.to_string()),
            ("amr.check_int".into(), self.check_int.to_string()),
            ("amr.regrid_int".into(), self.regrid_int.to_string()),
            (
                "amr.blocking_factor".into(),
                self.grid.blocking_factor.to_string(),
            ),
            (
                "amr.max_grid_size".into(),
                self.grid.max_grid_size.to_string(),
            ),
            ("amr.ref_ratio".into(), self.grid.ref_ratio.to_string()),
            ("castro.cfl".into(), format!("{}", self.ctrl.cfl)),
            (
                "castro.init_shrink".into(),
                format!("{}", self.ctrl.init_shrink),
            ),
            (
                "castro.change_max".into(),
                format!("{}", self.ctrl.change_max),
            ),
            ("nprocs".into(), self.nprocs.to_string()),
        ]
    }

    /// The model-facing input subset (Table I).
    pub fn amr_inputs(&self) -> model::AmrInputs {
        model::AmrInputs {
            max_step: self.max_step,
            n_cell: (self.n_cell, self.n_cell),
            max_level: self.max_level,
            plot_int: self.plot_int,
            cfl: self.ctrl.cfl,
            nprocs: self.nprocs,
        }
    }

    /// Plot directory name for the dump at `step`
    /// (`sedov_2d_cyl_in_cart_plt00020` style).
    pub fn plot_dir(&self, step: u64) -> String {
        format!("/{}{:05}", self.plot_file, step)
    }

    /// Checkpoint directory name for the dump at `step`
    /// (`sedov_2d_cyl_in_cart_chk00020` style).
    pub(crate) fn check_dir(&self, step: u64) -> String {
        format!("/{}{:05}", self.check_file, step)
    }

    /// The scenario this run executes: [`CastroSedovConfig::scenario`]
    /// when set, otherwise the legacy boolean axes
    /// (`read_after_write`, `analysis_read`, `reorganize`) compiled into
    /// their equivalent program — `write`, plus a trailing `restart`
    /// and/or `analyze:SEL[,reorg]`. The checkpoint cadence stays on
    /// [`CastroSedovConfig::check_int`] unless the scenario carries a
    /// `check@K` override.
    pub fn effective_scenario(&self) -> Scenario {
        if let Some(s) = &self.scenario {
            return s.clone();
        }
        let mut ops = vec![ScenarioOp::Write];
        if self.read_after_write {
            ops.push(ScenarioOp::Restart);
        }
        if let Some(sel) = &self.analysis_read {
            ops.push(ScenarioOp::Analyze {
                sel: sel.clone(),
                reorganize: self.reorganize,
            });
        }
        Scenario { ops }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_mirror_listing2() {
        let cfg = CastroSedovConfig::default();
        assert_eq!(cfg.grid.ref_ratio, 2);
        assert_eq!(cfg.grid.blocking_factor, 8);
        assert_eq!(cfg.grid.max_grid_size, 256);
        assert_eq!(cfg.regrid_int, 2);
        assert_eq!(cfg.ctrl.cfl, 0.5);
        assert_eq!(cfg.ctrl.init_shrink, 0.01);
        assert_eq!(cfg.ctrl.change_max, 1.1);
        assert_eq!(cfg.stop_time, 0.1);
        assert_eq!(cfg.plot_file, "sedov_2d_cyl_in_cart_plt");
    }

    #[test]
    fn inputs_echo_key_parameters() {
        let cfg = CastroSedovConfig::default();
        let inputs = cfg.inputs();
        let get = |k: &str| {
            inputs
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.clone())
                .unwrap()
        };
        assert_eq!(get("amr.n_cell"), "64 64");
        assert_eq!(get("castro.cfl"), "0.5");
        assert_eq!(get("amr.max_level"), "2");
    }

    #[test]
    fn plot_dir_format_matches_fig2() {
        let cfg = CastroSedovConfig::default();
        assert_eq!(cfg.plot_dir(20), "/sedov_2d_cyl_in_cart_plt00020");
        assert_eq!(cfg.plot_dir(0), "/sedov_2d_cyl_in_cart_plt00000");
    }

    #[test]
    fn legacy_booleans_compile_to_scenarios() {
        let mut cfg = CastroSedovConfig::default();
        assert_eq!(cfg.effective_scenario().name(), "write");
        cfg.read_after_write = true;
        assert_eq!(cfg.effective_scenario().name(), "write;restart");
        cfg.analysis_read = Some(ReadSelection::Level(1));
        cfg.reorganize = true;
        assert_eq!(
            cfg.effective_scenario().name(),
            "write;restart;analyze:level:1,reorg"
        );
        // An explicit scenario wins over the booleans.
        cfg.scenario = Some(Scenario::fail_restart(7));
        assert_eq!(cfg.effective_scenario().name(), "write;fail@7;restart");
    }

    #[test]
    fn config_with_scenario_round_trips_serde() {
        use serde::{Deserialize as _, Serialize as _};
        let cfg = CastroSedovConfig {
            scenario: Some(Scenario::parse("write;check@4;fail@10;restart").unwrap()),
            ..Default::default()
        };
        let v = cfg.to_value();
        let back = CastroSedovConfig::from_value(&v).unwrap();
        assert_eq!(back.scenario, cfg.scenario);
        assert_eq!(back.name, cfg.name);
    }

    #[test]
    fn amr_inputs_projection() {
        let cfg = CastroSedovConfig::default();
        let i = cfg.amr_inputs();
        assert_eq!(i.n_cell, (64, 64));
        assert_eq!(i.plot_int, 2);
        assert_eq!(i.nprocs, 4);
    }
}
