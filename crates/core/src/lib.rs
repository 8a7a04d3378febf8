//! Orchestration of the paper's study: parameterized Castro-Sedov runs,
//! the Table III campaign, and the AMR-vs-MACSio comparison pipeline.
//!
//! **Layer position:** the top of the workspace (package name
//! `amrproxy`): it drives `hydro` workloads through `plotfile` and the
//! `io-engine` stack, times them against `iosim`, and feeds `model`.
//! Key types: [`CastroSedovConfig`], [`RunResult`], [`RunSummary`], the
//! scenario plane ([`Scenario`] programs compiled by [`compile_phases`]
//! and executed by the `driver` over a [`StepSource`]), and the
//! campaign plane: an [`ExperimentSpec`] declares the matrix (backend,
//! codec, mode, pattern, layout, scenario, scaling and storage axes),
//! [`run_spec`] executes it against a [`ResultsStore`], and
//! [`run_campaign_fabric`] runs a heterogeneous fleet on one shared
//! fabric, which no spec can express.
//!
//! ```
//! use amrproxy::{run_simulation, CastroSedovConfig, Engine};
//!
//! let cfg = CastroSedovConfig {
//!     engine: Engine::Oracle,
//!     n_cell: 128,
//!     max_step: 8,
//!     plot_int: 4,
//!     ..Default::default()
//! };
//! let result = run_simulation(&cfg, None, None);
//! assert!(result.tracker.total_bytes() > 0);
//! ```

#![forbid(unsafe_code)]

pub mod campaign;
pub(crate) mod cases;
pub(crate) mod compare;
pub(crate) mod config;
pub(crate) mod driver;
pub(crate) mod exec;
pub(crate) mod run;
pub(crate) mod spec;
pub mod store;

pub use campaign::{
    run_campaign_fabric, run_campaign_fabric_cloned, run_campaign_serial,
    run_campaign_timed_serial, table3_campaign, RunSummary,
};
pub use cases::{big8192, case27, case4, case4_hydro_scaled};
pub use compare::{compare_with_macsio, Comparison};
pub use config::{CastroSedovConfig, Engine};
pub use driver::{compile_phases, AmrSource, OracleSource, Phase, ScheduledPhase, StepSource};
pub use exec::{run_spec, run_spec_serial, SpecReport};
pub use io_engine::Scenario;
pub use run::{run_simulation, try_run_simulation_attached, RunResult};
pub use spec::{ExperimentSpec, Layout, RunMode, ScalingMode, SpecCell, SpecError, StorageProfile};
pub use store::ResultsStore;
