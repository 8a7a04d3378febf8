//! The paper's analytical model: from AMReX-Castro inputs to a calibrated
//! MACSio proxy invocation.
//!
//! * `samples` — Eqs. (1)/(2): cumulative `(x, y)` extraction from
//!   tracked I/O records ([`XySeries`]).
//! * `regression` — the least-squares line ([`linear_fit`]) separating
//!   the L0-dominated linear family from refinement-driven
//!   non-linearity.
//! * `partsize` — Eq. (3): `part_size = f * 8 * Nx * Ny / nprocs`
//!   ([`part_size`]).
//! * [`mod@translate`] — Listing 1: the functional mapping `g` producing a
//!   MACSio command line from Table I inputs.
//! * `calibrate` — the Fig. 9 procedure: golden-section search over
//!   `dataset_growth` (and alternation with the `f` fit) minimizing
//!   per-step output-size RMSE ([`calibrate_growth`],
//!   [`calibrate_two_parameter`]).
//! * `metrics` — RMSE / MAPE / final-step error used throughout.
//!
//! **Layer position:** analysis layer — consumes tracker samples and
//! campaign summaries produced by `core`, emits calibrated `macsio`
//! configurations; no I/O of its own. Key types: [`XySeries`],
//! [`LinearFit`], [`Calibration`], [`TranslationModel`],
//! [`GrowthPredictor`].
//!
//! ```
//! use model::{linear_fit, part_size};
//!
//! // Eq. (3): part size for a 512^2 mesh over 32 ranks at f = 22.
//! assert_eq!(part_size(22.0, 512, 512, 32), 22 * 8 * 512 * 512 / 32);
//!
//! // The linear family: an exact line is recovered exactly.
//! let xs = [1.0, 2.0, 3.0, 4.0];
//! let ys = [10.0, 20.0, 30.0, 40.0];
//! assert!((linear_fit(&xs, &ys).slope - 10.0).abs() < 1e-12);
//!
//! // A wall-vs-bytes line: 1 ms fixed cost + bytes at 1 GB/s, so
//! // `1 / slope` recovers the bandwidth and the intercept the fixed cost.
//! let bytes = [1e6, 4e6, 16e6];
//! let walls: Vec<f64> = bytes.iter().map(|b| 1e-3 + b / 1e9).collect();
//! let fit = linear_fit(&bytes, &walls);
//! assert!((1.0 / fit.slope - 1e9).abs() / 1e9 < 1e-9);
//! assert!((fit.intercept - 1e-3).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]

pub(crate) mod calibrate;
pub(crate) mod metrics;
pub(crate) mod partsize;
pub(crate) mod predict;
pub(crate) mod regression;
pub(crate) mod samples;
pub mod translate;

pub use calibrate::{calibrate_growth, calibrate_two_parameter, predicted_series, Calibration};
pub use metrics::{final_rel_err, mape};
pub use partsize::{part_size, Case4Constant, PAPER_F_RANGE};
pub use predict::{GrowthPredictor, Observation};
pub use regression::{linear_fit, LinearFit};
pub use samples::XySeries;
pub use translate::{default_growth_guess, translate, AmrInputs, TranslationModel};
