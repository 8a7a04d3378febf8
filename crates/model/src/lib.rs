//! The paper's analytical model: from AMReX-Castro inputs to a calibrated
//! MACSio proxy invocation.
//!
//! * [`samples`] — Eqs. (1)/(2): cumulative `(x, y)` extraction from
//!   tracked I/O records.
//! * [`regression`] — the linear (and power-law) fits separating the
//!   L0-dominated linear family from refinement-driven non-linearity,
//!   plus a multi-feature OLS fit that learns compression ratio as a
//!   regression feature from backend × codec sweeps.
//! * [`partsize`] — Eq. (3): `part_size = f * 8 * Nx * Ny / nprocs`.
//! * [`mod@translate`] — Listing 1: the functional mapping `g` producing a
//!   MACSio command line from Table I inputs.
//! * [`calibrate`] — the Fig. 9 procedure: golden-section search over
//!   `dataset_growth` (and alternation with the `f` fit) minimizing
//!   per-step output-size RMSE.
//! * [`metrics`] — RMSE / MAPE / final-step error used throughout.
//!
//! The read plane has two regression targets of its own:
//! [`fit_read_time`] (restart wall vs physical read volume) and
//! [`fit_selective_read`] (selective analysis-read wall vs *touched*
//! physical bytes, across read patterns and raw/reorganized layouts).
//! The network plane adds a third: [`fit_stream_time`] (streamed
//! transfer wall vs network bytes — `1/slope` recovers the effective
//! link bandwidth, the intercept the accumulated transfer latency).
//!
//! **Layer position:** analysis layer — consumes tracker samples and
//! campaign summaries produced by `core`, emits calibrated `macsio`
//! configurations; no I/O of its own. Key types: [`XySeries`],
//! [`LinearFit`], [`Calibration`], [`TranslationModel`],
//! [`GrowthPredictor`].
//!
//! ```
//! use model::{fit_selective_read, linear_fit, part_size};
//!
//! // Eq. (3): part size for a 512^2 mesh over 32 ranks at f = 22.
//! assert_eq!(part_size(22.0, 512, 512, 32), 22 * 8 * 512 * 512 / 32);
//!
//! // The linear family: an exact line is recovered exactly.
//! let xs = [1.0, 2.0, 3.0, 4.0];
//! let ys = [10.0, 20.0, 30.0, 40.0];
//! assert!((linear_fit(&xs, &ys).slope - 10.0).abs() < 1e-12);
//!
//! // Selective-read samples: wall = 1 ms fixed cost + bytes at 1 GB/s.
//! let bytes = [1e6, 4e6, 16e6];
//! let walls: Vec<f64> = bytes.iter().map(|b| 1e-3 + b / 1e9).collect();
//! let fit = fit_selective_read(&bytes, &walls);
//! assert!((1.0 / fit.slope - 1e9).abs() / 1e9 < 1e-9);
//! ```

#![forbid(unsafe_code)]

pub mod calibrate;
pub mod metrics;
pub mod partsize;
pub mod predict;
pub mod regression;
pub mod samples;
pub mod translate;

pub use calibrate::{
    calibrate_growth, calibrate_two_parameter, predicted_series, Calibration, Evaluation,
};
pub use metrics::{final_rel_err, mape, rmse};
pub use partsize::{fit_f, part_size, Case4Constant, PAPER_F_RANGE};
pub use predict::{GrowthPredictor, Observation};
pub use regression::{
    fit_bytes_with_ratio, fit_read_time, fit_selective_read, fit_stream_time, linear_fit,
    multi_linear_fit, powerlaw_fit, LinearFit, MultiFit,
};
pub use samples::{Sample, XySeries};
pub use translate::{default_growth_guess, translate, AmrInputs, TranslationModel};
