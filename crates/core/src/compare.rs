//! End-to-end comparison: AMR run vs calibrated MACSio proxy.
//!
//! The pipeline of the paper's Fig. 1: run (or reuse) an AMReX-Castro
//! simulation, translate its inputs through the model `g`, calibrate the
//! remaining free parameters against the measured per-step output, run
//! MACSio, and report how closely the proxy tracks the real workload
//! (Figs. 9-11).

use crate::run::RunResult;
use iosim::{IoTracker, MemFs};
use model::{
    calibrate_two_parameter, final_rel_err, mape, translate, Calibration, TranslationModel,
};
use serde::{Deserialize, Serialize};

/// Outcome of one AMR-vs-MACSio comparison.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Comparison {
    /// Run label.
    pub name: String,
    /// Measured AMR bytes per output step.
    pub amr_per_step: Vec<f64>,
    /// MACSio bytes per dump after calibration.
    pub macsio_per_step: Vec<f64>,
    /// The calibration result (growth factor, f, trace).
    pub calibration: Calibration,
    /// The final MACSio command line.
    pub macsio_command: String,
    /// Mean absolute percentage error between the two series.
    pub mape_percent: f64,
    /// Relative error of the final cumulative size.
    pub final_error: f64,
}

/// Translates, calibrates, and runs MACSio against a completed AMR run.
///
/// `calibration_rounds` alternates the Eq. (3) `f` fit and the
/// `dataset_growth` golden-section search (2 is enough in practice).
pub fn compare_with_macsio(amr: &RunResult, calibration_rounds: usize) -> Comparison {
    let target = amr.per_step_bytes();
    assert!(
        target.len() >= 2,
        "compare_with_macsio: need at least two output steps"
    );
    let inputs = amr.config.amr_inputs();

    // Starting point: Eq. (3) mid-range f, Appendix A growth guess.
    let model0 = TranslationModel {
        f: 24.0,
        dataset_growth: model::default_growth_guess(inputs.cfl, inputs.max_level),
        compute_time: 0.0,
        meta_size: 0,
        compression_ratio: 1.0,
    };
    let mut base = translate(&inputs, &model0);
    base.num_dumps = target.len() as u32;

    let calibration = calibrate_two_parameter(&base, &target, inputs.n_cell, calibration_rounds);

    // Final proxy run with the calibrated parameters. Real marshalling up
    // to a sanity budget, into a filesystem that keeps no content, so
    // every dump refills the previous dump's rank blobs; beyond it, the
    // byte-exact predictor (arithmetic, proven equal to the real run by
    // tests) stands in — the paper's 8192^2 case would otherwise marshal
    // terabytes.
    let mut final_cfg = base.clone();
    final_cfg.dataset_growth = calibration.dataset_growth;
    final_cfg.part_size = model::part_size(
        calibration.f,
        inputs.n_cell.0,
        inputs.n_cell.1,
        inputs.nprocs,
    );
    const REAL_RUN_BUDGET_BYTES: f64 = 8e9;
    let expected: f64 = model::predicted_series(&final_cfg)
        .iter()
        .map(|&b| b as f64)
        .sum();
    let macsio_per_step: Vec<f64> = if expected <= REAL_RUN_BUDGET_BYTES {
        let fs = MemFs::with_retention(0);
        let tracker = IoTracker::new();
        let report = macsio::run(&final_cfg, &fs, &tracker, None).expect("macsio run on memory fs");
        report.bytes_per_dump.iter().map(|&b| b as f64).collect()
    } else {
        model::predicted_series(&final_cfg)
            .iter()
            .map(|&b| b as f64)
            .collect()
    };

    Comparison {
        name: amr.config.name.clone(),
        mape_percent: mape(&target, &macsio_per_step),
        final_error: final_rel_err(&cumulative(&target), &cumulative(&macsio_per_step)),
        amr_per_step: target,
        macsio_per_step,
        calibration,
        macsio_command: final_cfg.command_line(),
    }
}

fn cumulative(v: &[f64]) -> Vec<f64> {
    let mut acc = 0.0;
    v.iter()
        .map(|x| {
            acc += x;
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases::case4;
    use crate::run::run_simulation;

    #[test]
    fn calibrated_macsio_tracks_case4() {
        // A reduced case4: 20 outputs like the paper's Fig. 6 pivot.
        let mut cfg = case4(0.4, 3, 20);
        cfg.n_cell = 256; // keep the test light
        let amr = run_simulation(&cfg, None, None);
        let cmp = compare_with_macsio(&amr, 2);
        assert_eq!(cmp.amr_per_step.len(), cmp.macsio_per_step.len());
        // The paper's headline: the kernel approximation is "close
        // enough" — per-step MAPE within ~15% and final cumulative size
        // within ~10%.
        assert!(cmp.mape_percent < 15.0, "MAPE {}", cmp.mape_percent);
        assert!(cmp.final_error.abs() < 0.10, "final {}", cmp.final_error);
        // Calibration landed in the paper's growth band neighbourhood.
        assert!(
            (0.995..=1.08).contains(&cmp.calibration.dataset_growth),
            "growth {}",
            cmp.calibration.dataset_growth
        );
        assert!(cmp.macsio_command.contains("--dataset_growth"));
    }

    #[test]
    fn fitted_f_is_positive_and_sane() {
        let mut cfg = case4(0.5, 2, 12);
        cfg.n_cell = 128;
        cfg.nprocs = 8;
        let amr = run_simulation(&cfg, None, None);
        let cmp = compare_with_macsio(&amr, 2);
        // f reflects ~22 plot variables plus refined levels and headers:
        // order 20-40 (the paper reports 23-25 on Summit).
        assert!(
            (10.0..60.0).contains(&cmp.calibration.f),
            "f = {}",
            cmp.calibration.f
        );
    }

    #[test]
    #[should_panic(expected = "at least two output steps")]
    fn single_step_target_is_rejected() {
        let mut cfg = case4(0.5, 2, 1);
        cfg.n_cell = 128;
        cfg.max_step = 0; // only the step-0 dump exists
        let amr = run_simulation(&cfg, None, None);
        compare_with_macsio(&amr, 1);
    }
}
