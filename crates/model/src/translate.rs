//! Listing 1 of the paper: the functional mapping `g` from AMReX-Castro
//! inputs to a MACSio invocation.

use crate::partsize::part_size;
use macsio::{FileMode, Interface, MacsioConfig};
use serde::{Deserialize, Serialize};

/// The AMReX-Castro inputs of Table I (the model's domain).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct AmrInputs {
    /// `amr.max_step`.
    pub max_step: u64,
    /// `amr.n_cell` (level-0 cells per direction).
    pub n_cell: (i64, i64),
    /// `amr.max_level`.
    pub max_level: usize,
    /// `amr.plot_int`.
    pub plot_int: u64,
    /// `castro.cfl`.
    pub cfl: f64,
    /// MPI tasks (`jsrun -n`).
    pub nprocs: usize,
}

/// Calibrated model parameters (the "runtime" quantities of Listing 1).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TranslationModel {
    /// Eq. (3) correction factor.
    pub f: f64,
    /// Per-dump growth multiplier.
    pub dataset_growth: f64,
    /// Simulated seconds between dumps (platform-dependent degree of
    /// freedom for dynamic studies).
    pub compute_time: f64,
    /// Extra metadata bytes per task per dump.
    pub meta_size: u64,
    /// In-situ compression ratio of the modeled run (logical / physical;
    /// 1.0 without compression). The proxy replicates the *physical* I/O
    /// workload, so Eq. (3)'s part size shrinks by this factor.
    pub compression_ratio: f64,
}

impl Default for TranslationModel {
    /// The paper's recommended starting point: `f` mid-range,
    /// `dataset_growth` just above 1, no compression.
    fn default() -> Self {
        Self {
            f: 24.0,
            dataset_growth: 1.01,
            compute_time: 0.0,
            meta_size: 0,
            compression_ratio: 1.0,
        }
    }
}

/// The paper's Appendix A guidance for an initial `dataset_growth` guess:
/// within `[1.0, 1.02]`, increasing with both CFL and the number of AMR
/// levels (interpolating the Fig. 10 calibrations).
pub fn default_growth_guess(cfl: f64, max_level: usize) -> f64 {
    let cfl_term = ((cfl - 0.3) / 0.3).clamp(0.0, 1.0);
    let level_term = ((max_level as f64 - 2.0) / 2.0).clamp(0.0, 1.0);
    1.0 + 0.02 * (0.5 * cfl_term + 0.5 * level_term)
}

/// Listing 1: builds the MACSio invocation equivalent to an AMReX run.
///
/// A calibrated `compression_ratio > 1` divides the Eq. (3) part size:
/// the proxy reproduces the physical (post-compression) byte stream the
/// storage system actually absorbs.
pub fn translate(inputs: &AmrInputs, model: &TranslationModel) -> MacsioConfig {
    assert!(
        model.compression_ratio >= 1.0,
        "translate: compression ratio must be >= 1"
    );
    let num_dumps = (inputs.max_step / inputs.plot_int.max(1)).max(1) as u32;
    let logical = part_size(model.f, inputs.n_cell.0, inputs.n_cell.1, inputs.nprocs);
    MacsioConfig {
        interface: Interface::Miftmpl,
        parallel_file_mode: FileMode::Mif(inputs.nprocs),
        num_dumps,
        part_size: ((logical as f64 / model.compression_ratio).round() as u64).max(1),
        avg_num_parts: 1.0,
        vars_per_part: 1,
        compute_time: model.compute_time,
        meta_size: model.meta_size,
        dataset_growth: model.dataset_growth,
        nprocs: inputs.nprocs,
        seed: 0x4D_41_43,
        io_backend: Default::default(),
        compression: Default::default(),
        mode: Default::default(),
        read_pattern: Default::default(),
        scenario: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case4() -> AmrInputs {
        AmrInputs {
            max_step: 200,
            n_cell: (512, 512),
            max_level: 4,
            plot_int: 1,
            cfl: 0.4,
            nprocs: 32,
        }
    }

    #[test]
    fn translation_matches_listing1_shape() {
        let cfg = translate(&case4(), &TranslationModel::default());
        assert_eq!(cfg.interface, Interface::Miftmpl);
        assert_eq!(cfg.parallel_file_mode, FileMode::Mif(32));
        assert_eq!(cfg.num_dumps, 200);
        assert_eq!(cfg.avg_num_parts, 1.0);
        assert_eq!(cfg.vars_per_part, 1);
        assert_eq!(cfg.nprocs, 32);
        // Eq. (3) with f = 24: 24*8*512^2/32.
        assert_eq!(cfg.part_size, 1_572_864);
    }

    #[test]
    fn num_dumps_is_steps_over_plot_int() {
        let mut inputs = case4();
        inputs.max_step = 500;
        inputs.plot_int = 20;
        let cfg = translate(&inputs, &TranslationModel::default());
        assert_eq!(cfg.num_dumps, 25);
    }

    #[test]
    fn growth_guess_monotone_in_cfl_and_levels() {
        let g_low = default_growth_guess(0.3, 2);
        let g_cfl = default_growth_guess(0.6, 2);
        let g_lvl = default_growth_guess(0.3, 4);
        let g_both = default_growth_guess(0.6, 4);
        assert_eq!(g_low, 1.0);
        assert!(g_cfl > g_low);
        assert!(g_lvl > g_low);
        assert!(g_both > g_cfl.max(g_lvl));
        // Stays inside the paper's stated [1.0, 1.02] band.
        assert!(g_both <= 1.02 + 1e-12);
    }

    #[test]
    fn translated_config_validates() {
        translate(&case4(), &TranslationModel::default()).validate();
    }

    #[test]
    fn compression_ratio_divides_part_size() {
        let base = translate(&case4(), &TranslationModel::default());
        let compressed = translate(
            &case4(),
            &TranslationModel {
                compression_ratio: 4.0,
                ..TranslationModel::default()
            },
        );
        assert_eq!(compressed.part_size, base.part_size.div_ceil(4));
        compressed.validate();
        // Everything else is untouched.
        assert_eq!(compressed.num_dumps, base.num_dumps);
        assert_eq!(compressed.nprocs, base.nprocs);
    }
}
