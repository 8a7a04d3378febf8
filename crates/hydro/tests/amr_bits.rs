//! Bit pins of the AMR solve: an FNV-1a hash over `to_bits()` of every
//! valid cell, component and level after a dozen coarse steps, plus each
//! step's `dt` and `time`. The constants were recorded from the per-cell
//! reference solver; any change to the order or kind of floating-point
//! operations in the level advance, ghost fill, regrid or CFL scan moves
//! them.

use amr_mesh::prelude::*;
use hydro::{AmrConfig, AmrSim, SedovProblem, TagCriteria, TimestepControl, NCOMP};

const STEPS: usize = 12;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn f64(&mut self, v: f64) {
        for b in v.to_bits().to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// A `table3_campaign` hydro cell: the campaign's grid and `ctrl`.
fn cfg(n_cell: i64, nranks: usize, max_grid_size: i64) -> AmrConfig {
    AmrConfig {
        n_cell,
        max_level: 2,
        grid: GridParams {
            ref_ratio: 2,
            blocking_factor: 8,
            max_grid_size,
            n_error_buf: 2,
            grid_eff: 0.7,
        },
        regrid_int: 2,
        nranks,
        strategy: DistributionStrategy::Sfc,
        ctrl: TimestepControl {
            cfl: 0.5,
            init_shrink: 0.5,
            change_max: 1.4,
        },
        tag: TagCriteria::default(),
        problem: SedovProblem::default(),
    }
}

/// The hash, and the grid count of each level at the end.
fn run_hash(cfg: AmrConfig) -> (u64, Vec<usize>) {
    let mut sim = AmrSim::new(cfg);
    let mut h = Fnv::new();
    for _ in 0..STEPS {
        let info = sim.step();
        h.f64(info.dt);
        h.f64(info.time);
    }
    for level in sim.levels() {
        for (valid, fab) in level.mf.iter() {
            for comp in 0..NCOMP {
                for p in valid.cells() {
                    h.f64(fab.get(p, comp));
                }
            }
        }
    }
    let grids = sim.levels().iter().map(|l| l.mf.nfabs()).collect();
    (h.0, grids)
}

#[test]
fn table3_n32_cell_bits_are_pinned() {
    let (hash, grids) = run_hash(cfg(32, 1, 32));
    assert_eq!(grids.len(), 3, "{grids:?}");
    assert_eq!(hash, 15251491363082931038);
}

#[test]
fn table3_n64_cell_bits_are_pinned() {
    let (hash, grids) = run_hash(cfg(64, 2, 64));
    assert_eq!(grids.len(), 3, "{grids:?}");
    assert_eq!(hash, 10909043112614366623);
}

#[test]
fn many_fab_bits_are_pinned() {
    // max_grid_size 16: coarse-fine interpolation, outflow corners and
    // exchange between fabs on every level.
    let (hash, grids) = run_hash(cfg(64, 4, 16));
    assert!(
        grids.len() == 3 && grids.iter().all(|&n| n > 1),
        "{grids:?}"
    );
    assert_eq!(hash, 12621099399529642215);
}

#[test]
fn three_fine_level_bits_are_pinned() {
    // max_level 3: a level whose coarse parent is itself a fine level, so
    // coarse-fine interpolation, exchange and averaging down run between
    // two refined levels and a coarse advance under two finer ones.
    let (hash, grids) = run_hash(AmrConfig {
        max_level: 3,
        ..cfg(64, 4, 32)
    });
    assert_eq!(grids.len(), 4, "{grids:?}");
    assert_eq!(hash, 718440145839685757);
}
