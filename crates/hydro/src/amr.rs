//! The AMR simulation driver.
//!
//! Plays the role of `Amr`/`AmrLevel` in AMReX-Castro: owns the level
//! hierarchy, advances it with a subcycled CFL time step (level `l`
//! takes `ref_ratio^l` substeps per coarse step; no flux registers, and
//! coarse ghosts are not interpolated in time), averages fine data onto
//! coarse levels, and regrids every
//! `amr.regrid_int` steps by re-tagging and re-running Berger–Rigoutsos.
//! The per-step grid hierarchy this driver produces is the paper's I/O
//! signal: plotfile bytes are a direct function of it.
//!
//! Between regrids the grids are fixed, so each regrid (and [`AmrSim::new`])
//! builds one copy plan per level (`plan.rs`, after AMReX's cached
//! `FillBoundary` metadata): the ghost-fill, sweep and average-down lists
//! every later call applies. Each sweep fills only the ghost strips it
//! reads, and a level under a finer one does not sweep the cells that
//! `average_down` overwrites after the fine subcycle. None of this moves a
//! bit: the `reference` test module keeps the advance that rescans every
//! pair of fabs, refills every ghost before each sweep and sweeps every
//! cell, and a proptest steps both through regrids.

use crate::eos::GammaLaw;
use crate::plan::{inject, LevelPlan, ALL_GHOSTS};
use crate::sedov::SedovProblem;
use crate::solver::{advance_level_in, SweepScratch, NGROW};
use crate::state::NCOMP;
use crate::tagging::{tag_gradients, TagCriteria};
use crate::timestep::{cfl_dt, limit_dt, TimestepControl};
use amr_mesh::prelude::*;
use amr_mesh::Coord;
use serde::{Deserialize, Serialize};

/// Full configuration of an AMR Sedov run (the Castro input-file surface
/// the paper varies, Table I, plus grid-generation knobs from Listing 2).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AmrConfig {
    /// Level-0 cells per direction (`amr.n_cell`).
    pub n_cell: i64,
    /// Finest level allowed (`amr.max_level`); total levels = max_level+1.
    pub max_level: usize,
    /// Grid generation parameters (`amr.ref_ratio`, `amr.blocking_factor`,
    /// `amr.max_grid_size`, `amr.n_error_buf`, `amr.grid_eff`).
    pub grid: GridParams,
    /// Steps between regrids (`amr.regrid_int`).
    pub regrid_int: u64,
    /// Simulated MPI ranks.
    pub nranks: usize,
    /// Box-to-rank assignment strategy.
    pub strategy: DistributionStrategy,
    /// Time-step control (`castro.cfl`, `castro.init_shrink`,
    /// `castro.change_max`).
    pub ctrl: TimestepControl,
    /// Refinement criteria.
    pub tag: TagCriteria,
    /// Problem definition.
    pub problem: SedovProblem,
}

impl Default for AmrConfig {
    /// Listing 2 of the paper scaled to a small default mesh.
    fn default() -> Self {
        Self {
            n_cell: 64,
            max_level: 2,
            grid: GridParams {
                ref_ratio: 2,
                blocking_factor: 8,
                max_grid_size: 32,
                n_error_buf: 2,
                grid_eff: 0.7,
            },
            regrid_int: 2,
            nranks: 4,
            strategy: DistributionStrategy::Sfc,
            ctrl: TimestepControl::default(),
            tag: TagCriteria::default(),
            problem: SedovProblem::default(),
        }
    }
}

/// One refinement level.
pub struct Level {
    /// Level geometry.
    pub geom: Geometry,
    /// Conserved state.
    pub mf: MultiFab,
    /// Steps taken at this level: `ref_ratio^l` per coarse step
    /// (subcycled), carried across regrids.
    pub steps: u64,
}

/// Per-step summary returned by [`AmrSim::step`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StepInfo {
    /// Step index after the advance (1-based).
    pub step: u64,
    /// Simulation time after the advance.
    pub time: f64,
    /// dt used.
    pub dt: f64,
    /// Finest active level.
    pub finest_level: usize,
    /// Valid cells per level.
    pub cells: Vec<i64>,
    /// Grids per level.
    pub grids: Vec<usize>,
}

/// The AMR hierarchy driver.
pub struct AmrSim {
    cfg: AmrConfig,
    eos: GammaLaw,
    levels: Vec<Level>,
    /// One copy plan per level, rebuilt whenever the grids change.
    plans: Vec<LevelPlan>,
    time: f64,
    step: u64,
    dt_prev: Option<f64>,
    /// The level advance's row scratch, reused by every sweep.
    scratch: SweepScratch,
}

impl AmrSim {
    /// Builds the hierarchy at `t = 0`: level 0 covering the unit square,
    /// then up to `max_level` finer levels from iterative initial tagging,
    /// each initialized analytically (the AMReX init-regrid cycle).
    pub fn new(cfg: AmrConfig) -> Self {
        let mut sim = Self::unrefined(cfg);
        for lev in 0..sim.cfg.max_level {
            sim.replan();
            sim.fill_ghosts(lev);
            if !sim.refine_initial(lev) {
                break;
            }
        }
        sim.replan();
        sim.average_down_all();
        sim
    }

    /// Level 0 alone, initialized, with no plans yet.
    fn unrefined(cfg: AmrConfig) -> Self {
        cfg.grid.validate();
        assert!(cfg.n_cell >= cfg.grid.blocking_factor, "n_cell too small");
        let eos = cfg.problem.eos();
        let geom0 = Geometry::unit_square(IntVect::splat(cfg.n_cell));
        let ba0 = BoxArray::single(geom0.domain).max_size(cfg.grid.max_grid_size);
        let dm0 = DistributionMapping::new(&ba0, cfg.nranks, cfg.strategy);
        let mut mf0 = MultiFab::new(ba0, dm0, NCOMP, NGROW);
        cfg.problem.init_level(&mut mf0, &geom0);
        Self {
            eos,
            levels: vec![Level {
                geom: geom0,
                mf: mf0,
                steps: 0,
            }],
            plans: Vec::new(),
            time: 0.0,
            step: 0,
            dt_prev: None,
            scratch: SweepScratch::default(),
            cfg,
        }
    }

    /// Tags level `lev` (its ghosts filled) and, if that yields grids,
    /// adds level `lev + 1` over them, initialized analytically. Returns
    /// whether it did.
    fn refine_initial(&mut self, lev: usize) -> bool {
        let tags = tag_gradients(&self.levels[lev].mf, &self.eos, &self.cfg.tag);
        let fine_ba = make_fine_grids(&tags, self.levels[lev].geom.domain, &self.cfg.grid);
        if fine_ba.is_empty() {
            return false;
        }
        let fine_geom = self.levels[lev]
            .geom
            .refine(IntVect::splat(self.cfg.grid.ref_ratio));
        let dm = DistributionMapping::new(&fine_ba, self.cfg.nranks, self.cfg.strategy);
        let mut mf = MultiFab::new(fine_ba, dm, NCOMP, NGROW);
        self.cfg.problem.init_level(&mut mf, &fine_geom);
        self.levels.push(Level {
            geom: fine_geom,
            mf,
            steps: 0,
        });
        true
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Steps taken so far.
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// Finest active level index.
    pub fn finest_level(&self) -> usize {
        self.levels.len() - 1
    }

    /// Access to the levels (coarsest first).
    pub fn levels(&self) -> &[Level] {
        &self.levels
    }

    /// The equation of state in use.
    pub fn eos(&self) -> &GammaLaw {
        &self.eos
    }

    /// Rebuilds every level's copy plan from the current grids.
    fn replan(&mut self) {
        let ratio = self.cfg.grid.ref_ratio;
        let grids = |lev: usize| self.levels.get(lev).map(|l| l.mf.box_array());
        self.plans = (0..self.levels.len())
            .map(|lev| {
                let level = &self.levels[lev];
                let coarse = lev.checked_sub(1).and_then(grids);
                LevelPlan::new(coarse, &level.mf, grids(lev + 1), ratio, level.geom.domain)
            })
            .collect();
    }

    /// Fills every ghost cell of level `lev` (corners included): coarse-fine
    /// interpolation from `lev-1`, same-level exchange, then physical
    /// outflow boundaries.
    fn fill_ghosts(&mut self, lev: usize) {
        let (coarser, rest) = self.levels.split_at_mut(lev);
        let coarse = coarser.last().map(|l| &l.mf);
        for part in ALL_GHOSTS {
            self.plans[lev].fill(&mut rest[0].mf, coarse, part);
        }
    }

    /// Conservatively averages every fine level onto its parent.
    fn average_down_all(&mut self) {
        for lev in (1..self.levels.len()).rev() {
            self.average_down(lev);
        }
    }

    /// Averages level `lev` onto level `lev - 1`.
    fn average_down(&mut self, lev: usize) {
        let (coarse, fine) = self.levels.split_at_mut(lev);
        self.plans[lev - 1].average_down(&fine[0].mf, &mut coarse[lev - 1].mf);
    }

    /// Advances the whole hierarchy by one *coarse* (level-0) step with
    /// subcycling: level `l` takes `ref_ratio^l` substeps of `dt0 /
    /// ref_ratio^l`, exactly Castro's default time stepping. `amr.max_step`
    /// therefore counts coarse steps, which is what makes the paper's
    /// 200-output windows traverse a meaningful fraction of the domain.
    /// Regrids first when the coarse step count calls for it.
    pub fn step(&mut self) -> StepInfo {
        if self.regrid_due() {
            self.regrid();
        }
        let dt0 = self.next_dt();
        self.advance_recursive(0, dt0);
        self.finish_step(dt0)
    }

    /// Whether this step starts with a regrid.
    fn regrid_due(&self) -> bool {
        self.step > 0 && self.cfg.regrid_int > 0 && self.step.is_multiple_of(self.cfg.regrid_int)
    }

    /// The coarse dt: the minimum over levels of each level's stable dt
    /// scaled to its coarse equivalent (level l subcycles r^l times),
    /// limited against the previous step's.
    fn next_dt(&mut self) -> f64 {
        let r = self.cfg.grid.ref_ratio as f64;
        let mut dt0 = f64::INFINITY;
        for (lev, l) in self.levels.iter().enumerate() {
            let dt_l = cfl_dt(&l.mf, &l.geom, &self.eos, self.cfg.ctrl.cfl);
            dt0 = dt0.min(dt_l * r.powi(lev as i32));
        }
        let dt0 = limit_dt(&self.cfg.ctrl, dt0, self.dt_prev);
        self.dt_prev = Some(dt0);
        dt0
    }

    /// Advances the clock by `dt0` and summarizes the step.
    fn finish_step(&mut self, dt0: f64) -> StepInfo {
        self.time += dt0;
        self.step += 1;
        StepInfo {
            step: self.step,
            time: self.time,
            dt: dt0,
            finest_level: self.finest_level(),
            cells: self
                .levels
                .iter()
                .map(|l| l.mf.box_array().num_pts())
                .collect(),
            grids: self.levels.iter().map(|l| l.mf.box_array().len()).collect(),
        }
    }

    /// Advances level `lev` by `dt`, then subcycles the finer level and
    /// averages it down (Castro's recursive `timeStep`). Each sweep fills
    /// only the ghost strips it reads, and under a finer level the sweeps
    /// leave out the cells `average_down` overwrites (see [`LevelPlan`]).
    fn advance_recursive(&mut self, lev: usize, dt: f64) {
        let (coarser, rest) = self.levels.split_at_mut(lev);
        let (level, finer) = rest.split_first_mut().expect("level `lev` exists");
        let coarse = coarser.last().map(|l| &l.mf);
        let plan = &self.plans[lev];
        let regions = plan.sweeps(&level.mf, finer.first().map(|l| &l.mf));
        advance_level_in(
            &mut level.mf,
            &level.geom,
            dt,
            &self.eos,
            &mut self.scratch,
            regions,
            |m: &mut MultiFab, dir| plan.fill(m, coarse, dir),
        );
        level.steps += 1;

        if lev + 1 < self.levels.len() {
            let r = self.cfg.grid.ref_ratio as usize;
            for _ in 0..r {
                self.advance_recursive(lev + 1, dt / r as f64);
            }
            self.average_down(lev + 1);
        }
    }

    /// Re-tags all levels and rebuilds levels 1..=max_level, enforcing
    /// nesting and preserving data (copy where overlapping, interpolate
    /// from the parent elsewhere).
    fn regrid(&mut self) {
        for lev in 0..=self.tag_top() {
            self.fill_ghosts(lev);
        }
        self.rebuild(self.tags());
        self.replan();
        self.average_down_all();
    }

    /// The finest level that may spawn a finer one.
    fn tag_top(&self) -> usize {
        self.finest_level()
            .min(self.cfg.max_level.saturating_sub(1))
    }

    /// The refinement tags of levels `0..=tag_top()`, whose ghosts must be
    /// filled, with nesting enforced: a level refines wherever its child
    /// will refine.
    fn tags(&self) -> Vec<TagMap> {
        let ratio = IntVect::splat(self.cfg.grid.ref_ratio);
        let top = self.tag_top();
        let mut tags: Vec<TagMap> = (0..=top)
            .map(|lev| tag_gradients(&self.levels[lev].mf, &self.eos, &self.cfg.tag))
            .collect();
        for lev in (0..top).rev() {
            let mut buffered = tags[lev + 1].coarsen(ratio);
            buffered.buffer(1);
            for p in buffered.domain().cells() {
                if buffered.get(p) {
                    tags[lev].set(p, true);
                }
            }
        }
        tags
    }

    /// Replaces levels 1.. with grids made from `tags`, coarse to fine.
    /// Level 0 is immutable and moves over as is; each old finer level is
    /// consumed as its replacement is built (level geometry depends only on
    /// the level index). Leaves the plans stale and coarse levels not yet
    /// averaged down.
    fn rebuild(&mut self, tags: Vec<TagMap>) {
        let max_lev = self.cfg.max_level;
        let ratio = IntVect::splat(self.cfg.grid.ref_ratio);
        let mut old = std::mem::take(&mut self.levels).into_iter();
        let mut new_levels: Vec<Level> = Vec::with_capacity(max_lev + 1);
        new_levels.push(old.next().expect("level 0 always exists"));
        for (lev, tags) in tags.iter().enumerate() {
            let old_fine = old.next();
            let fine_ba = make_fine_grids(tags, new_levels[lev].geom.domain, &self.cfg.grid);
            if fine_ba.is_empty() {
                break;
            }
            // Enforce nesting inside the (new) parent's grids for lev >= 1.
            let fine_ba = if lev == 0 {
                fine_ba
            } else {
                let parent_fine: Vec<IndexBox> = new_levels[lev]
                    .mf
                    .box_array()
                    .iter()
                    .map(|b| b.refine(ratio))
                    .collect();
                let mut clipped = Vec::new();
                for b in fine_ba.iter() {
                    for pb in &parent_fine {
                        if let Some(i) = b.intersection(pb) {
                            clipped.push(i);
                        }
                    }
                }
                BoxArray::new(clipped)
            };
            if fine_ba.is_empty() {
                break;
            }
            let fine_geom = new_levels[lev].geom.refine(ratio);
            let dm = DistributionMapping::new(&fine_ba, self.cfg.nranks, self.cfg.strategy);
            let mut mf = MultiFab::new(fine_ba, dm, NCOMP, NGROW);
            // Fill: prolongate from the new parent, then overwrite with
            // old same-level data where it exists.
            prolongate(&mut mf, &new_levels[lev].mf, self.cfg.grid.ref_ratio);
            if let Some(old_fine) = &old_fine {
                mf.parallel_copy_from(&old_fine.mf);
            }
            let steps = old_fine.map_or(new_levels[lev].steps, |l| l.steps);
            new_levels.push(Level {
                geom: fine_geom,
                mf,
                steps,
            });
        }
        self.levels = new_levels;
    }
}

/// Piecewise-constant prolongation of the full valid region of `fine`
/// from `coarse` (used to seed new grids at regrid).
pub(crate) fn prolongate(fine: &mut MultiFab, coarse: &MultiFab, ref_ratio: Coord) {
    for fi in 0..fine.nfabs() {
        let valid = fine.valid_box(fi);
        let fab = fine.fab_mut(fi);
        for (cbox, cfab) in coarse.iter() {
            if let Some(region) = cbox.refine(IntVect::splat(ref_ratio)).intersection(&valid) {
                inject(fab, cfab, &region, ref_ratio);
            }
        }
    }
}

/// Test oracles: the per-coarse-cell transfers the planned ones must
/// reproduce bit for bit, and the advance they replace — every ghost
/// refilled before each sweep by scanning every pair of fabs, every valid
/// cell swept.
#[cfg(test)]
pub(crate) mod reference {
    use super::{AmrConfig, AmrSim, StepInfo};
    use crate::solver::{advance_level, reference::apply_outflow_bc};
    use amr_mesh::prelude::*;
    use amr_mesh::Coord;

    /// [`AmrSim::new`] with the reference transfers; builds no plans.
    pub(crate) fn new(cfg: AmrConfig) -> AmrSim {
        let mut sim = AmrSim::unrefined(cfg);
        for lev in 0..sim.cfg.max_level {
            fill_ghosts(&mut sim, lev);
            if !sim.refine_initial(lev) {
                break;
            }
        }
        average_down_all(&mut sim);
        sim
    }

    /// [`AmrSim::step`] with the reference transfers and full sweeps.
    pub(crate) fn step(sim: &mut AmrSim) -> StepInfo {
        if sim.regrid_due() {
            for lev in 0..=sim.tag_top() {
                fill_ghosts(sim, lev);
            }
            sim.rebuild(sim.tags());
            average_down_all(sim);
        }
        let dt0 = sim.next_dt();
        advance(sim, 0, dt0);
        sim.finish_step(dt0)
    }

    fn advance(sim: &mut AmrSim, lev: usize, dt: f64) {
        let ratio = sim.cfg.grid.ref_ratio;
        let (coarser, rest) = sim.levels.split_at_mut(lev);
        let level = &mut rest[0];
        let coarse = coarser.last().map(|l| &l.mf);
        let domain = level.geom.domain;
        advance_level(
            &mut level.mf,
            &level.geom,
            dt,
            &sim.eos,
            &mut sim.scratch,
            |m: &mut MultiFab| fill_level_ghosts(m, coarse, ratio, &domain),
        );
        level.steps += 1;
        if lev + 1 < sim.levels.len() {
            for _ in 0..ratio {
                advance(sim, lev + 1, dt / ratio as f64);
            }
            let (coarse, fine) = sim.levels.split_at_mut(lev + 1);
            average_down(&fine[0].mf, &mut coarse[lev].mf, ratio);
        }
    }

    fn fill_ghosts(sim: &mut AmrSim, lev: usize) {
        let (coarser, rest) = sim.levels.split_at_mut(lev);
        let domain = rest[0].geom.domain;
        let coarse = coarser.last().map(|l| &l.mf);
        fill_level_ghosts(&mut rest[0].mf, coarse, sim.cfg.grid.ref_ratio, &domain);
    }

    fn average_down_all(sim: &mut AmrSim) {
        for lev in (1..sim.levels.len()).rev() {
            let (coarse, fine) = sim.levels.split_at_mut(lev);
            average_down(&fine[0].mf, &mut coarse[lev - 1].mf, sim.cfg.grid.ref_ratio);
        }
    }

    /// Every ghost cell of `mf`: coarse injection, then the same-level
    /// exchange, then outflow boundaries.
    pub(crate) fn fill_level_ghosts(
        mf: &mut MultiFab,
        coarse: Option<&MultiFab>,
        ref_ratio: Coord,
        domain: &IndexBox,
    ) {
        if let Some(coarse) = coarse {
            interp_ghosts_from_coarse(mf, coarse, ref_ratio, domain);
        }
        fill_boundary(mf);
        apply_outflow_bc(mf, domain);
    }

    /// The same-level exchange, one cell at a time over every pair of fabs.
    fn fill_boundary(mf: &mut MultiFab) {
        for i in 0..mf.nfabs() {
            let ghosts = mf.valid_box(i).grow(mf.ngrow());
            for j in (0..mf.nfabs()).filter(|&j| j != i) {
                let Some(overlap) = ghosts.intersection(&mf.valid_box(j)) else {
                    continue;
                };
                for p in overlap.cells() {
                    for comp in 0..mf.ncomp() {
                        let v = mf.fab(j).get(p, comp);
                        mf.fab_mut(i).set(p, comp, v);
                    }
                }
            }
        }
    }

    pub(crate) fn interp_ghosts_from_coarse(
        fine: &mut MultiFab,
        coarse: &MultiFab,
        ref_ratio: Coord,
        fine_domain: &IndexBox,
    ) {
        let ratio = IntVect::splat(ref_ratio);
        let ncomp = fine.ncomp().min(coarse.ncomp());
        let ngrow = fine.ngrow();
        for fi in 0..fine.nfabs() {
            let valid = fine.valid_box(fi);
            let grown = match valid.grow(ngrow).intersection(fine_domain) {
                Some(g) => g,
                None => continue,
            };
            let strips = BoxArray::single(valid).complement_in(&grown);
            let fab = fine.fab_mut(fi);
            for strip in strips {
                let cstrip = strip.coarsen(ratio);
                for (ci, isect) in coarse.box_array().intersections(&cstrip) {
                    let cfab = coarse.fab(ci);
                    for cp in isect.cells() {
                        let fine_cells =
                            match IndexBox::new(cp, cp).refine(ratio).intersection(&strip) {
                                Some(r) => r,
                                None => continue,
                            };
                        for comp in 0..ncomp {
                            let v = cfab.get(cp, comp);
                            for fp in fine_cells.cells() {
                                fab.set(fp, comp, v);
                            }
                        }
                    }
                }
            }
        }
    }

    pub(crate) fn prolongate(fine: &mut MultiFab, coarse: &MultiFab, ref_ratio: Coord) {
        let ratio = IntVect::splat(ref_ratio);
        let ncomp = fine.ncomp().min(coarse.ncomp());
        for fi in 0..fine.nfabs() {
            let valid = fine.valid_box(fi);
            let cregion = valid.coarsen(ratio);
            let fab = fine.fab_mut(fi);
            for (ci, isect) in coarse.box_array().intersections(&cregion) {
                let cfab = coarse.fab(ci);
                for cp in isect.cells() {
                    let fine_cells = match IndexBox::new(cp, cp).refine(ratio).intersection(&valid)
                    {
                        Some(r) => r,
                        None => continue,
                    };
                    for comp in 0..ncomp {
                        let v = cfab.get(cp, comp);
                        for fp in fine_cells.cells() {
                            fab.set(fp, comp, v);
                        }
                    }
                }
            }
        }
    }

    pub(crate) fn average_down(fine: &MultiFab, coarse: &mut MultiFab, ref_ratio: Coord) {
        let ratio = IntVect::splat(ref_ratio);
        let ncomp = coarse.ncomp().min(fine.ncomp());
        for ci in 0..coarse.nfabs() {
            let cvalid = coarse.valid_box(ci);
            let fine_region = cvalid.refine(ratio);
            for (fi, fisect) in fine.box_array().intersections(&fine_region) {
                let ffab = fine.fab(fi);
                let covered = fisect.coarsen(ratio);
                for cp in covered.cells() {
                    let cells = match IndexBox::new(cp, cp).refine(ratio).intersection(&fisect) {
                        Some(r) => r,
                        None => continue,
                    };
                    let n = cells.num_pts() as f64;
                    if cells.num_pts() != ratio.prod() {
                        continue;
                    }
                    for comp in 0..ncomp {
                        let mut sum = 0.0;
                        for fp in cells.cells() {
                            sum += ffab.get(fp, comp);
                        }
                        coarse.fab_mut(ci).set(cp, comp, sum / n);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{UEDEN, UMX, UMY, URHO};
    use crate::test_support::{multifab_bits, two_levels, Rng};
    use proptest::prelude::*;

    proptest! {
        /// Prolongation reproduces the per-coarse-cell reference bit for
        /// bit.
        #[test]
        fn prolongate_matches_reference_bits(
            lo in (-7i64..5, -7i64..5),
            size in (1i64..9, 1i64..9),
            sub in (0i64..64, 0i64..64, 0i64..64, 0i64..64),
            ratio in 2i64..5,
            max in 1i64..10,
            ngrow in 0i64..3,
            seed in 0u64..u64::MAX,
        ) {
            let (coarse, fine, _) = two_levels(lo, size, sub, ratio, max, ngrow, seed);
            let (mut a, mut b) = (fine.clone(), fine);
            prolongate(&mut a, &coarse, ratio);
            reference::prolongate(&mut b, &coarse, ratio);
            prop_assert_eq!(multifab_bits(&a), multifab_bits(&b));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// The planned advance — copy plans rebuilt at each regrid,
        /// one-direction ghost fills, no sweep over cells `average_down`
        /// overwrites — steps random configurations exactly as the
        /// reference advance does: each step's `dt`, `time` and grids, and
        /// every valid cell of every level after it, through at least two
        /// regrids. The blast is stirred first (see [`stir`]): an ambient
        /// gas at rest sweeps to the same bits, so a skipped sweep there
        /// would go unseen.
        #[test]
        fn planned_advance_matches_reference_bits(
            n_cell_16ths in 1i64..5,
            max_level in 1usize..4,
            max_grid_8ths in 1i64..5,
            nranks in 1usize..5,
            cfl in 0.3f64..0.6,
            regrid_int in 1u64..4,
            stir_seed in 0u64..u64::MAX,
        ) {
            let cfg = AmrConfig {
                n_cell: 16 * n_cell_16ths,
                max_level,
                grid: GridParams { max_grid_size: 8 * max_grid_8ths, ..small_cfg().grid },
                regrid_int,
                nranks,
                ctrl: TimestepControl { cfl, init_shrink: 0.5, change_max: 1.4 },
                ..small_cfg()
            };
            let mut sim = AmrSim::new(cfg.clone());
            let mut oracle = reference::new(cfg);
            prop_assert_eq!(valid_bits(&sim), valid_bits(&oracle), "initial hierarchy");
            stir(&mut sim, stir_seed);
            stir(&mut oracle, stir_seed);
            for step in 0..2 * regrid_int + 2 {
                let (a, b) = (sim.step(), reference::step(&mut oracle));
                prop_assert_eq!(
                    (a.dt.to_bits(), a.time.to_bits(), &a.grids, &a.cells),
                    (b.dt.to_bits(), b.time.to_bits(), &b.grids, &b.cells),
                    "step {}", step
                );
                prop_assert_eq!(valid_bits(&sim), valid_bits(&oracle), "step {}", step);
            }
        }
    }

    /// Gives every cell of every level (ghosts included) a random velocity
    /// of at most 2e-4 per component, a twentieth of the ambient sound
    /// speed, at unchanged density and pressure: the gas then moves
    /// everywhere, and no sweep leaves its cells' bits alone, while no
    /// gradient nears the tagging thresholds.
    fn stir(sim: &mut AmrSim, seed: u64) {
        let mut rng = Rng::new(seed);
        for level in &mut sim.levels {
            for fab in level.mf.fabs_mut() {
                for p in fab.domain().cells() {
                    let (u, v) = (rng.range(-2e-4, 2e-4), rng.range(-2e-4, 2e-4));
                    let rho = fab.get(p, URHO);
                    fab.set(p, UMX, rho * u);
                    fab.set(p, UMY, rho * v);
                    fab.add(p, UEDEN, 0.5 * rho * (u * u + v * v));
                }
            }
        }
    }

    /// Every valid cell's bits, level by level, with each level's grids.
    fn valid_bits(sim: &AmrSim) -> Vec<(Vec<IndexBox>, Vec<u64>)> {
        let mut out = Vec::new();
        for l in sim.levels() {
            let mut bits = Vec::new();
            for (valid, fab) in l.mf.iter() {
                for c in 0..NCOMP {
                    bits.extend(valid.cells().map(|p| fab.get(p, c).to_bits()));
                }
            }
            out.push((l.mf.box_array().as_slice().to_vec(), bits));
        }
        out
    }

    fn small_cfg() -> AmrConfig {
        AmrConfig {
            n_cell: 64,
            max_level: 2,
            grid: GridParams {
                ref_ratio: 2,
                blocking_factor: 8,
                max_grid_size: 32,
                n_error_buf: 2,
                grid_eff: 0.7,
            },
            regrid_int: 2,
            nranks: 4,
            strategy: DistributionStrategy::Sfc,
            ctrl: TimestepControl::default(),
            tag: TagCriteria::default(),
            problem: SedovProblem::default(),
        }
    }

    #[test]
    fn initial_hierarchy_refines_the_deposit() {
        let sim = AmrSim::new(small_cfg());
        assert!(sim.finest_level() >= 1, "blast region must be refined");
        // Finer levels are much smaller than the domain.
        let l0 = sim.levels()[0].mf.box_array().num_pts();
        let l1 = sim.levels()[1].mf.box_array().num_pts();
        assert!(l1 < 4 * l0, "refined level covers a fraction of the domain");
        assert!(l1 > 0);
    }

    #[test]
    fn nesting_holds_after_regrids() {
        let mut sim = AmrSim::new(small_cfg());
        for _ in 0..6 {
            sim.step();
        }
        for lev in 1..=sim.finest_level() {
            let ratio = IntVect::splat(sim.cfg.grid.ref_ratio);
            let parent: Vec<IndexBox> = sim.levels()[lev - 1]
                .mf
                .box_array()
                .iter()
                .map(|b| b.refine(ratio))
                .collect();
            for b in sim.levels()[lev].mf.box_array().iter() {
                let covered = parent
                    .iter()
                    .filter_map(|p| b.intersection(p))
                    .map(|i| i.num_pts())
                    .sum::<i64>();
                assert_eq!(covered, b.num_pts(), "level {lev} box {b} not nested");
            }
        }
    }

    #[test]
    fn dt_sequence_respects_init_shrink_and_growth() {
        let mut sim = AmrSim::new(small_cfg());
        let s1 = sim.step();
        let s2 = sim.step();
        let s3 = sim.step();
        assert!(s1.dt > 0.0);
        assert!(s2.dt <= s1.dt * 1.1 + 1e-15);
        assert!(s3.dt <= s2.dt * 1.1 + 1e-15);
        assert!(s2.time > s1.time);
    }

    #[test]
    fn blast_expands_refined_region() {
        // Accelerate the dt ramp-up (Castro's init_shrink=0.01 needs ~50
        // steps before the shock moves a cell) so the test stays fast.
        let mut cfg = small_cfg();
        cfg.ctrl = TimestepControl {
            cfl: 0.5,
            init_shrink: 0.3,
            change_max: 1.3,
        };
        let mut sim = AmrSim::new(cfg);
        let cells_t0: i64 = sim.levels()[1..]
            .iter()
            .map(|l| l.mf.box_array().num_pts())
            .sum();
        for _ in 0..40 {
            sim.step();
        }
        let cells_t1: i64 = sim.levels()[1..]
            .iter()
            .map(|l| l.mf.box_array().num_pts())
            .sum();
        assert!(
            cells_t1 > cells_t0,
            "refined cells must grow as the shock expands: {cells_t0} -> {cells_t1}"
        );
    }

    #[test]
    fn mass_is_approximately_conserved_through_steps_and_regrids() {
        let mut sim = AmrSim::new(small_cfg());
        let m0 = sim.levels()[0].mf.sum(URHO) * sim.levels()[0].geom.cell_area();
        for _ in 0..8 {
            sim.step();
        }
        let m1 = sim.levels()[0].mf.sum(URHO) * sim.levels()[0].geom.cell_area();
        // Subcycling without flux registers (no reflux) leaks a small
        // amount of mass at coarse-fine boundaries; outflow boundaries see
        // nothing before the wave arrives. Drift must stay tiny.
        assert!((m0 - m1).abs() < 5e-3 * m0, "mass {m0} -> {m1}");
    }

    #[test]
    fn max_level_zero_runs_unrefined() {
        let mut cfg = small_cfg();
        cfg.max_level = 0;
        let mut sim = AmrSim::new(cfg);
        assert_eq!(sim.finest_level(), 0);
        sim.step();
        sim.step();
        assert_eq!(sim.finest_level(), 0);
    }

    #[test]
    fn energy_positive_everywhere_after_steps() {
        let mut sim = AmrSim::new(small_cfg());
        for _ in 0..6 {
            sim.step();
        }
        for l in sim.levels() {
            assert!(l.mf.min(UEDEN) > 0.0);
            assert!(l.mf.min(URHO) > 0.0);
        }
    }

    #[test]
    fn prolongate_copies_parent_values() {
        let bac = BoxArray::single(IndexBox::at_origin(IntVect::splat(4)));
        let dmc = DistributionMapping::new(&bac, 1, DistributionStrategy::Sfc);
        let mut coarse = MultiFab::new(bac, dmc, 1, 0);
        coarse.fab_mut(0).set(IntVect::new(1, 1), 0, 7.0);
        let baf = BoxArray::single(IndexBox::from_lo_size(
            IntVect::new(2, 2),
            IntVect::splat(2),
        ));
        let dmf = DistributionMapping::new(&baf, 1, DistributionStrategy::Sfc);
        let mut fine = MultiFab::new(baf, dmf, 1, 0);
        prolongate(&mut fine, &coarse, 2);
        let region = IndexBox::from_lo_size(IntVect::new(2, 2), IntVect::splat(2));
        for p in region.cells() {
            assert_eq!(fine.fab(0).get(p, 0), 7.0);
        }
    }
}
