//! Copy plans of one AMR level, built once per regrid.
//!
//! AMReX caches the metadata of `FillBoundary` and `ParallelCopy` per
//! `BoxArray`. A level's grids here change only at a regrid, so `AmrSim`
//! builds one [`LevelPlan`] per level there (and in `AmrSim::new`), and
//! every ghost fill, sweep and average-down in between applies the plan's
//! lists instead of intersecting every pair of fabs again. A plan records
//! the grids it was built for — the coarser level's, its own and the finer
//! level's — and every use asserts them, so a stale plan panics instead of
//! copying wrongly.
//!
//! Three lists:
//! - **Ghost fills**, split into the x-strips beside each fab's valid rows,
//!   the y-strips above and below its valid columns, and the corners. The x
//!   sweep reads only x-strips and the y sweep only y-strips, so each
//!   applies its own part; tagging applies all three. Each part is coarse
//!   injection, then same-level exchange, then outflow boundaries, as the
//!   full fill orders them. Injection skips ghost cells a sibling's valid
//!   box covers, because the exchange overwrites them.
//! - **Sweep regions.** Under a finer level, `average_down` overwrites every
//!   coarse cell whose whole `r x r` block lies in one fine box (the
//!   *covered set*), and nothing reads those cells' swept values first, so
//!   the y sweep skips the covered set and the x sweep skips it eroded by
//!   [`NGROW`] along y (the y sweep reads x-swept cells that far away).
//!   Both sets live on the level's index space, not per fab.
//! - **Average-down** copies: one per (fine fab, coarse fab) pair whose
//!   overlap holds a whole block.

use crate::solver::{outflow, NGROW};
use amr_mesh::prelude::*;

/// The ghost-fill parts: the sweep along direction `d` reads only part
/// `d`, and the corners' outflow cells copy strip cells, so the corners
/// come last.
const X_STRIPS: usize = 0;
const Y_STRIPS: usize = 1;
const CORNERS: usize = 2;
/// Every ghost-fill part, in the order a full fill applies them.
pub(crate) const ALL_GHOSTS: [usize; 3] = [X_STRIPS, Y_STRIPS, CORNERS];

/// The transfers that fill one part of every fab's ghost region, applied
/// in field order.
#[derive(Default)]
struct GhostFill {
    /// Coarse fab `src` into fab `dst` over `region`: ghost cells inside
    /// the domain that no sibling's valid box covers.
    inject: Vec<FabCopy>,
    /// Sibling fab `src`'s valid cells into fab `dst`'s ghost cells.
    exchange: Vec<FabCopy>,
    /// Fab index and a region of its ghost cells outside the domain,
    /// filled from the nearest cell inside.
    outflow: Vec<(usize, IndexBox)>,
}

/// Everything a level's advance, ghost fill and average-down need to know
/// about its grids and its neighbours' grids.
pub(crate) struct LevelPlan {
    /// The coarser level's grids (`None` at level 0).
    coarse: Option<BoxArray>,
    /// This level's grids.
    own: BoxArray,
    /// The finer level's grids (`None` on the finest level).
    fine: Option<BoxArray>,
    /// Refinement ratio to each neighbour.
    ratio: Coord,
    /// This level's domain: ghost cells outside it take outflow values.
    domain: IndexBox,
    /// Indexed by part: x-strips, y-strips, corners.
    fills: [GhostFill; 3],
    /// Per fab: the boxes the x sweep and the y sweep update.
    sweeps: Vec<[Vec<IndexBox>; 2]>,
    /// Finer fab `src` averaged onto this level's fab `dst` over the coarse
    /// cells `region`.
    average_down: Vec<FabCopy>,
}

impl LevelPlan {
    /// The plan of `level`, whose ghost width the fills cover, between the
    /// grids of its coarser and finer neighbours, `ratio` apart from each.
    pub(crate) fn new(
        coarse: Option<&BoxArray>,
        level: &MultiFab,
        fine: Option<&BoxArray>,
        ratio: Coord,
        domain: IndexBox,
    ) -> Self {
        let own = level.box_array();
        let fills =
            ALL_GHOSTS.map(|part| ghost_fill(coarse, own, level.ngrow(), part, ratio, &domain));
        let average_down = fine.map_or_else(Vec::new, |fine| average_down_copies(fine, own, ratio));
        let covered: Vec<IndexBox> = average_down.iter().map(|c| c.region).collect();
        let x_skip = erode(&covered, 1, NGROW);
        let sweeps = own
            .iter()
            .map(|valid| {
                [
                    sweep_boxes(valid, &x_skip, 0),
                    sweep_boxes(valid, &covered, 1),
                ]
            })
            .collect();
        Self {
            coarse: coarse.cloned(),
            own: own.clone(),
            fine: fine.cloned(),
            ratio,
            domain,
            fills,
            sweeps,
            average_down,
        }
    }

    /// Panics unless the plan was built for `own`'s grids and, in the
    /// neighbour slot `key`, for `other`'s (`None`: no such level).
    fn check(&self, own: &MultiFab, key: &Option<BoxArray>, other: Option<&MultiFab>) {
        assert!(
            &self.own == own.box_array() && key.as_ref() == other.map(MultiFab::box_array),
            "stale level plan: the grids changed since it was built"
        );
    }

    /// Fills ghost part `part` (0: x-strips, 1: y-strips, 2: corners) of
    /// every fab of `mf` from `coarse`, the next coarser level, its own
    /// siblings and the outflow boundary.
    pub(crate) fn fill(&self, mf: &mut MultiFab, coarse: Option<&MultiFab>, part: usize) {
        self.check(mf, &self.coarse, coarse);
        let fill = &self.fills[part];
        if let Some(coarse) = coarse {
            for c in &fill.inject {
                inject(mf.fab_mut(c.dst), coarse.fab(c.src), &c.region, self.ratio);
            }
        }
        mf.copy_within(&fill.exchange);
        for (i, region) in &fill.outflow {
            outflow(mf.fab_mut(*i), region, &self.domain);
        }
    }

    /// The boxes each fab's x and y sweeps update, for `level` under
    /// `fine`.
    pub(crate) fn sweeps(
        &self,
        level: &MultiFab,
        fine: Option<&MultiFab>,
    ) -> &[[Vec<IndexBox>; 2]] {
        self.check(level, &self.fine, fine);
        &self.sweeps
    }

    /// Conservatively averages `fine` onto `coarse`, this plan's level:
    /// each covered coarse cell becomes the mean of its fine block.
    pub(crate) fn average_down(&self, fine: &MultiFab, coarse: &mut MultiFab) {
        self.check(coarse, &self.fine, Some(fine));
        for c in &self.average_down {
            average_block(
                coarse.fab_mut(c.dst),
                fine.fab(c.src),
                &c.region,
                self.ratio,
            );
        }
    }
}

/// The ghost boxes of part `part` around `valid`, `ngrow` deep: its two
/// x-strips, its two y-strips or its four corners.
fn ghost_boxes(valid: &IndexBox, ngrow: Coord, part: usize) -> Vec<IndexBox> {
    let (lo, hi) = (valid.lo(), valid.hi());
    let below = |v: Coord| (v - ngrow, v - 1);
    let above = |v: Coord| (v + 1, v + ngrow);
    let (xs, ys) = match part {
        X_STRIPS => (vec![below(lo.x), above(hi.x)], vec![(lo.y, hi.y)]),
        Y_STRIPS => (vec![(lo.x, hi.x)], vec![below(lo.y), above(hi.y)]),
        _ => (
            vec![below(lo.x), above(hi.x)],
            vec![below(lo.y), above(hi.y)],
        ),
    };
    ys.iter()
        .flat_map(|&(ylo, yhi)| {
            xs.iter().map(move |&(xlo, xhi)| {
                IndexBox::new(IntVect::new(xlo, ylo), IntVect::new(xhi, yhi))
            })
        })
        .filter(|b| b.num_pts() > 0)
        .collect()
}

/// The transfers filling ghost part `part` of every fab of a level with
/// grids `own` and `ngrow` ghost cells, below `coarse` (if any).
fn ghost_fill(
    coarse: Option<&BoxArray>,
    own: &BoxArray,
    ngrow: Coord,
    part: usize,
    ratio: Coord,
    domain: &IndexBox,
) -> GhostFill {
    let mut fill = GhostFill::default();
    let whole_domain = BoxArray::single(*domain);
    for (i, valid) in own.iter().enumerate() {
        for ghosts in ghost_boxes(valid, ngrow, part) {
            fill.outflow.extend(
                whole_domain
                    .complement_in(&ghosts)
                    .into_iter()
                    .map(|b| (i, b)),
            );
            let Some(inside) = ghosts.intersection(domain) else {
                continue;
            };
            fill.exchange.extend(own.copies_into(i, inside));
            let Some(coarse) = coarse else {
                continue;
            };
            let siblings = own.intersections(&inside).into_iter().map(|(_, b)| b);
            for open in BoxArray::new(siblings.collect()).complement_in(&inside) {
                for (ci, cbox) in coarse.iter().enumerate() {
                    if let Some(region) = cbox.refine(IntVect::splat(ratio)).intersection(&open) {
                        fill.inject.push(FabCopy {
                            src: ci,
                            dst: i,
                            region,
                        });
                    }
                }
            }
        }
    }
    fill
}

/// The average-down copies from `fine` onto `coarse`: per coarse fab, per
/// fine fab, the coarse cells whose whole block lies in their overlap.
/// Coarse cells only partly covered by one fine box are left alone.
fn average_down_copies(fine: &BoxArray, coarse: &BoxArray, r: Coord) -> Vec<FabCopy> {
    let mut copies = Vec::new();
    for (ci, cbox) in coarse.iter().enumerate() {
        let fine_region = cbox.refine(IntVect::splat(r));
        for (fi, fbox) in fine.iter().enumerate() {
            let Some(fisect) = fbox.intersection(&fine_region) else {
                continue;
            };
            let (flo, fhi) = (fisect.lo(), fisect.hi());
            let region = IndexBox::new(
                IntVect::new((flo.x + r - 1).div_euclid(r), (flo.y + r - 1).div_euclid(r)),
                IntVect::new((fhi.x + 1).div_euclid(r) - 1, (fhi.y + 1).div_euclid(r) - 1),
            );
            if region.num_pts() > 0 {
                copies.push(FabCopy {
                    src: fi,
                    dst: ci,
                    region,
                });
            }
        }
    }
    copies
}

/// The cells of the union of `boxes` whose neighbours up to `n` cells away
/// along `dir` all lie in the union, as disjoint boxes.
fn erode(boxes: &[IndexBox], dir: usize, n: Coord) -> Vec<IndexBox> {
    let union = BoxArray::new(boxes.to_vec());
    if union.is_empty() {
        return Vec::new();
    }
    let mut reach = IntVect::splat(0);
    reach.set(dir, n);
    let bound = union.minimal_box().grow_vect(reach);
    let near_outside: Vec<IndexBox> = union
        .complement_in(&bound)
        .iter()
        .map(|b| b.grow_vect(reach))
        .collect();
    BoxArray::new(near_outside).complement_in(&bound)
}

/// The cells of `valid` outside every box of `skip`, as boxes whose lines
/// along `dir` are the sweep's pencils. A lane (row or column) becomes one
/// pencil per run between skipped stretches; a skipped stretch shorter
/// than [`NGROW`] is swept anyway, since the pencil after it would read
/// cells the pencil before it has already updated. Consecutive lanes with
/// the same runs share a box.
fn sweep_boxes(valid: &IndexBox, skip: &[IndexBox], dir: usize) -> Vec<IndexBox> {
    let holes: Vec<IndexBox> = skip.iter().filter_map(|s| s.intersection(valid)).collect();
    if holes.is_empty() {
        return vec![*valid];
    }
    let across = 1 - dir;
    let cell = |along: Coord, lane: Coord| {
        let mut p = IntVect::splat(0);
        p.set(dir, along);
        p.set(across, lane);
        p
    };
    let lane_runs = |lane: Coord| {
        let mut cuts: Vec<(Coord, Coord)> = holes
            .iter()
            .filter(|h| (h.lo().get(across)..=h.hi().get(across)).contains(&lane))
            .map(|h| (h.lo().get(dir), h.hi().get(dir)))
            .collect();
        cuts.sort_unstable();
        let mut runs = Vec::new();
        let mut start = valid.lo().get(dir);
        for (a, b) in cuts {
            if a > start {
                push_run(&mut runs, (start, a - 1));
            }
            start = start.max(b + 1);
        }
        if start <= valid.hi().get(dir) {
            push_run(&mut runs, (start, valid.hi().get(dir)));
        }
        runs
    };
    let (first, last) = (valid.lo().get(across), valid.hi().get(across));
    let mut out = Vec::new();
    // The lanes from `since` on all have the runs `open`.
    let (mut since, mut open) = (first, Vec::new());
    for lane in first..=last + 1 {
        let runs = if lane <= last {
            lane_runs(lane)
        } else {
            Vec::new()
        };
        if runs != open {
            out.extend(
                open.iter()
                    .map(|&(a, b)| IndexBox::new(cell(a, since), cell(b, lane - 1))),
            );
            (since, open) = (lane, runs);
        }
    }
    out
}

/// Appends `run` to a lane's runs, joining it to the last one when the
/// skipped stretch between them is shorter than [`NGROW`].
fn push_run(runs: &mut Vec<(Coord, Coord)>, run: (Coord, Coord)) {
    match runs.last_mut() {
        Some(last) if run.0 - last.1 - 1 < NGROW => last.1 = run.1,
        _ => runs.push(run),
    }
}

/// Copies into every cell of `region` the value of the coarse cell above it
/// in `cfab`, for every component both fabs hold. `region` must lie inside
/// `fab` and refine cells of `cfab`.
pub(crate) fn inject(fab: &mut FArrayBox, cfab: &FArrayBox, region: &IndexBox, ratio: Coord) {
    let (fdom, cdom) = (fab.domain(), cfab.domain());
    let ncomp = fab.ncomp().min(cfab.ncomp());
    let (lo, hi) = (region.lo(), region.hi());
    for (comp, dst) in fab.comps_mut().take(ncomp).enumerate() {
        let src = cfab.comp(comp);
        for y in lo.y..=hi.y {
            let cy = y.div_euclid(ratio);
            let row = fdom.offset(IntVect::new(lo.x, y));
            for (k, x) in (lo.x..=hi.x).enumerate() {
                dst[row + k] = src[cdom.offset(IntVect::new(x.div_euclid(ratio), cy))];
            }
        }
    }
}

/// Sets each cell of `region` in `cfab` to the mean of its `r x r` block
/// in `ffab`, for every component both fabs hold: rows of the block low to
/// high, each row left to right.
fn average_block(cfab: &mut FArrayBox, ffab: &FArrayBox, region: &IndexBox, r: Coord) {
    let (cdom, fdom) = (cfab.domain(), ffab.domain());
    let ncomp = cfab.ncomp().min(ffab.ncomp());
    let n = (r * r) as f64;
    let (lo, hi) = (region.lo(), region.hi());
    let (nx, fine_width, ru) = (
        region.length(0) as usize,
        fdom.length(0) as usize,
        r as usize,
    );
    for (comp, dst) in cfab.comps_mut().take(ncomp).enumerate() {
        let src = ffab.comp(comp);
        for cy in lo.y..=hi.y {
            let out = cdom.offset(IntVect::new(lo.x, cy));
            let block_row = fdom.offset(IntVect::new(lo.x * r, cy * r));
            for (k, d) in dst[out..out + nx].iter_mut().enumerate() {
                let mut sum = 0.0;
                for fy in 0..ru {
                    let row = block_row + fy * fine_width + k * ru;
                    for v in &src[row..row + ru] {
                        sum += v;
                    }
                }
                *d = sum / n;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amr::reference;
    use crate::eos::GammaLaw;
    use crate::state::{NCOMP, URHO};
    use crate::test_support::{boxed, fill, multifab_bits, random_level, two_levels, Rng};
    use proptest::prelude::*;

    /// The sub-box of `domain` that `sub` picks: low corner and size, each
    /// wrapped into the domain.
    fn sub_box(domain: IndexBox, sub: (Coord, Coord, Coord, Coord)) -> IndexBox {
        let (lo, size) = (domain.lo(), domain.size());
        boxed(
            lo.x + sub.0 % size.x,
            lo.y + sub.1 % size.y,
            1 + sub.2 % size.x,
            1 + sub.3 % size.y,
        )
        .intersection(&domain)
        .expect("the sub-box starts inside the domain")
    }

    proptest! {
        /// Filling every part in order writes what the reference fill
        /// writes, and each sweep's part alone writes exactly its own ghost
        /// boxes, with the reference's values, leaving every other cell as
        /// it was. (The corners' outflow cells copy strip cells, so the
        /// corners come last.)
        #[test]
        fn ghost_fills_match_reference_bits(
            lo in (-7i64..5, -7i64..5),
            size in (1i64..9, 1i64..9),
            sub in (0i64..64, 0i64..64, 0i64..64, 0i64..64),
            ratio in 2i64..5,
            max in 1i64..10,
            ngrow in 0i64..4,
            seed in 0u64..u64::MAX,
        ) {
            let (coarse, fine, fdomain) = two_levels(lo, size, sub, ratio, max, ngrow, seed);
            let plan = LevelPlan::new(Some(coarse.box_array()), &fine, None, ratio, fdomain);
            let mut oracle = fine.clone();
            reference::fill_level_ghosts(&mut oracle, Some(&coarse), ratio, &fdomain);
            let mut all = fine.clone();
            for part in ALL_GHOSTS {
                plan.fill(&mut all, Some(&coarse), part);
                if part == CORNERS {
                    continue;
                }
                let mut one = fine.clone();
                plan.fill(&mut one, Some(&coarse), part);
                for i in 0..fine.nfabs() {
                    let mine = ghost_boxes(&fine.valid_box(i), ngrow, part);
                    for p in fine.fab(i).domain().cells() {
                        let want = if mine.iter().any(|b| b.contains(p)) { &oracle } else { &fine };
                        for c in 0..NCOMP {
                            prop_assert_eq!(
                                one.fab(i).get(p, c).to_bits(),
                                want.fab(i).get(p, c).to_bits(),
                                "part {} fab {} cell {}", part, i, p
                            );
                        }
                    }
                }
            }
            prop_assert_eq!(multifab_bits(&all), multifab_bits(&oracle));
        }

        /// The planned average-down reproduces the per-coarse-cell
        /// reference bit for bit.
        #[test]
        fn average_down_matches_reference_bits(
            lo in (-7i64..5, -7i64..5),
            size in (1i64..9, 1i64..9),
            sub in (0i64..64, 0i64..64, 0i64..64, 0i64..64),
            ratio in 2i64..5,
            max in 1i64..10,
            ngrow in 0i64..3,
            seed in 0u64..u64::MAX,
        ) {
            let (coarse, fine, _) = two_levels(lo, size, sub, ratio, max, ngrow, seed);
            let cdomain = coarse.box_array().minimal_box();
            let plan = LevelPlan::new(None, &coarse, Some(fine.box_array()), ratio, cdomain);
            let (mut a, mut b) = (coarse.clone(), coarse);
            plan.average_down(&fine, &mut a);
            reference::average_down(&fine, &mut b, ratio);
            prop_assert_eq!(multifab_bits(&a), multifab_bits(&b));
        }

        /// The covered set is exactly the set of cells `average_down`
        /// writes, and the sweeps skip only covered cells: fine grids with
        /// unaligned boxes, boxes that straddle a coarse block and pairs of
        /// boxes that share one, averaged onto a NaN-filled coarse level.
        /// The y sweep updates every uncovered cell, the x sweep every cell
        /// fewer than `NGROW + 1` rows from an uncovered one, each cell at
        /// most once, and pencils of one lane stay `NGROW` cells apart.
        #[test]
        fn sweeps_skip_only_what_average_down_writes(
            size in (1i64..12, 1i64..12),
            max in 1i64..9,
            ratio in 2i64..4,
            first in (0i64..96, 0i64..96, 0i64..96, 0i64..96),
            second in (0i64..96, 0i64..96, 0i64..96, 0i64..96),
            fine_max in 1i64..10,
            seed in 0u64..u64::MAX,
        ) {
            let cdomain = boxed(-3, -2, size.0, size.1);
            let mut coarse = random_level(cdomain, max, NGROW, seed, 0);
            for c in 0..NCOMP {
                coarse.set_val(c, f64::NAN);
            }
            let fdomain = cdomain.refine(IntVect::splat(ratio));
            let (a, b) = (sub_box(fdomain, first), sub_box(fdomain, second));
            let mut boxes = BoxArray::single(a).max_size(fine_max).as_slice().to_vec();
            for piece in BoxArray::single(a).complement_in(&b) {
                boxes.extend(BoxArray::single(piece).max_size(fine_max).iter());
            }
            let fine_ba = BoxArray::new(boxes);
            let dm = DistributionMapping::new(&fine_ba, 1, DistributionStrategy::Sfc);
            let mut fine = MultiFab::new(fine_ba, dm, NCOMP, 0);
            let mut rng = Rng::new(seed);
            for fab in fine.fabs_mut() {
                fill(fab, &mut rng, 0, &GammaLaw::default());
            }

            let plan = LevelPlan::new(None, &coarse, Some(fine.box_array()), ratio, cdomain);
            let covered: Vec<IndexBox> = plan.average_down.iter().map(|c| c.region).collect();
            let in_covered = |p: IntVect| covered.iter().any(|b| b.contains(p));
            let mut planned = coarse.clone();
            plan.average_down(&fine, &mut planned);
            reference::average_down(&fine, &mut coarse, ratio);
            prop_assert_eq!(multifab_bits(&planned), multifab_bits(&coarse));

            for (i, (valid, fab)) in coarse.iter().enumerate() {
                let [xs, ys] = &plan.sweeps[i];
                for p in valid.cells() {
                    prop_assert_eq!(!fab.get(p, URHO).is_nan(), in_covered(p), "cell {}", p);
                    let times = |bs: &[IndexBox]| bs.iter().filter(|b| b.contains(p)).count();
                    let (swept_x, swept_y) = (times(xs), times(ys));
                    prop_assert!(swept_x <= 1 && swept_y <= 1, "cell {} swept twice", p);
                    prop_assert!(swept_y == 1 || in_covered(p), "uncovered {} skipped by y", p);
                    let near_uncovered = (-NGROW..=NGROW).any(|d| !in_covered(p + IntVect::new(0, d)));
                    prop_assert!(swept_x == 1 || !near_uncovered, "{} skipped by x", p);
                }
                for (dir, bs) in [xs, ys].into_iter().enumerate() {
                    for (k, b) in bs.iter().enumerate() {
                        prop_assert!(valid.contains_box(b));
                        for c in &bs[k + 1..] {
                            let across = 1 - dir;
                            let share = b.lo().get(across) <= c.hi().get(across)
                                && c.lo().get(across) <= b.hi().get(across);
                            let gap = (c.lo().get(dir) - b.hi().get(dir))
                                .max(b.lo().get(dir) - c.hi().get(dir))
                                - 1;
                            prop_assert!(!share || gap >= NGROW, "pencils {} and {} too close", b, c);
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "stale level plan")]
    fn a_plan_for_other_grids_panics() {
        let domain = boxed(0, 0, 16, 16);
        let built = random_level(domain, 8, NGROW, 1, 0);
        let mut other = random_level(domain, 16, NGROW, 1, 0);
        LevelPlan::new(None, &built, None, 2, domain).fill(&mut other, None, 0);
    }

    #[test]
    fn average_down_is_mean_of_children() {
        let geomc = Geometry::unit_square(IntVect::splat(8));
        let bac = BoxArray::single(geomc.domain);
        let dmc = DistributionMapping::new(&bac, 1, DistributionStrategy::Sfc);
        let mut coarse = MultiFab::new(bac, dmc, NCOMP, 0);
        let baf = BoxArray::single(IndexBox::at_origin(IntVect::splat(4)));
        let dmf = DistributionMapping::new(&baf, 1, DistributionStrategy::Sfc);
        let mut fine = MultiFab::new(baf, dmf, NCOMP, 0);
        // Fine values: 1, 2, 3, 4 in each 2x2 block -> coarse = 2.5.
        for p in IndexBox::at_origin(IntVect::splat(4)).cells() {
            let v = 1.0 + (p.x % 2) as f64 + 2.0 * (p.y % 2) as f64;
            fine.fab_mut(0).set(p, URHO, v);
        }
        LevelPlan::new(None, &coarse, Some(fine.box_array()), 2, geomc.domain)
            .average_down(&fine, &mut coarse);
        for p in IndexBox::at_origin(IntVect::splat(2)).cells() {
            assert_eq!(coarse.fab(0).get(p, URHO), 2.5);
        }
        // Uncovered coarse cells untouched.
        assert_eq!(coarse.fab(0).get(IntVect::new(5, 5), URHO), 0.0);
    }
}
