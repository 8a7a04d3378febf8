//! Size-exact plotfile accounting without materializing field data.
//!
//! The paper's largest runs produce tens of gigabytes per dump; the oracle
//! path must account for those bytes without allocating or serializing the
//! payload — or formatting a header just to measure it. The `Cell_D` byte
//! count is deterministic (FAB header plus `cells * vars * 8` per box) and
//! every length comes from the arithmetic `*_len` twin of its formatter
//! (the rule in [`crate::format`]): per box for `Cell_D` and `Cell_H`, per
//! dump for the top-level `Header` (four floats per box) and `job_info`.
//! So a plotfile dump costs O(ranks + boxes) integer work and one
//! allocation per file, its path; debug builds check every level's
//! `Cell_H` and every dump's `Header` and `job_info` against the
//! formatters. (A checkpoint's own `Header` is still formatted to be
//! measured; it carries no per-box floats.)
//! `account_levels` is the one per-level loop; the plotfile and both
//! checkpoint entry points hand it their sink. Tests enforce equivalence
//! with [`crate::writer::write_plotfile`] and with the string-building
//! sizer this replaced (kept as their oracle).

use crate::format::{
    cell_d_name, cell_d_name_len, cell_d_path, cell_h, cell_h_len, fab_header, fab_header_len,
    job_info, job_info_len, plotfile_header, plotfile_header_len, FabOnDisk, HeaderLevel,
};
use crate::writer::PlotfileStats;
use amr_mesh::{BoxArray, DistributionMapping, Geometry};
use io_engine::{FilePerProcess, IoBackend, Payload, Put};
use iosim::{IoKey, IoKind, IoTracker, MemFs, Vfs};
use std::io;

/// One level described by layout only (no data).
pub struct LayoutLevel {
    /// Level geometry.
    pub geom: Geometry,
    /// Grids.
    pub ba: BoxArray,
    /// Rank ownership.
    pub dm: DistributionMapping,
    /// Steps taken at this level.
    pub level_steps: u64,
}

/// Everything needed to account one plotfile dump.
pub struct PlotfileLayout {
    /// Directory name (recorded in requests, nothing is written).
    pub dir: String,
    /// Output counter used as the tracker `step` key.
    pub output_counter: u32,
    /// Simulation time.
    pub time: f64,
    /// Plot variable names.
    pub var_names: Vec<String>,
    /// Refinement ratio.
    pub ref_ratio: i64,
    /// Levels, coarsest first.
    pub levels: Vec<LayoutLevel>,
    /// Input parameters echoed into job_info.
    pub inputs: Vec<(String, String)>,
}

/// Accounts the exact bytes [`crate::writer::write_plotfile`] would write
/// for `layout`, recording into `tracker` and returning the same stats —
/// without allocating any payload.
pub fn account_plotfile(tracker: &IoTracker, layout: &PlotfileLayout) -> PlotfileStats {
    let fs = MemFs::with_retention(0);
    let mut backend = FilePerProcess::new(&fs as &dyn Vfs, tracker);
    account_plotfile_with(&mut backend, layout)
}

/// Accounts one plotfile dump through an [`IoBackend`] using size-only
/// payloads: the backend keeps its physical layout, file-count, and
/// request accounting (aggregation, deferred staging) but performs no
/// writes, so oracle-scale dumps cost no memory.
pub fn account_plotfile_with(
    backend: &mut dyn IoBackend,
    layout: &PlotfileLayout,
) -> PlotfileStats {
    assert!(!layout.levels.is_empty(), "account_plotfile: no levels");
    backend.begin_step(layout.output_counter, &layout.dir);
    let mut put = |level, task, kind, path, bytes| {
        backend.put(Put {
            key: IoKey {
                step: layout.output_counter,
                level,
                task,
            },
            kind,
            path,
            payload: Payload::Size(bytes),
        })
    };
    let levels: Vec<_> = layout.levels.iter().map(|l| (&l.ba, &l.dm)).collect();
    account_levels(&layout.dir, layout.var_names.len(), &levels, &mut put)
        .expect("size-only puts cannot fail");

    // Header + job_info: per dump, sized by their twins like the rest.
    let header_levels: Vec<HeaderLevel> = (layout.levels.iter())
        .map(|l| HeaderLevel {
            geom: l.geom,
            boxes: l.ba.as_slice(),
            level_steps: l.level_steps,
        })
        .collect();
    let (nranks, steps0) = (layout.levels[0].dm.nranks(), layout.levels[0].level_steps);
    let (vars, time, ratio) = (&layout.var_names, layout.time, layout.ref_ratio);
    let header = plotfile_header_len(vars, time, &header_levels, ratio);
    let ji = job_info_len(nranks, steps0, time, &layout.inputs);
    debug_assert_eq!(
        (header, ji),
        (
            plotfile_header(vars, time, &header_levels, ratio).len() as u64,
            job_info(nranks, steps0, time, &layout.inputs).len() as u64
        ),
        "plotfile_header_len, job_info_len"
    );
    for (name, bytes) in [("Header", header), ("job_info", ji)] {
        let path = format!("{}/{}", layout.dir, name);
        put(0, 0, IoKind::Metadata, path, bytes).expect("size-only puts cannot fail");
    }
    let step = backend.end_step().expect("size-only steps cannot fail");
    PlotfileStats::from_step(step)
}

/// The per-level accounting loop every account-only dump shares: for each
/// level, one `Level_<l>/Cell_D_<rank>` data file per rank owning a box
/// (rank order, task = rank), then the level's `Cell_H` (task 0) — the
/// order [`crate::writer::write_plotfile_with`] writes them in. Each file
/// goes to `emit(level, task, kind, path, bytes)`.
///
/// # Panics
/// Panics, before anything is emitted, if a level is mapped over a
/// different number of ranks than level 0.
pub(crate) fn account_levels(
    dir: &str,
    ncomp: usize,
    levels: &[(&BoxArray, &DistributionMapping)],
    mut emit: impl FnMut(u32, u32, IoKind, String, u64) -> io::Result<()>,
) -> io::Result<()> {
    let nranks = levels[0].1.nranks();
    for (lev, (_, dm)) in levels.iter().enumerate() {
        assert_eq!(
            dm.nranks(),
            nranks,
            "account: level {lev} is mapped over {} ranks but level 0 over {nranks}",
            dm.nranks()
        );
    }
    for (lev, (ba, dm)) in levels.iter().enumerate() {
        let lev_dir = format!("{dir}/Level_{lev}");
        let (cell_d, cell_h) = level_sizes(ba, dm, ncomp);
        for (rank, &bytes) in cell_d.iter().enumerate() {
            // Zero bytes means no box (a FAB record is never empty), and a
            // rank owning no box at this level writes no file.
            if bytes > 0 {
                let path = cell_d_path(&lev_dir, rank);
                emit(lev as u32, rank as u32, IoKind::Data, path, bytes)?;
            }
        }
        let path = format!("{lev_dir}/Cell_H");
        emit(lev as u32, 0, IoKind::Metadata, path, cell_h)?;
    }
    Ok(())
}

/// Sizes one level in a single pass over the box owners: the `Cell_D`
/// bytes by rank (0 for a rank owning no box) and the `Cell_H` length. A
/// rank's fabs land in its `Cell_D` in box-index order, so the running
/// per-rank total is each fab's `FabOnDisk` offset.
fn level_sizes(ba: &BoxArray, dm: &DistributionMapping, ncomp: usize) -> (Vec<u64>, u64) {
    assert_eq!(ba.len(), dm.len(), "account: box array and mapping differ");
    let mut cell_d = vec![0u64; dm.nranks()];
    let grids = ba.iter().zip(dm.owners()).map(|(valid, &rank)| {
        let offset = cell_d[rank];
        cell_d[rank] += fab_header_len(valid, ncomp) + valid.num_pts() as u64 * ncomp as u64 * 8;
        (valid, cell_d_name_len(rank), offset)
    });
    let cell_h = cell_h_len(ncomp, grids);
    debug_assert_eq!(cell_h, formatted_cell_h_len(ba, dm, ncomp), "cell_h_len");
    (cell_d, cell_h)
}

/// The level's `Cell_H` length the way the string-building sizer found
/// it: format every FAB header for the offsets, build the file, measure.
/// Debug builds check every accounted level against it.
fn formatted_cell_h_len(ba: &BoxArray, dm: &DistributionMapping, ncomp: usize) -> u64 {
    let mut next = vec![0u64; dm.nranks()];
    let fods: Vec<FabOnDisk> = (ba.iter().zip(dm.owners()))
        .map(|(valid, &rank)| {
            let offset = next[rank];
            next[rank] += fab_header(valid, ncomp).len() as u64;
            next[rank] += valid.num_pts() as u64 * ncomp as u64 * 8;
            let file = cell_d_name(rank);
            FabOnDisk { file, offset }
        })
        .collect();
    let zeros = vec![vec![0.0; ncomp]; ba.len()];
    cell_h(ncomp, ba.as_slice(), &fods, &zeros, &zeros).len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{
        account_checkpoint, account_checkpoint_with, checkpoint_header, CheckpointLevel,
        CheckpointSpec,
    };
    use crate::writer::{write_plotfile, PlotLevel, PlotfileSpec};
    use amr_mesh::prelude::*;
    use proptest::prelude::*;

    fn ba_dm(n: i64, max: i64, nranks: usize) -> (BoxArray, DistributionMapping) {
        let ba = BoxArray::single(IndexBox::at_origin(IntVect::splat(n))).max_size(max);
        let dm = DistributionMapping::new(&ba, nranks, DistributionStrategy::Sfc);
        (ba, dm)
    }

    /// The sizer must agree with the real writer byte-for-byte on the data
    /// files and to formatting-width tolerance on metadata.
    #[test]
    fn matches_real_writer() {
        let (ba, dm) = ba_dm(64, 16, 4);
        let geom = Geometry::unit_square(IntVect::splat(64));
        let mut mf = MultiFab::new(ba.clone(), dm.clone(), 2, 0);
        // Positive O(1) values keep min/max formatting width identical to
        // the sizer's zero placeholders.
        mf.set_val(0, 1.5);
        mf.set_val(1, 2.5);

        let fs = MemFs::new();
        let t_writer = IoTracker::new();
        let spec = PlotfileSpec {
            dir: "/plt0".into(),
            output_counter: 1,
            time: 0.5,
            var_names: vec!["a".into(), "b".into()],
            ref_ratio: 2,
            levels: vec![PlotLevel {
                geom,
                mf: &mf,
                level_steps: 3,
            }],
            inputs: vec![("k".into(), "v".into())],
        };
        let ws = write_plotfile(&fs, &t_writer, &spec).unwrap();

        let t_sizer = IoTracker::new();
        let layout = PlotfileLayout {
            dir: "/plt0".into(),
            output_counter: 1,
            time: 0.5,
            var_names: vec!["a".into(), "b".into()],
            ref_ratio: 2,
            levels: vec![LayoutLevel {
                geom,
                ba,
                dm,
                level_steps: 3,
            }],
            inputs: vec![("k".into(), "v".into())],
        };
        let ss = account_plotfile(&t_sizer, &layout);

        assert_eq!(
            t_writer.total_bytes_of(IoKind::Data),
            t_sizer.total_bytes_of(IoKind::Data),
            "data bytes must match exactly"
        );
        assert_eq!(ws.nfiles, ss.nfiles);
        let meta_w = t_writer.total_bytes_of(IoKind::Metadata) as f64;
        let meta_s = t_sizer.total_bytes_of(IoKind::Metadata) as f64;
        assert!(
            (meta_w - meta_s).abs() / meta_w < 0.02,
            "metadata sizes {meta_w} vs {meta_s}"
        );
        // Request lists align file-by-file for data files.
        for (rw, rs) in ws.requests.iter().zip(ss.requests.iter()) {
            assert_eq!(rw.path, rs.path);
            if rw.path.contains("Cell_D") {
                assert_eq!(rw.bytes, rs.bytes, "bytes differ for {}", rw.path);
            }
        }
    }

    /// One file of a dump as the accounting emits it.
    type Emitted = (u32, u32, IoKind, String, u64);

    /// The string-building sizer [`account_levels`] replaced, kept as the
    /// oracle: per rank `boxes_of`, every FAB header and the whole
    /// `Cell_H` formatted just to take `.len()`.
    fn oracle_levels(
        dir: &str,
        ncomp: usize,
        levels: &[(&BoxArray, &DistributionMapping)],
    ) -> Vec<Emitted> {
        let nranks = levels[0].1.nranks();
        let mut out = Vec::new();
        for (lev, (ba, dm)) in levels.iter().enumerate() {
            let lev_dir = format!("{dir}/Level_{lev}");
            let mut fabs_on_disk: Vec<Option<FabOnDisk>> = (0..ba.len()).map(|_| None).collect();
            for rank in 0..nranks {
                let my_boxes = dm.boxes_of(rank);
                if my_boxes.is_empty() {
                    continue;
                }
                let file_name = format!("Cell_D_{rank:05}");
                let path = format!("{lev_dir}/{file_name}");
                let mut bytes = 0u64;
                for &bi in &my_boxes {
                    let valid = ba.get(bi);
                    fabs_on_disk[bi] = Some(FabOnDisk {
                        file: file_name.clone(),
                        offset: bytes,
                    });
                    bytes += fab_header(&valid, ncomp).len() as u64;
                    bytes += valid.num_pts() as u64 * ncomp as u64 * 8;
                }
                out.push((lev as u32, rank as u32, IoKind::Data, path, bytes));
            }
            let boxes: Vec<_> = ba.iter().copied().collect();
            let fods: Vec<FabOnDisk> = fabs_on_disk
                .into_iter()
                .map(|f| f.expect("every box has an owner"))
                .collect();
            let zeros = vec![vec![0.0; ncomp]; boxes.len()];
            let content = cell_h(ncomp, &boxes, &fods, &zeros, &zeros);
            let path = format!("{lev_dir}/Cell_H");
            out.push((lev as u32, 0, IoKind::Metadata, path, content.len() as u64));
        }
        out
    }

    /// What a dump of `files` must leave behind: the pass-through
    /// backend's request list (one per put, in put order) and the tracker
    /// records under output counter `step`.
    fn expected(step: u32, files: &[Emitted]) -> (Vec<(usize, String, u64)>, IoTracker) {
        let tracker = IoTracker::new();
        let mut requests = Vec::new();
        for (level, task, kind, path, bytes) in files {
            let key = IoKey {
                step,
                level: *level,
                task: *task,
            };
            tracker.record(key, *kind, *bytes);
            requests.push((*task as usize, path.clone(), *bytes));
        }
        (requests, tracker)
    }

    fn request_list(requests: &[iosim::WriteRequest]) -> Vec<(usize, String, u64)> {
        (requests.iter())
            .map(|r| (r.rank, r.path.clone(), r.bytes))
            .collect()
    }

    /// Levels of random (not necessarily disjoint — sizing never looks)
    /// boxes, negative coordinates included, with random owners. The rank
    /// count is either small (many boxes per rank: `FabOnDisk` offsets
    /// climb through several decimal widths) or past 100 000 (idle ranks;
    /// half the boxes go to the top 300 ranks, whose `Cell_D` names are
    /// wider than `{:05}`).
    fn any_levels() -> impl Strategy<Value = Vec<(BoxArray, DistributionMapping)>> {
        let a_box =
            (-3000..3000i64, -3000..3000i64, 1..40i64, 1..40i64).prop_map(|(x, y, w, h)| {
                IndexBox::from_lo_size(IntVect::new(x, y), IntVect::new(w, h))
            });
        let level = proptest::collection::vec((a_box, 0.0..1.0f64), 1..48);
        let nranks = prop_oneof![1..6usize, 100_300..100_400usize];
        (nranks, proptest::collection::vec(level, 1..4)).prop_map(|(nranks, levels)| {
            (levels.into_iter())
                .map(|grids| {
                    let owners = (grids.iter())
                        .map(|&(_, u)| match nranks > 300 && u < 0.5 {
                            true => nranks - 1 - (u * 600.0) as usize,
                            false => (u * nranks as f64) as usize,
                        })
                        .collect();
                    let ba = BoxArray::new(grids.into_iter().map(|g| g.0).collect());
                    (ba, DistributionMapping::from_owners(owners, nranks))
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The arithmetic sizer against the string-building oracle: the
        /// shared level loop tuple for tuple, then each of the three
        /// entry points by request list and tracker records.
        #[test]
        fn accounting_matches_the_string_building_oracle(
            levels in any_levels(),
            ncomp in prop_oneof![1..10usize, 10..130usize],
        ) {
            let pairs: Vec<_> = levels.iter().map(|(ba, dm)| (ba, dm)).collect();
            let oracle = oracle_levels("/d", ncomp, &pairs);

            let mut emitted: Vec<Emitted> = Vec::new();
            account_levels("/d", ncomp, &pairs, |level, task, kind, path, bytes| {
                emitted.push((level, task, kind, path, bytes));
                Ok(())
            })
            .unwrap();
            prop_assert_eq!(&emitted, &oracle);

            let geom = Geometry::unit_square(IntVect::splat(64));

            // Plotfile: the level files, then Header and job_info.
            let layout = PlotfileLayout {
                dir: "/d".into(),
                output_counter: 3,
                time: 0.25,
                var_names: (0..ncomp).map(|i| format!("v{i}")).collect(),
                ref_ratio: 2,
                levels: (levels.iter())
                    .map(|(ba, dm)| LayoutLevel {
                        geom,
                        ba: ba.clone(),
                        dm: dm.clone(),
                        level_steps: 7,
                    })
                    .collect(),
                inputs: vec![("k".into(), "v".into())],
            };
            let header_levels: Vec<HeaderLevel> = (levels.iter())
                .map(|(ba, _)| HeaderLevel {
                    geom,
                    boxes: ba.as_slice(),
                    level_steps: 7,
                })
                .collect();
            let header = plotfile_header(&layout.var_names, 0.25, &header_levels, 2);
            let ji = job_info(pairs[0].1.nranks(), 7, 0.25, &layout.inputs);
            let mut files = oracle.clone();
            files.push((0, 0, IoKind::Metadata, "/d/Header".into(), header.len() as u64));
            files.push((0, 0, IoKind::Metadata, "/d/job_info".into(), ji.len() as u64));
            let (want_requests, want_tracker) = expected(3, &files);
            let tracker = IoTracker::new();
            let stats = account_plotfile(&tracker, &layout);
            prop_assert_eq!(request_list(&stats.requests), want_requests);
            prop_assert_eq!(tracker.export(), want_tracker.export());

            // Checkpoint, both entry points: the level files, then Header.
            let spec = CheckpointSpec {
                dir: "/d".into(),
                output_counter: 3,
                time: 0.25,
                ncomp,
                ref_ratio: 2,
                levels: (levels.iter())
                    .map(|(ba, dm)| CheckpointLevel {
                        geom,
                        ba: ba.clone(),
                        dm: dm.clone(),
                        level_steps: 7,
                        dt: 1e-3,
                    })
                    .collect(),
            };
            let mut files = oracle;
            let header = checkpoint_header(&spec);
            files.push((0, 0, IoKind::Metadata, "/d/Header".into(), header.len() as u64));
            let (want_requests, want_tracker) = expected(3, &files);

            let tracker = IoTracker::new();
            let plain = account_checkpoint(&tracker, &spec);
            prop_assert_eq!(request_list(&plain.requests), want_requests.clone());
            prop_assert_eq!(tracker.export(), want_tracker.export());
            prop_assert_eq!(plain.nfiles, files.len() as u64);

            let tracker = IoTracker::new();
            let fs = MemFs::with_retention(0);
            let mut backend = FilePerProcess::new(&fs as &dyn Vfs, &tracker);
            let routed = account_checkpoint_with(&mut backend, &spec).unwrap();
            prop_assert_eq!(request_list(&routed.requests), want_requests);
            prop_assert_eq!(tracker.export(), want_tracker.export());
        }
    }

    /// Regression: the sizer took the rank count from level 0, so a finer
    /// level mapped over more ranks died later, on "every box has an
    /// owner". It is refused up front, naming the level and both counts.
    #[test]
    #[should_panic(expected = "level 1 is mapped over 8 ranks but level 0 over 4")]
    fn level_mapped_over_more_ranks_than_level_zero_is_refused() {
        let (ba0, dm0) = ba_dm(64, 16, 4);
        let (ba1, dm1) = ba_dm(64, 16, 8);
        let geom = Geometry::unit_square(IntVect::splat(64));
        let level = |ba, dm| LayoutLevel {
            geom,
            ba,
            dm,
            level_steps: 0,
        };
        let layout = PlotfileLayout {
            dir: "/p".into(),
            output_counter: 1,
            time: 0.0,
            var_names: vec!["v".into()],
            ref_ratio: 2,
            levels: vec![level(ba0, dm0), level(ba1, dm1)],
            inputs: vec![],
        };
        account_plotfile(&IoTracker::new(), &layout);
    }

    #[test]
    fn per_task_accounting_matches_ownership() {
        let (ba, dm) = ba_dm(64, 16, 3);
        let geom = Geometry::unit_square(IntVect::splat(64));
        let tracker = IoTracker::new();
        let layout = PlotfileLayout {
            dir: "/p".into(),
            output_counter: 2,
            time: 0.0,
            var_names: vec!["v".into()],
            ref_ratio: 2,
            levels: vec![LayoutLevel {
                geom,
                ba: ba.clone(),
                dm: dm.clone(),
                level_steps: 0,
            }],
            inputs: vec![],
        };
        account_plotfile(&tracker, &layout);
        let per_task = tracker.bytes_per_task(2, 0);
        #[allow(clippy::needless_range_loop)] // rank indexes two parallel views
        for rank in 0..3 {
            let cells: i64 = dm.boxes_of(rank).iter().map(|&i| ba.get(i).num_pts()).sum();
            if cells == 0 {
                assert_eq!(per_task[rank], 0);
            } else {
                assert!(per_task[rank] as i64 >= cells * 8, "rank {rank}");
            }
        }
    }

    #[test]
    fn scales_linearly_with_vars_and_cells() {
        let geom = Geometry::unit_square(IntVect::splat(32));
        let run = |n: i64, vars: usize| {
            let (ba, dm) = ba_dm(n, 16, 2);
            let tracker = IoTracker::new();
            let layout = PlotfileLayout {
                dir: "/p".into(),
                output_counter: 1,
                time: 0.0,
                var_names: (0..vars).map(|i| format!("v{i}")).collect(),
                ref_ratio: 2,
                levels: vec![LayoutLevel {
                    geom,
                    ba,
                    dm,
                    level_steps: 0,
                }],
                inputs: vec![],
            };
            account_plotfile(&tracker, &layout);
            tracker.total_bytes_of(IoKind::Data)
        };
        let base = run(32, 1);
        assert!(run(32, 2) > base * 3 / 2);
        assert!(run(64, 1) > base * 3); // 4x the cells
    }
}
