//! N-to-N plotfile writing.
//!
//! Reproduces the output path of `amrex::WriteMultiLevelPlotfile` with the
//! paper's N-to-N pattern: at every plot step, each MPI task writes one
//! `Cell_D_<task>` file per level *where it owns data* (Fig. 2), rank 0
//! writes the `Header`, `job_info`, and per-level `Cell_H` metadata.
//! Every byte goes through a [`Vfs`] and is recorded in an [`IoTracker`]
//! under the `(step, level, task)` key the model consumes.

use crate::format::{
    cell_d_name, cell_h, fab_header, job_info, plotfile_header, FabOnDisk, HeaderLevel,
};
use amr_mesh::{Geometry, MultiFab};
use bytes::{BufMut, BytesMut};
use io_engine::{FilePerProcess, IoBackend, Payload, Put};
use iosim::{IoKey, IoKind, IoTracker, Vfs, WriteRequest};
use std::io;

/// One AMR level to be written.
pub struct PlotLevel<'a> {
    /// Level geometry.
    pub geom: Geometry,
    /// Level data; valid regions are serialized.
    pub mf: &'a MultiFab,
    /// Steps taken at this level (Header bookkeeping).
    pub level_steps: u64,
}

/// Everything needed for one plotfile dump.
pub struct PlotfileSpec<'a> {
    /// Directory name, e.g. `sedov_2d_cyl_in_cart_plt00020`.
    pub dir: String,
    /// Output counter (1-based position of this dump in the run) used as
    /// the tracker's `step` key.
    pub output_counter: u32,
    /// Simulation time of the dump.
    pub time: f64,
    /// Plot variable names; the byte volume scales with this count.
    pub var_names: Vec<String>,
    /// Refinement ratio between levels.
    pub ref_ratio: i64,
    /// Levels, coarsest first.
    pub levels: Vec<PlotLevel<'a>>,
    /// Input-file parameters echoed into `job_info`.
    pub inputs: Vec<(String, String)>,
}

/// Per-dump outcome: sizes and the write requests for timing simulation.
#[derive(Clone, Debug, Default)]
pub struct PlotfileStats {
    /// Total physical bytes written (data + metadata + backend overhead).
    /// Equals the logical volume when no compression stage is active.
    pub total_bytes: u64,
    /// Logical (pre-compression) payload bytes of the dump — what the
    /// tracker records.
    pub logical_bytes: u64,
    /// Modeled codec CPU seconds spent compressing the dump (0 without a
    /// compression stage).
    pub codec_seconds: f64,
    /// Number of files created.
    pub nfiles: u64,
    /// The write requests issued (physical sizes), suitable for
    /// [`iosim::StorageModel::simulate_burst`].
    pub requests: Vec<WriteRequest>,
    /// Bytes shipped over the modeled interconnect instead of storage
    /// (in-transit backends only; 0 for every storage backend).
    pub net_bytes: u64,
    /// Link-transfer seconds for `net_bytes` on the simulated clock.
    pub net_seconds: f64,
    /// Producer seconds stalled on consumer-window back-pressure.
    pub window_stall: f64,
}

impl PlotfileStats {
    /// Builds from a backend's per-step stats.
    pub(crate) fn from_step(step: io_engine::StepStats) -> Self {
        Self {
            total_bytes: step.bytes,
            logical_bytes: step.logical_bytes,
            codec_seconds: step.codec_seconds,
            nfiles: step.files,
            requests: step.requests,
            net_bytes: step.net_bytes,
            net_seconds: step.net_seconds,
            window_stall: step.window_stall,
        }
    }
}

/// Writes one plotfile dump through `vfs`, recording into `tracker`.
///
/// Convenience wrapper over [`write_plotfile_with`] using the
/// [`FilePerProcess`] backend — byte-identical to the workspace's
/// original N-to-N writer.
pub fn write_plotfile(
    vfs: &dyn Vfs,
    tracker: &IoTracker,
    spec: &PlotfileSpec<'_>,
) -> io::Result<PlotfileStats> {
    let mut backend = FilePerProcess::new(vfs, tracker);
    write_plotfile_with(&mut backend, spec)
}

/// Writes one plotfile dump through an [`IoBackend`].
///
/// The tracker `task` for data files is the owning rank; metadata is
/// attributed to rank 0, which is the AMReX I/O processor. The backend
/// decides the physical layout (N-to-N, aggregated subfiles, deferred
/// staging); the returned stats reflect the physical files it created.
pub fn write_plotfile_with(
    backend: &mut dyn IoBackend,
    spec: &PlotfileSpec<'_>,
) -> io::Result<PlotfileStats> {
    assert!(!spec.levels.is_empty(), "write_plotfile: no levels");
    backend.begin_step(spec.output_counter, &spec.dir);
    backend.create_dir_all(&spec.dir)?;

    let nranks = spec.levels[0].mf.distribution_map().nranks();

    // --- Per-level data and Cell_H metadata -----------------------------
    for (lev, level) in spec.levels.iter().enumerate() {
        let lev_dir = format!("{}/Level_{}", spec.dir, lev);
        backend.create_dir_all(&lev_dir)?;
        let mf = level.mf;
        let ncomp = spec.var_names.len();

        // Group boxes by owning rank; a rank with no boxes at this level
        // writes no file (the paper calls this out explicitly).
        let mut fabs_on_disk: Vec<Option<FabOnDisk>> = (0..mf.nfabs()).map(|_| None).collect();
        let by_rank = mf.distribution_map().boxes_by_rank();
        for (rank, my_boxes) in by_rank.iter().enumerate() {
            if my_boxes.is_empty() {
                continue;
            }
            let file_name = cell_d_name(rank);
            let path = format!("{lev_dir}/{file_name}");
            let mut buf = BytesMut::new();
            for &bi in my_boxes {
                let valid = mf.valid_box(bi);
                let offset = buf.len() as u64;
                buf.put_slice(fab_header(&valid, ncomp).as_bytes());
                // Serialize the valid region, component-major, x fastest,
                // replicating the source fab's layout over its valid box.
                let fab = mf.fab(bi);
                for comp in 0..ncomp {
                    // Plot variables beyond the state's components repeat
                    // the last state component (derived fields carry the
                    // same byte cost regardless of their values).
                    let sc = comp.min(fab.ncomp() - 1);
                    for p in valid.cells() {
                        buf.put_f64_le(fab.get(p, sc));
                    }
                }
                fabs_on_disk[bi] = Some(FabOnDisk {
                    file: file_name.clone(),
                    offset,
                });
            }
            backend.put(Put {
                key: IoKey {
                    step: spec.output_counter,
                    level: lev as u32,
                    task: rank as u32,
                },
                kind: IoKind::Data,
                path,
                payload: Payload::Bytes(buf.freeze()),
            })?;
        }

        // Cell_H: box list, fab table, per-grid min/max of each variable.
        let boxes: Vec<_> = mf.box_array().iter().copied().collect();
        let fods: Vec<FabOnDisk> = fabs_on_disk
            .into_iter()
            .map(|f| f.expect("every box has an owner"))
            .collect();
        let mut mins = Vec::with_capacity(boxes.len());
        let mut maxs = Vec::with_capacity(boxes.len());
        for (bi, b) in boxes.iter().enumerate() {
            let fab = mf.fab(bi);
            let mut mn = Vec::with_capacity(ncomp);
            let mut mx = Vec::with_capacity(ncomp);
            for comp in 0..ncomp {
                let sc = comp.min(fab.ncomp() - 1);
                mn.push(fab.min_in(b, sc));
                mx.push(fab.max_in(b, sc));
            }
            mins.push(mn);
            maxs.push(mx);
        }
        let cell_h_content = cell_h(ncomp, &boxes, &fods, &mins, &maxs);
        backend.put(Put {
            key: IoKey {
                step: spec.output_counter,
                level: lev as u32,
                task: 0,
            },
            kind: IoKind::Metadata,
            path: format!("{lev_dir}/Cell_H"),
            payload: Payload::Bytes(cell_h_content.into()),
        })?;
    }

    // --- Top-level Header and job_info ----------------------------------
    let header_levels: Vec<HeaderLevel> = spec
        .levels
        .iter()
        .map(|l| HeaderLevel {
            geom: l.geom,
            boxes: l.mf.box_array().as_slice(),
            level_steps: l.level_steps,
        })
        .collect();
    let header = plotfile_header(&spec.var_names, spec.time, &header_levels, spec.ref_ratio);
    for (name, content) in [
        ("Header", header),
        (
            "job_info",
            job_info(nranks, spec.levels[0].level_steps, spec.time, &spec.inputs),
        ),
    ] {
        backend.put(Put {
            key: IoKey {
                step: spec.output_counter,
                level: 0,
                task: 0,
            },
            kind: IoKind::Metadata,
            path: format!("{}/{}", spec.dir, name),
            payload: Payload::Bytes(content.into()),
        })?;
    }

    let step = backend.end_step()?;
    Ok(PlotfileStats::from_step(step))
}

#[cfg(test)]
mod tests {
    use super::*;
    use amr_mesh::prelude::*;
    use io_engine::{BackendSpec, CodecSpec};
    use iosim::MemFs;

    /// One dump through a backend × codec stack: compressed chunk sizes
    /// land in the physical files, the logical-size sidecar rides along
    /// as backend overhead, and the tracker keeps logical accounting.
    fn write_plotfile_compressed(
        vfs: &dyn Vfs,
        tracker: &IoTracker,
        spec: &PlotfileSpec<'_>,
        backend: BackendSpec,
        codec: CodecSpec,
    ) -> io::Result<PlotfileStats> {
        let mut stack = backend.build_with_codec(codec, vfs, tracker);
        let stats = write_plotfile_with(stack.as_mut(), spec)?;
        stack.close()?;
        Ok(stats)
    }

    fn level_mf(n: i64, max: i64, nranks: usize, ncomp: usize) -> MultiFab {
        let ba = BoxArray::single(IndexBox::at_origin(IntVect::splat(n))).max_size(max);
        let dm = DistributionMapping::new(&ba, nranks, DistributionStrategy::Sfc);
        let mut mf = MultiFab::new(ba, dm, ncomp, 0);
        for c in 0..ncomp {
            mf.set_val(c, c as f64 + 0.5);
        }
        mf
    }

    fn spec<'a>(mf: &'a MultiFab, vars: usize) -> PlotfileSpec<'a> {
        PlotfileSpec {
            dir: "/plt00000".to_string(),
            output_counter: 1,
            time: 0.0,
            var_names: (0..vars).map(|i| format!("var{i}")).collect(),
            ref_ratio: 2,
            levels: vec![PlotLevel {
                geom: Geometry::unit_square(IntVect::splat(32)),
                mf,
                level_steps: 0,
            }],
            inputs: vec![],
        }
    }

    #[test]
    fn writes_expected_structure() {
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let mf = level_mf(32, 16, 2, 2);
        let stats = write_plotfile(&fs, &tracker, &spec(&mf, 2)).unwrap();
        let files = fs.list("/plt00000");
        // 2 ranks * 1 level data files + Cell_H + Header + job_info.
        assert!(files.contains(&"/plt00000/Header".to_string()));
        assert!(files.contains(&"/plt00000/job_info".to_string()));
        assert!(files.contains(&"/plt00000/Level_0/Cell_H".to_string()));
        assert!(files.contains(&"/plt00000/Level_0/Cell_D_00000".to_string()));
        assert!(files.contains(&"/plt00000/Level_0/Cell_D_00001".to_string()));
        assert_eq!(stats.nfiles, 5);
        assert_eq!(stats.total_bytes, fs.total_bytes());
    }

    #[test]
    fn data_bytes_match_payload_plus_headers() {
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let mf = level_mf(32, 16, 1, 2);
        write_plotfile(&fs, &tracker, &spec(&mf, 2)).unwrap();
        let data = tracker.total_bytes_of(IoKind::Data);
        // The headerless size: cells * vars * 8.
        let payload = mf.box_array().num_pts() as u64 * 2 * 8;
        assert!(data > payload, "FAB headers must add bytes");
        // Header overhead is small relative to payload.
        assert!(data < payload + 4 * 256);
    }

    #[test]
    fn rank_without_boxes_writes_no_file() {
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        // One box, four ranks: three ranks own nothing.
        let mf = level_mf(16, 16, 4, 1);
        write_plotfile(&fs, &tracker, &spec(&mf, 1)).unwrap();
        let data_files: Vec<String> = fs
            .list("/plt00000/Level_0")
            .into_iter()
            .filter(|f| f.contains("Cell_D"))
            .collect();
        assert_eq!(data_files.len(), 1);
    }

    #[test]
    fn tracker_keys_carry_step_level_task() {
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let mf = level_mf(32, 16, 2, 1);
        let mut s = spec(&mf, 1);
        s.output_counter = 7;
        write_plotfile(&fs, &tracker, &s).unwrap();
        assert_eq!(tracker.steps(), vec![7]);
        let per_task = tracker.bytes_per_task(7, 0);
        assert_eq!(per_task.len(), 2);
        assert!(per_task.iter().all(|&b| b > 0));
    }

    #[test]
    fn fab_payload_is_little_endian_doubles() {
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let mf = level_mf(4, 4, 1, 1);
        write_plotfile(&fs, &tracker, &spec(&mf, 1)).unwrap();
        let content = fs.read_file("/plt00000/Level_0/Cell_D_00000").unwrap();
        // Header line ends at the first newline; payload follows.
        let nl = content.iter().position(|&b| b == b'\n').unwrap();
        let payload = &content[nl + 1..];
        assert_eq!(payload.len(), 16 * 8);
        let first = f64::from_le_bytes(payload[0..8].try_into().unwrap());
        assert_eq!(first, 0.5);
    }

    #[test]
    fn header_mentions_every_level() {
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let mf0 = level_mf(16, 16, 1, 1);
        let mf1 = level_mf(32, 16, 1, 1);
        let spec = PlotfileSpec {
            dir: "/plt00010".into(),
            output_counter: 1,
            time: 0.25,
            var_names: vec!["density".into()],
            ref_ratio: 2,
            levels: vec![
                PlotLevel {
                    geom: Geometry::unit_square(IntVect::splat(16)),
                    mf: &mf0,
                    level_steps: 10,
                },
                PlotLevel {
                    geom: Geometry::unit_square(IntVect::splat(16)).refine(IntVect::splat(2)),
                    mf: &mf1,
                    level_steps: 10,
                },
            ],
            inputs: vec![],
        };
        write_plotfile(&fs, &tracker, &spec).unwrap();
        let header = String::from_utf8(fs.read_file("/plt00010/Header").unwrap()).unwrap();
        assert!(header.contains("Level_0/Cell"));
        assert!(header.contains("Level_1/Cell"));
        // Metadata recorded separately from data.
        assert!(tracker.total_bytes_of(IoKind::Metadata) > 0);
    }

    #[test]
    fn compressed_dump_shrinks_physical_keeps_logical() {
        let mf = level_mf(32, 16, 2, 2);
        let run = |codec: CodecSpec| {
            let fs = MemFs::new();
            let tracker = IoTracker::new();
            let stats = write_plotfile_compressed(
                &fs,
                &tracker,
                &spec(&mf, 2),
                BackendSpec::FilePerProcess,
                codec,
            )
            .unwrap();
            (fs, tracker, stats)
        };
        let (_, t_id, s_id) = run(CodecSpec::Identity);
        let (fs_q, t_q, s_q) = run(CodecSpec::LossyQuant(8));
        // Logical accounting is codec-invariant (Eq. (1)/(2) samples).
        assert_eq!(t_id.export(), t_q.export());
        assert_eq!(s_id.logical_bytes, s_q.logical_bytes);
        // Physical volume shrinks; the identity path is exactly the old
        // writer (logical == physical, no codec cost, no sidecar).
        assert_eq!(s_id.total_bytes, s_id.logical_bytes);
        assert_eq!(s_id.codec_seconds, 0.0);
        assert!(s_q.total_bytes < s_id.total_bytes);
        assert!(s_q.codec_seconds > 0.0);
        // The sidecar names the data files with logical sizes.
        let sc = fs_q
            .read_file("/plt00000/compression_00001.csc")
            .expect("sidecar exists");
        let sc = String::from_utf8(sc).unwrap();
        assert!(sc.contains("Cell_D_00000"), "{sc}");
        assert!(sc.contains("quant:8"), "{sc}");
        // Metadata (Header) stays readable.
        let header = String::from_utf8(fs_q.read_file("/plt00000/Header").unwrap()).unwrap();
        assert!(header.contains("Level_0/Cell"));
    }

    #[test]
    fn sizer_and_writer_agree_under_compression() {
        use crate::sizer::{account_plotfile_with, LayoutLevel, PlotfileLayout};
        let mf = level_mf(32, 16, 2, 1);
        let fs = MemFs::new();
        let t_writer = IoTracker::new();
        let ws = write_plotfile_compressed(
            &fs,
            &t_writer,
            &spec(&mf, 1),
            BackendSpec::FilePerProcess,
            CodecSpec::LossyQuant(8),
        )
        .unwrap();

        let t_sizer = IoTracker::new();
        let layout = PlotfileLayout {
            dir: "/plt00000".into(),
            output_counter: 1,
            time: 0.0,
            var_names: vec!["var0".into()],
            ref_ratio: 2,
            levels: vec![LayoutLevel {
                geom: Geometry::unit_square(IntVect::splat(32)),
                ba: mf.box_array().clone(),
                dm: mf.distribution_map().clone(),
                level_steps: 0,
            }],
            inputs: vec![],
        };
        let throwaway = MemFs::with_retention(0);
        let mut stack = BackendSpec::FilePerProcess.build_with_codec(
            CodecSpec::LossyQuant(8),
            &throwaway as &dyn Vfs,
            &t_sizer,
        );
        let ss = account_plotfile_with(stack.as_mut(), &layout);
        // Quantized physical size is a pure function of the logical size,
        // so the oracle path prices data files identically to the writer.
        for (rw, rs) in ws.requests.iter().zip(ss.requests.iter()) {
            assert_eq!(rw.path, rs.path);
            if rw.path.contains("Cell_D") {
                assert_eq!(rw.bytes, rs.bytes, "bytes differ for {}", rw.path);
            }
        }
        assert_eq!(ws.nfiles, ss.nfiles);
    }

    #[test]
    fn requests_cover_all_files() {
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let mf = level_mf(32, 8, 4, 1);
        let stats = write_plotfile(&fs, &tracker, &spec(&mf, 1)).unwrap();
        assert_eq!(stats.requests.len() as u64, stats.nfiles);
        let req_bytes: u64 = stats.requests.iter().map(|r| r.bytes).sum();
        assert_eq!(req_bytes, stats.total_bytes);
    }
}
