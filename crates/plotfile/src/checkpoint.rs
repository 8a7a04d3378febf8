//! Checkpoint-restart output.
//!
//! The paper notes that "AMReX also supports the generation of
//! checkpoint-restart data in a similar manner, but we focused on only the
//! plot files for this particular study". This module closes that gap so
//! checkpoint workloads (`amr.check_int` in Listing 2) can be studied too:
//! the same N-to-N pattern, but carrying the *conserved state* (4
//! components) rather than the 22 derived plot variables, plus the restart
//! metadata AMReX stores (per-level times, steps, dt).
//!
//! Checkpoint bytes are recorded with the same `(step, level, task)` keys
//! as plotfiles, so the model machinery applies unchanged.

use crate::format::format_box;
use crate::sizer::account_levels;
use crate::writer::PlotfileStats;
use amr_mesh::{BoxArray, DistributionMapping, Geometry};
use io_engine::{IoBackend, Payload, Put};
use iosim::{IoKey, IoKind};
use std::fmt::Write as _;

/// One level of a checkpoint, described by layout (no data needed: the
/// checkpoint byte volume is `cells * ncomp * 8` exactly like plot data).
pub struct CheckpointLevel {
    /// Level geometry.
    pub geom: Geometry,
    /// Grids.
    pub ba: BoxArray,
    /// Rank ownership.
    pub dm: DistributionMapping,
    /// Steps taken at this level.
    pub level_steps: u64,
    /// Current dt at this level.
    pub dt: f64,
}

/// A checkpoint dump description.
pub struct CheckpointSpec {
    /// Directory, e.g. `sedov_2d_cyl_in_cart_chk00020`.
    pub dir: String,
    /// Output counter for tracker keys.
    pub output_counter: u32,
    /// Simulation time.
    pub time: f64,
    /// Conserved-state component count (4 for 2-D Euler).
    pub ncomp: usize,
    /// Refinement ratio.
    pub ref_ratio: i64,
    /// Levels, coarsest first.
    pub levels: Vec<CheckpointLevel>,
}

/// The checkpoint `Header` content (`CheckPointVersion_1.0` stream:
/// version, spacedim, time, finest level, per-level geometry/step/dt
/// tables, then the box arrays).
pub(crate) fn checkpoint_header(spec: &CheckpointSpec) -> String {
    let mut s = String::with_capacity(2048);
    s.push_str("CheckPointVersion_1.0\n");
    s.push_str("2\n");
    let _ = writeln!(s, "{:.17e}", spec.time);
    let _ = writeln!(s, "{}", spec.levels.len() - 1);
    for l in &spec.levels {
        let _ = writeln!(s, "{}", format_box(&l.geom.domain));
    }
    for l in &spec.levels {
        let _ = write!(s, "{} ", l.level_steps);
    }
    s.push('\n');
    for l in &spec.levels {
        let _ = write!(s, "{:.17e} ", l.dt);
    }
    s.push('\n');
    for l in &spec.levels {
        let _ = writeln!(s, "({} 0", l.ba.len());
        for b in l.ba.iter() {
            let _ = writeln!(s, "{}", format_box(b));
        }
        s.push_str(")\n");
    }
    s
}

/// Accounts one checkpoint dump through an [`IoBackend`] using size-only
/// payloads — the restart-state sibling of
/// [`crate::sizer::account_plotfile_with`]. The backend keeps its
/// physical layout (aggregation, deferred staging) and any compression
/// stage prices the state bytes like plot data, so checkpoint cadence is
/// a backend × codec question, not a hard-coded N-to-N clone of the plot
/// path. Put order: per level the rank `Cell_D` states then `Cell_H`,
/// then the restart `Header` — so the tracker records are identical to
/// plain tracker accounting (the tests' oracle).
///
/// Because the dump goes through the backend as its own step, the
/// checkpoint becomes *readable*: a mid-run restart reads it back with
/// [`IoBackend::read_step`] at this `output_counter`.
pub fn account_checkpoint_with(
    backend: &mut dyn IoBackend,
    spec: &CheckpointSpec,
) -> std::io::Result<PlotfileStats> {
    backend.begin_step(spec.output_counter, &spec.dir);
    account_checkpoint_files(spec, |level, task, kind, path, bytes| {
        backend.put(Put {
            key: IoKey {
                step: spec.output_counter,
                level,
                task,
            },
            kind,
            path,
            payload: Payload::Size(bytes),
        })
    })?;
    Ok(PlotfileStats::from_step(backend.end_step()?))
}

/// Every file of a checkpoint dump, in write order, to `emit(level, task,
/// kind, path, bytes)`: the per-level state files and `Cell_H`
/// ([`account_levels`]), then the restart `Header`.
fn account_checkpoint_files(
    spec: &CheckpointSpec,
    mut emit: impl FnMut(u32, u32, IoKind, String, u64) -> std::io::Result<()>,
) -> std::io::Result<()> {
    assert!(!spec.levels.is_empty(), "account_checkpoint: no levels");
    assert!(spec.ncomp > 0, "account_checkpoint: zero components");
    let levels: Vec<_> = spec.levels.iter().map(|l| (&l.ba, &l.dm)).collect();
    account_levels(&spec.dir, spec.ncomp, &levels, &mut emit)?;
    let header = checkpoint_header(spec);
    let path = format!("{}/Header", spec.dir);
    emit(0, 0, IoKind::Metadata, path, header.len() as u64)
}

/// Outcome: byte/file totals plus write requests for burst simulation.
#[cfg(test)]
#[derive(Clone, Debug, Default)]
pub(crate) struct CheckpointStats {
    /// Total bytes.
    pub total_bytes: u64,
    /// Files written.
    pub nfiles: u64,
    /// The write requests.
    pub requests: Vec<iosim::WriteRequest>,
}

/// The plain tracker accounting of a checkpoint dump: the oracle
/// [`account_checkpoint_with`] is compared against.
#[cfg(test)]
pub(crate) fn account_checkpoint(
    tracker: &iosim::IoTracker,
    spec: &CheckpointSpec,
) -> CheckpointStats {
    let mut stats = CheckpointStats::default();
    account_checkpoint_files(spec, |level, task, kind, path, bytes| {
        let key = IoKey {
            step: spec.output_counter,
            level,
            task,
        };
        tracker.record(key, kind, bytes);
        stats.total_bytes += bytes;
        stats.nfiles += 1;
        stats.requests.push(iosim::WriteRequest {
            rank: task as usize,
            path,
            bytes,
            start: 0.0,
        });
        Ok(())
    })
    .expect("recording into a tracker cannot fail");
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use amr_mesh::prelude::*;
    use iosim::IoTracker;

    fn spec(n: i64, nranks: usize, ncomp: usize) -> CheckpointSpec {
        let geom = Geometry::unit_square(IntVect::splat(n));
        let ba = BoxArray::single(geom.domain).max_size(n / 2);
        let dm = DistributionMapping::new(&ba, nranks, DistributionStrategy::Sfc);
        CheckpointSpec {
            dir: "/chk00010".into(),
            output_counter: 1,
            time: 0.125,
            ncomp,
            ref_ratio: 2,
            levels: vec![CheckpointLevel {
                geom,
                ba,
                dm,
                level_steps: 10,
                dt: 1e-3,
            }],
        }
    }

    #[test]
    fn header_carries_restart_state() {
        let s = spec(16, 2, 4);
        let h = checkpoint_header(&s);
        assert!(h.starts_with("CheckPointVersion_1.0"));
        assert!(h.contains("((0,0) (15,15) (0,0))"));
        assert!(h.contains("10 "));
        assert!(h.contains("1.00000000000000002e-3")); // dt
    }

    #[test]
    fn accounting_scales_with_state_components() {
        let tracker4 = IoTracker::new();
        let s4 = account_checkpoint(&tracker4, &spec(32, 2, 4));
        let tracker8 = IoTracker::new();
        let s8 = account_checkpoint(&tracker8, &spec(32, 2, 8));
        // Data doubles with component count, metadata grows mildly.
        let d4 = tracker4.total_bytes_of(IoKind::Data);
        let d8 = tracker8.total_bytes_of(IoKind::Data);
        assert!(d8 > 2 * d4 - 1024);
        assert!(d8 < 2 * d4 + 1024);
        assert_eq!(s4.nfiles, s8.nfiles);
    }

    #[test]
    fn checkpoint_is_smaller_than_plotfile_for_same_grids() {
        // 4 conserved components vs 22 plot variables: the checkpoint
        // should be roughly 4/22 of the plotfile payload.
        let geom = Geometry::unit_square(IntVect::splat(64));
        let ba = BoxArray::single(geom.domain).max_size(32);
        let dm = DistributionMapping::new(&ba, 2, DistributionStrategy::Sfc);

        let t_chk = IoTracker::new();
        account_checkpoint(
            &t_chk,
            &CheckpointSpec {
                dir: "/chk".into(),
                output_counter: 1,
                time: 0.0,
                ncomp: 4,
                ref_ratio: 2,
                levels: vec![CheckpointLevel {
                    geom,
                    ba: ba.clone(),
                    dm: dm.clone(),
                    level_steps: 0,
                    dt: 1e-3,
                }],
            },
        );
        let t_plt = IoTracker::new();
        crate::sizer::account_plotfile(
            &t_plt,
            &crate::sizer::PlotfileLayout {
                dir: "/plt".into(),
                output_counter: 1,
                time: 0.0,
                var_names: crate::format::castro_sedov_plot_vars(),
                ref_ratio: 2,
                levels: vec![crate::sizer::LayoutLevel {
                    geom,
                    ba,
                    dm,
                    level_steps: 0,
                }],
                inputs: vec![],
            },
        );
        let chk = t_chk.total_bytes_of(IoKind::Data) as f64;
        let plt = t_plt.total_bytes_of(IoKind::Data) as f64;
        let ratio = chk / plt;
        assert!(
            (0.15..0.25).contains(&ratio),
            "chk/plt = {ratio} (expect ~4/22)"
        );
    }

    #[test]
    fn backend_routed_checkpoint_matches_plain_accounting() {
        use io_engine::BackendSpec;
        use iosim::{MemFs, Vfs};
        let s = spec(32, 4, 4);

        let t_plain = IoTracker::new();
        let plain = account_checkpoint(&t_plain, &s);

        let t_backend = IoTracker::new();
        let fs = MemFs::with_retention(0);
        let mut backend = BackendSpec::FilePerProcess.build(&fs as &dyn Vfs, &t_backend);
        let routed = account_checkpoint_with(backend.as_mut(), &s).unwrap();
        backend.close().unwrap();

        // Through the pass-through backend, the routed path reproduces
        // the plain accounting byte-for-byte: tracker records, totals,
        // file count, and the write-request list.
        assert_eq!(t_plain.export(), t_backend.export());
        assert_eq!(routed.total_bytes, plain.total_bytes);
        assert_eq!(routed.nfiles, plain.nfiles);
        assert_eq!(routed.requests.len(), plain.requests.len());
        for (r, p) in routed.requests.iter().zip(&plain.requests) {
            assert_eq!((r.rank, &r.path, r.bytes), (p.rank, &p.path, p.bytes));
        }
    }

    #[test]
    fn aggregated_checkpoint_funnels_state_files() {
        use io_engine::BackendSpec;
        use iosim::{MemFs, Vfs};
        let s = spec(32, 4, 4);
        let tracker = IoTracker::new();
        let fs = MemFs::with_retention(0);
        let mut backend = BackendSpec::Aggregated(2).build(&fs as &dyn Vfs, &tracker);
        let stats = account_checkpoint_with(backend.as_mut(), &s).unwrap();
        backend.close().unwrap();
        // 4 ranks over ratio 2 -> 2 subfiles + 1 index, versus the 6
        // N-to-N files — checkpoint cadence now rides the backend axis.
        assert_eq!(stats.nfiles, 3);
        // The tracker's logical view is backend-invariant.
        let t_plain = IoTracker::new();
        account_checkpoint(&t_plain, &s);
        assert_eq!(tracker.export(), t_plain.export());
    }

    #[test]
    fn backend_routed_checkpoint_reads_back() {
        use io_engine::{BackendSpec, ReadSelection};
        use iosim::{MemFs, Vfs};
        let s = spec(32, 2, 4);
        let tracker = IoTracker::new();
        let fs = MemFs::with_retention(0);
        let mut backend = BackendSpec::FilePerProcess.build(&fs as &dyn Vfs, &tracker);
        let stats = account_checkpoint_with(backend.as_mut(), &s).unwrap();
        let read = backend
            .read_selection(s.output_counter, &s.dir, &ReadSelection::Full)
            .unwrap();
        backend.close().unwrap();
        // The restart read recovers exactly the state volume written.
        assert_eq!(read.stats.logical_bytes, stats.total_bytes);
        assert_eq!(read.stats.files, stats.nfiles);
        assert_eq!(tracker.total_read_bytes(), stats.total_bytes);
    }

    #[test]
    fn per_rank_files_follow_ownership() {
        let tracker = IoTracker::new();
        let stats = account_checkpoint(&tracker, &spec(32, 4, 4));
        // 4 boxes over 4 ranks -> 4 data files + Cell_H + Header.
        assert_eq!(stats.nfiles, 6);
        let per_task = tracker.bytes_per_task_of(1, 0, IoKind::Data);
        assert!(per_task.iter().all(|&b| b > 0));
    }
}
