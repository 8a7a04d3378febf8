//! AMReX-native plotfile writer over virtual filesystems.
//!
//! Reproduces the analysis-output file structure of the paper's Fig. 2:
//!
//! ```text
//! sedov_2d_cyl_in_cart_plt00020/
//!   Header                   <- plotfile_header()
//!   job_info                 <- job_info()
//!   Level_0/
//!     Cell_H                 <- cell_h()
//!     Cell_D_00000           <- one per task that owns data (N-to-N)
//!     ...
//!   Level_1/ ...
//! ```
//!
//! Every byte is written through an [`iosim::Vfs`] and recorded in an
//! [`iosim::IoTracker`] at `(step, level, task)` granularity, which is the
//! raw material of the paper's Eqs. (1)-(2).
//!
//! **Layer position:** one of the two proxy write paths (next to
//! `macsio`) — above `io-engine`'s pluggable backends, consumed by
//! `core`'s campaign runner. Key types: [`PlotfileSpec`] / [`PlotLevel`]
//! (writer), [`PlotfileLayout`] (account-only sizer),
//! [`CheckpointSpec`].
//!
//! ```
//! use amr_mesh::prelude::*;
//! use iosim::{IoTracker, MemFs, Vfs};
//! use plotfile::{write_plotfile, PlotLevel, PlotfileSpec};
//!
//! let ba = BoxArray::single(IndexBox::at_origin(IntVect::splat(8)));
//! let dm = DistributionMapping::new(&ba, 1, DistributionStrategy::Sfc);
//! let mf = MultiFab::new(ba, dm, 1, 0);
//! let spec = PlotfileSpec {
//!     dir: "/plt00000".into(),
//!     output_counter: 1,
//!     time: 0.0,
//!     var_names: vec!["density".into()],
//!     ref_ratio: 2,
//!     levels: vec![PlotLevel {
//!         geom: Geometry::unit_square(IntVect::splat(8)),
//!         mf: &mf,
//!         level_steps: 0,
//!     }],
//!     inputs: vec![],
//! };
//! let fs = MemFs::new();
//! let tracker = IoTracker::new();
//! let stats = write_plotfile(&fs, &tracker, &spec).unwrap();
//! // One Cell_D + Cell_H + Header + job_info, bytes tracked exactly.
//! assert_eq!(stats.nfiles, 4);
//! assert_eq!(stats.total_bytes, fs.total_bytes());
//! assert_eq!(tracker.total_bytes(), stats.total_bytes);
//! ```

#![forbid(unsafe_code)]

pub(crate) mod checkpoint;
pub(crate) mod format;
pub(crate) mod sizer;
pub(crate) mod writer;

pub use checkpoint::{account_checkpoint_with, CheckpointLevel, CheckpointSpec};
pub use format::castro_sedov_plot_vars;
pub use sizer::{account_plotfile, account_plotfile_with, LayoutLevel, PlotfileLayout};
pub use writer::{write_plotfile, write_plotfile_with, PlotLevel, PlotfileSpec, PlotfileStats};
