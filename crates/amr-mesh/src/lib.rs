//! Block-structured AMR mesh substrate.
//!
//! A from-scratch reimplementation of the AMReX mesh machinery that the
//! paper's I/O study depends on: index-space box algebra, grid patch
//! collections, rank-ownership maps, per-patch field data, refinement
//! tagging, and Berger–Rigoutsos grid generation.
//!
//! The crate is deliberately 2-D (the paper studies the 2-D Sedov case) and
//! deterministic: given the same tags and parameters, grid generation and
//! distribution mapping produce byte-identical results, which the I/O model
//! layers above rely on.
//!
//! **Layer position:** the mesh substrate — `hydro` evolves fields on
//! it, `plotfile` serializes it; it depends on no other workspace crate.
//! Key types: [`IndexBox`], [`BoxArray`], [`DistributionMapping`],
//! [`MultiFab`], [`GridParams`].
//!
//! # Quick tour
//!
//! ```
//! use amr_mesh::prelude::*;
//!
//! // A 64x64 level-0 domain chopped into 32^2 patches:
//! let domain = IndexBox::at_origin(IntVect::splat(64));
//! let ba = BoxArray::single(domain).max_size(32);
//! assert_eq!(ba.len(), 4);
//!
//! // Distribute over 2 ranks along the space-filling curve:
//! let dm = DistributionMapping::new(&ba, 2, DistributionStrategy::Sfc);
//! assert_eq!(dm.nranks(), 2);
//!
//! // Tag a feature and generate aligned fine grids:
//! let mut tags = TagMap::new(domain);
//! tags.tag_region(&IndexBox::from_lo_size(IntVect::new(20, 20), IntVect::splat(10)));
//! let fine = make_fine_grids(&tags, domain, &GridParams::default());
//! assert!(!fine.is_empty());
//! ```

#![forbid(unsafe_code)]

pub(crate) mod box_array;
pub(crate) mod cluster;
pub(crate) mod distribution;
pub(crate) mod fab;
pub(crate) mod geometry;
pub(crate) mod hierarchy;
pub(crate) mod index_box;
pub(crate) mod intvect;
pub mod morton;
pub(crate) mod multifab;
pub(crate) mod tagging;

pub use box_array::BoxArray;
pub use distribution::{DistributionMapping, DistributionStrategy};
pub use fab::FArrayBox;
pub use geometry::Geometry;
pub use hierarchy::{make_fine_grids, GridParams};
pub use index_box::IndexBox;
pub use intvect::{Coord, IntVect};
pub use multifab::{FabCopy, MultiFab};
pub use tagging::TagMap;

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::box_array::BoxArray;
    pub use crate::cluster::{cluster, efficiency, ClusterParams};
    pub use crate::distribution::{DistributionMapping, DistributionStrategy};
    pub use crate::fab::FArrayBox;
    pub use crate::geometry::Geometry;
    pub use crate::hierarchy::{make_fine_grids, GridParams};
    pub use crate::index_box::IndexBox;
    pub use crate::intvect::{Coord, IntVect};
    pub use crate::multifab::{FabCopy, MultiFab};
    pub use crate::tagging::TagMap;
}
