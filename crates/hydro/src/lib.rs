//! Castro-like 2-D compressible hydrodynamics with block-structured AMR.
//!
//! The paper's workload generator: the Sedov blast-wave problem solved on
//! an adaptively refined hierarchy, reproducing the grid evolution that
//! drives AMReX-Castro's plotfile I/O. Two interchangeable drivers:
//!
//! * [`AmrSim`] — a real second-order Godunov (MUSCL + HLLC) solve with
//!   gradient tagging and Berger–Rigoutsos regridding (exact, used up to
//!   ~512 squared level-0 cells);
//! * [`OracleSim`] — the Sedov–Taylor similarity solution driving the same
//!   grid-generation machinery analytically (paper-scale meshes).
//!
//! Both produce the same level/grid/ownership structure consumed by the
//! `plotfile` writer, so byte accounting is identical in kind.
//!
//! **Layer position:** workload generator — above the `amr-mesh`
//! substrate, below `core`'s campaign orchestration; it never performs
//! I/O itself, it only evolves the hierarchy the writers serialize. Key
//! types: [`AmrSim`], [`OracleSim`], [`SedovProblem`],
//! [`TimestepControl`], [`StepInfo`].
//!
//! ```
//! use hydro::{OracleConfig, OracleSim};
//!
//! // A small Sedov oracle: the blast refines the center immediately.
//! let mut sim = OracleSim::new(OracleConfig {
//!     n_cell: 32,
//!     max_level: 2,
//!     ..Default::default()
//! });
//! let info = sim.step();
//! assert_eq!(info.step, 1);
//! assert!(sim.levels().len() >= 2, "refined levels exist");
//! assert!(sim.time() > 0.0);
//! ```

#![deny(unsafe_code)]

pub(crate) mod amr;
pub(crate) mod eos;
pub mod exact_riemann;
pub(crate) mod oracle;
pub(crate) mod plan;
pub(crate) mod riemann;
pub(crate) mod sedov;
pub(crate) mod solver;
pub(crate) mod state;
pub(crate) mod tagging;
#[cfg(test)]
mod test_support;
pub(crate) mod timestep;

pub use amr::{AmrConfig, AmrSim, StepInfo};
pub use eos::GammaLaw;
pub use exact_riemann::{sample_exact, star_state};
pub use oracle::{annulus_fine_grids, OracleConfig, OracleSim};
pub use riemann::hllc_flux;
pub use sedov::SedovProblem;
pub use solver::{advance_level, apply_outflow_bc, SweepScratch, NGROW};
pub use state::{flux, Conserved, Primitive, NCOMP, UEDEN, UMX, UMY, URHO};
pub use tagging::TagCriteria;
pub use timestep::TimestepControl;
