//! Umbrella crate: re-exports every crate of the `amr-proxy-io` workspace.
//!
//! Downstream users can depend on this single crate; the workspace examples
//! and integration tests are hosted here.

#![forbid(unsafe_code)]

pub use amr_mesh;
pub use amrproxy;
pub use hydro;
pub use io_engine;
pub use iosim;
pub use macsio;
pub use model;
pub use mpi_sim;
pub use plotfile;
