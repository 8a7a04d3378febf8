//! `amrbench`: the repository's measurement contract.
//!
//! Six named workloads drive only public functions of the library
//! crates; each run reports end-to-end metrics (untraced) or per-layer
//! metrics (a traced, staged replay), and checks the simulated
//! statistics bit for bit against goldens. See `README.md` in this
//! directory for how to run, bless, compare and read a trace.
//!
//! **Host time and simulated time are never mixed.** Every metric is
//! host time unless its name says otherwise; simulated statistics are
//! checked for bit-identity ([`digest`]), not ranked.

pub mod compare;
pub mod digest;
pub mod harness;
pub mod metrics;
pub mod proxy_workloads;
pub mod replay;
pub mod runner;
pub mod spec_workloads;
pub mod trace;
pub mod workload;
