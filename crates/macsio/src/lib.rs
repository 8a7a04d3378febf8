//! MACSio — the Multi-purpose, Application-Centric, Scalable I/O proxy —
//! reimplemented in Rust.
//!
//! Implements the command-line surface of the paper's Table II and the
//! N-to-N output pattern of Fig. 3:
//!
//! ```text
//! macsio_json_{taskID:05}_{stepID:03}.json   one per task per dump
//! macsio_json_root_{stepID:03}.json          one per dump
//! ```
//!
//! The `dataset_growth` multiplier provides the non-linear "kernel"
//! data-production behaviour the paper calibrates against AMReX-Castro;
//! `compute_time` sets the burst cadence for dynamic studies. Runs can
//! also read their dumps back (`--mode restart|wr`), selectively so with
//! `--read_pattern` (one field, a task box) through the io-engine's
//! selection read plane — and `--scenario` interprets a full
//! [`io_engine::Scenario`] program over the dump stream
//! (`write;fail@2;restart`, `write;analyze_every:2:field:root`), so
//! mid-run recoveries and in-run analysis interleave with the write
//! bursts.
//!
//! **Layer position:** the second proxy write path, next to `plotfile` —
//! above `io-engine`, parameterized by `model`'s Listing-1 translation.
//! Key types: [`MacsioConfig`], [`RunMode`], [`FileMode`],
//! [`MacsioReport`].
//!
//! ```
//! use macsio::{run, MacsioConfig};
//! use iosim::{IoTracker, MemFs};
//!
//! let cfg = MacsioConfig { nprocs: 4, num_dumps: 2, ..Default::default() };
//! let fs = MemFs::new();
//! let tracker = IoTracker::new();
//! let report = run(&cfg, &fs, &tracker, None).unwrap();
//! assert_eq!(report.bytes_per_dump.len(), 2);
//! ```

#![forbid(unsafe_code)]

pub mod cli;
pub(crate) mod config;
pub mod dump;
pub(crate) mod marshal;
pub(crate) mod mesh;

pub use cli::{parse_args, parse_spec};
pub use config::{FileMode, Interface, MacsioConfig, RunMode};
pub use dump::{run, MacsioReport};
pub use marshal::{marshal_part, marshal_root};
pub use mesh::MeshPart;
