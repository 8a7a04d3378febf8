//! MACSio on the shared phase driver: marshal parts, dump, repeat.
//!
//! Reproduces the proxy behaviour the paper uses: `num_dumps` dumps, each
//! preceded by a `compute_time` phase, each writing the N-to-N (or MIF
//! group / SIF) file pattern of Fig. 3, with per-dump part sizes scaled by
//! `dataset_growth^k`. Bytes are written through a [`Vfs`], recorded in an
//! [`IoTracker`], and optionally timed against a [`StorageModel`] to
//! produce the burst timeline.
//!
//! The run's *shape* is an [`io_engine::Scenario`] program, compiled and
//! executed by the same phase driver the AMR engines run on
//! (`io_engine::driver`): MACSio is that driver's program with a dump
//! after every step and none before the first, a constant compute charge,
//! and nothing to rewind after a restart read. This module is the rest —
//! config validation, the producer (marshal parts, group ranks, `put`,
//! root file) and the projection of the driver's totals into
//! [`MacsioReport`]. The legacy `--mode` spellings compile to `write`,
//! `write;restart`, and `write;readall`, while `--scenario` opens the
//! rest of the grammar — `fail@K;restart` re-reads the newest dump
//! mid-stream (recovery interleaved with the write bursts) and
//! `analyze_every:M:SEL` prices periodic in-run analysis reads. MACSio's
//! flat dump stream has no checkpoint or reorganization plane, so
//! `check@` ops and `,reorg` suffixes are rejected.
//!
//! A dump's rank blobs are allocated on the calling thread and filled in
//! place, one scoped worker per visible core (the codec stage's policy);
//! the `put`s stay serial in baton order, so the output does not depend on
//! the thread count. Allocating on the caller is a memory rule: blobs
//! allocated by workers land in per-thread malloc arenas the next dump
//! cannot reuse (+48% peak RSS measured). The stream then recycles them:
//! it keeps a cheap clone of every blob it puts, and the next dump takes
//! back (`Bytes::try_into_mut`) each allocation no other handle holds —
//! the Vfs, a sidecar, a deferred or streaming stage — clears it and
//! refills it, so a run on a filesystem that keeps no content writes into
//! warm pages instead of freshly mapped ones. A blob a holder keeps stays
//! with it, and the last dump's blobs go with their holders (a read phase
//! may follow). Growth is monotone in the dump index, so a fresh blob is
//! sized once, by `predicted_rank_bytes`, for the larger of its own dump
//! and the run's last: it never grows while filled, and neither does its
//! reuse.

use crate::config::{FileMode, Interface, MacsioConfig};
use crate::marshal::{
    marshal_header_len, marshal_part_into, marshal_root, marshal_root_len, JSON_BYTES_PER_VALUE,
};
use crate::mesh::MeshPart;
use bytes::Bytes;
use io_engine::{Cadence, Dump, IoBackend, Payload, Producer, Put, ScenarioOp};
use iosim::{BurstTimeline, IoKey, IoKind, IoTracker, StorageAttach, StorageModel, Vfs};
use std::io;

/// The mesh parts `rank` marshals at dump `k`.
fn rank_parts(cfg: &MacsioConfig, rank: usize, dump: u32) -> impl Iterator<Item = MeshPart> {
    let (nominal, vars) = (cfg.grown_part_size(dump), cfg.vars_per_part);
    cfg.part_ids(rank)
        .map(move |id| MeshPart::from_nominal_size(id, nominal, vars))
}

/// Predicted on-disk bytes of one rank's data file at dump `k`, without
/// marshalling: exact for the `miftmpl` interface (header length and
/// binary payload both arithmetic). Used by the model crate's calibration
/// loop, which would otherwise re-marshal gigabytes per candidate
/// evaluation, and by the marshal itself to size each rank's buffer.
pub(crate) fn predicted_rank_bytes(cfg: &MacsioConfig, rank: usize, dump: u32) -> u64 {
    rank_parts(cfg, rank, dump)
        .map(|part| {
            let values = match cfg.interface {
                Interface::Miftmpl => part.payload_bytes(),
                // Text JSON width varies per value; approximate with the
                // measured mean width of the fixed {:.8e} format.
                Interface::Json => {
                    (part.payload_bytes() as f64 / 8.0 * JSON_BYTES_PER_VALUE).round() as u64
                }
            };
            marshal_header_len(&part, dump, cfg.interface) as u64 + values
        })
        .sum()
}

/// Predicted total bytes of one dump (all ranks' data + the root file).
pub fn predicted_dump_bytes(cfg: &MacsioConfig, dump: u32) -> u64 {
    let parts_per_rank: Vec<usize> = (0..cfg.nprocs).map(|r| cfg.parts_of_rank(r)).collect();
    let data: u64 = (0..cfg.nprocs)
        .map(|r| predicted_rank_bytes(cfg, r, dump))
        .sum();
    data + marshal_root_len(dump, cfg.nprocs, &parts_per_rank, cfg.meta_size)
}

/// Outcome of a MACSio run.
#[derive(Clone, Debug, Default)]
pub struct MacsioReport {
    /// Canonical spelling of the scenario the run executed (the
    /// compiled `--mode` when no `--scenario` was given).
    pub scenario: String,
    /// Restart reads performed (mid-run recoveries plus trailing
    /// `restart`/`readall` reads; `analyze` reads are not restarts).
    pub restarts: u32,
    /// Total physical bytes written (data + root metadata + overhead).
    pub total_bytes: u64,
    /// Total logical (pre-compression) payload bytes — what the tracker
    /// records; equals `total_bytes` without a compression codec.
    pub logical_bytes: u64,
    /// Modeled codec CPU seconds across the run (0 without compression).
    pub codec_seconds: f64,
    /// Declared bookkeeping bytes inside `total_bytes` (aggregation index
    /// tables, compression sidecars).
    pub overhead_bytes: u64,
    /// Physical bytes per dump (data + root), indexed by dump.
    pub bytes_per_dump: Vec<u64>,
    /// Files written across the run.
    pub files_written: u64,
    /// Logical bytes read back in the restart/analysis phase (0 in
    /// write-only mode; the tracker's read-plane view, codec-invariant).
    pub read_bytes: u64,
    /// Physical bytes fetched from storage in the read phase (encoded
    /// chunks, index tables, sidecars).
    pub physical_read_bytes: u64,
    /// Physical files opened in the read phase.
    pub read_files: u64,
    /// Simulated seconds spent in the read phase (inside `wall_time`).
    pub read_wall: f64,
    /// Burst timeline (empty when no storage model was supplied).
    pub timeline: BurstTimeline,
    /// Bytes shipped over the modeled interconnect instead of through
    /// storage (0 for storage-backed backends).
    pub net_bytes: u64,
    /// Link-transfer seconds for `net_bytes` (inside `wall_time`).
    pub net_seconds: f64,
    /// Producer stall on consumer-window back-pressure (inside
    /// `wall_time`, disjoint from `net_seconds`).
    pub window_stall: f64,
    /// Final simulated wall time in seconds.
    pub wall_time: f64,
}

/// Runs MACSio through the backend × codec stack named in
/// `cfg.io_backend` / `cfg.compression`.
///
/// Tracker keys use `step = dump + 1` (matching the AMR side's 1-based
/// output counter), `level = 0` (MACSio has no level concept — the paper's
/// central granularity limitation), and `task = rank`. Tracker bytes are
/// logical (pre-compression), so the Eq. (1)/(2) calibration target is
/// codec-invariant; the report's physical bytes and burst timing shrink
/// with the codec's ratio.
pub fn run(
    cfg: &MacsioConfig,
    vfs: &dyn Vfs,
    tracker: &IoTracker,
    storage: Option<&StorageModel>,
) -> io::Result<MacsioReport> {
    iosim::block_on(run_attached(cfg, vfs, tracker, storage.into()))
}

/// Like [`run`] but accepting any storage attachment — in particular a
/// [`iosim::FabricHandle`], which times the run's bursts on a shared
/// multi-tenant fabric instead of a private storage model.
///
/// The MIF/SIF grouping of Fig. 3 shapes the *logical* file paths (which
/// ranks share a group file); the backend then decides the physical
/// layout — pass-through (file-per-process), BP-style aggregation,
/// deferred burst-buffer staging, or in-transit streaming — and the
/// phase driver prices each dump under the matching policy.
/// Like [`io_engine::run_program`], it is `async`.
pub async fn run_attached(
    cfg: &MacsioConfig,
    vfs: &dyn Vfs,
    tracker: &IoTracker,
    storage: StorageAttach<'_>,
) -> io::Result<MacsioReport> {
    cfg.check()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    let scenario = cfg.effective_scenario();
    if scenario.check_every().is_some() {
        return Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "macsio has no checkpoint plane: 'check@' ops need the AMR engines",
        ));
    }
    if scenario.ops.iter().any(|op| {
        matches!(
            op,
            ScenarioOp::Analyze {
                reorganize: true,
                ..
            } | ScenarioOp::AnalyzeEvery {
                reorganize: true,
                ..
            }
        )
    }) {
        return Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "macsio has no reorganization plane: drop ',reorg' from analysis ops",
        ));
    }
    // The dump stream as a cadence: one dump after every compute phase,
    // none before the first. A `fail@K` then recovers from dump `K`
    // itself — MACSio's state lives entirely in its dumps, so no marshal
    // work is re-paid and the read burst is the price of the failure.
    // Trailing `restart`/`readall` fetch only the chunks of
    // `cfg.read_pattern` (the default `full` pattern is the whole-dump
    // restart); `analyze:` ops carry their own selection.
    let cadence = Cadence {
        steps: u64::from(cfg.num_dumps),
        plot_int: 1,
        check_int: 0,
        step0_dump: false,
    };
    let program = io_engine::compile(&scenario, &cadence, &cfg.read_pattern)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;

    let mut backend = cfg
        .io_backend
        .build_with_codec(cfg.compression, vfs, tracker);
    let mut stream = DumpStream {
        cfg,
        threads: io_engine::cores(),
        held: Vec::new(),
    };
    let t = io_engine::run_program(
        &program,
        &mut stream,
        backend.as_mut(),
        vfs,
        tracker,
        cfg.compression,
        storage,
    )
    .await?;
    // MACSio reports one read plane: restart-class and analysis-class
    // reads together.
    Ok(MacsioReport {
        scenario: scenario.name(),
        restarts: t.restarts,
        total_bytes: t.engine.bytes,
        logical_bytes: t.engine.logical_bytes,
        codec_seconds: t.all_codec_seconds(),
        overhead_bytes: t.engine.overhead_bytes,
        bytes_per_dump: t.bytes_per_dump,
        files_written: t.engine.files,
        read_bytes: t.restart.bytes + t.analysis.bytes,
        physical_read_bytes: t.restart.physical_bytes + t.analysis.physical_bytes,
        read_files: t.restart.files + t.analysis.files,
        read_wall: t.restart.wall + t.analysis.wall,
        timeline: t.timeline,
        net_bytes: t.net_bytes,
        net_seconds: t.net_wall,
        window_stall: t.window_stall,
        wall_time: t.wall_time,
    })
}

/// MACSio as the phase driver's producer: a constant compute charge and
/// one dump per step, marshalled on `threads` workers (the visible cores).
struct DumpStream<'a> {
    cfg: &'a MacsioConfig,
    threads: usize,
    /// The last dump's rank blobs, by rank: the next dump refills each one
    /// no other handle still holds (see the module docs).
    held: Vec<Bytes>,
}

/// Bytes a blob of `rank` needs at `dump`: the predictor's, plus, for text
/// JSON, each variable's brackets and separator, which the predictor's
/// mean value width leaves out.
fn blob_capacity(cfg: &MacsioConfig, rank: usize, dump: u32) -> usize {
    let json_extra = match cfg.interface {
        Interface::Miftmpl => 0,
        Interface::Json => 2 * cfg.parts_of_rank(rank) * cfg.vars_per_part,
    };
    predicted_rank_bytes(cfg, rank, dump) as usize + json_extra
}

/// Marshals every rank's blob of `dump` on up to `threads` workers (see
/// the module docs). A blob is a function of its rank alone; `held` are
/// the previous dump's blobs, by rank, and each one no other handle shares
/// is cleared and refilled instead of allocating.
fn marshal_ranks(cfg: &MacsioConfig, dump: u32, threads: usize, held: Vec<Bytes>) -> Vec<Vec<u8>> {
    let last = cfg.num_dumps.saturating_sub(1);
    let mut held = held.into_iter().map(Bytes::try_into_mut);
    let mut blobs: Vec<Vec<u8>> = (0..cfg.nprocs)
        .map(|rank| {
            let need = blob_capacity(cfg, rank, dump);
            match held.next() {
                Some(Ok(blob)) => {
                    let mut blob = Vec::from(blob);
                    blob.clear();
                    blob.reserve(need);
                    blob
                }
                _ => Vec::with_capacity(need.max(blob_capacity(cfg, rank, last))),
            }
        })
        .collect();
    let fill = |first_rank: usize, chunk: &mut [Vec<u8>]| {
        for (rank, blob) in (first_rank..).zip(chunk) {
            for part in rank_parts(cfg, rank, dump) {
                marshal_part_into(&part, dump, cfg.interface, blob);
            }
            if cfg.interface == Interface::Miftmpl {
                debug_assert_eq!(blob.len() as u64, predicted_rank_bytes(cfg, rank, dump));
            }
        }
    };
    if threads.min(cfg.nprocs) <= 1 {
        fill(0, &mut blobs);
    } else {
        let chunk_len = cfg.nprocs.div_ceil(threads);
        std::thread::scope(|scope| {
            for (c, chunk) in blobs.chunks_mut(chunk_len).enumerate() {
                let fill = &fill;
                scope.spawn(move || fill(c * chunk_len, chunk));
            }
        });
    }
    blobs
}

impl Producer for DumpStream<'_> {
    fn compute(&mut self, clock: f64) -> Option<f64> {
        Some(clock + self.cfg.compute_time)
    }

    fn plot_dump(&mut self, backend: &mut dyn IoBackend, step_key: u32) -> io::Result<Dump> {
        let cfg = self.cfg;
        let dump = step_key - 1;
        backend.begin_step(step_key, "/");

        let held = std::mem::take(&mut self.held);
        let blobs: Vec<Bytes> = marshal_ranks(cfg, dump, self.threads, held)
            .into_iter()
            .map(Bytes::from)
            .collect();

        // Group ranks into logical files; ranks in a group submit in baton
        // order, so the backend coalesces their chunks contiguously.
        let nfiles = cfg.parallel_file_mode.files_per_dump(cfg.nprocs);
        let group_size = cfg.nprocs.div_ceil(nfiles);
        for group in 0..nfiles {
            let ranks = (group * group_size)..((group + 1) * group_size).min(cfg.nprocs);
            if ranks.is_empty() {
                continue;
            }
            let path = match cfg.parallel_file_mode {
                FileMode::Sif => format!("/macsio_json_{dump:03}.json"),
                FileMode::Mif(_) => format!("/macsio_json_{group:05}_{dump:03}.json"),
            };
            for rank in ranks {
                backend.put(Put {
                    key: IoKey {
                        step: step_key,
                        level: 0,
                        task: rank as u32,
                    },
                    kind: IoKind::Data,
                    path: path.clone(),
                    payload: Payload::Bytes(blobs[rank].clone()),
                })?;
            }
        }
        // The last dump has no next one to refill its blobs: they go with
        // their holders (a read phase may follow).
        if dump + 1 < cfg.num_dumps {
            self.held = blobs;
        }

        // Root metadata file (rank 0).
        let parts_per_rank: Vec<usize> = (0..cfg.nprocs).map(|r| cfg.parts_of_rank(r)).collect();
        let root = marshal_root(dump, cfg.nprocs, &parts_per_rank, cfg.meta_size);
        debug_assert_eq!(
            root.len() as u64,
            marshal_root_len(dump, cfg.nprocs, &parts_per_rank, cfg.meta_size)
        );
        backend.put(Put {
            key: IoKey {
                step: step_key,
                level: 0,
                task: 0,
            },
            kind: IoKind::Metadata,
            path: format!("/macsio_json_root_{dump:03}.json"),
            payload: Payload::Bytes(root.into()),
        })?;

        Ok(Dump {
            dir: "/".to_string(),
            stats: backend.end_step()?,
        })
    }

    /// The crash loses the in-memory mesh, but every dump is marshalled
    /// from the config alone: there is nothing to rewind.
    fn restore(&mut self, _step: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RunMode;
    use crate::marshal::tests::marshal_part_oracle;
    use iosim::MemFs;

    fn base_cfg() -> MacsioConfig {
        MacsioConfig {
            nprocs: 4,
            num_dumps: 3,
            part_size: 8 * 1024,
            ..Default::default()
        }
    }

    /// Three part distributions (the fractional one loads the first ranks
    /// more) across N-to-N, grouped and single-file modes.
    fn fan_out_cfgs() -> Vec<MacsioConfig> {
        let mut cfgs = Vec::new();
        for avg_num_parts in [1.0, 1.5, 3.0] {
            for parallel_file_mode in [FileMode::n_to_n(), FileMode::Mif(2), FileMode::Sif] {
                cfgs.push(MacsioConfig {
                    nprocs: 5,
                    num_dumps: 2,
                    part_size: 60_000,
                    vars_per_part: 2,
                    dataset_growth: 1.03,
                    avg_num_parts,
                    parallel_file_mode,
                    ..Default::default()
                });
            }
        }
        cfgs
    }

    /// One rank's blob the way the serial marshal built it: the oracle
    /// `marshal_part` of each of its parts, concatenated.
    fn rank_blob_oracle(cfg: &MacsioConfig, rank: usize, dump: u32) -> Vec<u8> {
        let first_id: usize = (0..rank).map(|r| cfg.parts_of_rank(r)).sum();
        let mut blob = Vec::new();
        for p in 0..cfg.parts_of_rank(rank) {
            let part = MeshPart::from_nominal_size(
                first_id + p,
                cfg.grown_part_size(dump),
                cfg.vars_per_part,
            );
            blob.extend(marshal_part_oracle(&part, dump, cfg.interface));
        }
        blob
    }

    #[test]
    fn rank_fan_out_is_byte_identical_to_serial() {
        for cfg in fan_out_cfgs() {
            let last = cfg.num_dumps - 1;
            for dump in 0..cfg.num_dumps {
                let serial: Vec<Vec<u8>> = (0..cfg.nprocs)
                    .map(|rank| rank_blob_oracle(&cfg, rank, dump))
                    .collect();
                // More workers than ranks included.
                for workers in [1, 2, 3, 4, 8] {
                    let blobs = marshal_ranks(&cfg, dump, workers, Vec::new());
                    assert!(
                        blobs == serial,
                        "{workers} workers, dump {dump}, {}",
                        cfg.command_line()
                    );
                    // Sized once, for the run's largest dump, and filled
                    // without growing.
                    for (rank, blob) in blobs.iter().enumerate() {
                        let largest = blob_capacity(&cfg, rank, dump.max(last));
                        assert_eq!(blob.capacity(), largest);
                        assert_eq!(blob.len() as u64, predicted_rank_bytes(&cfg, rank, dump));
                    }
                    // The next dump refills the same allocations without
                    // growing them, and byte-identically.
                    if dump < last {
                        let held: Vec<Bytes> = blobs.into_iter().map(Bytes::from).collect();
                        let ptrs: Vec<*const u8> = held.iter().map(|b| b.as_ptr()).collect();
                        let next = marshal_ranks(&cfg, dump + 1, workers, held);
                        for (rank, blob) in next.iter().enumerate() {
                            assert_eq!(blob.as_ptr(), ptrs[rank]);
                            assert_eq!(blob.capacity(), blob_capacity(&cfg, rank, last));
                            assert!(*blob == rank_blob_oracle(&cfg, rank, dump + 1));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn text_json_ranks_fan_out_identically_despite_the_approximate_sizer() {
        let cfg = MacsioConfig {
            nprocs: 3,
            part_size: 40_000,
            avg_num_parts: 1.5,
            vars_per_part: 3,
            interface: Interface::Json,
            ..Default::default()
        };
        let serial: Vec<Vec<u8>> = (0..3).map(|r| rank_blob_oracle(&cfg, r, 0)).collect();
        for workers in [1, 3] {
            let blobs = marshal_ranks(&cfg, 0, workers, Vec::new());
            assert!(blobs == serial, "{workers} workers");
            // No blob grew while it was filled (a `dataset_growth` of 1
            // makes every dump the largest): all that is left of its
            // capacity is one transient trailing comma per part.
            for (rank, blob) in blobs.iter().enumerate() {
                assert_eq!(blob.capacity() - blob.len(), cfg.parts_of_rank(rank));
            }
        }
    }

    /// Every file of a run of `cfg` as the serial oracle lays it out.
    fn oracle_files(cfg: &MacsioConfig) -> std::collections::BTreeMap<String, Vec<u8>> {
        let mut want = std::collections::BTreeMap::new();
        let nfiles = cfg.parallel_file_mode.files_per_dump(cfg.nprocs);
        let group_size = cfg.nprocs.div_ceil(nfiles);
        for dump in 0..cfg.num_dumps {
            for rank in 0..cfg.nprocs {
                let path = match cfg.parallel_file_mode {
                    FileMode::Sif => format!("/macsio_json_{dump:03}.json"),
                    FileMode::Mif(_) => {
                        format!("/macsio_json_{:05}_{dump:03}.json", rank / group_size)
                    }
                };
                want.entry(path)
                    .or_insert_with(Vec::new)
                    .extend(rank_blob_oracle(cfg, rank, dump));
            }
            let parts: Vec<usize> = (0..cfg.nprocs).map(|r| cfg.parts_of_rank(r)).collect();
            want.insert(
                format!("/macsio_json_root_{dump:03}.json"),
                marshal_root(dump, cfg.nprocs, &parts, cfg.meta_size),
            );
        }
        want
    }

    /// Asserts that `fs` holds exactly the files of a run of `cfg`, byte
    /// for byte as the serial oracle lays them out.
    fn assert_oracle_files(cfg: &MacsioConfig, fs: &dyn Vfs) {
        let want = oracle_files(cfg);
        let mut listing = fs.list("/");
        listing.sort();
        assert_eq!(listing, want.keys().cloned().collect::<Vec<_>>());
        for (path, bytes) in &want {
            assert!(
                fs.read_file(path).unwrap() == *bytes,
                "{path} of {}",
                cfg.command_line()
            );
        }
    }

    #[test]
    fn full_run_files_match_a_serially_marshalled_reference() {
        // `run` marshals on however many threads this machine shows; the
        // reference is laid out by hand from serial oracle blobs.
        for cfg in fan_out_cfgs() {
            let fs = MemFs::new();
            run(&cfg, &fs, &IoTracker::new(), None).unwrap();
            assert_oracle_files(&cfg, &fs);
        }
    }

    /// A Vfs that keeps a copy of every file and drops the writer's
    /// handles at once (the trait's flattening `write_file_concat` into
    /// `MemFs::write_file`), so every blob comes back to the stream.
    struct CopyFs(MemFs);

    impl Vfs for CopyFs {
        fn create_dir_all(&self, path: &str) -> io::Result<()> {
            self.0.create_dir_all(path)
        }
        fn write_file(&self, path: &str, data: &[u8]) -> io::Result<u64> {
            self.0.write_file(path, data)
        }
        fn file_size(&self, path: &str) -> Option<u64> {
            self.0.file_size(path)
        }
        fn read_file(&self, path: &str) -> Option<Vec<u8>> {
            self.0.read_file(path)
        }
        fn list(&self, prefix: &str) -> Vec<String> {
            self.0.list(prefix)
        }
        fn total_bytes(&self) -> u64 {
            self.0.total_bytes()
        }
        fn nfiles(&self) -> usize {
            self.0.nfiles()
        }
    }

    /// Dumps `1..=dumps` of `cfg` through a stream over `vfs`, returning
    /// the allocations the stream held after each one.
    fn held_after_each_dump(cfg: &MacsioConfig, vfs: &dyn Vfs, dumps: u32) -> Vec<Vec<*const u8>> {
        let tracker = IoTracker::new();
        let mut backend = cfg
            .io_backend
            .build_with_codec(cfg.compression, vfs, &tracker);
        let mut stream = DumpStream {
            cfg,
            threads: 2,
            held: Vec::new(),
        };
        (1..=dumps)
            .map(|step| {
                stream.plot_dump(backend.as_mut(), step).unwrap();
                stream.held.iter().map(|b| b.as_ptr()).collect()
            })
            .collect()
    }

    #[test]
    fn recycled_blobs_are_refilled_byte_identically() {
        // Growth makes every dump's blobs longer than the last one's, so a
        // refill that kept old bytes, or wrote at the wrong offset, shows.
        for cfg in fan_out_cfgs() {
            let cfg = MacsioConfig {
                num_dumps: 4,
                ..cfg
            };
            let fs = CopyFs(MemFs::new());
            run(&cfg, &fs, &IoTracker::new(), None).unwrap();
            assert_oracle_files(&cfg, &fs);
            // The copies really did free the blobs for the next dump.
            let held = held_after_each_dump(&cfg, &CopyFs(MemFs::new()), 2);
            assert_eq!(held[0], held[1], "{}", cfg.command_line());
        }
    }

    #[test]
    fn a_fs_that_keeps_no_content_gives_every_blob_back() {
        let cfg = MacsioConfig {
            num_dumps: 4,
            dataset_growth: 1.2,
            ..fan_out_cfgs()[3].clone()
        };
        let held = held_after_each_dump(&cfg, &MemFs::with_retention(0), 4);
        assert_eq!(held[0].len(), cfg.nprocs);
        assert_eq!(held[0], held[1]);
        assert_eq!(held[1], held[2]);
        assert!(held[3].is_empty(), "the last dump keeps nothing");
    }

    #[test]
    fn blobs_a_holder_keeps_are_never_recycled() {
        // The fs keeps a 4-byte head of every file: a sub-slice of the
        // blob of the file's first rank, which shares its allocation. The
        // other ranks of a group file are freed, and may be recycled.
        for cfg in fan_out_cfgs() {
            // Three of four dumps: the stream still holds the third's.
            let cfg = MacsioConfig {
                num_dumps: 4,
                ..cfg
            };
            let fs = MemFs::with_retention(4);
            let held = held_after_each_dump(&cfg, &fs, 3);
            let group_size = cfg
                .nprocs
                .div_ceil(cfg.parallel_file_mode.files_per_dump(cfg.nprocs));
            let heads = |ptrs: &[*const u8]| -> Vec<*const u8> {
                ptrs.iter().copied().step_by(group_size).collect()
            };
            for dump in 1..held.len() {
                for p in heads(&held[dump]) {
                    assert!(
                        held[..dump]
                            .iter()
                            .all(|earlier| !heads(earlier).contains(&p)),
                        "dump {dump} refilled a blob the fs holds: {}",
                        cfg.command_line()
                    );
                }
            }
            let want = oracle_files(&cfg);
            let written = fs.list("/");
            assert_eq!(written.len(), 3 * (want.len() / 4));
            for path in written {
                assert_eq!(fs.read_file(&path).unwrap(), want[&path][..4], "{path}");
            }
        }
    }

    #[test]
    fn bad_config_is_a_typed_error_naming_the_field() {
        type Spoil = fn(&mut MacsioConfig);
        let bad: [(&str, Spoil); 11] = [
            ("nprocs", |c| c.nprocs = 0),
            ("part_size", |c| c.part_size = 0),
            ("avg_num_parts", |c| c.avg_num_parts = 0.0),
            ("avg_num_parts", |c| c.avg_num_parts = f64::INFINITY),
            ("vars_per_part", |c| c.vars_per_part = 0),
            ("dataset_growth", |c| c.dataset_growth = f64::NAN),
            ("dataset_growth", |c| c.dataset_growth = -1.0),
            ("dataset_growth", |c| c.dataset_growth = f64::INFINITY),
            ("compute_time", |c| c.compute_time = -0.5),
            ("compute_time", |c| c.compute_time = f64::NAN),
            ("cannot be allocated", |c| c.dataset_growth = 1e30),
        ];
        for (field, spoil) in bad {
            let mut cfg = base_cfg();
            spoil(&mut cfg);
            let fs = MemFs::new();
            let err = run(&cfg, &fs, &IoTracker::new(), None).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{field}");
            assert!(err.to_string().contains(field), "{field}: {err}");
            assert!(fs.list("/").is_empty(), "{field}: nothing is written");
        }
    }

    #[test]
    fn n_to_n_file_pattern_matches_fig3() {
        let cfg = base_cfg();
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let report = run(&cfg, &fs, &tracker, None).unwrap();
        // 4 data files + 1 root per dump, 3 dumps.
        assert_eq!(report.files_written, 15);
        let files = fs.list("/");
        assert!(files.contains(&"/macsio_json_00000_000.json".to_string()));
        assert!(files.contains(&"/macsio_json_00003_002.json".to_string()));
        assert!(files.contains(&"/macsio_json_root_000.json".to_string()));
        assert!(files.contains(&"/macsio_json_root_002.json".to_string()));
        assert_eq!(files.len(), 15);
    }

    #[test]
    fn streaming_backend_ships_dumps_over_the_link() {
        let mut cfg = base_cfg();
        cfg.io_backend = io_engine::BackendSpec::parse("streaming:100").unwrap();
        cfg.compute_time = 1.5;
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let report = run(&cfg, &fs, &tracker, None).unwrap();
        // The storage plane stays untouched; the tracker's logical plane
        // matches the stored run's exactly.
        assert_eq!(report.total_bytes, 0);
        assert_eq!(report.files_written, 0);
        assert!(fs.list("/").is_empty(), "nothing reaches the filesystem");
        let stored_tracker = IoTracker::new();
        let stored = run(&base_cfg(), &MemFs::new(), &stored_tracker, None).unwrap();
        assert_eq!(tracker.export(), stored_tracker.export());
        assert_eq!(report.logical_bytes, stored.logical_bytes);
        // The network plane is priced instead, inside wall_time.
        assert_eq!(report.net_bytes, report.logical_bytes);
        assert!(report.net_seconds > 0.0);
        assert_eq!(report.window_stall, 0.0, "unbounded window");
        let compute = 3.0 * 1.5;
        assert!(
            (report.wall_time - (compute + report.net_seconds + report.codec_seconds)).abs() < 1e-9,
            "streamed wall = compute + transfer: {}",
            report.wall_time
        );
    }

    #[test]
    fn growth_inflates_dumps() {
        let mut cfg = base_cfg();
        cfg.dataset_growth = 1.05;
        cfg.num_dumps = 5;
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let report = run(&cfg, &fs, &tracker, None).unwrap();
        for w in report.bytes_per_dump.windows(2) {
            assert!(w[1] >= w[0], "dump sizes must be non-decreasing: {w:?}");
        }
        let first = report.bytes_per_dump[0] as f64;
        let last = *report.bytes_per_dump.last().unwrap() as f64;
        assert!(last / first > 1.15, "5 dumps at 5% growth compound");
    }

    #[test]
    fn tracker_records_per_rank_bytes() {
        let cfg = base_cfg();
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        run(&cfg, &fs, &tracker, None).unwrap();
        assert_eq!(tracker.steps(), vec![1, 2, 3]);
        let per_task = tracker.bytes_per_task_of(1, 0, IoKind::Data);
        assert_eq!(per_task.len(), 4);
        // Homogeneous per-rank loads (the paper's observation about
        // MACSio's granularity).
        assert!(per_task.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn sif_writes_one_data_file_per_dump() {
        let mut cfg = base_cfg();
        cfg.parallel_file_mode = FileMode::Sif;
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let report = run(&cfg, &fs, &tracker, None).unwrap();
        assert_eq!(report.files_written, 6); // 1 data + 1 root, 3 dumps
        assert!(fs.list("/").contains(&"/macsio_json_000.json".to_string()));
    }

    #[test]
    fn mif_grouping_reduces_file_count() {
        let mut cfg = base_cfg();
        cfg.nprocs = 8;
        cfg.parallel_file_mode = FileMode::Mif(2);
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let report = run(&cfg, &fs, &tracker, None).unwrap();
        assert_eq!(report.files_written, 9); // 2 data + 1 root per dump
                                             // All 8 ranks still accounted in the tracker.
        assert_eq!(tracker.bytes_per_task(1, 0).len(), 8);
    }

    #[test]
    fn total_bytes_match_vfs() {
        let cfg = base_cfg();
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let report = run(&cfg, &fs, &tracker, None).unwrap();
        assert_eq!(report.total_bytes, fs.total_bytes());
        assert_eq!(
            report.total_bytes,
            report.bytes_per_dump.iter().sum::<u64>()
        );
    }

    #[test]
    fn storage_model_produces_bursty_timeline() {
        let mut cfg = base_cfg();
        cfg.compute_time = 10.0;
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let model = StorageModel::ideal(4, 1e6);
        let report = run(&cfg, &fs, &tracker, Some(&model)).unwrap();
        assert_eq!(report.timeline.len(), 3);
        assert!(report.timeline.duty_cycle() < 0.5, "compute dominates");
        assert!(report.wall_time > 30.0);
        // Bursts are ordered in time.
        let bursts = report.timeline.bursts();
        assert!(bursts.windows(2).all(|w| w[1].t_start >= w[0].t_end));
    }

    #[test]
    fn compression_shrinks_physical_keeps_logical() {
        let mut cfg = base_cfg();
        let fs_id = MemFs::new();
        let t_id = IoTracker::new();
        let r_id = run(&cfg, &fs_id, &t_id, None).unwrap();
        assert_eq!(r_id.logical_bytes, r_id.total_bytes, "identity: equal");
        assert_eq!(r_id.codec_seconds, 0.0);

        cfg.compression = io_engine::CodecSpec::LossyQuant(8);
        let fs_q = MemFs::new();
        let t_q = IoTracker::new();
        let r_q = run(&cfg, &fs_q, &t_q, None).unwrap();
        // The calibration target (tracker) is codec-invariant.
        assert_eq!(t_id.export(), t_q.export());
        assert_eq!(r_q.logical_bytes, r_id.logical_bytes);
        // Physical volume shrinks and the CPU cost is accounted.
        assert!(r_q.total_bytes < r_id.total_bytes);
        assert_eq!(r_q.total_bytes, fs_q.total_bytes());
        assert!(r_q.codec_seconds > 0.0);
        assert!(r_q.wall_time >= r_q.codec_seconds);
        // One sidecar per dump rides along.
        assert_eq!(r_q.files_written, r_id.files_written + cfg.num_dumps as u64);
    }

    #[test]
    fn restart_mode_reads_the_last_dump_back() {
        let mut cfg = base_cfg();
        cfg.mode = RunMode::Restart;
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let report = run(&cfg, &fs, &tracker, None).unwrap();
        // The restart reads exactly the last dump's logical bytes.
        let last_dump_logical = tracker.bytes_per_step()[&cfg.num_dumps];
        assert_eq!(report.read_bytes, last_dump_logical);
        assert_eq!(tracker.total_read_bytes(), last_dump_logical);
        assert_eq!(
            tracker
                .read_bytes_per_step()
                .keys()
                .copied()
                .collect::<Vec<_>>(),
            vec![cfg.num_dumps]
        );
        // Identity codec, fpp: physical read == logical read.
        assert_eq!(report.physical_read_bytes, report.read_bytes);
        assert_eq!(report.read_files, 5, "4 data files + 1 root");
    }

    #[test]
    fn wr_mode_reads_every_dump_back() {
        let mut cfg = base_cfg();
        cfg.mode = RunMode::WriteRead;
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let report = run(&cfg, &fs, &tracker, None).unwrap();
        assert_eq!(report.read_bytes, report.logical_bytes, "full read-back");
        assert_eq!(tracker.total_read_bytes(), tracker.total_bytes());
        assert_eq!(report.read_files, report.files_written);
    }

    #[test]
    fn restart_read_is_timed_against_storage() {
        let mut cfg = base_cfg();
        cfg.mode = RunMode::Restart;
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let model = StorageModel::ideal(2, 1e6);
        let report = run(&cfg, &fs, &tracker, Some(&model)).unwrap();
        assert!(report.read_wall > 0.0, "reads cost simulated time");
        assert!(report.wall_time >= report.read_wall);
        // The read burst joins the timeline next to the write bursts.
        assert_eq!(
            report.timeline.len(),
            cfg.num_dumps as usize + 1,
            "write bursts + one restart read burst"
        );
        // Write-only run of the same config is strictly faster.
        let mut w = base_cfg();
        w.mode = RunMode::Write;
        let fsw = MemFs::new();
        let tw = IoTracker::new();
        let wr = run(&w, &fsw, &tw, Some(&model)).unwrap();
        assert!(report.wall_time > wr.wall_time);
        assert_eq!(wr.read_wall, 0.0);
    }

    #[test]
    fn read_pattern_narrows_the_restart_fetch() {
        use io_engine::ReadSelection;
        let mut cfg = base_cfg();
        cfg.nprocs = 8;
        cfg.mode = RunMode::Restart;
        let fs_full = MemFs::new();
        let t_full = IoTracker::new();
        let full = run(&cfg, &fs_full, &t_full, None).unwrap();

        // A task box covering half the world fetches half the data.
        cfg.read_pattern = ReadSelection::parse("box:0,0-3").unwrap();
        let fs_box = MemFs::new();
        let t_box = IoTracker::new();
        let boxed = run(&cfg, &fs_box, &t_box, None).unwrap();
        assert!(boxed.read_bytes < full.read_bytes);
        assert!(boxed.physical_read_bytes < full.physical_read_bytes);
        assert_eq!(
            boxed.read_bytes,
            t_box.total_read_bytes(),
            "tracker read plane sees the selection"
        );
        // 8 data chunks per dump: the box matches tasks 0..=3 (data is
        // level 0); the root metadata chunk (task 0) matches too.
        assert_eq!(t_box.total_read_records(), 5);

        // A field pattern naming the root file fetches only metadata.
        cfg.read_pattern = ReadSelection::Field("root".into());
        let fs_f = MemFs::new();
        let t_f = IoTracker::new();
        let fielded = run(&cfg, &fs_f, &t_f, None).unwrap();
        assert_eq!(
            fielded.read_bytes,
            t_f.total_read_bytes_of(iosim::IoKind::Metadata),
            "only the root metadata matched"
        );
        assert_eq!(fielded.read_files, 1);
    }

    #[test]
    fn restart_round_trips_across_backend_codec_matrix() {
        use io_engine::{BackendSpec, CodecSpec};
        // The wr-mode read phase re-reads every dump; with a lossless
        // codec the logical read totals must equal the write totals for
        // every backend × codec combination.
        for backend in [
            BackendSpec::FilePerProcess,
            BackendSpec::Aggregated(2),
            BackendSpec::Deferred(1),
        ] {
            for codec in [CodecSpec::Identity, CodecSpec::Rle(2.0)] {
                let cfg = MacsioConfig {
                    nprocs: 4,
                    num_dumps: 2,
                    part_size: 4 * 1024,
                    io_backend: backend,
                    compression: codec,
                    mode: RunMode::WriteRead,
                    ..Default::default()
                };
                let fs = MemFs::new();
                let tracker = IoTracker::new();
                let report = run(&cfg, &fs, &tracker, None).unwrap();
                let label = format!("{}/{}", backend.name(), codec.name());
                assert_eq!(
                    tracker.total_read_bytes(),
                    tracker.total_bytes(),
                    "read plane drift in {label}"
                );
                assert_eq!(report.read_bytes, report.logical_bytes, "{label}");
            }
        }
    }

    #[test]
    fn scenario_path_reproduces_mode_reports_exactly() {
        use io_engine::Scenario;
        // `--mode restart` and `--scenario write;restart` (and wr /
        // write;readall) must be the same run: every report column and
        // the tracker agree.
        for (mode, spelling) in [
            (RunMode::Write, "write"),
            (RunMode::Restart, "write;restart"),
            (RunMode::WriteRead, "write;readall"),
        ] {
            let mut by_mode_cfg = base_cfg();
            by_mode_cfg.mode = mode;
            let fs_m = MemFs::new();
            let t_m = IoTracker::new();
            let model = StorageModel::ideal(2, 1e6);
            let by_mode = run(&by_mode_cfg, &fs_m, &t_m, Some(&model)).unwrap();

            let mut by_scenario_cfg = base_cfg();
            by_scenario_cfg.scenario = Some(Scenario::parse(spelling).unwrap());
            let fs_s = MemFs::new();
            let t_s = IoTracker::new();
            let by_scenario = run(&by_scenario_cfg, &fs_s, &t_s, Some(&model)).unwrap();

            assert_eq!(by_mode.scenario, spelling);
            assert_eq!(by_scenario.scenario, spelling);
            assert_eq!(t_m.export(), t_s.export(), "{spelling}: write plane");
            assert_eq!(t_m.export_reads(), t_s.export_reads(), "{spelling}");
            assert_eq!(by_mode.total_bytes, by_scenario.total_bytes);
            assert_eq!(by_mode.read_bytes, by_scenario.read_bytes);
            assert_eq!(by_mode.read_files, by_scenario.read_files);
            assert_eq!(by_mode.read_wall, by_scenario.read_wall, "{spelling}");
            assert_eq!(by_mode.wall_time, by_scenario.wall_time, "{spelling}");
            assert_eq!(by_mode.timeline, by_scenario.timeline);
        }
    }

    #[test]
    fn fail_restart_scenario_recovers_mid_stream() {
        use io_engine::Scenario;
        let mut cfg = base_cfg();
        cfg.compute_time = 10.0;
        cfg.scenario = Some(Scenario::fail_restart(2));
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let model = StorageModel::ideal(4, 1e6);
        let report = run(&cfg, &fs, &tracker, Some(&model)).unwrap();
        assert_eq!(report.restarts, 1);
        // The recovery read of dump 2 sits *between* the write bursts of
        // dumps 2 and 3, not after the campaign.
        let steps: Vec<u32> = report.timeline.bursts().iter().map(|b| b.step).collect();
        assert_eq!(steps, vec![1, 2, 2, 3], "write, write, recovery, write");
        // The recovery reads exactly dump 2's logical volume; no dump is
        // written twice.
        assert_eq!(report.read_bytes, tracker.bytes_per_step()[&2]);
        let mut clean_cfg = base_cfg();
        clean_cfg.compute_time = 10.0;
        let fs_c = MemFs::new();
        let t_c = IoTracker::new();
        let clean = run(&clean_cfg, &fs_c, &t_c, Some(&model)).unwrap();
        assert_eq!(tracker.export(), t_c.export(), "write plane untouched");
        assert!(report.wall_time > clean.wall_time, "the failure is priced");
    }

    #[test]
    fn in_run_analysis_scenario_interleaves_selective_reads() {
        use io_engine::Scenario;
        let mut cfg = base_cfg();
        cfg.num_dumps = 4;
        cfg.compute_time = 5.0;
        cfg.scenario = Some(Scenario::parse("write;analyze_every:2:field:root").unwrap());
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let model = StorageModel::ideal(4, 1e6);
        let report = run(&cfg, &fs, &tracker, Some(&model)).unwrap();
        // Dumps 2 and 4 are analyzed in-run.
        let steps: Vec<u32> = report.timeline.bursts().iter().map(|b| b.step).collect();
        assert_eq!(steps, vec![1, 2, 2, 3, 4, 4]);
        assert_eq!(report.restarts, 0, "analysis reads are not restarts");
        // The field selection narrows each read to the root metadata.
        assert_eq!(
            report.read_bytes,
            tracker.total_read_bytes_of(IoKind::Metadata)
        );
        assert_eq!(report.read_files, 2);
    }

    #[test]
    fn unsupported_scenario_ops_are_rejected() {
        use io_engine::Scenario;
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let mut cfg = base_cfg();
        // No checkpoint plane.
        cfg.scenario = Some(Scenario::parse("write;check@2").unwrap());
        assert!(run(&cfg, &fs, &tracker, None).is_err());
        // No reorganization plane.
        cfg.scenario = Some(Scenario::parse("write;analyze:field:root,reorg").unwrap());
        assert!(run(&cfg, &fs, &tracker, None).is_err());
        // A failure after the last dump can never happen, and a
        // malformed program (no `write`) never compiles: the same typed
        // error the AMR side returns.
        for scenario in [Scenario::fail_restart(99), Scenario { ops: Vec::new() }] {
            cfg.scenario = Some(scenario);
            let err = run(&cfg, &fs, &tracker, None).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        }
    }

    #[test]
    fn meta_size_grows_root_files() {
        let fs_a = MemFs::new();
        let fs_b = MemFs::new();
        let ta = IoTracker::new();
        let tb = IoTracker::new();
        let mut cfg = base_cfg();
        run(&cfg, &fs_a, &ta, None).unwrap();
        cfg.meta_size = 1000;
        run(&cfg, &fs_b, &tb, None).unwrap();
        assert_eq!(
            tb.total_bytes_of(IoKind::Metadata),
            ta.total_bytes_of(IoKind::Metadata) + 3 * 4 * 1000
        );
        // Data unaffected.
        assert_eq!(
            ta.total_bytes_of(IoKind::Data),
            tb.total_bytes_of(IoKind::Data)
        );
    }

    #[test]
    fn json_interface_writes_more_bytes_than_miftmpl() {
        let fs_a = MemFs::new();
        let fs_b = MemFs::new();
        let t = IoTracker::new();
        let mut cfg = base_cfg();
        run(&cfg, &fs_a, &t, None).unwrap();
        cfg.interface = Interface::Json;
        run(&cfg, &fs_b, &t, None).unwrap();
        assert!(fs_b.total_bytes() > fs_a.total_bytes());
    }

    #[test]
    fn predictor_matches_actual_run_exactly_for_miftmpl() {
        let mut cfg = base_cfg();
        cfg.nprocs = 3;
        cfg.avg_num_parts = 1.5;
        cfg.vars_per_part = 2;
        cfg.dataset_growth = 1.07;
        cfg.num_dumps = 4;
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let report = run(&cfg, &fs, &tracker, None).unwrap();
        for dump in 0..cfg.num_dumps {
            assert_eq!(
                predicted_dump_bytes(&cfg, dump),
                report.bytes_per_dump[dump as usize],
                "dump {dump}"
            );
            let per_task = tracker.bytes_per_task_of(dump + 1, 0, IoKind::Data);
            #[allow(clippy::needless_range_loop)] // rank indexes tracker + predictor
            for rank in 0..cfg.nprocs {
                assert_eq!(
                    predicted_rank_bytes(&cfg, rank, dump),
                    per_task[rank],
                    "rank {rank} dump {dump}"
                );
            }
        }
    }

    #[test]
    fn predictor_counts_a_gibibyte_root_without_building_it() {
        // 1,024 ranks with 1 MiB of metadata each, as in a calibration
        // evaluation of a paper-scale run: the root is counted, not built.
        let cfg = MacsioConfig {
            nprocs: 1024,
            meta_size: 1 << 20,
            part_size: 800,
            ..Default::default()
        };
        let data: u64 = (0..1024).map(|r| predicted_rank_bytes(&cfg, r, 3)).sum();
        let parts: Vec<usize> = (0..1024).map(|r| cfg.parts_of_rank(r)).collect();
        let head = marshal_root(3, 1024, &parts, 0).len() as u64;
        assert_eq!(predicted_dump_bytes(&cfg, 3), data + head + (1 << 30));
    }

    #[test]
    fn predictor_is_close_for_text_json() {
        let mut cfg = base_cfg();
        cfg.interface = Interface::Json;
        cfg.num_dumps = 1;
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        let report = run(&cfg, &fs, &tracker, None).unwrap();
        let predicted = predicted_dump_bytes(&cfg, 0) as f64;
        let actual = report.bytes_per_dump[0] as f64;
        assert!(
            (predicted - actual).abs() / actual < 0.05,
            "predicted {predicted} vs actual {actual}"
        );
    }

    #[test]
    fn on_disk_bytes_track_nominal_request() {
        // The Eq. (3) premise: per-rank on-disk bytes ~ part_size.
        let mut cfg = base_cfg();
        cfg.part_size = 1_000_000;
        cfg.num_dumps = 1;
        let fs = MemFs::new();
        let tracker = IoTracker::new();
        run(&cfg, &fs, &tracker, None).unwrap();
        let per_task = tracker.bytes_per_task(1, 0);
        for &b in &per_task {
            let ratio = b as f64 / cfg.part_size as f64;
            assert!((1.0..1.05).contains(&ratio), "ratio {ratio}");
        }
    }
}
