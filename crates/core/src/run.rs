//! Driving one parameterized Castro-Sedov run and collecting its I/O.
//!
//! Mirrors the paper's measurement loop: advance the simulation, dump a
//! plotfile every `plot_int` steps (including the step-0 dump AMReX
//! writes), record every byte at `(step, level, task)` granularity, and
//! (optionally) time each dump burst against the storage model. The
//! *shape* of the run — where checkpoints, mid-run failures/restarts,
//! and analysis reads interleave with the write stream — is a compiled
//! scenario program executed by the phase driver MACSio shares
//! ([`io_engine::driver`]), with the hierarchy engines as its producer
//! ([`crate::driver`]).

use crate::config::{CastroSedovConfig, Engine};
use crate::driver::{try_run_scenario_attached, AmrSource, OracleSource};
use hydro::StepInfo;
use io_engine::RunTotals;
use iosim::{IoTracker, MemFs, StorageModel, Vfs};
use mpi_sim::{rank_seed, SimClock, SimComm};

/// Everything measured from one run.
pub struct RunResult {
    /// The configuration that produced it.
    pub config: CastroSedovConfig,
    /// Byte records at `(step, level, task)` granularity. The tracker
    /// `step` key is the 1-based output counter (Eq. 1), not the
    /// simulation step number.
    pub tracker: IoTracker,
    /// Per-step advance summaries, in the order the clock paid for them
    /// (steps re-computed after a mid-run restart appear twice).
    pub steps: Vec<StepInfo>,
    /// What the phase driver ([`io_engine::run_program`]) measured:
    /// dumps, restarts, each plane's bytes, files and walls, and the
    /// burst timeline.
    pub totals: RunTotals,
}

impl RunResult {
    /// Per-output-counter total bytes, as the calibration target.
    pub fn per_step_bytes(&self) -> Vec<f64> {
        self.tracker
            .bytes_per_step()
            .values()
            .map(|&b| b as f64)
            .collect()
    }

    /// Eq. (1)/(2) cumulative series.
    pub fn xy_series(&self) -> model::XySeries {
        model::XySeries::from_tracker(
            self.config.name.clone(),
            &self.tracker,
            self.config.n_cell * self.config.n_cell,
        )
    }
}

/// Runs a configuration to `max_step` (or `stop_time`), writing plotfiles
/// through `vfs` (an internal throw-away memory FS when `None`) and timing
/// bursts against `storage` when given. The run's phase program is
/// `cfg.effective_scenario()` compiled against its cadences — both
/// engines execute through the same `crate::driver` plane.
pub fn run_simulation(
    cfg: &CastroSedovConfig,
    vfs: Option<&dyn Vfs>,
    storage: Option<&StorageModel>,
) -> RunResult {
    iosim::block_on(try_run_simulation_attached(cfg, vfs, storage.into()))
        .unwrap_or_else(|e| panic!("scenario I/O: {e}"))
}

/// [`run_simulation`] with an explicit storage attachment, propagating
/// phase I/O errors instead of panicking. Pass
/// [`iosim::StorageAttach::Fabric`] to run as one tenant of a shared
/// machine room (see [`iosim::Fabric`]), contending with every other
/// tenant's bursts on one event-driven clock; a tenant among several runs
/// under [`iosim::Fabric::run`]. Callers take this door when a scenario
/// may legitimately ask a backend for something it cannot serve (e.g.
/// `analyze:SEL` against a step the backend never saw returns the typed
/// [`std::io::ErrorKind::Unsupported`] error naming the backend).
pub async fn try_run_simulation_attached(
    cfg: &CastroSedovConfig,
    vfs: Option<&dyn Vfs>,
    storage: iosim::StorageAttach<'_>,
) -> std::io::Result<RunResult> {
    let own_fs;
    let fs: &dyn Vfs = match vfs {
        Some(v) => v,
        None => {
            own_fs = MemFs::with_retention(0);
            &own_fs
        }
    };
    match cfg.engine {
        Engine::Hydro => try_run_scenario_attached(cfg, AmrSource::new(cfg), fs, storage).await,
        Engine::Oracle => try_run_scenario_attached(cfg, OracleSource::new(cfg), fs, storage).await,
    }
}

/// Deterministic per-(seed, rank, step) speed jitter in `[0.97, 1.03)`:
/// the SplitMix64 finalizer ([`rank_seed`]) of the seed with the rank
/// and step mixed in, so any two distinct `(rank, step)` pairs draw
/// independent factors — steps 8 apart are as decorrelated as steps 1
/// apart (the old draw-burning scheme cycled with period 8). A pure
/// function of its arguments, so it can be evaluated for any rank in any
/// order.
pub(crate) fn rank_step_jitter(seed: u64, rank: u64, step: u64) -> f64 {
    let z = rank_seed(
        seed ^ rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ step.wrapping_mul(0xBF58_476D_1CE4_E5B9),
        0,
    );
    let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
    0.97 + 0.06 * unit
}

/// Advances the simulated wall clock through one compute phase: every
/// rank works through its share of `total_cells` with a small
/// deterministic per-rank speed jitter ([`rank_step_jitter`] of the
/// communicator's seed), then all ranks hit the barrier preceding the
/// plot dump (the paper's "bursty" pattern: CPU activity followed by
/// intense I/O activity). Returns the post-barrier time: the latest
/// rank's `t0 + share * jitter`.
///
/// The barrier is a closed form — a sequential max over the ranks'
/// jitter hashes, O(ranks) with no allocation — bit-identical to running
/// a clock per rank through [`SimComm::run`] and reducing with
/// `allreduce_max`, without building a context per rank or collecting
/// the finish times.
///
/// # Panics
/// Panics as [`SimClock`] does: if `t0` is negative or not finite, or if
/// the per-rank compute time is.
pub(crate) fn compute_phase(
    comm: &SimComm,
    step: u64,
    t0: f64,
    total_cells: i64,
    ns_per_cell: f64,
) -> f64 {
    let per_rank_seconds = total_cells as f64 * ns_per_cell / 1e9 / comm.nranks() as f64;
    let seed = comm.seed();
    let start = SimClock::at(t0);
    (0..comm.nranks() as u64)
        .map(|rank| {
            let mut clock = start;
            clock.advance(per_rank_seconds * rank_step_jitter(seed, rank, step));
            clock.now()
        })
        .fold(f64::NEG_INFINITY, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::RunSummary;
    use io_engine::Scenario;
    use iosim::IoKind;

    fn small(engine: Engine) -> CastroSedovConfig {
        CastroSedovConfig {
            engine,
            n_cell: 64,
            max_level: 2,
            max_step: 12,
            plot_int: 4,
            nprocs: 4,
            grid: amr_mesh::GridParams {
                ref_ratio: 2,
                blocking_factor: 8,
                max_grid_size: 32,
                n_error_buf: 2,
                grid_eff: 0.7,
            },
            ..Default::default()
        }
    }

    #[test]
    fn hydro_run_produces_expected_dump_count() {
        let r = run_simulation(&small(Engine::Hydro), None, None);
        // Step-0 dump + dumps at steps 4, 8, 12.
        assert_eq!(r.totals.outputs, 4);
        assert_eq!(r.tracker.steps(), vec![1, 2, 3, 4]);
        assert_eq!(r.steps.len(), 12);
        assert!(r.tracker.total_bytes() > 0);
        assert_eq!(RunSummary::from_result(&r).scenario, "write");
    }

    #[test]
    fn oracle_run_produces_expected_dump_count() {
        let r = run_simulation(&small(Engine::Oracle), None, None);
        assert_eq!(r.totals.outputs, 4);
        assert!(r.tracker.total_bytes() > 0);
        // Oracle refines (annulus grids exist).
        assert!(r.tracker.levels().len() >= 2);
    }

    #[test]
    fn account_only_matches_real_writes() {
        let mut cfg = small(Engine::Hydro);
        let real = run_simulation(&cfg, None, None);
        cfg.account_only = true;
        let accounted = run_simulation(&cfg, None, None);
        assert_eq!(
            real.tracker.total_bytes_of(IoKind::Data),
            accounted.tracker.total_bytes_of(IoKind::Data),
            "sizer and writer must agree on data bytes"
        );
    }

    #[test]
    fn per_level_output_is_recorded() {
        let r = run_simulation(&small(Engine::Hydro), None, None);
        let levels = r.tracker.levels();
        assert!(levels.contains(&0));
        assert!(levels.len() >= 2, "refined levels must write");
        // L0 per-step output is ~constant (paper Fig. 7 observation).
        let series = r.tracker.cumulative_per_level_step();
        let l0 = &series[&0];
        let incr: Vec<u64> = l0.windows(2).map(|w| w[1].1 - w[0].1).collect();
        let min = *incr.iter().min().unwrap() as f64;
        let max = *incr.iter().max().unwrap() as f64;
        assert!(max / min < 1.05, "L0 increments vary: {incr:?}");
    }

    #[test]
    fn storage_model_yields_burst_timeline() {
        let mut cfg = small(Engine::Hydro);
        cfg.compute_ns_per_cell = 10_000.0; // exaggerate compute phases
        let model = StorageModel::summit_alpine(0.05);
        let r = run_simulation(&cfg, None, Some(&model));
        assert_eq!(r.totals.timeline.len(), 4);
        assert!(r.totals.timeline.duty_cycle() < 0.9);
        assert!(r.totals.wall_time > 0.0);
        // Per-phase walls decompose the run: compute + plot bursts are
        // the whole story for a write-only synchronous run.
        assert!(r.totals.compute_wall > 0.0);
        assert!(r.totals.plot_wall > 0.0);
        assert!(
            (r.totals.compute_wall + r.totals.plot_wall + r.totals.drain_wall - r.totals.wall_time)
                .abs()
                < 1e-9 + r.totals.wall_time * 1e-12,
            "phase walls must sum to wall_time for a write-only sync run"
        );
    }

    #[test]
    fn xy_series_is_monotone() {
        let r = run_simulation(&small(Engine::Oracle), None, None);
        let s = r.xy_series();
        assert_eq!(s.points.len(), 4);
        assert!(s.points.windows(2).all(|w| w[1].y >= w[0].y));
        assert!(s.points.windows(2).all(|w| w[1].x > w[0].x));
    }

    #[test]
    fn stop_time_halts_early() {
        let mut cfg = small(Engine::Oracle);
        cfg.stop_time = 1e-12;
        let r = run_simulation(&cfg, None, None);
        assert_eq!(r.steps.len(), 1, "first step overshoots stop_time");
    }

    #[test]
    fn check_int_adds_checkpoint_dumps() {
        let mut cfg = small(Engine::Oracle);
        let plot_only = run_simulation(&cfg, None, None);
        cfg.check_int = 4;
        let with_chk = run_simulation(&cfg, None, None);
        // Checkpoints at steps 4, 8, 12 add 3 outputs.
        assert_eq!(with_chk.totals.outputs, plot_only.totals.outputs + 3);
        assert!(
            with_chk.tracker.total_bytes() > plot_only.tracker.total_bytes(),
            "checkpoints add bytes"
        );
        // Checkpoint state (4 comps) is much smaller than a plot dump
        // (22 vars), so total growth stays well below 2x.
        let ratio = with_chk.tracker.total_bytes() as f64 / plot_only.tracker.total_bytes() as f64;
        assert!((1.05..1.40).contains(&ratio), "ratio {ratio}");
        // The checkpoint plane is reported separately, not folded into
        // plot totals.
        assert!(with_chk.totals.check_bytes > 0);
        assert!(with_chk.totals.check_files > 0);
        assert_eq!(plot_only.totals.check_bytes, 0);
        assert_eq!(
            with_chk.totals.engine.bytes - with_chk.totals.check_bytes,
            plot_only.totals.engine.bytes,
            "plot volume is checkpoint-invariant"
        );
    }

    #[test]
    fn checkpoints_ride_the_backend_and_codec_stack() {
        // The satellite contract: checkpoint dumps go through the same
        // backend/codec stack as plot dumps — aggregation funnels their
        // files, compression shrinks their physical bytes.
        let mut cfg = small(Engine::Oracle);
        cfg.account_only = true;
        cfg.check_int = 4;
        let fpp = run_simulation(&cfg, None, None);
        cfg.backend = io_engine::BackendSpec::Aggregated(2);
        let agg = run_simulation(&cfg, None, None);
        assert!(
            agg.totals.check_files < fpp.totals.check_files,
            "aggregation must funnel checkpoint files: {} vs {}",
            agg.totals.check_files,
            fpp.totals.check_files
        );
        cfg.backend = io_engine::BackendSpec::FilePerProcess;
        cfg.codec = io_engine::CodecSpec::LossyQuant(8);
        let quant = run_simulation(&cfg, None, None);
        assert!(
            quant.totals.check_bytes < fpp.totals.check_bytes,
            "compression must shrink checkpoint state: {} vs {}",
            quant.totals.check_bytes,
            fpp.totals.check_bytes
        );
        // The logical tracker view stays invariant across the stack.
        assert_eq!(fpp.tracker.total_bytes(), agg.tracker.total_bytes());
        assert_eq!(fpp.tracker.total_bytes(), quant.tracker.total_bytes());
    }

    #[test]
    fn checkpoint_bursts_cost_wall_clock() {
        let mut cfg = small(Engine::Oracle);
        cfg.account_only = true;
        cfg.check_int = 4;
        let model = StorageModel::ideal(2, 1e6);
        let r = run_simulation(&cfg, None, Some(&model));
        assert!(r.totals.check_wall > 0.0);
        // 4 plot bursts + 3 checkpoint bursts in the timeline.
        assert_eq!(r.totals.timeline.len(), 7);
    }

    #[test]
    fn read_after_write_restart_reads_the_last_dump() {
        let mut cfg = small(Engine::Oracle);
        cfg.account_only = true;
        cfg.read_after_write = true;
        let r = run_simulation(&cfg, None, None);
        // The restart reads exactly the last output counter's logical
        // bytes (dumps at steps 0, 4, 8, 12 -> counter 4).
        let last = *r.tracker.steps().last().unwrap();
        assert_eq!(r.totals.restart.bytes, r.tracker.bytes_per_step()[&last]);
        assert_eq!(r.tracker.total_read_bytes(), r.totals.restart.bytes);
        assert!(r.totals.restart.files > 0);
        assert_eq!(r.totals.restarts, 1);
        assert_eq!(RunSummary::from_result(&r).scenario, "write;restart");
        // Without a storage model only decode CPU could cost time; the
        // identity codec costs none.
        assert_eq!(r.totals.restart.wall, 0.0);

        cfg.read_after_write = false;
        let w = run_simulation(&cfg, None, None);
        assert_eq!(w.totals.restart.bytes, 0);
        assert_eq!(w.tracker.total_read_bytes(), 0);
        assert_eq!(w.tracker.export(), r.tracker.export(), "writes invariant");
    }

    #[test]
    fn restart_read_costs_wall_clock_under_storage() {
        let mut cfg = small(Engine::Oracle);
        cfg.account_only = true;
        let model = StorageModel::ideal(2, 1e6);
        let write_only = run_simulation(&cfg, None, Some(&model));
        cfg.read_after_write = true;
        let with_read = run_simulation(&cfg, None, Some(&model));
        assert!(with_read.totals.restart.wall > 0.0);
        // The restart burst is recorded in the timeline like the writes.
        assert_eq!(
            with_read.totals.timeline.len(),
            write_only.totals.timeline.len() + 1
        );
        assert!(
            with_read.totals.wall_time > write_only.totals.wall_time,
            "restart {} must cost over write-only {}",
            with_read.totals.wall_time,
            write_only.totals.wall_time
        );
        assert!(
            (with_read.totals.wall_time
                - write_only.totals.wall_time
                - with_read.totals.restart.wall)
                .abs()
                < 1e-9 + with_read.totals.wall_time * 1e-12,
            "the gap is the read phase"
        );
    }

    #[test]
    fn restart_read_round_trips_materialized_hydro_dumps() {
        // Full hydro engine with materialized payloads: the read plane
        // returns exactly the bytes the writers produced.
        let mut cfg = small(Engine::Hydro);
        cfg.read_after_write = true;
        let r = run_simulation(&cfg, None, None);
        let last = *r.tracker.steps().last().unwrap();
        assert_eq!(r.totals.restart.bytes, r.tracker.bytes_per_step()[&last]);
        assert_eq!(
            r.totals.restart.physical_bytes, r.totals.restart.bytes,
            "identity codec"
        );
    }

    #[test]
    fn analysis_read_fetches_a_level_subset() {
        use io_engine::ReadSelection;
        let mut cfg = small(Engine::Oracle);
        cfg.account_only = true;
        cfg.analysis_read = Some(ReadSelection::Level(1));
        let r = run_simulation(&cfg, None, None);
        // The selection delivers exactly the last dump's level-1 logical
        // bytes — a strict subset of a full restart read.
        let last = *r.tracker.steps().last().unwrap();
        assert!(r.totals.analysis.bytes > 0);
        assert!(r.totals.analysis.bytes < r.tracker.bytes_per_step()[&last]);
        assert_eq!(
            r.tracker
                .read_bytes_per_level()
                .keys()
                .copied()
                .collect::<Vec<_>>(),
            vec![1],
            "only level 1 was read"
        );
        assert!(r.totals.analysis.files > 0);
        assert_eq!(r.totals.reorg_wall, 0.0, "raw layout: no rewrite");

        // Reorganized variant under a storage model: the rewrite costs
        // wall, the selective read itself fetches fewer physical bytes.
        // The byte win is an aggregated-layout story (fpp's in-memory
        // manifest already seeks exactly; the BP index blob does not).
        cfg.backend = io_engine::BackendSpec::Aggregated(2);
        let storage = StorageModel::ideal(1, 1e6);
        let raw = run_simulation(&cfg, None, Some(&storage));
        cfg.reorganize = true;
        let opt = run_simulation(&cfg, None, Some(&storage));
        assert!(opt.totals.reorg_wall > 0.0);
        assert!(opt.totals.reorg_bytes > 0);
        assert_eq!(opt.totals.analysis.bytes, raw.totals.analysis.bytes);
        assert!(opt.totals.analysis.physical_bytes < raw.totals.analysis.physical_bytes);
        assert!(opt.totals.analysis.wall < raw.totals.analysis.wall);
        // But the whole run pays for the rewrite.
        assert!(opt.totals.wall_time > raw.totals.wall_time);
    }

    #[test]
    fn compute_phases_are_deterministic_and_jittered() {
        let mut cfg = small(Engine::Oracle);
        cfg.compute_ns_per_cell = 10_000.0;
        let storage = StorageModel::summit_alpine(0.05);
        let a = run_simulation(&cfg, None, Some(&storage));
        let b = run_simulation(&cfg, None, Some(&storage));
        assert_eq!(
            a.totals.wall_time, b.totals.wall_time,
            "seeded jitter is reproducible"
        );
        // Jitter means the wall time differs from the exact noiseless sum.
        let exact: f64 = a
            .steps
            .iter()
            .map(|s| {
                s.cells.iter().sum::<i64>() as f64 * cfg.compute_ns_per_cell
                    / 1e9
                    / cfg.nprocs as f64
            })
            .sum();
        assert!(
            a.totals.wall_time > exact,
            "barrier waits on the slowest rank"
        );
    }

    proptest::proptest! {
        /// The closed-form barrier against the rank loop it replaced —
        /// one context per rank, each clock advanced, `allreduce_max`
        /// over the finish times — compared bit for bit.
        #[test]
        fn compute_phase_equals_the_rank_loop_reference(
            seed in 0..=u64::MAX,
            nranks in 1..4096usize,
            step in 0..=u64::MAX,
            t0 in 0.0..1e7f64,
            total_cells in 0..(1i64 << 40),
            ns_per_cell in 0.0..1e5f64,
        ) {
            let comm = SimComm::summit(nranks, seed);
            let per_rank_seconds = total_cells as f64 * ns_per_cell / 1e9 / nranks as f64;
            let finish_times = comm.run(t0, |ctx| {
                let jitter = rank_step_jitter(seed, ctx.rank as u64, step);
                ctx.clock.advance(per_rank_seconds * jitter);
                ctx.clock.now()
            });
            let reference = mpi_sim::collectives::allreduce_max(&finish_times);
            let got = compute_phase(&comm, step, t0, total_cells, ns_per_cell);
            proptest::prop_assert_eq!(got.to_bits(), reference.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "bad start time")]
    fn compute_phase_refuses_a_negative_start() {
        compute_phase(&SimComm::summit(4, 0), 0, -1.0, 100, 1.0);
    }

    #[test]
    #[should_panic(expected = "bad advance")]
    fn compute_phase_refuses_a_non_finite_compute_time() {
        compute_phase(&SimComm::summit(4, 0), 0, 0.0, 100, f64::NAN);
    }

    #[test]
    fn jitter_decorrelates_steps_eight_apart() {
        // Regression for the draw-burning bug: `step % 8` RNG burns made
        // steps 8 apart reuse identical jitter. The hash-seeded jitter
        // must draw independently for every (rank, step) pair.
        for rank in 0..4u64 {
            for step in 0..32u64 {
                let a = rank_step_jitter(0x5ED0, rank, step);
                let b = rank_step_jitter(0x5ED0, rank, step + 8);
                assert!(
                    (a - b).abs() > 1e-12,
                    "rank {rank}: steps {step} and {} share jitter {a}",
                    step + 8
                );
            }
        }
        // Range, determinism, and per-rank decorrelation.
        for rank in 0..8u64 {
            for step in 0..64u64 {
                let j = rank_step_jitter(0x5ED0, rank, step);
                assert!((0.97..1.03).contains(&j), "jitter {j} out of range");
                assert_eq!(j, rank_step_jitter(0x5ED0, rank, step));
            }
        }
        assert_ne!(
            rank_step_jitter(0x5ED0, 0, 3),
            rank_step_jitter(0x5ED0, 1, 3),
            "ranks draw independent streams"
        );
    }

    #[test]
    fn fail_restart_repays_compute_but_not_dumps() {
        // The scenario-plane acceptance invariant: a fail@k;restart run
        // re-pays compute for the steps lost since the restart point but
        // never re-writes the dumps it already flushed.
        let mut cfg = small(Engine::Oracle);
        cfg.account_only = true;
        cfg.compute_ns_per_cell = 40_000.0;
        let storage = StorageModel::ideal(2, 5e7);
        let clean = run_simulation(&cfg, None, Some(&storage));

        cfg.scenario = Some(Scenario::fail_restart(10));
        let failed = run_simulation(&cfg, None, Some(&storage));

        // Write plane identical: no dump is flushed twice.
        assert_eq!(failed.tracker.export(), clean.tracker.export());
        assert_eq!(failed.totals.outputs, clean.totals.outputs);
        assert_eq!(failed.totals.engine.bytes, clean.totals.engine.bytes);
        // Restart point is the plot dump at step 8 (no checkpoints):
        // steps 9 and 10 are computed twice.
        assert_eq!(failed.steps.len(), clean.steps.len() + 2);
        assert_eq!(failed.totals.restarts, 1);
        assert!(
            failed.totals.restart.bytes > 0,
            "the recovery read is priced"
        );
        assert!(
            failed.totals.compute_wall > clean.totals.compute_wall,
            "lost compute is re-paid"
        );
        assert!(failed.totals.wall_time > clean.totals.wall_time);
        // The replayed steps are byte-identical to the originals (the
        // deterministic engine reproduces the hierarchy).
        assert_eq!(failed.steps[8].cells, failed.steps[12].cells);
        assert_eq!(failed.steps[9].cells, failed.steps[13].cells);
    }

    #[test]
    fn checkpoint_cadence_shortens_the_replay() {
        // With checkpoints every 4 steps, a failure at step 10 restarts
        // from step 8's checkpoint (2 steps lost); without, from the
        // step-0 plot dump (all 10 steps lost). Both engines, timed, with
        // the checkpoint plane's totals pinned: `(check_bytes,
        // check_files, check_wall bits)`.
        let storage = StorageModel::ideal(2, 5e7);
        for (engine, pinned) in [
            (Engine::Oracle, (752_409, 45, 4_575_759_001_318_850_628)),
            (Engine::Hydro, (596_754, 30, 4_573_574_883_762_093_326)),
        ] {
            let mut cfg = small(engine);
            cfg.account_only = true;
            cfg.plot_int = 12; // sparse plots: dumps at 0 and 12 only
            let base_steps = run_simulation(&cfg, None, Some(&storage)).steps.len();

            cfg.scenario = Some(Scenario::parse("write;fail@10;restart").unwrap());
            let sparse = run_simulation(&cfg, None, Some(&storage));
            // Restart source is the step-0 plot dump: all 10 steps replayed.
            assert_eq!(sparse.steps.len(), base_steps + 10);

            cfg.scenario = Some(Scenario::parse("write;check@4;fail@10;restart").unwrap());
            let dense = run_simulation(&cfg, None, Some(&storage));
            // Restart source is the step-8 checkpoint: 2 steps replayed.
            assert_eq!(dense.steps.len(), base_steps + 2);
            assert_eq!(
                (
                    dense.totals.check_bytes,
                    dense.totals.check_files,
                    dense.totals.check_wall.to_bits()
                ),
                pinned,
                "{engine:?}"
            );
            // The checkpoint read is smaller than the full plot-dump read
            // (4 conserved components vs 22 plot variables).
            assert!(dense.totals.restart.bytes < sparse.totals.restart.bytes);
        }
    }

    #[test]
    fn in_run_analysis_interleaves_with_writes() {
        use io_engine::ReadSelection;
        let mut cfg = small(Engine::Oracle);
        cfg.account_only = true;
        cfg.compute_ns_per_cell = 40_000.0;
        cfg.scenario = Some(Scenario::in_run_analysis(2, ReadSelection::Level(1)));
        let storage = StorageModel::ideal(2, 5e7);
        let r = run_simulation(&cfg, None, Some(&storage));
        // Dumps 2 and 4 (steps 4 and 12) are analyzed in-run: the read
        // bursts sit *between* write bursts, not after them all.
        assert!(r.totals.analysis.bytes > 0);
        assert_eq!(r.totals.timeline.len(), 6, "4 write + 2 analysis bursts");
        let bursts = r.totals.timeline.bursts();
        // The first analysis burst (of output counter 2) ends before the
        // next write burst (counter 3) starts.
        assert!(bursts[2].t_end <= bursts[3].t_start + 1e-12);
        assert_eq!(
            bursts.iter().map(|b| b.step).collect::<Vec<_>>(),
            vec![1, 2, 2, 3, 4, 4],
            "write/read interleave by output counter"
        );
    }

    #[test]
    fn readall_scenario_reads_every_dump() {
        let mut cfg = small(Engine::Oracle);
        cfg.account_only = true;
        cfg.scenario = Some(Scenario::parse("write;readall").unwrap());
        let r = run_simulation(&cfg, None, None);
        assert_eq!(r.totals.restarts, 4, "all four dumps read back");
        assert_eq!(
            r.tracker.total_read_bytes(),
            r.tracker.total_bytes(),
            "full campaign read-back"
        );
    }

    #[test]
    fn streaming_backend_ships_over_the_link_not_storage() {
        let mut cfg = small(Engine::Oracle);
        cfg.account_only = true;
        let fpp = run_simulation(&cfg, None, None);
        cfg.backend = io_engine::BackendSpec::parse("streaming").unwrap();
        let model = StorageModel::ideal(2, 1e6);
        let streamed = run_simulation(&cfg, None, Some(&model));
        // Tracker-plane invariance: logical totals identical to storage.
        assert_eq!(streamed.tracker.export(), fpp.tracker.export());
        assert_eq!(
            streamed.totals.engine.logical_bytes,
            fpp.totals.engine.logical_bytes
        );
        // Nothing touches the storage plane.
        assert_eq!(streamed.totals.engine.bytes, 0);
        assert_eq!(streamed.totals.engine.files, 0);
        assert_eq!(streamed.totals.timeline.len(), 0, "no storage bursts");
        // The network plane is priced instead (identity codec: shipped
        // bytes equal the logical payload).
        assert_eq!(
            streamed.totals.net_bytes,
            streamed.totals.engine.logical_bytes
        );
        assert!(streamed.totals.net_wall > 0.0);
        assert_eq!(streamed.totals.window_stall, 0.0, "unbounded window");
        // The wall decomposition still closes: streamed ship time lives
        // inside plot_wall, where stored dumps' bursts live.
        assert!(
            (streamed.totals.compute_wall + streamed.totals.plot_wall + streamed.totals.drain_wall
                - streamed.totals.wall_time)
                .abs()
                < 1e-9 + streamed.totals.wall_time * 1e-12
        );
        assert!(streamed.totals.plot_wall >= streamed.totals.net_wall);
    }

    #[test]
    fn streamed_analysis_reads_cost_zero_physical_bytes() {
        use io_engine::ReadSelection;
        let mut cfg = small(Engine::Oracle);
        cfg.account_only = true;
        cfg.scenario = Some(Scenario::in_run_analysis(2, ReadSelection::Level(1)));
        let stored = run_simulation(&cfg, None, None);
        cfg.backend = io_engine::BackendSpec::parse("streaming").unwrap();
        let streamed = run_simulation(&cfg, None, None);
        // Logical selection volume is backend-invariant...
        assert!(streamed.totals.analysis.bytes > 0);
        assert_eq!(streamed.totals.analysis.bytes, stored.totals.analysis.bytes);
        assert_eq!(
            streamed.tracker.total_read_bytes(),
            stored.tracker.total_read_bytes()
        );
        // ...but the streamed reads come from the consumer window, not
        // storage: zero physical read bytes, zero files opened.
        assert_eq!(streamed.totals.analysis.physical_bytes, 0);
        assert_eq!(streamed.totals.analysis.files, 0);
        assert!(stored.totals.analysis.physical_bytes > 0);
    }

    #[test]
    fn checkpoints_stream_like_plot_dumps() {
        let mut cfg = small(Engine::Oracle);
        cfg.account_only = true;
        cfg.check_int = 4;
        cfg.backend = io_engine::BackendSpec::parse("streaming").unwrap();
        let r = run_simulation(&cfg, None, None);
        // Checkpoint state ships over the link too: no physical bytes,
        // but the checkpoint plane's wall is still charged.
        assert_eq!(r.totals.check_bytes, 0);
        assert_eq!(r.totals.check_files, 0);
        assert!(r.totals.check_wall > 0.0);
        assert!(r.totals.net_bytes > 0);
    }

    #[test]
    fn slow_consumer_back_pressure_stalls_the_producer() {
        // Satellite regression: a deliberately slow consumer (10 MB/s
        // behind a 100 MB/s link) must fill the bounded 1 MiB window and
        // stall the producer on the simulated clock — strictly slower
        // than the same run with an unbounded window, with the whole gap
        // attributed to `window_stall`.
        let mut cfg = small(Engine::Oracle);
        cfg.account_only = true;
        cfg.backend = io_engine::BackendSpec::parse("streaming:100:1:10").unwrap();
        let bounded = run_simulation(&cfg, None, None);
        cfg.backend = io_engine::BackendSpec::parse("streaming:100:0:10").unwrap();
        let unbounded = run_simulation(&cfg, None, None);
        assert!(
            bounded.totals.window_stall > 0.0,
            "the window must back-pressure"
        );
        assert_eq!(unbounded.totals.window_stall, 0.0, "unbounded: no stall");
        assert_eq!(bounded.totals.net_bytes, unbounded.totals.net_bytes);
        assert!(
            bounded.totals.wall_time > unbounded.totals.wall_time,
            "bounded {} must be strictly slower than unbounded {}",
            bounded.totals.wall_time,
            unbounded.totals.wall_time
        );
        // The entire gap is the stall (transfers and compute match).
        assert!(
            (bounded.totals.wall_time - unbounded.totals.wall_time - bounded.totals.window_stall)
                .abs()
                < 1e-9 + bounded.totals.wall_time * 1e-12,
            "the wall gap is exactly the window stall"
        );
    }

    #[test]
    fn stop_time_halt_skips_the_failure_but_keeps_trailing_reads() {
        let mut cfg = small(Engine::Oracle);
        cfg.account_only = true;
        cfg.stop_time = 1e-12; // halts after step 1
        cfg.scenario = Some(Scenario::parse("write;fail@10;restart;restart").unwrap());
        let r = run_simulation(&cfg, None, None);
        assert_eq!(r.steps.len(), 1);
        // The failure at step 10 never happened; the trailing restart
        // still reads the newest dump actually written (step 0's).
        assert_eq!(r.totals.restarts, 1);
        assert_eq!(r.totals.restart.bytes, r.tracker.bytes_per_step()[&1]);
    }
}
