//! The scenario plane's one interpreter: phase vocabulary, compiler, and
//! the phase loop every workload generator runs on.
//!
//! The paper's claim is that a proxy is a *kernel* approximation of the
//! application's I/O: the two differ in how each step's bytes are
//! produced, never in how a dump burst, a restart read or a drain is
//! sequenced and priced. This module is that shared half, in three parts:
//!
//! 1. a compiler ([`compile`]) from a [`Scenario`] program
//!    (`write;fail@17;restart;analyze:level:2,reorg`) to a flat list of
//!    [`Phase`]s against the workload's [`Cadence`] (step count, plot
//!    and checkpoint intervals, whether a step-0 dump exists);
//! 2. a [`Producer`] trait naming only what differs between workloads:
//!    advance-and-charge one compute step, emit one plot dump or
//!    checkpoint through the backend, restore to a step after a restart
//!    read (`amrproxy`'s hierarchy engines, `macsio`'s part marshaller);
//! 3. the phase loop ([`run_program`]) that executes a compiled program
//!    over a producer against the backend/scheduler stack exactly once —
//!    there is no second copy of the dump/restart/analysis sequencing.
//!
//! Mid-run restart semantics: a `RestartRead` phase reads the newest
//! restart dump at or before `from_step` back through the backend (a
//! priced read burst), then the *next* `Compute` phase first restores
//! the producer to that dump's step — the restore itself is free (the
//! state came off storage), but the compiled program re-emits `Compute`
//! phases for every step lost between the restart point and the failure,
//! so the lost compute is re-paid on the simulated clock while the dumps
//! already flushed are *not* re-written. In-run `AnalysisRead` phases
//! interleave with subsequent write bursts (they read the newest plot
//! dump mid-stream) rather than running after the campaign.

use crate::backend::{EngineReport, IoBackend, StepStats};
use crate::codec::CodecSpec;
use crate::reorg::Reorganizer;
use crate::scenario::{Scenario, ScenarioOp};
use crate::selection::ReadSelection;
use iosim::{BurstScheduler, BurstTimeline, IoTracker, ReadRequest, StorageAttach, Vfs};
use std::io;

/// Which dump registry a [`Phase::RestartRead`] recovers from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DumpSource {
    /// A plot dump (the legacy read-after-write restart source, and the
    /// fallback when the run writes no checkpoints).
    Plot,
    /// A checkpoint dump (the proper restart state).
    Checkpoint,
}

/// One executable phase of a compiled scenario program.
#[derive(Clone, Debug, PartialEq)]
pub enum Phase {
    /// Advance the producer one step and charge the compute time (all
    /// ranks work, then barrier — the paper's pre-burst pattern).
    Compute,
    /// Write a plot dump of the current state through the backend.
    PlotDump,
    /// Write a checkpoint (restart state) through the backend.
    Checkpoint,
    /// Read the newest `source` dump at or before `from_step` back (a
    /// restart): barriers in-flight drains, prices the read burst, and
    /// arms the restore the next [`Phase::Compute`] performs.
    RestartRead {
        /// Upper bound on the restored step.
        from_step: u64,
        /// Which dump kind restores the state.
        source: DumpSource,
        /// What the read fetches ([`ReadSelection::Full`] for a mid-run
        /// recovery; the workload's read-back pattern for trailing
        /// `restart`/`readall` ops).
        sel: ReadSelection,
    },
    /// Selective analysis read of the newest plot dump (optionally
    /// served from the reorganized layout, rewrite priced).
    AnalysisRead {
        /// What the read fetches.
        sel: ReadSelection,
        /// Rewrite the dump into the read-optimized layout first.
        reorganize: bool,
    },
    /// Barrier any in-flight drain (the run's closing flush).
    Drain,
}

/// A [`Phase`] plus its gate: the step the phase belongs to. Gated
/// phases are skipped when the producer halts before their step; ungated
/// phases (the step-0 dump, trailing reads, the final drain) always
/// execute.
#[derive(Clone, Debug, PartialEq)]
pub struct ScheduledPhase {
    /// Minimum executed step this phase requires (`None` = always runs).
    pub gate: Option<u64>,
    /// The phase.
    pub phase: Phase,
}

impl ScheduledPhase {
    fn at(gate: u64, phase: Phase) -> Self {
        Self {
            gate: Some(gate),
            phase,
        }
    }

    fn always(phase: Phase) -> Self {
        Self { gate: None, phase }
    }
}

/// The write campaign a scenario compiles against: how many steps the
/// workload takes and where its dumps fall.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cadence {
    /// Steps in the campaign (`max_step`; MACSio's `num_dumps`).
    pub steps: u64,
    /// A plot dump every this many steps (0 = none after step 0).
    pub plot_int: u64,
    /// A checkpoint every this many steps (0 = none), unless the
    /// scenario carries a `check@K` override.
    pub check_int: u64,
    /// Whether a plot dump precedes the first step (AMReX's `plt00000`).
    pub step0_dump: bool,
}

impl Cadence {
    /// The O(ops) admission check [`compile`] starts with: the program is
    /// well-formed and its `fail@K` lands inside the campaign.
    pub fn admits(&self, sc: &Scenario) -> Result<(), String> {
        sc.validate()?;
        match sc.fail_step() {
            Some(k) if k > self.steps => Err(format!(
                "fail@{k} is beyond the run's last step {} (the failure would never happen)",
                self.steps
            )),
            _ => Ok(()),
        }
    }
}

/// Compiles `sc` against `cadence` into its phase program; trailing
/// `restart`/`readall` ops fetch `read_back`.
///
/// The program mirrors the legacy loops exactly for `write[;restart]
/// [;analyze:..]` scenarios: the step-0 plot dump when the cadence has
/// one, then per step a `Compute` followed by its cadenced
/// `PlotDump`/`Checkpoint`, then the trailing reads, then `Drain`.
/// `fail@K;restart` injects a mid-run `RestartRead` right after step
/// `K`'s phases plus one replay `Compute` per lost step;
/// `analyze_every:M:SEL` follows every `M`-th plot dump with an in-run
/// `AnalysisRead`.
pub fn compile(
    sc: &Scenario,
    cadence: &Cadence,
    read_back: &ReadSelection,
) -> Result<Vec<ScheduledPhase>, String> {
    cadence.admits(sc)?;
    let plot_int = cadence.plot_int;
    let check_int = sc.check_every().unwrap_or(cadence.check_int);
    let analyze_every = sc.analyze_every_ops();
    let fail = sc.fail_step();

    let mut out = Vec::new();
    let mut plot_count = 0u64;
    let mut plot_steps = Vec::new();
    let mut emit_plot = |out: &mut Vec<ScheduledPhase>, gate: Option<u64>, step: u64| {
        out.push(ScheduledPhase {
            gate,
            phase: Phase::PlotDump,
        });
        plot_steps.push((gate, step));
        plot_count += 1;
        for (every, sel, reorganize) in &analyze_every {
            if plot_count.is_multiple_of(*every) {
                out.push(ScheduledPhase {
                    gate,
                    phase: Phase::AnalysisRead {
                        sel: sel.clone(),
                        reorganize: *reorganize,
                    },
                });
            }
        }
    };

    if cadence.step0_dump {
        emit_plot(&mut out, None, 0);
    }
    for step in 1..=cadence.steps {
        out.push(ScheduledPhase::at(step, Phase::Compute));
        if step.is_multiple_of(plot_int) {
            emit_plot(&mut out, Some(step), step);
        }
        if check_int > 0 && step.is_multiple_of(check_int) {
            out.push(ScheduledPhase::at(step, Phase::Checkpoint));
        }
        if fail == Some(step) {
            // The crash loses in-memory state; recovery restores the
            // newest persisted restart dump (checkpoint if the run
            // writes any, else the newest plot dump) and re-computes
            // every step after it.
            let (restore, source) = if check_int > 0 && step >= check_int {
                ((step / check_int) * check_int, DumpSource::Checkpoint)
            } else {
                // With plot_int 0 only the step-0 dump exists: recovery
                // recomputes the whole run.
                let last_plot = step.checked_div(plot_int).unwrap_or(0) * plot_int;
                (last_plot, DumpSource::Plot)
            };
            out.push(ScheduledPhase::at(
                step,
                Phase::RestartRead {
                    from_step: restore,
                    source,
                    sel: ReadSelection::Full,
                },
            ));
            for _lost in restore + 1..=step {
                out.push(ScheduledPhase::at(step, Phase::Compute));
            }
        }
    }

    for op in sc.trailing_ops() {
        match op {
            ScenarioOp::Restart => out.push(ScheduledPhase::always(Phase::RestartRead {
                from_step: cadence.steps,
                source: DumpSource::Plot,
                sel: read_back.clone(),
            })),
            ScenarioOp::ReadAll => {
                for &(gate, step) in &plot_steps {
                    out.push(ScheduledPhase {
                        gate,
                        phase: Phase::RestartRead {
                            from_step: step,
                            source: DumpSource::Plot,
                            sel: read_back.clone(),
                        },
                    });
                }
            }
            ScenarioOp::Analyze { sel, reorganize } => {
                out.push(ScheduledPhase::always(Phase::AnalysisRead {
                    sel,
                    reorganize,
                }))
            }
            _ => unreachable!("trailing_ops yields only read ops"),
        }
    }
    out.push(ScheduledPhase::always(Phase::Drain));
    Ok(out)
}

/// One dump a [`Producer`] emitted through the backend.
#[derive(Clone, Debug)]
pub struct Dump {
    /// The container reads of this dump address.
    pub dir: String,
    /// What the backend reported for the step.
    pub stats: StepStats,
}

/// The workload-specific half of a run: how each step's compute is
/// charged and how its bytes are produced. Everything else — sequencing,
/// pricing, accounting — is [`run_program`]'s.
pub trait Producer {
    /// Advances one step and charges its compute to `clock`, returning
    /// the clock after the step's barrier — or `None` when the workload
    /// has halted (its stop condition was met) and takes no more steps.
    fn compute(&mut self, clock: f64) -> Option<f64>;

    /// Emits one plot dump of the current state as output
    /// `output_counter` (1-based, shared by plot dumps and checkpoints).
    fn plot_dump(&mut self, backend: &mut dyn IoBackend, output_counter: u32) -> io::Result<Dump>;

    /// Emits one checkpoint of the current state as output
    /// `output_counter`. Producers without a checkpoint plane keep the
    /// default, which refuses.
    fn checkpoint(&mut self, backend: &mut dyn IoBackend, output_counter: u32) -> io::Result<Dump> {
        let _ = (backend, output_counter);
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "this producer has no checkpoint plane",
        ))
    }

    /// Puts the producer back at `step` after a restart read recovered
    /// that step's dump; the next [`Producer::compute`] continues from
    /// there.
    fn restore(&mut self, step: u64);
}

/// Totals of one class of read phases (restart reads, or selective
/// analysis reads).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ReadPlane {
    /// Logical bytes delivered.
    pub bytes: u64,
    /// Physical bytes fetched from storage.
    pub physical_bytes: u64,
    /// Physical files opened.
    pub files: u64,
    /// Simulated seconds of the reads (barrier to decoded), excluding
    /// any reorganization pass.
    pub wall: f64,
    /// Modeled codec CPU seconds (decode, plus a reorganization's
    /// re-encode on the analysis plane).
    pub codec_seconds: f64,
}

impl ReadPlane {
    fn add(&mut self, phase: ReadPlane) {
        self.bytes += phase.bytes;
        self.physical_bytes += phase.physical_bytes;
        self.files += phase.files;
        self.wall += phase.wall;
        self.codec_seconds += phase.codec_seconds;
    }
}

/// Everything [`run_program`] measured. Every wall below is inside
/// `wall_time`.
#[derive(Clone, Debug, Default)]
pub struct RunTotals {
    /// Dumps performed (plot + checkpoint output counters).
    pub outputs: u32,
    /// Restart reads performed (mid-run recoveries plus trailing
    /// `restart`/`readall` reads; analysis reads are not restarts).
    pub restarts: u32,
    /// The backend's whole-run report, plot dumps and checkpoints
    /// together: physical files (more or fewer than the tracker's logical
    /// records under aggregation), physical bytes (payloads after any
    /// compression, plus overhead), logical (pre-compression) bytes, and
    /// the bookkeeping overhead inside `bytes` (aggregation index tables,
    /// compression sidecars).
    pub engine: EngineReport,
    /// Physical bytes of each plot dump, in write order.
    pub bytes_per_dump: Vec<u64>,
    /// Codec CPU seconds of the write plane (plot dumps + checkpoints);
    /// [`RunTotals::all_codec_seconds`] adds the read planes'.
    pub codec_seconds: f64,
    /// Physical bytes of checkpoint dumps, inside `engine.bytes` (0
    /// without a checkpoint cadence). Checkpoints ride the same
    /// backend/codec stack as plot dumps but are reported here, not
    /// folded into the plot totals.
    pub check_bytes: u64,
    /// Physical files of checkpoint dumps, inside `engine.files`.
    pub check_files: u64,
    /// Simulated seconds of checkpoint bursts.
    pub check_wall: f64,
    /// The restart-read plane (zero without a restart phase).
    pub restart: ReadPlane,
    /// The selective analysis-read plane (zero without an analysis
    /// phase). Its logical `bytes` are exactly the matched chunks', so
    /// layout- and codec-invariant; its `physical_bytes` are what the
    /// layout (raw vs reorganized) changes.
    pub analysis: ReadPlane,
    /// Simulated seconds spent reorganizing dumps for analysis reads (0
    /// unless analysis phases reorganize): the price a campaign weighs
    /// against the per-read savings.
    pub reorg_wall: f64,
    /// Physical bytes the reorganizations moved (source fetch + rewrite).
    pub reorg_bytes: u64,
    /// Simulated seconds of compute phases (including re-paid compute).
    pub compute_wall: f64,
    /// Simulated seconds of plot-dump bursts on the application clock
    /// (near zero for overlapped backends).
    pub plot_wall: f64,
    /// Simulated seconds the closing flush waited on in-flight drains.
    pub drain_wall: f64,
    /// Bytes in-transit dumps shipped over the modeled link instead of
    /// storage (0 for every storage backend).
    pub net_bytes: u64,
    /// Link-transfer seconds for `net_bytes` (inside `plot_wall` /
    /// `check_wall`: streamed dumps ship where stored dumps burst).
    pub net_wall: f64,
    /// Producer stall on consumer-window back-pressure (inside
    /// `plot_wall`/`check_wall`, disjoint from `net_wall`).
    pub window_stall: f64,
    /// Burst timeline (empty without a storage attachment).
    pub timeline: BurstTimeline,
    /// Final simulated wall-clock seconds (compute + I/O).
    pub wall_time: f64,
}

impl RunTotals {
    /// Modeled codec CPU seconds across the run: the write plane, then
    /// the restart plane, then the analysis plane (0 without
    /// compression).
    pub fn all_codec_seconds(&self) -> f64 {
        self.codec_seconds + self.restart.codec_seconds + self.analysis.codec_seconds
    }
}

/// The clock-side state of one run: every pricing rule lives on it.
struct Run<'a, 's> {
    backend: &'a mut dyn IoBackend,
    /// What a reorganized analysis read rewrites through and with.
    fs: &'a dyn Vfs,
    tracker: &'a IoTracker,
    codec: CodecSpec,
    scheduler: Option<BurstScheduler<'s>>,
    in_transit: bool,
    clock: f64,
    totals: RunTotals,
}

impl Run<'_, '_> {
    /// Waits out any in-flight drain; returns the clock after it.
    fn barrier(&mut self) -> f64 {
        if let Some(sched) = &self.scheduler {
            self.clock = sched.finish(self.clock);
        }
        self.clock
    }

    /// Prices one dump on the application clock and returns the seconds
    /// it took there. The codec's CPU cost always lands on the clock (it
    /// is compute, not I/O); then an in-transit dump ships — link
    /// transfer plus any back-pressure stall, no storage burst, no
    /// timeline entry — and a stored dump bursts against the storage
    /// attachment, when there is one (the codec charge first, as
    /// [`BurstScheduler::submit_with_compute`] does).
    async fn price_dump(&mut self, output_counter: u32, stats: &mut StepStats) -> f64 {
        self.totals.codec_seconds += stats.codec_seconds;
        let before = self.clock;
        if self.in_transit {
            self.clock += stats.codec_seconds + stats.net_seconds + stats.window_stall;
            self.totals.net_bytes += stats.net_bytes;
            self.totals.net_wall += stats.net_seconds;
            self.totals.window_stall += stats.window_stall;
        } else if let Some(sched) = self.scheduler.as_mut() {
            let (burst, next) = sched
                .write_burst(
                    output_counter,
                    self.clock + stats.codec_seconds,
                    &mut stats.requests,
                    stats.bytes,
                )
                .await;
            self.totals.timeline.push(burst);
            self.clock = next;
        } else {
            self.clock += stats.codec_seconds;
        }
        self.clock - before
    }

    /// Prices one read burst at the storage model's read bandwidth,
    /// recorded in the timeline like every write burst.
    async fn read_burst(&mut self, output_counter: u32, requests: &mut [ReadRequest], bytes: u64) {
        if let Some(sched) = self.scheduler.as_mut() {
            let (burst, next) = sched
                .read_burst(output_counter, self.clock, requests, bytes)
                .await;
            self.totals.timeline.push(burst);
            self.clock = next;
        }
    }

    /// One read phase of dump `output_counter`: barriers the in-flight
    /// drain, fetches `sel` through the backend, prices the read burst,
    /// and charges decode CPU after the bytes arrive. With `reorganize`
    /// the dump is first rewritten into the read-optimized layout — the
    /// source fetch as a read burst, its decode CPU, then the clustered
    /// rewrite as a write burst with the re-encode CPU charged up front —
    /// and the selection is served from that layout; the rewrite lands in
    /// `reorg_wall`/`reorg_bytes` and its CPU in the returned
    /// `codec_seconds`, never in the returned `wall`.
    async fn read_phase(
        &mut self,
        output_counter: u32,
        dir: &str,
        sel: &ReadSelection,
        reorganize: bool,
    ) -> io::Result<ReadPlane> {
        let start = self.barrier();
        let mut reorg_codec_seconds = 0.0;
        let read = if reorganize {
            let mut reorg = Reorganizer::new(self.fs, self.tracker, self.codec);
            let mut stats = reorg.reorganize(self.backend, output_counter, dir)?;
            self.read_burst(output_counter, &mut stats.read.requests, stats.read.bytes)
                .await;
            if let Some(sched) = self.scheduler.as_mut() {
                self.clock += stats.read.codec_seconds;
                let (burst, next) = sched
                    .write_burst(
                        output_counter,
                        self.clock + stats.codec_seconds,
                        &mut stats.requests,
                        stats.bytes,
                    )
                    .await;
                self.totals.timeline.push(burst);
                self.clock = sched.finish(next);
            } else {
                self.clock += stats.read.codec_seconds + stats.codec_seconds;
            }
            self.totals.reorg_wall += self.clock - start;
            self.totals.reorg_bytes += stats.read.bytes + stats.bytes;
            reorg_codec_seconds = stats.read.codec_seconds + stats.codec_seconds;
            reorg.read_selection(output_counter, sel)?
        } else {
            self.backend.read_selection(output_counter, dir, sel)?
        };
        let sel_start = self.clock;
        let mut requests = read.stats.requests;
        self.read_burst(output_counter, &mut requests, read.stats.bytes)
            .await;
        self.clock += read.stats.codec_seconds;
        Ok(ReadPlane {
            bytes: read.stats.logical_bytes,
            physical_bytes: read.stats.bytes,
            files: read.stats.files,
            wall: self.clock - sel_start,
            codec_seconds: reorg_codec_seconds + read.stats.codec_seconds,
        })
    }
}

/// Executes a compiled program over `producer` — the single run loop
/// behind `amrproxy::run_simulation` and `macsio::run` — dumping and
/// reading through `backend` (built over `fs`, `tracker` and `codec`,
/// which a reorganized analysis read rewrites through and with).
///
/// `storage` is the attachment: none, a private [`iosim::StorageModel`],
/// or one tenant's [`iosim::FabricHandle`] on a shared [`iosim::Fabric`]
/// — the machine-room path, where this run's bursts contend with every
/// other tenant's and the scheduler reports shared vs solo-equivalent
/// walls into the fabric's [`iosim::TenantStats`] when the run seals.
/// Only a fabric of several tenants makes the run wait: drive it with
/// [`iosim::block_on`], or as one tenant of [`iosim::Fabric::run`].
///
/// Phase I/O errors propagate instead of panicking: a scenario that asks
/// a backend for a read it cannot serve (the typed
/// [`io::ErrorKind::Unsupported`] error from `crate::unsupported_read`,
/// naming the backend and selection) surfaces as an `Err`.
pub async fn run_program<P: Producer>(
    program: &[ScheduledPhase],
    producer: &mut P,
    backend: &mut dyn IoBackend,
    fs: &dyn Vfs,
    tracker: &IoTracker,
    codec: CodecSpec,
    storage: StorageAttach<'_>,
) -> io::Result<RunTotals> {
    let mut run = Run {
        scheduler: storage.scheduler(backend.overlapped()),
        in_transit: backend.in_transit(),
        backend,
        fs,
        tracker,
        codec,
        clock: 0.0,
        totals: RunTotals::default(),
    };
    // Steps the producer has taken (rewound by a restore).
    let mut step = 0u64;
    // Dump registries: (step, output counter, container).
    let mut plot_dumps: Vec<(u64, u32, String)> = Vec::new();
    let mut check_dumps: Vec<(u64, u32, String)> = Vec::new();
    // Set when the producer halts: phases gated at or after this step
    // are skipped (their steps never executed).
    let mut halted_at: Option<u64> = None;
    // Set by a restart read: the next Compute restores the producer to
    // this step first. Lazy, so a trailing read-back never pays for a
    // restore nothing computes from.
    let mut pending_restore: Option<u64> = None;

    for sp in program {
        if let (Some(h), Some(g)) = (halted_at, sp.gate) {
            if g >= h {
                continue;
            }
        }
        match &sp.phase {
            Phase::Compute => {
                if let Some(restored) = pending_restore.take() {
                    producer.restore(restored);
                    step = restored;
                }
                let Some(next) = producer.compute(run.clock) else {
                    halted_at = Some(sp.gate.unwrap_or(u64::MAX));
                    continue;
                };
                run.totals.compute_wall += next - run.clock;
                run.clock = next;
                step += 1;
            }
            Phase::PlotDump => {
                run.totals.outputs += 1;
                let counter = run.totals.outputs;
                let mut dump = producer.plot_dump(&mut *run.backend, counter)?;
                run.totals.bytes_per_dump.push(dump.stats.bytes);
                run.totals.plot_wall += run.price_dump(counter, &mut dump.stats).await;
                plot_dumps.push((step, counter, dump.dir));
            }
            Phase::Checkpoint => {
                run.totals.outputs += 1;
                let counter = run.totals.outputs;
                let mut dump = producer.checkpoint(&mut *run.backend, counter)?;
                run.totals.check_bytes += dump.stats.bytes;
                run.totals.check_files += dump.stats.files;
                run.totals.check_wall += run.price_dump(counter, &mut dump.stats).await;
                check_dumps.push((step, counter, dump.dir));
            }
            Phase::RestartRead {
                from_step,
                source,
                sel,
            } => {
                let registry = match source {
                    DumpSource::Plot => &plot_dumps,
                    DumpSource::Checkpoint => &check_dumps,
                };
                // Newest dump at or before the requested step; nothing
                // to recover means the phase is a no-op (e.g. the run
                // halted before any dump in range).
                let Some((at, counter, dir)) =
                    registry.iter().rev().find(|(s, _, _)| s <= from_step)
                else {
                    continue;
                };
                let phase = run.read_phase(*counter, dir, sel, false).await?;
                run.totals.restart.add(phase);
                run.totals.restarts += 1;
                pending_restore = Some(*at);
            }
            Phase::AnalysisRead { sel, reorganize } => {
                let Some((_, counter, dir)) = plot_dumps.last() else {
                    continue;
                };
                let phase = run.read_phase(*counter, dir, sel, *reorganize).await?;
                run.totals.analysis.add(phase);
            }
            Phase::Drain => {
                let before = run.clock;
                run.totals.drain_wall += run.barrier() - before;
            }
        }
    }

    run.totals.engine = run.backend.close()?;
    // Seal rather than just barrier: on the fabric path this reports the
    // run's shared and solo-equivalent walls to its tenant stats.
    run.totals.wall_time = match &mut run.scheduler {
        Some(sched) => sched.seal(run.clock),
        None => run.clock,
    };
    Ok(run.totals)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// MACSio's cadence: a dump after every step, none before the first.
    const DUMP_STREAM: Cadence = Cadence {
        steps: 3,
        plot_int: 1,
        check_int: 0,
        step0_dump: false,
    };

    fn read_of(gate: u64, sel: &ReadSelection) -> ScheduledPhase {
        ScheduledPhase::at(
            gate,
            Phase::RestartRead {
                from_step: gate,
                source: DumpSource::Plot,
                sel: sel.clone(),
            },
        )
    }

    #[test]
    fn no_step0_cadence_compiles_to_the_dump_stream() {
        let root = ReadSelection::Field("root".into());
        // Every program ends in the drain; `body` is what precedes it.
        let body = |s: &str| {
            let mut program = compile(&Scenario::parse(s).unwrap(), &DUMP_STREAM, &root).unwrap();
            assert_eq!(program.pop(), Some(ScheduledPhase::always(Phase::Drain)));
            program
        };
        let mut stream = Vec::new();
        for step in 1..=3 {
            stream.push(ScheduledPhase::at(step, Phase::Compute));
            stream.push(ScheduledPhase::at(step, Phase::PlotDump));
        }
        assert_eq!(body("write"), stream);

        // A failure after dump K restores from dump K itself: one full
        // recovery read, zero replay computes.
        let mut failed = stream.clone();
        failed.insert(4, read_of(2, &ReadSelection::Full));
        assert_eq!(body("write;fail@2;restart"), failed);

        // `readall` reads every dump back, gated with its dump, fetching
        // the configured selection.
        let reads = (1..=3).map(|step| read_of(step, &root));
        assert_eq!(
            body("write;readall"),
            stream.into_iter().chain(reads).collect::<Vec<_>>()
        );
    }

    #[test]
    fn admission_rejects_what_compile_rejects() {
        assert!(DUMP_STREAM.admits(&Scenario::fail_restart(3)).is_ok());
        for bad in [Scenario::fail_restart(4), Scenario { ops: Vec::new() }] {
            assert!(DUMP_STREAM.admits(&bad).is_err(), "{bad:?}");
            assert!(compile(&bad, &DUMP_STREAM, &ReadSelection::Full).is_err());
        }
    }
}
