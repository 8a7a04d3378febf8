//! The spec executors: [`run_spec`] (parallel) and [`run_spec_serial`]
//! (the sequential reference) run a compiled [`ExperimentSpec`] against
//! a [`ResultsStore`], resuming persisted cells.
//!
//! Both executors share the resume partition, the cell runner and the
//! report assembly below; they differ only in *how* the pending cells
//! are scheduled and how a throughput cell's tenants are priced (a fleet
//! of N runs in the reference, a mirrored clone group in the parallel
//! executor).
//!
//! The parallel executor schedules on a `Queue`: one worker per core
//! takes the costliest ready cell (`cell_cost`, a closed form over the
//! config), and a tenancy cell waits for the head of its solo profile.
//!
//! ```no_run
//! use amrproxy::{run_spec, ExperimentSpec, ResultsStore};
//!
//! // What `figures specs/smoke.toml` does; the spec's `storage` axis
//! // names the machine, so no default storage model is passed.
//! let spec = ExperimentSpec::load("specs/smoke.toml").unwrap();
//! let mut store = ResultsStore::open("results/store/smoke").unwrap();
//! let first = run_spec(&spec, &mut store, None).unwrap();
//! let again = run_spec(&spec, &mut store, None).unwrap();
//! assert_eq!(again.executed, 0, "second run is resume-only");
//! let walls = store.query().filter("backend", "fpp").numbers("wall_time");
//! assert_eq!(walls.len(), first.summaries.len() / 2);
//! ```

use crate::campaign::{run_campaign_fabric, run_campaign_fabric_cloned, RunSummary};
use crate::config::{CastroSedovConfig, Engine};
use crate::run::run_simulation;
use crate::spec::{ExperimentSpec, SpecCell, SpecError};
use crate::store::ResultsStore;
use std::cmp::Reverse;
use std::collections::hash_map::{Entry, HashMap};
use std::collections::BinaryHeap;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Outcome of [`run_spec`]: the cells' summaries (spec order, resumed
/// cells served from the store) and the execute/resume split.
#[derive(Clone, Debug)]
pub struct SpecReport {
    /// One summary per run, in spec cell order (throughput cells
    /// contribute one summary per tenant).
    pub summaries: Vec<RunSummary>,
    /// Cells actually executed this invocation.
    pub executed: usize,
    /// Cells served from the store without executing.
    pub resumed: usize,
}

/// One slot per compiled cell, in spec order: `Some` once the cell's
/// summaries are known (resumed from the store or committed).
type Slots = Vec<Option<Vec<RunSummary>>>;

/// The resume partition: cells already persisted under their content
/// key are read back into their slot; the rest come back as pending
/// slot indices, in spec order.
fn resume_partition(cells: &[SpecCell], store: &ResultsStore) -> (Slots, Vec<usize>) {
    let mut slots: Slots = vec![None; cells.len()];
    let mut pending = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        if store.contains(&cell.key) {
            slots[i] = Some(store.get(&cell.key));
        } else {
            pending.push(i);
        }
    }
    (slots, pending)
}

/// Flattens fully-populated slots into the report.
fn assemble(slots: Slots, executed: usize) -> SpecReport {
    SpecReport {
        resumed: slots.len() - executed,
        executed,
        summaries: slots
            .into_iter()
            .flat_map(|slot| slot.expect("every cell is either resumed or committed"))
            .collect(),
    }
}

/// Persists a finished cell's rows as one batch
/// ([`ResultsStore::append_cell`]).
fn commit(store: &mut ResultsStore, key: &str, rows: &[RunSummary]) -> Result<(), SpecError> {
    store
        .append_cell(key, rows)
        .map_err(|e| SpecError::Exec(format!("store append failed: {e}")))
}

/// How a throughput cell's N tenants are priced.
enum Tenancy {
    /// N runs, one future per tenant on one fabric loop
    /// ([`run_campaign_fabric`]) — the serial reference semantics.
    Fleet,
    /// A mirrored clone group ([`run_campaign_fabric_cloned`]): one
    /// real application run instead of N, bit-identical to the fleet.
    Clones,
}

/// Runs one compiled cell: solo cells on their (or the default) storage
/// model, throughput cells as N identical clones (`_t{i}` names) on one
/// shared fabric, with the solo shadow served from `memo` when an
/// earlier cell on the same [`SpecCell::solo_key`] already priced it.
fn execute_cell(
    cell: &SpecCell,
    default_storage: Option<&iosim::StorageModel>,
    memo: &iosim::SoloMemo,
    tenancy: Tenancy,
) -> Result<Vec<RunSummary>, SpecError> {
    let storage = cell.storage.map(|p| p.build());
    let storage = storage.as_ref().or(default_storage);
    if cell.tenants > 1 {
        let storage = storage.ok_or_else(|| {
            SpecError::Exec(format!(
                "throughput cell '{}' needs a storage model (storage axis or default)",
                cell.config.name
            ))
        })?;
        let clones: Vec<CastroSedovConfig> = (0..cell.tenants)
            .map(|i| CastroSedovConfig {
                name: format!("{}_t{i}", cell.config.name),
                ..cell.config.clone()
            })
            .collect();
        let memo = Some((memo, cell.solo_key.as_str()));
        return Ok(match tenancy {
            Tenancy::Fleet => run_campaign_fabric(&clones, storage, memo),
            Tenancy::Clones => run_campaign_fabric_cloned(&clones, storage, memo),
        });
    }
    Ok(vec![RunSummary::from_result(&run_simulation(
        &cell.config,
        None,
        storage,
    ))])
}

/// Host time of a hydro cost unit (one level-0 cell solved for one
/// step) over an oracle unit's (one cell formatted for one dump): 8-40x
/// on the Table III cells run alone. It orders every hydro cell of that
/// campaign ahead of every oracle cell (n32 at `l2` is 6x the n8192
/// oracle rung).
const HYDRO_WEIGHT: f64 = 32.0;

/// A cell's predicted cost, in arbitrary units: the order in which a
/// [`Queue`] starts it, never a result (rows are keyed, and queries
/// reduce in key order). An oracle cell's host time follows the cells
/// it formats — `n_cell × 2^max_level` per dump, `max_step / plot_int`
/// dumps; a hydro cell's follows the cells it solves, `n_cell² ×
/// (max_level + 1)` per step.
pub(crate) fn cell_cost(cfg: &CastroSedovConfig) -> f64 {
    let n_cell = cfg.n_cell as f64;
    match cfg.engine {
        Engine::Oracle => {
            let dumps = (cfg.max_step / cfg.plot_int.max(1)) as f64;
            dumps * n_cell * 2f64.powi(cfg.max_level as i32)
        }
        Engine::Hydro => {
            HYDRO_WEIGHT * n_cell * n_cell * (cfg.max_level + 1) as f64 * cfg.max_step as f64
        }
    }
}

/// A cost-ordered work queue: the one fan-out of cells over cores.
///
/// Units are started longest-processing-time first: every worker takes
/// the costliest *ready* unit, so a pass ends near `max(largest unit,
/// total / workers)` however the units arrive. A unit may wait for one
/// other unit ([`Queue::after`]); it becomes ready when that unit
/// returns. With one worker — one unit, or one core — the queue runs on
/// the calling thread and spawns nothing.
pub(crate) struct Queue {
    /// Unit indices, costliest first (equal costs in index order).
    order: Vec<usize>,
    /// `rank[u]`: the position of unit `u` in `order`.
    rank: Vec<usize>,
    /// `followers[u]`: the ranks of the units waiting for unit `u`.
    followers: Vec<Vec<usize>>,
    /// `waits[u]`: unit `u` waits for another unit.
    waits: Vec<bool>,
}

/// What the workers of one [`Queue::run_on`] share, under one lock.
struct Board<R> {
    /// Ready units by their rank: the lowest rank is the costliest.
    ready: BinaryHeap<Reverse<usize>>,
    /// Units no worker has taken yet.
    untaken: usize,
    /// Finished units' results, by unit.
    done: Vec<Option<R>>,
    /// A unit panicked: no worker takes another unit.
    aborted: bool,
}

/// Held across one unit: if the unit unwinds, marks the board aborted
/// and wakes every waiting worker, so none is left parked on a unit
/// that will never return.
struct AbortOnUnwind<'a, R> {
    board: &'a Mutex<Board<R>>,
    wake: &'a Condvar,
}

impl<R> Drop for AbortOnUnwind<'_, R> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            lock(self.board).aborted = true;
            self.wake.notify_all();
        }
    }
}

/// The board's lock. No unit runs under it and no update under it can
/// stop halfway, so the board is whole even behind a poisoned lock.
fn lock<R>(board: &Mutex<Board<R>>) -> MutexGuard<'_, Board<R>> {
    board.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Queue {
    /// A queue over units `0..costs.len()` with the given costs, none
    /// waiting for another.
    pub(crate) fn new(costs: impl IntoIterator<Item = f64>) -> Self {
        let costs: Vec<f64> = costs.into_iter().collect();
        let mut order: Vec<usize> = (0..costs.len()).collect();
        order.sort_by(|&a, &b| costs[b].total_cmp(&costs[a]));
        let mut rank = vec![0; order.len()];
        for (pos, &unit) in order.iter().enumerate() {
            rank[unit] = pos;
        }
        Queue {
            order,
            rank,
            followers: vec![Vec::new(); costs.len()],
            waits: vec![false; costs.len()],
        }
    }

    /// Makes `unit` wait until `head` has returned.
    pub(crate) fn after(&mut self, unit: usize, head: usize) {
        self.followers[head].push(self.rank[unit]);
        self.waits[unit] = true;
    }

    /// Runs `f` on every unit over one worker per core; see
    /// [`Queue::run_on`].
    pub(crate) fn run<R: Send>(&self, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
        self.run_on(io_engine::cores(), f)
    }

    /// Runs `f` on every unit over `min(workers, units)` scoped workers
    /// and returns the results in unit order. A panicking unit stops
    /// the queue: the other workers finish the units they hold, then
    /// the first panic is re-raised here.
    pub(crate) fn run_on<R, F>(&self, workers: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let units = self.order.len();
        let workers = workers.min(units);
        let board = Mutex::new(Board {
            ready: (0..units)
                .filter(|&u| !self.waits[u])
                .map(|u| Reverse(self.rank[u]))
                .collect(),
            untaken: units,
            done: (0..units).map(|_| None).collect(),
            aborted: false,
        });
        let wake = Condvar::new();
        let work = || loop {
            let unit = {
                let mut b = lock(&board);
                loop {
                    if b.aborted {
                        return;
                    }
                    if let Some(Reverse(pos)) = b.ready.pop() {
                        b.untaken -= 1;
                        break self.order[pos];
                    }
                    if b.untaken == 0 {
                        return;
                    }
                    // Every untaken unit waits for a unit still in progress.
                    b = wake.wait(b).unwrap_or_else(PoisonError::into_inner);
                }
            };
            let guard = AbortOnUnwind {
                board: &board,
                wake: &wake,
            };
            let result = f(unit);
            drop(guard);
            let followers = &self.followers[unit];
            let mut b = lock(&board);
            b.done[unit] = Some(result);
            b.ready.extend(followers.iter().map(|&pos| Reverse(pos)));
            drop(b);
            if !followers.is_empty() {
                wake.notify_all();
            }
        };
        if workers <= 1 {
            work();
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
                let mut panic = None;
                for handle in handles {
                    if let Err(payload) = handle.join() {
                        panic.get_or_insert(payload);
                    }
                }
                if let Some(payload) = panic {
                    std::panic::resume_unwind(payload);
                }
            });
        }
        let board = board.into_inner().unwrap_or_else(PoisonError::into_inner);
        board
            .done
            .into_iter()
            .map(|r| r.expect("every unit ran"))
            .collect()
    }
}

/// Compiles and executes a spec against a store, resuming persisted
/// cells: a cell whose content key is already in the store is read
/// back instead of run, so the second invocation of the same spec
/// executes zero cells and a spec extended by one axis value executes
/// only the new cells.
///
/// `default_storage` prices cells without a `storage` axis value
/// (`None` runs them untimed). Throughput cells (tenants > 1) require a
/// storage model — they are priced on a shared fabric by construction.
///
/// Pending cells execute **concurrently**, as the units of one
/// `Queue`: costliest first (`cell_cost`) on one worker per core.
/// Tenancy cells execute as *mirrored clone groups*
/// ([`run_campaign_fabric_cloned`]), with the solo shadow memoized per
/// [`SpecCell::solo_key`] across the invocation — so a throughput ladder
/// prices its solo baseline once. The first pending tenancy cell of a
/// solo profile (its *head*) is ready at once; the profile's other cells
/// wait until the head has committed and so filled the memo. Each
/// finished cell commits through [`ResultsStore::append_cell`] under one
/// short lock, in completion order; a row is written only when its
/// whole cell is done, so a crash never leaves a partial cell and resume
/// (which is keyed, not ordered) is insensitive to the interleaving.
/// Returned summaries stay in spec cell order.
///
/// [`run_spec_serial`] is the sequential reference with identical
/// results (the parallel-equivalence property tests pin one against
/// the other).
pub fn run_spec(
    spec: &ExperimentSpec,
    store: &mut ResultsStore,
    default_storage: Option<&iosim::StorageModel>,
) -> Result<SpecReport, SpecError> {
    let cells = spec.compile()?;
    let (mut slots, pending) = resume_partition(&cells, store);
    let executed = pending.len();
    let memo = iosim::SoloMemo::new();
    let mut queue = Queue::new(pending.iter().map(|&i| cell_cost(&cells[i].config)));
    // Waiting for the head (rather than racing it) keeps the memo's
    // filler — and so the solo columns — deterministic and equal to the
    // serial reference's, which also meets the head first.
    let mut heads: HashMap<&str, usize> = HashMap::new();
    for (unit, &slot) in pending.iter().enumerate() {
        let cell = &cells[slot];
        if cell.tenants > 1 {
            match heads.entry(cell.solo_key.as_str()) {
                Entry::Occupied(head) => queue.after(unit, *head.get()),
                Entry::Vacant(v) => drop(v.insert(unit)),
            }
        }
    }
    // Completion-order sink: a worker that finishes a cell takes the
    // lock just long enough to batch-append the cell's rows and park the
    // summaries in their spec-order slot. The first failure is kept.
    struct Sink<'a> {
        store: &'a mut ResultsStore,
        slots: &'a mut Slots,
        error: Option<SpecError>,
    }
    let sink = Mutex::new(Sink {
        store,
        slots: &mut slots,
        error: None,
    });
    queue.run(|unit| {
        let slot = pending[unit];
        let cell = &cells[slot];
        let produced = execute_cell(cell, default_storage, &memo, Tenancy::Clones);
        let mut sink = sink.lock().expect("a worker panicked holding the sink");
        match produced.and_then(|rows| commit(sink.store, &cell.key, &rows).map(|()| rows)) {
            Ok(rows) => sink.slots[slot] = Some(rows),
            Err(e) => drop(sink.error.get_or_insert(e)),
        }
    });
    let sink = sink
        .into_inner()
        .expect("a worker panicked holding the sink");
    match sink.error {
        Some(err) => Err(err),
        None => Ok(assemble(slots, executed)),
    }
}

/// Sequential reference implementation of [`run_spec`]: one cell at a
/// time in spec order, tenancy cells priced as a fleet of N runs
/// ([`run_campaign_fabric`] — no clone mirroring). The solo baseline
/// still goes through a per-invocation memo, because that defines the
/// solo columns' semantics (see [`run_campaign_fabric`]); the first
/// pending cell per [`SpecCell::solo_key`] fills it in spec order,
/// exactly the cell the parallel executor's chains elect. The parallel
/// executor must be indistinguishable from this by results — same
/// summary multiset, same resume mask, same persisted rows — and
/// `tests/proptests_spec_parallel.rs` holds it to that.
pub fn run_spec_serial(
    spec: &ExperimentSpec,
    store: &mut ResultsStore,
    default_storage: Option<&iosim::StorageModel>,
) -> Result<SpecReport, SpecError> {
    let cells = spec.compile()?;
    let (mut slots, pending) = resume_partition(&cells, store);
    let memo = iosim::SoloMemo::new();
    for &slot in &pending {
        let cell = &cells[slot];
        let rows = execute_cell(cell, default_storage, &memo, Tenancy::Fleet)?;
        commit(store, &cell.key, &rows)?;
        slots[slot] = Some(rows);
    }
    Ok(assemble(slots, pending.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScalingMode;
    use crate::store::tests::{small_base, tmp_dir};
    use io_engine::BackendSpec;

    /// Runs `queue` on `workers` workers; each unit sleeps `ms[unit]`
    /// milliseconds. Returns the `(unit, started)` / `(unit, returned)`
    /// events in the order they happened.
    fn trace(queue: &Queue, workers: usize, ms: &[u64]) -> Vec<(usize, bool)> {
        let events = Mutex::new(Vec::new());
        queue.run_on(workers, |unit| {
            events.lock().unwrap().push((unit, true));
            std::thread::sleep(std::time::Duration::from_millis(ms[unit]));
            events.lock().unwrap().push((unit, false));
        });
        events.into_inner().unwrap()
    }

    fn starts(events: &[(usize, bool)]) -> Vec<usize> {
        events.iter().filter(|e| e.1).map(|e| e.0).collect()
    }

    #[test]
    fn the_queue_starts_the_costliest_unit_first() {
        // Five small units, then the big one last in unit order.
        let costs = [1.0, 3.0, 2.0, 5.0, 4.0, 100.0];
        let queue = Queue::new(costs);
        let one = starts(&trace(&queue, 1, &[0; 6]));
        assert_eq!(one, [5, 3, 4, 1, 2, 0], "descending cost on one worker");
        let two = starts(&trace(&queue, 2, &[1; 6]));
        assert!(
            two[..2].contains(&5),
            "big unit not among the first two: {two:?}"
        );
        let mut all = two;
        all.sort_unstable();
        assert_eq!(all, [0, 1, 2, 3, 4, 5], "every unit ran once");
        // Results come back in unit order, whatever ran first.
        assert_eq!(queue.run_on(2, |unit| unit * 10), [0, 10, 20, 30, 40, 50]);
        assert!(Queue::new([]).run_on(2, |unit| unit).is_empty());
    }

    #[test]
    fn a_follower_never_starts_before_its_head_returns() {
        // Unit 1 costs more than its head (unit 0); unit 2 waits for
        // nothing.
        let mut queue = Queue::new([1.0, 10.0, 0.5]);
        queue.after(1, 0);
        for workers in [1, 2, 3] {
            let events = trace(&queue, workers, &[30, 0, 0]);
            let head_done = events.iter().position(|&e| e == (0, false)).unwrap();
            let follower = events.iter().position(|&e| e == (1, true)).unwrap();
            assert!(head_done < follower, "{workers} workers: {events:?}");
            assert_eq!(starts(&events)[0], 0, "{workers} workers: {events:?}");
        }
    }

    #[test]
    fn a_panicking_unit_re_raises_and_wakes_every_waiter() {
        // The head panics while the other worker waits on its follower.
        // The head's sleep only gives that worker time to park on the
        // condvar; the test must pass (not hang) in any interleaving.
        let mut queue = Queue::new([1.0, 2.0]);
        queue.after(1, 0);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(|| {
                queue.run_on(2, |unit| {
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    assert_ne!(unit, 0, "the head blew up");
                })
            });
            tx.send(outcome.map_err(|p| p.downcast_ref::<String>().cloned()))
                .unwrap();
        });
        let outcome = rx
            .recv_timeout(std::time::Duration::from_secs(20))
            .expect("a worker was left waiting: the queue never returned");
        let message = outcome.unwrap_err().expect("the unit's own payload");
        assert!(message.contains("the head blew up"), "{message}");
    }

    #[test]
    fn every_table3_hydro_cell_is_costed_ahead_of_every_oracle_cell() {
        let (hydro, oracle): (Vec<_>, Vec<_>) = crate::table3_campaign()
            .into_iter()
            .partition(|c| c.engine == Engine::Hydro);
        let cheapest_hydro = hydro.iter().map(cell_cost).fold(f64::MAX, f64::min);
        let costliest_oracle = oracle.iter().map(cell_cost).fold(0.0, f64::max);
        assert!(cheapest_hydro > costliest_oracle);
    }

    #[test]
    fn run_spec_resumes_and_extends() {
        let dir = tmp_dir("resume");
        let storage = iosim::StorageModel::ideal(2, 5e7);
        let spec = ExperimentSpec::new("resume")
            .base(small_base("r"))
            .backends(&[BackendSpec::FilePerProcess, BackendSpec::Aggregated(2)]);
        let mut store = ResultsStore::open(&dir).unwrap();
        let first = run_spec(&spec, &mut store, Some(&storage)).unwrap();
        assert_eq!(first.executed, 2);
        assert_eq!(first.resumed, 0);
        // Identical spec: zero cells execute, summaries identical.
        let second = run_spec(&spec, &mut store, Some(&storage)).unwrap();
        assert_eq!(second.executed, 0);
        assert_eq!(second.resumed, 2);
        assert_eq!(second.summaries, first.summaries);
        // One fresh axis value: only the new cell executes.
        let extended = ExperimentSpec::new("resume")
            .base(small_base("r"))
            .backends(&[
                BackendSpec::FilePerProcess,
                BackendSpec::Aggregated(2),
                BackendSpec::Deferred(1),
            ]);
        let third = run_spec(&extended, &mut store, Some(&storage)).unwrap();
        assert_eq!(third.executed, 1);
        assert_eq!(third.resumed, 2);
        assert_eq!(third.summaries.len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn throughput_cells_run_as_fabric_groups() {
        let dir = tmp_dir("tput");
        let storage = iosim::StorageModel::ideal(2, 5e7);
        let spec = ExperimentSpec::new("tput")
            .base(small_base("t"))
            .scales(&[2])
            .scaling(ScalingMode::Throughput);
        let mut store = ResultsStore::open(&dir).unwrap();
        let report = run_spec(&spec, &mut store, Some(&storage)).unwrap();
        assert_eq!(report.executed, 1);
        assert_eq!(report.summaries.len(), 2, "one summary per tenant");
        assert!(report.summaries.iter().all(|s| s.tenants == 2));
        assert_eq!(report.summaries[0].name, "t_x2_t0");
        // Resume serves both tenant summaries from the one cell key.
        let again = run_spec(&spec, &mut store, Some(&storage)).unwrap();
        assert_eq!(again.executed, 0);
        assert_eq!(again.summaries, report.summaries);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn run_time_failures_are_execution_errors_not_parse_errors() {
        type Executor = fn(
            &ExperimentSpec,
            &mut ResultsStore,
            Option<&iosim::StorageModel>,
        ) -> Result<SpecReport, SpecError>;
        let spec = ExperimentSpec::new("tput")
            .base(small_base("t"))
            .scales(&[2])
            .scaling(ScalingMode::Throughput);
        let storage = iosim::StorageModel::ideal(2, 5e7);
        for (tag, executor) in [
            ("err_par", run_spec as Executor),
            ("err_ser", run_spec_serial),
        ] {
            // A throughput cell with no storage model anywhere.
            let mut store = ResultsStore::open(tmp_dir(tag)).unwrap();
            let err = executor(&spec, &mut store, None).unwrap_err();
            assert_eq!(
                err.to_string(),
                "spec execution error: throughput cell 't_x2' needs a storage model \
                 (storage axis or default)"
            );
            assert!(store.is_empty(), "nothing ran, nothing was persisted");
            // The log turns unwritable after `open`: the cell runs, the
            // commit fails, and the error says so.
            store.make_log_unwritable();
            let err = executor(&spec, &mut store, Some(&storage)).unwrap_err();
            let text = err.to_string();
            assert!(
                text.starts_with("spec execution error: store append failed: "),
                "{text}"
            );
            std::fs::remove_dir_all(store.dir()).unwrap();
        }
    }

    #[test]
    fn unrunnable_scenario_cells_fail_at_compile_and_nothing_runs() {
        let mut base = small_base("s");
        base.max_step = 8;
        let spec = ExperimentSpec::new("bad").base(base).scenarios(&[
            io_engine::Scenario::write_only(),
            io_engine::Scenario::parse("write;fail@99;restart").unwrap(),
        ]);
        let err = spec.compile().unwrap_err();
        let text = err.to_string();
        assert!(matches!(err, SpecError::Scenario { .. }), "{err:?}");
        // Names the cell by label and coordinates, and says why.
        for needle in [
            "'s_write_fail99_restart'",
            "base=s",
            "scenario=write;fail@99;restart",
            "fail@99 is beyond the run's last step 8",
        ] {
            assert!(text.contains(needle), "'{needle}' not in: {text}");
        }
        for executor in [run_spec, run_spec_serial] {
            let mut store = ResultsStore::open(tmp_dir("bad_scenario")).unwrap();
            assert_eq!(executor(&spec, &mut store, None).unwrap_err(), err);
            assert!(store.is_empty(), "the runnable first cell never ran");
            std::fs::remove_dir_all(store.dir()).unwrap();
        }
    }

    #[test]
    fn a_torn_tail_at_any_byte_reopens_and_reruns_only_that_cell() {
        let storage = iosim::StorageModel::ideal(2, 5e7);
        let spec = ExperimentSpec::new("torn")
            .base(small_base("t"))
            .backends(&[BackendSpec::FilePerProcess, BackendSpec::Aggregated(2)]);
        let mut whole = ResultsStore::open(tmp_dir("torn_whole")).unwrap();
        run_spec_serial(&spec, &mut whole, Some(&storage)).unwrap();
        let log = std::fs::read(whole.dir().join("runs.jsonl")).unwrap();
        // The last cell's batch: the final line of the log.
        let batch = 1 + log[..log.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .unwrap();
        let dir = tmp_dir("torn_cut");
        std::fs::create_dir_all(&dir).unwrap();
        for cut in batch..log.len() {
            std::fs::write(dir.join("runs.jsonl"), &log[..cut]).unwrap();
            let mut store = ResultsStore::open(&dir).unwrap();
            assert_eq!(store.len(), 1, "cut at {cut}: the first cell survives");
            let report = run_spec(&spec, &mut store, Some(&storage)).unwrap();
            assert_eq!((report.executed, report.resumed), (1, 1), "cut at {cut}");
            assert_eq!(store.query().rows(), whole.query().rows(), "cut at {cut}");
            let healed = std::fs::read(dir.join("runs.jsonl")).unwrap();
            assert!(healed == log, "cut at {cut}: the log is whole again");
        }
        // A bad line that has its newline is corruption, wherever it is.
        let mut bad = log[..batch - 9].to_vec();
        bad.push(b'\n');
        for tail in [&log[batch..], &[][..]] {
            std::fs::write(dir.join("runs.jsonl"), [&bad[..], tail].concat()).unwrap();
            let err = ResultsStore::open(&dir).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(whole.dir()).unwrap();
    }

    #[test]
    fn parallel_run_spec_matches_the_serial_reference() {
        let storage = iosim::StorageModel::ideal(2, 5e7);
        // Mixed spec: solo cells and tenancy cells (mirrored clones,
        // followers behind their head) on one queue.
        let spec = ExperimentSpec::new("par")
            .base(small_base("p"))
            .backends(&[BackendSpec::FilePerProcess, BackendSpec::Aggregated(2)])
            .scales(&[1, 2, 4])
            .scaling(ScalingMode::Throughput);
        let mut serial_store = ResultsStore::open(tmp_dir("par_serial")).unwrap();
        let serial = run_spec_serial(&spec, &mut serial_store, Some(&storage)).unwrap();
        let mut parallel_store = ResultsStore::open(tmp_dir("par_parallel")).unwrap();
        let parallel = run_spec(&spec, &mut parallel_store, Some(&storage)).unwrap();
        assert_eq!(parallel.executed, serial.executed);
        assert_eq!(parallel.resumed, 0);
        assert_eq!(
            parallel.summaries, serial.summaries,
            "mirrored clones + memo must be invisible in the results"
        );
        // Both stores replay to the same queryable state (row order may
        // differ: parallel commits in completion order).
        let mut a = serial_store.query().summaries();
        let mut b = parallel_store.query().summaries();
        a.sort_by(|x, y| x.name.cmp(&y.name));
        b.sort_by(|x, y| x.name.cmp(&y.name));
        assert_eq!(a, b);
        // Resuming the parallel store is a no-op second time around.
        let again = run_spec(&spec, &mut parallel_store, Some(&storage)).unwrap();
        assert_eq!(again.executed, 0);
        assert_eq!(again.summaries, parallel.summaries);
        std::fs::remove_dir_all(serial_store.dir()).unwrap();
        std::fs::remove_dir_all(parallel_store.dir()).unwrap();
    }
}
