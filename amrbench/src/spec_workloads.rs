//! The four workloads that run an `ExperimentSpec` through `run_spec`:
//! `table3_hydro`, `table3_oracle`, `machine_room` and `wide_resume`.

use crate::digest::Digest;
use crate::replay;
use crate::trace::Tracer;
use crate::workload::{edit_axes, Checks, PassResult, RunOpts, ScratchDir, SplitMix, Workload};
use amrproxy::{
    run_spec, run_spec_serial, table3_campaign, CastroSedovConfig, Engine, ExperimentSpec,
    ResultsStore, RunSummary, SpecCell, SpecError, SpecReport, StorageProfile,
};
use iosim::StorageModel;
use std::io;
use std::path::PathBuf;
use std::time::Instant;

const MACHINE_ROOM_TOML: &str = include_str!("../workloads/machine_room.toml");
const WIDE_RESUME_TOML: &str = include_str!("../workloads/wide_resume.toml");

/// Repeats inside one `wide_resume` cycle, sized so every phase of the
/// cycle is a visible share of it and lasts at least ~0.2 s in total.
const RESUMES_PER_CYCLE: usize = 5;
const OPENS_PER_CYCLE: usize = 3;
const QUERY_SETS_PER_CYCLE: usize = 10;

/// Where a workload's cells come from.
enum Template {
    /// Table III configurations, crossed with `summit:1` storage.
    Table3(Vec<CastroSedovConfig>),
    /// A TOML spec under `workloads/`.
    Toml {
        text: &'static str,
        /// Throughput scaling: the `scale` axis keeps its order (see
        /// `workloads/machine_room.toml`).
        throughput: bool,
    },
}

/// A spec-driven workload, set up.
pub struct SpecWorkload {
    name: &'static str,
    template: Template,
    seed: u64,
    quick: bool,
    /// Pass 0's spec (the smallest cell only, under `--quick`): what the
    /// serial reference and the traced run execute.
    spec: ExperimentSpec,
    /// `spec`, compiled: cell keys for the digest.
    cells: Vec<SpecCell>,
    /// The smallest cell alone: the warm-up.
    warm_spec: ExperimentSpec,
    default_storage: Option<StorageModel>,
    /// Run the resume / reopen / query phases after the execute phase.
    cycle: bool,
    dir: PathBuf,
}

fn spec_err(e: SpecError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, e.to_string())
}

/// The Table III cells of one engine, smallest first.
fn table3_cells(hydro: bool) -> Vec<CastroSedovConfig> {
    let mut cells: Vec<CastroSedovConfig> = table3_campaign()
        .into_iter()
        .filter(|c| {
            if hydro {
                // The base sweep's two smallest hydro rungs. The solver
                // already uses every core inside a cell, so a pass costs
                // the *sum* of its cells (n32 1.1 s, n64 1.2 s, n128
                // 1.9 s on 2 cores): anything larger leaves no room for
                // five passes in the contract's run length.
                c.engine == Engine::Hydro && c.n_cell <= 64
            } else {
                c.engine == Engine::Oracle
            }
        })
        .collect();
    cells.sort_by_key(|c| (c.n_cell, c.max_level, c.max_step / c.plot_int.max(1)));
    cells
}

fn table3_spec(name: &str, bases: &[CastroSedovConfig]) -> ExperimentSpec {
    ExperimentSpec::over(name, bases).storages(&[StorageProfile::Summit { scale: 1.0 }])
}

/// A TOML spec with every axis cut to its first value: the smallest cell.
fn first_values(toml: &str) -> String {
    edit_axes(toml, |_, items| items.truncate(1))
}

impl Template {
    /// The spec with its cell / axis-value order permuted by `rng`.
    fn spec(&self, name: &str, rng: &mut SplitMix) -> io::Result<ExperimentSpec> {
        match self {
            Template::Table3(bases) => {
                let mut bases = bases.clone();
                rng.shuffle(&mut bases);
                Ok(table3_spec(name, &bases))
            }
            Template::Toml { text, throughput } => {
                let shuffled = edit_axes(text, |axis, items| {
                    if !(*throughput && axis == "scale") {
                        rng.shuffle(items);
                    }
                });
                ExperimentSpec::from_toml(&shuffled).map_err(spec_err)
            }
        }
    }

    fn smallest(&self, name: &str) -> io::Result<ExperimentSpec> {
        match self {
            Template::Table3(bases) => Ok(table3_spec(name, &bases[..1])),
            Template::Toml { text, .. } => {
                ExperimentSpec::from_toml(&first_values(text)).map_err(spec_err)
            }
        }
    }
}

impl SpecWorkload {
    /// Builds the named workload's specs from `opts.seed`.
    pub fn set_up(name: &'static str, opts: &RunOpts) -> io::Result<Self> {
        let (template, default_storage) = match name {
            "table3_hydro" | "table3_oracle" => {
                (Template::Table3(table3_cells(name == "table3_hydro")), None)
            }
            "machine_room" => (
                Template::Toml {
                    text: MACHINE_ROOM_TOML,
                    throughput: true,
                },
                Some(StorageModel::summit_alpine(0.01)),
            ),
            "wide_resume" => (
                Template::Toml {
                    text: WIDE_RESUME_TOML,
                    throughput: false,
                },
                None,
            ),
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("'{other}' is not a spec workload"),
                ))
            }
        };
        let warm_spec = template.smallest(name)?;
        let dir = opts.out.join(name);
        std::fs::create_dir_all(&dir)?;
        let spec = if opts.quick {
            warm_spec.clone()
        } else {
            template.spec(name, &mut SplitMix::for_pass(opts.seed, 0))?
        };
        let cells = spec.compile().map_err(spec_err)?;
        Ok(Self {
            name,
            template,
            seed: opts.seed,
            quick: opts.quick,
            spec,
            cells,
            warm_spec,
            default_storage,
            cycle: name == "wide_resume",
            dir,
        })
    }

    /// The spec of pass `index`. A pass's host time depends on the order
    /// of its cells (the executor splits the list between its threads in
    /// order: +-15% on `table3_oracle` with 2 cores), so every pass gets
    /// its own permutation and a run's median is over orders, whatever
    /// the seed. Results are keyed, so digests do not depend on it.
    fn spec_for_pass(&self, index: usize) -> io::Result<ExperimentSpec> {
        if self.quick {
            return Ok(self.warm_spec.clone());
        }
        self.template
            .spec(self.name, &mut SplitMix::for_pass(self.seed, index))
    }

    /// Pass 0's spec.
    pub fn spec(&self) -> &ExperimentSpec {
        &self.spec
    }

    /// Storage that prices cells without a `storage` axis value.
    pub fn default_storage(&self) -> Option<&StorageModel> {
        self.default_storage.as_ref()
    }

    fn scratch(&self, tag: &str) -> io::Result<ScratchDir> {
        ScratchDir::create(self.dir.join(tag))
    }

    /// Keys `report`'s summaries by cell and checks the execute/resume
    /// split of a first run into an empty store.
    fn digest_first_run(
        &self,
        cells: &[SpecCell],
        report: &SpecReport,
        checks: &mut Checks,
    ) -> Digest {
        checks.check(
            report.executed == cells.len() && report.resumed == 0,
            || {
                format!(
                    "{}: first run executed {} and resumed {} of {} cells",
                    self.name,
                    report.executed,
                    report.resumed,
                    cells.len()
                )
            },
        );
        checks.ops(report.executed as u64);
        digest_of(cells, &report.summaries, checks)
    }

    /// The untimed invariants every pass re-checks on its store: a second
    /// `run_spec` executes nothing and returns the same rows; the store,
    /// a query over it and a reopened store all hold the same row count.
    fn check_store(
        &self,
        spec: &ExperimentSpec,
        store: &mut ResultsStore,
        first: &SpecReport,
        checks: &mut Checks,
    ) -> io::Result<()> {
        let again = run_spec(spec, store, self.default_storage.as_ref()).map_err(spec_err)?;
        checks.check(
            again.executed == 0 && again.summaries == first.summaries,
            || {
                format!(
                    "{}: resume executed {} cells or changed rows",
                    self.name, again.executed
                )
            },
        );
        let rows = first.summaries.len();
        let reopened = ResultsStore::open(store.dir())?.len();
        let queried = store.query().len();
        checks.check(
            store.len() == rows && queried == rows && reopened == rows,
            || {
                format!(
                    "{}: {rows} rows returned, store {} query {queried} reopened {reopened}",
                    self.name,
                    store.len()
                )
            },
        );
        checks.ops(2);
        Ok(())
    }
}

/// Digest of `summaries` (spec order, one per tenant) keyed by `cells`.
pub fn digest_of(cells: &[SpecCell], summaries: &[RunSummary], checks: &mut Checks) -> Digest {
    let mut digest = Digest::new();
    let mut rows = summaries.iter();
    for cell in cells {
        for _ in 0..cell.tenants {
            match rows.next() {
                Some(s) => {
                    if let Err(e) = digest.add_summary(&cell.key, s) {
                        checks.fail(e);
                    }
                }
                None => checks.fail(format!("cell {} is missing a row", cell.config.name)),
            }
        }
    }
    if rows.next().is_some() {
        checks.fail("more rows than the cells' tenants".to_string());
    }
    digest
}

/// True when the store's rows can carry [`query_set`]'s regression:
/// `model::linear_fit` panics on fewer than two distinct x values, which
/// is what a `--quick` store holds.
pub fn fittable(store: &ResultsStore) -> bool {
    let xs = store.query().numbers("physical_bytes");
    xs.first()
        .is_some_and(|first| xs.iter().any(|x| x != first))
}

/// One query set of the `wide_resume` cycle: a filtered group-by and,
/// when the store is [`fittable`], a regression over the whole store.
pub fn query_set(store: &ResultsStore, fit: bool) -> (usize, f64) {
    let groups = store
        .query()
        .filter("backend", "fpp")
        .group_mean("codec", "wall_time");
    let slope = if fit {
        store.query().fit("physical_bytes", "wall_time").slope
    } else {
        f64::NAN
    };
    (groups.len(), slope)
}

impl Workload for SpecWorkload {
    fn warm_up(&mut self) -> io::Result<()> {
        let dir = self.scratch("warm")?;
        let mut store = ResultsStore::open(&dir.0)?;
        run_spec(&self.warm_spec, &mut store, self.default_storage.as_ref()).map_err(spec_err)?;
        Ok(())
    }

    fn pass(&mut self, index: usize) -> io::Result<PassResult> {
        let dir = self.scratch(&format!("p{index}"))?;
        let mut store = ResultsStore::open(&dir.0)?;
        let mut checks = Checks::default();
        let mut details = Vec::new();
        let spec = self.spec_for_pass(index)?;
        let compiled = spec.compile().map_err(spec_err)?;
        let cells = compiled.len() as f64;

        let pass = Instant::now();
        let first = run_spec(&spec, &mut store, self.default_storage.as_ref());
        let execute_s = pass.elapsed().as_secs_f64();
        let first = first.map_err(spec_err)?;
        if self.cycle {
            // Resume-only runs, cold reopens and query sets: the store
            // read three ways beside having just been written.
            let t = Instant::now();
            for _ in 0..RESUMES_PER_CYCLE {
                let again =
                    run_spec(&spec, &mut store, self.default_storage.as_ref()).map_err(spec_err)?;
                checks.check(again.executed == 0, || {
                    format!("resume executed {}", again.executed)
                });
            }
            let resume_s = t.elapsed().as_secs_f64() / RESUMES_PER_CYCLE as f64;
            let t = Instant::now();
            for _ in 0..OPENS_PER_CYCLE {
                drop(store);
                store = ResultsStore::open(&dir.0)?;
            }
            let open_s = t.elapsed().as_secs_f64() / OPENS_PER_CYCLE as f64;
            let fit = fittable(&store);
            let t = Instant::now();
            for _ in 0..QUERY_SETS_PER_CYCLE {
                std::hint::black_box(query_set(&store, fit));
            }
            let query_s = t.elapsed().as_secs_f64() / QUERY_SETS_PER_CYCLE as f64;
            checks.ops((RESUMES_PER_CYCLE + OPENS_PER_CYCLE + QUERY_SETS_PER_CYCLE) as u64);
            details.push(("execute_cells_per_s", cells / execute_s));
            details.push(("resume_cells_per_s", cells / resume_s));
            details.push(("open_rows_per_s", store.len() as f64 / open_s));
            details.push(("query_ms", query_s * 1e3));
        }
        let wall_s = pass.elapsed().as_secs_f64();

        let digest = self.digest_first_run(&compiled, &first, &mut checks);
        self.check_store(&spec, &mut store, &first, &mut checks)?;
        Ok(PassResult {
            wall_s,
            digest,
            checks,
            details,
        })
    }

    fn reference_digest(&mut self) -> io::Result<Digest> {
        let dir = self.scratch("serial")?;
        let mut store = ResultsStore::open(&dir.0)?;
        let report = run_spec_serial(&self.spec, &mut store, self.default_storage.as_ref())
            .map_err(spec_err)?;
        let mut checks = Checks::default();
        let digest = digest_of(&self.cells, &report.summaries, &mut checks);
        match checks.messages.first() {
            None => Ok(digest),
            Some(why) => Err(io::Error::other(why.clone())),
        }
    }

    fn traced(&mut self, tracer: &mut Tracer) -> io::Result<PassResult> {
        let store_dir = self.scratch("trace")?;
        let serial_dir = self.scratch("trace_serial")?;
        let parallel_dir = self.scratch("trace_parallel")?;
        replay::replay_spec(tracer, self, &store_dir.0, &serial_dir.0, &parallel_dir.0)
    }
}
