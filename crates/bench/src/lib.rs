//! The figure runner behind `cargo run --release -p bench --bin figures`.
//!
//! One registration table ([`FIGURES`]) names every table and figure of
//! the paper plus this repo's follow-on studies; one runner ([`run`])
//! prints the banner, calls the figure function, writes
//! `results/<name>.json` and turns an I/O failure into a non-zero exit
//! naming the path. A target that is not a registered name is a path to
//! an experiment spec (`specs/*.toml`), which is compiled, executed
//! against its own store under `results/store/` and printed as a table.
//! Tracked performance numbers come from `amrbench`
//! (`amrbench/README.md`), not from these artifacts.
//!
//! **Layer position:** top of the workspace, next to `core` — the figure
//! functions drive every lower layer; a figure that runs a matrix goes
//! `ExperimentSpec` → `run_spec` → the shared store, so a second
//! invocation resumes instead of re-simulating. A paper claim is a Rust
//! `assert!` inside its figure function: a failed claim panics.
//!
//! ```
//! // `figures --list` is the registration table, one line per figure.
//! assert_eq!(bench::list().lines().count(), bench::FIGURES.len());
//! bench::print_series("cumulative bytes", &[(1.0, 10.0), (2.0, 30.0)]);
//! ```

#![forbid(unsafe_code)]

mod extensions;
mod paper;

use amrproxy::store::Query;
use amrproxy::{run_spec, ExperimentSpec, ResultsStore, SpecReport};
use iosim::StorageModel;
use serde_json::Value;
use std::io;
use std::path::{Path, PathBuf};

/// One registered figure: `(name, paper reference, description, body)`.
/// The body prints its series and returns the artifact.
pub type Figure = (
    &'static str,
    &'static str,
    &'static str,
    fn(&mut Ctx) -> io::Result<Value>,
);

/// Every target `figures` can regenerate by name, in run order.
pub const FIGURES: &[Figure] = &[
    (
        "table1",
        "Table I of the paper",
        "Subset of AMReX Castro input parameters varied to understand output behaviour",
        paper::table1,
    ),
    (
        "table2",
        "Table II of the paper",
        "MACSio command line arguments used to model AMReX-Castro outputs",
        paper::table2,
    ),
    (
        "table3",
        "Table III of the paper",
        "AMReX Castro input parameter ranges for the 47-run Sedov campaign",
        paper::table3,
    ),
    (
        "listing1",
        "Listing 1 + Eq. (3) of the paper",
        "g(): AMReX-Castro inputs -> MACSio executable arguments",
        paper::listing1,
    ),
    (
        "fig02",
        "Fig. 2 of the paper",
        "Castro plotfile output structure, Sedov 2D cylinder-in-Cartesian case",
        paper::fig02,
    ),
    (
        "fig03",
        "Fig. 3 of the paper",
        "MACSio N-to-N output pattern (miftmpl interface), by task and step",
        paper::fig03,
    ),
    (
        "fig04",
        "Fig. 4 of the paper",
        "Sedov blast after 20 steps: (a) AMR mesh levels, (b) Mach number",
        paper::fig04,
    ),
    (
        "fig05",
        "Fig. 5 of the paper",
        "Cumulative output size vs cumulative output cells (log-log), Table III campaign",
        paper::fig05,
    ),
    (
        "fig06",
        "Fig. 6 of the paper",
        "Cumulative output size vs (CFL, max_level) for the 512^2 case4 pivot",
        paper::fig06,
    ),
    (
        "fig07",
        "Fig. 7 of the paper",
        "Per-level cumulative output size for the case4 pivot (L0 ~ constant, L1/L2 smooth)",
        paper::fig07,
    ),
    (
        "fig08",
        "Fig. 8 of the paper",
        "Per-task bytes per output step at each of the 4 mesh levels (case27)",
        paper::fig08,
    ),
    (
        "fig09",
        "Fig. 9 of the paper",
        "MACSio dataset_growth calibration trace for case4 (cfl 0.4, 4 levels)",
        paper::fig09,
    ),
    (
        "fig10",
        "Fig. 10 of the paper",
        "AMR vs calibrated MACSio per-step sizes across the (CFL, max_level) grid",
        paper::fig10,
    ),
    (
        "fig11",
        "Fig. 11 of the paper",
        "Large 8192^2 mesh: non-smooth output vs the MACSio kernel approximation",
        paper::fig11,
    ),
    (
        "ablations",
        "design-choice ablations (docs/MODEL.md, documented substitutions)",
        "DM strategy, grid_eff, MIF grouping, storage scaling",
        extensions::ablations,
    ),
    (
        "backend_matrix",
        "io-engine backend x codec matrix (ADIOS2/AMRIC-style levers, specs/backend_matrix.toml)",
        "N-to-N vs aggregation vs deferred staging x codecs, metadata- and bandwidth-bound storage",
        extensions::backend_matrix,
    ),
    (
        "machine_room",
        "multi-tenant extension of the paper's storage model",
        "tenancy ladder on the shared fabric: solo vs 2/4/8-tenant walls, wall-vs-tenancy fit",
        extensions::machine_room,
    ),
];

/// What a figure function is handed: where results go, and the one
/// store every registered figure shares (`results/store/paper`), opened
/// on first use.
pub struct Ctx {
    results: PathBuf,
    store: Option<ResultsStore>,
}

impl Ctx {
    /// A context writing under `results`.
    pub(crate) fn new(results: impl Into<PathBuf>) -> Self {
        Self {
            results: results.into(),
            store: None,
        }
    }

    fn store(&mut self) -> io::Result<&mut ResultsStore> {
        if self.store.is_none() {
            self.store = Some(open_store(&self.results.join("store/paper"))?);
        }
        Ok(self.store.as_mut().expect("opened above"))
    }

    /// Executes `spec` against the shared store (`storage` prices cells
    /// without a `storage` axis value) and prints the `executed=/resumed=`
    /// split; persisted cells are served back instead of re-simulated.
    fn run(
        &mut self,
        spec: &ExperimentSpec,
        storage: Option<&StorageModel>,
    ) -> io::Result<SpecReport> {
        let report = run_spec(spec, self.store()?, storage).map_err(io::Error::other)?;
        println!(
            "{}: executed={} resumed={}",
            spec.name, report.executed, report.resumed
        );
        Ok(report)
    }

    /// The shared store's rows of the cells of `spec`, which `report`
    /// just ran, selected by the cells' content keys. A cell holding
    /// more rows than it returned would skew every aggregate, so that is
    /// an error.
    fn rows_of(&mut self, spec: &ExperimentSpec, report: &SpecReport) -> io::Result<Query> {
        let cells = spec.compile().map_err(io::Error::other)?;
        let keys: Vec<&str> = cells.iter().map(|cell| cell.key.as_str()).collect();
        let store = self.store()?;
        let rows = store.query().cells(&keys);
        if rows.len() != report.summaries.len() {
            return Err(io::Error::other(format!(
                "{}: {} rows under this matrix's cells, it returned {}; stale rows from an \
                 older run? delete the store to re-simulate",
                store.dir().display(),
                rows.len(),
                report.summaries.len()
            )));
        }
        Ok(rows)
    }
}

fn open_store(dir: &Path) -> io::Result<ResultsStore> {
    ResultsStore::open(dir).map_err(|e| at(dir, e))
}

/// `e`, with the path it happened at in the message.
fn at(path: &Path, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

/// Directory where artifacts and stores land by default: `results/` at
/// the workspace root.
pub fn results_dir() -> PathBuf {
    let workspace = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2);
    workspace
        .expect("crates/bench sits two levels down")
        .join("results")
}

/// Writes the JSON artifact of figure `name` under `results`.
fn write_artifact(results: &Path, name: &str, value: &Value) -> io::Result<PathBuf> {
    std::fs::create_dir_all(results).map_err(|e| at(results, e))?;
    let path = results.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).map_err(io::Error::other)?;
    std::fs::write(&path, json).map_err(|e| at(&path, e))?;
    Ok(path)
}

/// A run that did not succeed: the process exit code and the line for
/// stderr.
#[derive(Debug)]
pub struct Failure {
    /// 1 for an I/O or spec failure, 2 for a usage error.
    pub code: u8,
    /// What went wrong, naming the path where there is one.
    pub message: String,
}

const USAGE: &str = "usage: figures [--list | TARGET...]   (TARGET: a name from --list, or a \
                     spec .toml path; no target runs every figure)";

/// The `--list` text: one `name  paper reference  description` line per
/// registered figure.
pub fn list() -> String {
    FIGURES
        .iter()
        .map(|(name, paper_ref, description, _)| {
            format!("{name:<16} {paper_ref} — {description}\n")
        })
        .collect()
}

/// Runs `figures` with `args` (the process arguments after the program
/// name), writing under `results`.
pub fn run(args: &[String], results: &Path) -> Result<(), Failure> {
    if args.len() == 1 && args[0] == "--list" {
        print!("{}", list());
        return Ok(());
    }
    let figure = |name: &str| FIGURES.iter().find(|f| f.0 == name);
    if let Some(bad) = args
        .iter()
        .find(|a| figure(a).is_none() && !a.ends_with(".toml"))
    {
        return Err(Failure {
            code: 2,
            message: format!("figures: unknown target '{bad}'\n{USAGE}"),
        });
    }
    let targets: Vec<&str> = match args {
        [] => FIGURES.iter().map(|f| f.0).collect(),
        _ => args.iter().map(String::as_str).collect(),
    };
    let mut ctx = Ctx::new(results);
    targets
        .into_iter()
        .try_for_each(|target| match figure(target) {
            Some(f) => run_figure(&mut ctx, f),
            None => run_spec_file(Path::new(target), results),
        })
        .map_err(|e| Failure {
            code: 1,
            message: format!("figures: {e}"),
        })
}

fn run_figure(ctx: &mut Ctx, (name, paper_ref, description, body): &Figure) -> io::Result<()> {
    println!("================================================================");
    println!("{name} — {paper_ref}");
    println!("{description}");
    println!("================================================================");
    let artifact = body(ctx)?;
    let path = write_artifact(&ctx.results, name, &artifact)?;
    println!("\n[artifact] {}", path.display());
    Ok(())
}

/// Compiles and executes the spec at `path` into
/// `results/store/<experiment name>`, then prints one row per run.
fn run_spec_file(path: &Path, results: &Path) -> io::Result<()> {
    let spec = ExperimentSpec::load(path).map_err(io::Error::other)?;
    // The experiment name becomes a directory under `results/store/`.
    if spec.name.is_empty() || spec.name.starts_with('.') || spec.name.contains(['/', '\\']) {
        return Err(io::Error::other(format!(
            "{}: experiment name '{}' is not a directory name",
            path.display(),
            spec.name
        )));
    }
    let mut store = open_store(&results.join("store").join(&spec.name))?;
    let report = run_spec(&spec, &mut store, None).map_err(io::Error::other)?;
    // One row per run: bytes shipped (to storage or over the link), the
    // restart and selective reads' physical bytes and seconds, the wall.
    println!(
        "{:<52} {:>7} {:>11} {:>10} {:>10} {:>8} {:>10} {:>8} {:>8}",
        "run",
        "tenants",
        "shipped_B",
        "read_B",
        "sel_B",
        "read_s",
        "sel_read_s",
        "wall_s",
        "slowdown"
    );
    for s in &report.summaries {
        println!(
            "{:<52} {:>7} {:>11} {:>10} {:>10} {:>8.4} {:>10.5} {:>8.4} {:>8.3}",
            s.name,
            s.tenants,
            s.physical_bytes + s.net_bytes,
            s.physical_read_bytes,
            s.selective_physical_read_bytes,
            s.read_wall,
            s.selective_read_wall,
            s.wall_time,
            s.slowdown
        );
    }
    println!(
        "{} -> {}: executed={} resumed={}",
        path.display(),
        store.dir().display(),
        report.executed,
        report.resumed
    );
    Ok(())
}

/// Prints an `(x, y)` series as an aligned two-column table.
pub fn print_series(title: &str, series: &[(f64, f64)]) {
    println!("\n## {title}");
    println!("{:>16}  {:>16}", "x", "y");
    for (x, y) in series {
        println!("{x:>16.6e}  {y:>16.6e}");
    }
}

/// Renders a log-log ASCII scatter of several labelled series, used for
/// quick visual inspection of Fig. 5-style plots in the terminal.
pub(crate) fn ascii_loglog(
    series: &[(String, Vec<(f64, f64)>)],
    width: usize,
    height: usize,
) -> String {
    let pts: Vec<(f64, f64)> = series.iter().flat_map(|(_, s)| s.iter().copied()).collect();
    let (mut x0, mut x1, mut y0, mut y1) = (f64::MAX, f64::MIN, f64::MAX, f64::MIN);
    for &(x, y) in &pts {
        if x > 0.0 && y > 0.0 {
            x0 = x0.min(x.log10());
            x1 = x1.max(x.log10());
            y0 = y0.min(y.log10());
            y1 = y1.max(y.log10());
        }
    }
    if x0 >= x1 || y0 >= y1 {
        return String::from("(not enough positive data)\n");
    }
    let mut grid = vec![vec![b' '; width]; height];
    let marks = [b'*', b'o', b'x', b'+', b'#', b'@', b'%', b'&'];
    for (si, (_, s)) in series.iter().enumerate() {
        for &(x, y) in s {
            if x <= 0.0 || y <= 0.0 {
                continue;
            }
            let cx = ((x.log10() - x0) / (x1 - x0) * (width - 1) as f64).round() as usize;
            let cy = ((y.log10() - y0) / (y1 - y0) * (height - 1) as f64).round() as usize;
            grid[height - 1 - cy][cx] = marks[si % marks.len()];
        }
    }
    let mut out = String::new();
    for row in grid {
        out.push('|');
        out.push_str(std::str::from_utf8(&row).expect("ascii"));
        out.push('\n');
    }
    out.push('+');
    out.push_str(&"-".repeat(width));
    out.push('\n');
    out
}

/// Formats bytes with a binary-ish human suffix for table readability.
pub(crate) fn human_bytes(b: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KB", "MB", "GB", "TB"];
    let mut v = b as f64;
    let mut u = 0;
    while v >= 1000.0 && u < UNITS.len() - 1 {
        v /= 1000.0;
        u += 1;
    }
    format!("{v:.2} {}", UNITS[u])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("figures_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn list_is_the_registration_table_and_names_are_unique() {
        let listed: Vec<String> = list()
            .lines()
            .map(|l| l.split_whitespace().next().unwrap().to_string())
            .collect();
        let names: Vec<&str> = FIGURES.iter().map(|f| f.0).collect();
        assert_eq!(listed, names);
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "{names:?}");
    }

    #[test]
    fn no_simulation_figures_run_end_to_end_and_their_artifacts_parse() {
        let dir = tmp_dir("nosim");
        let targets = ["table1", "table2", "table3", "listing1", "fig02", "fig03"];
        run(&args(&targets), &dir).expect("figures run");
        for name in targets {
            let text = std::fs::read_to_string(dir.join(format!("{name}.json"))).unwrap();
            let value: Value = serde_json::from_str(&text).expect(name);
            assert!(!value.is_null(), "{name}");
        }
        assert!(!dir.join("store").exists(), "no figure here runs a matrix");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unwritable_results_directory_is_exit_1_naming_the_path_not_a_panic() {
        // A regular file where the results directory should be.
        let blocker = tmp_dir("blocked");
        std::fs::write(&blocker, b"not a directory").unwrap();
        let spec = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/smoke.toml");
        for target in ["table1", spec] {
            let failure = run(&args(&[target]), &blocker).unwrap_err();
            assert_eq!(failure.code, 1, "{}", failure.message);
            assert!(
                failure.message.contains(blocker.to_str().unwrap()),
                "{}",
                failure.message
            );
        }
        std::fs::remove_file(&blocker).unwrap();
    }

    #[test]
    fn anything_but_list_a_name_or_a_spec_path_is_usage_exit_2() {
        for bad in [&["--help"][..], &["fig99"], &["--list", "table1"]] {
            let failure = run(&args(bad), Path::new("unused")).unwrap_err();
            assert_eq!(failure.code, 2, "{bad:?}");
            assert!(failure.message.ends_with(USAGE), "{}", failure.message);
        }
        let missing = run(&args(&["no/such/spec.toml"]), Path::new("unused")).unwrap_err();
        assert_eq!(missing.code, 1);
        assert!(missing.message.contains("no/such/spec.toml"));
    }

    #[test]
    fn a_spec_whose_name_is_not_a_directory_name_is_refused() {
        let dir = tmp_dir("badname");
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("escape.toml");
        std::fs::write(&spec, "[experiment]\nname = \"../elsewhere\"\n").unwrap();
        let failure = run(&args(&[spec.to_str().unwrap()]), &dir.join("results")).unwrap_err();
        assert_eq!(failure.code, 1);
        assert!(
            failure
                .message
                .contains("'../elsewhere' is not a directory name"),
            "{}",
            failure.message
        );
        assert!(!dir.join("results").exists(), "nothing was created");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_spec_file_loads_and_compiles() {
        let specs = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs");
        let mut seen = 0;
        for entry in std::fs::read_dir(&specs).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "toml") {
                // `macsio_*.toml` speak the grammar's other client.
                let text = std::fs::read_to_string(&path).unwrap();
                let macsio_spec = path
                    .file_name()
                    .unwrap()
                    .to_string_lossy()
                    .starts_with("macsio_");
                let cells = if macsio_spec {
                    macsio::parse_spec(&text).map(|cells| cells.len())
                } else {
                    let cells = ExperimentSpec::from_toml(&text).and_then(|spec| spec.compile());
                    cells.map(|cells| cells.len()).map_err(|e| e.to_string())
                };
                let cells = cells.unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                assert!(cells > 0, "{}", path.display());
                seen += 1;
            }
        }
        assert!(seen >= 8, "specs/ holds the campaign specs, found {seen}");
    }

    #[test]
    fn human_bytes_scales() {
        assert_eq!(human_bytes(512), "512.00 B");
        assert_eq!(human_bytes(1_500), "1.50 KB");
        assert_eq!(human_bytes(2_500_000), "2.50 MB");
        assert_eq!(human_bytes(3_200_000_000), "3.20 GB");
    }

    #[test]
    fn ascii_plot_contains_marks() {
        let series = vec![
            ("a".to_string(), vec![(1.0, 1.0), (10.0, 100.0)]),
            ("b".to_string(), vec![(2.0, 50.0)]),
        ];
        let plot = ascii_loglog(&series, 40, 10);
        assert!(plot.contains('*'));
        assert!(plot.contains('o'));
    }

    #[test]
    fn ascii_plot_handles_degenerate_data() {
        let plot = ascii_loglog(&[("a".into(), vec![(1.0, 1.0)])], 10, 5);
        assert!(plot.contains("not enough"));
    }
}
