//! `amrbench`: run, list and compare the repository's benchmark.
//!
//! ```text
//! amrbench --workload NAME --seed N --seconds S --trace 0|1   one workload, this process
//! amrbench run [--trace] [--bless] [--json FILE] ...          every workload, one child each
//! amrbench list                                               workloads and metrics
//! amrbench compare A.json B.json                              two `run --json` documents
//! ```

use amrbench::compare::compare;
use amrbench::metrics;
use amrbench::runner::{document, run_all, run_workload, RunAll, REPORT_PREFIX};
use amrbench::workload::RunOpts;
use serde::Value;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage:
  amrbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick] [--bless] [--out DIR]
      run one workload in this process; the last line of output is the
      benchmark driver's JSON result
  amrbench run [--workload NAME]... [--seed N] [--seconds S] [--trace] [--quick] [--bless]
               [--out DIR] [--json FILE]
      run every workload (or the named ones), each in its own process;
      --trace adds a traced run of each; --bless rewrites golden/;
      --json also writes the whole document to FILE
  amrbench list
      every workload and metric with unit, direction and bound
  amrbench compare A.json B.json
      per (metric, workload): both medians, ratio with its base, bound, verdict

  --seed N     workload seed (default 1): permutes cell and run order
  --seconds S  how long an untraced run measures (default 15)
  --out DIR    where stores and trace files go (default: a fresh
               directory under ./.amrbench_out, removed on exit)
";

struct Args {
    command: Option<String>,
    workloads: Vec<String>,
    positional: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    bless: bool,
    out: Option<PathBuf>,
    json: Option<PathBuf>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workloads: Vec::new(),
        positional: Vec::new(),
        seed: 1,
        seconds: 15.0,
        trace: false,
        quick: false,
        bless: false,
        out: None,
        json: None,
    };
    let mut it = argv.iter().peekable();
    if let Some(first) = it.peek() {
        if !first.starts_with("--") {
            args.command = it.next().cloned();
        }
    }
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => args.workloads.push(value("a workload name")?),
            "--seed" => {
                args.seed = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be between 0 and 3600".to_string());
                }
            }
            "--trace" => {
                // The driver passes `--trace 0|1`; by hand it is a flag.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => args.quick = true,
            "--bless" => args.bless = true,
            "--out" => args.out = Some(PathBuf::from(value("a directory")?)),
            "--json" => args.json = Some(PathBuf::from(value("a file")?)),
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            other => args.positional.push(other.to_string()),
        }
    }
    if args.bless && args.quick {
        // A --quick run covers a subset of the cells; its digest would
        // truncate the golden.
        return Err("--bless needs the whole workload: drop --quick".to_string());
    }
    Ok(args)
}

/// The directory stores and artifacts go to: the user's, or a fresh one
/// under the working directory that is removed when this guard drops.
struct OutDir {
    path: PathBuf,
    remove: bool,
}

impl OutDir {
    fn new(user: Option<PathBuf>) -> std::io::Result<Self> {
        let (path, remove) = match user {
            Some(path) => (path, false),
            None => {
                let nanos = std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map_or(0, |d| d.subsec_nanos());
                let name = format!("{}-{nanos}", std::process::id());
                (PathBuf::from(".amrbench_out").join(name), true)
            }
        };
        std::fs::create_dir_all(&path)?;
        Ok(Self { path, remove })
    }
}

impl Drop for OutDir {
    fn drop(&mut self) {
        if self.remove {
            // Best effort; `Drop` must not panic.
            let _ = std::fs::remove_dir_all(&self.path);
            // The parent goes too once the last run has left it.
            let _ = std::fs::remove_dir(".amrbench_out");
        }
    }
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn real_main(argv: &[String]) -> Result<bool, String> {
    let args = parse(argv)?;
    let io_err = |e: std::io::Error| e.to_string();
    match args.command.as_deref() {
        Some("list") => {
            print!("{}", metrics::list());
            Ok(true)
        }
        Some("compare") => {
            let [a, b] = args.positional.as_slice() else {
                return Err("compare needs two files".to_string());
            };
            let (table, failed) = compare(&read_json(a)?, &read_json(b)?)?;
            print!("{table}");
            Ok(!failed)
        }
        Some("run") => {
            let out = OutDir::new(args.out).map_err(io_err)?;
            let all = RunAll {
                workloads: args.workloads,
                opts: RunOpts {
                    seed: args.seed,
                    quick: args.quick,
                    out: out.path.clone(),
                },
                seconds: args.seconds,
                trace: args.trace,
                bless: args.bless,
            };
            let reports = run_all(&all).map_err(io_err)?;
            let doc = serde_json::to_string_pretty(&document(&reports, args.seconds))
                .map_err(|e| e.to_string())?;
            if let Some(path) = &args.json {
                std::fs::write(path, &doc).map_err(io_err)?;
            }
            println!("{doc}");
            Ok(reports.iter().all(|r| r.correct()))
        }
        Some(other) => Err(format!("unknown command '{other}'")),
        None => {
            let [name] = args.workloads.as_slice() else {
                return Err("name exactly one --workload (or use `amrbench run`)".to_string());
            };
            let out = OutDir::new(args.out).map_err(io_err)?;
            let opts = RunOpts {
                seed: args.seed,
                quick: args.quick,
                out: out.path.clone(),
            };
            let report =
                run_workload(name, &opts, args.seconds, args.trace, args.bless).map_err(io_err)?;
            print!("{}", report.text());
            let full = serde_json::to_string(&report.to_value()).map_err(|e| e.to_string())?;
            println!("{REPORT_PREFIX}{full}");
            println!("{}", report.driver_line());
            Ok(report.correct())
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return if argv.is_empty() {
            ExitCode::from(2)
        } else {
            ExitCode::SUCCESS
        };
    }
    match real_main(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("amrbench: {e}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
