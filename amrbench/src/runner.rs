//! Runs one workload in this process, or all of them as child
//! processes, and formats what they measured.

use crate::digest::Digest;
use crate::harness::{measure, peak_rss_mb, reset_peak_rss, Stats, MIN_WINDOW_S};
use crate::metrics::{DETAILS, END_TO_END, PER_LAYER, WORKLOADS};
use crate::proxy_workloads::{EngineMatrix, ProxyPipeline};
use crate::spec_workloads::SpecWorkload;
use crate::trace::Tracer;
use crate::workload::{Checks, PassResult, RunOpts, Workload};
use serde::Value;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Fewest timed passes an untraced run takes.
pub const MIN_PASSES: usize = 3;

/// One named number with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// The samples' summary (`n == 1` for counts and exact values).
    pub stats: Stats,
}

/// What one run of one workload measured.
#[derive(Clone, Debug)]
pub struct WorkloadReport {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Traced (per-layer metrics) or untraced (end-to-end metrics).
    pub traced: bool,
    /// Timed passes taken (1 for a traced run).
    pub passes: usize,
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// One line per failure.
    pub messages: Vec<String>,
    /// Hash of the simulated-statistics digest.
    pub digest: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Workload details of the untraced run.
    pub details: Vec<Metric>,
}

impl WorkloadReport {
    /// True when nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Embedded golden digest of a workload (generated by `--bless`).
fn golden_text(name: &str) -> Option<&'static str> {
    Some(match name {
        "table3_hydro" => include_str!("../golden/table3_hydro.digest"),
        "table3_oracle" => include_str!("../golden/table3_oracle.digest"),
        "proxy_pipeline" => include_str!("../golden/proxy_pipeline.digest"),
        "engine_matrix" => include_str!("../golden/engine_matrix.digest"),
        "machine_room" => include_str!("../golden/machine_room.digest"),
        "wide_resume" => include_str!("../golden/wide_resume.digest"),
        _ => return None,
    })
}

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{name}.digest"))
}

fn static_name(name: &str) -> io::Result<&'static str> {
    WORKLOADS
        .iter()
        .map(|w| w.name)
        .find(|w| *w == name)
        .ok_or_else(|| {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("unknown workload '{name}' (known: {})", known.join(", ")),
            )
        })
}

/// Sets the named workload up.
pub fn set_up(name: &'static str, opts: &RunOpts) -> io::Result<Box<dyn Workload>> {
    Ok(match name {
        "engine_matrix" => Box::new(EngineMatrix::set_up(opts)?),
        "proxy_pipeline" => Box::new(ProxyPipeline::set_up(opts)?),
        _ => Box::new(SpecWorkload::set_up(name, opts)?),
    })
}

/// Checks `digest` against the workload's golden. Under `--quick` a
/// workload runs a subset of its cells, so only rows the golden knows
/// are compared.
pub fn check_golden(name: &str, digest: &Digest, quick: bool, checks: &mut Checks) {
    let golden = match golden_text(name).map(Digest::parse) {
        Some(Ok(g)) => g,
        Some(Err(e)) => return checks.check(false, || format!("{name}: bad golden: {e}")),
        None => return checks.check(false, || format!("{name}: no golden")),
    };
    let diff = if quick {
        digest
            .restricted_to(&golden)
            .diff(&golden.restricted_to(digest))
    } else {
        digest.diff(&golden)
    };
    checks.check(diff.is_empty(), || {
        format!(
            "{name}: simulated statistics differ from golden/{name}.digest \
             ({} rows; first: {})",
            diff.len(),
            diff[0]
        )
    });
}

/// Rewrites the workload's golden from the serial reference executor.
fn bless(name: &str, w: &mut dyn Workload) -> io::Result<()> {
    let digest = w.reference_digest()?;
    let text = format!(
        "# amrbench golden: simulated statistics of '{name}' from the serial reference executor.\n\
         # One row per cell and tenant, keyed by content hash; values are exact bit patterns.\n\
         # Regenerate with `amrbench run --bless` after a change that is meant to move them.\n{}",
        digest.render()
    );
    std::fs::write(golden_path(name), text)
}

fn pass_caught(w: &mut dyn Workload, index: usize) -> io::Result<PassResult> {
    match catch_unwind(AssertUnwindSafe(|| w.pass(index))) {
        Ok(result) => result,
        Err(panic) => {
            let why = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "unknown panic".to_string());
            Err(io::Error::other(format!("pass {index} panicked: {why}")))
        }
    }
}

fn metric(name: &str, unit: &str, stats: Stats) -> Metric {
    Metric {
        name: name.to_string(),
        unit: unit.to_string(),
        stats,
    }
}

/// Runs one workload in this process: set-up (timed), warm-up, then
/// either timed passes for `seconds` (at least [`MIN_PASSES`]) or, with
/// `traced`, one staged replay.
pub fn run_workload(
    name: &str,
    opts: &RunOpts,
    seconds: f64,
    traced: bool,
    blessing: bool,
) -> io::Result<WorkloadReport> {
    let name = static_name(name)?;
    // Set-up, several times over: the median is what a user pays before
    // the warm-up, and work moved into set-up shows here.
    let (window, windows) = if opts.quick {
        (0.02, 3)
    } else {
        (MIN_WINDOW_S, 5)
    };
    let mut built = None;
    let (setup, _) = measure(window, windows, || built = Some(set_up(name, opts)));
    let mut w = built.expect("measure calls its closure")?;
    w.warm_up()?;
    if blessing {
        bless(name, w.as_mut())?;
    }

    let mut checks = Checks::default();
    let mut report = WorkloadReport {
        workload: name.to_string(),
        seed: opts.seed,
        traced,
        passes: 0,
        attempted: 0,
        failed: 0,
        messages: Vec::new(),
        digest: 0,
        metrics: Vec::new(),
        details: Vec::new(),
    };
    let digest = if traced {
        let mut tracer = Tracer::new(name);
        let result = w.traced(&mut tracer)?;
        report.passes = 1;
        checks.absorb(result.checks);
        tracer.write(&opts.out)?;
        print!("{}", tracer.layer_table());
        for m in &PER_LAYER {
            report
                .metrics
                .push(metric(m.name, m.unit, Stats::single(tracer.total(m.name))));
        }
        result.digest
    } else {
        let started = Instant::now();
        let mut results: Vec<PassResult> = Vec::new();
        // Peak resident set per pass (the mark is reset before each).
        // Which cells coincide on the executor's threads differs from
        // pass to pass, and the peak with it (31 to 56 MB on
        // table3_oracle), so the metric is the floor of the per-pass
        // peaks: what the workload needs, not what one unlucky overlap
        // cost. Where the mark cannot be reset, the peak at exit stands
        // in.
        let mut peaks: Vec<f64> = Vec::new();
        loop {
            let marked = reset_peak_rss().is_ok();
            match pass_caught(w.as_mut(), results.len()) {
                Ok(r) => {
                    results.push(r);
                    if marked {
                        peaks.push(peak_rss_mb()?);
                    }
                }
                Err(e) => {
                    checks.fail(e.to_string());
                    break;
                }
            }
            let enough = results.len() >= MIN_PASSES && started.elapsed().as_secs_f64() >= seconds;
            if opts.quick || enough {
                break;
            }
        }
        report.passes = results.len();
        let Some(first) = results.first().map(|r| r.digest.clone()) else {
            return Err(io::Error::other(checks.messages.join("; ")));
        };
        for (i, r) in results.iter().enumerate() {
            checks.check(r.digest == first, || {
                format!("{name}: pass {i} digest differs from pass 0")
            });
        }
        let walls: Vec<f64> = results.iter().map(|r| r.wall_s).collect();
        let wall = Stats::from_samples(&walls).expect("at least one finite sample");
        for m in &END_TO_END {
            let stats = match m.name {
                "wall_s" => wall,
                "peak_rss_mb" => match Stats::from_samples(&peaks) {
                    Some(per_pass) if peaks.len() == results.len() => Stats::single(per_pass.min),
                    _ => Stats::single(peak_rss_mb()?),
                },
                "setup_s" => setup,
                other => unreachable!("end-to-end metric {other} has no source"),
            };
            report.metrics.push(metric(m.name, m.unit, stats));
        }
        for d in DETAILS.iter().filter(|d| d.workload == name) {
            let samples: Vec<f64> = results
                .iter()
                .filter_map(|r| r.details.iter().find(|(n, _)| *n == d.name))
                .map(|(_, v)| *v)
                .collect();
            if let Some(stats) = Stats::from_samples(&samples) {
                report.details.push(metric(d.name, d.unit, stats));
            }
        }
        for r in results {
            checks.absorb(r.checks);
        }
        first
    };
    if !blessing {
        check_golden(name, &digest, opts.quick, &mut checks);
    }
    report.digest = digest.hash();
    report.attempted = checks.attempted.max(1);
    report.failed = checks.failed;
    report.messages = checks.messages;
    Ok(report)
}

fn stats_value(m: &Metric) -> Value {
    let s = &m.stats;
    Value::Object(vec![
        ("unit".to_string(), Value::String(m.unit.clone())),
        ("n".to_string(), serde_json::to_value(&(s.n as u64))),
        ("median".to_string(), serde_json::to_value(&s.median)),
        ("min".to_string(), serde_json::to_value(&s.min)),
        ("max".to_string(), serde_json::to_value(&s.max)),
        ("q1".to_string(), serde_json::to_value(&s.q1)),
        ("q3".to_string(), serde_json::to_value(&s.q3)),
    ])
}

fn metrics_value(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| (m.name.clone(), stats_value(m)))
            .collect(),
    )
}

impl WorkloadReport {
    /// The full report as JSON (every metric with its [`Stats`]).
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("workload".to_string(), Value::String(self.workload.clone())),
            ("seed".to_string(), serde_json::to_value(&self.seed)),
            ("traced".to_string(), Value::Bool(self.traced)),
            (
                "passes".to_string(),
                serde_json::to_value(&(self.passes as u64)),
            ),
            ("correct".to_string(), Value::Bool(self.correct())),
            (
                "attempted".to_string(),
                serde_json::to_value(&self.attempted),
            ),
            ("failed".to_string(), serde_json::to_value(&self.failed)),
            (
                "fail_share".to_string(),
                serde_json::to_value(&(self.failed as f64 / self.attempted.max(1) as f64)),
            ),
            (
                "messages".to_string(),
                Value::Array(self.messages.iter().cloned().map(Value::String).collect()),
            ),
            (
                "digest".to_string(),
                Value::String(format!("{:016x}", self.digest)),
            ),
            ("metrics".to_string(), metrics_value(&self.metrics)),
            ("details".to_string(), metrics_value(&self.details)),
        ])
    }

    /// Parses [`WorkloadReport::to_value`] output.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("report has no '{k}'"));
        let metrics = |k: &str| -> Result<Vec<Metric>, String> {
            let entries = field(k)?
                .as_object()
                .ok_or_else(|| format!("'{k}' is not an object"))?;
            entries
                .iter()
                .map(|(name, m)| {
                    let num = |f: &str| {
                        m.get(f)
                            .and_then(Value::as_f64)
                            .ok_or_else(|| format!("{name}: no '{f}'"))
                    };
                    Ok(Metric {
                        name: name.clone(),
                        unit: m
                            .get("unit")
                            .and_then(Value::as_str)
                            .unwrap_or("")
                            .to_string(),
                        stats: Stats {
                            n: num("n")? as usize,
                            median: num("median")?,
                            min: num("min")?,
                            max: num("max")?,
                            q1: num("q1")?,
                            q3: num("q3")?,
                        },
                    })
                })
                .collect()
        };
        let int = |k: &str| {
            field(k)?
                .as_u64()
                .ok_or_else(|| format!("'{k}' is not a whole number"))
        };
        Ok(Self {
            workload: field("workload")?.as_str().unwrap_or_default().to_string(),
            seed: int("seed")?,
            traced: field("traced")?.as_bool().unwrap_or(false),
            passes: int("passes")? as usize,
            attempted: int("attempted")?,
            failed: int("failed")?,
            messages: field("messages")?
                .as_array()
                .map(|a| {
                    a.iter()
                        .filter_map(Value::as_str)
                        .map(String::from)
                        .collect()
                })
                .unwrap_or_default(),
            digest: u64::from_str_radix(field("digest")?.as_str().unwrap_or("0"), 16)
                .map_err(|e| format!("bad digest: {e}"))?,
            metrics: metrics("metrics")?,
            details: metrics("details")?,
        })
    }

    /// The text form: one `workload metric value unit` line per number.
    /// A run takes fewer than 11 passes, so no percentile has ten
    /// samples beyond it and none is reported: the median stands beside
    /// min, max and the sample count (and the quartiles from 11 up).
    pub fn text(&self) -> String {
        let mut out = String::new();
        for m in self.metrics.iter().chain(&self.details) {
            let s = &m.stats;
            out.push_str(&format!(
                "{} {} {} {}",
                self.workload, m.name, s.median, m.unit
            ));
            if s.n > 1 {
                let tail = if s.n < 11 {
                    "n < 11, so no percentile".to_string()
                } else {
                    format!("q1 {} q3 {}", s.q1, s.q3)
                };
                out.push_str(&format!(
                    "  (median of n={}, min {} max {}; {tail})",
                    s.n, s.min, s.max
                ));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "{} fail_share {} ratio  ({} failed of {} attempted; digest {:016x}; {} passes)\n",
            self.workload,
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted,
            self.digest,
            self.passes
        ));
        for why in &self.messages {
            out.push_str(&format!("{} FAILED {why}\n", self.workload));
        }
        out
    }

    /// The benchmark driver's result line: `correct`, `attempted`,
    /// `failed` and each metric's value as measured.
    pub fn driver_line(&self) -> String {
        let metrics = Value::Object(
            self.metrics
                .iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        Value::Object(vec![
                            ("value".to_string(), serde_json::to_value(&m.stats.median)),
                            ("unit".to_string(), Value::String(m.unit.clone())),
                        ]),
                    )
                })
                .collect(),
        );
        let line = Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct())),
            (
                "attempted".to_string(),
                serde_json::to_value(&self.attempted),
            ),
            ("failed".to_string(), serde_json::to_value(&self.failed)),
            ("metrics".to_string(), metrics),
        ]);
        serde_json::to_string(&line).expect("finite numbers serialize")
    }
}

/// Line prefix under which a child process hands its full report to
/// `amrbench run`.
pub const REPORT_PREFIX: &str = "amrbench-report ";

/// Options of `amrbench run`.
#[derive(Clone, Debug)]
pub struct RunAll {
    /// Workloads to run (all six when empty).
    pub workloads: Vec<String>,
    /// Per-workload options; each child gets its own `out` below this.
    pub opts: RunOpts,
    /// Seconds each untraced run measures for.
    pub seconds: f64,
    /// Also make a traced run of each workload.
    pub trace: bool,
    /// Rewrite the goldens.
    pub bless: bool,
}

/// Runs every workload in its own child process (so `peak_rss_mb` is
/// per workload), echoing each child's text and collecting its report.
pub fn run_all(all: &RunAll) -> io::Result<Vec<WorkloadReport>> {
    let exe = std::env::current_exe()?;
    let names: Vec<String> = if all.workloads.is_empty() {
        WORKLOADS.iter().map(|w| w.name.to_string()).collect()
    } else {
        all.workloads.clone()
    };
    let mut reports = Vec::new();
    for name in &names {
        let traces: &[bool] = if all.trace { &[false, true] } else { &[false] };
        for &traced in traces {
            let mut cmd = std::process::Command::new(&exe);
            cmd.arg("--workload")
                .arg(name)
                .arg("--seed")
                .arg(all.opts.seed.to_string())
                .arg("--seconds")
                .arg(all.seconds.to_string())
                .arg("--trace")
                .arg(if traced { "1" } else { "0" })
                .arg("--out")
                .arg(&all.opts.out);
            if all.opts.quick {
                cmd.arg("--quick");
            }
            // Bless once per workload, from the untraced child.
            if all.bless && !traced {
                cmd.arg("--bless");
            }
            let output = cmd.stderr(std::process::Stdio::inherit()).output()?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let mut parsed = None;
            for line in stdout.lines() {
                match line.strip_prefix(REPORT_PREFIX) {
                    Some(json) => {
                        let v: Value = serde_json::from_str(json)
                            .map_err(|e| io::Error::other(format!("{name}: bad report: {e}")))?;
                        parsed = Some(WorkloadReport::from_value(&v).map_err(io::Error::other)?);
                    }
                    // The driver line repeats the report; keep the text.
                    None if line.starts_with('{') => {}
                    None => println!("{line}"),
                }
            }
            match parsed {
                Some(report) => reports.push(report),
                None => {
                    return Err(io::Error::other(format!(
                        "{name}: child exited with {} and no report",
                        output.status
                    )))
                }
            }
        }
    }
    Ok(reports)
}

/// One JSON document for a set of reports (`amrbench run`'s artifact
/// and `amrbench compare`'s input).
pub fn document(reports: &[WorkloadReport], seconds: f64) -> Value {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    Value::Object(vec![
        (
            "benchmark".to_string(),
            Value::String("amrbench".to_string()),
        ),
        ("seconds".to_string(), serde_json::to_value(&seconds)),
        // Every wall-clock number depends on this.
        (
            "available_parallelism".to_string(),
            serde_json::to_value(&(threads as u64)),
        ),
        (
            "runs".to_string(),
            Value::Array(reports.iter().map(WorkloadReport::to_value).collect()),
        ),
    ])
}
