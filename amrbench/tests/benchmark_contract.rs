//! Holds `BENCHMARK.json`, `amrbench::metrics` and what `amrbench`
//! really prints to each other.

use amrbench::metrics::{valid_name, DETAILS, END_TO_END, PER_LAYER, WORKLOADS};
use serde::Value;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is over 64 KiB");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(doc: &'a Value, key: &str) -> &'a Vec<Value> {
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no '{key}' list"))
}

fn keys(v: &Value) -> BTreeSet<&str> {
    v.as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("no string '{key}' in {v:?}"))
}

#[test]
fn benchmark_json_declares_exactly_what_metrics_rs_declares() {
    let doc = benchmark_json();
    assert_eq!(
        keys(&doc),
        BTreeSet::from([
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ])
    );

    let workloads = entries(&doc, "workloads");
    assert!((2..=8).contains(&workloads.len()));
    let declared: Vec<(&str, &str)> = workloads
        .iter()
        .map(|w| {
            assert_eq!(keys(w), BTreeSet::from(["name", "why"]));
            (text(w, "name"), text(w, "why"))
        })
        .collect();
    let expected: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(declared, expected);
    for (name, why) in declared {
        assert!(valid_name(name), "{name}");
        assert!(why.len() <= 200 && !why.contains('\n'), "{name}: why");
    }

    let e2e = entries(&doc, "end_to_end");
    assert!((1..=16).contains(&e2e.len()));
    let declared: Vec<(&str, &str, &str, f64)> = e2e
        .iter()
        .map(|m| {
            assert_eq!(keys(m), BTreeSet::from(["name", "unit", "better", "bound"]));
            let bound = m.get("bound").and_then(Value::as_f64).expect("a bound");
            (text(m, "name"), text(m, "unit"), text(m, "better"), bound)
        })
        .collect();
    let expected: Vec<(&str, &str, &str, f64)> = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better.name(), m.bound))
        .collect();
    assert_eq!(declared, expected);
    for (name, unit, _, bound) in declared {
        assert!(valid_name(name) && unit.len() <= 16, "{name}");
        assert!(bound > 0.0 && bound <= 0.25, "{name}: bound {bound}");
    }
    let setup = e2e
        .iter()
        .find(|m| text(m, "name") == "setup_s")
        .expect("setup_s");
    assert_eq!((text(setup, "unit"), text(setup, "better")), ("s", "lower"));

    let per_layer = entries(&doc, "per_layer");
    assert!((1..=128).contains(&per_layer.len()));
    let declared: Vec<(&str, &str, &str)> = per_layer
        .iter()
        .map(|m| {
            assert_eq!(keys(m), BTreeSet::from(["name", "unit", "better"]));
            (text(m, "name"), text(m, "unit"), text(m, "better"))
        })
        .collect();
    let expected: Vec<(&str, &str, &str)> = PER_LAYER
        .iter()
        .map(|m| (m.name, m.unit, m.better.name()))
        .collect();
    assert_eq!(declared, expected);
    assert!(declared.iter().all(|(name, _, _)| valid_name(name)));

    // A name is used once across the whole file.
    let mut all = BTreeSet::new();
    for list in ["workloads", "end_to_end", "per_layer"] {
        for entry in entries(&doc, list) {
            assert!(
                all.insert(text(entry, "name")),
                "{} twice",
                text(entry, "name")
            );
        }
    }
}

#[test]
fn command_and_paths_stay_inside_the_benchmark_directory() {
    let doc = benchmark_json();
    let paths: Vec<&str> = entries(&doc, "paths")
        .iter()
        .map(|p| p.as_str().expect("a path"))
        .collect();
    assert_eq!(paths, ["amrbench"]);
    let command: Vec<&str> = entries(&doc, "command")
        .iter()
        .map(|p| p.as_str().expect("an argument"))
        .collect();
    assert!(command.len() <= 32);
    for arg in &command {
        assert!(
            arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."),
            "{arg}"
        );
        if arg.contains('/') {
            assert!(
                arg.starts_with("amrbench/"),
                "{arg} names a file outside paths"
            );
        }
    }
    let seconds = doc
        .get("run_seconds")
        .and_then(Value::as_u64)
        .expect("run_seconds");
    assert!((1..=60).contains(&seconds));
    // 4 + 22 x workloads runs and two builds must fit the driver's budget.
    let runs = 4 + 22 * WORKLOADS.len() as u64;
    assert!(runs * (seconds + 8) < 3420, "{runs} runs of {seconds}+8 s");
}

/// Runs `amrbench --workload <name> --quick --trace <0|1>` and returns
/// the metric names of its last line.
fn printed_metrics(workload: &str, traced: bool) -> BTreeSet<String> {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("contract_{workload}_{traced}"));
    let output = Command::new(env!("CARGO_BIN_EXE_amrbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0",
            "--quick",
        ])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&out)
        .output()
        .expect("amrbench runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} traced={traced} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last: Value = serde_json::from_str(stdout.trim_end().lines().last().expect("a last line"))
        .expect("the last line is JSON");
    assert_eq!(
        keys(&last),
        BTreeSet::from(["correct", "attempted", "failed", "metrics"])
    );
    assert_eq!(last.get("correct").and_then(Value::as_bool), Some(true));
    assert_eq!(last.get("failed").and_then(Value::as_u64), Some(0));
    assert!(
        last.get("attempted")
            .and_then(Value::as_u64)
            .expect("attempted")
            >= 1
    );
    let metrics = last
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics");
    for (name, m) in metrics {
        assert_eq!(keys(m), BTreeSet::from(["value", "unit"]), "{name}");
        assert!(m
            .get("value")
            .and_then(Value::as_f64)
            .expect("a value")
            .is_finite());
        // Every metric is also printed as `workload metric value unit`.
        let line = format!("{workload} {name} ");
        assert!(
            stdout.lines().any(|l| l.starts_with(&line)),
            "no text line for {name}"
        );
    }
    if traced {
        assert!(out.join(format!("trace_{workload}.json")).exists());
        assert!(out.join(format!("layers_{workload}.txt")).exists());
    } else {
        for d in DETAILS.iter().filter(|d| d.workload == workload) {
            let line = format!("{workload} {} ", d.name);
            assert!(
                stdout.lines().any(|l| l.starts_with(&line)),
                "no detail {}",
                d.name
            );
        }
    }
    std::fs::remove_dir_all(&out).expect("the run's --out directory");
    metrics.iter().map(|(name, _)| name.clone()).collect()
}

fn printed_equals_declared(workload: &str) {
    let e2e: BTreeSet<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
    assert_eq!(printed_metrics(workload, false), e2e, "{workload} untraced");
    let per_layer: BTreeSet<String> = PER_LAYER.iter().map(|m| m.name.to_string()).collect();
    assert_eq!(
        printed_metrics(workload, true),
        per_layer,
        "{workload} traced"
    );
}

// One test per workload, so they run side by side.
#[test]
fn table3_hydro_prints_the_declared_metrics() {
    printed_equals_declared("table3_hydro");
}

#[test]
fn table3_oracle_prints_the_declared_metrics() {
    printed_equals_declared("table3_oracle");
}

#[test]
fn proxy_pipeline_prints_the_declared_metrics() {
    printed_equals_declared("proxy_pipeline");
}

#[test]
fn engine_matrix_prints_the_declared_metrics() {
    printed_equals_declared("engine_matrix");
}

#[test]
fn machine_room_prints_the_declared_metrics() {
    printed_equals_declared("machine_room");
}

#[test]
fn wide_resume_prints_the_declared_metrics() {
    printed_equals_declared("wide_resume");
}

#[test]
fn an_unknown_workload_exits_non_zero_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_amrbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("amrbench runs");
    assert!(!output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(!stdout.contains("\"correct\""), "{stdout}");
}
