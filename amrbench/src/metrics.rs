//! The declared measurement contract: workloads, end-to-end metrics,
//! workload details and per-layer metrics, by name.
//!
//! `BENCHMARK.json` at the repository root repeats the workload,
//! end-to-end and per-layer names for the benchmark driver;
//! `tests/benchmark_contract.rs` holds the two to each other and to what
//! a run really prints. What `BENCHMARK.json` cannot say — which
//! end-to-end metric on which workload a per-layer metric is predicted
//! to move — lives here and is printed by `amrbench list`.

/// Direction in which a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload: its name is the contract, `why` is why it exists.
pub struct WorkloadDecl {
    /// Workload name.
    pub name: &'static str,
    /// One line: what it exercises and what it bypasses.
    pub why: &'static str,
}

/// The six workloads.
pub const WORKLOADS: [WorkloadDecl; 6] = [
    WorkloadDecl {
        name: "table3_hydro",
        why: "the Table III hydro cells n32 and n64: the MUSCL-HLLC solve is over 90% of the host time; I/O-layer work must show nothing here",
    },
    WorkloadDecl {
        name: "table3_oracle",
        why: "the 31 Table III oracle cells at paper-scale rank counts, no solver: plotfile+io-engine accounting, iosim bursts and the core driver carry the time",
    },
    WorkloadDecl {
        name: "proxy_pipeline",
        why: "the paper's Fig. 1 loop on the two Fig. 10 corners: AMR run, translate, calibrate, real MACSio marshal; carries the proxy accuracy so a faster wrong answer is caught",
    },
    WorkloadDecl {
        name: "engine_matrix",
        why: "real bytes through codec stage, four backends and the Vfs, written and read back; bypasses the solver, the specs and the store",
    },
    WorkloadDecl {
        name: "machine_room",
        why: "15 throughput cells on one shared fabric (2-32 tenants): event core, clone groups, solo memo and executor chains; bypasses solver, codecs and store reads",
    },
    WorkloadDecl {
        name: "wide_resume",
        why: "2000 tiny cells, then resume, reopen and query the store: fixed per-cell cost and the store read three ways beside being written",
    },
];

/// A metric a user of the system sees; every workload reports every one.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median it may worsen by before a change
    /// counts as a regression.
    pub bound: f64,
    /// Definition.
    pub what: &'static str,
}

/// Regression bound of every host metric. On the 2-core sandbox this
/// benchmark was written on, ten runs of one workload spread
/// (interquartile range over median) by 2.5-10.5% with the machine
/// otherwise idle and by up to 23% with anything else running on it,
/// and set medians drift by up to 8% (README, "Spread"). Longer runs do
/// not remove noise that lasts longer than a run, so the bound is the
/// widest the contract allows rather than the 0.10 the issue started
/// from.
pub const TIMING_BOUND: f64 = 0.25;

/// The end-to-end metrics. All are **host** quantities.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: TIMING_BOUND,
        what: "median host seconds of one timed pass (one cycle, for wide_resume)",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: TIMING_BOUND,
        what: "smallest per-pass peak resident set of the process (VmHWM, reset before each timed pass)",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: TIMING_BOUND,
        what: "median host seconds of one set-up (build specs and configs, parse goldens, make the store directory), before the warm-up",
    },
];

/// A workload-specific number of the untraced run: printed and compared
/// by `amrbench compare`, but outside `BENCHMARK.json`, whose end-to-end
/// metrics must exist on every workload.
pub struct Detail {
    /// Metric name.
    pub name: &'static str,
    /// The one workload that reports it.
    pub workload: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound as a share of the base median; 0 means the
    /// value is simulated or derived from simulated values and must
    /// repeat exactly.
    pub bound: f64,
    /// Definition.
    pub what: &'static str,
}

/// Workload details (see [`Detail`]).
pub const DETAILS: [Detail; 8] = [
    Detail {
        name: "write_mb_per_s",
        workload: "engine_matrix",
        unit: "MB/s",
        better: Better::Higher,
        bound: TIMING_BOUND,
        what: "logical MB written per host second over the write-only runs",
    },
    Detail {
        name: "write_read_mb_per_s",
        workload: "engine_matrix",
        unit: "MB/s",
        better: Better::Higher,
        bound: TIMING_BOUND,
        what: "logical MB written plus read back per host second over the write;readall runs",
    },
    Detail {
        name: "proxy_mape_pct",
        workload: "proxy_pipeline",
        unit: "%",
        better: Better::Lower,
        bound: 0.0,
        what: "largest Comparison::mape_percent over the corners (exact)",
    },
    Detail {
        name: "proxy_final_err_pct",
        workload: "proxy_pipeline",
        unit: "%",
        better: Better::Lower,
        bound: 0.0,
        what: "largest |Comparison::final_error| x 100 over the corners (exact)",
    },
    Detail {
        name: "execute_cells_per_s",
        workload: "wide_resume",
        unit: "cells/s",
        better: Better::Higher,
        bound: TIMING_BOUND,
        what: "cells per host second of the execute phase (run_spec into a fresh store)",
    },
    Detail {
        name: "resume_cells_per_s",
        workload: "wide_resume",
        unit: "cells/s",
        better: Better::Higher,
        bound: TIMING_BOUND,
        what: "cells per host second of one resume-only run_spec",
    },
    Detail {
        name: "open_rows_per_s",
        workload: "wide_resume",
        unit: "rows/s",
        better: Better::Higher,
        bound: TIMING_BOUND,
        what: "rows per host second of one cold ResultsStore::open",
    },
    Detail {
        name: "query_ms",
        workload: "wide_resume",
        unit: "ms",
        better: Better::Lower,
        bound: TIMING_BOUND,
        what: "host milliseconds of one query set (filter+group_mean, fit)",
    },
];

/// A metric of one layer, from the traced run.
pub struct PerLayer {
    /// Metric name, `<layer>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Predicted movement: a change that improves this metric should move
    /// end-to-end metric `.0` on workload `.1`. On every workload not
    /// listed the prediction is **no change**.
    pub moves: &'static [(&'static str, &'static str)],
}

const HYDRO: &[(&str, &str)] = &[("wall_s", "table3_hydro")];
const ORACLE: &[(&str, &str)] = &[("wall_s", "table3_oracle"), ("wall_s", "machine_room")];
const ORACLE_ONLY: &[(&str, &str)] = &[("wall_s", "table3_oracle")];
const ENGINE: &[(&str, &str)] = &[("wall_s", "engine_matrix")];
const ROOM: &[(&str, &str)] = &[("wall_s", "machine_room")];
const WIDE: &[(&str, &str)] = &[("wall_s", "wide_resume")];
const PROXY: &[(&str, &str)] = &[("wall_s", "proxy_pipeline")];
const MARSHAL: &[(&str, &str)] = &[("wall_s", "proxy_pipeline"), ("wall_s", "engine_matrix")];
const COMM: &[(&str, &str)] = &[("wall_s", "wide_resume"), ("wall_s", "table3_oracle")];
const RESIDUAL: &[(&str, &str)] = &[("wall_s", "table3_oracle"), ("wall_s", "wide_resume")];
const EXECUTOR: &[(&str, &str)] = &[
    ("wall_s", "machine_room"),
    ("wall_s", "table3_hydro"),
    ("wall_s", "table3_oracle"),
];
const CELLS: &[(&str, &str)] = &[
    ("wall_s", "table3_hydro"),
    ("wall_s", "table3_oracle"),
    ("wall_s", "machine_room"),
    ("wall_s", "wide_resume"),
];

const fn busy(name: &'static str, moves: &'static [(&'static str, &'static str)]) -> PerLayer {
    PerLayer {
        name,
        unit: "s",
        better: Better::Lower,
        moves,
    }
}

const fn work(
    name: &'static str,
    unit: &'static str,
    moves: &'static [(&'static str, &'static str)],
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        moves,
    }
}

/// The per-layer metrics. `*_busy_s` is summed span time of the named
/// call; the metric after it is the work that time bought.
pub const PER_LAYER: [PerLayer; 72] = [
    busy("hydro.amr_step_busy_s", HYDRO),
    work("hydro.amr_cell_updates", "count", HYDRO),
    busy("hydro.oracle_step_busy_s", ORACLE),
    work("hydro.oracle_steps", "count", ORACLE),
    busy("amr-mesh.cluster_busy_s", HYDRO),
    work("amr-mesh.cluster_tagged_cells", "count", HYDRO),
    busy("amr-mesh.distmap_busy_s", ORACLE_ONLY),
    work("amr-mesh.distmap_boxes", "count", ORACLE_ONLY),
    busy("plotfile.account_busy_s", ORACLE),
    work("plotfile.account_puts", "count", ORACLE),
    busy("io-engine.account_put_busy_s.fpp", ORACLE),
    busy("io-engine.account_put_busy_s.agg", ORACLE),
    busy("io-engine.account_put_busy_s.deferred", ORACLE),
    work("io-engine.account_puts", "count", ORACLE),
    busy("io-engine.put_busy_s.fpp", ENGINE),
    busy("io-engine.put_busy_s.agg", ENGINE),
    busy("io-engine.put_busy_s.deferred", ENGINE),
    busy("io-engine.put_busy_s.streaming", ENGINE),
    work("io-engine.put_mb", "MB", ENGINE),
    busy("io-engine.encode_busy_s.identity", ENGINE),
    busy("io-engine.encode_busy_s.rle", ENGINE),
    busy("io-engine.encode_busy_s.quant8", ENGINE),
    busy("io-engine.decode_busy_s.identity", ENGINE),
    busy("io-engine.decode_busy_s.rle", ENGINE),
    busy("io-engine.decode_busy_s.quant8", ENGINE),
    work("io-engine.codec_mb", "MB", ENGINE),
    busy("io-engine.read_step_busy_s.fpp", ENGINE),
    busy("io-engine.read_step_busy_s.agg", ENGINE),
    busy("io-engine.read_step_busy_s.deferred", ENGINE),
    busy("iosim.burst_busy_s", ORACLE_ONLY),
    work("iosim.burst_requests", "count", ORACLE_ONLY),
    busy("iosim.read_burst_busy_s", ENGINE),
    work("iosim.read_burst_requests", "count", ENGINE),
    busy("iosim.fabric_burst_busy_s.t2", ROOM),
    busy("iosim.fabric_burst_busy_s.t16", ROOM),
    work("iosim.fabric_bursts", "count", ROOM),
    busy("iosim.memfs_busy_s", ENGINE),
    work("iosim.memfs_mb", "MB", ENGINE),
    busy("iosim.tracker_busy_s", ORACLE_ONLY),
    work("iosim.tracker_records", "count", ORACLE_ONLY),
    busy("mpi-sim.comm_setup_busy_s", COMM),
    work("mpi-sim.comm_ranks", "count", COMM),
    busy("mpi-sim.rank_sweep_busy_s", ORACLE),
    work("mpi-sim.rank_sweeps", "count", ORACLE),
    busy("mpi-sim.link_send_busy_s", ENGINE),
    work("mpi-sim.link_sends", "count", ENGINE),
    busy("macsio.marshal_busy_s", MARSHAL),
    work("macsio.marshal_mb", "MB", MARSHAL),
    busy("macsio.run_busy_s", MARSHAL),
    work("macsio.runs", "count", MARSHAL),
    busy("model.calibrate_busy_s", PROXY),
    work("model.calibrate_evals", "count", PROXY),
    busy("model.fit_busy_s", WIDE),
    work("model.fit_points", "count", WIDE),
    // Simulated, exact: a change that moves wall_s on proxy_pipeline
    // must leave these two bit-identical.
    work("model.proxy_mape_pct", "%", PROXY),
    work("model.proxy_final_err_pct", "%", PROXY),
    busy("core.spec_compile_busy_s", WIDE),
    work("core.spec_cells", "count", WIDE),
    busy("core.phase_compile_busy_s", WIDE),
    busy("core.store_append_busy_s", WIDE),
    work("core.store_append_rows", "count", WIDE),
    busy("core.store_open_busy_s", WIDE),
    work("core.store_open_rows", "count", WIDE),
    busy("core.store_get_busy_s", WIDE),
    busy("core.store_query_busy_s", WIDE),
    work("core.store_query_rows", "count", WIDE),
    busy("core.run_cell_busy_s", CELLS),
    work("core.run_cells", "count", CELLS),
    busy("core.driver_residual_s", RESIDUAL),
    busy("core.serial_pass_s", EXECUTOR),
    PerLayer {
        name: "core.parallel_speedup",
        unit: "ratio",
        better: Better::Higher,
        moves: EXECUTOR,
    },
    // Root spans of the traced run against one untraced serial pass of
    // the same cells, minus one: what being traced costs.
    work("core.trace_overhead_pct", "%", CELLS),
];

/// True when `name` is made of the characters the contract allows.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64 && chars.next().is_some_and(|c| c.is_ascii_alphanumeric()) && chars.all(ok)
}

/// The `amrbench list` text.
pub fn list() -> String {
    let mut out = String::from("# workloads\n");
    for w in &WORKLOADS {
        out.push_str(&format!("{:<16} {}\n", w.name, w.why));
    }
    out.push_str("\n# end-to-end metrics (host; every workload reports each)\n");
    for m in &END_TO_END {
        out.push_str(&format!(
            "{:<16} {:<8} {:<7} bound {:<5} {}\n",
            m.name,
            m.unit,
            m.better.name(),
            m.bound,
            m.what
        ));
    }
    out.push_str("\n# workload details (untraced run; compared by `amrbench compare`)\n");
    for m in &DETAILS {
        out.push_str(&format!(
            "{:<22} {:<8} {:<7} bound {:<5} on {:<15} {}\n",
            m.name,
            m.unit,
            m.better.name(),
            m.bound,
            m.workload,
            m.what
        ));
    }
    out.push_str("\n# per-layer metrics (traced run; no bound) -> predicted to move\n");
    for m in &PER_LAYER {
        let moves: Vec<String> = m
            .moves
            .iter()
            .map(|(metric, workload)| format!("{metric} on {workload}"))
            .collect();
        out.push_str(&format!(
            "{:<40} {:<6} {:<7} -> {}\n",
            m.name,
            m.unit,
            m.better.name(),
            moves.join(", ")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_valid_and_unique() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(DETAILS.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} declared twice");
        }
        assert!(!valid_name("") && !valid_name("-x") && !valid_name("a b"));
    }

    #[test]
    fn every_per_layer_metric_names_what_it_should_move() {
        for m in &PER_LAYER {
            assert!(!m.moves.is_empty(), "{} predicts nothing", m.name);
            for (metric, workload) in m.moves {
                assert!(
                    END_TO_END.iter().any(|e| e.name == *metric),
                    "{}: unknown end-to-end metric {metric}",
                    m.name
                );
                assert!(
                    WORKLOADS.iter().any(|w| w.name == *workload),
                    "{}: unknown workload {workload}",
                    m.name
                );
            }
        }
    }

    #[test]
    fn details_belong_to_declared_workloads_and_bounds_are_in_range() {
        for d in &DETAILS {
            assert!(WORKLOADS.iter().any(|w| w.name == d.workload), "{}", d.name);
            assert!((0.0..=0.25).contains(&d.bound));
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(list().contains("core.parallel_speedup"));
    }
}
