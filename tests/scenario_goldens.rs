//! Golden pin of the scenario plane's simulated clock, for both
//! workloads that run on it: every statistic the phase driver produces
//! for a MACSio run and for an oracle Castro-Sedov run, across the
//! scenario grammar × four backends × two codecs on
//! `StorageModel::summit_alpine`, compared against
//! `tests/fixtures/scenario_goldens.txt`.
//!
//! The fixture was generated by this file's `render()` at the commit
//! named in its header — the last one with two separate interpreters
//! (`core::driver` and `macsio::dump`) — and is committed unchanged, so
//! a pass means the one shared driver reproduces both. Floats are stored
//! as bit patterns and compared exactly, except MACSio's `read_wall` /
//! `codec_seconds` (report columns summed per read class now, in program
//! order then) and a MACSio fabric tenant's `solo_wall`, which are held
//! to 1e-12 relative.

use amr_proxy_io::amrproxy::{
    try_run_simulation_attached, CastroSedovConfig, Engine, RunResult, Scenario,
};
use amr_proxy_io::io_engine::{BackendSpec, CodecSpec, ReadSelection};
use amr_proxy_io::iosim::{
    block_on, BurstTimeline, Fabric, IoTracker, MemFs, StorageAttach, StorageModel,
};
use amr_proxy_io::macsio::{self, MacsioConfig, MacsioReport};
use std::fmt::Write as _;

const FIXTURE: &str = include_str!("fixtures/scenario_goldens.txt");

const SCENARIOS: [&str; 6] = [
    "write",
    "write;restart",
    "write;readall",
    "write;fail@2;restart",
    "write;analyze_every:2:level:0",
    "write;fail@3;restart;analyze:level:0",
];

/// AMR-only programs: the checkpoint plane and the reorganized layout.
const AMR_SCENARIOS: [&str; 3] = [
    "write;check@4;fail@6;restart",
    "write;check@4;analyze_every:2:level:1,reorg",
    "write;restart;analyze:level:0,reorg",
];

const BACKENDS: [&str; 4] = ["fpp", "agg:2", "deferred", "streaming"];

fn codecs() -> [CodecSpec; 2] {
    [CodecSpec::Identity, CodecSpec::Rle(2.0)]
}

fn storage() -> StorageModel {
    StorageModel::summit_alpine(0.05)
}

fn macsio_cfg(scenario: &str, backend: &str, codec: CodecSpec) -> MacsioConfig {
    MacsioConfig {
        nprocs: 4,
        num_dumps: 4,
        part_size: 256 * 1024,
        dataset_growth: 1.05,
        compute_time: 2e-4,
        io_backend: BackendSpec::parse(backend).unwrap(),
        compression: codec,
        scenario: Some(Scenario::parse(scenario).unwrap()),
        ..Default::default()
    }
}

fn amr_cfg(scenario: &str, backend: &str, codec: CodecSpec) -> CastroSedovConfig {
    CastroSedovConfig {
        name: "golden".into(),
        engine: Engine::Oracle,
        n_cell: 64,
        max_level: 2,
        max_step: 8,
        plot_int: 2,
        nprocs: 4,
        account_only: true,
        compute_ns_per_cell: 50.0,
        backend: BackendSpec::parse(backend).unwrap(),
        codec,
        scenario: Some(Scenario::parse(scenario).unwrap()),
        ..Default::default()
    }
}

fn bits(x: f64) -> String {
    format!("{:#018x}", x.to_bits())
}

fn bursts(t: &BurstTimeline) -> String {
    let all: Vec<String> = t
        .bursts()
        .iter()
        .map(|b| {
            format!(
                "{}:{}:{}:{}",
                b.step,
                bits(b.t_start),
                bits(b.t_end),
                b.bytes
            )
        })
        .collect();
    format!("[{}]", all.join(","))
}

fn macsio_line(id: &str, r: std::io::Result<MacsioReport>) -> String {
    let r = match r {
        Ok(r) => r,
        Err(e) => return format!("{id} err={:?}", e.kind()),
    };
    let per_dump: Vec<String> = r.bytes_per_dump.iter().map(u64::to_string).collect();
    format!(
        "{id} scenario={} wall_time={} restarts={} total_bytes={} logical_bytes={} \
         overhead_bytes={} files_written={} bytes_per_dump=[{}] read_bytes={} \
         physical_read_bytes={} read_files={} net_bytes={} net_seconds={} window_stall={} \
         read_wall={} codec_seconds={} timeline={}",
        r.scenario,
        bits(r.wall_time),
        r.restarts,
        r.total_bytes,
        r.logical_bytes,
        r.overhead_bytes,
        r.files_written,
        per_dump.join(","),
        r.read_bytes,
        r.physical_read_bytes,
        r.read_files,
        r.net_bytes,
        bits(r.net_seconds),
        bits(r.window_stall),
        bits(r.read_wall),
        bits(r.codec_seconds),
        bursts(&r.timeline),
    )
}

fn amr_line(id: &str, r: std::io::Result<RunResult>) -> String {
    let r = match r {
        Ok(r) => r,
        Err(e) => return format!("{id} err={:?}", e.kind()),
    };
    format!(
        "{id} scenario={} wall_time={} outputs={} steps={} restarts={} files_written={} \
         physical_bytes={} logical_bytes={} overhead_bytes={} check_bytes={} check_files={} \
         read_bytes={} physical_read_bytes={} read_files={} selective_read_bytes={} \
         selective_physical_read_bytes={} selective_read_files={} reorg_bytes={} net_bytes={} \
         tracker_bytes={} tracker_read_bytes={} codec_seconds={} check_wall={} read_wall={} \
         selective_read_wall={} reorg_wall={} compute_wall={} plot_wall={} drain_wall={} \
         net_wall={} window_stall={} timeline={}",
        r.config.effective_scenario().name(),
        bits(r.totals.wall_time),
        r.totals.outputs,
        r.steps.len(),
        r.totals.restarts,
        r.totals.engine.files,
        r.totals.engine.bytes,
        r.totals.engine.logical_bytes,
        r.totals.engine.overhead_bytes,
        r.totals.check_bytes,
        r.totals.check_files,
        r.totals.restart.bytes,
        r.totals.restart.physical_bytes,
        r.totals.restart.files,
        r.totals.analysis.bytes,
        r.totals.analysis.physical_bytes,
        r.totals.analysis.files,
        r.totals.reorg_bytes,
        r.totals.net_bytes,
        r.tracker.total_bytes(),
        r.tracker.total_read_bytes(),
        bits(r.totals.all_codec_seconds()),
        bits(r.totals.check_wall),
        bits(r.totals.restart.wall),
        bits(r.totals.analysis.wall),
        bits(r.totals.reorg_wall),
        bits(r.totals.compute_wall),
        bits(r.totals.plot_wall),
        bits(r.totals.drain_wall),
        bits(r.totals.net_wall),
        bits(r.totals.window_stall),
        bursts(&r.totals.timeline),
    )
}

fn run_macsio(cfg: &MacsioConfig, attach: StorageAttach<'_>) -> std::io::Result<MacsioReport> {
    let fs = MemFs::new();
    let tracker = IoTracker::new();
    block_on(macsio::dump::run_attached(cfg, &fs, &tracker, attach))
}

fn run_amr(cfg: &CastroSedovConfig, attach: StorageAttach<'_>) -> std::io::Result<RunResult> {
    block_on(try_run_simulation_attached(cfg, None, attach))
}

/// One solo tenant on a fabric: the run's line plus the tenant's walls.
fn fabric_suffix(fabric: &Fabric) -> String {
    let stats = &fabric.tenant_stats()[0];
    format!(
        " shared_wall={} solo_wall={}",
        bits(stats.shared_wall),
        bits(stats.solo_wall)
    )
}

/// Every golden line, in fixture order.
fn render() -> String {
    let model = storage();
    let mut out = String::new();
    for codec in codecs() {
        for backend in BACKENDS {
            for scenario in SCENARIOS {
                let id = format!("macsio/{backend}/{}/{scenario}", codec.name());
                let cfg = macsio_cfg(scenario, backend, codec);
                let r = run_macsio(&cfg, StorageAttach::Model(&model));
                writeln!(out, "{}", macsio_line(&id, r)).unwrap();
            }
            for scenario in SCENARIOS.iter().chain(&AMR_SCENARIOS) {
                let id = format!("amr/{backend}/{}/{scenario}", codec.name());
                let cfg = amr_cfg(scenario, backend, codec);
                let r = run_amr(&cfg, StorageAttach::Model(&model));
                writeln!(out, "{}", amr_line(&id, r)).unwrap();
            }
        }
    }
    // `restart`/`readall` fetch MACSio's configured read pattern.
    for backend in BACKENDS {
        for scenario in [
            "write;restart",
            "write;readall",
            "write;fail@2;restart;restart",
        ] {
            let id = format!("macsio-box/{backend}/identity/{scenario}");
            let mut cfg = macsio_cfg(scenario, backend, CodecSpec::Identity);
            cfg.read_pattern = ReadSelection::parse("box:0,0-1").unwrap();
            let r = run_macsio(&cfg, StorageAttach::Model(&model));
            writeln!(out, "{}", macsio_line(&id, r)).unwrap();
        }
    }
    // Untimed runs: only codec CPU moves the clock.
    for scenario in SCENARIOS {
        let id = format!("macsio-untimed/fpp/rle:2/{scenario}");
        let cfg = macsio_cfg(scenario, "fpp", CodecSpec::Rle(2.0));
        writeln!(
            out,
            "{}",
            macsio_line(&id, run_macsio(&cfg, StorageAttach::None))
        )
        .unwrap();
        let id = format!("amr-untimed/fpp/rle:2/{scenario}");
        let cfg = amr_cfg(scenario, "fpp", CodecSpec::Rle(2.0));
        let r = run_amr(&cfg, StorageAttach::None);
        writeln!(out, "{}", amr_line(&id, r)).unwrap();
    }
    // One solo tenant on a shared fabric: the shadow's solo wall.
    for backend in ["fpp", "deferred"] {
        let scenario = "write;fail@2;restart";
        let fabric = Fabric::new(model);
        let cfg = macsio_cfg(scenario, backend, CodecSpec::Identity);
        let r = run_macsio(&cfg, StorageAttach::Fabric(fabric.tenant("solo")));
        let id = format!("macsio-fabric/{backend}/identity/{scenario}");
        writeln!(out, "{}{}", macsio_line(&id, r), fabric_suffix(&fabric)).unwrap();

        let fabric = Fabric::new(model);
        let cfg = amr_cfg(scenario, backend, CodecSpec::Identity);
        let attach = StorageAttach::Fabric(fabric.tenant("solo"));
        let r = run_amr(&cfg, attach);
        let id = format!("amr-fabric/{backend}/identity/{scenario}");
        writeln!(out, "{}{}", amr_line(&id, r), fabric_suffix(&fabric)).unwrap();
    }
    out
}

/// Whether `key` of a `side` line is a report column compared to 1e-12
/// relative instead of bit for bit (see the module docs).
fn tolerant(side: &str, key: &str) -> bool {
    side.starts_with("macsio") && matches!(key, "read_wall" | "codec_seconds" | "solo_wall")
}

fn from_bits(v: &str) -> f64 {
    let hex = v
        .strip_prefix("0x")
        .expect("float fields are hex bit patterns");
    f64::from_bits(u64::from_str_radix(hex, 16).expect("hex bits"))
}

#[test]
fn one_driver_reproduces_both_parent_interpreters() {
    let golden: Vec<&str> = FIXTURE.lines().filter(|l| !l.starts_with('#')).collect();
    let rendered = render();
    let now: Vec<&str> = rendered.lines().collect();
    assert_eq!(golden.len(), now.len(), "case count changed");
    assert!(golden.len() > 100, "fixture lost cases: {}", golden.len());
    let mut failures = Vec::new();
    for (want, got) in golden.iter().zip(&now) {
        let (id, _) = want.split_once(' ').expect("case id");
        let side = id.split('/').next().unwrap();
        let want_fields: Vec<&str> = want.split(' ').collect();
        let got_fields: Vec<&str> = got.split(' ').collect();
        if want_fields.len() != got_fields.len() {
            failures.push(format!("{id}: shape changed\n  want {want}\n  got  {got}"));
            continue;
        }
        for (w, g) in want_fields.iter().zip(&got_fields) {
            if w == g {
                continue;
            }
            let close = match (w.split_once('='), g.split_once('=')) {
                (Some((wk, wv)), Some((gk, gv))) if wk == gk && tolerant(side, wk) => {
                    let (a, b) = (from_bits(wv), from_bits(gv));
                    (a - b).abs() <= 1e-12 * a.abs().max(b.abs())
                }
                _ => false,
            };
            if !close {
                failures.push(format!("{id}: want {w}, got {g}"));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} mismatches:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
