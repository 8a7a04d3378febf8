//! Golden pin of the experiment compiler's output: every cell of every
//! spec the repo ships, one line per cell — label, content key, solo
//! key, tenancy, storage and canonical coordinates — compared against
//! `tests/fixtures/spec_cells.txt`.
//!
//! The fixture was generated by this file's `render()` at the commit
//! named in its header — the last one where `ExperimentSpec::compile`
//! walked the matrix itself — and is committed unchanged, so a pass
//! means `io_engine::grammar::Matrix` expands every spec to the same
//! cells: labels already persisted in results stores stay addressable
//! and the golden digests keyed on `SpecCell::key` hold.

use amr_proxy_io::amrproxy::{
    table3_campaign, CastroSedovConfig, Engine, ExperimentSpec, Layout, RunMode, Scenario,
    StorageProfile,
};
use amr_proxy_io::io_engine::{BackendSpec, CodecSpec, ReadSelection};
use std::fmt::Write as _;

const FIXTURE: &str = include_str!("fixtures/spec_cells.txt");

/// The spec files pinned, relative to the workspace root (the two
/// `amrbench/workloads` files are read, never modified).
const SPEC_FILES: [&str; 9] = [
    "specs/analysis.toml",
    "specs/backend_matrix.toml",
    "specs/ladder.toml",
    "specs/restart.toml",
    "specs/scenarios.toml",
    "specs/smoke.toml",
    "specs/streaming.toml",
    "amrbench/workloads/machine_room.toml",
    "amrbench/workloads/wide_resume.toml",
];

/// Two bases, as the legacy `*_sweep` callers passed them.
fn bases() -> Vec<CastroSedovConfig> {
    ["m", "m1"]
        .iter()
        .map(|name| CastroSedovConfig {
            name: name.to_string(),
            engine: Engine::Oracle,
            n_cell: 32,
            max_step: 4,
            plot_int: 2,
            nprocs: 2,
            account_only: true,
            ..Default::default()
        })
        .collect()
}

/// The five pre-spec sweep families of `tests/proptests_spec.rs`, on
/// fixed inputs that include both lossy-tag collisions.
fn legacy_families() -> Vec<(&'static str, ExperimentSpec)> {
    let bases = bases();
    let backends = [
        BackendSpec::FilePerProcess,
        BackendSpec::Aggregated(1),
        BackendSpec::Aggregated(4),
        BackendSpec::Aggregated(16),
        BackendSpec::Deferred(1),
    ];
    let codecs = [
        CodecSpec::Identity,
        CodecSpec::Rle(2.0),
        CodecSpec::Rle(2.5),
        CodecSpec::LossyQuant(8),
    ];
    let patterns = [
        ReadSelection::Level(1),
        ReadSelection::Field("Cell".to_string()),
        ReadSelection::parse("box:0-1,0-2").unwrap(),
        ReadSelection::Field("a.b".to_string()),
        ReadSelection::Field("a/b".to_string()),
    ];
    let scenarios: Vec<Scenario> = [
        "write",
        "write;restart",
        "write;fail@2;restart",
        "write;check@2;fail@2;restart",
        "write;analyze_every:2:level:1",
    ]
    .iter()
    .map(|s| Scenario::parse(s).unwrap())
    .collect();
    vec![
        (
            "legacy/backend",
            ExperimentSpec::over("b", &bases).backends(&backends),
        ),
        (
            "legacy/backend_codec",
            ExperimentSpec::over("bc", &bases)
                .backends(&backends)
                .codecs(&codecs),
        ),
        (
            "legacy/restart",
            ExperimentSpec::over("r", &bases)
                .backends(&backends)
                .codecs(&codecs)
                .modes(&[RunMode::Write, RunMode::Restart]),
        ),
        (
            "legacy/analysis",
            ExperimentSpec::over("a", &bases)
                .backends(&backends[..2])
                .codecs(&codecs[2..])
                .patterns(&patterns)
                .layouts(&[Layout::Raw, Layout::Reorg]),
        ),
        (
            "legacy/scenario",
            ExperimentSpec::over("s", &bases).scenarios(&scenarios),
        ),
    ]
}

fn render() -> String {
    let root = env!("CARGO_MANIFEST_DIR");
    let mut specs: Vec<(&str, ExperimentSpec)> = SPEC_FILES
        .iter()
        .map(|path| {
            let spec = ExperimentSpec::load(format!("{root}/{path}"))
                .unwrap_or_else(|e| panic!("{path}: {e}"));
            let stem = path.rsplit('/').next().expect("split yields one item");
            (stem.trim_end_matches(".toml"), spec)
        })
        .collect();
    specs.push((
        "table3_campaign x summit:1",
        ExperimentSpec::over("table3", &table3_campaign())
            .storages(&[StorageProfile::Summit { scale: 1.0 }]),
    ));
    specs.extend(legacy_families());

    let mut out = String::new();
    for (name, spec) in specs {
        let cells = spec.compile().unwrap_or_else(|e| panic!("{name}: {e}"));
        for cell in cells {
            let coords: Vec<String> = cell
                .coords
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            writeln!(
                out,
                "{name}\t{}\t{}\t{}\t{}\t{}\t{}",
                cell.config.name,
                cell.key,
                cell.solo_key,
                cell.tenants,
                cell.storage.map_or("-".to_string(), |s| s.name()),
                coords.join(" | ")
            )
            .unwrap();
        }
    }
    out
}

#[test]
fn every_shipped_spec_compiles_to_the_pinned_cells() {
    let golden: Vec<&str> = FIXTURE.lines().filter(|l| !l.starts_with('#')).collect();
    let rendered = render();
    let actual: Vec<&str> = rendered.lines().collect();
    for (i, (want, got)) in golden.iter().zip(&actual).enumerate() {
        assert_eq!(got, want, "cell line {i} drifted");
    }
    assert_eq!(actual.len(), golden.len(), "cell count drifted");
}

/// Prints the fixture body (`cargo test --test spec_cells -- --ignored
/// --nocapture print_fixture_body`); see the fixture's header before
/// using it.
#[test]
#[ignore = "prints the fixture body; not a check"]
fn print_fixture_body() {
    print!("{}", render());
}
