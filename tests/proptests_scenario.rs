//! Property tests for the scenario plane's compatibility contract: every
//! legacy boolean-axis configuration (`read_after_write`,
//! `analysis_read`, `reorganize`, `check_int`) and the *same* config
//! with its compiled `Scenario` set explicitly produce byte- and
//! wall-identical `RunResult`s — across the three backends, with and
//! without a storage model. The booleans are deprecated spelling, not a
//! second code path.

use amr_proxy_io::amrproxy::{
    run_campaign_serial, run_campaign_timed_serial, run_simulation, CastroSedovConfig, Engine,
    RunResult,
};
use amr_proxy_io::io_engine::{BackendSpec, CodecSpec, ReadSelection};
use amr_proxy_io::iosim::StorageModel;
use proptest::prelude::*;

/// One legacy boolean-axis point.
#[derive(Clone, Debug)]
struct LegacyAxes {
    backend: BackendSpec,
    codec: CodecSpec,
    check_int: u64,
    read_after_write: bool,
    analysis_read: Option<ReadSelection>,
    reorganize: bool,
    timed: bool,
}

fn arb_axes() -> impl Strategy<Value = LegacyAxes> {
    (
        prop_oneof![
            Just(BackendSpec::FilePerProcess),
            Just(BackendSpec::Aggregated(2)),
            Just(BackendSpec::Deferred(1)),
        ],
        prop_oneof![Just(CodecSpec::Identity), Just(CodecSpec::Rle(2.0))],
        prop_oneof![Just(0u64), Just(3), Just(4)],
        prop_oneof![Just(false), Just(true)],
        prop_oneof![
            Just(None),
            Just(Some(ReadSelection::Level(1))),
            Just(Some(ReadSelection::Field("Cell".to_string()))),
            Just(Some(ReadSelection::parse("box:0-1,0-2").unwrap())),
        ],
        prop_oneof![Just(false), Just(true)],
        prop_oneof![Just(false), Just(true)],
    )
        .prop_map(
            |(backend, codec, check_int, read_after_write, analysis_read, reorganize, timed)| {
                LegacyAxes {
                    backend,
                    codec,
                    check_int,
                    read_after_write,
                    analysis_read,
                    reorganize,
                    timed,
                }
            },
        )
}

fn base_config(axes: &LegacyAxes) -> CastroSedovConfig {
    CastroSedovConfig {
        name: "compat".into(),
        engine: Engine::Oracle,
        n_cell: 64,
        max_level: 2,
        max_step: 8,
        plot_int: 2,
        nprocs: 4,
        account_only: true,
        compute_ns_per_cell: 40_000.0,
        backend: axes.backend,
        codec: axes.codec,
        check_int: axes.check_int,
        read_after_write: axes.read_after_write,
        analysis_read: axes.analysis_read.clone(),
        reorganize: axes.reorganize,
        ..Default::default()
    }
}

/// Byte- and wall-identity of two runs: tracker planes, every byte and
/// file column, every wall column, and the burst timeline.
fn assert_identical(a: &RunResult, b: &RunResult) {
    assert_eq!(a.tracker.export(), b.tracker.export(), "write plane");
    assert_eq!(a.tracker.export_reads(), b.tracker.export_reads(), "reads");
    assert_eq!(a.totals.outputs, b.totals.outputs);
    assert_eq!(a.totals.restarts, b.totals.restarts);
    assert_eq!(a.totals.engine.files, b.totals.engine.files);
    assert_eq!(a.totals.engine.bytes, b.totals.engine.bytes);
    assert_eq!(a.totals.engine.logical_bytes, b.totals.engine.logical_bytes);
    assert_eq!(
        a.totals.engine.overhead_bytes,
        b.totals.engine.overhead_bytes
    );
    assert_eq!(a.totals.check_bytes, b.totals.check_bytes);
    assert_eq!(a.totals.check_files, b.totals.check_files);
    assert_eq!(a.totals.restart.bytes, b.totals.restart.bytes);
    assert_eq!(
        a.totals.restart.physical_bytes,
        b.totals.restart.physical_bytes
    );
    assert_eq!(a.totals.restart.files, b.totals.restart.files);
    assert_eq!(a.totals.analysis.bytes, b.totals.analysis.bytes);
    assert_eq!(
        a.totals.analysis.physical_bytes,
        b.totals.analysis.physical_bytes
    );
    assert_eq!(a.totals.analysis.files, b.totals.analysis.files);
    assert_eq!(a.totals.reorg_bytes, b.totals.reorg_bytes);
    // Wall identity is exact: the same phase program executes the same
    // clock operations in the same order.
    assert_eq!(a.totals.wall_time, b.totals.wall_time, "wall");
    assert_eq!(a.totals.compute_wall, b.totals.compute_wall);
    assert_eq!(a.totals.plot_wall, b.totals.plot_wall);
    assert_eq!(a.totals.check_wall, b.totals.check_wall);
    assert_eq!(a.totals.restart.wall, b.totals.restart.wall);
    assert_eq!(a.totals.analysis.wall, b.totals.analysis.wall);
    assert_eq!(a.totals.reorg_wall, b.totals.reorg_wall);
    assert_eq!(a.totals.drain_wall, b.totals.drain_wall);
    assert_eq!(a.totals.all_codec_seconds(), b.totals.all_codec_seconds());
    assert_eq!(a.totals.timeline, b.totals.timeline);
    assert_eq!(a.steps.len(), b.steps.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The compatibility contract (see module docs).
    #[test]
    fn legacy_booleans_and_compiled_scenario_are_identical(axes in arb_axes()) {
        let legacy_cfg = base_config(&axes);
        let compiled = legacy_cfg.effective_scenario();
        // The explicit-scenario twin clears the booleans: the scenario
        // alone must reproduce them.
        let scenario_cfg = CastroSedovConfig {
            scenario: Some(compiled.clone()),
            read_after_write: false,
            analysis_read: None,
            reorganize: false,
            ..legacy_cfg.clone()
        };
        let storage = StorageModel::ideal(2, 5e7);
        let storage_ref = axes.timed.then_some(&storage);
        let legacy = run_simulation(&legacy_cfg, None, storage_ref);
        let scenario = run_simulation(&scenario_cfg, None, storage_ref);
        assert_identical(&legacy, &scenario);
        // The stored scenario column names the compiled scenario for
        // both spellings.
        let pair = [legacy_cfg, scenario_cfg];
        let rows = match storage_ref {
            Some(storage) => run_campaign_timed_serial(&pair, storage),
            None => run_campaign_serial(&pair),
        };
        for row in &rows {
            prop_assert_eq!(&row.scenario, &compiled.name());
        }
    }
}

/// The deterministic corner the sweep above samples: the full
/// backend × {restart, analysis} grid at one timed point each, so a
/// regression names its exact cell.
#[test]
fn boolean_grid_compat_across_backends() {
    let storage = StorageModel::ideal(2, 5e7);
    for backend in [
        BackendSpec::FilePerProcess,
        BackendSpec::Aggregated(2),
        BackendSpec::Deferred(1),
    ] {
        for (read_after_write, analysis) in [
            (false, None),
            (true, None),
            (false, Some(ReadSelection::Level(1))),
            (true, Some(ReadSelection::Level(1))),
        ] {
            let axes = LegacyAxes {
                backend,
                codec: CodecSpec::Identity,
                check_int: 4,
                read_after_write,
                analysis_read: analysis,
                reorganize: false,
                timed: true,
            };
            let legacy_cfg = base_config(&axes);
            let scenario_cfg = CastroSedovConfig {
                scenario: Some(legacy_cfg.effective_scenario()),
                read_after_write: false,
                analysis_read: None,
                reorganize: false,
                ..legacy_cfg.clone()
            };
            let legacy = run_simulation(&legacy_cfg, None, Some(&storage));
            let scenario = run_simulation(&scenario_cfg, None, Some(&storage));
            assert_identical(&legacy, &scenario);
        }
    }
}
