//! Property tests for the parallel spec-campaign executor.
//!
//! The parallel `run_spec` (every pending cell on one cost-ordered work
//! queue, tenancy cells as mirrored clone groups that wait for their
//! solo profile's head, batched completion-order store appends) must
//! be *observationally
//! identical* to the one-cell-at-a-time serial reference
//! (`run_spec_serial`): same row set — full `RunSummary` equality, not
//! just names — and the same resume mask against any pre-seeded store.
//! A second family pins the solo-shadow memo: serving a tenancy cell's
//! solo baseline from the memo (`SoloPricing::Known`) is bit-identical
//! on the serde wire to replaying the solo shadow cold.

use amr_proxy_io::amrproxy::{
    run_campaign_fabric, run_campaign_fabric_cloned, run_spec, run_spec_serial, CastroSedovConfig,
    Engine, ExperimentSpec, ResultsStore, RunSummary, ScalingMode,
};
use amr_proxy_io::io_engine::BackendSpec;
use amr_proxy_io::iosim::{SoloMemo, StorageModel};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

fn base(name: &str, n_cell: i64) -> CastroSedovConfig {
    CastroSedovConfig {
        name: name.into(),
        engine: Engine::Oracle,
        n_cell,
        max_step: 2,
        plot_int: 1,
        nprocs: 2,
        account_only: true,
        compute_ns_per_cell: 2000.0,
        ..Default::default()
    }
}

/// A non-empty subset of `all`, order-preserving, drawn from a bitmask
/// (the vendored proptest has no `sample::subsequence`).
fn subset_of<T: Clone + 'static>(all: Vec<T>) -> impl Strategy<Value = Vec<T>> {
    let n = all.len();
    prop::collection::vec(0u8..2, n..n + 1).prop_map(move |mask| {
        let mut out: Vec<T> = all
            .iter()
            .zip(&mask)
            .filter(|(_, m)| **m == 1)
            .map(|(v, _)| v.clone())
            .collect();
        if out.is_empty() {
            out.push(all[0].clone());
        }
        out
    })
}

fn arb_backends() -> impl Strategy<Value = Vec<BackendSpec>> {
    subset_of(vec![
        BackendSpec::FilePerProcess,
        BackendSpec::Aggregated(2),
    ])
}

/// Tenancy rungs: always at least one fabric cell (scale > 1), with the
/// solo rung and the wider rung toggled independently, so every case
/// exercises the clone-group path and most exercise the solo-memo chain.
fn arb_scales() -> impl Strategy<Value = Vec<usize>> {
    (0u8..2, 0u8..2).prop_map(|(solo, wide)| {
        let mut scales = Vec::new();
        if solo == 1 {
            scales.push(1);
        }
        scales.push(2);
        if wide == 1 {
            scales.push(4);
        }
        scales
    })
}

/// Canonical wire form of a summary list — byte-level equality.
fn canon(rows: &[RunSummary]) -> Vec<String> {
    rows.iter()
        .map(|s| serde_json::to_string(s).expect("summary serializes"))
        .collect()
}

/// A unique scratch directory per proptest case.
fn scratch(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "amrproxy_proptest_par_{tag}_{}_{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The parallel executor is row-set-identical to the serial
    /// reference across randomized backend x tenancy specs: identical
    /// summaries in spec order (which subsumes modulo-order set
    /// equality), identical persisted stores, and a resume-only second
    /// pass.
    #[test]
    fn parallel_run_spec_matches_serial_reference(
        backends in arb_backends(),
        scales in arb_scales(),
        n_cell in prop_oneof![Just(16i64), Just(32)],
    ) {
        let spec = ExperimentSpec::new("par")
            .base(base("sedov", n_cell))
            .backends(&backends)
            .scales(&scales)
            .scaling(ScalingMode::Throughput);
        let storage = StorageModel::ideal(4, 5e7);

        let serial_dir = scratch("serial");
        let mut serial_store = ResultsStore::open(&serial_dir).unwrap();
        let serial = run_spec_serial(&spec, &mut serial_store, Some(&storage)).unwrap();

        let parallel_dir = scratch("parallel");
        let mut parallel_store = ResultsStore::open(&parallel_dir).unwrap();
        let parallel = run_spec(&spec, &mut parallel_store, Some(&storage)).unwrap();

        prop_assert_eq!(parallel.executed, serial.executed);
        prop_assert_eq!(parallel.resumed, 0usize);
        prop_assert_eq!(canon(&parallel.summaries), canon(&serial.summaries));

        // The two stores persisted the same rows (append order may
        // differ: the parallel store commits in completion order).
        let mut from_serial = ResultsStore::open(&serial_dir).unwrap().query().summaries();
        let mut from_parallel = ResultsStore::open(&parallel_dir).unwrap().query().summaries();
        from_serial.sort_by(|a, b| a.name.cmp(&b.name));
        from_parallel.sort_by(|a, b| a.name.cmp(&b.name));
        prop_assert_eq!(canon(&from_parallel), canon(&from_serial));

        // A second parallel pass resumes everything, bit-identically.
        let again = run_spec(&spec, &mut parallel_store, Some(&storage)).unwrap();
        prop_assert_eq!(again.executed, 0usize);
        prop_assert_eq!(again.resumed, serial.executed);
        prop_assert_eq!(canon(&again.summaries), canon(&serial.summaries));

        std::fs::remove_dir_all(&serial_dir).unwrap();
        std::fs::remove_dir_all(&parallel_dir).unwrap();
    }

    /// Both executors honor the same resume mask: pre-seed two stores
    /// with the same arbitrary subset of a prior run's cells, and the
    /// serial and parallel passes execute exactly the complement and
    /// produce identical full tables. (Identical to *each other*, not
    /// to the unmasked reference: if the mask resumes a solo-memo chain
    /// head, the re-run re-derives that profile's baseline from the next
    /// pending rung's cold replay, which lands within an ulp of — not
    /// bit-equal to — the head's fill. Both executors pick the same
    /// filler, the first pending cell per solo key in spec order, so
    /// they stay bit-identical under every mask.)
    #[test]
    fn resume_mask_is_identical_between_executors(
        scales in arb_scales(),
        mask in prop::collection::vec(0u8..2, 4..5),
    ) {
        let spec = ExperimentSpec::new("mask")
            .base(base("sedov", 16))
            .backends(&[BackendSpec::FilePerProcess, BackendSpec::Aggregated(2)])
            .scales(&scales)
            .scaling(ScalingMode::Throughput);
        let storage = StorageModel::ideal(4, 5e7);
        let cells = spec.compile().unwrap();

        // A reference run supplies the rows used to seed the stores.
        let ref_dir = scratch("mask_ref");
        let mut ref_store = ResultsStore::open(&ref_dir).unwrap();
        let reference = run_spec_serial(&spec, &mut ref_store, Some(&storage)).unwrap();

        let dirs = [scratch("mask_s"), scratch("mask_p")];
        let mut stores: Vec<ResultsStore> = dirs
            .iter()
            .map(|d| ResultsStore::open(d).unwrap())
            .collect();
        let mut persisted = 0usize;
        for (cell, keep) in cells.iter().zip(mask.iter().cycle()) {
            if *keep == 1 {
                let rows = ref_store.get(&cell.key);
                prop_assert!(!rows.is_empty());
                for store in &mut stores {
                    store.append_cell(&cell.key, &rows).unwrap();
                }
                persisted += 1;
            }
        }

        let serial = run_spec_serial(&spec, &mut stores[0], Some(&storage)).unwrap();
        let parallel = run_spec(&spec, &mut stores[1], Some(&storage)).unwrap();
        prop_assert_eq!(serial.resumed, persisted);
        prop_assert_eq!(parallel.resumed, persisted);
        prop_assert_eq!(serial.executed, cells.len() - persisted);
        prop_assert_eq!(parallel.executed, cells.len() - persisted);
        prop_assert_eq!(canon(&parallel.summaries), canon(&serial.summaries));
        // Row identity (name per slot) always matches the reference,
        // even where a re-derived solo baseline drifts by an ulp.
        let names = |rows: &[RunSummary]| -> Vec<String> {
            rows.iter().map(|s| s.name.clone()).collect()
        };
        prop_assert_eq!(names(&serial.summaries), names(&reference.summaries));

        std::fs::remove_dir_all(&ref_dir).unwrap();
        for dir in &dirs {
            std::fs::remove_dir_all(dir).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A solo-memo hit is bit-identical to the cold replay it stands in
    /// for, on one fleet of N runs: without a memo, with a cold memo
    /// (one fill) and with a warm one (one hit, no further fill) every
    /// summary is byte-for-byte the same on the serde wire — and a
    /// mirrored clone group prices the same configs to the same bytes.
    #[test]
    fn memo_hit_is_bit_identical_to_cold_replay(
        tenants in 2usize..5,
        n_cell in prop_oneof![Just(16i64), Just(32)],
        compute in prop_oneof![Just(2000.0f64), Just(40_000.0)],
    ) {
        let configs: Vec<CastroSedovConfig> = (0..tenants)
            .map(|i| CastroSedovConfig {
                compute_ns_per_cell: compute,
                ..base(&format!("memo_t{i}"), n_cell)
            })
            .collect();
        let storage = StorageModel::ideal(4, 5e7);
        let reference = run_campaign_fabric(&configs, &storage, None);

        // Cold: fresh memo, so the solo shadow replays and fills it.
        let memo = SoloMemo::default();
        let memoized = Some((&memo, "solo_profile"));
        let cold = run_campaign_fabric(&configs, &storage, memoized);
        prop_assert_eq!(memo.hits(), 0);
        prop_assert_eq!(memo.fills(), 1);
        prop_assert_eq!(canon(&cold), canon(&reference));

        // Hit: the same campaign priced from the memo, no replay.
        let hit = run_campaign_fabric(&configs, &storage, memoized);
        prop_assert_eq!(memo.hits(), 1);
        prop_assert_eq!(memo.fills(), 1);
        prop_assert_eq!(canon(&hit), canon(&reference));

        // One real run mirrored N ways equals the N-thread fleet.
        let cloned = run_campaign_fabric_cloned(&configs, &storage, None);
        prop_assert_eq!(canon(&cloned), canon(&reference));
    }
}
