//! Property-based tests for the multi-tenant storage fabric: solo-tenant
//! equivalence with the legacy per-run storage model across the backend ×
//! codec matrix, fair-share slowdown and throughput conservation for
//! identical tenants, and QoS priority dominance.

use amr_proxy_io::amrproxy::{
    run_campaign_fabric, run_campaign_timed_serial, CastroSedovConfig, Engine, FabricSettings,
};
use amr_proxy_io::io_engine::{BackendSpec, CodecSpec};
use amr_proxy_io::iosim::{Fabric, QosPolicy, StorageModel, WriteRequest};
use proptest::prelude::*;

fn oracle_cfg(name: &str, n_cell: i64, max_step: u64, plot_int: u64) -> CastroSedovConfig {
    CastroSedovConfig {
        name: name.into(),
        engine: Engine::Oracle,
        n_cell,
        max_level: 2,
        max_step,
        plot_int,
        nprocs: 4,
        account_only: true,
        compute_ns_per_cell: 40_000.0,
        ..Default::default()
    }
}

/// One burst of `files` equal-sized writes, with per-tenant paths so no
/// two tenants collide on a key.
fn burst(tenant: usize, files: usize, bytes: u64) -> Vec<WriteRequest> {
    (0..files)
        .map(|f| WriteRequest {
            rank: f,
            path: format!("/t{tenant}/f{f}"),
            bytes,
            start: 0.0,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A single tenant on the fabric must reproduce the legacy
    /// model-backed campaign *exactly* — every summary column, across
    /// the full 3-backend × 3-codec matrix, under noisy storage.
    #[test]
    fn solo_fabric_tenant_matches_legacy_model_exactly(
        n_cell in prop_oneof![Just(32i64), Just(64i64)],
        max_step in 4u64..10,
        plot_int in 1u64..4,
        nservers in 1usize..5,
        sigma in 0.0f64..0.4,
        seed in 0u64..1000,
    ) {
        let storage = StorageModel {
            variability_sigma: sigma,
            seed,
            metadata_latency: 1e-4,
            ..StorageModel::ideal(nservers, 5e7)
        };
        for backend in [
            BackendSpec::FilePerProcess,
            BackendSpec::Aggregated(2),
            BackendSpec::Deferred(1),
        ] {
            for codec in [
                CodecSpec::Identity,
                CodecSpec::Rle(2.0),
                CodecSpec::LossyQuant(8),
            ] {
                let cfg = CastroSedovConfig {
                    backend,
                    codec,
                    ..oracle_cfg("solo", n_cell, max_step, plot_int)
                };
                let legacy = run_campaign_timed_serial(std::slice::from_ref(&cfg), &storage);
                let fabric = run_campaign_fabric(&[cfg], &storage, &FabricSettings::default());
                prop_assert_eq!(
                    &legacy, &fabric,
                    "{} / {} diverged", backend.name(), codec.name()
                );
                prop_assert_eq!(fabric[0].slowdown, 1.0);
                prop_assert_eq!(fabric[0].solo_wall, fabric[0].wall_time);
            }
        }
    }

    /// N identical bandwidth-bound tenants on one server each slow down
    /// by exactly N, and aggregate throughput is conserved: the makespan
    /// equals total bytes over server bandwidth.
    #[test]
    fn identical_tenants_slow_by_n_and_conserve_throughput(
        n in 2usize..6,
        files in 1usize..5,
        kib in 1u64..64,
    ) {
        let bw = 1e6;
        let model = StorageModel::ideal(1, bw);
        let bytes = kib * 1024;
        let solo = model.simulate_burst(&burst(0, files, bytes)).t_end;
        let fabric = Fabric::new(model);
        let handles: Vec<_> = (0..n).map(|i| fabric.tenant(&format!("t{i}"))).collect();
        let ends: Vec<f64> = std::thread::scope(|s| {
            let joins: Vec<_> = handles
                .into_iter()
                .enumerate()
                .map(|(i, h)| s.spawn(move || h.simulate_burst(&burst(i, files, bytes)).t_end))
                .collect();
            joins.into_iter().map(|j| j.join().unwrap()).collect()
        });
        let makespan = ends.iter().cloned().fold(0.0f64, f64::max);
        for (i, &t_end) in ends.iter().enumerate() {
            prop_assert!(
                (t_end / solo - n as f64).abs() < 1e-9,
                "tenant {i}: shared {t_end} vs solo {solo} (n = {n})"
            );
        }
        let total_bytes = (n * files) as f64 * bytes as f64;
        prop_assert!((total_bytes / makespan / bw - 1.0).abs() < 1e-9);
    }

    /// A strictly prioritized tenant never finishes later than the same
    /// tenant under fair sharing against the same competitor workload.
    #[test]
    fn prioritized_tenant_beats_its_fair_share_wall(
        weight in 2.0f64..16.0,
        files in 1usize..5,
        kib in 1u64..64,
        rival_files in 1usize..7,
    ) {
        let model = StorageModel::ideal(1, 1e6);
        let run_pair = |hi_qos: QosPolicy| -> f64 {
            let fabric = Fabric::new(model);
            let hi = fabric.tenant_with("hi", hi_qos);
            let lo = fabric.tenant("lo");
            std::thread::scope(|s| {
                let jh = s.spawn(move || hi.simulate_burst(&burst(0, files, kib * 1024)).t_end);
                let jl =
                    s.spawn(move || lo.simulate_burst(&burst(1, rival_files, kib * 1024)).t_end);
                let t = jh.join().unwrap();
                jl.join().unwrap();
                t
            })
        };
        let fair = run_pair(QosPolicy::default());
        let prioritized = run_pair(QosPolicy::weighted(weight));
        prop_assert!(
            prioritized <= fair + 1e-9,
            "prioritized {prioritized} must not lose to fair {fair}"
        );
    }
}
