//! Property-based tests for the multi-tenant storage fabric: solo-tenant
//! equivalence with the legacy per-run storage model across the backend ×
//! codec matrix, fair-share slowdown and throughput conservation for
//! identical tenants, a mixed Sedov + MACSio fleet contending on one
//! fabric, and a clone group against the fleet of tenants it stands for.
//! Fleets of several tenants run under `Fabric::run`.

use amr_proxy_io::amrproxy::{
    run_campaign_fabric, run_campaign_timed_serial, try_run_simulation_attached, CastroSedovConfig,
    Engine,
};
use amr_proxy_io::io_engine::{BackendSpec, CodecSpec};
use amr_proxy_io::iosim::{
    BurstResult, Fabric, FabricHandle, IoTracker, MemFs, ReadRequest, StorageAttach, StorageModel,
    WriteRequest,
};
use amr_proxy_io::macsio::{self, MacsioConfig};
use common::{burst_bits, stats_bits, StatsBits};
use proptest::prelude::*;
use std::future::Future;
use std::pin::Pin;

mod common;

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

/// The machine-room tenant: a 128^2 Sedov oracle campaign on 8 ranks.
fn sedov128(name: &str) -> CastroSedovConfig {
    CastroSedovConfig {
        nprocs: 8,
        ..oracle_cfg(name, 128, 16, 4)
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

/// One tenant's burst program: `steps` write bursts of `files`
/// requests with staggered starts, each `gap` after the previous end,
/// then a staggered read of the first step's files. Paths carry only
/// `prefix`, so every clone submits the same requests.
#[derive(Clone, Copy)]
struct Program {
    prefix: &'static str,
    steps: usize,
    files: usize,
    kib: u64,
    stagger: f64,
    gap: f64,
}

impl Program {
    /// Runs the program on `h` and reports its walls (the scheduler's
    /// seal-time call).
    async fn drive(self, h: FabricHandle) -> Vec<BurstResult> {
        let mut out = Vec::new();
        let mut clock = 0.0;
        for step in 0..self.steps {
            let reqs: Vec<WriteRequest> = (0..self.files)
                .map(|f| WriteRequest {
                    rank: f,
                    path: format!("/{}/s{step}/f{f}", self.prefix),
                    bytes: self.kib * 1024 + (f * step) as u64,
                    start: clock + self.stagger * (f % 3) as f64,
                })
                .collect();
            let r = h.write_burst(&reqs).await;
            clock = r.t_end + self.gap;
            out.push(r);
        }
        let reads: Vec<ReadRequest> = (0..self.files)
            .map(|f| ReadRequest {
                rank: f,
                path: format!("/{}/s0/f{f}", self.prefix),
                bytes: self.kib * 1024,
                start: clock + self.stagger * (f % 2) as f64,
            })
            .collect();
        out.push(h.read_burst(&reads).await);
        let wall = out.last().map_or(0.0, |r| r.t_end);
        h.record_walls(wall, 0.5 * wall);
        out
    }
}

/// Runs `clones` (each driving `program`) beside an optional rival
/// tenant on `fabric`: each clone handle's results, the rival's, and
/// every tenant's stats as bits.
fn run_fleet(
    fabric: &Fabric,
    clones: Vec<FabricHandle>,
    program: Program,
    rival: Option<(FabricHandle, Program)>,
) -> (
    Vec<Vec<BurstResult>>,
    Option<Vec<BurstResult>>,
    Vec<StatsBits>,
) {
    let has_rival = rival.is_some();
    let runs = clones
        .into_iter()
        .map(|h| program.drive(h))
        .chain(rival.map(|(h, p)| p.drive(h)));
    let mut ends = fabric.run(runs);
    let rival = has_rival.then(|| ends.pop().expect("the rival ran"));
    let stats = fabric.tenant_stats().iter().map(stats_bits).collect();
    (ends, rival, stats)
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
                let fabric = run_campaign_fabric(&[cfg], &storage, None);
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
        let ends: Vec<f64> = fabric.run(handles.iter().enumerate().map(|(i, h)| async move {
            h.write_burst(&burst(i, files, bytes)).await.t_end
        }));
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
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A clone group of N (one record per request for all N slots) is
    /// N separate tenants bit for bit: every burst's `finish` and
    /// `t_end`, and every `TenantStats` field — also beside an
    /// independent rival tenant.
    #[test]
    fn clone_group_of_n_equals_n_threaded_tenants(
        n in 1usize..=6,
        nservers in 1usize..=4,
        sigma in 0.0f64..0.4,
        files in 1usize..6,
        kib in 1u64..128,
        stagger in 0.0f64..0.02,
        gap in 0.0f64..0.02,
        rival in prop_oneof![Just(false), Just(true)],
    ) {
        let model = StorageModel {
            variability_sigma: sigma,
            metadata_latency: 1e-4,
            ..StorageModel::ideal(nservers, 1e7)
        };
        let program = Program { prefix: "c", steps: 3, files, kib, stagger, gap };
        let rival_program = Program {
            prefix: "r",
            steps: 2,
            files: files + 1,
            kib: kib / 2 + 1,
            gap: 0.0,
            ..program
        };
        let names: Vec<String> = (0..n).map(|i| format!("c_t{i}")).collect();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();

        let fleet = Fabric::new(model);
        let handles = names.iter().map(|name| fleet.tenant(name)).collect();
        let rival_handle = rival.then(|| (fleet.tenant("rival"), rival_program));
        let (fleet_ends, fleet_rival, fleet_stats) =
            run_fleet(&fleet, handles, program, rival_handle);

        let grouped = Fabric::new(model);
        let group = grouped.tenant_clones(&names);
        let rival_handle = rival.then(|| (grouped.tenant("rival"), rival_program));
        let (group_ends, group_rival, group_stats) =
            run_fleet(&grouped, vec![group], program, rival_handle);

        for ends in &fleet_ends {
            prop_assert_eq!(burst_bits(ends), burst_bits(&group_ends[0]));
        }
        prop_assert_eq!(
            fleet_rival.as_deref().map(burst_bits),
            group_rival.as_deref().map(burst_bits)
        );
        prop_assert_eq!(fleet_stats, group_stats);
    }
}

/// A Sedov AMR campaign and a back-to-back MACSio dump stream overlap on
/// the same two slow servers: neither tenant beats its solo wall, and
/// the interference plane attributes the contention.
#[test]
fn mixed_sedov_and_macsio_fleet_contends_on_one_fabric() {
    let fabric = Fabric::new(StorageModel {
        metadata_latency: 1e-4,
        ..StorageModel::ideal(2, 5e6)
    });
    let sedov = fabric.tenant("sedov");
    let dumps = fabric.tenant("macsio");
    let amr_cfg = sedov128("mixed");
    let cfg = MacsioConfig {
        nprocs: 8,
        num_dumps: 6,
        part_size: 512 * 1024,
        compute_time: 0.0,
        ..Default::default()
    };
    let fs = MemFs::with_retention(0);
    let tracker = IoTracker::new();
    let amr = async {
        try_run_simulation_attached(&amr_cfg, None, StorageAttach::Fabric(sedov))
            .await
            .expect("sedov tenant")
            .totals
            .wall_time
    };
    let mac = async {
        macsio::dump::run_attached(&cfg, &fs, &tracker, StorageAttach::Fabric(dumps))
            .await
            .expect("macsio run")
            .wall_time
    };
    let tenants: [Pin<Box<dyn Future<Output = f64> + '_>>; 2] = [Box::pin(amr), Box::pin(mac)];
    let walls = fabric.run(tenants);
    assert!(walls[0] > 0.0);
    assert!(walls[1] > 0.0);
    let stats = fabric.tenant_stats();
    assert_eq!(stats.len(), 2);
    assert!(
        stats.iter().all(|t| t.slowdown() >= 1.0 - 1e-12),
        "sharing never beats solo: {stats:?}"
    );
    assert!(
        stats.iter().any(|t| t.contention_stall > 0.0),
        "overlapping fleets must contend somewhere"
    );
}
