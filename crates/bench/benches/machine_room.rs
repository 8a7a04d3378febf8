//! Machine-room campaign throughput: real steps/sec of the fabric-backed
//! campaign runner, and the solo vs 4-tenant simulated walls.
//!
//! Each run appends one row to the append-only store at
//! `results/store/machine_room/` — the store accumulates a history of
//! bench runs instead of overwriting one blob. The tracked numbers for
//! this subsystem come from `amrbench`'s `machine_room` workload.

use amrproxy::{
    run_campaign_fabric, run_campaign_timed_serial, CastroSedovConfig, Engine, FabricSettings,
    ResultsStore,
};
use bench::banner;
use iosim::StorageModel;
use serde::Serialize;

#[derive(Serialize)]
struct CampaignBench {
    campaign_runs: usize,
    campaign_wall_seconds: f64,
    campaign_steps_per_sec: f64,
    solo_wall_seconds: f64,
    four_tenant_wall_seconds: f64,
    four_tenant_slowdown: f64,
}

fn sedov(name: &str) -> CastroSedovConfig {
    CastroSedovConfig {
        name: name.into(),
        engine: Engine::Oracle,
        n_cell: 128,
        max_level: 2,
        max_step: 16,
        plot_int: 4,
        nprocs: 8,
        account_only: true,
        compute_ns_per_cell: 40_000.0,
        ..Default::default()
    }
}

fn main() {
    banner(
        "machine_room",
        "multi-tenant extension of the paper's storage model",
        "campaign throughput on the shared fabric: solo vs 4-tenant walls",
    );
    let storage = StorageModel {
        metadata_latency: 1e-4,
        ..StorageModel::ideal(4, 5e7)
    };

    // Solo reference (legacy path, also the correctness anchor).
    let solo = &run_campaign_timed_serial(&[sedov("solo")], &storage)[0];

    // Timed campaign: the 1/2/4/8 tenancy ladder on the fabric.
    let ladder = [1usize, 2, 4, 8];
    let started = std::time::Instant::now();
    let mut steps = 0u64;
    let mut runs = 0usize;
    let mut four = None;
    for &n in &ladder {
        let configs: Vec<CastroSedovConfig> =
            (0..n).map(|i| sedov(&format!("sedov_t{i}"))).collect();
        steps += configs.iter().map(|c| c.max_step).sum::<u64>();
        runs += n;
        let summaries = run_campaign_fabric(&configs, &storage, &FabricSettings::default());
        if n == 1 {
            assert_eq!(
                summaries[0].wall_time, solo.wall_time,
                "fabric solo must be exact"
            );
        }
        if n == 4 {
            four = Some((
                summaries.iter().map(|s| s.wall_time).sum::<f64>() / 4.0,
                summaries.iter().map(|s| s.slowdown).sum::<f64>() / 4.0,
            ));
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    let (four_wall, four_slowdown) = four.expect("ladder contains n = 4");

    let result = CampaignBench {
        campaign_runs: runs,
        campaign_wall_seconds: elapsed,
        campaign_steps_per_sec: steps as f64 / elapsed,
        solo_wall_seconds: solo.wall_time,
        four_tenant_wall_seconds: four_wall,
        four_tenant_slowdown: four_slowdown,
    };
    println!(
        "{runs} runs / {steps} steps in {elapsed:.3} s real ({:.0} steps/s)",
        result.campaign_steps_per_sec
    );
    println!(
        "solo wall {:.3} s, 4-tenant wall {:.3} s (slowdown {:.3})",
        result.solo_wall_seconds, result.four_tenant_wall_seconds, result.four_tenant_slowdown
    );
    // One appended row per bench run; the store keeps the history.
    let mut store = ResultsStore::open(bench::results_dir().join("store/machine_room"))
        .expect("open results store");
    store
        .append_row("bench:machine_room", &serde_json::to_value(&result))
        .expect("append bench row");
    println!(
        "[store] {} ({} runs on record, mean {:.0} steps/s)",
        store.dir().display(),
        store.len(),
        store.query().mean("campaign_steps_per_sec")
    );
}
