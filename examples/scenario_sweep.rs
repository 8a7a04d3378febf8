//! The scenario plane end-to-end: one Sedov workload crossed with the
//! campaign shapes the phase-pipeline engine opens — mid-run failure +
//! restart, checkpoint cadence, and in-run analysis — each with its
//! invariants asserted, so this example doubles as the scenario smoke
//! suite in CI.
//!
//! Demonstrated workload shapes (beyond the legacy `write[;restart]`):
//!
//! 1. **`write;fail@10;restart`** — the run crashes after step 10 and
//!    recovers from its newest plot dump. *Invariant:* the failure
//!    re-pays compute for the lost steps but never re-writes a dump it
//!    already flushed (write plane byte-identical to the clean run).
//! 2. **`write;check@4;fail@10;restart`** — same failure under a
//!    checkpoint cadence. *Invariant:* denser restart points shrink the
//!    replay (fewer re-computed steps, less re-paid compute wall), and
//!    the recovery read fetches checkpoint state (4 components), not a
//!    22-variable plot dump.
//! 3. **`write;analyze_every:2:level:1`** — every second plot dump is
//!    analyzed in-situ. *Invariant:* the analysis read bursts interleave
//!    with subsequent write bursts on the simulated timeline instead of
//!    trailing the campaign.
//! 4. **`write;fail@17;restart;analyze:level:2,reorg`** — the issue's
//!    combined spelling, end-to-end: failure, recovery, then a trailing
//!    reorganized analysis read, all priced on one clock.
//!
//! ```text
//! cargo run --release --example scenario_sweep
//! ```

use amr_proxy_io::amrproxy::{
    run_campaign, run_campaign_serial, CastroSedovConfig, Engine, ExperimentSpec, RunSummary,
    Scenario,
};
use amr_proxy_io::io_engine::ReadSelection;
use amr_proxy_io::iosim::StorageModel;

fn base(max_step: u64) -> CastroSedovConfig {
    CastroSedovConfig {
        name: "sedov".into(),
        engine: Engine::Oracle,
        n_cell: 128,
        max_level: 2,
        max_step,
        plot_int: 4,
        nprocs: 8,
        account_only: true,
        compute_ns_per_cell: 40_000.0,
        ..Default::default()
    }
}

fn row(s: &RunSummary) -> String {
    format!(
        "{:<44} {:>10} {:>8} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
        s.scenario,
        s.physical_bytes,
        s.restarts,
        s.wall_time,
        s.compute_wall,
        s.read_wall,
        s.selective_read_wall
    )
}

fn main() {
    let storage = StorageModel::ideal(4, 5e7);
    println!("== scenario sweep: one workload, five campaign shapes ==");
    println!(
        "{:<44} {:>10} {:>8} {:>9} {:>9} {:>9} {:>9}",
        "scenario", "phys_B", "restarts", "wall_s", "compute", "read_s", "sel_rd_s"
    );

    let scenarios = vec![
        Scenario::write_only(),
        Scenario::parse("write;fail@10;restart").unwrap(),
        Scenario::parse("write;check@4;fail@10;restart").unwrap(),
        Scenario::in_run_analysis(2, ReadSelection::Level(1)),
        Scenario::parse("write;fail@17;restart;analyze:level:2,reorg").unwrap(),
    ];
    let matrix = ExperimentSpec::over("scenario_sweep", &[base(20)])
        .scenarios(&scenarios)
        .compile_configs()
        .expect("unique run labels");
    let summaries = run_campaign(&matrix, Some(&storage));
    for s in &summaries {
        println!("{}", row(s));
    }
    let clean = &summaries[0];
    let failed = &summaries[1];
    let checkpointed = &summaries[2];
    let insitu = &summaries[3];
    let combined = &summaries[4];

    // --- Invariant 1: fail@10;restart re-pays compute, not dumps. -----
    assert_eq!(
        failed.total_bytes, clean.total_bytes,
        "logical write plane is failure-invariant"
    );
    assert_eq!(
        failed.physical_bytes, clean.physical_bytes,
        "no dump is flushed twice"
    );
    assert_eq!(failed.physical_files, clean.physical_files);
    assert_eq!(failed.restarts, 1);
    assert!(failed.read_bytes > 0, "the recovery read is priced");
    assert!(
        failed.compute_wall > clean.compute_wall,
        "steps 9..=10 are re-computed: {} vs {}",
        failed.compute_wall,
        clean.compute_wall
    );
    assert!(failed.wall_time > clean.wall_time);
    println!(
        "\n[1] fail@10;restart: +{:.3}s wall (re-paid compute {:.3}s, recovery read {:.3}s), \
         write plane byte-identical",
        failed.wall_time - clean.wall_time,
        failed.compute_wall - clean.compute_wall,
        failed.read_wall
    );

    // --- Invariant 2: checkpoint cadence shrinks the replay. ----------
    // fail@10 restarts from step 8 in both shapes (plot dump at 8 vs
    // checkpoint at 8), so the replay window ties — but the checkpointed
    // run recovers 4-component state instead of a 22-variable plot dump.
    assert!(checkpointed.check_bytes > 0, "checkpoints are priced");
    assert!(checkpointed.check_wall > 0.0);
    assert!(
        checkpointed.read_bytes < failed.read_bytes,
        "checkpoint restart reads state, not plot data: {} vs {}",
        checkpointed.read_bytes,
        failed.read_bytes
    );
    // Sparse plots make the cadence win visible in the replay itself:
    // with dumps only at steps 0 and 20, a failure at 10 replays all 10
    // steps — unless checkpoints provide a nearer restart point.
    let sparse = CastroSedovConfig {
        plot_int: 20,
        ..base(20)
    };
    let replay_matrix = ExperimentSpec::over("replay", &[sparse])
        .scenarios(&[
            Scenario::parse("write;fail@10;restart").unwrap(),
            Scenario::parse("write;check@4;fail@10;restart").unwrap(),
        ])
        .compile_configs()
        .expect("unique run labels");
    let replay = run_campaign_serial(&replay_matrix);
    assert!(
        replay[1].compute_wall < replay[0].compute_wall,
        "check@4 must shrink the replayed compute: {} vs {}",
        replay[1].compute_wall,
        replay[0].compute_wall
    );
    println!(
        "[2] check@4 under sparse plots: replayed compute {:.3}s -> {:.3}s, recovery read {} -> {} B",
        replay[0].compute_wall,
        replay[1].compute_wall,
        replay[0].read_bytes,
        replay[1].read_bytes
    );

    // --- Invariant 3: in-run analysis interleaves with writes. --------
    assert!(insitu.selective_read_bytes > 0);
    assert_eq!(
        insitu.total_bytes, clean.total_bytes,
        "analysis never disturbs the write plane"
    );
    // 6 plot dumps (steps 0..20 by 4) + 3 in-run analyses (dumps 2,4,6).
    let insitu_result = amr_proxy_io::amrproxy::run_simulation(&matrix[3], None, Some(&storage));
    let bursts = insitu_result.timeline.bursts();
    assert_eq!(bursts.len(), 9, "6 write + 3 analysis bursts");
    let steps: Vec<u32> = bursts.iter().map(|b| b.step).collect();
    assert_eq!(
        steps,
        vec![1, 2, 2, 3, 4, 4, 5, 6, 6],
        "analysis bursts sit between write bursts, not after them"
    );
    println!(
        "[3] analyze_every:2:level:1: 3 in-run reads interleaved ({} B selective, {:.3}s), \
         burst order {:?}",
        insitu.selective_read_bytes, insitu.selective_read_wall, steps
    );

    // --- Invariant 4: the issue's combined spelling end-to-end. -------
    assert_eq!(combined.restarts, 1);
    assert!(combined.read_bytes > 0, "recovery read priced");
    assert!(combined.reorg_wall > 0.0, "reorganization pass priced");
    assert!(combined.selective_read_bytes > 0, "level:2 read delivered");
    assert!(combined.reorganized);
    assert_eq!(
        combined.total_bytes, clean.total_bytes,
        "failure + analysis leave the write plane untouched"
    );
    println!(
        "[4] write;fail@17;restart;analyze:level:2,reorg: recovery {:.3}s + reorg {:.3}s + \
         selective read {:.3}s on one clock ({:.3}s total)",
        combined.read_wall, combined.reorg_wall, combined.selective_read_wall, combined.wall_time
    );

    // --- Legacy spelling compatibility (the deprecation contract). ----
    let legacy = CastroSedovConfig {
        read_after_write: true,
        ..base(20)
    };
    let explicit = CastroSedovConfig {
        scenario: Some(Scenario::write_restart()),
        ..base(20)
    };
    let legacy_s = run_campaign(&[legacy, explicit], Some(&storage));
    assert_eq!(legacy_s[0], {
        let mut e = legacy_s[1].clone();
        e.name = legacy_s[0].name.clone();
        e
    });
    println!(
        "[5] legacy read_after_write == explicit write;restart (wall {:.3}s both)",
        legacy_s[0].wall_time
    );

    println!("\nall scenario invariants hold");
}
