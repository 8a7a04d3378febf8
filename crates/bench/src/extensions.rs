//! Studies beyond the paper's own figures: the design-choice ablations,
//! the io-engine backend x codec matrix and the multi-tenant machine
//! room. The two matrices run as specs against the shared store.

use crate::{human_bytes, Ctx};
use amr_mesh::prelude::*;
use amrproxy::{CastroSedovConfig, Engine, ExperimentSpec, RunSummary, ScalingMode};
use hydro::{annulus_fine_grids, OracleConfig, OracleSim};
use iosim::{IoTracker, MemFs, StorageModel};
use macsio::{FileMode, MacsioConfig};
use serde_json::{json, Value};
use std::io;

fn dm_strategy_ablation() -> Value {
    println!("\n## 1. DistributionMapping strategy vs per-task imbalance");
    let mut sim = OracleSim::new(OracleConfig {
        n_cell: 512,
        max_level: 2,
        nranks: 32,
        ..Default::default()
    });
    for _ in 0..40 {
        sim.step();
    }
    let l1 = &sim.levels()[1];
    let weights: Vec<i64> = l1.ba.iter().map(|b| b.num_pts()).collect();
    let mut rows = Vec::new();
    println!("{:>12} {:>10} {:>12}", "strategy", "boxes", "max/mean");
    for (name, strat) in [
        ("round-robin", DistributionStrategy::RoundRobin),
        ("knapsack", DistributionStrategy::Knapsack),
        ("sfc", DistributionStrategy::Sfc),
    ] {
        let dm = DistributionMapping::new(&l1.ba, 32, strat);
        let imb = dm.imbalance(&weights);
        println!("{name:>12} {:>10} {imb:>12.3}", l1.ba.len());
        rows.push(json!({"strategy": name, "imbalance": imb, "boxes": l1.ba.len()}));
    }
    // Even the best strategy leaves residual imbalance on an annulus —
    // the structural reason MACSio cannot model per-rank loads.
    let best = rows
        .iter()
        .map(|r| r["imbalance"].as_f64().unwrap())
        .fold(f64::MAX, f64::min);
    println!("best achievable imbalance: {best:.3} (> 1 by construction of AMR)");
    json!({"rows": rows, "best": best})
}

fn grid_eff_ablation() -> Value {
    println!("\n## 2. Clustering grid_eff vs grids and covered cells");
    let geom = Geometry::unit_square(IntVect::splat(512));
    let mut rows = Vec::new();
    println!(
        "{:>9} {:>8} {:>12} {:>10}",
        "grid_eff", "grids", "cells", "waste"
    );
    for grid_eff in [0.5, 0.6, 0.7, 0.8, 0.9] {
        let params = GridParams {
            ref_ratio: 2,
            blocking_factor: 8,
            max_grid_size: 256,
            n_error_buf: 1,
            grid_eff,
        };
        let ba = annulus_fine_grids(&geom, [0.5, 0.5], 0.25, 0.28, &params);
        let ring_cells =
            std::f64::consts::PI * (0.28f64.powi(2) - 0.25f64.powi(2)) * (1024.0f64).powi(2);
        let waste = ba.num_pts() as f64 / ring_cells;
        println!(
            "{grid_eff:>9.1} {:>8} {:>12} {waste:>10.2}",
            ba.len(),
            ba.num_pts()
        );
        rows.push(json!({
            "grid_eff": grid_eff, "grids": ba.len(),
            "cells": ba.num_pts(), "waste": waste,
        }));
    }
    json!(rows)
}

fn mif_group_ablation() -> Value {
    println!("\n## 3. MACSio MIF group size vs files and burst duration");
    let storage = StorageModel::ideal(8, 1e9);
    let mut rows = Vec::new();
    println!("{:>10} {:>8} {:>12}", "MIF n", "files", "burst (s)");
    for n in [1usize, 4, 16, 64] {
        let cfg = MacsioConfig {
            nprocs: 64,
            num_dumps: 1,
            part_size: 1_000_000,
            parallel_file_mode: FileMode::Mif(n),
            ..Default::default()
        };
        let fs = MemFs::with_retention(0);
        let tracker = IoTracker::new();
        let report = macsio::run(&cfg, &fs, &tracker, Some(&storage)).unwrap();
        let burst = report.timeline.bursts()[0].duration();
        println!("{n:>10} {:>8} {burst:>12.4}", report.files_written);
        rows.push(json!({"mif": n, "files": report.files_written, "burst_s": burst}));
    }
    // Fewer files serialize ranks within a group: N-to-N must be fastest.
    let t_1 = rows[0]["burst_s"].as_f64().unwrap();
    let t_n = rows.last().unwrap()["burst_s"].as_f64().unwrap();
    assert!(
        t_n < t_1,
        "N-to-N ({t_n}) must beat single-group MIF ({t_1})"
    );
    json!(rows)
}

fn storage_ablation() -> Value {
    println!("\n## 4. Storage server count vs burst duration");
    let mut rows = Vec::new();
    println!(
        "{:>9} {:>12} {:>16}",
        "servers", "burst (s)", "agg BW (GB/s)"
    );
    for servers in [1usize, 4, 16, 77] {
        let storage = StorageModel {
            variability_sigma: 0.0,
            metadata_latency: 1e-3,
            nservers: servers,
            ..StorageModel::summit_alpine(1.0)
        };
        let cfg = MacsioConfig {
            nprocs: 128,
            num_dumps: 1,
            part_size: 4_000_000,
            ..Default::default()
        };
        let fs = MemFs::with_retention(0);
        let tracker = IoTracker::new();
        let report = macsio::run(&cfg, &fs, &tracker, Some(&storage)).unwrap();
        let b = report.timeline.bursts()[0];
        let bw = b.bandwidth() / 1e9;
        println!("{servers:>9} {:>12.4} {bw:>16.2}", b.duration());
        rows.push(json!({"servers": servers, "burst_s": b.duration(), "bw_gbs": bw}));
    }
    let t_1 = rows[0]["burst_s"].as_f64().unwrap();
    let t_77 = rows.last().unwrap()["burst_s"].as_f64().unwrap();
    assert!(t_77 < t_1 / 8.0, "server scaling must shorten bursts");
    json!(rows)
}

/// Ablation studies for the design choices `docs/MODEL.md` calls out:
///
/// 1. DistributionMapping strategy vs per-task I/O imbalance (supports the
///    Fig. 8 volatility claim).
/// 2. Clustering `grid_eff` vs grid count / covered cells.
/// 3. MACSio MIF group size vs file count and burst duration.
/// 4. Storage server count vs burst duration (the dynamic knob).
pub(crate) fn ablations(_: &mut Ctx) -> io::Result<Value> {
    Ok(json!({
        "dm_strategy": dm_strategy_ablation(),
        "grid_eff": grid_eff_ablation(),
        "mif_groups": mif_group_ablation(),
        "storage": storage_ablation(),
    }))
}

/// Backend x codec matrix: `specs/backend_matrix.toml` — one fixed AMR
/// workload through every io-engine backend and codec, on a
/// metadata-bound and a bandwidth-bound machine — the backend-level
/// counterpart of the paper's MIF/SIF comparison, extended with the
/// AMRIC-style data-reduction lever.
pub(crate) fn backend_matrix(ctx: &mut Ctx) -> io::Result<Value> {
    let spec = ExperimentSpec::from_toml(include_str!("../../../specs/backend_matrix.toml"))
        .map_err(io::Error::other)?;
    let cells = spec.compile().map_err(io::Error::other)?;
    let report = ctx.run(&spec, None)?;
    // Solo cells: one summary per cell, in spec order.
    let rows: Vec<(&str, &RunSummary)> = cells
        .iter()
        .map(|cell| {
            let storage = cell.coords.iter().find(|(axis, _)| axis == "storage");
            storage
                .expect("the spec declares a storage axis")
                .1
                .as_str()
        })
        .zip(&report.summaries)
        .collect();
    let of = |storage: &str, backend: &str, codec: &str| -> &RunSummary {
        rows.iter()
            .find(|(st, s)| *st == storage && s.backend == backend && s.codec == codec)
            .unwrap_or_else(|| panic!("{storage}/{backend}/{codec} present"))
            .1
    };

    println!(
        "\n{:<14} {:<12} {:>10} {:>12} {:>12} {:>8} {:>12} {:>10}",
        "storage", "backend", "codec", "logical", "physical", "files", "wall (s)", "speedup"
    );
    for (storage, s) in &rows {
        println!(
            "{storage:<14} {:<12} {:>10} {:>12} {:>12} {:>8} {:>12.4} {:>9.3}x",
            s.backend,
            s.codec,
            human_bytes(s.total_bytes),
            human_bytes(s.physical_bytes),
            s.physical_files,
            s.wall_time,
            of(storage, "fpp", "identity").wall_time / s.wall_time
        );
    }

    // The levers must actually lever. Logical accounting is invariant
    // across the whole matrix, and a codec never ships more than identity.
    for (storage, s) in &rows {
        assert_eq!(s.total_bytes, rows[0].1.total_bytes, "{}", s.name);
        if s.codec != "identity" {
            let id = of(storage, &s.backend, "identity");
            assert!(
                s.physical_bytes < id.physical_bytes,
                "{}: compression must shrink the wire volume",
                s.name
            );
        }
    }
    // Metadata-bound (the Alpine slice): aggregation and overlap beat the
    // N-to-N baseline.
    let summit = "summit:0.11";
    let fpp_wall = of(summit, "fpp", "identity").wall_time;
    let best_agg = rows
        .iter()
        .filter(|(st, s)| *st == summit && s.backend.starts_with("agg") && s.codec == "identity")
        .map(|(_, s)| s.wall_time)
        .fold(f64::INFINITY, f64::min);
    assert!(best_agg < fpp_wall, "aggregation must beat N-to-N");
    assert!(
        of(summit, "deferred:1", "identity").wall_time < fpp_wall,
        "overlap must beat N-to-N"
    );
    // Bandwidth-bound: the lossy codec pays for its CPU time on every
    // backend.
    let ideal = "ideal:8:2.5e8";
    println!("\nspeedup of quant:8 over identity on {ideal}, per backend:");
    for (_, id) in rows
        .iter()
        .filter(|(st, s)| *st == ideal && s.codec == "identity")
    {
        let q = of(ideal, &id.backend, "quant:8");
        println!(
            "  {:>10}: {:>6.3}x wall, {:>6.2}x bytes",
            id.backend,
            id.wall_time / q.wall_time,
            id.physical_bytes as f64 / q.physical_bytes as f64
        );
        assert!(
            q.wall_time < id.wall_time,
            "{}: compression must pay off",
            id.backend
        );
    }

    // The per-backend aggregate, straight from the store.
    println!("\nmean wall by backend (store group_mean):");
    let by_backend = ctx
        .rows_of(&spec, &report)?
        .group_mean("backend", "wall_time");
    for (backend, wall) in &by_backend {
        println!("  {backend:<12} {wall:.4} s");
    }
    Ok(json!({
        "rows": rows.iter().map(|(storage, s)| json!({
            "storage": storage, "backend": s.backend, "codec": s.codec,
            "total_bytes": s.total_bytes, "physical_bytes": s.physical_bytes,
            "physical_files": s.physical_files, "wall_time": s.wall_time,
        })).collect::<Vec<_>>(),
        "mean_wall_by_backend": by_backend,
    }))
}

/// The machine room: N identical Sedov campaigns on one shared storage
/// fabric, N in {1, 2, 4, 8}, as a `scaling = "throughput"` spec. Solo
/// is exactly 1.0; per-tenant slowdown grows monotonically with N; the
/// wall-vs-tenancy fit over the stored rows has a positive slope.
pub(crate) fn machine_room(ctx: &mut Ctx) -> io::Result<Value> {
    let base = CastroSedovConfig {
        name: "sedov".into(),
        engine: Engine::Oracle,
        n_cell: 128,
        max_level: 2,
        max_step: 16,
        plot_int: 4,
        nprocs: 8,
        account_only: true,
        compute_ns_per_cell: 40_000.0,
        ..Default::default()
    };
    let storage = StorageModel {
        metadata_latency: 1e-4,
        ..StorageModel::ideal(4, 5e7)
    };
    let ladder = [1usize, 2, 4, 8];
    let spec = ExperimentSpec::over("machine_room", std::slice::from_ref(&base))
        .scales(&ladder)
        .scaling(ScalingMode::Throughput);
    let report = ctx.run(&spec, Some(&storage))?;

    println!(
        "\n{:>8} {:>12} {:>12} {:>9} {:>12}",
        "tenants", "wall[s]", "solo[s]", "slowdown", "contention"
    );
    let mean = |rung: &[&RunSummary], f: fn(&RunSummary) -> f64| {
        rung.iter().map(|s| f(s)).sum::<f64>() / rung.len() as f64
    };
    let mut rungs = Vec::new();
    for &n in &ladder {
        let rung: Vec<&RunSummary> = report.summaries.iter().filter(|s| s.tenants == n).collect();
        assert_eq!(rung.len(), n, "one summary per tenant");
        for s in &rung {
            assert!(
                s.slowdown >= 1.0 - 1e-12,
                "sharing never beats solo: {} at n={n}",
                s.slowdown
            );
            assert!(
                (s.wall_time / s.solo_wall - s.slowdown).abs() < 1e-9,
                "slowdown is exactly the wall ratio"
            );
        }
        let (wall, slowdown) = (mean(&rung, |s| s.wall_time), mean(&rung, |s| s.slowdown));
        println!(
            "{n:>8} {wall:>12.3} {:>12.3} {slowdown:>9.3} {:>12.3}",
            rung[0].solo_wall, rung[0].contention_stall
        );
        rungs.push((n, wall, slowdown));
    }
    assert_eq!(rungs[0].2, 1.0, "one tenant is solo");
    for w in rungs.windows(2) {
        assert!(
            w[1].2 >= w[0].2 - 1e-9,
            "slowdown is monotone in tenancy: {w:?}"
        );
    }
    assert!(
        rungs[3].2 > 1.5,
        "8 tenants must interfere visibly (got {:.3})",
        rungs[3].2
    );

    let fit = ctx.rows_of(&spec, &report)?.fit("tenants", "wall_time");
    println!(
        "wall vs tenancy over the stored rows: slope {:.3} s/tenant, r2 {:.4}",
        fit.slope, fit.r2
    );
    assert!(fit.slope > 0.0, "each extra tenant costs wall-clock");
    Ok(json!({
        "rungs": rungs.iter().map(|(n, wall, slowdown)| json!({
            "tenants": n, "mean_wall": wall, "mean_slowdown": slowdown,
        })).collect::<Vec<_>>(),
        "wall_per_tenant": fit.slope,
        "r2": fit.r2,
    }))
}
