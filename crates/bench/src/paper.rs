//! The paper's tables, listing and figures. Each function prints the
//! series the paper plots, asserts the claim the figure carries, and
//! returns the artifact the runner writes to `results/<name>.json`.

use crate::{ascii_loglog, human_bytes, print_series, Ctx};
use amr_mesh::IntVect;
use amrproxy::{
    big8192, case27, case4, compare_with_macsio, run_simulation, table3_campaign,
    CastroSedovConfig, Engine, ExperimentSpec,
};
use hydro::{AmrConfig, AmrSim, Conserved, TimestepControl, UEDEN, UMX, UMY, URHO};
use iosim::{IoKind, IoTracker, MemFs, Vfs};
use macsio::{parse_args, FileMode, Interface, MacsioConfig};
use model::{default_growth_guess, linear_fit, part_size, translate, AmrInputs, TranslationModel};
use serde_json::{to_value, Value};
use std::io;

fn description_table(rows: &[(&str, &str)]) -> Vec<(String, String)> {
    rows.iter()
        .map(|(p, d)| (p.to_string(), d.to_string()))
        .collect()
}

/// Table I: the AMReX-Castro input parameters varied in the study.
pub(crate) fn table1(_: &mut Ctx) -> io::Result<Value> {
    let rows = [
        ("amr.max_step", "maximum expected number of steps"),
        ("amr.n_cell", "number of cells at Level 0 in each direction"),
        ("amr.max_level", "maximum level of refinement allowed"),
        ("amr.plot_int", "frequency of plot outputs"),
        ("castro.cfl", "CFL condition"),
    ];
    println!("{:<18} Description", "Parameter");
    for (p, d) in rows {
        println!("{p:<18} {d}");
    }

    // Show the concrete defaults this reproduction binds them to.
    let cfg = CastroSedovConfig::default();
    println!("\nBaseline values (Listing 2 defaults):");
    for (k, v) in cfg.inputs() {
        if rows.iter().any(|(p, _)| *p == k) || k == "amr.regrid_int" {
            println!("  {k} = {v}");
        }
    }
    Ok(to_value(&description_table(&rows)))
}

/// Table II: the MACSio command-line arguments used to model
/// AMReX-Castro outputs, demonstrated against this reproduction's
/// `macsio` binary surface.
pub(crate) fn table2(_: &mut Ctx) -> io::Result<Value> {
    let rows = [
        ("interface", "output type: miftmpl (json+binary) or json"),
        (
            "parallel_file_mode",
            "File Mode: MIF n (independent) or SIF (single)",
        ),
        ("num_dumps", "number of dumps to marshal (buffer)"),
        ("part_size", "per-task mesh part size"),
        ("avg_num_parts", "average number of mesh parts per task"),
        ("vars_per_part", "number of mesh variables on each part"),
        ("compute_time", "rough time between dumps"),
        ("meta_size", "additional metadata size per task"),
        ("dataset_growth", "multiplier factor for data growth"),
    ];
    println!("{:<20} Description", "MACSio Argument");
    for (p, d) in rows {
        println!("{p:<20} {d}");
    }

    // Every argument parses through the reimplemented CLI.
    let cfg = parse_args([
        "--nprocs",
        "32",
        "--interface",
        "miftmpl",
        "--parallel_file_mode",
        "MIF",
        "32",
        "--num_dumps",
        "20",
        "--part_size",
        "1550000",
        "--avg_num_parts",
        "1",
        "--vars_per_part",
        "1",
        "--compute_time",
        "0.25",
        "--meta_size",
        "1K",
        "--dataset_growth",
        "1.013075",
    ])
    .expect("Table II flags parse");
    assert_eq!(cfg.interface, Interface::Miftmpl);
    assert_eq!(cfg.parallel_file_mode, FileMode::Mif(32));
    println!("\nEquivalent invocation accepted by this reimplementation:");
    println!("  {}", cfg.command_line());
    Ok(to_value(&(description_table(&rows), cfg)))
}

/// Table III: the 47-run campaign parameter ranges.
pub(crate) fn table3(_: &mut Ctx) -> io::Result<Value> {
    let runs = table3_campaign();
    assert_eq!(runs.len(), 47, "the paper performed 47 runs");

    let min_max = |vals: Vec<f64>| {
        (
            vals.iter().copied().fold(f64::MAX, f64::min),
            vals.iter().copied().fold(f64::MIN, f64::max),
        )
    };
    let (ncell_lo, ncell_hi) = min_max(runs.iter().map(|r| r.n_cell as f64).collect());
    let (maxl_lo, maxl_hi) = min_max(runs.iter().map(|r| r.max_level as f64).collect());
    let (pi_lo, pi_hi) = min_max(runs.iter().map(|r| r.plot_int as f64).collect());
    let (cfl_lo, cfl_hi) = min_max(runs.iter().map(|r| r.cfl()).collect());
    let (np_lo, np_hi) = min_max(runs.iter().map(|r| r.nprocs as f64).collect());

    println!("{:<16} Range (this campaign)", "Parameter");
    println!("{:<16} {} runs", "total", runs.len());
    println!(
        "{:<16} ({ncell_lo} x {ncell_lo}) - ({ncell_hi} x {ncell_hi})",
        "amr.n_cell"
    );
    println!("{:<16} {maxl_lo} - {maxl_hi}", "amr.max_level");
    println!("{:<16} {pi_lo} - {pi_hi}", "amr.plot_int");
    println!("{:<16} {cfl_lo} - {cfl_hi}", "castro.cfl");
    println!("{:<16} {np_lo} - {np_hi}", "nprocs");
    println!(
        "\nPaper ranges: n_cell 32^2-131072^2, max_level 2-4, plot_int 1-20, \
         cfl 0.3-0.6, nprocs 1-1024, nodes 1-512."
    );
    println!(
        "This campaign stops at 8192^2 (oracle engine); the two largest paper\n\
         meshes are out of scope here (docs/MODEL.md, documented substitutions)."
    );

    println!("\nAll 47 runs:");
    println!(
        "{:<28} {:>7} {:>5} {:>4} {:>5} {:>7} {:>7}",
        "name", "n_cell", "maxl", "pi", "cfl", "nprocs", "engine"
    );
    for r in &runs {
        println!(
            "{:<28} {:>7} {:>5} {:>4} {:>5} {:>7} {:>7}",
            r.name,
            r.n_cell,
            r.max_level,
            r.plot_int,
            r.cfl(),
            r.nprocs,
            if r.engine == Engine::Oracle {
                "oracle"
            } else {
                "hydro"
            },
        );
    }
    Ok(to_value(&runs))
}

/// Listing 1: the proxy-app model formulation mapping the MACSio
/// executable to AMReX-Castro inputs.
pub(crate) fn listing1(_: &mut Ctx) -> io::Result<Value> {
    let inputs = AmrInputs {
        max_step: 200,
        n_cell: (512, 512),
        max_level: 4,
        plot_int: 1,
        cfl: 0.4,
        nprocs: 32,
    };
    let model = TranslationModel {
        f: 23.65, // the paper's worked case4 constant
        dataset_growth: default_growth_guess(inputs.cfl, inputs.max_level),
        compute_time: 0.5,
        meta_size: 1000,
        compression_ratio: 1.0,
    };
    let cfg = translate(&inputs, &model);

    println!("AMR inputs (Table I):");
    println!("  amr.max_step   = {}", inputs.max_step);
    println!("  amr.n_cell     = {} {}", inputs.n_cell.0, inputs.n_cell.1);
    println!("  amr.max_level  = {}", inputs.max_level);
    println!("  amr.plot_int   = {}", inputs.plot_int);
    println!("  castro.cfl     = {}", inputs.cfl);
    println!("  nprocs         = {}", inputs.nprocs);
    println!("\nTranslated MACSio invocation (Listing 1):");
    println!("  {}", cfg.command_line());

    // Eq. (3) checks against the paper's worked constant.
    let ps = part_size(23.65, 512, 512, 32);
    println!("\nEq. (3): part_size = f*8*Nx*Ny/nprocs = {ps} (paper: ~1550000 for f=23.65)");
    assert!((ps as f64 - 1_550_000.0).abs() / 1_550_000.0 < 0.01);
    assert_eq!(cfg.num_dumps, 200);
    assert_eq!(cfg.nprocs, 32);
    assert!(cfg.dataset_growth >= 1.0 && cfg.dataset_growth <= 1.02);
    Ok(to_value(&(inputs, model, cfg)))
}

/// Fig. 2: the Castro plotfile analysis-output directory structure.
///
/// Writes one real plotfile dump (3 levels, 4 ranks) into the in-memory
/// filesystem and prints the resulting tree, which must match the paper's
/// figure: per-step directory, Header/job_info metadata, per-level
/// directories with Cell_H and per-task Cell_D files.
pub(crate) fn fig02(_: &mut Ctx) -> io::Result<Value> {
    let cfg = CastroSedovConfig {
        engine: Engine::Hydro,
        n_cell: 64,
        max_level: 2,
        max_step: 20,
        plot_int: 20,
        nprocs: 4,
        grid: amr_mesh::GridParams {
            ref_ratio: 2,
            blocking_factor: 8,
            max_grid_size: 32,
            n_error_buf: 2,
            grid_eff: 0.7,
        },
        ctrl: TimestepControl {
            cfl: 0.5,
            init_shrink: 0.3,
            change_max: 1.3,
        },
        ..Default::default()
    };
    let fs = MemFs::new();
    let result = run_simulation(&cfg, Some(&fs), None);

    let mut listing: Vec<(String, u64)> = fs
        .list("/")
        .into_iter()
        .map(|p| {
            let size = fs.file_size(&p).unwrap_or(0);
            (p, size)
        })
        .collect();
    listing.sort();

    // Print as a tree grouped by directory.
    let mut last_dir = String::new();
    for (path, size) in &listing {
        let parts: Vec<&str> = path.trim_start_matches('/').split('/').collect();
        let dir = parts[..parts.len() - 1].join("/");
        if dir != last_dir {
            println!("{dir}/");
            last_dir = dir;
        }
        println!(
            "    {:<16} {:>12}",
            parts.last().unwrap(),
            human_bytes(*size)
        );
    }

    // Structural assertions mirroring the figure.
    let files = fs.list("/");
    assert!(files.iter().any(|f| f.ends_with("/Header")));
    assert!(files.iter().any(|f| f.ends_with("/job_info")));
    assert!(files.iter().any(|f| f.contains("/Level_0/Cell_H")));
    assert!(files.iter().any(|f| f.contains("/Level_0/Cell_D_00000")));
    assert!(files.iter().any(|f| f.contains("/Level_1/")));
    println!(
        "\nplot dumps: {}   files: {}   total: {}",
        result.totals.outputs,
        files.len(),
        human_bytes(fs.total_bytes())
    );
    Ok(to_value(&listing))
}

/// Fig. 3: MACSio's N-to-N output pattern with the miftmpl interface,
/// ordered by task and output step.
pub(crate) fn fig03(_: &mut Ctx) -> io::Result<Value> {
    let cfg = MacsioConfig {
        nprocs: 4,
        num_dumps: 3,
        part_size: 100_000,
        parallel_file_mode: FileMode::Mif(4),
        ..Default::default()
    };
    let fs = MemFs::new();
    let tracker = IoTracker::new();
    let report = macsio::run(&cfg, &fs, &tracker, None).expect("macsio run");

    let files = fs.list("/");
    for (heading, metadata) in [("data", false), ("metadata", true)] {
        println!("{heading}");
        for f in files.iter().filter(|f| f.contains("root") == metadata) {
            println!(
                "    {:<32} {:>12}",
                f.trim_start_matches('/'),
                human_bytes(fs.file_size(f).unwrap())
            );
        }
    }

    // The naming of the figure: macsio_json_{task:05}_{step:03}.json and
    // macsio_json_root_{step:03}.json.
    assert!(files.contains(&"/macsio_json_00000_000.json".to_string()));
    assert!(files.contains(&"/macsio_json_00003_002.json".to_string()));
    assert!(files.contains(&"/macsio_json_root_000.json".to_string()));
    println!(
        "\nfiles: {}  total: {}",
        report.files_written,
        human_bytes(report.total_bytes)
    );
    Ok(to_value(&files))
}

/// Fig. 4: the Sedov 2-D cylinder-in-Cartesian pivot case after 20
/// timesteps — (a) the AMR mesh with moving refined levels, (b) the Mach
/// number of the solution.
///
/// Rendered as ASCII: level-coverage map (digits = finest level covering
/// each region) and a Mach-number heat map.
pub(crate) fn fig04(_: &mut Ctx) -> io::Result<Value> {
    let cfg = AmrConfig {
        n_cell: 128,
        max_level: 2,
        grid: amr_mesh::GridParams {
            ref_ratio: 2,
            blocking_factor: 8,
            max_grid_size: 64,
            n_error_buf: 2,
            grid_eff: 0.7,
        },
        regrid_int: 2,
        nranks: 8,
        strategy: amr_mesh::DistributionStrategy::Sfc,
        ctrl: TimestepControl {
            cfl: 0.5,
            init_shrink: 0.3,
            change_max: 1.3,
        },
        tag: hydro::TagCriteria::default(),
        problem: hydro::SedovProblem::default(),
    };
    let mut sim = AmrSim::new(cfg);
    for _ in 0..40 {
        sim.step();
    }
    println!(
        "t = {:.4e} after {} steps, {} levels",
        sim.time(),
        sim.step_count(),
        sim.finest_level() + 1
    );

    // (a) Level-coverage map at a 64x32 terminal raster.
    let (w, h) = (64usize, 32usize);
    let n = sim.levels()[0].geom.domain.size().x;
    let mut level_map = vec![vec![b'0'; w]; h];
    for (lev, level) in sim.levels().iter().enumerate().skip(1) {
        let ratio = level.geom.domain.size().x / n;
        for b in level.mf.box_array().iter() {
            let coarse = b.coarsen(IntVect::splat(ratio));
            for p in coarse.cells() {
                let cx = (p.x as usize * w) / n as usize;
                let cy = (p.y as usize * h) / n as usize;
                if cy < h && cx < w {
                    level_map[h - 1 - cy][cx] = b'0' + lev as u8;
                }
            }
        }
    }
    println!("\n(a) finest level covering each region (0 = base):");
    for row in &level_map {
        println!("  {}", std::str::from_utf8(row).unwrap());
    }

    // (b) Mach number of the L0 solution (fine data averaged down).
    let eos = *sim.eos();
    let l0 = &sim.levels()[0];
    let mut mach = vec![vec![0.0f64; w]; h];
    for (valid, fab) in l0.mf.iter() {
        for p in valid.cells() {
            let wprim = Conserved::new(
                fab.get(p, URHO),
                fab.get(p, UMX),
                fab.get(p, UMY),
                fab.get(p, UEDEN),
            )
            .to_primitive(&eos);
            let cx = (p.x as usize * w) / n as usize;
            let cy = (p.y as usize * h) / n as usize;
            let m = wprim.mach(&eos);
            if mach[h - 1 - cy][cx] < m {
                mach[h - 1 - cy][cx] = m;
            }
        }
    }
    let shades = b" .:-=+*#%@";
    let m_max = mach
        .iter()
        .flatten()
        .copied()
        .fold(0.0f64, f64::max)
        .max(1e-12);
    println!("\n(b) Mach number (max = {m_max:.3}):");
    for row in &mach {
        let line: Vec<u8> = row
            .iter()
            .map(|&m| shades[((m / m_max) * (shades.len() - 1) as f64).round() as usize])
            .collect();
        println!("  {}", std::str::from_utf8(&line).unwrap());
    }

    // The physics assertions behind the figure: refinement tracks the
    // shock annulus, and the peak Mach sits away from the center.
    let refined: i64 = sim.levels()[1..]
        .iter()
        .map(|l| l.mf.box_array().num_pts())
        .sum();
    let domain_pts = sim.levels()[0].geom.domain.num_pts();
    assert!(refined > 0, "refined levels exist");
    assert!(
        refined < 4 * domain_pts,
        "refinement is localized, not global"
    );
    // The refined region at L1 is an annulus: its bounding box is much
    // larger than the region itself.
    let l1 = &sim.levels()[1];
    let bbox = l1.mf.box_array().minimal_box();
    let ring_fill = l1.mf.box_array().num_pts() as f64 / bbox.num_pts() as f64;
    println!("\nL1 ring fill fraction of its bounding box: {ring_fill:.2}");

    Ok(to_value(&(
        sim.time(),
        sim.step_count(),
        sim.levels()
            .iter()
            .map(|l| l.mf.box_array().num_pts())
            .collect::<Vec<_>>(),
        m_max,
    )))
}

/// Fig. 5: cumulative output size per output step vs the cumulative
/// number of output cells (Eq. 1), across the Table III campaign — the
/// mixed linear / non-linear families. The campaign runs as a spec
/// against the shared store: a second invocation resumes every cell.
pub(crate) fn fig05(ctx: &mut Ctx) -> io::Result<Value> {
    // The figure shows a representative subset; exclude the very largest
    // runs exactly as the paper does "for illustration purposes".
    let bases: Vec<_> = table3_campaign()
        .into_iter()
        .filter(|c| c.n_cell <= 2048)
        .collect();
    let summaries = ctx
        .run(&ExperimentSpec::over("table3", &bases), None)?
        .summaries;

    let r2 = |series: &[(f64, f64)]| {
        let (xs, ys): (Vec<f64>, Vec<f64>) = series.iter().copied().unzip();
        linear_fit(&xs, &ys).r2
    };
    let fitted: Vec<_> = summaries
        .iter()
        .filter(|s| s.series.len() >= 3)
        .map(|s| (s, r2(&s.series)))
        .collect();
    for (s, r2) in &fitted {
        let tag = if *r2 > 0.999 { "linear" } else { "non-linear" };
        println!(
            "{:<28} maxl={} cfl={:.1} R2={r2:.5} ({tag})",
            s.name, s.max_level, s.cfl
        );
    }
    let linear_count = fitted.iter().filter(|(_, r2)| *r2 > 0.999).count();
    let nonlinear_count = fitted.len() - linear_count;
    println!("\n{linear_count} near-linear runs, {nonlinear_count} non-linear runs");
    // The paper's observation: both families exist, and the non-linear
    // family is driven by refinement (higher max_level).
    assert!(linear_count > 0, "a near-linear family must exist");
    assert!(nonlinear_count > 0, "a non-linear family must exist");
    let mean_r2 = |depth: fn(usize) -> bool| {
        let v: Vec<f64> = fitted
            .iter()
            .filter(|(s, _)| depth(s.max_level))
            .map(|(_, r2)| *r2)
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    let (shallow, deep) = (mean_r2(|l| l == 2), mean_r2(|l| l >= 4));
    println!("mean R2: max_level=2 runs {shallow:.6}, max_level>=4 runs {deep:.6}");
    assert!(
        deep < shallow,
        "deeper hierarchies deviate more from linearity"
    );

    println!("\nlog-log scatter (each mark family = one run):");
    let plotted: Vec<(String, Vec<(f64, f64)>)> = fitted
        .iter()
        .map(|(s, _)| (s.name.clone(), s.series.clone()))
        .collect();
    print!("{}", ascii_loglog(&plotted, 72, 24));

    // Print two representative series in full.
    if let Some(s) = summaries
        .iter()
        .find(|s| s.max_level == 2 && s.n_cell == 256)
    {
        print_series(&format!("{} (near-linear)", s.name), &s.series);
    }
    if let Some(s) = summaries.iter().find(|s| s.max_level == 4) {
        print_series(&format!("{} (non-linear)", s.name), &s.series);
    }
    Ok(to_value(&summaries))
}

/// Fig. 6: dependency of the cumulative output size on the CFL number and
/// the number of AMR levels, for the case4 pivot (512^2 L0 mesh, 32
/// tasks).
pub(crate) fn fig06(_: &mut Ctx) -> io::Result<Value> {
    let mut artifacts = Vec::new();
    let mut finals: Vec<(f64, usize, f64)> = Vec::new();
    for &maxl in &[2usize, 4] {
        for &cfl in &[0.3, 0.4, 0.5, 0.6] {
            // 120 outputs: the paper's 20-output window sits on Castro's
            // early transient; the oracle needs the post-ignition regime
            // for the CFL effect to accumulate.
            let cfg = case4(cfl, maxl, 120);
            let r = run_simulation(&cfg, None, None);
            let s = r.xy_series();
            let series: Vec<(f64, f64)> = s.points.iter().map(|p| (p.x, p.y)).collect();
            println!(
                "cfl={cfl:.1} maxl={maxl}: final cumulative = {:.4e} bytes over {} outputs",
                s.final_bytes(),
                series.len()
            );
            finals.push((cfl, maxl, s.final_bytes()));
            if (cfl - 0.4).abs() < 1e-9 {
                print_series(&format!("cfl={cfl} maxl={maxl}"), &series);
            }
            artifacts.push((cfl, maxl, series));
        }
    }

    // Paper claims: max_level dominates; CFL has a smaller but monotone
    // influence.
    let total = |cfl: f64, maxl: usize| {
        finals
            .iter()
            .find(|(c, m, _)| (*c - cfl).abs() < 1e-9 && *m == maxl)
            .map(|(_, _, b)| *b)
            .unwrap()
    };
    for &cfl in &[0.3, 0.4, 0.5, 0.6] {
        assert!(
            total(cfl, 4) > total(cfl, 2),
            "more levels must produce more bytes at cfl {cfl}"
        );
    }
    let level_effect = total(0.4, 4) / total(0.4, 2);
    let cfl_effect = total(0.6, 4) / total(0.3, 4);
    println!(
        "\nlevel effect (maxl 4 / maxl 2 at cfl .4): {level_effect:.3}x\n\
         cfl effect   (cfl .6 / cfl .3 at maxl 4): {cfl_effect:.3}x"
    );
    assert!(
        level_effect > cfl_effect,
        "the number of AMR levels must dominate the CFL effect"
    );
    Ok(to_value(&artifacts))
}

/// Fig. 7: cumulative output size decomposed per AMR level (L0, L1, L2)
/// as a function of the cumulative output cells and CFL, for case4.
pub(crate) fn fig07(_: &mut Ctx) -> io::Result<Value> {
    let mut artifacts = Vec::new();
    for &cfl in &[0.3, 0.6] {
        let cfg = case4(cfl, 2, 120);
        let r = run_simulation(&cfg, None, None);
        let per_level = r.tracker.cumulative_per_level_step();
        println!("\ncfl = {cfl}:");
        for (level, series) in &per_level {
            let increments: Vec<f64> = series
                .windows(2)
                .map(|w| (w[1].1 - w[0].1) as f64)
                .collect();
            let mean = increments.iter().sum::<f64>() / increments.len().max(1) as f64;
            let max_dev = increments
                .iter()
                .map(|i| (i - mean).abs() / mean)
                .fold(0.0f64, f64::max);
            println!(
                "  L{level}: final {:.4e} bytes, per-step increment {:.4e} +- {:.1}%",
                series.last().unwrap().1 as f64,
                mean,
                100.0 * max_dev
            );
            // Paper claims: L0 output is ~constant per step (driven only
            // by n_cell); refined levels vary smoothly.
            if *level == 0 {
                assert!(
                    max_dev < 0.02,
                    "L0 per-step output must be near-constant, got {max_dev}"
                );
            }
            artifacts.push((cfl, *level, series.clone()));
        }
        // Refined levels grow over the run (the shock annulus expands).
        if let Some(l1) = per_level.get(&1) {
            let first_incr = l1[1].1 - l1[0].1;
            let last_incr = l1[l1.len() - 1].1 - l1[l1.len() - 2].1;
            assert!(
                last_incr > first_incr,
                "L1 per-step output must grow: {first_incr} -> {last_incr}"
            );
        }
    }
    Ok(to_value(&artifacts))
}

/// Fig. 8: output generation at each timestep per compute task for the 4
/// mesh levels of case27 (1024^2 L0 mesh, 64 ranks, 5 output steps) —
/// the per-task imbalance that limits MACSio's granularity to the level.
pub(crate) fn fig08(_: &mut Ctx) -> io::Result<Value> {
    let cfg = case27();
    let r = run_simulation(&cfg, None, None);
    let steps = r.tracker.steps();
    let levels = r.tracker.levels();
    println!(
        "output steps: {:?}  levels: {:?}  tasks: {}",
        steps, levels, cfg.nprocs
    );
    assert!(
        levels.len() >= 4,
        "case27 has 4 mesh levels, got {levels:?}"
    );

    let mut artifacts = Vec::new();
    let mut imbalance_by_level: Vec<(u32, f64)> = Vec::new();
    for &level in &levels {
        println!("\nLevel {level} (bytes per task, one row per output step):");
        let mut worst = 0.0f64;
        for &step in &steps {
            let per_task = r.tracker.bytes_per_task_of(step, level, IoKind::Data);
            let writers = per_task.iter().filter(|&&b| b > 0).count();
            let total: u64 = per_task.iter().sum();
            if total == 0 {
                continue;
            }
            let mean = total as f64 / writers.max(1) as f64;
            let max = *per_task.iter().max().unwrap() as f64;
            let imb = max / mean;
            worst = worst.max(imb);
            println!(
                "  step {step}: writers {writers:>3}/{} total {:>12} max/mean {imb:.2}",
                cfg.nprocs,
                human_bytes(total),
            );
            artifacts.push((step, level, per_task));
        }
        imbalance_by_level.push((level, worst));
    }

    println!("\nworst per-task imbalance (max/mean) by level:");
    for (level, imb) in &imbalance_by_level {
        println!("  L{level}: {imb:.2}");
    }
    // The paper's observation: refined levels show strong task imbalance
    // (AMR boxes land unevenly on ranks), which is why the MACSio model
    // stops at "level" granularity.
    let refined_imb = imbalance_by_level
        .iter()
        .filter(|(l, _)| *l > 0)
        .map(|(_, i)| *i)
        .fold(0.0f64, f64::max);
    assert!(
        refined_imb > 1.3,
        "refined levels must be visibly imbalanced, got {refined_imb}"
    );
    Ok(to_value(&artifacts))
}

/// The `step / AMR bytes / MACSio bytes` table of a comparison, every
/// fifth step plus the last.
fn print_per_step(cmp: &amrproxy::Comparison, width: usize, precision: usize) {
    println!(
        "{:>6} {:>width$} {:>width$}",
        "step", "AMR bytes", "MACSio bytes"
    );
    let pairs = cmp.amr_per_step.iter().zip(&cmp.macsio_per_step);
    for (i, (a, m)) in pairs.enumerate() {
        if i % 5 == 0 || i + 1 == cmp.amr_per_step.len() {
            println!("{i:>6} {a:>width$.precision$e} {m:>width$.precision$e}");
        }
    }
}

/// Fig. 9: calibration convergence for the case4 pivot (cfl = 0.4, 4 AMR
/// levels) — each evaluated dataset_growth candidate is one curve that
/// approaches the measured per-step output sizes.
pub(crate) fn fig09(_: &mut Ctx) -> io::Result<Value> {
    let cfg = case4(0.4, 4, 200);
    let amr = run_simulation(&cfg, None, None);
    let cmp = compare_with_macsio(&amr, 2);

    println!(
        "target: {} output steps, first {:.4e} B, last {:.4e} B",
        cmp.amr_per_step.len(),
        cmp.amr_per_step.first().unwrap(),
        cmp.amr_per_step.last().unwrap()
    );
    println!("\ncalibration trace (one curve per evaluation):");
    println!(
        "{:>4} {:>12} {:>14} {:>14}",
        "eval", "growth", "rmse", "rmse/first"
    );
    for (i, e) in cmp.calibration.trace.iter().enumerate() {
        println!(
            "{i:>4} {:>12.6} {:>14.4e} {:>14.6}",
            e.dataset_growth,
            e.rmse,
            e.rmse / cmp.amr_per_step[0]
        );
    }
    println!(
        "\nconverged: dataset_growth = {:.6} (paper: 1.013075 for its Summit pivot)",
        cmp.calibration.dataset_growth
    );
    println!("fitted f = {:.2} (paper band: 23-25)", cmp.calibration.f);

    // Convergence claim: the best evaluation improves on the first by a
    // large factor, and the growth lands just above 1 (the paper's
    // 1.0-1.02 guidance).
    let first = cmp.calibration.trace.first().unwrap().rmse;
    let best = cmp.calibration.rmse;
    assert!(best < first, "calibration must improve");
    assert!(
        (1.0..1.06).contains(&cmp.calibration.dataset_growth),
        "growth {} out of band",
        cmp.calibration.dataset_growth
    );
    Ok(to_value(&cmp))
}

/// Fig. 10: baseline case4 per-step output sizes for CFL 0.3/0.6 and
/// max_level 2/4 against the calibrated MACSio model.
pub(crate) fn fig10(_: &mut Ctx) -> io::Result<Value> {
    let mut artifacts = Vec::new();
    for &maxl in &[2usize, 4] {
        for &cfl in &[0.3, 0.6] {
            let cfg = case4(cfl, maxl, 200);
            let amr = run_simulation(&cfg, None, None);
            let cmp = compare_with_macsio(&amr, 2);
            println!(
                "\ncfl={cfl} maxl={maxl}: growth={:.6} f={:.2} MAPE={:.2}% final_err={:+.2}%",
                cmp.calibration.dataset_growth,
                cmp.calibration.f,
                cmp.mape_percent,
                100.0 * cmp.final_error
            );
            print_per_step(&cmp, 14, 4);
            // The paper's headline: the proxy stays close per step.
            assert!(
                cmp.mape_percent < 15.0,
                "cfl={cfl} maxl={maxl}: MAPE {}",
                cmp.mape_percent
            );
            assert!(
                cmp.final_error.abs() < 0.10,
                "cfl={cfl} maxl={maxl}: final error {}",
                cmp.final_error
            );
            artifacts.push((cfl, maxl, cmp));
        }
    }

    // Paper guidance: growth increases with CFL and levels.
    let growth = |cfl: f64, maxl: usize| {
        artifacts
            .iter()
            .find(|(c, m, _)| (*c - cfl).abs() < 1e-9 && *m == maxl)
            .map(|(_, _, cmp)| cmp.calibration.dataset_growth)
            .unwrap()
    };
    println!("\ncalibrated growth grid:");
    println!(
        "  cfl .3: maxl2 {:.5}  maxl4 {:.5}",
        growth(0.3, 2),
        growth(0.3, 4)
    );
    println!(
        "  cfl .6: maxl2 {:.5}  maxl4 {:.5}",
        growth(0.6, 2),
        growth(0.6, 4)
    );
    assert!(
        growth(0.3, 4) >= growth(0.3, 2),
        "more levels -> more growth"
    );
    Ok(to_value(&artifacts))
}

/// Fig. 11: the large 8192^2 L0 Sedov run — non-smooth per-step output
/// at scale — against the first-order MACSio kernel model.
pub(crate) fn fig11(_: &mut Ctx) -> io::Result<Value> {
    let cfg = big8192(120);
    eprintln!("running the 8192^2 oracle hierarchy (~120 outputs)...");
    let amr = run_simulation(&cfg, None, None);
    let per_step = amr.per_step_bytes();
    println!("outputs: {}", per_step.len());

    // The figure's qualitative feature: at this scale the refined-level
    // contribution is a small, non-smooth ripple on a large L0 baseline.
    let l0_share = {
        let per_level = amr.tracker.bytes_per_level();
        per_level[&0] as f64 / amr.tracker.total_bytes() as f64
    };
    println!("L0 share of total bytes: {:.1}%", 100.0 * l0_share);
    assert!(
        l0_share > 0.5,
        "at large scale the L0 baseline dominates, got {l0_share}"
    );
    let spread = {
        let lo = per_step.iter().copied().fold(f64::MAX, f64::min);
        let hi = per_step.iter().copied().fold(f64::MIN, f64::max);
        (hi - lo) / lo
    };
    println!(
        "per-step size spread: {:.3}% (the paper's 8192^2 case varies in the 4th digit)",
        100.0 * spread
    );
    assert!(
        spread < 0.25,
        "variation must be a ripple, not a trend: {spread}"
    );

    let cmp = compare_with_macsio(&amr, 2);
    println!(
        "\nMACSio kernel: growth={:.6} f={:.2} MAPE={:.3}% final_err={:+.3}%",
        cmp.calibration.dataset_growth,
        cmp.calibration.f,
        cmp.mape_percent,
        100.0 * cmp.final_error
    );
    print_per_step(&cmp, 16, 6);
    // "MACSio can generate kernels that are in the vicinity of these
    // values, while not necessarily providing an exact proxy for the
    // observed non-smooth behavior."
    assert!(cmp.mape_percent < 5.0, "MAPE {}", cmp.mape_percent);
    Ok(to_value(&cmp))
}
