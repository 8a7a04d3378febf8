//! Fig. 6: dependency of the cumulative output size on the CFL number and
//! the number of AMR levels, for the case4 pivot (512^2 L0 mesh, 32
//! tasks).

use amrproxy::{case4, run_simulation};
use bench::{banner, print_series, write_artifact};

fn main() {
    banner(
        "fig06",
        "Fig. 6 of the paper",
        "Cumulative output size vs (CFL, max_level) for the 512^2 case4 pivot",
    );
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
            artifacts.push((cfl, maxl, series.clone()));
            if (cfl - 0.4).abs() < 1e-9 {
                print_series(&format!("cfl={cfl} maxl={maxl}"), &series);
            }
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
    write_artifact("fig06", &artifacts);
}
