//! Shared plumbing for the figure/table regeneration benches.
//!
//! Every bench prints a human-readable table to stdout (the series the
//! paper plots) and writes a JSON artifact under `results/` for the
//! reader. Tracked performance numbers come from `amrbench`
//! (`amrbench/README.md`), not from these artifacts.
//!
//! **Layer position:** top of the workspace, next to `core` — the
//! benches under `benches/` drive every lower layer to regenerate the
//! paper's figures/tables; this library is only their shared output
//! plumbing. Key items: [`banner`], [`print_series`], [`write_artifact`],
//! [`results_dir`].
//!
//! ```
//! // The stdout shape every figure bench uses.
//! bench::banner("fig99", "demo", "doc-example banner");
//! bench::print_series("cumulative bytes", &[(1.0, 10.0), (2.0, 30.0)]);
//! ```

use serde::Serialize;
use std::path::PathBuf;

/// Directory where benches drop their JSON artifacts.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Writes a JSON artifact for experiment `name` (e.g. `fig05`).
pub fn write_artifact<T: Serialize>(name: &str, value: &T) {
    let path = results_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialize artifact");
    std::fs::write(&path, json).expect("write artifact");
    println!("\n[artifact] {}", path.display());
}

/// Prints a banner naming the experiment and its paper counterpart.
pub fn banner(name: &str, paper_ref: &str, description: &str) {
    println!("================================================================");
    println!("{name} — {paper_ref}");
    println!("{description}");
    println!("================================================================");
}

/// Prints an `(x, y)` series as an aligned two-column table.
pub fn print_series(title: &str, series: &[(f64, f64)]) {
    println!("\n## {title}");
    println!("{:>16}  {:>16}", "x", "y");
    for (x, y) in series {
        println!("{x:>16.6e}  {y:>16.6e}");
    }
}

/// Renders a log-log ASCII scatter of several labelled series, used for
/// quick visual inspection of Fig. 5-style plots in the terminal.
pub fn ascii_loglog(series: &[(String, Vec<(f64, f64)>)], width: usize, height: usize) -> String {
    let pts: Vec<(f64, f64)> = series.iter().flat_map(|(_, s)| s.iter().copied()).collect();
    let (mut x0, mut x1, mut y0, mut y1) = (f64::MAX, f64::MIN, f64::MAX, f64::MIN);
    for &(x, y) in &pts {
        if x > 0.0 && y > 0.0 {
            x0 = x0.min(x.log10());
            x1 = x1.max(x.log10());
            y0 = y0.min(y.log10());
            y1 = y1.max(y.log10());
        }
    }
    if x0 >= x1 || y0 >= y1 {
        return String::from("(not enough positive data)\n");
    }
    let mut grid = vec![vec![b' '; width]; height];
    let marks = [b'*', b'o', b'x', b'+', b'#', b'@', b'%', b'&'];
    for (si, (_, s)) in series.iter().enumerate() {
        for &(x, y) in s {
            if x <= 0.0 || y <= 0.0 {
                continue;
            }
            let cx = ((x.log10() - x0) / (x1 - x0) * (width - 1) as f64).round() as usize;
            let cy = ((y.log10() - y0) / (y1 - y0) * (height - 1) as f64).round() as usize;
            grid[height - 1 - cy][cx] = marks[si % marks.len()];
        }
    }
    let mut out = String::new();
    for row in grid {
        out.push('|');
        out.push_str(std::str::from_utf8(&row).expect("ascii"));
        out.push('\n');
    }
    out.push('+');
    out.push_str(&"-".repeat(width));
    out.push('\n');
    out
}

/// Formats bytes with a binary-ish human suffix for table readability.
pub fn human_bytes(b: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KB", "MB", "GB", "TB"];
    let mut v = b as f64;
    let mut u = 0;
    while v >= 1000.0 && u < UNITS.len() - 1 {
        v /= 1000.0;
        u += 1;
    }
    format!("{v:.2} {}", UNITS[u])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_bytes_scales() {
        assert_eq!(human_bytes(512), "512.00 B");
        assert_eq!(human_bytes(1_500), "1.50 KB");
        assert_eq!(human_bytes(2_500_000), "2.50 MB");
        assert_eq!(human_bytes(3_200_000_000), "3.20 GB");
    }

    #[test]
    fn ascii_plot_contains_marks() {
        let series = vec![
            ("a".to_string(), vec![(1.0, 1.0), (10.0, 100.0)]),
            ("b".to_string(), vec![(2.0, 50.0)]),
        ];
        let plot = ascii_loglog(&series, 40, 10);
        assert!(plot.contains('*'));
        assert!(plot.contains('o'));
    }

    #[test]
    fn ascii_plot_handles_degenerate_data() {
        let plot = ascii_loglog(&[("a".into(), vec![(1.0, 1.0)])], 10, 5);
        assert!(plot.contains("not enough"));
    }
}
