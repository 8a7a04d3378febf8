//! `amrbench compare A.json B.json`: one row per (metric, workload).
//!
//! `A` is the base. A row reads `ok`, `worse` (the median moved the
//! wrong way by more than the metric's bound, or an exact value moved at
//! all) or `unresolved` (the spread of either side is wider than the
//! bound and the two sides' runs interleave, so the bound cannot be
//! checked — reported as such rather than as unchanged).

use crate::harness::Stats;
use crate::metrics::{Better, DETAILS, END_TO_END};
use crate::runner::WorkloadReport;
use serde::Value;

/// Outcome of one row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse than the base by more than the bound.
    Worse,
    /// Spread wider than the bound and the runs interleave.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `change` against `base` for a metric with the given direction
/// and bound (a share of the base median; 0 means exact).
pub fn judge(base: &Stats, change: &Stats, better: Better, bound: f64) -> Verdict {
    if bound == 0.0 {
        return if change.median == base.median {
            Verdict::Ok
        } else {
            Verdict::Worse
        };
    }
    // Orient so that larger is worse.
    let (b_med, c_med, b_best, b_worst, c_best, c_worst) = match better {
        Better::Lower => (
            base.median,
            change.median,
            base.min,
            base.max,
            change.min,
            change.max,
        ),
        Better::Higher => (
            -base.median,
            -change.median,
            -base.max,
            -base.min,
            -change.max,
            -change.min,
        ),
    };
    let noisy = base.spread() > bound || change.spread() > bound;
    if noisy {
        // Every run of the change better than every run of the base
        // settles it; so does every run being worse. Otherwise the two
        // sides interleave and the bound cannot be resolved.
        if c_worst <= b_best {
            return Verdict::Ok;
        }
        if c_best <= b_worst {
            return Verdict::Unresolved;
        }
    }
    if c_med - b_med > bound * base.median.abs() {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Parses an `amrbench run --json` document into its untraced reports.
pub fn untraced_reports(doc: &Value) -> Result<Vec<WorkloadReport>, String> {
    let runs = doc
        .get("runs")
        .and_then(Value::as_array)
        .ok_or("document has no 'runs' array")?;
    let reports = runs
        .iter()
        .map(WorkloadReport::from_value)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(reports.into_iter().filter(|r| !r.traced).collect())
}

/// Compares two documents; returns the table and whether any row is
/// `worse` or any workload's `fail_share` rose.
pub fn compare(base: &Value, change: &Value) -> Result<(String, bool), String> {
    let base = untraced_reports(base)?;
    let change = untraced_reports(change)?;
    let mut out = format!(
        "{:<16} {:<22} {:>14} {:>14} {:>22} {:>6}  verdict\n",
        "workload", "metric", "base median", "change median", "ratio", "bound"
    );
    let mut failed = false;
    for b in &base {
        let Some(c) = change.iter().find(|c| c.workload == b.workload) else {
            out.push_str(&format!(
                "{:<16} (not in the second document)\n",
                b.workload
            ));
            continue;
        };
        let bounds = END_TO_END
            .iter()
            .map(|m| (m.name, m.better, m.bound))
            .chain(DETAILS.iter().map(|m| (m.name, m.better, m.bound)));
        for (name, better, bound) in bounds {
            let find = |r: &WorkloadReport| {
                r.metrics
                    .iter()
                    .chain(&r.details)
                    .find(|m| m.name == name)
                    .map(|m| (m.stats, m.unit.clone()))
            };
            let (Some((bs, unit)), Some((cs, _))) = (find(b), find(c)) else {
                continue;
            };
            let verdict = judge(&bs, &cs, better, bound);
            failed |= verdict == Verdict::Worse;
            let ratio = if bs.median == 0.0 {
                "-".to_string()
            } else {
                format!("{:.4} x base {:.6}", cs.median / bs.median, bs.median)
            };
            out.push_str(&format!(
                "{:<16} {:<22} {:>14.6} {:>14.6} {:>22} {:>6}  {} ({unit}, {} is better)\n",
                b.workload,
                name,
                bs.median,
                cs.median,
                ratio,
                bound,
                verdict.name(),
                better.name(),
            ));
        }
        let share = |r: &WorkloadReport| r.failed as f64 / r.attempted.max(1) as f64;
        let rose = share(c) > share(b);
        failed |= rose;
        out.push_str(&format!(
            "{:<16} {:<22} {:>14.6} {:>14.6} {:>22} {:>6}  {}\n",
            b.workload,
            "fail_share",
            share(b),
            share(c),
            format!("{} -> {} failed", b.failed, c.failed),
            0,
            if rose { "worse" } else { "ok" },
        ));
        if b.digest != c.digest {
            out.push_str(&format!(
                "{:<16} simulated digest {:016x} -> {:016x}: simulated statistics moved\n",
                b.workload, b.digest, c.digest
            ));
        }
    }
    Ok((out, failed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(median: f64) -> Stats {
        Stats {
            n: 5,
            median,
            min: median * 0.99,
            max: median * 1.01,
            q1: median * 0.995,
            q3: median * 1.005,
        }
    }

    fn wide(median: f64) -> Stats {
        Stats {
            n: 5,
            median,
            min: median * 0.7,
            max: median * 1.3,
            q1: median * 0.85,
            q3: median * 1.15,
        }
    }

    #[test]
    fn bound_is_a_share_of_the_base_and_respects_direction() {
        assert_eq!(
            judge(&tight(1.0), &tight(1.05), Better::Lower, 0.1),
            Verdict::Ok
        );
        assert_eq!(
            judge(&tight(1.0), &tight(1.2), Better::Lower, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            judge(&tight(1.0), &tight(0.5), Better::Lower, 0.1),
            Verdict::Ok
        );
        assert_eq!(
            judge(&tight(100.0), &tight(80.0), Better::Higher, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            judge(&tight(100.0), &tight(150.0), Better::Higher, 0.1),
            Verdict::Ok
        );
    }

    #[test]
    fn wide_interleaving_runs_are_unresolved_not_unchanged() {
        assert_eq!(
            judge(&wide(1.0), &tight(1.05), Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // Every run of the change better than every run of the base.
        assert_eq!(
            judge(&wide(1.0), &tight(0.5), Better::Lower, 0.1),
            Verdict::Ok
        );
        // Every run worse, and beyond the bound.
        assert_eq!(
            judge(&wide(1.0), &tight(2.0), Better::Lower, 0.1),
            Verdict::Worse
        );
    }

    #[test]
    fn exact_metrics_may_not_move_at_all() {
        let a = Stats::single(0.6494482958987033);
        assert_eq!(judge(&a, &a, Better::Lower, 0.0), Verdict::Ok);
        let moved = Stats::single(f64::from_bits(a.median.to_bits() + 1));
        assert_eq!(judge(&a, &moved, Better::Lower, 0.0), Verdict::Worse);
    }
}
