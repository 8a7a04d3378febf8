//! Scenario programs: the workload grammar of the scenario plane.
//!
//! The paper models an AMR campaign as alternating compute and bursty
//! I/O phases, but real campaigns are not "write everything, then maybe
//! read": they interleave checkpoints, mid-run failures and restarts,
//! and periodic in-situ analysis with the write stream (the workloads
//! Hercule and AMRIC price). A [`Scenario`] names such a campaign shape
//! as a small op program — `write;fail@17;restart;analyze:level:2,reorg`
//! — that [`crate::driver`] compiles against a workload's cadence and
//! executes over its producer (`amrproxy`'s hierarchy engines, `macsio`'s
//! part marshaller). The type lives here, next to [`crate::BackendSpec`]
//! / [`crate::CodecSpec`] / [`crate::ReadSelection`], so every workload
//! generator shares one spelling and one interpreter.
//!
//! Ops:
//!
//! * `write` — the engine's write campaign (plot dumps at its cadence);
//!   exactly one per scenario, always present.
//! * `check@K` — checkpoint every `K` steps during the write campaign
//!   (overrides the engine's configured checkpoint cadence).
//! * `fail@K` — the run crashes after step `K` completes (its flushed
//!   dumps survive, in-memory state is lost); must be recovered by a
//!   following `restart`.
//! * `restart` — after a `fail`: mid-run recovery (read the newest
//!   restart dump at or before the failed step, replay lost compute,
//!   resume). Without a preceding `fail`: a trailing restart-read of
//!   the last dump (the legacy read-after-write axis).
//! * `readall` — trailing read-back of *every* dump (post-hoc analysis
//!   over the whole campaign).
//! * `analyze:SEL[,reorg]` — trailing selective analysis read of the
//!   last dump (`SEL` is a [`ReadSelection`] spelling; `,reorg` serves
//!   it from the reorganized layout).
//! * `analyze_every:M:SEL[,reorg]` — in-run analysis: after every `M`-th
//!   plot dump, a selective read of that dump, interleaved with the
//!   following write bursts rather than appended at the end.

use crate::selection::ReadSelection;
use serde::{Deserialize, Serialize};

/// One op of a [`Scenario`] program (see module docs for spellings).
#[derive(Clone, Debug, PartialEq)]
pub enum ScenarioOp {
    /// The engine's write campaign (`write`).
    Write,
    /// Checkpoint every `K` steps during the campaign (`check@K`).
    CheckEvery(u64),
    /// Crash after step `K` completes (`fail@K`).
    Fail(u64),
    /// Recover from the newest restart dump (after a `fail`), or
    /// restart-read the last dump at the end (`restart`).
    Restart,
    /// Read every dump back at the end (`readall`).
    ReadAll,
    /// Trailing selective analysis read of the last dump
    /// (`analyze:SEL[,reorg]`).
    Analyze {
        /// What the read fetches.
        sel: ReadSelection,
        /// Serve the read from the reorganized (read-optimized) layout.
        reorganize: bool,
    },
    /// In-run analysis after every `every`-th plot dump
    /// (`analyze_every:M:SEL[,reorg]`).
    AnalyzeEvery {
        /// Plot-dump cadence of the analysis (1 = after every dump).
        every: u64,
        /// What each read fetches.
        sel: ReadSelection,
        /// Serve each read from the reorganized layout.
        reorganize: bool,
    },
}

impl ScenarioOp {
    /// Parses one op spelling.
    pub(crate) fn parse(s: &str) -> Result<Self, String> {
        if s == "write" {
            return Ok(ScenarioOp::Write);
        }
        if s == "restart" {
            return Ok(ScenarioOp::Restart);
        }
        if s == "readall" {
            return Ok(ScenarioOp::ReadAll);
        }
        if let Some(k) = s.strip_prefix("check@") {
            let k = k.parse::<u64>().map_err(|_| format!("bad cadence '{k}'"))?;
            return Ok(ScenarioOp::CheckEvery(k));
        }
        if let Some(k) = s.strip_prefix("fail@") {
            let k = k
                .parse::<u64>()
                .map_err(|_| format!("bad fail step '{k}'"))?;
            return Ok(ScenarioOp::Fail(k));
        }
        if let Some(rest) = s.strip_prefix("analyze_every:") {
            let (every, sel) = rest
                .split_once(':')
                .ok_or_else(|| format!("bad analyze_every '{rest}' (expected M:SEL)"))?;
            let every = every
                .parse::<u64>()
                .map_err(|_| format!("bad cadence '{every}'"))?;
            let (sel, reorganize) = parse_sel_with_reorg(sel)?;
            return Ok(ScenarioOp::AnalyzeEvery {
                every,
                sel,
                reorganize,
            });
        }
        if let Some(rest) = s.strip_prefix("analyze:") {
            let (sel, reorganize) = parse_sel_with_reorg(rest)?;
            return Ok(ScenarioOp::Analyze { sel, reorganize });
        }
        Err(format!(
            "unknown scenario op '{s}' (expected write, check@K, fail@K, restart, readall, \
             analyze:SEL[,reorg], or analyze_every:M:SEL[,reorg])"
        ))
    }

    /// The canonical spelling.
    pub(crate) fn name(&self) -> String {
        match self {
            ScenarioOp::Write => "write".to_string(),
            ScenarioOp::CheckEvery(k) => format!("check@{k}"),
            ScenarioOp::Fail(k) => format!("fail@{k}"),
            ScenarioOp::Restart => "restart".to_string(),
            ScenarioOp::ReadAll => "readall".to_string(),
            ScenarioOp::Analyze { sel, reorganize } => {
                format!("analyze:{}{}", sel.name(), reorg_suffix(*reorganize))
            }
            ScenarioOp::AnalyzeEvery {
                every,
                sel,
                reorganize,
            } => format!(
                "analyze_every:{every}:{}{}",
                sel.name(),
                reorg_suffix(*reorganize)
            ),
        }
    }
}

fn reorg_suffix(reorganize: bool) -> &'static str {
    if reorganize {
        ",reorg"
    } else {
        ""
    }
}

/// Splits an optional `,reorg` suffix off a selection spelling. A field
/// pattern whose substring literally ends in `,reorg` cannot be spelled
/// through a scenario string (the suffix always wins); construct the op
/// directly in that case.
fn parse_sel_with_reorg(s: &str) -> Result<(ReadSelection, bool), String> {
    let (sel, reorganize) = match s.strip_suffix(",reorg") {
        Some(rest) => (rest, true),
        None => (s, false),
    };
    Ok((ReadSelection::parse(sel)?, reorganize))
}

/// A campaign shape: a validated sequence of [`ScenarioOp`]s (see module
/// docs). Travels as its `;`-joined spelling in configs and CLIs.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// The ops, in program order.
    pub ops: Vec<ScenarioOp>,
}

impl Scenario {
    /// The plain write campaign (`write`) — the paper's original shape.
    pub fn write_only() -> Self {
        Self {
            ops: vec![ScenarioOp::Write],
        }
    }

    /// Write, then restart-read the last dump (`write;restart`) — the
    /// legacy read-after-write axis.
    pub fn write_restart() -> Self {
        Self {
            ops: vec![ScenarioOp::Write, ScenarioOp::Restart],
        }
    }

    /// Write with an in-run analysis read of every `m`-th plot dump
    /// (`write;analyze_every:m:SEL`).
    pub fn in_run_analysis(m: u64, sel: ReadSelection) -> Self {
        Self {
            ops: vec![
                ScenarioOp::Write,
                ScenarioOp::AnalyzeEvery {
                    every: m,
                    sel,
                    reorganize: false,
                },
            ],
        }
    }

    /// Write, crash after `step`, recover, and finish
    /// (`write;fail@step;restart`).
    pub fn fail_restart(step: u64) -> Self {
        Self {
            ops: vec![
                ScenarioOp::Write,
                ScenarioOp::Fail(step),
                ScenarioOp::Restart,
            ],
        }
    }

    /// Parses a `;`-separated program, validating it.
    pub fn parse(s: &str) -> Result<Self, String> {
        let ops = s
            .split(';')
            .map(|op| ScenarioOp::parse(op.trim()))
            .collect::<Result<Vec<_>, _>>()?;
        let sc = Self { ops };
        sc.validate()?;
        Ok(sc)
    }

    /// The canonical `;`-joined spelling (`parse` round-trips it).
    pub fn name(&self) -> String {
        self.ops
            .iter()
            .map(ScenarioOp::name)
            .collect::<Vec<_>>()
            .join(";")
    }

    /// Checks program well-formedness: exactly one `write`; at most one
    /// `fail`, with step ≥ 1 and a `restart` somewhere after it; at most
    /// one `check@`, with cadence ≥ 1; analysis cadences ≥ 1.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let writes = self
            .ops
            .iter()
            .filter(|op| matches!(op, ScenarioOp::Write))
            .count();
        if writes != 1 {
            return Err(format!(
                "scenario '{}' must contain exactly one 'write' op (found {writes})",
                self.name()
            ));
        }
        let mut fail_at: Option<usize> = None;
        for (i, op) in self.ops.iter().enumerate() {
            match op {
                ScenarioOp::Fail(k) => {
                    if fail_at.is_some() {
                        return Err("scenario allows at most one 'fail@' op".to_string());
                    }
                    if *k == 0 {
                        return Err("fail@0 is invalid (step numbers start at 1)".to_string());
                    }
                    fail_at = Some(i);
                }
                ScenarioOp::CheckEvery(0) | ScenarioOp::AnalyzeEvery { every: 0, .. } => {
                    return Err(format!("'{}' needs a cadence >= 1", op.name()));
                }
                _ => {}
            }
        }
        if self
            .ops
            .iter()
            .filter(|op| matches!(op, ScenarioOp::CheckEvery(_)))
            .count()
            > 1
        {
            return Err("scenario allows at most one 'check@' op".to_string());
        }
        if let Some(i) = fail_at {
            let recovered = self.ops[i + 1..]
                .iter()
                .any(|op| matches!(op, ScenarioOp::Restart));
            if !recovered {
                return Err("'fail@' needs a 'restart' after it to recover".to_string());
            }
        }
        Ok(())
    }

    /// The checkpoint-cadence override, when the program carries one.
    pub fn check_every(&self) -> Option<u64> {
        self.ops.iter().find_map(|op| match op {
            ScenarioOp::CheckEvery(k) => Some(*k),
            _ => None,
        })
    }

    /// The failure step, when the program injects one.
    pub fn fail_step(&self) -> Option<u64> {
        self.ops.iter().find_map(|op| match op {
            ScenarioOp::Fail(k) => Some(*k),
            _ => None,
        })
    }

    /// The in-run analysis ops, in program order.
    pub fn analyze_every_ops(&self) -> Vec<(u64, ReadSelection, bool)> {
        self.ops
            .iter()
            .filter_map(|op| match op {
                ScenarioOp::AnalyzeEvery {
                    every,
                    sel,
                    reorganize,
                } => Some((*every, sel.clone(), *reorganize)),
                _ => None,
            })
            .collect()
    }

    /// The trailing (post-campaign) ops, in program order: every
    /// `restart` not consumed as the recovery of a `fail@`, plus
    /// `readall` and `analyze:` ops. Loop modifiers (`check@`,
    /// `analyze_every:`) and the fail/recovery pair are excluded.
    pub fn trailing_ops(&self) -> Vec<ScenarioOp> {
        let mut fail_pending = false;
        let mut out = Vec::new();
        for op in &self.ops {
            match op {
                ScenarioOp::Fail(_) => fail_pending = true,
                ScenarioOp::Restart => {
                    if fail_pending {
                        fail_pending = false; // consumed as the recovery
                    } else {
                        out.push(op.clone());
                    }
                }
                ScenarioOp::ReadAll | ScenarioOp::Analyze { .. } => out.push(op.clone()),
                ScenarioOp::Write | ScenarioOp::CheckEvery(_) | ScenarioOp::AnalyzeEvery { .. } => {
                }
            }
        }
        out
    }
}

// Hand-written serde: a scenario round-trips as its op spelling, so
// configs stay readable (mirrors `ReadSelection` and `CodecSpec`).
impl Serialize for Scenario {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.name())
    }
}

impl Deserialize for Scenario {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let s = v
            .as_str()
            .ok_or_else(|| serde::Error::custom("expected a scenario string"))?;
        Scenario::parse(s).map_err(serde::Error::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_the_issue_spelling() {
        let sc = Scenario::parse("write;fail@17;restart;analyze:level:2,reorg").unwrap();
        assert_eq!(sc.ops.len(), 4);
        assert_eq!(sc.fail_step(), Some(17));
        assert_eq!(
            sc.ops[3],
            ScenarioOp::Analyze {
                sel: ReadSelection::Level(2),
                reorganize: true,
            }
        );
        // The recovery restart is consumed by the fail; analyze trails.
        assert_eq!(sc.trailing_ops().len(), 1);
    }

    #[test]
    fn name_parse_round_trips_every_builder() {
        let scenarios = [
            Scenario::write_only(),
            Scenario::write_restart(),
            Scenario::parse("write;check@8").unwrap(),
            Scenario::in_run_analysis(2, ReadSelection::Level(1)),
            Scenario::in_run_analysis(3, ReadSelection::parse("box:0-1,2-5").unwrap()),
            Scenario::fail_restart(17),
            Scenario::parse("write;readall").unwrap(),
            Scenario::parse("write;check@4;fail@10;restart;analyze:field:Cell,reorg").unwrap(),
        ];
        for sc in scenarios {
            sc.validate().unwrap();
            assert_eq!(Scenario::parse(&sc.name()).unwrap(), sc, "{}", sc.name());
        }
    }

    #[test]
    fn analyze_reorg_suffix_parses() {
        let op = ScenarioOp::parse("analyze:level:1,reorg").unwrap();
        assert_eq!(
            op,
            ScenarioOp::Analyze {
                sel: ReadSelection::Level(1),
                reorganize: true,
            }
        );
        // Box selections keep their own commas; only the suffix strips.
        let op = ScenarioOp::parse("analyze_every:2:box:0-1,2-5,reorg").unwrap();
        assert_eq!(
            op,
            ScenarioOp::AnalyzeEvery {
                every: 2,
                sel: ReadSelection::parse("box:0-1,2-5").unwrap(),
                reorganize: true,
            }
        );
    }

    #[test]
    fn validation_rejects_malformed_programs() {
        // No write.
        assert!(Scenario::parse("restart").is_err());
        // Two writes.
        assert!(Scenario::parse("write;write").is_err());
        // Fail without recovery.
        assert!(Scenario::parse("write;fail@3").is_err());
        // Recovery before the failure does not count.
        assert!(Scenario::parse("write;restart;fail@3").is_err());
        // Step/cadence bounds.
        assert!(Scenario::parse("write;fail@0;restart").is_err());
        assert!(Scenario::parse("write;check@0").is_err());
        assert!(Scenario::parse("write;analyze_every:0:full").is_err());
        // Two failures / two cadences.
        assert!(Scenario::parse("write;fail@2;restart;fail@5;restart").is_err());
        assert!(Scenario::parse("write;check@2;check@4").is_err());
        // Unknown op.
        assert!(Scenario::parse("write;explode").is_err());
    }

    #[test]
    fn trailing_ops_skip_the_recovery_restart() {
        let sc = Scenario::parse("write;fail@5;restart;restart;readall").unwrap();
        // First restart recovers the failure; second is a trailing read.
        assert_eq!(
            sc.trailing_ops(),
            vec![ScenarioOp::Restart, ScenarioOp::ReadAll]
        );
        assert!(Scenario::write_restart().trailing_ops() == vec![ScenarioOp::Restart]);
        assert!(Scenario::fail_restart(5).trailing_ops().is_empty());
    }

    #[test]
    fn modifier_accessors() {
        let sc = Scenario::parse("write;check@8;analyze_every:2:level:1").unwrap();
        assert_eq!(sc.check_every(), Some(8));
        assert_eq!(sc.fail_step(), None);
        let ae = sc.analyze_every_ops();
        assert_eq!(ae.len(), 1);
        assert_eq!(ae[0], (2, ReadSelection::Level(1), false));
    }

    #[test]
    fn serde_round_trips_as_the_spelling() {
        use serde::{Deserialize as _, Serialize as _};
        let sc = Scenario::parse("write;check@4;fail@10;restart;analyze:level:1,reorg").unwrap();
        let v = sc.to_value();
        assert_eq!(v.as_str(), Some(sc.name().as_str()));
        assert_eq!(Scenario::from_value(&v).unwrap(), sc);
        // Malformed spellings fail to deserialize.
        let bad = serde::Value::String("write;write".to_string());
        assert!(Scenario::from_value(&bad).is_err());
    }
}
