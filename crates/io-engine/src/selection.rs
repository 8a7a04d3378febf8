//! Read selections: the query language of the analysis read plane.
//!
//! A restart reads a whole step back; post-hoc analysis almost never
//! does. The paper's AMR campaigns are written once and then read many
//! times by tools that want a *subset* — one refinement level for
//! visualization, one field for a time series, one spatial region around
//! a feature (Wan et al.; Strafella & Chapon make the same case for AMR
//! visualization reads). A [`ReadSelection`] names such a subset in
//! terms every backend retains about its chunks: the `(step, level,
//! task)` [`IoKey`] and the logical path.
//!
//! * [`ReadSelection::Full`] — everything; `read_selection` with `Full`
//!   is exactly [`crate::IoBackend::read_step`].
//! * [`ReadSelection::Level`] — chunks of one AMR level.
//! * [`ReadSelection::Field`] — chunks whose logical path contains a
//!   substring (for workloads that name fields in their paths this is a
//!   by-variable query).
//! * [`ReadSelection::Box`] — a rectangular box in the retained key
//!   space: an inclusive `(level, task)` range. A spatial query lowers to
//!   this by mapping a region of index space to the ranks owning
//!   intersecting grids.
//!
//! The selection travels as a small string spec (`full`, `level:1`,
//! `field:density`, `box:0-1,2-5`), so CLIs (`macsio --read_pattern`)
//! and campaign configs carry it the same way they carry
//! [`crate::BackendSpec`] and [`crate::CodecSpec`].

use iosim::IoKey;
use serde::{Deserialize, Serialize};

/// An inclusive rectangle in the retained chunk-key space: levels
/// `level_lo..=level_hi` crossed with tasks `task_lo..=task_hi`.
///
/// This is how a *spatial* query reaches the io-engine: a layer that
/// knows the mesh maps a box of index space to the ranks whose grids
/// intersect it and emits the covering key box. The cover is conservative — a superset of the
/// exact owner set — which only ever over-fetches, never misses data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KeyBox {
    /// Lowest AMR level included.
    pub level_lo: u32,
    /// Highest AMR level included.
    pub level_hi: u32,
    /// Lowest task included.
    pub task_lo: u32,
    /// Highest task included.
    pub task_hi: u32,
}

impl KeyBox {
    /// True when `key` lies inside the box.
    pub(crate) fn contains(&self, key: &IoKey) -> bool {
        (self.level_lo..=self.level_hi).contains(&key.level)
            && (self.task_lo..=self.task_hi).contains(&key.task)
    }
}

/// Which chunks of a step an analysis read fetches (see module docs).
#[derive(Clone, Debug, Default, PartialEq)]
pub enum ReadSelection {
    /// Every chunk — the restart semantics of `read_step`.
    #[default]
    Full,
    /// Chunks of one AMR level.
    Level(u32),
    /// Chunks whose logical path contains this substring.
    Field(String),
    /// Chunks whose key lies in an inclusive `(level, task)` box.
    Box(KeyBox),
}

impl ReadSelection {
    /// Parses a CLI spelling:
    /// `full` | `level:<l>` | `field:<substring>` |
    /// `box:<l0>[-<l1>],<t0>[-<t1>]` (inclusive ranges; a single value
    /// means a one-wide range).
    pub fn parse(s: &str) -> Result<Self, String> {
        let (head, arg) = match s.split_once(':') {
            Some((h, a)) => (h, Some(a)),
            None => (s, None),
        };
        match head {
            "full" | "all" => match arg {
                None => Ok(ReadSelection::Full),
                Some(a) => Err(format!("pattern 'full' takes no argument, got '{a}'")),
            },
            "level" => {
                let a = arg.ok_or("pattern 'level' needs a level number")?;
                let l = a.parse::<u32>().map_err(|_| format!("bad level '{a}'"))?;
                Ok(ReadSelection::Level(l))
            }
            "field" => {
                let a = arg.ok_or("pattern 'field' needs a path substring")?;
                if a.is_empty() {
                    return Err("pattern 'field' needs a non-empty substring".to_string());
                }
                Ok(ReadSelection::Field(a.to_string()))
            }
            "box" => {
                let a = arg.ok_or("pattern 'box' needs '<levels>,<tasks>'")?;
                let (levels, tasks) = a
                    .split_once(',')
                    .ok_or_else(|| format!("bad box '{a}' (expected '<levels>,<tasks>')"))?;
                let (level_lo, level_hi) = parse_range(levels)?;
                let (task_lo, task_hi) = parse_range(tasks)?;
                Ok(ReadSelection::Box(KeyBox {
                    level_lo,
                    level_hi,
                    task_lo,
                    task_hi,
                }))
            }
            other => Err(format!(
                "unknown read pattern '{other}' (expected full, level:<l>, field:<f>, or \
                 box:<l0>-<l1>,<t0>-<t1>)"
            )),
        }
    }

    /// The canonical CLI spelling.
    pub fn name(&self) -> String {
        match self {
            ReadSelection::Full => "full".to_string(),
            ReadSelection::Level(l) => format!("level:{l}"),
            ReadSelection::Field(f) => format!("field:{f}"),
            ReadSelection::Box(b) => format!(
                "box:{}-{},{}-{}",
                b.level_lo, b.level_hi, b.task_lo, b.task_hi
            ),
        }
    }

    /// True when a chunk written under `key` at logical `path` belongs to
    /// the selection. This one predicate defines the read contract: for
    /// any selection, `read_selection` returns exactly the chunks of a
    /// full read for which `matches` holds, in the backend's layout
    /// order (pinned by property tests across the backend × codec ×
    /// layout cube).
    pub fn matches(&self, key: &IoKey, path: &str) -> bool {
        match self {
            ReadSelection::Full => true,
            ReadSelection::Level(l) => key.level == *l,
            ReadSelection::Field(f) => path.contains(f.as_str()),
            ReadSelection::Box(b) => b.contains(key),
        }
    }

    /// The inclusive level range a selection can touch, when one is
    /// derivable from the selection alone (`None` means "any level" —
    /// field matching is path-based, so every level's chunks must be
    /// consulted). Read-optimized layouts use this to skip whole
    /// level clusters without consulting their chunk tables.
    pub(crate) fn level_range(&self) -> Option<(u32, u32)> {
        match self {
            ReadSelection::Full | ReadSelection::Field(_) => None,
            ReadSelection::Level(l) => Some((*l, *l)),
            ReadSelection::Box(b) => Some((b.level_lo, b.level_hi)),
        }
    }
}

fn parse_range(s: &str) -> Result<(u32, u32), String> {
    let (lo, hi) = match s.split_once('-') {
        Some((a, b)) => (a, b),
        None => (s, s),
    };
    let lo = lo
        .parse::<u32>()
        .map_err(|_| format!("bad range bound '{lo}'"))?;
    let hi = hi
        .parse::<u32>()
        .map_err(|_| format!("bad range bound '{hi}'"))?;
    if lo > hi {
        return Err(format!("empty range '{s}' (lo > hi)"));
    }
    Ok((lo, hi))
}

// Hand-written serde: the selection round-trips as its CLI spelling, so
// configs stay readable and the enum's payloads (strings, boxes) never
// leak a format of their own (mirrors `macsio::FileMode`).
impl Serialize for ReadSelection {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.name())
    }
}

impl Deserialize for ReadSelection {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let s = v
            .as_str()
            .ok_or_else(|| serde::Error::custom("expected a read-pattern string"))?;
        ReadSelection::parse(s).map_err(serde::Error::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(level: u32, task: u32) -> IoKey {
        IoKey {
            step: 1,
            level,
            task,
        }
    }

    #[test]
    fn parse_spellings() {
        assert_eq!(ReadSelection::parse("full").unwrap(), ReadSelection::Full);
        assert_eq!(
            ReadSelection::parse("level:2").unwrap(),
            ReadSelection::Level(2)
        );
        assert_eq!(
            ReadSelection::parse("field:density").unwrap(),
            ReadSelection::Field("density".into())
        );
        assert_eq!(
            ReadSelection::parse("box:0-1,2-5").unwrap(),
            ReadSelection::Box(KeyBox {
                level_lo: 0,
                level_hi: 1,
                task_lo: 2,
                task_hi: 5,
            })
        );
        // Single values are one-wide ranges.
        assert_eq!(
            ReadSelection::parse("box:1,3").unwrap(),
            ReadSelection::Box(KeyBox {
                level_lo: 1,
                level_hi: 1,
                task_lo: 3,
                task_hi: 3,
            })
        );
        assert!(ReadSelection::parse("level").is_err());
        assert!(ReadSelection::parse("field:").is_err());
        assert!(ReadSelection::parse("box:2-1,0-0").is_err(), "lo > hi");
        assert!(ReadSelection::parse("box:0-1").is_err(), "missing tasks");
        assert!(ReadSelection::parse("stripe:3").is_err());
    }

    #[test]
    fn name_round_trips() {
        for sel in [
            ReadSelection::Full,
            ReadSelection::Level(3),
            ReadSelection::Field("Cell_D".into()),
            ReadSelection::Box(KeyBox {
                level_lo: 0,
                level_hi: 2,
                task_lo: 4,
                task_hi: 7,
            }),
        ] {
            assert_eq!(ReadSelection::parse(&sel.name()).unwrap(), sel);
        }
    }

    #[test]
    fn matches_implements_the_predicate() {
        let full = ReadSelection::Full;
        assert!(full.matches(&key(9, 9), "/anything"));

        let level = ReadSelection::Level(1);
        assert!(level.matches(&key(1, 0), "/x"));
        assert!(!level.matches(&key(0, 0), "/x"));

        let field = ReadSelection::Field("density".into());
        assert!(field.matches(&key(0, 0), "/plt/L0/density_00001"));
        assert!(!field.matches(&key(0, 0), "/plt/L0/pressure_00001"));

        let boxed = ReadSelection::Box(KeyBox {
            level_lo: 0,
            level_hi: 1,
            task_lo: 2,
            task_hi: 3,
        });
        assert!(boxed.matches(&key(1, 2), "/x"));
        assert!(!boxed.matches(&key(2, 2), "/x"), "level outside");
        assert!(!boxed.matches(&key(1, 4), "/x"), "task outside");
    }

    #[test]
    fn level_range_narrows_where_derivable() {
        assert_eq!(ReadSelection::Full.level_range(), None);
        assert_eq!(ReadSelection::Field("x".into()).level_range(), None);
        assert_eq!(ReadSelection::Level(2).level_range(), Some((2, 2)));
        assert_eq!(
            ReadSelection::parse("box:1-3,0-9").unwrap().level_range(),
            Some((1, 3))
        );
    }

    #[test]
    fn serde_round_trips_as_the_cli_spelling() {
        use serde::{Deserialize as _, Serialize as _};
        for sel in [
            ReadSelection::Full,
            ReadSelection::Level(1),
            ReadSelection::Field("Cell_D".into()),
            ReadSelection::parse("box:0-1,0-15").unwrap(),
        ] {
            let v = sel.to_value();
            assert_eq!(v.as_str(), Some(sel.name().as_str()));
            assert_eq!(ReadSelection::from_value(&v).unwrap(), sel);
        }
    }
}
