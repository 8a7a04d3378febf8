//! Digests of **simulated** statistics, compared as exact bit patterns.
//!
//! A change meant only to make the simulator faster must leave every
//! simulated number identical, so simulated values are never ranked or
//! averaged here: each cell contributes one row of `u64` bit patterns,
//! rows are keyed (so execution order does not matter), and a workload's
//! rows must equal the golden rows under `golden/` — which are generated
//! from the *serial* executor, so the same check pins parallel == serial.

use amrproxy::RunSummary;
use std::collections::BTreeMap;

/// Keyed rows of bit patterns; see the module docs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Digest {
    rows: BTreeMap<String, Vec<u64>>,
}

/// Column names of a [`Digest::add_summary`] row, in order.
pub const SUMMARY_FIELDS: [&str; 9] = [
    "total_bytes",
    "logical_bytes",
    "physical_bytes",
    "total_files",
    "wall_time",
    "solo_wall",
    "slowdown",
    "read_bytes",
    "net_bytes",
];

impl Digest {
    /// An empty digest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one row. A repeated key keeps the first row and reports the
    /// clash, so a colliding key can never hide a differing value.
    pub fn add_row(&mut self, key: impl Into<String>, values: Vec<u64>) -> Result<(), String> {
        let key = key.into();
        if key.contains(char::is_whitespace) {
            return Err(format!("digest key '{key}' contains whitespace"));
        }
        match self.rows.entry(key) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(values);
                Ok(())
            }
            std::collections::btree_map::Entry::Occupied(e) => {
                Err(format!("digest key '{}' added twice", e.key()))
            }
        }
    }

    /// Adds the simulated statistics of one run summary under
    /// `<cell_key>/t<tenant>` ([`SUMMARY_FIELDS`] order; floats as bits).
    pub fn add_summary(&mut self, cell_key: &str, s: &RunSummary) -> Result<(), String> {
        self.add_row(
            format!("{cell_key}/t{}", s.tenant),
            vec![
                s.total_bytes,
                s.logical_bytes,
                s.physical_bytes,
                s.total_files,
                s.wall_time.to_bits(),
                s.solo_wall.to_bits(),
                s.slowdown.to_bits(),
                s.read_bytes,
                s.net_bytes,
            ],
        )
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no row was added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The rows, by key.
    pub fn rows(&self) -> &BTreeMap<String, Vec<u64>> {
        &self.rows
    }

    /// Mutable access to one row (tests flip bits through it).
    pub fn row_mut(&mut self, key: &str) -> Option<&mut Vec<u64>> {
        self.rows.get_mut(key)
    }

    /// The rows of `self` whose key `other` also has.
    pub fn restricted_to(&self, other: &Digest) -> Digest {
        Digest {
            rows: self
                .rows
                .iter()
                .filter(|(key, _)| other.rows.contains_key(*key))
                .map(|(key, values)| (key.clone(), values.clone()))
                .collect(),
        }
    }

    /// The golden-file form: one `key hex hex ...` line per row.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (key, values) in &self.rows {
            out.push_str(key);
            for v in values {
                out.push_str(&format!(" {v:016x}"));
            }
            out.push('\n');
        }
        out
    }

    /// Parses [`Digest::render`] output; `#` lines are comments.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut digest = Self::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let key = parts.next().expect("non-empty line has a first token");
            let values = parts
                .map(|p| u64::from_str_radix(p, 16))
                .collect::<Result<Vec<u64>, _>>()
                .map_err(|e| format!("golden line {}: {e}", i + 1))?;
            digest.add_row(key, values)?;
        }
        Ok(digest)
    }

    /// FNV-1a 64 of the rendered rows: a short name for the whole digest.
    pub fn hash(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in self.render().bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    /// Every way `self` differs from `golden`, one line each (empty when
    /// identical): missing rows, unexpected rows, differing columns.
    pub fn diff(&self, golden: &Digest) -> Vec<String> {
        let mut out = Vec::new();
        for (key, want) in &golden.rows {
            match self.rows.get(key) {
                None => out.push(format!("row '{key}' is missing")),
                Some(got) if got != want => {
                    let cols: Vec<String> = got
                        .iter()
                        .zip(want)
                        .enumerate()
                        .filter(|(_, (g, w))| g != w)
                        .map(|(i, (g, w))| format!("col {i}: {g:016x} != golden {w:016x}"))
                        .collect();
                    let detail = if cols.is_empty() {
                        format!("{} columns, golden has {}", got.len(), want.len())
                    } else {
                        cols.join(", ")
                    };
                    out.push(format!("row '{key}' differs ({detail})"));
                }
                Some(_) => {}
            }
        }
        for key in self.rows.keys() {
            if !golden.rows.contains_key(key) {
                out.push(format!("row '{key}' is not in the golden"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Digest {
        let mut d = Digest::new();
        d.add_row("b/t0", vec![1, 2.5f64.to_bits()]).unwrap();
        d.add_row("a/t0", vec![3, 0]).unwrap();
        d
    }

    #[test]
    fn render_parse_round_trip_is_sorted_by_key() {
        let d = sample();
        let text = d.render();
        assert!(text.starts_with("a/t0 "), "{text}");
        let back = Digest::parse(&format!("# comment\n\n{text}")).unwrap();
        assert_eq!(back, d);
        assert_eq!(back.hash(), d.hash());
        assert!(d.diff(&back).is_empty());
    }

    #[test]
    fn one_flipped_mantissa_bit_is_a_difference() {
        let golden = sample();
        let mut got = golden.clone();
        got.row_mut("b/t0").unwrap()[1] ^= 1;
        let diff = got.diff(&golden);
        assert_eq!(diff.len(), 1, "{diff:?}");
        assert!(
            diff[0].contains("b/t0") && diff[0].contains("col 1"),
            "{diff:?}"
        );
        assert_ne!(got.hash(), golden.hash());
    }

    #[test]
    fn missing_and_extra_rows_are_both_reported() {
        let golden = sample();
        let mut got = Digest::new();
        got.add_row("a/t0", vec![3, 0]).unwrap();
        got.add_row("c/t0", vec![9]).unwrap();
        let diff = got.diff(&golden);
        assert!(
            diff.iter().any(|d| d.contains("'b/t0' is missing")),
            "{diff:?}"
        );
        assert!(diff
            .iter()
            .any(|d| d.contains("'c/t0' is not in the golden")));
    }

    #[test]
    fn duplicate_and_malformed_keys_are_rejected() {
        let mut d = sample();
        assert!(d.add_row("a/t0", vec![7]).is_err());
        assert!(d.add_row("has space", vec![7]).is_err());
        assert!(Digest::parse("k zz\n").is_err());
    }
}
