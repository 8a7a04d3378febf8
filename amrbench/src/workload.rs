//! What a workload is to the runner: set-up, warm-up, timed passes, a
//! serial-executor reference and a staged replay for the traced run.

use crate::digest::Digest;
use crate::trace::Tracer;
use std::io;
use std::path::PathBuf;

/// Options of one workload run.
#[derive(Clone, Debug)]
pub struct RunOpts {
    /// Workload seed: permutes cell / axis-value / run order and feeds
    /// `MacsioConfig::seed`. Results are keyed, so digests do not depend
    /// on it.
    pub seed: u64,
    /// Shrink the workload to its smallest cell (the contract test).
    pub quick: bool,
    /// Directory every store and artifact of the run is written under.
    pub out: PathBuf,
}

/// Operations attempted and failed, with the reason for each failure.
///
/// An operation is a cell, a proxy run or a store operation; every
/// correctness check is one more operation. An `Err`, a panic or a
/// mismatch counts as failed.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// One line per failure.
    pub messages: Vec<String>,
}

impl Checks {
    /// Counts `n` operations that completed.
    pub fn ops(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one check; records `why()` when it does not hold.
    pub fn check(&mut self, holds: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !holds {
            self.fail(why());
        }
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.messages.push(why);
    }

    /// Folds `other` into `self`.
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.messages.extend(other.messages);
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn fail_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// What one timed pass produced.
pub struct PassResult {
    /// Host seconds of the pass's timed region.
    pub wall_s: f64,
    /// Simulated statistics of every cell / run of the pass.
    pub digest: Digest,
    /// Operations and invariant checks of the pass.
    pub checks: Checks,
    /// Workload details ([`crate::metrics::DETAILS`]) measured in the pass.
    pub details: Vec<(&'static str, f64)>,
}

/// One of the six workloads, set up and ready to run.
pub trait Workload {
    /// One untimed run of the workload's smallest cell.
    fn warm_up(&mut self) -> io::Result<()>;

    /// One timed pass (closed loop: the runner starts the next pass only
    /// after this one returns; threads are whatever the program spawns).
    fn pass(&mut self, index: usize) -> io::Result<PassResult>;

    /// The digest the serial reference executor produces: what
    /// `--bless` writes and what every pass must equal.
    fn reference_digest(&mut self) -> io::Result<Digest>;

    /// The traced run: root spans around the real entry points, then the
    /// staged replay of each layer (see [`crate::replay`]).
    fn traced(&mut self, tracer: &mut Tracer) -> io::Result<PassResult>;
}

/// SplitMix64: the benchmark's only random source, seeded by `--seed`.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The generator that orders pass `index` of a run seeded `seed`:
    /// another permutation every pass, so a run's median does not hang
    /// on one order.
    pub fn for_pass(seed: u64, index: usize) -> Self {
        Self(seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Rewrites the value arrays of a spec's `[axes]` section: each
/// `key = [a, b, c]` line is passed to `edit` (axis name, items), and
/// the items it leaves are written back. Every other line is kept.
pub fn edit_axes(toml: &str, mut edit: impl FnMut(&str, &mut Vec<String>)) -> String {
    let mut out = String::with_capacity(toml.len());
    let mut in_axes = false;
    for line in toml.lines() {
        let trimmed = line.trim();
        if trimmed.starts_with('[') {
            in_axes = trimmed == "[axes]";
        } else if in_axes && !trimmed.starts_with('#') {
            if let Some((key, rest)) = trimmed.split_once('=') {
                let rest = rest.trim();
                if let Some(body) = rest.strip_prefix('[').and_then(|r| r.strip_suffix(']')) {
                    let mut items: Vec<String> =
                        body.split(',').map(|s| s.trim().to_string()).collect();
                    edit(key.trim(), &mut items);
                    out.push_str(&format!("{} = [{}]\n", key.trim(), items.join(", ")));
                    continue;
                }
            }
        }
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// A removed-on-drop directory for one pass's store.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    /// Creates `path` empty (removing what a crashed run left behind).
    pub fn create(path: PathBuf) -> io::Result<Self> {
        match std::fs::remove_dir_all(&path) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        std::fs::create_dir_all(&path)?;
        Ok(Self(path))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Best effort: `Drop` must not panic, and the runner removes the
        // whole `--out` tree it created at exit anyway.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_count_operations_and_failures() {
        let mut c = Checks::default();
        c.ops(3);
        c.check(true, || unreachable!());
        c.check(false, || "digest differs".into());
        assert_eq!((c.attempted, c.failed), (5, 1));
        assert!((c.fail_share() - 0.2).abs() < 1e-12);
        let mut all = Checks::default();
        all.absorb(c);
        assert_eq!(all.messages, vec!["digest differs".to_string()]);
        assert_eq!(Checks::default().fail_share(), 0.0);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..20).collect();
        let mut b = a.clone();
        SplitMix(7).shuffle(&mut a);
        SplitMix(7).shuffle(&mut b);
        assert_eq!(a, b, "same seed, same order");
        let mut c: Vec<u32> = (0..20).collect();
        SplitMix(8).shuffle(&mut c);
        assert_ne!(a, c, "another seed, another order");
        a.sort_unstable();
        assert_eq!(a, (0..20).collect::<Vec<u32>>());
    }

    #[test]
    fn edit_axes_touches_only_axis_arrays() {
        let toml = "[experiment]\nzip = [\"a+b\"]\n[base]\nname = \"x\"\n\
                    [axes]\n# note\nbackend = [\"fpp\", \"agg:4\"]\nscale = [2, 4, 8]\n";
        let edited = edit_axes(toml, |key, items| {
            if key == "scale" {
                items.truncate(1);
            } else {
                items.reverse();
            }
        });
        assert!(
            edited.contains("backend = [\"agg:4\", \"fpp\"]"),
            "{edited}"
        );
        assert!(edited.contains("scale = [2]"), "{edited}");
        assert!(edited.contains("zip = [\"a+b\"]") && edited.contains("# note"));
    }
}
