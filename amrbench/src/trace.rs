//! In-memory spans for the traced run, written out when the run ends.
//!
//! The library crates carry no instrumentation, so every span here is
//! recorded from the benchmark's side of a public call. Because the
//! layers are entered from outside, a traced run is a **staged replay**
//! ([`crate::replay`]): a *root* span around a real entry point, then
//! each layer re-run in isolation on inputs captured from the stage
//! before it, one *child* span per call. A child's parent is the span
//! whose work it re-executes — the hierarchy is logical, and a child's
//! timestamps lie after its parent's, not inside them. A *probe* is a
//! layer call measured on the side (a what-if tenancy, a codec run
//! serially) that is not part of any root's decomposition.
//!
//! Spans are **host** time.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// What was called (`AmrSource::advance`, `simulate_burst`, ...).
    pub name: &'static str,
    /// The layer (crate) the call entered.
    pub layer: &'static str,
    /// The cell, run or corner the call belonged to.
    pub cell: String,
    /// Seconds since the tracer was created.
    pub start_s: f64,
    /// Seconds since the tracer was created.
    pub end_s: f64,
    /// The span whose work this one re-executes (`None`: root or probe).
    pub parent: Option<usize>,
    /// Measured on the side, outside every root's decomposition.
    pub probe: bool,
    /// Per-layer metric this span's duration adds to, if any.
    pub metric: Option<&'static str>,
}

impl Span {
    /// Span duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Collects spans and counters for one workload's traced run.
pub struct Tracer {
    workload: &'static str,
    t0: Instant,
    spans: Vec<Span>,
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// An empty tracer for `workload`.
    pub fn new(workload: &'static str) -> Self {
        Self {
            workload,
            t0: Instant::now(),
            spans: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    fn record<T>(&mut self, mut span: Span, f: impl FnOnce() -> T) -> (usize, T) {
        let id = self.spans.len();
        span.start_s = self.t0.elapsed().as_secs_f64();
        let out = f();
        span.end_s = self.t0.elapsed().as_secs_f64();
        self.spans.push(span);
        (id, out)
    }

    /// Records a root span (layer `core`) around a real public entry
    /// point; returns its id for [`Tracer::child`].
    pub fn root<T>(
        &mut self,
        name: &'static str,
        cell: &str,
        metric: Option<&'static str>,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let span = Span {
            name,
            layer: "core",
            cell: cell.to_string(),
            start_s: 0.0,
            end_s: 0.0,
            parent: None,
            probe: false,
            metric,
        };
        self.record(span, f)
    }

    /// Records one layer call that re-executes part of `parent`'s work.
    pub fn child<T>(
        &mut self,
        parent: usize,
        layer: &'static str,
        name: &'static str,
        metric: Option<&'static str>,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let span = Span {
            name,
            layer,
            cell: self.spans[parent].cell.clone(),
            start_s: 0.0,
            end_s: 0.0,
            parent: Some(parent),
            probe: self.spans[parent].probe,
            metric,
        };
        self.record(span, f)
    }

    /// Records a layer call measured on the side.
    pub fn probe<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        cell: &str,
        metric: Option<&'static str>,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = Span {
            name,
            layer,
            cell: cell.to_string(),
            start_s: 0.0,
            end_s: 0.0,
            parent: None,
            probe: true,
            metric,
        };
        self.record(span, f).1
    }

    /// Duration of span `id` in seconds.
    pub fn duration(&self, id: usize) -> f64 {
        self.spans[id].duration()
    }

    /// Adds to a named counter: work done, counted where it happens, or
    /// seconds of a metric derived from spans rather than being one.
    pub fn count(&mut self, counter: &'static str, by: f64) {
        *self.counters.entry(counter).or_insert(0.0) += by;
    }

    /// The workload this tracer belongs to.
    pub fn workload(&self) -> &'static str {
        self.workload
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of the spans tagged with `metric`, plus anything
    /// added to it through [`Tracer::count`].
    pub fn total(&self, metric: &str) -> f64 {
        let from_spans: f64 = self
            .spans
            .iter()
            .filter(|s| s.metric == Some(metric))
            .map(Span::duration)
            .sum();
        from_spans + self.counters.get(metric).copied().unwrap_or(0.0)
    }

    /// Self time per layer over the root trees (probes excluded): each
    /// span's duration minus its direct children's, summed by layer, with
    /// the span count. Summed over all layers this is exactly the summed
    /// root time; `core`'s share is what the stages do not explain, and
    /// goes negative when the isolated stages cost more than the real
    /// call did.
    pub fn layer_self_times(&self) -> Vec<(&'static str, f64, usize)> {
        let mut child_time = vec![0.0f64; self.spans.len()];
        for s in self.spans.iter().filter(|s| !s.probe) {
            if let Some(p) = s.parent {
                child_time[p] += s.duration();
            }
        }
        let mut by_layer: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(&child_time) {
            if !s.probe {
                let e = by_layer.entry(s.layer).or_insert((0.0, 0));
                e.0 += s.duration() - children;
                e.1 += 1;
            }
        }
        by_layer
            .into_iter()
            .map(|(layer, (t, n))| (layer, t, n))
            .collect()
    }

    /// Summed root-span seconds.
    pub fn root_seconds(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| !s.probe && s.parent.is_none())
            .map(Span::duration)
            .sum()
    }

    /// What the roots' direct children do not explain: summed root
    /// seconds minus the summed seconds of the spans directly under a
    /// root. Negative when the isolated stages cost more than the real
    /// calls did.
    pub fn root_residual_seconds(&self) -> f64 {
        let explained: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].parent.is_none()))
            .filter(|s| !s.probe)
            .map(Span::duration)
            .sum();
        self.root_seconds() - explained
    }

    /// The per-layer self-time table and the probe totals, as text.
    pub fn layer_table(&self) -> String {
        let rows = self.layer_self_times();
        let total = self.root_seconds();
        let mut out = format!(
            "# {}: per-layer self time of the staged replay (span minus its children), host seconds\n\
             # shares are of the summed root spans ({total:.6} s)\n\
             {:<12} {:>12} {:>8} {:>8}\n",
            self.workload, "layer", "self_s", "share%", "spans"
        );
        for (layer, t, n) in rows {
            let share = if total > 0.0 { 100.0 * t / total } else { 0.0 };
            out.push_str(&format!("{layer:<12} {t:>12.6} {share:>8.2} {n:>8}\n"));
        }
        let mut probes: BTreeMap<(&str, &str), (f64, usize)> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.probe) {
            let e = probes.entry((s.layer, s.name)).or_insert((0.0, 0));
            e.0 += s.duration();
            e.1 += 1;
        }
        if !probes.is_empty() {
            out.push_str("# probes (measured on the side, outside the roots' decomposition)\n");
            for ((layer, name), (t, n)) in probes {
                out.push_str(&format!(
                    "{layer:<12} {t:>12.6} {:>8} {n:>8}  {name}\n",
                    "-"
                ));
            }
        }
        out
    }

    /// Writes the spans as Chrome-trace JSON (`chrome://tracing`,
    /// Perfetto) and the per-layer table next to it.
    pub fn write(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("trace_{}.json", self.workload));
        let mut f = io::BufWriter::new(std::fs::File::create(path)?);
        f.write_all(b"{\"traceEvents\":[\n")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                f,
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"workload\":{},\"cell\":{},\"id\":{i},\"parent\":{parent}}}}}{sep}",
                json_str(s.name),
                json_str(s.layer),
                s.start_s * 1e6,
                s.duration() * 1e6,
                if s.probe { 2 } else { 1 },
                json_str(self.workload),
                json_str(&s.cell),
            )?;
        }
        f.write_all(b"]}\n")?;
        f.flush()?;
        std::fs::write(
            dir.join(format!("layers_{}.txt", self.workload)),
            self.layer_table(),
        )
    }
}

fn json_str(s: &str) -> String {
    serde_json::to_string(s).unwrap_or_else(|_| "\"\"".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_tiles_the_root() {
        let mut t = Tracer::new("w");
        let (root, ()) = t.root("run_cell", "c0", Some("core.run_cell_busy_s"), || {
            std::thread::sleep(Duration::from_millis(8))
        });
        let (io, ()) = t.child(root, "io-engine", "account(real)", None, || {
            std::thread::sleep(Duration::from_millis(4))
        });
        t.child(
            io,
            "plotfile",
            "account(null)",
            Some("plotfile.account_busy_s"),
            || std::thread::sleep(Duration::from_millis(1)),
        );
        t.probe(
            "iosim",
            "fabric(16)",
            "c0",
            Some("iosim.fabric_burst_busy_s.t16"),
            || std::thread::sleep(Duration::from_millis(1)),
        );
        t.count("plotfile.account_puts", 3.0);
        t.count("io-engine.account_put_busy_s.fpp", 0.5);

        assert_eq!(t.spans().len(), 4);
        assert_eq!(t.spans()[2].parent, Some(io));
        assert_eq!(t.spans()[2].cell, "c0", "children inherit the cell");
        assert!(t.spans()[3].probe && t.spans()[3].parent.is_none());
        assert!(t.total("plotfile.account_busy_s") >= 0.001);
        assert_eq!(t.total("plotfile.account_puts"), 3.0);
        assert_eq!(t.total("io-engine.account_put_busy_s.fpp"), 0.5);

        let layers = t.layer_self_times();
        let get = |l: &str| layers.iter().find(|r| r.0 == l).unwrap().1;
        assert!((get("core") - (t.duration(root) - t.duration(io))).abs() < 1e-12);
        assert!((get("io-engine") - (t.duration(io) - t.duration(2))).abs() < 1e-12);
        assert!(layers.iter().all(|r| r.0 != "iosim"), "probes stay out");
        assert!((t.root_residual_seconds() - (t.duration(root) - t.duration(io))).abs() < 1e-12);
        // Self times sum to the root span exactly.
        let sum: f64 = layers.iter().map(|r| r.1).sum();
        assert!((sum - t.root_seconds()).abs() < 1e-12);
        let table = t.layer_table();
        assert!(
            table.contains("plotfile") && table.contains("fabric(16)"),
            "{table}"
        );
    }

    #[test]
    fn writes_chrome_trace_json_that_parses() {
        let mut t = Tracer::new("w");
        t.root("a \"quoted\" name", "cell/1", None, || ());
        t.probe("model", "b", "cell/2", None, || ());
        let dir = std::env::temp_dir().join(format!("amrbench_trace_{}", std::process::id()));
        t.write(&dir).unwrap();
        let text = std::fs::read_to_string(dir.join("trace_w.json")).unwrap();
        let v: serde::Value = serde_json::from_str(&text).unwrap();
        let events = v.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("cat").and_then(|c| c.as_str()), Some("model"));
        assert!(dir.join("layers_w.txt").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
