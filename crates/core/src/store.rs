//! The append-only, queryable results store: [`ResultsStore`].
//!
//! Before this module, every campaign's [`RunSummary`] set was thrown
//! away into a one-off JSON blob under `results/` — each bench wrote its
//! own schema, nothing accumulated, and re-running a sweep re-executed
//! every cell. The store graduates `results/` to a durable substrate:
//!
//! * **Append-only JSON lines** (`runs.jsonl`): one schema-versioned
//!   record per run, `{"schema":1,"cell":"<hash>","summary":{...}}`,
//!   keyed by the compiled cell's content hash. Appends never
//!   rewrite existing bytes, so a crashed campaign loses at most its
//!   in-flight record: a final line the crash cut short is dropped when
//!   the log is next read, and the cell re-runs.
//! * **A query API** ([`Query`]): filter rows by column values, project
//!   columns, group/aggregate — the summaries are queried as JSON rows,
//!   so every present *and future* `RunSummary` column is addressable
//!   without store migrations. Rows come in (cell key, append order
//!   within the cell) order, never log order, so every aggregate is a
//!   pure function of the *set* of cells, whatever order the parallel
//!   executor committed them in. `model` fits plug in via
//!   [`Query::xy`] / [`Query::fit`].
//! * **Keyed resume**: [`ResultsStore::contains`] / [`ResultsStore::get`]
//!   answer "is this cell already persisted" by content hash, and
//!   [`ResultsStore::append_cell`] commits a finished cell's rows as one
//!   contiguous batch — what the spec executors in `crate::exec` build
//!   resumable, parallel campaigns on.

use crate::campaign::RunSummary;
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Wire schema of a store record. Bump when a record's *envelope*
/// changes shape; `RunSummary` column additions ride on serde defaults
/// and do not bump it.
pub const STORE_SCHEMA: u32 = 1;

/// An append-only results store over a directory (`<dir>/runs.jsonl`).
///
/// All records stay resident in memory (a campaign is thousands of rows,
/// not millions); the file is the durable log. Opening replays the log,
/// appending writes one line and flushes. Each resident row is one
/// shared allocation that every [`Query`] over it points at.
#[derive(Debug)]
pub struct ResultsStore {
    dir: PathBuf,
    file: File,
    rows: Vec<Row>,
    /// Row indices per cell key, in append order; iterating it is the
    /// canonical row order of [`Self::query`].
    index: BTreeMap<String, Vec<usize>>,
    /// Bytes of `runs.jsonl` already replayed into `rows`: where a torn
    /// final record is cut back to. Every append (ours or a replayed
    /// one) advances it.
    log_len: u64,
}

/// One resident `(cell, summary)` row, shared between the store and
/// every [`Query`] taken over it.
pub(crate) type Row = Arc<(String, Value)>;

fn invalid_data(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// Parses one log line into its `(cell, summary)` pair, or `None` for a
/// blank line. `at` renders the error location (`path:line`).
fn parse_record(line: &str, at: impl Fn() -> String) -> std::io::Result<Option<(String, Value)>> {
    let line = line.trim();
    if line.is_empty() {
        return Ok(None);
    }
    let mut record: Value =
        serde_json::from_str(line).map_err(|e| invalid_data(format!("{}: {e}", at())))?;
    let schema = record
        .get("schema")
        .and_then(Value::as_u64)
        .unwrap_or_default() as u32;
    if schema != STORE_SCHEMA {
        return Err(invalid_data(format!(
            "{}: record schema {schema}, this reader speaks {STORE_SCHEMA}",
            at()
        )));
    }
    let cell = record
        .get("cell")
        .and_then(Value::as_str)
        .unwrap_or_default()
        .to_string();
    // Moved, not cloned, out of the owned record.
    let summary = record.get_mut("summary").map(std::mem::take);
    Ok(Some((cell, summary.unwrap_or(Value::Null))))
}

impl ResultsStore {
    /// Opens (creating if needed) the store at `dir`, replaying any
    /// existing log. Records with an unknown schema are an error — a
    /// newer writer's store must not be silently misread.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join("runs.jsonl");
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let mut store = Self {
            dir,
            file,
            rows: Vec::new(),
            index: BTreeMap::new(),
            log_len: 0,
        };
        let log = BufReader::new(File::open(&path)?);
        store.replay(log, |line| format!("{}:{line}", path.display()))?;
        Ok(store)
    }

    /// Replays the log lines `log` yields (it starts at byte
    /// `self.log_len`) into the resident rows, advancing the cursor.
    /// `at` renders a bad line's location from its 1-based line number.
    ///
    /// A record is complete once its newline is written. A final line
    /// without one is an append its writer died in (the store has one
    /// writer at a time): it is reported, the log is truncated back to
    /// the last complete record so the next append starts a fresh line,
    /// and the resume predicate re-runs the cell. (A multi-row batch cut
    /// exactly between two of its lines is not detectable here.) An
    /// unparseable line anywhere else stays `InvalidData`.
    fn replay(
        &mut self,
        mut log: impl BufRead,
        at: impl Fn(usize) -> String,
    ) -> std::io::Result<()> {
        let mut line = Vec::new();
        for lineno in 1.. {
            line.clear();
            let n = log.read_until(b'\n', &mut line)?;
            if n == 0 {
                break;
            }
            let offset = self.log_len;
            if line.last() != Some(&b'\n') {
                eprintln!(
                    "{}: dropping a torn {n}-byte final record; its cell will re-run",
                    at(lineno)
                );
                self.file.set_len(offset)?;
                break;
            }
            let text = std::str::from_utf8(&line)
                .map_err(|e| invalid_data(format!("{}: {e}", at(lineno))))?;
            self.log_len += n as u64;
            if let Some((cell, row)) = parse_record(text, || at(lineno))? {
                self.ingest(cell, row);
            }
        }
        Ok(())
    }

    /// Adds one row to the resident table and its cell's index.
    fn ingest(&mut self, cell: String, row: Value) {
        self.index
            .entry(cell.clone())
            .or_default()
            .push(self.rows.len());
        self.rows.push(Arc::new((cell, row)));
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of persisted run records.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// True when at least one record is persisted under `cell` — the
    /// resume predicate.
    pub fn contains(&self, cell: &str) -> bool {
        self.index.contains_key(cell)
    }

    /// Appends one summary under a cell key: one JSON line, flushed.
    pub fn append(&mut self, cell: &str, summary: &RunSummary) -> std::io::Result<()> {
        self.append_row(cell, &summary.to_value())
    }

    /// Appends one arbitrary JSON row under a cell key — the path bench
    /// artifacts (non-`RunSummary` tables) persist through; [`Self::append`]
    /// is the typed wrapper campaigns use.
    pub(crate) fn append_row(&mut self, cell: &str, row: &Value) -> std::io::Result<()> {
        self.append_rows(cell, vec![row.clone()])
    }

    /// Appends a fully-executed cell's summaries as one batch: every
    /// record is encoded first, then written with a single `write_all`
    /// and one flush. The parallel spec executor commits each finished
    /// cell through here under one short lock, so a cell's rows are
    /// always contiguous in the log regardless of completion order, and
    /// a crash between cells never leaves a partially-appended cell
    /// (the whole batch reaches the kernel in one call or not at all).
    /// Byte-for-byte, the log is identical to `summaries.len()` calls
    /// to [`Self::append`] — resume readers cannot tell them apart.
    pub fn append_cell(&mut self, cell: &str, summaries: &[RunSummary]) -> std::io::Result<()> {
        self.append_rows(cell, summaries.iter().map(RunSummary::to_value).collect())
    }

    fn append_rows(&mut self, cell: &str, rows: Vec<Value>) -> std::io::Result<()> {
        let mut batch = String::new();
        for row in &rows {
            Self::encode_record(&mut batch, cell, row)?;
        }
        self.file.write_all(batch.as_bytes())?;
        self.file.flush()?;
        self.log_len += batch.len() as u64;
        for row in rows {
            self.ingest(cell.to_string(), row);
        }
        Ok(())
    }

    /// Encodes one wire record (envelope + newline) onto `batch`.
    fn encode_record(batch: &mut String, cell: &str, row: &Value) -> std::io::Result<()> {
        let record = Value::Object(vec![
            ("schema".to_string(), serde_json::to_value(&STORE_SCHEMA)),
            ("cell".to_string(), Value::String(cell.to_string())),
            ("summary".to_string(), row.clone()),
        ]);
        let line = serde_json::to_string(&record).map_err(|e| invalid_data(e.to_string()))?;
        batch.push_str(&line);
        batch.push('\n');
        Ok(())
    }

    /// All summaries persisted under `cell`, in append order (a
    /// throughput cell stores one summary per tenant).
    pub fn get(&self, cell: &str) -> Vec<RunSummary> {
        self.index
            .get(cell)
            .map(|idxs| {
                idxs.iter()
                    .filter_map(|&i| RunSummary::from_value(&self.rows[i].1).ok())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// A query over every persisted summary row, ordered by (cell key,
    /// append order within the cell) — not log order, which under the
    /// parallel executor is the thread schedule's. The query shares the
    /// resident rows (one handle per row, no copy) and is a snapshot:
    /// rows appended afterwards do not reach it.
    pub fn query(&self) -> Query {
        let order = self.index.values().flatten();
        Query {
            rows: order.map(|&i| Arc::clone(&self.rows[i])).collect(),
        }
    }
}

#[cfg(test)]
impl ResultsStore {
    /// Swaps the log handle for a read-only one: the next append fails
    /// as if the log had turned unwritable after [`Self::open`].
    pub(crate) fn make_log_unwritable(&mut self) {
        self.file = File::open(self.dir.join("runs.jsonl")).expect("the log exists after open");
    }
}

/// A filterable, projectable view over summary rows (JSON objects).
/// Filters narrow, projections extract, aggregates reduce; all columns
/// are addressed by their JSON field name, so queries keep working as
/// `RunSummary` grows columns.
///
/// A query is an immutable snapshot of the store at
/// [`ResultsStore::query`] time. It holds shared handles to the store's
/// resident rows, not copies: taking one costs a handle per row, a
/// filter only narrows the handle list, and cloning a query clones
/// handles. Rows the store appends later never appear in a query taken
/// before, and nothing a query does can change a row.
#[derive(Clone, Debug)]
pub struct Query {
    rows: Vec<Row>,
}

impl Query {
    /// Remaining row count.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows remain.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The raw `(cell, row)` pairs, shared with the store.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// The remaining summary rows, without their cell keys.
    fn values(&self) -> impl Iterator<Item = &Value> {
        self.rows.iter().map(|row| &row.1)
    }

    /// Keeps the rows persisted under the given cell keys — how one
    /// matrix's rows are told apart in a store several matrices share.
    pub fn cells(mut self, keys: &[&str]) -> Self {
        self.rows.retain(|row| keys.contains(&row.0.as_str()));
        self
    }

    /// Keeps rows whose `column` renders equal to `value` (strings
    /// compare directly; numbers and booleans by their JSON spelling).
    pub fn filter(mut self, column: &str, value: &str) -> Self {
        self.rows.retain(|row| {
            row.1.get(column).is_some_and(|v| match v {
                Value::String(s) => s == value,
                other => serde_json::to_string(other)
                    .map(|s| s == value)
                    .unwrap_or(false),
            })
        });
        self
    }

    /// Projects a numeric column (non-numbers are skipped).
    pub fn numbers(&self, column: &str) -> Vec<f64> {
        self.values()
            .filter_map(|row| row.get(column).and_then(Value::as_f64))
            .collect()
    }

    /// Deserializes the remaining rows back into [`RunSummary`]s (rows
    /// that do not parse — e.g. bench rows from
    /// `ResultsStore::append_row` — are skipped).
    pub fn summaries(&self) -> Vec<RunSummary> {
        self.values()
            .filter_map(|row| RunSummary::from_value(row).ok())
            .collect()
    }

    /// Projects two numeric columns as a labelled [`model::XySeries`] —
    /// the bridge from store rows to the regression plane.
    pub fn xy(&self, x: &str, y: &str, label: impl Into<String>) -> model::XySeries {
        let pairs: Vec<(f64, f64)> = self
            .values()
            .filter_map(|row| {
                Some((
                    row.get(x).and_then(Value::as_f64)?,
                    row.get(y).and_then(Value::as_f64)?,
                ))
            })
            .collect();
        model::XySeries::from_pairs(label, &pairs)
    }

    /// Least-squares line over two numeric columns
    /// (`model::linear_fit`).
    pub fn fit(&self, x: &str, y: &str) -> model::LinearFit {
        self.xy(x, y, "fit").fit()
    }

    /// Mean of a numeric column (0.0 when empty).
    pub fn mean(&self, column: &str) -> f64 {
        let vals = self.numbers(column);
        if vals.is_empty() {
            0.0
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    }

    /// Groups rows by a key column's rendered value and averages a
    /// numeric column per group, groups in key order — the
    /// campaign-table aggregate (`group_mean("backend", "wall_time")`).
    pub fn group_mean(&self, key: &str, value: &str) -> Vec<(String, f64)> {
        let mut groups: BTreeMap<String, (f64, usize)> = BTreeMap::new();
        for row in self.values() {
            let Some(k) = row.get(key).map(|v| match v {
                Value::String(s) => s.clone(),
                other => serde_json::to_string(other).unwrap_or_default(),
            }) else {
                continue;
            };
            if let Some(v) = row.get(value).and_then(Value::as_f64) {
                let (sum, n) = groups.entry(k).or_default();
                *sum += v;
                *n += 1;
            }
        }
        let means = groups.into_iter().map(|(k, (sum, n))| (k, sum / n as f64));
        means.collect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::campaign::run_campaign_timed_serial;
    use crate::config::{CastroSedovConfig, Engine};
    use crate::spec::ExperimentSpec;
    use io_engine::{BackendSpec, CodecSpec};

    /// A fresh scratch directory; tags are distinct across this module
    /// and the executor tests, which share it.
    pub(crate) fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("amrproxy_store_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    pub(crate) fn small_base(name: &str) -> CastroSedovConfig {
        CastroSedovConfig {
            name: name.into(),
            engine: Engine::Oracle,
            n_cell: 32,
            max_step: 4,
            plot_int: 2,
            nprocs: 2,
            account_only: true,
            ..Default::default()
        }
    }

    #[test]
    fn append_and_query_round_trip() {
        let dir = tmp_dir("rt");
        let mut store = ResultsStore::open(&dir).unwrap();
        let storage = iosim::StorageModel::ideal(2, 5e7);
        let summary = run_campaign_timed_serial(&[small_base("one")], &storage).remove(0);
        store.append("cellkey1", &summary).unwrap();
        assert!(store.contains("cellkey1"));
        assert!(!store.contains("cellkey2"));
        assert_eq!(store.get("cellkey1"), vec![summary.clone()]);

        // A fresh open replays the log to the identical state.
        drop(store);
        let reopened = ResultsStore::open(&dir).unwrap();
        assert_eq!(reopened.len(), 1);
        assert_eq!(reopened.get("cellkey1"), vec![summary.clone()]);
        let walls = reopened.query().numbers("wall_time");
        assert_eq!(walls, vec![summary.wall_time]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_schema_is_rejected() {
        let dir = tmp_dir("schema");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("runs.jsonl"),
            "{\"schema\":99,\"cell\":\"x\",\"summary\":{}}\n",
        )
        .unwrap();
        let err = ResultsStore::open(&dir).unwrap_err();
        assert!(err.to_string().contains("schema 99"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn query_filters_projects_and_aggregates() {
        let dir = tmp_dir("query");
        let mut store = ResultsStore::open(&dir).unwrap();
        let storage = iosim::StorageModel::ideal(2, 5e7);
        let spec = ExperimentSpec::new("q")
            .base(small_base("q"))
            .backends(&[BackendSpec::FilePerProcess, BackendSpec::Aggregated(2)])
            .codecs(&[CodecSpec::Identity, CodecSpec::LossyQuant(8)]);
        for cell in spec.compile().unwrap() {
            let s = run_campaign_timed_serial(&[cell.config], &storage).remove(0);
            store.append(&cell.key, &s).unwrap();
        }
        let q = store.query();
        assert_eq!(q.len(), 4);
        assert_eq!(q.clone().filter("backend", "fpp").len(), 2);
        assert_eq!(
            q.clone()
                .filter("backend", "agg:2")
                .filter("codec", "quant:8")
                .len(),
            1
        );
        // Numeric projections.
        assert_eq!(q.numbers("wall_time").len(), 4);
        assert!(q.mean("wall_time") > 0.0);
        // Boolean columns filter by JSON spelling.
        assert_eq!(q.clone().filter("restart", "false").len(), 4);
        // Grouped aggregation, groups in key order.
        let by_backend = q.group_mean("backend", "physical_bytes");
        assert_eq!(by_backend.len(), 2);
        assert_eq!(
            (by_backend[0].0.as_str(), by_backend[1].0.as_str()),
            ("agg:2", "fpp")
        );
        assert!(by_backend.iter().all(|(_, v)| *v > 0.0));
        // Rows come in cell-key order, and a key set selects its cells.
        let keys: Vec<&str> = q.rows().iter().map(|row| row.0.as_str()).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "{keys:?}");
        assert_eq!(q.clone().cells(&keys[1..3]).len(), 2);
        assert!(q.clone().cells(&["no such cell"]).is_empty());
        // The store → model bridge.
        let fit = q.fit("physical_bytes", "wall_time");
        assert!(fit.slope.is_finite());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batched_append_is_wire_byte_identical_to_row_appends() {
        let dir_a = tmp_dir("wire_a");
        let dir_b = tmp_dir("wire_b");
        let storage = iosim::StorageModel::ideal(2, 5e7);
        let summaries: Vec<_> = ["one", "two", "three"]
            .iter()
            .map(|n| run_campaign_timed_serial(&[small_base(n)], &storage).remove(0))
            .collect();
        let mut row_wise = ResultsStore::open(&dir_a).unwrap();
        for s in &summaries {
            row_wise.append("cell_k", s).unwrap();
        }
        let mut batched = ResultsStore::open(&dir_b).unwrap();
        batched.append_cell("cell_k", &summaries).unwrap();
        let bytes_a = std::fs::read(dir_a.join("runs.jsonl")).unwrap();
        let bytes_b = std::fs::read(dir_b.join("runs.jsonl")).unwrap();
        assert_eq!(bytes_a, bytes_b, "batch must not change the wire format");
        assert_eq!(batched.get("cell_k"), summaries);
        // Regression pin on the wire format itself: envelope key order,
        // schema tag, one object per line.
        let text = String::from_utf8(bytes_a).unwrap();
        assert_eq!(text.lines().count(), 3);
        for line in text.lines() {
            assert!(
                line.starts_with("{\"schema\":1,\"cell\":\"cell_k\",\"summary\":{"),
                "wire envelope changed: {line}"
            );
        }
        std::fs::remove_dir_all(&dir_a).unwrap();
        std::fs::remove_dir_all(&dir_b).unwrap();
    }

    #[test]
    fn a_query_is_a_snapshot_sharing_the_stores_rows() {
        let dir = tmp_dir("snapshot");
        let storage = iosim::StorageModel::ideal(2, 5e7);
        let summaries: Vec<_> = ["one", "two"]
            .iter()
            .map(|n| run_campaign_timed_serial(&[small_base(n)], &storage).remove(0))
            .collect();
        let mut store = ResultsStore::open(&dir).unwrap();
        store.append_cell("k1", &summaries[..1]).unwrap();
        let before = store.query();
        store.append_cell("k2", &summaries[1..]).unwrap();
        // Taken before the append, the query does not see the new row.
        assert_eq!(before.len(), 1);
        assert!(before.clone().cells(&["k2"]).is_empty());
        assert_eq!(store.query().len(), 2);
        // Two queries hold the same allocations, not copies of them.
        let (a, b) = (store.query(), store.query());
        assert!(a
            .rows()
            .iter()
            .zip(b.rows())
            .all(|(x, y)| Arc::ptr_eq(x, y)));
        assert!(Arc::ptr_eq(&before.rows()[0], &a.rows()[0]));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_reopened_store_queries_the_writers_rows() {
        let dir = tmp_dir("reopen_rows");
        let mut writer = ResultsStore::open(&dir).unwrap();
        let storage = iosim::StorageModel::ideal(2, 5e7);
        let spec = ExperimentSpec::new("r")
            .base(small_base("r"))
            .backends(&[BackendSpec::FilePerProcess, BackendSpec::Aggregated(2)])
            .codecs(&[CodecSpec::Identity, CodecSpec::Rle(2.0)]);
        for cell in spec.compile().unwrap() {
            let s = run_campaign_timed_serial(&[cell.config], &storage).remove(0);
            writer.append_cell(&cell.key, &[s.clone(), s]).unwrap();
        }
        writer
            .append_row("bench", &serde_json::json!({"name": "é€😀\"\\", "x": 1.5}))
            .unwrap();
        let reopened = ResultsStore::open(&dir).unwrap();
        let (written, read) = (writer.query(), reopened.query());
        assert_eq!(read.len(), 9);
        assert_eq!(written.rows(), read.rows(), "row for row");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
