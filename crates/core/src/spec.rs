//! The declarative experiment grammar: [`ExperimentSpec`].
//!
//! The paper's 47-run Summit campaign — and every sweep this repo grew
//! after it — is a cross product of a few named axes: I/O backend,
//! compression codec, read mode, analysis read pattern, storage layout,
//! scenario program, task count, AMR rung, storage profile. An
//! `ExperimentSpec` *declares* the matrix (builder API or a TOML file),
//! and [`ExperimentSpec::compile`] turns it into [`SpecCell`]s —
//! concrete [`CastroSedovConfig`]s with deterministic, collision-checked
//! run labels and a content hash the results store ([`crate::store`])
//! keys persistence and resume on.
//!
//! The matrix itself — sections, zips, excludes, enumeration, labels,
//! collisions — is [`io_engine::grammar::Matrix`], shared with `macsio
//! --spec`. This module adds what an axis *means*: the `scaling` key,
//! typed values and content keys. A new axis is one `AxisValue`
//! variant, one arm in each of its four matches (`parse`, `name`, `tag`,
//! `apply`) and a one-line builder method, all in this file.
//!
//! The grammar follows the benchpark experiment-spec shape: axes are
//! crossed in declaration order (last declared varies fastest, exactly
//! like the nested loops the legacy sweeps wrote), `zip` groups advance
//! member axes in lockstep instead of crossing them, `exclude` tables
//! drop cells whose canonical axis values match, and a *scaling mode*
//! gives the `scale` axis its meaning: strong (vary ranks at fixed
//! problem), weak (vary ranks at fixed cells-per-rank), or throughput
//! (vary tenant count on the shared machine-room fabric).
//!
//! Label spellings are bit-compatible with the legacy sweeps, so labels
//! already persisted in results stores stay addressable. The sweeps now
//! live only as test oracles: the frozen enumerations in
//! `tests/proptests_spec.rs` (`legacy_backend_sweep` and its siblings)
//! are property-tested equal to the builder, and `campaign.rs`'s test
//! module pins each sweep's labels.
//!
//! ```
//! use amrproxy::ExperimentSpec;
//! use amrproxy::CastroSedovConfig;
//! use io_engine::{BackendSpec, CodecSpec};
//!
//! let base = CastroSedovConfig {
//!     name: "sedov".into(),
//!     ..Default::default()
//! };
//! let cells = ExperimentSpec::new("smoke")
//!     .base(base)
//!     .backends(&[BackendSpec::FilePerProcess, BackendSpec::Aggregated(4)])
//!     .codecs(&[CodecSpec::Identity, CodecSpec::LossyQuant(8)])
//!     .exclude(&[("backend", "agg:4"), ("codec", "quant:8")])
//!     .compile()
//!     .unwrap();
//! let labels: Vec<&str> = cells.iter().map(|c| c.config.name.as_str()).collect();
//! assert_eq!(
//!     labels,
//!     ["sedov_fpp_identity", "sedov_fpp_quant8", "sedov_agg4_identity"]
//! );
//! ```

use crate::config::CastroSedovConfig;
use io_engine::grammar::{disambiguate_tags, Matrix, MatrixError, TomlDoc, TomlSection};
use io_engine::{BackendSpec, CodecSpec, ReadSelection, Scenario};
use iosim::Fnv1a;
use serde::Value;
use std::io::Write as _;

/// What the `scale` axis varies (benchpark's experiment modes).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum ScalingMode {
    /// Fixed problem, vary ranks: `scale = v` sets `nprocs = v`
    /// (label tag `p{v}`).
    #[default]
    Strong,
    /// Fixed cells per rank, vary ranks: `scale = v` sets `nprocs = v`
    /// and grows `n_cell` by `sqrt(v / base_nprocs)` (2-D mesh), snapped
    /// up to a blocking-factor multiple (label tag `p{v}w`).
    Weak,
    /// Fixed workload, vary tenancy: `scale = v` runs `v` clones of the
    /// cell concurrently on one shared storage fabric (label tag
    /// `x{v}`); the clones form one fabric group in [`SpecCell`].
    Throughput,
}

impl ScalingMode {
    /// Parses a mode spelling (`strong` / `weak` / `throughput`).
    pub(crate) fn parse(s: &str) -> Result<Self, String> {
        match s {
            "strong" => Ok(Self::Strong),
            "weak" => Ok(Self::Weak),
            "throughput" => Ok(Self::Throughput),
            other => Err(format!(
                "unknown scaling mode '{other}' (strong, weak, throughput)"
            )),
        }
    }
}

/// A named storage model an axis can sweep over (the machine half of a
/// cell: the same workload priced on different machines).
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum StorageProfile {
    /// `iosim::StorageModel::ideal(servers, bandwidth)`.
    Ideal {
        /// Server count.
        servers: usize,
        /// Per-server bandwidth, bytes/s.
        bandwidth: f64,
    },
    /// `iosim::StorageModel::summit_alpine(scale)`.
    Summit {
        /// Fraction of the full Alpine deployment, in `(0, 1]`.
        scale: f64,
    },
}

impl StorageProfile {
    /// Parses `ideal:<servers>:<bandwidth>` or `summit:<scale>`.
    pub(crate) fn parse(s: &str) -> Result<Self, String> {
        let mut parts = s.split(':');
        match parts.next() {
            Some("ideal") => {
                let servers = parts
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("ideal:<servers>:<bandwidth>, got '{s}'"))?;
                let bandwidth: f64 = parts
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("ideal:<servers>:<bandwidth>, got '{s}'"))?;
                // Zero, negative or NaN would starve every request
                // (`inf` is the supported infinitely-fast idealisation).
                if bandwidth.is_nan() || bandwidth <= 0.0 {
                    return Err(format!("ideal bandwidth must be > 0, got {bandwidth}"));
                }
                Ok(Self::Ideal { servers, bandwidth })
            }
            Some("summit") => {
                let scale: f64 = parts
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("summit:<scale>, got '{s}'"))?;
                if !(scale > 0.0 && scale <= 1.0) {
                    return Err(format!("summit scale must be in (0, 1], got {scale}"));
                }
                Ok(Self::Summit { scale })
            }
            _ => Err(format!("unknown storage profile '{s}' (ideal, summit)")),
        }
    }

    /// Canonical spelling (`ideal:8:2.5e8`, `summit:0.5`).
    pub fn name(&self) -> String {
        match self {
            Self::Ideal { servers, bandwidth } => format!("ideal:{servers}:{bandwidth:e}"),
            Self::Summit { scale } => format!("summit:{scale}"),
        }
    }

    /// Name-safe label tag (`ideal82p5e8`, `summit0p5`).
    pub(crate) fn tag(&self) -> String {
        self.name().replace(':', "").replace('.', "p")
    }

    /// Builds the concrete storage model.
    pub fn build(&self) -> iosim::StorageModel {
        match *self {
            Self::Ideal { servers, bandwidth } => iosim::StorageModel::ideal(servers, bandwidth),
            Self::Summit { scale } => iosim::StorageModel::summit_alpine(scale),
        }
    }
}

/// Read mode of a cell: write-only or write + restart read-back (the
/// legacy `restart_sweep` doubling).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RunMode {
    /// Write-only (no label tag — matches the legacy spelling where the
    /// write half of `restart_sweep` carries no suffix).
    Write,
    /// Write, then restart-read the last dump (`_restart` suffix).
    Restart,
}

/// Storage layout an analysis read is served from (the legacy
/// `analysis_sweep` raw/reorg doubling).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Layout {
    /// The raw written layout (`_raw` suffix).
    Raw,
    /// The read-optimized reorganized layout (`_reorg` suffix).
    Reorg,
}

/// One typed value of an axis. An axis is a key plus a `Vec<AxisValue>`
/// (declaration order is loop order); a new axis is one variant here and
/// one arm in each of the four matches below.
#[derive(Clone, Debug)]
enum AxisValue {
    Backend(BackendSpec),
    Codec(CodecSpec),
    Mode(RunMode),
    Pattern(ReadSelection),
    Layout(Layout),
    Scenario(Scenario),
    Scale(usize),
    Rung(i64),
    Storage(StorageProfile),
}

impl AxisValue {
    /// Parses one value of the `[axes]` entry `key` from its TOML
    /// spelling.
    fn parse(key: &str, s: &str) -> Result<Self, SpecError> {
        let int = || {
            let parsed = s.parse::<i64>();
            parsed.map_err(|_| format!("axis '{key}' wants integers, got '{s}'"))
        };
        let parsed = match key {
            "backend" => BackendSpec::parse(s).map(Self::Backend),
            "codec" => CodecSpec::parse(s).map(Self::Codec),
            "mode" => match s {
                "write" => Ok(Self::Mode(RunMode::Write)),
                "restart" => Ok(Self::Mode(RunMode::Restart)),
                other => Err(format!("unknown mode '{other}' (write, restart)")),
            },
            "pattern" => ReadSelection::parse(s).map(Self::Pattern),
            "layout" => match s {
                "raw" => Ok(Self::Layout(Layout::Raw)),
                "reorg" => Ok(Self::Layout(Layout::Reorg)),
                other => Err(format!("unknown layout '{other}' (raw, reorg)")),
            },
            "scenario" => Scenario::parse(s).map(Self::Scenario),
            "scale" => int().map(|v| Self::Scale(v.max(1) as usize)),
            "rung" => int().map(Self::Rung),
            "storage" => StorageProfile::parse(s).map(Self::Storage),
            other => return Err(SpecError::Matrix(MatrixError::UnknownAxis(other.into()))),
        };
        parsed.map_err(SpecError::Parse)
    }

    /// Canonical (lossless) spelling — what excludes match on and what
    /// coordinates and collision errors print.
    fn name(&self) -> String {
        match self {
            Self::Backend(b) => b.name(),
            Self::Codec(c) => c.name(),
            Self::Mode(RunMode::Write) => "write".to_string(),
            Self::Mode(RunMode::Restart) => "restart".to_string(),
            Self::Pattern(p) => p.name(),
            Self::Layout(Layout::Raw) => "raw".to_string(),
            Self::Layout(Layout::Reorg) => "reorg".to_string(),
            Self::Scenario(s) => s.name(),
            Self::Scale(v) => v.to_string(),
            Self::Rung(n) => n.to_string(),
            Self::Storage(s) => s.name(),
        }
    }

    /// Name-safe label tag, matching the legacy sweep spellings exactly.
    /// The pattern and scenario flattenings are lossy; `compile`
    /// index-disambiguates those two axes.
    fn tag(&self, mode: ScalingMode) -> String {
        match self {
            Self::Backend(b) => b.name().replace(':', ""),
            // Codec spellings keep '.' distinct ('p', as in "2p5") so
            // fractional Rle ratios cannot collide (2.1 vs 21).
            Self::Codec(c) => c.name().replace(':', "").replace('.', "p"),
            // The write half of the legacy `restart_sweep` carries no
            // suffix.
            Self::Mode(RunMode::Write) => String::new(),
            Self::Pattern(p) => p
                .name()
                .replace(':', "")
                .replace('-', "to")
                .replace([',', '/', '.'], "_"),
            Self::Scenario(s) => s
                .name()
                .replace([';', ','], "_")
                .replace('-', "to")
                .replace([':', '@', '.', '/'], ""),
            Self::Scale(v) => match mode {
                ScalingMode::Strong => format!("p{v}"),
                ScalingMode::Weak => format!("p{v}w"),
                ScalingMode::Throughput => format!("x{v}"),
            },
            Self::Rung(n) => format!("n{n}"),
            Self::Storage(s) => s.tag(),
            Self::Mode(RunMode::Restart) | Self::Layout(_) => self.name(),
        }
    }

    /// Applies the value to a cell under construction (its `config`
    /// still holds the base's values for every field no earlier axis
    /// set).
    fn apply(&self, mode: ScalingMode, cell: &mut SpecCell) {
        let cfg = &mut cell.config;
        match self {
            Self::Backend(b) => cfg.backend = *b,
            Self::Codec(c) => cfg.codec = *c,
            Self::Mode(m) => cfg.read_after_write |= *m == RunMode::Restart,
            Self::Pattern(p) => cfg.analysis_read = Some(p.clone()),
            Self::Layout(l) => cfg.reorganize = *l == Layout::Reorg,
            Self::Scenario(s) => cfg.scenario = Some(s.clone()),
            Self::Scale(v) => match mode {
                ScalingMode::Strong => cfg.nprocs = *v,
                ScalingMode::Weak => {
                    // `scale` is the one axis that sets `nprocs`, so it
                    // still reads the base's rank count here.
                    let factor = (*v as f64 / cfg.nprocs.max(1) as f64).sqrt();
                    let bf = cfg.grid.blocking_factor.max(1);
                    let scaled = (cfg.n_cell as f64 * factor).round() as i64;
                    cfg.n_cell = ((scaled + bf - 1) / bf).max(1) * bf;
                    cfg.nprocs = *v;
                }
                ScalingMode::Throughput => cell.tenants = (*v).max(1),
            },
            Self::Rung(n) => cfg.n_cell = *n,
            Self::Storage(s) => cell.storage = Some(*s),
        }
    }
}

/// Errors a spec can fail to compile with.
#[derive(Clone, Debug, PartialEq)]
pub enum SpecError {
    /// TOML or value parse failure.
    Parse(String),
    /// The matrix does not expand: an unknown or twice-declared axis, a
    /// bad zip group, an exclude clause that spells no declared value,
    /// or two cells with one run label (named by their coordinates).
    Matrix(MatrixError),
    /// The spec has no base configuration.
    NoBase,
    /// A cell's scenario cannot run against its cadence (a malformed
    /// program, `fail@K` beyond the cell's `max_step`).
    Scenario {
        /// The cell's run label.
        label: String,
        /// Canonical `axis=value` coordinates of the cell.
        coords: String,
        /// Why the scenario was refused.
        reason: String,
    },
    /// Executing a compiled cell or persisting its rows failed (a
    /// throughput cell without a storage model, a store append error).
    Exec(String),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Parse(msg) => write!(f, "spec parse error: {msg}"),
            SpecError::Matrix(e) => write!(f, "{e}"),
            SpecError::NoBase => write!(f, "spec has no base configuration"),
            SpecError::Scenario {
                label,
                coords,
                reason,
            } => write!(f, "cell '{label}' ({coords}) cannot run: {reason}"),
            SpecError::Exec(msg) => write!(f, "spec execution error: {msg}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// One compiled cell of an experiment matrix: the concrete run
/// configuration, the machine it is priced on, and the identity the
/// results store persists it under.
#[derive(Clone, Debug)]
pub struct SpecCell {
    /// The fully-applied run configuration (label in `config.name`).
    pub config: CastroSedovConfig,
    /// Storage profile from the `storage` axis (`None` = the executor's
    /// default storage).
    pub storage: Option<StorageProfile>,
    /// Concurrent clones of this cell on a shared fabric (1 outside
    /// throughput scaling).
    pub tenants: usize,
    /// Content key: a hash of the canonical config JSON, storage name,
    /// and tenancy — what the append-only store indexes persistence and
    /// resume by. Identical cell, identical key, across processes.
    pub key: String,
    /// Solo-profile key: the same content hash with the display label
    /// cleared and tenancy fixed at 1 — label- and tenancy-independent,
    /// so every throughput rung over one base shares it. The parallel
    /// executor memoizes solo shadow replays under this key
    /// ([`iosim::SoloMemo`]).
    pub solo_key: String,
    /// Canonical `(axis, value)` coordinates (base first) — the
    /// queryable identity of the cell, also used by exclude matching
    /// and collision diagnostics.
    pub coords: Vec<(String, String)>,
}

/// A declarative experiment: bases × axes, zips, excludes, scaling mode.
/// See the module docs for the grammar; build with the fluent API or
/// [`ExperimentSpec::from_toml`].
#[derive(Clone, Debug, Default)]
pub struct ExperimentSpec {
    /// Spec name (campaigns in the store are grouped under it).
    pub name: String,
    bases: Vec<CastroSedovConfig>,
    axes: Vec<(String, Vec<AxisValue>)>,
    zips: Vec<Vec<String>>,
    excludes: Vec<Vec<(String, String)>>,
    mode: ScalingMode,
}

impl ExperimentSpec {
    /// New empty spec.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Spec over existing base configurations (the legacy sweeps'
    /// calling convention: bases are the outermost loop).
    pub fn over(name: impl Into<String>, bases: &[CastroSedovConfig]) -> Self {
        Self {
            name: name.into(),
            bases: bases.to_vec(),
            ..Default::default()
        }
    }

    /// Adds one base configuration.
    pub fn base(mut self, cfg: CastroSedovConfig) -> Self {
        self.bases.push(cfg);
        self
    }

    fn axis(mut self, key: &str, values: impl Iterator<Item = AxisValue>) -> Self {
        self.axes.push((key.to_string(), values.collect()));
        self
    }

    /// Declares the backend axis.
    pub fn backends(self, backends: &[BackendSpec]) -> Self {
        self.axis("backend", backends.iter().copied().map(AxisValue::Backend))
    }

    /// Declares the codec axis.
    pub fn codecs(self, codecs: &[CodecSpec]) -> Self {
        self.axis("codec", codecs.iter().copied().map(AxisValue::Codec))
    }

    /// Declares the read-mode axis (write / restart).
    pub fn modes(self, modes: &[RunMode]) -> Self {
        self.axis("mode", modes.iter().copied().map(AxisValue::Mode))
    }

    /// Declares the analysis read-pattern axis.
    pub fn patterns(self, patterns: &[ReadSelection]) -> Self {
        self.axis("pattern", patterns.iter().cloned().map(AxisValue::Pattern))
    }

    /// Declares the layout axis (raw / reorganized).
    pub fn layouts(self, layouts: &[Layout]) -> Self {
        self.axis("layout", layouts.iter().copied().map(AxisValue::Layout))
    }

    /// Declares the scenario axis.
    pub fn scenarios(self, scenarios: &[Scenario]) -> Self {
        self.axis(
            "scenario",
            scenarios.iter().cloned().map(AxisValue::Scenario),
        )
    }

    /// Declares the scale axis; what it varies depends on
    /// [`ExperimentSpec::scaling`].
    pub fn scales(self, scales: &[usize]) -> Self {
        self.axis("scale", scales.iter().copied().map(AxisValue::Scale))
    }

    /// Declares the storage-profile axis.
    pub fn storages(self, storages: &[StorageProfile]) -> Self {
        self.axis("storage", storages.iter().copied().map(AxisValue::Storage))
    }

    /// Excludes every cell whose canonical axis values match all the
    /// given `(axis, value)` clauses (values spelled canonically:
    /// `agg:4`, `quant:8`, `level:1`, `write;restart`, ...).
    pub fn exclude(mut self, clauses: &[(&str, &str)]) -> Self {
        self.excludes.push(
            clauses
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        );
        self
    }

    /// Sets the scaling mode the `scale` axis is interpreted under.
    pub fn scaling(mut self, mode: ScalingMode) -> Self {
        self.mode = mode;
        self
    }

    /// Compiles the spec: the bases are the outermost axis of one
    /// [`Matrix`], which enumerates the (zipped) product in declaration
    /// order with the last axis varying fastest, applies excludes,
    /// joins the labels and rejects collisions; each surviving cell is
    /// the base with its axis values applied in declaration order.
    pub fn compile(&self) -> Result<Vec<SpecCell>, SpecError> {
        if self.bases.is_empty() {
            return Err(SpecError::NoBase);
        }
        let names: Vec<String> = self.bases.iter().map(|b| b.name.clone()).collect();
        let mut matrix = Matrix {
            name: self.name.clone(),
            axes: vec![("base".to_string(), names.clone(), names)],
            zips: self.zips.clone(),
            excludes: self.excludes.clone(),
        };
        for (key, values) in &self.axes {
            let mut tags: Vec<String> = values.iter().map(|v| v.tag(self.mode)).collect();
            // The two free-text axes flatten lossily; the legacy sweeps
            // told colliding tags apart by index, behind the key's
            // initial.
            if let "pattern" | "scenario" = key.as_str() {
                disambiguate_tags(&mut tags, key.chars().next().expect("non-empty key"));
            }
            let spellings = values.iter().map(AxisValue::name).collect();
            matrix.axes.push((key.clone(), spellings, tags));
        }
        let mut cells = Vec::new();
        for matrix_cell in matrix.cells().map_err(SpecError::Matrix)? {
            let mut cell = SpecCell {
                config: self.bases[matrix_cell.index[0]].clone(),
                storage: None,
                tenants: 1,
                key: String::new(),
                solo_key: String::new(),
                coords: Vec::new(),
            };
            for ((_, values), &i) in self.axes.iter().zip(&matrix_cell.index[1..]) {
                values[i].apply(self.mode, &mut cell);
            }
            // The executors reach the driver through infallible wrappers
            // on worker threads: refuse here what its compiler would
            // refuse there.
            let scenario = cell.config.effective_scenario();
            if let Err(reason) = crate::driver::cadence(&cell.config).admits(&scenario) {
                return Err(SpecError::Scenario {
                    coords: matrix_cell.coords_string(),
                    label: matrix_cell.label,
                    reason,
                });
            }
            cell.coords = matrix_cell.coords;
            cell.config.name = matrix_cell.label;
            (cell.key, cell.solo_key) =
                cell_keys(&cell.config, cell.storage.as_ref(), cell.tenants);
            cells.push(cell);
        }
        Ok(cells)
    }

    /// Parses a spec from the TOML grammar. Sections:
    ///
    /// ```toml
    /// [experiment]
    /// name = "smoke"
    /// scaling = "strong"            # optional
    /// zip = ["backend+codec"]       # optional
    ///
    /// [base]                         # CastroSedovConfig overrides
    /// name = "sedov"
    /// n_cell = 64
    /// nprocs = 4
    ///
    /// [axes]                         # declaration order = loop order
    /// backend = ["fpp", "agg:4"]
    /// codec = ["identity", "quant:8"]
    /// mode = ["write", "restart"]
    ///
    /// [[exclude]]                    # optional, repeatable
    /// backend = "agg:4"
    /// codec = "quant:8"
    /// ```
    pub fn from_toml(text: &str) -> Result<Self, SpecError> {
        let doc = TomlDoc::parse(text).map_err(SpecError::Parse)?;
        let mut mode = ScalingMode::default();
        let matrix = Matrix::from_doc(&doc, "experiment", |key, value| {
            mode = match (key, value.as_str()) {
                ("scaling", Some(s)) => ScalingMode::parse(s)?,
                ("scaling", None) => return Err("experiment.scaling must be a string".into()),
                _ => return Err(format!("unknown [experiment] key '{key}'")),
            };
            Ok(())
        })
        .map_err(SpecError::Parse)?;
        let mut spec = ExperimentSpec::new(matrix.name).scaling(mode);
        spec.bases.push(match doc.section("base") {
            Some(section) => parse_base(section)?,
            None => CastroSedovConfig::default(),
        });
        for (key, spellings, _) in matrix.axes {
            let values = spellings.iter().map(|s| AxisValue::parse(&key, s));
            spec.axes
                .push((key.clone(), values.collect::<Result<_, _>>()?));
        }
        spec.zips = matrix.zips;
        spec.excludes = matrix.excludes;
        Ok(spec)
    }

    /// Loads and parses a spec file from disk.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, SpecError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| SpecError::Parse(format!("cannot read spec {}: {e}", path.display())))?;
        Self::from_toml(&text)
    }
}

/// Content keys of a compiled cell: [`Fnv1a`] over the canonical config
/// JSON plus the storage/tenancy half, `{json}|{storage}|{tenants}` — as
/// labelled (the cell key), and with an empty `name` at tenancy 1 (the
/// solo key). Deterministic across processes (no hasher randomization),
/// so stores written yesterday resume today. The JSON is printed straight
/// into the hashes: both JSONs open with the `name` entry and share all
/// that follows it, which is printed once into both. A config the printer
/// refuses hashes as empty JSON.
fn cell_keys(
    config: &CastroSedovConfig,
    storage: Option<&StorageProfile>,
    tenants: usize,
) -> (String, String) {
    let Value::Object(entries) = serde_json::to_value(config) else {
        unreachable!("a config serializes to an object")
    };
    let ((first, name), rest) = entries.split_first().expect("a config has fields");
    assert_eq!(first, "name", "a config serializes its name first");
    let mut keys = FnvPair([
        Fnv1a::default().then(b"{\"name\":"),
        Fnv1a::default().then(b"{\"name\":\"\""),
    ]);
    let printed = serde_json::to_writer(&mut keys.0[0], name).and_then(|()| {
        for (key, value) in rest {
            keys.absorb(b",");
            serde_json::to_writer(&mut keys, key)?;
            keys.absorb(b":");
            serde_json::to_writer(&mut keys, value)?;
        }
        keys.absorb(b"}");
        Ok(())
    });
    if printed.is_err() {
        keys = FnvPair([Fnv1a::default(); 2]);
    }
    let storage = storage.map(StorageProfile::name).unwrap_or_default();
    let [mut key, mut solo] = keys.0;
    let _ = write!(key, "|{storage}|{tenants}");
    let _ = write!(solo, "|{storage}|1");
    (format!("{:016x}", key.0), format!("{:016x}", solo.0))
}

/// Two FNV-1a hashes continued over the same bytes in one pass.
struct FnvPair([Fnv1a; 2]);

impl FnvPair {
    fn absorb(&mut self, bytes: &[u8]) {
        let [a, b] = &mut self.0;
        for byte in bytes.chunks(1) {
            (*a, *b) = (a.then(byte), b.then(byte));
        }
    }
}

impl std::io::Write for FnvPair {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.absorb(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn parse_base(section: &TomlSection) -> Result<CastroSedovConfig, SpecError> {
    use crate::config::Engine;
    let mut cfg = CastroSedovConfig::default();
    let bad = |key: &str, want: &str| SpecError::Parse(format!("base.{key} must be {want}"));
    for (key, value) in &section.entries {
        match key.as_str() {
            "name" => cfg.name = value.as_str().ok_or_else(|| bad(key, "a string"))?.into(),
            "engine" => {
                cfg.engine = match value.as_str().ok_or_else(|| bad(key, "a string"))? {
                    "hydro" => Engine::Hydro,
                    "oracle" => Engine::Oracle,
                    other => {
                        return Err(SpecError::Parse(format!(
                            "unknown engine '{other}' (hydro, oracle)"
                        )))
                    }
                }
            }
            "n_cell" => cfg.n_cell = value.as_i64().ok_or_else(|| bad(key, "an integer"))?,
            "max_level" => {
                cfg.max_level = value.as_i64().ok_or_else(|| bad(key, "an integer"))? as usize
            }
            "max_step" => {
                cfg.max_step = value.as_i64().ok_or_else(|| bad(key, "an integer"))? as u64
            }
            "stop_time" => cfg.stop_time = value.as_f64().ok_or_else(|| bad(key, "a number"))?,
            "plot_int" => {
                cfg.plot_int = value.as_i64().ok_or_else(|| bad(key, "an integer"))? as u64
            }
            "check_int" => {
                cfg.check_int = value.as_i64().ok_or_else(|| bad(key, "an integer"))? as u64
            }
            "regrid_int" => {
                cfg.regrid_int = value.as_i64().ok_or_else(|| bad(key, "an integer"))? as u64
            }
            "nprocs" => cfg.nprocs = value.as_i64().ok_or_else(|| bad(key, "an integer"))? as usize,
            "cfl" => cfg.ctrl.cfl = value.as_f64().ok_or_else(|| bad(key, "a number"))?,
            "compute_ns_per_cell" => {
                cfg.compute_ns_per_cell = value.as_f64().ok_or_else(|| bad(key, "a number"))?
            }
            "account_only" => {
                cfg.account_only = value.as_bool().ok_or_else(|| bad(key, "a boolean"))?
            }
            "blocking_factor" => {
                cfg.grid.blocking_factor = value.as_i64().ok_or_else(|| bad(key, "an integer"))?
            }
            "max_grid_size" => {
                cfg.grid.max_grid_size = value.as_i64().ok_or_else(|| bad(key, "an integer"))?
            }
            "backend" => {
                cfg.backend =
                    BackendSpec::parse(value.as_str().ok_or_else(|| bad(key, "a string"))?)
                        .map_err(SpecError::Parse)?
            }
            "codec" => {
                cfg.codec = CodecSpec::parse(value.as_str().ok_or_else(|| bad(key, "a string"))?)
                    .map_err(SpecError::Parse)?
            }
            "scenario" => {
                cfg.scenario = Some(
                    Scenario::parse(value.as_str().ok_or_else(|| bad(key, "a string"))?)
                        .map_err(SpecError::Parse)?,
                )
            }
            other => {
                return Err(SpecError::Parse(format!("unknown [base] key '{other}'")));
            }
        }
    }
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Engine;

    fn base(name: &str) -> CastroSedovConfig {
        CastroSedovConfig {
            name: name.into(),
            ..Default::default()
        }
    }

    #[test]
    fn backend_codec_labels_match_legacy_spellings() {
        let cells = ExperimentSpec::new("t")
            .base(base("m"))
            .backends(&[BackendSpec::FilePerProcess, BackendSpec::Aggregated(4)])
            .codecs(&[CodecSpec::Identity, CodecSpec::Rle(2.5)])
            .compile()
            .unwrap();
        let labels: Vec<&str> = cells.iter().map(|c| c.config.name.as_str()).collect();
        assert_eq!(
            labels,
            [
                "m_fpp_identity",
                "m_fpp_rle2p5",
                "m_agg4_identity",
                "m_agg4_rle2p5"
            ]
        );
    }

    #[test]
    fn write_mode_is_untagged_and_restart_suffixes() {
        let cells = ExperimentSpec::new("t")
            .base(base("m"))
            .backends(&[BackendSpec::FilePerProcess])
            .codecs(&[CodecSpec::Identity])
            .modes(&[RunMode::Write, RunMode::Restart])
            .compile()
            .unwrap();
        assert_eq!(cells[0].config.name, "m_fpp_identity");
        assert!(!cells[0].config.read_after_write);
        assert_eq!(cells[1].config.name, "m_fpp_identity_restart");
        assert!(cells[1].config.read_after_write);
    }

    #[test]
    fn pattern_and_layout_tags_flatten_name_safe() {
        let cells = ExperimentSpec::new("t")
            .base(base("m"))
            .patterns(&[ReadSelection::parse("box:0-1,0-3").unwrap()])
            .layouts(&[Layout::Raw, Layout::Reorg])
            .compile()
            .unwrap();
        assert_eq!(cells[0].config.name, "m_box0to1_0to3_raw");
        assert!(!cells[0].config.reorganize);
        assert_eq!(cells[1].config.name, "m_box0to1_0to3_reorg");
        assert!(cells[1].config.reorganize);
        assert!(cells.iter().all(|c| c.config.analysis_read.is_some()));
    }

    #[test]
    fn zip_advances_axes_in_lockstep() {
        let cells = ExperimentSpec::from_toml(
            "[experiment]\nzip = [\"backend+codec\"]\n[base]\nname = \"m\"\n\
             [axes]\nbackend = [\"fpp\", \"agg:4\"]\ncodec = [\"identity\", \"quant:8\"]",
        )
        .unwrap()
        .compile()
        .unwrap();
        let labels: Vec<&str> = cells.iter().map(|c| c.config.name.as_str()).collect();
        assert_eq!(labels, ["m_fpp_identity", "m_agg4_quant8"]);
    }

    #[test]
    fn excludes_drop_matching_cells_by_canonical_names() {
        let cells = ExperimentSpec::new("t")
            .base(base("m"))
            .backends(&[BackendSpec::FilePerProcess, BackendSpec::Aggregated(4)])
            .codecs(&[CodecSpec::Identity, CodecSpec::LossyQuant(8)])
            .exclude(&[("backend", "agg:4"), ("codec", "quant:8")])
            .compile()
            .unwrap();
        assert_eq!(cells.len(), 3);
        assert!(!cells.iter().any(|c| c.config.name == "m_agg4_quant8"));
    }

    #[test]
    fn an_axis_declared_twice_is_refused() {
        // Regression: the second list used to overwrite the first on
        // every cell, under labels that named both.
        let err = ExperimentSpec::new("t")
            .base(base("b"))
            .backends(&[BackendSpec::FilePerProcess, BackendSpec::Aggregated(4)])
            .backends(&[BackendSpec::Aggregated(2), BackendSpec::Deferred(1)])
            .compile()
            .unwrap_err();
        assert_eq!(
            err,
            SpecError::Matrix(MatrixError::DuplicateAxis("backend".into()))
        );
        assert_eq!(err.to_string(), "axis 'backend' is declared twice");
    }

    #[test]
    fn an_exclude_that_spells_no_declared_value_is_refused() {
        // Regression: the label tag `agg4` where the canonical `agg:4`
        // was meant used to drop nothing and say nothing.
        let built = ExperimentSpec::new("t")
            .base(base("m"))
            .backends(&[BackendSpec::FilePerProcess, BackendSpec::Aggregated(4)])
            .exclude(&[("backend", "agg4")]);
        let parsed = ExperimentSpec::from_toml(
            "[axes]\nbackend = [\"fpp\", \"agg:4\"]\n[[exclude]]\nbackend = \"agg4\"",
        )
        .unwrap();
        for spec in [built, parsed] {
            let err = spec.compile().unwrap_err();
            assert_eq!(
                err,
                SpecError::Matrix(MatrixError::UnknownValue {
                    axis: "backend".into(),
                    value: "agg4".into(),
                    declared: vec!["fpp".into(), "agg:4".into()],
                })
            );
            assert!(err.to_string().contains("(declared: fpp, agg:4)"), "{err}");
        }
        // Values are matched as the axis canonicalizes them: `rle` is
        // declared as `rle:2`.
        let short = ExperimentSpec::from_toml(
            "[axes]\ncodec = [\"identity\", \"rle\"]\n[[exclude]]\ncodec = \"rle\"",
        )
        .unwrap();
        let text = short.compile().unwrap_err().to_string();
        assert!(text.contains("(declared: identity, rle:2)"), "{text}");
    }

    #[test]
    fn label_collisions_are_rejected_naming_both_cells() {
        // Two bases that differ in configuration but not in name: every
        // axis tag is appended to both, so their labels collide cell for
        // cell and the compile must refuse rather than let one cell's
        // results shadow the other's in the store.
        let mut oracle_twin = base("m");
        oracle_twin.engine = Engine::Oracle;
        let err = ExperimentSpec::new("t")
            .base(base("m"))
            .base(oracle_twin)
            .backends(&[BackendSpec::FilePerProcess])
            .codecs(&[CodecSpec::Identity])
            .compile()
            .unwrap_err();
        match &err {
            SpecError::Matrix(MatrixError::LabelCollision {
                label,
                first,
                second,
            }) => {
                assert_eq!(label, "m_fpp_identity");
                assert!(first.contains("base=m"), "{first}");
                assert!(second.contains("backend=fpp"), "{second}");
            }
            other => panic!("expected LabelCollision, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("m_fpp_identity"), "{msg}");
    }

    #[test]
    fn scaling_modes_interpret_the_scale_axis() {
        let mut b = base("s");
        b.nprocs = 4;
        b.n_cell = 64;
        // Strong: ranks vary, problem fixed.
        let strong = ExperimentSpec::new("t")
            .base(b.clone())
            .scales(&[4, 16])
            .scaling(ScalingMode::Strong)
            .compile()
            .unwrap();
        assert_eq!(strong[0].config.name, "s_p4");
        assert_eq!(strong[1].config.name, "s_p16");
        assert_eq!(strong[1].config.nprocs, 16);
        assert_eq!(strong[1].config.n_cell, 64);
        // Weak: cells per rank fixed — 4x ranks doubles n_cell (2-D),
        // snapped to the blocking factor.
        let weak = ExperimentSpec::new("t")
            .base(b.clone())
            .scales(&[4, 16])
            .scaling(ScalingMode::Weak)
            .compile()
            .unwrap();
        assert_eq!(weak[0].config.name, "s_p4w");
        assert_eq!(
            weak[0].config.n_cell, 64,
            "scale == base nprocs is identity"
        );
        assert_eq!(weak[1].config.n_cell, 128);
        assert_eq!(weak[1].config.nprocs, 16);
        assert_eq!(weak[1].config.n_cell % b.grid.blocking_factor, 0);
        // Throughput: tenancy varies, workload fixed.
        let tput = ExperimentSpec::new("t")
            .base(b)
            .scales(&[1, 4])
            .scaling(ScalingMode::Throughput)
            .compile()
            .unwrap();
        assert_eq!(tput[0].config.name, "s_x1");
        assert_eq!(tput[0].tenants, 1);
        assert_eq!(tput[1].config.name, "s_x4");
        assert_eq!(tput[1].tenants, 4);
        assert_eq!(tput[1].config.nprocs, 4, "workload untouched");
    }

    #[test]
    fn rung_and_storage_axes() {
        let cells = ExperimentSpec::from_toml(
            "[base]\nname = \"r\"\n[axes]\nrung = [64, 128]\n\
             storage = [\"ideal:8:2.5e8\", \"summit:0.5\"]",
        )
        .unwrap()
        .compile()
        .unwrap();
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0].config.name, "r_n64_ideal82p5e8");
        assert_eq!(cells[3].config.name, "r_n128_summit0p5");
        assert_eq!(cells[3].config.n_cell, 128);
        assert_eq!(
            cells[3].storage,
            Some(StorageProfile::Summit { scale: 0.5 })
        );
        let m = cells[3].storage.unwrap().build();
        assert!(m.nservers >= 1);
    }

    #[test]
    fn cell_keys_are_deterministic_and_content_sensitive() {
        let build = || {
            ExperimentSpec::new("t")
                .base(base("k"))
                .backends(&[BackendSpec::FilePerProcess, BackendSpec::Aggregated(4)])
                .compile()
                .unwrap()
        };
        let a = build();
        let b = build();
        assert_eq!(a[0].key, b[0].key, "same cell, same key, every compile");
        assert_ne!(a[0].key, a[1].key, "different cell, different key");
        // The storage half is part of the identity.
        let stored = ExperimentSpec::new("t")
            .base(base("k"))
            .backends(&[BackendSpec::FilePerProcess])
            .storages(&[StorageProfile::Ideal {
                servers: 8,
                bandwidth: 2.5e8,
            }])
            .compile()
            .unwrap();
        assert_ne!(stored[0].key, a[0].key);
    }

    #[test]
    fn keys_are_the_labelled_and_the_unlabelled_json_hashed_whole() {
        let hash = |text: &str| format!("{:016x}", Fnv1a::default().then(text.as_bytes()).0);
        let cfg = base("k");
        let json = serde_json::to_string(&cfg).unwrap();
        let solo = serde_json::to_string(&base("")).unwrap();
        assert_eq!(
            cell_keys(&cfg, None, 3),
            (hash(&format!("{json}||3")), hash(&format!("{solo}||1")))
        );
        // A config the printer refuses hashes as empty JSON.
        let refused = CastroSedovConfig {
            stop_time: f64::NAN,
            ..cfg
        };
        assert!(serde_json::to_string(&refused).is_err());
        assert_eq!(cell_keys(&refused, None, 3), (hash("||3"), hash("||1")));
    }

    #[test]
    fn throughput_rungs_share_one_solo_key() {
        // x2/x4/x8 over one base are identical runs modulo label and
        // tenancy, so they share a solo-profile key (the memo key) while
        // keeping distinct cell keys (the store identity).
        let cells = ExperimentSpec::new("t")
            .base(base("ladder"))
            .scales(&[2, 4, 8])
            .scaling(ScalingMode::Throughput)
            .compile()
            .unwrap();
        assert_eq!(cells.len(), 3);
        assert_eq!(cells[0].solo_key, cells[1].solo_key);
        assert_eq!(cells[1].solo_key, cells[2].solo_key);
        assert_ne!(cells[0].key, cells[1].key);
        assert_ne!(cells[1].key, cells[2].key);
        // A different base config gets a different solo profile.
        let other = ExperimentSpec::new("t")
            .base(base("ladder"))
            .backends(&[BackendSpec::Aggregated(4)])
            .scales(&[2])
            .scaling(ScalingMode::Throughput)
            .compile()
            .unwrap();
        assert_ne!(other[0].solo_key, cells[0].solo_key);
    }

    #[test]
    fn toml_round_trip_compiles_the_matrix() {
        let spec = ExperimentSpec::from_toml(
            r#"
            [experiment]
            name = "smoke"
            scaling = "strong"

            [base]
            name = "sedov"
            engine = "oracle"
            n_cell = 64
            max_step = 8
            plot_int = 2
            nprocs = 4
            account_only = true

            [axes]
            backend = ["fpp", "agg:4"]
            codec = ["identity", "quant:8"]
            mode = ["write", "restart"]

            [[exclude]]
            backend = "agg:4"
            codec = "quant:8"
            "#,
        )
        .unwrap();
        assert_eq!(spec.name, "smoke");
        let cells = spec.compile().unwrap();
        // 2 x 2 x 2 = 8, minus the excluded agg4+quant8 pair (2 modes).
        assert_eq!(cells.len(), 6);
        assert!(cells
            .iter()
            .any(|c| c.config.name == "sedov_fpp_quant8_restart"));
        assert!(!cells.iter().any(|c| c.config.name.contains("agg4_quant8")));
        assert!(cells.iter().all(|c| c.config.engine == Engine::Oracle));
        assert!(cells.iter().all(|c| c.config.account_only));
    }

    #[test]
    fn toml_zip_and_errors() {
        let spec = ExperimentSpec::from_toml(
            r#"
            [experiment]
            name = "z"
            zip = ["backend+codec"]
            [axes]
            backend = ["fpp", "agg:4"]
            codec = ["identity", "quant:8"]
            "#,
        )
        .unwrap();
        assert_eq!(spec.compile().unwrap().len(), 2);

        assert!(matches!(
            ExperimentSpec::from_toml("[axes]\nghost = [1]").unwrap_err(),
            SpecError::Matrix(MatrixError::UnknownAxis(_))
        ));
        // The retired `delivery` axis: spell the values on `backend`.
        assert!(matches!(
            ExperimentSpec::from_toml("[axes]\ndelivery = [\"stream\"]").unwrap_err(),
            SpecError::Matrix(MatrixError::UnknownAxis(axis)) if axis == "delivery"
        ));
        assert!(ExperimentSpec::from_toml("[base]\nnot_a_field = 3").is_err());
        let unequal = ExperimentSpec::from_toml(
            "[experiment]\nzip = [\"backend+codec\"]\n[axes]\nbackend = [\"fpp\"]\ncodec = [\"identity\", \"rle:2\"]",
        )
        .unwrap();
        assert!(matches!(
            unequal.compile().unwrap_err(),
            SpecError::Matrix(MatrixError::Zip(_))
        ));
        let ghost_zip = ExperimentSpec::from_toml(
            "[experiment]\nzip = [\"backend+ghost\"]\n[axes]\nbackend = [\"fpp\"]",
        )
        .unwrap();
        assert!(matches!(
            ghost_zip.compile().unwrap_err(),
            SpecError::Matrix(MatrixError::UnknownAxis(_))
        ));
    }

    #[test]
    fn storage_profile_parse_round_trips() {
        for spelling in ["ideal:8:2.5e8", "summit:0.5"] {
            let p = StorageProfile::parse(spelling).unwrap();
            assert_eq!(StorageProfile::parse(&p.name()).unwrap(), p);
        }
        assert!(StorageProfile::parse("summit:1.5").is_err());
        assert!(StorageProfile::parse("lustre:3").is_err());
    }

    #[test]
    fn ideal_bandwidth_must_be_positive() {
        // Regression: a zero or NaN bandwidth starves every request (the
        // run hung) and a negative one finished before it started.
        for (spelling, value) in [
            ("ideal:4:0", "0"),
            ("ideal:4:nan", "NaN"),
            ("ideal:4:-1", "-1"),
        ] {
            let err = StorageProfile::parse(spelling).unwrap_err();
            assert!(err.contains(&format!("got {value}")), "{spelling}: {err}");
        }
        assert!(matches!(
            ExperimentSpec::from_toml("[axes]\nstorage = [\"ideal:4:0\"]").unwrap_err(),
            SpecError::Parse(_)
        ));
        // An infinitely fast model stays a legal idealisation.
        let fast = StorageProfile::parse("ideal:1:inf").unwrap();
        assert_eq!(StorageProfile::parse(&fast.name()).unwrap(), fast);
    }
}
