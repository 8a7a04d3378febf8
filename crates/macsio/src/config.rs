//! MACSio run configuration: the command-line surface of Table II.

use io_engine::{BackendSpec, CodecSpec, ReadSelection, Scenario};
use serde::{Deserialize, Serialize};

/// Output interface (MACSio `--interface`).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Interface {
    /// The `miftmpl` template interface: JSON object header with the bulk
    /// variable data appended as raw little-endian doubles (size-faithful
    /// to the nominal request size; see docs/MODEL.md on the substitution for
    /// json-cwx).
    Miftmpl,
    /// Pure-text JSON: every value formatted as text. Inflates bytes per
    /// value; used by the format-expansion ablation.
    Json,
}

impl Interface {
    /// Parses the CLI spelling.
    pub(crate) fn parse(s: &str) -> Result<Self, String> {
        match s {
            "miftmpl" | "json_binary" => Ok(Self::Miftmpl),
            "json" | "json_text" => Ok(Self::Json),
            other => Err(format!(
                "unknown interface '{other}' (expected miftmpl or json)"
            )),
        }
    }

    /// CLI spelling.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Self::Miftmpl => "miftmpl",
            Self::Json => "json",
        }
    }
}

/// Parallel file mode (MACSio `--parallel_file_mode`).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FileMode {
    /// Multiple Independent Files over `n` file groups; ranks in a group
    /// take turns (baton passing) appending to the group's file. With
    /// `n == nprocs` this is the paper's N-to-N pattern.
    Mif(usize),
    /// Single shared file per dump.
    Sif,
}

impl FileMode {
    /// The "one file group per rank" MIF mode (the paper's N-to-N
    /// pattern): the group count clamps to `nprocs` at run time.
    pub(crate) fn n_to_n() -> Self {
        FileMode::Mif(usize::MAX)
    }

    /// A MIF mode with a *normalized* group count: zero (a count MACSio
    /// itself rejects) becomes one group rather than a runtime surprise.
    pub(crate) fn mif(n: usize) -> Self {
        FileMode::Mif(n.max(1))
    }

    /// Number of files per dump for a world of `nprocs` ranks.
    pub fn files_per_dump(&self, nprocs: usize) -> usize {
        match self {
            FileMode::Mif(n) => (*n).min(nprocs).max(1),
            FileMode::Sif => 1,
        }
    }
}

// Hand-written serde: the default mode is `Mif(usize::MAX)` ("as many
// groups as ranks"), and serializing the raw sentinel would bake a
// platform-dependent integer into configs. The sentinel round-trips as
// the symbolic string `"MifAll"` instead.
impl Serialize for FileMode {
    fn to_value(&self) -> serde::Value {
        match self {
            FileMode::Sif => serde::Value::String("Sif".to_string()),
            FileMode::Mif(n) if *n == usize::MAX => serde::Value::String("MifAll".to_string()),
            FileMode::Mif(n) => {
                serde::Value::Object(vec![("Mif".to_string(), serde::Serialize::to_value(n))])
            }
        }
    }
}

impl Deserialize for FileMode {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        if let Some(s) = v.as_str() {
            return match s {
                "Sif" => Ok(FileMode::Sif),
                "MifAll" => Ok(FileMode::n_to_n()),
                other => Err(serde::Error::custom(format!("unknown file mode '{other}'"))),
            };
        }
        if let Some(n) = v.get("Mif").and_then(serde::Value::as_u64) {
            return Ok(FileMode::mif(n as usize));
        }
        Err(serde::Error::custom("expected FileMode"))
    }
}

/// What a run does with its dumps (`--mode`): write them (the paper's
/// original proxy behaviour), write then restart-read the last dump, or
/// write then read every dump back (post-hoc analysis).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunMode {
    /// Write-only (default; the original proxy workload).
    #[default]
    Write,
    /// Write all dumps, then read the *last* dump back — the restart
    /// phase that dominates recovery time at scale.
    Restart,
    /// Write all dumps, then read *every* dump back (`wr`).
    WriteRead,
}

impl RunMode {
    /// Parses the CLI spelling: `write` | `restart` | `wr`.
    pub(crate) fn parse(s: &str) -> Result<Self, String> {
        match s {
            "write" | "w" => Ok(Self::Write),
            "restart" => Ok(Self::Restart),
            "wr" | "write_read" => Ok(Self::WriteRead),
            other => Err(format!(
                "unknown mode '{other}' (expected write, restart, or wr)"
            )),
        }
    }

    /// The canonical CLI spelling.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Self::Write => "write",
            Self::Restart => "restart",
            Self::WriteRead => "wr",
        }
    }
}

/// Full MACSio configuration (Table II plus the execution context).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MacsioConfig {
    /// Output interface (`--interface`).
    pub interface: Interface,
    /// File mode (`--parallel_file_mode MIF n | SIF`).
    pub parallel_file_mode: FileMode,
    /// Number of dumps to marshal (`--num_dumps`).
    pub num_dumps: u32,
    /// Nominal bytes of one variable on one mesh part (`--part_size`).
    pub part_size: u64,
    /// Average mesh parts per task (`--avg_num_parts`); fractional values
    /// give some ranks one extra part.
    pub avg_num_parts: f64,
    /// Variables per part (`--vars_per_part`).
    pub vars_per_part: usize,
    /// Simulated compute seconds between dumps (`--compute_time`).
    pub compute_time: f64,
    /// Additional metadata bytes per task per dump (`--meta_size`).
    pub meta_size: u64,
    /// Per-dump growth multiplier on the part size (`--dataset_growth`).
    pub dataset_growth: f64,
    /// MPI world size (`jsrun -n nprocs`).
    pub nprocs: usize,
    /// RNG seed for synthetic field data.
    pub seed: u64,
    /// I/O backend the dumps write through (`--io_backend`).
    pub io_backend: BackendSpec,
    /// In-situ compression codec applied to data puts (`--compression`).
    pub compression: CodecSpec,
    /// Write-only, restart, or write+read-back behaviour (`--mode`).
    pub mode: RunMode,
    /// What the read phase fetches (`--read_pattern`): the whole dump
    /// (default), one level (always 0 for MACSio's flat meshes), one
    /// field (path substring), or a `(level, task)` key box. Applies to
    /// the reads of `--mode restart|wr` and of a scenario's trailing
    /// `restart`/`readall` ops.
    pub read_pattern: ReadSelection,
    /// The run's workload program (`--scenario`): how dumps, mid-run
    /// failures/restarts, and analysis reads interleave. `None` compiles
    /// [`MacsioConfig::mode`] into its equivalent scenario (`write`,
    /// `write;restart`, `write;readall`), so `--mode` keeps working
    /// bit-identically. MACSio's flat dump stream has no checkpoint or
    /// reorganization plane, so `check@` ops and `,reorg` analysis
    /// suffixes are rejected at run time.
    pub scenario: Option<Scenario>,
}

impl Default for MacsioConfig {
    fn default() -> Self {
        Self {
            interface: Interface::Miftmpl,
            parallel_file_mode: FileMode::n_to_n(),
            num_dumps: 10,
            part_size: 80_000,
            avg_num_parts: 1.0,
            vars_per_part: 1,
            compute_time: 0.0,
            meta_size: 0,
            dataset_growth: 1.0,
            nprocs: 1,
            seed: 0x4D_41_43, // "MAC"
            io_backend: BackendSpec::default(),
            compression: CodecSpec::default(),
            mode: RunMode::default(),
            read_pattern: ReadSelection::default(),
            scenario: None,
        }
    }
}

impl MacsioConfig {
    /// Validates parameter ranges.
    ///
    /// # Panics
    /// Panics naming the first field that is zero, non-finite or out of range.
    pub fn validate(&self) {
        self.check().unwrap_or_else(|e| panic!("{e}"));
    }

    /// The fallible [`Self::validate`], with that message as the error.
    pub(crate) fn check(&self) -> Result<(), String> {
        let positive = |x: f64| x > 0.0 && x < f64::INFINITY;
        // One rank's largest dump, doubled for headers and topology rounding.
        let rank_bytes = 2.0
            * (self.part_size as f64 * self.dataset_growth.powi(self.num_dumps as i32).max(1.0))
            * (self.avg_num_parts.ceil() * self.vars_per_part as f64);
        let refused = if self.nprocs == 0 {
            "nprocs must be positive"
        } else if self.part_size == 0 {
            "part_size must be positive"
        } else if !positive(self.avg_num_parts) {
            "avg_num_parts must be positive and finite"
        } else if self.vars_per_part == 0 {
            "vars_per_part must be positive"
        } else if !positive(self.dataset_growth) {
            "dataset_growth must be positive and finite"
        } else if !(0.0..f64::INFINITY).contains(&self.compute_time) {
            "compute_time must be non-negative and finite"
        } else if rank_bytes > isize::MAX as f64 {
            "part_size x dataset_growth^num_dumps cannot be allocated"
        } else {
            return Ok(());
        };
        Err(format!("MacsioConfig: {refused}"))
    }

    /// Global ids of `rank`'s parts: the [`Self::parts_of_rank`] rule,
    /// numbered in rank order.
    pub(crate) fn part_ids(&self, rank: usize) -> std::ops::Range<usize> {
        let base = self.avg_num_parts.floor() as usize;
        let extra_ranks =
            ((self.avg_num_parts - base as f64) * self.nprocs as f64).round() as usize;
        let first = rank * base + rank.min(extra_ranks);
        first..first + base + usize::from(rank < extra_ranks)
    }

    /// Parts assigned to `rank`: `floor(avg)` everywhere plus one extra on
    /// the first `round((avg - floor(avg)) * nprocs)` ranks.
    pub fn parts_of_rank(&self, rank: usize) -> usize {
        self.part_ids(rank).len()
    }

    /// Nominal bytes of one variable at dump `k` (0-based) after growth.
    pub fn grown_part_size(&self, dump: u32) -> u64 {
        (self.part_size as f64 * self.dataset_growth.powi(dump as i32)).round() as u64
    }

    /// The equivalent `macsio` command line (for reports and job scripts).
    /// The backend selector is appended only when it differs from the
    /// default N-to-N path, keeping the paper's Listing 1 shape intact.
    pub fn command_line(&self) -> String {
        let mode = match self.parallel_file_mode {
            FileMode::Mif(n) => format!("MIF {}", n.min(self.nprocs)),
            FileMode::Sif => "SIF".to_string(),
        };
        let mut line = format!(
            "jsrun -n {} macsio --interface {} --parallel_file_mode {} --num_dumps {} \
             --part_size {} --avg_num_parts {} --vars_per_part {} --compute_time {} \
             --meta_size {} --dataset_growth {}",
            self.nprocs,
            self.interface.name(),
            mode,
            self.num_dumps,
            self.part_size,
            self.avg_num_parts,
            self.vars_per_part,
            self.compute_time,
            self.meta_size,
            self.dataset_growth
        );
        if self.io_backend != BackendSpec::default() {
            line.push_str(&format!(" --io_backend {}", self.io_backend.name()));
        }
        if self.compression != CodecSpec::default() {
            line.push_str(&format!(" --compression {}", self.compression.name()));
        }
        if self.mode != RunMode::default() {
            line.push_str(&format!(" --mode {}", self.mode.name()));
        }
        if self.read_pattern != ReadSelection::default() {
            line.push_str(&format!(" --read_pattern {}", self.read_pattern.name()));
        }
        if let Some(scenario) = &self.scenario {
            line.push_str(&format!(" --scenario {}", scenario.name()));
        }
        line
    }

    /// The scenario this run executes: [`MacsioConfig::scenario`] when
    /// set, otherwise [`MacsioConfig::mode`] compiled into its
    /// equivalent program (`write`, `write;restart`, `write;readall`).
    pub fn effective_scenario(&self) -> Scenario {
        if let Some(s) = &self.scenario {
            return s.clone();
        }
        match self.mode {
            RunMode::Write => Scenario::write_only(),
            RunMode::Restart => Scenario::write_restart(),
            RunMode::WriteRead => Scenario {
                ops: vec![io_engine::ScenarioOp::Write, io_engine::ScenarioOp::ReadAll],
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interface_parsing() {
        assert_eq!(Interface::parse("miftmpl").unwrap(), Interface::Miftmpl);
        assert_eq!(Interface::parse("json").unwrap(), Interface::Json);
        assert!(Interface::parse("silo").is_err());
    }

    #[test]
    fn file_mode_counts() {
        assert_eq!(FileMode::Mif(4).files_per_dump(16), 4);
        assert_eq!(FileMode::Mif(100).files_per_dump(16), 16);
        assert_eq!(FileMode::Sif.files_per_dump(16), 1);
    }

    #[test]
    fn fractional_parts_distribution() {
        let cfg = MacsioConfig {
            avg_num_parts: 2.5,
            nprocs: 4,
            ..Default::default()
        };
        // 2.5 * 4 = 10 parts: ranks 0,1 get 3; ranks 2,3 get 2.
        assert_eq!(cfg.parts_of_rank(0), 3);
        assert_eq!(cfg.parts_of_rank(1), 3);
        assert_eq!(cfg.parts_of_rank(2), 2);
        assert_eq!(cfg.parts_of_rank(3), 2);
        assert_eq!((0..4).map(|r| cfg.parts_of_rank(r)).sum::<usize>(), 10);
    }

    #[test]
    fn part_ids_are_the_prefix_sums_of_parts_of_rank() {
        for (avg_num_parts, nprocs) in [(1.0, 8), (2.5, 4), (1.5, 5), (0.4, 5), (3.0, 1), (1.99, 7)]
        {
            let cfg = MacsioConfig {
                avg_num_parts,
                nprocs,
                ..Default::default()
            };
            let mut next = 0;
            for rank in 0..nprocs {
                let ids = cfg.part_ids(rank);
                assert_eq!(ids.start, next, "avg {avg_num_parts} rank {rank}");
                assert_eq!(ids.len(), cfg.parts_of_rank(rank));
                next = ids.end;
            }
            assert_eq!(
                next,
                (0..nprocs).map(|r| cfg.parts_of_rank(r)).sum::<usize>()
            );
        }
    }

    #[test]
    fn check_accepts_the_edges_validate_accepts() {
        let cfg = MacsioConfig {
            compute_time: 0.0,
            num_dumps: 0,
            avg_num_parts: 0.25,
            dataset_growth: 0.5,
            ..Default::default()
        };
        assert_eq!(cfg.check(), Ok(()));
        cfg.validate();
        // A shrinking series is sized by its first dump, not its last.
        let big = MacsioConfig {
            part_size: 1 << 40,
            num_dumps: 400,
            dataset_growth: 0.9,
            ..Default::default()
        };
        assert_eq!(big.check(), Ok(()));
        let err = MacsioConfig {
            part_size: u64::MAX,
            ..Default::default()
        }
        .check()
        .unwrap_err();
        assert!(err.contains("cannot be allocated"), "{err}");
    }

    #[test]
    fn whole_parts_distribution() {
        let cfg = MacsioConfig {
            avg_num_parts: 1.0,
            nprocs: 8,
            ..Default::default()
        };
        assert!((0..8).all(|r| cfg.parts_of_rank(r) == 1));
    }

    #[test]
    fn growth_compounds() {
        let cfg = MacsioConfig {
            part_size: 1000,
            dataset_growth: 1.1,
            ..Default::default()
        };
        assert_eq!(cfg.grown_part_size(0), 1000);
        assert_eq!(cfg.grown_part_size(1), 1100);
        assert_eq!(cfg.grown_part_size(2), 1210);
    }

    #[test]
    fn command_line_round_trips_the_paper_listing() {
        let cfg = MacsioConfig {
            nprocs: 32,
            part_size: 1_550_000,
            num_dumps: 10,
            dataset_growth: 1.013075,
            ..Default::default()
        };
        let cl = cfg.command_line();
        assert!(cl.contains("jsrun -n 32"));
        assert!(cl.contains("--parallel_file_mode MIF 32"));
        assert!(cl.contains("--part_size 1550000"));
        assert!(cl.contains("--dataset_growth 1.013075"));
    }

    #[test]
    fn file_mode_serde_round_trip_is_portable() {
        use serde::{Deserialize as _, Serialize as _};
        // The default N-to-N sentinel must not serialize a raw usize::MAX.
        let default_mode = MacsioConfig::default().parallel_file_mode;
        let v = default_mode.to_value();
        assert_eq!(v.as_str(), Some("MifAll"), "symbolic, platform-portable");
        assert_eq!(FileMode::from_value(&v).unwrap(), default_mode);
        // Finite group counts and SIF round-trip exactly.
        for mode in [FileMode::Mif(7), FileMode::Sif] {
            assert_eq!(FileMode::from_value(&mode.to_value()).unwrap(), mode);
        }
    }

    #[test]
    fn default_config_serde_round_trip() {
        use serde::{Deserialize as _, Serialize as _};
        let cfg = MacsioConfig::default();
        let back = MacsioConfig::from_value(&cfg.to_value()).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn mif_zero_normalizes_to_one() {
        assert_eq!(FileMode::mif(0), FileMode::Mif(1));
        assert_eq!(FileMode::mif(5), FileMode::Mif(5));
        // Deserializing a zero count also normalizes.
        use serde::Deserialize as _;
        let v = serde::Value::Object(vec![(
            "Mif".to_string(),
            serde::Value::Number(serde::Number::PosInt(0)),
        )]);
        assert_eq!(FileMode::from_value(&v).unwrap(), FileMode::Mif(1));
    }

    #[test]
    fn command_line_names_non_default_backend() {
        let mut cfg = MacsioConfig::default();
        assert!(!cfg.command_line().contains("--io_backend"));
        cfg.io_backend = BackendSpec::Aggregated(8);
        assert!(cfg.command_line().contains("--io_backend agg:8"));
    }

    #[test]
    fn command_line_names_non_default_codec() {
        let mut cfg = MacsioConfig::default();
        assert!(!cfg.command_line().contains("--compression"));
        cfg.compression = CodecSpec::LossyQuant(8);
        assert!(cfg.command_line().contains("--compression quant:8"));
    }

    #[test]
    fn run_mode_spellings_round_trip() {
        assert_eq!(RunMode::parse("write").unwrap(), RunMode::Write);
        assert_eq!(RunMode::parse("restart").unwrap(), RunMode::Restart);
        assert_eq!(RunMode::parse("wr").unwrap(), RunMode::WriteRead);
        assert!(RunMode::parse("read").is_err());
        for m in [RunMode::Write, RunMode::Restart, RunMode::WriteRead] {
            assert_eq!(RunMode::parse(m.name()).unwrap(), m);
        }
    }

    #[test]
    fn command_line_names_non_default_mode() {
        let mut cfg = MacsioConfig::default();
        assert!(!cfg.command_line().contains("--mode"));
        cfg.mode = RunMode::Restart;
        assert!(cfg.command_line().contains("--mode restart"));
    }

    #[test]
    fn command_line_names_non_default_read_pattern() {
        let mut cfg = MacsioConfig::default();
        assert!(!cfg.command_line().contains("--read_pattern"));
        cfg.mode = RunMode::Restart;
        cfg.read_pattern = ReadSelection::Field("macsio_json_00000".into());
        assert!(cfg
            .command_line()
            .contains("--read_pattern field:macsio_json_00000"));
    }

    #[test]
    fn modes_compile_to_scenarios_and_explicit_wins() {
        let mut cfg = MacsioConfig::default();
        assert_eq!(cfg.effective_scenario().name(), "write");
        cfg.mode = RunMode::Restart;
        assert_eq!(cfg.effective_scenario().name(), "write;restart");
        cfg.mode = RunMode::WriteRead;
        assert_eq!(cfg.effective_scenario().name(), "write;readall");
        cfg.scenario = Some(Scenario::fail_restart(2));
        assert_eq!(cfg.effective_scenario().name(), "write;fail@2;restart");
    }

    #[test]
    fn command_line_names_non_default_scenario() {
        let mut cfg = MacsioConfig::default();
        assert!(!cfg.command_line().contains("--scenario"));
        cfg.scenario = Some(Scenario::fail_restart(3));
        assert!(cfg
            .command_line()
            .contains("--scenario write;fail@3;restart"));
    }

    #[test]
    fn config_with_scenario_round_trips_serde() {
        use serde::{Deserialize as _, Serialize as _};
        let cfg = MacsioConfig {
            scenario: Some(Scenario::parse("write;analyze_every:2:field:root").unwrap()),
            ..Default::default()
        };
        let back = MacsioConfig::from_value(&cfg.to_value()).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    #[should_panic(expected = "part_size")]
    fn zero_part_size_rejected() {
        MacsioConfig {
            part_size: 0,
            ..Default::default()
        }
        .validate();
    }
}
