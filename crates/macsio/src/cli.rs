//! MACSio-compatible command-line parsing.
//!
//! Accepts the flag spellings of Table II (`--interface`,
//! `--parallel_file_mode MIF n | SIF`, `--num_dumps`, `--part_size`,
//! `--avg_num_parts`, `--vars_per_part`, `--compute_time`, `--meta_size`,
//! `--dataset_growth`) plus `--nprocs` standing in for `jsrun -n`.
//! [`parse_spec`] crosses the same flags into a campaign matrix: every
//! flag [`parse_args`] accepts is an axis, so a new axis is a new flag.

use crate::config::{FileMode, Interface, MacsioConfig, RunMode};
use io_engine::grammar::{disambiguate_tags, Matrix, TomlDoc};
use io_engine::{BackendSpec, CodecSpec, ReadSelection, Scenario};

/// One-screen flag reference (printed by the `macsio` binary on bad
/// usage). Table II flags plus the workspace extensions, each with its
/// default (audited by a test against the parser: every flag
/// `parse_args` accepts appears here).
pub fn usage() -> &'static str {
    "usage: macsio [flags]\n\
     \n\
     Table II flags:\n\
       --interface miftmpl|json        output interface (default: miftmpl)\n\
       --parallel_file_mode MIF n|SIF  file grouping; MIF 0 is clamped to 1\n\
                                       (default: MIF nprocs, the N-to-N pattern)\n\
       --num_dumps N                   dumps to marshal (default: 10)\n\
       --part_size BYTES[K|M|G]        nominal bytes per part variable\n\
                                       (default: 80000)\n\
       --avg_num_parts X               mesh parts per task, fractional ok\n\
                                       (default: 1)\n\
       --vars_per_part N               variables per part (default: 1)\n\
       --compute_time SECONDS          simulated compute between dumps\n\
                                       (default: 0)\n\
       --meta_size BYTES[K|M|G]        extra metadata per task per dump\n\
                                       (default: 0)\n\
       --dataset_growth X              per-dump part-size multiplier\n\
                                       (default: 1)\n\
     \n\
     workspace extensions:\n\
       --nprocs N | -n N               simulated MPI world size (default: 1)\n\
       --seed N                        synthetic-field RNG seed\n\
                                       (default: 5062979 = 0x4D4143 \"MAC\")\n\
       --io_backend SPEC               write path: fpp (N-to-N, default),\n\
                                       agg:<ratio> (BP-style two-level\n\
                                       aggregation), deferred[:<w>] (burst\n\
                                       buffer; <w> only names the run),\n\
                                       streaming[:<link>[:<win>[:<cons>]]]\n\
                                       (in-transit: dumps ship over a\n\
                                       modeled link, no files written)\n\
       --compression SPEC              in-situ codec for data puts:\n\
                                       identity (default), rle[:<ratio>]\n\
                                       (lossless run-length), quant[:<bits>]\n\
                                       (block-wise lossy quantization)\n\
       --mode write|restart|wr         write-only (default), write then\n\
                                       restart-read the last dump, or write\n\
                                       then read every dump back\n\
       --read_pattern SPEC             what restart/wr reads fetch: full\n\
                                       (default), level:<l>, field:<path\n\
                                       substring>, box:<l0>-<l1>,<t0>-<t1>\n\
                                       (inclusive level,task key ranges)\n\
       --scenario PROGRAM              workload program overriding --mode:\n\
                                       ';'-joined ops among write, fail@K,\n\
                                       restart, readall, analyze:SEL, and\n\
                                       analyze_every:M:SEL (default: --mode\n\
                                       compiled, e.g. wr -> write;readall)\n\
     \n\
     binary flags (macsio executable only):\n\
       --output_dir DIR                write real files under DIR\n\
                                       (default: in-memory filesystem)\n\
       --summit_scale X                attach the Summit/Alpine storage\n\
                                       timing model at scale X in (0,1]\n\
                                       (default: no timing model)\n\
       --spec FILE                     run a declarative campaign: a TOML\n\
                                       file with [base] flag values and\n\
                                       [axes] arrays crossed into one run\n\
                                       per cell (zips/excludes supported);\n\
                                       prints one report line per cell\n"
}

/// Parses a MACSio command line into a configuration.
///
/// Sizes accept `K`/`M`/`G` suffixes (powers of 1000, as MACSio does).
pub fn parse_args<I, S>(args: I) -> Result<MacsioConfig, String>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let args: Vec<String> = args.into_iter().map(|s| s.as_ref().to_string()).collect();
    let mut cfg = MacsioConfig::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let next = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("missing value for {flag}"))
        };
        match flag {
            "--interface" => cfg.interface = Interface::parse(&next(&mut i)?)?,
            "--parallel_file_mode" => {
                let mode = next(&mut i)?;
                cfg.parallel_file_mode = match mode.as_str() {
                    "SIF" | "sif" => FileMode::Sif,
                    "MIF" | "mif" => {
                        let n = next(&mut i)?;
                        FileMode::mif(n.parse().map_err(|_| format!("bad MIF file count '{n}'"))?)
                    }
                    other => return Err(format!("unknown file mode '{other}'")),
                };
            }
            "--num_dumps" => {
                cfg.num_dumps = parse_num(&next(&mut i)?)? as u32;
            }
            "--part_size" => {
                cfg.part_size = parse_size(&next(&mut i)?)?;
            }
            "--avg_num_parts" => {
                let v = next(&mut i)?;
                cfg.avg_num_parts = v.parse().map_err(|_| format!("bad avg_num_parts '{v}'"))?;
            }
            "--vars_per_part" => {
                cfg.vars_per_part = parse_num(&next(&mut i)?)? as usize;
            }
            "--compute_time" => {
                let v = next(&mut i)?;
                cfg.compute_time = v.parse().map_err(|_| format!("bad compute_time '{v}'"))?;
            }
            "--meta_size" => {
                cfg.meta_size = parse_size(&next(&mut i)?)?;
            }
            "--dataset_growth" => {
                let v = next(&mut i)?;
                cfg.dataset_growth = v.parse().map_err(|_| format!("bad dataset_growth '{v}'"))?;
            }
            "--io_backend" => {
                cfg.io_backend = BackendSpec::parse(&next(&mut i)?)?;
            }
            "--compression" => {
                cfg.compression = CodecSpec::parse(&next(&mut i)?)?;
            }
            "--mode" => {
                cfg.mode = RunMode::parse(&next(&mut i)?)?;
            }
            "--read_pattern" => {
                cfg.read_pattern = ReadSelection::parse(&next(&mut i)?)?;
            }
            "--scenario" => {
                cfg.scenario = Some(Scenario::parse(&next(&mut i)?)?);
            }
            "--nprocs" | "-n" => {
                cfg.nprocs = parse_num(&next(&mut i)?)? as usize;
            }
            "--seed" => {
                cfg.seed = parse_num(&next(&mut i)?)?;
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
        i += 1;
    }
    cfg.check()?;
    Ok(cfg)
}

/// Parses a declarative MACSio campaign spec (the `--spec FILE` grammar)
/// into one labelled configuration per matrix cell.
///
/// The matrix — `[experiment] name` / `zip = ["a+b"]`, `[axes]` arrays
/// crossed in declaration order (last fastest), `[[exclude]]` tables,
/// labels and their collisions — is [`Matrix`], shared with
/// `amrproxy::spec`. This client adds the flag spellings: `[base]` keys
/// and axis keys are flag names without the `--` prefix (values with
/// spaces, like `parallel_file_mode = "MIF 8"`, split into flag
/// arguments) and every cell is parsed by [`parse_args`], so spec files
/// and command lines accept exactly the same spellings and validation.
///
/// Labels are `<experiment name>_<axis tags>` with the axis value
/// flattened name-safe (`agg:4` -> `agg4`, `rle:2.5` -> `rle2_5`),
/// lossy flattenings index-disambiguated.
pub fn parse_spec(text: &str) -> Result<Vec<(String, MacsioConfig)>, String> {
    let doc = TomlDoc::parse(text)?;
    let unknown = |key: &str, _: &_| Err(format!("unknown [experiment] key '{key}'"));
    let mut matrix = Matrix::from_doc(&doc, "macsio", unknown)?;
    // Base flags: every key becomes `--key value...` (space-separated
    // values split into separate arguments, so "MIF 8" works).
    let mut base_args: Vec<String> = Vec::new();
    for (key, value) in doc.section("base").iter().flat_map(|s| &s.entries) {
        base_args.push(format!("--{key}"));
        base_args.extend(value.render().split_whitespace().map(String::from));
    }
    // An axis is a flag name and its value spellings; the tags flatten
    // the spellings name-safe, lossy flattenings index-disambiguated.
    for (_, values, tags) in &mut matrix.axes {
        let flatten = |v: &String| {
            v.replace('-', "to")
                .replace([':', ' '], "")
                .replace([',', '/', '.', ';', '@'], "_")
        };
        *tags = values.iter().map(flatten).collect();
        disambiguate_tags(tags, 'v');
    }
    let mut cells = Vec::new();
    for cell in matrix.cells().map_err(|e| e.to_string())? {
        let mut args = base_args.clone();
        for ((key, values, _), &i) in matrix.axes.iter().zip(&cell.index) {
            args.push(format!("--{key}"));
            args.extend(values[i].split_whitespace().map(String::from));
        }
        let label = match cell.label.as_str() {
            "" => matrix.name.clone(),
            tags => format!("{}_{tags}", matrix.name),
        };
        let cfg = parse_args(&args).map_err(|e| format!("cell '{label}': {e}"))?;
        cells.push((label, cfg));
    }
    Ok(cells)
}

fn parse_num(s: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("bad number '{s}'"))
}

fn parse_size(s: &str) -> Result<u64, String> {
    let (digits, mult) = match s.chars().last() {
        Some('K' | 'k') => (&s[..s.len() - 1], 1_000u64),
        Some('M' | 'm') => (&s[..s.len() - 1], 1_000_000),
        Some('G' | 'g') => (&s[..s.len() - 1], 1_000_000_000),
        _ => (s, 1),
    };
    let base: f64 = digits.parse().map_err(|_| format!("bad size '{s}'"))?;
    Ok((base * mult as f64).round() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_paper_listing_shape() {
        let cfg = parse_args([
            "--nprocs",
            "32",
            "--interface",
            "miftmpl",
            "--parallel_file_mode",
            "MIF",
            "32",
            "--num_dumps",
            "10",
            "--part_size",
            "1550000",
            "--avg_num_parts",
            "1",
            "--vars_per_part",
            "1",
            "--compute_time",
            "0.5",
            "--meta_size",
            "1K",
            "--dataset_growth",
            "1.013075",
        ])
        .unwrap();
        assert_eq!(cfg.nprocs, 32);
        assert_eq!(cfg.interface, Interface::Miftmpl);
        assert_eq!(cfg.parallel_file_mode, FileMode::Mif(32));
        assert_eq!(cfg.num_dumps, 10);
        assert_eq!(cfg.part_size, 1_550_000);
        assert_eq!(cfg.meta_size, 1000);
        assert!((cfg.dataset_growth - 1.013075).abs() < 1e-12);
    }

    #[test]
    fn size_suffixes() {
        assert_eq!(parse_size("10K").unwrap(), 10_000);
        assert_eq!(parse_size("2.5M").unwrap(), 2_500_000);
        assert_eq!(parse_size("1G").unwrap(), 1_000_000_000);
        assert_eq!(parse_size("123").unwrap(), 123);
        assert!(parse_size("abc").is_err());
    }

    #[test]
    fn sif_mode() {
        let cfg = parse_args(["--parallel_file_mode", "SIF"]).unwrap();
        assert_eq!(cfg.parallel_file_mode, FileMode::Sif);
    }

    #[test]
    fn mif_zero_normalizes_at_parse_time() {
        let cfg = parse_args(["--parallel_file_mode", "MIF", "0"]).unwrap();
        assert_eq!(cfg.parallel_file_mode, FileMode::Mif(1));
    }

    #[test]
    fn io_backend_flag_parses() {
        let cfg = parse_args(["--io_backend", "agg:16"]).unwrap();
        assert_eq!(cfg.io_backend, BackendSpec::Aggregated(16));
        let cfg = parse_args(["--io_backend", "deferred"]).unwrap();
        assert_eq!(cfg.io_backend, BackendSpec::Deferred(1));
        let cfg = parse_args(["--io_backend", "streaming:100:64:50"]).unwrap();
        assert!(cfg.io_backend.in_transit());
        assert_eq!(cfg.io_backend.name(), "streaming:100:64:50");
        assert!(parse_args(["--io_backend", "hdf5"]).is_err());
    }

    #[test]
    fn usage_names_the_backend_selector() {
        assert!(usage().contains("--io_backend"));
        assert!(usage().contains("agg:<ratio>"));
        assert!(usage().contains("deferred"));
        assert!(usage().contains("streaming"));
        assert!(usage().contains("in-transit"));
    }

    #[test]
    fn compression_flag_parses() {
        let cfg = parse_args(["--compression", "quant:4"]).unwrap();
        assert_eq!(cfg.compression, CodecSpec::LossyQuant(4));
        let cfg = parse_args(["--compression", "rle"]).unwrap();
        assert_eq!(cfg.compression, CodecSpec::Rle(2.0));
        assert!(parse_args(["--compression", "zstd"]).is_err());
        assert!(usage().contains("--compression"));
    }

    #[test]
    fn mode_flag_parses() {
        let cfg = parse_args(["--mode", "restart"]).unwrap();
        assert_eq!(cfg.mode, RunMode::Restart);
        let cfg = parse_args(["--mode", "wr"]).unwrap();
        assert_eq!(cfg.mode, RunMode::WriteRead);
        assert!(parse_args(["--mode", "append"]).is_err());
        assert!(usage().contains("--mode"));
    }

    #[test]
    fn read_pattern_flag_parses() {
        let cfg = parse_args(["--mode", "restart", "--read_pattern", "field:root"]).unwrap();
        assert_eq!(cfg.read_pattern, ReadSelection::Field("root".into()));
        let cfg = parse_args(["--read_pattern", "box:0,1-3"]).unwrap();
        assert_eq!(cfg.read_pattern, ReadSelection::parse("box:0,1-3").unwrap());
        assert!(parse_args(["--read_pattern", "stripe:1"]).is_err());
    }

    #[test]
    fn usage_documents_every_parser_flag_with_defaults() {
        // The audit the help text promises: every flag the parser
        // accepts (and the binary-local flags) appears in usage(), and
        // every defaulted knob names its default.
        let u = usage();
        for flag in [
            "--interface",
            "--parallel_file_mode",
            "--num_dumps",
            "--part_size",
            "--avg_num_parts",
            "--vars_per_part",
            "--compute_time",
            "--meta_size",
            "--dataset_growth",
            "--nprocs",
            "-n N",
            "--seed",
            "--io_backend",
            "--compression",
            "--mode",
            "--read_pattern",
            "--scenario",
            "--output_dir",
            "--summit_scale",
        ] {
            assert!(u.contains(flag), "usage() is missing {flag}");
        }
        let cfg = MacsioConfig::default();
        for default in [
            "default: miftmpl".to_string(),
            "default: MIF nprocs".to_string(),
            format!("default: {}", cfg.num_dumps),
            format!("default: {}", cfg.part_size),
            format!("default: {}", cfg.vars_per_part),
            format!("default: {}", cfg.nprocs),
            format!("default: {} = 0x4D4143", cfg.seed),
            "full\n".to_string(),
        ] {
            assert!(u.contains(&default), "usage() is missing '{default}'");
        }
        assert!(u.contains("fpp (N-to-N, default)"));
        assert!(u.contains("identity (default)"));
        assert!(u.contains("write-only (default)"));
    }

    #[test]
    fn scenario_flag_parses() {
        let cfg = parse_args(["--scenario", "write;fail@3;restart"]).unwrap();
        assert_eq!(cfg.scenario, Some(Scenario::fail_restart(3)));
        let cfg = parse_args(["--scenario", "write;analyze_every:2:field:root"]).unwrap();
        assert_eq!(
            cfg.scenario.unwrap().name(),
            "write;analyze_every:2:field:root"
        );
        // Malformed programs are rejected at parse time.
        assert!(parse_args(["--scenario", "write;fail@3"]).is_err());
        assert!(parse_args(["--scenario", "explode"]).is_err());
    }

    #[test]
    fn unknown_flag_is_rejected() {
        assert!(parse_args(["--bogus", "1"]).is_err());
    }

    #[test]
    fn spec_compiles_the_flag_matrix() {
        let cells = parse_spec(
            r#"
            [experiment]
            name = "tbl2"

            [base]
            nprocs = 8
            num_dumps = 4
            part_size = "80K"
            parallel_file_mode = "MIF 8"

            [axes]
            io_backend = ["fpp", "agg:4"]
            compression = ["identity", "rle:2.5"]
            mode = ["write", "restart"]

            [[exclude]]
            io_backend = "agg:4"
            compression = "rle:2.5"
            "#,
        )
        .unwrap();
        // 2 x 2 x 2 minus the excluded agg:4+rle:2.5 pair (both modes).
        assert_eq!(cells.len(), 6);
        let labels: Vec<&str> = cells.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels[0], "tbl2_fpp_identity_write");
        assert!(labels.contains(&"tbl2_agg4_identity_restart"));
        assert!(labels.contains(&"tbl2_fpp_rle2_5_write"));
        assert!(!labels.iter().any(|l| l.contains("agg4_rle2_5")));
        for (label, cfg) in &cells {
            assert_eq!(cfg.nprocs, 8, "{label}: base flags apply to every cell");
            assert_eq!(cfg.part_size, 80_000);
            assert_eq!(cfg.parallel_file_mode, FileMode::Mif(8));
        }
        let (_, agg) = cells
            .iter()
            .find(|(l, _)| l == "tbl2_agg4_identity_write")
            .unwrap();
        assert_eq!(agg.io_backend, BackendSpec::Aggregated(4));
        let (_, restart) = cells
            .iter()
            .find(|(l, _)| l == "tbl2_fpp_identity_restart")
            .unwrap();
        assert_eq!(restart.mode, RunMode::Restart);
    }

    #[test]
    fn spec_zip_advances_in_lockstep() {
        let cells = parse_spec(
            r#"
            [experiment]
            name = "z"
            zip = ["io_backend+compression"]
            [axes]
            io_backend = ["fpp", "agg:4"]
            compression = ["identity", "quant:8"]
            "#,
        )
        .unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].0, "z_fpp_identity");
        assert_eq!(cells[1].0, "z_agg4_quant8");
    }

    #[test]
    fn spec_errors_are_clear() {
        // A bad flag value fails with the cell's label in the message.
        let err = parse_spec("[axes]\nio_backend = [\"hdf5\"]").unwrap_err();
        assert!(err.contains("hdf5"), "{err}");
        // Unknown axis names in zips and excludes are rejected.
        let err = parse_spec(
            "[experiment]\nzip = [\"io_backend+ghost\"]\n[axes]\nio_backend = [\"fpp\"]",
        )
        .unwrap_err();
        assert!(err.contains("ghost"), "{err}");
        let err =
            parse_spec("[axes]\nio_backend = [\"fpp\"]\n[[exclude]]\nghost = \"x\"").unwrap_err();
        assert!(err.contains("ghost"), "{err}");
        // Identical axis values collide only after disambiguation fails
        // at the label level — the duplicate-tag rename keeps these
        // distinct, so this parses with unique labels.
        let cells = parse_spec("[axes]\ncompression = [\"rle:2.5\", \"rle:25\"]").unwrap();
        assert_eq!(cells.len(), 2);
        assert_ne!(cells[0].0, cells[1].0);
    }

    #[test]
    fn spec_exclude_that_spells_no_declared_value_is_refused() {
        // Regression: the label tag `agg4` where the flag value `agg:4`
        // was meant used to drop nothing and say nothing.
        let err = parse_spec(
            "[axes]\nio_backend = [\"fpp\", \"agg:4\"]\n[[exclude]]\nio_backend = \"agg4\"",
        )
        .unwrap_err();
        assert_eq!(
            err,
            "exclude io_backend = 'agg4' matches no value of that axis (declared: fpp, agg:4)"
        );
    }

    #[test]
    fn usage_documents_the_spec_flag() {
        assert!(usage().contains("--spec FILE"));
    }

    #[test]
    fn missing_value_is_rejected() {
        assert!(parse_args(["--num_dumps"]).is_err());
    }
}
