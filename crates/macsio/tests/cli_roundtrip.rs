//! Property test: any valid MACSio configuration survives the
//! `command_line()` -> `parse_args()` round trip.

use io_engine::{ReadSelection, Scenario};
use macsio::{parse_args, FileMode, Interface, MacsioConfig, RunMode};
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = MacsioConfig> {
    (
        (
            prop_oneof![Just(Interface::Miftmpl), Just(Interface::Json)],
            1usize..64, // nprocs
            prop_oneof![(1usize..64).prop_map(FileMode::Mif), Just(FileMode::Sif)],
            1u32..50,         // num_dumps
            1u64..10_000_000, // part_size
            1u32..4,          // avg parts (whole, to survive text round trip)
            1usize..5,        // vars
            0u64..10_000,     // meta
            0.99f64..1.05,    // growth (printed in full precision)
        ),
        prop_oneof![
            Just(RunMode::Write),
            Just(RunMode::Restart),
            Just(RunMode::WriteRead)
        ],
        prop_oneof![
            Just(ReadSelection::Full),
            (0u32..3).prop_map(ReadSelection::Level),
            Just(ReadSelection::Field("root".to_string())),
            (0u32..4).prop_map(|t| ReadSelection::parse(&format!("box:0,{t}-{}", t + 2)).unwrap()),
        ],
        prop_oneof![
            Just(None),
            Just(Some(Scenario::write_only())),
            Just(Some(Scenario::write_restart())),
            (1u64..4).prop_map(|k| Some(Scenario::fail_restart(k))),
            (1u64..4).prop_map(|m| Some(Scenario::in_run_analysis(
                m,
                ReadSelection::Field("root".to_string())
            ))),
            Just(Some(Scenario::parse("write;readall").unwrap())),
        ],
    )
        .prop_map(
            |(
                (interface, nprocs, mode, dumps, part, avg, vars, meta, growth),
                run_mode,
                read_pattern,
                scenario,
            )| {
                MacsioConfig {
                    interface,
                    parallel_file_mode: mode,
                    num_dumps: dumps,
                    part_size: part,
                    avg_num_parts: avg as f64,
                    vars_per_part: vars,
                    compute_time: 0.25,
                    meta_size: meta,
                    dataset_growth: growth,
                    nprocs,
                    seed: MacsioConfig::default().seed,
                    io_backend: MacsioConfig::default().io_backend,
                    compression: MacsioConfig::default().compression,
                    mode: run_mode,
                    read_pattern,
                    scenario,
                }
            },
        )
}

proptest! {
    #[test]
    fn command_line_round_trips(cfg in arb_config()) {
        let line = cfg.command_line();
        // Strip the "jsrun -n N macsio" prefix into --nprocs form.
        let tokens: Vec<&str> = line.split_whitespace().collect();
        prop_assert_eq!(tokens[0], "jsrun");
        prop_assert_eq!(tokens[1], "-n");
        let mut args = vec!["--nprocs".to_string(), tokens[2].to_string()];
        args.extend(tokens[4..].iter().map(|s| s.to_string()));
        let parsed = parse_args(args.iter().map(String::as_str)).expect("round trip parses");

        prop_assert_eq!(parsed.interface, cfg.interface);
        prop_assert_eq!(parsed.num_dumps, cfg.num_dumps);
        prop_assert_eq!(parsed.part_size, cfg.part_size);
        prop_assert_eq!(parsed.vars_per_part, cfg.vars_per_part);
        prop_assert_eq!(parsed.meta_size, cfg.meta_size);
        prop_assert_eq!(parsed.nprocs, cfg.nprocs);
        prop_assert!((parsed.avg_num_parts - cfg.avg_num_parts).abs() < 1e-12);
        prop_assert!((parsed.dataset_growth - cfg.dataset_growth).abs() < 1e-12);
        prop_assert_eq!(parsed.mode, cfg.mode);
        prop_assert_eq!(parsed.read_pattern, cfg.read_pattern);
        prop_assert_eq!(parsed.scenario, cfg.scenario);
        // MIF counts are clamped to nprocs when printed.
        match (parsed.parallel_file_mode, cfg.parallel_file_mode) {
            (FileMode::Sif, FileMode::Sif) => {}
            (FileMode::Mif(a), FileMode::Mif(b)) => {
                prop_assert_eq!(a, b.min(cfg.nprocs));
            }
            other => prop_assert!(false, "mode mismatch {other:?}"),
        }
    }

    /// Parsed configurations always validate and produce the same byte
    /// predictions as the original.
    #[test]
    fn round_tripped_config_predicts_same_bytes(cfg in arb_config()) {
        let line = cfg.command_line();
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let mut args = vec!["--nprocs".to_string(), tokens[2].to_string()];
        args.extend(tokens[4..].iter().map(|s| s.to_string()));
        let parsed = parse_args(args.iter().map(String::as_str)).unwrap();
        for dump in [0u32, 1, 2] {
            prop_assert_eq!(
                macsio::dump::predicted_dump_bytes(&parsed, dump),
                macsio::dump::predicted_dump_bytes(&MacsioConfig {
                    parallel_file_mode: parsed.parallel_file_mode,
                    ..cfg.clone()
                }, dump)
            );
        }
    }
}

/// An out-of-range flag value is a parse error naming the field, and the
/// binary reports it and exits non-zero instead of panicking.
#[test]
fn out_of_range_flags_are_errors_not_panics() {
    for (flag, value, field) in [
        ("--nprocs", "0", "nprocs"),
        ("--part_size", "0", "part_size"),
        ("--avg_num_parts", "-2", "avg_num_parts"),
        ("--vars_per_part", "0", "vars_per_part"),
        ("--dataset_growth", "NaN", "dataset_growth"),
        ("--compute_time", "inf", "compute_time"),
        ("--dataset_growth", "1e40", "cannot be allocated"),
    ] {
        let err = parse_args([flag, value]).unwrap_err();
        assert!(err.contains(field), "{flag} {value}: {err}");

        let out = std::process::Command::new(env!("CARGO_BIN_EXE_macsio"))
            .args([flag, value])
            .output()
            .expect("the macsio binary runs");
        assert_eq!(out.status.code(), Some(2), "{flag} {value}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(field), "{flag} {value}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag} {value}: {stderr}");
    }
}
