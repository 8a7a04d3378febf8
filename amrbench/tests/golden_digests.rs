//! The simulated-statistics goldens: a single flipped bit is caught, and
//! the parallel executor reproduces the serial reference on every
//! workload's smallest cell.

use amrbench::metrics::WORKLOADS;
use amrbench::runner::{check_golden, set_up};
use amrbench::workload::{Checks, RunOpts};
use std::path::Path;

fn quick_opts(tag: &str) -> RunOpts {
    RunOpts {
        seed: 5,
        quick: true,
        out: Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("golden_{tag}")),
    }
}

#[test]
fn one_flipped_mantissa_bit_of_one_wall_time_fails_the_check() {
    let opts = quick_opts("flip");
    let mut w = set_up("table3_oracle", &opts).unwrap();
    let mut digest = w.pass(0).unwrap().digest;
    assert_eq!(digest.len(), 1, "the quick workload is one cell");

    let mut intact = Checks::default();
    check_golden("table3_oracle", &digest, true, &mut intact);
    assert_eq!(
        (intact.attempted, intact.failed),
        (1, 0),
        "{:?}",
        intact.messages
    );

    // Column 4 is `wall_time` (digest::SUMMARY_FIELDS).
    let key = digest.rows().keys().next().unwrap().clone();
    assert_eq!(amrbench::digest::SUMMARY_FIELDS[4], "wall_time");
    digest.row_mut(&key).unwrap()[4] ^= 1;
    let mut flipped = Checks::default();
    check_golden("table3_oracle", &digest, true, &mut flipped);
    assert_eq!(flipped.failed, 1);
    assert!(flipped.fail_share() > 0.0);
    assert!(
        flipped.messages[0].contains("col 4"),
        "{:?}",
        flipped.messages
    );
    std::fs::remove_dir_all(&opts.out).unwrap();
}

#[test]
fn a_row_the_full_golden_lacks_fails_outside_quick_mode() {
    let opts = quick_opts("subset");
    let mut w = set_up("machine_room", &opts).unwrap();
    let digest = w.pass(0).unwrap().digest;
    let mut quick = Checks::default();
    check_golden("machine_room", &digest, true, &mut quick);
    assert_eq!(quick.failed, 0, "{:?}", quick.messages);
    // The same two rows against the whole golden: 184 rows are missing.
    let mut full = Checks::default();
    check_golden("machine_room", &digest, false, &mut full);
    assert_eq!(full.failed, 1);
    std::fs::remove_dir_all(&opts.out).unwrap();
}

#[test]
fn parallel_and_serial_executors_agree_on_every_workloads_smallest_cell() {
    let opts = quick_opts("serial");
    for decl in &WORKLOADS {
        let mut w = set_up(decl.name, &opts).unwrap();
        let parallel = w.pass(0).unwrap();
        assert_eq!(
            parallel.checks.failed, 0,
            "{}: {:?}",
            decl.name, parallel.checks.messages
        );
        let serial = w.reference_digest().unwrap();
        assert!(!serial.is_empty(), "{}", decl.name);
        assert_eq!(
            parallel.digest.diff(&serial),
            Vec::<String>::new(),
            "{}",
            decl.name
        );
    }
    std::fs::remove_dir_all(&opts.out).unwrap();
}
