//! Dynamic ("burstiness") study: the same AMR workload against different
//! storage configurations — the use-case the paper positions MACSio for
//! once the static model is calibrated.
//!
//! ```text
//! cargo run --release --example io_burstiness
//! ```

use amr_proxy_io::amrproxy::{run_simulation, CastroSedovConfig, Engine};
use amr_proxy_io::iosim::StorageModel;

fn main() {
    let cfg = CastroSedovConfig {
        name: "burstiness".into(),
        engine: Engine::Oracle,
        n_cell: 512,
        max_level: 2,
        max_step: 40,
        plot_int: 4,
        nprocs: 32,
        compute_ns_per_cell: 2000.0,
        account_only: true,
        ..Default::default()
    };

    println!(
        "{:>14} {:>10} {:>12} {:>14} {:>12}",
        "storage", "bursts", "duty cycle", "peak BW (GB/s)", "burstiness"
    );
    for (label, scale) in [
        ("summit 1/77", 1.0 / 77.0),
        ("summit 1/9", 1.0 / 9.0),
        ("summit full", 1.0),
    ] {
        let storage = StorageModel::summit_alpine(scale);
        let r = run_simulation(&cfg, None, Some(&storage));
        println!(
            "{label:>14} {:>10} {:>12.4} {:>14.2} {:>12.1}",
            r.totals.timeline.len(),
            r.totals.timeline.duty_cycle(),
            r.totals.timeline.peak_bandwidth() / 1e9,
            r.totals.timeline.burstiness()
        );
    }

    println!(
        "\nSmaller storage slices stretch each write burst (higher duty cycle);\n\
         the full system absorbs the dump almost instantly (very bursty)."
    );
}
