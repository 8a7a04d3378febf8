//! `cargo run --release -p bench --bin figures -- [--list | TARGET...]`:
//! see the `bench` crate docs.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match bench::run(&args, &bench::results_dir()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(failure) => {
            eprintln!("{}", failure.message);
            ExitCode::from(failure.code)
        }
    }
}
